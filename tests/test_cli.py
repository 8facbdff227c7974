"""CLI surface: envelopes, formats, exit codes."""

import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apsum.cli
import apsum.cone
import apsum.frobenius
from apsum import (ArithmeticSeed, DomainError, apery_records, apery_table, cone_to_json, order_oracle,
                   partial_sum_generators, strip_timing)
from apsum.cli import _cell, _csv, _jobs, _json, _records_json, _rows_json, build_parser, main
from apsum.cone import AperyTable
from apsum.family import AperyRecord
from apsum.ideal import GastingerReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_apery_table_format(capsys):
    code, out, _ = run(capsys, "apery", "--a", "11", "--d", "2", "--format", "table")
    assert code == 0
    assert out.split() == ["0", "24", "39", "48", "56", "63", "75", "80", "87", "95", "104"]


def test_apery_json_envelope(capsys):
    code, out, _ = run(capsys, "apery", "--a", "11", "--d", "2")
    assert code == 0
    envelope = json.loads(out)
    assert envelope["command"] == "apery"
    assert envelope["seed"] == {"a": 11, "d": 2, "m": 5}
    assert envelope["schemaVersion"] == 1
    values = sorted([0] + [rec["value"] for rec in envelope["payload"]])
    assert values == [0, 24, 39, 48, 56, 63, 75, 80, 87, 95, 104]


def test_apery_oracle_flag_same_set(capsys):
    _, closed, _ = run(capsys, "apery", "--a", "11", "--d", "2", "--format", "table")
    _, oracle, _ = run(capsys, "apery", "--a", "11", "--d", "2", "--oracle", "--format", "table")
    assert closed == oracle


def test_ideal_verify_exit_zero(capsys):
    code, out, _ = run(capsys, "ideal", "verify", "--a", "23", "--d", "1")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["dimension"] == 23
    assert payload["pass"] and payload["minimal"]


def test_ideal_verify_failure_exit_code(capsys, monkeypatch):
    import apsum.cli as cli

    def fake_verify(seed):
        return GastingerReport(dimension=24, passed=False, minimal=True, drop_one_dims={})

    monkeypatch.setattr(cli, "gastinger_verify", fake_verify)
    code, _, _ = run(capsys, "ideal", "verify", "--a", "23", "--d", "1")
    assert code == 4


def test_table_csv_matches_export(capsys):
    code, out, _ = run(capsys, "table", "--a", "11", "--d", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    assert lines[0] == "0,24,48,39,63,87,56,80,104,95,75"
    assert all(len(line.split(",")) == 11 for line in lines)


SEED_23_1 = ["--a", "23", "--d", "1"]
SWEEP_GRID = ["--a-range", "16:17", "--d-range", "1:2", "--jobs", "1"]


@pytest.mark.parametrize("command", [
    ["apery", *SEED_23_1],
    ["ideal", "list", *SEED_23_1],
    ["info", *SEED_23_1],
    ["info", "--m", "6", *SEED_23_1],
    ["apery", "--oracle", *SEED_23_1],
    ["frobenius", *SEED_23_1],
    ["frobenius", "--oracle", *SEED_23_1],
    ["pf", *SEED_23_1],
    ["pf", "--oracle", *SEED_23_1],
    ["order", "--value", "119", *SEED_23_1],
    ["ideal", "list", "--strict-21", *SEED_23_1],
    ["ideal", "verify", *SEED_23_1],
    ["table", *SEED_23_1],
    ["cone", *SEED_23_1],
    ["hilbert", *SEED_23_1],
    ["sweep", "unique", "--m", "5", *SWEEP_GRID],
    ["sweep", "gamma6", *SWEEP_GRID],
])
def test_csv_rows_match_header_width(capsys, tmp_path, command):
    if command[0] == "sweep":  # the second run reuses the records, timings included
        command = [*command, "--checkpoint", str(tmp_path / "sweep.jsonl")]
    code, out, _ = run(capsys, *command, "--format", "csv")
    assert code == 0
    header, *rows = list(csv.reader(out.splitlines()))
    assert rows
    assert all(len(row) == len(header) for row in rows)
    if command[0] == "table":
        return  # the bare matrix, checked by test_table_csv_matches_export
    payload = json.loads(run(capsys, *command)[1])["payload"]
    records = payload if isinstance(payload, list) else [payload]
    assert sorted(header) == sorted(records[0]) and len(rows) == len(records)
    for row, record in zip(rows, records):
        for key, cell in zip(header, row):
            if isinstance(record[key], (list, dict)):
                assert json.loads(cell) == record[key]


@pytest.mark.parametrize("command", ["cone", "hilbert", "table"])
@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_one_apery_table_per_query(capsys, monkeypatch, command, fmt):
    build, builds = apsum.cone.apery_table, []

    def counting(seed):
        builds.append(seed)
        return build(seed)

    for module in (apsum.cone, apsum.cli):
        monkeypatch.setattr(module, "apery_table", counting)
    code, _, _ = run(capsys, command, "--a", "137", "--d", "4", "--format", fmt)
    assert code == 0
    assert len(builds) == 1


@pytest.mark.parametrize("command,fmt,calls", [
    ("info", "json", 1), ("pf", "json", 1), ("frobenius", "json", 1),
    ("cone", "table", 1), ("cone", "json", 0),
])
def test_pf_built_at_most_once_per_query(capsys, monkeypatch, command, fmt, calls):
    build, builds = apsum.frobenius.pseudo_frobenius_set, []

    def counting(seed):
        builds.append(seed)
        return build(seed)

    sites = [m for name, m in sys.modules.items()
             if name.startswith("apsum.") and getattr(m, "pseudo_frobenius_set", None) is build]
    assert apsum.cli in sites and apsum.cone in sites
    for module in sites:
        monkeypatch.setattr(module, "pseudo_frobenius_set", counting)
    code, _, _ = run(capsys, command, "--a", "137", "--d", "4", "--format", fmt)
    assert code == 0
    assert len(builds) == calls


def test_domain_error_exit_code(capsys):
    code, out, err = run(capsys, "info", "--a", "12", "--d", "2")
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "notCoprime"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["apery", "--a", "11"])  # missing --d
    assert exc.value.code == 2


def test_order_command(capsys):
    code, out, _ = run(capsys, "order", "--a", "11", "--d", "2", "--value", "104")
    assert code == 0
    assert json.loads(out)["payload"] == {"element": 104, "order": 3}


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out, _ = run(capsys, "frobenius", "--a", "11", "--d", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["payload"] == {"frobenius": 93}


def test_payloads_identical_across_formats(capsys):
    _, json_out, _ = run(capsys, "cone", "--a", "11", "--d", "2")
    payload = json.loads(json_out)["payload"]
    assert payload["tCounts"] == [1, 4, 4, 2]
    assert payload["reductionNumber"] == {"formula": 2, "computed": 3}
    # table format renders the same payload, not a different computation
    _, table_out, _ = run(capsys, "cone", "--a", "11", "--d", "2", "--format", "table")
    assert "tCounts [1, 4, 4, 2]" in table_out


def test_sweep_unique_cli(capsys, tmp_path):
    path = tmp_path / "u.jsonl"
    code, out, _ = run(
        capsys, "sweep", "unique", "--m", "5", "--a-range", "11:13",
        "--d-range", "1:2", "--jobs", "1", "--checkpoint", str(path),
    )
    assert code == 0
    payload = json.loads(out)["payload"]
    assert len(payload["records"]) == 6
    assert payload["counterexamples"] == []
    assert len(path.read_text().splitlines()) == 1 + 6


def test_sweep_checkpoint_of_another_kind_exits_3(capsys, tmp_path):
    path = str(tmp_path / "g6.jsonl")
    grid = ("--a-range", "16:17", "--d-range", "1:2", "--jobs", "1", "--checkpoint", path)
    assert run(capsys, "sweep", "gamma6", *grid)[0] == 0
    code, out, err = run(capsys, "sweep", "unique", "--m", "6", *grid)
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "checkpointMismatch"


def test_sweep_gamma6_cli(capsys):
    code, out, _ = run(capsys, "sweep", "gamma6", "--a-range", "16:18",
                       "--d-range", "1:2", "--jobs", "1")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert {r["verdict"] for r in payload["records"]} <= {"match", "mismatch", "skip"}


def test_info_command(capsys):
    code, out, _ = run(capsys, "info", "--a", "11", "--d", "2")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["generators"] == [11, 24, 39, 56, 75]
    assert payload["minimal"] is True
    assert payload["frobenius"] == 93
    assert payload["type"] == 4


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


LEAVES = ["info", "apery", "frobenius", "pf", "order", "ideal list", "ideal verify",
          "table", "cone", "hilbert", "sweep unique", "sweep gamma6"]


@pytest.mark.parametrize("leaf", LEAVES)
def test_envelope_names_every_leaf_and_its_seed(capsys, leaf):
    sweep = leaf.startswith("sweep ")
    args = ["--a-range", "16:17", "--d-range", "1:2", "--jobs", "1"] if sweep else ["--a", "11", "--d", "2"]
    if leaf == "order":
        args += ["--value", "24"]
    code, out, _ = run(capsys, *leaf.split(), *args)
    assert code == 0
    envelope = json.loads(out)
    assert envelope["command"] == leaf
    assert envelope["seed"] == (None if sweep else {"a": 11, "d": 2, "m": 5})
    assert out == json.dumps(envelope, indent=2, sort_keys=True) + "\n"


def test_sweep_unique_defaults_to_m_6(capsys, tmp_path):
    path = tmp_path / "u.jsonl"
    code, out, _ = run(capsys, "sweep", "unique", "--a-range", "16:17", "--d-range", "1:2",
                       "--jobs", "1", "--checkpoint", str(path))
    assert code == 0
    assert json.loads(out)["payload"]["grid"]["m"] == 6
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == 1 + 4
    assert {r["m"] for r in records} == {6}


@pytest.mark.parametrize("argv, missing", [
    ([], "command"), (["ideal"], "ideal_command"), (["sweep"], "sweep_command"),
])
def test_missing_subcommand_is_usage_error(capsys, argv, missing):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: apsum")
    assert f"error: the following arguments are required: {missing}\n" in err


@pytest.mark.parametrize("leaf", LEAVES)
def test_help_exits_zero_on_every_leaf(capsys, leaf):
    with pytest.raises(SystemExit) as exc:
        main([*leaf.split(), "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: apsum {leaf} ")


def leaf_parsers(parser, path=()):
    """(leaf name, parser) for every leaf under ``parser``."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [(" ".join(path), parser)]
    return [leaf for word, p in subs[0].choices.items() for leaf in leaf_parsers(p, (*path, word))]


def test_every_leaf_option_has_help():
    leaves = leaf_parsers(build_parser())
    assert sorted(name for name, _ in leaves) == sorted(LEAVES)
    bare = [(name, a.option_strings[0]) for name, p in leaves for a in p._actions
            if a.option_strings and a.option_strings != ["-h", "--help"] and not a.help]
    assert bare == []


@pytest.mark.parametrize("a_range, colon_form, seeds", [("16..17", "16:17", 2), ("16", "16:16", 1)])
def test_sweep_range_forms_name_the_same_grid(capsys, a_range, colon_form, seeds):
    # _parse_range reads LO..HI and a single value as well as LO:HI
    payloads = []
    for text in (a_range, colon_form):
        code, out, _ = run(capsys, "sweep", "gamma6", "--a-range", text, "--d-range", "1:1", "--jobs", "1")
        assert code == 0
        payloads.append(json.loads(out)["payload"])
    got, want = payloads
    assert got["grid"] == want["grid"]
    assert strip_timing(got["records"]) == strip_timing(want["records"])
    assert len(got["records"]) == seeds


@pytest.mark.parametrize("a_range,d_range", [("20:16", "1:2"), ("16:20", "8:1"), ("x:20", "1:2"), ("16..x", "1:2")])
def test_sweep_bad_range_is_usage_error(capsys, a_range, d_range):
    code, out, err = run(capsys, "sweep", "gamma6", "--a-range", a_range, "--d-range", d_range,
                         "--jobs", "1")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "invalidRange"


def test_jobs_clamped_to_cpu_count(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    assert _jobs(argparse.Namespace(jobs=None)) == 2
    assert _jobs(argparse.Namespace(jobs=64)) == 2
    assert _jobs(argparse.Namespace(jobs=0)) == 1
    assert _jobs(argparse.Namespace(jobs=1)) == 1


def test_sweep_unique_small_m_is_domain_error(capsys):
    code, out, err = run(capsys, "sweep", "unique", "--m", "1", "--a-range", "11:12",
                         "--d-range", "1:1", "--jobs", "1")
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "invalidSeed"


@pytest.mark.parametrize("command", [("info",), ("apery",), ("order", "--value", "24")])
def test_m_zero_is_domain_error(capsys, command):
    # m = 0 is refused like m = 1, not read as the default m = 5
    code, out, err = run(capsys, *command, "--a", "11", "--d", "2", "--m", "0")
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "invalidSeed"


def test_python_m_apsum_runs_the_cli(capsys):
    src = str(Path(apsum.cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "apsum", "info", "--a", "11", "--d", "2"],
                          capture_output=True, text=True, env=env, check=False)
    code, out, _ = run(capsys, "info", "--a", "11", "--d", "2")
    assert proc.returncode == code == 0
    assert proc.stdout == out


@pytest.mark.parametrize("sweep", [("unique", "--m", "6"), ("gamma6",)])
@pytest.mark.parametrize("a_range, d_range", [("16:17", "0:1"), ("16:17", "-1:1"), ("1:2", "1:1")])
def test_sweep_grid_outside_the_seeds_is_domain_error(capsys, tmp_path, sweep, a_range, d_range):
    path = tmp_path / "sweep.jsonl"
    code, out, err = run(capsys, "sweep", *sweep, f"--a-range={a_range}", f"--d-range={d_range}",
                         "--jobs", "1", "--checkpoint", str(path))
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "invalidSeed"
    assert not path.exists()


def test_unwritable_out_is_io_error(capsys, tmp_path):
    code, out, err = run(capsys, "info", "--a", "11", "--d", "2",
                         "--out", str(tmp_path / "missing" / "x.json"))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ioError"


@pytest.mark.parametrize("where", ["missing/c.jsonl", "."])
def test_unwritable_checkpoint_is_io_error(capsys, tmp_path, where):
    code, out, err = run(capsys, "sweep", "gamma6", "--a-range", "16:17", "--d-range", "1:1",
                         "--jobs", "1", "--checkpoint", str(tmp_path / where))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ioError"
    assert sorted(p.name for p in tmp_path.iterdir()) == []


# values from 10^20 up overflow an index or a shift count before anything is allocated
@pytest.mark.parametrize("argv, error", [
    (["info", "--a", "1", "--d", "1"], "invalidSeed"),
    (["info", "--a", "5", "--d", "0"], "invalidSeed"),
    (["order", "--a", "11", "--d", "2", "--value", "-5"], "invalidElement"),
    (["order", "--a", "7", "--d", "1", "--value", str(10**20)], "tooLarge"),  # a < 11: the oracle
    (["apery", "--oracle", "--a", str(10**20), "--d", "1"], "tooLarge"),
    (["frobenius", "--oracle", "--a", str(10**20), "--d", "1"], "tooLarge"),
    # closed commands that list all a - 1 Apery classes: the list is sized before it is filled
    (["apery", "--a", str(10**20), "--d", "1"], "tooLarge"),
    (["table", "--a", str(10**20), "--d", "1"], "tooLarge"),
    (["cone", "--a", str(10**20), "--d", "1"], "tooLarge"),
    (["hilbert", "--a", str(10**20), "--d", "1"], "tooLarge"),
])
def test_bad_input_is_a_coded_domain_error(capsys, argv, error):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == error


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGIT_LIMIT, reason="int-to-str conversion has no digit limit")
@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("command", ["info", "frobenius", "pf"])
def test_answer_past_the_digit_limit_is_too_large(capsys, tmp_path, command, fmt):
    # a has as many digits as str() allows, so 2a + d and the answers built on it have one more
    a = 9 * 10 ** (DIGIT_LIMIT - 1) + 1
    target = tmp_path / "out"
    for out_flag in ((), ("--out", str(target))):
        code, out, err = run(capsys, command, "--a", str(a), "--d", "1", "--format", fmt, *out_flag)
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == "tooLarge"
    assert not target.exists()


@pytest.mark.skipif(not DIGIT_LIMIT, reason="int-to-str conversion has no digit limit")
@pytest.mark.parametrize("command, fmt", [("apery", "json"), ("apery", "csv"), ("apery", "table"),
                                          ("table", "json"), ("table", "csv"), ("table", "table"),
                                          ("cone", "json"), ("cone", "csv")])
def test_column_rendered_value_past_the_digit_limit_is_too_large(capsys, monkeypatch, command, fmt):
    # no seed the package can compute reaches the limit, so the records and the table are stand-ins
    huge = 10 ** DIGIT_LIMIT
    monkeypatch.setattr(apsum.cli, "apery_records", lambda seed: [AperyRecord(1, 2, huge, huge - 11, 1, (0, 1, 0, 0))])
    monkeypatch.setattr(apsum.cli, "apery_table", lambda seed: AperyTable(seed, (0, huge), (0, 1), (1, 1)))
    code, out, err = run(capsys, command, "--a", "11", "--d", "2", "--format", fmt)
    assert (code, out, json.loads(err)["error"]) == (3, "", "tooLarge")


def test_value_error_outside_rendering_is_not_too_large(capsys, monkeypatch):
    def broken(seed):
        raise ValueError("not a rendering fault")

    monkeypatch.setattr(apsum.cli, "pseudo_frobenius_set", broken)
    with pytest.raises(ValueError, match="not a rendering fault"):
        main(["frobenius", "--a", "11", "--d", "2"])


def test_minimality_of_a_huge_seed_is_closed(capsys):
    # a > C(m, 2) decides minimality for every m, so no oracle runs at a = 10^20 + 1
    a = 10**20 + 1
    code, out, err = run(capsys, "info", "--m", "6", "--a", str(a), "--d", "1")
    assert (code, err) == (0, "")
    payload = json.loads(out)["payload"]
    assert payload["minimal"] is True
    assert payload["generators"] == [k * a + k * (k - 1) // 2 for k in range(1, 7)]


def test_cli_import_leaves_multiprocessing_unloaded():
    # only sweeps with --jobs > 1 need a process pool; every other query skips its import cost
    src = str(Path(apsum.cli.__file__).resolve().parent.parent)
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import apsum.cli; "
             "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-I", "-c", probe, src], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_cli_start_up_loads_neither_dataclasses_nor_inspect():
    # the result types are NamedTuples: dataclasses (and the inspect, ast and dis it
    # imports) cost about half of a fresh query's start-up
    src = str(Path(apsum.cli.__file__).resolve().parent.parent)
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import apsum.cli; apsum.cli.build_parser(); "
             "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-I", "-c", probe, src], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_out_of_memory_is_too_large(capsys, monkeypatch):
    def exhausted(value, gens):
        raise MemoryError

    monkeypatch.setattr(apsum.cli, "order_oracle", exhausted)
    code, out, err = run(capsys, "order", "--m", "6", "--a", "11", "--d", "2", "--value", "104")
    assert code == 3
    assert out == ""
    assert json.loads(err) == {"error": "tooLarge", "message": "input too large to compute: MemoryError()"}


@pytest.mark.parametrize("command", ["hilbert", "apery"])
def test_running_out_of_address_space_is_too_large(command):
    # at a = 1,500,007 the record list outgrows a 200 MB address space part way
    # through; the message must be formatted after that list is freed, or the
    # process exits 1 ("lost sys.stderr") or spins, which the timeout fails
    resource = pytest.importorskip("resource")
    src = str(Path(apsum.cli.__file__).resolve().parent.parent)
    probe = "import sys; sys.path.insert(0, sys.argv[1]); import apsum.cli; sys.exit(apsum.cli.main(sys.argv[2:]))"
    proc = subprocess.run(
        [sys.executable, "-I", "-c", probe, src, command, "--a", "1500007", "--d", "1"],
        capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (200 * 10**6, resource.RLIM_INFINITY)))
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "tooLarge"


def test_closed_order_of_a_huge_value(capsys):
    # the oracle path refuses 10^20 with tooLarge; the closed path answers from one Apery
    # record.  Past the Apery set every step of a adds one generator (a free tangent cone),
    # so the order is the oracle's at a small value of the same class plus the steps.
    value, gens = 10**20, (11, 24, 39, 56, 75)
    small = value % 11 + 11 * 20  # above max Ap = 104
    code, out, err = run(capsys, "order", "--a", "11", "--d", "2", "--value", str(value))
    assert (code, err) == (0, "")
    expected = order_oracle(small, gens) + (value - small) // 11
    assert json.loads(out)["payload"] == {"element": value, "order": expected}


@pytest.mark.parametrize("a, d", [(11, 2), (13, 7), (23, 1)])
def test_order_prints_what_the_oracle_computes(capsys, a, d):
    gens = partial_sum_generators(ArithmeticSeed(a, d))
    for value in range(-1, 12 * a):  # non-members and negatives included
        try:
            expected = (0, {"element": value, "order": order_oracle(value, gens)}, None)
        except DomainError as err:
            expected = (3, None, {"error": err.code, "message": str(err)})
        code, out, err = run(capsys, "order", "--a", str(a), "--d", str(d), "--value", str(value))
        got = (code, json.loads(out)["payload"] if out else None, json.loads(err) if err else None)
        assert got == expected, value


@pytest.mark.parametrize("seed", [("--a", "7", "--d", "1"), ("--m", "6", "--a", "11", "--d", "2")])
def test_order_outside_the_closed_form_uses_the_oracle(capsys, seed):
    code, out, _ = run(capsys, "order", *seed, "--value", "24")
    assert code == 0
    assert json.loads(out)["payload"] == {"element": 24, "order": 1}


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64)
                | st.integers(max_value=-2**64) | st.text())
ROW_CELLS = st.integers() | st.booleans() | st.integers(min_value=2**64) | st.integers(max_value=-2**64)
EQUAL_ROWS = st.integers(0, 4).flatmap(
    lambda width: st.lists(st.lists(ROW_CELLS, min_size=width, max_size=width), max_size=4))
JSON_VALUES = st.recursive(
    JSON_SCALARS | st.lists(st.integers() | st.booleans()) | EQUAL_ROWS | EQUAL_ROWS.map(tuple)
    | EQUAL_ROWS.map(lambda rows: tuple(map(tuple, rows))),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=25,
)


@settings(max_examples=100, deadline=None)
@given(JSON_VALUES)
def test_json_renderer_writes_what_the_stdlib_writes(value):
    assert _json(value) == json.dumps(value, indent=2, sort_keys=True)


REDUMP_LEAVES = [["info"], ["apery"], ["apery", "--oracle"], ["pf"], ["frobenius"], ["order"],
                 ["ideal", "list"], ["ideal", "list", "--strict-21"], ["ideal", "verify"],
                 ["table"], ["cone"], ["hilbert"]]


@pytest.mark.parametrize("a", [11, 21, 22])
@pytest.mark.parametrize("d", [1, 2, "40a-1"])
def test_json_output_is_the_stdlib_indent_dump(capsys, a, d):
    d = 40 * a - 1 if d == "40a-1" else d
    for leaf in REDUMP_LEAVES:
        extra = ["--value", str(3 * a + d)] if leaf == ["order"] else []
        code, out, err = run(capsys, *leaf, "--a", str(a), "--d", str(d), *extra)
        if (a, d) == (22, 2):
            assert (code, out, json.loads(err)["error"]) == (3, "", "notCoprime")
            continue
        assert code == 0, (leaf, err)
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", leaf


def record_dicts(records):
    """The records as the JSON payload of ``apery`` holds them."""
    return [{**r._asdict(), "expansion": list(r.expansion)} for r in records]


def stdlib_csv(payload) -> str:
    """What ``csv.writer`` writes for a dict or list-of-dict payload: the header, then the records, containers as JSON."""
    records = [payload] if isinstance(payload, dict) else payload
    keys = list(records[0])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(keys)
    writer.writerows([json.dumps(r[k]) if isinstance(r[k], (list, tuple, dict)) else r[k] for k in keys]
                     for r in records)
    return buf.getvalue()


# past the 30 columns apery_table certifies one by one, and up to the largest tables; every pair is coprime
@pytest.mark.parametrize("a, d", [(a, d) for a in (30, 31, 137, 997) for d in (1, 7, 40 * a - 1)])
def test_column_rendered_output_is_the_stdlib_indent_dump(capsys, a, d):
    seed, argv = ArithmeticSeed(a, d), ["--a", str(a), "--d", str(d)]
    table = apery_table(seed)
    rows = [list(r) for r in table.rows]
    expected = {"apery": record_dicts(apery_records(seed)), "table": {"rows": rows, "top": table.top},
                "cone": cone_to_json(table)}
    for leaf, payload in expected.items():
        code, out, err = run(capsys, leaf, *argv)
        assert (code, err) == (0, ""), leaf
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", leaf
        assert json.loads(out)["payload"] == payload, leaf
    code, out, _ = run(capsys, "table", *argv, "--format", "csv")
    assert out == "".join(",".join(map(str, row)) + "\n" for row in table.rows)
    code, out, err = run(capsys, "table", *argv, "--format", "table")
    assert (code, err) == (0, "")
    assert out == "".join(" ".join(f"{v:5d}" for v in row) + "\n" for row in table.rows)
    code, out, err = run(capsys, "cone", *argv, "--format", "csv")
    assert (code, err) == (0, "")
    assert out == stdlib_csv(cone_to_json(table))


@pytest.mark.parametrize("pad", ["\n", "\n    "])
def test_record_renderer_writes_the_stdlib_dump_of_the_record_dicts(pad):
    for a, d in [(11, 2), (31, 7), (137, 40 * 137 - 1)]:
        records = apery_records(ArithmeticSeed(a, d))
        assert _records_json(records, pad) == json.dumps(record_dicts(records), indent=2,
                                                         sort_keys=True).replace("\n", pad)


@pytest.mark.parametrize("pad", [None, "\n", "\n    "])
def test_row_renderer_writes_the_stdlib_dump_of_the_rows(pad):
    for a, d in [(11, 2), (31, 7), (137, 40 * 137 - 1)]:
        table = apery_table(ArithmeticSeed(a, d))
        rows = [list(r) for r in table.rows]
        expected = json.dumps(rows) if pad is None else json.dumps(rows, indent=2).replace("\n", pad)
        assert _rows_json(table, pad) == expected


# strings holding the characters a CSV cell is quoted for; a top-level cell holds no raw CR, as no CLI cell
# does (JSON escapes it), so the test does not depend on how a CPython version's csv.writer treats one
CSV_TEXT = st.text(st.characters() | st.sampled_from(',"\n'))
CSV_LABELS = st.text(st.characters(exclude_characters="\r") | st.sampled_from(',"\n'), min_size=1)
CSV_SCALARS = (st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-2**64) | st.booleans()
               | st.just("infinite"))
CSV_CONTAINERS = st.recursive(
    st.lists(CSV_SCALARS | CSV_TEXT),
    lambda inner: st.lists(inner | CSV_SCALARS | CSV_TEXT) | st.lists(inner).map(tuple)
    | st.dictionaries(CSV_TEXT, inner | CSV_SCALARS | CSV_TEXT),
    max_leaves=6,
)
CSV_CELLS = CSV_SCALARS | CSV_LABELS | CSV_CONTAINERS


def csv_records(keys):
    return st.fixed_dictionaries(dict.fromkeys(keys, CSV_CELLS))


CSV_PAYLOADS = st.lists(CSV_LABELS, min_size=1, max_size=3, unique=True).flatmap(
    lambda keys: csv_records(keys) | st.lists(csv_records(keys), min_size=1, max_size=3))


@settings(max_examples=100, deadline=None)
@given(CSV_PAYLOADS)
def test_csv_renderer_writes_what_csv_writer_writes(payload):
    assert _csv(payload) == stdlib_csv(payload)


@pytest.mark.parametrize("value, cell", [
    ((1, 2), "[1, 2]"), ([1, (2, 3)], "[1, [2, 3]]"), ({"k": (1, True)}, '{"k": [1, true]}'), ((), "[]"),
    (7, "7"), (True, "True"), ("x, y", "x, y"),
])
def test_csv_cell_writes_containers_as_json(value, cell):
    assert _cell(value) == cell


def parsed(capsys, parser, argv):
    """(exit code or None, parsed namespace or None, stdout, stderr) of one parse."""
    try:
        code, args = None, parser.parse_args(argv)
    except SystemExit as exc:
        code, args = exc.code, None
    out, err = capsys.readouterr()
    return code, args, out, err


HELP_PATHS = [[], ["ideal"], ["sweep"], *[leaf.split() for leaf in LEAVES]]
TOP_USAGE_ERRORS = [["nope"], ["cone", "--a", "11", "--d", "2", "extra"]]


@pytest.mark.parametrize("columns", ["40", "80", "200"])
@pytest.mark.parametrize("argv", [
    *[[*path, "--help"] for path in HELP_PATHS],
    [], ["ideal"], ["sweep"], ["ideal", "nope"], ["cone", "--d", "7"],
    ["cone", "--a", "11", "--d", "2", "--format", "table"],  # a second leaf named as a value
    *TOP_USAGE_ERRORS,
])
def test_partial_parser_parses_as_the_whole_tree(capsys, monkeypatch, columns, argv):
    # the shared tree, and one warmed under another width, parse as a whole tree built now
    monkeypatch.setenv("COLUMNS", columns)
    fresh = parsed(capsys, build_parser.__wrapped__(), argv)  # a tree of its own, built now
    assert parsed(capsys, build_parser(), argv) == fresh
    assert fresh[0] is not None or fresh[1].handler is apsum.cli._cmd_cone
    if argv in TOP_USAGE_ERRORS:  # the top usage, naming every subcommand
        assert fresh[3].startswith("usage: apsum [-h]")
        assert all(leaf.split()[0] in fresh[3] for leaf in LEAVES)
    # a tree built, and a different query parsed, under another width reads the same
    build_parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "57")
    warm = build_parser()
    parsed(capsys, warm, ["info", "--help"])
    monkeypatch.setenv("COLUMNS", columns)
    assert build_parser() is warm
    assert parsed(capsys, warm, argv) == fresh


def leaf_argv(leaf):
    """A command line that runs ``leaf`` on a small seed or grid."""
    if leaf.startswith("sweep "):
        return [*leaf.split(), *SWEEP_GRID]
    return [*leaf.split(), "--a", "11", "--d", "2", *(["--value", "24"] if leaf == "order" else [])]


@pytest.mark.parametrize("argv", [leaf_argv("cone"), leaf_argv("ideal verify")])
def test_after_one_query_other_leaves_build_no_parser(capsys, monkeypatch, argv):
    # the first query builds the whole tree; every later one, of any leaf, parses on it
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    build_parser.cache_clear()
    assert run(capsys, *argv)[0] == 0
    assert sorted(built) == sorted(["apsum", "apsum ideal", "apsum sweep", *(f"apsum {leaf}" for leaf in LEAVES)])
    for leaf in LEAVES:
        assert run(capsys, *leaf_argv(leaf))[0] == 0, leaf
    assert len(built) == 3 + len(LEAVES)


# pairs of command lines that share a tree (or differ in a default), each run after the other
WARM_PAIRS = [
    (["apery", "--oracle", "--a", "11", "--d", "2"], ["apery", "--a", "11", "--d", "2"]),
    (["pf", "--oracle", "--a", "23", "--d", "1"], ["pf", "--a", "23", "--d", "1"]),
    (["ideal", "list", "--strict-21", "--a", "21", "--d", "1"], ["ideal", "list", "--a", "21", "--d", "1"]),
    (["sweep", "unique", *SWEEP_GRID], ["info", "--a", "137", "--d", "4"]),
]


def test_a_warm_tree_carries_nothing_from_one_parse_to_the_next(capsys):
    golden = json.loads(Path(__file__).with_name("golden_cli.json").read_text())
    for _ in range(2):  # the second round parses every line on a tree another line used
        for argv in [argv for pair in WARM_PAIRS for argv in pair]:
            code, out, err = run(capsys, *argv, "--format", "json")
            if argv[0] == "sweep":  # no digest: the report holds wall-clock times
                assert (code, err) == (0, "")
                report = json.loads(out)["payload"]
                assert report["grid"]["m"] == 6 and {r["m"] for r in report["records"]} == {6}
                continue
            text = json.dumps([code, out, err], separators=(",", ":"))
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == golden[" ".join(argv + ["--format", "json"])]


def readme_examples():
    """argv -> comment of each ``apsum ...  # comment`` line in README's CLI block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return dict(tuple(part.strip() for part in line[len("apsum "):].split("#", 1))
                for line in block.splitlines() if line.startswith("apsum ") and "#" in line)


def _payload(out):
    return json.loads(out)["payload"]


COUNT_WORDS = {8: "eight", 9: "nine"}


def _verify_comment(out):
    p = _payload(out)
    return f"dimension {p['dimension']}, {'pass' if p['pass'] else 'fail'}, {'' if p['minimal'] else 'not '}minimal"


def _csv_comment(out):
    rows = out.splitlines()
    return f"{len(rows)} x {len(rows[0].split(','))} Apery table"


# each README example whose comment states its result, and that comment
# written from the example's output
README_RESULTS = {
    "apery --a 11 --d 2 --format table": str.strip,
    "frobenius --a 23 --d 1": lambda out: str(_payload(out)["frobenius"]),
    "pf --a 23 --d 1": lambda out: f"{COUNT_WORDS[len(_payload(out)['pf'])]} pseudo-Frobenius numbers",
    "order --a 11 --d 2 --value 104": lambda out: f"{_payload(out)['order']} (from one Apery record)",
    "ideal list --a 11 --d 2": lambda out: f"{COUNT_WORDS[len(_payload(out))]} binomial generators",
    "ideal verify --a 23 --d 1": _verify_comment,
    "table --a 11 --d 2 --format csv": _csv_comment,
    "hilbert --a 23 --d 1": lambda out: "numerator {numerator} over ({denominator})".format(**_payload(out)),
}
# comments that describe an example rather than state its result
README_DESCRIBED = {"apery --a 11 --d 2 --oracle", "cone --a 11 --d 2"}


def test_readme_examples_are_all_accounted_for():
    assert set(readme_examples()) == set(README_RESULTS) | README_DESCRIBED


@pytest.mark.parametrize("argv", README_RESULTS)
def test_readme_example_prints_its_comment(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert README_RESULTS[argv](out) == readme_examples()[argv]
