"""CLI surface: envelopes, formats, exit codes."""

import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import apsum.cli
import apsum.cone
import apsum.frobenius
from apsum import ArithmeticSeed, DomainError, order_oracle, partial_sum_generators
from apsum.cli import _jobs, main
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


@pytest.mark.parametrize("a_range,d_range", [("20:16", "1:2"), ("16:20", "8:1"), ("x:20", "1:2")])
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
])
def test_bad_input_is_a_coded_domain_error(capsys, argv, error):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == error


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


def test_out_of_memory_is_too_large(capsys, monkeypatch):
    def exhausted(value, gens):
        raise MemoryError

    monkeypatch.setattr(apsum.cli, "order_oracle", exhausted)
    code, out, err = run(capsys, "order", "--m", "6", "--a", "11", "--d", "2", "--value", "104")
    assert code == 3
    assert out == ""
    assert json.loads(err) == {"error": "tooLarge", "message": "input too large to compute: MemoryError()"}


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
