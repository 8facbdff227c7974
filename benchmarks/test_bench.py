"""Self-tests of the benchmark's own logic.

    python3 -m pytest benchmarks -q
"""

import json

import pytest

import run

run.load_package()

import apsum  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class _Wrong(workloads.Workload):
    """Returns 2 + 2 = 5 once."""

    name = "wrong"

    def ops(self, seed):
        return [{"x": 2}, {"x": 3}]

    def run(self, op, state):
        return op["x"] + 2 + (op["x"] == 2)

    def inspect(self, op, raw, state):
        return str(raw), None if raw == op["x"] + 2 else f"{raw} != {op['x'] + 2}"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    w = workloads.WORKLOADS[name]
    assert w.ops(5) == w.ops(5)
    assert w.ops(5) != w.ops(6)
    with open(run.DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh)[name][str(run.DEFAULT_SEED)]["inputs"]
    assert workloads.digest(workloads.canonical(w.ops(run.DEFAULT_SEED))) == recorded


def test_generators_follow_the_workload_shapes():
    cli = workloads.WORKLOADS["cli_closed"].ops(9)
    assert len(cli) >= 100
    assert {op["kind"] for op in cli} == set(workloads.CLI_KINDS)
    assert 18 <= len(cli) / sum(op["exit"] == 3 for op in cli) <= 22  # about 1 query in 20 refused
    assert all(11 <= op["a"] <= 1000 for op in cli)
    ideal = workloads.WORKLOADS["ideal_verify"].ops(9)
    assert {(21, 1), (21, 2)} <= {(op["a"], op["d"]) for op in ideal}
    sweeps = workloads.WORKLOADS["sweep_resume"].ops(9)
    assert len(sweeps) >= 100
    seen, repeats = {k: set() for k in workloads.SWEEP_KINDS}, 0
    for op in sweeps:
        grid = set(workloads.sweep_grid(op))
        repeats += bool(grid & seen[op["kind"]])
        seen[op["kind"]] |= grid
    assert len(sweeps) // 4 <= repeats <= len(sweeps) // 2


def test_wrong_output_counts_as_failure(tmp_path):
    w = _Wrong()
    results = run.run_round(w, w.ops(0), str(tmp_path), workloads.digest)
    assert [r.problem is None for r in results] == [False, True]


def test_raising_op_counts_as_failure(tmp_path):
    class Raises(_Wrong):
        def run(self, op, state):
            raise ValueError("boom")

    results = run.run_round(Raises(), [{"x": 1}], str(tmp_path), workloads.digest)
    assert results[0].problem == "raised ValueError: boom"


def test_reference_mismatch_counts_as_failure(tmp_path):
    w = _Wrong()
    ops = [{"x": 3}]
    good = run.run_round(w, ops, str(tmp_path), workloads.digest, refs=[workloads.digest("5")])
    bad = run.run_round(w, ops, str(tmp_path), workloads.digest, refs=["0" * 16])
    assert good[0].problem is None
    assert bad[0].problem == "output differs from the recorded reference"


def test_tampered_cli_output_is_caught():
    w = workloads.WORKLOADS["cli_closed"]
    op = {"kind": "apery", "a": 11, "d": 2, "argv": ["apery", "--a", "11", "--d", "2"], "exit": 0}
    code, out, err = w.run(op, None)
    assert w.inspect(op, (code, out, err), None)[1] is None
    env = json.loads(out)
    env["payload"][3]["value"] += 11
    assert w.inspect(op, (code, json.dumps(env), err), None)[1] is not None
    assert w.inspect(op, (3, "", err), None)[1] is not None

    op = {"kind": "frobenius", "a": 23, "d": 1, "argv": ["frobenius", "--a", "23", "--d", "1"], "exit": 0}
    code, out, err = w.run(op, None)
    assert w.inspect(op, (code, out, err), None)[1] is None
    env = json.loads(out)
    env["payload"]["frobenius"] += 23  # same residue, but no longer a gap
    assert w.inspect(op, (code, json.dumps(env), err), None)[1] == "not the largest gap"


def test_self_time_on_synthetic_span_tree():
    tree = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("a", 5.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == {"root": (1, 3.0), "a": (2, 6.0), "b": (1, 1.0)}
    assert spans.calls_under(tree, "b", "a") == 1
    assert spans.calls_under(tree, "a", "b") == 0


def test_p90_needs_ten_samples_beyond():
    with pytest.raises(ValueError):
        run.p90(list(range(99)))
    assert run.p90(list(range(100, 0, -1))) == 90


def test_tracer_covers_every_import_site_and_restores():
    originals = (apsum.oracle.orders_up_to, apsum.oracle.membership_mask, apsum.sweeps.apery_oracle)
    argv = ["cone", "--a", "23", "--d", "1"]
    plain = workloads.run_cli(argv)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        for fn in (apsum.cone.orders_up_to, apsum.oracle.membership_mask, apsum.sweeps.apery_oracle,
                   apsum.apery_oracle, apsum.cli.main):
            assert hasattr(fn, "__wrapped__")
        traced = workloads.run_cli(argv)
    assert traced == plain
    assert (apsum.oracle.orders_up_to, apsum.oracle.membership_mask, apsum.sweeps.apery_oracle) == originals
    calls = spans.self_times(tracer.spans)
    assert calls["cli.main"][0] == 1
    assert calls["cone.apery_table"][0] >= 1
