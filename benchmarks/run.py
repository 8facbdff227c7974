"""apsum benchmark: one closed-loop client driving the library and the CLI.

    python3 benchmarks/run.py --workload cli_closed --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload all            # every workload, one process each

A run replays its workload's seeded op list in whole rounds until the ops
have taken --seconds, checks every op's output, and prints the end-to-end
metrics named in BENCHMARK.json (--trace 0), or runs the op list untraced
and then traced and prints the per-layer metrics (--trace 1).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

End-to-end times (setup_s, ops_per_s, op_p50_ms, op_p90_ms) are given at
reference machine speed (see speed.py), because this VM's own speed drifts
up to twofold between runs; the times as measured are printed above the
JSON line.  fail_frac is printed there too: it is 0 on a correct run, so it
is carried by the JSON's attempted and failed counts instead of a metric.

It imports apsum from ./src of the checkout it lives in and refuses to run
without it.  Checkpoints go to a temporary directory under .bench_work/,
removed at exit; nothing else is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from math import ceil
from time import perf_counter

from spans import COUNTERS, SPAN_NAMES, TRACED, Tracer, calls_under, installed, self_times
from speed import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "reference", "digests.json")
DEFAULT_SEED = 1
SETUP_SAMPLES = 7
MIN_BEYOND_P90 = 10

# Time from a fresh interpreter's first statement to a built CLI parser.
SETUP_CODE = """\
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import apsum.cli
apsum.cli.build_parser()
print(time.perf_counter() - t)
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_package():
    """Import apsum from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "apsum", "__init__.py")):
        raise BenchError(f"no apsum package under {SRC}")
    sys.path.insert(0, SRC)
    import apsum

    if os.path.dirname(os.path.dirname(os.path.abspath(apsum.__file__))) != SRC:
        raise BenchError(f"apsum imported from {apsum.__file__}, not from {SRC}")
    return apsum


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def p90(samples) -> float:
    """The 90th percentile by nearest rank, refused without 10 samples beyond it."""
    ordered = sorted(samples)
    rank = ceil(0.9 * len(ordered))
    if len(ordered) - rank < MIN_BEYOND_P90:
        raise ValueError(f"{len(ordered)} samples leave {len(ordered) - rank} beyond p90; need {MIN_BEYOND_P90}")
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# running ops
# ----------------------------------------------------------------------

@dataclass
class OpResult:
    start: float
    seconds: float  # as measured
    digest: str
    problem: str | None
    ref_seconds: float = 0.0  # at reference machine speed


def run_round(workload, ops, workdir, digest, probe=None, tracer=None, refs=None) -> list[OpResult]:
    """Run every op once against fresh round state; time run, then inspect."""
    state = workload.new_round(workdir)
    results = []
    for i, op in enumerate(ops):
        if probe:
            probe.sample()
        span = tracer.open("bench.op") if tracer else None
        start = perf_counter()
        try:
            raw, problem = workload.run(op, state), None
        except Exception as exc:  # a raising op is a failed op, not a failed run
            raw, problem = None, f"raised {type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        if tracer:
            tracer.close(span)
        if probe:
            probe.after_op(seconds)
        text = ""
        if problem is None:
            try:
                text, problem = workload.inspect(op, raw, state)
            except Exception as exc:  # malformed output
                problem = f"inspect raised {type(exc).__name__}: {exc}"
            if tracer:
                for name, amount in workload.counters(op, raw).items():
                    tracer.count(name, amount)
        result = OpResult(start, seconds, digest(text), problem)
        if problem is None and refs is not None and refs[i] != result.digest:
            result.problem = "output differs from the recorded reference"
        results.append(result)
    if probe:
        probe.sample(force=True)
        for r in results:
            r.ref_seconds = r.seconds * probe.scale(r.start, r.start + r.seconds)
    return results


def run_rounds(workload, ops, budget, workdir, digest, refs, probe, tracer=None, rounds=None):
    """Whole rounds until the ops took budget measured seconds (or exactly `rounds`).

    Every round must reproduce the first round's outputs.
    """
    done = []
    while True:
        batch = run_round(workload, ops, tempfile.mkdtemp(dir=workdir), digest, probe, tracer, refs)
        if done:
            for first, again in zip(done[: len(ops)], batch):
                if again.problem is None and again.digest != first.digest:
                    again.problem = "output differs between rounds"
        done += batch
        count = len(done) // len(ops)
        if (rounds is not None and count >= rounds) or (rounds is None and sum(r.seconds for r in done) >= budget):
            return done, count


@contextmanager
def work_dir():
    """A temporary directory under the checkout's .bench_work/, removed after."""
    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=base) as path:
            yield path
    finally:
        try:
            os.rmdir(base)
        except OSError:  # another run still uses it
            pass


def recorded_digests(workload_name: str, seed: int) -> dict | None:
    if not os.path.exists(DIGESTS):
        return None
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload_name, {}).get(str(seed))


# ----------------------------------------------------------------------
# run facts and set-up time
# ----------------------------------------------------------------------

def git_sha(root: str) -> str | None:
    """HEAD of the checkout's own .git, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    package = os.path.join(SRC, "apsum")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_facts(workload: str, seed: int, inputs_digest: str, n_ops: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "inputs_digest": inputs_digest,
        "ops_per_round": n_ops,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "git_sha": git_sha(ROOT),
        "source_digest": source_digest(),
        "loadavg_1m": os.getloadavg()[0],
    }


def measure_setup(probe, samples: int = SETUP_SAMPLES) -> tuple[float, float]:
    """Median (measured, reference) seconds for a fresh interpreter to import
    apsum and build the CLI parser."""
    measured, reference = [], []
    for _ in range(samples):
        probe.sample(force=True)
        start = perf_counter()
        done = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, SRC],
                              capture_output=True, text=True, timeout=120, check=True)
        end = perf_counter()
        probe.sample(force=True)
        measured.append(float(done.stdout))
        reference.append(measured[-1] * probe.scale(start, end))
    return statistics.median(measured), statistics.median(reference)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def end_to_end_metrics(results: list[OpResult], setup_s: tuple[float, float]) -> dict[str, float]:
    """Reference-speed metrics, and the same as measured under a raw_ prefix."""
    out = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    for prefix, seconds, setup in (("", [r.ref_seconds for r in results], setup_s[1]),
                                   ("raw_", [r.seconds for r in results], setup_s[0])):
        out.update({
            f"{prefix}setup_s": setup,
            f"{prefix}ops_per_s": len(seconds) / sum(seconds),
            f"{prefix}op_p50_ms": statistics.median(seconds) * 1000,
            f"{prefix}op_p90_ms": p90(seconds) * 1000,
        })
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, rounds: int, untraced_s: float, traced_s: float) -> dict[str, float]:
    """Per-layer metrics of one round: span calls and self time, counters, ratios."""
    spans = tracer.spans
    out: dict[str, float] = {}
    for name, (calls, own) in self_times(spans).items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = own
    out.update(tracer.counters)
    out = {k: v / rounds for k, v in out.items()}

    def get(key: str) -> float:
        return out.get(key, 0)  # a layer the workload never reached

    root = []
    for name, _, _, parent in spans:
        root.append(len(root) if parent < 0 else root[parent])
    building_ops = {root[i] for i, s in enumerate(spans) if s[0] == "cone.apery_table"}
    out["cone.table_builds_per_query"] = _ratio(get("cone.apery_table.calls"), len(building_ops) / rounds)
    out["oracle.membership_mask.calls_per_apery"] = _ratio(
        calls_under(spans, "oracle.membership_mask", "oracle.apery_oracle") / rounds, get("oracle.apery_oracle.calls"))
    out["ideal.standard_monomials.kept_per_box"] = _ratio(
        get("ideal.standard_monomials.kept"), get("ideal.standard_monomials.box"))
    reused, computed = get("sweeps.records_reused"), get("sweeps.records_computed")
    out["sweeps.reused_frac"] = _ratio(reused, reused + computed)
    op_s = sum(e - s for n, s, e, _ in spans if n == "bench.op") / rounds
    out["bench.unattributed_s"] = get("bench.op.self_s")
    out["bench.attributed_frac"] = _ratio(op_s - get("bench.op.self_s"), op_s)
    out["bench.trace_overhead_frac"] = traced_s / untraced_s - 1
    return out


def layer_metric_names() -> set[str]:
    """Every per-layer name layer_metrics can produce, present or not."""
    spans = {SPAN_NAMES.get((m, f), f"{m}.{f}") for m, fs in TRACED.items() for f in fs} | {"bench.op"}
    names = {f"{s}.{k}" for s in spans for k in ("calls", "self_s")}
    names |= {c for cs in COUNTERS.values() for c in cs}
    names |= {"cli.bytes_out", "sweeps.checkpoint_bytes_written", "cone.table_builds_per_query",
              "oracle.membership_mask.calls_per_apery", "ideal.standard_monomials.kept_per_box",
              "sweeps.reused_frac", "bench.unattributed_s", "bench.attributed_frac",
              "bench.trace_overhead_frac"}
    return names


def declared_metrics(trace: bool) -> list[dict]:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = spec["per_layer" if trace else "end_to_end"]
    known = layer_metric_names() if trace else {"setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"}
    unknown = [m["name"] for m in metrics if m["name"] not in known]
    if unknown:
        raise BenchError(f"BENCHMARK.json names metrics this benchmark does not produce: {unknown}")
    return metrics


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS, canonical, digest  # imports apsum: after load_package

    if name not in WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    declared = declared_metrics(trace)
    workload = WORKLOADS[name]
    ops = workload.ops(seed)
    inputs_digest = digest(canonical(ops))
    facts = run_facts(name, seed, inputs_digest, len(ops))
    print("facts " + json.dumps(facts, sort_keys=True))

    reference = recorded_digests(name, seed)
    problems = []
    refs = None
    if reference is not None:
        if reference["inputs"] != inputs_digest:
            problems.append("inputs differ from the ones the reference digests were recorded for")
        else:
            refs = reference["ops"]

    probe = SpeedProbe()
    with work_dir() as workdir:
        if not trace:
            setup_s = measure_setup(probe)
            results, rounds = run_rounds(workload, ops, seconds, workdir, digest, refs, probe)
            values = end_to_end_metrics(results, setup_s)
        else:
            plain, rounds = run_rounds(workload, ops, seconds / 2, workdir, digest, refs, probe)
            tracer = Tracer()
            with installed(tracer):
                traced, _ = run_rounds(workload, ops, 0, workdir, digest, refs, probe, tracer, rounds)
            for a, b in zip(plain, traced):
                if b.problem is None and a.digest != b.digest:
                    b.problem = "traced output differs from untraced output"
            results = plain + traced
            values = layer_metrics(tracer, rounds, sum(r.ref_seconds for r in plain),
                                   sum(r.ref_seconds for r in traced))

    failed = [r for r in results if r.problem is not None]
    for r in failed[:5]:
        print(f"failed op: {r.problem}", file=sys.stderr)
    print(f"rounds {rounds}, ops {len(results)}, failed {len(failed)}, "
          f"fail_frac {len(failed) / len(results)!r} ratio, machine speed {probe.speed()!r} x reference")
    for key in sorted(k for k in values if k.startswith("raw_")):
        print(f"as measured: {key[4:]} {values[key]!r}")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    if trace:
        ranked = sorted(((k[:-7], v) for k, v in values.items() if k.endswith(".self_s")), key=lambda kv: -kv[1])
        total = sum(v for _, v in ranked)
        for layer, own in ranked[:12]:
            print(f"  self {layer:40s} {own:10.4f} s  {own / total:6.1%}")
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
        print(f"{m['name']} {values.get(m['name'], 0)!r} {m['unit']}")
    return {"correct": not failed and not problems, "attempted": len(results),
            "failed": len(failed), "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory is its own."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise BenchError(f"workload {name} exited with {done.returncode}")
        lines = done.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0, help="measured op seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_package()
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
