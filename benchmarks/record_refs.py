"""Record the reference outputs the benchmark checks against.

    python3 benchmarks/record_refs.py

Writes two files under benchmarks/reference/:

* sweep_records.json: the digest of every sweep record (timing stripped)
  over the whole sweep_resume domain, per sweep kind, so sweep outputs are
  checked exactly for any seed;
* digests.json: per-op output digests of one round of every workload at the
  default seed and one held-out seed.

Rerun it only at a commit whose outputs are meant to change, and say so in
the change log: the references define what "correct" means to the benchmark.
"""

from __future__ import annotations

import json
import os
import sys

import run

HELD_OUT_SEED = 20261017
SEEDS = (run.DEFAULT_SEED, HELD_OUT_SEED)


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    apsum = run.load_package()
    from workloads import SWEEP_A, SWEEP_D, SWEEP_KINDS, WORKLOADS, canonical, digest, sweep_record_key

    os.makedirs(os.path.dirname(run.DIGESTS), exist_ok=True)
    table = {}
    for kind, m in SWEEP_KINDS.items():
        if kind == "g6":
            report = apsum.sweep_gamma6(SWEEP_A, SWEEP_D, jobs=1)
        else:
            report = apsum.sweep_uniqueness(m, SWEEP_A, SWEEP_D, jobs=1)
        for record in apsum.strip_timing(report.records):
            table[sweep_record_key(kind, record)] = digest(canonical(record))
    write_json(os.path.join(os.path.dirname(run.DIGESTS), "sweep_records.json"), table)

    digests = {}
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            ops = workload.ops(seed)
            with run.work_dir() as workdir:
                results = run.run_round(workload, ops, workdir, digest)
            failed = [r.problem for r in results if r.problem]
            if failed:
                print(f"{name} seed {seed}: {len(failed)} ops failed, first: {failed[0]}", file=sys.stderr)
                return 1
            digests.setdefault(name, {})[str(seed)] = {
                "inputs": digest(canonical(ops)),
                "ops": [r.digest for r in results],
            }
            print(f"{name} seed {seed}: {len(ops)} ops recorded")
    write_json(run.DIGESTS, digests)
    return 0


if __name__ == "__main__":
    sys.exit(main())
