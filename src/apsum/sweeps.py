"""Conjecture sweep harness: uniqueness of Apery expansions and the
six-generator Apery formula, over (a, d) grids.

Verdicts are data, never assertions: a violation or mismatch is recorded
with its witness and the sweep keeps going.  Grids run in a stable order
(ascending a, then d), optionally fanned out over processes, with an
append-only JSONL checkpoint that survives truncation of its final line.
A checkpoint opens with a header line naming its sweep kind and m; a sweep
refuses a non-empty checkpoint with a missing or different header.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import gcd

from .errors import DomainError
from .family import ArithmeticSeed, apery_set_conjectured6, partial_sum_generators, uniqueness_check
from .oracle import apery_oracle, is_minimal_generating

MAX_WITNESS_ITEMS = 8  # keep checkpoint lines readable


def seed_grid(a_range: tuple[int, int], d_range: tuple[int, int]) -> list[tuple[int, int]]:
    """All (a, d) pairs in the inclusive ranges, ascending a then d."""
    return [
        (a, d)
        for a in range(a_range[0], a_range[1] + 1)
        for d in range(d_range[0], d_range[1] + 1)
    ]


def _uniqueness_task(task: tuple[int, int, int]) -> dict:
    m, a, d = task
    start = time.perf_counter()
    if gcd(a, d) != 1:
        record = {"a": a, "d": d, "m": m, "verdict": "skip", "witness": {"reason": "notCoprime"}}
    else:
        gens = partial_sum_generators(ArithmeticSeed(a, d, m))
        report = uniqueness_check(gens, a)
        if report.all_unique:
            record = {"a": a, "d": d, "m": m, "verdict": "match"}
        else:
            worst = report.violations[0]
            record = {
                "a": a,
                "d": d,
                "m": m,
                "verdict": "violation",
                "witness": {
                    "value": worst.value,
                    "count": worst.count,
                    "expansions": [list(e) for e in worst.expansions[:MAX_WITNESS_ITEMS]],
                    "violations": len(report.violations),
                },
            }
    record["ms"] = int((time.perf_counter() - start) * 1000)
    return record


def _gamma6_task(task: tuple[int, int, int]) -> dict:
    _, a, d = task
    start = time.perf_counter()
    if gcd(a, d) != 1:
        record = {"a": a, "d": d, "m": 6, "verdict": "skip", "witness": {"reason": "notCoprime"}}
    else:
        seed = ArithmeticSeed(a, d, 6)
        gens = partial_sum_generators(seed)
        if not is_minimal_generating(gens):
            record = {"a": a, "d": d, "m": 6, "verdict": "skip", "witness": {"reason": "notMinimal"}}
        else:
            conjectured = apery_set_conjectured6(seed)
            oracle = apery_oracle(gens, a)
            mismatches = []
            for n in range(1, a):
                expected = oracle[n * d % a]
                if conjectured[n] != expected:
                    mismatches.append({"n": n, "conjectured": conjectured[n], "oracle": expected})
            if mismatches:
                record = {
                    "a": a,
                    "d": d,
                    "m": 6,
                    "verdict": "mismatch",
                    "witness": {
                        "mismatches": mismatches[:MAX_WITNESS_ITEMS],
                        "count": len(mismatches),
                    },
                }
            else:
                record = {"a": a, "d": d, "m": 6, "verdict": "match"}
    record["ms"] = int((time.perf_counter() - start) * 1000)
    return record


# ----------------------------------------------------------------------
# checkpointing
# ----------------------------------------------------------------------

@dataclass
class CheckpointCursor:
    """Resume state: header, completed records, valid line count (header
    included), first corrupt line."""

    header: dict | None = None  # {"checkpoint": kind, "m": m}
    completed: dict = field(default_factory=dict)  # (a, d, m) -> record
    valid_lines: int = 0
    corrupt_line: int | None = None
    byte_offset: int = 0


def resume(path: str) -> CheckpointCursor:
    """Scan a JSONL checkpoint, stopping at the first corrupt line.

    Line 1 is the header; a first line without one counts as corrupt.  The
    cursor's byte_offset marks the end of the last valid line, so a writer
    can truncate a damaged tail and continue appending.
    """
    cursor = CheckpointCursor()
    if not os.path.exists(path):
        return cursor
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                entry = json.loads(raw.decode("utf-8"))
                if not raw.endswith(b"\n"):
                    raise ValueError("incomplete line")
                if lineno == 1:
                    cursor.header = {"checkpoint": entry["checkpoint"], "m": entry["m"]}
                else:
                    key = (entry["a"], entry["d"], entry["m"])
                    if "verdict" not in entry:
                        raise ValueError("incomplete record")
                    cursor.completed[key] = entry
            except (ValueError, KeyError, TypeError):
                cursor.corrupt_line = lineno
                break
            cursor.valid_lines += 1
            cursor.byte_offset += len(raw)
    return cursor


def _record_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def strip_timing(records: list[dict]) -> list[dict]:
    """Records without the wall-clock field, for determinism comparisons."""
    return [{k: v for k, v in r.items() if k != "ms"} for r in records]


# ----------------------------------------------------------------------
# sweep driver
# ----------------------------------------------------------------------

@dataclass
class SweepReport:
    kind: str
    m: int
    a_range: tuple[int, int]
    d_range: tuple[int, int]
    records: list[dict]
    elapsed_ms: int
    checkpoint_path: str | None = None
    reused: int = 0

    @property
    def counterexamples(self) -> list[dict]:
        return [r for r in self.records if r["verdict"] in ("violation", "mismatch")]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "grid": {"m": self.m, "aRange": list(self.a_range), "dRange": list(self.d_range)},
            "records": self.records,
            "counterexamples": self.counterexamples,
            "elapsedMs": self.elapsed_ms,
            "reused": self.reused,
        }


def _run_sweep(kind, worker, m, a_range, d_range, jobs, checkpoint_path) -> SweepReport:
    if a_range[0] > a_range[1] or d_range[0] > d_range[1]:
        raise DomainError("invalidRange", f"grids need LO <= HI, got a {a_range}, d {d_range}")
    if a_range[0] < 2 or d_range[0] < 1:
        raise DomainError("invalidSeed", f"grids need a >= 2 and d >= 1, got a {a_range}, d {d_range}")
    start = time.perf_counter()
    grid = seed_grid(a_range, d_range)
    cursor = CheckpointCursor()
    out = None
    if checkpoint_path:
        header = {"checkpoint": kind, "m": m}
        cursor = resume(checkpoint_path)
        if cursor.header != header and (cursor.valid_lines or cursor.corrupt_line is not None):
            found = cursor.header or "no header"
            raise DomainError("checkpointMismatch", f"{checkpoint_path} holds {found}, not {header}")
        if cursor.corrupt_line is not None:
            with open(checkpoint_path, "ab") as fh:
                fh.truncate(cursor.byte_offset)
        out = open(checkpoint_path, "ab")
        if cursor.header is None:
            out.write(_record_line(header).encode("utf-8"))
    try:
        records = []
        pending = [(m, a, d) for (a, d) in grid if (a, d, m) not in cursor.completed]
        pool = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 and pending else None
        try:
            # both iterators yield in grid order; parallel results stream in
            fresh = pool.map(worker, pending, chunksize=8) if pool else map(worker, pending)
            reused = 0
            for a, d in grid:
                key = (a, d, m)
                if key in cursor.completed:
                    records.append(cursor.completed[key])
                    reused += 1
                    continue
                record = next(fresh)
                records.append(record)
                if out is not None:
                    out.write(_record_line(record).encode("utf-8"))
                    out.flush()
        finally:
            if pool is not None:
                pool.shutdown()
    finally:
        if out is not None:
            out.close()
    elapsed = int((time.perf_counter() - start) * 1000)
    return SweepReport(kind, m, a_range, d_range, records, elapsed, checkpoint_path, reused)


def sweep_uniqueness(
    m: int,
    a_range: tuple[int, int],
    d_range: tuple[int, int],
    jobs: int = 1,
    checkpoint_path: str | None = None,
) -> SweepReport:
    """Check unique Apery expansions for the m-generator family over a grid."""
    if m < 2:
        raise DomainError("invalidSeed", f"m must be at least 2, got {m}")
    return _run_sweep("uniqueness", _uniqueness_task, m, a_range, d_range, jobs, checkpoint_path)


def sweep_gamma6(
    a_range: tuple[int, int],
    d_range: tuple[int, int],
    jobs: int = 1,
    checkpoint_path: str | None = None,
) -> SweepReport:
    """Compare the conjectured six-generator Apery formula with the oracle."""
    return _run_sweep("gamma6", _gamma6_task, 6, a_range, d_range, jobs, checkpoint_path)
