"""The four workloads: seeded op lists, how one op runs, and how it is checked.

Each workload draws its inputs from ``random.Random(f"{name}-{seed}")`` only.
Sizes are stratified (one draw per equal slice of the range, then shuffled)
so that two seeds give op lists of nearly the same total cost; that keeps
run-to-run spread down to the program, not the draw.

An op runs in ``run`` (timed) and is judged in ``inspect`` (untimed), which
returns the op's canonical output text, used for digests, and a problem
string or None.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from math import exp, gcd, log

import apsum
import apsum.cli

HERE = os.path.dirname(os.path.abspath(__file__))
SWEEP_TABLE = os.path.join(HERE, "reference", "sweep_records.json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def gens5(a: int, d: int) -> tuple[int, ...]:
    """The five partial-sum generators, computed here independently of apsum."""
    return tuple(n * a + n * (n - 1) // 2 * d for n in range(1, 6))


def log_strata(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """n integers in [lo, hi], log-uniform, one from each of n equal log slices."""
    span = log(hi + 1) - log(lo)
    return [min(hi, int(exp(log(lo) + (i + rng.random()) * span / n))) for i in range(n)]


def coprime_d(rng: random.Random, a: int, dmax: int) -> int:
    return rng.choice([d for d in range(1, dmax + 1) if gcd(a, d) == 1])


class Workload:
    name = ""  # as in BENCHMARK.json, which also says why each workload exists

    def ops(self, seed: int) -> list[dict]:
        raise NotImplementedError

    def new_round(self, workdir: str):
        """Fresh per-round state; every round of one run does the same work."""
        return None

    def run(self, op: dict, state):
        raise NotImplementedError

    def inspect(self, op: dict, raw, state) -> tuple[str, str | None]:
        raise NotImplementedError

    def counters(self, op: dict, raw) -> dict[str, int]:
        """Work counts the benchmark itself sees (traced runs only)."""
        return {}


# ----------------------------------------------------------------------
# cli_closed: the interactive user, one CLI query per op
# ----------------------------------------------------------------------

CLI_KINDS = ("info", "apery", "pf", "frobenius", "hilbert", "table", "cone",
             "ideal list", "ideal verify", "order")


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """apsum.cli.main in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = apsum.cli.main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


class Semigroup:
    """Membership in <gens> for 0..limit, by the benchmark's own bitmask sieve."""

    def __init__(self, gens, limit: int):
        full = (1 << (limit + 1)) - 1
        mask = 1
        for g in gens:
            shift = g
            while shift <= limit:  # closes under adding g, 2g, 4g, ...
                mask |= (mask << shift) & full
                shift <<= 1
        self._bits = bin(mask)[:1:-1].ljust(limit + 1, "0")  # _bits[v] == "1" iff v is a member

    def __contains__(self, v: int) -> bool:
        return v >= 0 and self._bits[v] == "1"


def _apery_problem(values, a, g) -> str | None:
    """None iff each value is a member whose predecessor by a is not."""
    members = Semigroup(g, max(values))
    bad = [v for v in values if v not in members or v - a in members]
    return f"not an Apery element: {bad[0]}" if bad else None


def _pf_problem(pf, g) -> str | None:
    """None iff each value is a gap that any generator lifts into the semigroup."""
    members = Semigroup(g, max(pf) + g[-1])
    bad = [x for x in pf if x in members or any(x + y not in members for y in g)]
    return f"not pseudo-Frobenius: {bad[0]}" if bad else None


def _check_rows(rows, a, d, g) -> str | None:
    if len(rows) < 2 or any(len(r) != a for r in rows):
        return "table shape"
    if rows[0][0] != 0 or rows[1][0] != a:
        return "table column 0"
    if any(rows[0][n] % a != n * d % a for n in range(1, a)):
        return "table row 0 residues"
    problem = _apery_problem(rows[0][1:], a, g)
    if problem:
        return problem
    for upper, lower in zip(rows, rows[1:]):
        if any(y - x not in (0, a) for x, y in zip(upper, lower)):
            return "table column steps"
    return None


def check_cli_payload(op: dict, p) -> str | None:
    """Invariants any correct answer to the query has, checked without apsum."""
    kind, a, d = op["kind"], op["a"], op["d"]
    g = gens5(a, d)
    if kind == "info":
        ok = (p["generators"] == list(g) and p["multiplicity"] == a and p["embeddingDimension"] == 5
              and p["minimal"] is True and p["pf"] == sorted(p["pf"])
              and p["frobenius"] == max(p["pf"]) and p["type"] == len(p["pf"]))
        return _pf_problem(p["pf"], g) if ok else "info invariants"
    if kind == "apery":
        if [r["n"] for r in p] != list(range(1, a)):
            return "apery classes"
        for r in p:
            if (r["value"] != r["multiplier"] * a + r["n"] * d or r["gap"] != r["value"] - a
                    or r["order"] != sum(r["expansion"])
                    or sum(c * x for c, x in zip(r["expansion"], g[1:])) != r["value"]):
                return f"apery record n={r['n']}"
        return _apery_problem([r["value"] for r in p], a, g)
    if kind == "pf":
        pf = p["pf"]
        ok = (pf == sorted(pf) and p["type"] == len(pf) and p["frobenius"] == max(pf)
              and p["sourcePath"] == ("largeA" if a >= 20 else "smallA"))
        return _pf_problem(pf, g) if ok else "pf invariants"
    if kind == "frobenius":
        f = p["frobenius"]
        members = Semigroup(g, f + a)
        ok = f not in members and all(v in members for v in range(f + 1, f + a + 1))
        return None if ok else "not the largest gap"
    if kind == "hilbert":
        num = p["numerator"]
        ok = num[:2] == [1, 4] and sum(num) == a and min(num) > 0 and p["denominator"] == "1-x"
        return None if ok else "hilbert invariants"
    if kind == "table":
        return _check_rows(p["rows"], a, d, g) or (None if p["top"] == len(p["rows"]) - 1 else "table top")
    if kind == "cone":
        problem = _check_rows(p["rows"], a, d, g)
        if problem:
            return problem
        t = p["tCounts"]
        hist = [p["shifts"].count(k) for k in range(len(t))]
        ok = (sum(t) == a and hist == t and len(p["shifts"]) == a and p["free"] is True
              and p["torsion"] == [] and p["hilbert"]["numerator"] == t
              and p["reductionNumber"] == {"formula": a // 10 + 1, "computed": len(p["rows"]) - 1})
        return None if ok else "cone invariants"
    if kind == "ideal list":
        for b in p:
            lhs = sum(e * x for e, x in zip(b["lhs"], g))
            if b["lhs"] == b["rhs"] or lhs != sum(e * x for e, x in zip(b["rhs"], g)):
                return f"inhomogeneous binomial {b['label']}"
        return None if p else "empty catalog"
    if kind == "ideal verify":
        ok = (p["dimension"] == a and p["expected"] == a and p["pass"] is True and p["minimal"] is True
              and all(v != a for v in p["dropOneDims"].values()))
        return None if ok else "ideal verify invariants"
    if kind == "order":
        o = p["order"]
        ok = p["element"] == op["value"] and op["count"] <= o <= op["value"] // a
        return None if ok else "order bounds"
    return f"unknown kind {kind}"


class CliClosed(Workload):
    name = "cli_closed"
    per_kind = 30

    def ops(self, seed):
        rng = random.Random(f"{self.name}-{seed}")
        ops = []
        for kind in CLI_KINDS:
            for a in log_strata(rng, self.per_kind, 11, 1000):
                ops.append(self._query(rng, kind, a, coprime_d(rng, a, 15)))
        # on top of the strata, so a refusal never displaces a costly query
        for _ in range(len(ops) // 19):
            d = rng.randint(2, 15)
            a = log_strata(rng, 1, 11, 1000)[0]
            a = a - a % d if a - a % d >= 11 else a - a % d + d
            ops.append(self._query(rng, rng.choice(CLI_KINDS), a, d))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _query(rng, kind, a, d) -> dict:
        op = {"kind": kind, "a": a, "d": d, "argv": kind.split() + ["--a", str(a), "--d", str(d)],
              "exit": 0 if gcd(a, d) == 1 else 3}
        if kind == "order":
            count = a // 10 + 2  # about the largest Apery order, so the cost follows a
            coeffs = [0] * 5
            for _ in range(count):
                coeffs[rng.randrange(5)] += 1
            op.update(value=sum(c * x for c, x in zip(coeffs, gens5(a, d))), count=count)
            op["argv"] += ["--value", str(op["value"])]
        return op

    def run(self, op, state):
        return run_cli(op["argv"])

    def inspect(self, op, raw, state):
        code, out, err = raw
        text = canonical([code, out, err])
        if code != op["exit"]:
            return text, f"exit {code}, expected {op['exit']}: {err.strip()[:200]}"
        if code == 3:
            refused = out == "" and json.loads(err).get("error") == "notCoprime"
            return text, None if refused else "refusal without notCoprime error"
        if err:
            return text, f"stderr on success: {err[:200]}"
        env = json.loads(out)
        seed = {"a": op["a"], "d": op["d"], "m": 5}
        if env["command"] != op["kind"] or env["seed"] != seed:
            return text, "envelope header"
        return text, check_cli_payload(op, env["payload"])

    def counters(self, op, raw):
        return {"cli.bytes_out": len(raw[1].encode("utf-8"))}


# ----------------------------------------------------------------------
# oracle_check: closed forms against the brute-force oracle
# ----------------------------------------------------------------------

class OracleCheck(Workload):
    name = "oracle_check"
    size = 100

    def ops(self, seed):
        rng = random.Random(f"{self.name}-{seed}")
        ops = [{"a": a, "d": coprime_d(rng, a, 15)} for a in log_strata(rng, self.size, 100, 600)]
        rng.shuffle(ops)
        return ops

    def run(self, op, state):
        seed = apsum.ArithmeticSeed(op["a"], op["d"])
        gens = apsum.partial_sum_generators(seed)
        return (apsum.apery_records(seed), apsum.apery_oracle(gens, op["a"]),
                apsum.pseudo_frobenius_set(seed), apsum.pseudo_frobenius_oracle(gens))

    def inspect(self, op, raw, state):
        records, oracle, pf_closed, pf_oracle = raw
        a = op["a"]
        text = canonical({"apery": sorted(oracle), "pf": list(pf_oracle)})
        if len(oracle) != a or len(records) != a - 1:
            return text, "Apery set size"
        if any(oracle[r.value % a] != r.value for r in records):
            return text, "closed Apery set differs from oracle"
        if tuple(pf_closed.pf) != tuple(pf_oracle):
            return text, "closed PF differs from oracle"
        return text, None


# ----------------------------------------------------------------------
# ideal_verify: Buchberger dimension count plus drop-one minimality
# ----------------------------------------------------------------------

def _plain(value):
    """JSON form of a dimension: an int, or the INFINITE marker as a string."""
    return value if isinstance(value, int) else str(value)


class IdealVerify(Workload):
    name = "ideal_verify"
    size = 300
    adjudication = ({"a": 21, "d": 1}, {"a": 21, "d": 2})

    def ops(self, seed):
        rng = random.Random(f"{self.name}-{seed}")
        n = self.size - len(self.adjudication)
        ops = [{"a": a, "d": coprime_d(rng, a, 10)} for a in log_strata(rng, n, 11, 400)]
        ops += [dict(x) for x in self.adjudication]
        rng.shuffle(ops)
        return ops

    def run(self, op, state):
        return apsum.gastinger_verify(apsum.ArithmeticSeed(op["a"], op["d"]))

    def inspect(self, op, r, state):
        text = canonical({
            "dimension": _plain(r.dimension), "passed": r.passed, "minimal": r.minimal,
            "dropOne": {k: _plain(v) for k, v in r.drop_one_dims.items()}, "variant": r.variant,
            "adjudication": None if r.adjudication is None
            else {k: _plain(v) for k, v in r.adjudication.items()},
        })
        ok = r.passed and r.minimal and r.dimension == op["a"]
        return text, None if ok else f"verification failed: dimension {r.dimension}"


# ----------------------------------------------------------------------
# sweep_resume: small checkpointed sweeps, a third repeating earlier grids
# ----------------------------------------------------------------------

SWEEP_KINDS = {"u5": 5, "u6": 6, "g6": 6}  # kind -> m; each kind has its own checkpoint
SWEEP_A = (16, 150)
SWEEP_D = (1, 8)


def sweep_grid(op) -> list[tuple[int, int]]:
    return [(a, d) for a in range(op["a"][0], op["a"][1] + 1) for d in range(op["d"][0], op["d"][1] + 1)]


def sweep_record_key(kind: str, record: dict) -> str:
    return f"{kind}:{record['a']}:{record['d']}"


class SweepState:
    def __init__(self, workdir: str):
        self.paths = {k: os.path.join(workdir, f"{k}.jsonl") for k in SWEEP_KINDS}
        self.done = {k: set() for k in SWEEP_KINDS}


class SweepResume(Workload):
    name = "sweep_resume"
    per_kind = 100
    shape = (2, 3)  # a values x d values of a fresh grid; one fixed shape keeps costs comparable

    def __init__(self):
        self._table = None

    @property
    def table(self) -> dict:
        if self._table is None:
            with open(SWEEP_TABLE, encoding="utf-8") as fh:
                self._table = json.load(fh)
        return self._table

    def ops(self, seed):
        rng = random.Random(f"{self.name}-{seed}")
        streams = {}
        fresh_n = self.per_kind - self.per_kind // 3
        wa, wd = self.shape[0] - 1, self.shape[1] - 1
        room = SWEEP_A[1] - wa - SWEEP_A[0] + 1
        for kind in SWEEP_KINDS:
            strata = list(range(fresh_n))
            d_starts = [SWEEP_D[0] + i % (SWEEP_D[1] - wd) for i in range(fresh_n)]
            rng.shuffle(strata)
            rng.shuffle(d_starts)
            calls = []
            for i in range(self.per_kind):
                if i % 3 == 2:  # overlap the grid just swept: shift it by one a
                    lo, hi = calls[-1]["a"]
                    lo, hi = (lo + 1, hi + 1) if hi < SWEEP_A[1] else (lo - 1, hi - 1)
                    calls.append({"kind": kind, "a": [lo, hi], "d": list(calls[-1]["d"])})
                    continue
                lo = SWEEP_A[0] + int((strata.pop() + rng.random()) * room / fresh_n)
                dlo = d_starts.pop()
                calls.append({"kind": kind, "a": [lo, lo + wa], "d": [dlo, dlo + wd]})
            streams[kind] = calls
        order = [k for k in SWEEP_KINDS for _ in range(self.per_kind)]
        rng.shuffle(order)
        cursor = {k: iter(v) for k, v in streams.items()}
        return [next(cursor[k]) for k in order]

    def new_round(self, workdir):
        return SweepState(workdir)

    def run(self, op, state):
        kind, a_range, d_range = op["kind"], tuple(op["a"]), tuple(op["d"])
        path = state.paths[kind]
        if kind == "g6":
            return apsum.sweep_gamma6(a_range, d_range, jobs=1, checkpoint_path=path)
        return apsum.sweep_uniqueness(SWEEP_KINDS[kind], a_range, d_range, jobs=1, checkpoint_path=path)

    def inspect(self, op, report, state):
        kind = op["kind"]
        body = report.to_json()
        del body["elapsedMs"]
        body["records"] = apsum.strip_timing(body["records"])
        body["counterexamples"] = apsum.strip_timing(body["counterexamples"])
        text = canonical(body)
        grid = sweep_grid(op)
        expected_reused = len(state.done[kind].intersection(grid))
        state.done[kind].update(grid)
        if [(r["a"], r["d"]) for r in body["records"]] != grid:
            return text, "records out of grid order"
        for r in body["records"]:
            want = self.table.get(sweep_record_key(kind, r))
            if digest(canonical(r)) != want:
                return text, f"record {sweep_record_key(kind, r)} differs from reference"
        if report.reused != expected_reused:
            return text, f"reused {report.reused}, expected {expected_reused}"
        bad = [r for r in body["records"] if r["verdict"] in ("violation", "mismatch")]
        if body["counterexamples"] != bad:
            return text, "counterexamples differ from records"
        return text, None


WORKLOADS = {w.name: w for w in (CliClosed(), OracleCheck(), IdealVerify(), SweepResume())}
