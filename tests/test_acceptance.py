"""Acceptance suite: the nine gate criteria at their full grids.

Each test prints one PASS line with its grid size and elapsed time (visible
with ``pytest -s``).  Everything is exact integer comparison, zero tolerance.
Report artifacts land in ``artifacts/`` at the repository root.
"""

import json
import time
from math import gcd
from pathlib import Path

import pytest

from apsum import (
    ArithmeticSeed,
    apery_oracle,
    apery_records,
    apery_set_closed,
    apery_table,
    cone_to_json,
    frobenius_oracle,
    gastinger_verify,
    generator_catalog,
    homogeneity_check,
    membership,
    order_histogram_closed,
    order_oracle,
    partial_sum_generators,
    pseudo_frobenius_oracle,
    pseudo_frobenius_set,
    ring_properties,
    strip_timing,
    sweep_gamma6,
    sweep_uniqueness,
    uniqueness_check,
)
from test_cone import reference_apery_table, with_guard

ARTIFACTS = Path(__file__).resolve().parent.parent / "artifacts"


def coprime_grid(a_lo, a_hi, d_lo, d_hi):
    return [
        (a, d)
        for a in range(a_lo, a_hi + 1)
        for d in range(d_lo, d_hi + 1)
        if gcd(a, d) == 1
    ]


GRID_MAIN = coprime_grid(11, 60, 1, 12)  # criteria 3, 5, 6, 7


@pytest.fixture(scope="module")
def cones():
    """Certified Apery tables for the main grid, shared across criteria."""
    return {(a, d): apery_table(ArithmeticSeed(a, d)) for a, d in GRID_MAIN}


def _report(name: str, detail: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {name} PASS: {detail} [{elapsed:.2f}s]")


def test_criterion_1_golden_example():
    start = time.perf_counter()
    seed = ArithmeticSeed(11, 2)
    assert apery_set_closed(seed) == {0, 24, 48, 39, 63, 87, 56, 80, 104, 95, 75}
    table = apery_table(seed)
    assert table.rows == (
        (0, 24, 48, 39, 63, 87, 56, 80, 104, 95, 75),
        (11, 24, 48, 39, 63, 87, 56, 80, 104, 95, 75),
        (22, 35, 48, 50, 63, 87, 67, 80, 104, 95, 86),
        (33, 46, 59, 61, 74, 87, 78, 91, 104, 106, 97),
    )
    # the two cells the orders pin hardest: 80 = 24 + 56 has order two, so
    # it is the least member of its class in M^2 and row 2 keeps it;
    # 87 = 2*24 + 39 has order three, so row 3 keeps it as well
    gens = partial_sum_generators(seed)
    assert order_oracle(80, gens) == 2 and table.rows[2][7] == 80
    assert order_oracle(87, gens) == 3 and table.rows[3][5] == 87
    _report("1", "golden example (11,2): set and 4-row table exact", time.perf_counter() - start)


def test_criterion_2_closed_form_vs_oracle():
    start = time.perf_counter()
    grid = coprime_grid(11, 120, 1, 15)
    for a, d in grid:
        seed = ArithmeticSeed(a, d)
        gens = partial_sum_generators(seed)
        assert apery_set_closed(seed) == set(apery_oracle(gens, a)), (a, d)
    _report("2", f"closed Apery set = oracle on {len(grid)} seeds (a<=120, d<=15)",
            time.perf_counter() - start)


def test_criterion_3_pf_and_frobenius():
    start = time.perf_counter()
    paths = set()
    for a, d in GRID_MAIN:
        seed = ArithmeticSeed(a, d)
        gens = partial_sum_generators(seed)
        res = pseudo_frobenius_set(seed)
        paths.add(res.source_path)
        assert res.pf == pseudo_frobenius_oracle(gens), (a, d)
        assert res.frobenius == frobenius_oracle(gens), (a, d)
        assert res.frobenius == max(res.pf)
    assert paths == {"smallA", "largeA"}
    _report("3", f"PF set and Frobenius = oracle on {len(GRID_MAIN)} seeds, both case paths",
            time.perf_counter() - start)


def log_spaced_seeds(a_lo, a_hi, count, d_hi):
    """count seeds with a log-spaced in (a_lo, a_hi] and d cycling through
    1..d_hi, each d bumped to the next value coprime to its a."""
    seeds = []
    for i in range(1, count + 1):
        a = round(a_lo * (a_hi / a_lo) ** (i / count))
        d = 1 + (7 * i) % d_hi
        while gcd(a, d) != 1:
            d = d % d_hi + 1
        seeds.append((a, d))
    return seeds


def wide_log_spaced_seeds(a_lo, a_hi, count):
    """count seeds with a log-spaced in (a_lo, a_hi] and d spread over
    1..40a, each d bumped to the next value coprime to its a."""
    seeds = []
    for i in range(1, count + 1):
        a = round(a_lo * (a_hi / a_lo) ** (i / count))
        d = 1 + (7919 * i) % (40 * a)
        while gcd(a, d) != 1:
            d = d % (40 * a) + 1
        seeds.append((a, d))
    return seeds


def test_closed_forms_vs_oracle_to_a1000():
    start = time.perf_counter()
    seeds = log_spaced_seeds(120, 1000, 100, 15)
    assert len(set(seeds)) == 100 and max(a for a, _ in seeds) == 1000
    assert {a % 10 for a, _ in seeds} == set(range(10))  # every residue of a mod 10
    for a, d in seeds:
        seed = ArithmeticSeed(a, d)
        gens = partial_sum_generators(seed)
        assert apery_set_closed(seed) == set(apery_oracle(gens, a)), (a, d)
        assert pseudo_frobenius_set(seed).pf == pseudo_frobenius_oracle(gens), (a, d)
        assert pseudo_frobenius_set(seed).frobenius == frobenius_oracle(gens), (a, d)
    _report("2+3", f"Apery set, PF set and Frobenius = oracle on {len(seeds)} log-spaced "
            "seeds (120<a<=1000, d<=15)", time.perf_counter() - start)


def test_criterion_4_gastinger_grid():
    start = time.perf_counter()
    grid = coprime_grid(11, 60, 1, 10)
    adjudications = {}
    for a, d in grid:
        report = gastinger_verify(ArithmeticSeed(a, d))
        assert report.dimension == a, (a, d, report.dimension)
        assert report.passed, (a, d)
        assert report.minimal, (a, d, report.drop_one_dims)
        if report.adjudication is not None:
            adjudications[(a, d)] = report.adjudication["selected"]
    assert adjudications == {(21, 1): "withCore", (21, 2): "withCore"}
    _report("4", f"dimension = a and drop-one minimality on {len(grid)} seeds; "
            "a=21 variants adjudicated to include the core generators",
            time.perf_counter() - start)


def test_gastinger_grid_to_a200():
    start = time.perf_counter()
    grid = coprime_grid(61, 200, 1, 10)
    for a, d in grid:
        report = gastinger_verify(ArithmeticSeed(a, d))
        assert report.dimension == a, (a, d, report.dimension)
        assert report.passed and report.minimal, (a, d, report.drop_one_dims)
    _report("4", f"dimension = a and drop-one minimality on all {len(grid)} coprime seeds "
            "(60<a<=200, d<=10)", time.perf_counter() - start)


def test_gastinger_to_a1000():
    start = time.perf_counter()
    seeds = log_spaced_seeds(60, 1000, 60, 15)
    assert len(set(seeds)) == 60 and max(a for a, _ in seeds) == 1000
    assert {a % 10 for a, _ in seeds} == set(range(10))  # every residue family
    for a, d in seeds:
        report = gastinger_verify(ArithmeticSeed(a, d))
        assert report.dimension == a, (a, d, report.dimension)
        assert report.passed and report.minimal, (a, d, report.drop_one_dims)
    _report("4", f"dimension = a and drop-one minimality on {len(seeds)} log-spaced seeds "
            "(60<a<=1000, d<=15)", time.perf_counter() - start)


def test_criterion_5_order_histogram(cones):
    start = time.perf_counter()
    for (a, d), table in cones.items():
        closed = order_histogram_closed(a)
        assert list(table.t_counts) == closed, (a, d)
        assert sum(table.t_counts) == a
        assert table.t_counts[1] == 4
    _report("5", f"direct t-counts = closed form, sum = a, t1 = 4 on {len(cones)} seeds",
            time.perf_counter() - start)


def test_cone_to_a1000():
    start = time.perf_counter()
    seeds = [(1000, 7), (1000, 3001)] + wide_log_spaced_seeds(60, 1000, 41)
    assert {a % 10 for a, _ in seeds} == set(range(10))  # every histogram residue row
    for a, d in seeds:
        seed = ArithmeticSeed(a, d)
        table = apery_table(seed)
        assert table.orders[1:] == tuple(rec.order for rec in apery_records(seed)), (a, d)
        assert list(table.t_counts) == order_histogram_closed(a), (a, d)
        assert with_guard(table) == reference_apery_table(seed), (a, d)
        data = cone_to_json(table)
        assert data["free"] is True and data["torsion"] == [], (a, d)
    _report("5+6", f"table orders = closed orders, t-counts = closed form, free cone on "
            f"{len(seeds)} log-spaced seeds (60<a<=1000, d<=40a)", time.perf_counter() - start)


def test_criterion_6_cone_freeness(cones):
    start = time.perf_counter()
    for (a, d), table in cones.items():
        seed = ArithmeticSeed(a, d)
        assert with_guard(table) == reference_apery_table(seed), (a, d)
        data = cone_to_json(table)
        assert data["free"] is True and data["torsion"] == [], (a, d)
        props = ring_properties(table)
        assert props["cohenMacaulay"] is True
        assert props["gorenstein"] is False
        assert props["buchsbaum"] is True
        assert pseudo_frobenius_set(seed).type_count >= 4
        assert data["hilbert"]["numerator"] == list(table.t_counts)
    _report("6", f"every column free, CM, never Gorenstein, Hilbert = t-vector on {len(cones)} seeds",
            time.perf_counter() - start)


def test_criterion_7_reduction_number(cones):
    start = time.perf_counter()
    discrepancies = []
    for (a, d), table in cones.items():
        records = apery_records(ArithmeticSeed(a, d))
        max_order = max(r.order for r in records)
        assert table.top == max_order, (a, d)
        assert table.top == len(table.t_counts) - 1
        q, r = divmod(a, 10)
        top_count = table.t_counts[q + 2] if len(table.t_counts) > q + 2 else 0
        disagrees = table.top != table.reduction_formula
        assert disagrees == (top_count > 0), (a, d)
        # the top row fills exactly at residues >= 5 or where order q+2
        # classes come from the small-order adjustment
        assert (top_count > 0) == (r >= 5 or q + 2 == 3), (a, d)
        if disagrees:
            discrepancies.append(
                {"a": a, "d": d, "formula": table.reduction_formula,
                 "computed": table.top}
            )
    assert {"a": 11, "d": 2, "formula": 2, "computed": 3} in discrepancies
    ARTIFACTS.mkdir(exist_ok=True)
    out = ARTIFACTS / "reduction_number_discrepancies.json"
    out.write_text(json.dumps({"grid": "11<=a<=60, 1<=d<=12, coprime",
                               "count": len(discrepancies),
                               "discrepancies": discrepancies}, indent=2) + "\n")
    _report("7", f"computed = max order on {len(cones)} seeds; "
            f"{len(discrepancies)} formula discrepancies -> {out.name}",
            time.perf_counter() - start)


def test_criterion_8_conjecture_sweeps():
    start = time.perf_counter()
    ARTIFACTS.mkdir(exist_ok=True)
    for name in ("sweep_unique_m5.jsonl", "sweep_unique_m6.jsonl", "sweep_gamma6.jsonl"):
        (ARTIFACTS / name).unlink(missing_ok=True)  # gate recomputes, never reuses

    gate = sweep_uniqueness(5, (11, 40), (1, 10),
                            checkpoint_path=str(ARTIFACTS / "sweep_unique_m5.jsonl"))
    assert gate.counterexamples == [], gate.counterexamples  # hard gate
    assert sum(r["verdict"] == "match" for r in gate.records) == len(coprime_grid(11, 40, 1, 10))

    six_a = sweep_uniqueness(6, (16, 50), (1, 8),
                             checkpoint_path=str(ARTIFACTS / "sweep_unique_m6.jsonl"))
    six_b = sweep_uniqueness(6, (16, 50), (1, 8))
    assert strip_timing(six_a.records) == strip_timing(six_b.records)  # deterministic

    g6_a = sweep_gamma6((16, 60), (1, 8),
                        checkpoint_path=str(ARTIFACTS / "sweep_gamma6.jsonl"))
    g6_b = sweep_gamma6((16, 60), (1, 8))
    assert strip_timing(g6_a.records) == strip_timing(g6_b.records)
    for record in g6_a.records:
        assert record["verdict"] in ("match", "mismatch", "skip")

    summary = {
        "uniqueness_m5": {"seeds": len(gate.records), "violations": 0},
        "uniqueness_m6": {
            "seeds": len(six_a.records),
            "violations": len(six_a.counterexamples),
        },
        "gamma6": {
            "seeds": len(g6_a.records),
            "mismatches": len(g6_a.counterexamples),
        },
    }
    (ARTIFACTS / "sweep_summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    _report("8", "m=5 uniqueness clean (hard gate); m=6 and gamma6 sweeps deterministic, "
            f"verdicts recorded: {summary['uniqueness_m6']['violations']} / "
            f"{summary['gamma6']['mismatches']} counterexamples",
            time.perf_counter() - start)


def test_uniqueness_m5_to_a600():
    # the paper's theorem beyond the criterion 8 grid; m = 6 stays data
    start = time.perf_counter()
    seeds = []
    for i in range(16):
        a = round(41 * (600 / 41) ** (i / 15))
        d = 1 + (7919 * i) % a
        while gcd(a, d) != 1:
            d = d % a + 1
        seeds.append((a, d))
    assert len(set(seeds)) == 16 and seeds[0][0] == 41 and seeds[-1][0] == 600
    for a, d in seeds:
        assert uniqueness_check(partial_sum_generators(ArithmeticSeed(a, d)), a).all_unique, (a, d)
    _report("8", f"m=5 unique Apery expansions on {len(seeds)} log-spaced seeds "
            "(41<=a<=600, d<=a)", time.perf_counter() - start)


def test_closed_forms_vs_oracle_to_a5000():
    start = time.perf_counter()
    seeds = wide_log_spaced_seeds(1500, 5000, 12)
    assert len(set(seeds)) == 12 and seeds[-1][0] == 5000
    for a, d in seeds:
        seed = ArithmeticSeed(a, d)
        gens = partial_sum_generators(seed)
        assert apery_set_closed(seed) == set(apery_oracle(gens, a)), (a, d)
        assert pseudo_frobenius_set(seed).pf == pseudo_frobenius_oracle(gens), (a, d)
        assert pseudo_frobenius_set(seed).frobenius == frobenius_oracle(gens), (a, d)
    _report("2+3", f"Apery set, PF set and Frobenius = oracle on {len(seeds)} log-spaced "
            "seeds (1500<a<=5000, d<=40a)", time.perf_counter() - start)


def test_uniqueness_m5_to_a2000():
    start = time.perf_counter()
    seeds = wide_log_spaced_seeds(600, 2000, 12)
    assert len(set(seeds)) == 12 and seeds[-1][0] == 2000
    for a, d in seeds:
        assert uniqueness_check(partial_sum_generators(ArithmeticSeed(a, d)), a).all_unique, (a, d)
    _report("8", f"m=5 unique Apery expansions on {len(seeds)} log-spaced seeds "
            "(600<a<=2000, d<=40a)", time.perf_counter() - start)


def test_six_generator_sweeps_to_a2000():
    # m = 6 verdicts are data: only the record shape and the
    # counterexample list are asserted
    start = time.perf_counter()
    seeds = wide_log_spaced_seeds(150, 2000, 12)
    for a, d in seeds:
        gens = partial_sum_generators(ArithmeticSeed(a, d, 6))
        for report in (sweep_uniqueness(6, (a, a), (d, d)), sweep_gamma6((a, a), (d, d))):
            (record,) = report.records
            counterexample = {"uniqueness": "violation", "gamma6": "mismatch"}[report.kind]
            assert record["verdict"] in ("match", "skip", counterexample), (a, d)
            assert report.counterexamples == ([record] if record["verdict"] == counterexample else [])
            witness = record.get("witness")
            keys = ["a", "d", "m", "verdict"] + ["witness"] * (witness is not None) + ["ms"]
            assert list(record) == keys and (record["a"], record["d"], record["m"]) == (a, d, 6)
            if record["verdict"] == "skip":
                assert witness == {"reason": "notMinimal"}
            elif record["verdict"] == "violation":
                assert list(witness) == ["value", "count", "expansions", "violations"]
                assert len(witness["expansions"]) == min(witness["count"], 8) > 1
                for e in witness["expansions"]:
                    assert sum(c * g for c, g in zip(e, gens[1:])) == witness["value"]
            elif record["verdict"] == "mismatch":
                assert list(witness) == ["mismatches", "count"]
                assert 1 <= len(witness["mismatches"]) == min(witness["count"], 8)
                assert all(miss["conjectured"] != miss["oracle"] for miss in witness["mismatches"])
            else:
                assert witness is None
    _report("8", f"m=6 uniqueness and gamma6 records well formed on {len(seeds)} log-spaced "
            "seeds (150<a<=2000, d<=40a)", time.perf_counter() - start)


def test_criterion_9_property_suites():
    start = time.perf_counter()

    # unique balanced solution by brute force
    hits = []
    for c1 in range(-2, 21):
        for c2 in range(-1, 21):
            for c4 in range(0, 7):
                rem = 10 * c4 - c1 - 3 * c2
                if rem % 6:
                    continue
                c3 = rem // 6
                if (c1, c2, c3, c4) != (0, 0, 0, 0) and 4 * c1 + 3 * c2 + 5 * c4 <= 0:
                    hits.append((c1, c2, c3, c4))
    assert hits == [(-2, 0, 2, 1)]

    # every catalog binomial is weight-homogeneous on the verification grid
    for a, d in coprime_grid(11, 60, 1, 10):
        seed = ArithmeticSeed(a, d)
        assert homogeneity_check(generator_catalog(seed), seed), (a, d)

    # Apery oracle covers each residue exactly once, with non-member drops
    for a, d in coprime_grid(11, 30, 1, 5):
        gens = partial_sum_generators(ArithmeticSeed(a, d))
        ap = apery_oracle(gens, a)
        assert sorted(v % a for v in ap) == list(range(a))
        assert all(not membership(v - a, gens) for v in ap if v)

    # order superadditivity on members sampled up to three Frobenius numbers
    for a, d in ((11, 2), (13, 4)):
        gens = partial_sum_generators(ArithmeticSeed(a, d))
        frob = frobenius_oracle(gens)
        members = [v for v in range(1, 3 * frob) if membership(v, gens)]
        sample = members[:: max(1, len(members) // 25)]
        for x in sample:
            for y in sample:
                if x + y < 3 * frob:
                    assert order_oracle(x + y, gens) >= order_oracle(x, gens) + order_oracle(y, gens)

    _report("9", "balanced-solution uniqueness, catalog homogeneity, residue coverage, "
            "order superadditivity", time.perf_counter() - start)
