"""Apery table, landings, cone decomposition, Hilbert data, ring flags."""

import json
from itertools import accumulate
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import apsum.cli
import apsum.cone
from apsum import (
    ArithmeticSeed,
    VerificationError,
    apery_records,
    apery_table,
    cone_decomposition,
    cone_to_json,
    hilbert_numerator,
    landings,
    order_histogram_closed,
    partial_sum_generators,
    reduction_number,
    ring_properties,
    table_to_csv,
)
from apsum.oracle import orders_up_to

SEED_11_2 = ArithmeticSeed(11, 2)

# an entry stays while its order covers the row, and climbs by 11 after it
TABLE_11_2 = (
    (0, 24, 48, 39, 63, 87, 56, 80, 104, 95, 75),
    (11, 24, 48, 39, 63, 87, 56, 80, 104, 95, 75),
    (22, 35, 48, 50, 63, 87, 67, 80, 104, 95, 86),
    (33, 46, 59, 61, 74, 87, 78, 91, 104, 106, 97),
)


def test_table_11_2_rows():
    table = apery_table(SEED_11_2)
    assert table.rows == TABLE_11_2
    assert table.top == 3
    # guard row climbs everywhere: no column pauses past the window
    assert table.guard_row == tuple(v + 11 for v in table.rows[-1])


def test_table_row_structure_generic():
    from apsum import order_oracle, partial_sum_generators

    for seed in (SEED_11_2, ArithmeticSeed(23, 1), ArithmeticSeed(30, 7)):
        table = apery_table(seed)
        gens = partial_sum_generators(seed)
        row0, row1 = table.rows[0], table.rows[1]
        assert row0[0] == 0 and row1[0] == seed.a
        assert row1[1:] == row0[1:]
        for upper, lower in zip(table.rows, table.rows[1:]):
            for u, v in zip(upper, lower):
                assert v in (u, u + seed.a)
        for s, row in enumerate(table.rows[1:], start=1):
            assert all(order_oracle(v, gens) >= s for v in row)


def orders_table(seed):
    """Reference table from the order of every integer up to the guard row.

    Row s + 1 keeps an entry of order >= s + 1 and adds the multiplicity to
    any other; the class orders come from the closed form.
    """
    a = seed.a
    records = apery_records(seed)
    top = max(rec.order for rec in records)
    limit = max(rec.value for rec in records) + (top + 2) * a
    orders = orders_up_to(partial_sum_generators(seed), limit)
    row0 = (0,) + tuple(rec.value for rec in records)
    rows = [row0, (a,) + row0[1:]]
    for s in range(2, top + 2):
        rows.append(tuple(v if orders[v] >= s else v + a for v in rows[-1]))
    guard = rows.pop()
    return tuple(rows), guard, (0,) + tuple(rec.order for rec in records)


def assert_matches_orders_table(seed):
    table = apery_table(seed)
    assert (table.rows, table.guard_row, table.orders) == orders_table(seed), (seed.a, seed.d)


@pytest.mark.parametrize("a,d", [(11, 2), (21, 1), (21, 2), (60, 7), (200, 7)])
def test_table_matches_orders_reference(a, d):
    assert_matches_orders_table(ArithmeticSeed(a, d))


@settings(max_examples=8, deadline=None)
@given(st.integers(11, 300).flatmap(lambda a: st.tuples(st.just(a), st.integers(1, 40 * a))))
def test_table_matches_orders_reference_at_random_large_d(seed_pair):
    a, d = seed_pair
    assume(gcd(a, d) == 1)
    assert_matches_orders_table(ArithmeticSeed(a, d))


def test_landings_11_2():
    analysis = landings(apery_table(SEED_11_2))
    cols = {c.column: c for c in analysis.columns}
    assert cols[8].landings[0].start == 0 and cols[8].landings[0].end == 3  # value 104
    assert cols[8].d == 3
    assert cols[2].d == 2  # value 48 flat through row 2
    assert cols[0].p == 0 and cols[0].d == 0  # multiplicity column convention
    assert analysis.free
    assert all(not c.torsion for c in analysis.columns)


def stretch_landings(values):
    """Reference: scan each maximal run of equal values from its first index."""
    found = []
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[j + 1] == values[i]:
            j += 1
        if j > i:
            found.append((i, j))
        i = j + 1
    return found


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=12))
def test_column_landings_match_stretch_scan(steps):
    # ladders with several landings (torsion-shaped columns) never come out
    # of this family's tables, so they are drawn directly
    values = tuple(accumulate(steps))
    found = [(x.start, x.end) for x in apsum.cone._column_landings(values)]
    assert found == stretch_landings(values)


def test_order_histograms():
    assert cone_decomposition(SEED_11_2).t_counts == (1, 4, 4, 2)
    assert order_histogram_closed(11) == [1, 4, 4, 2]
    assert order_histogram_closed(23) == [1, 4, 9, 9]
    assert order_histogram_closed(20) == [1, 4, 8, 7]


def test_cone_decomposition_11_2():
    dec = cone_decomposition(SEED_11_2)
    assert dec.t_counts == (1, 4, 4, 2)
    assert dec.free
    assert dec.torsion == ()
    assert dec.shifts == (0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3)


def test_cone_decomposition_23_1():
    dec = cone_decomposition(ArithmeticSeed(23, 1))
    assert dec.t_counts == (1, 4, 9, 9)
    assert dec.free


def test_shifts_match_histogram():
    for seed in (SEED_11_2, ArithmeticSeed(23, 1), ArithmeticSeed(36, 5)):
        dec = cone_decomposition(seed)
        hist = [0] * (max(dec.shifts) + 1)
        for s in dec.shifts:
            hist[s] += 1
        assert tuple(hist) == dec.t_counts


@pytest.mark.parametrize(
    "a,d,expected",
    [(11, 2, (2, 3)), (20, 3, (3, 3)), (23, 1, (3, 3))],
)
def test_reduction_number(a, d, expected):
    assert reduction_number(ArithmeticSeed(a, d)) == expected


def test_hilbert_numerator():
    assert hilbert_numerator(SEED_11_2) == (1, 4, 4, 2)
    assert hilbert_numerator(ArithmeticSeed(23, 1)) == (1, 4, 9, 9)
    for seed in (SEED_11_2, ArithmeticSeed(29, 2)):
        assert sum(hilbert_numerator(seed)) == seed.a


def test_ring_properties():
    assert ring_properties(cone_decomposition(SEED_11_2)) == {
        "cohenMacaulay": True,
        "gorenstein": False,
        "buchsbaum": True,
    }
    props = ring_properties(cone_decomposition(ArithmeticSeed(23, 1)))
    assert props["gorenstein"] is False  # type 9, never 1
    assert props["buchsbaum"] is True


def test_csv_export():
    text = table_to_csv(apery_table(SEED_11_2))
    lines = text.strip().split("\n")
    assert len(lines) == 4
    assert all(len(line.split(",")) == 11 for line in lines)
    assert lines[0] == "0,24,48,39,63,87,56,80,104,95,75"


def test_json_export_shape():
    data = cone_to_json(cone_decomposition(SEED_11_2))
    assert set(data) == {"rows", "tCounts", "free", "shifts", "torsion", "reductionNumber", "hilbert"}
    assert data["reductionNumber"] == {"formula": 2, "computed": 3}
    assert data["tCounts"] == [1, 4, 4, 2]
    assert data["hilbert"]["numerator"] == [1, 4, 4, 2]
    assert data["hilbert"]["denominator"] == "1-x"


def test_histogram_cross_check_can_fail(monkeypatch, capsys):
    # a closed form with one class too many at the top order must trip the
    # check against the orders read off the table
    def perturbed(a):
        counts = order_histogram_closed(a)
        return counts[:-1] + [counts[-1] + 1]

    monkeypatch.setattr(apsum.cone, "order_histogram_closed", perturbed)
    with pytest.raises(VerificationError) as err:
        cone_decomposition(SEED_11_2)
    assert err.value.code == "tCountMismatch"
    assert apsum.cli.main(["cone", "--a", "11", "--d", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "tCountMismatch"
