"""Apery table, freeness check, cone decomposition, Hilbert data, ring flags."""

import json
from itertools import accumulate
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import apsum.cli
import apsum.cone
from apsum import (
    AperyTable,
    ArithmeticSeed,
    VerificationError,
    apery_records,
    apery_table,
    cone_decomposition,
    cone_to_json,
    order_histogram_closed,
    partial_sum_generators,
    ring_properties,
)
from apsum.cone import _non_free_column
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


def test_orders_11_2():
    table = apery_table(SEED_11_2)
    assert table.orders[8] == 3  # value 104 flat through row 3
    assert table.orders[2] == 2  # value 48 flat through row 2
    assert table.orders[0] == 0  # the multiplicity column climbs from row 0
    assert _non_free_column(table) is None


STEP = 11  # the multiplicity of the drawn tables


@st.composite
def ladder_tables(draw):
    """(table, ladders): column t >= 1 of the table steps by ladders[t - 1],
    0 or STEP from row to row, guard row included.  Each ladder climbs at
    least once, so the guard row leaves every row-0 value behind, as in a
    built table."""
    height = draw(st.integers(1, 8))
    steps = st.lists(st.sampled_from((0, STEP)), min_size=height, max_size=height)
    ladders = draw(st.lists(steps.filter(lambda s: STEP in s), min_size=1, max_size=4))
    columns = [tuple(accumulate([t] + s)) for t, s in enumerate([[STEP] * height] + ladders)]
    *rows, guard = zip(*columns)
    orders = tuple(col.count(col[0]) - 1 for col in zip(*rows))
    return AperyTable(tuple(rows), guard, orders), ladders


@settings(max_examples=200, deadline=None)
@given(ladder_tables())
def test_non_free_column_accepts_exactly_prefix_flats(drawn):
    # ladders that pause after a climb (torsion-shaped columns) never come
    # out of this family's tables, so they are drawn directly
    table, ladders = drawn
    prefix_flats = [s == sorted(s) for s in ladders]
    expected = None if all(prefix_flats) else prefix_flats.index(False) + 1
    assert _non_free_column(table) == expected


def test_order_histograms():
    assert cone_decomposition(SEED_11_2).t_counts == (1, 4, 4, 2)
    assert order_histogram_closed(11) == [1, 4, 4, 2]
    assert order_histogram_closed(23) == [1, 4, 9, 9]
    assert order_histogram_closed(20) == [1, 4, 8, 7]


def test_cone_decomposition_11_2():
    dec = cone_decomposition(SEED_11_2)
    assert dec.t_counts == (1, 4, 4, 2)
    assert _non_free_column(dec.table) is None
    data = cone_to_json(dec)
    assert data["free"] is True
    assert data["torsion"] == []
    assert dec.shifts == (0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3)


def test_cone_decomposition_23_1():
    dec = cone_decomposition(ArithmeticSeed(23, 1))
    assert dec.t_counts == (1, 4, 9, 9)
    assert _non_free_column(dec.table) is None
    assert cone_to_json(dec)["free"] is True


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
    dec = cone_decomposition(ArithmeticSeed(a, d))
    assert (dec.reduction_formula, dec.reduction_computed) == expected


def test_hilbert_numerator():
    assert cone_decomposition(SEED_11_2).t_counts == (1, 4, 4, 2)
    assert cone_decomposition(ArithmeticSeed(23, 1)).t_counts == (1, 4, 9, 9)
    for seed in (SEED_11_2, ArithmeticSeed(29, 2)):
        assert sum(cone_decomposition(seed).t_counts) == seed.a


def test_ring_properties():
    assert ring_properties(cone_decomposition(SEED_11_2)) == {
        "cohenMacaulay": True,
        "gorenstein": False,
        "buchsbaum": True,
    }
    props = ring_properties(cone_decomposition(ArithmeticSeed(23, 1)))
    assert props["gorenstein"] is False  # type 9, never 1
    assert props["buchsbaum"] is True


def test_csv_export(capsys):
    assert apsum.cli.main(["table", "--a", "11", "--d", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 4
    assert all(len(line.split(",")) == 11 for line in lines)
    assert lines[0] == "0,24,48,39,63,87,56,80,104,95,75"
    assert lines == [",".join(map(str, row)) for row in TABLE_11_2]


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


def doctored_11_2(seed):
    """The (11, 2) table with column 10 pausing again at row 3 (86 -> 86),
    a flat step past its order 1."""
    table = apery_table(seed)
    rows = [list(row) for row in table.rows]
    rows[3][10] = rows[2][10]
    return AperyTable(tuple(map(tuple, rows)), table.guard_row, table.orders)


def test_non_free_table_is_refused(monkeypatch, capsys):
    monkeypatch.setattr(apsum.cone, "apery_table", doctored_11_2)
    assert _non_free_column(apsum.cone.apery_table(SEED_11_2)) == 10
    with pytest.raises(VerificationError) as err:
        cone_decomposition(SEED_11_2)
    assert err.value.code == "nonFreeCone"
    for command in ("cone", "hilbert"):
        assert apsum.cli.main([command, "--a", "11", "--d", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "nonFreeCone"
