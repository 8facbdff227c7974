"""Apery table, landings, cone decomposition, Hilbert data, ring flags."""

import pytest

from apsum import (
    ArithmeticSeed,
    apery_table,
    cone_decomposition,
    cone_to_json,
    hilbert_numerator,
    landings,
    order_histogram_closed,
    reduction_number,
    ring_properties,
    table_to_csv,
)

SEED_11_2 = ArithmeticSeed(11, 2)

# derived from the update rule: an entry stays while its order covers the row
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


def test_landings_11_2():
    analysis = landings(apery_table(SEED_11_2))
    cols = {c.column: c for c in analysis.columns}
    assert cols[8].landings[0].start == 0 and cols[8].landings[0].end == 3  # value 104
    assert cols[8].d == 3
    assert cols[2].d == 2  # value 48 flat through row 2
    assert cols[0].p == 0 and cols[0].d == 0  # multiplicity column convention
    assert analysis.free
    assert all(not c.torsion for c in analysis.columns)


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
