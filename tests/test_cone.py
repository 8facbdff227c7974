"""Apery table: freeness and histogram checks, the cone invariants read off it, Hilbert data, ring flags."""

import json
from math import gcd
from operator import eq
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import apsum.cli
import apsum.cone
from apsum import (
    ArithmeticSeed,
    DomainError,
    VerificationError,
    apery_records,
    apery_table,
    canonical_expansion,
    cone_to_json,
    order_histogram_closed,
    partial_sum_generators,
    ring_properties,
)
from apsum.family import _Q, _T
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
    # the DP's guard row climbs everywhere: no column pauses past the window
    assert tuple(v + 11 for v in table.rows[-1]) == reference_apery_table(SEED_11_2)[1]


def test_table_is_immutable_and_rows_read_the_same_twice():
    table = apery_table(SEED_11_2)
    assert table.rows == table.rows == TABLE_11_2  # a plain property: rebuilt from the columns each time
    with pytest.raises(AttributeError):
        table.values = ()
    with pytest.raises(AttributeError):
        table.rows = ()


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


def reference_apery_table(seed):
    """Reference (rows, guard row, orders) from the layered DP in column order.

    Row s at column n is the min over j of g_j + row_(s-1)[(n - C(j, 2)) mod a]:
    one rotated copy of the previous row per generator.  The guard row is the
    first row s >= 2 where no column t >= 1 keeps its row-0 value, and a
    column's order is the last row keeping it.
    """
    shifts = [(j * (j - 1) // 2 % seed.a, g) for j, g in enumerate(partial_sum_generators(seed), 1)]
    level = (0, *(rec.value for rec in apery_records(seed)))
    rows = [level]
    while True:
        # each rotation puts row_(s-1)[(n - k) mod a] at column n
        level = tuple(map(min, *(map(g.__add__, level[-k:] + level[:-k]) for k, g in shifts)))
        if len(rows) >= 2 and not any(map(eq, level[1:], rows[0][1:])):
            break
        rows.append(level)
    # columns never decrease, so the rows keeping row 0 form a prefix
    orders = tuple(col.count(col[0]) - 1 for col in zip(*rows))
    return tuple(rows), level, orders


@pytest.mark.parametrize("a,d", [(11, 2), (21, 1), (137, 5479), (1000, 7)])
def test_rows_are_the_table_formula_cell_by_cell(a, d):
    # row s at column n is w_n + max(0, s - o_n) * a, each cell an exact int
    table = apery_table(ArithmeticSeed(a, d))
    assert len(table.rows) == table.top + 1
    for s, row in enumerate(table.rows):
        assert type(row) is tuple and len(row) == a
        for w, o, cell in zip(table.values, table.orders, row):
            assert type(cell) is int and cell == w + max(0, s - o) * a, (s, w, o)


def with_guard(table):
    """(rows, guard row, orders) of a table: past its top row every column climbs
    by a, so the guard row is the last row plus a, to match the references."""
    a = len(table.values)
    return table.rows, tuple(v + a for v in table.rows[-1]), table.orders


def assert_matches_reference(table, seed):
    assert with_guard(table) == reference_apery_table(seed), (seed.a, seed.d)


def test_table_matches_dp_reference():
    seeds = [(a, d) for a in range(11, 160) for d in (1, 2, 3, 7, 11, 40 * a - 1) if gcd(a, d) == 1]
    for a, d in seeds + [(1000, 7), (1000, 3001)]:
        seed = ArithmeticSeed(a, d)
        table = apery_table(seed)
        assert_matches_reference(table, seed)
        assert table.top == len(table.rows) - 1


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
    assert with_guard(table) == orders_table(seed), (seed.a, seed.d)


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


def first_failing_column(seed, records):
    """Reference: the first column of ``records`` failing ``apery_table``'s
    conditions (i)-(iii), every column checked in turn; None if all pass."""
    a = seed.a
    w = (0, *(rec.value for rec in records))
    o = (0, *(rec.order for rec in records))
    steps = [(j * (j - 1) // 2 % a, g) for j, g in enumerate(partial_sum_generators(seed)[1:], 2)]
    for n in range(a):
        checks = [(divmod(g + w[n - k] - w[n], a), o[n - k] - o[n]) for k, g in steps]
        if not all(rem == 0 and delta >= max(0, gap + 1) for (delta, rem), gap in checks) or (
                n and ((0, 0), -1) not in checks):
            return n
    return None


@settings(max_examples=200, deadline=None)
@given(st.integers(11, 300).flatmap(lambda a: st.tuples(
    st.just(a), st.integers(1, 40 * a),
    st.lists(st.tuples(st.integers(1, a - 1), st.sampled_from((("order", 1), ("order", -1), ("value", a)))),
             min_size=1, max_size=3, unique_by=lambda change: change[0]))))
def test_perturbed_record_is_refused(drawn):
    # records off by one order, or by one multiple of a, in one to three
    # classes are a table the layered DP does not build; the windowed
    # certificate must refuse it at the column a scan of every column names
    a, d, changes = drawn
    assume(gcd(a, d) == 1)
    seed = ArithmeticSeed(a, d)
    records = apery_records(seed)
    for n, (field, step) in changes:
        records[n - 1] = records[n - 1]._replace(**{field: getattr(records[n - 1], field) + step})
    column = first_failing_column(seed, records)
    assert column is not None
    with mock.patch.object(apsum.cone, "apery_records", lambda _: records):
        with pytest.raises(VerificationError, match=f"nonFreeCone: column {column} is not free"):
            apery_table(seed)


@pytest.mark.parametrize("a,d", [(31, 2), (37, 1), (42, 11), (59, 7), (100, 3), (157, 40 * 157 - 1), (300, 7)])
def test_shifted_progression_is_refused_in_the_window(a, d):
    # shifting a whole residue progression (class q + r and every T-th class
    # after it, T and q the class rule's period and start) by one order or by a
    # keeps every step into a class m >= q + T on the rule, so apery_table checks
    # only its (q + 2T)-column window and must name the column a scan of every
    # column names.  Such shifts first fail below column q + T = 19 (all 19,110
    # at 31 <= a < 160, d in 1, 2, 3, 7, 11, 40a - 1, in a probe), so no test
    # pins the bound q + 2T: the proof in apery_table's docstring does.
    T, q = _T, _Q
    seed = ArithmeticSeed(a, d)
    g5 = partial_sum_generators(seed)[4]
    for r in range(T):
        for field, step in (("order", 1), ("order", -1), ("value", a)):
            records = apery_records(seed)
            for n in range(q + r, a, T):
                records[n - 1] = records[n - 1]._replace(**{field: getattr(records[n - 1], field) + step})
            assert all(y.value - x.value == g5 and y.order - x.order == 1
                       for x, y in zip(records[q - 1:], records[q + T - 1:]))
            column = first_failing_column(seed, records)
            assert column is not None
            with mock.patch.object(apsum.cone, "apery_records", lambda _: records):
                with pytest.raises(VerificationError, match=f"nonFreeCone: column {column} is not free"):
                    apery_table(seed)


def test_value_off_its_class_is_refused_where_it_first_shows(monkeypatch):
    # class 10's value 75 + 1 leaves its class; column 0 meets it first, where
    # g_2 + w_10 must be a multiple of a, so (i) names column 0
    records = apery_records(SEED_11_2)
    records[9] = records[9]._replace(value=76)
    monkeypatch.setattr(apsum.cone, "apery_records", lambda _: records)
    with pytest.raises(VerificationError, match="nonFreeCone: column 0 "):
        apery_table(SEED_11_2)


def test_order_below_the_longest_expansion_is_refused(monkeypatch):
    # g_4 raised by 2a to 2 g_3 = 78 keeps its class at (11, 2), and class 6
    # then has the expansions g_4 and g_3 + g_3, so its order is 2.  A record
    # claiming 1 has the order-0 predecessor of g_4 for (iii), and only (ii)
    # sees the longer expansion through class 3.
    from apsum import apery_oracle, order_oracle

    gens = (11, 24, 39, 78, 75)
    least = {v % 11: v for v in apery_oracle(sorted(gens), 11)}
    records = [SimpleNamespace(value=least[2 * n % 11], order=order_oracle(least[2 * n % 11], sorted(gens)))
               for n in range(1, 11)]
    monkeypatch.setattr(apsum.cone, "partial_sum_generators", lambda _: gens)
    monkeypatch.setattr(apsum.cone, "apery_records", lambda _: records)
    # the histogram of these orders is not the family's, so the closed form
    # is replaced by it to keep the test on (ii)
    monkeypatch.setattr(apsum.cone, "order_histogram_closed", lambda _: [1, 3, 3, 3, 1])
    assert apery_table(SEED_11_2).orders == (0, 1, 2, 1, 2, 3, 2, 3, 4, 3, 1)
    records[5] = SimpleNamespace(value=78, order=1)
    with pytest.raises(VerificationError, match="nonFreeCone: column 6 "):
        apery_table(SEED_11_2)


def test_order_histograms():
    assert apery_table(SEED_11_2).t_counts == (1, 4, 4, 2)
    assert order_histogram_closed(11) == [1, 4, 4, 2]
    assert order_histogram_closed(23) == [1, 4, 9, 9]
    assert order_histogram_closed(20) == [1, 4, 8, 7]


@pytest.mark.parametrize("a", [0, -5, -60, 7.5, "3", None])
def test_closed_histogram_refuses_a_below_one(a):
    with pytest.raises(DomainError, match="invalidSeed"):
        order_histogram_closed(a)
    assert order_histogram_closed(1) == [1]  # class 0 alone, order 0


def test_closed_histogram_counts_the_canonical_orders():
    # the histogram of the canonical expansions' orders over n < a, grown one
    # class at a time, at every a in 11..3000
    counts, top = [0] * 3000, 0
    for n in range(3000):
        order = sum(canonical_expansion(n))
        counts[order] += 1
        top = max(top, order)
        if n >= 10:
            assert order_histogram_closed(n + 1) == counts[:top + 1], n + 1


def test_cone_decomposition_11_2():
    table = apery_table(SEED_11_2)
    assert table.t_counts == (1, 4, 4, 2)
    assert_matches_reference(table, SEED_11_2)
    data = cone_to_json(table)
    assert data["free"] is True
    assert data["torsion"] == []
    assert table.shifts == (0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3)


def test_cone_decomposition_23_1():
    table = apery_table(ArithmeticSeed(23, 1))
    assert table.t_counts == (1, 4, 9, 9)
    assert_matches_reference(table, ArithmeticSeed(23, 1))
    assert cone_to_json(table)["free"] is True


def test_shifts_match_histogram():
    for seed in (SEED_11_2, ArithmeticSeed(23, 1), ArithmeticSeed(36, 5)):
        table = apery_table(seed)
        hist = [0] * (max(table.shifts) + 1)
        for s in table.shifts:
            hist[s] += 1
        assert tuple(hist) == table.t_counts


@pytest.mark.parametrize(
    "a,d,expected",
    [(11, 2, (2, 3)), (20, 3, (3, 3)), (23, 1, (3, 3))],
)
def test_reduction_number(a, d, expected):
    table = apery_table(ArithmeticSeed(a, d))
    assert (table.reduction_formula, table.top) == expected


def test_hilbert_at_large_a_skips_the_rows(capsys):
    # about 10^8 DP cells; the certificate and the orders alone are O(m * a)
    assert apsum.cli.main(["hilbert", "--a", "30011", "--d", "7"]) == 0
    assert sum(json.loads(capsys.readouterr().out)["payload"]["numerator"]) == 30011


def test_hilbert_numerator():
    assert apery_table(SEED_11_2).t_counts == (1, 4, 4, 2)
    assert apery_table(ArithmeticSeed(23, 1)).t_counts == (1, 4, 9, 9)
    for seed in (SEED_11_2, ArithmeticSeed(29, 2)):
        assert sum(apery_table(seed).t_counts) == seed.a


def test_ring_properties():
    assert ring_properties(apery_table(SEED_11_2)) == {
        "cohenMacaulay": True,
        "gorenstein": False,
        "buchsbaum": True,
    }
    props = ring_properties(apery_table(ArithmeticSeed(23, 1)))
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
    data = cone_to_json(apery_table(SEED_11_2))
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
        apery_table(SEED_11_2)
    assert err.value.code == "tCountMismatch"
    for command in ("cone", "hilbert", "table"):
        assert apsum.cli.main([command, "--a", "11", "--d", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "tCountMismatch"


def doctored_11_2(seed):
    """The (11, 2) records with class 10's order raised from 1 to 2: its
    value 75 = g_5 + 0 comes one row too early for order 2."""
    records = apery_records(seed)
    assert records[9].order == 1
    records[9] = records[9]._replace(order=2)
    return records


def test_non_free_table_is_refused(monkeypatch, capsys):
    monkeypatch.setattr(apsum.cone, "apery_records", doctored_11_2)
    with pytest.raises(VerificationError) as err:
        apery_table(SEED_11_2)
    assert err.value.code == "nonFreeCone"
    assert "column 10 " in str(err.value)
    for command in ("cone", "hilbert", "table"):
        assert apsum.cli.main([command, "--a", "11", "--d", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "nonFreeCone"
