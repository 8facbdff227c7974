"""Closed-form pseudo-Frobenius and Frobenius data against the oracle."""

from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apsum import (
    ArithmeticSeed,
    DomainError,
    apery_oracle,
    apery_set_closed,
    frobenius_oracle,
    partial_sum_generators,
    pseudo_frobenius_oracle,
    pseudo_frobenius_set,
)
from apsum.family import _Q, _T, least_degrees


def test_small_a_example():
    res = pseudo_frobenius_set(ArithmeticSeed(11, 2))
    assert set(res.pf) == {84, 64, 76, 93}  # gaps at indices 9, 10, 5, 8
    assert res.type_count == 4
    assert res.frobenius == 93
    assert res.source_path == "smallA"


def test_pf_result_is_immutable():
    res = pseudo_frobenius_set(ArithmeticSeed(11, 2))
    with pytest.raises(AttributeError):
        res.frobenius = 0
    assert res == (res.pf, 93, 4, "smallA")


def test_residue3_example():
    # maximal classes 5 and 8 at the low end, seven at the top (a - 7 is not: its
    # element plus the degree-4 generator is the element of class a - 1)
    res = pseudo_frobenius_set(ArithmeticSeed(23, 1))
    assert res.type_count == 9
    assert res.source_path == "largeA"
    assert res.pf == pseudo_frobenius_oracle(partial_sum_generators(ArithmeticSeed(23, 1)))


def test_residue6_type():
    assert pseudo_frobenius_set(ArithmeticSeed(26, 1)).type_count == 6  # four top classes plus 5 and 8


@pytest.mark.parametrize(
    "a,d,expected",
    [
        (11, 2, 93),  # d < a picks index 8
        (11, 13, 183),  # a < d < 2a picks index 9
        (11, 25, 294),  # d > 2a picks index 10
        (17, 35, 696),  # d > 2a picks index 16: 9*17 + 16*35 - 17
        (12, 1, 92),
        (23, 1, 298),
        (21, 43, 1049),  # d > 2a at a = 1 mod 10: the top class carries F
        (27, 55, 1781),
        (37, 75, 3366),
    ],
)
def test_frobenius_examples(a, d, expected):
    assert pseudo_frobenius_set(ArithmeticSeed(a, d)).frobenius == expected


def test_below_threshold_rejected():
    with pytest.raises(DomainError) as err:
        pseudo_frobenius_set(ArithmeticSeed(10, 3))
    assert err.value.code == "belowMinimalityThreshold"


def test_deep_frobenius_residues():
    # at residues 1 and 7 the top class loses a radix digit; the
    # second-from-top class carries the Frobenius number when d < 2a, and
    # the top class does once d > 2a
    for a, d in ((21, 1), (27, 2), (31, 4), (37, 1), (21, 43), (31, 63)):
        seed = ArithmeticSeed(a, d)
        assert pseudo_frobenius_set(seed).frobenius == frobenius_oracle(partial_sum_generators(seed))


# F = a^2/2 + a*d + c_r*a - e_r*d at a = r mod 10, r = 0..5, as (2 c_r, e_r); at
# r = 1 with d > 2a the top class carries F, which gains d - 2a
FROBENIUS_BY_RESIDUE = [(2, 1), (1, 2), (0, 1), (1, 1), (0, 1), (3, 1)]
TYPE_BY_RESIDUE = [7, 8, 8, 9, 10, 8, 6, 7, 6, 6]


@pytest.mark.parametrize("r", range(10))
def test_pf_at_a_trillion_matches_the_residue_table(r):
    # no oracle reaches a = 10^12, where the window {1..q-1} | {a-T..a-1} wraps
    # with its two ends 10^12 apart; F and the type are held to the per-residue
    # table instead, which the oracle matches at 20 <= a < 400
    a = 10**12 + r
    for d in (7, 11, 13, 2 * a + 1):
        if gcd(a, d) != 1:  # 7 divides 10^12 + 6
            continue
        res = pseudo_frobenius_set(ArithmeticSeed(a, d))
        assert (res.type_count, res.source_path) == (TYPE_BY_RESIDUE[r], "largeA"), d
        assert res.frobenius == max(res.pf), d
        if r < len(FROBENIUS_BY_RESIDUE):
            c2, e = FROBENIUS_BY_RESIDUE[r]
            gain = d - 2 * a if r == 1 and d > 2 * a else 0
            assert 2 * res.frobenius == a * a + 2 * a * d + c2 * a - 2 * e * d + 2 * gain, d


def test_maximal_classes_lie_in_the_window():
    # the maximality rule on every class, not only the window {1..q-1} | {a-T..a-1}
    # that pseudo_frobenius_set tests: no maximal class lies outside it.  The Apery
    # values come from the least-degree DP, which equals the closed form's degree
    least = least_degrees(5, 299)
    for a in range(11, 301):
        for d in range(1, 13):
            if gcd(a, d) != 1:
                continue
            seed = ArithmeticSeed(a, d)
            value = [least[n] * a + n * d for n in range(a)]
            steps = [(k * a + k * (k - 1) // 2 * d, k * (k - 1) // 2) for k in range(2, 6)]
            maximal = [n for n in range(1, a) if all(value[n] + g != value[(n + c) % a] for g, c in steps)]
            assert all(n < _Q or n >= a - _T for n in maximal), (a, d)
            assert tuple(sorted(value[n] - a for n in maximal)) == pseudo_frobenius_set(seed).pf, (a, d)


def test_closed_forms_match_oracle_on_grid():
    for a in range(11, 41):
        for d in (1, 2, 3, 7, 11):
            if gcd(a, d) != 1:
                continue
            seed = ArithmeticSeed(a, d)
            gens = partial_sum_generators(seed)
            res = pseudo_frobenius_set(seed)
            assert res.pf == pseudo_frobenius_oracle(gens), (a, d)
            assert res.frobenius == frobenius_oracle(gens), (a, d)
            assert res.frobenius == max(res.pf)
            assert res.frobenius in res.pf


@settings(max_examples=60, deadline=None)
@given(st.integers(11, 1500).flatmap(lambda a: st.tuples(st.just(a), st.integers(1, 40 * a))))
def test_closed_forms_match_oracle_at_random_large_d(seed_pair):
    a, d = seed_pair
    assume(gcd(a, d) == 1)
    seed = ArithmeticSeed(a, d)
    gens = partial_sum_generators(seed)
    assert apery_set_closed(seed) == set(apery_oracle(gens, a))
    assert pseudo_frobenius_set(seed).pf == pseudo_frobenius_oracle(gens)
    assert pseudo_frobenius_set(seed).frobenius == frobenius_oracle(gens)
