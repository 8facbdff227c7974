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
    frobenius_number,
    frobenius_oracle,
    partial_sum_generators,
    pseudo_frobenius_oracle,
    pseudo_frobenius_set,
    semigroup_type,
)


def test_small_a_example():
    res = pseudo_frobenius_set(ArithmeticSeed(11, 2))
    assert set(res.pf) == {84, 64, 76, 93}  # gaps at indices 9, 10, 5, 8
    assert res.type_count == 4
    assert res.frobenius == 93
    assert res.source_path == "smallA"


def test_residue3_example():
    # offsets {1,2,4,5,6,8,9} below a, plus the fixed classes 5 and 8
    res = pseudo_frobenius_set(ArithmeticSeed(23, 1))
    assert res.type_count == 9
    assert res.source_path == "largeA"
    assert res.pf == pseudo_frobenius_oracle(partial_sum_generators(ArithmeticSeed(23, 1)))


def test_residue6_type():
    assert semigroup_type(ArithmeticSeed(26, 1)) == 6  # four offsets plus two fixed


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
    assert frobenius_number(ArithmeticSeed(a, d)) == expected


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
        assert frobenius_number(seed) == frobenius_oracle(partial_sum_generators(seed))


def test_closed_forms_match_oracle_on_grid():
    for a in range(11, 41):
        for d in (1, 2, 3, 7, 11):
            if gcd(a, d) != 1:
                continue
            seed = ArithmeticSeed(a, d)
            gens = partial_sum_generators(seed)
            res = pseudo_frobenius_set(seed)
            assert res.pf == pseudo_frobenius_oracle(gens), (a, d)
            assert frobenius_number(seed) == frobenius_oracle(gens), (a, d)
            assert res.frobenius == max(res.pf)
            assert frobenius_number(seed) in res.pf


@settings(max_examples=60, deadline=None)
@given(st.integers(11, 1500).flatmap(lambda a: st.tuples(st.just(a), st.integers(1, 40 * a))))
def test_closed_forms_match_oracle_at_random_large_d(seed_pair):
    a, d = seed_pair
    assume(gcd(a, d) == 1)
    seed = ArithmeticSeed(a, d)
    gens = partial_sum_generators(seed)
    assert apery_set_closed(seed) == set(apery_oracle(gens, a))
    assert pseudo_frobenius_set(seed).pf == pseudo_frobenius_oracle(gens)
    assert frobenius_number(seed) == frobenius_oracle(gens)
