"""Brute-force engine: worked examples plus structural properties."""

from functools import reduce
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apsum import (
    ArithmeticSeed,
    DomainError,
    apery_oracle,
    frobenius_oracle,
    is_minimal_generating,
    membership,
    order_oracle,
    partial_sum_generators,
    pseudo_frobenius_oracle,
    validate_generators,
)
from apsum.oracle import membership_mask

GENS_11_2 = (11, 24, 39, 56, 75)
GENS_23_1 = (23, 47, 72, 98, 125)


def test_partial_sums_match_known_generators():
    assert partial_sum_generators(ArithmeticSeed(11, 2)) == GENS_11_2
    assert partial_sum_generators(ArithmeticSeed(23, 1)) == GENS_23_1


# (-1, 2) is increasing with gcd 1: only the positivity check refuses it;
# (3.9, 5) and ("3", "5") are refused, not truncated or parsed to <3, 5>
@pytest.mark.parametrize("bad", [(), (0, 3), (3, 3), (4, 2), (2, 4), (-1, 2), (3.9, 5), ("3", "5")])
def test_generator_validation_rejects(bad):
    with pytest.raises(DomainError) as err:
        validate_generators(bad)
    assert err.value.code == "invalidGenerators"


@pytest.mark.parametrize("call, code", [
    (lambda: membership(7.5, (3, 5)), "invalidElement"),
    (lambda: order_oracle(8.0, (3, 5)), "invalidElement"),
    (lambda: apery_oracle((3, 5), 3.0), "aperyBaseNotInSemigroup"),
])
def test_non_integer_element_or_base_is_a_coded_error(call, code):
    with pytest.raises(DomainError) as err:
        call()
    assert err.value.code == code


def test_membership_examples():
    assert membership(0, GENS_11_2)
    assert membership(75, GENS_11_2)
    assert not membership(93, GENS_11_2)  # the Frobenius number of this semigroup


def test_apery_oracle_examples():
    assert set(apery_oracle(GENS_11_2, 11)) == {0, 24, 48, 39, 63, 87, 56, 80, 104, 95, 75}
    assert apery_oracle((1,), 1) == [0]
    by_residue = apery_oracle(GENS_23_1, 23)
    assert by_residue[22] == 321  # least member congruent to 22, equals 13*23 + 22


def test_apery_oracle_rejects_non_member_base():
    with pytest.raises(DomainError) as err:
        apery_oracle(GENS_11_2, 10)
    assert err.value.code == "aperyBaseNotInSemigroup"


def test_frobenius_oracle_examples():
    assert frobenius_oracle((2, 3)) == 1
    assert frobenius_oracle(GENS_11_2) == 93
    assert frobenius_oracle(GENS_23_1) == 298
    assert frobenius_oracle((1,)) == -1


def test_order_oracle_examples():
    assert order_oracle(0, GENS_11_2) == 0
    assert order_oracle(104, GENS_11_2) == 3  # 104 = 2*24 + 56
    assert order_oracle(75, GENS_11_2) == 1  # a generator with no other factorization


def test_order_oracle_rejects_non_member():
    with pytest.raises(DomainError) as err:
        order_oracle(93, GENS_11_2)
    assert err.value.code == "notMember"


@pytest.mark.parametrize("query", [membership, order_oracle])
def test_negative_element_rejected(query):
    with pytest.raises(DomainError) as err:
        query(-1, GENS_11_2)
    assert err.value.code == "invalidElement"


def test_single_generator_one_is_minimal():
    assert is_minimal_generating((1,)) is True


def test_pseudo_frobenius_oracle_examples():
    assert pseudo_frobenius_oracle((2, 3)) == (1,)
    assert pseudo_frobenius_oracle(GENS_11_2) == (64, 76, 84, 93)
    # a = 23: seven maximal classes at the top end plus classes 5 and 8
    assert len(pseudo_frobenius_oracle(GENS_23_1)) == 9


def test_minimal_generating_examples():
    assert is_minimal_generating(GENS_11_2)
    assert not is_minimal_generating((10, 23, 39, 58, 80))  # 80 = 8 * 10


ORACLE_GRID = [(a, d) for a in (11, 14, 23, 30, 41) for d in (1, 3, 7) if a % d or d == 1]


@pytest.mark.parametrize("a,d", ORACLE_GRID)
def test_apery_covers_every_residue_once(a, d):
    from math import gcd

    if gcd(a, d) != 1:
        pytest.skip("non-coprime")
    gens = partial_sum_generators(ArithmeticSeed(a, d))
    ap = apery_oracle(gens, a)
    assert len(ap) == a
    assert sorted(v % a for v in ap) == list(range(a))
    for v in ap:
        if v:
            assert not membership(v - a, gens)


def test_frobenius_is_max_apery_minus_multiplicity():
    for gens in (GENS_11_2, GENS_23_1, (2, 3), (4, 6, 7)):
        assert frobenius_oracle(gens) == max(apery_oracle(gens, gens[0])) - gens[0]


def test_order_superadditive_on_sample():
    gens = GENS_11_2
    frob = frobenius_oracle(gens)
    members = [v for v in range(1, 3 * frob) if membership(v, gens)]
    sample = members[::7]
    for x in sample:
        for y in sample:
            if x + y <= 3 * frob:
                assert order_oracle(x + y, gens) >= order_oracle(x, gens) + order_oracle(y, gens)


def test_order_steps_up_with_multiplicity():
    # adding the multiplicity raises the order by at least one
    gens = GENS_11_2
    for w in apery_oracle(gens, 11):
        base = order_oracle(w, gens) if w else 0
        for k in range(5):
            nxt = order_oracle(w + (k + 1) * 11, gens)
            assert nxt >= base + 1
            base = nxt


def test_pf_elements_are_gaps_that_every_generator_fills():
    for seed in (ArithmeticSeed(11, 2), ArithmeticSeed(23, 1), ArithmeticSeed(56, 5)):
        gens = partial_sum_generators(seed)
        for x in pseudo_frobenius_oracle(gens):
            assert not membership(x, gens)
            for g in gens:
                assert membership(x + g, gens)


# ----------------------------------------------------------------------
# differential check against the limit-doubling membership sieve
# ----------------------------------------------------------------------

def sieve_apery(gens, c):
    """Reference Apery set: sieve members up to a limit, doubling it until
    every residue class mod c has a member, and take the least in each."""
    g = validate_generators(gens)
    if c <= 0 or not (membership_mask(g, c) >> c & 1):
        raise DomainError("aperyBaseNotInSemigroup", f"{c} is not a nonzero semigroup element")
    limit = 4 * max(c, g[-1])
    while True:
        mask = membership_mask(g, limit)
        out = [0] * c
        for res in range(1, c):
            v = res
            while v <= limit and not (mask >> v & 1):
                v += c
            if v > limit:
                break
            out[res] = v
        else:
            return out
        limit *= 2


def sieve_pseudo_frobenius(gens):
    """Reference PF set: Apery elements maximal under w <= w' iff w' - w is a
    member (tested on the sieve), shifted down by the multiplicity."""
    g = validate_generators(gens)
    ap = sieve_apery(g, g[0])
    mask = membership_mask(g, max(ap) + 1)
    return tuple(sorted(
        w - g[0] for w in ap
        if not any(x != w and x >= w and (mask >> (x - w) & 1) for x in ap)
    ))


@st.composite
def generators_and_base(draw):
    """Strictly increasing gcd-1 generators and a nonzero member c of their
    semigroup: a generator, a sum of two, or a multiple of one."""
    gens = tuple(sorted(draw(st.sets(st.integers(1, 40), min_size=1, max_size=5))))
    if reduce(gcd, gens) != 1:
        gens = tuple(sorted(set(gens) | {draw(st.sampled_from((1, 41, 43)))}))
    x, y = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
    c = draw(st.sampled_from((x, x + y, 3 * x)))
    return gens, c


@settings(max_examples=100, deadline=None)
@given(generators_and_base())
def test_apery_oracle_matches_sieve_on_random_generators(case):
    gens, c = case
    assert apery_oracle(gens, c) == sieve_apery(gens, c)


@settings(max_examples=60, deadline=None)
@given(generators_and_base())
def test_pseudo_frobenius_oracle_matches_sieve_on_random_generators(case):
    gens, _ = case
    assert pseudo_frobenius_oracle(gens) == sieve_pseudo_frobenius(gens)


def per_element_pseudo_frobenius(gens):
    """The maximality rule tested one Apery element at a time: w is kept when
    w + x is no class's Apery entry for every generator x past the first."""
    g = validate_generators(gens)
    a = g[0]
    ap = apery_oracle(g, a)
    return tuple(sorted(w - a for w in ap if all(ap[(w + x) % a] != w + x for x in g[1:])))


@st.composite
def two_to_seven_generators(draw):
    """2-7 strictly increasing gcd-1 generators, any values, not only partial sums."""
    gens = draw(st.sets(st.integers(2, 90), min_size=2, max_size=7))
    if reduce(gcd, gens) != 1:
        gens = set(sorted(gens)[:6]) | {draw(st.sampled_from((89, 97, 101)))}
    return tuple(sorted(gens))


@settings(max_examples=200, deadline=None)
@given(two_to_seven_generators())
def test_pseudo_frobenius_set_form_matches_per_element_rule(gens):
    assert pseudo_frobenius_oracle(gens) == per_element_pseudo_frobenius(gens)


@pytest.mark.parametrize("m", [5, 6])
def test_pseudo_frobenius_set_form_matches_per_element_rule_on_the_family(m):
    for a in range(2, 120):
        for d in (1, 2, 3, 7, 40 * a - 1):
            if gcd(a, d) == 1:
                gens = partial_sum_generators(ArithmeticSeed(a, d, m))
                assert pseudo_frobenius_oracle(gens) == per_element_pseudo_frobenius(gens), (m, a, d)


SIEVE_CASES = [
    # partial sums with a base that is a member but not the multiplicity
    (GENS_11_2, GENS_11_2[1]),
    (GENS_11_2, GENS_11_2[0] + GENS_11_2[1]),
    (GENS_23_1, GENS_23_1[1]),
    (GENS_23_1, GENS_23_1[0] + GENS_23_1[1]),
    (partial_sum_generators(ArithmeticSeed(16, 3, 6)), 16 + 35),
    # gcd(c, x mod c) > 1: 9 and 20 split the residues mod 6 (and mod 12)
    # into several cycles
    ((6, 9, 20), 6),
    ((6, 9, 20), 12),
    ((10, 15, 24, 33), 10),
    ((10, 15, 24, 33), 30),
    # a generator that is a multiple of the base is never a step
    ((4, 6, 8, 9), 4),
    ((3, 7, 9, 12), 3),
    ((5, 7, 10, 15, 21), 5),
]


@pytest.mark.parametrize("gens,c", SIEVE_CASES)
def test_apery_oracle_matches_sieve_on_chosen_bases(gens, c):
    assert apery_oracle(gens, c) == sieve_apery(gens, c)
    assert pseudo_frobenius_oracle(gens) == sieve_pseudo_frobenius(gens)


def all_pairs_pseudo_frobenius(gens):
    """Reference PF set: Apery elements not below any other under
    w <= w' iff w' - w is a member, by scanning every pair."""
    g = validate_generators(gens)
    a = g[0]
    ap = apery_oracle(g, a)
    return tuple(sorted(
        w - a for w in ap
        if not any(x > w and x - w >= ap[(x - w) % a] for x in ap)
    ))


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 7), st.integers(2, 300).flatmap(
    lambda a: st.tuples(st.just(a), st.integers(1, 3 * a))))
def test_pseudo_frobenius_oracle_matches_all_pairs_scan_on_partial_sums(m, seed_pair):
    a, d = seed_pair
    assume(gcd(a, d) == 1)
    gens = partial_sum_generators(ArithmeticSeed(a, d, m))
    assert pseudo_frobenius_oracle(gens) == all_pairs_pseudo_frobenius(gens)
