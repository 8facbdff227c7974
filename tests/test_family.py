"""Closed forms for the five-generator family, and the conjectural dim-6 data."""

import pickle
from functools import cache, reduce
from itertools import count
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apsum.family
import apsum.oracle
from apsum import (
    ArithmeticSeed,
    DomainError,
    apery_oracle,
    apery_records,
    apery_set_closed,
    canonical_expansion,
    element_order,
    is_minimal_generating,
    membership,
    minimality_check,
    order_oracle,
    partial_sum_generators,
    uniqueness_check,
)
from apsum.family import (
    _CLASSES,
    _Q,
    _T,
    AperyRecord,
    UniquenessReport,
    UniquenessViolation,
    _record,
    least_degrees,
)
from apsum.oracle import orders_up_to, validate_generators


def test_partial_sum_examples():
    assert partial_sum_generators(ArithmeticSeed(11, 2)) == (11, 24, 39, 56, 75)
    assert partial_sum_generators(ArithmeticSeed(7, 1)) == (7, 15, 24, 34, 45)


def test_non_coprime_seed_rejected():
    with pytest.raises(DomainError) as err:
        ArithmeticSeed(12, 2)
    assert err.value.code == "notCoprime"


@pytest.mark.parametrize(
    "a,d,m",
    [(1, 1, 5), (0, 1, 5), (5, 0, 5), (5, -1, 5), (11, 2, 5.0), (11.0, 2, 5), ("11", 2, 5)],
    ids=["1-1", "0-1", "5-0", "5--1", "11-2-5.0", "11.0-2", "str11-2"],
)
def test_seed_below_a2_or_d1_rejected(a, d, m):
    # a non-int a, d or m is refused as well: m = 5.0 would pass m == 5
    with pytest.raises(DomainError) as err:
        ArithmeticSeed(a, d, m)
    assert err.value.code == "invalidSeed"


@pytest.mark.parametrize("change,code", [({"d": 2}, "notCoprime"), ({"a": 1.5}, "invalidSeed")], ids=["d2", "a1.5"])
def test_seed_copies_are_checked(change, code):
    # namedtuple's own _make, which _replace calls, builds the tuple without __new__'s checks
    seed = ArithmeticSeed(12, 1)
    with pytest.raises(DomainError) as err:
        seed._replace(**change)
    assert err.value.code == code
    with pytest.raises(DomainError) as err:
        ArithmeticSeed._make({**seed._asdict(), **change}.values())
    assert err.value.code == code


def test_seed_is_an_immutable_named_tuple():
    seed = ArithmeticSeed(1000, 7)
    assert repr(seed) == "ArithmeticSeed(a=1000, d=7, m=5)"
    assert seed == (1000, 7, 5) and ArithmeticSeed._make((1000, 7)) == seed
    assert {seed: "key"}[ArithmeticSeed(1000, 7)] == "key"
    with pytest.raises(AttributeError):
        seed.a = 11
    with pytest.raises(AttributeError):
        seed.extra = 0  # no instance dict
    copy = pickle.loads(pickle.dumps(seed))
    assert type(copy) is ArithmeticSeed and copy == seed


@pytest.mark.parametrize(
    "n,expected",
    [
        (8, (2, 0, 1, 0)),
        (10, (0, 0, 0, 1)),
        (22, (0, 0, 2, 1)),  # digits (2, 0, 0, 2), rewritten
    ],
)
def test_radix_digit_examples(n, expected):
    assert canonical_expansion(n) == expected


def test_radix_round_trip():
    for n in range(10_001):
        c2, c3, c4, c5 = canonical_expansion(n)
        assert 10 * c5 + 6 * c4 + 3 * c3 + c2 == n
        if c4 >= 2:  # the rewrite of digits with c2 == 2 and c5 > 0
            c2, c4, c5 = 2, c4 - 2, c5 + 1
        # remainders after the 10-, 6- and 3-digits
        assert n - 10 * c5 <= 9 and 3 * c3 + c2 <= 5 and 0 <= c2 <= 2
        assert c3 <= 1 and c4 <= 1


@pytest.mark.parametrize("call", [canonical_expansion], ids=["canonical_expansion"])
def test_negative_index_rejected(call):
    for n in (-1, 7.5, "3", None):  # a negative or non-int index, never a raw TypeError
        with pytest.raises(DomainError) as err:
            call(n)
        assert err.value.code == "invalidElement", n


def _reference_expansion(n):
    # reference: the (10, 6, 3) mixed-radix form with its r1 == 2 rewrite
    q3, r3 = divmod(n, 10)
    q2, r2 = divmod(r3, 6)
    q1, r1 = divmod(r2, 3)
    if r1 == 2 and q3 > 0:
        return (0, q1, q2 + 2, q3 - 1)
    return (r1, q1, q2, q3)


def _reference_multiplier6(n):
    # reference: the (15, 10, 6, 3) mixed-radix form with the literal rebate sets
    s4, t4 = divmod(n, 15)
    s3, t3 = divmod(t4, 10)
    s2, t2 = divmod(t3, 6)
    s1, t1 = divmod(t2, 3)
    base = 2 * t1 + 3 * s1 + 4 * s2 + 5 * s3 + 6 * s4
    if n >= 20 and (n - 20) % 15 == 0:
        return base - 3
    if n == 12 or any(n >= b and (n - b) % 15 == 0 for b in (20, 23, 27)):
        return base - 1
    return base


def test_triangular_forms_match_the_mixed_radix_references():
    least6 = least_degrees(6, 19_999)
    for n in range(20_000):
        assert canonical_expansion(n) == _reference_expansion(n), n
        assert least6[n] == _reference_multiplier6(n), n


def test_least_degrees_five_is_the_canonical_degree():
    # Both sides gain 5 when n grows by 10.  From n = 10 on, the mixed-radix reference gains
    # one generator 5 and keeps its rewrite case.  The DP does from n = 9 on: each entry reads
    # entries at most 10 back, so the step checked on n = 9..28 carries to every later n.
    # Agreement on n < 20 therefore holds for every n; the range below covers both.
    least5 = least_degrees(5, 19_999)
    for n in range(20_000):
        assert least5[n] == sum(map(mul, _reference_expansion(n), count(2))), n


@pytest.mark.parametrize("m, top, code", [
    (1, 10, "invalidSeed"),  # would list n copies of a generator 2 that m = 1 lacks
    (0, 10, "invalidSeed"),
    (5.0, 10, "invalidSeed"),
    ("5", 10, "invalidSeed"),
    (5, -3, "invalidElement"),  # would be an empty list
    (5, 10.0, "invalidElement"),
    (5, None, "invalidElement"),
])
def test_least_degrees_refuses_what_it_cannot_answer(m, top, code):
    with pytest.raises(DomainError) as err:
        least_degrees(m, top)
    assert err.value.code == code


def test_least_degrees_smallest_answers():
    assert least_degrees(2, 0) == [0]
    assert least_degrees(2, 3) == [0, 2, 4, 6]


def test_class_rule_at_five_is_pinned():
    # T = C(5, 2) = 10 and q = 9, the least start of the T-window identity; the identity
    # holds on least_degrees(5, q + 2T), and each of the q + T table classes is the
    # mixed-radix reference with its degree and order
    T, q = _T, _Q
    assert (T, q, len(_CLASSES)) == (10, 9, q + T)
    least = least_degrees(5, q + 2 * T)
    assert all(least[n + T] == least[n] + 5 for n in range(q, len(least) - T))
    assert all(any(least[n + T] != least[n] + 5 for n in range(p, p + T)) for p in range(q))
    for n, entry in enumerate(_CLASSES):
        exp = _reference_expansion(n)
        assert entry == (sum(map(mul, exp, count(2))), sum(exp), exp), n


@pytest.mark.parametrize(
    "n,seed,expected",
    [
        (8, ArithmeticSeed(11, 2), (8, 104, 93)),
        (10, ArithmeticSeed(11, 2), (5, 75, 64)),
        (22, ArithmeticSeed(23, 1), (13, 321, 298)),
    ],
)
def test_apery_value_examples(n, seed, expected):
    vals = apery_records(seed)[n - 1]
    assert (vals.multiplier, vals.value, vals.gap) == expected


@pytest.mark.parametrize(
    "seed,code",
    [
        (ArithmeticSeed(17, 2, 6), "closedFormUnavailable"),
        (ArithmeticSeed(7, 1), "belowMinimalityThreshold"),
    ],
)
def test_apery_values_outside_closed_form(seed, code):
    with pytest.raises(DomainError) as err:
        apery_records(seed)
    assert err.value.code == code
    with pytest.raises(DomainError) as err:
        element_order(seed, 24)
    assert err.value.code == code


def test_apery_set_golden_example():
    assert apery_set_closed(ArithmeticSeed(11, 2)) == {0, 24, 48, 39, 63, 87, 56, 80, 104, 95, 75}


def test_apery_records_expansions():
    records = {r.n: r for r in apery_records(ArithmeticSeed(11, 2))}
    assert records[8].expansion == (2, 0, 1, 0)  # 2*24 + 56 = 104
    assert records[8].order == 3
    rec23 = {r.n: r for r in apery_records(ArithmeticSeed(23, 1))}
    assert rec23[12].expansion == (0, 0, 2, 0)  # rewrite branch: 2 * 98 = 196
    assert rec23[12].value == 196


def test_apery_records_below_threshold():
    with pytest.raises(DomainError) as err:
        apery_records(ArithmeticSeed(10, 3))
    assert err.value.code == "belowMinimalityThreshold"


def test_apery_records_follow_the_order_rule_class_for_class():
    # the records filled along the period must equal _record's class for class,
    # in every field and in hash; the next test holds _record to _reference_expansion
    seeds = [(a, d) for a in range(11, 401) for d in (1, 7, 40 * a - 1) if gcd(a, d) == 1]
    seeds += [(a, 7) for a in (999, 1000, 3001)]
    for a, d in seeds:
        got = apery_records(ArithmeticSeed(a, d))
        expected = [_record(a, d, n) for n in range(1, a)]
        assert got == expected, (a, d)
        assert list(map(hash, got)) == list(map(hash, expected)), (a, d)


@pytest.mark.parametrize("a,d", [(11, 2), (347, 7), (1000, 39999)])
def test_record_reads_the_canonical_expansion_of_every_class(a, d):
    # _record reads the class table and the period; the mixed-radix reference expands each class
    for n in range(20_000):
        exp = _reference_expansion(n)
        mult = sum(k * c for k, c in zip((2, 3, 4, 5), exp))
        value = mult * a + n * d
        assert _record(a, d, n) == (n, mult, value, value - a, sum(exp), exp), n


@pytest.mark.parametrize("a", [347, 1000])
def test_apery_record_fields_are_exact_ints(a):
    for rec in apery_records(ArithmeticSeed(a, 7)):
        assert all(type(x) is int for x in rec[:5]), rec
        assert type(rec.expansion) is tuple and len(rec.expansion) == 4, rec
        assert all(type(c) is int for c in rec.expansion), rec


@pytest.mark.parametrize("n", [1, 12, 19, 20, 22, 332])
def test_apery_record_is_an_immutable_named_tuple(n):
    # class 1 comes from _record, 12 and 19 start their residue's progression, 20, 22 and 332 lie along it
    rec = apery_records(ArithmeticSeed(347, 7))[n - 1]
    plain = AperyRecord(*rec)
    assert type(rec) is AperyRecord
    assert list(rec._asdict()) == ["n", "multiplier", "value", "gap", "order", "expansion"]  # the apery CSV header
    assert rec == plain and hash(rec) == hash(plain) and repr(rec) == repr(plain)
    with pytest.raises(AttributeError):
        rec.value = 0
    with pytest.raises(AttributeError):
        del rec.order
    moved = rec._replace(value=rec.value + 1)
    assert type(moved) is AperyRecord and moved != rec
    assert moved._asdict() == {**rec._asdict(), "value": rec.value + 1}
    assert moved._replace(value=rec.value) == rec


def test_expansion_value_and_order_identities():
    for a, d in ((11, 2), (12, 5), (19, 3), (23, 1), (31, 4)):
        seed = ArithmeticSeed(a, d)
        gens = partial_sum_generators(seed)
        for rec in apery_records(seed):
            value = sum(c * g for c, g in zip(rec.expansion, gens[1:]))
            assert value == rec.value
            assert order_oracle(rec.value, gens) == rec.order


def _order_or_code(seed, v):
    try:
        return element_order(seed, v)
    except DomainError as err:
        return err.code


@pytest.mark.parametrize("a", range(11, 30))
def test_element_order_matches_the_order_sieve(a):
    # against the oracle's order sieve: for d <= 7 and d = a - 1 every v up to max Ap + 3a,
    # members and gaps; for d = 40a - 1, whose sieve runs to ~30a^2, in each class the Apery
    # element w, the three members above it and the three gaps below it
    for d in (*range(1, 8), a - 1, 40 * a - 1):
        if gcd(a, d) != 1:
            continue
        seed = ArithmeticSeed(a, d)
        apery = apery_set_closed(seed)
        orders = orders_up_to(partial_sum_generators(seed), max(apery) + 3 * a)
        if d == 40 * a - 1:
            values = [w + k * a for w in apery for k in range(-3, 4) if w + k * a >= 0]
        else:
            values = range(len(orders))
        expected = [orders[v] if orders[v] >= 0 else "notMember" for v in values]
        assert [_order_or_code(seed, v) for v in values] == expected, (a, d)


@pytest.mark.parametrize("v", [-1, -10**20, 1, 82, 93, 7.5])
def test_element_order_refuses_like_the_oracle(v):
    seed = ArithmeticSeed(11, 2)
    with pytest.raises(DomainError) as closed:
        element_order(seed, v)
    with pytest.raises(DomainError) as oracle:
        order_oracle(v, partial_sum_generators(seed))
    assert (closed.value.code, str(closed.value)) == (oracle.value.code, str(oracle.value))


def test_closed_apery_matches_oracle_on_grid():
    for a in range(11, 41):
        for d in (1, 2, 3, 5, 9):
            if gcd(a, d) != 1:
                continue
            seed = ArithmeticSeed(a, d)
            gens = partial_sum_generators(seed)
            assert apery_set_closed(seed) == set(apery_oracle(gens, a))


def test_minimality_examples():
    for d in (1, 2, 5, 12):
        assert minimality_check(ArithmeticSeed(11, d))
    assert not minimality_check(ArithmeticSeed(10, 3))
    assert not is_minimal_generating(partial_sum_generators(ArithmeticSeed(10, 3)))  # 80 = 8 * 10


def test_minimality_closed_form_agrees_with_oracle():
    # a on both sides of C(m, 2); d small, prime, and either side of 40a
    seeds = [ArithmeticSeed(a, d, m)
             for m in range(2, 11) for a in range(2, m * (m - 1) // 2 + 8)
             for d in [*range(1, 30), 97, 40 * a - 1, 40 * a + 1] if gcd(a, d) == 1]
    assert len(seeds) == 4_599
    for seed in seeds:
        assert minimality_check(seed) == is_minimal_generating(partial_sum_generators(seed)), seed


def test_uniqueness_examples():
    gens = partial_sum_generators(ArithmeticSeed(11, 2))
    assert uniqueness_check(gens, 11).all_unique
    gens13 = partial_sum_generators(ArithmeticSeed(13, 1))
    assert uniqueness_check(gens13, 13).all_unique
    report = uniqueness_check((4, 6, 7), 4)
    assert report.all_unique  # expansions over {6, 7}: 0, 6, 7, 13 each have one
    assert report.violations == ()


def test_uniqueness_reports_violations_with_witnesses():
    # 12 = 4+4+4 = 6+6 over {4, 6}; base 5 keeps 12 in the Apery set
    report = uniqueness_check((4, 5, 6), 5)
    assert not report.all_unique
    violation = {v.value: v for v in report.violations}[12]
    assert violation.count == 2
    assert set(violation.expansions) == {(3, 0), (0, 2)}
    for v in report.violations:
        assert v.count == len(v.expansions) > 1


def representation_counts(gens, limit):
    """Number of distinct coefficient vectors on gens summing to each of 0..limit."""
    counts = [0] * (limit + 1)
    counts[0] = 1
    for g in gens:
        for v in range(g, limit + 1):
            counts[v] += counts[v - g]
    return counts


def representations(value, gens):
    """All coefficient vectors on gens summing to value, lexicographic order.

    Each coefficient is bounded by value // generator, so the search is a
    complete enumeration.
    """
    out = []
    coeffs = [0] * len(gens)

    def rec(i, remaining):
        if i == len(gens):
            if remaining == 0:
                out.append(tuple(coeffs))
            return
        g = gens[i]
        for k in range(remaining // g + 1):
            coeffs[i] = k
            rec(i + 1, remaining - k * g)
        coeffs[i] = 0

    rec(0, value)
    return out


@cache
def reference_uniqueness(gens, c):
    """Reference report: the knapsack over every integer up to max Apery,
    plus full enumeration of the witnesses of each violated value."""
    g = validate_generators(gens)
    ap = apery_oracle(g, c)
    expansion_gens = tuple(x for x in g if x != c)
    counts = representation_counts(expansion_gens, max(ap))
    violations = tuple(
        UniquenessViolation(w, counts[w], tuple(representations(w, expansion_gens)))
        for w in sorted(ap)
        if counts[w] != 1
    )
    return UniquenessReport(not violations, violations)


@st.composite
def generators_and_generator_base(draw):
    """1-6 strictly increasing gcd-1 generators and one of them as base."""
    gens = tuple(sorted(draw(st.sets(st.integers(1, 60), min_size=1, max_size=6))))
    if reduce(gcd, gens) != 1:
        gens = tuple(sorted(set(gens[:5]) | {draw(st.sampled_from((1, 61, 67)))}))
    return gens, draw(st.sampled_from(gens))


@settings(max_examples=150, deadline=None)
@given(generators_and_generator_base())
def test_uniqueness_check_matches_reference_on_random_generators(case):
    gens, c = case
    assert uniqueness_check(gens, c) == reference_uniqueness(gens, c)


# violations with their witnesses at m = 7 and 8, plus clean and violated
# partial-sum seeds at m = 5..8
VIOLATION_SEEDS = [(7, 34, 1), (7, 200, 3), (8, 200, 1)]
PARTIAL_SUM_SEEDS = VIOLATION_SEEDS + [
    (m, a, d) for m in (5, 6, 7, 8) for a, d in ((16, 1), (23, 4), (40, 7), (61, 2), (97, 5), (150, 7))
]


@pytest.mark.parametrize("m,a,d", PARTIAL_SUM_SEEDS)
def test_uniqueness_check_matches_reference_on_partial_sums(m, a, d):
    gens = partial_sum_generators(ArithmeticSeed(a, d, m))
    report = uniqueness_check(gens, a)
    assert report == reference_uniqueness(gens, a)
    if (m, a, d) in VIOLATION_SEEDS:
        assert report.violations
    for v in report.violations:
        assert v.count == len(v.expansions) > 1
        for e in v.expansions:
            assert sum(map(mul, e, gens[1:])) == v.value


def test_uniqueness_check_needs_no_integer_range_knapsack(monkeypatch):
    gens = partial_sum_generators(ArithmeticSeed(200, 3, 7))
    expected = reference_uniqueness(gens, 200)
    assert len(expected.violations) == 16

    def refuse(*args):
        raise AssertionError("uniqueness_check ran a knapsack over the integer range")

    for module in (apsum, apsum.oracle, apsum.family):
        for name in ("representation_counts", "representations"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    assert uniqueness_check(gens, 200) == expected


def test_unique_balanced_solution_brute_force():
    # the only nonzero (c1, c2, c3, c4) with c1 >= -2, c2 >= -1, c4 >= 0,
    # c1 + 3 c2 + 6 c3 = 10 c4 and 4 c1 + 3 c2 + 5 c4 <= 0
    hits = []
    for c1 in range(-2, 21):
        for c2 in range(-1, 21):
            for c4 in range(0, 7):
                rem = 10 * c4 - c1 - 3 * c2
                if rem % 6:
                    continue
                c3 = rem // 6
                if (c1, c2, c3, c4) == (0, 0, 0, 0):
                    continue
                if 4 * c1 + 3 * c2 + 5 * c4 <= 0:
                    hits.append((c1, c2, c3, c4))
    assert hits == [(-2, 0, 2, 1)]


# ----------------------------------------------------------------------
# six-generator conjectural formula
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n,expected", [(1, 2), (12, 8), (20, 10)])
def test_multiplier6_examples(n, expected):
    assert least_degrees(6, n)[n] == expected


def test_multiplier6_values_are_representable():
    # conjectured class values must at least be members
    seed = ArithmeticSeed(17, 2, 6)
    gens = partial_sum_generators(seed)
    least6 = least_degrees(6, 16)
    for n in (1, 12, 16):
        value = least6[n] * seed.a + n * seed.d
        assert membership(value, gens)
