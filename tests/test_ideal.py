"""Catalogs, the Buchberger engine, standard monomials, dimension checks."""

import hashlib
import json
import pickle
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apsum import (
    INFINITE,
    ArithmeticSeed,
    BinomialGenerator,
    DomainError,
    buchberger,
    catalog_to_json,
    gastinger_verify,
    generator_catalog,
    homogeneity_check,
    membership,
    partial_sum_generators,
    quotient_basis,
)
from apsum.ideal import _dimension, _quotient_polys, _staircase, binomial, grevlex_key, reduce_poly, residue_family


def labels(catalog):
    return [b.label for b in catalog]


def quotient_dimension(catalog):
    """dim_k of k[x1..x5] / (catalog + (x1)): standard monomial count in x2..x5."""
    return _dimension(_quotient_polys(catalog))


def staircase_count(basis):
    """Standard monomial count of a monomial ideal: its staircase runs summed, as _dimension does."""
    runs = _staircase(basis)
    return INFINITE if runs is None else sum(n for _, n in runs)


def staircase_monomials(basis):
    """Standard monomials of a monomial ideal: its staircase runs expanded, as quotient_basis does."""
    runs = _staircase(basis)
    return None if runs is None else [prefix + (v,) for prefix, n in runs for v in range(n)]


def test_catalog_23_1():
    catalog = generator_catalog(ArithmeticSeed(23, 1))
    assert len(catalog) == 12
    assert labels(catalog) == ["g1", "g2", "g3", "g4", "g5", "g6", "g7",
                               "h31", "h32", "h33", "h34", "h35"]


def test_catalog_11_2():
    catalog = generator_catalog(ArithmeticSeed(11, 2))
    assert len(catalog) == 8
    by_label = {b.label: b for b in catalog}
    assert set(by_label) == {"p11", "p12", "p13", "p14", "g3", "g5", "g6", "extra"}
    # the closing generator ties x2^3 x3^2 to x5^2
    assert by_label["extra"].lhs == (0, 3, 2, 0, 0)
    assert by_label["extra"].rhs == (0, 0, 0, 0, 2)


def test_catalog_21_variants():
    strict = generator_catalog(ArithmeticSeed(21, 1), strict_21=True)
    assert labels(strict) == ["h12", "h13", "h14", "h15", "extra"]
    full = generator_catalog(ArithmeticSeed(21, 1))
    assert labels(full)[:7] == ["g1", "g2", "g3", "g4", "g5", "g6", "g7"]
    assert len(full) == 12


# sha256 of the catalogs in test_catalog_pin: it pins labels, order and
# exponents, which the dimension gates do not see
CATALOG_PIN = "6baf15ee37abd9db5056bb82dbd97f768a781eaf25ccbfb539ff5f6941b84ed6"


def test_catalog_pin():
    # every repair threshold (closing generators, the a = 21 variants) lies below d = 8
    entries = []
    for a in range(11, 61):
        for d in range(1, 46):
            if gcd(a, d) != 1:
                continue
            for strict in (False, True) if a == 21 else (False,):
                catalog = generator_catalog(ArithmeticSeed(a, d), strict_21=strict)
                entries.append([a, d, strict, catalog_to_json(catalog)])
    assert len(entries) == 1406
    blob = json.dumps(entries, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == CATALOG_PIN


def test_catalog_homogeneous_everywhere():
    for a in range(11, 45):
        for d in (1, 2, 3, 7):
            if gcd(a, d) != 1:
                continue
            seed = ArithmeticSeed(a, d)
            catalog = generator_catalog(seed)
            assert homogeneity_check(catalog, seed), (a, d)


def test_catalog_monomials_have_member_weights():
    # both sides of each binomial carry a weight the semigroup contains
    for a, d in ((11, 2), (14, 1), (23, 1), (21, 2)):
        seed = ArithmeticSeed(a, d)
        gens = partial_sum_generators(seed)
        for b in generator_catalog(seed):
            weight = sum(e * g for e, g in zip(b.lhs, gens))
            assert membership(weight, gens)


def test_homogeneity_rejects_wrong_residue():
    # the residue-0 generators only balance when a is the full 10q
    seed = ArithmeticSeed(23, 1)  # q = 2
    lhs, rhs = residue_family(20, 1)["h01"]
    assert not homogeneity_check([BinomialGenerator("h01", lhs, rhs)], seed)


def test_strict_21_changes_only_the_a21_variants():
    differs = [(a, d) for a in range(11, 201) for d in range(1, 21) if gcd(a, d) == 1
               and generator_catalog(ArithmeticSeed(a, d), strict_21=True)
               != generator_catalog(ArithmeticSeed(a, d))]
    assert differs == [(21, 1), (21, 2)]


def test_verify_builds_a_second_catalog_only_at_the_a21_variants(monkeypatch):
    # the verifier reads the strict variant off the catalog it has built, so
    # every other seed builds one catalog and reports no adjudication
    calls = []

    def recording(seed, strict_21=False):
        calls.append(strict_21)
        return generator_catalog(seed, strict_21)

    monkeypatch.setattr("apsum.ideal.generator_catalog", recording)
    adjudicated = []
    for a in range(11, 41):
        for d in range(1, 11):
            if gcd(a, d) != 1:
                continue
            calls.clear()
            report = gastinger_verify(ArithmeticSeed(a, d))
            assert calls.count(False) == 1, (a, d)
            if True in calls:
                adjudicated.append((a, d))
                assert report.variant == "withCore"
                assert list(report.adjudication) == ["strict", "withCore", "selected"]
            else:
                assert report.variant is None and report.adjudication is None, (a, d)
    assert adjudicated == [(21, 1), (21, 2)]


def test_first_entry_stays_in_place_at_15_to_18():
    # at q = 1 the first entry's x1 exponent is d - 10 + 2r, >= d for r >= 5,
    # so it is never negative there and only a <= 14 moves the entry
    for a in range(15, 19):
        for d in range(1, 120):
            if gcd(a, d) == 1:
                lhs, _ = next(iter(residue_family(a, d).values()))
                assert lhs[0] >= d, (a, d)
                assert "extra" not in labels(generator_catalog(ArithmeticSeed(a, d))), (a, d)


def test_h11_degenerates_at_excluded_seeds():
    lhs, _ = residue_family(21, 1)["h11"]  # d = 1
    assert min(lhs) < 0  # 5q + d - 13 = -2: why (21, 1) is dispatched specially


def test_catalog_g_homogeneity_identities():
    seed = ArithmeticSeed(19, 4)
    gens = partial_sum_generators(seed)
    by_label = {b.label: b for b in generator_catalog(seed)}
    g1 = by_label["g1"]
    assert sum(e * g for e, g in zip(g1.lhs, gens)) == 16 * seed.a + 24 * seed.d
    g6 = by_label["g6"]
    assert sum(e * g for e, g in zip(g6.lhs, gens)) == 6 * seed.a + 3 * seed.d


@pytest.mark.parametrize("lhs,rhs", [
    ((1, 0, 0, 0), (0, 1, 0, 0, 0)),  # a 4-entry side
    ((1, 0, 0, 0, 0), (0, 1, 0, 0)),
    ((1, 0, 2, 0, 0), (1, 0, 2, 0, 0)),  # equal sides
    ((0, -1, 0, 0, 0), (0, 0, 0, 0, 1)),  # a negative exponent
    ((0, 0, 0, 0, 1), (0, 0, 0, 0, -2)),
    ((0.5, 0, 0, 0, 0), (0, 1, 0, 0, 0)),  # a non-int exponent
    ((1, 0, 0, 0, 0), (0, 1, 0, "1", 0)),
])
def test_binomial_generator_rejects_malformed_sides(lhs, rhs):
    with pytest.raises(DomainError) as err:
        BinomialGenerator("g", lhs, rhs)
    assert err.value.code == "invalidGenerator"


def test_catalog_entry_is_an_immutable_checked_named_tuple():
    entry = generator_catalog(ArithmeticSeed(23, 1))[0]
    copy = pickle.loads(pickle.dumps(entry))
    assert type(copy) is BinomialGenerator and copy == entry
    assert entry._replace(label="q") == ("q", entry.lhs, entry.rhs)
    with pytest.raises(DomainError) as err:
        entry._replace(rhs=entry.lhs)  # namedtuple's own _replace would skip __new__'s checks
    assert err.value.code == "invalidGenerator"
    with pytest.raises(AttributeError):
        entry.label = "q"
    with pytest.raises(AttributeError):
        entry.extra = 0  # no instance dict


def test_gastinger_report_is_immutable():
    report = gastinger_verify(ArithmeticSeed(23, 1))
    with pytest.raises(AttributeError):
        report.passed = False
    assert report._replace(passed=False).passed is False and report.passed is True


def test_below_threshold():
    with pytest.raises(DomainError) as err:
        generator_catalog(ArithmeticSeed(10, 1))
    assert err.value.code == "belowMinimalityThreshold"


def test_catalog_json_shape():
    data = catalog_to_json(generator_catalog(ArithmeticSeed(11, 2)))
    assert all(set(entry) == {"label", "lhs", "rhs"} for entry in data)
    assert all(len(entry["lhs"]) == 5 and len(entry["rhs"]) == 5 for entry in data)


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------

def test_buchberger_one_reduction():
    # x2^3 divides the lead of the binomial, leaving the pure power x5^2
    polys = [binomial((3, 0, 0, 0), None), binomial((3, 2, 0, 0), (0, 0, 0, 2))]
    basis = buchberger(polys)
    assert ((0, 0, 0, 2), None) in basis.elements


def test_binomial_treats_none_as_zero():
    assert binomial(None, None) is None
    assert binomial((1, 2), (1, 2)) is None
    assert binomial(None, (1, 0)) == binomial((1, 0), None) == ((1, 0), None)
    # grevlex: equal degree, the smaller last exponent leads
    assert binomial((0, 2), (1, 1)) == binomial((1, 1), (0, 2)) == ((1, 1), (0, 2))


def test_reduce_poly_rewrites_the_lead_only():
    # x^3 - y^2 against y^2 - x: the lead is irreducible, the tail stays
    assert reduce_poly(binomial((3, 0), (0, 2)), [binomial((0, 2), (1, 0))]) == ((3, 0), (0, 2))
    # and it survives the monomial y
    assert reduce_poly(binomial((2, 0), (0, 1)), [binomial((0, 1), None)]) == ((2, 0), (0, 1))
    # x^3 - y^2 against x^2 - y: the lead becomes x y
    assert reduce_poly(binomial((3, 0), (0, 2)), [binomial((2, 0), (0, 1))]) == ((1, 1), (0, 2))
    # x^2 - y against the monomial x: the lead dies and y leads, then against y too
    assert reduce_poly(binomial((2, 0), (0, 1)), [binomial((1, 0), None)]) == ((0, 1), None)
    monomials = [binomial((1, 0), None), binomial((0, 1), None)]
    assert reduce_poly(binomial((2, 0), (0, 1)), monomials) is None
    # x^2 y against x^2 - y and x y - x, whose leads both divide it: the first
    # in basis order moves it, to y^2 here and to x^2, then y, the other way round
    both = [binomial((2, 0), (0, 1)), binomial((1, 1), (1, 0))]
    assert reduce_poly(binomial((2, 1), None), both) == ((0, 2), None)
    assert reduce_poly(binomial((2, 1), None), both[::-1]) == ((0, 1), None)


def test_buchberger_single_binomial_is_complete():
    poly = binomial((0, 0, 2, 0, 0), (2, 0, 0, 1, 0))  # x3^2 - x1^2 x4
    basis = buchberger([poly])
    assert basis.elements == (poly,)


def test_buchberger_never_pairs_two_monomials(monkeypatch):
    # every pair of monomials is either coprime or has a zero S-polynomial,
    # so a monomial-only input is complete without a single reduction
    calls = []

    def counting(p, basis):
        calls.append(p)
        return reduce_poly(p, basis)

    monkeypatch.setattr("apsum.ideal.reduce_poly", counting)
    polys = [((2, 0, 0, 0), None), ((0, 3, 0, 0), None), ((1, 1, 0, 0), None), ((0, 0, 0, 5), None)]
    assert buchberger(polys).elements == tuple(polys)
    assert calls == []


# The seeds whose catalog image in k[x2..x5] keeps a binomial, on the grid of
# test_buchberger_works_only_where_the_image_keeps_a_binomial.  A wider probe,
# a < 1200 with d <= 29 or d in {a + 1, 2a + 1, 40a - 1}, finds the same seven.
IMAGE_BINOMIAL_SEEDS = [(11, 1), (11, 2), (11, 5), (11, 8), (13, 1), (13, 4), (22, 1)]


def test_buchberger_works_only_where_the_image_keeps_a_binomial():
    # every coprime seed with 11 <= a <= 60 and d <= 29, plus the two strict
    # a = 21 variants: elsewhere the image is all monomials, so it is its own
    # Groebner basis
    catalogs = [((a, d), generator_catalog(ArithmeticSeed(a, d)))
                for a in range(11, 61) for d in range(1, 30) if gcd(a, d) == 1]
    catalogs += [((21, d), generator_catalog(ArithmeticSeed(21, d), strict_21=True)) for d in (1, 2)]
    assert len(catalogs) == 907
    with_binomial = []
    for seed, catalog in catalogs:
        images = _quotient_polys(catalog)
        if any(p is not None and p[1] is not None for p in images):
            with_binomial.append(seed)
        else:
            assert buchberger(images).elements == tuple(p for p in images if p is not None), seed
    assert with_binomial == IMAGE_BINOMIAL_SEEDS


def test_quotient_dimension_11_2():
    assert quotient_dimension(generator_catalog(ArithmeticSeed(11, 2))) == 11


def test_standard_monomials_hand_closure():
    # x2 x5, x3 x5, x4 x5, x5^2, x4^2, x3^2, x2^3, x2 x3 x4 in x2..x5
    basis = [
        (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 0, 2),
        (0, 0, 2, 0), (0, 2, 0, 0), (3, 0, 0, 0), (1, 1, 1, 0),
    ]
    assert staircase_count(basis) == 11


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_standard_monomials_residue1_pattern(q):
    basis = [
        (0, 0, 4, 0), (0, 1, 3, 0), (0, 2, 0, 0), (1, 0, 2, 0),
        (1, 1, 1, 0), (3, 0, 0, 0), (2, 0, 0, 1), (0, 0, 0, q + 1),
        (0, 0, 1, q), (0, 1, 0, q), (1, 0, 0, q), (0, 0, 2, q - 1),
    ]
    assert staircase_count(basis) == 10 * q + 1


def test_standard_monomials_infinite():
    assert staircase_count([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]) is INFINITE
    # no generator bounds x_1, whatever the variable count
    assert staircase_count([]) is INFINITE
    assert staircase_monomials([]) is None


def test_unit_ideal_has_no_standard_monomials():
    # k[x]/(1) = 0, with or without other generators beside the constant
    assert staircase_count([(0, 0, 0, 0)]) == 0
    assert staircase_monomials([(0, 0)]) == []
    assert staircase_count([(0, 0, 0), (1, 0, 0), (0, 2, 0), (0, 0, 3)]) == 0
    assert staircase_monomials([(0, 1), (0, 0)]) == []


# ----------------------------------------------------------------------
# differential check against the box enumeration
# ----------------------------------------------------------------------

def _is_power_of(g, i):
    return g[i] > 0 and sum(map(bool, g)) == 1


def box_standard_monomials(basis, nvars):
    """Reference: every point of the box bounded by the smallest pure powers
    that no generator divides, in lex order; None when some variable has no
    pure power."""
    bounds = [min((g[i] for g in basis if _is_power_of(g, i)), default=None) for i in range(nvars)]
    if None in bounds:
        return None
    return [
        e for e in product(*(range(b) for b in bounds))
        if not any(all(x >= y for x, y in zip(e, g)) for g in basis)
    ]


@st.composite
def monomial_sets(draw):
    """Generating sets in 1-5 variables: random monomials plus a pure power
    per variable, sometimes with non-minimal and duplicated generators, a
    variable left without its pure power (infinite quotient) or the
    constant."""
    nvars = draw(st.integers(1, 5))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars).filter(any), max_size=8))
    gens += [tuple(draw(st.integers(1, 4)) if j == i else 0 for j in range(nvars)) for i in range(nvars)]
    for g in draw(st.lists(st.sampled_from(gens), max_size=4)):
        gens.append(tuple(e + draw(st.integers(0, 1)) for e in g))
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, nvars - 1))
        gens = [g for g in gens if not _is_power_of(g, i)]
    if draw(st.integers(0, 7)) == 0:
        gens.append((0,) * nvars)
    return draw(st.permutations(gens)), nvars


@settings(max_examples=200, deadline=None)
@given(monomial_sets())
def test_staircase_matches_box_enumeration(case):
    basis, nvars = case
    listed = staircase_monomials(basis)
    count = staircase_count(basis)
    if (0,) * nvars in basis:
        assert listed == [] and count == 0
        return
    expected = box_standard_monomials(basis, nvars)
    assert listed == expected
    assert count == (INFINITE if expected is None else len(expected))


# ----------------------------------------------------------------------
# dimension verification
# ----------------------------------------------------------------------

def test_gastinger_11_2():
    report = gastinger_verify(ArithmeticSeed(11, 2))
    assert report.dimension == 11
    assert report.passed and report.minimal
    assert all(v != 11 for v in report.drop_one_dims.values())


def test_gastinger_23_1():
    report = gastinger_verify(ArithmeticSeed(23, 1))
    assert report.dimension == 23
    assert report.passed and report.minimal


def test_gastinger_21_adjudication():
    report = gastinger_verify(ArithmeticSeed(21, 1))
    assert report.adjudication is not None
    assert report.adjudication["strict"] is INFINITE
    assert report.adjudication["withCore"] == 21
    assert report.adjudication["selected"] == "withCore"
    assert report.passed and report.minimal


@pytest.mark.parametrize("a, d, strict", [(11, 2, False), (21, 1, False), (21, 1, True),
                                          (23, 1, False), (137, 4, False)])
def test_quotient_dimension_counts_the_basis(a, d, strict):
    catalog = generator_catalog(ArithmeticSeed(a, d), strict_21=strict)
    for sub in [catalog] + [catalog[:i] + catalog[i + 1:] for i in range(len(catalog))]:
        basis = quotient_basis(sub)
        assert quotient_dimension(sub) == (INFINITE if basis is None else len(basis))


@settings(max_examples=100, deadline=None)
@given(st.integers(11, 3000).flatmap(lambda a: st.tuples(st.just(a), st.integers(1, 40 * a))))
def test_gastinger_at_random_large_d(seed_pair):
    a, d = seed_pair
    assume(gcd(a, d) == 1)
    report = gastinger_verify(ArithmeticSeed(a, d))
    assert report.passed and report.minimal and report.dimension == a


# ----------------------------------------------------------------------
# differential check against the tagged, order-taking reference engine
# ----------------------------------------------------------------------
# A polynomial is ("m", e) or ("b", lead, tail) with lead > tail under key.

def lex_key(e):
    return tuple(e)


def ref_binomial(e1, e2, key):
    e1, e2 = tuple(e1), tuple(e2)
    if e1 == e2:
        return None
    return ("b", e1, e2) if key(e1) > key(e2) else ("b", e2, e1)


def _ref_divide(a, b):
    return tuple(x - y for x, y in zip(a, b)) if all(x >= y for x, y in zip(a, b)) else None


def _ref_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _ref_find_reducer(e, basis):
    for q in basis:
        quot = _ref_divide(e, q[1])
        if quot is not None:
            return q, quot
    return None


def ref_reduce(p, basis, key):
    while p is not None:
        if p[0] == "m":
            hit = _ref_find_reducer(p[1], basis)
            if hit is None:
                return p
            q, quot = hit
            if q[0] == "m":
                return None
            p = ("m", _ref_mul(quot, q[2]))
        else:
            _, lead, tail = p
            hit = _ref_find_reducer(lead, basis)
            if hit is not None:
                q, quot = hit
                p = ("m", tail) if q[0] == "m" else ref_binomial(_ref_mul(quot, q[2]), tail, key)
                continue
            hit = _ref_find_reducer(tail, basis)
            if hit is None:
                return p
            q, quot = hit
            p = ("m", lead) if q[0] == "m" else ref_binomial(lead, _ref_mul(quot, q[2]), key)
    return None


def ref_s_poly(f, g, key):
    if f[0] == "m" and g[0] == "m":
        return None
    lcm = tuple(max(x, y) for x, y in zip(f[1], g[1]))
    if f[0] == "m":
        return ("m", _ref_mul(_ref_divide(lcm, g[1]), g[2]))
    if g[0] == "m":
        return ("m", _ref_mul(_ref_divide(lcm, f[1]), f[2]))
    return ref_binomial(_ref_mul(_ref_divide(lcm, f[1]), f[2]), _ref_mul(_ref_divide(lcm, g[1]), g[2]), key)


def reference_buchberger(polys, key):
    """The textbook loop in the tagged shape, under any monomial order key."""
    basis = [p for p in polys if p is not None]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        i, j = pairs.pop()
        f, g = basis[i], basis[j]
        if tuple(max(x, y) for x, y in zip(f[1], g[1])) == _ref_mul(f[1], g[1]):
            continue
        s = ref_reduce(ref_s_poly(f, g, key), basis, key)
        if s is not None:
            basis.append(s)
            k = len(basis) - 1
            pairs.extend((k, t) for t in range(k))
    return tuple(basis)


def ref_quotient_polys(catalog, key):
    """The catalog's image after x1 -> 0, in the tagged shape."""
    polys = []
    for b in catalog:
        lhs_dies, rhs_dies = b.lhs[0] > 0, b.rhs[0] > 0
        if lhs_dies and rhs_dies:
            continue
        if lhs_dies:
            polys.append(("m", b.rhs[1:]))
        elif rhs_dies:
            polys.append(("m", b.lhs[1:]))
        else:
            polys.append(ref_binomial(b.lhs[1:], b.rhs[1:], key))
    return polys


def as_pair(p):
    return (p[1], None) if p[0] == "m" else (p[1], p[2])


def minimal_monomials(exponents):
    """The minimal generators of the monomial ideal the exponents span."""
    gens = set(exponents)
    return {e for e in gens if not any(f != e and _ref_divide(e, f) is not None for f in gens)}


@st.composite
def catalog_subsets(draw):
    """A random subset, in catalog order, of a coprime seed's catalog with
    11 <= a <= 600 and d <= 40a; a fifth of the draws are the (21, 1) and
    (21, 2) catalogs, strict or with the core."""
    if draw(st.integers(0, 4)) == 0:
        a, d = 21, draw(st.integers(1, 2))
    else:
        a = draw(st.integers(11, 600))
        d = draw(st.integers(1, 40 * a))
        assume(gcd(a, d) == 1)
    catalog = generator_catalog(ArithmeticSeed(a, d), strict_21=draw(st.booleans()))
    keep = draw(st.lists(st.booleans(), min_size=len(catalog), max_size=len(catalog)))
    return [b for b, k in zip(catalog, keep) if k]


@settings(max_examples=400, deadline=None)
@given(catalog_subsets())
def test_buchberger_matches_reference_engine(sub):
    expected = reference_buchberger(ref_quotient_polys(sub, grevlex_key), grevlex_key)
    assert buchberger(_quotient_polys(sub)).elements == tuple(map(as_pair, expected))


@pytest.mark.parametrize("a, d, strict", [(21, 1, True), (21, 1, False), (21, 2, True),
                                          (21, 2, False), (137, 4, False)])
def test_buchberger_matches_reference_on_drop_one_variants(a, d, strict):
    catalog = generator_catalog(ArithmeticSeed(a, d), strict_21=strict)
    for sub in [catalog] + [catalog[:i] + catalog[i + 1:] for i in range(len(catalog))]:
        expected = reference_buchberger(ref_quotient_polys(sub, grevlex_key), grevlex_key)
        assert buchberger(_quotient_polys(sub)).elements == tuple(map(as_pair, expected))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * 3),
                          st.none() | st.tuples(*[st.integers(0, 3)] * 3)), min_size=1, max_size=5))
def test_buchberger_matches_reference_on_small_binomials(terms):
    # the reference engine also rewrites tails, so on these small ideals the
    # bases may differ; their lead ideals and their ideals may not
    polys = [binomial(u, v) for u, v in terms]
    tagged = [("m", u) if v is None else ref_binomial(u, v, grevlex_key) for u, v in terms]
    ours = [("m", lead) if tail is None else ("b", lead, tail)
            for lead, tail in buchberger(polys).elements]
    ref = reference_buchberger(tagged, grevlex_key)
    assert minimal_monomials(p[1] for p in ours) == minimal_monomials(p[1] for p in ref)
    assert all(ref_reduce(p, ref, grevlex_key) is None for p in ours)
    assert all(ref_reduce(p, ours, grevlex_key) is None for p in ref)


def test_dimension_is_order_stable():
    # Macaulay: the lex and the grevlex basis leave the same number of
    # standard monomials
    for a, d in ((11, 2), (13, 1), (22, 1), (23, 1)):
        catalog = generator_catalog(ArithmeticSeed(a, d))
        lex = reference_buchberger(ref_quotient_polys(catalog, lex_key), lex_key)
        assert staircase_count([p[1] for p in lex]) == quotient_dimension(catalog) == a


def test_quotient_basis_weights_are_the_apery_set():
    # standard monomials map bijectively onto the Apery set through the
    # weighted degree: any heavier representative of a class would factor
    # through the killed variable
    from apsum import apery_set_closed

    for a, d in ((11, 2), (13, 1), (14, 1), (21, 1), (23, 1), (30, 7)):
        seed = ArithmeticSeed(a, d)
        gens = partial_sum_generators(seed)
        basis = quotient_basis(generator_catalog(seed))
        weights = {sum(e * g for e, g in zip(m, gens[1:])) for m in basis}
        assert len(weights) == len(basis) == a
        assert weights == apery_set_closed(seed)
