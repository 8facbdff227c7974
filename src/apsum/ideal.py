"""Defining-ideal generator catalogs and the dimension verification engine.

The defining ideal of the monomial curve (t^s1, ..., t^s5) is generated by
binomials x^u - x^v with equal weighted degree (x_i weighted by s_i).  This
module builds the catalog of every admissible seed from one rule: for
offsets k fixed by r = a mod 10, a power of x1 times x2^k against the
canonical expansion of class a + k, plus a core; at a <= 18, with output
labels p..., "extra", the core binomials of class index <= a.
It verifies a catalog by a dimension count: adjoin x1, pass to the quotient
k[x2..x5], run Buchberger on the surviving monomials/binomials, and count
standard monomials by a walk along the staircase of the leading monomials,
in runs along the last variable.  The catalog generates the full defining
ideal iff that count equals a, and it is minimal iff every drop-one variant
fails it; at a = 21 a second catalog call builds the strict variant.

The Buchberger engine works in grevlex only, on the fragment the count
needs: monic monomials and binomials, each one pair (lead, tail), rewritten
by one move, x^e -> x^(tail + e - lead).  It never queues a pair of two
monomials, and it skips pairs with coprime leads.  The catalog is mapped to
k[x2..x5] once; each drop-one variant is that image less one element.
"""

from __future__ import annotations

from operator import add, ge, sub
from typing import Iterable, NamedTuple

from .errors import DomainError
from .family import ArithmeticSeed, _record, partial_sum_generators, require_closed_form

Exponents = tuple[int, ...]


class _Infinite:
    """Singleton marker for quotients without finite monomial bases."""

    __slots__ = ()

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()


class _Binomial(NamedTuple):
    label: str
    lhs: Exponents
    rhs: Exponents


class BinomialGenerator(_Binomial):
    """One defining-ideal generator: x^lhs - x^rhs over x1..x5."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # namedtuple's own, which _replace calls, skips __new__

    def __new__(cls, label: str, lhs: Exponents, rhs: Exponents):
        if len(lhs) != 5 or len(rhs) != 5:
            raise DomainError("invalidGenerator", f"{label}: exponent vectors need 5 entries")
        if not all(isinstance(e, int) and e >= 0 for e in (*lhs, *rhs)):
            raise DomainError("invalidGenerator", f"{label}: exponents must be ints >= 0")
        if lhs == rhs:
            raise DomainError("invalidGenerator", f"{label}: sides are equal")
        return super().__new__(cls, label, lhs, rhs)


def weighted_degree(exps: Exponents, gens: Iterable[int]) -> int:
    return sum(e * g for e, g in zip(exps, gens))


def homogeneity_check(binomials: Iterable[BinomialGenerator], seed: ArithmeticSeed) -> bool:
    """True iff every binomial has equal weighted degree on both sides."""
    gens = partial_sum_generators(seed)
    return all(
        weighted_degree(b.lhs, gens) == weighted_degree(b.rhs, gens) for b in binomials
    )


# ----------------------------------------------------------------------
# catalogs
# ----------------------------------------------------------------------

def _e(e1=0, e2=0, e3=0, e4=0, e5=0) -> Exponents:
    return (e1, e2, e3, e4, e5)


# Seed-independent generators; weights balance for every (a, d).
CORE_GENERATORS = {
    "g1": (_e(e4=4), _e(1, 1, 1, 0, 2)),
    "g2": (_e(e3=1, e4=3), _e(3, 1, 0, 0, 2)),
    "g3": (_e(e3=2), _e(2, 0, 0, 1, 0)),
    "g4": (_e(e2=1, e4=2), _e(2, 0, 1, 0, 1)),
    "g5": (_e(e2=1, e3=1, e4=1), _e(4, 0, 0, 0, 1)),
    "g6": (_e(e2=3), _e(3, 0, 1, 0, 0)),
    "g7": (_e(1, 0, 0, 2, 0), _e(0, 2, 0, 0, 1)),
}


# Offsets k of the residue family (see residue_family), keyed by a mod 10.
FAMILY_OFFSETS_BY_RESIDUE = {
    0: (0, 2),
    1: (9, 5, 2, 0, 1),
    2: (8, 4, 1, 0),
    3: (7, 3, 0, 5, 2),
    4: (6, 2, 0, 4, 1),
    5: (5, 1, 3, 0),
    6: (4, 0, 2),
    7: (3, 5, 2, 0, 1),
    8: (2, 1, 4, 0),
    9: (1, 0, 3),
}


def residue_family(a: int, d: int) -> dict[str, tuple[Exponents, Exponents]]:
    """The residue-dependent generators for a >= 11, with r = a mod 10.

    Entry h{r}{i}, for the i-th offset k of FAMILY_OFFSETS_BY_RESIDUE[r] and
    class n = a + k, is x1^(deg(n) + d - 2k) x2^k - x^canonical_expansion(n),
    deg the (2, 3, 4, 5)-weighted degree; both sides weigh (deg(n) + d) a + n d.
    11 <= a <= 19 gives the small-a catalogs.  The first entry, the
    x5^(a // 10 + 1) power, can have a negative x1 exponent; generator_catalog
    trades it up where the catalog needs it and reports any exponent still negative.
    """
    r = a % 10
    recs = ((k, _record(a, d, a + k)) for k in FAMILY_OFFSETS_BY_RESIDUE[r])
    return {f"h{r}{i}": (_e(rec.multiplier + d - 2 * k, k), _e(0, *rec.expansion))
            for i, (k, rec) in enumerate(recs, 1)}


# The two seeds whose closing generator is not the traded first entry: the
# canonical-expansion monomial of its class, in weight 2 * s5, stands instead.
_CLOSING_EXCEPTIONS = {(11, 1): _e(4, 0, 1, 1), (14, 1): _e(7, 0, 0, 1)}


def _lift_x1(lhs: Exponents) -> Exponents:
    """Trade x2^3 for x1^3 x3 (equal weight, 6a + 3d) until the x1 exponent is >= 0."""
    k = max(0, -(lhs[0] // 3))
    return _e(lhs[0] + 3 * k, lhs[1] - 3 * k, lhs[2] + k, *lhs[3:])


def generator_catalog(seed: ArithmeticSeed, strict_21: bool = False) -> list[BinomialGenerator]:
    """Minimal generating set of the defining ideal for the seed.

    Every a >= 11 uses residue_family(a, d), one binomial per offset k:
    x1^i x2^k against the canonical expansion of class a + k, with r = a mod 10.
    Its first entry, the x5^(a // 10 + 1) generator, moves to the end as
    "extra" when a <= 14 or when its x1 exponent is negative, which at a >= 15
    happens only at (21, 1) and (21, 2) (for 11 <= a <= 19 the exponent is
    d - 10 + 2r, >= d for r >= 5); there x2^3 is traded for x1^3 x3 until it
    is >= 0.  For 11 <= a <= 18 the family entries left in place carry
    the output names p{r}1, p{r}2, ... and are followed by the core binomials
    whose lhs has class index sum c_k C(k, 2) <= a; for a >= 19 the full core
    comes first.  strict_21 drops the core where the first entry moved at
    a >= 19: the a == 21 variant that fails the dimension check, which
    gastinger_verify reads off the "extra" entry of this catalog.
    """
    require_closed_form(seed)
    a, d = seed.a, seed.d
    r = a % 10
    family = list(residue_family(a, d).items())
    _, (lhs, rhs) = family[0]
    moved = a <= 14 or lhs[0] < 0
    if moved:
        family = family[1:]
    core = sorted(CORE_GENERATORS.items())
    if a <= 18:
        items = [(f"p{r}{i}", v) for i, (_, v) in enumerate(family, 1)]
        items += [(k, v) for k, v in core if weighted_degree(v[0], (0, 1, 3, 6, 10)) <= a]
    else:
        items = ([] if strict_21 and moved else core) + family
    if moved:
        items.append(("extra", (_CLOSING_EXCEPTIONS.get((a, d)) or _lift_x1(lhs), rhs)))

    catalog = []
    for label, (lhs, rhs) in items:
        if min(lhs) < 0 or min(rhs) < 0:
            raise DomainError(
                "catalogInvalidForSeed",
                f"{label} has a negative exponent at (a, d) = ({a}, {d})",
            )
        catalog.append(BinomialGenerator(label, lhs, rhs))
    if not homogeneity_check(catalog, seed):
        raise DomainError("catalogInvalidForSeed", f"inhomogeneous catalog at (a, d) = ({a}, {d})")
    return catalog


def catalog_to_json(catalog: list[BinomialGenerator]) -> list[dict]:
    """JSON-ready export: list of {label, lhs: [5 ints], rhs: [5 ints]}."""
    return [{"label": b.label, "lhs": list(b.lhs), "rhs": list(b.rhs)} for b in catalog]


# ----------------------------------------------------------------------
# Buchberger engine on monic monomials / binomials, in grevlex
# ----------------------------------------------------------------------
# A polynomial is the pair (lead, tail): the monic binomial x^lead - x^tail
# with lead > tail in grevlex, or the monomial x^lead when tail is None.
# Every rewrite is one move, _moved: an element whose lead divides x^e turns
# x^e into x^(tail + e - lead), or into zero when it is a monomial.  Reduction
# moves the lead, an S-polynomial moves the lcm of two leads, so the shape is
# closed under completion.  Reduction rewrites the lead only: the count reads
# leading monomials alone.  One order suffices: the standard monomials of any
# Groebner basis span the quotient (Macaulay's basis theorem), so the
# dimension count cannot depend on the order.
# The S-polynomial of two monomials is zero, and a catalog image is mostly
# monomials, so the pair queue holds only pairs with at least one binomial.

Poly = tuple  # (lead, tail), tail None for a monomial


def grevlex_key(e: Exponents):
    return (sum(e), tuple(-x for x in reversed(e)))


def binomial(u: Exponents | None, v: Exponents | None) -> Poly | None:
    """Monic x^u - x^v with the larger term leading, where a None term is
    zero; None when both terms vanish or they cancel."""
    if u is None:
        u, v = v, None
    if u is None or u == v:
        return None
    if v is None or grevlex_key(u) > grevlex_key(v):
        return (u, v)
    return (v, u)


def _moved(tail: Exponents | None, lead: Exponents, target: Exponents) -> Exponents | None:
    """x^target rewritten by (lead, tail), whose lead divides it; None is zero."""
    return None if tail is None else tuple(map(add, tail, map(sub, target, lead)))


def reduce_poly(p: Poly | None, basis: list[Poly]) -> Poly | None:
    """Rewrite the lead of p until no basis lead divides it; None is zero.

    Each move uses the first basis element whose lead divides the lead.  The
    tail is left as it is: a nonzero result's lead lies outside the lead
    ideal, which is all Buchberger's loop needs to end with a Groebner basis.
    """
    while p is not None:
        lead = p[0]
        for b_lead, b_tail in basis:
            if all(map(ge, lead, b_lead)):
                p = binomial(_moved(b_tail, b_lead, lead), p[1])
                break
        else:
            return p
    return None


def _s_poly(f: Poly, g: Poly) -> Poly | None:
    lcm = tuple(map(max, f[0], g[0]))
    return binomial(_moved(f[1], f[0], lcm), _moved(g[1], g[0], lcm))


class GroebnerBasis(NamedTuple):
    elements: tuple[Poly, ...]


def buchberger(polys: Iterable[Poly | None]) -> GroebnerBasis:
    """Complete the monomials/binomials to a grevlex Groebner basis.

    None inputs are dropped.  A pair of two monomials is never queued (its
    S-polynomial is zero), so a new monomial is paired only with the
    binomials; a queued pair with coprime leading monomials is skipped
    (Buchberger's first criterion).  Everything else is the textbook loop,
    popping pairs last in, first out.
    """
    basis = [p for p in polys if p is not None]
    pairs: list[tuple[int, int]] = []
    binomials: list[int] = []  # indices of the elements with a tail

    def queue(k: int) -> None:
        if basis[k][1] is None:
            pairs.extend((k, t) for t in binomials)
        else:
            pairs.extend((k, t) for t in range(k))
            binomials.append(k)

    for k in range(len(basis)):
        queue(k)
    while pairs:
        i, j = pairs.pop()
        f, g = basis[i], basis[j]
        if all(x == 0 or y == 0 for x, y in zip(f[0], g[0])):
            continue
        s = reduce_poly(_s_poly(f, g), basis)
        if s is not None:
            basis.append(s)
            queue(len(basis) - 1)
    return GroebnerBasis(tuple(basis))


def _staircase(basis: Iterable[Exponents]) -> list[tuple[Exponents, int]] | None:
    """Standard monomials of the monomial ideal as lex-ordered runs, or None
    when there are infinitely many.

    A run (prefix, n) stands for prefix + (v,), v < n.  The walk visits the
    prefixes outside the ideal, carrying the generators that divide each one.
    Coordinate i stops at the first value where a surviving generator has no
    support right of i, since that subtree and every later one lie in the
    ideal; at the last coordinate that value is the run length.  No such
    generator means x_i is unbounded there, as x_1 is for an empty basis.
    Tuple length is the variable count.  Any generating set works, and a
    constant generator stops the walk at once: k[x]/(1) = 0.
    """
    # each generator with the index of its last nonzero exponent (-1 for 1)
    tagged = [(g, max((i for i, e in enumerate(g) if e), default=-1)) for g in basis]
    last = len(tagged[0][0]) - 1 if tagged else 0
    runs: list[tuple[Exponents, int]] = []

    def walk(prefix: Exponents, alive: list) -> bool:
        i = len(prefix)
        ends = [g[i] for g, t in alive if t <= i]
        if not ends:
            return False
        n = min(ends)
        if i == last:
            runs.append((prefix, n))
            return True
        for v in range(n):
            if not walk(prefix + (v,), [gt for gt in alive if gt[0][i] <= v]):
                return False
        return True

    return runs if walk((), tagged) else None


# ----------------------------------------------------------------------
# dimension verification
# ----------------------------------------------------------------------

def _quotient_polys(catalog: Iterable[BinomialGenerator]) -> list[Poly | None]:
    """Images of the catalog in k[x2..x5] after x1 -> 0.

    A side containing x1 dies, so a binomial survives as a binomial, a
    monomial or zero (None).
    """
    return [binomial(None if b.lhs[0] else b.lhs[1:], None if b.rhs[0] else b.rhs[1:]) for b in catalog]


def _runs(images: list[Poly | None]) -> list[tuple[Exponents, int]] | None:
    """Staircase runs in x2..x5 of the ideal the images generate, or None when infinite."""
    return _staircase([lead for lead, _ in buchberger(images).elements])


def _dimension(images: list[Poly | None]):
    """Standard monomial count in x2..x5 of the ideal the images generate, or INFINITE."""
    runs = _runs(images)
    return INFINITE if runs is None else sum(n for _, n in runs)


def quotient_basis(catalog: Iterable[BinomialGenerator]) -> list[Exponents] | None:
    """Monomial basis of k[x1..x5] / (catalog + (x1)), in x2..x5 exponents.

    None when the quotient is not finite dimensional.  When the catalog
    generates the full defining ideal, these monomials map bijectively onto
    the Apery set through the weighted degree.  They come in lex order.
    """
    runs = _runs(_quotient_polys(catalog))
    return None if runs is None else [prefix + (v,) for prefix, n in runs for v in range(n)]


class GastingerReport(NamedTuple):
    """Outcome of the dimension check and the drop-one minimality test."""

    dimension: object  # int or INFINITE
    passed: bool
    minimal: bool
    drop_one_dims: dict
    variant: str | None = None  # set at a == 21: which catalog variant passed
    adjudication: dict | None = None


def gastinger_verify(seed: ArithmeticSeed) -> GastingerReport:
    """Verify the catalog generates the defining ideal, and minimally so.

    The catalog passes iff the quotient dimension equals a; minimality holds
    iff every single-generator removal breaks that count (larger or
    infinite).  Where the catalog has an "extra" entry at a >= 19, (21, 1) and
    (21, 2), its strict variant is counted too and the adjudication recorded.
    """
    a = seed.a
    variants = {"withCore": generator_catalog(seed)}
    if a >= 19 and variants["withCore"][-1].label == "extra":
        variants = {"strict": generator_catalog(seed, strict_21=True), **variants}
    images = {name: _quotient_polys(cat) for name, cat in variants.items()}
    dims = {name: _dimension(im) for name, im in images.items()}
    variant = "strict" if dims.get("strict") == a and dims["withCore"] != a else "withCore"
    catalog, images, dim = variants[variant], images[variant], dims[variant]
    drop = {b.label: _dimension(images[:i] + images[i + 1 :]) for i, b in enumerate(catalog)}
    minimal = all(v != a for v in drop.values())
    if len(variants) == 1:
        return GastingerReport(dim, dim == a, minimal, drop)
    return GastingerReport(dim, dim == a, minimal, drop, variant, {**dims, "selected": variant})
