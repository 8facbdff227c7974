"""Semigroups generated by partial sums of an arithmetic progression.

For coprime a, d > 0 the generators are the partial sums

    s_n = n * (2a + (n - 1) d) / 2,   n = 1..m,

i.e. a, 2a+d, 3a+3d, 4a+6d, 5a+10d, ...  Generator k is k*a + C(k, 2)*d,
so an expansion of the class index n writes n as a sum of the triangular
numbers C(k, 2).  With five generators the Apery set with respect to a
admits a closed form: with n in the mixed radix 10, 6, 3, 1 (plus one
rewrite, ``canonical_expansion``), the least member of class n is the
digit-weighted multiple of a plus n*d, and the digits are its canonical
expansion over the non-multiplicity generators.  The six-generator analogue
takes for class n the least degree of an expansion of n over 1, 3, 6, 10, 15
(``least_degrees``) times a, plus n*d.  It is conjectural: the gamma6 sweep
verdict reads it and compares it with the oracle, and nothing asserts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import gcd
from typing import NamedTuple

from .errors import DomainError
from .oracle import apery_oracle, validate_generators


@dataclass(frozen=True)
class ArithmeticSeed:
    """The pair (a, d) with gcd 1, plus the number of generators m."""

    a: int
    d: int
    m: int = 5

    def __post_init__(self):
        if self.a < 2:
            raise DomainError("invalidSeed", f"a must be at least 2, got {self.a}")
        if self.d < 1:
            raise DomainError("invalidSeed", f"d must be positive, got {self.d}")
        if self.m < 2:
            raise DomainError("invalidSeed", f"m must be at least 2, got {self.m}")
        if gcd(self.a, self.d) != 1:
            raise DomainError("notCoprime", f"gcd({self.a}, {self.d}) != 1")


def partial_sum_generators(seed: ArithmeticSeed) -> tuple[int, ...]:
    """The m partial-sum generators of the seed, strictly increasing."""
    gens = tuple(n * (2 * seed.a + (n - 1) * seed.d) // 2 for n in range(1, seed.m + 1))
    return validate_generators(gens)


def canonical_expansion(n: int) -> tuple[int, int, int, int]:
    """Coefficients (c2, c3, c4, c5) on the non-multiplicity generators.

    Generic expansions are n's digits in the mixed radix 10, 6, 3, 1, so
    n = 10*c5 + 6*c4 + 3*c3 + c2.  When c2 == 2 and c5 > 0 the rewritten form
    (0, c3, c4 + 2, c5 - 1) trades two degree-2 generators and one degree-5
    generator for two degree-4 ones, which lowers the degree (the multiplier
    of a) by one, and the order by one.

    The order rule: for n >= 10, class n + 10 adds one generator 5 to class
    n.  Its greedy digits are those of n with c5 one larger, and both have
    c5 > 0, so the rewrite applies to both or to neither.
    """
    if n < 0:
        raise DomainError("invalidElement", "canonical expansions need n >= 0")
    c5, r = divmod(n, 10)
    c4, r = divmod(r, 6)
    c3, c2 = divmod(r, 3)
    if c2 == 2 and c5 > 0:
        return (0, c3, c4 + 2, c5 - 1)
    return (c2, c3, c4, c5)


class AperyRecord(NamedTuple):
    """One Apery class of the five-generator semigroup: its index n, the
    multiplier of a, the value, the gap (value - a), the order and the
    canonical expansion.  An immutable tuple: ``_replace`` returns a changed
    copy, ``_asdict`` the fields by name, and setting a field raises
    ``AttributeError``."""

    n: int
    multiplier: int
    value: int
    gap: int
    order: int
    expansion: tuple[int, int, int, int]


def minimality_check(seed: ArithmeticSeed) -> bool:
    """Whether the partial sums minimally generate their semigroup: a > C(m, 2).

    Write s_k = k*a + C(k, 2)*d.  As gcd(a, d) = 1, s_k lies in
    <s_1, ..., s_(k-1)> iff some c >= 0 has sum c_i*i = k + j*d and
    sum c_i*C(i, 2) = C(k, 2) - j*a for an integer j.  j <= 0 is impossible:
    C(i, 2) <= (k - 2)*i/2 for i < k, so the second sum would be at most
    (k - 2)*k/2 < C(k, 2).  j >= 1 needs a <= C(k, 2), so a > C(m, 2) makes
    every generator minimal.  Conversely, take the least k with C(k, 2) >= a
    and j = 1.  Then N = C(k, 2) - a <= k - 2, and N has an expansion over
    the C(i, 2), i < k, of degree sum c_i*i <= N + 2 <= k (by induction:
    N <= 2 is N ones at degree 2N; for N >= 3 take the largest C(i, 2) <= N,
    whose i >= 3 satisfies i <= C(i, 2)).
    Padding it with copies of s_1 up to degree k + d writes s_k in the others.
    At m == 5 this is a >= 11; ``is_minimal_generating`` is the oracle.
    """
    return seed.a > seed.m * (seed.m - 1) // 2


def has_closed_form(seed: ArithmeticSeed) -> bool:
    """Whether the five-generator closed forms cover the seed.

    They need m == 5 and minimal generators (a >= 11): below that the
    formulas have no backing.
    """
    return seed.m == 5 and minimality_check(seed)


def require_closed_form(seed: ArithmeticSeed) -> None:
    """Refuse seeds outside ``has_closed_form``, naming the condition missed."""
    if seed.m != 5:
        raise DomainError("closedFormUnavailable", f"closed form needs m == 5, got m == {seed.m}")
    if not minimality_check(seed):
        raise DomainError("belowMinimalityThreshold", f"closed form needs a >= 11, got a == {seed.a}")


# classes 0..19 expanded once: (multiplier of a, the (2, 3, 4, 5)-weighted degree; order; expansion)
_CLASSES = tuple((2 * c2 + 3 * c3 + 4 * c4 + 5 * c5, c2 + c3 + c4 + c5, (c2, c3, c4, c5))
                 for c2, c3, c4, c5 in map(canonical_expansion, range(20)))


def _record(a: int, d: int, n: int) -> AperyRecord:
    """The record of class n >= 0, read off the period: by ``canonical_expansion``'s
    order rule class n >= 20 is table class n - 10j, 10 <= n - 10j < 20, plus j generators 5."""
    j = max(0, n // 10 - 1)
    mult, order, (c2, c3, c4, c5) = _CLASSES[n - 10 * j]
    value = (mult + 5 * j) * a + n * d
    return AperyRecord(n, mult + 5 * j, value, value - a, order + j, (c2, c3, c4, c5 + j))


def apery_records(seed: ArithmeticSeed) -> list[AperyRecord]:
    """Closed-form Apery set of the five-generator semigroup, classes 1..a-1.

    Filled along the period: class n + 10 is class n plus generator 5 from class 10 on
    (multiplier + 5, value and gap + g_5, order and c5 + 1), so for each r in 10..19 the
    classes r, r + 10, ... are zipped from ``range`` columns into records at C speed, with
    no Python frame per record, O(a).  Fails loudly outside ``require_closed_form``.
    """
    require_closed_form(seed)
    a, d, g5 = seed.a, seed.d, partial_sum_generators(seed)[4]
    records = [None] * (a - 1)  # sized first, so an a too large to list fails here, not mid-fill
    records[:9] = [_record(a, d, n) for n in range(1, 10)]
    for r in range(10, min(a, 20)):
        _, m, v, gap, o, (c2, c3, c4, c5) = _record(a, d, r)
        k = len(range(r, a, 10))
        # AperyRecord._make's own step, tuple.__new__ over the zipped columns
        records[r - 1::10] = map(tuple.__new__, repeat(AperyRecord), zip(
            range(r, a, 10), range(m, m + 5 * k, 5), range(v, v + g5 * k, g5), range(gap, gap + g5 * k, g5),
            range(o, o + k), zip(repeat(c2), repeat(c3), repeat(c4), range(c5, c5 + k))))
    return records


def element_order(seed: ArithmeticSeed, v: int) -> int:
    """Order of v (the most generators summing to it), from one Apery record.

    The expansions are unique and the tangent cone is free, so by Garcia's
    criterion (Comm. Algebra 10, 1982) ord(v) = ord(w) + (v - w)/a, where w
    is the Apery element of v's class n = v * d^-1 mod a (class 0 has w = 0).
    O(1) in v.  Raises like ``order_oracle`` for v < 0 and for v < w (not a
    member); fails loudly outside ``require_closed_form``.
    """
    require_closed_form(seed)
    if v < 0:
        raise DomainError("invalidElement", "semigroup elements are nonnegative")
    rec = _record(seed.a, seed.d, v * pow(seed.d, -1, seed.a) % seed.a)  # class 0: w = 0, order 0
    if v < rec.value:
        raise DomainError("notMember", f"{v} is not in the semigroup")
    return rec.order + (v - rec.value) // seed.a


def apery_set_closed(seed: ArithmeticSeed) -> set[int]:
    """The closed-form Apery set as a plain set of values, 0 included."""
    return {0} | {rec.value for rec in apery_records(seed)}


@dataclass(frozen=True)
class UniquenessViolation:
    value: int
    count: int
    expansions: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class UniquenessReport:
    all_unique: bool
    violations: tuple[UniquenessViolation, ...]


def uniqueness_check(gens, c: int) -> UniquenessReport:
    """Check every Apery element of <gens> w.r.t. c for a unique expansion.

    Expansions range over the generators other than c.  A partial sum u of an
    expansion of w in Ap(S, c) is again in Ap(S, c), since u - c in S would
    put w - c in S; so the counts are a coin-change DP over the c Apery values
    alone, O(m * c), and the witnesses of a violated value are listed in
    lexicographic order by backtracking over per-suffix counts on them.
    """
    g = validate_generators(gens)
    order = sorted(apery_oracle(g, c))
    expansion_gens = tuple(x for x in g if x != c)
    # suffix[i][w]: number of expansions of w over expansion_gens[i:]
    suffix = [dict.fromkeys(order, 0) | {0: 1}]
    for x in reversed(expansion_gens):
        counts = dict(suffix[0])
        for w in order:
            if w - x in counts:
                counts[w] += counts[w - x]
        suffix.insert(0, counts)

    def expansions(i: int, rest: int) -> list[tuple[int, ...]]:
        if i == len(expansion_gens):
            return [()]
        x = expansion_gens[i]
        return [(k,) + tail for k in range(rest // x + 1) if suffix[i + 1].get(rest - k * x)
                for tail in expansions(i + 1, rest - k * x)]

    violations = tuple(UniquenessViolation(w, n, tuple(expansions(0, w)))
                       for w, n in suffix[0].items() if n != 1)
    return UniquenessReport(not violations, violations)


# ----------------------------------------------------------------------
# six-generator conjectural formula, read by the gamma6 sweep verdict
# ----------------------------------------------------------------------

def least_degrees(m: int, top: int) -> list[int]:
    """Entry n, 0 <= n <= top: the least degree sum k*c_k over c_2..c_m >= 0
    with sum c_k*C(k, 2) = n.

    Generator k is k*a + C(k, 2)*d, so entry n times a, plus n*d, is the
    least value an expansion of class index n can reach.  A coin DP over the
    coins C(k, 2) with weights k, O(m * top).
    """
    least = list(range(0, 2 * top + 1, 2))  # n ones: C(2, 2) = 1 at degree 2
    for k in range(3, m + 1):
        coin = k * (k - 1) // 2
        for n in range(coin, top + 1):
            least[n] = min(least[n], least[n - coin] + k)
    return least

