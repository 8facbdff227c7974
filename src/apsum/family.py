"""Semigroups generated by partial sums of an arithmetic progression.

For coprime a, d > 0 the generators are the partial sums

    s_n = n * (2a + (n - 1) d) / 2,   n = 1..m,

i.e. a, 2a+d, 3a+3d, 4a+6d, 5a+10d, ...  Generator k is k*a + C(k, 2)*d,
so an expansion of the class index n is n written in greedy digits over the
triangular numbers C(k, 2) (``triangular_digits``).  With five generators the
Apery set with respect to a admits a closed form: over the digits 10, 6, 3, 1
(plus one rewrite), the least member of class n is the digit-weighted
multiple of a plus n*d, and the digits are its canonical expansion over the
non-multiplicity generators.  The six-generator analogue takes for class n
the least degree of an expansion of n over 1, 3, 6, 10, 15
(``least_degrees``) and is conjectural; it is exposed here for the sweep
harness, never asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import gcd
from operator import mul

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


def triangular_digits(n: int, m: int) -> tuple[int, ...]:
    """Greedy digits (c2, ..., cm) of n >= 0 over C(m, 2), ..., 6, 3, 1.

    n = sum of c_k * C(k, 2); generator k is k*a + C(k, 2)*d, so c_k counts
    generator k in an expansion of the class index n.
    """
    if n < 0:
        raise DomainError("invalidElement", "triangular digits need n >= 0")
    digits = [0] * (m - 1)
    for k in range(m, 1, -1):
        digits[k - 2], n = divmod(n, k * (k - 1) // 2)
    return tuple(digits)


def canonical_expansion(n: int) -> tuple[int, int, int, int]:
    """Coefficients (c2, c3, c4, c5) on the non-multiplicity generators.

    Generic expansions are ``triangular_digits(n, 5)``; when c2 == 2 and
    c5 > 0 the rewritten form (0, c3, c4 + 2, c5 - 1) trades two degree-2
    generators and one degree-5 generator for two degree-4 ones, which lowers
    the degree (the multiplier of a) by one, and the order by one.

    The order rule: for n >= 10, class n + 10 adds one generator 5 to class
    n.  Its greedy digits are those of n with c5 one larger, and both have
    c5 > 0, so the rewrite applies to both or to neither.
    """
    c2, c3, c4, c5 = triangular_digits(n, 5)
    if c2 == 2 and c5 > 0:
        return (0, c3, c4 + 2, c5 - 1)
    return (c2, c3, c4, c5)


def _degree(expansion: tuple[int, ...]) -> int:
    # generator k is k*a + (k choose 2)*d, so its coefficient of a is k
    return sum(map(mul, expansion, count(2)))


@dataclass(frozen=True)
class AperyRecord:
    """One Apery class of the five-generator semigroup."""

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
    if has_closed_form(seed):
        return
    if seed.m != 5:
        raise DomainError("closedFormUnavailable", f"closed form needs m == 5, got m == {seed.m}")
    if seed.a < 11:
        raise DomainError("belowMinimalityThreshold", f"closed form needs a >= 11, got a == {seed.a}")


def _new_record(n, multiplier, value, gap, order, expansion) -> AperyRecord:
    # fills the dict in field order: the frozen __init__ pays a setattr per field
    rec = object.__new__(AperyRecord)
    rec.__dict__.update(n=n, multiplier=multiplier, value=value, gap=gap, order=order, expansion=expansion)
    return rec


def _record(a: int, d: int, n: int) -> AperyRecord:
    # one class expanded once; multiplier, value, gap and order read off it
    exp = canonical_expansion(n)
    mult = _degree(exp)
    value = mult * a + n * d
    return _new_record(n, mult, value, value - a, sum(exp), exp)


def apery_records(seed: ArithmeticSeed) -> list[AperyRecord]:
    """Closed-form Apery set of the five-generator semigroup, classes 1..a-1.

    Classes 1..19 are expanded; by ``canonical_expansion``'s order rule each class
    n >= 20 is class n - 10 plus generator 5 (multiplier + 5, value and gap + 5a + 10d,
    order and c5 + 1), so the cost is O(a).  Fails loudly outside ``require_closed_form``.
    """
    require_closed_form(seed)
    a, g5 = seed.a, 5 * seed.a + 10 * seed.d
    records = [None] * (a - 1)  # sized first, so an a too large to list fails here, not mid-loop
    for n in range(1, min(a, 20)):
        records[n - 1] = _record(a, seed.d, n)
    for n in range(20, a):
        p = records[n - 11]
        c2, c3, c4, c5 = p.expansion
        records[n - 1] = _new_record(n, p.multiplier + 5, p.value + g5, p.gap + g5, p.order + 1, (c2, c3, c4, c5 + 1))
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
# six-generator conjectural formula
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


def apery_set_conjectured6(seed: ArithmeticSeed) -> list[int]:
    """Conjectured six-generator Apery values indexed by n (entry 0 is 0).

    Entry n is the conjectured least member of the class of n*d mod a.  The
    formula is unproven; the sweep harness compares it against the oracle and
    records verdicts without asserting them.
    """
    if seed.m != 6:
        raise DomainError("closedFormUnavailable", f"conjectured set needs m == 6, got m == {seed.m}")
    return [degree * seed.a + n * seed.d for n, degree in enumerate(least_degrees(6, seed.a - 1))]
