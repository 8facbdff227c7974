"""Semigroups generated by partial sums of an arithmetic progression.

For coprime a, d > 0 the generators are the partial sums

    s_n = n * (2a + (n - 1) d) / 2,   n = 1..m,

i.e. a, 2a+d, 3a+3d, 4a+6d, 5a+10d, ...  Generator k is k*a + C(k, 2)*d,
so an expansion of the class index n is n written in greedy digits over the
triangular numbers C(k, 2) (``triangular_digits``).  With five generators the
Apery set with respect to a admits a closed form: over the digits 10, 6, 3, 1
(plus one rewrite), the least member of class n is the digit-weighted
multiple of a plus n*d, and the digits are its canonical expansion over the
non-multiplicity generators.  The six-generator analogue uses the digits
15, 10, 6, 3, 1 with rebates and is conjectural; it is exposed here for the
sweep harness, never asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import gcd
from operator import mul

from .errors import DomainError
from .oracle import apery_oracle, is_minimal_generating, validate_generators


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
    the degree (the multiplier of a) by one.
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


def has_closed_form(seed: ArithmeticSeed) -> bool:
    """Whether the five-generator closed forms cover the seed.

    They need m == 5 and a >= 11: below that the generators are not minimal
    and the formulas have no backing.
    """
    return seed.m == 5 and seed.a >= 11


def require_closed_form(seed: ArithmeticSeed) -> None:
    """Refuse seeds outside ``has_closed_form``, naming the condition missed."""
    if has_closed_form(seed):
        return
    if seed.m != 5:
        raise DomainError("closedFormUnavailable", f"closed form needs m == 5, got m == {seed.m}")
    if seed.a < 11:
        raise DomainError("belowMinimalityThreshold", f"closed form needs a >= 11, got a == {seed.a}")


def _record(a: int, d: int, n: int) -> AperyRecord:
    # one class expanded once; multiplier, value, gap and order read off it
    exp = canonical_expansion(n)
    mult = _degree(exp)
    value = mult * a + n * d
    return AperyRecord(n, mult, value, value - a, sum(exp), exp)


def apery_values(seed: ArithmeticSeed, n: int) -> AperyRecord:
    """Closed-form Apery record of residue index 1 <= n <= a-1.

    Fails loudly outside ``require_closed_form``.
    """
    require_closed_form(seed)
    if not 1 <= n <= seed.a - 1:
        raise DomainError("residueOutOfRange", f"need 1 <= n <= {seed.a - 1}, got {n}")
    return _record(seed.a, seed.d, n)


def apery_records(seed: ArithmeticSeed) -> list[AperyRecord]:
    """Closed-form Apery set of the five-generator semigroup, classes 1..a-1.

    Fails loudly outside ``require_closed_form``.
    """
    require_closed_form(seed)
    return [_record(seed.a, seed.d, n) for n in range(1, seed.a)]


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


def minimality_check(seed: ArithmeticSeed) -> bool:
    """Whether the partial sums minimally generate their semigroup.

    For m == 5 the closed criterion is a >= 11; other embedding dimensions
    use the membership oracle (no generator lies in the semigroup of the
    others).
    """
    if seed.m == 5:
        return seed.a >= 11
    return is_minimal_generating(partial_sum_generators(seed))


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

def apery_multiplier6(n: int) -> int:
    """Conjectured multiplier for six generators.

    The (2, 3, 4, 5, 6)-weighted degree of ``triangular_digits(n, 6)``, less
    a rebate: with n = 15q + r it is 3 when q > 0 and r == 5, and 1 when
    r == 12 or when q > 0 and r == 8.
    """
    base = _degree(triangular_digits(n, 6))
    q, r = divmod(n, 15)
    if q and r == 5:
        return base - 3
    if r == 12 or (q and r == 8):
        return base - 1
    return base


def apery_set_conjectured6(seed: ArithmeticSeed) -> list[int]:
    """Conjectured six-generator Apery values indexed by n (entry 0 is 0).

    Entry n is the conjectured least member of the class of n*d mod a.  The
    formula is unproven; the sweep harness compares it against the oracle and
    records verdicts without asserting them.
    """
    if seed.m != 6:
        raise DomainError("closedFormUnavailable", f"conjectured set needs m == 6, got m == {seed.m}")
    return [0] + [apery_multiplier6(n) * seed.a + n * seed.d for n in range(1, seed.a)]
