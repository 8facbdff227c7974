"""Semigroups generated by partial sums of an arithmetic progression.

For coprime a, d > 0 the generators are the partial sums

    s_n = n * (2a + (n - 1) d) / 2,   n = 1..m,

i.e. a, 2a+d, 3a+3d, 4a+6d, 5a+10d, ...  With five generators the Apery set
with respect to a admits a closed form: writing the residue index n in the
mixed radix (10, 6, 3), the least member of its class is a digit-weighted
multiple of a plus n*d, and the digit vector doubles as the canonical
expansion over the non-multiplicity generators.  The six-generator analogue
uses the radix (15, 10, 6, 3) and is conjectural; it is exposed here for the
sweep harness, never asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import DomainError
from .oracle import (
    apery_oracle,
    is_minimal_generating,
    representation_counts,
    representations,
    validate_generators,
)


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


@dataclass(frozen=True)
class RadixDigits:
    """Digits of n in mixed radix (10, 6, 3): n = 10 q3 + 6 q2 + 3 q1 + r1."""

    q3: int
    r3: int
    q2: int
    r2: int
    q1: int
    r1: int


def radix_digits(n: int) -> RadixDigits:
    """Decompose n >= 0 into the (10, 6, 3) digit tuple."""
    if n < 0:
        raise DomainError("invalidElement", "radix digits need n >= 0")
    q3, r3 = divmod(n, 10)
    q2, r2 = divmod(r3, 6)
    q1, r1 = divmod(r2, 3)
    return RadixDigits(q3, r3, q2, r2, q1, r1)


def canonical_expansion(n: int) -> tuple[int, int, int, int]:
    """Coefficients (c2, c3, c4, c5) on the non-multiplicity generators.

    Generic digits give (r1, q1, q2, q3); when r1 == 2 and q3 > 0 the
    rewritten form (0, q1, q2 + 2, q3 - 1) trades two degree-2 generators and
    one degree-5 generator for two degree-4 ones, which lowers the degree
    (the multiplier of a) by one.
    """
    dig = radix_digits(n)
    if dig.r1 == 2 and dig.q3 > 0:
        return (0, dig.q1, dig.q2 + 2, dig.q3 - 1)
    return (dig.r1, dig.q1, dig.q2, dig.q3)


def _degree(expansion: tuple[int, int, int, int]) -> int:
    # generator k is k*a + (k choose 2)*d, so its coefficient of a is k
    c2, c3, c4, c5 = expansion
    return 2 * c2 + 3 * c3 + 4 * c4 + 5 * c5


def apery_multiplier(n: int) -> int:
    """Coefficient of a in the least class member.

    The (2, 3, 4, 5)-weighted degree of ``canonical_expansion(n)``.
    """
    return _degree(canonical_expansion(n))


@dataclass(frozen=True)
class AperyValues:
    """Multiplier, least class member, and its gap candidate (value - a)."""

    multiplier: int
    value: int
    gap: int


def apery_values(seed: ArithmeticSeed, n: int) -> AperyValues:
    """Closed-form Apery data for residue index 1 <= n <= a-1."""
    if not 1 <= n <= seed.a - 1:
        raise DomainError("residueOutOfRange", f"need 1 <= n <= {seed.a - 1}, got {n}")
    mult = apery_multiplier(n)
    value = mult * seed.a + n * seed.d
    return AperyValues(mult, value, value - seed.a)


@dataclass(frozen=True)
class AperyRecord:
    """One Apery class of the five-generator semigroup."""

    n: int
    multiplier: int
    value: int
    gap: int
    order: int
    expansion: tuple[int, int, int, int]


def require_closed_form(seed: ArithmeticSeed) -> None:
    """Refuse seeds the five-generator closed forms do not cover.

    They need m == 5 and a >= 11: below that the generators are not minimal
    and the formulas have no backing.
    """
    if seed.m != 5:
        raise DomainError("closedFormUnavailable", f"closed form needs m == 5, got m == {seed.m}")
    if seed.a < 11:
        raise DomainError("belowMinimalityThreshold", f"closed form needs a >= 11, got a == {seed.a}")


def apery_records(seed: ArithmeticSeed) -> list[AperyRecord]:
    """Closed-form Apery set of the five-generator semigroup, classes 1..a-1.

    Each class is expanded once; its multiplier, value, gap and order are
    read off that expansion.  Fails loudly outside ``require_closed_form``.
    """
    require_closed_form(seed)
    a, d = seed.a, seed.d
    records = []
    for n in range(1, a):
        exp = canonical_expansion(n)
        mult = _degree(exp)
        value = mult * a + n * d
        records.append(AperyRecord(n, mult, value, value - a, sum(exp), exp))
    return records


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

    Expansions range over the generators other than c, each coefficient
    bounded by value // generator, so the count is complete by exhaustion.
    Witness expansions are enumerated only for violated values.
    """
    g = validate_generators(gens)
    ap = apery_oracle(g, c)
    expansion_gens = tuple(x for x in g if x != c)
    counts = representation_counts(expansion_gens, max(ap))
    violations = []
    for w in sorted(set(ap)):
        if counts[w] != 1:
            wits = tuple(representations(w, expansion_gens))
            violations.append(UniquenessViolation(w, counts[w], wits))
    return UniquenessReport(not violations, tuple(violations))


# ----------------------------------------------------------------------
# six-generator conjectural formula
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RadixDigits6:
    """Digits of n in mixed radix (15, 10, 6, 3), plus correction-set flags."""

    s4: int
    t4: int
    s3: int
    t3: int
    s2: int
    t2: int
    s1: int
    t1: int
    needs_unit_rebate: bool
    needs_triple_rebate: bool


def _in_rebate_set(n: int) -> bool:
    # {12} plus the three arithmetic progressions 20, 23, 27 mod 15
    if n == 12:
        return True
    return any(n >= base and (n - base) % 15 == 0 for base in (20, 23, 27))


def _in_triple_rebate_set(n: int) -> bool:
    return n >= 20 and (n - 20) % 15 == 0


def radix_digits6(n: int) -> RadixDigits6:
    """Decompose n >= 0 into the (15, 10, 6, 3) digit tuple with flags."""
    if n < 0:
        raise DomainError("invalidElement", "radix digits need n >= 0")
    s4, t4 = divmod(n, 15)
    s3, t3 = divmod(t4, 10)
    s2, t2 = divmod(t3, 6)
    s1, t1 = divmod(t2, 3)
    return RadixDigits6(
        s4, t4, s3, t3, s2, t2, s1, t1, _in_rebate_set(n), _in_triple_rebate_set(n)
    )


def apery_multiplier6(n: int) -> int:
    """Conjectured multiplier for six generators: weights (2,3,4,5,6) with rebates."""
    dig = radix_digits6(n)
    base = 2 * dig.t1 + 3 * dig.s1 + 4 * dig.s2 + 5 * dig.s3 + 6 * dig.s4
    if dig.needs_triple_rebate:
        return base - 3
    if dig.needs_unit_rebate:
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
