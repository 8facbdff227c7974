"""Closed-form pseudo-Frobenius sets, Frobenius numbers, and type.

Valid for the five-generator family with a >= 11.  For a >= 20 the
pseudo-Frobenius gaps sit at fixed index offsets below a that depend only on
a mod 10, plus the two fixed classes 5 and 8.  For 11 <= a <= 19 explicit
per-a lists apply.  The Frobenius number is the largest pseudo-Frobenius gap.
Every table here is verified against the brute-force oracle over the
acceptance grid.
"""

from __future__ import annotations

from dataclasses import dataclass

from .family import ArithmeticSeed, apery_values, require_closed_form

# Index offsets i such that gap(a - i) is pseudo-Frobenius, keyed by a mod 10
# (a >= 20).  Offset 7 is absent for residue 3: gap(a-1) - gap(a-7) equals
# the degree-4 generator, so gap(a-7) is never maximal.
PF_OFFSETS_BY_RESIDUE = {
    0: (1, 2, 3, 5, 6),
    1: (1, 2, 3, 4, 6, 7),
    2: (1, 3, 4, 5, 7, 8),
    3: (1, 2, 4, 5, 6, 8, 9),
    4: (1, 2, 3, 5, 6, 7, 9, 10),
    5: (1, 3, 6, 7, 8, 10),
    6: (1, 2, 8, 9),
    7: (1, 2, 3, 9, 10),
    8: (1, 3, 4, 10),
    9: (1, 2, 4, 5),
}

# Residue indices n whose gaps are pseudo-Frobenius for small a.
PF_INDICES_SMALL_A = {
    11: (9, 10, 5, 8),
    12: (9, 11, 5, 8),
    13: (9, 11, 12, 5, 8),
    14: (9, 11, 12, 13, 5, 8),
    15: (9, 12, 14, 5, 8),
    16: (14, 15, 5, 8),
    17: (14, 15, 16, 5, 8),
    18: (14, 15, 17, 5, 8),
    19: (14, 15, 17, 18, 5, 8),
}


@dataclass(frozen=True)
class PFResult:
    """Pseudo-Frobenius set, Frobenius number, type, and which path produced it."""

    pf: tuple[int, ...]
    frobenius: int
    type_count: int
    source_path: str  # "largeA" | "smallA"


def pseudo_frobenius_set(seed: ArithmeticSeed) -> PFResult:
    """Closed-form pseudo-Frobenius data of the five-generator semigroup."""
    require_closed_form(seed)
    a = seed.a
    if a >= 20:
        indices = [a - i for i in PF_OFFSETS_BY_RESIDUE[a % 10]] + [5, 8]
        source = "largeA"
    else:
        indices = list(PF_INDICES_SMALL_A[a])
        source = "smallA"
    pf = tuple(sorted(apery_values(seed, n).gap for n in indices))
    return PFResult(pf, max(pf), len(pf), source)


def frobenius_number(seed: ArithmeticSeed) -> int:
    """Closed-form Frobenius number: the largest pseudo-Frobenius gap."""
    return pseudo_frobenius_set(seed).frobenius


def semigroup_type(seed: ArithmeticSeed) -> int:
    """Number of pseudo-Frobenius gaps."""
    return pseudo_frobenius_set(seed).type_count
