"""Closed-form pseudo-Frobenius sets, Frobenius numbers, and type.

Valid for the five-generator family with a >= 11.  The pseudo-Frobenius
gaps sit at fixed index offsets below a that depend only on a mod 10, plus
the two fixed classes 5 and 8.  For 11 <= a <= 19 this is the same rule with
the offsets that reach index 8 or below dropped: the small-a lists are its
q = 1 case.  The Frobenius number is the largest pseudo-Frobenius gap.
Every table here is verified against the brute-force oracle over the
acceptance grid.
"""

from __future__ import annotations

from dataclasses import dataclass

from .family import ArithmeticSeed, _record, require_closed_form

# Index offsets i such that gap(a - i) is pseudo-Frobenius, keyed by a mod 10;
# below a = 20 only those with a - i > 8 count.  Offset 7 is absent for
# residue 3: gap(a-1) - gap(a-7) equals the degree-4 generator, so gap(a-7)
# is never maximal.
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


@dataclass(frozen=True)
class PFResult:
    """Pseudo-Frobenius set, Frobenius number, type, and which path produced it."""

    pf: tuple[int, ...]
    frobenius: int
    type_count: int
    # "largeA" for a >= 20, else "smallA"; one rule computes both, and the
    # names are kept because the output reports them
    source_path: str


def pseudo_frobenius_set(seed: ArithmeticSeed) -> PFResult:
    """Closed-form pseudo-Frobenius data of the five-generator semigroup."""
    require_closed_form(seed)
    a, d = seed.a, seed.d
    indices = {a - i for i in PF_OFFSETS_BY_RESIDUE[a % 10] if a - i > 8} | {5, 8}
    pf = tuple(sorted(_record(a, d, n).gap for n in indices))
    return PFResult(pf, max(pf), len(pf), "largeA" if a >= 20 else "smallA")
