"""Closed-form pseudo-Frobenius sets, Frobenius numbers, and type.

Valid for the five-generator family with a >= 11.  PF(S) is w - a over the
Apery elements w that are maximal in Ap(S, a) (Rosales & Garcia-Sanchez,
*Numerical Semigroups*, ch. 2).  ``pseudo_frobenius_oracle`` applies that rule
to the oracle's Apery set; here it runs on the closed form: class n is maximal
when no step of ``family._steps`` takes w_n to an Apery element (class 0 holds
0), and only ``family._pf_window`` can hold one, as the ``family`` docstring
proves, so about 5(q + T) class values are read, O(1) in a.  The Frobenius
number is the largest pseudo-Frobenius gap.
"""

from __future__ import annotations

from typing import NamedTuple

from .family import ArithmeticSeed, _pf_window, _record, _steps, partial_sum_generators, require_closed_form


class PFResult(NamedTuple):
    """Pseudo-Frobenius set, Frobenius number, type, and which path produced it."""

    pf: tuple[int, ...]
    frobenius: int
    type_count: int
    # "largeA" for a >= 20, else "smallA"; one rule computes both, and the
    # names are kept because the output reports them
    source_path: str


def pseudo_frobenius_set(seed: ArithmeticSeed) -> PFResult:
    """Closed-form pseudo-Frobenius data of the five-generator semigroup, by the module docstring's rule."""
    require_closed_form(seed)
    a, d = seed.a, seed.d
    window, steps = _pf_window(a), _steps(a, partial_sum_generators(seed))
    value = {n: _record(a, d, n).value for n in window | {(n + c) % a for n in window for c, _ in steps}}
    not_maximal = {n for n in window for c, g in steps if value[n] + g == value[(n + c) % a]}
    pf = tuple(sorted(value[n] - a for n in window - not_maximal))
    return PFResult(pf, max(pf), len(pf), "largeA" if a >= 20 else "smallA")
