"""Closed-form pseudo-Frobenius sets, Frobenius numbers, and type.

Valid for the five-generator family with a >= 11.  PF(S) is w - a over the
Apery elements w that are maximal in Ap(S, a) (Rosales & Garcia-Sanchez,
*Numerical Semigroups*, ch. 2).  ``pseudo_frobenius_oracle`` applies that rule
to the oracle's Apery set; here it runs on the closed form, over the classes
{1..q-1} | {a-T..a-1} of the class rule (``family._class_rule``) only.  The
Frobenius number is the largest pseudo-Frobenius gap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .family import _Q, _T, ArithmeticSeed, _record, partial_sum_generators, require_closed_form


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
    """Closed-form pseudo-Frobenius data of the five-generator semigroup.

    The Apery element w_n of class index n is maximal when no w_n + g_k,
    g_k = k*a + C(k, 2)*d for k = 2..5, is again an Apery element.  w_n + g_k
    lies in class (n + C(k, 2)) mod a, so it is one exactly when it equals
    that class's value (class 0 holds 0).  Only the window
    {1..q-1} | {a-T..a-1} can hold maximal classes: for q <= n < a - T,
    class n + T is class n plus generator 5 by the class rule
    (``family._class_rule``), so w_(n+T) = w_n + g_5.  About 5(q + T) class
    values, O(1) in a.
    """
    require_closed_form(seed)
    a, d = seed.a, seed.d
    steps = [(g, k * (k - 1) // 2) for k, g in enumerate(partial_sum_generators(seed)[1:], 2)]
    window = {*range(1, _Q), *range(a - _T, a)}
    value = {n: _record(a, d, n).value for n in window | {(n + c) % a for n in window for _, c in steps}}
    not_maximal = {n for n in window for g, c in steps if value[n] + g == value[(n + c) % a]}
    pf = tuple(sorted(value[n] - a for n in window - not_maximal))
    return PFResult(pf, max(pf), len(pf), "largeA" if a >= 20 else "smallA")
