"""Semigroups generated by partial sums of an arithmetic progression.

For coprime a, d > 0 the generators are the partial sums

    s_n = n * (2a + (n - 1) d) / 2,   n = 1..m,

i.e. a, 2a+d, 3a+3d, 4a+6d, 5a+10d, ...  Generator k is k*a + C(k, 2)*d,
so an expansion of the class index n writes n as a sum of the triangular
numbers C(k, 2).  With five generators the Apery set with respect to a
admits a closed form: class n's least member is L(n)*a + n*d, L(n) the least
degree of an expansion of n (``least_degrees``), whose unique expansion is
the element's.  The six-generator analogue takes L(n) over 1, 3, 6, 10, 15
times a, plus n*d.  It is conjectural: the gamma6 sweep verdict reads it and
compares it with the oracle, and nothing asserts it.

The class rule (``_class_rule``), read by every closed form, is built once at import:
from q = 9 on, class n + T, T = C(5, 2) = 10, is class n plus one generator 5, so
w_(n+T) = w_n + g_5 and o_(n+T) = o_n + 1, w_n and o_n the value and order of class n
(w_0 = o_0 = 0).  As g_k lies in the class of C(k, 2)*d, w_n + g_k is an Apery element
iff it is w of class n + C(k, 2) mod a; ``_steps`` lists these steps (C(k, 2) mod a, g_k).
- PF's window, ``_pf_window``: by the rule only {1..q-1} | {a-T..a-1} can hold maximal
  classes, as for q <= n < a - T the step by g_5 takes w_n to the Apery element w_(n+T).
- The cone certificate's columns, ``_cone_columns``: if every step into a class m >= q + T
  adds (g_5, 1) (one O(a) check at C speed), then for n >= q + 2T, so a > q + 2T and
  k = C(j, 2) mod a <= T, n - k >= q + T and n - T - k >= q index without wrapping, and
  w, o at n and at each n - k exceed those at n - T and n - T - k by the same g_5 and 1:
  column n has the deltas and gaps of column n - T and fails iff it does.  So the first
  failing column lies below min(a, q + 2T), and checking those columns in order raises
  the same ``nonFreeCone`` as a scan of every column.  If some step breaks the rule,
  every column is checked; the closed records keep it.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd
from operator import eq
from typing import NamedTuple

from .errors import DomainError
from .oracle import apery_oracle, validate_generators


class _Seed(NamedTuple):
    a: int
    d: int
    m: int = 5


class ArithmeticSeed(_Seed):
    """The pair (a, d) with gcd 1, plus the number of generators m."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # namedtuple's own, which _replace calls, skips __new__

    def __new__(cls, a: int, d: int, m: int = 5):
        for name, x, low, need in (("a", a, 2, "at least 2"), ("d", d, 1, "positive"), ("m", m, 2, "at least 2")):
            if not isinstance(x, int):
                raise DomainError("invalidSeed", f"{name} must be an int, got {x!r}")
            if x < low:
                raise DomainError("invalidSeed", f"{name} must be {need}, got {x}")
        if gcd(a, d) != 1:
            raise DomainError("notCoprime", f"gcd({a}, {d}) != 1")
        return super().__new__(cls, a, d, m)


def partial_sum_generators(seed: ArithmeticSeed) -> tuple[int, ...]:
    """The m partial-sum generators of the seed, strictly increasing."""
    gens = tuple(n * (2 * seed.a + (n - 1) * seed.d) // 2 for n in range(1, seed.m + 1))
    return validate_generators(gens)


def canonical_expansion(n: int) -> tuple[int, int, int, int]:
    """Coefficients (c2, c3, c4, c5) of class n's least-degree expansion, by the class rule."""
    if not isinstance(n, int) or n < 0:
        raise DomainError("invalidElement", f"canonical expansions need an int n >= 0, got {n!r}")
    return _record(0, 0, n).expansion


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
    """Whether the five-generator closed forms cover the seed: m == 5 and minimal generators (a >= 11)."""
    return seed.m == 5 and minimality_check(seed)


def require_closed_form(seed: ArithmeticSeed) -> None:
    """Refuse seeds outside ``has_closed_form``, naming the condition missed."""
    if seed.m != 5:
        raise DomainError("closedFormUnavailable", f"closed form needs m == 5, got m == {seed.m}")
    if not minimality_check(seed):
        raise DomainError("belowMinimalityThreshold", f"closed form needs a >= 11, got a == {seed.a}")


def least_degrees(m: int, top: int) -> list[int]:
    """Entry n, 0 <= n <= top: the least degree sum k*c_k over c_2..c_m >= 0
    with sum c_k*C(k, 2) = n.

    Generator k is k*a + C(k, 2)*d, so entry n times a, plus n*d, is the
    least value an expansion of class index n can reach.  A coin DP over the
    coins C(k, 2) with weights k, O(m * top).
    """
    if not isinstance(m, int) or m < 2:
        raise DomainError("invalidSeed", f"least degrees need an int m >= 2, got {m!r}")
    if not isinstance(top, int) or top < 0:
        raise DomainError("invalidElement", f"least degrees need an int top >= 0, got {top!r}")
    least = list(range(0, 2 * top + 1, 2))  # n ones: C(2, 2) = 1 at degree 2
    for k in range(3, m + 1):
        coin = k * (k - 1) // 2
        for n in range(coin, top + 1):
            least[n] = min(least[n], least[n - coin] + k)
    return least


def _class_rule(m: int) -> tuple[int, int, tuple[tuple[int, int, tuple[int, ...]], ...]]:
    """The class rule of m generators: the period T = C(m, 2), its start q and the
    table of classes n < q + T, entry n (least degree, order, expansion c_2..c_m).

    With L = ``least_degrees(m, .)``, q is the least start with L(n + T) = L(n) + m
    for q <= n < q + T; this one window proves the step for every n >= q.  Each
    L(N) is the least L(N - C(k, 2)) + k over k = 2..m with C(k, 2) <= N, so it
    reads only entries at most T back.  For N >= q + T every k is allowed at N
    and at N + T, and each N - C(k, 2) lies in [q, N), so by induction on N,
    L(N + T) = min L(N - C(k, 2) + T) + k = L(N) + m.  Class n is class
    n - C(k, 2) plus generator k, for the largest k with L(n - C(k, 2)) + k = L(n);
    for class n + T, n >= q, that is k = m, so it is class n plus one generator m:
    degree + m, order + 1, c_m + 1.  At m = 5 the expansions are unique, T = 10, q = 9.
    """
    coin = [k * (k - 1) // 2 for k in range(m + 1)]
    T = coin[m]
    least = least_degrees(m, 3 * T)
    q = next(q for q in range(T + 1) if all(least[n + T] == least[n] + m for n in range(q, q + T)))
    classes = [(0, 0, (0,) * (m - 1))]
    for n in range(1, q + T):
        k = max(k for k in range(2, m + 1) if coin[k] <= n and least[n - coin[k]] + k == least[n])
        _, order, exp = classes[n - coin[k]]
        classes.append((least[n], order + 1, (*exp[:k - 2], exp[k - 2] + 1, *exp[k - 1:])))
    return T, q, tuple(classes)


_M = 5
_T, _Q, _CLASSES = _class_rule(_M)


def _record(a: int, d: int, n: int) -> AperyRecord:
    """The record of class n >= 0: table class n - T*j plus j generators m, by the class rule."""
    j = (n - _Q) // _T if n >= _Q else 0
    mult, order, exp = _CLASSES[n - _T * j]
    mult += _M * j
    value = mult * a + n * d
    return AperyRecord(n, mult, value, value - a, order + j, exp[:-1] + (exp[-1] + j,))


def _steps(a: int, gens: tuple[int, ...]) -> list[tuple[int, int]]:
    return [(k * (k - 1) // 2 % a, g) for k, g in enumerate(gens[1:], 2)]


def _pf_window(a: int) -> set[int]:
    return {*range(1, _Q), *range(a - _T, a)}


def _cone_columns(a: int, w: tuple[int, ...], o: tuple[int, ...], gm: int) -> range:
    periodic = all(map(eq, w[_Q + _T:], map(gm.__add__, w[_Q:]))) and all(map(eq, o[_Q + _T:], map((1).__add__, o[_Q:])))
    return range(min(a, _Q + 2 * _T) if periodic else a)


def apery_records(seed: ArithmeticSeed) -> list[AperyRecord]:
    """Closed-form Apery set of the five-generator semigroup, classes 1..a-1.

    Filled along the period: by the class rule class n + T, n >= q, is class n plus
    generator m (multiplier + m, value and gap + g_m, order and c_m + 1), so for each
    r in q..q+T-1 the classes r, r + T, ... are zipped from ``range`` columns into records
    at C speed, with no Python frame per record, O(a).  Fails loudly outside
    ``require_closed_form``.
    """
    require_closed_form(seed)
    a, d, m, gm = seed.a, seed.d, seed.m, partial_sum_generators(seed)[-1]
    records = [None] * (a - 1)  # sized first, so an a too large to list fails here, not mid-fill
    records[:_Q - 1] = [_record(a, d, n) for n in range(1, _Q)]
    for r in range(_Q, min(a, _Q + _T)):
        _, mult, v, gap, o, exp = _record(a, d, r)
        k = len(range(r, a, _T))
        # AperyRecord._make's own step, tuple.__new__ over the zipped columns
        records[r - 1::_T] = map(tuple.__new__, repeat(AperyRecord), zip(
            range(r, a, _T), range(mult, mult + m * k, m), range(v, v + gm * k, gm),
            range(gap, gap + gm * k, gm), range(o, o + k), zip(*map(repeat, exp[:-1]), range(exp[-1], exp[-1] + k))))
    return records


def element_order(seed: ArithmeticSeed, v: int) -> int:
    """Order of v (the most generators summing to it), from one Apery record.

    The expansions are unique and the tangent cone is free, so by Garcia's
    criterion (Comm. Algebra 10, 1982) ord(v) = ord(w) + (v - w)/a, where w
    is the Apery element of v's class n = v * d^-1 mod a (class 0 has w = 0).
    O(1) in v.  Raises like ``order_oracle`` for a non-int or negative v and
    for v < w (not a member); fails loudly outside ``require_closed_form``.
    """
    require_closed_form(seed)
    if not isinstance(v, int) or v < 0:
        raise DomainError("invalidElement", "semigroup elements are nonnegative ints")
    rec = _record(seed.a, seed.d, v * pow(seed.d, -1, seed.a) % seed.a)  # class 0: w = 0, order 0
    if v < rec.value:
        raise DomainError("notMember", f"{v} is not in the semigroup")
    return rec.order + (v - rec.value) // seed.a


def apery_set_closed(seed: ArithmeticSeed) -> set[int]:
    """The closed-form Apery set as a plain set of values, 0 included."""
    return {0} | {rec.value for rec in apery_records(seed)}


class UniquenessViolation(NamedTuple):
    value: int
    count: int  # shadows tuple.count
    expansions: tuple[tuple[int, ...], ...]


class UniquenessReport(NamedTuple):
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
