"""Brute-force reference engine for numerical semigroups.

Everything here is exhaustive dynamic programming over an explicit generator
list: membership sieves, Apery sets, Frobenius and pseudo-Frobenius numbers,
and element orders.  The closed forms elsewhere in the package are always
cross-checked against these functions, so they stay deliberately simple and
exact (Python integers throughout).

Apery sets are shortest paths over the residues mod the base c, computed with
the round-robin algorithm of Boecker and Liptak ("A fast and simple algorithm
for the money changing problem", Algorithmica 48, 2007) in O(m * c) steps for
m generators; Frobenius and pseudo-Frobenius numbers are read off that list.

All functions are pure; generator lists are normalized to tuples.
"""

from __future__ import annotations

from functools import reduce
from math import gcd
from operator import index

from .errors import DomainError


def validate_generators(gens) -> tuple[int, ...]:
    """Normalize gens to a tuple, enforcing the generating-set invariants."""
    try:
        g = tuple(map(index, gens))  # an int or bool as an int; a float or str refused, not truncated
    except TypeError:
        raise DomainError("invalidGenerators", "generators must be ints") from None
    if any(x <= 0 for x in g):
        raise DomainError("invalidGenerators", "generators must be positive")
    if not g:
        raise DomainError("invalidGenerators", "generator list is empty")
    if any(y <= x for x, y in zip(g, g[1:])):
        raise DomainError("invalidGenerators", "generators must be strictly increasing")
    if reduce(gcd, g) != 1:
        raise DomainError("invalidGenerators", "generators must have gcd 1")
    return g


def membership_mask(gens, limit: int) -> int:
    """Bitmask with bit v set iff v <= limit is a nonnegative combination.

    Closure under adding one generator is done with doubling shifts, so the
    cost per generator is O(log(limit/g)) big-int operations.
    """
    cap = (1 << (limit + 1)) - 1
    mask = 1
    for g in gens:
        shift = g
        while shift <= limit:
            mask |= (mask << shift) & cap
            shift <<= 1
    return mask


def membership(s: int, gens) -> bool:
    """True iff s is a nonnegative integer combination of the generators."""
    g = validate_generators(gens)
    if not isinstance(s, int) or s < 0:
        raise DomainError("invalidElement", "semigroup elements are nonnegative ints")
    return bool(membership_mask(g, s) >> s & 1)


def apery_oracle(gens, c: int) -> list[int]:
    """Least semigroup element in each residue class mod c, indexed by residue.

    Entry 0 is 0.  Raises ``aperyBaseNotInSemigroup`` when c is not a nonzero
    element of the semigroup.

    Round-robin residue DP (Boecker and Liptak, Algorithmica 48, 2007): adding
    generator x joins residue r to r + x mod c, which splits the residues into
    gcd(c, x) cycles.  Each cycle is walked once from its least known entry,
    relaxing every successor, so the whole set costs O(m * c) steps.
    """
    g = validate_generators(gens)
    if not isinstance(c, int) or c <= 0 or not (membership_mask(g, c) >> c & 1):
        raise DomainError("aperyBaseNotInSemigroup", f"{c!r} is not a nonzero semigroup element")
    # A least element is a sum of at most c - 1 generators (a shortest path
    # visits each residue once), so c * g[-1] exceeds every finite entry.
    unset = c * g[-1]
    out = [unset] * c
    out[0] = 0
    for x in g:
        step = x % c
        if step == 0:
            continue  # x only revisits its own class at a larger value
        k = gcd(c, step)
        for first in range(k):
            # the cycle of first is first, first + k, first + 2k, ... (mod c)
            cycle = out[first::k]
            cur = min(cycle)
            if cur == unset:
                continue
            r = first + k * cycle.index(cur)  # cur carries the entry just relaxed
            for _ in range(c // k - 1):
                r += step
                if r >= c:
                    r -= c
                cur += x
                known = out[r]
                if known < cur:
                    cur = known
                else:
                    out[r] = cur
    return out


def frobenius_oracle(gens) -> int:
    """Largest integer outside the semigroup; -1 when the semigroup is all of N."""
    g = validate_generators(gens)
    return max(apery_oracle(g, g[0])) - g[0]


def orders_up_to(gens, limit: int) -> list[int]:
    """Orders of 0..limit: the largest k with v a sum of k generators; -1 if none.

    The generators are assumed sorted increasing (validate_generators output).
    """
    orders = [-1] * (limit + 1)
    orders[0] = 0
    for v in range(1, limit + 1):
        best = -1
        for g in gens:
            if g > v:
                break
            prev = orders[v - g]
            if prev >= 0 and prev + 1 > best:
                best = prev + 1
        orders[v] = best
    return orders


def order_oracle(s: int, gens) -> int:
    """Maximum number of generators, with repetition, summing to s."""
    g = validate_generators(gens)
    if not isinstance(s, int) or s < 0:
        raise DomainError("invalidElement", "semigroup elements are nonnegative ints")
    o = orders_up_to(g, s)[s]
    if o < 0:
        raise DomainError("notMember", f"{s} is not in the semigroup")
    return o


def pseudo_frobenius_oracle(gens) -> tuple[int, ...]:
    """Gaps x with x + s inside the semigroup for every nonzero element s.

    PF(S) is the set of w - a over the Apery elements w in Ap(S, a), a the
    multiplicity, that are maximal under w <= w' iff w' - w is in S
    (Rosales and Garcia-Sanchez, *Numerical Semigroups*, Springer 2009,
    ch. 2).  Since Ap(S, a) is closed under S-divisors, w is maximal iff
    w + g lies outside it for every generator g != a: w is maximal iff it
    is outside the set {w' - g : w' in Ap(S, a), g != a}, built once in
    O(m * a).
    """
    g = validate_generators(gens)
    a = g[0]
    ap = apery_oracle(g, a)
    not_maximal = {w - x for x in g[1:] for w in ap}
    return tuple(sorted(w - a for w in ap if w not in not_maximal))


def is_minimal_generating(gens) -> bool:
    """True iff no generator is a combination of the others."""
    g = validate_generators(gens)
    for i, x in enumerate(g):
        others = g[:i] + g[i + 1 :]
        if membership_mask(others, x) >> x & 1:
            return False
    return True

