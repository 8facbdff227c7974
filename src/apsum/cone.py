"""The certified Apery table: the one cone result per seed.

Row s of the Apery table lists the least element of M^s, M the maximal
ideal, in each class; column n is the class of n * d mod a.  The cone is
free over the fiber cone exactly when every column stays flat through the
order of its Apery class and then climbs by a, guard row included.
``apery_table`` certifies that shape from the closed records against the
layered DP M^s = gens + M^(s-1) over ``family._cone_columns``, refusing a
non-free cone, and checks its orders' histogram against the class-order
rule.  The O(a^2 / T) rows are built only where they are read.
As the cone is free, every cone invariant is a view of the table: the
shifts are the class orders, their histogram ``t_counts`` is the Hilbert
numerator, and the top order is the reduction number; ``ring_properties``
and ``cone_to_json`` read the table.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from .errors import DomainError, VerificationError
from .family import ArithmeticSeed, _cone_columns, _steps, apery_records, partial_sum_generators
from .frobenius import pseudo_frobenius_set
from .oracle import orders_up_to  # noqa: F401  unused; kept for the benchmark tracer's self-test


class AperyTable(NamedTuple):
    """The certified table of a seed: row 0, the column orders and their
    histogram.  Row s at column n is values[n] + max(0, s - orders[n]) * a,
    a the number of columns; ``columns`` is the one place this is written."""

    seed: ArithmeticSeed
    values: tuple[int, ...]  # row 0: the Apery set in column order
    orders: tuple[int, ...]  # last row keeping each column's row-0 value, 0 for column 0
    # the order histogram, which is also the Hilbert series numerator over
    # (1 - x); its upper index is the maximum class order
    t_counts: tuple[int, ...]

    @property
    def top(self) -> int:
        """The reduction number as computed: the maximum class order, valid because the cone is free."""
        return len(self.t_counts) - 1

    @property
    def shifts(self) -> tuple[int, ...]:
        """The multiset of free-summand shifts, sorted: the class orders."""
        return tuple(sorted(self.orders))

    @property
    def reduction_formula(self) -> int:
        """The reduction number by the formula floor(a/10) + 1.

        It undercounts whenever classes of order floor(a/10) + 2 exist; both
        it and ``top`` are reported and a disagreement is data, not an error.
        """
        return self.seed.a // 10 + 1

    def columns(self, render) -> list[tuple]:
        """Column n: render((w_n,)), made once, through row o_n, then render(the climb by a); ints to cell tuples."""
        a, top = len(self.values), self.top
        return [render((w,)) * (o + 1) + render(range(w + a, w + (top - o) * a + 1, a))
                for w, o in zip(self.values, self.orders)]

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The rows, zipped from ``columns`` anew on each read."""
        return tuple(zip(*self.columns(tuple)))


def apery_table(seed: ArithmeticSeed) -> AperyTable:
    """The table of the closed records, certified against the layered DP,
    with the histogram of its orders checked against the class-order rule.

    With w_n, o_n from the records (w_0 = o_0 = 0) the table is
    P_s[n] = w_n + max(0, s - o_n) a.  The DP row s >= 1 at column n is the
    min over j of g_j + row_(s-1)[n'], n' = (n - C(j, 2)) mod a, as g_j lies
    in the class of C(j, 2) d.  Let delta = (g_j + w_n' - w_n) / a and check
    (i) delta is an integer, so each column keeps to its class,
    (ii) delta >= max(0, o_n' + 1 - o_n), and
    (iii) for n >= 1 some j has delta = 0 and o_n' = o_n - 1.
    Given (i), P is the DP at every row iff (ii) and (iii) hold.
    By induction on s: g_j + P_(s-1)[n'] - P_s[n] = a f_j(s), where
    f_j(s) = delta + max(0, s - 1 - o_n') - max(0, s - o_n) bends only at
    o_n and o_n' + 1, so f_j >= 0 on s >= 1 (at s = 1 and in the limit) is
    (ii).  Generator 1 (delta = 1) has f_1(s) = 0 for s > o_n; for s <= o_n,
    f_j(s) = 0 needs delta = 0 and o_n' >= s - 1, so one j serves every s iff
    o_n' >= o_n - 1, capped at o_n - 1 by (ii): (iii), which also asks
    o_n >= 1, as w_n != 0 lies in M.  Columns keep w_n through o_n, so top
    is max o_n.  The columns of ``family._cone_columns`` suffice (proof there).
    """
    records = apery_records(seed)
    w, o, a = (0, *(rec.value for rec in records)), (0, *(rec.order for rec in records)), seed.a
    # generator 1 passes (i) and (ii) everywhere; w[n - k] wraps to class (n - k) mod a
    steps = _steps(a, partial_sum_generators(seed))
    for n in _cone_columns(a, w, o, steps[-1][1]):
        checks = [(divmod(g + w[n - k] - w[n], a), o[n - k] - o[n]) for k, g in steps]
        if not all(rem == 0 and delta >= max(0, gap + 1) for (delta, rem), gap in checks) or (
                n and ((0, 0), -1) not in checks):
            raise VerificationError("nonFreeCone", f"column {n} is not free at (a, d) = ({seed.a}, {seed.d})")
    direct = _histogram(o)
    closed = order_histogram_closed(a)
    if direct != closed:
        raise VerificationError(
            "tCountMismatch",
            f"orders of the records {direct} != class-order rule {closed} at (a, d) = ({seed.a}, {seed.d})",
        )
    return AperyTable(seed, w, o, tuple(direct))


def _histogram(orders) -> list[int]:
    """t_k: number of classes of each order k."""
    counts = [0] * (max(orders) + 1)
    for k in orders:
        counts[k] += 1
    return counts


def order_histogram_closed(a: int) -> list[int]:
    """Closed-form t_k: the classes 0 <= n < a counted by their order.

    Class r <= 9 has order o_r = r % 3 + r % 6 // 3 + r // 6, the sum of its
    digits in the mixed radix 10, 6, 3, 1.  Class 10j + r, j >= 1, has order
    o_r + j, less one where r % 3 == 2: there the least-degree expansion
    rewrites digits (2, c3, c4, c5) to (0, c3, c4 + 2, c5 - 1).  So each
    residue is one class and one run of consecutive orders, counted by their
    edges in O(a / 10).  It reads no record, so it checks the records' orders.
    Raises ``invalidSeed`` for a non-int a or a < 1.
    """
    if not isinstance(a, int) or a < 1:
        raise DomainError("invalidSeed", f"a must be an int at least 1, got {a!r}")
    edges = [0] * (a // 10 + 5)
    for r in range(min(a, 10)):
        o, rewrite = r % 3 + r % 6 // 3 + r // 6, r % 3 == 2
        for lo, hi in ((o, o + 1), (o + 1 - rewrite, o + 1 - rewrite + (a - 1 - r) // 10)):
            edges[lo] += 1
            edges[hi] -= 1
    counts = list(accumulate(edges))
    while not counts[-1]:
        counts.pop()
    return counts


def ring_properties(table: AperyTable) -> dict:
    """Cohen-Macaulay / Gorenstein / Buchsbaum flags of a certified cone.

    A certified cone is free, hence Cohen-Macaulay and so Buchsbaum; it is
    Gorenstein exactly when the type is 1 (never the case here, the type is
    at least 4).
    """
    gorenstein = pseudo_frobenius_set(table.seed).type_count == 1
    return {"cohenMacaulay": True, "gorenstein": gorenstein, "buchsbaum": True}


# ----------------------------------------------------------------------
# exports
# ----------------------------------------------------------------------

def cone_to_json(table: AperyTable, rows=None) -> dict:
    """JSON-ready view of a certified table: rows (``rows`` if given), t-vector, freeness, shifts, reduction data."""
    return {
        "rows": [list(row) for row in table.rows] if rows is None else rows,
        "tCounts": list(table.t_counts),
        "free": True,
        "shifts": list(table.shifts),
        "torsion": [],
        "reductionNumber": {
            "formula": table.reduction_formula,
            "computed": table.top,
        },
        "hilbert": {
            "numerator": list(table.t_counts),
            "denominator": "1-x",
        },
    }
