"""Apery table, freeness check, and the tangent-cone decomposition.

Row s of the Apery table lists the least element of M^s, M the maximal
ideal, in each class; column n is the class of n * d mod a.  The rows come
from a DP in column order, M^s = gens + M^(s-1), where generator j shifts the
column by C(j, 2) = 0, 1, 3, 6, 10, the closed form's digit steps, at O(m * a)
per row whatever d is; a column stays flat through the order of its Apery
class and then climbs by the multiplicity, so the class orders are read off.
The tangent cone is free over the fiber cone exactly when every column does
that, guard row included; any other flat step is torsion.  A decomposition
exists only for a free cone, as this family's is: its shifts are the class
orders and the order histogram doubles as the Hilbert series numerator.

``cone_decomposition`` is the one result per seed: it builds the table once,
refuses a non-free one, checks the order histogram against the closed form
and keeps the table; the reduction number, Hilbert numerator, ring flags and
JSON export are views of that decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import eq

from .errors import VerificationError
from .family import ArithmeticSeed, apery_records, partial_sum_generators
from .frobenius import semigroup_type
from .oracle import orders_up_to  # noqa: F401  unused; kept for the benchmark tracer's self-test


@dataclass(frozen=True)
class AperyTable:
    """Rows 0..top of the table plus one guard row used by the freeness check."""

    rows: tuple[tuple[int, ...], ...]
    guard_row: tuple[int, ...]
    orders: tuple[int, ...]  # last row keeping each column's row-0 value, 0 for column 0

    @property
    def top(self) -> int:
        return len(self.rows) - 1


def apery_table(seed: ArithmeticSeed) -> AperyTable:
    """Rows 0..top of the table plus a guard row, as a layered DP in column order.

    Row 0 is the Apery set, column n holding the class of n * d mod a.
    Generator g_j = j a + C(j, 2) d lies in the class of C(j, 2) d, so row s
    at column n is the min over j of g_j + row_(s-1)[(n - C(j, 2)) mod a]:
    one rotated copy of the previous row per generator.  The guard row is the
    first row s >= 2 where no column t >= 1 keeps its row-0 value, and a
    column's order is the last row keeping it.
    """
    shifts = [(j * (j - 1) // 2 % seed.a, g) for j, g in enumerate(partial_sum_generators(seed), 1)]
    level = (0, *(rec.value for rec in apery_records(seed)))
    rows = [level]
    while True:
        # each rotation puts row_(s-1)[(n - k) mod a] at column n
        level = tuple(map(min, *(map(g.__add__, level[-k:] + level[:-k]) for k, g in shifts)))
        if len(rows) >= 2 and not any(map(eq, level[1:], rows[0][1:])):
            break
        rows.append(level)
    # columns never decrease, so the rows keeping row 0 form a prefix
    orders = tuple(col.count(col[0]) - 1 for col in zip(*rows))
    return AperyTable(tuple(rows), level, orders)


def _non_free_column(table: AperyTable) -> int | None:
    """First column t >= 1 that is not free, or None when the cone is free.

    A column never decreases, guard row included, so its flat steps number
    len(col) - len(set(col)).  The first `order` steps are flat by the
    definition of the order, and the column is free when no other step is.
    """
    for t, col in enumerate(zip(*table.rows, table.guard_row)):
        if t and len(col) - len(set(col)) != table.orders[t]:
            return t
    return None


def _histogram(orders) -> list[int]:
    """t_k: number of classes of each order k."""
    counts = [0] * (max(orders) + 1)
    for k in orders:
        counts[k] += 1
    return counts


def order_histogram_closed(a: int) -> list[int]:
    """Closed-form t_k from the residue of a mod 10, trailing zeros stripped."""
    q, r = divmod(a, 10)
    out = {0: 1, 1: 4}
    near_top = {0: 5, 1: 5, 2: 6, 3: 7, 4: 8, 5: 8, 6: 8, 7: 9, 8: 9, 9: 9}
    at_top = {0: 0, 1: 0, 2: 0, 3: 0, 4: 0, 5: 1, 6: 2, 7: 2, 8: 3, 9: 4}
    for k in range(2, q + 3):
        if k < q:
            base = 10
        elif k == q:
            base = 10 if r > 0 else 9
        elif k == q + 1:
            base = near_top[r]
        else:
            base = at_top[r]
        # small orders lose/gain classes where the top triangular digit can vanish
        out[k] = base + {2: -1, 3: 2}.get(k, 0)
    ks = sorted(out)
    while ks and out[ks[-1]] == 0:
        out.pop(ks.pop())
    return [out[k] for k in ks]


@dataclass(frozen=True)
class ConeDecomposition:
    """The tangent cone as a free module over the fiber cone.

    The one result per seed: it keeps the Apery table it was read from, and
    every other cone invariant is a view of it.
    """

    seed: ArithmeticSeed
    table: AperyTable
    t_counts: tuple[int, ...]
    shifts: tuple[int, ...]  # multiset of free-summand shifts, sorted
    reduction_formula: int
    reduction_computed: int


def cone_decomposition(seed: ArithmeticSeed) -> ConeDecomposition:
    """Build the table once and decompose the cone from it.

    A non-free table is refused.  The direct t_k, counted from the class
    orders read off the table, is cross-checked against the closed form.
    """
    table = apery_table(seed)
    column = _non_free_column(table)
    if column is not None:
        raise VerificationError("nonFreeCone", f"column {column} is not free at (a, d) = ({seed.a}, {seed.d})")
    direct = _histogram(table.orders)
    closed = order_histogram_closed(seed.a)
    if direct != closed:
        raise VerificationError(
            "tCountMismatch",
            f"direct orders {direct} != closed form {closed} at (a, d) = ({seed.a}, {seed.d})",
        )
    return ConeDecomposition(seed, table, tuple(direct), tuple(sorted(table.orders)),
                             reduction_formula=seed.a // 10 + 1, reduction_computed=table.top)


def reduction_number(seed: ArithmeticSeed) -> tuple[int, int]:
    """(formula value, computed value) of the reduction number.

    The computed value is the maximum Apery class order, valid because the
    cone is free (each column flat through its order, then climbing).  The
    formula floor(a/10) + 1 undercounts whenever classes of order
    floor(a/10) + 2 exist; both values are reported and disagreement is data,
    not an error.
    """
    dec = cone_decomposition(seed)
    return dec.reduction_formula, dec.reduction_computed


def hilbert_numerator(seed: ArithmeticSeed) -> tuple[int, ...]:
    """Coefficients of the cone's Hilbert series numerator over (1 - x).

    Equals the order histogram; the upper index is the maximum class order.
    """
    return cone_decomposition(seed).t_counts


def ring_properties(dec: ConeDecomposition) -> dict:
    """Cohen-Macaulay / Gorenstein / Buchsbaum flags of a decomposed cone.

    A decomposed cone is free, hence Cohen-Macaulay and so Buchsbaum; it is
    Gorenstein exactly when the type is 1 (never the case here, the type is
    at least 4).
    """
    return {"cohenMacaulay": True, "gorenstein": semigroup_type(dec.seed) == 1, "buchsbaum": True}


# ----------------------------------------------------------------------
# exports
# ----------------------------------------------------------------------

def cone_to_json(dec: ConeDecomposition) -> dict:
    """JSON-ready view of a decomposition: table rows, t-vector, freeness, shifts, reduction data."""
    return {
        "rows": [list(row) for row in dec.table.rows],
        "tCounts": list(dec.t_counts),
        "free": True,
        "shifts": list(dec.shifts),
        "torsion": [],
        "reductionNumber": {
            "formula": dec.reduction_formula,
            "computed": dec.reduction_computed,
        },
        "hilbert": {
            "numerator": list(dec.t_counts),
            "denominator": "1-x",
        },
    }
