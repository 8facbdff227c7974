"""Apery table, ladder analysis, and the tangent-cone decomposition.

Row s of the Apery table lists, per residue class, the least element of the
s-fold sumset of the nonzero elements; a column stays flat while the class
representative keeps qualifying and then climbs by the multiplicity each row.
Columns read as ladders: a flat stretch of length >= 1 is a landing, and a
landing starting below row 0 ("true landing") signals a torsion summand in
the associated graded ring.  For this family every column is a single
landing from row 0, the cone is a free module over the fiber cone, and the
order histogram doubles as the Hilbert series numerator.

``cone_decomposition`` is the one result per seed: it builds the table once
and keeps it, and the reduction number, Hilbert numerator, ring flags and
JSON export are views of that decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, VerificationError
from .family import ArithmeticSeed, apery_records, partial_sum_generators
from .frobenius import semigroup_type
from .oracle import orders_up_to


@dataclass(frozen=True)
class AperyTable:
    """Rows 0..top of the table plus one guard row used by the freeness check."""

    seed: ArithmeticSeed
    rows: tuple[tuple[int, ...], ...]
    guard_row: tuple[int, ...]
    orders: tuple[int, ...]  # order of each column's Apery class, 0 for column 0

    @property
    def top(self) -> int:
        return len(self.rows) - 1


def apery_table(seed: ArithmeticSeed) -> AperyTable:
    """Build the table with rows 0..(max class order), plus a guard row.

    Row 0 is the Apery set (0 in column 0); row 1 replaces the 0 by the
    multiplicity; row s+1 keeps an entry that lies in the (s+1)-fold sumset
    and bumps it by the multiplicity otherwise.
    """
    a = seed.a
    records = apery_records(seed)
    top = max(rec.order for rec in records)
    gens = partial_sum_generators(seed)
    limit = max(rec.value for rec in records) + (top + 2) * a
    orders = orders_up_to(gens, limit)

    row0 = (0,) + tuple(rec.value for rec in records)
    row1 = (a,) + row0[1:]
    rows = [row0, row1]
    for s in range(2, top + 2):
        rows.append(tuple(v if orders[v] >= s else v + a for v in rows[-1]))
    guard = rows.pop()
    return AperyTable(seed, tuple(rows), guard, (0,) + tuple(rec.order for rec in records))


@dataclass(frozen=True)
class Landing:
    start: int
    end: int

    @property
    def length(self) -> int:
        return self.end - self.start

    @property
    def is_true(self) -> bool:
        return self.start >= 1


@dataclass(frozen=True)
class ColumnLadder:
    """Landing decomposition of one column."""

    column: int
    landings: tuple[Landing, ...]
    p: int  # number of landings minus one
    d: int  # end row of the last landing
    torsion: tuple[tuple[int, int], ...]  # (shift b_j, length c_j) per true landing

    @property
    def free_shaped(self) -> bool:
        return len(self.landings) == 1 and self.landings[0].start == 0


def _column_landings(values: tuple[int, ...]) -> tuple[Landing, ...]:
    """Maximal flat stretches of length >= 1 in a nondecreasing sequence."""
    landings = []
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[j + 1] == values[i]:
            j += 1
        if j > i:
            landings.append(Landing(i, j))
        i = j + 1
    return tuple(landings)


@dataclass(frozen=True)
class LadderAnalysis:
    columns: tuple[ColumnLadder, ...]

    @property
    def free(self) -> bool:
        return all(col.free_shaped for col in self.columns[1:])


def landings(table: AperyTable) -> LadderAnalysis:
    """Per-column landing analysis, guard row included in the ladder.

    Column 0 climbs strictly and carries the degenerate convention p = 0,
    d = 0.  A column that pauses right past the built window shows up as a
    true landing ending at the guard row.
    """
    cols = []
    nrows = len(table.rows)
    for t in range(table.seed.a):
        ladder = tuple(table.rows[s][t] for s in range(nrows)) + (table.guard_row[t],)
        found = _column_landings(ladder)
        if t == 0:
            cols.append(ColumnLadder(0, found, 0, 0, ()))
            continue
        p = len(found) - 1
        d = found[-1].end
        torsion = tuple(
            (found[j - 1].end, found[j].start - found[j - 1].end)
            for j in range(1, len(found))
        )
        cols.append(ColumnLadder(t, found, p, d, torsion))
    return LadderAnalysis(tuple(cols))


def _histogram(orders) -> list[int]:
    """t_k: number of classes of each order k."""
    counts = [0] * (max(orders) + 1)
    for k in orders:
        counts[k] += 1
    return counts


def _histogram_adjustment(k: int) -> int:
    # small orders lose/gain classes where the top radix digit can vanish
    return {2: -1, 3: 2}.get(k, 0)


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
        out[k] = base + _histogram_adjustment(k)
    ks = sorted(out)
    while ks and out[ks[-1]] == 0:
        out.pop(ks.pop())
    return [out[k] for k in ks]


@dataclass(frozen=True)
class ConeDecomposition:
    """Free/torsion structure of the tangent cone over the fiber cone.

    The one result per seed: it keeps the Apery table it was read from, and
    every other cone invariant is a view of it.
    """

    seed: ArithmeticSeed
    table: AperyTable
    t_counts: tuple[int, ...]
    free: bool
    shifts: tuple[int, ...]  # multiset of free-summand shifts, sorted
    torsion: tuple[tuple[int, int], ...]  # (shift, length) pairs when present
    reduction_formula: int
    reduction_computed: int


def cone_decomposition(seed: ArithmeticSeed) -> ConeDecomposition:
    """Build the table once and decompose the cone from it.

    The direct t_k, counted from the table's class orders, is cross-checked
    against the closed form.
    """
    table = apery_table(seed)
    ladder = landings(table)
    direct = _histogram(table.orders)
    closed = order_histogram_closed(seed.a)
    if direct != closed:
        raise VerificationError(
            "tCountMismatch",
            f"direct orders {direct} != closed form {closed} at (a, d) = ({seed.a}, {seed.d})",
        )
    shifts = tuple(sorted(col.d for col in ladder.columns))
    torsion = tuple(
        (b, c) for col in ladder.columns[1:] for (b, c) in col.torsion
    )
    return ConeDecomposition(
        seed,
        table,
        tuple(direct),
        ladder.free,
        shifts,
        torsion,
        reduction_formula=seed.a // 10 + 1,
        reduction_computed=table.top,
    )


def reduction_number(seed: ArithmeticSeed) -> tuple[int, int]:
    """(formula value, computed value) of the reduction number.

    The computed value is the maximum Apery class order, valid because the
    cone is free (each column flat through its order, then climbing).  The
    formula floor(a/10) + 1 undercounts whenever classes of order
    floor(a/10) + 2 exist; both values are reported and disagreement is data,
    not an error.  Non-free cones are out of supported scope.
    """
    dec = cone_decomposition(seed)
    if not dec.free:
        raise DomainError("unsupportedNonFreeCone", "reduction number needs a free cone")
    return dec.reduction_formula, dec.reduction_computed


def hilbert_numerator(seed: ArithmeticSeed) -> tuple[int, ...]:
    """Coefficients of the cone's Hilbert series numerator over (1 - x).

    Equals the order histogram; the upper index is the maximum class order.
    """
    return cone_decomposition(seed).t_counts


def ring_properties(dec: ConeDecomposition) -> dict:
    """Cohen-Macaulay / Gorenstein / Buchsbaum flags of a decomposed cone.

    Cohen-Macaulay equals freeness; Gorenstein needs type 1 on top of that
    (never the case here, the type is at least 4); Buchsbaum follows from
    Cohen-Macaulay and is reported as "notDetermined" otherwise.
    """
    cm = dec.free
    return {
        "cohenMacaulay": cm,
        "gorenstein": cm and semigroup_type(dec.seed) == 1,
        "buchsbaum": True if cm else "notDetermined",
    }


# ----------------------------------------------------------------------
# exports
# ----------------------------------------------------------------------

def table_to_csv(table: AperyTable) -> str:
    """Matrix rows as bare CSV lines (no header)."""
    return "\n".join(",".join(str(v) for v in row) for row in table.rows) + "\n"


def cone_to_json(dec: ConeDecomposition) -> dict:
    """JSON-ready view of a decomposition: table rows, t-vector, freeness, shifts, reduction data."""
    return {
        "rows": [list(row) for row in dec.table.rows],
        "tCounts": list(dec.t_counts),
        "free": dec.free,
        "shifts": list(dec.shifts),
        "torsion": [list(t) for t in dec.torsion],
        "reductionNumber": {
            "formula": dec.reduction_formula,
            "computed": dec.reduction_computed,
        },
        "hilbert": {
            "numerator": list(dec.t_counts),
            "denominator": "1-x",
        },
    }
