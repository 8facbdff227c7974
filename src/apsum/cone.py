"""Apery table, ladder analysis, and the tangent-cone decomposition.

Row s of the Apery table lists, per residue class, the least element of M^s,
M the maximal ideal.  The rows come from a residue DP, M^s = gens + M^(s-1),
at O(m * a) per row whatever d is; a column stays flat through the order of
its Apery class and then climbs by the multiplicity, so the class orders are
read off the table.
Columns read as ladders: a flat stretch of length >= 1 is a landing, and a
landing starting below row 0 ("true landing") signals a torsion summand in
the associated graded ring.  For this family every column is a single
landing from row 0, the cone is a free module over the fiber cone, and the
order histogram doubles as the Hilbert series numerator.

``cone_decomposition`` is the one result per seed: it builds the table once,
checks the table's order histogram against the closed form and keeps it; the
reduction number, Hilbert numerator, ring flags and JSON export are views of
that decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import eq, itemgetter

from .errors import DomainError, VerificationError
from .family import ArithmeticSeed, apery_records, partial_sum_generators
from .frobenius import semigroup_type
from .oracle import orders_up_to  # noqa: F401  unused; kept for the benchmark tracer's self-test


@dataclass(frozen=True)
class AperyTable:
    """Rows 0..top of the table plus one guard row used by the freeness check."""

    seed: ArithmeticSeed
    rows: tuple[tuple[int, ...], ...]
    guard_row: tuple[int, ...]
    orders: tuple[int, ...]  # last row keeping each column's row-0 value, 0 for column 0

    @property
    def top(self) -> int:
        return len(self.rows) - 1


def apery_table(seed: ArithmeticSeed) -> AperyTable:
    """Rows 0..top of the table plus a guard row, as a layered residue DP.

    L_0 is the Apery set (0 in class 0) and L_s[r] = min over generators g
    of g + L_(s-1)[(r - g) mod a]: one rotated copy of the previous row per
    generator.  The guard row is the first row s >= 2 where no column t >= 1
    keeps its row-0 value, and a column's order is the last row keeping it.
    Column n is the class of n * d mod a.
    """
    a = seed.a
    gens = partial_sum_generators(seed)
    level = [0] * a
    for rec in apery_records(seed):
        level[rec.value % a] = rec.value
    layers = [level]
    while True:
        # each rotation puts L_(s-1)[(r - g) mod a] at position r
        level = list(map(min, *(map(g.__add__, level[-(g % a):] + level[:-(g % a)]) for g in gens)))
        if len(layers) >= 2 and not any(map(eq, level[1:], layers[0][1:])):
            break
        layers.append(level)
    columns = itemgetter(*(n * seed.d % a for n in range(a)))
    rows = tuple(map(columns, layers))
    # columns never decrease, so the rows keeping row 0 form a prefix
    orders = tuple(col.count(col[0]) - 1 for col in zip(*rows))
    return AperyTable(seed, rows, columns(level), orders)


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
    start = 0
    for flat, run in groupby(map(eq, values, values[1:])):
        steps = len(list(run))
        if flat:
            landings.append(Landing(start, start + steps))
        start += steps
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
    for t, ladder in enumerate(zip(*table.rows, table.guard_row)):
        found = _column_landings(ladder)
        if t == 0:
            cols.append(ColumnLadder(0, found, 0, 0, ()))
            continue
        torsion = tuple((lo.end, hi.start - lo.end) for lo, hi in zip(found, found[1:]))
        cols.append(ColumnLadder(t, found, len(found) - 1, found[-1].end, torsion))
    return LadderAnalysis(tuple(cols))


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
        # small orders lose/gain classes where the top radix digit can vanish
        out[k] = base + {2: -1, 3: 2}.get(k, 0)
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

    The direct t_k, counted from the class orders read off the table, is
    cross-checked against the closed form.
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
