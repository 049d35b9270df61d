"""Exact linear algebra over Q and over number fields.

One sparse forward echelon, ``Span``, does every elimination over a
field: rank, nullspaces, coordinates of a vector, incremental spans,
twisted cohomology in coordinates (``cohomology``) and the minimal
polynomials and inverses of number-field elements.  ``kernel`` and
``express``, which need the reduced row echelon form, get it from one
back-substitution of the forward rows.  ``transpose`` turns sparse rows
into sparse columns.  Rows are ``{column: value}`` dicts holding ints,
Fractions or FieldElements.  Every pivot is inverted at most once.  An
int pivot +-1 is its own inverse, and an int pivot that divides every
entry of an integer row divides it exactly, so such rows stay integer;
any other int pivot c becomes ``Fraction(1, c)``, so no float can
appear.  A zero divisor met as a pivot modulo a reducible minimal
polynomial raises ``ZeroDivisorEncountered``.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .numfield import FieldElement


def _sparse(vec) -> dict:
    return {j: x for j, x in enumerate(vec) if x}


class Span:
    """Row space in sparse forward echelon form, one vector at a time.

    ``rows`` maps each pivot column to its row scaled to pivot 1; every
    other entry of a row lies right of its pivot.  Rows are not cleared
    above their pivots (``_back_substitute`` does that).
    """

    def __init__(self):
        self.rows = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """Clear the pivot columns of a sparse vector in place, leftmost
        first, and return it: ``{}`` iff the span contains the vector."""
        rows = self.rows
        todo = [c for c in vec if c in rows]
        heapq.heapify(todo)
        while todo:
            p = heapq.heappop(todo)
            f = vec.get(p)
            if f is None:
                continue
            for c, x in rows[p].items():
                y = vec.get(c)
                if y is None:
                    vec[c] = -f * x
                    if c in rows:
                        heapq.heappush(todo, c)
                else:
                    y -= f * x
                    if y:
                        vec[c] = y
                    else:
                        del vec[c]
        return vec

    def insert(self, vec: dict) -> bool:
        """Insert a sparse vector (consumed); True if it enlarged the span."""
        vec = self.reduce(vec)
        if not vec:
            return False
        p = min(vec)
        pv = vec[p]
        if isinstance(pv, FieldElement):
            inv = pv.inverse()
        elif type(pv) is int and (pv == 1 or pv == -1):
            inv = pv
        elif type(pv) is int and all(type(x) is int and not x % pv
                                     for x in vec.values()):
            inv = None   # pv divides every entry of an integer row
        else:
            inv = Fraction(1, pv)
        self.rows[p] = ({j: x // pv for j, x in vec.items()} if inv is None
                        else {j: x * inv for j, x in vec.items()})
        return True

    def add(self, vec) -> bool:
        """Insert a dense vector; returns True if it enlarged the span."""
        return self.insert(_sparse(vec))

    def contains(self, vec) -> bool:
        return not self.reduce(_sparse(vec))


def _echelon(sparse_rows) -> Span:
    span = Span()
    for r in sparse_rows:
        span.insert(r)
    return span


def _back_substitute(rows: dict) -> dict:
    """The reduced row echelon form of a forward echelon's ``rows``, in
    place: pivots in descending order, each row cleared, off its pivot, by
    the rows after it, which are reduced by then."""
    for p in sorted(rows, reverse=True):
        row = rows[p]
        for c in [c for c in row if c != p and c in rows]:
            f = row.pop(c)
            for j, x in rows[c].items():
                if j != c:
                    y = row.get(j, 0) - f * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
    return rows


def transpose(rows, ncols: int) -> list:
    """The ``ncols`` columns of sparse rows, each a sparse vector over the
    row indices."""
    columns = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            columns[j][i] = x
    return columns


def rank(rows, ncols: int) -> int:
    """Rank of a matrix whose entries lie in one exact field.

    ``ncols``, the matrix width, is not read here; the benchmark's tracer
    reads it off ``kernels.rank_int`` calls.
    """
    return _echelon(map(_sparse, rows)).dim


# The old per-type entry points, kept because perfbench/tracer.py wraps
# them (and kernels.rank_int) by name.
rank_rational = rank
rank_generic = rank


def kernel(rows, ncols: int, one=1):
    """Basis of the right kernel of sparse rows (consumed), as sparse
    vectors.

    One vector per free column of the reduced row echelon form, in column
    order: ``one`` at its free column, minus the column's entries at the
    pivots.
    """
    pivots = _back_substitute(_echelon(rows).rows)
    basis = {j: {j: one} for j in range(ncols) if j not in pivots}
    for p, row in pivots.items():
        for j, x in row.items():
            if j != p:
                basis[j][p] = -x
    return list(basis.values())


def nullspace(rows, ncols: int, zero, one):
    """``kernel`` of a dense matrix, as length-``ncols`` vectors whose
    entries take the type of ``zero`` (a FieldElement in a number field)."""
    out = []
    for vec in kernel(map(_sparse, rows), ncols, one):
        dense = [zero] * ncols
        for j, x in vec.items():
            dense[j] = zero + x
        out.append(dense)
    return out


def express(generators, target: dict):
    """Coefficients x with sum x_i * generators[i] = target, as a sparse
    vector ``{i: x_i}``, or None; the generators and the target are sparse
    vectors.  Free variables are set to zero."""
    k = len(generators)
    rows = {}
    for i, g in enumerate(generators):
        for r, x in g.items():
            rows.setdefault(r, {})[i] = x
    for r, x in target.items():
        rows.setdefault(r, {})[k] = x
    pivots = _back_substitute(_echelon(rows.values()).rows)
    if k in pivots:
        return None  # inconsistent
    return {p: row[k] for p, row in pivots.items() if k in row}


def cohomology(upper, lower, n: int, m: int):
    """A basis of ker(upper) / im(lower) and coordinates in it: (reps,
    coords).

    ``upper`` is delta_q as sparse rows over n columns and ``lower`` is
    delta_{q-1} as n sparse rows over m columns; ``upper`` is consumed.  The
    reps are the kernel vectors of ``upper`` independent modulo the
    columns of ``lower``, in order.  One echelon holds the rows
    [column of lower | 0] and [rep_i | e_i], column n + i standing for
    e_i: ``coords(v)`` reduces [v | 0], which clears every cochain column
    of a cocycle v and leaves minus its class's coordinates in the e_i
    columns, and returns those coordinates, or None if v is no cocycle.
    """
    echelon = _echelon(transpose(lower, m))
    reps = []
    for v in kernel(upper, n):
        row = echelon.reduce({**v, n + len(reps): 1})
        if min(row) < n:  # v is independent modulo coboundaries
            echelon.insert(row)
            reps.append(v)

    def coords(v: dict):
        row = echelon.reduce(dict(v))
        if row and min(row) < n:
            return None
        return [-row.get(n + i, 0) for i in range(len(reps))]

    return reps, coords
