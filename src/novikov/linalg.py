"""Exact linear algebra over Q and over number fields.

One sparse row-echelon routine, ``Span``, does every elimination over a
field: rank, nullspaces, coordinates of a vector, incremental spans and
the minimal polynomials of number-field elements.
Rows are ``{column: value}`` dicts holding ints, Fractions or
FieldElements.  Every pivot is inverted at most once.  An int pivot +-1
is its own inverse, and an int pivot that divides every entry of an
integer row divides it exactly, so such rows stay integer; any other int
pivot c becomes ``Fraction(1, c)``, so no float can appear.  A
zero divisor met as a pivot modulo a reducible minimal polynomial raises
``ZeroDivisorEncountered``.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .numfield import FieldElement


def _sparse(vec) -> dict:
    return {j: x for j, x in enumerate(vec) if x}


class Span:
    """Row space in sparse echelon form, built one vector at a time.

    ``rows`` maps each pivot column to its row scaled to pivot 1; every
    other entry of a row lies right of its pivot.  With ``reduced`` the
    rows are also cleared above each pivot: the reduced row echelon form,
    which is unique for the space.
    """

    def __init__(self, ncols: int, reduced: bool = True):
        self.ncols = ncols
        self.reduced = reduced
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
        row = ({j: x // pv for j, x in vec.items()} if inv is None
               else {j: x * inv for j, x in vec.items()})
        if self.reduced:
            for other in self.rows.values():
                f = other.get(p)
                if f is not None:
                    for j, x in row.items():
                        y = other.get(j, 0) - f * x
                        if y:
                            other[j] = y
                        else:
                            del other[j]
        self.rows[p] = row
        return True

    def add(self, vec) -> bool:
        """Insert a dense vector; returns True if it enlarged the span."""
        return self.insert(_sparse(vec))

    def contains(self, vec) -> bool:
        return not self.reduce(_sparse(vec))


def _echelon(sparse_rows, ncols: int, reduced: bool) -> Span:
    span = Span(ncols, reduced)
    for r in sparse_rows:
        span.insert(r)
    return span


def rank(rows, ncols: int) -> int:
    """Rank of a matrix whose entries lie in one exact field.

    Forward elimination only: clearing above the pivots would not change
    the count and costs about 2.5x on the twisted coboundaries.
    """
    return _echelon(map(_sparse, rows), ncols, reduced=False).dim


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
    pivots = _echelon(rows, ncols, reduced=True).rows
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
    pivots = _echelon(rows.values(), k + 1, reduced=True).rows
    if k in pivots:
        return None  # inconsistent
    return {p: row[k] for p, row in pivots.items() if k in row}
