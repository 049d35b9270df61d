"""Exact linear algebra over Q and over number fields.

One sparse row-echelon routine, ``Span``, does every elimination over a
field: rank, nullspaces, coordinates of a vector and incremental spans.
Rows are ``{column: value}`` dicts holding ints, Fractions or
FieldElements.  Every pivot is inverted exactly once, an int pivot as
``Fraction(1, c)``, so no float can appear, and a zero divisor met as a
pivot modulo a reducible minimal polynomial raises
``ZeroDivisorEncountered``.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .numfield import FieldElement
from .polyq import Poly


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

    def _reduce(self, vec: dict) -> dict:
        """Clear the pivot columns of ``vec`` in place, leftmost first."""
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

    def _insert(self, vec: dict) -> bool:
        vec = self._reduce(vec)
        if not vec:
            return False
        p = min(vec)
        pv = vec[p]
        inv = pv.inverse() if isinstance(pv, FieldElement) else Fraction(1, pv)
        row = {j: x * inv for j, x in vec.items()}
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
        return self._insert(_sparse(vec))

    def contains(self, vec) -> bool:
        return not self._reduce(_sparse(vec))


def _echelon(sparse_rows, ncols: int, reduced: bool) -> Span:
    span = Span(ncols, reduced)
    for r in sparse_rows:
        span._insert(r)
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


def nullspace(rows, ncols: int, zero, one):
    """Basis of the right kernel of the matrix, as length-``ncols`` vectors.

    One vector per free column of the reduced row echelon form, in column
    order: 1 at its free column, minus the column's entries at the pivots.
    Entries take the type of ``zero`` (a FieldElement in a number field).
    """
    pivots = _echelon(map(_sparse, rows), ncols, reduced=True).rows
    basis = {}
    for j in range(ncols):
        if j not in pivots:
            basis[j] = [zero] * ncols
            basis[j][j] = one
    for p, row in pivots.items():
        for j, x in row.items():
            if j != p:
                basis[j][p] = zero - x
    return list(basis.values())


def express(generators, target, zero):
    """Coefficients x with sum x_i * generators[i] = target, or None.

    Free variables are set to zero; entries take the type of ``zero``.
    """
    k = len(generators)
    rows = [{} for _ in target]
    for i, g in enumerate(generators):
        for r, x in enumerate(g):
            if x:
                rows[r][i] = x
    for r, x in enumerate(target):
        if x:
            rows[r][k] = x
    pivots = _echelon(rows, k + 1, reduced=True).rows
    if k in pivots:
        return None  # inconsistent
    coeffs = [zero] * k
    for p, row in pivots.items():
        if k in row:
            coeffs[p] = zero + row[k]
    return coeffs


def kernel_lattice_int(rows, ncols: int):
    """Basis of the integer kernel lattice of an integer matrix.

    Unimodular column reduction; the non-pivot transform columns span
    ker as a Z-lattice.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    t = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def col_sub(c, c0, q):
        for i in range(nrows):
            m[i][c] -= q * m[i][c0]
        for i in range(ncols):
            t[i][c] -= q * t[i][c0]

    pivot_cols = set()
    for r in range(nrows):
        active = [c for c in range(ncols) if c not in pivot_cols and m[r][c]]
        while len(active) > 1:
            active.sort(key=lambda c: abs(m[r][c]))
            c0 = active[0]
            for c in active[1:]:
                col_sub(c, c0, m[r][c] // m[r][c0])
            active = [c for c in active if m[r][c]]
        if active:
            pivot_cols.add(active[0])
    return [[t[i][c] for i in range(ncols)]
            for c in range(ncols) if c not in pivot_cols]


def char_poly_rational(mat) -> Poly:
    """Characteristic polynomial det(tI - A) of a small rational matrix."""
    n = len(mat)
    entries = [[Poly([-Fraction(mat[i][j]), 1]) if i == j
                else Poly([-Fraction(mat[i][j])])
                for j in range(n)] for i in range(n)]
    return _poly_det(entries)


def _poly_det(entries) -> Poly:
    n = len(entries)
    if n == 0:
        return Poly.const(1)
    if n == 1:
        return entries[0][0]
    det = Poly()
    sign = 1
    for j in range(n):
        if not entries[0][j].is_zero():
            minor = [[entries[i][k] for k in range(n) if k != j]
                     for i in range(1, n)]
            term = entries[0][j] * _poly_det(minor)
            det = det + (term if sign > 0 else -term)
        sign = -sign
    return det
