"""Matrices over Q[t] and their Smith normal form.

Q[t] is a principal ideal domain, so every matrix is equivalent to a
diagonal of monic elementary divisors d_1 | d_2 | ... | d_r.  The rank of
the matrix evaluated at any point a equals the number of divisors that do
not vanish at a; this is the exactness backbone of the jump-locus
computations.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .linalg import rank
from .numfield import Scalar
from .polyq import Poly


class SmithForm:
    """Elementary divisors d_1 | ... | d_r (monic) and the generic rank."""

    def __init__(self, divisors):
        self.divisors = list(divisors)
        self.rank = len(self.divisors)

    def rank_at(self, a: Scalar) -> int:
        return sum(1 for d in self.divisors if d.eval(a))

    def rank_at_factor_root(self, factor: Poly) -> int:
        """Rank at any root of ``factor``; requires each divisor to be
        either divisible by or coprime to the factor (gcd-free inputs)."""
        return sum(1 for d in self.divisors if not factor.divides(d))

    def __repr__(self):
        return f"SmithForm({self.divisors})"


class PolyMatrix:
    """Dense matrix with Poly entries."""

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows = rows
        self.cols = cols
        if entries is None:
            self.entries = [[Poly() for _ in range(cols)] for _ in range(rows)]
        else:
            self.entries = [[e if isinstance(e, Poly) else Poly.const(e)
                             for e in row] for row in entries]
            assert len(self.entries) == rows
            assert all(len(r) == cols for r in self.entries)

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    def __setitem__(self, idx, value: Poly):
        i, j = idx
        self.entries[i][j] = value

    def evaluate(self, a: Scalar):
        """Entry-wise evaluation at t = a; returns list-of-lists."""
        return [[e.eval(a) for e in row] for row in self.entries]

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols})"


def rank_at(m: PolyMatrix, a: Scalar) -> int:
    """Exact rank of m evaluated at t = a, over Q or over Q[x]/(minpoly);
    a reducible modulus surfaces as ZeroDivisorEncountered."""
    return rank(m.evaluate(a), m.cols)


def _pivot_weight(p: Poly):
    ints = p.primitive_int_coeffs()
    height = max(abs(c) for c in ints) if ints else 0
    return (p.degree, height)


def _primitive_row(row):
    """Scale a row by a positive rational so entries are primitive-integer
    polynomials overall (unit operation in Q[t]; controls growth)."""
    nums = []
    dens = []
    for p in row:
        for c in p.coeffs:
            if c:
                nums.append(abs(c.numerator))
                dens.append(c.denominator)
    if not nums:
        return row
    scale = Fraction(math.lcm(*dens), math.gcd(*nums))
    if scale == 1:
        return row
    return [p * scale for p in row]


def snf(m: PolyMatrix) -> SmithForm:
    """Smith normal form over Q[t].

    Degree-minimal pivoting (ties broken by coefficient height) with
    Euclidean row/column reduction; the divisibility chain is restored by
    the usual fixup of adding an offending row into the pivot row.
    Divisors are returned monic.
    """
    a = [list(row) for row in m.entries]
    nrows, ncols = m.rows, m.cols
    divisors = []
    k = 0
    while k < nrows and k < ncols:
        # locate the best pivot in the trailing submatrix
        best = None
        for i in range(k, nrows):
            for j in range(k, ncols):
                if not a[i][j].is_zero():
                    w = _pivot_weight(a[i][j])
                    if best is None or w < best[0]:
                        best = (w, i, j)
        if best is None:
            break
        _, bi, bj = best
        a[k], a[bi] = a[bi], a[k]
        for row in a:
            row[k], row[bj] = row[bj], row[k]

        while True:
            # clear the pivot column
            restart = False
            for i in range(k + 1, nrows):
                if a[i][k].is_zero():
                    continue
                q, r = a[i][k].divmod(a[k][k])
                a[i] = [a[i][j] - q * a[k][j] for j in range(ncols)]
                a[i] = _primitive_row(a[i])
                if not a[i][k].is_zero():
                    a[k], a[i] = a[i], a[k]  # smaller-degree remainder up
                    restart = True
                    break
            if restart:
                continue
            # clear the pivot row
            for j in range(k + 1, ncols):
                if a[k][j].is_zero():
                    continue
                q, r = a[k][j].divmod(a[k][k])
                if not q.is_zero():
                    for i in range(nrows):
                        a[i][j] = a[i][j] - q * a[i][k]
                if not a[k][j].is_zero():
                    for i in range(nrows):
                        a[i][k], a[i][j] = a[i][j], a[i][k]
                    restart = True
                    break
            if restart:
                continue
            # divisibility fixup: pivot must divide the trailing submatrix
            # (zero entries are divisible by anything and are skipped)
            offender = None
            for i in range(k + 1, nrows):
                for j in range(k + 1, ncols):
                    if a[i][j] and not a[k][k].divides(a[i][j]):
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[k] = [a[k][j] + a[offender][j] for j in range(ncols)]
        divisors.append(a[k][k].monic())
        k += 1
    return SmithForm(divisors)
