"""Characteristic polynomials by cofactor expansion, a test oracle.

The expansion costs exponential time in the size of the matrix, so it
serves only the small matrices of the tests: the induced maps h* on
cohomology, and the multiplication matrices of number-field elements of
degree <= 6, whose minimal polynomial is the squarefree part of the
characteristic polynomial.
"""

from fractions import Fraction

from novikov.polyq import Poly, poly_gcd


def char_poly(mat) -> Poly:
    """det(tI - A) of a square rational matrix."""
    n = len(mat)
    return _det([[Poly([-Fraction(mat[i][j]), 1]) if i == j
                  else Poly([-Fraction(mat[i][j])])
                  for j in range(n)] for i in range(n)])


def _det(entries) -> Poly:
    if not entries:
        return Poly([1])
    det = Poly()
    for j, x in enumerate(entries[0]):
        if x:
            minor = [row[:j] + row[j + 1:] for row in entries[1:]]
            term = x * _det(minor)
            det = det + (term if j % 2 == 0 else -term)
    return det


def min_poly(x) -> tuple:
    """Primitive integer minimal polynomial of a field element: the
    squarefree part of the characteristic polynomial of multiplication by
    x on the power basis."""
    field = x.field
    n = field.degree
    columns = [((x.residue * Poly.monomial(j)) % field.min_poly).coeffs
               for j in range(n)]
    mat = [[columns[j][i] if i < len(columns[j]) else 0 for j in range(n)]
           for i in range(n)]
    cp = char_poly(mat)
    return (cp // poly_gcd(cp, cp.derivative())).primitive_int_coeffs()
