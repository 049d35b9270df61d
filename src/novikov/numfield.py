"""Exact arithmetic in Q[x]/(m) and the Dirichlet-unit test.

A monodromy value ("scalar") is an ``int``, a ``Fraction`` or a
``FieldElement``: a residue modulo an integer minimal polynomial asserted
irreducible by the caller.  Irreducibility is verified only by cheap
necessary conditions (squarefree, no rational root in degree >= 2); a
reducible modulus is detected lazily whenever an inversion meets a zero
divisor, which raises ``ZeroDivisorEncountered`` carrying the discovered
factor.  The Dirichlet-unit test reads an element's minimal polynomial,
the first linear dependence among its powers, off one ``linalg.Span``
echelon; that needs no inversion and is right modulo any squarefree
modulus, reducible or not.  For the generator and its inverse it is the
modulus and its reversal, read with no power formed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import FieldMismatch, ZeroDivisorEncountered, ZeroMonodromy
from .polyq import Poly, poly_gcd, poly_xgcd, rational_roots


class NumberField:
    """Q[x]/(min_poly) with an integer, primitive, squarefree modulus."""

    def __init__(self, min_poly_coeffs):
        p = Poly(min_poly_coeffs)
        if p.degree < 1:
            raise ValueError("minimal polynomial must have degree >= 1")
        self.int_coeffs = p.primitive_int_coeffs()
        self.min_poly = Poly(self.int_coeffs)
        g = poly_gcd(self.min_poly, self.min_poly.derivative())
        if not g.is_constant():
            raise ValueError(f"minimal polynomial is not squarefree: factor {g}")
        if self.min_poly.degree >= 2 and rational_roots(self.min_poly):
            raise ValueError("minimal polynomial has a rational root")

    @property
    def degree(self) -> int:
        return self.min_poly.degree

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.int_coeffs == other.int_coeffs

    def __hash__(self):
        return hash(self.int_coeffs)

    def __repr__(self):
        return f"NumberField({list(self.int_coeffs)})"

    # -- element constructors -------------------------------------------

    def element(self, coeffs) -> "FieldElement":
        return FieldElement(self, Poly(coeffs) % self.min_poly)

    def generator(self) -> "FieldElement":
        """The root class x of the minimal polynomial."""
        return self.element([0, 1])

    def from_rational(self, c) -> "FieldElement":
        return self.element([c])

    def zero(self) -> "FieldElement":
        return self.element([])

    def one(self) -> "FieldElement":
        return self.element([1])


class FieldElement:
    """Residue in Q[x]/(m), reduced modulo the minimal polynomial."""

    __slots__ = ("field", "residue")

    def __init__(self, field: NumberField, residue: Poly):
        self.field = field
        self.residue = residue % field.min_poly

    @classmethod
    def _reduced(cls, field: NumberField, residue: Poly) -> "FieldElement":
        """Element from a residue already of degree < deg(min_poly)."""
        out = object.__new__(cls)
        out.field = field
        out.residue = residue
        return out

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatch(f"{other.field} != {self.field}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        raise TypeError(f"cannot coerce {other!r} into {self.field}")

    # A rational operand acts on the residue directly: it shifts the
    # constant coefficient or scales every coefficient, and the result
    # stays reduced, so no division by the modulus is needed.

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            coeffs = list(self.residue.coeffs) or [0]
            coeffs[0] += other
            return FieldElement._reduced(self.field, Poly(coeffs))
        other = self._coerce(other)
        return FieldElement(self.field, self.residue + other.residue)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement._reduced(self.field, -self.residue)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElement._reduced(self.field, self.residue * other)
        other = self._coerce(other)
        return FieldElement(self.field, self.residue * other.residue)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Inverse via extended gcd with the modulus."""
        if self.residue.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        g, u, _ = poly_xgcd(self.residue, self.field.min_poly)
        if not g.is_constant():
            raise ZeroDivisorEncountered(g)
        return FieldElement(self.field, u)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        acc = self.field.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.residue == other.residue

    def __hash__(self):
        return hash((self.field, self.residue))

    def __bool__(self):
        return not self.residue.is_zero()

    def is_rational(self) -> bool:
        return self.residue.is_constant()

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.residue.constant_term()

    def min_poly_int_coeffs(self) -> tuple:
        """Primitive integer minimal polynomial of this element over Q.

        The first linear dependence among 1, a, a^2, ...: one echelon holds
        the rows [residue(a^k) | e_k], column n + k standing for e_k, and
        the first row whose residue columns clear on reduction holds the
        relation's coefficients in its e columns, with 1 at e_k.  For a
        generator this is the field modulus.  The modulus is squarefree,
        so Q[x]/(m) is a product of fields and multiplication by a is
        semisimple: this is also the squarefree part of the characteristic
        polynomial of that multiplication.
        """
        from .linalg import Span

        n = self.field.degree
        echelon = Span()
        power, k = self.field.one(), 0
        while True:  # n + 1 powers in dimension n: ends by k = n
            row = {j: c for j, c in enumerate(power.residue.coeffs) if c}
            row[n + k] = 1
            row = echelon.reduce(row)
            if min(row) >= n:
                return Poly([row.get(n + j, 0)
                             for j in range(k + 1)]).primitive_int_coeffs()
            echelon.insert(row)
            power, k = power * self, k + 1

    def __repr__(self):
        return f"FieldElement({self.residue!r} mod {list(self.field.int_coeffs)})"


# A rational scalar is an int or a Fraction: integral values may stay ints,
# and a Fraction appears where a division makes one.  Two ints are never
# divided with ``/``, which would give a float.
Scalar = Union[int, Fraction, FieldElement]


def check_nonzero(a: Scalar) -> Scalar:
    if not a:
        raise ZeroMonodromy("monodromy value must be nonzero")
    return a


def scalar_pow(a: Scalar, n: int) -> Scalar:
    """a**n for an integer n.  A rational power that is integral (n >= 0
    and a integral, or a = +-1, or n = 0) is an int; any other rational
    power is a Fraction, never a float."""
    if isinstance(a, FieldElement):
        return a ** n
    if a.denominator == 1 and (n >= 0 or a.numerator in (1, -1)):
        return a.numerator ** abs(n)
    if n == 0:
        return 1
    return (a if isinstance(a, Fraction) else Fraction(a)) ** n


def cache_key(a: Scalar):
    """The key of a monodromy, for values kept per monodromy and for
    telling monodromies apart: (numerator, denominator) of a rational a,
    rational field elements included, and (modulus, residue) coefficient
    tuples for any other field element.  A pair of ints hashes without
    the modular inverse that hashing a Fraction computes on every
    lookup."""
    if isinstance(a, FieldElement):
        if not a.is_rational():
            return a.field.int_coeffs, a.residue.coeffs
        a = a.as_rational()
    return a.numerator, a.denominator


def scalar_field(a: Scalar):
    return a.field if isinstance(a, FieldElement) else None


def _is_generator_or_inverse(a: FieldElement) -> bool:
    """Whether a is x or 1/x in Q[x]/(m), m = c_0 + c_1 x + ... + c_n x^n.
    From x (c_1 + ... + c_n x^(n-1)) = -c_0, 1/x is the residue
    -(c_1 + ... + c_n x^(n-1)) / c_0; c_0 is nonzero, since an admitted
    modulus of degree >= 2 has no rational root."""
    c, r = a.field.int_coeffs, a.residue.coeffs
    return r == (0, 1) or (len(r) == len(c) - 1 and r == tuple(
        Fraction(-ci, c[0]) for ci in c[1:]))


def is_dirichlet_unit(a: Scalar) -> bool:
    """True iff a and 1/a are both algebraic integers.

    Equivalent to |leading| = |constant| = 1 for the primitive integer
    minimal polynomial (the reversal of the minimal polynomial is the
    minimal polynomial of the inverse).  Modulo any squarefree m, the
    minimal polynomial of the generator x is m and that of 1/x is m
    reversed, so both read m's end coefficients and form no power; every
    other element forms its powers (``min_poly_int_coeffs``).
    """
    check_nonzero(a)
    if isinstance(a, FieldElement):
        if a.is_rational():
            return is_dirichlet_unit(a.as_rational())
        coeffs = (a.field.int_coeffs if _is_generator_or_inverse(a)
                  else a.min_poly_int_coeffs())
        return abs(coeffs[-1]) == 1 and abs(coeffs[0]) == 1
    return abs(a.numerator) == 1 and a.denominator == 1
