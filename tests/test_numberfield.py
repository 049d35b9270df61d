import random
from fractions import Fraction

import pytest

from novikov.errors import ZeroMonodromy
from novikov.numfield import (FieldElement, NumberField, is_algebraic_integer,
                              is_dirichlet_unit, scalar_inv, scalar_key,
                              scalar_mul)


def test_field_axioms_sqrt2():
    K = NumberField([-2, 0, 1])
    a = K.generator()
    assert a * a == K.from_rational(2)
    b = a + K.from_rational(3)
    assert (b - b).residue.is_zero()
    assert b * b.inverse() == K.one()
    assert (a / a) == K.one()
    assert a ** -2 == K.from_rational(Fraction(1, 2))


def test_inverse_in_non_monic_field():
    K = NumberField([2, -3, 2])
    a = K.generator()
    inv = a.inverse()
    assert a * inv == K.one()
    # the two roots of 2x^2-3x+2 multiply to 1, so 1/a = (3 - 2a)/2
    assert inv == K.element([Fraction(3, 2), -1])


def test_dirichlet_unit_table():
    golden = NumberField([-1, -1, 1])
    silver = NumberField([1, -3, 1])
    alexander = NumberField([2, -3, 2])
    table = [
        (Fraction(1), True),
        (Fraction(-1), True),
        (Fraction(2), False),
        (Fraction(1, 2), False),
        (golden.generator(), True),
        (alexander.generator(), False),
        (silver.generator(), True),
    ]
    for a, expected in table:
        assert is_dirichlet_unit(a) is expected, a


def test_algebraic_integer():
    assert is_algebraic_integer(Fraction(7))
    assert not is_algebraic_integer(Fraction(1, 2))
    assert is_algebraic_integer(NumberField([-1, -1, 1]).generator())
    assert not is_algebraic_integer(NumberField([2, -3, 2]).generator())


def test_min_poly_of_derived_element():
    K = NumberField([-2, 0, 1])
    a = K.generator()
    # 1 + sqrt(2) has minimal polynomial x^2 - 2x - 1
    coeffs = (a + K.from_rational(1)).min_poly_int_coeffs()
    assert coeffs == (-1, -2, 1)
    # rational elements report degree-1 minimal polynomials
    assert K.from_rational(Fraction(3, 2)).min_poly_int_coeffs() == (-3, 2)


def test_scalar_helpers():
    K = NumberField([-2, 0, 1])
    assert scalar_key(K.from_rational(5)) == scalar_key(Fraction(5))
    assert scalar_mul(Fraction(2), K.generator()) == K.generator() * 2
    assert scalar_inv(Fraction(2, 3)) == Fraction(3, 2)
    with pytest.raises(ZeroMonodromy):
        scalar_inv(Fraction(0))


def test_rejects_rational_root_modulus():
    with pytest.raises(Exception):
        NumberField([-1, 0, 1])  # x^2 - 1 is reducible


@pytest.mark.parametrize("modulus", [[-1, -3, 2], [1, 1, 1]])
def test_rational_operands_match_the_coerced_route(modulus):
    """The fast path for int/Fraction operands gives the same residue as
    coercing through from_rational, and always a FieldElement."""
    K = NumberField(modulus)
    rng = random.Random(11)

    def rand_q():
        return Fraction(rng.randint(-7, 7), rng.randint(1, 5))

    for _ in range(40):
        x = K.element([rand_q(), rand_q()])
        c = rng.choice([rand_q(), rng.randint(-4, 4), 0])
        cK = K.from_rational(c)
        pairs = [(x + c, x + cK), (c + x, cK + x), (x - c, x - cK),
                 (c - x, cK - x), (x * c, x * cK), (c * x, cK * x)]
        if c:
            pairs.append((x / c, x / cK))
        for fast, slow in pairs:
            assert isinstance(fast, FieldElement)
            assert fast.residue.coeffs == slow.residue.coeffs
            assert fast.residue.degree < K.degree
