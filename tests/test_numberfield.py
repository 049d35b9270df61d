import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from novikov.errors import ZeroMonodromy
from novikov.numfield import (FieldElement, NumberField, cache_key,
                              check_nonzero, is_dirichlet_unit)
from novikov.polyq import Poly
from reference_charpoly import min_poly


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


def test_min_poly_of_derived_element():
    K = NumberField([-2, 0, 1])
    a = K.generator()
    # 1 + sqrt(2) has minimal polynomial x^2 - 2x - 1
    coeffs = (a + K.from_rational(1)).min_poly_int_coeffs()
    assert coeffs == (-1, -2, 1)
    # rational elements report degree-1 minimal polynomials
    assert K.from_rational(Fraction(3, 2)).min_poly_int_coeffs() == (-3, 2)


@st.composite
def _squarefree_fields(draw):
    """Q[x]/(m) for an integer m of degree <= 6 that NumberField admits:
    squarefree and without a rational root, irreducible or a product of
    two such factors."""
    def factor(lo, hi):
        d = draw(st.integers(lo, hi))
        coeffs = draw(st.lists(st.integers(-4, 4), min_size=d + 1,
                               max_size=d + 1))
        assume(coeffs[-1])
        return Poly(coeffs)

    m = factor(2, 6)
    if m.degree <= 4 and draw(st.booleans()):
        m = m * factor(2, 6 - m.degree)
    try:
        return NumberField(m.coeffs)
    except ValueError:
        assume(False)


_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def _field_elements(draw):
    K = draw(_squarefree_fields())
    kind = draw(st.sampled_from(["residue", "rational", "inverse", "power"]))
    if kind == "rational":
        return K.from_rational(draw(_fractions))
    if kind == "inverse":
        return K.generator().inverse()
    if kind == "power":
        return K.generator() ** draw(st.integers(2, 4))
    return K.element(draw(st.lists(_fractions, min_size=2,
                                   max_size=K.degree)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_field_elements())
def test_min_poly_is_the_squarefree_part_of_the_char_poly(x):
    assert x.min_poly_int_coeffs() == min_poly(x)


@pytest.mark.parametrize("modulus", [
    [-2, 0, -1, 0, 1],            # (t^2 + 1)(t^2 - 2)
    [1, -3, 2, -3, 1],            # (t^2 + 1)(t^2 - 3t + 1)
    [6, 0, -5, 0, 1],             # (t^2 - 2)(t^2 - 3)
])
def test_min_poly_modulo_a_reducible_modulus(modulus):
    K = NumberField(modulus)
    x = K.generator()
    assert x.min_poly_int_coeffs() == min_poly(x) == K.int_coeffs
    for y in (x * x, x + x ** 3, x ** 2 + 1, 2 * x ** 3 - x):
        assert y.min_poly_int_coeffs() == min_poly(y)


def test_min_poly_at_degree_998():
    # (t^1000 - 1) / (t^2 - 1) = 1 + t^2 + ... + t^998, squarefree with
    # no rational root; far beyond the reach of a cofactor expansion
    K = NumberField([1, 0] * 499 + [1])
    assert K.degree == 998
    x = K.generator()
    assert x.min_poly_int_coeffs() == K.int_coeffs
    assert x.inverse().min_poly_int_coeffs() == tuple(reversed(K.int_coeffs))


def test_scalar_helpers():
    K = NumberField([-2, 0, 1])
    assert cache_key(K.from_rational(5)) == cache_key(Fraction(5))
    for a in (3, Fraction(2, 3), K.generator()):
        assert check_nonzero(a) is a
    for zero in (0, Fraction(0), K.zero()):
        with pytest.raises(ZeroMonodromy):
            check_nonzero(zero)


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
