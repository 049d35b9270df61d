import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from novikov.polyq import (Poly, _divisors, _factor, coprime_basis,
                           cyclotomic, cyclotomic_factor, poly_gcd, poly_xgcd,
                           rational_roots, squarefree_factors)


def t():
    return Poly.monomial(1)


def rand_poly(rng, deg):
    return Poly([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                 for _ in range(deg + 1)])


def test_arithmetic_basics():
    p = Poly([1, 2]) * Poly([3, 0, 1])
    assert p == Poly([3, 6, 1, 2])
    q, r = p.divmod(Poly([1, 2]))
    assert q == Poly([3, 0, 1]) and r.is_zero()


def test_divmod_remainder_degree():
    rng = random.Random(1)
    for _ in range(50):
        a = rand_poly(rng, rng.randint(0, 6))
        b = rand_poly(rng, rng.randint(0, 4))
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


def _fraction_divmod(a, b):
    """Long division of coefficient lists (low degree first) over
    Fractions, b with a nonzero leading coefficient: the reference."""
    rem = [Fraction(c) for c in a]
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in reversed(range(len(quot))):
        c = rem[k + len(b) - 1] / Fraction(b[-1])
        quot[k] = c
        for j, x in enumerate(b):
            rem[k + j] -= c * x
    while quot and quot[-1] == 0:
        quot.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(quot), tuple(rem)


integers = st.integers(-30, 30)
rationals = st.fractions(min_value=-30, max_value=30, max_denominator=7)


@st.composite
def division_operands(draw):
    """Coefficient lists a and b, integral or rational, b's last (leading)
    coefficient +-1 or any other nonzero value of the same kind."""
    coeff = draw(st.sampled_from([integers, rationals]))
    a = draw(st.lists(coeff, max_size=9))
    b = draw(st.lists(coeff, max_size=5))
    lead = draw(st.one_of(st.sampled_from([1, -1]), coeff.filter(bool)))
    return a, b + [lead]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(division_operands())
def test_divmod_is_exact_fraction_division(operands):
    """divmod gives the quotient and remainder of Fraction long division,
    each coefficient an int or a Fraction, never a float: integer operands
    divided by a lead of +-1 stay ints."""
    a, b = operands
    q, r = Poly(a).divmod(Poly(b))
    if len(a) < len(b):
        assert (q, r) == (Poly(), Poly(a))
    assert (q.coeffs, r.coeffs) == _fraction_divmod(a, b)
    assert all(type(c) in (int, Fraction) for c in q.coeffs + r.coeffs)


def test_gcd_properties():
    rng = random.Random(2)
    for _ in range(50):
        a, b = rand_poly(rng, 4), rand_poly(rng, 3)
        g = poly_gcd(a, b)
        if g.is_zero():
            assert a.is_zero() and b.is_zero()
            continue
        assert g.divides(a) and g.divides(b)
        gg, u, v = poly_xgcd(a, b)
        assert gg == g
        assert u * a + v * b == g


def _euclid_gcd(a, b):
    """The monic gcd by Euclid over Q, whose remainders' coefficients grow
    with every step: the reference for ``poly_gcd``, which works over Z."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


small_polys = st.lists(st.integers(-6, 6), max_size=6)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_polys, small_polys, small_polys, st.booleans(),
       st.integers(1, 4))
def test_gcd_over_z_is_euclid_over_q(a, b, common, fractions, den):
    """On products with a common factor, integer or with Fraction
    coefficients, poly_gcd gives Euclid's monic gcd in ints and
    Fractions."""
    if fractions:
        a = [Fraction(c, den) for c in a]
    a, b = Poly(a) * Poly(common), Poly(b) * Poly(common)
    got = poly_gcd(a, b)
    assert got == _euclid_gcd(a, b)
    assert all(type(c) in (int, Fraction) for c in got.coeffs)


def test_eval_horner():
    p = Poly([2, -3, 2])
    assert p.eval(Fraction(1)) == 1
    assert p.eval(Fraction(0)) == 2
    assert p.eval(Fraction(1, 2)) == 1


def test_rational_roots():
    # 2t^2 - 3t + 2 has no rational roots; its reversal is itself
    assert rational_roots(Poly([2, -3, 2])) == []
    p = Poly([-2, 1]) * Poly([1, 3]) * Poly([1, 0, 1])
    roots = set(rational_roots(p))
    assert roots == {Fraction(2), Fraction(-1, 3)}


def _unfiltered_rational_roots(p):
    """The rational root test with every candidate +-num/den evaluated:
    the reference for ``rational_roots``, which filters them first."""
    ints = list(p.primitive_int_coeffs())
    roots = []
    while ints[0] == 0:
        ints.pop(0)
        if not roots:
            roots.append(Fraction(0))
    q = Poly(ints)
    if q.degree < 1:
        return roots
    for num in _divisors(ints[0]):
        for den in _divisors(ints[-1]):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if q.eval(cand) == 0 and cand not in roots:
                    roots.append(cand)
    return sorted(roots)


def _divisors_by_trial(n):
    """The divisors of n != 0 by the plain loop, the reference: every d
    up to sqrt(|n|) tried, with its cofactor."""
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.integers(-10 ** 6, 10 ** 6).filter(bool),
                 st.integers(1, 200).map(lambda k: 720720 * k)))
def test_divisors_are_the_products_of_prime_powers(n):
    assert _divisors(n) == _divisors_by_trial(n)


def test_divisors_of_a_large_smooth_number():
    """10**24 = 2**24 * 5**24 has 25**2 divisors, listed without trying
    every d up to 10**12."""
    divisors = _divisors(10 ** 24)
    assert len(divisors) == 625
    assert divisors[0] == 1 and divisors[-1] == 10 ** 24
    assert all(10 ** 24 % d == 0 for d in divisors)


def _factor_by_trial(n):
    """{prime: exponent} of n >= 1 by trial division up to the square root
    of what is left."""
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _next_prime(n):
    while _factor_by_trial(n) != {n: 1}:
        n += 1
    return n


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 10 ** 6))
def test_factor_is_trial_division_below_a_million(n):
    f = _factor(n)
    assert f == _factor_by_trial(n)
    assert list(f) == sorted(f)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 4), st.integers(0, 10 ** 4),
       st.sampled_from([1, 2, 3, 12]))
def test_factor_splits_products_of_two_primes_near_a_billion(i, j, small):
    """Pollard-Brent rho splits the cofactor left by trial division, and
    the primes come in ascending order: against trial division on a
    product near 10**9 of two primes near its square root, and against the
    planted primes for a product of two primes near 10**9."""
    p, r = _next_prime(31000 + i), _next_prime(31000 + j)
    n = small * p * r
    assert _factor(n) == _factor_by_trial(n)
    assert list(_factor(n)) == sorted(_factor(n))
    p, r = _next_prime(10 ** 9 + i), _next_prime(10 ** 9 + 2 * 10 ** 4 + j)
    assert list(_factor(small * p * r).items()) == list(
        _factor_by_trial(small).items()) + [(p, 1), (r, 1)]


def test_factor_proves_a_prime_near_ten_to_the_24():
    """Its square root is 10**12: the strong probable-prime test to the
    prime bases 2..41 proves it prime without trial division."""
    assert _factor(10 ** 24 + 7) == {10 ** 24 + 7: 1}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 12)),
                max_size=3),
       st.lists(st.integers(-9, 9), max_size=4), st.integers(1, 30))
def test_filtered_rational_roots_are_the_root_test(planted, cofactor, lead):
    """rational_roots equals the unfiltered test on polynomials with
    planted roots r/s, s t - r a factor, and ends of many divisors."""
    p = Poly(cofactor + [lead])
    for r, s in planted:
        p = p * Poly([-r, s])
    roots = rational_roots(p)
    assert roots == _unfiltered_rational_roots(p)
    assert all(Fraction(r, s) in roots for r, s in planted)


def test_squarefree_factors_known_cases():
    sf = squarefree_factors(Poly([2, -3, 2]))
    assert sf == [(Poly([1, Fraction(-3, 2), 1]), 1)]
    p = Poly([0, 0, -1, 1])  # t^2(t-1)
    sf = dict(squarefree_factors(p))
    assert sf[Poly([-1, 1])] == 1
    assert sf[Poly([0, 1])] == 2


def test_squarefree_factors_reassemble():
    rng = random.Random(3)
    for _ in range(30):
        p = rand_poly(rng, rng.randint(1, 5))
        if p.is_zero() or p.degree == 0:
            continue
        prod = Poly([p.leading()])
        for f, m in squarefree_factors(p):
            assert poly_gcd(f, f.derivative()).degree == 0  # squarefree
            for _ in range(m):
                prod = prod * f
        assert prod == p


def test_coprime_basis():
    a = Poly([-1, 1]) * Poly([1, 1])
    b = Poly([-1, 1]) * Poly([2, 1])
    basis = coprime_basis([a, b])
    for i, p in enumerate(basis):
        for q in basis[i + 1:]:
            assert poly_gcd(p, q).degree == 0
    # each input is a product of basis elements
    for inp in (a, b):
        rem = inp
        for p in basis:
            while p.divides(rem):
                rem = rem // p
        assert rem.degree == 0


def test_primitive_int_coeffs():
    p = Poly([Fraction(1), Fraction(-3, 2), Fraction(1)])
    assert p.primitive_int_coeffs() == (2, -3, 2)
    assert Poly([Fraction(-1, 2), Fraction(1, 2)]).primitive_int_coeffs() == (-1, 1)


def test_cyclotomic_polynomials_multiply_to_t_n_minus_1():
    """t^n - 1 is the product of Phi_d over d | n, and Phi_d has integer
    coefficients; Phi_105 is the first with a coefficient -2."""
    for n in range(1, 121):
        product = Poly([1])
        for d in range(1, n + 1):
            if n % d == 0:
                product = product * cyclotomic(d)
        assert product == Poly.monomial(n) - Poly([1]), n
    assert all(type(c) is int for c in cyclotomic(105).coeffs)
    assert -2 in cyclotomic(105).coeffs


def test_cyclotomic_factor_finds_a_proper_cyclotomic_divisor():
    """The least d with Phi_d a proper factor, or None for a polynomial
    that has none, a cyclotomic polynomial itself among them."""
    phi4 = Poly([1, 0, 1])
    assert cyclotomic_factor(Poly([1, -3, 1]) * phi4) == 4
    assert cyclotomic_factor(Poly([-2, 0, 1]) * phi4) == 4
    assert cyclotomic_factor(Poly([-1, 1, 0, 0, 0, 1])) == 6   # t^5 + t - 1
    assert cyclotomic_factor(cyclotomic(7) * cyclotomic(9)) == 7
    assert cyclotomic_factor(Poly([3, 0, 1]) * cyclotomic(30)) == 30
    for p in (Poly([1, 1, 1]), phi4, Poly([-1, -3, 2]), cyclotomic(60),
              Poly([2, 0, 0, 0, 0, 1]), Poly([-1, 1])):
        assert cyclotomic_factor(p) is None, p
