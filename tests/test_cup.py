import random
from fractions import Fraction

from novikov.complexes import (twisted_coboundary_values, twisted_cup,
                               validate_cocycle)
from novikov.corpus import surface, torus
from novikov.numfield import NumberField


def sparse(vec):
    return {j: x for j, x in enumerate(vec) if x}


def apply_rows(rows, vec):
    """A dense matrix times a sparse vector, as a sparse vector."""
    return sparse([sum(r[j] * x for j, x in vec.items()) for r in rows])


def rand_cochain(rng, n):
    return sparse([Fraction(rng.randint(-4, 4)) for _ in range(n)])


def test_unit_cochain_is_left_identity_in_degree_zero():
    S = torus()
    X, z = S.complex, S.cocycle
    one = dict.fromkeys(range(X.n_simplices(0)), Fraction(1))
    a = Fraction(3, 2)
    rng = random.Random(0)
    for q in (0, 1, 2):
        v = rand_cochain(rng, X.n_simplices(q))
        assert twisted_cup(X, z, 0, q, Fraction(1), a, one, v) == v


def test_leibniz_identity_random():
    """delta_{ab}(u cup v) = delta_a u cup v + (-1)^p u cup delta_b v.

    This identity pins both the transport exponent in the cup product and
    the sign convention of the twisted coboundary; a wrong sign anywhere
    fails immediately on random data.
    """
    S = surface(2)
    X, z = S.complex, S.cocycle
    rng = random.Random(99)
    checked = 0
    for _ in range(100):
        a1 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        a2 = Fraction(rng.randint(-9, -1), rng.randint(1, 9))
        p, q = rng.choice([(0, 0), (0, 1), (1, 0), (1, 1)])
        u = rand_cochain(rng, X.n_simplices(p))
        v = rand_cochain(rng, X.n_simplices(q))
        uv = twisted_cup(X, z, p, q, a1, a2, u, v)
        lhs = apply_rows(twisted_coboundary_values(X, z, p + q, a1 * a2), uv)
        du = apply_rows(twisted_coboundary_values(X, z, p, a1), u)
        dv = apply_rows(twisted_coboundary_values(X, z, q, a2), v)
        t1 = twisted_cup(X, z, p + 1, q, a1, a2, du, v)
        t2 = twisted_cup(X, z, p, q + 1, a1, a2, u, dv)
        sign = (-1) ** p
        for i in {*lhs, *t1, *t2}:
            assert lhs.get(i, 0) == t1.get(i, 0) + sign * t2.get(i, 0)
        checked += 1
    assert checked == 100


def test_cup_with_field_monodromy():
    S = surface(2)
    X, z = S.complex, S.cocycle
    K = NumberField([2, -3, 2])
    a = K.generator()
    rng = random.Random(5)
    u = sparse([K.from_rational(rng.randint(-2, 2))
                for _ in range(X.n_simplices(1))])
    v = sparse([K.from_rational(rng.randint(-2, 2))
                for _ in range(X.n_simplices(1))])
    uv = twisted_cup(X, z, 1, 1, a, a.inverse(), u, v)
    assert uv and set(uv) <= set(range(X.n_simplices(2)))
    assert all(x for x in uv.values())


def test_cup_product_bilinear():
    S = torus()
    X, z = S.complex, S.cocycle
    rng = random.Random(12)
    a1, a2 = Fraction(2), Fraction(5, 3)
    u1 = rand_cochain(rng, X.n_simplices(1))
    u2 = rand_cochain(rng, X.n_simplices(1))
    v = rand_cochain(rng, X.n_simplices(1))
    def combined(x, y):
        return sparse([3 * x.get(j, 0) - 2 * y.get(j, 0)
                       for j in range(1 + max({*x, *y}))])

    lhs = twisted_cup(X, z, 1, 1, a1, a2, combined(u1, u2), v)
    p1 = twisted_cup(X, z, 1, 1, a1, a2, u1, v)
    p2 = twisted_cup(X, z, 1, 1, a1, a2, u2, v)
    assert lhs == combined(p1, p2)
