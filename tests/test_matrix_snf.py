import random
from fractions import Fraction

from novikov.matrix import PolyMatrix, rank_at, snf
from novikov.numfield import NumberField
from novikov.polyq import Poly


def t():
    return Poly.monomial(1)


def rand_matrix(rng, rows, cols, deg):
    entries = [[Poly([Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(0, deg) + 1)])
                for _ in range(cols)] for _ in range(rows)]
    return PolyMatrix(rows, cols, entries)


def test_snf_upper_triangular_example():
    m = PolyMatrix(2, 2, [[t(), Poly.const(1)], [Poly(), t()]])
    form = snf(m)
    assert form.divisors == [Poly.const(1), t() * t()]
    assert form.rank == 2
    assert form.rank_at(Fraction(0)) == 1
    assert form.rank_at(Fraction(5)) == 2


def test_snf_divisibility_chain_random():
    rng = random.Random(7)
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = rand_matrix(rng, rows, cols, 4)
        form = snf(m)
        divisors = form.divisors
        assert len(divisors) <= min(rows, cols)
        for d in divisors:
            assert not d.is_zero()
            assert d.leading() == 1  # monic normalization
        for d1, d2 in zip(divisors, divisors[1:]):
            assert d1.divides(d2)


def test_snf_rank_matches_direct_rank_at_points():
    rng = random.Random(8)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols, 3)
        form = snf(m)
        for _ in range(4):
            a = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            assert form.rank_at(a) == rank_at(m, a)


def test_rank_at_field_element():
    field = NumberField([2, -3, 2])
    a = field.generator()
    m = PolyMatrix(1, 2, [[Poly(), Poly([2, -3, 2])]])
    assert rank_at(m, a) == 0
    assert rank_at(m, Fraction(1)) == 1


def test_rank_at_factor_root():
    m = PolyMatrix(2, 2, [[Poly([-1, 1]), Poly()],
                          [Poly(), Poly([-1, 1]) * Poly([2, -3, 2])]])
    form = snf(m)
    assert form.rank == 2
    assert form.rank_at_factor_root(Poly([-1, 1])) == 0
    assert form.rank_at_factor_root(Poly([1, Fraction(-3, 2), 1])) == 1


def test_empty_and_zero_matrices():
    assert snf(PolyMatrix(0, 3)).rank == 0
    assert snf(PolyMatrix(3, 0)).rank == 0
    assert snf(PolyMatrix(2, 2)).rank == 0


def test_divisibility_fixup_skips_zero_entries(monkeypatch):
    """On a sparse matrix the fixup never asks whether the pivot divides a
    zero entry, and the divisors are those of the scattered diagonal."""
    s = Poly([-1, 1])            # t - 1
    u = Poly([1, 1])             # t + 1
    m = PolyMatrix(5, 6)
    m[0, 3] = s * u
    m[2, 0] = Poly.const(3)
    m[3, 5] = t() * s
    m[4, 1] = s
    calls = []
    real = Poly.divides

    def recording(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(Poly, "divides", recording)
    form = snf(m)
    assert calls and all(not c.is_zero() for c in calls)
    assert form.divisors == [Poly.const(1), s, s, s * u * t()]
