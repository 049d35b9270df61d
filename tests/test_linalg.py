"""The sparse echelon routine behind every exact elimination: rank,
nullspace, express, Span, transpose and cohomology, over Q and over a
number field."""

import copy
import random
from fractions import Fraction

import pytest

from novikov import kernels, linalg
from novikov.corpus import circle, mv_dims_from_matrices, surface, torus
from novikov.errors import ZeroDivisorEncountered
from novikov.linalg import (Span, cohomology, express, nullspace, rank,
                            transpose)
from novikov.numfield import FieldElement, NumberField

FIELD = NumberField([-1, -3, 2])  # Q[x]/(2x^2 - 3x - 1)


def _rational(rng, big=False):
    if big:
        return rng.randint(-10 ** 12, 10 ** 12)
    if rng.random() < 0.5:
        return rng.randint(-4, 4)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _algebraic(rng):
    return FIELD.element([Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                          rng.randint(-3, 3)])


def _matmul(a, b, zero):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), zero)
             for j in range(len(b[0]))] for i in range(len(a))]


def _known_rank_matrix(rng, entry, zero, one):
    """(matrix, rank): P [I; X] [I | Y] Q for permutations P, Q, so the
    rank is exactly r."""
    nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
    r = rng.randint(0, min(nrows, ncols))
    left = [[one if i == k else zero for k in range(r)] if i < r
            else [entry(rng) for _ in range(r)] for i in range(nrows)]
    right = [[one if j == k else zero for j in range(r)]
             + [entry(rng) for _ in range(ncols - r)] for k in range(r)]
    if r == 0:
        m = [[zero] * ncols for _ in range(nrows)]
    else:
        m = _matmul(left, right, zero)
    rng.shuffle(m)
    perm = list(range(ncols))
    rng.shuffle(perm)
    return [[row[j] for j in perm] for row in m], ncols, r


def _transpose(m, ncols):
    return [[row[j] for row in m] for j in range(ncols)]


def _sparse(vec):
    return {j: x for j, x in enumerate(vec) if x}


def _exact(values, zero):
    """No floats; over the field every entry is a FieldElement, like zero."""
    kinds = (FieldElement,) if isinstance(zero, FieldElement) \
        else (int, Fraction)
    return all(type(v) in kinds for v in values)


# entry generator, zero, one
CASES = {
    "rational": (_rational, 0, 1),
    "big": (lambda rng: _rational(rng, big=True), 0, 1),
    "field": (_algebraic, FIELD.zero(), FIELD.one()),
}


def test_known_ranks():
    assert rank([], 3) == 0
    assert rank([[0, 0], [0, 0]], 2) == 0
    assert rank([[1, 2], [2, 4]], 2) == 1
    assert rank([[1, 0], [0, 1]], 2) == 2
    assert rank([[2, 3, 5], [7, 11, 13]], 3) == 2
    assert rank([[Fraction(1, 3), 1], [1, 3]], 2) == 1
    x = FIELD.generator()
    assert rank([[x, 1], [2 * x * x, 2 * x]], 2) == 1
    assert rank([[x, 1], [1, x]], 2) == 2


def test_the_traced_names_are_the_one_rank():
    assert kernels.rank_int is rank
    assert linalg.rank_rational is rank and linalg.rank_generic is rank
    assert kernels.IMPLEMENTATION == "pure-python"


@pytest.mark.parametrize("name", CASES)
def test_rank_transpose_and_nullspace_agree(name):
    entry, zero, one = CASES[name]
    rng = random.Random(name)
    for _ in range(60):
        m, ncols, r = _known_rank_matrix(rng, entry, zero, one)
        snapshot = copy.deepcopy(m)
        basis = nullspace(m, ncols, zero, one)
        assert rank(m, ncols) == r
        assert rank(_transpose(m, ncols), len(m)) == r
        assert len(basis) == ncols - r
        for v in basis:
            assert _exact(v, zero)
            assert all(not sum((a * b for a, b in zip(row, v)), zero)
                       for row in m)
        assert m == snapshot


@pytest.mark.parametrize("name", CASES)
def test_express_and_span_agree(name):
    entry, zero, one = CASES[name]
    rng = random.Random(name)
    for _ in range(60):
        gens, n, _r = _known_rank_matrix(rng, entry, zero, one)
        span = Span()
        for g in gens:
            span.add(g)
        weights = [entry(rng) for _ in gens]
        inside = [sum((w * g[j] for w, g in zip(weights, gens)), zero)
                  for j in range(n)]
        outside = [entry(rng) for _ in range(n)]
        sparse_gens = [_sparse(g) for g in gens]
        snapshot = copy.deepcopy(sparse_gens)
        for target in (inside, outside):
            coeffs = express(sparse_gens, _sparse(target))
            assert span.contains(target) == (coeffs is not None)
            if coeffs is not None:
                assert _exact(coeffs.values(), zero)
                assert all(coeffs.values())
                assert [sum((c * gens[i][j] for i, c in coeffs.items()),
                            zero) for j in range(n)] == target
        assert sparse_gens == snapshot


def test_nullspace_is_the_free_column_basis():
    # RREF [[1, 2, 0, 3], [0, 0, 1, 4]]: free columns 1 and 3
    m = [[1, 2, 1, 7], [2, 4, 1, 10]]
    assert nullspace(m, 4, 0, 1) == [[-2, 1, 0, 0], [-3, 0, -4, 1]]
    # free variables of an underdetermined system come out zero
    assert express([{0: 1}, {1: 1}, {0: 1, 1: 1}], {0: 2, 1: 3}) \
        == {0: 2, 1: 3}


def test_int_pivots_are_inverted_exactly():
    basis = nullspace([[3, 1, 0], [0, 7, 2]], 3, 0, 1)
    assert basis == [[Fraction(2, 21), Fraction(-2, 7), 1]]
    assert _exact(basis[0], 0)
    assert express([{0: 2}, {}], {0: 1}) == {0: Fraction(1, 2)}


def test_zero_divisor_pivot_is_caught():
    # a root of (x^2 - 3x + 1)(x^2 + 1) is no field element; h* - a on
    # [[2, 1], [1, 1]] has determinant a^2 - 3a + 1, a zero divisor there
    fake = NumberField([1, -3, 2, -3, 1]).generator()
    with pytest.raises(ZeroDivisorEncountered):
        mv_dims_from_matrices([[[2, 1], [1, 1]]], fake)


# untwisted Betti numbers of the spaces whose coboundaries are read below
BETTI = {"circle(3)": (circle(3), [1, 1]),
         "torus": (torus(), [1, 2, 1]),
         "surface(2)": (surface(2), [1, 4, 1])}


def _cohomology(F, q):
    return cohomology(F.coboundary_rows(q), F.coboundary_rows(q - 1),
                      F.n_simplices(q), F.n_simplices(q - 1))


def _combination(terms):
    out = {}
    for c, v in terms:
        for j, x in v.items():
            y = out.get(j, 0) + c * x
            if y:
                out[j] = y
            else:
                out.pop(j, None)
    return out


@pytest.mark.parametrize("name", BETTI)
def test_cohomology_bases_and_coordinates(name):
    space, betti = BETTI[name]
    F = space.complex
    for q, b in enumerate(betti):
        reps, coords = _cohomology(F, q)
        assert len(reps) == b, q
        for i, v in enumerate(reps):
            snapshot = dict(v)
            assert coords(v) == [int(i == j) for j in range(b)], q
            assert v == snapshot  # coords reads its vector, keeps it
        boundaries = transpose(F.coboundary_rows(q - 1), F.n_simplices(q - 1))
        for c in boundaries:
            assert coords(c) == [0] * b, q
        # a class plus a coboundary keeps the class's coordinates
        x = [(-1) ** i * (i + 2) for i in range(b)]
        v = _combination(list(zip(x, reps)) + [(5, c) for c in boundaries[:2]])
        assert coords(v) == x, q
        if q < F.dim:  # the indicator of one simplex is no cocycle
            assert coords({0: 1}) is None, q


@pytest.mark.parametrize("name", BETTI)
def test_transpose_round_trips(name):
    F = BETTI[name][0].complex
    for q in range(F.dim):
        rows = F.coboundary_rows(q)
        n, m = len(rows), F.n_simplices(q)
        columns = transpose(rows, m)
        assert len(columns) == m
        assert all(columns[j][i] == x for i, row in enumerate(rows)
                   for j, x in row.items())
        assert transpose(columns, n) == rows
    assert transpose([], 3) == [{}, {}, {}]
