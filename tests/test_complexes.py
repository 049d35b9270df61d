from fractions import Fraction

import pytest

from novikov.complexes import (build_complex, twisted_coboundary_values,
                               validate_cocycle)
from novikov.errors import MalformedSimplex, MissingEdge, NotACocycle


def circle3():
    return build_complex([(0, 1), (1, 2), (0, 2)])


def test_face_closure_and_f_vector():
    X = build_complex([(0, 1, 2), (2, 3)])
    assert X.f_vector() == (4, 4, 1)
    assert X.has_simplex((0, 2))
    assert not X.has_simplex((1, 3))
    assert X.euler_characteristic() == 1


def test_repeated_vertex_rejected():
    with pytest.raises(MalformedSimplex):
        build_complex([(0, 1, 1)])


def test_unsorted_input_accepted():
    X = build_complex([(2, 0, 1)])
    assert X.simplices[2] == [(0, 1, 2)]


def test_coboundary_squares_to_zero():
    X = build_complex([(0, 1, 2, 3), (3, 4, 5)])
    for q in range(X.dim - 1):
        d_q = X.coboundary_rows(q)
        for row in X.coboundary_rows(q + 1):
            prod = {}
            for k, x in row.items():
                for j, y in d_q[k].items():
                    prod[j] = prod.get(j, 0) + x * y
            assert not any(prod.values())
    assert X.coboundary_rows(X.dim) == X.coboundary_rows(-1) == []


def test_cocycle_validation():
    X = build_complex([(0, 1, 2)])
    # an edge the map does not name reads 0
    assert validate_cocycle(X, {(0, 1): 1, (1, 2): -1}).value(0, 2) == 0
    with pytest.raises(NotACocycle):
        validate_cocycle(X, {(0, 1): 1, (1, 2): 0, (0, 2): 0})
    z = validate_cocycle(X, {(0, 1): 1, (1, 2): 2, (0, 2): 3})
    assert z.value(1, 0) == -1
    assert z.transport_exponent([0, 1, 2]) == 3
    with pytest.raises(MissingEdge):
        validate_cocycle(X, {(0, 3): 1})


def test_twisted_coboundary_at_unit_monodromy_is_untwisted():
    X = build_complex([(0, 1, 2), (1, 2, 3)])
    z = validate_cocycle(X, {(0, 2): 1, (1, 2): 1, (1, 3): 1})
    rows = twisted_coboundary_values(X, z, 0, Fraction(1))
    plain = X.coboundary_rows(0)
    assert [[Fraction(r.get(j, 0)) for j in range(X.n_simplices(0))]
            for r in plain] == rows


def test_maximal_simplices():
    X = build_complex([(0, 1, 2), (2, 3)])
    assert set(X.maximal_simplices()) == {(0, 1, 2), (2, 3)}
