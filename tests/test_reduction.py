"""Differential tests: the unit-pivot-reduced twisted complex against the
unreduced simplicial complex it came from."""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from novikov import twisted
from novikov.cli import parse_scalar
from novikov.complexes import coboundary_of_vertex_function
from novikov.corpus import (circle, connected_sum, mapping_torus, surface,
                            torus)
from novikov.errors import NotAChainComplex
from novikov.invariants import (TwistedData, jump_locus, novikov_numbers,
                                twisted_dims)
from novikov.twisted import TwistedComplex, twisted_cohomology_dim


@lru_cache(maxsize=None)
def corpus_space(name):
    if name == "surface(2)":
        return surface(2)
    if name == "surface(3)":
        return surface(3)
    if name == "torus":
        return torus()
    if name == "klein":
        return mapping_torus(circle(3).complex, {0: 0, 1: 2, 2: 1})
    if name == "torus#torus":
        return connected_sum(torus(), torus())
    k, sign, shift = name
    # a dihedral symmetry of the k-cycle: the simplicial permutations
    return mapping_torus(circle(k).complex,
                         {v: (sign * v + shift) % k for v in range(k)})


NAMED = ["surface(2)", "surface(3)", "torus", "klein", "torus#torus"]
spaces = st.one_of(
    st.sampled_from(NAMED),
    st.tuples(st.integers(3, 5), st.sampled_from([1, -1]),
              st.integers(0, 4)))


@st.composite
def instances(draw):
    """A corpus space with its class gauge-changed by a random coboundary
    and scaled by n, which makes t^n - 1 the jump divisor."""
    space = corpus_space(draw(spaces))
    X, z = space.complex, space.cocycle
    f = {v: draw(st.integers(-2, 2)) for v in X.vertices()}
    n = draw(st.sampled_from([1, 2, 3]))
    return X, z.scaled_sum([(z, n), (coboundary_of_vertex_function(X, f), 1)])


def unreduced(X, z):
    """TwistedData over the full simplicial coboundaries (no reduction)."""
    T = TwistedComplex(X, z)
    return TwistedData(T.matrices, [X.n_simplices(q) for q in range(X.dim + 1)],
                       X.dim)


def jump_triples(report):
    return [(e.q, e.factor, e.dim) for e in report.entries]


@settings(max_examples=12, deadline=None, derandomize=True)
@given(instances())
def test_reduced_and_unreduced_smith_forms_agree(instance):
    X, z = instance
    full = unreduced(X, z)
    assert novikov_numbers(X, z) == novikov_numbers(full)
    assert jump_triples(jump_locus(X, z)) == jump_triples(jump_locus(full))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(instances(), st.lists(st.fractions(min_value=-5, max_value=5,
                                          max_denominator=5)
                             .filter(lambda a: a != 0),
                             min_size=2, max_size=2))
def test_reduced_dims_match_direct_elimination(instance, rationals):
    X, z = instance
    data = TwistedData.of(X, z)
    for a in rationals + [Fraction(1), parse_scalar("@-1,-3,2")]:
        direct = [twisted_cohomology_dim(X, z, q, a) for q in range(X.dim + 1)]
        assert twisted_dims(data, a) == direct, a


@settings(max_examples=25, deadline=None, derandomize=True)
@given(instances())
def test_reduced_sizes_keep_the_euler_characteristic(instance):
    X, z = instance
    _, sizes = TwistedComplex(X, z).reduced()
    assert len(sizes) == X.dim + 1
    assert all(0 <= s <= X.n_simplices(q) for q, s in enumerate(sizes))
    assert sum((-1) ** q * s for q, s in enumerate(sizes)) \
        == X.euler_characteristic()


def test_reduced_surface_is_minimal():
    s = surface(2)
    matrices, sizes = TwistedComplex(s.complex, s.cocycle).reduced()
    assert sizes == [1, 4, 1]
    assert [(m.rows, m.cols) for m in matrices] == [(4, 1), (1, 4)]


def test_corrupted_sparse_entry_is_not_a_chain_complex(monkeypatch):
    real = twisted.sparse_coboundary

    def corrupted(complex, z, q):
        rows = real(complex, z, q)
        if q == 1:
            j = next(iter(rows[0]))
            rows[0][j] = {0: 2}
        return rows

    s = surface(2)
    TwistedComplex(s.complex, s.cocycle)
    monkeypatch.setattr(twisted, "sparse_coboundary", corrupted)
    with pytest.raises(NotAChainComplex):
        TwistedComplex(s.complex, s.cocycle)
