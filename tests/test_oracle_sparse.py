"""The Mayer-Vietoris oracle on sparse integer cochains against the dense
route it replaced, the integer pivot rule of ``Span`` it relies on, and
the face closure of ``build_complex``."""

from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from novikov import complexes, corpus, linalg, twisted
from novikov.complexes import build_complex, validate_cocycle
from novikov.corpus import (circle, connected_sum,
                            induced_map_on_cohomology, mapping_torus,
                            mv_oracle_dims, rational_cohomology,
                            sphere_complex, sphere_product, surface, torus)
from novikov.errors import MalformedSimplex, NotAnIsomorphism
from novikov.linalg import Span, express, kernel
from novikov.numfield import FieldElement, NumberField
from novikov.twisted import (SimplicialMap, cocycle_space_basis,
                             coboundary_image_vectors)
from reference_charpoly import char_poly

SEVEN_VERTEX_TORUS = ([(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
                      + [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)])


def _sparse(vec):
    return {j: x for j, x in enumerate(vec) if x}


def _dense_induced_map(F, h, q):
    """h* on H^q(F; Q) as the oracle computed it before: bases from the
    dense coboundaries at a = 1, h* as a dense pullback matrix times each
    representative, and one ``express`` per representative."""
    z0 = validate_cocycle(F, {})
    one = Fraction(1)
    cobs = coboundary_image_vectors(F, z0, q, one)
    span = Span()
    for v in cobs:
        span.add(v)
    reps = [v for v in cocycle_space_basis(F, z0, q, one) if span.add(v)]
    if not reps:
        return []
    P = []
    for s in F.simplices[q]:
        row = [0] * F.n_simplices(q)
        image, sign = h.image_simplex(s)
        row[F.index[q][image]] = sign
        P.append(row)
    cols = []
    for r in reps:
        image = [sum(P[i][j] * r[j] for j in range(len(r)))
                 for i in range(len(P))]
        coeffs = express([_sparse(x) for x in reps + cobs], _sparse(image))
        assert coeffs is not None
        cols.append([coeffs.get(i, Fraction(0)) for i in range(len(reps))])
    k = len(reps)
    return [[cols[j][i] for j in range(k)] for i in range(k)]


def _automorphisms(F, candidates):
    """The vertex maps among ``candidates`` that are simplicial
    automorphisms of F, as maps F -> F."""
    out = []
    for vertex_map in candidates:
        try:
            out.append(SimplicialMap(F, F, vertex_map))
        except NotAnIsomorphism:
            pass
    return out


def _all_permutations(F):
    verts = F.vertices()
    return [dict(zip(verts, p)) for p in permutations(verts)]


def _fibers():
    """(name, fiber, its automorphisms).  The 7-vertex torus is searched
    among the affine maps v -> u v + c mod 7, which include the order-3
    map v -> 2v of the benchmark's torus bundle."""
    T7 = build_complex(SEVEN_VERTEX_TORUS)
    affine = [{v: (u * v + c) % 7 for v in range(7)}
              for u in range(1, 7) for c in range(7)]
    out = []
    for name, F, candidates in [
            ("circle(3)", circle(3).complex, None),
            ("circle(5)", circle(5).complex, None),
            ("sphere_complex(2)", sphere_complex(2), None),
            ("7-vertex torus", T7, affine)]:
        autos = _automorphisms(F, candidates or _all_permutations(F))
        out.append((name, F, autos))
    return out


FIBERS = _fibers()


def test_the_fibers_have_the_expected_symmetries():
    assert [len(autos) for _name, _F, autos in FIBERS] == [6, 10, 24, 42]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(FIBERS), st.data())
def test_sparse_and_dense_h_star_have_the_same_char_polys(fiber, data):
    name, F, autos = fiber
    h = data.draw(st.sampled_from(autos))
    for q in range(F.dim + 1):
        sparse = induced_map_on_cohomology(F, h, q)
        dense = _dense_induced_map(F, h, q)
        assert len(sparse) == len(dense), (name, q)
        assert char_poly(sparse) == char_poly(dense), \
            (name, h.vertex_map, q)


def test_the_oracle_uses_neither_dense_cochains_nor_the_old_helpers(
        monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called a dense helper")

    for module, name in [(complexes, "twisted_coboundary_values"),
                         (twisted, "twisted_coboundary_values"),
                         (twisted, "cocycle_space_basis"),
                         (twisted, "coboundary_image_vectors"),
                         (linalg, "express"), (corpus, "express"),
                         (corpus, "cocycle_space_basis"),
                         (corpus, "coboundary_image_vectors"),
                         (corpus, "twisted_coboundary_values")]:
        monkeypatch.setattr(module, name, refuse, raising=False)
    monkeypatch.setattr(SimplicialMap, "pullback_matrix", refuse,
                        raising=False)
    T7 = FIBERS[3][1]
    h = {v: 2 * v % 7 for v in range(7)}
    assert mv_oracle_dims(T7, h, Fraction(7, 3)) == [0, 0, 0, 0]
    assert mv_oracle_dims(T7, h, Fraction(1)) == [1, 1, 1, 1]
    # h* on H^1 has the characteristic polynomial t^2 + t + 1
    assert mv_oracle_dims(T7, h, NumberField([1, 1, 1]).generator()) \
        == [0, 1, 1, 0]
    assert mv_oracle_dims(circle(3).complex, {0: 0, 1: 2, 2: 1},
                          Fraction(-1)) == [0, 1, 1]


def test_one_echelon_per_degree_whatever_the_cohomology(monkeypatch):
    """Coordinates of every h*(rep_i) come from one echelon: each degree
    builds two Spans (the kernel of delta_q and the coordinate echelon),
    as many when H^q has two generators as when it has none."""
    built = []
    real_init = Span.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Span, "__init__", counting)
    T7 = FIBERS[3][1]
    h = SimplicialMap(T7, T7, {v: 2 * v % 7 for v in range(7)})
    for q, b in enumerate([1, 2, 1]):
        built.clear()
        assert len(induced_map_on_cohomology(T7, h, q)) == b
        assert len(built) == 2, q


def test_representatives_are_sparse_integer_cocycles():
    T7 = FIBERS[3][1]
    for q, b in enumerate([1, 2, 1]):
        reps, _echelon = rational_cohomology(T7, q)
        assert len(reps) == b
        for r in reps:
            assert isinstance(r, dict)
            assert all(type(x) is int and x for x in r.values())


def _flip_sign_of(monkeypatch, simplex):
    real = SimplicialMap.image_simplex

    def flipped(self, s):
        image, sign = real(self, s)
        return image, -sign if tuple(s) == simplex else sign

    monkeypatch.setattr(SimplicialMap, "image_simplex", flipped)


def test_a_pullback_that_leaves_the_cocycles_is_refused(monkeypatch):
    # in degree 0 the representative is the constant function, and minus
    # one value is no cocycle
    F = circle(3).complex
    h = SimplicialMap(F, F, {v: v for v in F.vertices()})
    _flip_sign_of(monkeypatch, (1,))
    with pytest.raises(NotAnIsomorphism):
        induced_map_on_cohomology(F, h, 0)


def test_a_flipped_edge_in_a_representative_is_refused(monkeypatch):
    T7 = FIBERS[3][1]
    h = SimplicialMap(T7, T7, {v: v for v in T7.vertices()})
    rep = rational_cohomology(T7, 1)[0][0]
    edge = T7.simplices[1][min(rep)]
    _flip_sign_of(monkeypatch, edge)
    with pytest.raises(NotAnIsomorphism):
        induced_map_on_cohomology(T7, h, 1)


def _entries(span):
    return [(type(x), x) for p in sorted(span.rows)
            for x in span.rows[p].values()]


def test_int_pivots_of_one_keep_integer_rows():
    span = Span()
    assert span.insert({0: -1, 1: 3, 2: -2})
    assert span.insert({1: 1, 2: 5})
    assert _entries(span) == [(int, 1), (int, -3), (int, 2),
                              (int, 1), (int, 5)]
    assert not span.insert({0: 1, 1: -3, 2: 2})
    # kernel's back-substitution of those rows keeps them integer too
    basis = kernel([{0: -1, 1: 3, 2: -2}, {1: 1, 2: 5}], 3)
    assert basis == [{2: 1, 0: -17, 1: -5}]
    assert all(type(x) is int for x in basis[0].values())


def test_other_int_pivots_give_fractions():
    span = Span()
    assert span.insert({0: 2, 1: 3})
    assert _entries(span) == [(Fraction, 1), (Fraction, Fraction(3, 2))]
    assert span.reduce({0: 4, 1: 7}) == {1: Fraction(1)}


def test_field_element_pivots_are_inverted_in_the_field():
    K = NumberField([-1, -3, 2])
    x = K.generator()
    span = Span()
    assert span.insert({0: x, 1: K.one()})
    row = span.rows[0]
    assert all(isinstance(v, FieldElement) for v in row.values())
    assert row[0] == K.one() and row[1] == x.inverse()


def _reference_build(maximal_simplices):
    """``build_complex`` as it was, with one set allocated per face."""
    by_dim = {}
    for s in maximal_simplices:
        tup = tuple(s)
        if len(set(tup)) != len(tup):
            raise MalformedSimplex(f"repeated vertex in {tup}")
        tup = tuple(sorted(tup))
        for k in range(1, len(tup) + 1):
            for face in combinations(tup, k):
                by_dim.setdefault(k - 1, set()).add(face)
    if not by_dim:
        return []
    return [sorted(by_dim.get(q, set())) for q in range(max(by_dim) + 1)]


def _benchmark_spaces():
    F3 = circle(3).complex
    T7 = build_complex(SEVEN_VERTEX_TORUS)
    spaces = [surface(g) for g in range(2, 7)]
    spaces += [sphere_product(2), sphere_product(3), torus(),
               connected_sum(torus(), torus()),
               mapping_torus(F3, {0: 1, 1: 2, 2: 0}),
               mapping_torus(F3, {0: 0, 1: 2, 2: 1}),
               mapping_torus(T7, {v: 2 * v % 7 for v in range(7)})]
    return spaces


def test_build_complex_gives_the_same_simplex_lists():
    for space in _benchmark_spaces():
        complexes_ = [space.complex]
        if space.cut is not None:
            complexes_ += [space.cut.N, space.cut.V]
        for X in complexes_:
            # unsorted and repeated input, as a JSON document may give it
            tops = [tuple(reversed(s)) for s in X.maximal_simplices()]
            tops += tops[:3]
            assert build_complex(tops).simplices == _reference_build(tops)
    assert build_complex([]).simplices == _reference_build([]) == []
    assert build_complex([(), (3,)]).simplices == [[(3,)]]


def test_build_complex_keeps_its_message_for_a_repeated_vertex():
    with pytest.raises(MalformedSimplex) as new:
        build_complex([(0, 1), (2, 1, 2)])
    with pytest.raises(MalformedSimplex) as old:
        _reference_build([(0, 1), (2, 1, 2)])
    assert str(new.value) == str(old.value) == "repeated vertex in (2, 1, 2)"
