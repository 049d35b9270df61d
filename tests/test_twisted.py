import random
from fractions import Fraction

import pytest

from novikov import twisted
from novikov.cli import parse_scalar
from novikov.complexes import build_complex, validate_cocycle
from novikov.corpus import (circle, mapping_torus, mv_oracle_dims,
                            sphere_complex, sphere_product, surface, torus)
from novikov.errors import (DegreeOutOfRange, DimensionMismatch,
                            ExponentTooLarge, NotAChainComplex,
                            NotAnIsomorphism, ZeroMonodromy)
from novikov.invariants import twisted_dims
from novikov.twisted import (MAX_EXPONENT, CoboundaryRows, CutPresentation,
                             DeformationComplex, SimplicialMap,
                             TwistedComplex, _evaluated_rank,
                             check_square_zero, evaluate_rows,
                             relative_reduced, restriction_epi,
                             twisted_cohomology_dim)


def test_twisted_complex_divisors_circle():
    c = circle(3)
    T = TwistedComplex(c.complex, c.cocycle)
    divisors = T.reduced().smith(0)
    assert divisors[-1] == divisors[-1].monic()
    assert divisors[-1].eval(Fraction(1)) == 0
    assert divisors[-1].degree == 1


def test_zero_monodromy_rejected():
    c = circle(3)
    with pytest.raises(ZeroMonodromy):
        twisted_cohomology_dim(c.complex, c.cocycle, 0, Fraction(0))


def test_laurent_routes_refuse_zero_monodromy():
    """t is a monodromy on the twisted and relative routes, so t = 0 is
    refused there, also where a pivot t**k would be inverted at 0; the
    deformation complex is read at t = 0 on purpose, and its one input
    ``at_zero`` restricts its pivots to +-1."""
    S = surface(2)
    X, z = S.complex, S.cocycle
    vertex = build_complex([X.simplices[0][0]])
    for red in (TwistedComplex(X, z).reduced(),
                relative_reduced(X, vertex, z)):
        assert not red.at_zero
        assert any(k for _q, _tau, _sigma, k, *_ in red.pivots)
        for q in range(3):
            for zero in (Fraction(0), 0):
                with pytest.raises(ZeroMonodromy):
                    red.dim_at(q, zero)
            with pytest.raises(ZeroMonodromy):
                red.g(q, Fraction(0))
            with pytest.raises(ZeroMonodromy):
                red.f(q, Fraction(0))
    # an entry t**-1 evaluated at 0 is no bare ZeroDivisionError
    with pytest.raises(ZeroMonodromy):
        evaluate_rows([{0: {-1: 1}}], Fraction(0))
    D = DeformationComplex(
        mapping_torus(circle(3).complex, {0: 0, 1: 2, 2: 1}).cut)
    assert D.at_zero and D.reduced().at_zero
    assert D.reduced().pivots
    assert all(k == 0 and abs(c) == 1
               for _q, _tau, _sigma, k, c, *_ in D.reduced().pivots)
    assert [D.dim_at(q, Fraction(0)) for q in range(D.top + 1)] \
        == [0] * (D.top + 1)
    # at_zero is keyword-only: a predicate passed where the parent code
    # took one is refused, never read as a truthy at_zero
    with pytest.raises(TypeError):
        twisted._unit_pivot_reduction(D.rows, D.sizes, twisted._is_unit)


def test_cut_presentation_rejects_overlapping_walls():
    N = build_complex([(0, 1), (1, 2)])
    V = build_complex([(9,)])
    with pytest.raises(DimensionMismatch):
        CutPresentation(N, V, {9: 1}, {9: 1})


def test_simplicial_map_validation():
    N = build_complex([(0, 1, 2)])
    V = build_complex([(5, 6)])
    SimplicialMap(V, N, {5: 0, 6: 2})
    with pytest.raises(NotAnIsomorphism):
        SimplicialMap(V, N, {5: 0, 6: 0})  # not injective
    W = build_complex([(5, 6), (6, 7), (5, 7)])
    X = build_complex([(0, 1), (1, 2), (2, 3)])
    with pytest.raises(NotAnIsomorphism):
        SimplicialMap(W, X, {5: 0, 6: 1, 7: 3})  # (5,7) has no image edge


def _cut_circle():
    """The circle cut at one vertex: an interval glued end to end."""
    N = build_complex([(0, 1), (1, 2), (2, 3)])
    V = build_complex([(9,)])
    return CutPresentation(N, V, {9: 0}, {9: 3})


def test_deformation_complex_cut_circle():
    """Interval cut of the circle: H^0 of the glued space jumps exactly at
    the unit monodromy, and the t = 0 fiber computes H^*(N, wall_+) = 0."""
    D = DeformationComplex(_cut_circle())
    assert D.top == 1 and D.sizes == [4, 4] and len(D.rows) == 1
    with pytest.raises(DegreeOutOfRange):
        D.dim_at(2, Fraction(1))
    nonunit = [d for d in D.reduced().smith(0) if d.degree >= 1]
    assert len(nonunit) == 1 and nonunit[0].eval(Fraction(1)) == 0
    assert [D.dim_at(q, Fraction(1)) for q in (0, 1)] == [1, 1]
    assert [D.dim_at(q, Fraction(3)) for q in (0, 1)] == [0, 0]
    assert [D.dim_at(q, Fraction(0)) for q in (0, 1)] == [0, 0]


def _mapping_tori():
    """(space, fiber, monodromy) for the torus, S1xS2, the Klein bottle and
    the order-3 torus bundle (the 7-vertex torus under v -> 2v mod 7)."""
    circle3 = circle(3).complex
    seven = build_complex([(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
                          + [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)])
    cases = [(circle3, {0: 0, 1: 1, 2: 2}),
             (sphere_complex(2), {v: v for v in range(4)}),
             (circle3, {0: 0, 1: 2, 2: 1}),
             (seven, {v: 2 * v % 7 for v in range(7)})]
    return [(mapping_torus(F, h), F, h) for F, h in cases]


def test_deformation_matches_twisted_at_inverse_monodromy():
    rng = random.Random(1)
    root = parse_scalar("@1,1,1")  # a root of t^2 + t + 1
    for space, F, h in _mapping_tori():
        D = DeformationComplex(space.cut)
        degrees = range(space.dimension + 1)
        rationals = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 7),
                              rng.randint(1, 7)) for _ in range(3)]
        for a in rationals + [Fraction(-1), root]:
            lhs = [D.dim_at(q, a) for q in degrees]
            direct = [twisted_cohomology_dim(space.complex, space.cocycle,
                                             q, 1 / a) for q in degrees]
            assert lhs == direct, (h, a)
            assert lhs == mv_oracle_dims(F, h, 1 / a), (h, a)
        # at t = 0 the complex computes H^*(F x I, F x 0) = 0
        assert [D.dim_at(q, Fraction(0)) for q in degrees] \
            == [0] * len(degrees), h


def test_deformation_reduction_eliminates_only_constant_pivots():
    """Every pivot of the deformation reduction is +-1, which stays a unit
    at t = 0, so the reduced complex reads the dimensions of the unreduced
    rows at every a, a = 0 included.  In the last cut, a path and a vertex
    joined across a two-point wall, an entry -t of a wall row is the
    cheapest unit +-t**k, yet it vanishes at t = 0."""
    points = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2, 3),
              Fraction(-5, 2), parse_scalar("@1,1,1")]
    path = CutPresentation(build_complex([(0, 2), (0, 3), (1,)]),
                           build_complex([(8,), (9,)]),
                           {8: 2, 9: 0}, {8: 1, 9: 3})
    cuts = ([_cut_circle()] + [space.cut for space, _F, _h in _mapping_tori()]
            + [path])
    for cut in cuts:
        D = DeformationComplex(cut)
        red = D.reduced()
        assert red.pivots
        assert all(k == 0 for _q, _tau, _sigma, k, *_ in red.pivots)
        for a in points:
            for q in range(D.top + 1):
                r_q = _evaluated_rank(D.rows[q], a) if q < D.top else 0
                r_prev = _evaluated_rank(D.rows[q - 1], a) if q else 0
                assert D.dim_at(q, a) == D.sizes[q] - r_q - r_prev, (q, a)


def test_corrupted_deformation_entry_is_not_a_chain_complex(monkeypatch):
    cut = torus().cut
    DeformationComplex(cut)
    real = cut.i_minus.image_simplex
    edge = cut.V.simplices[1][0]

    def corrupted(s):
        image, sign = real(s)
        return image, -sign if s == edge else sign

    monkeypatch.setattr(cut.i_minus, "image_simplex", corrupted)
    with pytest.raises(NotAChainComplex):
        DeformationComplex(cut)


def test_relative_dims_long_exact_euler():
    """Euler characteristics: chi(X, A) = chi(X) - chi(A), twisted at any a;
    exact values for A empty, A = X and A one vertex."""
    S = surface(2)
    X, z = S.complex, S.cocycle
    A = build_complex([s for s in X.simplices[1][:3]])
    empty = build_complex([])
    vertex = build_complex([X.simplices[0][0]])
    rel_A, rel_empty, rel_X, rel_vertex = (
        relative_reduced(X, B, z) for B in (A, empty, X, vertex))
    for a in (Fraction(2), Fraction(1), Fraction(-1, 3)):
        rel = [rel_A.dim_at(q, a) for q in range(3)]
        absolute = [twisted_cohomology_dim(X, z, q, a) for q in range(3)]
        sub_z = validate_cocycle(A, {e: z.value(*e) for e in A.edges()})
        sub = [twisted_cohomology_dim(A, sub_z, q, a) for q in range(A.dim + 1)]
        chi = lambda dims: sum((-1) ** i * d for i, d in enumerate(dims))
        assert chi(rel) == chi(absolute) - chi(sub)
        assert [rel_empty.dim_at(q, a) for q in range(3)] == absolute
        assert [rel_X.dim_at(q, a) for q in range(3)] == [0, 0, 0]
        # H^0(v) = Q restricts from H^0(X; E_a) isomorphically at a = 1;
        # at any other a, H^0(X; E_a) = 0 and H^0(v) injects into H^1(X, v)
        assert absolute[0] == (a == 1)
        assert [rel_vertex.dim_at(q, a) for q in range(3)] \
            == [0, absolute[1] + (a != 1), absolute[2]]


def test_restriction_epi_basic():
    c = circle(3)
    X, z = c.complex, c.cocycle
    A = build_complex([(0, 1)])
    empty = build_complex([])
    # empty subcomplex: relative and absolute cochains coincide
    for a in (Fraction(1), Fraction(2)):
        assert restriction_epi(X, empty, z, a, 0)
        assert restriction_epi(X, empty, z, a, 1)
    # A = X: the relative cochains are zero, so epi holds iff H^q vanishes
    for q in (0, 1):
        assert not restriction_epi(X, X, z, Fraction(1), q)
        assert restriction_epi(X, X, z, Fraction(2), q)
    # contractible edge: at a = 1 constants restrict nontrivially in degree 0,
    # while H^1(X, A) -> H^1(X) is onto since H^1(A) = 0
    assert not restriction_epi(X, A, z, Fraction(1), 0)
    assert restriction_epi(X, A, z, Fraction(1), 1)
    # twisted coefficients kill H^*(X; E_a), so the map is trivially onto
    for a in (Fraction(2), Fraction(1, 2)):
        assert restriction_epi(X, A, z, a, 0)
        assert restriction_epi(X, A, z, a, 1)


def test_delta_squared_zero_on_corpus():
    for space in (torus(), surface(2), sphere_product(2)):
        T = TwistedComplex(space.complex, space.cocycle)
        check_square_zero(T.rows)


def test_each_rank_is_evaluated_once_per_monodromy(monkeypatch):
    """dim_at in degree q and q + 1 both need the rank of delta_q: it is
    evaluated once per (q, a, field of a), on every route."""
    calls = []
    real = twisted._evaluated_rank

    def counting(rows, a):
        calls.append(a)
        return real(rows, a)

    monkeypatch.setattr(twisted, "_evaluated_rank", counting)
    s = surface(2)
    red = TwistedComplex(s.complex, s.cocycle).reduced()
    K = parse_scalar("@1,1,1").field
    for a in (Fraction(2), Fraction(1), K.from_rational(1),
              K.generator()):
        calls.clear()
        dims = twisted_dims(red, a)
        assert len(calls) == len(red.rows)
        assert twisted_dims(red, a) == dims
        assert len(calls) == len(red.rows)
    D = DeformationComplex(torus().cut)
    for a in (Fraction(0), Fraction(-5, 2)):
        calls.clear()
        for q in range(D.top + 1):
            D.dim_at(q, a)
        assert len(calls) == len(D.reduced().rows)


def test_exponents_beyond_the_bound_are_refused_off_zero_and_units():
    """t**k with |k| > MAX_EXPONENT is evaluated at 0 and +-1 only, in
    every evaluation that reads the cocycle's periods."""
    X = build_complex([(0, 1), (1, 2), (0, 2)])
    at_bound = validate_cocycle(X, {(0, 1): MAX_EXPONENT})
    assert [TwistedComplex(X, at_bound).reduced().dim_at(q, Fraction(2))
            for q in (0, 1)] == [0, 0]
    z = validate_cocycle(X, {(0, 1): MAX_EXPONENT + 1})
    red = TwistedComplex(X, z).reduced()
    # the period is odd
    assert [red.dim_at(q, Fraction(1)) for q in (0, 1)] == [1, 1]
    assert [red.dim_at(q, Fraction(-1)) for q in (0, 1)] == [0, 0]
    for a in (Fraction(2), Fraction(1, 2), parse_scalar("@1,1,1")):
        edges = {0: 1, 1: 1, 2: 1}
        uses = [lambda: red.dim_at(0, a), lambda: red.g(0, a)({0: 1}),
                lambda: red.f(1, a)(edges), lambda: red.h(1, a)(edges),
                lambda: red.ft(1, a)({0: 1}),
                lambda: CoboundaryRows(TwistedComplex(X, z), 0,
                                       a).row(0)]
        for use in uses:
            with pytest.raises(ExponentTooLarge):
                use()
