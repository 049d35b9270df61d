import hashlib
import json
import random
from fractions import Fraction

import pytest

from novikov.corpus import (_staircase_block, circle, connected_sum,
                            mapping_torus, mapping_torus_cut,
                            mv_dims_from_matrices, mv_oracle_dims,
                            one_relator_complex, rational_cohomology,
                            reglue, space_from_json, space_to_json,
                            sphere_complex, sphere_product, surface, torus)
from novikov.complexes import build_complex
from novikov.corpus import GeneratedSpace
from novikov.errors import (DimensionMismatch, GluingError,
                            NotAManifoldInput, ParameterOutOfRange)
from novikov.invariants import (cup_length, jump_locus, jumps_json,
                                novikov_numbers, twisted_dims)
from novikov.polyq import Poly
from novikov.twisted import (CutPresentation, DeformationComplex,
                             SimplicialMap, TwistedComplex)
from reference_charpoly import char_poly
from reference_corpus import standard_corpus


def _betti(F):
    return [len(rational_cohomology(F, q)[0]) for q in range(F.dim + 1)]


def test_circle_shapes():
    c = circle(3)
    assert c.complex.f_vector() == (3, 3)
    assert c.complex.euler_characteristic() == 0
    assert circle(7).complex.f_vector() == (7, 7)
    with pytest.raises(ParameterOutOfRange):
        circle(2)


def test_sphere_complex_is_boundary_of_simplex():
    for n in (1, 2, 3):
        S = sphere_complex(n)
        assert S.dim == n
        assert S.euler_characteristic() == 1 + (-1) ** n
        assert _betti(S) == [1] + [0] * (n - 1) + [1]


def test_surface_betti_and_euler():
    for g in (1, 2, 3):
        s = surface(g)
        assert s.complex.euler_characteristic() == 2 - 2 * g
        assert _betti(s.complex) == [1, 2 * g, 1]
        assert s.manifold


def test_sphere_product_betti():
    p = sphere_product(2)
    assert _betti(p.complex) == [1, 1, 1, 1]
    assert p.complex.euler_characteristic() == 0


def test_mapping_torus_has_cut_presentation():
    t = torus()
    assert t.cut is not None
    assert t.cut.N.dim == 2
    assert t.cut.V.dim == 1
    plus = set(t.cut.i_plus.vertex_map.values())
    minus = set(t.cut.i_minus.vertex_map.values())
    assert not plus & minus


SEVEN_VERTEX_TORUS = ([(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
                      + [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)])


@pytest.mark.parametrize("F, h", [
    (circle(3).complex, {0: 0, 1: 1, 2: 2}),
    (circle(3).complex, {0: 0, 1: 2, 2: 1}),
    (circle(3).complex, {0: 1, 1: 2, 2: 0}),
    (sphere_complex(2), {v: v for v in range(4)}),
    (sphere_complex(3), {v: v for v in range(5)}),
    (build_complex(SEVEN_VERTEX_TORUS), {v: 2 * v % 7 for v in range(7)}),
    (circle(5).complex, {v: (v + 2) % 5 for v in range(5)}),
], ids=["torus", "klein", "rotation", "S1xS2", "S1xS3", "order3",
        "5-cycle-rotated-by-2"])
def test_the_cut_reglued_is_the_space(F, h):
    """Identifying i-(v) with i+(v) in N gives X's simplices, and an edge
    of N that enters i-(V) crosses the wall: its glued image counts +1
    from its end in N up to the glued end, -1 the other way, and every
    other edge of N carries 0 on its image."""
    space = mapping_torus(F, h)
    cut, z = space.cut, space.cocycle
    V = cut.V.vertices()
    glue = {cut.i_minus.vertex_map[v]: cut.i_plus.vertex_map[v] for v in V}
    image = {v: glue.get(v, v) for v in cut.N.vertices()}
    reglued = build_complex([image[v] for v in s]
                            for s in cut.N.maximal_simplices())
    assert reglued.simplices == space.complex.simplices
    crossings = 0
    for u, w in cut.N.edges():
        if w in glue and u not in glue:
            crossings += 1
            assert z.value(u, image[w]) == 1 == -z.value(image[w], u)
        else:
            assert z.value(image[u], image[w]) == 0
    assert crossings == sum(1 for e in space.complex.edges() if z.values[e])


def test_oracle_matches_twisted_and_deformation():
    F = circle(3).complex
    rot = {0: 1, 1: 2, 2: 0}
    spaces = [(torus(), {0: 0, 1: 1, 2: 2}),
              (mapping_torus(F, rot), rot)]
    rng = random.Random(11)
    for space, h in spaces:
        D = DeformationComplex(space.cut)
        red = TwistedComplex(space.complex, space.cocycle).reduced()
        for _ in range(10):
            a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            direct = twisted_dims(red, a)
            oracle = mv_oracle_dims(F, h, a)
            assert direct == oracle
            deform = [D.dim_at(q, 1 / a) for q in range(space.dimension + 1)]
            assert deform == direct


def test_self_map_eigenvalues_are_algebraic_units():
    # finite-order simplicial symmetries can only move cohomology by
    # integer matrices with unit determinant, degree by degree
    F3 = circle(3).complex
    F5 = circle(5).complex
    maps = [SimplicialMap(F3, F3, {0: 0, 1: 1, 2: 2}),
            SimplicialMap(F3, F3, {0: 1, 1: 2, 2: 0}),
            SimplicialMap(F5, F5, {i: (i + 2) % 5 for i in range(5)})]
    from novikov.corpus import induced_map_on_cohomology
    for h in maps:
        for q in range(h.source.dim + 1):
            m = induced_map_on_cohomology(h.source, h, q)
            if not m:
                continue
            coeffs = char_poly(m).primitive_int_coeffs()
            assert abs(coeffs[0]) == 1 and abs(coeffs[-1]) == 1


def test_matrix_level_oracle_anosov():
    # H^1 of the mapping torus of the cat map jumps exactly at roots of
    # x^2 - 3x + 1 (eigenvalue directions) and x - 1 (determinant one)
    h1 = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    mats = [[[Fraction(1)]], h1, [[Fraction(1)]]]
    generic = mv_dims_from_matrices(mats, Fraction(5, 7))
    assert generic == [0, 0, 0, 0]
    at_one = mv_dims_from_matrices(mats, Fraction(1))
    assert at_one == [1, 1, 1, 1]
    from novikov.numfield import NumberField
    root = NumberField([1, -3, 1]).generator()
    assert mv_dims_from_matrices(mats, root)[1] == 1
    assert mv_dims_from_matrices(mats, root.inverse())[1] == 1


def test_matrix_level_oracle_reads_a_not_its_inverse():
    """An h* whose eigenvalues are not closed under a -> 1/a pins the
    oracle's convention: H^1 jumps at the eigenvalue 2 of h*_1, not at
    1/2, and at the root sqrt(2) of t^2 - 2, not at 1/sqrt(2)."""
    from novikov.numfield import NumberField
    doubling = [[[1]], [[2]]]
    assert mv_dims_from_matrices(doubling, 2) == [0, 1, 1]
    assert mv_dims_from_matrices(doubling, Fraction(1, 2)) == [0, 0, 0]
    companion = [[[1]], [[0, 2], [1, 0]]]
    root = NumberField([-2, 0, 1]).generator()
    assert mv_dims_from_matrices(companion, root) == [0, 1, 1]
    assert mv_dims_from_matrices(companion, root.inverse()) == [0, 0, 0]


def test_connected_sum_bookkeeping():
    t = torus()
    s = connected_sum(t, t)
    # removing a triangle from each side costs one each, the glue restores
    # nothing in even dimension: chi = chi1 + chi2 - 2
    assert s.complex.euler_characteristic() == \
        2 * t.complex.euler_characteristic() - 2
    n1 = len(t.complex.simplices[2])
    assert len(s.complex.simplices[2]) == 2 * n1 - 2
    assert s.manifold
    # the class restricts to the first summand's class, zero on the second
    assert not s.cocycle.is_zero()


def test_connected_sum_rejects_bad_input():
    with pytest.raises(DimensionMismatch):
        connected_sum(sphere_product(2), torus())
    t = torus()
    fake = GeneratedSpace(t.complex, t.cocycle, "not a manifold", False)
    with pytest.raises(NotAManifoldInput):
        connected_sum(fake, t)


def test_connected_sum_of_circles_is_a_cycle():
    """Each circle less an edge is a path; the two paths glued end to end
    are one 5-cycle, which runs once around each summand, so the class's
    period around it is the sum of the two periods, 1 + 1."""
    s = connected_sum(circle(3), circle(4))
    assert s.complex.f_vector() == (5, 5)
    neighbours = {v: [] for v in s.complex.vertices()}
    for u, w in s.complex.edges():
        neighbours[u].append(w)
        neighbours[w].append(u)
    cycle = [0, neighbours[0][0]]
    while cycle[-1] != 0:
        cycle.append(next(w for w in neighbours[cycle[-1]]
                          if w != cycle[-2]))
    assert len(cycle) == 6
    assert abs(s.cocycle.transport_exponent(cycle)) == 2


@pytest.mark.parametrize("cut, values, match", [
    # the edge (2, 3) merges with (0, 1), which is no simplex of the wall
    (lambda: CutPresentation(build_complex([(0, 1), (2, 3)]),
                             build_complex([(0,), (1,)]),
                             {0: 0, 1: 1}, {0: 2, 1: 3}), {}, r"f\(X\)"),
    # one staircase block of a circle glued bottom to top: every vertical
    # edge collapses to a point
    (lambda: CutPresentation(
        build_complex(_staircase_block(circle(3).complex, lambda v: v,
                                       lambda v: v + 3)),
        circle(3).complex, {v: v for v in range(3)},
        {v: v + 3 for v in range(3)}), {}, r"f\(X\)"),
    # the torus's cut with 1 on the bottom copy of the fiber edge (0, 1)
    # and 0 on its top copy (9, 10)
    (lambda: CutPresentation(*mapping_torus_cut(circle(3).complex,
                                                {0: 0, 1: 1, 2: 2})),
     {(0, 1): 1}, "differ"),
], ids=["chord", "collapse", "conflict"])
def test_reglue_refuses_a_bad_gluing(cut, values, match):
    with pytest.raises(GluingError, match=match):
        reglue(cut(), values)


def test_connected_sum_cup_bound_dominates_summands():
    cands = [Fraction(2), Fraction(1, 2), Fraction(1)]
    for x1, x2 in [(torus(), torus()), (surface(2), torus())]:
        glued = connected_sum(x1, x2)
        whole = cup_length(TwistedComplex(glued.complex, glued.cocycle),
                           cands)
        part = cup_length(TwistedComplex(x1.complex, x1.cocycle), cands)
        assert whole.cl_lower_bound >= part.cl_lower_bound


def test_alexander_instance_shape():
    """The presentation complex of 5_2: 2 generator loops of 3 edges, a
    relator of 14 letters, so a disk of 3 * 42 triangles; it reduces to
    one 0-cell, one 1-cell per generator and one 2-cell."""
    knot = one_relator_complex("xyXYxyxYXyxYXY", {"x": 1, "y": 1})
    assert knot.complex.f_vector() == (48, 174, 126)
    assert knot.dimension == 2 and not knot.manifold and not knot.has_cut
    red = TwistedComplex(knot.complex, knot.cocycle).reduced()
    assert red.sizes == [1, 2, 1]
    report = jump_locus(red)
    assert report.generic == [0, 0, 0]
    assert report.entries
    # the JSON form keeps the class
    again = space_from_json(json.loads(json.dumps(space_to_json(knot))))
    assert jumps_json(jump_locus(
        TwistedComplex(again.complex, again.cocycle).reduced())) \
        == jumps_json(report)


def test_one_relator_complex_generators_and_relator():
    bs = one_relator_complex("taTAA", {"a": 0, "t": 1})
    assert bs.complex.f_vector() == (21, 66, 45)
    # generator k is the loop 0 -> 2k+1 -> 2k+2 -> 0, its weight on the
    # edge (0, 2k+1)
    assert [bs.cocycle.transport_exponent([0, 2 * k + 1, 2 * k + 2, 0])
            for k in range(2)] == [0, 1]
    assert bs.cocycle.value(0, 3) == 1
    for relator, weights in [("xY", {"x": 1}), ("xy", {"x": 1, "y": 1}),
                             ("", {"x": 0})]:
        with pytest.raises(ParameterOutOfRange):
            one_relator_complex(relator, weights)


def test_one_relator_complex_keeps_unused_generators():
    # <a, b | a a^-1> is the free group on a and b: the relator's disk
    # bounds a null-homotopic loop, so the complex is a 2-sphere wedged
    # with the two generator circles, and b's loop is there untouched
    space = one_relator_complex("aA", {"a": 1, "b": 0})
    assert space.cocycle.transport_exponent([0, 3, 4, 0]) == 0
    red = TwistedComplex(space.complex, space.cocycle).reduced()
    assert jump_locus(red).generic == [0, 1, 1]
    assert twisted_dims(red, 1) == [1, 2, 1]


ROTATION = {0: 1, 1: 2, 2: 0}

PINNED_JSON = {
    # 5_2 and BS(1,2), whose relators use every generator, as they were
    # before unused generators kept their loops
    "5_2": (
        lambda: one_relator_complex("xyXYxyxYXyxYXY", {"x": 1, "y": 1}),
        "7ec65860327fa729a0f6807b4ca50f73d01ec3ee9343f74a14f9f295e511e109"),
    "BS(1,2)": (
        lambda: one_relator_complex("taTAA", {"a": 0, "t": 1}),
        "66a0ecc5cb57391a18bf23b5f8fc911c11f51fbc3a44e0357b74a59a7f1b98c4"),
    # the mapping tori and connected sums as they were when each still
    # glued its vertices with its own code
    **{f"surface({g})": (lambda g=g: surface(g), digest)
       for g, digest in enumerate([
           "8540361b7c8f8ddb5de96e051d001cc0eb3fa624930f8010b08689d0df5c009e",
           "08aed6f79b853ca3e68ddcb5ea2c1b7b6b2512423ffc052cf9daa5e1eecbe747",
           "53e88953d840074c3d7a2cb52617279419626946c8b8e87ab2eaa32e336eb5c4",
           "a5db51d202e475baa4e363d9b57b99c9d88083a8593af089000aa10e41bcebb4",
           "e72cd1575a1f14714acc68f3ba1f66b6a0287f43fe2355fa479bc3755bdc9e6f",
           "c716b7d2ca77bf81fb109b8500ea2bdb5f031d31a57fe72fcdb116b8a505ba10",
       ], start=1)},
    "torus": (
        torus,
        "0c4bdf9240f6e1831f8eff17f92e6fb2fee669f8dd08a40f529e55ca995cca50"),
    "torus#torus": (
        lambda: connected_sum(torus(), torus()),
        "4e30b99f5ec003dde8e990c685f52c6473a53ad6d4c48aaac829bb0062527670"),
    "S1xS2": (
        lambda: sphere_product(2),
        "6fd67c429de00c8958eede019c215b25a1bad4aa2eae9f45cc7948238be28d86"),
    "S1xS3": (
        lambda: sphere_product(3),
        "37e8309a8d7420a304a200e51b140f3fae568ca97b68825faaffe33f0b78ff99"),
    "rotation": (
        lambda: mapping_torus(circle(3).complex, ROTATION),
        "0c6028b5ef20a13a715e64c9df6925522875a41c9abec1026615a5414e75c9d0"),
    "klein": (
        lambda: mapping_torus(circle(3).complex, {0: 0, 1: 2, 2: 1}),
        "2d8e5114ba89484c7adec15d70e85e5d56a686b50cfce6828e7e4979aa7241e9"),
    "order3": (
        lambda: mapping_torus(build_complex(SEVEN_VERTEX_TORUS),
                              {v: 2 * v % 7 for v in range(7)}),
        "354839cf80ed6d660dc6649f7fdea99bc02b2d32f71292457787fe5d49197a95"),
    "S1xS2#S1xS2": (
        lambda: connected_sum(sphere_product(2), sphere_product(2)),
        "8749d239c3d4e731286e69445fbadbeb384adefeccf0e2263d6f6fa4208ea15a"),
    "S1xS3#S1xS3": (
        lambda: connected_sum(sphere_product(3), sphere_product(3)),
        "827a1bdda628a4b6e770ed076ea7419eb6df24274c8436c22de5d16a13989f6e"),
    "surface(2)#rotation": (
        lambda: connected_sum(surface(2),
                              mapping_torus(circle(3).complex, ROTATION)),
        "d1130017bc15ca2c749f036e52efe2b2f1db4e20ddeac4e960b4cdc9ae88ae18"),
}


@pytest.mark.parametrize("name", list(PINNED_JSON))
def test_corpus_json_is_pinned(name):
    """The JSON of each space, byte for byte; ``build_complex`` goes
    through sets, so it must not depend on the hash seed either."""
    build, digest = PINNED_JSON[name]
    doc = json.dumps(space_to_json(build()), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", ["torus", "klein", "rotation", "order3",
                                  "S1xS2", "S1xS3"])
def test_deformation_and_twisted_routes_agree_on_smith_forms(name):
    """The Novikov numbers and the jump locus of the reduced deformation
    complex of the space's cut equal those of its reduced twisted complex,
    each jump factor replaced by its monic reciprocal: the deformation
    complex at t = a computes monodromy 1/a.

    What it cannot tell: every jump factor of these spaces is its own
    reciprocal (each is a mapping torus of an automorphism of finite
    order), so a deformation complex that computed monodromy a at t = a
    would pass too."""
    space = PINNED_JSON[name][0]()
    jumps = jump_locus(TwistedComplex(space.complex, space.cocycle).reduced())
    deformation = DeformationComplex(space.cut).reduced()
    assert jumps.entries
    assert novikov_numbers(deformation) == jumps.generic
    reciprocal = sorted((e.q, Poly(reversed(e.factor.coeffs)).monic().coeffs,
                         e.dim) for e in jumps.entries)
    assert sorted((e.q, e.factor.coeffs, e.dim)
                  for e in jump_locus(deformation).entries) == reciprocal


def test_standard_corpus_is_consistent():
    spaces = standard_corpus()
    assert len(spaces) == 7
    for space in spaces:
        assert space.complex.dim == space.dimension
        dims = twisted_dims(
            TwistedComplex(space.complex, space.cocycle).reduced(),
            Fraction(1))
        chi = space.complex.euler_characteristic()
        assert sum((-1) ** q * d for q, d in enumerate(dims)) == chi


def test_space_json_round_trip():
    for space in standard_corpus():
        doc = json.loads(json.dumps(space_to_json(space)))
        back = space_from_json(doc)
        assert back.complex.f_vector() == space.complex.f_vector()
        assert back.manifold == space.manifold
        red = TwistedComplex(space.complex, space.cocycle).reduced()
        red_back = TwistedComplex(back.complex, back.cocycle).reduced()
        for a in (Fraction(1), Fraction(3)):
            assert twisted_dims(red_back, a) == twisted_dims(red, a)
        if space.cut is not None:
            assert back.cut is not None
            D0 = DeformationComplex(space.cut)
            D1 = DeformationComplex(back.cut)
            assert [D0.dim_at(q, Fraction(2)) for q in range(space.dimension + 1)] \
                == [D1.dim_at(q, Fraction(2)) for q in range(space.dimension + 1)]
