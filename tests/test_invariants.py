import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from novikov.complexes import OneCocycle, validate_cocycle
from novikov.corpus import (circle, connected_sum, one_relator_complex,
                            space_from_json, sphere_product, surface, torus)
from novikov.errors import NotInSpan, ZeroMonodromy
from novikov.invariants import (crit_bound, cup_length, default_candidates,
                                jump_locus, novikov_numbers, report_json,
                                thm3_bound, twisted_dims)
from novikov.numfield import NumberField
from novikov.polyq import Poly, rational_roots
from novikov.twisted import DeformationComplex, TwistedComplex


def test_novikov_numbers_known_spaces():
    c = circle(3)
    assert novikov_numbers(
        TwistedComplex(c.complex, c.cocycle).reduced()) == [0, 0]
    s = surface(2)
    assert novikov_numbers(
        TwistedComplex(s.complex, s.cocycle).reduced()) == [0, 2, 0]
    p = sphere_product(2)
    assert novikov_numbers(
        TwistedComplex(p.complex, p.cocycle).reduced()) == [0, 0, 0, 0]
    t = torus()
    assert novikov_numbers(
        TwistedComplex(t.complex, t.cocycle).reduced()) == [0, 0, 0]


def test_jump_locus_surface():
    s = surface(2)
    report = jump_locus(TwistedComplex(s.complex, s.cocycle).reduced())
    assert report.generic == [0, 2, 0]
    tm1 = Poly([-1, 1])
    dims = {e.q: e.dim for e in report.entries if e.factor == tm1}
    assert dims == {0: 1, 1: 4, 2: 1}
    for e in report.entries:
        assert e.dim > report.generic[e.q]


def test_jump_locus_sphere_product():
    p = sphere_product(2)
    report = jump_locus(TwistedComplex(p.complex, p.cocycle).reduced())
    assert report.generic == [0, 0, 0, 0]
    tm1 = Poly([-1, 1])
    dims = {e.q: e.dim for e in report.entries if e.factor == tm1}
    assert dims == {0: 1, 1: 1, 2: 1, 3: 1}


def test_twisted_dims_match_betti_at_unit():
    for space in (circle(4), torus(), surface(2)):
        dims = twisted_dims(
            TwistedComplex(space.complex, space.cocycle).reduced(),
            Fraction(1))
        chi = space.complex.euler_characteristic()
        assert sum((-1) ** q * d for q, d in enumerate(dims)) == chi
    s = surface(2)
    red = TwistedComplex(s.complex, s.cocycle).reduced()
    assert twisted_dims(red, Fraction(1)) == [1, 4, 1]
    assert twisted_dims(red, Fraction(3)) == [0, 2, 0]
    t = torus()
    red = TwistedComplex(t.complex, t.cocycle).reduced()
    assert twisted_dims(red, Fraction(2)) == [0, 0, 0]


def test_twisted_dims_at_zero_are_read_where_the_complex_allows():
    """a = 0 is read on the deformation route, where t = 0 gives
    H*(N, wall+), and refused on the twisted route, by the complex each
    reads rather than by twisted_dims."""
    t = torus()
    assert twisted_dims(DeformationComplex(t.cut).reduced(), 0) == [0, 0, 0]
    with pytest.raises(ZeroMonodromy):
        twisted_dims(TwistedComplex(t.complex, t.cocycle).reduced(), 0)


def test_twisted_dims_agree_with_jump_report():
    s = surface(3)
    red = TwistedComplex(s.complex, s.cocycle).reduced()
    report = jump_locus(red)
    for e in report.entries:
        if e.factor == Poly([-1, 1]):
            assert twisted_dims(red, Fraction(1))[e.q] == e.dim


def test_cup_length_surface_with_jump_roots():
    s = surface(2)
    rep = cup_length(TwistedComplex(s.complex, s.cocycle),
                     [Fraction(2), Fraction(1, 2)])
    assert rep.cl_lower_bound == 2
    assert rep.crit_bound == 1
    cert = rep.certificate
    assert cert is not None
    assert cert.k == 2
    assert [f[1] for f in cert.factors] == [1, 1]
    assert cert.nonunit_count() >= 2
    assert any(w != 0 for w in cert.witness)


def test_cup_length_monotone_in_candidates():
    s = surface(2)
    small = cup_length(TwistedComplex(s.complex, s.cocycle), [Fraction(2)])
    large = cup_length(TwistedComplex(s.complex, s.cocycle),
                       [Fraction(2), Fraction(1, 2), Fraction(1)])
    assert large.cl_lower_bound >= small.cl_lower_bound


def test_cup_length_field_candidates():
    # roots of 2 - 3t + 2t^2 are inverse to each other, so the quadratic
    # pairing on a genus-2 surface still closes up at monodromy 1
    field = NumberField([2, -3, 2])
    a = field.generator()
    s = surface(2)
    rep = cup_length(TwistedComplex(s.complex, s.cocycle), [a, a.inverse()])
    assert rep.cl_lower_bound == 2
    assert rep.certificate is not None
    assert rep.certificate.nonunit_count() >= 2


def test_cup_length_zero_class_reports_untwisted_fallback():
    s = surface(2)
    zero = validate_cocycle(s.complex, {})
    rep = cup_length(TwistedComplex(s.complex, zero), [Fraction(2)])
    assert rep.cl_lower_bound == 0
    assert rep.certificate is None
    assert rep.untwisted_cup_length is not None
    assert rep.untwisted_cup_length >= 2
    assert rep.notes


def test_crit_bound_surface_default_candidates():
    s = surface(2)
    rep = crit_bound(TwistedComplex(s.complex, s.cocycle), seed=0)
    assert rep.cl_lower_bound == 2
    assert rep.crit_bound == 1
    assert rep.mode == "probabilistic"
    assert rep.certificate is not None


def test_crit_bound_deterministic_given_seed():
    s = surface(2)
    a = crit_bound(TwistedComplex(s.complex, s.cocycle), seed=7)
    b = crit_bound(TwistedComplex(s.complex, s.cocycle), seed=7)
    assert a.cl_lower_bound == b.cl_lower_bound
    assert a.certificate.total_degree == b.certificate.total_degree


def test_crit_bound_alexander_instance():
    """The presentation complex of the knot 5_2: every generic twisted
    dimension vanishes, and the roots of its Alexander polynomial
    2 - 3t + 2t^2, no units, jump.  It is no closed manifold, and the
    search certifies no product of two non-unit classes, so the bound is
    0: no note, no certificate."""
    knot = one_relator_complex("xyXYxyxYXyxYXY", {"x": 1, "y": 1})
    twisted = TwistedComplex(knot.complex, knot.cocycle)
    red = twisted.reduced()
    assert novikov_numbers(red) == [0, 0, 0]
    report = jump_locus(red)
    alexander = Poly([Fraction(1), Fraction(-3, 2), Fraction(1)])
    assert [e.q for e in report.entries if e.factor == alexander] == [1, 2]
    rep = crit_bound(twisted)
    assert (rep.cl_lower_bound, rep.crit_bound, rep.notes) == (0, 0, [])
    assert rep.certificate is None
    root = NumberField([2, -3, 2]).generator()
    assert twisted_dims(red, Fraction(2)) == [0, 0, 0]
    assert twisted_dims(red, Fraction(1)) == [1, 1, 0]
    assert twisted_dims(red, root) == [0, 1, 1]
    assert twisted_dims(red, root.inverse()) == [0, 1, 1]


def test_baumslag_solitar_jump_is_not_reciprocal():
    """BS(1,2) = <a, t | t a t^-1 = a^2> with a -> 0, t -> 1: the jump
    factor t - 2 has the root 2, whose inverse 1/2 is no jump."""
    bs = one_relator_complex("taTAA", {"a": 0, "t": 1})
    red = TwistedComplex(bs.complex, bs.cocycle).reduced()
    report = jump_locus(red)
    assert report.generic == [0, 0, 0]
    assert [e.q for e in report.entries if e.factor == Poly([-2, 1])] \
        == [1, 2]
    assert twisted_dims(red, Fraction(2)) == [0, 1, 1]
    assert twisted_dims(red, Fraction(1, 2)) == [0, 0, 0]


def test_a_jump_factor_of_degree_100():
    """The relator a^c_0 t a^c_1 t ... a^c_100 t^-100, with random c_k in
    -3..3 and c_100 = 1, has the Fox derivative sum_k c_k t^k by a, a
    jump factor of degree 100 in degrees 1 and 2.  Its squarefree test
    takes gcds of degree 100 with integer coefficients."""
    rng = random.Random(0)
    cs = [rng.randint(-3, 3) for _ in range(100)] + [1]
    word = "t".join(("a" if c > 0 else "A") * abs(c) for c in cs)
    space = one_relator_complex(word + "T" * 100, {"t": 1, "a": 0})
    report = jump_locus(TwistedComplex(space.complex, space.cocycle).reduced())
    assert report.generic == [0, 0, 0]
    assert [(e.q, e.factor, e.dim) for e in report.entries] == [
        (0, Poly([-1, 1]), 1), (1, Poly([-1, 1]), 1),
        (1, Poly(cs), 1), (2, Poly(cs), 1)]


def _reference_rational_roots(report):
    """The rational roots of the jump factors by the rational root test,
    in the order of the factors."""
    roots = []
    for f in report.factors():
        for r in rational_roots(f):
            if r not in roots:
                roots.append(r)
    return roots


def _reference_irrational_factors(report):
    """The jump factors of degree >= 2 that have no rational root."""
    return [f for f in report.factors()
            if f.degree >= 2 and not rational_roots(f)]


def _assert_roots_read_off_the_factors(report):
    """The report reads its rational roots off the linear factors, and
    its irrational factors off their degree, as the root test would."""
    roots = report.rational_roots()
    assert roots == _reference_rational_roots(report)
    assert all(type(r) is Fraction and r != 0 for r in roots)
    assert report.irrational_factors() == _reference_irrational_factors(
        report)
    assert all(f.degree == 1 or not rational_roots(f)
               for f in report.factors())


def _designed_presentation(cs):
    """The one-relator complex of prod_k t^k a^c_k t^-k, a -> 0, t -> 1,
    whose jump factor in degree 1 is sum_k c_k t^k, up to units."""
    word = "".join("t" * k + ("a" if c > 0 else "A") * abs(c) + "T" * k
                   for k, c in enumerate(cs))
    return one_relator_complex(word, {"t": 1, "a": 0})


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.integers(-6, 6), min_size=2, max_size=5).filter(any))
@example([-36, 36, -11, 1])                # (t - 2)(t - 3)(t - 6)
@example([-6, 25, -46, 46, -25, 6])        # (t - 1)(2t^2-3t+2)(3t^2-5t+3)
@example([-2, 0, 1])                       # t^2 - 2
def test_jump_roots_of_designed_presentations(cs):
    space = _designed_presentation(cs)
    _assert_roots_read_off_the_factors(
        jump_locus(TwistedComplex(space.complex, space.cocycle).reduced()))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 60))
@example(12)
@example(30)
def test_jump_roots_of_period_triangles(period):
    """The triangle boundary with period P on one edge jumps at the
    factors of t^P - 1: t - 1, t + 1 for even P, and the rest of
    degree >= 2."""
    space = space_from_json({
        "maximal_simplices": [[0, 1], [1, 2], [0, 2]],
        "cocycle": {"edges": [[0, 1, period]]}})
    report = jump_locus(TwistedComplex(space.complex, space.cocycle).reduced())
    _assert_roots_read_off_the_factors(report)
    assert sorted(report.rational_roots()) == ([-1, 1] if period % 2 == 0
                                               else [1])


def test_crit_bound_connected_sum():
    x = connected_sum(torus(), torus())
    rep = crit_bound(TwistedComplex(x.complex, x.cocycle), seed=0)
    assert rep.cl_lower_bound >= 2
    assert rep.crit_bound >= 1


def test_default_candidates_closed_under_inverse():
    s = surface(2)
    report = jump_locus(TwistedComplex(s.complex, s.cocycle).reduced())
    cands = default_candidates(report, random.Random(0))
    rationals = [c for c in cands if isinstance(c, Fraction)]
    for c in rationals:
        assert 1 / c in rationals
    assert Fraction(1) in cands


def test_thm3_bound_single_base_matches_crit_bound():
    s = surface(2)
    direct = crit_bound(TwistedComplex(s.complex, s.cocycle), seed=0)
    via = thm3_bound(TwistedComplex(s.complex, s.cocycle), [s.cocycle],
                     [(1,)], seed=0)
    assert via.cl_lower_bound == direct.cl_lower_bound


def test_thm3_bound_rejects_degenerate_approximants():
    s = surface(2)
    twisted = TwistedComplex(s.complex, s.cocycle)
    with pytest.raises(NotInSpan):
        thm3_bound(twisted, [s.cocycle], [(0,)])
    with pytest.raises(NotInSpan):
        thm3_bound(twisted, [s.cocycle], [(1, 1)])


def test_thm3_bound_scaled_class_keeps_bound():
    s = surface(2)
    rep = thm3_bound(TwistedComplex(s.complex, s.cocycle), [s.cocycle],
                     [(1,), (2,), (-1,)], seed=0)
    assert rep.cl_lower_bound == 2


def test_report_json_shape():
    s = surface(2)
    twisted = TwistedComplex(s.complex, s.cocycle)
    nov = novikov_numbers(twisted.reduced())
    jumps = jump_locus(twisted.reduced())
    rep = crit_bound(twisted, seed=0)
    doc = report_json(jumps, rep)
    assert doc["novikov"] == nov == [0, 2, 0]
    assert doc["cl_lower_bound"] == 2
    assert doc["crit_bound"] == 1
    assert all(set(e) >= {"q", "factor", "dim"} for e in doc["jumps"])
    assert doc["certificate"]["k"] == 2
