"""End-to-end acceptance suite.

Each test prints a single pass/fail line for its criterion; the assertions
keep the suite honest under pytest.
"""

import random
import time
from fractions import Fraction

from novikov.complexes import (build_complex, twisted_cup,
                               twisted_coboundary_values)
from novikov.corpus import (circle, connected_sum, mapping_torus, mv_oracle_dims,
                            one_relator_complex, surface, torus)
from novikov.invariants import (crit_bound, cup_length, jump_locus,
                                novikov_numbers, twisted_dims)
from novikov.numfield import NumberField, is_dirichlet_unit
from novikov.polyq import Poly
from novikov.selfcheck import _leibniz_holds, _random_cochain
from novikov.twisted import (DeformationComplex, TwistedComplex,
                             _evaluated_rank, _laurent_smith,
                             check_square_zero, restriction_epi)
from reference_corpus import standard_corpus


def _report(name, ok, elapsed):
    print(f"acceptance: {name}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.1f}s)")


def _random_rational(rng, lo=-9, hi=9):
    a = Fraction(0)
    while a == 0:
        a = Fraction(rng.randint(lo, hi), rng.randint(1, 9))
    return a


def test_surface_twisted_dimensions():
    rng = random.Random(1)
    ok = True
    worst = 0.0
    for g in (2, 3):
        start = time.perf_counter()
        s = surface(g)
        red = TwistedComplex(s.complex, s.cocycle).reduced()
        for _ in range(10):
            a = _random_rational(rng)
            while a == 1:
                a = _random_rational(rng)
            ok = ok and twisted_dims(red, a) == [0, 2 * g - 2, 0]
        ok = ok and twisted_dims(red, Fraction(1)) == [1, 2 * g, 1]
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        ok = ok and elapsed < 10.0
    _report("surface twisted dims (0, 2g-2, 0) off a=1", ok, worst)
    assert ok


def test_surface_cup_length_bound():
    start = time.perf_counter()
    s = surface(2)
    rep = crit_bound(TwistedComplex(s.complex, s.cocycle), seed=0)
    cert = rep.certificate
    ok = (rep.cl_lower_bound == 2 and rep.crit_bound == 1
          and cert is not None and cert.k == 2
          and cert.nonunit_count() >= 2
          and any(w != 0 for w in cert.witness))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report("surface(2) cup-length 2, crit bound 1, certificate", ok, elapsed)
    assert ok


def test_connected_sum_bound_and_monotonicity():
    start = time.perf_counter()
    cands = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3),
             Fraction(1, 3)]
    glued = connected_sum(torus(), torus())
    rep = cup_length(TwistedComplex(glued.complex, glued.cocycle), cands)
    ok = rep.cl_lower_bound == 2
    pairs = [(torus(), torus()), (surface(2), torus()),
             (torus(), surface(2))]
    for x1, x2 in pairs:
        whole = cup_length(TwistedComplex(connected_sum(x1, x2).complex,
                                          connected_sum(x1, x2).cocycle),
                           cands)
        best = max(cup_length(TwistedComplex(x.complex, x.cocycle),
                              cands).cl_lower_bound
                   for x in (x1, x2))
        ok = ok and whole.cl_lower_bound >= best
    elapsed = time.perf_counter() - start
    _report("torus # torus cup-length 2; sums dominate summands", ok, elapsed)
    assert ok


def test_jump_locus_properties_on_corpus():
    start = time.perf_counter()
    rng = random.Random(2)
    ok = True
    for space in standard_corpus():
        red = TwistedComplex(space.complex, space.cocycle).reduced()
        nov = novikov_numbers(red)
        report = jump_locus(red)
        ok = ok and len(report.entries) < 100
        for e in report.entries:
            ok = ok and e.dim > report.generic[e.q]
            ok = ok and all(isinstance(c, Fraction) or isinstance(c, int)
                            for c in e.factor.coeffs)
        factors = report.factors()
        sampled = 0
        while sampled < 20:
            a = _random_rational(rng)
            if any(f.eval(a) == 0 for f in factors):
                continue
            sampled += 1
            ok = ok and twisted_dims(red, a) == nov
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report("jump locus: finite, strict, rational; generic == sampled", ok,
            elapsed)
    assert ok


def test_alexander_instance():
    """The presentation complex of the knot 5_2, whose Alexander
    polynomial is 2 - 3t + 2t^2.  Its jump roots are non-units, but it is
    no closed manifold and the search certifies no product of two non-unit
    classes: the bound is 0, with no note and no certificate."""
    start = time.perf_counter()
    knot = one_relator_complex("xyXYxyxYXyxYXY", {"x": 1, "y": 1})
    twisted = TwistedComplex(knot.complex, knot.cocycle)
    nov = novikov_numbers(twisted.reduced())
    report = jump_locus(twisted.reduced())
    target = Poly([Fraction(1), Fraction(-3, 2), Fraction(1)])
    h1 = [e for e in report.entries if e.q == 1 and e.factor == target]
    roots_nonunit = False
    if h1:
        field = NumberField(h1[0].factor.primitive_int_coeffs())
        gen = field.generator()
        roots_nonunit = (not is_dirichlet_unit(gen)
                         and not is_dirichlet_unit(gen.inverse()))
    rep = crit_bound(twisted)
    ok = (nov[1] == 0 and bool(h1) and roots_nonunit
          and (rep.cl_lower_bound, rep.crit_bound) == (0, 0)
          and rep.notes == [] and rep.certificate is None)
    elapsed = time.perf_counter() - start
    _report("trivial Novikov numbers, non-unit jump, crit bound 0", ok,
            elapsed)
    assert ok


def test_deformation_convention_lock():
    start = time.perf_counter()
    rng = random.Random(3)
    F = circle(3).complex
    rot = {0: 1, 1: 2, 2: 0}
    cases = [(torus(), {0: 0, 1: 1, 2: 2}),
             (mapping_torus(F, rot), rot)]
    ok = True
    for space, h in cases:
        D = DeformationComplex(space.cut)
        red = TwistedComplex(space.complex, space.cocycle).reduced()
        for _ in range(10):
            a = _random_rational(rng)
            lhs = [D.dim_at(q, a) for q in range(space.dimension + 1)]
            mid = twisted_dims(red, 1 / a)
            rhs = mv_oracle_dims(F, h, 1 / a)
            ok = ok and lhs == mid == rhs
    elapsed = time.perf_counter() - start
    _report("deformation(a) == twisted(1/a) == fiber oracle(1/a)", ok,
            elapsed)
    assert ok


def test_restriction_epimorphism():
    start = time.perf_counter()
    F = circle(3).complex
    rot = {0: 1, 1: 2, 2: 0}
    spaces = [torus(), mapping_torus(F, rot)]
    # subcomplexes of a single fiber level, hence homotopic into the wall
    subs = [build_complex([(3, 4)]), build_complex([(3, 4), (4, 5), (3, 5)])]
    ok = True
    for space in spaces:
        for A in subs:
            for a_inv in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)):
                a = 1 / a_inv
                for q in range(space.dimension + 1):
                    ok = ok and restriction_epi(space.complex, A,
                                                space.cocycle, a, q)
    elapsed = time.perf_counter() - start
    _report("relative-to-absolute map onto at non-integer 1/a", ok, elapsed)
    assert ok


def test_dirichlet_unit_table():
    start = time.perf_counter()
    golden = is_dirichlet_unit(NumberField([-1, -1, 1]).generator())
    quad_nonunit = is_dirichlet_unit(NumberField([2, -3, 2]).generator())
    trace3 = is_dirichlet_unit(NumberField([1, -3, 1]).generator())
    ok = (is_dirichlet_unit(Fraction(1))
          and is_dirichlet_unit(Fraction(-1))
          and not is_dirichlet_unit(Fraction(2))
          and not is_dirichlet_unit(Fraction(1, 2))
          and golden and not quad_nonunit and trace3)
    elapsed = time.perf_counter() - start
    _report("unit classifier table (1, -1, 2, 1/2, three quadratics)", ok,
            elapsed)
    assert ok


def _random_laurent(rng):
    """A Laurent polynomial with up to three terms t**e, -3 <= e <= 3, and
    rational coefficients; {} (zero) about a quarter of the time."""
    return {rng.randint(-3, 3): Fraction(rng.choice([-4, -3, -2, -1, 1, 2,
                                                     3, 4]),
                                         rng.randint(1, 3))
            for _ in range(rng.randint(0, 3))}


def rank_at(divisors, a):
    """The rank at t = a != 0 that Smith divisors give: those not
    vanishing at a."""
    return sum(1 for d in divisors if d.eval(a))


def test_algebraic_property_suite():
    start = time.perf_counter()
    rng = random.Random(5)
    ok = True
    for _ in range(200):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        rows = [{j: p for j in range(m) if (p := _random_laurent(rng))}
                for _ in range(n)]
        divisors = _laurent_smith(rows)
        for d1, d2 in zip(divisors, divisors[1:]):
            q, r = d2.divmod(d1)
            ok = ok and r.is_zero()
        ok = ok and all(d.coeffs[-1] == 1 and d.constant_term() != 0
                        for d in divisors)
        for a in (Fraction(1), Fraction(2), _random_rational(rng)):
            ok = ok and rank_at(divisors, a) == _evaluated_rank(rows, a)
    spaces = [circle(4), surface(2), torus()]
    for _ in range(100):
        space = spaces[rng.randrange(len(spaces))]
        X, z = space.complex, space.cocycle
        T = TwistedComplex(X, z)
        check_square_zero(T.rows)
        a1, a2 = _random_rational(rng), _random_rational(rng)
        p, q = rng.randint(0, X.dim - 1), rng.randint(0, X.dim - 1)
        u = _random_cochain(rng, X.n_simplices(p))
        v = _random_cochain(rng, X.n_simplices(q))
        ok = ok and _leibniz_holds(X, z, p, q, a1, a2, u, v)
    elapsed = time.perf_counter() - start
    _report("SNF chains and rank agreement; delta^2 = 0 and Leibniz", ok,
            elapsed)
    assert ok
