"""Built-in cross-convention checks, runnable via `novikov self-check`.

Each check pits two independent computation paths against each other:
the cut-based deformation complex against the reduced twisted complex
and direct twisted evaluation, the
fiber-level kernel/cokernel oracle against both, and the Leibniz identity
tying the cup product transport to the twisted coboundary sign.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import corpus
from .complexes import twisted_cup, twisted_coboundary_values
from .invariants import novikov_numbers, twisted_dims
from .twisted import (DeformationComplex, TwistedComplex,
                      twisted_cohomology_dim)


def _random_rationals(rng, count):
    out = []
    while len(out) < count:
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if a != 0:
            out.append(a)
    return out


def check_deformation_convention(report):
    """Deformation complex at a == twisted dimensions at 1/a (reduced
    complex and unreduced elimination) == oracle."""
    rng = random.Random(20260826)
    F = corpus.circle(3).complex
    rotation = {0: 1, 1: 2, 2: 0}
    cases = [
        (corpus.torus(), F, {v: v for v in F.vertices()}),
        (corpus.mapping_torus(F, rotation), F, rotation),
    ]
    for space, fiber, h in cases:
        D = DeformationComplex(space.cut)
        red = TwistedComplex(space.complex, space.cocycle).reduced()
        for a in _random_rationals(rng, 5) + [Fraction(1)]:
            lhs = [D.dim_at(q, a) for q in range(space.dimension + 1)]
            mid = twisted_dims(red, 1 / a)
            direct = [twisted_cohomology_dim(space.complex, space.cocycle,
                                             q, 1 / a)
                      for q in range(space.dimension + 1)]
            rhs = corpus.mv_oracle_dims(fiber, h, 1 / a)
            report("deformation convention "
                   f"({space.label}, a={a})", lhs == mid == direct == rhs)


def check_leibniz(report):
    """delta(u cup v) = delta(u) cup v + (-1)^p u cup delta(v), twisted."""
    rng = random.Random(4)
    S = corpus.surface(2)
    X, z = S.complex, S.cocycle
    ok = True
    for _ in range(10):
        a1, a2 = _random_rationals(rng, 2)
        for p, q in ((0, 0), (0, 1), (1, 0), (1, 1)):
            u = _random_cochain(rng, X.n_simplices(p))
            v = _random_cochain(rng, X.n_simplices(q))
            ok = ok and _leibniz_holds(X, z, p, q, a1, a2, u, v)
    report("twisted Leibniz identity", ok)


def _random_cochain(rng, n):
    """n values drawn from -3..3, as a sparse cochain."""
    return {j: Fraction(x) for j in range(n) if (x := rng.randint(-3, 3))}


def _apply(rows, vec):
    """A dense matrix times a sparse vector, as a sparse vector."""
    out = (sum(row[j] * y for j, y in vec.items()) for row in rows)
    return {i: x for i, x in enumerate(out) if x}


def _leibniz_holds(X, z, p, q, a1, a2, u, v):
    """The Leibniz identity for sparse cochains u and v, with every
    coboundary taken from the dense ``twisted_coboundary_values``."""
    lhs = _apply(twisted_coboundary_values(X, z, p + q, a1 * a2),
                 twisted_cup(X, z, p, q, a1, a2, u, v))
    du = _apply(twisted_coboundary_values(X, z, p, a1), u)
    dv = _apply(twisted_coboundary_values(X, z, q, a2), v)
    term1 = twisted_cup(X, z, p + 1, q, a1, a2, du, v)
    term2 = twisted_cup(X, z, p, q + 1, a1, a2, u, dv)
    sign = (-1) ** p
    return all(lhs.get(i, 0) == term1.get(i, 0) + sign * term2.get(i, 0)
               for i in {*lhs, *term1, *term2})


def check_oracle_vs_generic(report):
    """Generic oracle dims equal Novikov numbers on mapping tori."""
    F = corpus.circle(3).complex
    h = {v: v for v in F.vertices()}
    space = corpus.torus()
    b = novikov_numbers(
        TwistedComplex(space.complex, space.cocycle).reduced())
    dims = corpus.mv_oracle_dims(F, h, Fraction(17, 5))
    report("oracle at a generic point vs Novikov numbers", dims == b)


def run(verbose=True) -> int:
    passed = 0
    failed = 0

    def report(name, ok):
        nonlocal passed, failed
        if ok:
            passed += 1
        else:
            failed += 1
        if verbose:
            print(f"{'pass' if ok else 'FAIL'}: {name}")

    check_deformation_convention(report)
    check_leibniz(report)
    check_oracle_vs_generic(report)
    if verbose:
        print(f"{passed} passed, {failed} failed")
    return failed
