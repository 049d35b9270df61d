"""The oracle at the roots of unity: by Shapiro's lemma the n-fold cyclic
cover X_n of X that z mod n defines has

    b_q(X_n; Q) = sum over d | n of phi(d) * dim H^q(X; E_zeta_d),

zeta_d a root of the cyclotomic polynomial Phi_d, since the dims are
constant on Galois orbits.  The left side is untwisted cohomology of the
cover, which shares no code with the twisted engine; the right side is
read twice, by evaluating the reduced complex at 1, at -1 and at the
generator of Q[x]/(Phi_d), and off the jump locus."""

import pytest

from novikov.corpus import (circle, mapping_torus, one_relator_complex,
                            rational_cohomology, sphere_product, surface,
                            torus)
from novikov.invariants import jump_locus, twisted_dims
from novikov.numfield import NumberField
from novikov.polyq import _divisors, _totient, cyclotomic
from novikov.twisted import TwistedComplex

from reference_corpus import cyclic_cover

SPACES = {
    "torus": torus,
    "klein": lambda: mapping_torus(circle(3).complex, {0: 0, 1: 2, 2: 1}),
    "rotation": lambda: mapping_torus(circle(3).complex, {0: 1, 1: 2, 2: 0}),
    "surface(2)": lambda: surface(2),
    "S1xS3": lambda: sphere_product(3),
    "5_2": lambda: one_relator_complex("xyXYxyxYXyxYXY", {"x": 1, "y": 1}),
}


def _root_of_unity(d: int):
    """A root of Phi_d: 1, -1, or the generator of Q[x]/(Phi_d)."""
    if d <= 2:
        return 1 if d == 1 else -1
    return NumberField(cyclotomic(d).coeffs).generator()


def _cover_betti_numbers(space, n: int):
    """b_q(X_n) from the cover, and the two twisted sums over d | n."""
    cover = cyclic_cover(space, n)
    left = [len(rational_cohomology(cover, q)[0])
            for q in range(cover.dim + 1)]
    red = TwistedComplex(space.complex, space.cocycle).reduced()
    report = jump_locus(red)
    evaluated = [0] * len(red.sizes)
    from_jumps = [0] * len(red.sizes)
    for d in _divisors(n):
        phi, dims = _totient(d), twisted_dims(red, _root_of_unity(d))
        for q, g in enumerate(report.generic):
            evaluated[q] += phi * dims[q]
            from_jumps[q] += phi * next(
                (e.dim for e in report.entries
                 if e.q == q and cyclotomic(d).divides(e.factor)), g)
    return left, evaluated, from_jumps


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("name", list(SPACES))
def test_cover_betti_numbers_are_sums_over_the_roots_of_unity(name, n):
    left, evaluated, from_jumps = _cover_betti_numbers(SPACES[name](), n)
    assert left == evaluated == from_jumps


def test_a_sixth_root_of_unity_jump_shows_in_the_six_fold_cover():
    """The relator aatAtAtttAAtATTTTTT (a -> 0, t -> 1), whose
    certificate the engine refuses because a zero divisor splits its
    modulus: the jump at the primitive sixth roots of unity, dim 1 in
    degree 1, makes b_1 of the six-fold cover 1 + 2 * 1 = 3."""
    space = one_relator_complex("aatAtAtttAAtATTTTTT", {"a": 0, "t": 1})
    left, evaluated, from_jumps = _cover_betti_numbers(space, 6)
    assert left == evaluated == from_jumps == [1, 3, 2]
