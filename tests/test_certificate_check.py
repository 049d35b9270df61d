"""The cochain-level re-check of cup-length certificates: each of its
checks refuses the certificate it is there for, accepts a factor changed
by a coboundary, and does not trust the transfer maps that find its
witnesses."""

import copy
from fractions import Fraction

import pytest

from novikov.complexes import twisted_coboundary_values
from novikov.corpus import connected_sum, surface, torus
from novikov.errors import InternalInconsistency
from novikov.invariants import (_CohomologyCache, _verify_certificate,
                                crit_bound, cup_length)
from novikov.numfield import NumberField
from novikov.twisted import ReducedComplex, TwistedComplex
from test_invariants import _designed_presentation
from test_search_budget import _surface_wedge_sphere


def _root():
    return NumberField([-1, -3, 2]).generator()


SPACES = {
    "surface(2)": lambda: surface(2),
    "surface(3)": lambda: surface(3),
    "torus#torus": lambda: connected_sum(torus(), torus()),
    # H^2 has dimension 2 at the monodromy 1, so the witness has two
    # entries
    "surface(2)+S2": _surface_wedge_sphere,
}
CASES = {
    **{f"crit_bound {name}": (name,
                              lambda twisted: crit_bound(twisted, seed=0))
       for name in ("surface(2)", "surface(3)", "torus#torus")},
    "cup_length surface(2) [r, 1/r]": (
        "surface(2)",
        lambda twisted: cup_length(twisted, [_root(), _root().inverse()])),
    "cup_length surface(2)+S2 [2, 1/2]": (
        "surface(2)+S2",
        lambda twisted: cup_length(twisted, [Fraction(2), Fraction(1, 2)])),
}


def _certified(case):
    """The space and its certificate, with a fresh cache for the
    re-check."""
    name, run = CASES[case]
    space = SPACES[name]()
    cert = run(TwistedComplex(space.complex, space.cocycle)).certificate
    assert cert is not None
    return space, cert, _CohomologyCache(
        TwistedComplex(space.complex, space.cocycle))


def _plus(u, v):
    """u + v for sparse cochains, without zeros."""
    out = {j: u.get(j, 0) + v.get(j, 0) for j in {*u, *v}}
    return {j: x for j, x in out.items() if x}


def _coboundary(space, a, d):
    """delta b at a for a fixed nonzero (d-1)-cochain b, nonzero itself,
    as a sparse cochain."""
    X, z = space.complex, space.cocycle
    b = [Fraction(i % 3 - 1, 1 + i % 2) for i in range(X.n_simplices(d - 1))]
    db = [sum(x * y for x, y in zip(row, b) if x and y)
          for row in twisted_coboundary_values(X, z, d - 1, a)]
    db = {i: x for i, x in enumerate(db) if x}
    assert db
    return db


def _with_factor(cert, i, w):
    out = copy.copy(cert)
    out.factors = list(cert.factors)
    a, d, _w, unit = cert.factors[i]
    out.factors[i] = (a, d, w, unit)
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_certificate_passes_its_recheck(case):
    space, cert, cache = _certified(case)
    _verify_certificate(cache, cert)


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_changed_witness_entry_is_refused(case):
    space, cert, cache = _certified(case)
    witnesses = []
    for i in range(len(cert.witness)):
        witnesses.append(list(cert.witness))
        witnesses[-1][i] = witnesses[-1][i] + 1
    # the same entries read against other representatives
    witnesses.append(cert.witness[1:] + cert.witness[:1])
    for witness in witnesses:
        if witness == cert.witness:
            continue
        changed = copy.copy(cert)
        changed.witness = witness
        with pytest.raises(InternalInconsistency,
                           match="witness does not match"):
            _verify_certificate(cache, changed)


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_witness_of_another_length_is_refused(case):
    """The re-check lifts a basis representative only where the witness
    is nonzero, so it reads the witness's length against dim H^d: an
    entry dropped, or one added, zero or not, is refused."""
    space, cert, cache = _certified(case)
    zero = cert.witness[0] * 0
    for witness in (cert.witness[:-1], cert.witness + [zero],
                    cert.witness + [zero + 1]):
        changed = copy.copy(cert)
        changed.witness = list(witness)
        with pytest.raises(InternalInconsistency,
                           match="witness does not match"):
            _verify_certificate(cache, changed)


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_factor_replaced_by_a_coboundary_is_refused(case):
    space, cert, cache = _certified(case)
    for i, (a, d, _w, _unit) in enumerate(cert.factors):
        changed = _with_factor(cert, i, _coboundary(space, a, d))
        with pytest.raises(InternalInconsistency,
                           match="re-evaluated to a coboundary"):
            _verify_certificate(cache, changed)


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_factor_changed_by_a_coboundary_is_accepted(case):
    space, cert, cache = _certified(case)
    for i, (a, d, w, _unit) in enumerate(cert.factors):
        moved = _plus(w, _coboundary(space, a, d))
        _verify_certificate(cache, _with_factor(cert, i, moved))


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_factor_that_is_no_cocycle_is_refused(case):
    space, cert, cache = _certified(case)
    X = space.complex
    tried = 0
    for i, (a, d, w, _unit) in enumerate(cert.factors):
        if d == X.dim:
            continue  # every top-degree cochain is a cocycle
        broken = _plus(w, {0: 1})
        with pytest.raises(InternalInconsistency,
                           match=f"representative in degree {d} is not a "
                                 "cocycle"):
            _verify_certificate(cache, _with_factor(cert, i, broken))
        tried += 1
    assert tried


def _shifted(method):
    """A transfer map whose output is off by one in its first nonzero
    entry, or in its first entry when it has none."""
    real = getattr(ReducedComplex, method)

    def corrupted(self, q, a):
        inner = real(self, q, a)

        def wrong(x):
            out = inner(x)
            return _plus(out, {min(out, default=0): 1})
        return wrong
    return corrupted


@pytest.mark.parametrize("method", ["h", "ft"])
def test_corrupted_witness_maps_give_no_bound(method, monkeypatch):
    """The maps that find the witnesses are not trusted: with one of them
    corrupted, the re-check refuses the certificate."""
    space = surface(2)
    assert crit_bound(TwistedComplex(space.complex, space.cocycle),
                      seed=0).cl_lower_bound == 2
    monkeypatch.setattr(ReducedComplex, method, _shifted(method))
    with pytest.raises(InternalInconsistency, match="certificate"):
        crit_bound(TwistedComplex(space.complex, space.cocycle), seed=0)


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("cs, cl", [
    ([-36, 36, -11, 1], 2),                # (t - 2)(t - 3)(t - 6)
    ([6, -5, 1], 0),                       # (t - 2)(t - 3)
    ([8, -6, 1], 0),                       # (t - 2)(t - 4)
])
def test_non_unit_jump_roots_certify_the_paper_case(cs, cl, seed):
    """On a designed presentation whose class jumps at rational roots
    other than +-1, the bound is a product of two non-unit classes, and
    its certificate passes the re-check on a fresh cache.  The class is
    nonzero on the relator's disk, so the cup products read its values on
    front edges of a complex that is no mapping torus."""
    space = _designed_presentation(cs)
    rep = crit_bound(TwistedComplex(space.complex, space.cocycle),
                     seed=seed)
    assert (rep.cl_lower_bound, rep.crit_bound) == (cl, max(cl - 1, 0))
    cert = rep.certificate
    if not cl:
        assert cert is None
        return
    assert [(a, d, unit) for a, d, _w, unit in cert.factors] == [
        (2, 1, False), (3, 1, False)]
    _verify_certificate(_CohomologyCache(
        TwistedComplex(space.complex, space.cocycle)), cert)
