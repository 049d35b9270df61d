"""The cup-length search in cohomology coordinates: pinned outputs, which
cochain work it does and does not do, and the consistency checks that
guard its projector and structure constants."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from novikov import invariants
from novikov.complexes import validate_cocycle
from novikov.corpus import (circle, connected_sum, mapping_torus,
                            space_from_json, space_to_json, sphere_product,
                            surface, torus)
from novikov.errors import InternalInconsistency
from novikov.invariants import (TwistedData, _CohomologyCache,
                                certificate_json, crit_bound, cup_length)
from novikov.numfield import NumberField, scalar_key
from novikov.twisted import twisted_cohomology_dim

# cl_lower_bound and certificate_json as the cochain-level search gave them
PINNED = json.loads(
    (Path(__file__).parent / "data" / "cup_dp_pinned.json").read_text())


def _klein():
    return mapping_torus(circle(3).complex, {0: 0, 1: 2, 2: 1})


def _torus_wedge_circle():
    doc = space_to_json(torus())
    doc["maximal_simplices"] += [[0, 100], [100, 101], [0, 101]]
    doc["cocycle"] = {"edges": [[100, 101, 1]]}
    doc.pop("cut")
    doc["manifold"] = False
    return space_from_json(doc)


def _root():
    return NumberField([-1, -3, 2]).generator()


RUNS = {
    "crit_bound surface(2) seed=0": lambda: crit_bound(surface(2), seed=0),
    "crit_bound torus#torus seed=0":
        lambda: crit_bound(connected_sum(torus(), torus()), seed=0),
    "crit_bound S1xS2 seed=0": lambda: crit_bound(sphere_product(2), seed=0),
    "crit_bound klein seed=0": lambda: crit_bound(_klein(), seed=0),
    "cup_length surface(2) [2, 1/2, @-1,-3,2]": lambda: cup_length(
        surface(2).complex, surface(2).cocycle,
        [Fraction(2), Fraction(1, 2), _root()], manifold=True),
    "cup_length torus wedge circle [@-1,-3,2, 2, 1/2]": lambda: cup_length(
        _torus_wedge_circle(), None, [_root(), Fraction(2), Fraction(1, 2)]),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_pinned_bound_and_certificate(name):
    rep = RUNS[name]()
    assert rep.cl_lower_bound == PINNED[name]["cl_lower_bound"]
    assert certificate_json(rep.certificate) == PINNED[name]["certificate"]


def _record_bases(monkeypatch):
    calls = []
    real = invariants.cocycle_space_basis

    def recording(X, z, q, a):
        calls.append((X, z, q, a))
        return real(X, z, q, a)

    monkeypatch.setattr(invariants, "cocycle_space_basis", recording)
    return calls


def test_no_cocycle_basis_where_the_reduced_complex_gives_zero(monkeypatch):
    calls = _record_bases(monkeypatch)
    for space in (surface(2), connected_sum(torus(), torus()), _klein()):
        crit_bound(space, seed=0)
    assert calls
    for X, z, q, a in calls:
        assert twisted_cohomology_dim(X, z, q, a) > 0


def test_crit_bound_builds_each_basis_once_over_its_attempts(monkeypatch):
    calls = _record_bases(monkeypatch)
    searches = []
    real = invariants.cup_length

    def counting(*args, **kwargs):
        searches.append(kwargs["cache"])
        return real(*args, **kwargs)

    monkeypatch.setattr(invariants, "cup_length", counting)
    rep = crit_bound(torus(), seed=0)
    assert rep.cl_lower_bound == 0
    assert len(searches) == 3 and len({id(c) for c in searches}) == 1
    keys = [(scalar_key(a), q) for _X, _z, q, a in calls]
    assert keys and len(keys) == len(set(keys))


def _surface_cache():
    s = surface(2)
    return _CohomologyCache(TwistedData.of(s))


def test_coordinates_of_representatives_and_coboundaries():
    cache = _surface_cache()
    one = Fraction(1)
    reps = cache.reps(one, 1)
    assert len(reps) == cache.dim(one, 1) == 4
    for i, v in enumerate(reps):
        assert cache.coords(one, 1, v) == [int(i == j) for j in range(4)]
    combo = [3 * x - y for x, y in zip(reps[0], reps[2])]
    assert cache.coords(one, 1, combo) == [3, 0, -1, 0]
    assert cache.dim(Fraction(2), 2) == 0
    assert cache.reps(Fraction(2), 2) == []


def test_a_product_that_is_not_a_cocycle_is_refused():
    cache = _surface_cache()
    one = Fraction(1)
    rep = cache.reps(one, 1)[0]
    edge = [0] * len(rep)
    edge[0] = 1  # the indicator of one edge is no 1-cocycle
    with pytest.raises(InternalInconsistency, match="not a cocycle"):
        cache.coords(one, 1, [x + e for x, e in zip(rep, edge)])


def test_representative_count_must_match_the_reduced_dimension(monkeypatch):
    real = TwistedData.dim_at
    monkeypatch.setattr(TwistedData, "dim_at",
                        lambda self, q, a: real(self, q, a) + (q == 1))
    s = surface(2)
    with pytest.raises(InternalInconsistency, match="representatives"):
        cup_length(s, None, [Fraction(2), Fraction(1, 2)])


@pytest.mark.parametrize("corrupt, message", [
    # a zero product turns nonzero: the re-check finds a coboundary
    (lambda c: c + 1, "re-evaluated to a coboundary"),
    # a nonzero product keeps its support: only the witness is off
    (lambda c: 2 * c, "witness does not match"),
])
def test_corrupted_structure_constants_fail_the_cochain_recheck(
        monkeypatch, corrupt, message):
    real = _CohomologyCache.constants

    def corrupted(self, m, p, a, d):
        return [[[corrupt(c) for c in coords] for coords in row]
                for row in real(self, m, p, a, d)]

    monkeypatch.setattr(_CohomologyCache, "constants", corrupted)
    s = surface(2)
    with pytest.raises(InternalInconsistency, match=message):
        cup_length(s, None, [Fraction(2), Fraction(1, 2)])


def test_untwisted_length_is_the_search_at_the_unit_monodromy():
    for space, expected in ((surface(2), 2), (sphere_product(2), 2),
                            (_klein(), 1)):
        zero = validate_cocycle(space.complex, {}, default_zero=True)
        rep = cup_length(space.complex, zero, [Fraction(2)])
        assert rep.untwisted_cup_length == expected
