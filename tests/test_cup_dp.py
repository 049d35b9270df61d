"""The cup-length search in cohomology coordinates: pinned outputs, which
cochain work it does and does not do, and the consistency checks that
guard its transfer maps, projector and structure constants."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from novikov import cli, invariants, linalg, twisted
from novikov.complexes import (twisted_coboundary_values, twisted_cup,
                               validate_cocycle)
from novikov.corpus import (circle, connected_sum, mapping_torus,
                            one_relator_complex, space_from_json,
                            space_to_json, sphere_product, surface, torus)
from novikov.errors import InternalInconsistency
from novikov.invariants import (_CohomologyCache, certificate_json,
                                crit_bound, cup_length)
from novikov.linalg import Span
from novikov.numfield import FieldElement, NumberField, cache_key
from novikov.twisted import TwistedComplex, coboundary_image_vectors

# cl_lower_bound as the cochain-level search first gave it, certificate_json
# as the search on the reduced complex gives it
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


def _twisted(space):
    return TwistedComplex(space.complex, space.cocycle)


RUNS = {
    "crit_bound surface(2) seed=0":
        lambda: crit_bound(_twisted(surface(2)), seed=0),
    "crit_bound torus#torus seed=0":
        lambda: crit_bound(_twisted(connected_sum(torus(), torus())), seed=0),
    "crit_bound S1xS2 seed=0":
        lambda: crit_bound(_twisted(sphere_product(2)), seed=0),
    "crit_bound klein seed=0": lambda: crit_bound(_twisted(_klein()), seed=0),
    "cup_length surface(2) [2, 1/2, @-1,-3,2]": lambda: cup_length(
        _twisted(surface(2)), [Fraction(2), Fraction(1, 2), _root()]),
    "cup_length torus wedge circle [@-1,-3,2, 2, 1/2]": lambda: cup_length(
        _twisted(_torus_wedge_circle()),
        [_root(), Fraction(2), Fraction(1, 2)]),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_pinned_bound_and_certificate(name):
    rep = RUNS[name]()
    assert rep.cl_lower_bound == PINNED[name]["cl_lower_bound"]
    assert certificate_json(rep.certificate) == PINNED[name]["certificate"]


@pytest.mark.parametrize("name, zero", [
    ("crit_bound surface(2) seed=0", "0"),
    ("cup_length torus wedge circle [@-1,-3,2, 2, 1/2]",
     {"minpoly": ["-1", "-3", "2"], "residue": []}),
])
def test_certificate_json_writes_a_representative_in_full(name, zero):
    """A sparse representative is written with one entry per simplex of
    its degree, its length taken from the f-vector: also when it has no
    entry at the last simplex, that entry is the zero of its monodromy."""
    cert = RUNS[name]().certificate
    a, d, w, unit = cert.factors[0]
    n = cert.f_vector[d]
    cert.factors[0] = (a, d, {j: x for j, x in w.items() if j != n - 1},
                       unit)
    written = certificate_json(cert)["factors"][0]["representative"]
    pinned = PINNED[name]["certificate"]["factors"][0]["representative"]
    assert len(written) == len(pinned) == n
    assert written == pinned[:-1] + [zero]


def _sparse(vec):
    return {j: x for j, x in enumerate(vec) if x}


def _plus(u, v, c=1):
    """u + c * v for sparse cochains, without zeros."""
    out = {j: u.get(j, 0) + c * v.get(j, 0) for j in {*u, *v}}
    return {j: x for j, x in out.items() if x}


def _scalar(doc):
    if isinstance(doc, dict):
        return NumberField([int(c) for c in doc["minpoly"]]).element(
            [Fraction(c) for c in doc["residue"]])
    return Fraction(doc)


@pytest.mark.parametrize("name", sorted(n for n in RUNS
                                         if PINNED[n]["certificate"]))
def test_pinned_certificate_is_a_cocycle_and_no_coboundary(name):
    """Re-multiply each pinned certificate from its JSON alone."""
    cert = PINNED[name]["certificate"]
    space = {"crit_bound surface(2) seed=0": lambda: surface(2),
             "crit_bound torus#torus seed=0":
                 lambda: connected_sum(torus(), torus()),
             "cup_length surface(2) [2, 1/2, @-1,-3,2]": lambda: surface(2),
             "cup_length torus wedge circle [@-1,-3,2, 2, 1/2]":
                 _torus_wedge_circle}[name]()
    X, z = space.complex, space.cocycle

    def is_cocycle(a, d, v):
        return not any(sum(x * y for x, y in zip(row, v))
                       for row in twisted_coboundary_values(X, z, d, a))

    factors = [(_scalar(f["monodromy"]), f["degree"],
                [_scalar(c) for c in f["representative"]])
               for f in cert["factors"]]
    assert all(is_cocycle(*f) for f in factors)
    (m, d, v), *rest = factors
    v = _sparse(v)
    for a, e, w in rest:
        v = twisted_cup(X, z, d, e, m, a, v, _sparse(w))
        m, d = m * a, d + e
    v = [v.get(j, 0) for j in range(X.n_simplices(d))]
    assert cache_key(m) == cache_key(_scalar(cert["product_monodromy"]))
    assert d == cert["total_degree"]
    assert is_cocycle(m, d, v)
    span = Span()
    for c in coboundary_image_vectors(X, z, d, m):
        span.add(c)
    assert not span.contains(v)


def test_the_search_builds_no_cochain_level_basis(monkeypatch):
    """Bases come from the reduced complex: no cocycle space, no dense
    coboundary image and no kernel over n_q columns.  Nothing on the
    crit_bound path, the certificate re-check included, spans columns or
    evaluates a whole unreduced coboundary."""
    def refuse(*args):
        raise AssertionError("a cochain-level basis built by the search")

    widths = []
    real_kernel = linalg.kernel

    def recording_kernel(rows, ncols, one=1):
        widths.append(ncols)
        return real_kernel(rows, ncols, one)

    for name in ("cocycle_space_basis", "coboundary_image_vectors"):
        monkeypatch.setattr(twisted, name, refuse)
        monkeypatch.setattr(invariants, name, refuse, raising=False)
    # the bases come from linalg.cohomology, the re-check's dual cycles
    # from invariants' own binding of kernel
    monkeypatch.setattr(linalg, "kernel", recording_kernel)
    monkeypatch.setattr(invariants, "kernel", recording_kernel)
    for space in (surface(2), connected_sum(torus(), torus())):
        reduced = _twisted(space).reduced().sizes
        widths.clear()
        rep = crit_bound(_twisted(space), seed=0)
        assert widths and set(widths) <= set(reduced)
        assert not set(widths) & set(space.complex.f_vector())
        assert rep.certificate is not None
    # the Klein bottle's classes all lie at units, so its search builds
    # no basis and its bound has no certificate to re-check
    widths.clear()
    rep = crit_bound(_twisted(_klein()), seed=0)
    assert not widths and rep.certificate is None


def test_a_cocycle_check_walks_only_the_cofaces_of_its_support(monkeypatch):
    """A cocycle check of a vector evaluates at most one row of the
    unreduced coboundary per coface of each cell in its support, and a
    fresh check evaluates exactly the distinct ones."""
    evaluated = []
    real_row = twisted.CoboundaryRows.row

    def counting_row(self, tau):
        if tau not in self._rows:
            evaluated.append(1)
        return real_row(self, tau)

    checks = []
    real_is_cocycle = _CohomologyCache._is_cocycle

    def recording(self, a, q, vec):
        cofaces = self.twisted.columns(q)
        support = list(vec)
        bound = sum(len(cofaces[j]) for j in support)
        before = len(evaluated)
        out = real_is_cocycle(self, a, q, vec)
        cached = len(evaluated) - before
        before = len(evaluated)
        assert (not twisted.CoboundaryRows(
            self.twisted, q, a).apply(vec)) == out
        fresh = len(evaluated) - before
        distinct = len({tau for j in support for tau in cofaces[j]})
        checks.append((cached, fresh, distinct, bound,
                       self.complex.n_simplices(q + 1)))
        return out

    monkeypatch.setattr(twisted.CoboundaryRows, "row", counting_row)
    monkeypatch.setattr(_CohomologyCache, "_is_cocycle", recording)
    for space in (surface(2), connected_sum(torus(), torus()), surface(3)):
        crit_bound(_twisted(space), seed=0)
    assert checks
    for cached, fresh, distinct, bound, _rows in checks:
        assert cached <= fresh == distinct <= bound
    # the products are sparse: most checks meet a small share of the rows
    assert sum(bound for *_, bound, _rows in checks) < sum(
        rows for *_, rows in checks) / 2


def _record_work(monkeypatch):
    """The (monodromy key, degree) of every basis built, and the cache of
    every cup-length search run, in the order they happen."""
    builds, searches = [], []
    real_build = _CohomologyCache._build

    def recording(self, a, q):
        builds.append((cache_key(a), q))
        return real_build(self, a, q)

    monkeypatch.setattr(_CohomologyCache, "_build", recording)
    real = invariants.cup_length

    def counting(*args, **kwargs):
        searches.append(kwargs["cache"])
        return real(*args, **kwargs)

    monkeypatch.setattr(invariants, "cup_length", counting)
    return builds, searches


def _wedge():
    """The wedge of two circles with the class 1 on one of them: Novikov
    numbers [0, 1, 1], so the surrogate has classes, and cl = 0."""
    return one_relator_complex("aA", {"a": 1, "b": 0})


def test_crit_bound_builds_each_basis_once_over_its_attempts(monkeypatch):
    builds, searches = _record_work(monkeypatch)
    rep = crit_bound(_twisted(_wedge()), seed=0)
    assert rep.cl_lower_bound == 0 and rep.jumps.generic == [0, 1, 1]
    assert len(searches) == 3 and len({id(c) for c in searches}) == 1
    assert builds and len(builds) == len(set(builds))


@pytest.mark.parametrize("name", ["torus", "rotation", "klein", "S1xS2"])
def test_crit_bound_without_novikov_classes_runs_one_search(name,
                                                            monkeypatch):
    """With every Novikov number 0 the surrogate has no class, so a new
    draw would repeat the search; and no non-unit candidate has a class,
    so no product can reach two non-unit factors and no basis is built."""
    space = {"torus": torus,
             "rotation": lambda: mapping_torus(circle(3).complex,
                                               {0: 1, 1: 2, 2: 0}),
             "klein": _klein,
             "S1xS2": lambda: sphere_product(2)}[name]()
    builds, searches = _record_work(monkeypatch)
    rep = crit_bound(_twisted(space), seed=0)
    assert not any(rep.jumps.generic)
    assert rep.cl_lower_bound == 0 and len(searches) == 1
    assert builds == []


def test_the_search_builds_no_unit_basis_in_degree_one(monkeypatch):
    """On surface(2) the degree-1 classes at the unit monodromy 1 cannot
    be a factor of a product with two non-unit factors in degree 2, so
    their 4-dimensional basis is never built; the certificate's factors
    are the surrogate pair."""
    builds, searches = _record_work(monkeypatch)
    rep = crit_bound(_twisted(surface(2)), seed=0)
    assert rep.cl_lower_bound == 2 and len(searches) == 1
    assert (cache_key(Fraction(1)), 1) not in builds
    assert [q for _key, q in builds] == [1, 1, 2]


def test_crit_bound_forms_only_the_products_its_offers_read(monkeypatch):
    """On surface(6) H^1 has dimension 10 at each surrogate and H^2 has
    dimension 1 at their product 1, so the first nonzero product fills
    the one state the bound reads.  The search forms the cup products of
    the offers it makes until then, six, and the certificate re-check one
    more, where a table of both bases held all 100 products."""
    calls = []
    real = invariants.twisted_cup

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(invariants, "twisted_cup", counting)
    rep = crit_bound(_twisted(surface(6)), seed=0)
    assert rep.cl_lower_bound == 2 and rep.jumps.generic == [0, 10, 0]
    assert len(calls) <= 8


def _surface_cache():
    return _CohomologyCache(_twisted(surface(2)))


def test_coordinates_of_representatives_and_coboundaries():
    cache = _surface_cache()
    one = Fraction(1)
    reps = cache.reps(one, 1)
    assert len(reps) == cache.dim(one, 1) == 4
    for i, v in enumerate(reps):
        assert cache.coords(one, 1, v) == [int(i == j) for j in range(4)]
    combo = _plus(_plus({}, reps[0], 3), reps[2], -1)
    assert cache.coords(one, 1, combo) == [3, 0, -1, 0]
    assert cache.dim(Fraction(2), 2) == 0
    assert cache.reps(Fraction(2), 2) == []


def test_a_rational_monodromy_is_read_over_q_whatever_field_names_it():
    """1 as an element of Q(r) and 1 as an element of another field share
    one basis and one set of rows, both over Q, so a cochain of either
    field finds its coordinates there, whichever field asked first."""
    cache = _surface_cache()
    one_r = _root() * _root().inverse()
    other = NumberField([-2, 3, 1])
    one_s = other.generator() * other.generator().inverse()
    reps = cache.reps(one_r, 1)
    assert all(type(x) is not FieldElement for v in reps for x in v.values())
    v = {j: other.from_rational(x) for j, x in reps[2].items()}
    assert cache.coords(one_s, 1, v) == [0, 0, 1, 0]


def test_a_product_that_is_not_a_cocycle_is_refused():
    cache = _surface_cache()
    one = Fraction(1)
    rep = cache.reps(one, 1)[0]
    edge = {0: 1}  # the indicator of one edge is no 1-cocycle
    with pytest.raises(InternalInconsistency, match="not a cocycle"):
        cache.coords(one, 1, _plus(rep, edge))


def test_representative_count_must_match_the_reduced_dimension(monkeypatch):
    real = twisted.ReducedComplex.dim_at
    monkeypatch.setattr(twisted.ReducedComplex, "dim_at",
                        lambda self, q, a: real(self, q, a) + (q == 1))
    s = surface(2)
    with pytest.raises(InternalInconsistency, match="representatives"):
        cup_length(_twisted(s), [Fraction(2), Fraction(1, 2)])


@pytest.mark.parametrize("corrupt, message", [
    # a zero product turns nonzero: the re-check finds a coboundary
    (lambda c: c + 1, "re-evaluated to a coboundary"),
    # a nonzero product keeps its support: only the witness is off
    (lambda c: 2 * c, "witness does not match"),
])
def test_corrupted_structure_constants_fail_the_cochain_recheck(
        monkeypatch, corrupt, message):
    real = _CohomologyCache.constant

    def corrupted(self, m, p, a, d, i, j):
        return [corrupt(c) for c in real(self, m, p, a, d, i, j)]

    monkeypatch.setattr(_CohomologyCache, "constant", corrupted)
    s = surface(2)
    with pytest.raises(InternalInconsistency, match=message):
        cup_length(_twisted(s), [Fraction(2), Fraction(1, 2)])


def test_untwisted_length_is_the_search_at_the_unit_monodromy():
    for space, expected in ((surface(2), 2), (sphere_product(2), 2),
                            (_klein(), 1)):
        zero = validate_cocycle(space.complex, {})
        rep = cup_length(TwistedComplex(space.complex, zero), [Fraction(2)])
        assert rep.untwisted_cup_length == expected


def _corrupt_a_pivot_row(monkeypatch):
    """Double one recorded pivot-row entry b[kappa] of the last degree-1
    elimination, which g reads first: the reduction itself is unchanged."""
    real = twisted._unit_pivot_reduction

    def corrupted(deltas, sizes, *, at_zero=False):
        reduced = real(deltas, sizes, at_zero=at_zero)
        b = [b for q, _tau, _sigma, _k, _c, b, _cleared in reduced.pivots
             if q == 1 and b][-1]
        kappa = next(iter(b))
        b[kappa] = {e: 2 * c for e, c in b[kappa].items()}
        return reduced

    monkeypatch.setattr(twisted, "_unit_pivot_reduction", corrupted)


def test_a_corrupted_pivot_record_is_caught(monkeypatch, tmp_path):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(space_to_json(surface(2))))
    assert crit_bound(_twisted(surface(2)), seed=0).cl_lower_bound == 2
    _corrupt_a_pivot_row(monkeypatch)
    message = "cohomology representative in degree 1 is not a cocycle"
    with pytest.raises(InternalInconsistency, match=message):
        crit_bound(_twisted(surface(2)), seed=0)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        assert cli.main(["crit-bound", str(path), "--seed", "0"]) == 3
    assert message in err.getvalue()


def test_the_certificate_recheck_does_not_trust_the_transfer_maps(
        monkeypatch):
    _corrupt_a_pivot_row(monkeypatch)
    # with the search's own cocycle checks switched off, the corrupted
    # representatives reach the certificate, and its re-check refuses them
    monkeypatch.setattr(_CohomologyCache, "_is_cocycle",
                        lambda self, a, q, vec: True)
    with pytest.raises(InternalInconsistency,
                       match="certificate representative in degree 1"):
        crit_bound(_twisted(surface(2)), seed=0)
