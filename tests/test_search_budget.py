"""The cup-length search's budget of non-unit factors against the search
without it, kept here as a reference: the bound, the certificate and the
skipped pairs are the same, and the skipped-pair note now counts only
the pairs whose product could still reach two non-unit factors."""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from hypothesis import example, given, settings, strategies as st

from novikov import cli
from novikov.cli import parse_scalar
from novikov.corpus import (circle, connected_sum, mapping_torus,
                            one_relator_complex, space_from_json,
                            space_to_json, sphere_product, surface, torus)
from novikov.invariants import (_CohomologyCache, _combine,
                                _compatible_product, _DPState,
                                _extract_certificate, _search,
                                _verify_certificate, certificate_json,
                                cup_length)
from novikov.numfield import cache_key, is_dirichlet_unit, scalar_field
from novikov.twisted import TwistedComplex


def _reference_search(cache, cands, require_nonunits, *, restrict=True):
    """The search without the budget: every state is created, every
    factor offered, and every basis of a candidate's class is built.
    With ``restrict`` its skipped pairs are kept only where the budget
    lets the product be formed; without, they also hold the pairs whose
    product could never reach ``require_nonunits`` non-unit factors, as
    the search without the budget noted them."""
    n = cache.complex.dim
    states = {}
    skipped = []

    def get_state(m, degree, nonunits, length):
        key = (cache_key(m), scalar_field(m), degree, nonunits, length)
        if key not in states:
            states[key] = (m, _DPState(cache.dim(m, degree)))
        return states[key][1]

    cand_info = []
    for a in cands:
        unit = is_dirichlet_unit(a)
        degs = [(d, cache.reps(a, d)) for d in range(1, n + 1)
                if cache.dim(a, d)]
        if degs:
            cand_info.append((a, unit, degs))
    s = min((degs[0][0] for _a, unit, degs in cand_info if not unit),
            default=n + 1)

    for a, unit, degs in cand_info:
        for d, reps in degs:
            st_ = get_state(a, d, 0 if unit else 1, 1)
            for i, v in enumerate(reps):
                e_i = [0] * len(reps)
                e_i[i] = 1
                st_.offer(e_i, ((a, d, v), None))

    for length in range(1, n):
        layer = [(key, m, st_) for key, (m, st_) in states.items()
                 if key[4] == length and st_.vectors]
        for (mkey, _field, degree, nonunits, _), m, st_ in layer:
            for a, unit, degs in cand_info:
                nu2 = min(nonunits + (0 if unit else 1), 2)
                m2 = _compatible_product(m, a)
                if m2 is None:
                    formed = not restrict or any(
                        degree + d <= n
                        and nu2 + (n - degree - d) // s >= require_nonunits
                        for d, _reps in degs)
                    if formed and (mkey, cache_key(a)) not in skipped:
                        skipped.append((mkey, cache_key(a)))
                    continue
                for d, reps in degs:
                    if degree + d > n or not cache.dim(m2, degree + d):
                        continue
                    st2 = get_state(m2, degree + d, nu2, length + 1)
                    if st2.full:
                        continue
                    C = cache.constants(m, degree, a, d)
                    for x, prov in st_.vectors:
                        for j, w in enumerate(reps):
                            st2.offer(_combine(x, C, j, st2.dim),
                                      ((a, d, w), prov))

    best, found = 0, None
    for (_, _field, degree, nonunits, length), (m, st_) in states.items():
        if nonunits >= require_nonunits and st_.vectors and length > best:
            best, found = length, (m, degree, st_)
    return best, found, skipped


def _wedge():
    """Two circles, the class 1 on one: Novikov numbers [0, 1, 1] and
    cl = 0."""
    return one_relator_complex("aA", {"a": 1, "b": 0})


SPACES = {
    "surface(2)": lambda: surface(2),
    "torus#torus": lambda: connected_sum(torus(), torus()),
    "S1xS2": lambda: sphere_product(2),
    "klein": lambda: mapping_torus(circle(3).complex, {0: 0, 1: 2, 2: 1}),
    "wedge": _wedge,
}

# rationals, Dirichlet units and non-units, in Q and in two number fields
CANDIDATES = [Fraction(1), Fraction(-1), parse_scalar("@1,1,1"),
              parse_scalar("@1,0,1"), Fraction(2), Fraction(1, 2),
              Fraction(3), parse_scalar("@-1,-3,2"),
              parse_scalar("@-2,3,1")]


# cup-length surface(2) --candidates '@1,1,1;@-1,-3,2', without the note
# "skipped 2 monodromy pair(s) from different number fields: ..." that
# the search without the budget printed last
PINNED_REPORT = [
    "novikov: [0, 2, 0]",
    "jump q=0 factor=['-1', '1'] dim=1",
    "jump q=1 factor=['-1', '1'] dim=4",
    "jump q=2 factor=['-1', '1'] dim=1",
    "cl_lower_bound: 0",
    "crit_bound: 0",
    "mode: exhaustive-over-candidates",
]


@lru_cache(maxsize=None)
def _twisted(name):
    space = SPACES[name]()
    return TwistedComplex(space.complex, space.cocycle)


@lru_cache(maxsize=None)
def _reference_cache(name):
    return _CohomologyCache(_twisted(name))


def _certificate(twisted, best, found):
    if found is None:
        return None
    return certificate_json(_extract_certificate(
        best, *found, twisted.complex.f_vector()))


@st.composite
def candidate_lists(draw):
    """One to three candidates of the pool, and often their inverses
    too, as crit_bound's defaults hold them: a product of a candidate and
    its inverse lies at the monodromy 1, where the classes jump."""
    cands = [CANDIDATES[i] for i in draw(st.lists(
        st.sampled_from(range(len(CANDIDATES))), min_size=1, max_size=3,
        unique=True))]
    if draw(st.booleans()):
        for a in list(cands):
            b = 1 / a if isinstance(a, Fraction) else a.inverse()
            if all(cache_key(b) != cache_key(c) for c in cands):
                cands.append(b)
    return cands


ROOT, OTHER_ROOT = CANDIDATES[-2:]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(SPACES)), candidate_lists())
@example("surface(2)", [ROOT, OTHER_ROOT])
@example("wedge", [parse_scalar("@1,1,1"), ROOT, OTHER_ROOT, Fraction(2)])
@example("torus#torus", [ROOT, ROOT.inverse(), OTHER_ROOT, Fraction(1, 2),
                         Fraction(2)])
def test_the_budget_keeps_the_bound_certificate_and_skipped_pairs(
        name, cands):
    twisted = _twisted(name)
    best, found, skipped = _search(_CohomologyCache(twisted), cands, 2)
    ref_best, ref_found, ref_skipped = _reference_search(
        _reference_cache(name), cands, 2)
    assert best == ref_best
    assert (_certificate(twisted, best, found)
            == _certificate(twisted, ref_best, ref_found))
    assert skipped == ref_skipped


def test_a_unit_factor_that_cannot_reach_two_non_units_is_no_skipped_pair(
        tmp_path):
    """On surface(2), the root of t^2 + t + 1, a unit, and the root of
    2t^2 - 3t - 1 lie in different fields.  Their products would be
    degree-2 classes with one non-unit factor, which the bound never
    counts, so the report notes no skipped pair where the search without
    the budget noted two, one for each order of the factors."""
    cands = [parse_scalar("@1,1,1"), parse_scalar("@-1,-3,2")]
    cache = _CohomologyCache(_twisted("surface(2)"))
    assert _search(cache, cands, 2) == (0, None, [])
    assert len(_reference_search(cache, cands, 2, restrict=False)[2]) == 2
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(space_to_json(surface(2))))
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["cup-length", str(path),
                         "--candidates", "@1,1,1;@-1,-3,2"]) == 0
    assert out.getvalue().splitlines() == PINNED_REPORT


def _surface_wedge_sphere():
    """surface(2) with the boundary of a tetrahedron glued on at vertex 0,
    the class 0 on the sphere: twisted dims [1, 4, 2] at a = 1."""
    doc = space_to_json(surface(2))
    doc["maximal_simplices"] += [list(s) for s in
                                 combinations([0, 1000, 1001, 1002], 3)]
    doc.pop("cut", None)
    return space_from_json(doc)


def test_two_fields_that_reach_one_rational_monodromy_keep_two_states():
    """r, a root of 2t^2 - 3t - 1, and s, a root of t^2 + 3t - 2, lie in
    two number fields, and r * 1/r and s * 1/s both reach the monodromy 1,
    where H^2 has dimension 2.  Each field keeps its own state there, so
    no span mixes the two fields: the search certifies cl = 2, where it
    raised FieldMismatch while the states were keyed by monodromy alone;
    the certificate passes the re-check on a fresh cache, and the search
    without the budget finds the same one."""
    space = _surface_wedge_sphere()
    twisted = TwistedComplex(space.complex, space.cocycle)
    assert [twisted.reduced().dim_at(q, Fraction(1))
            for q in range(3)] == [1, 4, 2]
    r, s = parse_scalar("@-1,-3,2"), parse_scalar("@-2,3,1")
    cands = [r, r.inverse(), s, s.inverse()]
    rep = cup_length(twisted, cands)
    assert rep.cl_lower_bound == 2 and rep.certificate.nonunit_count() == 2
    _verify_certificate(_CohomologyCache(twisted), rep.certificate)
    best, found, skipped = _reference_search(
        _CohomologyCache(twisted), cands, 2)
    assert best == 2
    assert (_certificate(twisted, best, found)
            == certificate_json(rep.certificate))
    assert len(skipped) == len(rep.skipped)
