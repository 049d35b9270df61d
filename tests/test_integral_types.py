"""The types of the values on the certificate path and in ``polyq``: an
integral value stays an int, and a Fraction appears only where a division
makes one.

At a = +-1 every power of a is +-1, so the transfer maps, the coboundary
rows and the cup product of integer cochains divide by nothing, and the
cohomology representatives of the corpus classes need no division either:
every value is an int.  At a = 2 a negative power of 2 is a division, so
ints are required where none is taken.  At any other rational a, each
value is an int or a Fraction; a float, which a ``/`` of two ints would
give, never appears.  The same holds for the coefficients of polynomials,
of the Smith forms over Q[t, 1/t] and of number-field residues, which
must also equal those of the same computation on Fraction inputs.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from novikov.complexes import coboundary_of_vertex_function, twisted_cup
from novikov.invariants import _CohomologyCache
from novikov.numfield import NumberField
from novikov.polyq import (Poly, coprime_basis, poly_gcd, poly_xgcd,
                           squarefree_factors)
from novikov.twisted import CoboundaryRows, TwistedComplex, _laurent_smith

from test_cup_sparse import corpus_space, instances


def _int_cochain(draw, n):
    """A sparse integer cochain over n simplices: empty, a few entries, or
    nearly all."""
    kind = draw(st.sampled_from(["zero", "sparse", "dense"]))
    if kind == "zero":
        return {}
    if kind == "sparse":
        picks = draw(st.lists(st.integers(0, n - 1), max_size=3))
        return {i: draw(st.sampled_from([-3, -1, 1, 2])) for i in picks}
    values = [draw(st.integers(-3, 3)) for _ in range(n)]
    return {j: x for j, x in enumerate(values) if x}


def _outputs(X, z, a, draw, maps=True, rows=True):
    """Name -> values of everything the certificate path computes at a from
    integer cochains, degree by degree: g, f, h, ft, the cohomology
    representatives (``maps``), delta_q applied and the cup product with a
    factor at the same a (``rows``)."""
    twisted = TwistedComplex(X, z)
    red = twisted.reduced()
    cache = _CohomologyCache(twisted)
    out = {}

    def put(name, vec):
        out.setdefault(name, []).extend(vec.values())

    for q in range(X.dim + 1):
        x = _int_cochain(draw, X.n_simplices(q))
        c = _int_cochain(draw, red.sizes[q])
        if maps:
            gc = red.g(q, a)(c)
            for name, vec in [("g", gc), ("f", red.f(q, a)(x)),
                              ("f", red.f(q, a)(gc)), ("h", red.h(q, a)(x)),
                              ("ft", red.ft(q, a)(c))]:
                put(name, vec)
            for rep in cache.reps(a, q):
                put("reps", rep)
        if rows:
            if q < X.dim:
                put("apply", CoboundaryRows(twisted, q, a).apply(x))
            for p in range(X.dim + 1 - q):
                y = _int_cochain(draw, X.n_simplices(p))
                put("cup", twisted_cup(X, z, q, p, a, a, x, y))
    return out


def _non_ints(out):
    return {name: [v for v in values if type(v) is not int]
            for name, values in out.items()
            if any(type(v) is not int for v in values)}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(instances(), st.sampled_from([1, -1, Fraction(1), Fraction(-1)]),
       st.data())
def test_every_value_at_plus_minus_one_is_an_int(instance, a, data):
    X, z = instance
    out = _outputs(X, z, a, data.draw)
    assert not _non_ints(out), a


def _no_negative_power(red):
    """Whether no step of any transfer map, and no reduced row, takes a
    negative power of t: every pivot c * t**k has k <= 0, so that
    u**-1 = c * t**-k is a polynomial, every entry t**e of its pivot row
    and of the entries it cleared has e - k >= 0, and every reduced entry
    has e >= 0."""
    for _q, _tau, _sigma, k, _c, b, cleared in red.pivots:
        entries = [*b.values(), *(p for _rho, p in cleared)]
        if k > 0 or any(e < k for p in entries for e in p):
            return False
    return all(e >= 0 for rows in red.rows for row in rows
               for p in row.values() for e in p)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.sampled_from(["surface(2)", "klein", "order3"]),
       st.sampled_from([2, Fraction(2)]), st.data())
def test_transfer_maps_at_two_stay_ints_without_a_negative_power(name, a,
                                                                 data):
    """On classes whose pivots need no negative power of t, g, f, h, ft
    and the representatives at 2 are ints."""
    space = corpus_space(name)
    X, z = space.complex, space.cocycle
    assert _no_negative_power(TwistedComplex(X, z).reduced())
    out = _outputs(X, z, a, data.draw, rows=False)
    assert not _non_ints(out), (name, a)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(instances(), st.sampled_from([2, Fraction(2)]), st.data())
def test_rows_and_cups_at_two_stay_ints_in_a_nonnegative_gauge(instance, a,
                                                               data):
    """With the class gauge-changed so that every sorted edge carries a
    value >= 0, every transport exponent is >= 0: delta_q applied and the
    cup product at 2 are ints."""
    X, z = instance
    n = 1 + max(abs(v) for v in z.values.values())
    step = coboundary_of_vertex_function(X, {v: n * v for v in X.vertices()})
    z = z.scaled_sum([(z, 1), (step, 1)])
    assert min(z.values.values()) >= 0
    out = _outputs(X, z, a, data.draw, maps=False)
    assert not _non_ints(out), a


@settings(max_examples=30, deadline=None, derandomize=True)
@given(instances(), st.sampled_from([Fraction(2, 3), 2, Fraction(-2, 5)]),
       st.data())
def test_no_value_is_a_float(instance, a, data):
    X, z = instance
    out = _outputs(X, z, a, data.draw)
    for name, values in out.items():
        assert all(type(v) in (int, Fraction) for v in values), (name, a)


# Integer polynomials as coefficient lists, low degree first, whose lead
# is +-1 (division stays in ints) or any other nonzero integer (division
# makes Fractions).
leads = st.one_of(st.sampled_from([1, -1]),
                  st.integers(-4, 4).filter(bool))


@st.composite
def int_polys(draw, max_degree=4):
    return draw(st.lists(st.integers(-6, 6), max_size=max_degree)) + [
        draw(leads)]


def _fractions(coeffs):
    return Poly([Fraction(c) for c in coeffs])


def _assert_same(got, want):
    """got equals want, polynomial by polynomial, and every coefficient of
    either is an int or a Fraction."""
    if isinstance(want, Poly):
        assert isinstance(got, Poly)
        assert all(type(c) in (int, Fraction)
                   for c in got.coeffs + want.coeffs), (got, want)
        assert got.coeffs == want.coeffs
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for x, y in zip(got, want):
            _assert_same(x, y)
    else:
        assert type(got) in (int, Fraction) and got == want


POLY_STEPS = {
    "divmod": lambda a, b: a.divmod(b),
    "monic": lambda a, b: a.monic(),
    "poly_gcd": poly_gcd,
    "poly_xgcd": poly_xgcd,
    "squarefree_factors": lambda a, b: squarefree_factors(a * b * b),
    "coprime_basis": lambda a, b: coprime_basis([a, b, a * b]),
}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(int_polys(), int_polys())
def test_polyq_gives_ints_or_fractions_equal_to_fraction_inputs(a, b):
    for name, step in POLY_STEPS.items():
        got = step(Poly(a), Poly(b))
        _assert_same(got, step(_fractions(a), _fractions(b)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(int_polys(), int_polys(max_degree=2))
def test_division_by_a_lead_of_plus_minus_one_stays_in_ints(a, b):
    """Integer operands divided by a lead of +-1 give integer quotients and
    remainders, as ints; a monic integer polynomial is its own monic."""
    b[-1] = 1 if b[-1] > 0 else -1
    quotient, remainder = Poly(a).divmod(Poly(b))
    assert all(type(c) is int for c in quotient.coeffs + remainder.coeffs)
    a[-1] = 1
    p = Poly(a)
    assert p.monic() is p


laurent = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3).filter(bool),
                          min_size=1, max_size=3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.dictionaries(st.integers(0, 2), laurent, max_size=3),
                min_size=1, max_size=3))
def test_laurent_smith_of_integer_rows_matches_fraction_rows(rows):
    fractions = [{j: {e: Fraction(c) for e, c in p.items()}
                  for j, p in row.items()} for row in rows]
    _assert_same(_laurent_smith(rows), _laurent_smith(fractions))


# Irreducible moduli: t^2 - 2, t^2 + t + 1, 2t^2 - 3t - 1 (not monic) and
# t^3 + 2.
MODULI = [[-2, 0, 1], [1, 1, 1], [-1, -3, 2], [2, 0, 0, 1]]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(MODULI),
       st.lists(st.integers(-4, 4), min_size=1, max_size=3),
       st.lists(st.integers(-4, 4), min_size=1, max_size=3),
       st.integers(-2, 3))
def test_number_field_residues_match_fraction_residues(modulus, x, y, n):
    K = NumberField(modulus)
    ints = [K.element(x), K.element(y)]
    fractions = [K.element([Fraction(c) for c in v]) for v in (x, y)]
    for (u, v) in (ints, fractions):
        assert all(type(c) in (int, Fraction)
                   for c in u.residue.coeffs + v.residue.coeffs)

    def results(u, v):
        out = [u * v, u * 3, u + Fraction(1, 2), u ** max(n, 0)]
        if u:
            out += [u.inverse(), u ** n]
        return [w.residue for w in out]

    _assert_same(results(*ints), results(*fractions))
