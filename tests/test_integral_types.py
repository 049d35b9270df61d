"""The types of the values on the certificate path: an integral value stays
an int, and a Fraction appears only where a division makes one.

At a = +-1 every power of a is +-1, so the transfer maps, the coboundary
rows and the cup product of integer cochains divide by nothing, and the
cohomology representatives of the corpus classes need no division either:
every value is an int.  At a = 2 a negative power of 2 is a division, so
ints are required where none is taken.  At any other rational a, each
value is an int or a Fraction; a float, which a ``/`` of two ints would
give, never appears.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from novikov.complexes import coboundary_of_vertex_function, twisted_cup
from novikov.invariants import _CohomologyCache
from novikov.twisted import CoboundaryRows, TwistedComplex

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
                put("apply", CoboundaryRows(X, z, q, a).apply(x))
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
