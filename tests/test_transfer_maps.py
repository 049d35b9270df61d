"""The homotopy h and the transpose fT of the transfer maps against the
identities that define them, on cochains of every degree, with the
unreduced coboundary taken from ``twisted_coboundary_values``; and the
pull and push of ``twisted._Pass``, which follow their vector's support,
against scans over every step, through all four maps."""

from fractions import Fraction
from unittest import mock

from hypothesis import given, settings, strategies as st

from novikov import twisted
from novikov.complexes import (coboundary_of_vertex_function,
                               twisted_coboundary_values)
from novikov.twisted import TwistedComplex, evaluate_rows

from test_cup_sparse import MONODROMIES, _cochain, corpus_space, instances


def _apply(matrix, vec):
    """A dense matrix times a sparse vector, as a sparse vector."""
    out = (sum(row[j] * x for j, x in vec.items()) for row in matrix)
    return {i: y for i, y in enumerate(out) if y}


def _transpose(matrix, ncols):
    return [[row[j] for row in matrix] for j in range(ncols)]


def _pairing(u, v):
    return sum(x * v[j] for j, x in u.items() if j in v)


def _dense(rows, ncols):
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def _add(u, v, c=1):
    """u + c * v for sparse vectors, without zeros."""
    out = {j: u.get(j, 0) + c * v.get(j, 0) for j in {*u, *v}}
    return {j: x for j, x in out.items() if x}


def _within(vec, n):
    return all(0 <= j < n for j in vec)


def _setup(instance, data):
    X, z = instance
    a = data.draw(st.sampled_from(MONODROMIES))
    red = TwistedComplex(X, z).reduced()
    deltas = [twisted_coboundary_values(X, z, q, a) for q in range(X.dim)]
    return X, a, red, deltas


@settings(max_examples=25, deadline=None, derandomize=True)
@given(instances(), st.data())
def test_h_is_a_homotopy_from_the_identity_to_g_f(instance, data):
    X, a, red, deltas = _setup(instance, data)
    for q in range(X.dim + 1):
        x = _cochain(data.draw, X.n_simplices(q), a)
        lhs = _add(x, red.g(q, a)(red.f(q, a)(x)), -1)
        hx = red.h(q, a)(x)
        assert _within(hx, X.n_simplices(q - 1)) if q else hx == {}
        rhs = {}
        if q > 0:
            rhs = _apply(deltas[q - 1], hx)
        if q < X.dim:
            rhs = _add(rhs, red.h(q + 1, a)(_apply(deltas[q], x)))
        assert lhs == rhs, (q, a)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(instances(), st.data())
def test_ft_is_a_chain_map_of_the_dual_complexes(instance, data):
    X, a, red, deltas = _setup(instance, data)
    for q in range(X.dim):
        c_red = _cochain(data.draw, red.sizes[q + 1], a)
        lhs = _apply(_transpose(deltas[q], X.n_simplices(q)),
                     red.ft(q + 1, a)(c_red))
        reduced = _dense(evaluate_rows(red.rows[q], a), red.sizes[q])
        rhs = red.ft(q, a)(_apply(_transpose(reduced, red.sizes[q]), c_red))
        assert lhs == rhs, (q, a)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(instances(), st.data())
def test_ft_is_the_transpose_of_f(instance, data):
    X, a, red, _deltas = _setup(instance, data)
    for q in range(X.dim + 1):
        x = _cochain(data.draw, X.n_simplices(q), a)
        c = _cochain(data.draw, red.sizes[q], a)
        ft_c = red.ft(q, a)(c)
        assert _within(ft_c, X.n_simplices(q))
        assert _pairing(red.f(q, a)(x), c) == _pairing(x, ft_c), (q, a)


def _full_scan_pull(steps, a):
    """``_Pass.pull`` as it was before it followed the support: every step,
    last eliminated first, tests whether the vector has an entry in its
    terms."""
    ev = twisted._evaluator(a)
    known = [None] * len(steps)

    def pull(full, values):
        for i in reversed(range(len(steps))):
            cell, _partner, k, c, terms = steps[i]
            acc = values.get(cell, 0)
            if any(j in full for j, _p in terms):
                products = known[i]
                if products is None:
                    w = ev({-k: -c})
                    products = known[i] = [(j, w * ev(p)) for j, p in terms]
                for j, w in products:
                    v = full.get(j)
                    if v is not None:
                        acc += w * v
            if acc:
                full[cell] = acc
    return pull


def _full_scan_push(steps, a):
    """``_Pass.push`` without its heap: every step, in elimination order,
    tests whether the vector has an entry at its cell."""
    ev = twisted._evaluator(a)
    known = [None] * len(steps)

    def push(y, values):
        for i, (cell, partner, k, c, terms) in enumerate(steps):
            yc = y.pop(cell, None)
            if yc is None:
                continue
            if known[i] is None:
                w = ev({-k: c})
                known[i] = (w, [(j, x) for j, p in terms
                                if (x := w * ev(p))])
            w, products = known[i]
            if values is not None:
                values[partner] = w * yc
            for j, x in products:
                v = y.get(j, 0) - x * yc
                if v:
                    y[j] = v
                else:
                    del y[j]
    return push


def _listed(vec):
    """A sparse vector as its entries in dict order, each with its type."""
    return [(j, type(x), x) for j, x in vec.items()]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.sampled_from(["surface(2)", "torus#torus"]),
       st.sampled_from([Fraction(1), Fraction(2, 3)]), st.booleans(),
       st.data())
def test_support_pass_is_the_full_scan(name, a, gauge, data):
    """g, f, h and fT through the support-following pull and push give the
    values, the types and the dict order of the full scans, on the class
    as given or gauge-changed, for vectors that reach few or many steps;
    each map is applied twice, so the second vector meets kept weights."""
    space = corpus_space(name)
    X, z = space.complex, space.cocycle
    if gauge:
        f = {v: data.draw(st.integers(-2, 2)) for v in X.vertices()}
        z = z.scaled_sum([(z, 1), (coboundary_of_vertex_function(X, f), 1)])
    red = TwistedComplex(X, z).reduced()
    for q in range(X.dim + 1):
        xs = [_cochain(data.draw, X.n_simplices(q), a) for _ in range(2)]
        cs = [_cochain(data.draw, red.sizes[q], a) for _ in range(2)]
        maps = [(red.g, cs), (red.f, xs), (red.h, xs), (red.ft, cs)]
        got = [[_listed(m(q, a)(v)) for v in vs] for m, vs in maps]
        with mock.patch.multiple(twisted._Pass, pull=_full_scan_pull,
                                 push=_full_scan_push):
            want = [[_listed(m(q, a)(v)) for v in vs] for m, vs in maps]
        assert got == want, (name, q, a)
