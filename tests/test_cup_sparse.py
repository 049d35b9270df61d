"""The sparse twisted cup product against the dense loop it replaced, the
work counts that keep the cup product and the transfer maps sparse, and
the rule that no sparse cochain they give stores a zero."""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from novikov import complexes, twisted
from novikov.cli import parse_scalar
from novikov.complexes import (build_complex, coboundary_of_vertex_function,
                               twisted_cup)
from novikov.corpus import circle, connected_sum, mapping_torus, surface, torus
from novikov.invariants import _CohomologyCache
from novikov.numfield import (FieldElement, check_nonzero, scalar_field,
                              scalar_pow)
from novikov.twisted import CoboundaryRows, TwistedComplex


def _dense_cup(complex, z, p, q, a1, a2, alpha, beta):
    """The cup product as one product per (p+q)-simplex, with a power of a2
    for each: the reference the sparse product must match entry by entry."""
    check_nonzero(a1)
    check_nonzero(a2)
    d = p + q
    if d > complex.dim:
        return []
    front_index = complex.index[p]
    back_index = complex.index[q]
    out = []
    for sigma in complex.simplices[d]:
        front = sigma[:p + 1]
        back = sigma[p:]
        av = alpha[front_index[front]]
        bv = beta[back_index[back]]
        t = z.transport_exponent(front)
        out.append(av * scalar_pow(a2, t) * bv)
    return out


@lru_cache(maxsize=None)
def corpus_space(name):
    if name == "surface(2)":
        return surface(2)
    if name == "klein":
        return mapping_torus(circle(3).complex, {0: 0, 1: 2, 2: 1})
    if name == "torus#torus":
        return connected_sum(torus(), torus())
    seven = build_complex(
        [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
        + [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)])
    return mapping_torus(seven, {v: 2 * v % 7 for v in range(7)})


NAMES = ["surface(2)", "klein", "torus#torus", "order3"]
ROOT = parse_scalar("@1,1,1")  # a root of t^2 + t + 1
MONODROMIES = [Fraction(3, 2), Fraction(-2, 5), Fraction(-1), ROOT]


@st.composite
def instances(draw):
    """A corpus space, its class as given or gauge-changed by a random
    coboundary and scaled."""
    space = corpus_space(draw(st.sampled_from(NAMES)))
    X, z = space.complex, space.cocycle
    if draw(st.booleans()):
        f = {v: draw(st.integers(-2, 2)) for v in X.vertices()}
        n = draw(st.sampled_from([1, 2, 3]))
        z = z.scaled_sum([(z, n), (coboundary_of_vertex_function(X, f), 1)])
    return X, z


def _sparse(vec):
    return {j: x for j, x in enumerate(vec) if x}


def _dense(vec, n):
    return [vec.get(j, 0) for j in range(n)]


def _cochain(draw, n, a):
    """A sparse cochain over n simplices in the field of a: empty, with a
    few entries or with nearly all.  No zero is stored; a cochain in a
    number field holds only field elements."""
    kind = draw(st.sampled_from(["zero", "sparse", "dense"]))
    if kind == "zero":
        values = [0] * n
    elif kind == "sparse":
        values = [0] * n
        for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            values[i] = Fraction(draw(st.integers(-3, 3)),
                                 draw(st.integers(1, 3)))
    else:
        values = [Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
                  for _ in range(n)]
    field = scalar_field(a)
    if field is not None:
        values = [field.element([x, draw(st.integers(-2, 2))]) if x else 0
                  for x in values]
    return _sparse(values)


def _typed(cochain):
    return {j: (type(x), x) for j, x in cochain.items()}


def _reference(complex, z, p, q, a1, a2, alpha, beta):
    """``_dense_cup`` of sparse cochains, without its zero entries."""
    return _sparse(_dense_cup(complex, z, p, q, a1, a2,
                              _dense(alpha, complex.n_simplices(p)),
                              _dense(beta, complex.n_simplices(q))))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(instances(), st.data())
def test_sparse_cup_is_the_dense_cup_entry_by_entry(instance, data):
    X, z = instance
    a1 = data.draw(st.sampled_from(MONODROMIES))
    a2 = data.draw(st.sampled_from(MONODROMIES))
    for p in range(X.dim + 1):
        for q in range(X.dim + 1 - p):
            alpha = _cochain(data.draw, X.n_simplices(p), a1)
            beta = _cochain(data.draw, X.n_simplices(q), a2)
            sparse = twisted_cup(X, z, p, q, a1, a2, alpha, beta)
            dense = _reference(X, z, p, q, a1, a2, alpha, beta)
            assert _typed(sparse) == _typed(dense), (p, q, a1, a2)
    assert twisted_cup(X, z, X.dim, 1, a1, a2, {}, {}) == {}


def test_mixed_monodromies_give_field_elements_everywhere():
    space = corpus_space("surface(2)")
    X, z = space.complex, space.cocycle
    alpha = {i: Fraction(2) for i in range(0, X.n_simplices(1), 3)}
    beta = dict.fromkeys(range(X.n_simplices(1)),
                         ROOT.field.from_rational(1))
    for args in ((Fraction(2), ROOT, alpha, beta),
                 (ROOT, Fraction(2), beta, alpha)):
        out = twisted_cup(X, z, 1, 1, *args)
        assert out and all(isinstance(x, FieldElement) for x in out.values())
        assert _typed(out) == _typed(_reference(X, z, 1, 1, *args))


def test_cup_on_a_complex_other_than_the_cocycles():
    """z only gives edge values: a subcomplex, or a second copy of its
    complex, takes its own exponent table, also when they alternate."""
    space = corpus_space("surface(2)")
    X, z = space.complex, space.cocycle
    sub = build_complex(X.simplices[2][:12])
    for Y in (sub, surface(2).complex, sub, X):
        for p, q in ((0, 1), (1, 1), (0, 2), (1, 0)):
            alpha = _sparse([Fraction(i % 3 - 1)
                             for i in range(Y.n_simplices(p))])
            beta = _sparse([Fraction(i % 4, 2)
                            for i in range(Y.n_simplices(q))])
            args = (Y, z, p, q, Fraction(2), Fraction(-1, 3), alpha, beta)
            assert _typed(twisted_cup(*args)) == _typed(_reference(*args))


@pytest.mark.parametrize("name", NAMES)
def test_cup_of_one_entry_takes_one_power(name, monkeypatch):
    space = corpus_space(name)
    X, z = space.complex, space.cocycle
    calls = []

    def counting(a, n):
        calls.append(n)
        return scalar_pow(a, n)

    monkeypatch.setattr(complexes, "scalar_pow", counting)
    for p in range(X.dim + 1):
        for q in range(X.dim + 1 - p):
            ones = [dict.fromkeys(range(X.n_simplices(d)), Fraction(1))
                    for d in (p, q)]
            for i in range(0, X.n_simplices(p), 7):
                calls.clear()
                twisted_cup(X, z, p, q, Fraction(2), Fraction(3),
                            {i: Fraction(1)}, ones[1])
                assert len(calls) <= 1, (p, q, i)
            # a full alpha takes one power per distinct exponent
            calls.clear()
            twisted_cup(X, z, p, q, Fraction(2), Fraction(3), *ones)
            assert len(calls) == len(set(calls)), (p, q)


def _counting_evaluator(monkeypatch):
    """Count the pivot entries the transfer maps evaluate at a."""
    calls = []
    real = twisted._evaluator

    def evaluator(a):
        ev = real(a)

        def counted(p):
            calls.append(p)
            return ev(p)
        return counted

    monkeypatch.setattr(twisted, "_evaluator", evaluator)
    return calls


@pytest.mark.parametrize("name", NAMES)
def test_transfer_maps_evaluate_only_the_steps_a_vector_needs(name,
                                                               monkeypatch):
    space = corpus_space(name)
    X, z = space.complex, space.cocycle
    red = TwistedComplex(X, z).reduced()
    calls = _counting_evaluator(monkeypatch)
    used = 0
    for a in MONODROMIES:
        for q in range(X.dim + 1):
            g, f = red.g(q, a), red.f(q, a)
            # g of zero, and f of a vector zero on every tau of a degree
            # q - 1 pivot, read no pivot entry
            assert g({}) == {}
            taus = {tau for pq, tau, *_ in red.pivots if pq == q - 1}
            v = {i: Fraction(i + 1) for i in range(X.n_simplices(q))
                 if i not in taus}
            assert f(v) == {j: v[cell] for j, cell in enumerate(red.cells[q])}
            assert not calls, (q, a)
            # a vector that needs the steps evaluates each of them once
            ones = dict.fromkeys(range(red.sizes[q]), Fraction(1))
            first = g(ones)
            used += len(calls)
            n = len(calls)
            assert g(ones) == first and len(calls) == n, (q, a)
            calls.clear()
    assert used


@settings(max_examples=20, deadline=None, derandomize=True)
@given(instances(), st.data())
def test_no_sparse_output_stores_a_zero(instance, data):
    """The cup product, the transfer maps, the coboundary rows and the
    cohomology representatives give sparse cochains with no zero value:
    the certificate re-check compares them as dicts, where a stored zero
    would make equal cochains differ."""
    X, z = instance
    a = data.draw(st.sampled_from([Fraction(3, 2), Fraction(-1), ROOT]))
    red = TwistedComplex(X, z).reduced()
    cache = _CohomologyCache(TwistedComplex(X, z))
    outputs = []
    for q in range(X.dim + 1):
        x = _cochain(data.draw, X.n_simplices(q), a)
        c = _cochain(data.draw, red.sizes[q], a)
        gc = red.g(q, a)(c)
        outputs += [gc, red.f(q, a)(x), red.f(q, a)(gc), red.h(q, a)(x),
                    red.h(q, a)(gc), red.ft(q, a)(c), *cache.reps(a, q)]
        if q < X.dim:
            delta = CoboundaryRows(TwistedComplex(X, z), q, a)
            chain = _cochain(data.draw, X.n_simplices(q + 1), a)
            outputs += [delta.apply(x), delta.apply(gc),
                        delta.apply_transpose(chain)]
        for p in range(X.dim + 1 - q):
            y = _cochain(data.draw, X.n_simplices(p), Fraction(-1))
            outputs.append(twisted_cup(X, z, q, p, a, Fraction(-1), x, y))
    for out in outputs:
        assert all(out.values()), out
