"""Differential tests: the unit-pivot-reduced twisted complex against the
unreduced simplicial complex it came from, and the transfer maps between
the two."""

import copy
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from novikov import twisted
from novikov.cli import parse_scalar
from novikov.complexes import (SimplicialComplex, build_complex,
                               coboundary_of_vertex_function,
                               validate_cocycle)
from novikov.corpus import (circle, connected_sum, mapping_torus,
                            one_relator_complex, sphere_product, surface,
                            torus)
from novikov.errors import NotAChainComplex
from novikov.invariants import (_CohomologyCache, jump_locus,
                                novikov_numbers, twisted_dims)
from novikov.linalg import Span, nullspace
from novikov.twisted import (TwistedComplex, coboundary_image_vectors,
                             evaluate_rows, sparse_coboundary,
                             twisted_cohomology_dim)


@lru_cache(maxsize=None)
def corpus_space(name):
    if name == "surface(2)":
        return surface(2)
    if name == "surface(3)":
        return surface(3)
    if name == "torus":
        return torus()
    if name == "klein":
        return mapping_torus(circle(3).complex, {0: 0, 1: 2, 2: 1})
    if name == "torus#torus":
        return connected_sum(torus(), torus())
    if name == "5_2":
        # the presentation complex of the knot 5_2: Alexander polynomial
        # 2 - 3t + 2t^2, whose roots are no units
        return one_relator_complex("xyXYxyxYXyxYXY", {"x": 1, "y": 1})
    if name == "BS(1,2)":
        # t a t^-1 = a^2: the jump root 2 is not reciprocal
        return one_relator_complex("taTAA", {"a": 0, "t": 1})
    if name == "order3":
        # the 7-vertex torus under v -> 2v mod 7: reduces to [1, 2, 2, 1]
        seven = build_complex(
            [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
            + [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)])
        return mapping_torus(seven, {v: 2 * v % 7 for v in range(7)})
    k, sign, shift = name
    # a dihedral symmetry of the k-cycle: the simplicial permutations
    return mapping_torus(circle(k).complex,
                         {v: (sign * v + shift) % k for v in range(k)})


NAMED = ["surface(2)", "surface(3)", "torus", "klein", "torus#torus"]
spaces = st.one_of(
    st.sampled_from(NAMED),
    st.tuples(st.integers(3, 5), st.sampled_from([1, -1]),
              st.integers(0, 4)))


@st.composite
def instances(draw, names=spaces):
    """A corpus space with its class gauge-changed by a random coboundary
    and scaled by n, which makes t^n - 1 the jump divisor."""
    space = corpus_space(draw(names))
    X, z = space.complex, space.cocycle
    f = {v: draw(st.integers(-2, 2)) for v in X.vertices()}
    n = draw(st.sampled_from([1, 2, 3]))
    return X, z.scaled_sum([(z, n), (coboundary_of_vertex_function(X, f), 1)])


def unreduced(X, z):
    """The full simplicial coboundaries as a ReducedComplex with no cell
    eliminated, which the invariants read as they read a reduction."""
    T = TwistedComplex(X, z)
    full = twisted.ReducedComplex(T.rows, [list(range(n)) for n in T.sizes],
                                  T.sizes, [])
    assert full.sizes == T.sizes and not full.pivots
    return full


def jump_triples(report):
    return [(e.q, e.factor, e.dim) for e in report.entries]


@settings(max_examples=12, deadline=None, derandomize=True)
@given(instances())
def test_reduced_and_unreduced_smith_forms_agree(instance):
    X, z = instance
    red = TwistedComplex(X, z).reduced()
    full = unreduced(X, z)
    assert novikov_numbers(red) == novikov_numbers(full)
    assert jump_triples(jump_locus(red)) == jump_triples(jump_locus(full))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(instances(), st.lists(st.fractions(min_value=-5, max_value=5,
                                          max_denominator=5)
                             .filter(lambda a: a != 0),
                             min_size=2, max_size=2))
def test_reduced_dims_match_direct_elimination(instance, rationals):
    X, z = instance
    red = TwistedComplex(X, z).reduced()
    for a in rationals + [Fraction(1), parse_scalar("@-1,-3,2")]:
        direct = [twisted_cohomology_dim(X, z, q, a) for q in range(X.dim + 1)]
        assert twisted_dims(red, a) == direct, a


@pytest.mark.parametrize("name", ["5_2", "BS(1,2)"])
def test_one_relator_complexes_reduced_and_unreduced_agree(name):
    """The presentation complexes of 5_2 and BS(1,2), whose jump roots are
    no units, read reduced, unreduced and by direct elimination."""
    space = corpus_space(name)
    X, z = space.complex, space.cocycle
    red = TwistedComplex(X, z).reduced()
    full = unreduced(X, z)
    assert novikov_numbers(red) == novikov_numbers(full) == [0, 0, 0]
    assert jump_triples(jump_locus(red)) == jump_triples(jump_locus(full))
    for a in [Fraction(2), Fraction(1, 2), Fraction(1), Fraction(-3, 5),
              parse_scalar("@2,-3,2"), parse_scalar("@-1,-3,2")]:
        direct = [twisted_cohomology_dim(X, z, q, a) for q in range(X.dim + 1)]
        assert twisted_dims(red, a) == twisted_dims(full, a) == direct, a


@settings(max_examples=25, deadline=None, derandomize=True)
@given(instances())
def test_reduced_sizes_keep_the_euler_characteristic(instance):
    X, z = instance
    sizes = TwistedComplex(X, z).reduced().sizes
    assert len(sizes) == X.dim + 1
    assert all(0 <= s <= X.n_simplices(q) for q, s in enumerate(sizes))
    assert sum((-1) ** q * s for q, s in enumerate(sizes)) \
        == X.euler_characteristic()


def test_reduced_surface_is_minimal():
    s = surface(2)
    red = TwistedComplex(s.complex, s.cocycle).reduced()
    assert red.sizes == [1, 4, 1]
    assert [len(rows) for rows in red.rows] == [4, 1]
    assert all(j < red.sizes[q] for q, rows in enumerate(red.rows)
               for row in rows for j in row)


def test_corrupted_sparse_entry_is_not_a_chain_complex(monkeypatch):
    real = twisted.sparse_coboundary

    def corrupted(complex, z, q):
        rows = real(complex, z, q)
        if q == 1:
            j = next(iter(rows[0]))
            rows[0][j] = {0: 2}
        return rows

    s = surface(2)
    TwistedComplex(s.complex, s.cocycle)
    monkeypatch.setattr(twisted, "sparse_coboundary", corrupted)
    with pytest.raises(NotAChainComplex):
        TwistedComplex(s.complex, s.cocycle)


def test_corrupted_relative_entry_is_not_a_chain_complex(monkeypatch):
    """The relative complex C*(X, A) is cut from the rows of a
    TwistedComplex and checks delta^2 = 0 on its restricted rows too: an
    entry of delta_1 on an edge outside A, scaled wrongly, is refused
    before the reduction."""
    real = twisted.sparse_coboundary

    def corrupted(complex, z, q):
        rows = real(complex, z, q)
        if q == 1:
            j = next(iter(rows[0]))
            rows[0][j] = {0: 2}
        return rows

    s = surface(2)
    X = s.complex
    A = build_complex([X.simplices[0][-1]])
    twisted.relative_reduced(X, A, s.cocycle)
    monkeypatch.setattr(twisted, "sparse_coboundary", corrupted)
    with pytest.raises(NotAChainComplex):
        twisted.relative_reduced(X, A, s.cocycle)


def test_the_relative_slice_is_checked_on_its_own():
    """A that is not closed under faces: the edge (0, 1) of the 2-simplex
    without its vertices.  The full complex passes its delta^2 check, but
    the slice of the cochains vanishing on A keeps the vertices 0 and 1
    and drops the edge between them, through which their delta^2 cancels
    in the full complex, so the slice's own check refuses it."""
    X = build_complex([(0, 1, 2)])
    A = SimplicialComplex([[], [(0, 1)]])
    z = validate_cocycle(X, {(0, 1): 1, (0, 2): 1})
    TwistedComplex(X, z)
    with pytest.raises(NotAChainComplex):
        twisted.relative_reduced(X, A, z)


def test_square_zero_keeps_columns_apart_at_negative_exponents():
    """delta_1 delta_0 holds t at column 0 and -1 at column k: a key of
    stride k for (column, exponent) would give both the key k, and they
    would cancel.  For every k below the column count the check refuses
    the product, and passes once a second row makes it vanish."""
    for ncols in (2, 3, 5):
        for k in range(1, ncols):
            row = {0: {0: 1}, k: {-1: -1}}
            shifted = {0: {1: 1}, k: {0: -1}}      # t * row
            other = {ncols - 1: {-2: 1}}
            with pytest.raises(NotAChainComplex):
                twisted.check_square_zero([[row, shifted, other],
                                           [{0: {1: 1}}]])
            twisted.check_square_zero([[row, shifted, other],
                                       [{0: {1: 1}, 1: {0: -1}}]])
            with pytest.raises(NotAChainComplex):
                twisted.check_square_zero([[row, shifted, other],
                                           [{0: {-3: 1}, 1: {-4: 1}}]])
            twisted.check_square_zero([[row, shifted, other],
                                       [{0: {-3: 1}, 1: {-4: -1}}]])


def test_reduction_and_transfer_maps_leave_their_input_rows_unchanged(
        monkeypatch):
    """Coboundary rows share their constant entries +-1, and a relative
    complex shares the entries of the rows it is cut from, so no step may
    change a Laurent entry in place: reducing and evaluating g, f, h and
    ft leaves every input row as it was."""
    space = corpus_space("order3")
    X, z = space.complex, space.cocycle
    inputs = []
    real = twisted._unit_pivot_reduction

    def recording(deltas, sizes, *, at_zero=False):
        inputs.append((deltas, copy.deepcopy(deltas)))
        return real(deltas, sizes, at_zero=at_zero)

    monkeypatch.setattr(twisted, "_unit_pivot_reduction", recording)
    T = TwistedComplex(X, z)
    D = twisted.DeformationComplex(space.cut)
    copies = [copy.deepcopy(T.rows), copy.deepcopy(D.rows)]
    A = build_complex([X.simplices[X.dim][0]])
    reduced = [T.reduced(), D.reduced(), twisted.relative_reduced(X, A, z)]
    assert len(inputs) == 3
    for a in (Fraction(3, 2), parse_scalar("@1,1,1")):
        one = a / a
        for red in reduced:
            for q, n in enumerate(red.full_sizes):
                ones = dict.fromkeys(range(n), one)
                reduced_ones = dict.fromkeys(range(red.sizes[q]), one)
                red.g(q, a)(reduced_ones)
                red.f(q, a)(ones)
                red.h(q, a)(ones)
                red.ft(q, a)(reduced_ones)
    assert T.rows == copies[0] and D.rows == copies[1]
    for deltas, before in inputs:
        assert deltas == before


# The transfer maps g: C_red -> C and f: C -> C_red, evaluated at t = a.

SCALARS = [Fraction(3, 2), Fraction(-2, 5), Fraction(-1),
           parse_scalar("@1,1,1")]


def sparse(vec):
    return {j: x for j, x in enumerate(vec) if x}


def apply(rows, vec):
    """Evaluated sparse rows applied to a sparse vector, as a sparse
    vector."""
    return sparse([sum(x * vec[j] for j, x in row.items() if j in vec)
                   for row in rows])


def cochains(rng, n, count=2):
    return [sparse([rng.randint(-2, 2) for _ in range(n)])
            for _ in range(count)]


@pytest.mark.parametrize("name", ["surface(2)", "klein", "torus#torus",
                                  (5, -1, 2), "order3", "5_2", "BS(1,2)"])
@settings(max_examples=3, deadline=None, derandomize=True)
@given(data=st.data())
def test_transfer_maps_are_inverse_chain_maps(name, data):
    X, z = data.draw(instances(st.just(name)))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    T = TwistedComplex(X, z)
    red = T.reduced()
    for a in SCALARS:
        delta = [evaluate_rows(rows, a) for rows in T.rows]
        delta_red = [evaluate_rows(rows, a) for rows in red.rows]
        for q in range(X.dim + 1):
            g, f = red.g(q, a), red.f(q, a)
            xs = cochains(rng, red.sizes[q])
            vs = cochains(rng, X.n_simplices(q))
            # f g = id on reduced cochains
            assert [f(g(x)) for x in xs] == xs, (q, a)
            if q == X.dim:
                continue
            g1, f1 = red.g(q + 1, a), red.f(q + 1, a)
            # delta g = g delta_red and f delta = delta_red f
            for x in xs:
                assert apply(delta[q], g(x)) \
                    == g1(apply(delta_red[q], x)), (q, a)
            for v in vs:
                assert f1(apply(delta[q], v)) \
                    == apply(delta_red[q], f(v)), (q, a)


@pytest.mark.parametrize("name", ["surface(2)", "klein", "torus#torus",
                                  (4, 1, 1), "order3"])
@settings(max_examples=2, deadline=None, derandomize=True)
@given(data=st.data())
def test_g_gives_cocycles_independent_modulo_coboundaries(name, data):
    X, z = data.draw(instances(st.just(name)))
    T = TwistedComplex(X, z)
    red = T.reduced()
    cache = _CohomologyCache(T)
    for a in SCALARS:
        for q in range(X.dim + 1):
            n = red.sizes[q]
            upper = evaluate_rows(red.rows[q], a) if q < X.dim else []
            delta = (evaluate_rows(sparse_coboundary(X, z, q), a)
                     if q < X.dim else [])
            # g of every reduced cocycle is a cocycle at cochain level
            zero, one = 0 * a, a / a  # in the field of a
            cocycles = nullspace([[row.get(j, 0) for j in range(n)]
                                  for row in upper], n, zero, one)
            g = red.g(q, a)
            for v in cocycles:
                assert not apply(delta, g(sparse(v))), (q, a)
            # the basis representatives stay independent modulo the
            # coboundaries of the unreduced complex
            reps = cache.reps(a, q)
            assert len(reps) == twisted_dims(red, a)[q]
            span = Span()
            for c in coboundary_image_vectors(X, z, q, a):
                span.add(c)
            assert all(span.insert(dict(v)) for v in reps), (q, a)


# The pivot order against the rule it is defined by, rescanned for every
# pivot: a reference reduction that keeps no selection state.

def _scan_rule(R, C, is_unit):
    """(row, column) of the first unit entry of least Markowitz cost, in
    row order and, within a row, in entry order; None if there is none."""
    best, best_cost = None, None
    for tau, row in R.items():
        for sigma, p in row.items():
            if is_unit(p):
                cost = (len(row) - 1) * (len(C[sigma]) - 1)
                if cost == 0:
                    return tau, sigma
                if best is None or cost < best_cost:
                    best, best_cost = (tau, sigma), cost
    return best


def _reduce_by_scanning(deltas, sizes, is_unit):
    """The unit-pivot reduction with the pivots picked by ``_scan_rule``:
    its pivot record (q, tau, sigma, k, c), cells and reduced rows."""
    rows = [dict(enumerate(dict(r) for r in d)) for d in deltas]
    cols = []
    for d in rows:
        c = {}
        for i, r in d.items():
            for j in r:
                c.setdefault(j, set()).add(i)
        cols.append(c)
    alive = [dict.fromkeys(range(n)) for n in sizes]
    record = []
    for q, (R, C) in enumerate(zip(rows, cols)):
        while (pivot := _scan_rule(R, C, is_unit)) is not None:
            tau, sigma = pivot
            pivot_row = R.pop(tau)
            for kappa in pivot_row:
                C[kappa].discard(tau)
            (k, c), = pivot_row.pop(sigma).items()
            for rho in C.pop(sigma):
                row = R[rho]
                f = {e - k: -c * v for e, v in row.pop(sigma).items()}
                for kappa, p in pivot_row.items():
                    new = twisted._add_product(row.get(kappa, {}), f, p)
                    if new:
                        if kappa not in row:
                            C[kappa].add(rho)
                        row[kappa] = new
                    elif kappa in row:
                        del row[kappa]
                        C[kappa].discard(rho)
            record.append((q, tau, sigma, k, c))
            if q > 0:
                for j in rows[q - 1].pop(sigma):
                    cols[q - 1][j].discard(sigma)
            if q + 1 < len(rows):
                for rho in cols[q + 1].pop(tau, ()):
                    del rows[q + 1][rho][tau]
            del alive[q][sigma], alive[q + 1][tau]
    cells = [list(a) for a in alive]
    reduced = []
    for q, R in enumerate(rows):
        pos = {j: i for i, j in enumerate(cells[q])}
        reduced.append([{pos[j]: p for j, p in R[tau].items()}
                        for tau in cells[q + 1]])
    return record, cells, reduced


def assert_scan_order(red, deltas, sizes, is_unit):
    record, cells, rows = _reduce_by_scanning(deltas, sizes, is_unit)
    assert [p[:5] for p in red.pivots] == record
    assert red.cells == cells
    assert red.rows == rows


@settings(max_examples=25, deadline=None, derandomize=True)
@given(instances())
def test_pivot_order_is_the_scan_rule_on_corpus_classes(instance):
    X, z = instance
    T = TwistedComplex(X, z)
    assert_scan_order(T.reduced(), T.rows, T.sizes, twisted._is_unit)


# Random sparse matrices over Z[t, 1/t] in two degrees, with the entries of
# each row in random order: ties of cost, rows shortened by free faces and
# entries turned into units or cancelled by Schur updates are far more
# frequent than in a simplicial complex.  The reduction needs no
# delta^2 = 0 to follow the rule.
laurent = st.one_of(
    st.tuples(st.integers(-2, 2), st.sampled_from([1, -1]))
    .map(lambda ec: {ec[0]: ec[1]}),
    st.sampled_from([{0: 2}, {0: 1, 1: 1}, {-1: 1, 1: -1}]))


@st.composite
def laurent_matrices(draw):
    n = [draw(st.integers(1, 8)) for _ in range(3)]
    deltas = [[draw(st.dictionaries(st.integers(0, n[q] - 1), laurent,
                                    max_size=4))
               for _ in range(n[q + 1])] for q in range(2)]
    return deltas, n


@settings(max_examples=100, deadline=None, derandomize=True)
@given(laurent_matrices())
def test_pivot_order_is_the_scan_rule_on_random_matrices(instance):
    deltas, sizes = instance
    red = twisted._unit_pivot_reduction(deltas, sizes)
    assert_scan_order(red, deltas, sizes, twisted._is_unit)


def _twisted(space):
    return TwistedComplex(space.complex, space.cocycle)


def _s1_times_surface(g):
    """The twisted complex of S1 x Sigma_g, the mapping torus of the
    identity."""
    F = surface(g).complex
    return _twisted(mapping_torus(F, {v: v for v in F.vertices()}))


def _disk():
    """The twisted complex of a triangulated 3 x 2 square, a disk, under
    the coboundary of a vertex function: each boundary edge lies in one
    triangle only, so some pivots have a column of length 1."""
    X = build_complex([s for v in (0, 1, 2, 4, 5, 6)
                       for s in ((v, v + 1, v + 4), (v + 1, v + 4, v + 5))])
    return TwistedComplex(X, coboundary_of_vertex_function(
        X, {v: v * v % 5 - 2 for v in X.vertices()}))


def _punctured_surface():
    """The twisted complex of surface(2) less its first triangle, with the
    class restricted: the edges of the hole lie in one triangle each."""
    space = surface(2)
    X = space.complex
    P = build_complex(X.simplices[2][1:])
    z = validate_cocycle(P, {e: space.cocycle.values[e] for e in P.edges()})
    return TwistedComplex(P, z)


def _cone():
    """The twisted complex of the cone on the 9-vertex torus, apex 9, under
    the coboundary of a vertex function: it reduces to a point, 45 of its
    54 pivots free faces."""
    X = build_complex([s + (9,) for s in torus().complex.simplices[2]])
    return TwistedComplex(X, coboundary_of_vertex_function(
        X, {v: (3 * v) % 4 - 1 for v in X.vertices()}))


def _dangling_edge():
    """The twisted complex of two triangles on an edge with an edge hung
    on, under the coboundary of a vertex function."""
    X = build_complex([(0, 1, 2), (1, 2, 3), (3, 4)])
    return TwistedComplex(X, coboundary_of_vertex_function(
        X, {0: 2, 1: -1, 2: 0, 3: 1, 4: 3}))


def _disk_mod_vertices():
    """C*(D, D^0) of that disk reduced: delta_1 keeps rows of length 3, so
    a pivot in the column of a boundary edge clears nothing, though its
    row holds more than the pivot."""
    T = _disk()
    X = T.complex
    return twisted.relative_reduced(
        X, build_complex([(v,) for v in X.vertices()]), T.z)


def _matrix(rows, at_zero=False):
    """One delta_0 of four columns over Z[t, 1/t], reduced."""
    return twisted._unit_pivot_reduction([rows], [4, len(rows)],
                                         at_zero=at_zero)


def _contraction(entry, mu_entry=None, pivot_mu=None, at_zero=False):
    """A delta_0 whose first pivot, at row 0 and column 0, is a
    contraction: row 0 holds 1 at column 0 and the monomial ``pivot_mu``
    (1 unless given) at column 1.  It clears row 1, which holds ``entry``
    at column 0 and ``mu_entry``, if given, at column 1."""
    one = {0: 1}
    cleared = {0: entry, 2: one, 3: one}
    if mu_entry is not None:
        cleared[1] = mu_entry
    rows = [{0: one, 1: pivot_mu or one}, cleared, {1: one, 2: one, 3: one},
            {2: one, 3: one}]
    return _matrix(rows, at_zero)


def _relative(name):
    """C*(X, A) reduced, for A three edges and a vertex of X."""
    space = corpus_space(name)
    X = space.complex
    A = build_complex(X.simplices[1][:3] + [X.simplices[0][-1]])
    return twisted.relative_reduced(X, A, space.cocycle)


@pytest.mark.parametrize("build", [
    lambda: twisted.DeformationComplex(torus().cut).reduced(),
    lambda: twisted.DeformationComplex(corpus_space("klein").cut).reduced(),
    lambda: twisted.DeformationComplex(corpus_space("order3").cut).reduced(),
    lambda: _relative("surface(2)"),
    lambda: _relative("order3"),
    lambda: _s1_times_surface(2).reduced(),
    lambda: _twisted(corpus_space("order3")).reduced(),
    lambda: _twisted(sphere_product(3)).reduced(),
    lambda: _twisted(sphere_product(2)).reduced(),
    lambda: _disk().reduced(),
    _disk_mod_vertices,
    lambda: _punctured_surface().reduced(),
    lambda: _cone().reduced(),
    lambda: _dangling_edge().reduced(),
    # two matrices, found by random search, on which a slip in the
    # selection state picks another pivot: a column heap that misses the
    # key of a row a free face shortened, and stamps renumbered from the
    # row as it stands when a Schur update first reaches it
    lambda: _matrix([{0: {0: 2}, 2: {1: 1}, 1: {0: -1}, 3: {1: 1}}, {},
                     {2: {1: 1}}, {0: {2: 1}, 3: {-1: -1}, 2: {0: -1}},
                     {2: {1: 1}, 0: {2: 1}}]),
    lambda: _matrix([{3: {0: -1}},
                     {3: {0: 2}, 2: {2: 1}, 1: {0: 1, 1: 1}, 0: {0: 1}},
                     {0: {0: -1}, 1: {0: -1}},
                     {1: {2: 1}, 3: {0: -1}, 2: {1: 1}}]),
    # a pivot row holding one other monomial moves each monomial it clears
    # in one step: a fill-in that is a unit or not, a merge that cancels,
    # leaves a unit or leaves two terms; a cleared entry of two terms takes
    # the Schur update
    lambda: _contraction({0: 1}),
    lambda: _contraction({0: 2}),
    lambda: _contraction({0: 1}, mu_entry={0: 1}),
    lambda: _contraction({0: 1}, mu_entry={0: 2}),
    lambda: _contraction({0: 1}, mu_entry={1: 1}),
    lambda: _contraction({0: 1, 1: 1}),
    # read at t = 0, the pivot row's t makes the fill-in -t of row 1 no
    # unit, though it would be the next pivot if it were one, and the
    # fill-in -1 of row 2, from its entry t**-1, a unit
    lambda: _matrix([{0: {0: 1}, 1: {1: 1}}, {0: {0: 1}, 2: {0: 2}},
                     {0: {-1: 1}, 2: {0: 1}, 3: {0: 1}},
                     {1: {0: 1}, 2: {0: 1}, 3: {0: 1}}], at_zero=True),
], ids=["torus-deformation", "klein-deformation", "order3-deformation",
        "surface(2)-relative", "order3-relative", "S1xSigma2", "order3",
        "S1xS3", "S1xS2", "disk", "disk-relative", "punctured-surface(2)",
        "cone", "dangling-edge", "column-heap-after-a-free-face",
        "stamps-of-a-shortened-row", "contraction-unit-fill-in",
        "contraction-fill-in-of-2", "contraction-merge-cancels",
        "contraction-merge-leaves-a-unit",
        "contraction-merge-keeps-two-terms", "contraction-two-term-entry",
        "contraction-at-zero"])
def test_pivot_order_is_the_scan_rule(build, monkeypatch):
    """Deformation complexes (constant pivots only), relative complexes,
    S1 x Sigma_2, the spaces of the jumps benchmark that the corpus
    classes above leave out, complexes with boundary, where pivots of cost
    0 come from columns of length 1 as well as rows, and two small
    matrices reduce exactly as the scan rule does."""
    calls = []
    real = twisted._unit_pivot_reduction

    def spy(deltas, sizes, *, at_zero=False):
        calls.append((deltas, sizes, at_zero))
        return real(deltas, sizes, at_zero=at_zero)

    monkeypatch.setattr(twisted, "_unit_pivot_reduction", spy)
    red = build()
    (deltas, sizes, at_zero), = calls
    assert red.pivots
    assert_scan_order(red, deltas, sizes, twisted._is_constant_unit
                      if at_zero else twisted._is_unit)


def test_unit_predicate_is_asked_a_few_times_per_entry(monkeypatch):
    """Pivot selection tests an entry when it is created or changed, not
    on every pivot: on S1 x Sigma_4 (2538 cells) a rescan per pivot asks
    the predicate about 97 times per initial entry."""
    T = _s1_times_surface(4)
    calls = 0
    real = twisted._is_unit

    def counted(p):
        nonlocal calls
        calls += 1
        return real(p)

    monkeypatch.setattr(twisted, "_is_unit", counted)
    red = twisted._unit_pivot_reduction(T.rows, T.sizes)
    assert red.sizes == [1, 9, 9, 1]
    entries = sum(len(row) for rows in T.rows for row in rows)
    assert calls <= 10 * entries


def test_a_contraction_reads_unit_status_off_the_coefficient(monkeypatch):
    """On surface(4) most pivots of the Markowitz phase hold one other
    monomial in their row: the fill-ins they make are monomials whose unit
    status is read off their coefficient, so the reduction asks the
    predicate 33 times, against 173 with a test per fill-in."""
    space = surface(4)
    T = TwistedComplex(space.complex, space.cocycle)
    calls = 0
    real = twisted._is_unit

    def counted(p):
        nonlocal calls
        calls += 1
        return real(p)

    monkeypatch.setattr(twisted, "_is_unit", counted)
    red = twisted._unit_pivot_reduction(T.rows, T.sizes)
    assert red.sizes == [1, 8, 1]
    assert calls <= 40


def test_a_disk_pivots_in_columns_of_length_one():
    """Pivots whose column holds only their own row clear nothing: the
    disk reduces to a point through some, with rows of length 1 as well,
    and C*(D, D^0) reduces through such pivots alone, in rows of length
    3."""
    red = _disk().reduced()
    assert red.sizes == [1, 0, 0]
    assert any(not cleared for *_, cleared in red.pivots)
    red = _disk_mod_vertices()
    assert red.sizes == [0, 11, 0]
    assert all(len(b) == 2 and not cleared for *_, b, cleared in red.pivots)
    # the edges of a hole lie in one triangle each: 22 of the 47 pivots of
    # the punctured surface are alone in their column but not in their row
    red = _punctured_surface().reduced()
    assert red.sizes == [1, 4, 0]
    assert len(red.pivots) == 47
    assert sum(1 for *_, b, cleared in red.pivots if b and not cleared) == 22


def test_collapse_pushes_no_markowitz_key(monkeypatch):
    """On S1 x S3 the collapse phase takes the pivots of cost 0 with no
    Markowitz key (cost, tau, stamp, sigma); the Markowitz heaps are built
    after it, over the rows it leaves, and get 77 keys in all.  Keeping
    the Markowitz state from the start, as one loop over all pivots would,
    takes 398."""
    T = _twisted(sphere_product(3))
    collapsing = False
    keys = []   # per Markowitz key pushed or heapified: in the collapse?
    real_collapse = twisted._collapse
    real_push, real_heapify = twisted.heappush, twisted.heapify

    def collapse(*args):
        nonlocal collapsing
        collapsing = True
        try:
            real_collapse(*args)
        finally:
            collapsing = False

    def push(heap, item):
        if len(item) == 4:
            keys.append(collapsing)
        real_push(heap, item)

    def heapify(heap):
        keys.extend(collapsing for item in heap if len(item) == 4)
        real_heapify(heap)

    monkeypatch.setattr(twisted, "_collapse", collapse)
    monkeypatch.setattr(twisted, "heappush", push)
    monkeypatch.setattr(twisted, "heapify", heapify)
    red = T.reduced()
    assert red.sizes == [1, 1, 0, 1, 1]
    assert len(red.pivots) == 223
    assert not any(keys)
    assert len(keys) <= 100


def test_free_faces_push_few_heap_keys(monkeypatch):
    """On S1 x S3, where 184 of the 223 pivots are free faces, pivot
    selection pushes at most half as many heap keys as the complex has
    entries (1500).  Pushing a key for every unit entry of each row a free
    face shortens, into column heaps filled from the start, makes more
    than 1000."""
    T = _twisted(sphere_product(3))
    pushes = 0
    real = twisted.heappush

    def counted(heap, item):
        nonlocal pushes
        pushes += 1
        real(heap, item)

    monkeypatch.setattr(twisted, "heappush", counted)
    red = T.reduced()
    assert red.sizes == [1, 1, 0, 1, 1]
    entries = sum(len(row) for rows in T.rows for row in rows)
    assert entries == 1500
    assert pushes <= entries // 2
