"""Twisted cochain complexes over Z[t, 1/t], read through their reductions.

One ``LaurentComplex`` keeps sparse Laurent rows, checks delta^2 = 0 on
them and is reduced by its unit pivots (algebraic Morse reduction); every
twisted dimension is read off the reduced complex by
``ReducedComplex.dim_at``, and the Smith forms over Q[t, 1/t], kept per
degree by ``ReducedComplex.smith``, are computed on the same reduced rows
(``_laurent_smith``).  Three routes build the rows, and every reader at
cochain level evaluates them.  The unreduced evaluations are oracles.

* ``TwistedComplex`` substitutes t**z(u, v) for the monodromy transport in
  the simplicial coboundary.  Its pivots +-t**k stay units at every
  t = a != 0 and leave a few cells.  The recorded eliminations give the
  chain maps between the reduced and the full complex at any t = a.

* ``DeformationComplex`` is built from a cut presentation (N, V, i+, i-),
  with entries linear in t.  It is read at t = 0 (``at_zero``), so its
  pivots are only +-1.  Evaluating at t = a computes twisted cohomology
  with monodromy 1/a; at t = 0, the relative cohomology of (N, wall_+).

* ``relative_reduced`` reduces C*(X, A): the rows of ``TwistedComplex``
  restricted to the simplices outside A.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import count

from .complexes import SimplicialComplex, OneCocycle, twisted_coboundary_values
from .errors import (DegreeOutOfRange, DimensionMismatch, ExponentTooLarge,
                     NotAChainComplex, NotAnIsomorphism)
from .linalg import Span, kernel, nullspace, rank, transpose
from .numfield import (Scalar, cache_key, check_nonzero, scalar_field,
                       scalar_pow)
from .polyq import Poly


# A Laurent polynomial over Z is a dict {exponent: nonzero int}; {} is zero.

def _add_product(acc: dict, f: dict, g: dict) -> dict:
    """acc + f * g as a new Laurent polynomial."""
    out = dict(acc)
    for e, c in f.items():
        for k, d in g.items():
            v = out.get(e + k, 0) + c * d
            if v:
                out[e + k] = v
            else:
                del out[e + k]
    return out


def _is_unit(p: dict) -> bool:
    """Whether p is +-t**k, a unit of Z[t, 1/t]."""
    return len(p) == 1 and abs(next(iter(p.values()))) == 1


def _is_constant_unit(p: dict) -> bool:
    """Whether p is +-1, a unit at every t including t = 0."""
    return len(p) == 1 and abs(p.get(0, 0)) == 1


# The constant entries of coboundary rows, shared by every row that holds
# one: _SIGNED[sign][i % 2] is sign * (-1)**i.  No Laurent entry is ever
# changed in place (the reduction and every evaluation build new ones), so
# rows may share them.
_PLUS, _MINUS = {0: 1}, {0: -1}
_SIGNED = {1: (_PLUS, _MINUS), -1: (_MINUS, _PLUS)}


def _face_row(cols, sigma, transport: int, sign: int) -> dict:
    """sign times the coboundary row of the simplex sigma, as ``{column:
    Laurent polynomial}``: the i-th face, at column cols[face], carries
    (-1)**i, and the 0-th face also t**transport."""
    signed = _SIGNED[sign]
    row = {cols[sigma[1:]]: {transport: sign} if transport else signed[0]}
    for i in range(1, len(sigma)):
        row[cols[sigma[:i] + sigma[i + 1:]]] = signed[i & 1]
    return row


def _simplices(complex: SimplicialComplex, q: int):
    return complex.simplices[q] if 0 <= q <= complex.dim else []


def sparse_coboundary(complex: SimplicialComplex, z: OneCocycle, q: int):
    """Twisted coboundary delta_q over Z[t, 1/t]: one ``{column: Laurent
    polynomial}`` row per (q+1)-simplex.  The 0-th face carries the
    transport t**z(v0, v1), the i-th face the sign (-1)**i; a simplex is
    sorted, so (v0, v1) is an edge as the cocycle stores it."""
    cols, values = complex.index[q], z.values
    return [_face_row(cols, sigma, values[sigma[:2]], 1)
            for sigma in complex.simplices[q + 1]]


def check_square_zero(deltas) -> None:
    """Raise NotAChainComplex unless delta_{q+1} delta_q = 0 for every q;
    ``deltas[q]`` holds the sparse Laurent rows of delta_q.  Each row of
    delta_q is flattened once into (key, coefficient) pairs, and each row
    of delta_{q+1} delta_q is summed over them into one ``{key: int}``.
    The key of column k and exponent e is k + e * n, with n above every
    column of delta_q, so distinct (k, e) never share a key, whatever the
    sign of e."""
    for q in range(len(deltas) - 1):
        n = 1 + max(map(max, filter(None, deltas[q])), default=0)
        flat = [[(k + f * n, d) for k, r in row.items() for f, d in r.items()]
                for row in deltas[q]]
        for row in deltas[q + 1]:
            acc = {}
            for j, p in row.items():
                terms = flat[j]
                for e, c in p.items():
                    shift = e * n
                    for b, d in terms:
                        key = b + shift
                        acc[key] = acc.get(key, 0) + c * d
            if any(acc.values()):
                raise NotAChainComplex(
                    f"delta^2 != 0 between degrees {q} and {q + 2}")


# The largest |k| for which t**k is evaluated at a monodromy other than
# rational 0 or +-1, whose powers cost nothing.  Elsewhere a**k grows with
# |k|: a cocycle period of 10**20 would be a power that never finishes.
# It also bounds the exponent span of a Laurent entry that the Smith forms
# write as t**low * P with P a dense polynomial (``_as_poly``), whose cost
# grows with the degree of P.
MAX_EXPONENT = 10 ** 4


def _evaluator(a: Scalar):
    """p -> p(a) for Laurent polynomials, with the powers of a memoised.
    Constant terms stay ints, and so does every value at an integral a
    that needs no negative power of it (at +-1, every value): a power is
    ``scalar_pow``'s, an int whenever it is integral.  A negative power of
    a = 0 raises ZeroMonodromy; t**e with |e| beyond MAX_EXPONENT raises
    ExponentTooLarge unless a is rational 0 or +-1."""
    powers = {}

    def ev(p: dict):
        out = 0
        for e, c in p.items():
            if e == 0:
                out += c
            else:
                x = powers.get(e)
                if x is None:
                    if e < 0:
                        check_nonzero(a)
                    if (abs(e) > MAX_EXPONENT and cache_key(a)
                            not in {(0, 1), (1, 1), (-1, 1)}):
                        raise ExponentTooLarge(
                            f"t**{e} at a monodromy other than 0, 1 and -1: "
                            f"exponents beyond {MAX_EXPONENT} are refused")
                    x = powers[e] = scalar_pow(a, e)
                out += c * x
        return out
    return ev


def evaluate_rows(rows, a: Scalar):
    """Sparse Laurent rows evaluated at t = a, as ``{column: scalar}``
    rows without zero entries."""
    ev = _evaluator(a)
    out = []
    for row in rows:
        vec = {}
        for j, p in row.items():
            v = ev(p)
            if v:
                vec[j] = v
        out.append(vec)
    return out


def _evaluated_rank(rows, a: Scalar) -> int:
    """Rank of sparse Laurent rows evaluated at t = a; zero entries never
    reach the echelon."""
    span = Span()
    for vec in evaluate_rows(rows, a):
        span.insert(vec)
    return span.dim


class CoboundaryRows:
    """The unreduced twisted coboundary delta_q at t = a, a row at a time.

    Row tau of the TwistedComplex's delta_q is evaluated the first time a
    product needs it, and kept.  ``apply`` and ``apply_transpose`` take and
    return sparse vectors ``{index: nonzero value}`` and walk only the rows
    that meet their vector's support: ``apply`` the rows that
    ``columns(q)`` lists for its cells, so a cocycle check walks the very
    rows that passed delta^2 = 0.  Each costs in proportion to that
    support and those rows, not to the number of simplices.
    """

    def __init__(self, twisted: "TwistedComplex", q: int, a: Scalar):
        check_nonzero(a)
        self.twisted = twisted
        self.q = q
        self._ev = _evaluator(a)
        self._rows = {}

    def row(self, tau: int) -> dict:
        """Row tau of delta_q at a, as ``{column: scalar}``."""
        row = self._rows.get(tau)
        if row is None:
            row = self._rows[tau] = {
                j: self._ev(p)
                for j, p in self.twisted.rows[self.q][tau].items()}
        return row

    def apply(self, vec: dict) -> dict:
        """delta_q vec at a for a q-cochain; {} exactly when vec is a
        cocycle."""
        columns = self.twisted.columns(self.q)
        rows = self._rows
        out = {}
        for j, x in vec.items():
            for tau in columns[j]:
                v = x * (rows.get(tau) or self.row(tau))[j]
                old = out.get(tau)
                out[tau] = v if old is None else old + v
        return {tau: v for tau, v in out.items() if v}

    def apply_transpose(self, chain: dict) -> dict:
        """The transpose of delta_q at a applied to a (q+1)-chain; {}
        exactly when the chain is a cycle."""
        rows = self._rows
        out = {}
        for tau, c in chain.items():
            for j, x in (rows.get(tau) or self.row(tau)).items():
                v = c * x
                old = out.get(j)
                out[j] = v if old is None else old + v
        return {j: v for j, v in out.items() if v}


class LaurentComplex:
    """A cochain complex over Z[t, 1/t]: ``rows[q]`` holds delta_q as one
    sparse Laurent row ``{column: Laurent polynomial}`` per (q+1)-cell, and
    ``sizes[q]`` counts the q-cells; delta^2 = 0 is checked at
    construction.  ``at_zero``, whether it is read at t = 0, picks the
    pivots of ``reduced()``; there is no dense view of the rows."""

    def __init__(self, rows, sizes, *, at_zero=False):
        check_square_zero(rows)
        self.rows = rows
        self.sizes = sizes
        self.at_zero = at_zero
        self._reduced = None
        self._columns = {}

    def columns(self, q: int):
        """Entry j lists the rows of delta_q that have an entry in column
        j, in ascending order; every entry is empty in the top degree.
        Built on first use and kept per q."""
        table = self._columns.get(q)
        if table is None:
            table = self._columns[q] = [[] for _ in range(self.sizes[q])]
            for tau, row in enumerate(
                    self.rows[q] if q < len(self.rows) else ()):
                for j in row:
                    table[j].append(tau)
        return table

    def reduced(self) -> "ReducedComplex":
        """The unit-pivot-reduced complex with its transfer maps, built on
        first use."""
        if self._reduced is None:
            self._reduced = _unit_pivot_reduction(self.rows, self.sizes,
                                                  at_zero=self.at_zero)
        return self._reduced


class TwistedComplex(LaurentComplex):
    """Twisted cochain complex of a complex with a 1-cocycle, over Z[t, 1/t]:
    ``rows[q]`` holds delta_q, one row per (q+1)-simplex
    (``sparse_coboundary``), and its pivots are the units +-t**k."""

    def __init__(self, complex: SimplicialComplex, z: OneCocycle):
        self.complex = complex
        self.z = z
        super().__init__(
            [sparse_coboundary(complex, z, q) for q in range(complex.dim)],
            [complex.n_simplices(q) for q in range(complex.dim + 1)])


class ReducedComplex:
    """The complex left by unit-pivot reduction, with its transfer maps.

    ``cells[q]`` lists the surviving q-cells (simplex indices) and
    ``sizes[q]`` counts them; ``rows[q]`` is the reduced delta_q as sparse
    Laurent rows, one per surviving (q+1)-cell, whose columns number the
    surviving q-cells by position.  ``dim_at`` evaluates these rows, and
    ``smith(q)`` lists the elementary divisors of their Smith form over
    Q[t, 1/t] (``_laurent_smith``), computed once.

    ``pivots`` records every elimination in order as (q, tau, sigma, k, c,
    b, cleared): the pivot u = delta_q[tau][sigma] = c * t**k, the pivot
    row b = delta_q[tau] as it stood then without sigma, and the entries
    delta_q[rho][sigma] the elimination cleared, as (rho, entry) pairs.
    They give the two chain maps of the homotopy equivalence (Skoldberg,
    "Morse theory from an algebraic viewpoint", 2006), evaluated at a
    scalar by ``g`` and ``f``, with f g the identity, and the homotopy
    ``h``, with x - g f x = delta h x + h delta x; ``ft`` is f
    transposed.  Each degree's pivots make two ``_Pass``es, one over the
    pivot rows and one over the cleared entries: g and ft pull one, f
    pushes the cleared one, and h pushes, then pulls.  The maps take and
    return sparse vectors ``{index: nonzero value}``, indexed by simplex
    on the full complex and by position in ``cells[q]`` on the reduced
    one; they store no zero, and each visits only the steps its vector's
    support reaches.

    ``at_zero`` says whether the complex may be read at t = 0, as that of
    ``DeformationComplex`` is: its entries are polynomials in t and its
    pivots +-1.  Its dims at t = 0 come only from evaluation: t is a unit
    of Q[t, 1/t], so the Smith forms say nothing there.  Elsewhere t is a
    monodromy, and ``dim_at`` and the maps refuse t = 0 with ZeroMonodromy.
    """

    def __init__(self, rows, cells, full_sizes, pivots, at_zero=False):
        self.rows = rows
        self.cells = cells
        self.sizes = [len(c) for c in cells]
        self.full_sizes = full_sizes
        self.pivots = pivots
        self.at_zero = at_zero
        self._ranks = {}
        self._smith = {}
        self._passes = {}

    def _check_point(self, a: Scalar) -> None:
        if not self.at_zero:
            check_nonzero(a)

    def smith(self, q: int) -> list:
        """The elementary divisors of ``rows[q]`` over Q[t, 1/t], computed
        on first use and kept; there are none outside the degrees of
        ``rows``.  Their number is the generic rank of delta_q."""
        divisors = self._smith.get(q)
        if divisors is None:
            divisors = self._smith[q] = _laurent_smith(
                self.rows[q] if 0 <= q < len(self.rows) else [])
        return divisors

    def dim_at(self, q: int, a: Scalar) -> int:
        """dim H^q of the complex at t = a: the q-cells minus the ranks of
        delta_q and delta_{q-1} evaluated at a."""
        if not 0 <= q < len(self.sizes):
            raise DegreeOutOfRange(
                f"degree {q} outside 0..{len(self.sizes) - 1}")
        self._check_point(a)
        return self.sizes[q] - self._rank(q, a) - self._rank(q - 1, a)

    def _rank(self, q: int, a: Scalar) -> int:
        """Rank of delta_q evaluated at a, 0 outside the rows; kept per
        (q, a, field of a), so a loop over the degrees evaluates each
        delta_q once."""
        if not 0 <= q < len(self.rows):
            return 0
        key = (q, cache_key(a), scalar_field(a))
        r = self._ranks.get(key)
        if r is None:
            r = self._ranks[key] = _evaluated_rank(self.rows[q], a)
        return r

    def g(self, q: int, a: Scalar):
        """The inclusion C_red^q -> C^q at t = a: the rows pass of degree
        q pulled.

        A reduced cochain is extended to the eliminated cells in reverse
        order of elimination: sigma of a degree-q pivot gets
        -u**-1 * sum_kappa b[kappa] x[kappa], which makes the coboundary
        vanish on tau, and a q-cell eliminated as tau gets 0.
        """
        return self._placed(self._pass("rows", q), q, a)

    def f(self, q: int, a: Scalar):
        """The projection C^q -> C_red^q at t = a: the cleared pass of
        degree q - 1 pushed.

        For each pivot of degree q - 1, whose tau is a q-cell, in
        elimination order, every cleared rho loses
        delta_{q-1}[rho][sigma] * u**-1 times the value on tau; then the
        vector is restricted to the surviving cells.
        """
        self._check_point(a)
        push = self._pass("cleared", q - 1).push(a)
        cells = self.cells[q]

        def f(v):
            y = dict(v)
            push(y, None)
            return {i: y[cell] for i, cell in enumerate(cells) if cell in y}
        return f

    def h(self, q: int, a: Scalar):
        """The homotopy C^q -> C^{q-1} at t = a, with
        x - g f x = delta h x + h delta x in every degree.

        It composes the one-step homotopies y -> u**-1 * y[tau] at sigma
        of the pivots of degree q - 1.  The push of ``f`` records
        u**-1 * y[tau] for each, y as the push has left the vector so far;
        the pull of ``g`` in degree q - 1 then sets each sigma to its
        recorded value plus -u**-1 * sum_kappa b[kappa] z[kappa], starting
        from zero.
        """
        self._check_point(a)
        push = self._pass("cleared", q - 1).push(a)
        pull = self._pass("rows", q - 1).pull(a)

        def h(x):
            values, out = {}, {}
            push(dict(x), values)
            pull(out, values)
            return out
        return h

    def ft(self, q: int, a: Scalar):
        """The transpose of ``f`` at t = a, C_red^q -> C^q on dual vectors
        (chains): the cleared pass of degree q - 1 pulled.

        A reduced chain is placed on the surviving cells; then, for each
        pivot of degree q - 1 in reverse elimination order, tau gets
        minus the sum over the cleared rho of delta_{q-1}[rho][sigma] *
        u**-1 * c[rho].  It is a chain map of the dual complexes because f
        is one.
        """
        return self._placed(self._pass("cleared", q - 1), q, a)

    def _placed(self, steps: "_Pass", q: int, a: Scalar):
        """x -> x placed on the surviving q-cells, then steps pulled."""
        self._check_point(a)
        pull = steps.pull(a)
        cells = self.cells[q]

        def placed(x):
            full = {cells[i]: v for i, v in x.items()}
            pull(full, {})
            return full
        return placed

    def _pass(self, kind: str, q: int) -> "_Pass":
        """The pass of the pivots of degree q, built on first use and kept:
        it does not depend on a, so the maps at every point share it.  A
        "rows" step is (sigma, tau, k, c, pivot row), a "cleared" step
        (tau, sigma, k, c, cleared entries)."""
        steps = self._passes.get((kind, q))
        if steps is None:
            rows = kind == "rows"
            steps = self._passes[kind, q] = _Pass(
                (sigma, tau, k, c, b.items()) if rows
                else (tau, sigma, k, c, cleared)
                for pq, tau, sigma, k, c, b, cleared in self.pivots
                if pq == q)
        return steps


class _Pass(list):
    """The steps (cell, partner, k, c, terms) of the pivots u = c * t**k
    of one degree, in elimination order: each eliminated ``cell``, its
    ``partner`` in the pivot and ``terms``, (j, Laurent polynomial) pairs.
    ``order`` maps a step's cell to its number, and ``readers`` maps a j
    to the numbers of the steps whose terms hold it.

    ``pull`` walks the steps against elimination order, each setting its
    cell from the terms; ``push`` walks them in order, each moving its
    cell's value into the terms.  On the cleared entries of a degree the
    two are transposes of each other.  A map at a evaluates a step's
    weights the first time a vector needs them and keeps them for later
    vectors, and visits only the steps its vector's support reaches,
    through a heap of step numbers."""

    def __init__(self, steps):
        super().__init__(steps)
        self.order = {step[0]: i for i, step in enumerate(self)}
        self.readers = {}
        for i, (_cell, _partner, _k, _c, terms) in enumerate(self):
            for j, _p in terms:
                self.readers.setdefault(j, []).append(i)

    def pull(self, a: Scalar):
        """A function of a sparse vector, changed in place, and a dict of
        values added at the cells: each step, last eliminated first, sets
        its cell to its value plus -u**-1 * sum_j terms[j] * vector[j] at
        t = a.  A step sets only its own cell, which only earlier steps
        read: a step's terms stood when its pivot was taken, so they hold
        no cell eliminated before it."""
        ev = _evaluator(a)
        order, readers = self.order, self.readers
        known = [None] * len(self)

        def pull(full, values):
            # step numbers negated, so that the heap pops the last first
            todo = [-i for j in full for i in readers.get(j, ())]
            todo += [-order[cell] for cell in values]
            heapify(todo)
            last = None
            while todo:
                i = -heappop(todo)
                if i == last:
                    continue
                last = i
                cell, _partner, k, c, terms = self[i]
                acc = values.get(cell, 0)
                products = known[i]
                if products is None and any(j in full for j, _p in terms):
                    w = ev({-k: -c})   # -u**-1
                    products = known[i] = [(j, w * ev(p)) for j, p in terms]
                for j, w in products or ():
                    v = full.get(j)
                    if v is not None:
                        acc += w * v
                if acc:
                    full[cell] = acc
                    for r in readers.get(cell, ()):
                        heappush(todo, -r)
        return pull

    def push(self, a: Scalar):
        """A function of a sparse vector y, changed in place, and a dict or
        None: each step, in elimination order, drops y[cell] and subtracts
        u**-1 * terms[j] * y[cell] at every j, and the dict receives
        u**-1 * y[cell] at the partner.  Terms that vanish at a are skipped.
        A step adds entries only at later cells: the rows it clears were
        not yet eliminated."""
        ev = _evaluator(a)
        order = self.order
        known = [None] * len(self)

        def push(y, values):
            todo = [order[cell] for cell in y if cell in order]
            heapify(todo)
            while todo:
                i = heappop(todo)
                cell, partner, k, c, terms = self[i]
                yc = y.pop(cell, None)
                if yc is None:
                    continue
                step = known[i]
                if step is None:
                    w = ev({-k: c})   # u**-1
                    step = known[i] = (w, [(j, x) for j, p in terms
                                           if (x := w * ev(p))])
                if values is not None:
                    values[partner] = step[0] * yc
                for j, w in step[1]:
                    v = y.get(j, 0) - w * yc
                    if not v:
                        del y[j]
                        continue
                    if j not in y and j in order:
                        heappush(todo, order[j])
                    y[j] = v
        return push


def _collapse(q: int, R, C, units, pivots, alive) -> None:
    """The collapse phase of ``_unit_pivot_reduction`` in degree q, on its
    working rows ``R``, columns ``C`` and unit stamps ``units``: eliminate
    the unit entries of Markowitz cost 0, those alone in their row (free
    faces) or in their column, least (tau, stamp) first, until none is
    left, recording each pivot as the Markowitz phase does.

    Such a pivot changes no entry, it only removes some: a free face drops
    sigma from the rows it clears, and a pivot alone in its column clears
    no row and drops tau from the other columns of its row.  So stamps stay
    initial positions, and an entry of cost 0 stays so until it goes.  One
    plain heap of (tau, stamp, sigma) holds the candidates: the entries of
    cost 0 at the start, then each unit entry whose row or column falls to
    one entry; a popped candidate counts while its entry is in its row.
    """
    heap = [(tau, s, sigma) for tau, u in units.items() if len(R[tau]) == 1
            for sigma, s in u.items()]
    heap += [(tau, s, sigma) for sigma, col in C.items() if len(col) == 1
             for tau in col if (s := units[tau].get(sigma)) is not None]
    heapify(heap)
    while heap:
        tau, _s, sigma = heappop(heap)
        pivot_row = R.get(tau)
        if pivot_row is None or sigma not in pivot_row:
            continue
        del R[tau], units[tau]
        for kappa in pivot_row:
            C[kappa].discard(tau)
        (k, c), = pivot_row.pop(sigma).items()
        cleared = []
        for rho in C.pop(sigma):   # none unless pivot_row is now empty
            row, u = R[rho], units[rho]
            cleared.append((rho, row.pop(sigma)))
            u.pop(sigma, None)
            if len(row) == 1:
                for kappa, s in u.items():
                    heappush(heap, (rho, s, kappa))
        for kappa in pivot_row:
            col = C[kappa]
            if len(col) == 1:
                for rho in col:
                    s = units[rho].get(kappa)
                    if s is not None:
                        heappush(heap, (rho, s, kappa))
        pivots.append((q, tau, sigma, k, c, pivot_row, cleared))
        del alive[q][sigma], alive[q + 1][tau]


def _unit_pivot_reduction(deltas, sizes, *, at_zero=False) -> ReducedComplex:
    """Eliminate every cell pair joined by a unit entry, degree by degree.

    The pivots are the units +-t**k of Z[t, 1/t] (``_is_unit``) for a
    complex read only at t != 0, and only +-1 (``_is_constant_unit``) for
    one read at t = 0 too, which ``at_zero`` says and the ReducedComplex
    keeps.  A pivot
    u = delta_q[tau][sigma] = +-t**k removes the q-cell sigma and the
    (q+1)-cell tau: delta_q becomes its Schur complement
    delta_q[rho][kappa] - delta_q[rho][sigma] * u**-1 * delta_q[tau][kappa],
    delta_{q-1} loses row sigma and delta_{q+1} loses column tau.  The
    result is chain-homotopy equivalent over Z[t, 1/t] (Kaczynski, Mrozek
    and Slusarek 1998), and u**-1 = +-t**-k keeps every entry an integer
    Laurent polynomial.  Eliminating in delta_q never creates a pivot
    candidate in a lower degree, so one ascending pass leaves none
    anywhere.  Each elimination is recorded by reference, for the
    transfer maps.

    The pivot order is part of the contract, since the reduced cells,
    rows and transfer maps depend on it.  The next pivot of delta_q is the
    unit entry of least Markowitz cost (row length - 1) * (column length
    - 1); among equal costs, the one in the row tau that comes first (rows
    keep their ascending order, as none is ever re-inserted); within that
    row, the entry inserted first, where an entry cancelled by a Schur
    update and filled in again later counts as the newest.

    The selection runs in two phases per degree.  The working rows and
    columns of delta_q are built in one pass when its degree is reached,
    without the q-cells already eliminated as a tau; ``is_unit`` is asked
    then once per distinct entry object, which the entries +-1 of
    coboundary rows share, and once per entry a Schur update changes,
    except the fill-ins of a contraction (below).  An
    entry's stamp orders it within its row: an initial entry's is its
    position in ``deltas[q][tau]``, a filled-in entry's is drawn from a
    counter above every position.  Each stamp is written once, when its
    entry enters the row: a unit entry's in ``units[tau]``, any other's in
    one map ``(tau, sigma) -> stamp`` per degree, and a Schur update that
    changes whether an entry is a unit moves its stamp between the two.
    The stamp of an entry that left its row may stay in that map, unread
    until a fill-in at the same place writes a new one.

    The collapse phase (``_collapse``) comes first: it eliminates the
    pivots of cost 0, free faces and entries alone in their column, least
    (tau, stamp) first.  Cost-0 keys pop before any other, and these
    pivots make no fill-in, so this is the rule's order, with no cost
    computed.  Most pivots of a mapping torus are of this kind (184 of 223
    on S1 x S3).

    The Markowitz phase then builds its state once, over the rows the
    collapse left, and keeps it up to date as the reduction runs, so that
    a pivot costs work in proportion to the rows it changes, not to
    delta_q.  Within a column the cost orders the unit entries as (row
    length, tau, stamp) does, and one global heap holds the least key
    (cost, tau, stamp, sigma) of every column; a popped key counts only
    while it is still its column's least.  A column gets a lazy heap of its
    unit entries, built from the column as it stands, only when its least
    must be recomputed, and pushes go only to heaps that exist.  A pivot
    whose row holds nothing but sigma (cost 0, a free face; the Schur
    updates of this phase can make new ones) updates no entry: it drops
    sigma from the rows it clears, whose unit entries can only get
    cheaper.  After any other pivot, the columns of the pivot row, whose
    lengths changed, recompute their least, and so does a column whose
    least entry lies in a cleared row that grew; any other column's least
    changes only when a new key beats it.

    Most pivots of this phase are contractions: the pivot row holds one
    entry besides sigma, a monomial at a column mu.  Its term, times
    -u**-1, is read once per pivot, and each monomial entry it clears
    moves to mu in one step.  A fill-in at mu is a monomial whose unit
    status is read off its coefficient (and, at t = 0, its exponent), so
    ``is_unit`` is not asked; the row keeps its length, so its only new key
    goes to mu's column heap, if that exists.  A merge with the entry at mu
    updates or cancels it as the Schur update would.  The entries, stamps
    and keys are those the general update makes, only reached with less
    work, so the pivot order stays the rule's.  Every other cleared entry,
    and every other pivot, takes the general update.
    """
    is_unit = _is_constant_unit if at_zero else _is_unit
    alive = [dict.fromkeys(range(n)) for n in sizes]
    rows = []
    pivots = []
    # stamps of filled-in entries exceed every initial position in a row
    new_stamp = count(max(sizes, default=0))
    for q, delta in enumerate(deltas):
        live = alive[q]   # q-cells not eliminated as a tau in degree q - 1
        R = {}        # tau -> row of delta_q, {sigma: Laurent polynomial}
        C = {sigma: set() for sigma in live}   # sigma -> rows with an entry
        units = {}    # tau -> {sigma: stamp} of its unit entries
        other = {}    # (tau, sigma) -> stamp of a non-unit entry
        unit = {}     # id of an entry of delta_q -> is_unit(entry)
        for tau, full in enumerate(delta):
            R[tau] = row = {}
            units[tau] = u = {}
            for s, (sigma, p) in enumerate(full.items()):
                if sigma in live:
                    row[sigma] = p
                    C[sigma].add(tau)
                    ok = unit.get(id(p))
                    if ok is None:
                        ok = unit[id(p)] = is_unit(p)
                    if ok:
                        u[sigma] = s
                    else:
                        other[tau, sigma] = s
        rows.append(R)
        _collapse(q, R, C, units, pivots, alive)
        least = {}    # sigma -> least (row length, tau, stamp) of column
        for tau, row in R.items():
            n = len(row)
            for sigma, s in units[tau].items():
                cur = least.get(sigma)
                if cur is None or n < cur[0]:
                    least[sigma] = (n, tau, s)
        heap = [((n - 1) * (len(C[sigma]) - 1), tau, s, sigma)
                for sigma, (n, tau, s) in least.items()]
        best = {key[3]: key for key in heap}   # sigma -> least key or None
        heapify(heap)
        by_col = {}   # sigma -> lazy heap of (row length, tau, stamp)

        def refresh(sigma):
            h = by_col.get(sigma)
            if h is None:
                h = by_col[sigma] = [
                    (len(R[rho]), rho, s) for rho in C[sigma]
                    if (s := units[rho].get(sigma)) is not None]
                heapify(h)
            key = None
            while h:
                n, tau, s = h[0]
                u = units.get(tau)
                if u is not None and u.get(sigma) == s and len(R[tau]) == n:
                    key = ((n - 1) * (len(C[sigma]) - 1), tau, s, sigma)
                    break
                heappop(h)
            if best.get(sigma) != key:
                best[sigma] = key
                if key is not None:
                    heappush(heap, key)

        while heap:
            key = heappop(heap)
            if best.get(key[3]) != key:
                continue
            _cost, tau, _s, sigma = key
            pivot_row = R.pop(tau)
            del units[tau], best[sigma]
            by_col.pop(sigma, None)
            for kappa in pivot_row:
                C[kappa].discard(tau)
            (k, c), = pivot_row.pop(sigma).items()
            # a contraction: the pivot row holds one other entry, a
            # monomial, kept as the term (em, cm) of -u**-1 * delta[tau][mu]
            mu = None
            if len(pivot_row) == 1:
                (kappa, p), = pivot_row.items()
                if len(p) == 1:
                    (em, cm), = p.items()
                    mu, em, cm, col_mu = kappa, em - k, -c * cm, C[kappa]
            cleared = []
            worse = []
            for rho in C.pop(sigma):
                row, u = R[rho], units[rho]
                length = len(row)
                entry = row.pop(sigma)
                u.pop(sigma, None)
                cleared.append((rho, entry))
                # the Schur update; after a free face, whose pivot row held
                # only sigma, the row just gets shorter
                if mu is not None and len(entry) == 1:
                    # a monomial moves to mu in one step
                    (e, v), = entry.items()
                    e += em
                    v *= cm
                    old = row.get(mu)
                    if old is None:
                        # a fill-in: the row keeps its length, so its one
                        # new key goes to mu's column heap, if that exists
                        row[mu] = {e: v}
                        col_mu.add(rho)
                        s = next(new_stamp)
                        if abs(v) == 1 and not (at_zero and e):
                            u[mu] = s
                            h = by_col.get(mu)
                            if h is not None:
                                heappush(h, (length, rho, s))
                        else:
                            other[rho, mu] = s
                        continue
                    new = dict(old)
                    v += new.get(e, 0)
                    if v:
                        new[e] = v
                    else:
                        del new[e]
                    if not new:
                        del row[mu]
                        col_mu.discard(rho)
                        u.pop(mu, None)
                    else:
                        row[mu] = new
                        if is_unit(new):
                            if mu not in u:
                                u[mu] = other.pop((rho, mu))
                        elif mu in u:
                            other[rho, mu] = u.pop(mu)
                elif pivot_row:
                    # f = -delta[rho][sigma] * u**-1, with u**-1 = c * t**-k
                    f = {e - k: -c * v for e, v in entry.items()}
                    for kappa, p in pivot_row.items():
                        old = row.get(kappa)
                        if old is None:   # a fill-in, never zero
                            row[kappa] = new = _add_product({}, f, p)
                            C[kappa].add(rho)
                            if is_unit(new):
                                u[kappa] = next(new_stamp)
                            else:
                                other[rho, kappa] = next(new_stamp)
                            continue
                        new = _add_product(old, f, p)
                        if not new:
                            del row[kappa]
                            C[kappa].discard(rho)
                            u.pop(kappa, None)
                            continue
                        row[kappa] = new
                        if is_unit(new):
                            if kappa not in u:
                                u[kappa] = other.pop((rho, kappa))
                        elif kappa in u:
                            other[rho, kappa] = u.pop(kappa)
                # new keys for the unit entries whose key changed: all of
                # them if the row's length changed, else those in the
                # columns of the pivot row, which recompute their least
                # below.  Any other column keeps its length: a new key
                # replaces its least if it is less, and the column
                # recomputes its least if that was in this row, now longer
                n = len(row)
                for kappa in (u if n != length else pivot_row):
                    s = u.get(kappa)
                    if s is None:
                        continue
                    h = by_col.get(kappa)
                    if h is not None:
                        heappush(h, (n, rho, s))
                    if kappa in pivot_row:
                        continue
                    key = ((n - 1) * (len(C[kappa]) - 1), rho, s, kappa)
                    cur = best.get(kappa)
                    if cur is None or key < cur:
                        best[kappa] = key
                        heappush(heap, key)
                    elif cur[1] == rho and n > length:
                        worse.append(kappa)
            for kappa in pivot_row:
                refresh(kappa)
            for kappa in worse:
                refresh(kappa)
            pivots.append((q, tau, sigma, k, c, pivot_row, cleared))
            del alive[q][sigma], alive[q + 1][tau]
    cells = [list(a) for a in alive]
    reduced = []
    for q, R in enumerate(rows):
        col_pos = {j: i for i, j in enumerate(cells[q])}
        reduced.append([{col_pos[j]: p for j, p in R[tau].items()}
                        for tau in cells[q + 1]])
    return ReducedComplex(reduced, cells, list(sizes), pivots, at_zero)


def _as_poly(p: dict):
    """A nonzero Laurent polynomial p as (low, P), p = t**low * P with
    P(0) != 0.  An entry whose exponents span more than MAX_EXPONENT raises
    ExponentTooLarge rather than become a dense P of that degree."""
    low, high = min(p), max(p)
    if high - low > MAX_EXPONENT:
        raise ExponentTooLarge(
            f"a Smith form entry spans exponents {low}..{high}: dense "
            f"polynomials of degree beyond {MAX_EXPONENT} are refused")
    coeffs = [0] * (high - low + 1)
    for e, c in p.items():
        coeffs[e - low] = c
    return low, Poly(coeffs)


def _laurent_divmod(a: dict, b: dict):
    """(q, r) with a = q * b + r over Q[t, 1/t], r zero or of smaller
    exponent span than b: with a = t**i * A and b = t**j * B, the division
    A = Q * B + R in Q[t] gives q = t**(i - j) * Q and r = t**i * R, whose
    span is at most deg R < deg B."""
    i, A = _as_poly(a)
    j, B = _as_poly(b)
    Q, R = A.divmod(B)
    return ({e + i - j: c for e, c in enumerate(Q.coeffs) if c},
            {e + i: c for e, c in enumerate(R.coeffs) if c})


def _laurent_smith(rows) -> list:
    """The elementary divisors d_1 | d_2 | ... | d_r over Q[t, 1/t] of
    sparse Laurent rows ``{column: Laurent polynomial}``: the PID phase
    after the unit-pivot reduction.  Each is monic with a nonzero constant
    term (powers of t are units), r is the generic rank, and at any a != 0
    the rows evaluated at a have the rank of the divisors that do not
    vanish at a.

    Each stage takes the entry of least exponent span as its pivot, ties
    going to the least row, then the least column.  Row steps clear the
    pivot's column and column steps its row, each by one Euclidean
    division, and a nonzero remainder, of smaller span, becomes the pivot.
    Once the pivot is alone in its row and column, the usual fixup adds
    into the pivot row a row holding an entry that the pivot does not
    divide, and the steps go on.  Once it divides every entry, its row
    goes, and the pivot t**low * P gives the next divisor, P made monic:
    every divisor has a nonzero constant term, and each divides the next.  The rows are
    copied, and no entry is changed in place.
    """
    M = [dict(row) for row in rows if row]
    divisors = []
    while M:
        _span, i, j = min((max(p) - min(p), r, k)
                          for r, row in enumerate(M) for k, p in row.items())
        while True:
            pivot_row = M[i]
            p = pivot_row[j]
            moved = False
            # row steps: row r -= q * pivot row leaves the remainder at j
            for r, row in enumerate(M):
                if r == i or j not in row:
                    continue
                q, rem = _laurent_divmod(row[j], p)
                q = {e: -c for e, c in q.items()}
                for k, x in pivot_row.items():
                    new = _add_product(row.get(k, {}), q, x)
                    if new:
                        row[k] = new
                    else:
                        row.pop(k, None)
                if rem:
                    i, moved = r, True
                    break
            if moved:
                continue
            # column steps: the pivot is alone in column j, so column k -=
            # q * column j changes only the pivot row, to the remainder
            for k in [k for k in pivot_row if k != j]:
                rem = _laurent_divmod(pivot_row[k], p)[1]
                if rem:
                    pivot_row[k] = rem
                    j, moved = k, True
                    break
                del pivot_row[k]
            if moved:
                continue
            # fixup; a unit divides every entry.  The pivot row holds only
            # the pivot and row r nothing at j, so their sum is a union
            if len(p) > 1:
                for r, row in enumerate(M):
                    if r != i and any(_laurent_divmod(x, p)[1]
                                      for x in row.values()):
                        pivot_row.update(row)
                        moved = True
                        break
            if not moved:
                break
        divisors.append(_as_poly(p)[1].monic())
        del M[i]
        M = [row for row in M if row]
    return divisors


def twisted_cohomology_dim(complex: SimplicialComplex, z: OneCocycle,
                           q: int, a: Scalar) -> int:
    """dim H^q(X; E_a) by direct rank computation at the scalar a.

    Evaluates the unreduced simplicial coboundaries at a and eliminates;
    the program reads twisted dimensions off ``TwistedComplex.reduced``,
    and this route is kept as the independent oracle for the tests and
    ``self-check``.
    """
    check_nonzero(a)
    if not 0 <= q <= complex.dim:
        raise DegreeOutOfRange(f"degree {q} outside 0..{complex.dim}")
    n_q = complex.n_simplices(q)
    r_q = _rank_at(complex, z, q, a)
    r_prev = _rank_at(complex, z, q - 1, a) if q > 0 else 0
    return n_q - r_q - r_prev


def _rank_at(complex, z, q, a):
    return rank(twisted_coboundary_values(complex, z, q, a),
                complex.n_simplices(q))


def cocycle_space_basis(complex: SimplicialComplex, z: OneCocycle,
                        q: int, a: Scalar):
    """Basis of ker(delta_a) in degree q, as coordinate vectors."""
    check_nonzero(a)
    field = scalar_field(a)
    zero = field.zero() if field else Fraction(0)
    one = field.one() if field else Fraction(1)
    n_q = complex.n_simplices(q)
    rows = twisted_coboundary_values(complex, z, q, a)
    return nullspace(rows, n_q, zero, one)


def coboundary_image_vectors(complex: SimplicialComplex, z: OneCocycle,
                             q: int, a: Scalar):
    """Columns of delta_a: C^{q-1} -> C^q as vectors in C^q coordinates."""
    if q == 0:
        return []
    rows = twisted_coboundary_values(complex, z, q - 1, a)
    if not rows:
        return []
    ncols = len(rows[0])
    return [[rows[i][j] for i in range(len(rows))] for j in range(ncols)]


def check_vertex_map(vertex_map: dict, source_vertices,
                     target_vertices) -> None:
    """The checks of a simplicial map that read no faces, NotAnIsomorphism
    if one fails: the vertex map is injective, gives each source vertex an
    image and no other vertex one, and sends it to a target vertex.  A map
    of a finite vertex set into itself that passes them is a bijection."""
    if len(set(vertex_map.values())) != len(vertex_map):
        raise NotAnIsomorphism("vertex map is not injective")
    for v in source_vertices:
        if v not in vertex_map:
            raise NotAnIsomorphism(f"vertex {v} has no image")
    extra = set(vertex_map).difference(source_vertices)
    if extra:
        raise NotAnIsomorphism(f"vertex {min(extra)} is not in the source")
    for v in source_vertices:
        if vertex_map[v] not in target_vertices:
            raise NotAnIsomorphism(f"image {(vertex_map[v],)} of simplex "
                                   f"{(v,)} is not a simplex")


class SimplicialMap:
    """Injective simplicial map V -> N given by its vertex assignment."""

    def __init__(self, source: SimplicialComplex, target: SimplicialComplex,
                 vertex_map: dict):
        self.source = source
        self.target = target
        self.vertex_map = dict(vertex_map)
        check_vertex_map(self.vertex_map, source.vertices(),
                         set(target.vertices()))
        image_of = self.vertex_map.__getitem__
        for level in source.simplices[1:]:
            for s in level:
                image = tuple(sorted(map(image_of, s)))
                if not target.has_simplex(image):
                    raise NotAnIsomorphism(
                        f"image {image} of simplex {s} is not a simplex")

    def image_simplex(self, s):
        """Sorted image tuple and the sign of the sorting permutation."""
        mapped = [self.vertex_map[v] for v in s]
        image = tuple(sorted(mapped))
        sign = _permutation_sign(mapped)
        return image, sign


def _permutation_sign(seq) -> int:
    inversions = sum(x > y for i, x in enumerate(seq) for y in seq[i + 1:])
    return -1 if inversions % 2 else 1


class CutPresentation:
    """Complement-and-wall data (N, V, i+, i-) for a space cut along V.

    The cut space is reassembled by gluing i+(V) to i-(V); the monodromy
    variable t counts signed passages through the wall.  ``check_vertices``
    runs the checks that read no faces, first; then i+ and i- must send
    each simplex of V to one of N.
    """

    def __init__(self, N: SimplicialComplex, V: SimplicialComplex,
                 i_plus: dict, i_minus: dict):
        self.check_vertices(V.vertices(), set(N.vertices()), i_plus, i_minus)
        self.N = N
        self.V = V
        self.i_plus = SimplicialMap(V, N, i_plus)
        self.i_minus = SimplicialMap(V, N, i_minus)

    @staticmethod
    def check_vertices(V_vertices, N_vertices, i_plus: dict,
                       i_minus: dict) -> None:
        """The checks of a cut on vertices alone: i+ and i- pass
        ``check_vertex_map`` from V_vertices to N_vertices, and their images
        are disjoint (DimensionMismatch otherwise)."""
        check_vertex_map(i_plus, V_vertices, N_vertices)
        check_vertex_map(i_minus, V_vertices, N_vertices)
        if set(i_plus.values()) & set(i_minus.values()):
            raise DimensionMismatch("i+ and i- images share vertices")


class DeformationComplex(LaurentComplex):
    """Cochain complex over Z[t] computing all twisted cohomologies at once.

    Degree q cochains are C^q(N) (+) C^{q-1}(V); the differential is

        [ delta_N          0        ]
        [ i+* - t * i-*   -delta_V  ]

    Evaluating at t = a gives dim H^q of the glued space with monodromy
    1/a; evaluating at t = 0 gives dim H^q(N, wall_+).  ``rows[q]`` holds
    the differential in degree q as sparse Laurent rows, the q+1-simplices
    of N first, then the q-simplices of V; columns number the q-simplices
    of N, then the q-1-simplices of V.  ``sizes`` and ``rows`` stop at the
    top degree ``top`` = max(dim N, dim V + 1).  The complex is read at
    t = 0, so ``reduced()`` eliminates only the constant pivots +-1: a
    pivot -t would be no unit there.  ``dim_at`` reads the reduced complex.
    """

    def __init__(self, cut: CutPresentation):
        self.cut = cut
        N, V = cut.N, cut.V
        self.top = max(N.dim, V.dim + 1)
        deltas = []
        for q in range(self.top):
            rows = [_face_row(N.index[q], s, 0, 1)
                    for s in _simplices(N, q + 1)]
            wall = {s: N.n_simplices(q) + j
                    for j, s in enumerate(_simplices(V, q - 1))}
            for s in _simplices(V, q):
                row = _face_row(wall, s, 0, -1) if q else {}
                image, sign = cut.i_plus.image_simplex(s)
                row[N.index[q][image]] = _SIGNED[sign][0]
                image, sign = cut.i_minus.image_simplex(s)
                row[N.index[q][image]] = {1: -sign}
                rows.append(row)
            deltas.append(rows)
        super().__init__(deltas, [N.n_simplices(q) + V.n_simplices(q - 1)
                                  for q in range(self.top + 1)],
                         at_zero=True)

    def dim_at(self, q: int, a: Scalar) -> int:
        """dim H^q of the complex specialized at t = a (a = 0 allowed)."""
        return self.reduced().dim_at(q, a)


def relative_cochain_indices(complex: SimplicialComplex,
                             sub: SimplicialComplex, q: int):
    """Indices of q-simplices of the big complex not lying in the subcomplex."""
    return [i for i, s in enumerate(complex.simplices[q])
            if not sub.has_simplex(s)]


def relative_reduced(complex: SimplicialComplex, sub: SimplicialComplex,
                     z: OneCocycle) -> ReducedComplex:
    """C*(X, A; E), the cochains vanishing on the subcomplex, reduced by
    its unit pivots +-t**k; ``dim_at(q, a)`` gives dim H^q(X, A; E_a) at
    a != 0 and raises ZeroMonodromy at a = 0.

    Since A is a subcomplex, delta maps those cochains to themselves:
    C*(X, A) is the TwistedComplex's delta_q restricted to the rows and
    columns of the simplices outside A, checked again as a complex, which
    refuses an A that is not closed under faces.
    """
    keep = [relative_cochain_indices(complex, sub, d)
            for d in range(complex.dim + 1)]
    deltas = []
    for d, full in enumerate(TwistedComplex(complex, z).rows):
        col = {j: pos for pos, j in enumerate(keep[d])}
        deltas.append([{col[j]: p for j, p in full[i].items() if j in col}
                       for i in keep[d + 1]])
    return LaurentComplex(deltas, [len(k) for k in keep]).reduced()


def restriction_epi(complex: SimplicialComplex, sub: SimplicialComplex,
                    z: OneCocycle, a: Scalar, q: int) -> bool:
    """Whether H^q(X, A; E_a) -> H^q(X; E_a) is onto.

    The map is induced by including the cochains that vanish on A.  The
    relative cocycles together with the coboundaries of X always span a
    subspace of the cocycle space Z^q(X), so the map is onto exactly when
    that span has the dimension n_q - rank(delta_q) of Z^q(X).
    """
    check_nonzero(a)
    rows = TwistedComplex(complex, z).rows
    delta = rows[q] if q < len(rows) else []
    span = Span()
    for column in transpose(evaluate_rows(rows[q - 1], a)
                            if 0 < q <= len(rows) else [],
                            complex.n_simplices(q - 1)):
        span.insert(column)
    keep = relative_cochain_indices(complex, sub, q)
    at = {j: i for i, j in enumerate(keep)}
    sliced = [{at[j]: x for j, x in row.items() if j in at}
              for row in evaluate_rows(delta, a)]
    for small in kernel(sliced, len(keep)):
        span.insert({keep[i]: x for i, x in small.items()})
    return span.dim == complex.n_simplices(q) - _evaluated_rank(delta, a)
