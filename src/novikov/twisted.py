"""Twisted cochain complexes over Q[t].

Two routes to the same cohomology:

* ``TwistedComplex`` substitutes t**z(u, v) for the monodromy transport in
  the simplicial coboundary.  It keeps the coboundaries as sparse rows over
  Z[t, 1/t] and reduces them by unit pivots +-t**k (algebraic Morse
  reduction), which leaves a chain-homotopy equivalent complex of a few
  cells.  Smith forms of the reduced matrices carry the generic ranks and
  the jump divisors; evaluating them at t = a gives twisted dimensions.
  The recorded eliminations give the chain maps between the reduced and
  the full complex at any t = a, which carry cohomology classes across.

* ``DeformationComplex`` is built from a cut presentation (N, V, i+, i-)
  as the same kind of sparse rows, with entries linear in t, and passes
  the same delta^2 = 0 check.  Evaluating at t = a computes twisted
  cohomology with monodromy 1/a; evaluating at t = 0 computes the relative
  cohomology of (N, boundary_+ N).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .complexes import SimplicialComplex, OneCocycle, twisted_coboundary_values
from .errors import (DegreeOutOfRange, DimensionMismatch, NotAChainComplex,
                     NotAnIsomorphism)
from .linalg import Span, nullspace, rank
from .matrix import PolyMatrix
from .numfield import Scalar, check_nonzero, scalar_field, scalar_pow
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


def _to_poly(p: dict, shift: int) -> Poly:
    coeffs = [0] * (max(p) + shift + 1)
    for e, c in p.items():
        coeffs[e + shift] = c
    return Poly(coeffs)


def _poly_matrix(rows, n: int, shifts) -> PolyMatrix:
    """Dense n-column view of sparse Laurent rows; row i is multiplied by
    t**shifts[i]."""
    dense = []
    for row, s in zip(rows, shifts):
        out = [Poly()] * n
        for j, p in row.items():
            out[j] = _to_poly(p, s)
        dense.append(out)
    return PolyMatrix(len(dense), n, dense)


def _face_row(cols, sigma, transport: int, sign: int) -> dict:
    """sign times the coboundary row of the simplex sigma, as ``{column:
    Laurent polynomial}``: the i-th face, at column cols[face], carries
    (-1)**i, and the 0-th face also t**transport."""
    row = {cols[sigma[1:]]: {transport: sign}}
    for i in range(1, len(sigma)):
        row[cols[sigma[:i] + sigma[i + 1:]]] = {0: sign * (-1) ** i}
    return row


def _simplices(complex: SimplicialComplex, q: int):
    return complex.simplices[q] if 0 <= q <= complex.dim else []


def sparse_coboundary(complex: SimplicialComplex, z: OneCocycle, q: int):
    """Twisted coboundary delta_q over Z[t, 1/t]: one ``{column: Laurent
    polynomial}`` row per (q+1)-simplex.  The 0-th face carries the
    transport t**z(v0, v1), the i-th face the sign (-1)**i."""
    return [_face_row(complex.index[q], sigma, z.value(sigma[0], sigma[1]), 1)
            for sigma in complex.simplices[q + 1]]


def check_square_zero(deltas) -> None:
    """Raise NotAChainComplex unless delta_{q+1} delta_q = 0 for every q;
    ``deltas[q]`` holds the sparse Laurent rows of delta_q."""
    for q in range(len(deltas) - 1):
        lower = deltas[q]
        for row in deltas[q + 1]:
            acc = {}
            for j, p in row.items():
                for k, r in lower[j].items():
                    acc[k] = _add_product(acc.get(k, {}), p, r)
            if any(acc.values()):
                raise NotAChainComplex(
                    f"delta^2 != 0 between degrees {q} and {q + 2}")


def dense_matrices(deltas, sizes):
    """Dense Q[t] views of sparse Laurent differentials: t**s_q times
    delta_q, with one shift s_q per degree clearing negative exponents.
    Since the shift is a global scalar, ranks away from t = 0 and all
    divisor factors coprime to t are those of delta_q itself."""
    out = []
    for q, rows in enumerate(deltas):
        low = min((e for row in rows for p in row.values() for e in p),
                  default=0)
        out.append(_poly_matrix(rows, sizes[q],
                                [max(-low, 0)] * len(rows)))
    return out


def _evaluator(a: Scalar):
    """p -> p(a) for Laurent polynomials, with the powers of a memoised;
    constant terms stay integers."""
    powers = {}

    def ev(p: dict):
        out = 0
        for e, c in p.items():
            if e == 0:
                out += c
            else:
                x = powers.get(e)
                if x is None:
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


def _evaluated_rank(rows, ncols: int, a: Scalar) -> int:
    """Rank of sparse Laurent rows evaluated at t = a; zero entries never
    reach the echelon."""
    span = Span(ncols, reduced=False)
    for vec in evaluate_rows(rows, a):
        span.insert(vec)
    return span.dim


class TwistedComplex:
    """Twisted cochain complex of a complex with a 1-cocycle, over Z[t, 1/t].

    ``rows[q]`` holds delta_q: C^q -> C^{q+1} as sparse Laurent rows, one
    per (q+1)-simplex; delta^2 = 0 is checked on them at construction.
    ``matrices`` is their dense Q[t] view (``dense_matrices``), built on
    first use.  ``reduced()`` gives the complex after unit-pivot reduction.
    """

    def __init__(self, complex: SimplicialComplex, z: OneCocycle):
        self.complex = complex
        self.z = z
        self.sizes = [complex.n_simplices(q) for q in range(complex.dim + 1)]
        self.rows = [sparse_coboundary(complex, z, q)
                     for q in range(complex.dim)]
        check_square_zero(self.rows)
        self._reduced = None

    @cached_property
    def matrices(self):
        return dense_matrices(self.rows, self.sizes)

    def matrix(self, q: int) -> PolyMatrix:
        if not 0 <= q <= self.complex.dim:
            raise DegreeOutOfRange(f"degree {q} outside 0..{self.complex.dim}")
        if q == self.complex.dim:
            return PolyMatrix(0, len(self.complex.simplices[q]))
        return self.matrices[q]

    def reduced(self) -> "ReducedComplex":
        """The unit-pivot-reduced complex with its transfer maps, built on
        first use."""
        if self._reduced is None:
            self._reduced = _unit_pivot_reduction(self.rows, self.sizes)
        return self._reduced


class ReducedComplex:
    """The complex left by unit-pivot reduction, with its transfer maps.

    ``cells[q]`` lists the surviving q-cells (simplex indices) and
    ``sizes[q]`` counts them; ``rows[q]`` is the reduced delta_q as sparse
    Laurent rows, one per surviving (q+1)-cell, whose columns number the
    surviving q-cells by position.  ``matrices[q]`` is the dense Q[t] view
    of ``rows[q]`` with each row multiplied by the power of t that makes
    its lowest exponent 0.  A row scaled by a unit changes elementary
    divisors only by powers of t, and ranks at t = a != 0 not at all, but
    these matrices are no chain complex.

    ``pivots`` records every elimination in order as (q, tau, sigma, k, c,
    b, cleared): the pivot u = delta_q[tau][sigma] = c * t**k, the pivot
    row b = delta_q[tau] as it stood then without sigma, and the entries
    delta_q[rho][sigma] the elimination cleared, as (rho, entry) pairs.
    They give the two chain maps of the homotopy equivalence (Skoldberg,
    "Morse theory from an algebraic viewpoint", 2006), evaluated at a
    scalar by ``g`` and ``f``; f g is the identity.
    """

    def __init__(self, rows, cells, full_sizes, pivots):
        self.rows = rows
        self.cells = cells
        self.sizes = [len(c) for c in cells]
        self.full_sizes = full_sizes
        self.pivots = pivots

    @cached_property
    def matrices(self):
        out = []
        for q, kept in enumerate(self.rows):
            shifts = [-min(e for p in row.values() for e in p) if row else 0
                      for row in kept]
            out.append(_poly_matrix(kept, self.sizes[q], shifts))
        return out

    def g(self, q: int, a: Scalar):
        """The inclusion C_red^q -> C^q at t = a, as a map of dense vectors.

        A reduced cochain is extended to the eliminated cells in reverse
        order of elimination: sigma of a degree-q pivot gets
        -u**-1 * sum_kappa b[kappa] x[kappa], which makes the coboundary
        vanish on tau, and a q-cell eliminated as tau gets 0.
        """
        ev = _evaluator(a)
        steps = []
        for pq, _tau, sigma, k, c, b, _cleared in reversed(self.pivots):
            if pq == q:
                w = -c * scalar_pow(a, -k)
                steps.append((sigma, [(kappa, w * ev(p))
                                      for kappa, p in b.items()]))
        n, cells = self.full_sizes[q], self.cells[q]

        def g(x):
            full = [0] * n
            for cell, v in zip(cells, x):
                full[cell] = v
            for sigma, terms in steps:
                acc = 0
                for kappa, w in terms:
                    v = full[kappa]
                    if v:
                        acc += w * v
                full[sigma] = acc
            return full
        return g

    def f(self, q: int, a: Scalar):
        """The projection C^q -> C_red^q at t = a, as a map of dense vectors.

        For each pivot of degree q - 1, whose tau is a q-cell, in
        elimination order, every cleared rho loses
        delta_{q-1}[rho][sigma] * u**-1 times the value on tau; then the
        vector is restricted to the surviving cells.
        """
        ev = _evaluator(a)
        steps = []
        for pq, tau, _sigma, k, c, _b, cleared in self.pivots:
            if pq == q - 1 and cleared:
                w = c * scalar_pow(a, -k)
                steps.append((tau, [(rho, w * ev(p)) for rho, p in cleared]))
        cells = self.cells[q]

        def f(v):
            y = list(v)
            for tau, terms in steps:
                yt = y[tau]
                if yt:
                    for rho, w in terms:
                        y[rho] -= w * yt
            return [y[cell] for cell in cells]
        return f


def _unit_pivot_reduction(deltas, sizes) -> ReducedComplex:
    """Eliminate every cell pair joined by a unit entry, degree by degree.

    A pivot u = delta_q[tau][sigma] = +-t**k removes the q-cell sigma and
    the (q+1)-cell tau: delta_q becomes its Schur complement
    delta_q[rho][kappa] - delta_q[rho][sigma] * u**-1 * delta_q[tau][kappa],
    delta_{q-1} loses row sigma and delta_{q+1} loses column tau.  The
    result is chain-homotopy equivalent over Z[t, 1/t] (Kaczynski, Mrozek
    and Slusarek 1998), and u**-1 = +-t**-k keeps every entry an integer
    Laurent polynomial.  Among the unit entries the one with the smallest
    Markowitz cost (row length - 1) * (column length - 1) goes first.
    Eliminating in delta_q never creates a unit entry in a lower degree,
    so one ascending pass leaves no unit entry anywhere.  Each elimination
    is recorded by reference, for the transfer maps.
    """
    rows = [dict(enumerate(dict(r) for r in d)) for d in deltas]
    cols = []
    for d in rows:
        c = {}
        for i, r in d.items():
            for j in r:
                c.setdefault(j, set()).add(i)
        cols.append(c)
    alive = [dict.fromkeys(range(n)) for n in sizes]
    pivots = []
    for q, (R, C) in enumerate(zip(rows, cols)):
        while (pivot := _cheapest_unit(R, C)) is not None:
            tau, sigma = pivot
            pivot_row = R.pop(tau)
            for kappa in pivot_row:
                C[kappa].discard(tau)
            (k, c), = pivot_row.pop(sigma).items()
            cleared = []
            for rho in C.pop(sigma):
                row = R[rho]
                entry = row.pop(sigma)
                cleared.append((rho, entry))
                # -delta[rho][sigma] * u**-1, with u**-1 = c * t**-k
                f = {e - k: -c * v for e, v in entry.items()}
                for kappa, p in pivot_row.items():
                    new = _add_product(row.get(kappa, {}), f, p)
                    if new:
                        if kappa not in row:
                            C[kappa].add(rho)
                        row[kappa] = new
                    elif kappa in row:
                        del row[kappa]
                        C[kappa].discard(rho)
            pivots.append((q, tau, sigma, k, c, pivot_row, cleared))
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
        col_pos = {j: i for i, j in enumerate(cells[q])}
        reduced.append([{col_pos[j]: p for j, p in R[tau].items()}
                        for tau in cells[q + 1]])
    return ReducedComplex(reduced, cells, list(sizes), pivots)


def _cheapest_unit(R, C):
    """(row, column) of the first unit entry of least Markowitz cost, or
    None; R maps rows to ``{column: entry}``, C columns to their rows."""
    best, best_cost = None, None
    for tau, row in R.items():
        for sigma, p in row.items():
            if _is_unit(p):
                cost = (len(row) - 1) * (len(C[sigma]) - 1)
                if cost == 0:
                    return tau, sigma
                if best is None or cost < best_cost:
                    best, best_cost = (tau, sigma), cost
    return best


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


class SimplicialMap:
    """Injective simplicial map V -> N given by its vertex assignment."""

    def __init__(self, source: SimplicialComplex, target: SimplicialComplex,
                 vertex_map: dict):
        self.source = source
        self.target = target
        self.vertex_map = dict(vertex_map)
        if len(set(self.vertex_map.values())) != len(self.vertex_map):
            raise NotAnIsomorphism("vertex map is not injective")
        for v in source.vertices():
            if v not in self.vertex_map:
                raise NotAnIsomorphism(f"vertex {v} has no image")
        for level in source.simplices:
            for s in level:
                image = tuple(sorted(self.vertex_map[v] for v in s))
                if not target.has_simplex(image):
                    raise NotAnIsomorphism(
                        f"image {image} of simplex {s} is not a simplex")

    def image_simplex(self, s):
        """Sorted image tuple and the sign of the sorting permutation."""
        mapped = [self.vertex_map[v] for v in s]
        image = tuple(sorted(mapped))
        sign = _permutation_sign(mapped)
        return image, sign

    def pullback_matrix(self, q: int):
        """Integer matrix of the cochain restriction C^q(N) -> C^q(V)."""
        if q > self.source.dim:
            return []
        cols = self.target.index[q] if q <= self.target.dim else {}
        rows = []
        for s in self.source.simplices[q]:
            row = [0] * self.target.n_simplices(q)
            image, sign = self.image_simplex(s)
            row[cols[image]] = sign
            rows.append(row)
        return rows


def _permutation_sign(seq) -> int:
    order = sorted(range(len(seq)), key=lambda i: seq[i])
    sign = 1
    seen = [False] * len(seq)
    for i in range(len(seq)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = order[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class CutPresentation:
    """Complement-and-wall data (N, V, i+, i-) for a space cut along V.

    The cut space is reassembled by gluing i+(V) to i-(V); the monodromy
    variable t counts signed passages through the wall.
    """

    def __init__(self, N: SimplicialComplex, V: SimplicialComplex,
                 i_plus: dict, i_minus: dict):
        self.N = N
        self.V = V
        self.i_plus = SimplicialMap(V, N, i_plus)
        self.i_minus = SimplicialMap(V, N, i_minus)
        plus_verts = set(self.i_plus.vertex_map.values())
        minus_verts = set(self.i_minus.vertex_map.values())
        if plus_verts & minus_verts:
            raise DimensionMismatch("i+ and i- images share vertices")


class DeformationComplex:
    """Cochain complex over Q[t] computing all twisted cohomologies at once.

    Degree q cochains are C^q(N) (+) C^{q-1}(V); the differential is

        [ delta_N          0        ]
        [ i+* - t * i-*   -delta_V  ]

    Evaluating the divisor data at t = a gives dim H^q of the glued space
    with monodromy 1/a; evaluating at t = 0 gives dim H^q(N, wall_+).
    ``rows[q]`` holds the differential in degree q as sparse Laurent rows,
    the q+1-simplices of N first, then the q-simplices of V; columns
    number the q-simplices of N, then the q-1-simplices of V.
    """

    def __init__(self, cut: CutPresentation):
        self.cut = cut
        N, V = cut.N, cut.V
        self.top = max(N.dim, V.dim + 1)
        self.sizes = [N.n_simplices(q) + V.n_simplices(q - 1)
                      for q in range(self.top + 2)]
        self.rows = []
        for q in range(self.top + 1):
            rows = [_face_row(N.index[q], s, 0, 1)
                    for s in _simplices(N, q + 1)]
            wall = {s: N.n_simplices(q) + j
                    for j, s in enumerate(_simplices(V, q - 1))}
            for s in _simplices(V, q):
                row = _face_row(wall, s, 0, -1) if q else {}
                image, sign = cut.i_plus.image_simplex(s)
                row[N.index[q][image]] = {0: sign}
                image, sign = cut.i_minus.image_simplex(s)
                row[N.index[q][image]] = {1: -sign}
                rows.append(row)
            self.rows.append(rows)
        check_square_zero(self.rows)

    @cached_property
    def matrices(self):
        return dense_matrices(self.rows, self.sizes)

    def matrix(self, q: int) -> PolyMatrix:
        if not 0 <= q <= self.top:
            raise DegreeOutOfRange(f"degree {q} outside 0..{self.top}")
        return self.matrices[q]

    def dim_at(self, q: int, a: Scalar) -> int:
        """dim H^q of the complex specialized at t = a (a = 0 allowed)."""
        if not 0 <= q <= self.top:
            raise DegreeOutOfRange(f"degree {q} outside 0..{self.top}")
        r_q = _evaluated_rank(self.rows[q], self.sizes[q], a)
        r_prev = (_evaluated_rank(self.rows[q - 1], self.sizes[q - 1], a)
                  if q > 0 else 0)
        return self.sizes[q] - r_q - r_prev


def relative_cochain_indices(complex: SimplicialComplex,
                             sub: SimplicialComplex, q: int):
    """Indices of q-simplices of the big complex not lying in the subcomplex."""
    return [i for i, s in enumerate(complex.simplices[q])
            if not sub.has_simplex(s)]


def relative_twisted_dim(complex: SimplicialComplex, sub: SimplicialComplex,
                         z: OneCocycle, q: int, a: Scalar) -> int:
    """dim H^q(X, A; E_a) via cochains vanishing on the subcomplex."""
    check_nonzero(a)
    if not 0 <= q <= complex.dim:
        raise DegreeOutOfRange(f"degree {q} outside 0..{complex.dim}")
    keep = relative_cochain_indices(complex, sub, q)
    r_q = _relative_rank(complex, sub, z, q, a)
    r_prev = _relative_rank(complex, sub, z, q - 1, a) if q > 0 else 0
    return len(keep) - r_q - r_prev


def _relative_rank(complex, sub, z, q, a):
    rows = twisted_coboundary_values(complex, z, q, a)
    if not rows:
        return 0
    keep_cols = relative_cochain_indices(complex, sub, q)
    keep_rows = relative_cochain_indices(complex, sub, q + 1)
    sliced = [[rows[i][j] for j in keep_cols] for i in keep_rows]
    return rank(sliced, len(keep_cols))


def restriction_epi(complex: SimplicialComplex, sub: SimplicialComplex,
                    z: OneCocycle, a: Scalar, q: int) -> bool:
    """Whether H^q(X, A; E_a) -> H^q(X; E_a) is onto.

    The map is induced by including the cochains that vanish on A.  It is
    surjective exactly when the relative cocycles together with the
    coboundaries of X span the full cocycle space Z^q(X).
    """
    check_nonzero(a)
    field = scalar_field(a)
    zero = field.zero() if field else Fraction(0)
    one = field.one() if field else Fraction(1)
    n_q = complex.n_simplices(q)
    full = cocycle_space_basis(complex, z, q, a)
    if not full:
        return True
    keep = relative_cochain_indices(complex, sub, q)
    rows = twisted_coboundary_values(complex, z, q, a)
    span = Span(n_q)
    sliced = [[row[j] for j in keep] for row in rows]
    for small in nullspace(sliced, len(keep), zero, one):
        vec = [zero] * n_q
        for pos, j in enumerate(keep):
            vec[j] = small[pos]
        span.add(vec)
    for vec in coboundary_image_vectors(complex, z, q, a):
        span.add(vec)
    return all(span.contains(v) for v in full)
