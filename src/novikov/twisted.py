"""Twisted cochain complexes over Q[t].

Two routes to the same cohomology:

* ``TwistedComplex`` substitutes t**z(u, v) for the monodromy transport in
  the simplicial coboundary, giving genuinely polynomial matrices after a
  global t-power shift per degree (edge values may be negative).  Smith
  forms of these matrices carry the generic ranks and the jump divisors.

* ``DeformationComplex`` is built from a cut presentation (N, V, i+, i-)
  and has entries linear in t.  Evaluating at t = a computes twisted
  cohomology with monodromy 1/a; evaluating at t = 0 computes the relative
  cohomology of (N, boundary_+ N).
"""

from __future__ import annotations

from fractions import Fraction

from .complexes import SimplicialComplex, OneCocycle, twisted_coboundary_values
from .errors import (DegreeOutOfRange, DimensionMismatch, NotAChainComplex,
                     NotAnIsomorphism)
from .linalg import Span, nullspace, rank
from .matrix import PolyMatrix
from .numfield import Scalar, check_nonzero, scalar_field
from .polyq import Poly


class TwistedComplex:
    """Polynomial coboundary matrices of a complex with a 1-cocycle twist.

    ``matrices[q]`` equals t**shifts[q] times the twisted coboundary
    delta_q, where the shift clears negative transport exponents.  Since
    the shift is a global scalar in each degree, ranks away from t = 0 and
    all divisor factors coprime to t are those of delta_q itself.
    """

    def __init__(self, complex: SimplicialComplex, z: OneCocycle):
        self.complex = complex
        self.z = z
        self.matrices = []
        self.shifts = []
        for q in range(complex.dim):
            rows_raw = []
            min_exp = 0
            for sigma in complex.simplices[q + 1]:
                e = z.value(sigma[0], sigma[1])
                rows_raw.append((sigma, e))
                min_exp = min(min_exp, e)
            shift = -min_exp
            cols = complex.index[q]
            n = len(complex.simplices[q])
            rows = []
            for sigma, e in rows_raw:
                row = [Poly()] * n
                for i in range(len(sigma)):
                    face = sigma[:i] + sigma[i + 1:]
                    if i == 0:
                        term = Poly.monomial(e + shift)
                    else:
                        term = Poly.monomial(shift, (-1) ** i)
                    row[cols[face]] = row[cols[face]] + term
                rows.append(row)
            self.matrices.append(PolyMatrix(len(rows_raw), n, rows))
            self.shifts.append(shift)
        for q in range(len(self.matrices) - 1):
            if not self.matrices[q + 1].matmul(self.matrices[q]).is_zero():
                raise NotAChainComplex(f"delta^2 != 0 between degrees {q} and {q + 2}")

    def matrix(self, q: int) -> PolyMatrix:
        if not 0 <= q <= self.complex.dim:
            raise DegreeOutOfRange(f"degree {q} outside 0..{self.complex.dim}")
        if q == self.complex.dim:
            return PolyMatrix(0, len(self.complex.simplices[q]))
        return self.matrices[q]

    def n_cochains(self, q: int) -> int:
        return self.complex.n_simplices(q)


def twisted_cohomology_dim(complex: SimplicialComplex, z: OneCocycle,
                           q: int, a: Scalar) -> int:
    """dim H^q(X; E_a) by direct rank computation at the scalar a."""
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
    if not rows:
        ident = []
        for i in range(n_q):
            v = [zero] * n_q
            v[i] = one
            ident.append(v)
        return ident
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
    """

    def __init__(self, cut: CutPresentation):
        self.cut = cut
        N, V = cut.N, cut.V
        self.top = max(N.dim, V.dim + 1)
        self.sizes = [N.n_simplices(q) + V.n_simplices(q - 1)
                      for q in range(self.top + 2)]
        t = Poly.monomial(1)
        self.matrices = []
        for q in range(self.top + 1):
            nN, nV = N.n_simplices(q), V.n_simplices(q - 1)
            mN, mV = N.n_simplices(q + 1), V.n_simplices(q)
            rows = [[Poly()] * (nN + nV) for _ in range(mN + mV)]
            dN = N.coboundary_matrix(q) if q <= N.dim else []
            for i, r in enumerate(dN):
                for j, v in enumerate(r):
                    if v:
                        rows[i][j] = Poly([Fraction(v)])
            if q <= V.dim:
                rp = cut.i_plus.pullback_matrix(q)
                rm = cut.i_minus.pullback_matrix(q)
                for i in range(mV):
                    for j in range(nN):
                        c = Poly([Fraction(rp[i][j])]) - t * Fraction(rm[i][j])
                        if not c.is_zero():
                            rows[mN + i][j] = c
            if q - 1 >= 0 and q - 1 <= V.dim:
                dV = V.coboundary_matrix(q - 1) if q - 1 <= V.dim else []
                for i, r in enumerate(dV):
                    for j, v in enumerate(r):
                        if v:
                            rows[mN + i][nN + j] = Poly([Fraction(-v)])
            self.matrices.append(PolyMatrix(mN + mV, nN + nV, rows))
        for q in range(len(self.matrices) - 1):
            if not self.matrices[q + 1].matmul(self.matrices[q]).is_zero():
                raise NotAChainComplex(
                    f"deformation differential fails delta^2 = 0 at degree {q}")

    def matrix(self, q: int) -> PolyMatrix:
        if not 0 <= q <= self.top:
            raise DegreeOutOfRange(f"degree {q} outside 0..{self.top}")
        return self.matrices[q]

    def dim_at(self, q: int, a: Scalar) -> int:
        """dim H^q of the complex specialized at t = a (a = 0 allowed)."""
        from .matrix import rank_at
        if not 0 <= q <= self.top:
            raise DegreeOutOfRange(f"degree {q} outside 0..{self.top}")
        r_q = rank_at(self.matrices[q], a)
        r_prev = rank_at(self.matrices[q - 1], a) if q > 0 else 0
        return self.sizes[q] - r_q - r_prev

    def dim_at_zero(self, q: int) -> int:
        return self.dim_at(q, Fraction(0))


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
    if rows:
        sliced = [[row[j] for j in keep] for row in rows]
        for small in nullspace(sliced, len(keep), zero, one):
            vec = [zero] * n_q
            for pos, j in enumerate(keep):
                vec[j] = small[pos]
            span.add(vec)
    else:
        for j in keep:
            vec = [zero] * n_q
            vec[j] = one
            span.add(vec)
    for vec in coboundary_image_vectors(complex, z, q, a):
        span.add(vec)
    return all(span.contains(v) for v in full)
