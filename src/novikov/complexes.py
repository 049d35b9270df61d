"""Finite ordered simplicial complexes, integral 1-cocycles, and the
twisted Alexander-Whitney cup product.

Simplices are strictly increasing vertex tuples; the global integer order
on vertices fixes all orientation signs.  A cochain in degree q is a
sparse dict ``{index: nonzero value}`` over the sorted q-simplex list.
Cochain values sit
in the fiber over the first (minimal) vertex of the simplex; the twisted
coboundary multiplies the 0-th face term by the transport a**z(v0, v1).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, repeat

from .errors import MalformedSimplex, MissingEdge, NotACocycle
from .numfield import Scalar, check_nonzero, scalar_pow


class SimplicialComplex:
    """Face-closed collection of sorted vertex tuples, graded by dimension."""

    def __init__(self, simplices_by_dim):
        self.simplices = [sorted(s) for s in simplices_by_dim]
        self.index = [dict(zip(level, range(len(level))))
                      for level in self.simplices]
        self._cup_tables = {}

    @property
    def dim(self) -> int:
        return len(self.simplices) - 1

    def f_vector(self):
        return tuple(len(level) for level in self.simplices)

    def euler_characteristic(self) -> int:
        return sum((-1) ** q * len(level)
                   for q, level in enumerate(self.simplices))

    def n_simplices(self, q: int) -> int:
        if 0 <= q <= self.dim:
            return len(self.simplices[q])
        return 0

    def edges(self):
        return self.simplices[1] if self.dim >= 1 else []

    def has_simplex(self, s) -> bool:
        q = len(s) - 1
        return 0 <= q <= self.dim and tuple(s) in self.index[q]

    def coboundary_rows(self, q: int):
        """delta: C^q -> C^{q+1} over Z as sparse rows ``{column: +-1}``,
        one per (q+1)-simplex, whose i-th face carries (-1)**i; no rows
        outside degrees 0..dim-1."""
        if not 0 <= q < self.dim:
            return []
        cols = self.index[q]
        return [{cols[s[:i] + s[i + 1:]]: (-1) ** i for i in range(len(s))}
                for s in self.simplices[q + 1]]

    def vertices(self):
        return [s[0] for s in self.simplices[0]]

    def cup_table(self, p: int, q: int):
        """The (p+q)-simplices grouped by their front p-face: entry i
        lists (index of sigma, index of its back q-face) for every
        (p+q)-simplex sigma whose front face v_0..v_p is the i-th
        p-simplex.  Built on first use and kept per (p, q)."""
        table = self._cup_tables.get((p, q))
        if table is None:
            front, back = self.index[p], self.index[q]
            table = [[] for _ in self.simplices[p]]
            for s, sigma in enumerate(self.simplices[p + q]):
                table[front[sigma[:p + 1]]].append((s, back[sigma[p:]]))
            self._cup_tables[(p, q)] = table
        return table

    def maximal_simplices(self):
        """Simplices with no proper coface, all dimensions."""
        out = []
        for q, level in enumerate(self.simplices):
            if q == self.dim:
                out.extend(level)
                continue
            cofaces = set()
            for s in self.simplices[q + 1]:
                for i in range(len(s)):
                    cofaces.add(s[:i] + s[i + 1:])
            out.extend(s for s in level if s not in cofaces)
        return out

    def __repr__(self):
        return f"SimplicialComplex(f={self.f_vector()})"


def build_complex(maximal_simplices) -> SimplicialComplex:
    """Face closure of the given simplices, deduplicated and sorted."""
    tops = []
    for s in maximal_simplices:
        tup = tuple(s)
        if len(set(tup)) != len(tup):
            raise MalformedSimplex(f"repeated vertex in {tup}")
        tops.append(tuple(sorted(tup)))
    # level k - 1: the faces with k vertices, as k-subsets of sorted tuples
    return SimplicialComplex(
        set(chain.from_iterable(map(combinations, tops, repeat(k))))
        for k in range(1, max(map(len, tops), default=0) + 1))


class OneCocycle:
    """Integer edge weights satisfying the cocycle condition.

    Stored on sorted edges (u < v); the value on the reversed orientation
    is the negative.  Construct through ``validate_cocycle``.
    """

    def __init__(self, complex: SimplicialComplex, values: dict):
        self.complex = complex
        self.values = dict(values)

    def value(self, u: int, v: int) -> int:
        if u < v:
            return self.values[(u, v)]
        return -self.values[(v, u)]

    def transport_exponent(self, path) -> int:
        """Sum of edge values along consecutive vertices of ``path``."""
        return sum(self.value(path[i], path[i + 1])
                   for i in range(len(path) - 1))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values.values())

    def scaled_sum(self, others_and_coeffs):
        """Integer combination of cocycles on the same complex."""
        vals = {e: 0 for e in self.values}
        for z, n in others_and_coeffs:
            for e, v in z.values.items():
                vals[e] += n * v
        return OneCocycle(self.complex, vals)


def validate_cocycle(complex: SimplicialComplex,
                     edge_values: dict) -> OneCocycle:
    """Check the edge map against the complex and the cocycle condition;
    an edge the map does not name carries 0."""
    values = {e: int(edge_values.get(e, 0)) for e in complex.edges()}
    extra = set(edge_values) - set(values)
    if extra:
        raise MissingEdge(f"cocycle assigns values to non-edges: {sorted(extra)}")
    if complex.dim >= 2:
        for tri in complex.simplices[2]:
            u, v, w = tri
            if values[u, v] + values[v, w] != values[u, w]:
                raise NotACocycle(tri)
    return OneCocycle(complex, values)


def coboundary_of_vertex_function(complex: SimplicialComplex, f: dict) -> OneCocycle:
    """delta f as a 1-cocycle: (delta f)(u, v) = f(v) - f(u)."""
    values = {(u, v): f.get(v, 0) - f.get(u, 0) for (u, v) in complex.edges()}
    return OneCocycle(complex, values)


def twisted_cup(complex: SimplicialComplex, z: OneCocycle, p: int, q: int,
                a1: Scalar, a2: Scalar, alpha: dict, beta: dict) -> dict:
    """Alexander-Whitney cup product with local-coefficient transport.

    alpha is a p-cochain with monodromy a1, beta a q-cochain with monodromy
    a2; the result is a (p+q)-cochain with monodromy a1*a2:

        (alpha cup beta)(v_0..v_{p+q})
            = alpha(v_0..v_p) * a2**z(v_0 -> v_p) * beta(v_p..v_{p+q})

    The transport exponent z(v_0 -> v_p) is the class's value on the
    front edge (v_0, v_p), 0 when p = 0: by the cocycle condition, which
    ``validate_cocycle`` checks on every triangle, it is the sum of z
    along any path through the simplex.

    Cochains are sparse, ``{simplex index: nonzero value}``, and so is the
    result: no zero is stored.  Each entry of alpha walks the
    (p+q)-simplices whose front face it is (``cup_table``) and multiplies
    where beta has an entry, so the cost follows the support of alpha and
    its cofaces, plus one power of a2 per distinct exponent.
    """
    check_nonzero(a1)
    check_nonzero(a2)
    if p + q > complex.dim:
        return {}
    cofaces = complex.cup_table(p, q)
    fronts, values = complex.simplices[p], z.values
    powers = {}
    out = {}
    for i, av in alpha.items():
        if cofaces[i]:
            front = fronts[i]
            t = values[front[0], front[p]] if p else 0
            w = powers.get(t)
            if w is None:
                w = powers[t] = scalar_pow(a2, t)
            x = av * w
            for s, j in cofaces[i]:
                bv = beta.get(j)
                if bv is not None:
                    v = x * bv
                    if v:
                        out[s] = v
    return out


def twisted_coboundary_values(complex: SimplicialComplex, z: OneCocycle,
                              q: int, a: Scalar):
    """Matrix of the twisted coboundary delta_a: C^q -> C^{q+1} at monodromy a.

    Rows are (q+1)-simplices, columns q-simplices; the 0-th face term
    carries the transport factor a**z(v0, v1).
    """
    check_nonzero(a)
    if q >= complex.dim or q < 0:
        return []
    cols = complex.index[q]
    rows = []
    for sigma in complex.simplices[q + 1]:
        row = [Fraction(0)] * len(complex.simplices[q])
        for i in range(len(sigma)):
            face = sigma[:i] + sigma[i + 1:]
            if i == 0:
                coeff = scalar_pow(a, z.value(sigma[0], sigma[1]))
            else:
                coeff = (-1) ** i
            row[cols[face]] = row[cols[face]] + coeff
        rows.append(row)
    return rows
