"""Generators for test spaces with canonical degree-1 classes.

Circles, surfaces as iterated connected sums of tori, S^1 x S^n, mapping
tori with their cut presentations, and a synthetic chain-level instance
whose degree-1 elementary divisor is the Alexander polynomial
2 - 3t + 2t^2.  Also the independent Mayer-Vietoris oracle for mapping
torus cohomology (kernel/cokernel of h* - a on the fiber).
"""

from __future__ import annotations

from fractions import Fraction

from .complexes import (SimplicialComplex, OneCocycle, build_complex,
                        coboundary_of_vertex_function, validate_cocycle)
from .errors import (DimensionMismatch, MalformedInput, NotAManifoldInput,
                     NotAnIsomorphism, ParameterOutOfRange)
from .linalg import Span, express, rank
from .matrix import PolyMatrix
from .numfield import Scalar, check_nonzero, scalar_field
from .polyq import Poly
from .twisted import (CutPresentation, SimplicialMap, cocycle_space_basis,
                      coboundary_image_vectors)


class GeneratedSpace:
    """A complex with its class, provenance label, and optional cut data."""

    def __init__(self, complex: SimplicialComplex, cocycle: OneCocycle,
                 label: str, dimension: int, manifold: bool,
                 cut: CutPresentation = None):
        self.complex = complex
        self.cocycle = cocycle
        self.label = label
        self.dimension = dimension
        self.manifold = manifold
        self.cut = cut

    def __repr__(self):
        return f"GeneratedSpace({self.label!r}, f={self.complex.f_vector()})"


class SimplicialSelfMap:
    """Simplicial isomorphism h: F -> F given by a vertex bijection."""

    def __init__(self, F: SimplicialComplex, vertex_map: dict):
        verts = set(F.vertices())
        if set(vertex_map) != verts or set(vertex_map.values()) != verts:
            raise NotAnIsomorphism("vertex map is not a bijection of F")
        self.F = F
        self.map = SimplicialMap(F, F, vertex_map)
        inv = {w: v for v, w in vertex_map.items()}
        # a bijection whose forward map is simplicial need not have a
        # simplicial inverse in general posets, but here both directions
        # must be checked for an isomorphism
        self.inverse_map = SimplicialMap(F, F, inv)

    def __call__(self, v):
        return self.map.vertex_map[v]

    @staticmethod
    def identity(F: SimplicialComplex) -> "SimplicialSelfMap":
        return SimplicialSelfMap(F, {v: v for v in F.vertices()})


def circle(k: int) -> GeneratedSpace:
    """Cycle graph on k >= 3 vertices with a generator class."""
    if k < 3:
        raise ParameterOutOfRange("a triangulated circle needs >= 3 vertices")
    edges = [(i, (i + 1) % k) for i in range(k)]
    X = build_complex(edges)
    z = validate_cocycle(X, {tuple(sorted((0, 1))): 1}, default_zero=True)
    return GeneratedSpace(X, z, f"circle({k})", 1, True)


def _staircase_block(F: SimplicialComplex, bottom, top):
    """Prism triangulation of F x [0,1]; bottom/top map F vertices to the
    two boundary copies.  Adjacent prisms agree because the diagonal
    choices all come from the one global vertex order of F."""
    out = []
    for s in F.simplices[F.dim]:
        for i in range(len(s)):
            prism = [bottom(v) for v in s[:i + 1]] + [top(v) for v in s[i:]]
            out.append(tuple(prism))
    return out


def mapping_torus(F: SimplicialComplex, h: SimplicialSelfMap) -> GeneratedSpace:
    """Mapping torus of h with three fiber levels and a seam back to level 0.

    Vertices are (level, fiber vertex) encoded time-major; the class is the
    pullback of the circle generator, supported on seam edges.  Also builds
    the cut presentation: N = F x [0,3] (four levels), V = F, i+ the bottom
    inclusion, i- the top inclusion composed with h.
    """
    if not isinstance(h, SimplicialSelfMap):
        h = SimplicialSelfMap(F, h)
    fverts = F.vertices()
    nv = len(fverts)
    rank = {v: i for i, v in enumerate(fverts)}
    levels = 3

    def vid(t, v):
        return t * nv + rank[v]

    tops = []
    for t in range(levels - 1):
        tops.extend(_staircase_block(F, lambda v, t=t: vid(t, v),
                                     lambda v, t=t: vid(t + 1, v)))
    # seam block: the top copy is level 0 relabeled through h
    tops.extend(_staircase_block(F, lambda v: vid(levels - 1, v),
                                 lambda v: vid(0, h(v))))
    X = build_complex(tops)
    seam = {}
    for e in X.edges():
        u, v = e
        if u < nv <= v and v >= (levels - 1) * nv:
            # upward traversal runs from the level-2 endpoint to the
            # level-0 endpoint, i.e. against the sorted orientation
            seam[e] = -1
    z = validate_cocycle(X, seam, default_zero=True)

    # cut presentation on a fresh N = F x [0,3]
    def nid(t, v):
        return t * nv + rank[v]

    ntops = []
    for t in range(levels):
        ntops.extend(_staircase_block(F, lambda v, t=t: nid(t, v),
                                      lambda v, t=t: nid(t + 1, v)))
    N = build_complex(ntops)
    V = F
    i_plus = {v: nid(0, v) for v in fverts}
    i_minus = {v: nid(levels, h(v)) for v in fverts}
    cut = CutPresentation(N, V, i_plus, i_minus)
    label = f"mapping_torus(F={F.f_vector()}, h)"
    return GeneratedSpace(X, z, label, F.dim + 1, True, cut=cut)


def torus() -> GeneratedSpace:
    F = circle(3).complex
    t = mapping_torus(F, SimplicialSelfMap.identity(F))
    t.label = "torus"
    return t


def sphere_complex(n: int) -> SimplicialComplex:
    """Boundary of the (n+1)-simplex."""
    verts = tuple(range(n + 2))
    faces = [verts[:i] + verts[i + 1:] for i in range(n + 2)]
    return build_complex(faces)


def sphere_product(n: int) -> GeneratedSpace:
    """S^1 x S^n as the mapping torus of the identity on the sphere."""
    if n not in (2, 3):
        raise ParameterOutOfRange("sphere factor dimension must be 2 or 3")
    S = sphere_complex(n)
    space = mapping_torus(S, SimplicialSelfMap.identity(S))
    space.label = f"S1xS{n}"
    return space


def _zero_on_simplex(space: GeneratedSpace, s):
    """Replace the cocycle by a cohomologous one vanishing on the edges of
    the simplex s (subtract the coboundary of a vertex function)."""
    z = space.cocycle
    f = {s[0]: 0}
    for v in s[1:]:
        f[v] = z.value(s[0], v)
    df = coboundary_of_vertex_function(space.complex, f)
    return z.scaled_sum([(z, 1), (df, -1)])


def connected_sum(X1: GeneratedSpace, X2: GeneratedSpace) -> GeneratedSpace:
    """Remove one top simplex from each summand and glue the boundary
    spheres by an orientation-reversing vertex matching.

    The class is xi_1 # xi_2: each cocycle is first adjusted to vanish on
    the removed simplex, then the two are juxtaposed (zero across the
    glued sphere).
    """
    if not (X1.manifold and X2.manifold):
        raise NotAManifoldInput("connected sum needs manifold summands")
    n = X1.dimension
    if n != X2.dimension:
        raise DimensionMismatch(f"{n} != {X2.dimension}")
    s1 = X1.complex.simplices[n][0]
    s2 = X2.complex.simplices[n][0]
    z1 = _zero_on_simplex(X1, s1)
    z2 = _zero_on_simplex(X2, s2)

    # relabel X2: glued vertices go to s1 with one transposition to
    # reverse orientation, the rest get fresh labels
    offset = max(X1.complex.vertices()) + 1
    relabel = {}
    matched = list(s1)
    matched[0], matched[1] = matched[1], matched[0]
    for b, a in zip(s2, matched):
        relabel[b] = a
    fresh = offset
    for v in X2.complex.vertices():
        if v not in relabel:
            relabel[v] = fresh
            fresh += 1

    tops = [s for s in X1.complex.simplices[n] if s != s1]
    for s in X2.complex.simplices[n]:
        if s == s2:
            continue
        tops.append(tuple(sorted(relabel[v] for v in s)))
    glued = build_complex(tops)

    values = {}
    for e, v in z1.values.items():
        values[e] = v
    for (u, v), val in z2.values.items():
        e = tuple(sorted((relabel[u], relabel[v])))
        if e in values:
            if values[e] != (val if e == (relabel[u], relabel[v]) else -val):
                raise DimensionMismatch(
                    f"cocycle values conflict on glued edge {e}")
        else:
            values[e] = val if e == (relabel[u], relabel[v]) else -val
    z = validate_cocycle(glued, values, default_zero=True)
    label = f"({X1.label}) # ({X2.label})"
    return GeneratedSpace(glued, z, label, n, True)


def surface(g: int) -> GeneratedSpace:
    """Closed orientable surface of genus g as an iterated sum of tori,
    with the class coming from the first summand's fiber direction."""
    if g < 1:
        raise ParameterOutOfRange("genus must be >= 1")
    space = torus()
    for _ in range(g - 1):
        summand = torus()
        summand.cocycle = validate_cocycle(summand.complex, {},
                                           default_zero=True)
        space = connected_sum(space, summand)
    space.label = f"surface({g})"
    return space


def rational_cohomology(F: SimplicialComplex, q: int):
    """Basis representatives and coboundary vectors of H^q(F; Q)."""
    z0 = validate_cocycle(F, {}, default_zero=True)
    one = Fraction(1)
    cobs = coboundary_image_vectors(F, z0, q, one)
    span = Span(F.n_simplices(q))
    for v in cobs:
        span.add(v)
    reps = []
    for v in cocycle_space_basis(F, z0, q, one):
        if span.add(v):
            reps.append(v)
    return reps, cobs


def induced_map_on_cohomology(F: SimplicialComplex, h: SimplicialSelfMap,
                              q: int):
    """Matrix of h* on H^q(F; Q) in the representative basis."""
    reps, cobs = rational_cohomology(F, q)
    if not reps:
        return []
    P = h.map.pullback_matrix(q)
    cols = []
    for r in reps:
        image = [sum(P[i][j] * r[j] for j in range(len(r)))
                 for i in range(len(P))]
        coeffs = express([list(x) for x in reps] + [list(c) for c in cobs],
                         image, Fraction(0))
        if coeffs is None:
            raise NotAnIsomorphism(
                "pullback of a cocycle left the cocycle space")
        cols.append(coeffs[:len(reps)])
    k = len(reps)
    return [[cols[j][i] for j in range(k)] for i in range(k)]


def ker_coker_dims(mat, a: Scalar):
    """(dim ker, dim coker) of (M - a*I) for a square rational matrix M."""
    k = len(mat)
    if k == 0:
        return (0, 0)
    field = scalar_field(a)
    shifted = [[(field.from_rational(mat[i][j]) if field else
                 Fraction(mat[i][j])) - (a if i == j else 0 * a)
                for j in range(k)] for i in range(k)]
    r = rank(shifted, k)
    return (k - r, k - r)


def mv_oracle_dims(F: SimplicialComplex, h, a: Scalar):
    """dim H^i of the mapping torus of h at monodromy a, degree-wise, from
    the fiber data alone: ker(h* - a on H^i(F)) + coker(h* - a on H^{i-1})."""
    check_nonzero(a)
    if not isinstance(h, SimplicialSelfMap):
        h = SimplicialSelfMap(F, h)
    mats = [induced_map_on_cohomology(F, h, q) for q in range(F.dim + 1)]
    return mv_dims_from_matrices(mats, a)


def mv_dims_from_matrices(mats, a: Scalar):
    """Same kernel/cokernel bookkeeping from explicit h* matrices."""
    check_nonzero(a)
    dims = []
    for i in range(len(mats) + 1):
        ker = ker_coker_dims(mats[i], a)[0] if i < len(mats) else 0
        cok = ker_coker_dims(mats[i - 1], a)[1] if i > 0 else 0
        dims.append(ker + cok)
    return dims


class ChainInstance:
    """Synthetic chain-level data exposing the same polynomial matrices a
    twisted simplicial complex would."""

    def __init__(self, matrices, sizes, dimension, label, manifold):
        self.matrices = matrices
        self.sizes = sizes
        self.dimension = dimension
        self.label = label
        self.manifold = manifold

    def __repr__(self):
        return f"ChainInstance({self.label!r})"


def alexander_style_instance() -> ChainInstance:
    """Chain data whose degree-1 elementary divisor is 2 - 3t + 2t^2.

    Stand-in for 0-surgery on the knot 5_2 (a closed 3-manifold whose
    Alexander polynomial this is); a certified triangulation of the
    surgered manifold is out of scope, but the phenomenon of interest --
    all generic twisted cohomology vanishes while a non-unit jump root
    forces a critical point -- lives entirely in these matrices.
    """
    t = Poly.monomial(1)
    one = Poly.const(1)
    d0 = PolyMatrix(2, 1, [[t - one], [Poly()]])
    d1 = PolyMatrix(1, 2, [[Poly(), Poly([2, -3, 2])]])
    d2 = PolyMatrix(0, 1, [])
    return ChainInstance([d0, d1, d2], [1, 2, 1, 0], 3,
                         "alexander 2-3t+2t^2 (5_2 surgery stand-in)", True)


def standard_corpus():
    """The instances exercised by the cross-module property suites."""
    F3 = circle(3).complex
    rot = SimplicialSelfMap(F3, {0: 1, 1: 2, 2: 0})
    spaces = [
        circle(3),
        circle(5),
        torus(),
        mapping_torus(F3, rot),
        sphere_product(2),
        surface(2),
        connected_sum(torus(), torus()),
    ]
    spaces[3].label = "mapping_torus(circle(3), rotation)"
    return spaces


def space_to_json(space: GeneratedSpace) -> dict:
    """Serializable description: maximal simplices, cocycle edges, and the
    cut presentation when one is attached."""
    out = {
        "name": space.label,
        "maximal_simplices": [list(s) for s in space.complex.maximal_simplices()],
        "cocycle": {"edges": [[u, v, val]
                              for (u, v), val in sorted(space.cocycle.values.items())
                              if val]},
        "dimension": space.dimension,
        "manifold": space.manifold,
    }
    if space.cut is not None:
        cut = space.cut
        out["cut"] = {
            "N": [list(s) for s in cut.N.maximal_simplices()],
            "V": [list(s) for s in cut.V.maximal_simplices()],
            "i_plus": sorted([v, w] for v, w in cut.i_plus.vertex_map.items()),
            "i_minus": sorted([v, w] for v, w in cut.i_minus.vertex_map.items()),
        }
    return out


def _int_lists(value, what: str, width=None):
    """``value`` itself if it is a list of integer lists (of ``width``)."""
    if isinstance(value, list) and all(
            isinstance(s, list) and (width is None or len(s) == width)
            and all(type(v) is int for v in s) for s in value):
        return value
    shape = "integer lists" if width is None else f"integer {width}-lists"
    raise MalformedInput(f"{what} must be a list of {shape}")


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise MalformedInput(f"{what} must be a JSON object")
    return value


def space_from_json(data: dict) -> GeneratedSpace:
    """Inverse of ``space_to_json``; a document of the wrong shape raises
    MalformedInput."""
    _object(data, "a space")
    complex = build_complex(
        [tuple(s) for s in _int_lists(data.get("maximal_simplices"),
                                      "maximal_simplices")])
    edges = {}
    cocycle = _object(data.get("cocycle", {}), "cocycle")
    for u, v, val in _int_lists(cocycle.get("edges", []), "cocycle edges", 3):
        if u > v:
            u, v, val = v, u, -val
        edges[(u, v)] = val
    z = validate_cocycle(complex, edges, default_zero=True)
    cut = None
    if "cut" in data:
        c = _object(data["cut"], "cut")
        cut = CutPresentation(
            build_complex([tuple(s) for s in _int_lists(c.get("N"), "cut N")]),
            build_complex([tuple(s) for s in _int_lists(c.get("V"), "cut V")]),
            dict(_int_lists(c.get("i_plus"), "cut i_plus", 2)),
            dict(_int_lists(c.get("i_minus"), "cut i_minus", 2)))
    return GeneratedSpace(complex, z, data.get("name", "input"),
                          data.get("dimension", complex.dim),
                          bool(data.get("manifold", False)), cut=cut)
