"""Generators for test spaces with canonical degree-1 classes.

Circles, surfaces as iterated connected sums of tori, S^1 x S^n, mapping
tori with their cut presentations, and the presentation complexes of
one-relator groups: that of the knot 5_2, xyXYxyxYXyxYXY with x, y -> 1,
has the Alexander polynomial 2 - 3t + 2t^2, whose roots are no Dirichlet
units.  Also the independent Mayer-Vietoris oracle for mapping torus
cohomology (kernel/cokernel of h* - a on the fiber).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, count, repeat

from .complexes import (SimplicialComplex, OneCocycle, build_complex,
                        validate_cocycle)
from .errors import (DimensionMismatch, GluingError, MalformedInput,
                     NotAManifoldInput, NotAnIsomorphism, ParameterOutOfRange)
from .linalg import cohomology, rank
from .numfield import Scalar, check_nonzero, scalar_field
from .twisted import CutPresentation, SimplicialMap


class GeneratedSpace:
    """A complex with its class, provenance label, and optional cut data.

    ``cut`` is a CutPresentation, or a function of no arguments that builds
    one: ``space_from_json`` passes such a function, so that N, V and the
    checks that read their faces cost nothing until ``cut`` is first read,
    which only ``oracle-mv`` and the deformation complex do.  ``has_cut``
    says whether there is a cut without building it.
    """

    def __init__(self, complex: SimplicialComplex, cocycle: OneCocycle,
                 label: str, manifold: bool, cut=None):
        self.complex = complex
        self.cocycle = cocycle
        self.label = label
        self.manifold = manifold
        self._cut = cut

    @property
    def dimension(self) -> int:
        return self.complex.dim

    @property
    def has_cut(self) -> bool:
        return self._cut is not None

    @property
    def cut(self) -> CutPresentation:
        """The cut presentation or None, built the first time it is read
        if it was given as a function; a build that raises is tried again
        on the next read."""
        if callable(self._cut):
            self._cut = self._cut()
        return self._cut

    def __repr__(self):
        return f"GeneratedSpace({self.label!r}, f={self.complex.f_vector()})"


def circle(k: int) -> GeneratedSpace:
    """Cycle graph on k >= 3 vertices with a generator class."""
    if k < 3:
        raise ParameterOutOfRange("a triangulated circle needs >= 3 vertices")
    edges = [(i, (i + 1) % k) for i in range(k)]
    X = build_complex(edges)
    z = validate_cocycle(X, {tuple(sorted((0, 1))): 1})
    return GeneratedSpace(X, z, f"circle({k})", True)


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


def reglue(cut: CutPresentation, values: dict):
    """The space X of the cut (N, V, i+, i-), N with each i-(v) identified
    with i+(v), and the class on X of ``values``, which maps sorted edges
    of N to integers (0 where it names none), each carried to its glued
    edge with the sign flipped where that edge runs against the sorted
    order.

    X is glued from the top simplices of N.  GluingError if f(X) is not
    f(N) - f(V), the count of a gluing that merges each simplex of i-(V)
    with its copy in i+(V) and nothing else: then some other simplex
    merged, or collapsed because the gluing repeats one of its vertices, or
    is a face of no top simplex and was lost.  GluingError too if the two
    copies i+(e) and i-(e) of an edge e of V carry different values.
    """
    N, V = cut.N, cut.V
    plus, minus = cut.i_plus.vertex_map, cut.i_minus.vertex_map
    glue = {minus[v]: w for v, w in plus.items()}
    X = build_complex(set(map(glue.get, s, s)) for s in N.simplices[N.dim])
    expected = tuple(k - V.n_simplices(q) for q, k in enumerate(N.f_vector()))
    if X.f_vector() != expected:
        raise GluingError(f"f(X) = {X.f_vector()} != f(N) - f(V) = {expected}")

    def value(u, w):
        return values.get((u, w), 0) if u < w else -values.get((w, u), 0)

    for a, b in V.edges():
        if value(plus[a], plus[b]) != value(minus[a], minus[b]):
            raise GluingError(f"the copies of the wall edge {(a, b)} differ")
    z = {}
    for (u, w), val in values.items():
        if val:
            u, w = glue.get(u, u), glue.get(w, w)
            z[min(u, w), max(u, w)] = val if u < w else -val
    return X, validate_cocycle(X, z)


def mapping_torus(F: SimplicialComplex, h: dict) -> GeneratedSpace:
    """Mapping torus of the simplicial automorphism h (a vertex dict) of F:
    its cut ``mapping_torus_cut(F, h)`` reglued.

    The top copy of h^-1(v) becomes the bottom copy of v, so the last block
    of N runs from level 2 of F up to level 0 relabeled through h.  The
    class is the pullback of the circle generator: each edge of N that
    enters i-(V) carries 1, every other edge 0.
    """
    cut = CutPresentation(*mapping_torus_cut(F, h))
    top = set(cut.i_minus.vertex_map.values())
    X, z = reglue(cut, {(u, w): 1 for u, w in cut.N.edges()
                        if w in top and u not in top})
    label = f"mapping_torus(F={F.f_vector()}, h)"
    return GeneratedSpace(X, z, label, True, cut=cut)


def mapping_torus_cut(F: SimplicialComplex, h: dict):
    """(N, V, i+, i-) of ``mapping_torus(F, h)``, once
    ``SimplicialMap(F, F, h)`` has checked that h is an automorphism of F:
    N = F x [0,3] (four levels, vertex (t, v) numbered t * |F| + the rank
    of v), V = F, i+ the bottom inclusion, i- the top inclusion composed
    with h^-1."""
    SimplicialMap(F, F, h)
    fverts = F.vertices()
    rank = {v: i for i, v in enumerate(fverts)}
    levels = 3

    def nid(t, v):
        return t * len(fverts) + rank[v]

    ntops = []
    for t in range(levels):
        ntops.extend(_staircase_block(F, lambda v, t=t: nid(t, v),
                                      lambda v, t=t: nid(t + 1, v)))
    return (build_complex(ntops), F, {v: nid(0, v) for v in fverts},
            {w: nid(levels, v) for v, w in h.items()})


def mapping_torus_map(cut: CutPresentation):
    """The inverse of ``mapping_torus_cut``: the h for which
    ``mapping_torus_cut(cut.V, h)`` is the cut, read off i-, which sends v
    to the top copy of h^-1(v); None for any other cut, even a renumbering
    of that one."""
    fverts = cut.V.vertices()
    h = {fverts[w % len(fverts)]: v
         for v, w in cut.i_minus.vertex_map.items()}
    N, _V, i_plus, i_minus = mapping_torus_cut(cut.V, h)
    same = (N.simplices, i_plus, i_minus) == (
        cut.N.simplices, cut.i_plus.vertex_map, cut.i_minus.vertex_map)
    return h if same else None


def torus() -> GeneratedSpace:
    F = circle(3).complex
    t = mapping_torus(F, {v: v for v in F.vertices()})
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
    space = mapping_torus(S, {v: v for v in S.vertices()})
    space.label = f"S1xS{n}"
    return space


def _zero_on_simplex(space: GeneratedSpace, s) -> dict:
    """The edge values of a cocycle cohomologous to the class that vanishes
    on the edges of the simplex s: the class less the coboundary of its
    potential along s, which is 0 off s."""
    z = space.cocycle
    f = {v: z.transport_exponent(s[:i + 1]) for i, v in enumerate(s)}
    return {(u, w): val - f.get(w, 0) + f.get(u, 0)
            for (u, w), val in z.values.items()}


def connected_sum(X1: GeneratedSpace, X2: GeneratedSpace) -> GeneratedSpace:
    """Remove one top simplex from each summand and glue the boundary
    spheres by an orientation-reversing vertex matching: the cut
    (N, V, i+, i-) reglued.  N is X1 - s1 and X2 - s2 side by side, X2's
    vertices after X1's and those of s2 last, so that X has no gap in its
    numbering; V is the boundary of s1, i+ the identity on it and i- the
    match onto s2, one transposition from the sorted one.  The glued
    sphere is no wall of the class, so X keeps no cut.

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
    new = dict(zip(sorted(X2.complex.vertices(), key=lambda v: v in s2),
                   count(max(X1.complex.vertices()) + 1)))
    N = SimplicialComplex(
        [s for s in X1.complex.simplices[q] if s != s1]
        + [tuple(sorted(new[v] for v in s))
           for s in X2.complex.simplices[q] if s != s2]
        for q in range(n + 1))
    values = _zero_on_simplex(X1, s1)
    for (u, w), val in _zero_on_simplex(X2, s2).items():
        u, w = new[u], new[w]
        values[min(u, w), max(u, w)] = val if u < w else -val
    cut = CutPresentation(N, build_complex(combinations(s1, n)),
                          {v: v for v in s1},
                          {v: new[w] for v, w in zip(s1[1::-1] + s1[2:], s2)})
    X, z = reglue(cut, values)
    return GeneratedSpace(X, z, f"({X1.label}) # ({X2.label})", True)


def surface(g: int) -> GeneratedSpace:
    """Closed orientable surface of genus g as an iterated sum of tori,
    with the class coming from the first summand's fiber direction."""
    if g < 1:
        raise ParameterOutOfRange("genus must be >= 1")
    space = torus()
    for _ in range(g - 1):
        summand = torus()
        summand.cocycle = validate_cocycle(summand.complex, {})
        space = connected_sum(space, summand)
    space.label = f"surface({g})"
    return space


def one_relator_complex(relator: str, weights: dict) -> GeneratedSpace:
    """Presentation complex of a group with one relator, and the class that
    sends each generator to its integer weight.

    ``weights`` maps the generators, lower-case letters, to their weights;
    the relator is a word in them, a capital letter standing for an
    inverse.  Generator k is the loop 0 -> 2k+1 -> 2k+2 -> 0 with its
    weight on the edge (0, 2k+1), present whether the relator uses it or
    not.  The relator's disk is glued along the path b_0 .. b_{n-1} that
    runs through its letters' loops (backwards for a capital): a ring of
    fresh vertices c_i and a centre give the triangles (b_i, b_{i+1}, c_i),
    (b_{i+1}, c_i, c_{i+1}) and (c_i, c_{i+1}, centre), indices mod n.  On
    the disk the cocycle is read off the potential lifted along the path,
    0 at the inner vertices; it closes up exactly when the relator's
    weights sum to 0.
    """
    letters = list(weights)
    path, phi = [], [0]   # b_i, and the potential lifted to position i
    for ch in relator:
        if ch.lower() not in weights:
            raise ParameterOutOfRange(f"relator letter {ch!r} is no generator")
        k, w = letters.index(ch.lower()), weights[ch.lower()]
        p = phi[-1]
        if ch.islower():
            path += [0, 2 * k + 1, 2 * k + 2]
            phi += [p + w] * 3
        else:
            path += [0, 2 * k + 2, 2 * k + 1]
            phi += [p, p, p - w]
    n = len(path)
    if not n or phi[n]:
        raise ParameterOutOfRange(
            "the relator must be a nonempty word of weight sum 0")
    ring = 2 * len(letters) + 1   # c_i is ring + i, the centre ring + n
    simplices = [loop for k in range(len(letters))
                 for loop in ((0, 2 * k + 1), (2 * k + 1, 2 * k + 2),
                              (0, 2 * k + 2))]
    values = {(0, 2 * k + 1): w for k, w in enumerate(weights.values())}
    for i in range(n):
        j = (i + 1) % n
        c, d = ring + i, ring + j
        simplices += [(path[i], path[j], c), (path[j], c, d),
                      (c, d, ring + n)]
        values[(path[i], c)] = -phi[i]
        values[(path[j], c)] = -phi[i + 1]
    X = build_complex(simplices)
    z = validate_cocycle(X, values)
    return GeneratedSpace(X, z, f"one_relator({relator})", False)


def rational_cohomology(F: SimplicialComplex, q: int):
    """Representatives of a basis of H^q(F; Q), as sparse vectors, and the
    coordinates of a cocycle's class in it: ``linalg.cohomology`` of
    delta_q and delta_{q-1}."""
    return cohomology(F.coboundary_rows(q), F.coboundary_rows(q - 1),
                      F.n_simplices(q), F.n_simplices(q - 1))


def induced_map_on_cohomology(F: SimplicialComplex, h: SimplicialMap,
                              q: int):
    """Matrix of h* on H^q(F; Q) in the representative basis.

    h* is the signed permutation of the q-simplices that
    ``SimplicialMap.image_simplex`` gives: (h* c)(s) = sign * c(h(s)).
    Column j holds the coordinates of h*(rep_j) that
    ``rational_cohomology`` gives; an image that is no cocycle raises
    NotAnIsomorphism.
    """
    reps, coords = rational_cohomology(F, q)
    if not reps:
        return []
    index = F.index[q]
    source = {}  # column of h(s) -> (column of s, sign)
    for i, s in enumerate(F.simplices[q]):
        image, sign = h.image_simplex(s)
        source[index[image]] = (i, sign)
    cols = []
    for r in reps:
        image = {}
        for j, x in r.items():
            i, sign = source[j]
            image[i] = sign * x
        col = coords(image)
        if col is None:
            raise NotAnIsomorphism(
                "pullback of a cocycle left the cocycle space")
        cols.append(col)
    return [list(row) for row in zip(*cols)]


def mv_oracle_dims(F: SimplicialComplex, h: dict, a: Scalar):
    """dim H^i of the mapping torus of the automorphism h (a vertex dict)
    of F at monodromy a, degree-wise, from the fiber data alone:
    ker(h* - a on H^i(F)) + coker(h* - a on H^{i-1})."""
    check_nonzero(a)
    h = SimplicialMap(F, F, h)
    mats = [induced_map_on_cohomology(F, h, q) for q in range(F.dim + 1)]
    return mv_dims_from_matrices(mats, a)


def mv_dims_from_matrices(mats, a: Scalar):
    """Same bookkeeping from explicit h* matrices: the square M - a*I has
    equal kernel and cokernel dimensions, its nullity, read once."""
    check_nonzero(a)
    field = scalar_field(a)
    nullities = []
    for mat in mats:
        k = len(mat)
        shifted = [[(field.from_rational(mat[i][j]) if field else
                     Fraction(mat[i][j])) - (a if i == j else 0 * a)
                    for j in range(k)] for i in range(k)]
        nullities.append(k - rank(shifted, k))
    return [ker + cok for ker, cok in zip(nullities + [0], [0] + nullities)]


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
    if space.has_cut:
        cut = space.cut
        out["cut"] = {
            "N": [list(s) for s in cut.N.maximal_simplices()],
            "V": [list(s) for s in cut.V.maximal_simplices()],
            "i_plus": sorted([v, w] for v, w in cut.i_plus.vertex_map.items()),
            "i_minus": sorted([v, w] for v, w in cut.i_minus.vertex_map.items()),
        }
    return out


def _int_lists(value, what: str, width=None):
    """``value`` itself if it is a list of integer lists (of ``width``);
    an integer is of type int exactly, so a JSON boolean is none."""
    if (isinstance(value, list) and all(map(isinstance, value, repeat(list)))
            and (width is None or set(map(len, value)) <= {width})
            and {int}.issuperset(map(type, chain.from_iterable(value)))):
        return value
    shape = "integer lists" if width is None else f"integer {width}-lists"
    raise MalformedInput(f"{what} must be a list of {shape}")


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise MalformedInput(f"{what} must be a JSON object")
    return value


def _typed(data: dict, key: str, kind: type, what: str, default):
    """``data[key]`` if it has exactly the type ``kind`` (so a JSON boolean
    is no integer), else ``default`` when the key is absent."""
    if key not in data:
        return default
    if type(data[key]) is not kind:
        raise MalformedInput(f"{key} must be {what}")
    return data[key]


def _vertex_map(value, what: str) -> dict:
    """The map of a list of [vertex, image] pairs; a vertex given twice
    raises MalformedInput."""
    out = {}
    for v, w in _int_lists(value, what, 2):
        if v in out:
            raise MalformedInput(f"{what} gives vertex {v} twice")
        out[v] = w
    return out


def _deferred_cut(c: dict):
    """A function that builds the cut presentation of the JSON object c.

    The checks that read no faces of N or V run now: c's shape, no vertex
    given twice in i+ or i-, and ``CutPresentation.check_vertices`` on the
    vertices its simplex lists name.  Building N and V, and checking that
    i+ and i- send simplices to simplices, wait for the call."""
    N = _int_lists(c.get("N"), "cut N")
    V = _int_lists(c.get("V"), "cut V")
    i_plus = _vertex_map(c.get("i_plus"), "cut i_plus")
    i_minus = _vertex_map(c.get("i_minus"), "cut i_minus")
    CutPresentation.check_vertices(sorted(set(chain.from_iterable(V))),
                                   set(chain.from_iterable(N)),
                                   i_plus, i_minus)
    return lambda: CutPresentation(build_complex(N), build_complex(V),
                                   i_plus, i_minus)


def space_from_json(data: dict) -> GeneratedSpace:
    """Inverse of ``space_to_json``; a document of the wrong shape raises
    MalformedInput.  The cut, if any, is built when it is first read (see
    ``_deferred_cut``), so a malformed simplex of N or V, or a face that
    i+ or i- sends to no simplex, is refused only then."""
    _object(data, "a space")
    complex = build_complex(_int_lists(data.get("maximal_simplices"),
                                       "maximal_simplices"))
    edges = {}
    cocycle = _object(data.get("cocycle", {}), "cocycle")
    for u, v, val in _int_lists(cocycle.get("edges", []), "cocycle edges", 3):
        if u > v:
            u, v, val = v, u, -val
        if (u, v) in edges:
            raise MalformedInput(f"cocycle edge {[u, v]} is given twice")
        edges[(u, v)] = val
    z = validate_cocycle(complex, edges)
    cut = None
    if "cut" in data:
        cut = _deferred_cut(_object(data["cut"], "cut"))
    dimension = _typed(data, "dimension", int, "an integer", complex.dim)
    if dimension != complex.dim:
        raise MalformedInput(
            f"dimension is {dimension}, but the simplices span dimension "
            f"{complex.dim}")
    return GeneratedSpace(complex, z,
                          _typed(data, "name", str, "a string", "input"),
                          _typed(data, "manifold", bool, "true or false",
                                 False),
                          cut=cut)
