"""Independent reference answers for the pipeline benchmark.

Nothing here imports ``novikov``: every expected value is derived by hand
or recomputed with this file's own small exact linear algebra, so a fault
in the program cannot hide by also being present in its reference.

* Surfaces of genus g: H^*(E_a) is [1, 2g, 1] at a = 1 and [0, 2g-2, 0]
  elsewhere.
* Mapping tori of h: F -> F: dim H^i(E_a) = dim ker(h*_i - a) +
  dim coker(h*_{i-1} - a), with h* on H^*(F; Q) entered by hand.  At a root
  alpha of an irreducible f, dim_{Q(alpha)} ker(M - alpha) equals
  dim_Q ker f(M) / deg f, so rational elimination suffices.
* Certificates are re-multiplied from their JSON with this file's own
  twisted Alexander-Whitney product, and the product is tested against
  the span of the twisted coboundaries.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


class CheckError(Exception):
    """An answer disagrees with its independent reference."""


# -- exact linear algebra over Q -------------------------------------------

def rank(rows) -> int:
    """Rank of a rational matrix by Gaussian elimination."""
    m = [[Fraction(c) for c in r] for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][col]:
                f = m[i][col] / m[r][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def poly_of_matrix(coeffs, m):
    """f(M) for f = coeffs[0] + coeffs[1] x + ... by Horner's rule."""
    n = len(m)
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    out = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(coeffs):
        out = _matmul(out, m)
        out = [[out[i][j] + c * ident[i][j] for j in range(n)]
               for i in range(n)]
    return out


class Root:
    """A root of the irreducible integer polynomial sum coeffs[i] x^i."""

    def __init__(self, coeffs):
        self.coeffs = [Fraction(c) for c in coeffs]
        while len(self.coeffs) > 1 and not self.coeffs[-1]:
            self.coeffs.pop()

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def factor_root(coeffs):
    """A root of the polynomial: a Fraction when it is linear, else a Root."""
    root = Root(coeffs)
    if root.degree == 1:
        return -root.coeffs[0] / root.coeffs[1]
    return root


def parse_monodromy(text: str):
    """'p/q' as a Fraction, '@c0,c1,...' as a root of c0 + c1 x + ..."""
    if text.startswith("@"):
        return factor_root(int(c) for c in text[1:].split(","))
    return Fraction(text)


def kernel_dim(m, a) -> int:
    """dim ker(M - a) over Q(a) for a square rational matrix M."""
    n = len(m)
    if n == 0:
        return 0
    if isinstance(a, Root):
        fm = poly_of_matrix(a.coeffs, m)
        k = n - rank(fm)
        if k % a.degree:
            raise CheckError("kernel of f(M) not a multiple of deg f")
        return k // a.degree
    shifted = [[Fraction(m[i][j]) - (a if i == j else 0) for j in range(n)]
               for i in range(n)]
    return n - rank(shifted)


# -- reference spaces ------------------------------------------------------

class Surface:
    """Closed orientable surface of genus g with a primitive class."""

    def __init__(self, name, genus):
        self.name = name
        self.genus = genus
        self.dim = 2
        self.euler = 2 - 2 * genus
        self.factors = [[-1, 1]]          # t - 1
        self.fibred = False

    def dims(self, a):
        if a == 1:
            return [1, 2 * self.genus, 1]
        return [0, 2 * self.genus - 2, 0]


class MappingTorus:
    """Mapping torus of h: F -> F with h*_q on H^q(F; Q) given by hand."""

    def __init__(self, name, h_star, factors, f_vector=None):
        self.name = name
        self.h_star = h_star
        self.dim = len(h_star)
        self.euler = 0
        self.factors = factors
        self.f_vector = f_vector
        self.fibred = True

    def dims(self, a):
        out = []
        for i in range(self.dim + 1):
            ker = kernel_dim(self.h_star[i], a) if i < self.dim else 0
            # coker(M - a) of a square matrix has the kernel's dimension
            cok = kernel_dim(self.h_star[i - 1], a) if i > 0 else 0
            out.append(ker + cok)
        return out


ONE = [[1]]
REFERENCES = {ref.name: ref for ref in [
    Surface("surface(2)", 2),
    Surface("surface(3)", 3),
    Surface("surface(4)", 4),
    Surface("surface(5)", 5),
    Surface("surface(6)", 6),
    Surface("torus#torus", 2),
    MappingTorus("torus", [ONE, ONE], [[-1, 1]]),
    MappingTorus("rotation", [ONE, ONE], [[-1, 1]]),
    MappingTorus("klein", [ONE, [[-1]]], [[-1, 1], [1, 1]]),
    MappingTorus("S1xS2", [ONE, [], ONE], [[-1, 1]]),
    MappingTorus("S1xS3", [ONE, [], [], ONE], [[-1, 1]]),
    # h: v -> 2v on the 7-vertex torus acts on H^1 with order 3; its
    # matrix is the companion matrix of t^2 + t + 1, and det = 1 on H^2
    MappingTorus("order3", [ONE, [[0, -1], [1, -1]], ONE],
                 [[-1, 1], [1, 1, 1]], f_vector=(21, 147, 252, 126)),
]}


def check_dims(ref, a, dims, label="dims"):
    """Dimension vector at monodromy a against the reference and its laws."""
    expected = ref.dims(a)
    if not isinstance(dims, list) or len(dims) != ref.dim + 1:
        raise CheckError(f"{ref.name}: {label} {dims!r} has the wrong length")
    alt = sum((-1) ** q * d for q, d in enumerate(dims))
    if alt != ref.euler:
        raise CheckError(f"{ref.name}: {label} {dims} alternate to {alt}, "
                         f"Euler characteristic is {ref.euler}")
    generic = ref.dims(Fraction(0))
    if any(d < g for d, g in zip(dims, generic)):
        raise CheckError(f"{ref.name}: {label} {dims} below generic {generic}")
    if dims != expected:
        raise CheckError(f"{ref.name}: {label} {dims}, expected {expected}")


def _monic(coeffs):
    c = [Fraction(x) for x in coeffs]
    return [x / c[-1] for x in c]


def expected_jumps(ref):
    """Generic dims and the sorted (q, monic factor, dim) jump entries."""
    # 0 is never a monodromy and no reference factor vanishes there, so
    # the dims at 0 computed by the formulas are the generic ones
    generic = ref.dims(Fraction(0))
    entries = []
    for f in ref.factors:
        at_root = ref.dims(factor_root(f))
        for q, (d, g) in enumerate(zip(at_root, generic)):
            if d > g:
                entries.append((q, tuple(_monic(f)), d))
    return generic, sorted(entries)


def check_jumps(ref, payload):
    """``novikov`` and ``jumps`` keys of a jumps/crit-bound JSON report."""
    generic, entries = expected_jumps(ref)
    if payload.get("novikov") != generic:
        raise CheckError(f"{ref.name}: novikov {payload.get('novikov')}, "
                         f"expected {generic}")
    got = sorted((e["q"], tuple(_monic(Fraction(c) for c in e["factor"])),
                  e["dim"]) for e in payload.get("jumps", []))
    if got != entries:
        raise CheckError(f"{ref.name}: jumps {got}, expected {entries}")
    for q, _f, d in got:
        if d <= generic[q]:
            raise CheckError(f"{ref.name}: jump dim {d} in degree {q} "
                             f"does not exceed generic {generic[q]}")


# -- cochains of a space given as JSON -------------------------------------

class Complex:
    """Face closure of a JSON space with its 1-cocycle, in the cochain
    convention of the report: q-cochains are indexed by the sorted list of
    q-simplices (increasing vertex tuples)."""

    def __init__(self, space_json):
        faces = {}
        for s in space_json["maximal_simplices"]:
            s = tuple(sorted(s))
            for k in range(1, len(s) + 1):
                for f in combinations(s, k):
                    faces.setdefault(k - 1, set()).add(f)
        self.simplices = [sorted(faces[q]) for q in range(max(faces) + 1)]
        self.index = [{s: i for i, s in enumerate(level)}
                      for level in self.simplices]
        self.z = {}
        for u, v, val in space_json.get("cocycle", {}).get("edges", []):
            if u > v:
                u, v, val = v, u, -val
            self.z[(u, v)] = val

    @property
    def dim(self):
        return len(self.simplices) - 1

    def f_vector(self):
        return tuple(len(level) for level in self.simplices)

    def value(self, u, v):
        return self.z.get((u, v), 0) if u < v else -self.z.get((v, u), 0)

    def coboundary(self, q, a):
        """Rows of delta_a: C^q -> C^{q+1}; the 0-th face carries a**z."""
        rows = []
        cols = self.index[q]
        for sigma in self.simplices[q + 1]:
            row = [Fraction(0)] * len(self.simplices[q])
            for i in range(len(sigma)):
                face = sigma[:i] + sigma[i + 1:]
                c = a ** self.value(sigma[0], sigma[1]) if i == 0 else (-1) ** i
                row[cols[face]] += c
            rows.append(row)
        return rows

    def cup(self, p, q, a2, alpha, beta):
        """(alpha cup beta)(v_0..v_{p+q})
        = alpha(v_0..v_p) * a2**z(v_0 -> v_p) * beta(v_p..v_{p+q})."""
        out = []
        for sigma in self.simplices[p + q]:
            front, back = sigma[:p + 1], sigma[p:]
            t = sum(self.value(front[i], front[i + 1]) for i in range(p))
            out.append(alpha[self.index[p][front]] * a2 ** t
                       * beta[self.index[q][back]])
        return out

    def is_coboundary(self, vec, q, a) -> bool:
        if q == 0:
            return not any(vec)
        cols = self.coboundary(q - 1, a)
        gens = [list(c) for c in zip(*cols)] if cols else []
        return rank(gens + [vec]) == rank(gens)

    def is_cocycle(self, vec, q, a) -> bool:
        if q == self.dim:
            return True
        return all(sum(c * x for c, x in zip(row, vec)) == 0
                   for row in self.coboundary(q, a))


def check_certificate(space_json, cert):
    """Re-derive a rational certificate's product from its JSON alone."""
    X = Complex(space_json)
    factors = cert["factors"]
    if cert["k"] != len(factors) or len(factors) < 2:
        raise CheckError(f"certificate k={cert['k']} with "
                         f"{len(factors)} factors")
    acc = None
    nonunits = 0
    for f in factors:
        if not isinstance(f["monodromy"], str):
            raise CheckError("certificate monodromy is not rational")
        a = Fraction(f["monodromy"])
        d = f["degree"]
        w = [Fraction(c) for c in f["representative"]]
        if not 1 <= d <= X.dim or len(w) != len(X.simplices[d]):
            raise CheckError(f"factor of degree {d} has {len(w)} entries")
        if f["is_unit"] != (a in (1, -1)):
            raise CheckError(f"factor {a} has is_unit={f['is_unit']}")
        nonunits += a not in (1, -1)
        if not X.is_cocycle(w, d, a):
            raise CheckError(f"factor at {a} in degree {d} is not a cocycle")
        if acc is None:
            acc = (a, d, w)
        else:
            m, p, v = acc
            if p + d > X.dim:
                raise CheckError("certificate degree exceeds the dimension")
            acc = (m * a, p + d, X.cup(p, d, a, v, w))
    m, deg, product = acc
    if nonunits < 2:
        raise CheckError(f"certificate has {nonunits} non-unit factors")
    if Fraction(cert["product_monodromy"]) != m or cert["total_degree"] != deg:
        raise CheckError("certificate product monodromy or degree is wrong")
    check_product(X, product, deg, m)


def check_product(X, product, degree, a):
    if not X.is_cocycle(product, degree, a):
        raise CheckError("certificate product is not a cocycle")
    if X.is_coboundary(product, degree, a):
        raise CheckError("certificate product is a coboundary")


def check_crit(ref, space_json, payload):
    """crit-bound / cup-length report: jumps, bound values, certificate."""
    check_jumps(ref, payload)
    cl, crit = payload["cl_lower_bound"], payload["crit_bound"]
    if crit != max(cl - 1, 0):
        raise CheckError(f"crit_bound {crit} inconsistent with cl {cl}")
    if ref.fibred:
        # a fibred space carries a closed 1-form without critical points
        if crit != 0:
            raise CheckError(f"{ref.name}: crit_bound {crit} on a fibred space")
    elif (cl, crit) != (2, 1):
        raise CheckError(f"{ref.name}: cl {cl}, crit {crit}; expected 2 and 1")
    cert = payload.get("certificate")
    if cert is not None:
        check_certificate(space_json, cert)
        if cert["k"] > cl:
            raise CheckError(f"certificate k={cert['k']} exceeds cl {cl}")
    elif not ref.fibred:
        raise CheckError(f"{ref.name}: no certificate for cl {cl}")


def check_space(ref, space_json):
    """The generated input itself: Euler characteristic and f-vector."""
    X = Complex(space_json)
    fv = X.f_vector()
    euler = sum((-1) ** q * n for q, n in enumerate(fv))
    if euler != ref.euler or X.dim != ref.dim:
        raise CheckError(f"{ref.name}: input has f-vector {fv}")
    if getattr(ref, "f_vector", None) and fv != ref.f_vector:
        raise CheckError(f"{ref.name}: f-vector {fv}, expected {ref.f_vector}")
