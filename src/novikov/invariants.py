"""Novikov numbers, jump locus, cup-length certificates, and the
critical-point lower bounds derived from them.

All computations are exact.  The cup-length search returns a certified
LOWER bound: candidate monodromies default to the jump roots (the only
points where twisted cohomology can exceed its generic dimension), a
random rational surrogate standing in for a transcendental point, 1, and
the inverses of all of these.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .complexes import SimplicialComplex, twisted_cup
from .errors import (InternalInconsistency, NotInSpan,
                     ZeroDivisorEncountered)
from .linalg import Span, express
from .matrix import SmithForm, rank_at, snf
from .numfield import (FieldElement, NumberField, Scalar, check_nonzero,
                       is_dirichlet_unit, scalar_field, scalar_key,
                       scalar_mul)
from .polyq import Poly, coprime_basis, rational_roots, squarefree_factors
from .twisted import (TwistedComplex, cocycle_space_basis,
                      coboundary_image_vectors, twisted_cohomology_dim)


class TwistedData:
    """Uniform handle on the polynomial coboundary data of an instance.

    Wraps either a simplicial complex with a 1-cocycle or raw polynomial
    matrices (synthetic chain instances).  Smith forms are computed lazily
    and cached per degree.
    """

    def __init__(self, matrices, sizes, dimension, complex=None, cocycle=None):
        self._matrices = matrices
        self.sizes = sizes
        self.dimension = dimension
        self.complex = complex
        self.cocycle = cocycle
        self._smith = {}

    @property
    def matrices(self):
        """Polynomial coboundaries; a simplicial instance builds its
        TwistedComplex (and runs its delta^2 = 0 check) on first use."""
        if self._matrices is None:
            self._matrices = TwistedComplex(self.complex, self.cocycle).matrices
        return self._matrices

    @staticmethod
    def of(X, z=None) -> "TwistedData":
        if isinstance(X, TwistedData):
            return X
        if getattr(X, "complex", None) is not None and z is None:
            # GeneratedSpace and friends carry their own cocycle
            X, z = X.complex, X.cocycle
        if isinstance(X, SimplicialComplex):
            if z is None:
                raise ValueError("a simplicial complex needs a cocycle")
            sizes = [X.n_simplices(q) for q in range(X.dim + 1)]
            return TwistedData(None, sizes, X.dim, complex=X, cocycle=z)
        # chain-instance duck type: .matrices, .sizes, .dimension
        return TwistedData(list(X.matrices), list(X.sizes), X.dimension)

    @property
    def simplicial(self) -> bool:
        return self.complex is not None

    def smith(self, q: int) -> SmithForm:
        if q not in self._smith:
            if q < len(self.matrices):
                self._smith[q] = snf(self.matrices[q])
            else:
                self._smith[q] = SmithForm([])
        return self._smith[q]

    def dim_at(self, q: int, a: Scalar) -> int:
        check_nonzero(a)
        if self.simplicial:
            return twisted_cohomology_dim(self.complex, self.cocycle, q, a)
        r_q = rank_at(self.matrices[q], a) if q < len(self.matrices) else 0
        r_prev = rank_at(self.matrices[q - 1], a) if 0 < q <= len(self.matrices) else 0
        return self.sizes[q] - r_q - r_prev


class JumpEntry:
    def __init__(self, q: int, factor: Poly, dim: int):
        self.q = q
        self.factor = factor
        self.dim = dim

    def __repr__(self):
        return f"JumpEntry(q={self.q}, factor={self.factor!r}, dim={self.dim})"


class JumpReport:
    """Generic twisted Betti numbers plus all monodromy jumps.

    ``generic[q]`` is the Novikov number b_q; each entry records a monic
    squarefree factor (never a power of t), the degree, and the strictly
    larger dimension attained at the factor's roots.
    """

    def __init__(self, generic, entries):
        self.generic = list(generic)
        self.entries = list(entries)

    def factors(self):
        seen = []
        for e in self.entries:
            if e.factor not in seen:
                seen.append(e.factor)
        return seen

    def rational_roots(self):
        roots = []
        for f in self.factors():
            for r in rational_roots(f):
                if r not in roots:
                    roots.append(r)
        return roots

    def irrational_factors(self):
        out = []
        for f in self.factors():
            if f.degree >= 2 and not rational_roots(f):
                out.append(f)
        return out

    def __repr__(self):
        return f"JumpReport(generic={self.generic}, entries={self.entries})"


def novikov_numbers(X, z=None):
    """Generic dimensions b_q of twisted cohomology, via Smith form ranks."""
    data = TwistedData.of(X, z)
    b = []
    for q in range(data.dimension + 1):
        r_q = data.smith(q).rank
        r_prev = data.smith(q - 1).rank if q > 0 else 0
        b.append(data.sizes[q] - r_q - r_prev)
    euler = sum((-1) ** q * n for q, n in enumerate(data.sizes))
    if sum((-1) ** q * bq for q, bq in enumerate(b)) != euler:
        raise InternalInconsistency(
            "alternating sum of generic dimensions differs from the "
            "Euler characteristic")
    return b


def _t_power(p: Poly) -> bool:
    return all(c == 0 for c in p.coeffs[:-1])


def jump_locus(X, z=None) -> JumpReport:
    """All monodromies where some twisted cohomology exceeds its generic dim.

    Factors are collected from the elementary divisors of every coboundary,
    made squarefree, split into a pairwise-coprime basis, and powers of t
    are dropped (t = 0 is not a monodromy).  Every divisor is then either
    divisible by a basis factor or coprime to it, so the dimension at the
    factor's roots is well defined.
    """
    data = TwistedData.of(X, z)
    generic = novikov_numbers(data)
    collected = []
    for q in range(data.dimension):
        for d in data.smith(q).divisors:
            for f, _mult in squarefree_factors(d):
                if f.degree >= 1 and not _t_power(f):
                    collected.append(f)
    entries = []
    for h in coprime_basis(collected):
        if h.degree < 1 or _t_power(h):
            continue
        for q in range(data.dimension + 1):
            r_q = data.smith(q).rank_at_factor_root(h)
            r_prev = data.smith(q - 1).rank_at_factor_root(h) if q > 0 else 0
            dim = data.sizes[q] - r_q - r_prev
            if dim > generic[q]:
                entries.append(JumpEntry(q, h.monic(), dim))
    return JumpReport(generic, entries)


def twisted_dims(X, z, a: Scalar = None):
    """dim H^q(X; E_a) for q = 0..dim, by direct evaluation at a."""
    if a is None:
        X, z, a = X, None, z
    data = TwistedData.of(X, z)
    check_nonzero(a)
    return [data.dim_at(q, a) for q in range(data.dimension + 1)]


class CupLengthCertificate:
    """A reproducible witness for a nontrivial k-fold twisted cup product.

    ``factors`` lists (monodromy, degree, cocycle representative, is_unit)
    in product order; ``witness`` holds the product's coordinates in the
    cohomology basis at the accumulated monodromy.
    """

    def __init__(self, k, factors, witness, product_monodromy, total_degree):
        self.k = k
        self.factors = factors
        self.witness = witness
        self.product_monodromy = product_monodromy
        self.total_degree = total_degree

    def nonunit_count(self):
        return sum(1 for f in self.factors if not f[3])


class CritBoundReport:
    """Cup-length bound with its certificate; ``jumps`` is the JumpReport
    of the class when the search had one."""

    def __init__(self, cl_lower_bound, certificate, mode, *, seed=None,
                 skipped=(), notes=(), untwisted_cup_length=None, jumps=None):
        self.cl_lower_bound = cl_lower_bound
        self.crit_bound = max(cl_lower_bound - 1, 0)
        self.certificate = certificate
        self.mode = mode
        self.seed = seed
        self.skipped = list(skipped)
        self.notes = list(notes)
        self.untwisted_cup_length = untwisted_cup_length
        self.jumps = jumps

    def __repr__(self):
        return (f"CritBoundReport(cl>={self.cl_lower_bound}, "
                f"crit>={self.crit_bound}, mode={self.mode})")


class _CohomologyCache:
    """Cocycle-space bases and coboundary spans per (monodromy, degree)."""

    def __init__(self, complex, cocycle):
        self.complex = complex
        self.cocycle = cocycle
        self._store = {}

    def get(self, a: Scalar, q: int):
        """Returns (basis representatives of H^q(E_a), coboundary vectors)."""
        key = (scalar_key(a), q)
        if key not in self._store:
            cobs = coboundary_image_vectors(self.complex, self.cocycle, q, a)
            span = Span(self.complex.n_simplices(q))
            for v in cobs:
                span.add(v)
            reps = []
            for v in cocycle_space_basis(self.complex, self.cocycle, q, a):
                if span.add(v):
                    reps.append(v)
            self._store[key] = (reps, cobs)
        return self._store[key]


class _DPState:
    """Achieved cup products at one (monodromy, degree, nonunits, length).

    ``span`` is seeded with the coboundaries in the target degree, so a
    stored vector enlarging it represents a nonzero cohomology class.
    ``vectors`` keeps one spanning set of achieved products together with
    their provenance chains for certificate extraction.
    """

    def __init__(self, ncols, coboundaries):
        self.span = Span(ncols)
        for v in coboundaries:
            self.span.add(v)
        self.base_dim = self.span.dim
        self.vectors = []  # (vector, provenance)

    def offer(self, vec, provenance) -> bool:
        if self.span.add(vec):
            self.vectors.append((vec, provenance))
            return True
        return False


def _compatible_product(m: Scalar, a: Scalar):
    """Product of two monodromies, or None if their fields differ."""
    fm, fa = scalar_field(m), scalar_field(a)
    if fm is not None and fa is not None and fm != fa:
        return None
    return scalar_mul(m, a)


def cup_length(X, z, candidates, *, manifold=False, require_nonunits=2,
               jumps=None, seed=None, mode="exhaustive-over-candidates"):
    """Longest certified nontrivial product of positive-degree twisted classes.

    Dynamic programming over (accumulated monodromy, total degree,
    non-Dirichlet-unit count, product length); each state stores a spanning
    set of realizable products modulo coboundaries, which suffices because
    the cup product is bilinear.  Returns a CritBoundReport whose
    clLowerBound certifies the bound with a re-checkable certificate.
    """
    if z.is_zero():
        untw = _untwisted_cup_length(X, z)
        return CritBoundReport(
            0, None, mode, seed=seed, untwisted_cup_length=untw, jumps=jumps,
            notes=["zero class: the twisted length needs two non-unit "
                   "monodromies, which products of trivial monodromy "
                   "never supply"])
    cands = []
    skipped = []
    for a in candidates:
        check_nonzero(a)
        key = scalar_key(a)
        if any(scalar_key(c) == key for c in cands):
            continue
        cands.append(a)
    cache = _CohomologyCache(X, z)
    n = X.dim
    states = {}

    def get_state(m, degree, nonunits, length):
        key = (scalar_key(m), degree, nonunits, length)
        if key not in states:
            _, cobs = cache.get(m, degree)
            states[key] = (m, _DPState(X.n_simplices(degree), cobs))
        return states[key][1]

    cand_info = []
    for a in cands:
        unit = is_dirichlet_unit(a)
        degs = []
        for d in range(1, n + 1):
            reps, _ = cache.get(a, d)
            if reps:
                degs.append((d, reps))
        if degs:
            cand_info.append((a, unit, degs))

    best = 0
    best_vec = None
    for a, unit, degs in cand_info:
        for d, reps in degs:
            st = get_state(a, d, 0 if unit else 1, 1)
            for i, v in enumerate(reps):
                st.offer(v, ((a, d, i, v), None))

    for length in range(1, n):
        layer = [(key, m, st) for key, (m, st) in states.items()
                 if key[3] == length and st.vectors]
        for (mkey, degree, nonunits, _), m, st in layer:
            for a, unit, degs in cand_info:
                m2 = _compatible_product(m, a)
                if m2 is None:
                    skipped.append((mkey, scalar_key(a)))
                    continue
                nu2 = min(nonunits + (0 if unit else 1), 2)
                for d, reps in degs:
                    if degree + d > n:
                        continue
                    st2 = get_state(m2, degree + d, nu2, length + 1)
                    for vec, prov in st.vectors:
                        for i, w in enumerate(reps):
                            product = twisted_cup(X, z, degree, d, m, a,
                                                  vec, w)
                            st2.offer(product, ((a, d, i, w), (vec, prov)))

    for (mkey, degree, nonunits, length), (m, st) in states.items():
        if nonunits >= require_nonunits and st.vectors and length > best:
            best = length
            best_vec = (m, degree, st)

    certificate = None
    if best_vec is not None and best >= 1:
        certificate = _extract_certificate(X, z, cache, best, best_vec)
    notes = []
    cl = best
    if manifold and cl < 2:
        dual = _duality_bound(X, z, jumps, n)
        if dual is not None:
            cl = 2
            notes.append(dual)
    report = CritBoundReport(cl, certificate, mode, seed=seed,
                             skipped=skipped, notes=notes, jumps=jumps)
    if certificate is not None:
        _verify_certificate(X, z, cache, certificate)
    return report


def _extract_certificate(X, z, cache, k, best_vec):
    m, degree, st = best_vec
    vec, prov = st.vectors[0]
    chain = []
    while prov is not None:
        (a, d, _i, w), prev = prov
        chain.append((a, d, w))
        prov = prev[1] if prev is not None else None
    chain.reverse()
    factors = [(a, d, w, is_dirichlet_unit(a)) for a, d, w in chain]
    reps, cobs = cache.get(m, degree)
    coords = express([list(r) for r in reps] + [list(c) for c in cobs],
                     vec, _zero_like(vec))
    witness = coords[:len(reps)] if coords is not None else None
    return CupLengthCertificate(k, factors, witness, m, degree)


def _zero_like(vec):
    for v in vec:
        if isinstance(v, FieldElement):
            return v.field.zero()
    return Fraction(0)


def _verify_certificate(X, z, cache, cert: CupLengthCertificate):
    """Independent re-check: multiply the stored representatives afresh and
    confirm the product is not a coboundary."""
    a0, d0, v0, _ = cert.factors[0]
    acc_m, acc_d, acc_v = a0, d0, list(v0)
    for a, d, w, _unit in cert.factors[1:]:
        acc_v = twisted_cup(X, z, acc_d, d, acc_m, a, acc_v, w)
        acc_m = scalar_mul(acc_m, a)
        acc_d += d
    _, cobs = cache.get(acc_m, acc_d)
    span = Span(X.n_simplices(acc_d))
    for c in cobs:
        span.add(c)
    if span.contains(acc_v):
        raise InternalInconsistency(
            "certificate product re-evaluated to a coboundary")
    if cert.nonunit_count() < 2:
        raise InternalInconsistency(
            "certificate has fewer than two non-unit monodromies")


def _duality_bound(X, z, jumps, n):
    """Length-2 bound from the duality pairing on a closed manifold.

    If some jump factor in a middle degree has a root that is not a
    Dirichlet unit, the twisted class at that root pairs nontrivially with
    a class at the inverse root, and the inverse of a non-unit is a
    non-unit; two non-unit factors give length 2.
    """
    if jumps is None:
        jumps = jump_locus(X, z)
    for e in jumps.entries:
        if not 0 < e.q < n:
            continue
        if _has_nonunit_root(e.factor):
            return ("duality pairing: jump factor "
                    f"{list(e.factor.primitive_int_coeffs())} in degree "
                    f"{e.q} has a non-unit root; its inverse root pairs "
                    f"with it into degree {n}")
    return None


def _has_nonunit_root(factor: Poly) -> bool:
    for r in rational_roots(factor):
        if r not in (1, -1):
            return True
    rest = factor
    for r in rational_roots(factor):
        rest = rest // Poly([-r, Fraction(1)])
    if rest.degree >= 1:
        coeffs = rest.primitive_int_coeffs()
        # if every irreducible factor had unit leading and constant
        # coefficients, the product would too
        if abs(coeffs[0]) != 1 or abs(coeffs[-1]) != 1:
            return True
    return False


def _untwisted_cup_length(X, z0):
    """Ordinary rational cup-length of positive-degree classes."""
    one = Fraction(1)
    cache = _CohomologyCache(X, z0)
    n = X.dim
    best = 0
    states = {}

    def get_state(degree, length):
        key = (degree, length)
        if key not in states:
            _, cobs = cache.get(one, degree)
            states[key] = _DPState(X.n_simplices(degree), cobs)
        return states[key]

    for d in range(1, n + 1):
        reps, _ = cache.get(one, d)
        st = get_state(d, 1)
        for v in reps:
            st.offer(v, None)
    for length in range(1, n):
        layer = [(key, st) for key, st in states.items()
                 if key[1] == length and st.vectors]
        for (degree, _), st in layer:
            for d in range(1, n - degree + 1):
                reps, _ = cache.get(one, d)
                if not reps:
                    continue
                st2 = get_state(degree + d, length + 1)
                for vec, _prov in st.vectors:
                    for w in reps:
                        st2.offer(twisted_cup(X, z0, degree, d, one, one,
                                              vec, w), None)
    for (degree, length), st in states.items():
        if st.vectors and length > best:
            best = length
    return best


def default_candidates(jumps: JumpReport, rng: random.Random):
    """Jump roots and their inverses, one number-field root per irrational
    factor, the unit monodromy, and a random rational surrogate pair."""
    cands = [Fraction(1)]
    for r in jumps.rational_roots():
        for c in (r, 1 / r if r else None):
            if c is not None and c != 0 and c not in cands:
                cands.append(c)
    for f in jumps.irrational_factors():
        try:
            field = NumberField(f.primitive_int_coeffs())
            root = field.generator()
            cands.append(root)
            cands.append(root.inverse())
        except (ZeroDivisorEncountered, ValueError):
            continue
    g = Fraction(rng.randint(2, 10 ** 6), rng.randint(2, 10 ** 6))
    while g in (1, -1) or g in cands:
        g = Fraction(rng.randint(2, 10 ** 6), rng.randint(2, 10 ** 6))
    cands.append(g)
    cands.append(1 / g)
    return cands


def crit_bound(X, z=None, *, manifold=None, seed=0):
    """Jump locus plus cup-length search over the default candidate set."""
    if manifold is None:
        manifold = bool(getattr(X, "manifold", False))
    data = TwistedData.of(X, z)
    jumps = jump_locus(data)
    if not data.simplicial:
        # synthetic chain data has no cup product; only the duality route
        notes = []
        cl = 0
        if manifold:
            dual = _chain_duality_bound(jumps, data.dimension)
            if dual is not None:
                cl = 2
                notes.append(dual)
        return CritBoundReport(cl, None, "exhaustive-over-candidates",
                               seed=seed, notes=notes, jumps=jumps)
    rng = random.Random(seed)
    last = None
    for _attempt in range(3):
        cands = default_candidates(jumps, rng)
        last = cup_length(data.complex, data.cocycle, cands,
                          manifold=manifold, jumps=jumps, seed=seed,
                          mode="probabilistic")
        if last.cl_lower_bound > 0:
            return last
    return last


def _chain_duality_bound(jumps: JumpReport, n: int):
    for e in jumps.entries:
        if 0 < e.q < n and _has_nonunit_root(e.factor):
            return ("duality pairing: jump factor "
                    f"{list(e.factor.primitive_int_coeffs())} in degree "
                    f"{e.q} has a non-unit root")
    return None


def thm3_bound(X, base_classes, approximants, *, manifold=False, seed=0):
    """Best bound over integer combinations of the base classes.

    Each approximant is a coefficient vector; the zero vector is rejected
    since it does not present a rank-1 class vanishing on the kernel.
    """
    best = None
    for coeffs in approximants:
        coeffs = list(coeffs)
        if len(coeffs) != len(base_classes):
            raise NotInSpan("approximant length differs from base count")
        if all(c == 0 for c in coeffs):
            raise NotInSpan("zero approximant is not a rank-1 class")
        eta = base_classes[0].scaled_sum(list(zip(base_classes, coeffs)))
        rep = crit_bound(X, eta, manifold=manifold, seed=seed)
        if best is None or rep.cl_lower_bound > best.cl_lower_bound:
            best = rep
    return best


def _frac_str(c: Fraction) -> str:
    c = Fraction(c)
    return f"{c.numerator}/{c.denominator}" if c.denominator != 1 \
        else str(c.numerator)


def jumps_json(jumps: JumpReport) -> list:
    return [{"q": e.q,
             "factor": [_frac_str(c) for c in e.factor.coeffs],
             "dim": e.dim}
            for e in jumps.entries]


def report_json(novikov, jumps: JumpReport, crit: CritBoundReport) -> dict:
    out = {
        "novikov": list(novikov),
        "jumps": jumps_json(jumps),
        "cl_lower_bound": crit.cl_lower_bound,
        "crit_bound": crit.crit_bound,
        "mode": crit.mode,
        "certificate": certificate_json(crit.certificate),
    }
    if crit.seed is not None:
        out["seed"] = crit.seed
    if crit.notes:
        out["notes"] = crit.notes
    if crit.untwisted_cup_length is not None:
        out["untwisted_cup_length"] = crit.untwisted_cup_length
    return out


def _scalar_json(a: Scalar):
    if isinstance(a, FieldElement):
        return {"minpoly": [str(c) for c in a.field.int_coeffs],
                "residue": [_frac_str(c) for c in a.residue.coeffs]}
    return _frac_str(a)


def certificate_json(cert):
    if cert is None:
        return None
    return {
        "k": cert.k,
        "factors": [{"monodromy": _scalar_json(a), "degree": d,
                     "representative": [_frac_str(c) if not isinstance(c, FieldElement)
                                        else _scalar_json(c) for c in w],
                     "is_unit": u}
                    for a, d, w, u in cert.factors],
        "witness": None if cert.witness is None
        else [_frac_str(c) if not isinstance(c, FieldElement)
              else _scalar_json(c) for c in cert.witness],
        "total_degree": cert.total_degree,
        "product_monodromy": _scalar_json(cert.product_monodromy),
    }
