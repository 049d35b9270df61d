"""Novikov numbers, jump locus, cup-length certificates, and the
critical-point lower bounds derived from them.

All computations are exact.  The cup-length search returns a certified
LOWER bound: candidate monodromies default to the jump roots (the only
points where twisted cohomology can exceed its generic dimension), a
random rational surrogate standing in for a transcendental point, 1, and
the inverses of all of these.  The surrogate is redrawn only while it
has classes: while the class is nonzero and some Novikov number in
positive degree is nonzero.  The search forms only the products that
can still reach the two non-unit factors the bound counts, each the
first time one of its offers reads it.

Every invariant takes the one complex it reads.  The Novikov numbers,
the jump locus and the twisted dimensions take a ReducedComplex: they
read its Smith forms (``ReducedComplex.smith``) and its ranks at a point.
Any route's reduction serves, the ``.reduced()`` of a TwistedComplex, of
a DeformationComplex or of ``relative_reduced``.  The cup-length search
and the bounds built on it take the TwistedComplex whose cochains they
multiply, and its unreduced coboundary checks every cochain they make:

    twisted = TwistedComplex(space.complex, space.cocycle)
    twisted_dims(twisted.reduced(), Fraction(3))
    crit_bound(twisted)
"""

from __future__ import annotations

import random
from fractions import Fraction

from .complexes import twisted_cup
from .errors import InternalInconsistency, NotInSpan
from .linalg import Span, cohomology, express, kernel, transpose
from .numfield import (FieldElement, NumberField, Scalar, cache_key,
                       check_nonzero, is_dirichlet_unit, scalar_field)
from .polyq import Poly, coprime_basis, squarefree_factors
from .twisted import (CoboundaryRows, ReducedComplex, TwistedComplex,
                      evaluate_rows)


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
    squarefree factor, the degree, and the strictly larger dimension
    attained at the factor's roots.  No factor is a power of t, by
    construction: the Smith forms are over Q[t, 1/t].  A factor is linear
    or has no rational root: ``squarefree_factors`` splits every rational
    root off, and the coprime basis keeps linear factors linear and
    root-free ones root-free.
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
        """The root -c_0 of each linear factor t + c_0, a Fraction."""
        return [Fraction(-f.constant_term()) for f in self.factors()
                if f.degree == 1]

    def irrational_factors(self):
        """The factors of degree >= 2, none of which has a rational root."""
        return [f for f in self.factors() if f.degree >= 2]

    def __repr__(self):
        return f"JumpReport(generic={self.generic}, entries={self.entries})"


def novikov_numbers(red: ReducedComplex):
    """Generic dimensions b_q of twisted cohomology, via Smith form ranks
    of the reduced coboundaries."""
    b = [n - len(red.smith(q)) - len(red.smith(q - 1))
         for q, n in enumerate(red.sizes)]
    if (sum((-1) ** q * bq for q, bq in enumerate(b))
            != sum((-1) ** q * n for q, n in enumerate(red.full_sizes))):
        raise InternalInconsistency(
            "alternating sum of generic dimensions differs from the "
            "Euler characteristic")
    return b


def jump_locus(red: ReducedComplex) -> JumpReport:
    """All monodromies where some twisted cohomology exceeds its generic dim.

    Factors are collected from the elementary divisors of every coboundary,
    made squarefree and split into a pairwise-coprime basis.  The divisors
    are over Q[t, 1/t], with nonzero constant terms, so no factor is a
    power of t (t = 0 is not a monodromy).  Every divisor is then either
    divisible by a basis factor or coprime to it, so the dimension at the
    factor's roots is well defined.
    """
    generic = novikov_numbers(red)
    # each distinct divisor is factored once: t - 1, say, divides in two
    # degrees of every surface, and coprime_basis drops repeats anyway
    divisors = dict.fromkeys(d for q in range(len(red.rows))
                             for d in red.smith(q))
    collected = [f for d in divisors for f, _mult in squarefree_factors(d)]
    entries = []
    for h in coprime_basis(collected):
        # the rank of delta_q at h's roots: the divisors h does not divide
        ranks = [sum(1 for d in red.smith(q) if not h.divides(d))
                 for q in range(-1, len(red.sizes))]
        for q, n in enumerate(red.sizes):
            dim = n - ranks[q + 1] - ranks[q]
            if dim > generic[q]:
                entries.append(JumpEntry(q, h.monic(), dim))
    return JumpReport(generic, entries)


def twisted_dims(red: ReducedComplex, a: Scalar):
    """dim H^q at t = a in every degree of the reduced complex, by
    evaluating its coboundaries at a.  The complex refuses a = 0 unless
    it is read there, as a DeformationComplex is."""
    return [red.dim_at(q, a) for q in range(len(red.sizes))]


class CupLengthCertificate:
    """A reproducible witness for a nontrivial k-fold twisted cup product.

    ``factors`` lists (monodromy, degree, cocycle representative, is_unit)
    in product order, each representative a sparse cochain; ``witness``
    holds the product's coordinates in the cohomology basis at the
    accumulated monodromy.  ``f_vector`` counts the simplices of the
    complex, the length of each representative written out in full.
    """

    def __init__(self, k, factors, witness, product_monodromy, total_degree,
                 f_vector):
        self.k = k
        self.factors = factors
        self.witness = witness
        self.product_monodromy = product_monodromy
        self.total_degree = total_degree
        self.f_vector = f_vector

    def nonunit_count(self):
        return sum(1 for f in self.factors if not f[3])


class CritBoundReport:
    """Cup-length bound with its certificate; ``crit_bound`` sets
    ``jumps``, the JumpReport of the class."""

    def __init__(self, cl_lower_bound, certificate, mode, *, seed=None,
                 skipped=(), notes=(), untwisted_cup_length=None):
        self.cl_lower_bound = cl_lower_bound
        self.crit_bound = max(cl_lower_bound - 1, 0)
        self.certificate = certificate
        self.mode = mode
        self.seed = seed
        self.skipped = list(skipped)
        self.notes = list(notes)
        self.untwisted_cup_length = untwisted_cup_length
        self.jumps = None

    def __repr__(self):
        return (f"CritBoundReport(cl>={self.cl_lower_bound}, "
                f"crit>={self.crit_bound}, mode={self.mode})")


def _over_q(a: Scalar) -> Scalar:
    """A rational value of a number field as the rational it is."""
    if isinstance(a, FieldElement) and a.is_rational():
        return a.as_rational()
    return a


class _CohomologyCache:
    """Twisted cohomology of one instance in coordinates, per (monodromy,
    degree), shared by every cup-length search over that instance.

    Representatives, products and every other cochain are sparse,
    ``{index: nonzero value}``, and each cost follows a vector's support:
    a cup product costs the entries of its left factor times their
    cofaces, and the representatives g gives are mostly zero.  A cocycle
    check walks only the rows that ``TwistedComplex.columns(q)`` lists for
    its vector's support in ``coboundary(a, q)``, the TwistedComplex's
    unreduced rows at a, each evaluated the first time a check meets it.
    Everything else reads the unit-pivot-reduced complex C_red and its
    transfer maps at t = a, g: C_red -> C and f: C -> C_red
    (``ReducedComplex.g``/``f``), with f g = id.  ``dim`` reads
    dim H^q(E_a) off the reduced ranks, so a degree whose cohomology
    vanishes costs one rank evaluation.  Otherwise ``linalg.cohomology``
    of the reduced coboundaries at a gives a basis of H^q(E_a) among the
    reduced cocycles and the coordinates of a reduced cocycle's class in
    it, with f and g at a; that is built on the first read of the
    (monodromy, degree).  ``rep(a, q, i)`` is g of the i-th basis
    cocycle, put into a's number field and checked to be a cocycle, built
    on its first read with the basis's one g, whose step weights then
    serve the next lift; ``reps`` lifts them all.  ``coords(v)`` checks
    that v is a cocycle against the cochain-level coboundary at a, then
    reads the coordinates of f(v).  ``constant(m, p, a, d, i, j)`` is the
    cup structure constant coords(rep^m_i cup rep^a_j), computed on its
    first read and kept per pair of indices.  A basis and the rows at a
    rational monodromy are built over Q, also when a product in a number
    field reaches it first, so they serve the products of every field
    that reach it.
    """

    def __init__(self, twisted: TwistedComplex):
        self.twisted = twisted
        self.complex = twisted.complex
        self.cocycle = twisted.z
        self._bases = {}
        self._reps = {}
        self._coboundaries = {}
        self._constants = {}

    def dim(self, a: Scalar, q: int) -> int:
        return self.twisted.reduced().dim_at(q, a)

    def reps(self, a: Scalar, q: int):
        return [self.rep(a, q, i) for i in range(self.dim(a, q))]

    def rep(self, a: Scalar, q: int, i: int) -> dict:
        """The i-th representative of H^q(E_a)."""
        a = _over_q(a)
        key = (cache_key(a), q, i)
        v = self._reps.get(key)
        if v is None:
            basis, _coords, _f, g = self._basis(a, q)
            v = g(basis[i])
            field = scalar_field(a)
            if field is not None:
                v = {j: x if isinstance(x, FieldElement)
                     else field.from_rational(x) for j, x in v.items()}
            if not self._is_cocycle(a, q, v):
                raise InternalInconsistency(
                    f"a cohomology representative in degree {q} is not a "
                    "cocycle")
            self._reps[key] = v
        return v

    def _basis(self, a, q):
        a = _over_q(a)
        key = (cache_key(a), q)
        if key not in self._bases:
            self._bases[key] = self._build(a, q)
        return self._bases[key]

    def _build(self, a, q):
        b = self.dim(a, q)
        if b == 0:
            return [], None, None, None
        red = self.twisted.reduced()
        upper = evaluate_rows(red.rows[q], a) if q < len(red.rows) else []
        lower = evaluate_rows(red.rows[q - 1], a) if q > 0 else []
        basis, coords = cohomology(upper, lower, red.sizes[q],
                                   red.sizes[q - 1] if q > 0 else 0)
        if len(basis) != b:
            raise InternalInconsistency(
                f"{len(basis)} cohomology representatives in degree {q}, "
                f"but the reduced complex gives dimension {b}")
        return basis, coords, red.f(q, a), red.g(q, a)

    def coboundary(self, a: Scalar, q: int) -> CoboundaryRows:
        """The unreduced delta_q at a, its rows evaluated on demand and
        kept for the rest of the search."""
        a = _over_q(a)
        key = (cache_key(a), q)
        rows = self._coboundaries.get(key)
        if rows is None:
            rows = self._coboundaries[key] = CoboundaryRows(self.twisted, q, a)
        return rows

    def _is_cocycle(self, a, q, vec) -> bool:
        """Whether delta_a vec = 0 at cochain level, over the rows that
        meet vec's support."""
        return not self.coboundary(a, q).apply(vec)

    def coords(self, a: Scalar, q: int, vec) -> list:
        """Coordinates of a cocycle's class in the basis of H^q(E_a)."""
        _cocycles, coords, f, _g = self._basis(a, q)
        if not self._is_cocycle(a, q, vec):
            raise InternalInconsistency(
                f"a cup product in degree {q} is not a cocycle")
        x = coords(f(vec))
        if x is None:
            raise InternalInconsistency(
                f"a cup product in degree {q} projects to no reduced cocycle")
        return x

    def constant(self, m: Scalar, p: int, a: Scalar, d: int, i: int,
                 j: int) -> list:
        """coords(rep^m_i cup rep^a_j) in H^{p+d}(E_{ma})."""
        key = (cache_key(m), p, cache_key(a), d, i, j)
        c = self._constants.get(key)
        if c is None:
            c = self._constants[key] = self.coords(
                m * a, p + d,
                twisted_cup(self.complex, self.cocycle, p, d, m, a,
                            self.rep(m, p, i), self.rep(a, d, j)))
        return c


def _pairing(u: dict, v: dict):
    """The Kronecker pairing of a cochain with a chain."""
    return sum(x * v[j] for j, x in u.items() if j in v)


def _add(u: dict, v: dict, c=1) -> dict:
    """u + c * v for sparse vectors and a nonzero c, as a new vector."""
    out = dict(u)
    for j, x in v.items():
        y = out.get(j, 0) + c * x
        if y:
            out[j] = y
        else:
            del out[j]
    return out


class _DPState:
    """Achieved cup products at one (monodromy, field, degree, nonunits,
    length), as coordinate vectors in the cohomology basis of that
    monodromy and degree.  ``vectors`` keeps the products that enlarged
    the span, which span all achieved products because the cup product is
    bilinear, each with its provenance chain for certificate extraction.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.span = Span()
        self.vectors = []  # (coordinates, provenance)

    @property
    def full(self) -> bool:
        return len(self.vectors) == self.dim

    def offer(self, coords, provenance) -> bool:
        if self.span.add(coords):
            self.vectors.append((coords, provenance))
            return True
        return False


def _combine(cache, m, p, x, a, d, j, dim):
    """sum_i x_i C_ij, C_ij = coords(rep^m_i cup rep^a_j): the
    coordinates of (class x) cup rep^a_j, reading only the C_ij with
    x_i != 0."""
    out = [0] * dim
    for i, xi in enumerate(x):
        if xi:
            for k, c in enumerate(cache.constant(m, p, a, d, i, j)):
                if c:
                    out[k] += xi * c
    return out


def _compatible_product(m: Scalar, a: Scalar):
    """Product of two monodromies, or None if their fields differ."""
    fm, fa = scalar_field(m), scalar_field(a)
    if fm is not None and fa is not None and fm != fa:
        return None
    return m * a


def _search(cache: _CohomologyCache, cands, require_nonunits: int):
    """Dynamic programming over (accumulated monodromy, its number field,
    total degree, non-Dirichlet-unit count, product length) in cohomology
    coordinates.  Products from two fields that reach one rational
    monodromy keep separate states: their coordinates never share a span.

    Each state has a budget of non-unit factors.  Every non-unit factor
    adds at least s to the degree, s the least degree in which a non-unit
    candidate has a class (n + 1 if none has one), so a state with nu
    non-units in degree q can still reach nu + (n - q) // s of them.  A
    state is created, and a factor offered to it, only while that reaches
    ``require_nonunits``.  A state that fails the budget has only
    descendants that fail it, and every state that could be the answer
    passes it, so the answer is that of the search without the budget;
    the bases and structure constants of the pruned states are never
    built.

    A single class is offered as a unit vector, with no representative
    lifted; a provenance holds (monodromy, degree, index) of each factor,
    and ``_extract_certificate`` lifts the ones it names.
    A product x cup rep^a_j reads the structure constants of its row j
    where x is nonzero, each formed on its first read (``_combine``), and
    a state that is full takes no more offers: its span already holds
    every product, so each would be refused.

    Returns (length, best, skipped): the longest length reached with at
    least ``require_nonunits`` non-unit factors, its (monodromy, degree,
    state) or None, and the distinct (accumulated monodromy, candidate)
    key pairs left out because their fields differ, where the budget
    would have formed their product.
    """
    n = cache.complex.dim
    states = {}
    skipped = []

    def get_state(m, degree, nonunits, length):
        key = (cache_key(m), scalar_field(m), degree, nonunits, length)
        if key not in states:
            states[key] = (m, _DPState(cache.dim(m, degree)))
        return states[key][1]

    cand_info = []
    for a in cands:
        unit = is_dirichlet_unit(a)
        degs = [d for d in range(1, n + 1) if cache.dim(a, d)]
        if degs:
            cand_info.append((a, unit, degs))
    s = min((degs[0] for _a, unit, degs in cand_info if not unit),
            default=n + 1)

    def within_budget(nonunits, degree):
        return (degree <= n
                and nonunits + (n - degree) // s >= require_nonunits)

    for a, unit, degs in cand_info:
        nu = 0 if unit else 1
        for d in degs:
            if not within_budget(nu, d):
                continue
            st = get_state(a, d, nu, 1)
            for i in range(st.dim):
                e_i = [0] * st.dim
                e_i[i] = 1
                st.offer(e_i, ((a, d, i), None))

    for length in range(1, n):
        layer = [(key, m, st) for key, (m, st) in states.items()
                 if key[4] == length and st.vectors]
        for (mkey, _field, degree, nonunits, _), m, st in layer:
            for a, unit, degs in cand_info:
                nu2 = min(nonunits + (0 if unit else 1), 2)
                targets = [d for d in degs if within_budget(nu2, degree + d)]
                if not targets:
                    continue
                m2 = _compatible_product(m, a)
                if m2 is None:
                    if (mkey, cache_key(a)) not in skipped:
                        skipped.append((mkey, cache_key(a)))
                    continue
                for d in targets:
                    if not cache.dim(m2, degree + d):
                        continue
                    st2 = get_state(m2, degree + d, nu2, length + 1)
                    b = cache.dim(a, d)
                    offers = ((x, prov, j) for x, prov in st.vectors
                              for j in range(b))
                    for x, prov, j in offers:
                        if st2.full:
                            break
                        st2.offer(_combine(cache, m, degree, x, a, d, j,
                                           st2.dim), ((a, d, j), prov))

    best, found = 0, None
    for (_, _field, degree, nonunits, length), (m, st) in states.items():
        if nonunits >= require_nonunits and st.vectors and length > best:
            best, found = length, (m, degree, st)
    return best, found, skipped


def cup_length(twisted: TwistedComplex, candidates, *, seed=None,
               mode="exhaustive-over-candidates", cache=None):
    """Longest certified nontrivial product of positive-degree twisted classes
    whose monodromies are products of the given candidates.

    ``cache``, a ``_CohomologyCache`` of ``twisted``, lets several searches
    share their bases and structure constants.  Each DP state stores a
    spanning set of realizable products in cohomology coordinates, which
    suffices because the cup product is bilinear.  Only the products that
    can still reach two non-unit factors are formed, and only their bases
    are built (``_search``).  Returns a CritBoundReport whose
    cl_lower_bound is 0 or the length of a product it found, its
    certificate re-checked at cochain level; its note counts the pairs
    from different number fields whose product would have been formed
    had the fields agreed.  For the zero class it reports the untwisted
    cup-length instead, the same search at the unit monodromy with no
    non-unit requirement.
    """
    if cache is None:
        cache = _CohomologyCache(twisted)
    if twisted.z.is_zero():
        untw, _, _ = _search(cache, [Fraction(1)], 0)
        return CritBoundReport(
            0, None, mode, seed=seed, untwisted_cup_length=untw,
            notes=["zero class: the twisted length needs two non-unit "
                   "monodromies, which products of trivial monodromy "
                   "never supply"])
    cands = []
    for a in candidates:
        check_nonzero(a)
        key = cache_key(a)
        if any(cache_key(c) == key for c in cands):
            continue
        cands.append(a)
    cl, found, skipped = _search(cache, cands, 2)
    certificate = None
    if found is not None:
        certificate = _extract_certificate(cache, cl, *found,
                                           twisted.complex.f_vector())
    notes = []
    if skipped:
        notes.append(f"skipped {len(skipped)} monodromy pair(s) from "
                     "different number fields: their products were not "
                     "formed, so the bound does not cover them")
    report = CritBoundReport(cl, certificate, mode, seed=seed,
                             skipped=skipped, notes=notes)
    if certificate is not None:
        _verify_certificate(cache, certificate)
    return report


def _extract_certificate(cache, k, m, degree, st, f_vector):
    """The certificate of the first product in ``st``, its factors'
    representatives read off ``cache`` by the indices its provenance
    holds."""
    coords, prov = st.vectors[0]
    factors = []
    while prov is not None:
        (a, d, i), prov = prov
        factors.append((a, d, cache.rep(a, d, i), is_dirichlet_unit(a)))
    factors.reverse()
    # the witness takes the type of the cochain product: field elements
    # as soon as one factor's monodromy is one
    field = next(filter(None, (scalar_field(f[0]) for f in factors)), None)
    if field is not None:
        witness = [c if isinstance(c, FieldElement)
                   else field.from_rational(c) for c in coords]
    else:
        witness = [c.as_rational() if isinstance(c, FieldElement) else c
                   for c in coords]
    return CupLengthCertificate(k, factors, witness, m, degree, f_vector)


def _verify_certificate(cache: _CohomologyCache, cert: CupLengthCertificate):
    """Independent cochain-level re-check of a certificate.

    Every stored representative must be a cocycle of the unreduced
    coboundary; their product, formed afresh, must be no coboundary, but
    must differ from diff = product - sum witness_i rep_i by one.  The
    transfer maps of the reduced complex find a witness for each claim:

    * a chain c = ft(c_red), with c_red in the kernel of the transposed
      reduced delta_{d-1} and <f(product), c_red> != 0: a cycle that
      pairs nonzero with the product, which is then no coboundary;
    * pre = h(diff) + g(y), with y solving the reduced system
      delta_red y = f(diff): a cochain with delta_{d-1} pre = diff.

    Neither witness is trusted: c must be sent to zero by the transposed
    unreduced delta_{d-1} and pair nonzero with the product, and
    delta_{d-1} pre must equal diff, each checked over the rows of the
    unreduced coboundary that meet its vector's support.  A corrupted
    reduction can make the re-check fail, never pass.
    """
    X, z = cache.complex, cache.cocycle
    for a, d, w, _unit in cert.factors:
        if cache.coboundary(a, d).apply(w):
            raise InternalInconsistency(
                f"certificate representative in degree {d} is not a "
                "cocycle")
    m, d, product, _ = cert.factors[0]
    for a, e, w, _unit in cert.factors[1:]:
        product = twisted_cup(X, z, d, e, m, a, product, w)
        m *= a
        d += e
    _cocycles, _coords, f, _g = cache._basis(m, d)
    red = cache.twisted.reduced()
    columns = transpose(evaluate_rows(red.rows[d - 1], m), red.sizes[d - 1])
    delta = cache.coboundary(m, d - 1)
    reduced_product = f(product)
    dual = next((c for c in kernel(map(dict, columns), red.sizes[d])
                 if _pairing(reduced_product, c)), None)
    if dual is None:
        raise InternalInconsistency(
            "certificate product re-evaluated to a coboundary")
    cycle = red.ft(d, m)(dual)
    if delta.apply_transpose(cycle) or not _pairing(product, cycle):
        raise InternalInconsistency(
            "certificate product: the dual cycle found for it fails its "
            "check")
    mismatch = "certificate witness does not match the re-evaluated product"
    if len(cert.witness) != cache.dim(m, d):
        raise InternalInconsistency(mismatch)
    diff = product
    for i, x in enumerate(cert.witness):
        if x:
            diff = _add(diff, cache.rep(m, d, i), -x)
    y = express(columns, f(diff))
    if (y is None
            or delta.apply(_add(red.h(d, m)(diff), red.g(d - 1, m)(y)))
            != diff):
        raise InternalInconsistency(mismatch)
    if cert.nonunit_count() < 2:
        raise InternalInconsistency(
            "certificate has fewer than two non-unit monodromies")


def default_candidates(jumps: JumpReport, rng: random.Random):
    """Jump roots and their inverses, one number-field root per irrational
    factor, the unit monodromy, and a random rational surrogate pair."""
    cands = [Fraction(1)]
    for r in jumps.rational_roots():
        for c in (r, 1 / r):
            if c not in cands:
                cands.append(c)
    for f in jumps.irrational_factors():
        root = NumberField(f.primitive_int_coeffs()).generator()
        cands.append(root)
        cands.append(root.inverse())
    g = Fraction(rng.randint(2, 10 ** 6), rng.randint(2, 10 ** 6))
    while g in (1, -1) or g in cands:
        g = Fraction(rng.randint(2, 10 ** 6), rng.randint(2, 10 ** 6))
    cands.append(g)
    cands.append(1 / g)
    return cands


def crit_bound(twisted: TwistedComplex, *, seed=0):
    """Jump locus plus cup-length search over the default candidate set,
    up to three draws of the surrogate; the attempts share one cohomology
    cache.  The surrogate lies off the jump locus, so its classes are
    those the Novikov numbers count.  It is drawn again only while it has
    some, in positive degree and for a nonzero class: otherwise it never
    enters the search, and a new draw would repeat the same search.  A
    bound above 0 is always a product that ``cup_length`` found and
    re-checked."""
    jumps = jump_locus(twisted.reduced())
    rng = random.Random(seed)
    cache = _CohomologyCache(twisted)
    redraw = not twisted.z.is_zero() and any(jumps.generic[1:])
    for _attempt in range(3 if redraw else 1):
        last = cup_length(twisted, default_candidates(jumps, rng),
                          seed=seed, mode="probabilistic", cache=cache)
        if last.cl_lower_bound > 0:
            break
    last.jumps = jumps
    return last


def thm3_bound(twisted: TwistedComplex, base_classes, approximants, *,
               seed=0):
    """Best ``crit_bound`` over integer combinations of the base classes,
    each bound a certified product over that class's default candidates.

    Each approximant is a coefficient vector; the zero vector is rejected
    since it does not present a rank-1 class vanishing on the kernel.  The
    approximant that gives ``twisted``'s own cocycle is read on
    ``twisted``; every other one on the twisted complex of its class.
    """
    best = None
    for coeffs in approximants:
        coeffs = list(coeffs)
        if len(coeffs) != len(base_classes):
            raise NotInSpan("approximant length differs from base count")
        if all(c == 0 for c in coeffs):
            raise NotInSpan("zero approximant is not a rank-1 class")
        eta = base_classes[0].scaled_sum(list(zip(base_classes, coeffs)))
        rep = crit_bound(twisted if eta.values == twisted.z.values
                         else TwistedComplex(twisted.complex, eta),
                         seed=seed)
        if best is None or rep.cl_lower_bound > best.cl_lower_bound:
            best = rep
    return best


def _frac_str(c) -> str:
    """An int or a Fraction as "n" or "n/d"."""
    return f"{c.numerator}/{c.denominator}" if c.denominator != 1 \
        else str(c.numerator)


def jumps_json(jumps: JumpReport) -> list:
    return [{"q": e.q,
             "factor": [_frac_str(c) for c in e.factor.coeffs],
             "dim": e.dim}
            for e in jumps.entries]


def report_json(jumps: JumpReport, crit: CritBoundReport) -> dict:
    out = {
        "novikov": list(jumps.generic),
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


def _cochain_json(a: Scalar, w: dict, n: int) -> list:
    """A sparse cochain at monodromy a written out in full, n entries, its
    zeros as "0" or as the zero of a's number field."""
    field = scalar_field(a)
    out = [_scalar_json(field.zero()) if field else "0"] * n
    for j, c in w.items():
        out[j] = _scalar_json(c)
    return out


def certificate_json(cert):
    if cert is None:
        return None
    return {
        "k": cert.k,
        "factors": [{"monodromy": _scalar_json(a), "degree": d,
                     "representative": _cochain_json(a, w, cert.f_vector[d]),
                     "is_unit": u}
                    for a, d, w, u in cert.factors],
        "witness": None if cert.witness is None
        else [_scalar_json(c) for c in cert.witness],
        "total_degree": cert.total_degree,
        "product_monodromy": _scalar_json(cert.product_monodromy),
    }
