"""Univariate polynomials with exact rational coefficients.

A polynomial is represented as a tuple of coefficients, index = exponent,
with a nonzero leading coefficient (the zero polynomial is the empty
tuple).  A coefficient is an ``int`` or a ``Fraction``, never a float: an
integral value stays an int, and a Fraction appears only where a division
by a leading coefficient other than +-1 makes one.  Every such division
is exact (``_reciprocal``), since two ints divided with ``/`` would give a
float.  Values, equality and hashing do not depend on the mix, because an
int and the equal Fraction compare and hash alike.  The Smith forms over
Q[t, 1/t] divide in Q[t] after writing each Laurent entry as a power of t
times a polynomial, and their divisors are polynomials.  Gcds run over Z,
by ``poly_gcd``'s primitive remainder sequence.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ZeroPolynomial


class Poly:
    """Immutable univariate polynomial over Q."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def monomial(exp: int, c=1) -> "Poly":
        return Poly([0] * exp + [c])

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def constant_term(self):
        if not self.coeffs:
            return 0
        return self.coeffs[0]

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def divmod(self, other: "Poly"):
        """Euclidean division; other must be nonzero.

        The quotient and remainder have int or Fraction coefficients, never
        floats.  Each quotient coefficient is a coefficient of the running
        remainder times the exact reciprocal of other's lead: +-1 itself,
        so integer operands divided by a lead of +-1 stay ints, or else a
        Fraction.  Only the divisor's nonzero terms are subtracted."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        divisor = other.coeffs
        terms = [(j, b) for j, b in enumerate(divisor) if b]
        inverse = _reciprocal(divisor[-1])
        rem = list(self.coeffs)
        quot = [0] * (dq + 1)
        top = other.degree
        for k in range(dq, -1, -1):
            c = rem[k + top] * inverse
            if c:
                quot[k] = c
                for j, b in terms:
                    rem[k + j] -= c * b
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def divides(self, other: "Poly") -> bool:
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    def eval(self, x):
        """Horner evaluation; x may be a Fraction or any ring element."""
        acc = None
        for c in reversed(self.coeffs):
            if acc is None:
                acc = c
            else:
                acc = acc * x + c
        if acc is None:
            return 0
        return acc

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Poly":
        """self divided by its lead, exactly; self itself when the lead is
        1, and the zero polynomial as it is."""
        if self.is_zero() or self.coeffs[-1] == 1:
            return self
        return self * _reciprocal(self.coeffs[-1])

    # -- integer normal forms ----------------------------------------------

    def primitive_int_coeffs(self) -> tuple:
        """Integer coefficients after clearing denominators and content.

        The sign is normalized so the leading coefficient is positive.
        Returns () for the zero polynomial.
        """
        if self.is_zero():
            return ()
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * den) for c in self.coeffs]
        g = math.gcd(*ints)
        ints = [c // g for c in ints]
        if ints[-1] < 0:
            ints = [-c for c in ints]
        return tuple(ints)

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                if i == 0:
                    terms.append(str(c))
                elif i == 1:
                    terms.append(f"{c}*t" if c != 1 else "t")
                else:
                    terms.append(f"{c}*t^{i}" if c != 1 else f"t^{i}")
        return "Poly(" + " + ".join(terms) + ")"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd in Q[t], by the primitive remainder sequence over Z: each
    remainder is a pseudo-remainder with its content divided out, where
    Euclid over Q lets numerators and denominators grow at every step.
    Only the last remainder is made monic."""
    a, b = a.primitive_int_coeffs(), b.primitive_int_coeffs()
    while b:
        a, b = b, _primitive_remainder(a, b)
    return Poly(a).monic()


def _primitive_remainder(a: tuple, b: tuple) -> tuple:
    """The primitive part of a pseudo-remainder of the integer coefficient
    tuples a by b != (): the top term is cancelled by r -> lead(b) * r -
    c * t**shift * b while deg r >= deg b, and the result is divided by
    the gcd of its coefficients; () if b divides a."""
    r = list(a)
    *low, lead = b
    n = len(low)
    while len(r) > n:
        c = r.pop()
        if c:
            shift = len(r) - n
            r = [x * lead for x in r]
            for j, y in enumerate(low):
                r[shift + j] -= c * y
    while r and not r[-1]:
        r.pop()
    g = math.gcd(*r)
    return tuple(x // g for x in r)


def _reciprocal(c):
    """1 / c for a nonzero int or Fraction, exactly: +-1 is its own
    reciprocal, as an int, and any other c gives a Fraction.  Never
    ``1 / c`` on an int c, which would be a float."""
    if c == 1 or c == -1:
        return int(c)
    return Fraction(c.denominator, c.numerator)


def rational_roots(p: Poly):
    """All rational roots of p != 0, sorted, via the rational root test:
    a candidate is evaluated only if it passes the divisibility test
    below."""
    if p.is_zero():
        raise ZeroPolynomial("rational_roots of the zero polynomial")
    ints = list(p.primitive_int_coeffs())
    shift = 0
    while ints and ints[0] == 0:
        ints.pop(0)
        shift += 1
    roots = []
    if shift:
        roots.append(Fraction(0))
    if len(ints) <= 1:
        return roots
    a0, an = abs(ints[0]), abs(ints[-1])
    q = Poly(ints)
    # each candidate +-num/den is taken once, in lowest terms.  A root r/s
    # in lowest terms makes q = (s*t - r) * S with S integral (Gauss's
    # lemma), so s - r divides q(1) and s + r divides q(-1)
    at_one, at_minus_one = q.eval(1), q.eval(-1)
    dens = _divisors(an)
    for num in _divisors(a0):
        for den in dens:
            if math.gcd(num, den) != 1:
                continue
            for r in (num, -num):
                if (den != r and at_one % (den - r)
                        or den != -r and at_minus_one % (den + r)):
                    continue
                # an integral candidate is tried as an int: q stays in ints
                cand = Fraction(r, den)
                if q.eval(r if den == 1 else cand) == 0:
                    roots.append(cand)
    return sorted(roots)


def linear_factor(r) -> Poly:
    """t - r for a rational r, with an int constant term when r is
    integral, so that dividing an integer polynomial by it stays in ints."""
    return Poly([-r.numerator if r.denominator == 1 else -r, 1])


def _divisors(n: int):
    """The positive divisors of n != 0, sorted: the products of the prime
    powers of |n|."""
    out = [1]
    for p, e in _factor(abs(n)).items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


def squarefree_factors(p: Poly):
    """Squarefree decomposition with rational roots split off.

    Returns a list of (monic factor, multiplicity) with pairwise coprime,
    squarefree factors whose product with multiplicities equals p up to a
    nonzero constant.  Constants yield the empty list.
    """
    if p.is_zero():
        raise ZeroPolynomial("squarefree_factors of the zero polynomial")
    p = p.monic()
    out = []
    # Yun's algorithm
    dp = p.derivative()
    g = poly_gcd(p, dp)
    w = p // g
    mult = 1
    while not w.is_constant():
        y = poly_gcd(w, g)
        factor = w // y
        if not factor.is_constant():
            out.extend(_split_rational_roots(factor, mult))
        w = y
        g = g // y
        mult += 1
    return out


def _split_rational_roots(f: Poly, mult: int):
    """Split the linear factors of a squarefree monic f off its residue."""
    pieces = []
    for r in rational_roots(f):
        lin = linear_factor(r)
        f = f // lin
        pieces.append((lin, mult))
    if not f.is_constant():
        pieces.append((f.monic(), mult))
    return pieces


def coprime_basis(polys: Sequence[Poly]):
    """Gcd-free basis: pairwise coprime monic polynomials such that every
    nonconstant input is, up to a constant, a product of basis elements.

    Inputs must be nonzero; constants are dropped.  Repeatedly splits a
    non-coprime pair (a, b) into {gcd, a/gcd, b/gcd}; the total degree
    strictly decreases, so this terminates.
    """
    work = []
    for p in polys:
        p = p.monic()
        if not p.is_constant() and p not in work:
            work.append(p)
    done = False
    while not done:
        done = True
        for i in range(len(work)):
            for j in range(i + 1, len(work)):
                g = poly_gcd(work[i], work[j])
                if g.is_constant():
                    continue
                a, b = work[i] // g, work[j] // g
                repl = [q for q in (g, a, b) if not q.is_constant()]
                rest = [work[k] for k in range(len(work)) if k not in (i, j)]
                work = rest
                for q in repl:
                    if q not in work:
                        work.append(q)
                done = False
                break
            if not done:
                break
    return work


# Trial division runs below _TRIAL; the strong probable-prime test to the
# first 13 prime bases proves primality below _PROVEN (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", 2015).
_TRIAL = 1000
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PROVEN = 3317044064679887385961981


def _trial_divide(n: int, out: dict, stop: int) -> int:
    """Divide out of n every d with 2 <= d < stop and d*d <= n, adding
    the prime exponents to out; return what is left."""
    p = 2
    while p * p <= n and p < stop:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = out.get(p, 0) + e
        p += 1
    return n


def _composite_witnessed(n: int) -> bool:
    """Whether some base of _BASES shows the odd n > 41 composite."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return True
    return False


def _pollard_brent(n: int) -> int:
    """A proper divisor of the odd composite n, by Brent's variant of
    Pollard's rho on t -> t^2 + c, c = 1, 2, ... until one splits n."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:   # the batch overshot: step back one term at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _factor(n: int) -> dict:
    """{prime: exponent} of n >= 1, primes ascending.

    Trial division below _TRIAL; each cofactor left is then prime if it
    is below _TRIAL**2, split by Pollard-Brent rho if a base shows it
    composite, proven prime below _PROVEN, and trial-divided otherwise,
    so no primality is ever assumed."""
    out = {}
    n = _trial_divide(n, out, _TRIAL)
    todo = [n] if n > 1 else []
    while todo:
        m = todo.pop()
        if m >= _TRIAL * _TRIAL and _composite_witnessed(m):
            d = _pollard_brent(m)
            todo += [d, m // d]
        elif m < _PROVEN:
            out[m] = out.get(m, 0) + 1
        else:
            m = _trial_divide(m, out, m)
            if m > 1:
                out[m] = out.get(m, 0) + 1
    return dict(sorted(out.items()))


def _totient(n: int) -> int:
    """Euler's phi of n >= 1."""
    for p in _factor(n):
        n = n // p * (p - 1)
    return n


def cyclotomic(d: int) -> Poly:
    """The d-th cyclotomic polynomial Phi_d, of degree phi(d).

    For d > 1 it is the product over squarefree k | d of (1 - t^(d/k))
    to the power mu(k), read as a power series up to t^phi(d): each factor
    multiplies by 1 - t^e or divides by it, in ints."""
    if d == 1:
        return Poly([-1, 1])
    n = _totient(d)
    primes = list(_factor(d))
    c = [1] + [0] * n
    for mask in range(1 << len(primes)):
        k = math.prod(p for i, p in enumerate(primes) if mask >> i & 1)
        e = d // k
        if bin(mask).count("1") % 2 == 0:
            for i in range(n, e - 1, -1):
                c[i] -= c[i - e]
        else:
            for i in range(e, n + 1):
                c[i] += c[i - e]
    return Poly(c)


def cyclotomic_factor(p: Poly):
    """The least d such that Phi_d divides p and has a smaller degree, or
    None.  Every d with phi(d) < deg p is tried; since phi(d) >=
    sqrt(d / 2), all of them lie below 2 deg(p)^2."""
    n = p.degree
    for d in range(1, 2 * n * n):
        if _totient(d) < n and cyclotomic(d).divides(p):
            return d
    return None
