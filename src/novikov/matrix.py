"""Smith forms over the Laurent ring Q[t, 1/t].

Q[t, 1/t] is a principal ideal domain, so every matrix over it is
equivalent to a diagonal of elementary divisors d_1 | d_2 | ... | d_r,
kept here monic and with a nonzero constant term (powers of t are units).
The rank of the matrix evaluated at any point a != 0 equals the number of
divisors that do not vanish at a; this is the exactness backbone of the
jump-locus computations.  ``twisted._laurent_smith`` computes them on the
sparse reduced rows.
"""

from __future__ import annotations

from .numfield import Scalar
from .polyq import Poly


class SmithForm:
    """Elementary divisors d_1 | ... | d_r (monic, d_i(0) != 0) and the
    generic rank."""

    def __init__(self, divisors):
        self.divisors = list(divisors)
        self.rank = len(self.divisors)

    def rank_at(self, a: Scalar) -> int:
        """Rank of the matrix at t = a, for a != 0."""
        return sum(1 for d in self.divisors if d.eval(a))

    def rank_at_factor_root(self, factor: Poly) -> int:
        """Rank at any root of ``factor``; requires each divisor to be
        either divisible by or coprime to the factor (gcd-free inputs)."""
        return sum(1 for d in self.divisors if not factor.divides(d))

    def __repr__(self):
        return f"SmithForm({self.divisors})"


# perfbench/tracer.py wraps ``snf`` and ``rank_at`` by name and fails on a
# missing one, as it does for ``kernels.rank_int`` and the ``rank_*``
# aliases of ``linalg``.  Nothing calls them: each is its own function, so
# that wrapping one rebinds no other name.

def snf(m):
    raise NotImplementedError("Smith forms are ReducedComplex.smith's")


def rank_at(m, a):
    raise NotImplementedError("ranks at a point are ReducedComplex.dim_at's")
