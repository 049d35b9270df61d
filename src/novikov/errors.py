"""Exception types shared across the package."""


class NovikovError(Exception):
    """Base class for all package errors."""


class ZeroMonodromy(NovikovError):
    """A monodromy value of 0 was supplied where a unit of C* is required."""


class ZeroPolynomial(NovikovError):
    """The zero polynomial was supplied to an operation that excludes it."""


class ZeroDivisorEncountered(NovikovError):
    """Inversion modulo a reducible minimal polynomial failed.

    Carries the discovered nontrivial factor, proving the modulus was not
    irreducible.
    """

    def __init__(self, factor):
        self.factor = factor
        super().__init__(f"zero divisor encountered; modulus factor: {factor}")


class FieldMismatch(NovikovError):
    """Operands belong to different number fields."""


class MalformedInput(NovikovError):
    """A JSON space document does not have the expected shape."""


class MalformedSimplex(NovikovError):
    """A simplex tuple contains a repeated vertex."""


class DegreeOutOfRange(NovikovError):
    """Requested cochain degree outside 0..dim."""


class NotACocycle(NovikovError):
    """An edge assignment violates the cocycle condition on some triangle."""

    def __init__(self, triangle):
        self.triangle = triangle
        super().__init__(f"cocycle condition fails on triangle {triangle}")


class MissingEdge(NovikovError):
    """An edge of the complex has no assigned cocycle value."""


class NotAChainComplex(NovikovError):
    """A constructed differential does not square to zero."""


class NotAnIsomorphism(NovikovError):
    """A vertex map does not define a simplicial isomorphism."""


class ExponentTooLarge(NovikovError):
    """A power t**k beyond ``twisted.MAX_EXPONENT`` was to be evaluated."""


class ParameterOutOfRange(NovikovError):
    """A generator parameter is outside its allowed range."""


class DimensionMismatch(NovikovError):
    """Connected-sum operands have different dimensions."""


class GluingError(NovikovError):
    """Regluing a cut merged or collapsed a simplex outside the wall, or
    the two copies of a wall edge carry different values."""


class NotAManifoldInput(NovikovError):
    """An operation requiring the manifold flag received a non-manifold."""


class NotInSpan(NovikovError):
    """An approximant class is not a valid integer combination of the base."""


class InternalInconsistency(NovikovError):
    """Two independent computations of the same quantity disagreed."""
