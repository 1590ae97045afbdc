"""Exception types shared across the package."""


class HasseWeilError(Exception):
    """Base class for all package errors."""


class SingularCurve(HasseWeilError):
    """Weierstrass coefficients with vanishing discriminant."""


class PointNotOnCurve(HasseWeilError):
    """Affine coordinates that do not satisfy the curve equation."""


class NotPrime(HasseWeilError):
    """A prime was required."""


class BadReduction(HasseWeilError):
    """Operation requires good reduction at the given prime."""


class OutsideConvergenceRegion(HasseWeilError):
    """Euler-product / Dirichlet-series evaluation outside Re(s) > 3/2."""


class PrecisionExhausted(HasseWeilError):
    """Requested accuracy could not be certified at the working precision."""


class DependentGenerators(HasseWeilError):
    """Height Gram matrix is numerically singular."""


class NotNilpotent(HasseWeilError):
    """Monodromy operator must be nilpotent."""


class SingularBasis(HasseWeilError):
    """Lattice basis matrix is not invertible."""


class BSGSFailure(HasseWeilError):
    """Baby-step giant-step order finding left no or several group orders."""
