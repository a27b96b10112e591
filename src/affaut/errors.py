"""Exception types shared by every module in the package."""


class AlgebraError(Exception):
    """Base class for all domain errors raised by this package."""


class RingMismatch(AlgebraError):
    """Two values from different rings were combined."""


class NotAUnit(AlgebraError):
    """Inversion was requested for a non-invertible element."""


class NotDivisible(AlgebraError):
    """An exact division by a power of q failed."""


class PreconditionFailed(AlgebraError):
    """An operation was called outside its stated domain."""


class InfiniteCoefficientRing(AlgebraError):
    """Uniform sampling or exhaustive enumeration needs a finite ring."""


class NotAnAutomorphism(PreconditionFailed):
    """The polynomial is not invertible under composition."""


class NoSolution(AlgebraError):
    """A coefficient system admitted no solution (should not happen for
    genuine automorphisms; reaching this indicates corrupted input)."""


class KernelMismatch(AlgebraError):
    """A map claimed to lie in a congruence kernel does not."""


class ShapeMismatch(AlgebraError):
    """Coefficients violate the divisibility pattern of the requested
    subgroup shape."""


class IntegralityViolation(AlgebraError):
    """An exact division that is guaranteed integral by construction
    failed; indicates a bug rather than bad input."""


class NotAbelian(AlgebraError):
    """Kernel parameters leave the regime where commutativity (and hence
    linearity of the conjugation action) is guaranteed."""


class TooLarge(AlgebraError):
    """The input needs more work than the package's fixed budget allows,
    such as a factorization beyond Pollard rho's step budget; the message
    names a cheaper route."""
