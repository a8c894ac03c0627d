"""Exception hierarchy shared by all robust-mv modules."""


class RobustMVError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(RobustMVError):
    """Array arguments disagree on the number of assets or jump types."""


class NotPositiveDefinite(RobustMVError):
    """A covariance or correlation matrix failed Cholesky factorization."""


class InvalidBounds(RobustMVError):
    """Uncertainty-set bounds are empty, unordered or out of range."""


class AssumptionViolated(RobustMVError):
    """Input violates a standing assumption of the two-asset case solver."""


class BudgetExceeded(RobustMVError):
    """The numeric worst-case search would exceed its evaluation cap."""


class NonBankruptcyViolated(RobustMVError):
    """A strategy breaches the per-jump-type admissibility interval, or a
    simulated wealth path hit zero under jump dynamics."""


class DerivativeFailure(RobustMVError):
    """A finite-difference step underflowed (stencil width rounded to zero)."""


class SchemaError(RobustMVError):
    """A problem file does not conform to the strict JSON schema."""
