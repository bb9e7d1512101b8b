"""Exception hierarchy for contractflow."""


class ContractFlowError(Exception):
    """Base class for all contractflow errors."""


class DegenerateCurve(ContractFlowError):
    """Raw point data has (numerically) zero total length."""


class DuplicatePoint(ContractFlowError):
    """Consecutive raw points coincide."""


class StationaryPoint(ContractFlowError):
    """The velocity of an analytic parameterization vanishes on the grid."""


class OutOfDomain(ContractFlowError):
    """Parameter outside the curve's arc-length domain [0, L]."""


class InsufficientRegularity(ContractFlowError):
    """Finite-difference derivative estimates diverge under grid refinement."""


class InconsistentTangents(ContractFlowError):
    """The tangent columns of a curve are not the derivative of its points."""


class NotStronglyContracted(ContractFlowError):
    """Operation requires a strongly self-contracted curve."""


class BoundViolated(ContractFlowError):
    """Taylor-type lower bound fails; the regularity constant is too small.

    Carries the witness pair as ``(t, s, lhs, rhs)`` in ``args[1]`` when
    available.
    """


class NonPositiveC0(ContractFlowError):
    """A reparameterization plan needs a strictly positive c0."""


class HypothesisViolated(ContractFlowError):
    """The zeta-profile pairwise hypothesis fails on the grid."""


class DivergentA(ContractFlowError):
    """The integral of zeta over [0, L) does not converge."""


class QuadratureBudgetExceeded(ContractFlowError):
    """Adaptive quadrature used its budget of integrand evaluations before
    reaching its tolerance (the integrand is too noisy for it)."""


class HorizonExceedsT(ContractFlowError):
    """Requested reparameterization horizon exceeds the total flow time."""


class HorizonOverflow(ContractFlowError):
    """The flow horizon theta(t_{N-2}) is not finite in float64."""


class ConditionCFailed(ContractFlowError):
    """Jet does not satisfy the first-order convexity condition."""


class BlowUp(ContractFlowError):
    """Trajectory norm exploded; the gradient oracle is not a convex flow."""


class IdentityViolated(ContractFlowError):
    """Energy trace identity fails beyond tolerance."""


class ConfigError(ContractFlowError):
    """Invalid pipeline configuration."""
