"""Exception hierarchy for the luresim package.

All library errors derive from LureError so callers can catch broadly.
Solver-flow errors carry enough context to diagnose which step failed.
"""

__all__ = [
    "DimensionMismatch",
    "EmptySet",
    "HypothesisFailed",
    "InfiniteDistance",
    "KernelInclusionViolated",
    "LureError",
    "MissingConstant",
    "NoPositiveEigenvalue",
    "NoSolution",
    "NonFiniteDrift",
    "NotAdmissible",
    "NotPSD",
    "NotSymmetric",
    "ParseError",
    "RangeConditionViolated",
    "SolverDiverged",
    "StepTooLarge",
    "StepTooSmall",
    "Unbounded",
    "ValidationError",
]


class LureError(Exception):
    """Base class for all luresim errors."""


class DimensionMismatch(LureError):
    """Array shapes are inconsistent with the declared dimensions."""


class NotSymmetric(LureError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class NotPSD(LureError):
    """A matrix required to be positive semidefinite is not."""


class NoPositiveEigenvalue(LureError):
    """No eigenvalue above the positive-part threshold exists."""


class KernelInclusionViolated(LureError):
    """ker(D + D^T) is not contained in ker(P B - C^T)."""


class RangeConditionViolated(LureError):
    """State-dependent offset does not map into rge(D + D^T)."""


class EmptySet(LureError):
    """The convex set is empty (detected at construction or projection)."""


class Unbounded(LureError):
    """The set is unbounded where a bounded one is required."""


class InfiniteDistance(LureError):
    """Hausdorff distance is infinite (mismatched unbounded faces)."""


class SolverDiverged(LureError):
    """Inner solver failed to reach tolerance within its iteration budget.

    Attributes
    ----------
    residual : float or None
        Best residual seen before giving up.
    step_index : int or None
        Index of the offending time step when raised from a simulation.
    partial : object or None
        Partial trajectory accumulated before the failure, when available.
    """

    def __init__(self, message, residual=None, step_index=None, partial=None):
        super().__init__(message)
        self.residual = residual
        self.step_index = step_index
        self.partial = partial


class NonFiniteDrift(LureError):
    """The drift returned NaN or an infinity during a simulation, or a
    drift-advanced input whose squared norm overflows.

    Attributes
    ----------
    step_index : int
        Index of the step whose drift-advanced input is not finite or
        overflows.
    t : float
        Time at which the drift was evaluated.
    """

    def __init__(self, message, step_index, t):
        super().__init__(message)
        self.step_index = step_index
        self.t = t


class NoSolution(LureError):
    """Exhaustive enumeration found no feasible activity pattern."""


class StepTooSmall(LureError):
    """Step size below the resolvable threshold."""


class StepTooLarge(LureError):
    """Step size violates the contraction requirement 1 - h*kappa > 0."""


class NotAdmissible(LureError):
    """Initial state admits no multiplier solving the static inclusion."""


class MissingConstant(LureError):
    """A constant required by a quantitative check is unavailable."""


class HypothesisFailed(LureError):
    """A structural hypothesis of a quantitative check does not hold."""


class ParseError(LureError):
    """Scenario file is not syntactically valid."""


class ValidationError(LureError):
    """Scenario data violates a standing assumption; message names it."""
