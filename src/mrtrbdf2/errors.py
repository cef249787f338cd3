"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(ToolkitError):
    """Operands have incompatible shapes."""


class SingularMatrix(ToolkitError):
    """A pivot collapsed during factorization; the linear system is (numerically) singular."""


class NonConvergence(ToolkitError):
    """An iterative computation hit its iteration cap without meeting its tolerance."""


class NonFiniteOutput(ToolkitError):
    """A right-hand-side or Jacobian evaluation produced NaN/inf (solution blow-up)."""


class NewtonDivergence(ToolkitError):
    """The Newton iteration stalled or diverged; the caller should retry with a smaller step."""


class PoleEncountered(ToolkitError):
    """The stability function was evaluated at (or too close to) a pole."""


class OffsetOutOfRange(ToolkitError):
    """An interpolation offset lies outside the step interval."""


class DegenerateNodes(ToolkitError):
    """Interpolation nodes coincide, so the interpolant is not defined."""


class EmptyActiveSet(ToolkitError):
    """A step-size proposal was requested over an empty component set."""


class StepFloorReached(ToolkitError):
    """The step size hit its lower bound (or the rejection cap) while still failing."""


class SafetyCapExceeded(ToolkitError):
    """A run spent its budget of step attempts (``MultirateConfig.max_steps``)."""


class UnknownSystem(ToolkitError):
    """Requested model system name is not one of the built-in presets."""


class MissingSpatialMetadata(ToolkitError):
    """Courant numbers were requested for a preset without grid/flux information."""
