"""Exception types shared across the package."""


class FilamentError(Exception):
    """Base class for all package errors."""


class GridTooSmall(FilamentError):
    """A finite-difference stencil does not fit on the grid."""


class SpacingOutOfRange(FilamentError, ValueError):
    """A grid length, or the spacing it gives, that no run can use."""


class DegenerateVector(FilamentError):
    """A sample with norm too small to renormalize safely."""


class GridMismatch(FilamentError):
    """A grid of the wrong kind for the operation, or fields/curves on different grids."""


class UnknownFamily(FilamentError):
    """A family spec that names no builtin family, or a parameter it cannot take."""


class CompatibilityRejected(FilamentError):
    """Initial data failed the boundary compatibility gate in strict mode."""


class FarFieldViolation(FilamentError):
    """Initial data does not approach e3 at the truncated far end."""


class StabilityViolated(FilamentError):
    """Requested time step exceeds the explicit stability cap."""


class FixedPointDiverged(FilamentError):
    """Implicit midpoint fixed-point iteration failed to converge."""


class NonFiniteState(FilamentError, ValueError):
    """A solve produced a non-finite value: a numerical failure, not bad input."""
