"""Exception types shared across the package."""


class FilamentError(Exception):
    """Base class for all package errors."""


class GridTooSmall(FilamentError):
    """A finite-difference stencil does not fit on the grid."""


class OrderTooHigh(FilamentError, ValueError):
    """A derivative order beyond the supported boundary-stencil table."""


class DegenerateVector(FilamentError):
    """A sample with norm too small to renormalize safely."""


class NotUnitField(FilamentError):
    """Input data is not (close to) a unit tangent field."""


class GridNotSymmetric(FilamentError):
    """Operation requires a symmetric whole-line grid with a node at s = 0."""


class GridMismatch(FilamentError):
    """Two fields/curves live on different grids."""


class UnknownFamily(FilamentError):
    """A family spec that names no builtin family, or a parameter it cannot take."""


class UnknownOracle(FilamentError):
    """Unrecognized oracle case name."""


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


class MaskFragmented(FilamentError):
    """Curvature mask is not a contiguous region; phase integral undefined."""


class InsufficientSnapshots(FilamentError):
    """Too few snapshots for a centered time derivative."""
