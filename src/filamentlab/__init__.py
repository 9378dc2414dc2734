"""Numerical laboratory for vortex filament motion in the half space.

Workflow: check boundary compatibility of half-line tangent data, evolve
the Schroedinger-map flow on s >= 0 with the wall closed by the mirror
ghost node of the reflected whole-line solution, and reconstruct the
filament curve -- with every provable property of the construction,
measured on the whole-line extension, monitored as a runtime invariant.
"""

from .compat import CompatibilityReport, check_compat, get_family
from .evolve import SimConfig, TimeSeries, solve_half_space, solve_whole_line
from .geometry import (
    E3,
    Grid,
    VectorField,
    cross,
    deriv,
    normalize_field,
    one_sided_deriv_at_zero,
)
from .hasimoto import frenet, hasimoto_psi
from .reconstruct import FilamentCurve, integrate_tangent, reconstruct_positions
from .reflect import apply_T, derivative_jump_residual, extend, restrict, symmetry_residual

__version__ = "0.1.0"

__all__ = [
    "CompatibilityReport",
    "E3",
    "FilamentCurve",
    "Grid",
    "SimConfig",
    "TimeSeries",
    "VectorField",
    "apply_T",
    "check_compat",
    "cross",
    "deriv",
    "derivative_jump_residual",
    "extend",
    "frenet",
    "get_family",
    "hasimoto_psi",
    "integrate_tangent",
    "normalize_field",
    "one_sided_deriv_at_zero",
    "reconstruct_positions",
    "restrict",
    "solve_half_space",
    "solve_whole_line",
    "symmetry_residual",
]
