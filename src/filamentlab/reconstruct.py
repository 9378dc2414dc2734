"""Rebuild the filament position curve from the tangent trajectory.

The curve is recovered from x(s, t) = x0(s) + integral_0^t (v x v_s) dtau,
with the time integral taken by the trapezoid rule over recorded
snapshots.  x0 itself comes from cumulative trapezoid integration of v0
anchored at the wall, x0(0) = (0, 0, 0), which satisfies x0_3(0) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch
from .evolve import TimeSeries
from .geometry import Grid, VectorField, cross, deriv


@dataclass
class FilamentCurve:
    """Position samples x(s) at a single time."""

    grid: Grid
    positions: np.ndarray  # (n, 3)

    def __post_init__(self):
        if self.positions.shape != (self.grid.n, 3):
            raise GridMismatch("positions shape does not match grid")


def _cumtrapz(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative trapezoid along axis 0, starting at zero."""
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * dx * (y[1:] + y[:-1]), axis=0)
    return out


def integrate_tangent(v0: VectorField) -> FilamentCurve:
    """Antiderivative of the tangent field at t = 0, anchored at the origin.

    The ``+ 0.0`` turns a -0.0 partial sum into 0.0, so the written
    positions keep the sign of zero they have always had.
    """
    return FilamentCurve(v0.grid, _cumtrapz(v0.values, v0.grid.h) + 0.0)


def flow_velocity(v: VectorField) -> np.ndarray:
    """Pointwise v x v_s, the curve velocity induced by the tangent field."""
    return cross(v.values, deriv(v.values, v.grid, 1))


def reconstruct_positions(x0: FilamentCurve, series: TimeSeries) -> list:
    """The curve at each recorded time ``series.times[m]``, by trapezoid in t."""
    if series.grid != x0.grid:
        raise GridMismatch("curve and series grids differ")
    curves = [FilamentCurve(x0.grid, np.array(x0.positions, copy=True))]
    accum = np.zeros_like(x0.positions)
    w_prev = flow_velocity(series.snapshots[0])
    for m in range(1, len(series.times)):
        w = flow_velocity(series.snapshots[m])
        dt = series.times[m] - series.times[m - 1]
        accum = accum + 0.5 * dt * (w_prev + w)
        curves.append(FilamentCurve(x0.grid, x0.positions + accum))
        w_prev = w
    return curves


def endpoint_height(curve: FilamentCurve) -> float:
    """Wall-normal coordinate of the first node; stays ~0 on valid runs."""
    return float(curve.positions[0, 2])


def arclength_deviation(curve: FilamentCurve) -> float:
    """max_i | |x_{i+1} - x_i| / h - 1 |."""
    seg = np.diff(curve.positions, axis=0)
    lens = np.sqrt(np.sum(seg * seg, axis=1))
    return float(np.max(np.abs(lens / curve.grid.h - 1.0)))
