"""Rebuild the filament position curve from the tangent trajectory.

On the half line each curve is read off its own snapshot, whatever the
cadence: the cumulative trapezoid of v(t) in s, shifted so that the far
end, which is at rest, keeps x1 and x2 of x0, and the foot keeps x3 of x0
on the wall.  (Anchored at the far end, x3 would move with the integral of
v3, which RK4's projection does not keep: 2.6e-7 in one step at n = 65.)
A periodic curve has no resting end: x0 plus the trapezoid in t of v x v_s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch
from .evolve import TimeSeries
from .geometry import PERIODIC, Grid, VectorField, cross, cumtrapz, deriv, row_norms


@dataclass
class FilamentCurve:
    """Position samples x(s) at a single time."""

    grid: Grid
    positions: np.ndarray  # (n, 3)

    def __post_init__(self):
        if self.positions.shape != (self.grid.n, 3):
            raise GridMismatch("positions shape does not match grid")


def integrate_tangent(v0: VectorField) -> FilamentCurve:
    """Antiderivative of the tangent field at t = 0, anchored at the origin.

    The ``+ 0.0`` turns a -0.0 partial sum into 0.0, so the written
    positions keep the sign of zero they have always had.
    """
    return FilamentCurve(v0.grid, cumtrapz(v0.values, v0.grid.h) + 0.0)


def reconstruct_positions(x0: FilamentCurve, series: TimeSeries) -> list:
    """The curve at each recorded time ``series.times[m]``; ``curves[0]`` is a copy of ``x0``."""
    if series.grid != x0.grid:
        raise GridMismatch("curve and series grids differ")
    v = series.snapshots.transpose(1, 0, 2)  # (n, m, 3): cumtrapz and deriv run along s
    if x0.grid.kind == PERIODIC:
        w = cross(v, deriv(v, x0.grid, 1)).transpose(1, 0, 2)  # (m, n, 3): cumtrapz runs along t
        x = cumtrapz(w, np.diff(series.times)[:, None, None]).transpose(1, 0, 2)
        x += x0.positions[:, None]
    else:
        x = cumtrapz(v, x0.grid.h)  # laid out as the view, so each curve x[:, m] is one block
        shift = x[-1] - x0.positions[-1]  # I(t) - I(0): the far end is at rest
        shift[:, 2] = -x0.positions[0, 2]  # and the foot is on the wall
        x -= shift
    x[:, 0] = x0.positions
    return [FilamentCurve(x0.grid, x[:, m]) for m in range(len(series.times))]


def endpoint_height(curve: FilamentCurve) -> float:
    """Wall-normal coordinate of the first node; on the half line, x0's at every time."""
    return float(curve.positions[0, 2])


def arclength_deviation(curve: FilamentCurve) -> float:
    """max_i | |x_{i+1} - x_i| / h - 1 |."""
    seg = np.diff(curve.positions, axis=0)
    lens = row_norms(seg)
    return float(np.max(np.abs(lens / curve.grid.h - 1.0)))
