"""Time integration of the tangent-field flow v_t = v x v_ss.

Two schemes:

``rk4_project``
    Classical four-stage explicit step followed by pointwise projection
    back to the unit sphere.  Default; norm exact to roundoff.

``midpoint_fixedpoint``
    Implicit midpoint solved by fixed-point iteration.  Conserves every
    sample norm without projection because the update is orthogonal to
    the midpoint value.

The half-space solve is: gate the data through the compatibility check,
extend to the whole line, evolve there, and restrict each snapshot back
to s >= 0.  The boundary condition v(0, t) = e3 is never imposed; it
emerges from the reflection symmetry, which is monitored, not enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .compat import CompatibilityReport, check_compat
from .errors import (
    CompatibilityRejected,
    FarFieldViolation,
    FixedPointDiverged,
    NotUnitField,
    StabilityViolated,
)
from .geometry import (
    E3,
    Grid,
    VectorField,
    cross,
    deriv,
    normalize_field,
)
from .reflect import extend, restrict, symmetry_residual

#: Explicit four-stage stability cap on dt/h^2 for the dispersive rhs.
STABILITY_FACTOR = 0.28

#: Default dt/h^2; leaves margin below the cap for the nonlinearity.
DEFAULT_DT_FACTOR = 0.1

RK4_PROJECT = "rk4_project"
MIDPOINT_FIXEDPOINT = "midpoint_fixedpoint"


@dataclass(frozen=True)
class SimConfig:
    """Run settings; grid and initial data are supplied separately."""

    t_final: float = 1.0
    dt: float | None = None  # None -> DEFAULT_DT_FACTOR * h^2
    scheme: str = RK4_PROJECT
    snapshot_every: int = 50
    monitor_every: int = 50
    tol_boundary: float = 1e-10
    fp_tol: float = 1e-14
    fp_max_iter: int = 50
    check_order: int = 1
    compat_tol: float = 1e-6
    farfield_tol: float = 1e-3
    strict: bool = True

    def __post_init__(self):
        if self.t_final <= 0.0:
            raise ValueError("t_final must be positive")
        if self.scheme not in (RK4_PROJECT, MIDPOINT_FIXEDPOINT):
            raise ValueError(f"unknown scheme {self.scheme!r}")

    def resolve_dt(self, h: float) -> float:
        dt = self.dt if self.dt is not None else DEFAULT_DT_FACTOR * h * h
        cap = stability_cap(h)
        if dt > cap:
            raise StabilityViolated(f"dt={dt:g} above cap {cap:g} (h={h:g})")
        return dt


def stability_cap(h: float) -> float:
    return STABILITY_FACTOR * h * h


@dataclass
class TimeSeries:
    """Recorded trajectory: snapshots plus per-monitor telemetry rows."""

    grid: Grid
    times: list = dc_field(default_factory=list)
    snapshots: list = dc_field(default_factory=list)
    telemetry: list = dc_field(default_factory=list)  # dict rows

    def record(self, t: float, u: VectorField):
        if self.times and t <= self.times[-1]:
            raise ValueError("snapshot times must increase strictly")
        self.times.append(t)
        self.snapshots.append(u)

    def final(self) -> VectorField:
        return self.snapshots[-1]


@dataclass
class HalfSpaceRun:
    """Result of a half-space solve: gate report plus the s >= 0 trajectory.

    ``half.telemetry`` rows are measured on the whole-line state, so they
    carry the symmetry and boundary residuals.
    """

    report: CompatibilityReport
    half: TimeSeries


def rhs(u: VectorField) -> VectorField:
    """Discrete v x v_ss; Dirichlet clamp zeroes truncation-edge updates."""
    out = cross(u.values, deriv(u, 2).values)
    if u.grid.kind != "periodic":
        out[0] = 0.0
    if u.grid.kind == "whole":
        out[-1] = 0.0
    return VectorField(u.grid, out)


def _step_rk4(u: VectorField, dt: float) -> VectorField:
    v = u.values
    k1 = rhs(u).values
    k2 = rhs(VectorField(u.grid, v + (0.5 * dt) * k1)).values
    k3 = rhs(VectorField(u.grid, v + (0.5 * dt) * k2)).values
    k4 = rhs(VectorField(u.grid, v + dt * k3)).values
    incr = (k1 + k4) + 2.0 * (k2 + k3)
    return VectorField(u.grid, v + (dt / 6.0) * incr)


def _step_midpoint(u: VectorField, dt: float, tol: float, max_iter: int) -> VectorField:
    v = u.values
    new = v + dt * rhs(u).values
    for _ in range(max_iter):
        mid = VectorField(u.grid, 0.5 * (v + new))
        cand = v + dt * rhs(mid).values
        inc = float(np.max(np.abs(cand - new)))
        new = cand
        if inc <= tol:
            return VectorField(u.grid, new)
    raise FixedPointDiverged(
        f"midpoint iteration stalled above tol={tol:g} after {max_iter} iters"
    )


def step(u: VectorField, dt: float, cfg: SimConfig) -> VectorField:
    """One time step under the configured scheme (no projection here)."""
    cap = stability_cap(u.grid.h)
    if dt > cap:
        raise StabilityViolated(f"dt={dt:g} above cap {cap:g}")
    if cfg.scheme == RK4_PROJECT:
        return _step_rk4(u, dt)
    return _step_midpoint(u, dt, cfg.fp_tol, cfg.fp_max_iter)


def bending_energy(u: VectorField) -> float:
    """Trapezoid value of the integral of |u_s|^2 ds (diagnostic)."""
    us = deriv(u, 1).values
    dens = np.sum(us * us, axis=1)
    if u.grid.kind == "periodic":
        return float(np.sum(dens) * u.grid.h)
    return float(np.trapezoid(dens, dx=u.grid.h))


def _telemetry_row(step_idx: int, t: float, u: VectorField) -> dict:
    row = {
        "step": step_idx,
        "time": t,
        "norm_dev": u.unit_deviation(),
        "energy": bending_energy(u),
    }
    if u.grid.kind == "whole":
        row["symmetry"] = symmetry_residual(u)
        row["boundary"] = float(np.linalg.norm(u.values[u.grid.center] - E3))
    return row


def solve_whole_line(
    u0: VectorField,
    cfg: SimConfig,
    progress: Callable[[int, int], None] | None = None,
) -> TimeSeries:
    """Advance u_t = u x u_ss on a whole-line or periodic grid."""
    if u0.unit_deviation() > 1e-6:
        raise NotUnitField("initial data must be unit length (within 1e-6)")
    grid = u0.grid
    dt = cfg.resolve_dt(grid.h)
    nsteps = max(1, math.ceil(cfg.t_final / dt - 1e-12))
    series = TimeSeries(grid=grid)
    u = u0
    series.record(0.0, u)
    series.telemetry.append(_telemetry_row(0, 0.0, u))
    for k in range(1, nsteps + 1):
        dt_k = dt if k < nsteps else cfg.t_final - (nsteps - 1) * dt
        u = step(u, dt_k, cfg)
        if cfg.scheme == RK4_PROJECT:
            u = normalize_field(u)
        t = k * dt if k < nsteps else cfg.t_final
        if k % cfg.monitor_every == 0 or k == nsteps:
            series.telemetry.append(_telemetry_row(k, t, u))
        if k % cfg.snapshot_every == 0 or k == nsteps:
            series.record(t, u)
        if progress is not None:
            progress(k, nsteps)
    return series


def farfield_deviation(v0: VectorField, window: float = 0.1) -> float:
    """Mean |v0 - e3| over the outer ``window`` fraction of the grid."""
    m = max(2, int(window * v0.grid.n))
    tail = v0.values[-m:] - E3
    return float(np.mean(np.sqrt(np.sum(tail * tail, axis=1))))


def solve_half_space(
    v0: VectorField,
    cfg: SimConfig,
    resampler=None,
    progress=None,
) -> HalfSpaceRun:
    """Gate, extend, evolve on the whole line, restrict each snapshot."""
    report = check_compat(v0, cfg.check_order, cfg.compat_tol, resampler)
    if cfg.strict and not report.passed:
        raise CompatibilityRejected(
            f"orders {report.failed_orders()} failed at tol={cfg.compat_tol:g}"
        )
    far = farfield_deviation(v0)
    if far > cfg.farfield_tol:
        raise FarFieldViolation(
            f"outer-window mean |v0 - e3| = {far:.3g} exceeds {cfg.farfield_tol:g}"
        )
    whole = solve_whole_line(extend(v0), cfg, progress=progress)
    half = TimeSeries(
        grid=v0.grid,
        times=whole.times,
        snapshots=[restrict(snap) for snap in whole.snapshots],
        telemetry=whole.telemetry,
    )
    return HalfSpaceRun(report=report, half=half)
