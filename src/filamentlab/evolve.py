"""Time integration of the tangent-field flow v_t = v x v_ss.

Two schemes:

``rk4_project``
    Classical four-stage explicit step followed by pointwise projection
    back to the unit sphere.  Default; norm exact to roundoff.

``midpoint_fixedpoint``
    Implicit midpoint solved by fixed-point iteration on the midpoint
    value, m <- v + (dt/2) f(m), then v + dt f(m).  Conserves every
    sample norm without projection because the update is orthogonal to
    the midpoint value.  Within a solve a step starts the iteration from
    the linear extrapolation 2 f_1 - f_2 of the converged slopes f(m) of
    the last two steps, in place of the Euler slope f(v), and so saves
    the ``rhs`` call of the Euler start and, on smooth data, iterations.
    Linearised about e3, the top mode turns by theta = 4 dt/h^2 per step,
    and the extrapolation scales a mode's start error by |1 - e^{-i
    theta}|^2, which is at most 1 exactly when theta <= pi/3, that is
    dt <= (pi/12) h^2.  Above that bound, and on the first two steps, the
    start is f(v).

The half-space solve gates the data through the compatibility check and
evolves the s >= 0 nodes only.  The node at s = -h of the reflected
whole-line solution is always -bar(v(h)), so ``rhs`` closes the stencil
at s = 0 with that one mirror ghost node: the half-line operator is the
whole-line operator restricted, bit for bit.  The boundary condition
v(0, t) = e3 is never imposed; it emerges from the reflection symmetry.
Every monitor row extends the state and measures the symmetry and the
boundary trace on the whole line, and checks the ghost-closed ``rhs``
against the whole-line one, so the paper's claim is observed, not
assumed.
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
    HALF,
    PERIODIC,
    WHOLE,
    Grid,
    VectorField,
    cross,
    deriv,  # noqa: F401 -- unused here; perfbench/layers.py wraps evolve.deriv
    normalize_field,
    second_difference,
)
from .reflect import _NEGBAR, extend, restrict, symmetry_residual

RK4_PROJECT = "rk4_project"
MIDPOINT_FIXEDPOINT = "midpoint_fixedpoint"

#: Cap on dt/h^2 per scheme.  Linearised about e3 the flow is w_t = i w_ss,
#: whose discrete spectrum reaches 4/h^2 i; RK4 is stable to |lambda dt| =
#: 2 sqrt(2), so dt <= 0.707 h^2.  The midpoint fixed point contracts by about
#: 2 dt/h^2: on planar_odd, n = 512 it takes 6.5 rhs calls per step at 0.4 h^2,
#: 17.7 at 0.45 h^2 and diverges at 0.5 h^2.
STABILITY_FACTOR = {RK4_PROJECT: 0.65, MIDPOINT_FIXEDPOINT: 0.4}

#: Default dt/h^2 per scheme.  The spatial error dominates at any stable dt
#: (RK4's planar_odd error is the same to 6 digits from 0.1 to 0.7 h^2).  The
#: midpoint default stays below SLOPE_START_FACTOR, so its steps start from
#: the extrapolated slope: on planar_odd, n = 512 that takes 4.6 rhs calls per
#: step to t = 0.25 and 4.8 to t = 1, against 5.75 from the Euler start.
DEFAULT_DT_FACTOR = {RK4_PROJECT: 0.5, MIDPOINT_FIXEDPOINT: 0.25}

#: Largest dt/h^2 at which a midpoint step starts from the extrapolated slope
#: 2 f_1 - f_2 (see the module docstring): theta = 4 dt/h^2 <= pi/3.
SLOPE_START_FACTOR = math.pi / 12.0

#: Fixed-point iterations a midpoint step may take before it is declared
#: diverged; at the default dt planar_odd, n = 512 takes at most 5 to t = 0.25.
FP_MAX_ITER = 50

#: Default simulated time between snapshots and between telemetry rows, in
#: units of h^2: 50 steps of the earlier default dt of 0.1 h^2.
SAMPLE_EVERY_FACTOR = 5.0


@dataclass(frozen=True)
class SimConfig:
    """Run settings; grid and initial data are supplied separately."""

    t_final: float = 1.0
    dt: float | None = None  # None -> DEFAULT_DT_FACTOR[scheme] * h^2
    scheme: str = RK4_PROJECT
    snapshot_every: int | None = None  # steps; None -> resolve_every
    monitor_every: int | None = None  # steps; None -> resolve_every
    tol_boundary: float = 1e-10
    fp_tol: float = 1e-14
    check_order: int = 1
    compat_tol: float = 1e-6
    farfield_tol: float = 1e-3
    strict: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.t_final) and self.t_final > 0.0):
            raise ValueError(f"t_final must be a finite number above 0, got {self.t_final!r}")
        for name in ("dt", "tol_boundary", "fp_tol", "compat_tol", "farfield_tol"):
            value = getattr(self, name)
            if value is None and name == "dt":
                continue  # resolve_dt derives it from h
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be a finite number above 0, got {value!r}")
        for name in ("snapshot_every", "monitor_every"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        if self.check_order < 0:
            raise ValueError(f"check_order must be at least 0, got {self.check_order!r}")
        if self.scheme not in (RK4_PROJECT, MIDPOINT_FIXEDPOINT):
            raise ValueError(f"unknown scheme {self.scheme!r}")

    def resolve_dt(self, h: float) -> float:
        """The run's step; the one stability guard, checked once per run."""
        dt = self.dt if self.dt is not None else DEFAULT_DT_FACTOR[self.scheme] * h * h
        cap = STABILITY_FACTOR[self.scheme] * h * h
        if dt > cap:
            raise StabilityViolated(f"dt={dt:g} above cap {cap:g} (h={h:g})")
        return dt

    def resolve_every(self, h: float) -> tuple[int, int]:
        """(snapshot_every, monitor_every) in steps.

        An unset one samples every SAMPLE_EVERY_FACTOR * h^2 of simulated time.
        """
        every = max(1, round(SAMPLE_EVERY_FACTOR * h * h / self.resolve_dt(h)))
        return self.snapshot_every or every, self.monitor_every or every


@dataclass
class TimeSeries:
    """Recorded trajectory: snapshots plus per-monitor telemetry rows.

    ``cfg`` is the SimConfig that produced it and ``report`` the
    CompatibilityReport that gated it (None for a run with no gate).  A
    half-line run's telemetry rows are measured on the extension of each
    monitored state, so they carry the whole-line symmetry and boundary
    residuals.
    """

    grid: Grid
    times: list = dc_field(default_factory=list)
    snapshots: list = dc_field(default_factory=list)
    telemetry: list = dc_field(default_factory=list)  # dict rows
    solver: dict = dc_field(default_factory=dict)  # counts of the steps' work
    cfg: SimConfig | None = None
    report: CompatibilityReport | None = None

    def record(self, t: float, u: VectorField):
        if self.times and t <= self.times[-1]:
            raise ValueError("snapshot times must increase strictly")
        self.times.append(t)
        self.snapshots.append(u)

    def final(self) -> VectorField:
        return self.snapshots[-1]


def rhs(u: VectorField) -> np.ndarray:
    """Discrete v x v_ss, an (n, 3) array.

    One padded stencil for every grid kind: a periodic grid pads with the
    wrapped rows; a half-line grid pads s = 0 with the mirror ghost
    v(-h) = -bar(v(h)); a truncation edge pads with its own row and is
    clamped (zero update) afterwards.
    """
    grid, v = u.grid, u.values
    if grid.kind == PERIODIC:
        left, right = v[-1:], v[:1]
    else:
        left = v[1:2] * _NEGBAR if grid.kind == HALF else v[:1]
        right = v[-1:]
    out = cross(v, second_difference(np.concatenate((left, v, right))) / (grid.h * grid.h))
    if grid.kind != PERIODIC:
        out[-1] = 0.0
    if grid.kind == WHOLE:
        out[0] = 0.0
    return out


def _step_rk4(u: VectorField, dt: float) -> VectorField:
    grid, v = u.grid, u.values
    k1 = rhs(u)
    k2 = rhs(VectorField(grid, v + (0.5 * dt) * k1))
    k3 = rhs(VectorField(grid, v + (0.5 * dt) * k2))
    k4 = rhs(VectorField(grid, v + dt * k3))
    incr = (k1 + k4) + 2.0 * (k2 + k3)
    return VectorField(grid, v + (dt / 6.0) * incr)


@dataclass
class MidpointHistory:
    """What the midpoint steps of one solve carry from step to step.

    ``slopes`` holds the converged slopes f(m) of the last two steps, oldest
    first; ``rhs_calls`` and ``iters`` (one entry per step) count the work.
    """

    slopes: list = dc_field(default_factory=list)
    rhs_calls: int = 0
    iters: list = dc_field(default_factory=list)

    def counts(self) -> dict:
        return {
            "steps": len(self.iters),
            "rhs_calls": self.rhs_calls,
            "fp_iters_max": max(self.iters, default=0),
            "fp_iters_total": sum(self.iters),
        }


def _step_midpoint(
    u: VectorField, dt: float, tol: float, history: MidpointHistory | None = None
) -> VectorField:
    grid, v = u.grid, u.values
    half = 0.5 * dt
    extrapolate = (
        history is not None
        and len(history.slopes) == 2
        and dt <= SLOPE_START_FACTOR * grid.h * grid.h
    )
    if extrapolate:
        f = 2.0 * history.slopes[1] - history.slopes[0]
    else:
        f = rhs(u)
    m = v + half * f
    for it in range(1, FP_MAX_ITER + 1):
        f = rhs(VectorField(grid, m))
        cand = v + half * f
        inc = 2.0 * float(np.max(np.abs(cand - m)))  # bounds the change of v + dt f
        m = cand
        if inc <= tol:
            if history is not None:
                history.slopes = [*history.slopes[-1:], f]
                history.rhs_calls += it if extrapolate else it + 1
                history.iters.append(it)
            return VectorField(grid, v + dt * f)
    raise FixedPointDiverged(
        f"midpoint iteration stalled above tol={tol:g} after {FP_MAX_ITER} iters"
    )


def step(
    u: VectorField, dt: float, cfg: SimConfig, history: MidpointHistory | None = None
) -> VectorField:
    """One time step under the configured scheme (no projection here).

    A midpoint step given the ``history`` of the steps before it starts from
    their extrapolated slope where that is allowed, and records its own.
    """
    if cfg.scheme == RK4_PROJECT:
        return _step_rk4(u, dt)
    return _step_midpoint(u, dt, cfg.fp_tol, history)


def bending_energy(u: VectorField) -> float:
    """E = sum |v_{i+1} - v_i|^2 / h, wrapping around on a periodic grid.

    The discrete bending energy that the semi-discrete flow v_i' = v_i x
    (D v)_i conserves exactly: summation by parts gives dE/dt =
    -2h sum (v_i x D v_i) . D v_i = 0, and clamped ends contribute nothing.
    """
    v = u.values
    d = np.diff(v, axis=0, append=v[:1]) if u.grid.kind == PERIODIC else np.diff(v, axis=0)
    return float(np.sum(d * d) / u.grid.h)


def _telemetry_row(step_idx: int, t: float, u: VectorField) -> dict:
    """One monitor row; a half-line state is measured on its extension.

    On a half-line state ``symmetry`` also takes in the gap between the
    ghost-closed ``rhs`` and the whole-line ``rhs`` restricted to s >= 0,
    so a wrong ghost shows on the row even though the extension is exact.
    """
    half = u.grid.kind == HALF
    w = extend(u) if half else u
    row = {
        "step": step_idx,
        "time": t,
        "norm_dev": w.unit_deviation(),
        "energy": bending_energy(w),
    }
    if w.grid.kind == WHOLE:
        row["symmetry"] = symmetry_residual(w)
        if half:
            gap = rhs(u) - restrict(VectorField(w.grid, rhs(w))).values
            gap_norm = float(np.max(np.sqrt(np.sum(gap * gap, axis=1))))
            row["symmetry"] = max(row["symmetry"], gap_norm)
        row["boundary"] = float(np.linalg.norm(w.values[w.grid.center] - E3))
    return row


def solve_whole_line(
    u0: VectorField,
    cfg: SimConfig,
    progress: Callable[[int, int], None] | None = None,
) -> TimeSeries:
    """Advance u_t = u x u_ss on a half-line, whole-line or periodic grid.

    A half-line grid is closed at s = 0 by the mirror ghost node (see
    ``rhs``); its result is the s >= 0 part of the whole-line solve of the
    extended data, bit for bit.
    """
    if u0.unit_deviation() > 1e-6:
        raise NotUnitField("initial data must be unit length (within 1e-6)")
    grid = u0.grid
    dt = cfg.resolve_dt(grid.h)
    snapshot_every, monitor_every = cfg.resolve_every(grid.h)
    nsteps = max(1, math.ceil(cfg.t_final / dt - 1e-12))
    series = TimeSeries(grid=grid, cfg=cfg)
    history = MidpointHistory() if cfg.scheme == MIDPOINT_FIXEDPOINT else None
    u = u0
    series.record(0.0, u)
    series.telemetry.append(_telemetry_row(0, 0.0, u))
    for k in range(1, nsteps + 1):
        dt_k = dt if k < nsteps else cfg.t_final - (nsteps - 1) * dt
        u = step(u, dt_k, cfg, history)
        if cfg.scheme == RK4_PROJECT:
            u = normalize_field(u)
        t = k * dt if k < nsteps else cfg.t_final
        if k % monitor_every == 0 or k == nsteps:
            series.telemetry.append(_telemetry_row(k, t, u))
        if k % snapshot_every == 0 or k == nsteps:
            series.record(t, u)
        if progress is not None:
            progress(k, nsteps)
    # an RK4 step always takes four rhs calls, so RK4 counts nothing per step
    if history is None:
        series.solver = {"steps": nsteps, "rhs_calls": 4 * nsteps}
    else:
        series.solver = history.counts()
    return series


def farfield_deviation(v0: VectorField) -> float:
    """Mean |v0 - e3| over the outer tenth of the grid."""
    m = max(2, int(0.1 * v0.grid.n))
    tail = v0.values[-m:] - E3
    return float(np.mean(np.sqrt(np.sum(tail * tail, axis=1))))


def solve_half_space(
    v0: VectorField,
    cfg: SimConfig,
    resampler=None,
    progress=None,
) -> TimeSeries:
    """Gate the data, then evolve the s >= 0 nodes with the mirror ghost.

    The result is the ``solve_whole_line`` series with the gate's ``report``.
    """
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
    series = solve_whole_line(v0, cfg, progress=progress)
    series.report = report
    return series
