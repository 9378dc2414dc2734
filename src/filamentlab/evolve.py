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
    an extrapolation of the converged slopes f(m) of earlier steps, in
    place of the Euler slope f(v), and so saves the ``rhs`` call of the
    Euler start and, on smooth data, iterations.  Steps 3 and 4 start
    from the linear 2 f_4 - f_3 (f_4 the latest slope); later steps from
    the cubic 4 f_4 - 6 f_3 + 4 f_2 - f_1, or from the linear one where
    the cubic one predicted the step before worse (max |f - start|).
    The choice keeps the linear start where the slopes are roundoff, as
    on the stationary ring, whose noise the cubic weights amplify 15x
    against the linear 3x.  Linearised about e3, the top mode turns by
    theta = 4 dt/h^2 per step, and an extrapolation of order P scales a
    mode's start error by |1 - e^{-i theta}|^P, which is at most 1
    exactly when theta <= pi/3, that is dt <= (pi/12) h^2.  Above that
    bound, and on the first two steps, the start is f(v).

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

import numpy as np

from .compat import CompatibilityReport, check_compat
from .errors import (
    CompatibilityRejected,
    DegenerateVector,
    FarFieldViolation,
    FixedPointDiverged,
    NonFiniteState,
    NotUnitField,
    StabilityViolated,
)
from .geometry import (
    E3,
    HALF,
    K_MAX,
    PERIODIC,
    WHOLE,
    Grid,
    VectorField,
    cross,
    deriv,  # noqa: F401 -- unused here; perfbench/layers.py wraps evolve.deriv
    normalize_field,
    row_norms,
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
#: the extrapolated slopes: on planar_odd, n = 512 that takes 3.39 rhs calls
#: per step to t = 0.25 and 3.36 to t = 1, against 4.63 and 4.83 from the
#: linear start alone and 5.75 from the Euler start.
DEFAULT_DT_FACTOR = {RK4_PROJECT: 0.5, MIDPOINT_FIXEDPOINT: 0.25}

#: Largest dt/h^2 at which a midpoint step starts from extrapolated slopes,
#: linear or cubic (see the module docstring): theta = 4 dt/h^2 <= pi/3, the
#: one bound for every order.
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
        if not 0 <= self.check_order <= K_MAX // 2:  # order k reads derivative 2k at s = 0
            raise ValueError(
                f"check_order must be at least 0 and at most {K_MAX // 2}, got {self.check_order!r}"
            )
        if self.scheme not in STABILITY_FACTOR:
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

    def resolve_steps(self, h: float) -> int:
        """Steps to t_final: each of length dt but the last, t_final - (nsteps - 1) dt > 0.

        The rounding error of t_final / dt grows with the count and can pass
        the 1e-12 slack; (nsteps - 1) dt then rounds to t_final, and that empty
        last step is dropped.
        """
        dt = self.resolve_dt(h)
        nsteps = max(1, math.ceil(self.t_final / dt - 1e-12))
        return nsteps - 1 if (nsteps - 1) * dt >= self.t_final else nsteps


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


def rhs(u: VectorField, values: np.ndarray) -> np.ndarray:
    """Discrete v x v_ss of the (n, 3) ``values`` on ``u``'s grid, an (n, 3) array.

    ``values`` is unchecked: RK4's stage inputs and the midpoint iterates
    reach it as plain arrays, so a step checks only its result for
    finiteness.  ``u`` supplies only the grid; it stays the first argument
    because perfbench counts a call's nodes from ``args[0].grid.n``.

    One padded stencil for every grid kind: a periodic grid pads with the
    wrapped rows; a half-line grid pads s = 0 with the mirror ghost
    v(-h) = -bar(v(h)); a truncation edge pads with its own row and is
    clamped (zero update) afterwards.
    """
    grid, v = u.grid, values
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


@dataclass
class StepLog:
    """What the steps of one solve carry from step to step, and the work they did.

    ``slopes``: the converged midpoint slopes f(m) of the last four steps,
    oldest first; a fresh log has none.  ``cubic``: whether the next step
    with four slopes starts from their cubic extrapolation (else the linear
    one); the step before sets it to the start that predicted its slope
    better.  ``rhs_calls`` counts either scheme's ``rhs`` calls, ``iters``
    the fixed-point iterations of each midpoint step.
    """

    slopes: list = dc_field(default_factory=list)
    rhs_calls: int = 0
    iters: list = dc_field(default_factory=list)
    cubic: bool = True


def _step_rk4(u: VectorField, dt: float, log: StepLog) -> VectorField:
    grid, v = u.grid, u.values
    k1 = rhs(u, v)
    k2 = rhs(u, v + (0.5 * dt) * k1)
    k3 = rhs(u, v + (0.5 * dt) * k2)
    k4 = rhs(u, v + dt * k3)
    log.rhs_calls += 4
    # v + (dt/6) ((k1 + k4) + 2 (k2 + k3)) with the same roundings, summed in
    # place in the arrays rhs returned, which nothing else holds
    k1 += k4
    k2 += k3
    k1 += 2.0 * k2
    k1 *= dt / 6.0
    k1 += v
    return VectorField(grid, k1)


def _linear_start(slopes: list) -> np.ndarray:
    return 2.0 * slopes[-1] - slopes[-2]


def _cubic_start(slopes: list) -> np.ndarray:
    f1, f2, f3, f4 = slopes
    return 4.0 * f4 - 6.0 * f3 + 4.0 * f2 - f1


def _step_midpoint(u: VectorField, dt: float, tol: float, log: StepLog) -> VectorField:
    grid, v = u.grid, u.values
    half = 0.5 * dt
    extrapolate = len(log.slopes) >= 2 and dt <= SLOPE_START_FACTOR * grid.h * grid.h
    four = extrapolate and len(log.slopes) == 4
    if not extrapolate:
        start = rhs(u, v)
    elif four and log.cubic:
        start = _cubic_start(log.slopes)
    else:
        start = _linear_start(log.slopes)
    m = v + half * start
    for it in range(1, FP_MAX_ITER + 1):
        f = rhs(u, m)
        cand = v + half * f
        inc = 2.0 * float(np.max(np.abs(cand - m)))  # bounds the change of v + dt f
        if not math.isfinite(inc):
            raise NonFiniteState("field values must be finite")
        m = cand
        if inc <= tol:
            if four:  # the next step takes the start that predicted f better
                cubic = start if log.cubic else _cubic_start(log.slopes)
                linear = _linear_start(log.slopes) if log.cubic else start
                log.cubic = np.max(np.abs(f - cubic)) <= np.max(np.abs(f - linear))
            log.slopes = [*log.slopes[-3:], f]
            log.rhs_calls += it if extrapolate else it + 1
            log.iters.append(it)
            return VectorField(grid, v + dt * f)
    raise FixedPointDiverged(
        f"midpoint iteration stalled above tol={tol:g} after {FP_MAX_ITER} iters"
    )


def step(u: VectorField, dt: float, cfg: SimConfig, log: StepLog) -> VectorField:
    """One time step under the configured scheme (no projection here), logged in ``log``."""
    if cfg.scheme == RK4_PROJECT:
        return _step_rk4(u, dt, log)
    return _step_midpoint(u, dt, cfg.fp_tol, log)


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
            gap = rhs(u, u.values) - restrict(VectorField(w.grid, rhs(w, w.values))).values
            # np.maximum, not max: a NaN gap must win, or a broken rhs reads 0.0
            row["symmetry"] = float(np.maximum(row["symmetry"], np.max(row_norms(gap))))
        row["boundary"] = float(np.linalg.norm(w.values[w.grid.center] - E3))
    return row


def solve_whole_line(u0: VectorField, cfg: SimConfig) -> TimeSeries:
    """Advance u_t = u x u_ss on a half-line, whole-line or periodic grid.

    A half-line grid is closed at s = 0 by the mirror ghost node (see
    ``rhs``); its result is the s >= 0 part of the whole-line solve of the
    extended data, bit for bit.  A ``DegenerateVector``,
    ``FixedPointDiverged`` or ``NonFiniteState`` raised by a step is raised
    again, as the same type, with the step and the time it started from in
    its message; a non-finite step result, which ``VectorField`` rejects
    with a ``ValueError``, is raised as a ``NonFiniteState``.
    """
    if u0.unit_deviation() > 1e-6:
        raise NotUnitField("initial data must be unit length (within 1e-6)")
    grid = u0.grid
    dt = cfg.resolve_dt(grid.h)
    snapshot_every, monitor_every = cfg.resolve_every(grid.h)
    nsteps = cfg.resolve_steps(grid.h)
    series = TimeSeries(grid=grid, cfg=cfg)
    log = StepLog()
    u = u0
    series.record(0.0, u)
    series.telemetry.append(_telemetry_row(0, 0.0, u))
    for k in range(1, nsteps + 1):
        dt_k = dt if k < nsteps else cfg.t_final - (nsteps - 1) * dt
        try:
            u = step(u, dt_k, cfg, log)
            if cfg.scheme == RK4_PROJECT:
                u = normalize_field(u)
        except (DegenerateVector, FixedPointDiverged, ValueError) as exc:
            # a plain ValueError here is VectorField's finiteness check
            failure = NonFiniteState if type(exc) is ValueError else type(exc)
            raise failure(f"{exc} at step {k} of {nsteps}, t = {(k - 1) * dt:.6g}") from exc
        t = k * dt if k < nsteps else cfg.t_final
        if k % monitor_every == 0 or k == nsteps:
            series.telemetry.append(_telemetry_row(k, t, u))
        if k % snapshot_every == 0 or k == nsteps:
            series.record(t, u)
    series.solver = {"steps": nsteps, "rhs_calls": log.rhs_calls}
    if log.iters:
        series.solver.update(fp_iters_max=max(log.iters), fp_iters_total=sum(log.iters))
    return series


def farfield_deviation(v0: VectorField) -> float:
    """Mean |v0 - e3| over the outer tenth of the grid."""
    m = max(2, int(0.1 * v0.grid.n))
    return float(np.mean(row_norms(v0.values[-m:] - E3)))


def solve_half_space(v0: VectorField, cfg: SimConfig, resampler) -> TimeSeries:
    """Gate the data, then evolve the s >= 0 nodes with the mirror ghost.

    ``resampler`` maps a grid to the data on it, for the gate's two-grid
    cross-check.  The result is the ``solve_whole_line`` series with the
    gate's ``report``.
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
    series = solve_whole_line(v0, cfg)
    series.report = report
    return series
