"""Time integration of the tangent-field flow v_t = v x v_ss.

Both schemes work in grid units: ``rhs`` is h^2 v x v_ss, and a step of
length dt advances by lambda = dt/h^2 in those units, its one parameter.
The solve carries the state from step to step as a plain (n, 3) array:
a step takes and returns one, and the solve builds a ``VectorField`` only
for a snapshot, a telemetry row or the final state.  Each scheme checks
its own values for finiteness, and raises ``NonFiniteState``.  Two schemes:

``rk4_project``
    Classical four-stage explicit step followed by pointwise projection
    back to the unit sphere.  Default; norm exact to roundoff.  The
    projection, ``normalize_field``, checks the row norms for finiteness.

``midpoint_fixedpoint``
    Implicit midpoint solved by fixed-point iteration on the midpoint
    value, m <- v + (lambda/2) f(m), then v + lambda f(m).  Conserves every
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
    theta = 4 lambda per step, and an extrapolation of order P scales a
    mode's start error by |1 - e^{-i theta}|^P, which is at most 1
    exactly when theta <= pi/3, that is lambda <= pi/12.  Above that
    bound, and on the first two steps, the start is f(v).  The iteration
    checks each change of its iterate for finiteness, so a converged step
    is finite.

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

from .compat import CompatibilityReport, check_compat, check_order_range, decimated
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
    PERIODIC,
    WHOLE,
    Grid,
    VectorField,
    cross,
    deriv,  # noqa: F401 -- unused here; perfbench/layers.py wraps evolve.deriv
    normalize_field,
    row_norms,
)
from .reflect import _NEGBAR, extend, restrict, symmetry_residual

RK4_PROJECT = "rk4_project"
MIDPOINT_FIXEDPOINT = "midpoint_fixedpoint"

#: Cap on lambda = dt/h^2 per scheme.  Linearised about e3 the flow in grid
#: units is w_t = i (w_- + w_+ - 2w), whose spectrum reaches 4i; RK4 is stable
#: to |4 lambda| = 2 sqrt(2), so lambda <= 0.707.  The midpoint fixed point
#: contracts by about 2 lambda: on planar_odd, n = 512 it takes 6.5 rhs calls
#: per step at lambda = 0.4, 17.7 at 0.45 and diverges at 0.5.
STABILITY_FACTOR = {RK4_PROJECT: 0.65, MIDPOINT_FIXEDPOINT: 0.4}

#: Default lambda = dt/h^2 per scheme.  The spatial error dominates at any
#: stable step (RK4's planar_odd error is the same to 6 digits from lambda =
#: 0.1 to 0.7), so RK4 steps at its cap: on planar_odd, half n = 513, t = 1
#: its time error against a lambda = 0.05 run is 9.2e-11, against a spatial
#: error of 3.9e-4, and rough, ring and helix data stay stable there
#: (BENCH_rk4_default_dt.json).
#: The midpoint default stays below SLOPE_START_FACTOR, so its steps start
#: from the extrapolated slopes: on planar_odd, n = 512 that takes 3.39 rhs
#: calls per step to t = 0.25 and 3.36 to t = 1, against 4.63 and 4.83 from
#: the linear start alone and 5.75 from the Euler start.
DEFAULT_DT_FACTOR = {RK4_PROJECT: STABILITY_FACTOR[RK4_PROJECT], MIDPOINT_FIXEDPOINT: 0.25}

#: Largest lambda = dt/h^2 at which a midpoint step starts from extrapolated
#: slopes, linear or cubic (see the module docstring): theta = 4 lambda <=
#: pi/3, the one bound for every order.
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
        for name in ("t_final", "dt", "tol_boundary", "fp_tol", "compat_tol", "farfield_tol"):
            value = getattr(self, name)
            if value is None and name == "dt":
                continue  # resolve_dt derives it from h
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be a finite number above 0, got {value!r}")
        for name in ("snapshot_every", "monitor_every"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        check_order_range("check_order", self.check_order)
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
    """h^2 v x v_ss of the (n, 3) ``values`` on ``u``'s grid, an (n, 3) array.

    Evaluated as v_i x (v_{i-1} + v_{i+1}): the -2 v_i of the second
    difference drops out because v_i x v_i = 0, and the steps take the
    1/h^2 into lambda = dt/h^2.  T commutes with it bit for bit because the
    neighbour sum is symmetric and a cross product of two vectors both
    mapped to -bar is -bar of their cross product, sign for sign.

    ``values`` is unchecked: the state, RK4's stage inputs and the midpoint
    iterates all reach it as plain arrays, and only the midpoint iteration
    and RK4's projection check values for finiteness.  ``u`` supplies only
    the grid: the steps pass the run's initial field.  It stays the first
    argument because perfbench counts a call's nodes from ``args[0].grid.n``.

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
    pad = np.concatenate((left, v, right))
    out = cross(v, np.add(pad[:-2], pad[2:]))
    if grid.kind != PERIODIC:
        out[-1] = 0.0
    if grid.kind == WHOLE:
        out[0] = 0.0
    return out


@dataclass
class StepLog:
    """What the steps of one solve carry from step to step, and the work they did.

    The state is not in it: a step takes the (n, 3) state array and returns
    the next one.  ``slopes``: the converged midpoint slopes f(m) of the
    last four steps, oldest first; a fresh log has none.  ``cubic``: whether
    the next step with four slopes starts from their cubic extrapolation
    (else the linear one); the step before sets it to the start that
    predicted its slope better.  Slopes are ``rhs`` values, in the grid units that a step's
    lambda = dt/h^2 scales.  ``rhs_calls`` counts either scheme's ``rhs``
    calls, ``iters`` the fixed-point iterations of each midpoint step.
    """

    slopes: list = dc_field(default_factory=list)
    rhs_calls: int = 0
    iters: list = dc_field(default_factory=list)
    cubic: bool = True


def _step_rk4(u: VectorField, v: np.ndarray, dt: float, log: StepLog) -> np.ndarray:
    lam = dt / (u.grid.h * u.grid.h)
    # the three stage inputs v + (c lambda) k, each written into y in turn:
    # c lambda k, then + v, the same roundings as the fresh-array sum
    y = np.empty_like(v)
    k1 = rhs(u, v)
    np.multiply(k1, 0.5 * lam, out=y)
    y += v
    k2 = rhs(u, y)
    np.multiply(k2, 0.5 * lam, out=y)
    y += v
    k3 = rhs(u, y)
    np.multiply(k3, lam, out=y)
    y += v
    k4 = rhs(u, y)
    log.rhs_calls += 4
    # v + (lambda/6) ((k1 + k4) + 2 (k2 + k3)) with the same roundings, summed
    # in place in the arrays rhs returned, which nothing else holds
    k1 += k4
    k2 += k3
    k1 += 2.0 * k2
    k1 *= lam / 6.0
    k1 += v
    return k1


def _linear_start(slopes: list, out: np.ndarray) -> np.ndarray:
    """2 f_4 - f_3, written into ``out``."""
    np.multiply(slopes[-1], 2.0, out=out)
    out -= slopes[-2]
    return out


def _cubic_start(slopes: list, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """((4 f_4 - 6 f_3) + 4 f_2) - f_1, written into ``out``; ``scratch`` is overwritten."""
    f1, f2, f3, f4 = slopes
    np.multiply(f4, 4.0, out=out)
    out -= np.multiply(f3, 6.0, out=scratch)
    out += np.multiply(f2, 4.0, out=scratch)
    out -= f1
    return out


def _step_midpoint(
    u: VectorField, v: np.ndarray, dt: float, tol: float, log: StepLog
) -> np.ndarray:
    # Every array written here is one this step allocated: never v, which a
    # snapshot may hold, an array held in log.slopes, or the rhs(u, v) start,
    # which is read only.
    lam = dt / (u.grid.h * u.grid.h)
    half = 0.5 * lam
    extrapolate = len(log.slopes) >= 2 and lam <= SLOPE_START_FACTOR
    four = extrapolate and len(log.slopes) == 4
    m, cand = np.empty_like(v), np.empty_like(v)
    if not extrapolate:
        start = rhs(u, v)
    elif four and log.cubic:
        start = _cubic_start(log.slopes, np.empty_like(v), m)
    else:
        start = _linear_start(log.slopes, np.empty_like(v))
    np.multiply(start, half, out=m)
    m += v
    for it in range(1, FP_MAX_ITER + 1):
        f = rhs(u, m)
        np.multiply(f, half, out=cand)
        cand += v
        m -= cand  # |m - cand|, the change of the iterate
        inc = 2.0 * float(np.abs(m, out=m).max())  # bounds the change of v + lambda f
        if not math.isfinite(inc):
            raise NonFiniteState("field values must be finite")
        m, cand = cand, m
        if inc <= tol:
            if four:  # the next step takes the start that predicted f better
                if log.cubic:
                    cubic, linear = start, _linear_start(log.slopes, cand)
                else:
                    cubic, linear = _cubic_start(log.slopes, cand, m), start
                cubic -= f  # |x - f| is the same number as |f - x|
                linear -= f
                log.cubic = np.abs(cubic, out=cubic).max() <= np.abs(linear, out=linear).max()
            log.slopes = [*log.slopes[-3:], f]
            log.rhs_calls += it if extrapolate else it + 1
            log.iters.append(it)
            np.multiply(f, lam, out=m)
            m += v
            return m
    raise FixedPointDiverged(
        f"midpoint iteration stalled above tol={tol:g} after {FP_MAX_ITER} iters"
    )


def step(u: VectorField, v: np.ndarray, dt: float, cfg: SimConfig, log: StepLog) -> np.ndarray:
    """One step of the (n, 3) state ``v`` on ``u``'s grid under the configured scheme.

    Returns the step's (n, 3) result, a new array, unprojected.  A midpoint
    step raises ``NonFiniteState`` on a non-finite iterate or candidate, so
    what it returns is finite; an RK4 result is checked by the solve's
    projection, ``normalize_field``, which raises ``NonFiniteState`` on a
    non-finite row norm.  The step is logged in ``log``.
    """
    if cfg.scheme == RK4_PROJECT:
        return _step_rk4(u, v, dt, log)
    return _step_midpoint(u, v, dt, cfg.fp_tol, log)


def bending_energy(u: VectorField) -> float:
    """E = sum |v_{i+1} - v_i|^2 / h, wrapping around on a periodic grid.

    The discrete bending energy that the semi-discrete flow v_i' = v_i x
    (D v)_i conserves exactly: summation by parts gives dE/dt =
    -2h sum (v_i x D v_i) . D v_i = 0, and clamped ends contribute nothing.
    """
    v = u.values
    d = np.diff(v, axis=0, append=v[:1]) if u.grid.kind == PERIODIC else np.diff(v, axis=0)
    d *= d
    return float(d.sum() / u.grid.h)


#: The keys of a telemetry row, in order; a periodic row stops at energy.
TELEMETRY_KEYS = ("step", "time", "norm_dev", "energy", "symmetry", "boundary")


def _telemetry_row(step_idx: int, t: float, u: VectorField) -> dict:
    """One monitor row; a half-line state is measured on its extension.

    On a half-line state ``symmetry`` also takes in the gap between the
    ghost-closed ``rhs`` and the whole-line ``rhs`` restricted to s >= 0,
    divided by h^2 into the units of v x v_ss, so a wrong ghost shows on
    the row even though the extension is exact.
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
            h = u.grid.h
            row["symmetry"] = float(np.maximum(row["symmetry"], row_norms(gap).max() / (h * h)))
        row["boundary"] = float(np.linalg.norm(w.values[w.grid.center] - E3))
    return row


def solve_whole_line(u0: VectorField, cfg: SimConfig) -> TimeSeries:
    """Advance u_t = u x u_ss on a half-line, whole-line or periodic grid.

    A half-line grid is closed at s = 0 by the mirror ghost node (see
    ``rhs``); its result is the s >= 0 part of the whole-line solve of the
    extended data, bit for bit.

    The state between steps is a plain (n, 3) array, and a ``VectorField``
    is built only where the state is kept or measured: at a snapshot or a
    telemetry row, one field for both on the same step, the last step
    among them.  A ``DegenerateVector``, ``FixedPointDiverged`` or
    ``NonFiniteState`` raised by a step or by RK4's projection is raised
    again, as the same type, with the step and the time it started from
    in its message.
    """
    if u0.unit_deviation() > 1e-6:
        raise NotUnitField("initial data must be unit length (within 1e-6)")
    grid = u0.grid
    dt = cfg.resolve_dt(grid.h)
    snapshot_every, monitor_every = cfg.resolve_every(grid.h)
    nsteps = cfg.resolve_steps(grid.h)
    series = TimeSeries(grid=grid, cfg=cfg)
    log = StepLog()
    v = u0.values
    series.record(0.0, u0)
    series.telemetry.append(_telemetry_row(0, 0.0, u0))
    for k in range(1, nsteps + 1):
        dt_k = dt if k < nsteps else cfg.t_final - (nsteps - 1) * dt
        try:
            v = step(u0, v, dt_k, cfg, log)
            if cfg.scheme == RK4_PROJECT:
                v = normalize_field(v)
        except (DegenerateVector, FixedPointDiverged, NonFiniteState) as exc:
            raise type(exc)(f"{exc} at step {k} of {nsteps}, t = {(k - 1) * dt:.6g}") from exc
        t = k * dt if k < nsteps else cfg.t_final
        monitor = k % monitor_every == 0 or k == nsteps
        snapshot = k % snapshot_every == 0 or k == nsteps
        if monitor or snapshot:
            u = VectorField(grid, v)
            if monitor:
                series.telemetry.append(_telemetry_row(k, t, u))
            if snapshot:
                series.record(t, u)
    series.solver = {"steps": nsteps, "rhs_calls": log.rhs_calls}
    if log.iters:
        series.solver.update(fp_iters_max=max(log.iters), fp_iters_total=sum(log.iters))
    return series


def farfield_deviation(v0: VectorField) -> float:
    """Mean |v0 - e3| over the outer tenth of the grid."""
    m = max(2, int(0.1 * v0.grid.n))
    return float(np.mean(row_norms(v0.values[-m:] - E3)))


def solve_half_space(family, grid: Grid, cfg: SimConfig) -> TimeSeries:
    """Sample ``family`` on the half-line ``grid``, gate the sample, then evolve it.

    ``family`` is anything with ``sample(grid)``.  It is sampled once, at
    spacing h/2 (``grid.refined()``); the gate judges that sample, and its
    decimation, the gate's coarse level, is the data evolved on ``grid``.
    The result is the ``solve_whole_line`` series with the gate's
    ``report``; its first snapshot is the decimated sample.
    """
    fine = family.sample(grid.refined())
    report = check_compat(fine, cfg.check_order, cfg.compat_tol)
    if cfg.strict and not report.passed:
        raise CompatibilityRejected(
            f"orders {report.failed_orders()} failed at tol={cfg.compat_tol:g}"
        )
    v0 = decimated(fine)
    far = farfield_deviation(v0)
    if far > cfg.farfield_tol:
        raise FarFieldViolation(
            f"outer-window mean |v0 - e3| = {far:.3g} exceeds {cfg.farfield_tol:g}"
        )
    series = solve_whole_line(v0, cfg)
    series.report = report
    return series
