"""Time integration of the tangent-field flow v_t = v x v_ss.

Both schemes work in grid units: ``rhs`` is h^2 v x v_ss, and a step of
length dt advances by lambda = dt/h^2 in those units, its one parameter.
The solve carries the state from step to step as one plain, C-contiguous
(3, n + 2) block (``pack``): row j holds component j + 1, columns 1 ... n
the nodes, and the two pad columns the end nodes' values.  RK4's stage
inputs, the midpoint iterates and slopes, and every ``rhs`` result share
that layout, so each ufunc of ``rhs`` and of the steps is one call on a
flat, contiguous run of numbers; ``rhs`` writes 0 to its pad slots, so a
stage input v + c k keeps the state's pads, which ``rhs`` never reads.
The solve builds a ``VectorField`` only for a snapshot or a telemetry
row, of the (n, 3) view ``y[:, 1:-1].T`` of the block's nodes.  Each
scheme checks its own values for finiteness, and raises
``NonFiniteState``.  Two schemes:

``rk4_project``
    Classical four-stage explicit step followed by pointwise projection
    back to the unit sphere.  Default; norm exact to roundoff.  The
    projection, ``normalize_field`` of the block's transpose (pads
    included), checks the row norms for finiteness.

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

from .compat import check_compat, check_order_range, check_positive, decimated
from .errors import (
    CompatibilityRejected,
    DegenerateVector,
    DurationOutOfRange,
    FarFieldViolation,
    FixedPointDiverged,
    GridMismatch,
    NonFiniteState,
    SpacingOutOfRange,
    StabilityViolated,
    StepOutOfRange,
)
from .geometry import (
    E3,
    HALF,
    PERIODIC,
    WHOLE,
    Grid,
    VectorField,
    cross,  # noqa: F401 -- unused here; perfbench/layers.py wraps evolve.cross
    deriv,  # noqa: F401 -- unused here; perfbench/layers.py wraps evolve.deriv
    finite_at_spacing,
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

#: Most steps a run may take, fixed so that a hopeless run is refused before
#: anything is allocated, whatever memory is free: about two days of RK4 at
#: 90 us a step (half n = 512), 2000x the steps of half n = 8193, L = 20 to t = 4.
MAX_STEPS = 2**31


@dataclass(frozen=True)
class SimConfig:
    """Run settings; grid and initial data are supplied separately."""

    t_final: float = 1.0
    dt: float | None = None  # None -> DEFAULT_DT_FACTOR[scheme] * h^2
    scheme: str = RK4_PROJECT
    snapshot_every: int | None = None  # steps; None -> schedule
    monitor_every: int | None = None  # steps; None -> schedule
    tol_boundary: float = 1e-10
    fp_tol: float = 1e-14
    check_order: int = 1
    compat_tol: float = 1e-6
    farfield_tol: float = 1e-3
    strict: bool = True

    def __post_init__(self):
        for name in ("t_final", "dt", "tol_boundary", "fp_tol", "compat_tol", "farfield_tol"):
            value = getattr(self, name)
            if value is not None or name != "dt":  # resolve_dt derives an unset dt from h
                check_positive(name, value)
        for name in ("snapshot_every", "monitor_every"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        check_order_range("check_order", self.check_order)
        if self.scheme not in STABILITY_FACTOR:
            raise ValueError(f"unknown scheme {self.scheme!r}")

    def resolve_dt(self, h: float) -> float:
        """The run's step; the one stability guard."""
        dt = self.dt if self.dt is not None else DEFAULT_DT_FACTOR[self.scheme] * h * h
        cap = STABILITY_FACTOR[self.scheme] * h * h
        if dt > cap:
            raise StabilityViolated(f"dt={dt:g} above cap {cap:g} (h={h:g})")
        return dt

    @np.errstate(all="ignore")  # a step of 0 or infinity raises instead
    def schedule(self, h: float) -> tuple[float, int, int, int]:
        """(dt, steps, snapshot_every, monitor_every) at grid spacing h.

        Each step is dt long but the last, t_final - (steps - 1) dt > 0: the
        rounding error of t_final / dt can pass the 1e-12 slack, and the empty
        last step it leaves is dropped.  An unset cadence samples every
        SAMPLE_EVERY_FACTOR * h^2.  SpacingOutOfRange unless t_final and a
        default sample are finite step counts.  More than MAX_STEPS steps,
        finite or not, are the fault of t_final (DurationOutOfRange) if one
        time unit fits the cap, else of a set dt (StepOutOfRange), else of
        the spacing behind the default dt (SpacingOutOfRange).
        """
        dt = self.resolve_dt(h)
        counts = np.array([self.t_final, SAMPLE_EVERY_FACTOR * h * h]) / dt
        to_end, to_sample = counts.tolist()
        if dt * MAX_STEPS >= 1.0:
            fault = DurationOutOfRange
        else:
            fault = SpacingOutOfRange if self.dt is None else StepOutOfRange
        steps = math.inf
        if math.isfinite(to_end):
            steps = max(1, math.ceil(to_end - 1e-12))
            if (steps - 1) * dt >= self.t_final:
                steps -= 1
        if steps <= MAX_STEPS or fault is SpacingOutOfRange:
            finite_at_spacing(counts, h, "the step count to t_final or to a sample")
        if steps > MAX_STEPS:
            raise fault(
                f"{steps:.3g} steps of dt={dt:g} to t_final={self.t_final:g} "
                f"exceed the cap of {MAX_STEPS} at grid spacing h={h:g}"
            )
        every = max(1, round(to_sample))
        return dt, steps, self.snapshot_every or every, self.monitor_every or every


class TimeSeries:
    """Recorded trajectory: up to ``capacity`` snapshots in one block, plus telemetry rows.

    The block, (capacity,) times and (capacity, n, 3) values on ``grid``, is
    filled only by ``record``, which refuses a snapshot on another grid, a
    time that does not increase strictly and one past the capacity; it sets
    ``times`` and ``snapshots`` to read-only views of the m rows recorded.
    ``cfg`` is the SimConfig that produced it and ``report`` the
    CompatibilityReport that gated it (None for a run with no gate).  A
    half-line run's telemetry rows are measured on the extension of each
    monitored state, so they carry the whole-line symmetry and boundary
    residuals.
    """

    def __init__(self, grid: Grid, capacity: int, cfg: SimConfig):
        self.grid, self.cfg, self.report = grid, cfg, None
        self.telemetry, self.solver = [], {}  # dict rows; counts of the steps' work
        self._block = np.empty(capacity), np.empty((capacity, grid.n, 3))
        self.times, self.snapshots = (a[:0] for a in self._block)

    def record(self, t: float, u: VectorField):
        m = len(self.times)
        if m and t <= self.times[-1]:
            raise ValueError("snapshot times must increase strictly")
        if u.grid != self.grid:
            raise GridMismatch(f"snapshot on {u.grid}, the series is on {self.grid}")
        times, values = self._block
        times[m], values[m] = t, u.values  # an IndexError past the capacity
        self.times, self.snapshots = times[: m + 1], values[: m + 1]
        self.times.flags.writeable = self.snapshots.flags.writeable = False

    def final(self) -> VectorField:
        return VectorField(self.grid, self.snapshots[-1])


def pack(values: np.ndarray) -> np.ndarray:
    """The (3, n + 2) state block of the (n, 3) ``values``, a new C-contiguous array.

    Row j holds component j + 1, columns 1 ... n the nodes, and the two pad
    columns the end nodes' values, unit vectors that the projection accepts.
    """
    n = len(values)
    y = np.empty((3, n + 2))
    y[:, 1:-1] = values.T
    y[:, :: n + 1] = values[:: n - 1].T
    return y


#: The rows of rhs's scratch, v1 v2 v3 v1 v2, and the sign pattern of -bar on them.
_ROWS = np.array([0, 1, 2, 0, 1])
_NEGBAR_ROWS = _NEGBAR[_ROWS]


def rhs(u: VectorField, y: np.ndarray) -> np.ndarray:
    """h^2 v x v_ss of the (3, n + 2) state block ``y`` on ``u``'s grid, a new block.

    Evaluated as v_i x (v_{i-1} + v_{i+1}): the -2 v_i of the second
    difference drops out because v_i x v_i = 0, and the steps take the
    1/h^2 into lambda = dt/h^2.  T commutes with it bit for bit because the
    neighbour sum is symmetric and a cross product of two vectors both
    mapped to -bar is -bar of their cross product, sign for sign.

    ``y`` is unchecked and its pad columns are never read: the state, RK4's
    stage inputs and the midpoint iterates all reach it as plain blocks, and
    only the midpoint iteration and RK4's projection check values for
    finiteness.  ``u`` supplies only the grid: the steps pass the run's
    initial field.  It stays the first argument because perfbench counts a
    call's nodes from ``args[0].grid.n``.

    ``y`` is copied into a (5, n + 2) scratch with rows v1 v2 v3 v1 v2, whose
    pad slots are filled for the grid kind: the wrapped nodes on a periodic
    grid, the mirror ghost v(-h) = -bar(v(h)) at s = 0 on a half line, and
    the edge's own node at a truncation edge.  On the flattened scratch the
    neighbour sum is one call, and each component of the cross product is
    a2 b3 - a3 b2 on the rows one and two below it, so all three are two
    products and one difference of slices n + 2 apart: the roundings of
    ``geometry.cross``.  The result's pad slots and clamped edges (zero
    update) are 0, so a stage input v + c k keeps the state's pads.
    """
    kind = u.grid.kind
    w = y.shape[1]
    p = y.take(_ROWS, axis=0).ravel()
    if kind == PERIODIC:
        p[::w] = p[w - 2 :: w]
        p[w - 1 :: w] = p[1::w]
    else:
        if kind == HALF:
            np.multiply(p[2::w], _NEGBAR_ROWS, out=p[::w])
        else:
            p[::w] = p[1::w]
        p[w - 1 :: w] = p[w - 2 :: w]
    b = np.add(p[:-2], p[2:])  # b[i] is the neighbour sum about p[i + 1]
    # component j is a_{j+1} b_{j+2} - a_{j+2} b_{j+1}, a the scratch rows j + 1
    # and j + 2: rows 1-3 and 2-4 of the scratch for all three components at once
    out = np.empty((3, w))
    inner = out.ravel()[1:-1]  # all but the first and the last slot, both pads
    np.multiply(p[w + 1 : 4 * w - 1], b[2 * w : 5 * w - 2], out=inner)
    inner -= p[2 * w + 1 : 5 * w - 1] * b[w : 4 * w - 2]
    out[:, :: w - 1] = 0.0
    if kind != PERIODIC:
        out[:, -2] = 0.0
    if kind == WHOLE:
        out[:, 1] = 0.0
    return out


@dataclass
class StepLog:
    """What the steps of one solve carry from step to step, and the work they did.

    The state is not in it: a step takes the (3, n + 2) state block and
    returns the next one.  ``slopes``: the converged midpoint slopes f(m)
    of the last four steps, oldest first, in the same layout; a fresh log
    has none.  ``cubic``: whether the next step with four slopes starts
    from their cubic extrapolation (else the linear one); the step before
    sets it to the start that predicted its slope better.  Slopes are
    ``rhs`` values, in the grid units that a step's lambda = dt/h^2 scales.  ``rhs_calls`` counts either scheme's ``rhs``
    calls, ``iters`` the fixed-point iterations of each midpoint step.
    """

    slopes: list = dc_field(default_factory=list)
    rhs_calls: int = 0
    iters: list = dc_field(default_factory=list)
    cubic: bool = True


def _step_rk4(u: VectorField, v: np.ndarray, lam: float, log: StepLog) -> np.ndarray:
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
    u: VectorField, v: np.ndarray, lam: float, tol: float, log: StepLog
) -> np.ndarray:
    # Every array written here is one this step allocated: never v, which is
    # the caller's state, an array held in log.slopes, or the rhs(u, v) start,
    # which is read only.
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
    """One step of the (3, n + 2) state block ``v`` on ``u``'s grid under the configured scheme.

    Returns the step's result, a new block with ``v``'s pads, unprojected.
    A midpoint step raises ``NonFiniteState`` on a non-finite iterate or
    candidate, so what it returns is finite; an RK4 result is checked by the
    solve's projection, ``normalize_field``, which raises ``NonFiniteState``
    on a non-finite row norm.  The step is logged in ``log``; the schemes take lambda = dt/h^2.
    """
    lam = dt / (u.grid.h * u.grid.h)
    if cfg.scheme == RK4_PROJECT:
        return _step_rk4(u, v, lam, log)
    return _step_midpoint(u, v, lam, cfg.fp_tol, log)


def bending_energy(u: VectorField) -> float:
    """E = sum |v_{i+1} - v_i|^2 / h, wrapping around on a periodic grid.

    The discrete bending energy that the semi-discrete flow v_i' = v_i x
    (D v)_i conserves exactly: summation by parts gives dE/dt =
    -2h sum (v_i x D v_i) . D v_i = 0, and clamped ends contribute nothing.

    The differences are taken of a C-ordered copy of the values (none if
    they are C-ordered already), because ``np.sum`` adds in memory order:
    a Fortran-ordered array or a view of a state block gives the bits of
    a C-ordered one.
    """
    v = np.ascontiguousarray(u.values)
    d = np.diff(v, axis=0, append=v[:1]) if u.grid.kind == PERIODIC else np.diff(v, axis=0)
    d *= d
    return float(d.sum() / u.grid.h)


#: The keys of a telemetry row, in order; a periodic row stops at energy.
TELEMETRY_KEYS = ("step", "time", "norm_dev", "energy", "symmetry", "boundary")


def _telemetry_row(step_idx: int, t: float, u: VectorField, y: np.ndarray) -> dict:
    """One monitor row of the state ``u``; a half-line state is measured on its extension.

    On a half-line state ``symmetry`` also takes in the gap between the
    ghost-closed ``rhs`` of ``y``, the solve's block of ``u``, and the
    whole-line ``rhs`` restricted to s >= 0, divided by h^2 into the units
    of v x v_ss, so a wrong ghost shows on the row even though the
    extension is exact.
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
            ghost = rhs(u, y)[:, 1:-1].T
            whole = rhs(w, pack(w.values))[:, 1:-1].T
            gap = ghost - restrict(VectorField(w.grid, whole)).values
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

    The state between steps is a plain (3, n + 2) block (``pack``), and a
    ``VectorField`` of the view ``v[:, 1:-1].T`` of its nodes is built only
    where the state is kept or measured: at a snapshot or a telemetry row,
    one field for both on the same step, the last step among them, which
    ``record`` copies into the series.  RK4's projection is
    ``normalize_field`` of the block's transpose, pads included.  A
    ``DegenerateVector``, ``FixedPointDiverged`` or ``NonFiniteState``
    raised by a step or by RK4's projection is raised again, as the same
    type, with the step and the time it started from in its message.
    """
    if u0.unit_deviation() > 1e-6:
        raise ValueError("initial data must be unit length (within 1e-6)")
    grid = u0.grid
    dt, nsteps, snapshot_every, monitor_every = cfg.schedule(grid.h)
    series = TimeSeries(grid, 1 + math.ceil(nsteps / snapshot_every), cfg)
    log = StepLog()
    v = pack(u0.values)
    series.record(0.0, u0)
    series.telemetry.append(_telemetry_row(0, 0.0, u0, v))
    for k in range(1, nsteps + 1):
        dt_k = dt if k < nsteps else cfg.t_final - (nsteps - 1) * dt
        try:
            v = step(u0, v, dt_k, cfg, log)
            if cfg.scheme == RK4_PROJECT:
                v = normalize_field(v.T).T
        except (DegenerateVector, FixedPointDiverged, NonFiniteState) as exc:
            raise type(exc)(f"{exc} at step {k} of {nsteps}, t = {(k - 1) * dt:.6g}") from exc
        t = k * dt if k < nsteps else cfg.t_final
        monitor = k % monitor_every == 0 or k == nsteps
        snapshot = k % snapshot_every == 0 or k == nsteps
        if monitor or snapshot:
            u = VectorField(grid, v[:, 1:-1].T)
            if monitor:
                series.telemetry.append(_telemetry_row(k, t, u, v))
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
