"""The solve's padded (3, n + 2) state block against the (n, 3) layout it replaced.

The reference here is the solve as it ran on (n, 3) arrays: ``rhs`` as
``geometry.cross(v, v_- + v_+)`` with the mirror ghost, and RK4 and the
midpoint step written on (n, 3) arrays.  The block moves no bit: every
snapshot, telemetry row and solver count is the reference's, on half-line,
whole-line and periodic grids under both schemes.  The block's pad columns
are never read, so a step from a block whose pads hold other unit vectors
gives the same nodes.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from filamentlab import evolve
from filamentlab.compat import get_family
from filamentlab.errors import DegenerateVector, FixedPointDiverged, NonFiniteState
from filamentlab.evolve import (
    MIDPOINT_FIXEDPOINT,
    RK4_PROJECT,
    SimConfig,
    StepLog,
    bending_energy,
    pack,
    solve_whole_line,
    step,
    unpack,
)
from filamentlab.geometry import (
    E3,
    HALF,
    PERIODIC,
    WHOLE,
    Grid,
    VectorField,
    cross,
    normalize_field,
    row_norms,
)
from filamentlab.reflect import _NEGBAR, extend, restrict, symmetry_residual

# ---------------------------------------------------------------------------
# the (n, 3) reference


def _ref_rhs(grid, v):
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


def _ref_rk4(grid, v, lam, log):
    y = np.empty_like(v)
    k1 = _ref_rhs(grid, v)
    np.multiply(k1, 0.5 * lam, out=y)
    y += v
    k2 = _ref_rhs(grid, y)
    np.multiply(k2, 0.5 * lam, out=y)
    y += v
    k3 = _ref_rhs(grid, y)
    np.multiply(k3, lam, out=y)
    y += v
    k4 = _ref_rhs(grid, y)
    log.rhs_calls += 4
    k1 += k4
    k2 += k3
    k1 += 2.0 * k2
    k1 *= lam / 6.0
    k1 += v
    return k1


def _ref_midpoint(grid, v, lam, tol, log):
    # the slope starts are elementwise, so evolve's own serve either layout
    half = 0.5 * lam
    extrapolate = len(log.slopes) >= 2 and lam <= evolve.SLOPE_START_FACTOR
    four = extrapolate and len(log.slopes) == 4
    m, cand = np.empty_like(v), np.empty_like(v)
    if not extrapolate:
        start = _ref_rhs(grid, v)
    elif four and log.cubic:
        start = evolve._cubic_start(log.slopes, np.empty_like(v), m)
    else:
        start = evolve._linear_start(log.slopes, np.empty_like(v))
    np.multiply(start, half, out=m)
    m += v
    for it in range(1, evolve.FP_MAX_ITER + 1):
        f = _ref_rhs(grid, m)
        np.multiply(f, half, out=cand)
        cand += v
        m -= cand
        inc = 2.0 * float(np.abs(m, out=m).max())
        if not math.isfinite(inc):
            raise NonFiniteState("field values must be finite")
        m, cand = cand, m
        if inc <= tol:
            if four:
                if log.cubic:
                    cubic, linear = start, evolve._linear_start(log.slopes, cand)
                else:
                    cubic, linear = evolve._cubic_start(log.slopes, cand, m), start
                cubic -= f
                linear -= f
                log.cubic = np.abs(cubic, out=cubic).max() <= np.abs(linear, out=linear).max()
            log.slopes = [*log.slopes[-3:], f]
            log.rhs_calls += it if extrapolate else it + 1
            log.iters.append(it)
            np.multiply(f, lam, out=m)
            m += v
            return m
    raise FixedPointDiverged(f"midpoint iteration stalled above tol={tol:g}")


def _ref_telemetry_row(step_idx, t, u):
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
            whole = _ref_rhs(w.grid, w.values)
            gap = _ref_rhs(u.grid, u.values) - restrict(VectorField(w.grid, whole)).values
            h = u.grid.h
            row["symmetry"] = float(np.maximum(row["symmetry"], row_norms(gap).max() / (h * h)))
        row["boundary"] = float(np.linalg.norm(w.values[w.grid.center] - E3))
    return row


def _ref_solve(u0, cfg):
    """(times, snapshots, telemetry rows, solver counts) of the (n, 3) solve."""
    grid = u0.grid
    dt, nsteps, snapshot_every, monitor_every = cfg.schedule(grid.h)
    log = StepLog()
    times, snapshots, rows = [0.0], [u0.values], [_ref_telemetry_row(0, 0.0, u0)]
    v = u0.values
    for k in range(1, nsteps + 1):
        dt_k = dt if k < nsteps else cfg.t_final - (nsteps - 1) * dt
        lam = dt_k / (grid.h * grid.h)
        if cfg.scheme == RK4_PROJECT:
            v = normalize_field(_ref_rk4(grid, v, lam, log))
        else:
            v = _ref_midpoint(grid, v, lam, cfg.fp_tol, log)
        t = k * dt if k < nsteps else cfg.t_final
        if k % monitor_every == 0 or k == nsteps:
            rows.append(_ref_telemetry_row(k, t, VectorField(grid, v)))
        if k % snapshot_every == 0 or k == nsteps:
            times.append(t)
            snapshots.append(v)
    solver = {"steps": nsteps, "rhs_calls": log.rhs_calls}
    if log.iters:
        solver.update(fp_iters_max=max(log.iters), fp_iters_total=sum(log.iters))
    return times, snapshots, rows, solver


# ---------------------------------------------------------------------------
# the block against the reference

SETTINGS = settings(max_examples=60, deadline=None)

_unit_interval = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def _unit_rows(draw, n):
    raw = draw(arrays(np.float64, (n, 3), elements=_unit_interval))
    norms = row_norms(raw)
    assume(np.all(norms > 1e-3))
    return raw / norms[:, None]


@st.composite
def unit_fields(draw):
    """A unit field on a half, whole or periodic grid of 9..41 nodes.

    Random unit rows, or a family's sample, whose slopes are smooth enough
    for the cubic start to win.
    """
    kind = draw(st.sampled_from([HALF, WHOLE, PERIODIC]))
    n = 2 * draw(st.integers(4, 20)) + 1
    if draw(st.booleans()):
        length = draw(st.sampled_from([1.0, 5.0, 20.0]))
        grid = Grid(kind, length, n)
        return VectorField(grid, _unit_rows(draw, n))
    if kind == PERIODIC:
        fam = draw(st.sampled_from([get_family("ring", r=0.5), get_family("helix")]))
        return fam.sample(Grid.periodic(fam.period(), n))
    fam = get_family(draw(st.sampled_from(["planar_odd", "planar_bad"])), a=0.5)
    half = fam.sample(Grid.half_line(20.0, n))
    return half if kind == HALF else extend(half)


def _bits(rows):
    return [{key: float(value).hex() for key, value in row.items()} for row in rows]


def _outcome(run):
    try:
        return run()
    except (DegenerateVector, FixedPointDiverged, NonFiniteState) as exc:
        return type(exc)


@SETTINGS
@given(
    unit_fields(),
    st.sampled_from([RK4_PROJECT, MIDPOINT_FIXEDPOINT]),
    st.sampled_from([0.02, 0.1, 0.25, 0.6]),
    st.integers(1, 10),
    st.none() | st.integers(1, 4),
    st.none() | st.integers(1, 4),
)
def test_block_solve_is_the_row_solve_bitwise(u0, scheme, factor, steps, snapshot, monitor):
    h = u0.grid.h
    if scheme == MIDPOINT_FIXEDPOINT:
        factor = min(factor, 0.25)  # the fixed point contracts below its cap
    dt = factor * h * h
    cfg = SimConfig(t_final=steps * dt, dt=dt, scheme=scheme, snapshot_every=snapshot,
                    monitor_every=monitor)

    def block():
        series = solve_whole_line(u0, cfg)
        return series.times.tolist(), series.snapshots.tobytes(), series.telemetry, series.solver

    def reference():
        times, snapshots, rows, solver = _ref_solve(u0, cfg)
        return times, np.stack(snapshots).tobytes(), rows, solver

    got, want = _outcome(block), _outcome(reference)
    if isinstance(want, type):
        assert got is want
        return
    assert isinstance(got, tuple)
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert _bits(got[2]) == _bits(want[2])
    assert got[3] == want[3]


@SETTINGS
@given(
    unit_fields(),
    st.sampled_from([RK4_PROJECT, MIDPOINT_FIXEDPOINT]),
    st.integers(0, 4),
    st.data(),
)
def test_a_step_never_reads_the_pads(u, scheme, nslopes, data):
    # the same step from a block whose two pad columns hold other unit
    # vectors: the same nodes, the same log, and the block's own pads back
    v = pack(u.values)
    other = v.copy()
    other[:, [0, -1]] = _unit_rows(data.draw, 2).T
    dt = 0.02 * u.grid.h**2
    cfg = SimConfig(scheme=scheme)
    slopes = [evolve.rhs(u, pack(_unit_rows(data.draw, u.grid.n))) for _ in range(nslopes)]
    log, log_other = StepLog(list(slopes)), StepLog(list(slopes))
    got = _outcome(lambda: step(u, v, dt, cfg, log))
    got_other = _outcome(lambda: step(u, other, dt, cfg, log_other))
    if isinstance(got, type):
        assert got_other is got
        return
    assert unpack(got).tobytes() == unpack(got_other).tobytes()
    # as numbers: 0.0 + (-0.0) is 0.0, so a pad's -0.0 may come back as 0.0
    assert np.array_equal(got[:, [0, -1]], v[:, [0, -1]])
    assert np.array_equal(got_other[:, [0, -1]], other[:, [0, -1]])
    assert (log.rhs_calls, log.iters, log.cubic) == (log_other.rhs_calls, log_other.iters, log_other.cubic)
    for f, g in zip(log.slopes, log_other.slopes, strict=True):
        assert f.tobytes() == g.tobytes()
        assert not f[:, [0, -1]].any()  # rhs writes 0 to the pad slots
