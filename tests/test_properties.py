"""Property tests: the reflection T commutes exactly with rhs, one step and deriv.

``rhs`` in its grid-unit form v x (v_- + v_+) is v x (v_- + v_+ - 2v) up to
rounding, on every grid kind, and orthogonal to v.

One step means every start of the midpoint iteration too: the Euler slope,
and the slopes extrapolated from two or from four earlier steps.

T maps a whole-line field w to (T w)(s) = -bar(w(-s)).  The half-space
scheme relies on the discrete flow commuting with T bit for bit; these
tests check that over random finite fields, not only over the builtin
families (which are T-fixed after extension).  The half-line stepper
relies on more: its ghost-closed ``rhs`` is the whole-line ``rhs`` of the
extension, restricted, so is a midpoint solve through every start, and a
wrong ghost must show in the telemetry and, under midpoint, in the exit code,
and a NaN in any tracked telemetry column must fail the run.
Three round trips must be exact too: a field CSV written and read back, a
SimConfig written as a config file and read back, and the restriction of
an extension.  Every snapshot CSV cell must read back to its float bit for
bit, by ``float`` and by ``numpy.loadtxt``, and a non-finite cell must be
refused.  The fast paths must not move a bit: the norm kernels against
numpy's sum, and the in-place midpoint step against the same expressions on
fresh arrays.
"""

import copy
import functools
import io
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from filamentlab import cli, evolve
from filamentlab.cli import (
    EXIT_NUMERICAL,
    _SIM_KEYS,
    _build_cfg,
    main,
    parse_config,
    write_field_csv,
    write_snapshots_csv,
    write_telemetry_csv,
)
from filamentlab.compat import get_family
from filamentlab.errors import DegenerateVector, NonFiniteState
from filamentlab.evolve import (
    MIDPOINT_FIXEDPOINT,
    RK4_PROJECT,
    STABILITY_FACTOR,
    SimConfig,
    TimeSeries,
    pack,
    rhs,
    step,
    unpack,
)
from filamentlab.geometry import (
    E3,
    HALF,
    MIN_NORM,
    PERIODIC,
    STENCILS,
    WHOLE,
    Grid,
    VectorField,
    cross,
    deriv,
    normalize_field,
    one_sided_deriv_at_zero,
    row_norms,
    second_difference,
)
from filamentlab.harness import ENERGY_DRIFT_TOL, invariant_suite
from filamentlab.reconstruct import FilamentCurve
from filamentlab.reflect import apply_T, extend, restrict

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

_unit_interval = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def _stepped(u, dt, cfg, log):
    """The field one ``step`` from ``u``, on ``u``'s grid."""
    return VectorField(u.grid, unpack(step(u, pack(u.values), dt, cfg, log)))


@st.composite
def whole_line_fields(draw):
    """A whole-line grid of 9..41 nodes and a field with components in [-1, 1]."""
    n = 2 * draw(st.integers(4, 20)) + 1
    length = draw(st.sampled_from([1.0, 5.0, 20.0]))
    grid = Grid.whole_line(length, n)
    return VectorField(grid, draw(arrays(np.float64, (n, 3), elements=_unit_interval)))


@PROPERTY_SETTINGS
@given(whole_line_fields())
def test_rhs_commutes_with_T(node_rhs, u):
    mirrored = apply_T(u)
    got = node_rhs(mirrored, mirrored.values)
    assert np.array_equal(got, apply_T(VectorField(u.grid, node_rhs(u, u.values))).values)


def _scaled_norms(a):
    """|a_i| by hypot, which neither underflows nor overflows where |a_i| does not."""
    return np.hypot(np.hypot(a[:, 0], a[:, 1]), a[:, 2])


def _assert_rhs_is_v_cross_the_second_difference(node_rhs, grid, v):
    # rhs is h^2 v x v_ss in the form v x (v_- + v_+), which drops the -2v of
    # the second difference because v x v = 0; it must agree with the cross
    # product with the full second difference up to the rounding of either.
    # The bounds take their norms by hypot, as a row of 1e-170s squares to 0,
    # and allow a few units of the smallest subnormal, the absolute rounding
    # of a product that underflows.
    if grid.kind == PERIODIC:
        pad = np.concatenate((v[-1:], v, v[:1]))
    else:
        ghost = extend(VectorField(grid, v)).values[grid.n - 2] if grid.kind == HALF else v[0]
        pad = np.concatenate(([ghost], v, v[-1:]))
    want = cross(v, second_difference(pad))
    if grid.kind != PERIODIC:
        want[-1] = 0.0
    if grid.kind == WHOLE:
        want[0] = 0.0
    got = node_rhs(VectorField(grid, v), v)
    near = pad[:-2] + pad[2:]
    size = _scaled_norms(v) * (_scaled_norms(near) + _scaled_norms(near - 2.0 * v))
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    assert np.all(row_norms(got - want) <= 4.0 * eps * size + 8.0 * tiny)
    dot = np.abs(np.sum(got * v, axis=1))
    assert np.all(dot <= 16.0 * eps * _scaled_norms(v) ** 2 * _scaled_norms(near) + 8.0 * tiny)


@pytest.mark.parametrize("kind", [HALF, WHOLE, PERIODIC])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_rhs_is_v_cross_the_second_difference(node_rhs, kind, data):
    u = data.draw(whole_line_fields())
    grid = Grid(kind, u.grid.length, u.grid.n)
    _assert_rhs_is_v_cross_the_second_difference(node_rhs, grid, u.values)


def test_rhs_bounds_hold_beside_neighbours_whose_squares_underflow(node_rhs):
    # a draw that once failed: |v_-| and |v_+| by sqrt(sum of squares) read 0
    # next to the one row of norm 0.28, so the orthogonality bound read 0
    v = np.full((9, 3), 1.18007461e-170)
    v[5] = [-0.19338894578858837, 0.12530809568010898, 0.1651022309110887]
    _assert_rhs_is_v_cross_the_second_difference(node_rhs, Grid.whole_line(1.0, 9), v)


@PROPERTY_SETTINGS
@given(whole_line_fields(), st.sampled_from([RK4_PROJECT, MIDPOINT_FIXEDPOINT]))
def test_step_commutes_with_T(u, scheme):
    # dt well below either scheme's cap, where the fixed point contracts
    dt = 0.02 * u.grid.h**2
    cfg = SimConfig(scheme=scheme)
    got = _stepped(apply_T(u), dt, cfg, evolve.StepLog()).values
    assert np.array_equal(got, apply_T(_stepped(u, dt, cfg, evolve.StepLog())).values)


@pytest.mark.parametrize("nslopes", [2, 4])
@PROPERTY_SETTINGS
@given(u=whole_line_fields(), data=st.data())
def test_slope_started_midpoint_step_commutes_with_T(nslopes, u, data):
    # the start extrapolated from the slopes of earlier steps, here the rhs of
    # other fields: linear from two, cubic or linear (the log's choice) from
    # four; T maps a slope as it maps a state, and leaves the choice alone
    shape = (u.grid.n, 3)
    slopes = [
        rhs(u, pack(data.draw(arrays(np.float64, shape, elements=_unit_interval))))
        for _ in range(nslopes)
    ]
    cubic = data.draw(st.booleans())
    plain = evolve.StepLog(slopes, cubic=cubic)
    mirrored = evolve.StepLog(
        [pack(apply_T(VectorField(u.grid, unpack(f))).values) for f in slopes], cubic=cubic
    )
    dt = 0.02 * u.grid.h**2
    cfg = SimConfig(scheme=MIDPOINT_FIXEDPOINT)
    got = _stepped(apply_T(u), dt, cfg, mirrored).values
    assert np.array_equal(got, apply_T(_stepped(u, dt, cfg, plain)).values)
    assert plain.rhs_calls == plain.iters[-1]  # no rhs(u): the step started from the slopes
    assert (plain.rhs_calls, plain.iters) == (mirrored.rhs_calls, mirrored.iters)
    assert plain.cubic == mirrored.cubic
    assert len(plain.slopes) == min(nslopes + 1, 4)
    for f, g in zip(plain.slopes, mirrored.slopes, strict=True):
        assert np.array_equal(unpack(g), apply_T(VectorField(u.grid, unpack(f))).values)


@PROPERTY_SETTINGS
@given(
    st.integers(8, 40),
    st.sampled_from(["whole", "periodic"]),
    st.sampled_from([(), (3,)]),
    st.sampled_from([1, 2]),
    st.data(),
)
def test_deriv_commutes_with_mirror(n, kind, trailing, order, data):
    # mirror s -> -s: reversal on a whole-line grid, i -> -i mod n on a periodic one
    if kind == "whole":
        grid = Grid.whole_line(3.0, n | 1)

        def mirror(v):
            return v[::-1]

    else:
        grid = Grid.periodic(3.0, n)

        def mirror(v):
            return np.roll(v[::-1], 1, axis=0)

    v = data.draw(arrays(np.float64, (grid.n, *trailing), elements=_unit_interval))
    sign = -1.0 if order == 1 else 1.0
    assert np.array_equal(deriv(mirror(v), grid, order), sign * mirror(deriv(v, grid, order)))


# finite components from subnormal to 1e150, so products neither overflow nor all round alike
_mixed_magnitude = st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False)


@PROPERTY_SETTINGS
@given(st.sampled_from([(), (1,), (7,), (40,)]), st.sampled_from(["ab", "a", "b"]), st.data())
def test_cross_is_np_cross_bitwise(lead, stacked, data):
    # the operands named in ``stacked`` have the leading axes, the other is one
    # (3,) vector broadcast against them; lead () gives two (3,) vectors, as
    # compat passes them
    shape = {name: (*lead, 3) if name in stacked else (3,) for name in "ab"}
    a = data.draw(arrays(np.float64, shape["a"], elements=_mixed_magnitude))
    b = data.draw(arrays(np.float64, shape["b"], elements=_mixed_magnitude))
    got, want = cross(a, b), np.cross(a, b)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # the sign of zero included
    # the same layout too: np.sum of a column-major result adds in another order
    assert got.strides == want.strides


@st.composite
def unit_half_line_fields(draw):
    """A half-line grid of 8..40 nodes and a field of unit vectors."""
    n = draw(st.integers(8, 40))
    length = draw(st.sampled_from([1.0, 5.0, 20.0]))
    raw = draw(arrays(np.float64, (n, 3), elements=_unit_interval))
    norms = np.sqrt(np.sum(raw * raw, axis=1))
    assume(np.all(norms > 1e-3))
    return VectorField(Grid.half_line(length, n), raw / norms[:, None])


@PROPERTY_SETTINGS
@given(unit_half_line_fields())
def test_ghost_rhs_is_restricted_whole_line_rhs(node_rhs, u):
    ext = extend(u)
    whole = node_rhs(ext, ext.values)
    assert node_rhs(u, u.values).tobytes() == whole[u.grid.n - 1 :].tobytes()


@PROPERTY_SETTINGS
@given(unit_half_line_fields())
def test_half_line_midpoint_solve_is_the_restricted_whole_line_solve(u):
    # eight steps: Euler starts, linear starts, then cubic or linear by the
    # log's choice, each the same on both grids because T keeps every max|.|;
    # v(0) = e3 makes the extension T-fixed
    u = VectorField(u.grid, np.concatenate(([E3], u.values[1:])))
    dt = 0.02 * u.grid.h**2
    cfg = SimConfig(t_final=8 * dt, dt=dt, scheme=MIDPOINT_FIXEDPOINT, monitor_every=3)
    half = evolve.solve_whole_line(u, cfg)
    whole = evolve.solve_whole_line(extend(u), cfg)
    assert half.solver == whole.solver
    assert half.solver["steps"] >= 6
    assert np.array_equal(half.times, whole.times)
    for half_snap, whole_snap in zip(half.snapshots, whole.snapshots, strict=True):
        assert half_snap.tobytes() == restrict(VectorField(whole.grid, whole_snap)).values.tobytes()



@PROPERTY_SETTINGS
@given(st.sampled_from([HALF, PERIODIC]), st.integers(1, 12), st.floats(0.05, 1.0), st.data())
def test_the_solve_fills_exactly_the_series_it_allocates(kind, steps, last, data):
    # a cadence from every step to past the last one, so the last block may be
    # uneven or the run may keep only its first and last snapshots
    fam = get_family("planar_odd", a=0.5) if kind == HALF else get_family("helix")
    grid = Grid.half_line(20.0, 17) if kind == HALF else Grid.periodic(2.0 * np.pi, 16)
    dt = SimConfig().resolve_dt(grid.h)
    nsteps = SimConfig(t_final=(steps - 1 + last) * dt).schedule(grid.h)[1]
    every = data.draw(st.integers(1, nsteps + 2))
    cfg = SimConfig(t_final=(steps - 1 + last) * dt, snapshot_every=every)
    series = evolve.solve_whole_line(fam.sample(grid), cfg)
    assert len(series.times) == 1 + math.ceil(nsteps / every)
    assert series.times[-1] == cfg.t_final
    with pytest.raises(IndexError):  # the block is full
        series.record(2.0 * cfg.t_final, fam.sample(grid))


@PROPERTY_SETTINGS
@given(
    st.sampled_from([HALF, PERIODIC]),
    st.sampled_from([RK4_PROJECT, MIDPOINT_FIXEDPOINT]),
    st.floats(0.5, 30.0),
    st.none() | st.integers(1, 32),
    st.none() | st.integers(1, 32),
)
def test_the_run_keeps_its_schedule(kind, scheme, default_steps, snapshot, monitor):
    # what schedule(h) returns is what the solve did and what its summary echoes,
    # at the default cadence (8 RK4 or 20 midpoint steps here) or a set one
    fam = get_family("planar_odd", a=0.5) if kind == HALF else get_family("helix")
    grid = Grid.half_line(20.0, 17) if kind == HALF else Grid.periodic(2.0 * np.pi, 16)
    t_final = default_steps * SimConfig(scheme=scheme).resolve_dt(grid.h)
    cfg = SimConfig(t_final=t_final, scheme=scheme, snapshot_every=snapshot, monitor_every=monitor)
    dt, steps, snap, mon = cfg.schedule(grid.h)
    series = evolve.solve_whole_line(fam.sample(grid), cfg)
    assert series.solver["steps"] == steps
    assert len(series.times) == 1 + math.ceil(steps / snap)
    assert len(series.telemetry) == 1 + math.ceil(steps / mon)
    echo = invariant_suite(series)["config"]
    assert (echo["dt"], echo["snapshot_every"], echo["monitor_every"]) == (dt, snap, mon)


def _fresh_linear_start(slopes):
    return 2.0 * slopes[-1] - slopes[-2]


def _fresh_cubic_start(slopes):
    f1, f2, f3, f4 = slopes
    return 4.0 * f4 - 6.0 * f3 + 4.0 * f2 - f1


def _fresh_array_midpoint_step(u, dt, tol, log):
    """The midpoint step with a fresh array for every value: the reference for
    the in-place one, which must round every value the same way; a block."""
    lam = dt / (u.grid.h * u.grid.h)
    v, half = pack(u.values), 0.5 * lam
    linear, cubic = _fresh_linear_start, _fresh_cubic_start
    extrapolate = len(log.slopes) >= 2 and lam <= evolve.SLOPE_START_FACTOR
    four = extrapolate and len(log.slopes) == 4
    if not extrapolate:
        start = rhs(u, v)
    elif four and log.cubic:
        start = cubic(log.slopes)
    else:
        start = linear(log.slopes)
    m = v + half * start
    for it in range(1, evolve.FP_MAX_ITER + 1):
        f = rhs(u, m)
        cand = v + half * f
        inc = 2.0 * float(np.max(np.abs(cand - m)))
        m = cand
        if inc <= tol:
            if four:
                c = start if log.cubic else cubic(log.slopes)
                lin = linear(log.slopes) if log.cubic else start
                log.cubic = np.max(np.abs(f - c)) <= np.max(np.abs(f - lin))
            log.slopes = [*log.slopes[-3:], f]
            log.rhs_calls += it if extrapolate else it + 1
            log.iters.append(it)
            return v + lam * f
    raise AssertionError("the reference iteration did not converge")


@PROPERTY_SETTINGS
@given(unit_half_line_fields(), st.booleans())
def test_in_place_midpoint_steps_are_the_fresh_array_ones_bitwise(u, cubic):
    # eight steps on one log: two Euler starts, two linear ones, then cubic or
    # linear, the first of them by the drawn choice, the rest by the log's
    dt = 0.02 * u.grid.h**2
    cfg = SimConfig(scheme=MIDPOINT_FIXEDPOINT)
    log, ref = evolve.StepLog(cubic=cubic), evolve.StepLog(cubic=cubic)
    for _ in range(8):
        v = pack(u.values)
        held = [(a, a.tobytes()) for a in (v, *log.slopes)]
        # the starts alone, as the step's result hides a start's rounding
        # wherever the iteration converges to the same bits
        buf, scratch = np.empty((3, u.grid.n + 2)), np.empty((3, u.grid.n + 2))
        if len(log.slopes) >= 2:
            got = evolve._linear_start(log.slopes, buf)
            assert got.tobytes() == _fresh_linear_start(log.slopes).tobytes()
        if len(log.slopes) == 4:
            got = evolve._cubic_start(log.slopes, buf, scratch)
            assert got.tobytes() == _fresh_cubic_start(log.slopes).tobytes()
        want = _fresh_array_midpoint_step(u, dt, cfg.fp_tol, ref)
        u = VectorField(u.grid, unpack(step(u, v, dt, cfg, log)))
        assert all(a.tobytes() == before for a, before in held)  # nothing held was written
        assert u.values.tobytes() == unpack(want).tobytes()
        assert [f.tobytes() for f in log.slopes] == [f.tobytes() for f in ref.slopes]
        assert (log.cubic, log.iters, log.rhs_calls) == (ref.cubic, ref.iters, ref.rhs_calls)
    assert log.rhs_calls == sum(log.iters) + 2  # only the two Euler starts called rhs(u)


def test_wrong_ghost_shows_in_symmetry_telemetry(monkeypatch):
    # mutation: close s = 0 with bar(v(h)) instead of -bar(v(h))
    monkeypatch.setattr(evolve, "_NEGBAR_ROWS", -evolve._NEGBAR_ROWS)
    fam = get_family("planar_odd", a=0.5)
    cfg = SimConfig(t_final=0.05, monitor_every=5)
    run = evolve.solve_half_space(fam, Grid.half_line(20.0, 65), cfg)
    assert all(row["symmetry"] > 0.0 for row in run.telemetry)
    assert invariant_suite(run)["verdicts"]["symmetry"] is False
    assert invariant_suite(run)["maxima"]["energy_drift"]["max"] > ENERGY_DRIFT_TOL


def test_wrong_ghost_under_midpoint_exits_three(monkeypatch, tmp_path, capsys):
    # the same mutation under midpoint, where the energy verdict gates the exit code
    monkeypatch.setattr(evolve, "_NEGBAR_ROWS", -evolve._NEGBAR_ROWS)
    config = tmp_path / "run.cfg"
    config.write_text(
        "grid.kind = half\ngrid.L = 20.0\ngrid.n = 65\n"
        "data.family = planar_odd:a=0.5\nscheme = midpoint_fixedpoint\n"
        "time.t_final = 0.05\noutput.monitor_every = 5\n"
    )
    assert main(["simulate", str(config), "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL
    assert "invariant energy_drift: FAIL" in capsys.readouterr().out
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["verdicts"]["energy_drift"] is False
    assert summary["passed"] is False


@functools.cache
def _midpoint_half_line_run():
    # midpoint, where the energy drift is a verdict like the other tracked columns
    fam = get_family("planar_odd", a=0.5)
    cfg = SimConfig(t_final=0.2, scheme=MIDPOINT_FIXEDPOINT, monitor_every=3)
    return evolve.solve_half_space(fam, Grid.half_line(20.0, 65), cfg)


@PROPERTY_SETTINGS
@given(st.sampled_from(["norm_dev", "symmetry", "boundary", "energy"]), st.data())
def test_nan_in_a_tracked_column_fails_the_run(column, data):
    run = _midpoint_half_line_run()
    assert invariant_suite(run)["passed"]
    rows = [dict(row) for row in run.telemetry]
    data.draw(st.sampled_from(rows))[column] = float("nan")
    edited = copy.copy(run)  # the cached run keeps its rows
    edited.telemetry = rows
    summary = invariant_suite(edited)
    assert summary["verdicts"]["energy_drift" if column == "energy" else column] is False
    assert summary["passed"] is False


# every finite double, with the cells whose text is easy to get wrong drawn often
_finite = st.floats(allow_nan=False, allow_infinity=False)
_awkward = st.sampled_from(
    [
        0.0, -0.0,  # equal, yet "0.0" and "-0.0"
        5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,  # subnormal and smallest normal
        1e300, -1e300, 1.7976931348623157e308,
        # the edges of the bands where orjson lays out a float otherwise than repr
        1e-9, math.nextafter(1e-9, 0.0), 1e-4, math.nextafter(1e-4, 0.0),
        1e-5, -2.5e-6, 1.5e-7, 1e16, math.nextafter(1e16, 0.0), 1e22,
    ]
)
_cell = st.one_of(_awkward, _finite)


@st.composite
def fields_of_any_kind(draw):
    """A half, whole or periodic grid of 8..41 nodes and any finite field on it."""
    kind = draw(st.sampled_from(["half", "whole", "periodic"]))
    n = draw(st.integers(8, 40))
    length = draw(st.sampled_from([1.0, 5.0, 20.0, 2.0 * np.pi]))
    if kind == "half":
        grid = Grid.half_line(length, n)
    elif kind == "whole":
        grid = Grid.whole_line(length, n | 1)
    else:
        grid = Grid.periodic(length, n)
    return VectorField(grid, draw(arrays(np.float64, (grid.n, 3), elements=_cell)))


@PROPERTY_SETTINGS
@given(fields_of_any_kind())
def test_field_csv_round_trip_is_bitwise(u):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "field.csv")
        write_field_csv(path, u)
        back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert back[:, 0].tobytes() == u.grid.nodes().tobytes()
    assert back[:, 1:].tobytes() == u.values.tobytes()  # the sign of zero included


_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_every = st.none() | st.integers(1, 10**9)


@st.composite
def strict_spellings(draw, strict):
    """An accepted spelling of ``check.strict = strict``, in any case."""
    words = ["1", "true", "yes", "on"] if strict else ["0", "false", "no", "off"]
    word = draw(st.sampled_from(words))
    upper = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
    return "".join(ch.upper() if up else ch for ch, up in zip(word, upper))


@PROPERTY_SETTINGS
@given(
    st.builds(
        SimConfig,
        t_final=_positive,
        dt=st.none() | _positive,
        scheme=st.sampled_from([RK4_PROJECT, MIDPOINT_FIXEDPOINT]),
        snapshot_every=_every,
        monitor_every=_every,
        tol_boundary=_positive,
        fp_tol=_positive,
        check_order=st.integers(0, 2),
        compat_tol=_positive,
        farfield_tol=_positive,
        strict=st.booleans(),
    ),
    st.data(),
)
def test_config_round_trip(cfg, data):
    # every key a set field maps to, floats by repr; an unset field is an absent key
    lines = []
    for key, (field, _) in _SIM_KEYS.items():
        value = getattr(cfg, field)
        if key == "check.strict":
            lines.append(f"{key} = {data.draw(strict_spellings(value))}")
        elif value is not None:
            lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        Path(path).write_text("\n".join(lines) + "\n")
        assert _build_cfg(parse_config(path)) == cfg


# plain decimals such as 1.5e-3 and 16.07, where the step count once went wrong,
# and any floats; dt stays below the RK4 cap at h = 1
_plain_dt = st.builds(
    lambda m, e: float(f"{m}e-{e}"),
    st.sampled_from([1 + j / 2 for j in range(17)]),
    st.integers(3, 6),
)
_plain_t_final = st.integers(1, 1000).map(lambda k: k / 100)


@PROPERTY_SETTINGS
@given(
    dt=_plain_dt | st.floats(1e-6, 0.5),
    t_final=_plain_t_final | st.floats(1e-3, 10.0),
)
@example(dt=0.0009, t_final=16.065)
@example(dt=0.00025, t_final=8.05)
def test_last_step_is_positive(dt, t_final):
    nsteps = SimConfig(dt=dt, t_final=t_final).schedule(1.0)[1]
    last = t_final - (nsteps - 1) * dt
    assert 0.0 < last <= dt + 1e-12 * (dt + t_final)
    # the earlier count, kept wherever its last step was not empty
    earlier = max(1, math.ceil(t_final / dt - 1e-12))
    if t_final - (earlier - 1) * dt > 0.0:
        assert nsteps == earlier
    else:
        assert nsteps == earlier - 1


@PROPERTY_SETTINGS
@given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
def test_rk4_default_dt_is_its_cap(h):
    # the default never trips the one stability guard, whatever the grid
    assert SimConfig().resolve_dt(h) == STABILITY_FACTOR[RK4_PROJECT] * h * h


@PROPERTY_SETTINGS
@given(
    st.sampled_from(sorted(STENCILS)),
    st.floats(1e-3, 1e3),
    st.integers(-200, 200),
    arrays(np.float64, (9, 3), elements=st.integers(-(2**20), 2**20).map(lambda m: m / 2**20)),
)
def test_boundary_estimate_is_scale_free(stencil, length, j, values):
    # a length 2^j times as long scales h and each division by it exactly:
    # samples on a 2^-20 lattice keep every intermediate a normal float
    k, p = stencil
    est, scaled = (
        one_sided_deriv_at_zero(VectorField(Grid.half_line(L, 9), values), k, points=p)
        for L in (length, math.ldexp(length, j))
    )
    assert scaled.tobytes() == (est * 2.0 ** (-j * k)).tobytes()


@PROPERTY_SETTINGS
@given(st.integers(8, 40), st.sampled_from([1.0, 5.0, 20.0]), st.data())
def test_restrict_of_extend_is_identity(n, length, data):
    grid = Grid.half_line(length, n)
    u = VectorField(grid, data.draw(arrays(np.float64, (n, 3), elements=_mixed_magnitude)))
    back = restrict(extend(u))
    assert back.grid == grid
    assert back.values.tobytes() == u.values.tobytes()


@st.composite
def snapshot_series(draw, blocks=st.integers(1, 6), columns=st.sampled_from([3, 6])):
    """(series, curves or None) of ``blocks`` blocks on a half grid of 8..16 nodes.

    ``columns`` is 3 (tangents) or 6 (tangents and curves).  Each block
    after the first keeps, negates or redraws each cell of the one before,
    so cells repeat across blocks and zeros flip sign.
    """
    n = draw(st.integers(8, 16))
    blocks = draw(blocks)
    k = draw(columns)
    tables = [draw(arrays(np.float64, (n, k), elements=_cell))]
    for _ in range(blocks - 1):
        action = draw(arrays(np.int8, (n, k), elements=st.integers(0, 2)))
        fresh = draw(arrays(np.float64, (n, k), elements=_cell))
        prev = tables[-1]
        tables.append(np.where(action == 0, prev, np.where(action == 1, -prev, fresh)))
    times = sorted(draw(st.lists(_finite, min_size=blocks, max_size=blocks, unique=True)))
    grid = Grid.half_line(draw(st.sampled_from([1.0, 20.0, 1e300])), n)
    series = TimeSeries(grid, blocks, SimConfig())
    for t, table in zip(times, tables):
        series.record(t, VectorField(grid, table[:, :3].copy()))
    curves = [FilamentCurve(grid, t[:, 3:].copy()) for t in tables] if k == 6 else None
    return series, curves


def _parsed_both_ways(text: str) -> tuple:
    """The cells of CSV ``text`` (no header) as read by ``float`` and by ``numpy.loadtxt``."""
    by_float = np.array([[float(cell) for cell in line.split(",")] for line in text.splitlines()])
    by_loadtxt = np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2)
    return by_float, by_loadtxt


@PROPERTY_SETTINGS
@given(snapshot_series())
def test_snapshots_csv_reads_back_bitwise(series_and_curves):
    series, curves = series_and_curves
    n = series.grid.n
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snapshots.csv"
        write_snapshots_csv(str(path), series, curves)
        header, body = path.read_text().split("\n", 1)
    assert header == "t,s,v1,v2,v3" + (",x1,x2,x3" if curves is not None else "")
    lines = body.splitlines()
    assert len(lines) == n * len(series.times)  # one block of n rows per snapshot
    for m, t in enumerate(series.times):
        assert all(line.startswith(str(float(t)) + ",") for line in lines[m * n : (m + 1) * n])
    want = np.vstack(
        [
            np.column_stack(
                [np.full(n, float(t)), series.grid.nodes(), snap]
                + ([] if curves is None else [curves[m].positions])
            )
            for m, (t, snap) in enumerate(zip(series.times, series.snapshots))
        ]
    )
    for got in _parsed_both_ways(body):
        assert got.tobytes() == want.tobytes()  # the sign of zero included


def test_rows_text_reads_back_bitwise_on_random_and_band_values():
    # an orjson release that printed digits that read back to another float would fail here
    rng = np.random.default_rng(20240607)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False).view(np.float64)
    signs = rng.choice([-1.0, 1.0], 100_000)
    small = signs * 10.0 ** rng.uniform(-9.0, -4.0, 100_000)  # repr writes 1e-05, orjson 0.00001
    large = signs * 10.0 ** rng.uniform(16.0, 308.25, 100_000)  # repr writes 1e+16, orjson 1e16
    subnormal = signs * rng.integers(1, 2**52, 100_000, dtype=np.uint64).view(np.float64)
    edges = np.array([0.0, 1e-9, math.nextafter(1e-9, 0.0), 1e-4, math.nextafter(1e-4, 0.0),
                      1e16, math.nextafter(1e16, 0.0), math.nextafter(1e16, math.inf),
                      5e-324, math.nextafter(2.2250738585072014e-308, 0.0),
                      2.2250738585072014e-308, 1.7976931348623157e308])
    values = np.concatenate([bits[np.isfinite(bits)], small, large, subnormal, edges, -edges])
    values = np.concatenate([values, np.zeros(-len(values) % 8)]).reshape(-1, 8)
    rng.shuffle(values.reshape(-1))
    text = cli._rows_text(values, "7.5,")
    assert text.endswith("\n")
    lines = text.splitlines()
    assert len(lines) == len(values)
    assert all(line.startswith("7.5,") for line in lines)
    for got in _parsed_both_ways(text):
        assert got[:, 1:].tobytes() == values.tobytes()
        assert got[:, 0].tobytes() == np.full(len(values), 7.5).tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rows_text_refuses_a_non_finite_cell(bad):
    # orjson would write it as null, which reads back as no number at all
    values = np.ones((4, 3))
    values[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        cli._rows_text(values, "0.0,")


_TELEMETRY_KEYS = ["step", "time", "norm_dev", "energy", "symmetry", "boundary"]


@PROPERTY_SETTINGS
@given(
    st.lists(
        st.fixed_dictionaries(
            {"step": st.integers(0, 10**6), "time": _cell, "norm_dev": _cell, "energy": _cell},
            optional={"symmetry": _cell, "boundary": _cell},
        ),
        max_size=8,
    )
)
def test_telemetry_csv_is_naive_str_bytewise(rows):
    lines = [_TELEMETRY_KEYS]
    for row in rows:
        cells = [repr(row[k]) if k in row else "" for k in _TELEMETRY_KEYS[1:]]
        lines.append([str(row["step"]), *cells])
    want = "".join(",".join(line) + "\n" for line in lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "telemetry.csv"
        write_telemetry_csv(str(path), rows)
        assert path.read_text() == want


@PROPERTY_SETTINGS
@given(st.integers(8, 64), st.data())
def test_norms_are_numpy_sum_bitwise(n, data):
    v = data.draw(arrays(np.float64, (n, 3), elements=st.one_of(_mixed_magnitude, _cell)))
    # snapshots read as (n, m, 3), the transposed view the NLS diagnostic reads
    stacked = np.stack((v, v[::-1])).transpose(1, 0, 2)
    with np.errstate(over="ignore"):  # squares above 1.3e154 are inf both ways
        want = np.sqrt(np.sum(v * v, axis=1))
        assert row_norms(v).tobytes() == want.tobytes()
        assert row_norms(stacked).tobytes() == np.sqrt(np.sum(stacked * stacked, axis=-1)).tobytes()


@PROPERTY_SETTINGS
@given(st.integers(8, 40), st.data(), st.sampled_from([np.nan, np.inf, -np.inf]))
def test_normalize_raises_on_one_non_finite_entry(n, data, bad):
    # the solve has no finiteness pass of its own: an RK4 result is checked here
    v = data.draw(arrays(np.float64, (n, 3), elements=st.one_of(_mixed_magnitude, _unit_interval)))
    norms = np.sqrt(np.sum(v * v, axis=1))
    try:
        out = normalize_field(v)
    except DegenerateVector:
        assert np.any(norms < MIN_NORM)
    else:  # the bits of v / |v| from row norms in numpy's sum order
        assert not np.any(norms < MIN_NORM)
        assert out.tobytes() == (v / norms[:, None]).tobytes()
    # finiteness comes first: a degenerate row elsewhere does not turn it into DegenerateVector
    v[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 2))] = bad
    with pytest.raises(NonFiniteState, match="^field values must be finite$"):
        normalize_field(v)


@PROPERTY_SETTINGS
@given(st.integers(8, 40), st.data())
def test_normalize_raises_exactly_below_min_norm(n, data):
    v = data.draw(arrays(np.float64, (n, 3), elements=st.floats(-2.0, 2.0)))
    # rows of norm MIN_NORM or one ulp off it probe the boundary itself
    edge = [MIN_NORM, np.nextafter(MIN_NORM, 0.0), np.nextafter(MIN_NORM, 1.0)]
    row = st.tuples(st.integers(0, n - 1), st.integers(0, 2), st.sampled_from(edge))
    for i, axis, radius in data.draw(st.lists(row, max_size=3)):
        v[i] = 0.0
        v[i, axis] = data.draw(st.sampled_from([radius, -radius]))
    norms = np.sqrt(np.sum(v * v, axis=1))
    try:
        out = normalize_field(v)
    except DegenerateVector:
        assert np.any(norms < MIN_NORM)
    else:
        assert not np.any(norms < MIN_NORM)
        assert out.tobytes() == (v / norms[:, None]).tobytes()
