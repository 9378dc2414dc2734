"""Property tests: the reflection T commutes exactly with rhs, one step and deriv.

One step means either start of the midpoint iteration too: the Euler slope
and the slope extrapolated from two earlier steps.

T maps a whole-line field w to (T w)(s) = -bar(w(-s)).  The half-space
scheme relies on the discrete flow commuting with T bit for bit; these
tests check that over random finite fields, not only over the builtin
families (which are T-fixed after extension).  The half-line stepper
relies on more: its ghost-closed ``rhs`` is the whole-line ``rhs`` of the
extension, restricted, and a wrong ghost must show in the telemetry.
Three round trips must be exact too: a field CSV written and read back, a
SimConfig written as a config file and read back, and the restriction of
an extension.  The fast paths must not move a bit: the snapshot writer
against a naive per-row repr, and the norm kernels against numpy's sum.
"""

import os
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from filamentlab import evolve, reflect
from filamentlab.cli import (
    _SIM_KEYS,
    _build_cfg,
    parse_config,
    read_field_csv,
    write_field_csv,
    write_snapshots_csv,
    write_telemetry_csv,
)
from filamentlab.compat import get_family
from filamentlab.errors import DegenerateVector
from filamentlab.evolve import MIDPOINT_FIXEDPOINT, RK4_PROJECT, SimConfig, TimeSeries, rhs, step
from filamentlab.geometry import MIN_NORM, Grid, VectorField, cross, deriv, normalize_field
from filamentlab.harness import invariant_suite
from filamentlab.reconstruct import FilamentCurve
from filamentlab.reflect import apply_T, extend, restrict

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

_unit_interval = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def whole_line_fields(draw):
    """A whole-line grid of 9..41 nodes and a field with components in [-1, 1]."""
    n = 2 * draw(st.integers(4, 20)) + 1
    length = draw(st.sampled_from([1.0, 5.0, 20.0]))
    grid = Grid.whole_line(length, n)
    return VectorField(grid, draw(arrays(np.float64, (n, 3), elements=_unit_interval)))


@PROPERTY_SETTINGS
@given(whole_line_fields())
def test_rhs_commutes_with_T(u):
    assert np.array_equal(rhs(apply_T(u)), apply_T(VectorField(u.grid, rhs(u))).values)


@PROPERTY_SETTINGS
@given(whole_line_fields(), st.sampled_from([RK4_PROJECT, MIDPOINT_FIXEDPOINT]))
def test_step_commutes_with_T(u, scheme):
    # dt well below either scheme's cap, where the fixed point contracts
    dt = 0.02 * u.grid.h**2
    cfg = SimConfig(scheme=scheme)
    assert np.array_equal(step(apply_T(u), dt, cfg).values, apply_T(step(u, dt, cfg)).values)


@PROPERTY_SETTINGS
@given(whole_line_fields(), st.data())
def test_slope_started_midpoint_step_commutes_with_T(u, data):
    # the start 2 f_1 - f_2 from the slopes of two earlier steps, here the
    # rhs of two other fields; T maps a slope as it maps a state
    shape = (u.grid.n, 3)
    slopes = [
        rhs(VectorField(u.grid, data.draw(arrays(np.float64, shape, elements=_unit_interval))))
        for _ in range(2)
    ]
    plain = evolve.MidpointHistory(slopes)
    mirrored = evolve.MidpointHistory([apply_T(VectorField(u.grid, f)).values for f in slopes])
    dt = 0.02 * u.grid.h**2
    cfg = SimConfig(scheme=MIDPOINT_FIXEDPOINT)
    got = step(apply_T(u), dt, cfg, mirrored).values
    assert np.array_equal(got, apply_T(step(u, dt, cfg, plain)).values)
    assert plain.rhs_calls == plain.iters[-1]  # no rhs(u): the step started from the slopes
    assert (plain.rhs_calls, plain.iters) == (mirrored.rhs_calls, mirrored.iters)
    assert np.array_equal(mirrored.slopes[-1], apply_T(VectorField(u.grid, plain.slopes[-1])).values)


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
@given(st.sampled_from([(), (1,), (7,), (40,)]), st.data())
def test_cross_is_np_cross_bitwise(lead, data):
    a = data.draw(arrays(np.float64, (*lead, 3), elements=_mixed_magnitude))
    b = data.draw(arrays(np.float64, (*lead, 3), elements=_mixed_magnitude))
    got, want = cross(a, b), np.cross(a, b)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # the sign of zero included


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
def test_ghost_rhs_is_restricted_whole_line_rhs(u):
    whole = rhs(extend(u))
    assert rhs(u).tobytes() == whole[u.grid.n - 1 :].tobytes()


def test_wrong_ghost_shows_in_symmetry_telemetry(monkeypatch):
    # mutation: close s = 0 with bar(v(h)) instead of -bar(v(h))
    monkeypatch.setattr(evolve, "_NEGBAR", reflect._BAR)
    fam = get_family("planar_odd", a=0.5)
    v0 = fam.sample(Grid.half_line(20.0, 65))
    cfg = SimConfig(t_final=0.05, monitor_every=5)
    run = evolve.solve_half_space(v0, cfg, resampler=fam.sample)
    assert all(row["symmetry"] > 0.0 for row in run.telemetry)
    assert invariant_suite(run).verdicts["symmetry"] is False
    assert invariant_suite(run).energy_drift["passed"] is False


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
    return VectorField(grid, draw(arrays(np.float64, (grid.n, 3), elements=_mixed_magnitude)))


@PROPERTY_SETTINGS
@given(fields_of_any_kind())
def test_field_csv_round_trip_is_bitwise(u):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "field.csv")
        write_field_csv(path, u)
        back = read_field_csv(path, u.grid.kind)
    assert (back.grid.kind, back.grid.n) == (u.grid.kind, u.grid.n)
    assert np.allclose(back.grid.nodes(), u.grid.nodes(), rtol=0.0, atol=1e-12 * u.grid.s_max)
    assert back.values.tobytes() == u.values.tobytes()  # the sign of zero included


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


@PROPERTY_SETTINGS
@given(st.integers(8, 40), st.sampled_from([1.0, 5.0, 20.0]), st.data())
def test_restrict_of_extend_is_identity(n, length, data):
    grid = Grid.half_line(length, n)
    u = VectorField(grid, data.draw(arrays(np.float64, (n, 3), elements=_mixed_magnitude)))
    back = restrict(extend(u))
    assert back.grid == grid
    assert back.values.tobytes() == u.values.tobytes()


# every finite double, with the cells a reuse rule could get wrong drawn often
_finite = st.floats(allow_nan=False, allow_infinity=False)
_awkward = st.sampled_from(
    [
        0.0, -0.0,  # equal, yet "0.0" and "-0.0"
        5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,  # subnormal and smallest normal
        1e300, -1e300, 1.7976931348623157e308,
    ]
)
_cell = st.one_of(_awkward, _finite)


@st.composite
def snapshot_series(draw):
    """(series, curves or None) of 1..6 blocks on a half grid of 8..16 nodes.

    Each block after the first keeps, negates or redraws each cell of the
    one before, so cells repeat across blocks and zeros flip sign.
    """
    n = draw(st.integers(8, 16))
    blocks = draw(st.integers(1, 6))
    k = draw(st.sampled_from([3, 6]))
    tables = [draw(arrays(np.float64, (n, k), elements=_cell))]
    for _ in range(blocks - 1):
        action = draw(arrays(np.int8, (n, k), elements=st.integers(0, 2)))
        fresh = draw(arrays(np.float64, (n, k), elements=_cell))
        prev = tables[-1]
        tables.append(np.where(action == 0, prev, np.where(action == 1, -prev, fresh)))
    times = sorted(draw(st.lists(_finite, min_size=blocks, max_size=blocks, unique=True)))
    grid = Grid.half_line(draw(st.sampled_from([1.0, 20.0, 1e300])), n)
    series = TimeSeries(grid, times, [VectorField(grid, t[:, :3].copy()) for t in tables])
    curves = [FilamentCurve(grid, t[:, 3:].copy()) for t in tables] if k == 6 else None
    return series, curves


def _naive_snapshots_csv(series, curves) -> str:
    lines = ["t,s,v1,v2,v3" + (",x1,x2,x3" if curves is not None else "")]
    s = series.grid.nodes().tolist()
    for m, (t, snap) in enumerate(zip(series.times, series.snapshots)):
        for i in range(series.grid.n):
            row = [float(t), s[i], *snap.values[i].tolist()]
            if curves is not None:
                row += curves[m].positions[i].tolist()
            lines.append(",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


@PROPERTY_SETTINGS
@given(snapshot_series())
def test_snapshots_csv_is_naive_repr_bytewise(series_and_curves):
    series, curves = series_and_curves
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snapshots.csv"
        write_snapshots_csv(str(path), series, curves)
        assert path.read_bytes() == _naive_snapshots_csv(series, curves).encode()


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
    with np.errstate(over="ignore"):  # squares above 1.3e154 are inf both ways
        got = VectorField(Grid.half_line(1.0, n), v).norms()
        want = np.sqrt(np.sum(v * v, axis=1))
    assert got.tobytes() == want.tobytes()


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
        out = normalize_field(VectorField(Grid.half_line(1.0, n), v))
    except DegenerateVector:
        assert np.any(norms < MIN_NORM)
    else:
        assert not np.any(norms < MIN_NORM)
        assert out.values.tobytes() == (v / norms[:, None]).tobytes()
