"""Property tests: the reflection T commutes exactly with rhs, one step and deriv.

T maps a whole-line field w to (T w)(s) = -bar(w(-s)).  The half-space
scheme relies on the discrete flow commuting with T bit for bit; these
tests check that over random finite fields, not only over the builtin
families (which are T-fixed after extension).  The half-line stepper
relies on more: its ghost-closed ``rhs`` is the whole-line ``rhs`` of the
extension, restricted, and a wrong ghost must show in the telemetry.
Two round trips must be exact too: a field CSV written and read back, and
the restriction of an extension.
"""

import os
import tempfile

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from filamentlab import evolve, reflect
from filamentlab.cli import read_field_csv, write_field_csv
from filamentlab.compat import get_family
from filamentlab.evolve import MIDPOINT_FIXEDPOINT, RK4_PROJECT, SimConfig, rhs, step
from filamentlab.geometry import Grid, VectorField, cross, deriv
from filamentlab.harness import invariant_suite
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
    assert all(row["symmetry"] > 0.0 for row in run.half.telemetry)
    assert invariant_suite(run, cfg=cfg).verdicts["symmetry"] is False
    assert invariant_suite(run, cfg=cfg).energy_drift["passed"] is False


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


@PROPERTY_SETTINGS
@given(st.integers(8, 40), st.sampled_from([1.0, 5.0, 20.0]), st.data())
def test_restrict_of_extend_is_identity(n, length, data):
    grid = Grid.half_line(length, n)
    u = VectorField(grid, data.draw(arrays(np.float64, (n, 3), elements=_mixed_magnitude)))
    back = restrict(extend(u))
    assert back.grid == grid
    assert back.values.tobytes() == u.values.tobytes()
