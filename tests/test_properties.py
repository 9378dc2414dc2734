"""Property tests: the reflection T commutes exactly with rhs, one step and deriv.

T maps a whole-line field w to (T w)(s) = -bar(w(-s)).  The half-space
scheme relies on the discrete flow commuting with T bit for bit; these
tests check that over random finite fields, not only over the builtin
families (which are T-fixed after extension).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from filamentlab.evolve import MIDPOINT_FIXEDPOINT, RK4_PROJECT, SimConfig, rhs, step
from filamentlab.geometry import Grid, VectorField, deriv
from filamentlab.reflect import apply_T

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
    # dt well below the explicit cap 0.28 h^2, where the fixed point contracts
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
