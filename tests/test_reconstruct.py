"""Curve reconstruction from tangent trajectories."""

import numpy as np
import pytest

from filamentlab.compat import RingFamily, get_family
from filamentlab.errors import GridMismatch
from filamentlab.evolve import SimConfig, solve_half_space, solve_whole_line
from filamentlab.geometry import E3, Grid, VectorField
from filamentlab.reconstruct import (
    FilamentCurve,
    arclength_deviation,
    endpoint_height,
    flow_velocity,
    integrate_tangent,
    reconstruct_positions,
)


def test_integrate_tangent_straight_line():
    g = Grid.half_line(10.0, 101)
    v0 = VectorField(g, np.tile(E3, (101, 1)))
    curve = integrate_tangent(v0)
    expect = np.stack([0 * g.nodes(), 0 * g.nodes(), g.nodes()], axis=1)
    assert np.allclose(curve.positions, expect, atol=1e-13)
    assert endpoint_height(curve) == 0.0


def test_integrate_tangent_circle():
    fam = RingFamily(1.0)
    g = Grid.periodic(fam.period(), 256)
    curve = integrate_tangent(fam.sample(g))
    s = g.nodes()
    # antiderivative of (-sin s, cos s, 0) from 0 is (cos s - 1, sin s, 0)
    expect = np.stack([np.cos(s) - 1.0, np.sin(s), 0.0 * s], axis=1)
    # trapezoid truncation accumulates to ~ period * h^2 / 12
    assert np.max(np.abs(curve.positions - expect)) < 1e-3


def test_flow_velocity_ring_is_wall_parallel_translation():
    # circle of radius r: v x v_s = e3 / r pointwise
    fam = RingFamily(0.5)
    g = Grid.periodic(fam.period(), 512)
    w = flow_velocity(fam.sample(g))
    assert np.allclose(w, [0.0, 0.0, 2.0], atol=1e-3)


def test_straight_run_curve_is_static():
    fam = get_family("straight")
    g = Grid.half_line(10.0, 65)
    run = solve_half_space(fam.sample(g), SimConfig(t_final=0.05), resampler=fam.sample)
    curves = reconstruct_positions(integrate_tangent(fam.sample(g)), run)
    assert len(curves) == len(run.times)
    for c in curves:
        assert np.array_equal(c.positions, curves[0].positions)
        assert endpoint_height(c) == 0.0


def test_ring_curve_translates_along_axis():
    fam = RingFamily(0.5)
    g = Grid.periodic(fam.period(), 128)
    v0 = fam.sample(g)
    series = solve_whole_line(v0, SimConfig(t_final=0.1))
    curves = reconstruct_positions(integrate_tangent(v0), series)
    disp = np.mean(curves[-1].positions - curves[0].positions, axis=0)
    assert np.allclose(disp, [0.0, 0.0, 0.2], atol=5e-3)


def test_arclength_deviation_second_order():
    fam = get_family("planar_odd", a=0.5)
    devs = []
    for n in (129, 257):
        g = Grid.half_line(20.0, n)
        devs.append(arclength_deviation(integrate_tangent(fam.sample(g))))
    assert 3.0 <= devs[0] / devs[1] <= 5.0


def test_truncated_series_prefix_is_bitwise_identical():
    # trapezoid accumulation in t means shared times share partial sums
    fam = RingFamily(0.5)
    g = Grid.periodic(fam.period(), 64)
    v0 = fam.sample(g)
    series = solve_whole_line(v0, SimConfig(t_final=0.05))
    full = reconstruct_positions(integrate_tangent(v0), series)

    from filamentlab.evolve import TimeSeries

    short = TimeSeries(
        grid=series.grid,
        times=series.times[:3],
        snapshots=series.snapshots[:3],
    )
    part = reconstruct_positions(integrate_tangent(v0), short)
    for a, b in zip(part, full[:3]):
        assert np.array_equal(a.positions, b.positions)


def test_grid_mismatch_raises():
    fam = RingFamily(0.5)
    g = Grid.periodic(fam.period(), 64)
    v0 = fam.sample(g)
    series = solve_whole_line(v0, SimConfig(t_final=0.01))
    other = Grid.periodic(fam.period(), 32)
    x0 = FilamentCurve(other, np.zeros((32, 3)))
    with pytest.raises(GridMismatch):
        reconstruct_positions(x0, series)


def test_curve_shape_validated():
    g = Grid.half_line(1.0, 11)
    with pytest.raises(GridMismatch):
        FilamentCurve(g, np.zeros((10, 3)))
