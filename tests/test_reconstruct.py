"""Curve reconstruction from tangent trajectories."""

import numpy as np
import pytest

from filamentlab.compat import HelixFamily, RingFamily, get_family
from filamentlab.errors import GridMismatch
from filamentlab.evolve import SimConfig, solve_half_space, solve_whole_line
from filamentlab.geometry import E3, Grid, VectorField, cross, deriv
from filamentlab.harness import invariant_suite
from filamentlab.reconstruct import (
    FilamentCurve,
    arclength_deviation,
    endpoint_height,
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


def test_straight_run_curve_is_static():
    fam = get_family("straight")
    g = Grid.half_line(10.0, 65)
    run = solve_half_space(fam, g, SimConfig(t_final=0.05))
    curves = reconstruct_positions(integrate_tangent(VectorField(g, run.snapshots[0])), run)
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


def _curves(run):
    return reconstruct_positions(integrate_tangent(VectorField(run.grid, run.snapshots[0])), run)


def test_thinned_cadence_keeps_the_verdicts():
    # a trapezoid in t over 3 snapshots once gave arclength_dev 3.67e-2 against its
    # 7.66e-3 bound here, so a correct simulate at snapshot_every = 640 exited 3
    fam = get_family("planar_odd", a=0.5)
    grid = Grid.half_line(20.0, 512)
    dense, thinned = (
        invariant_suite(run, _curves(run))
        for run in (
            solve_half_space(fam, grid, SimConfig(t_final=1.0, snapshot_every=every))
            for every in (None, 640)
        )
    )
    assert dense["passed"] and thinned["passed"]
    assert dense["maxima"]["arclength_dev"]["max"] < 5e-5  # measured 4.77e-5
    assert thinned["maxima"]["arclength_dev"]["max"] == dense["maxima"]["arclength_dev"]["max"]


def test_half_line_foot_is_the_schemes_foot_path():
    # the mirror ghost v(-h) = -bar(v(h)) makes the foot velocity e3 x v_s(0) = e3 x v(h) / h;
    # its trapezoid over every step agrees with the foot read off each state (measured
    # 3.1e-7, against 4.1e-4 for a trapezoid of deriv's one-sided v x v_s)
    fam = get_family("planar_odd", a=0.5)
    grid = Grid.half_line(20.0, 512)
    run = solve_half_space(fam, grid, SimConfig(t_final=1.0, snapshot_every=1))
    assert len(run.times) > 1000
    velocity = cross(E3, run.snapshots[:, 1]) / grid.h
    steps = 0.5 * np.diff(run.times)[:, None] * (velocity[1:] + velocity[:-1])
    path = np.concatenate([np.zeros((1, 3)), np.cumsum(steps, axis=0)])
    foot = np.array([curve.positions[0] for curve in _curves(run)])
    assert np.max(np.abs(foot - path)) <= 1e-6
    assert np.max(np.abs(foot[-1])) > 0.1  # the foot travels


def test_periodic_curve_is_the_node_by_node_trapezoid():
    # the block form against the per-snapshot loop it replaced: the same arithmetic, the same bits
    v0 = HelixFamily().sample(Grid.periodic(2.0 * np.pi, 64))
    series = solve_whole_line(v0, SimConfig(t_final=0.05, snapshot_every=3))
    x0 = integrate_tangent(v0)
    expect, accum = [x0.positions], np.zeros_like(x0.positions)
    for m in range(1, len(series.times)):
        w_prev, w = (cross(v, deriv(v, v0.grid, 1)) for v in series.snapshots[m - 1 : m + 1])
        accum = accum + 0.5 * (series.times[m] - series.times[m - 1]) * (w_prev + w)
        expect.append(x0.positions + accum)
    curves = reconstruct_positions(x0, series)
    assert len(curves) == len(expect) > 2
    for curve, positions in zip(curves, expect):
        assert curve.positions.tobytes() == positions.tobytes()


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

    short = TimeSeries(series.grid, 3, series.cfg)
    for t, values in zip(series.times[:3], series.snapshots[:3]):
        short.record(t, VectorField(g, values))
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
