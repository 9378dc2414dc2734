"""Time stepping, invariants of the discrete flow, and the half-space solve."""

import numpy as np
import pytest

from filamentlab.compat import HelixFamily, get_family
from filamentlab.errors import (
    CompatibilityRejected,
    FarFieldViolation,
    FixedPointDiverged,
    NotUnitField,
    StabilityViolated,
)
from filamentlab.evolve import (
    SimConfig,
    bending_energy,
    farfield_deviation,
    rhs,
    solve_half_space,
    solve_whole_line,
    stability_cap,
    step,
)
from filamentlab.geometry import E3, Grid, VectorField
from filamentlab.reflect import extend, restrict


def _constant_e3(grid):
    return VectorField(grid, np.tile(E3, (grid.n, 1)))


class TestRhs:
    def test_straight_is_fixed_point(self):
        g = Grid.periodic(2.0 * np.pi, 64)
        assert np.array_equal(rhs(_constant_e3(g)).values, np.zeros((64, 3)))

    def test_helix_closed_form(self):
        # v x v_ss for (a cos ks, a sin ks, c) is c k^2 a (sin ks, -cos ks, 0)
        a, c, k = 0.6, 0.8, 2.0
        g = Grid.periodic(2.0 * np.pi, 256)
        s = g.nodes()
        fam = HelixFamily(a, c, k)
        got = rhs(fam.sample(g)).values
        expect = np.stack(
            [c * k * k * a * np.sin(k * s), -c * k * k * a * np.cos(k * s), 0.0 * s],
            axis=1,
        )
        assert np.max(np.abs(got - expect)) < 1e-2  # O(h^2), h ~ 0.0245

    def test_helix_rhs_converges(self):
        a, c, k = 0.6, 0.8, 2.0
        fam = HelixFamily(a, c, k)
        errs = []
        for n in (128, 256):
            g = Grid.periodic(2.0 * np.pi, n)
            s = g.nodes()
            expect = np.stack(
                [
                    c * k * k * a * np.sin(k * s),
                    -c * k * k * a * np.cos(k * s),
                    0.0 * s,
                ],
                axis=1,
            )
            errs.append(np.max(np.abs(rhs(fam.sample(g)).values - expect)))
        assert 3.0 <= errs[0] / errs[1] <= 5.0

    def test_edges_clamped_on_whole_grid(self):
        fam = get_family("planar_odd", a=0.5)
        ext = extend(fam.sample(Grid.half_line(10.0, 65)))
        out = rhs(ext).values
        assert np.array_equal(out[0], [0.0, 0.0, 0.0])
        assert np.array_equal(out[-1], [0.0, 0.0, 0.0])


class TestConfig:
    def test_default_dt(self):
        cfg = SimConfig()
        assert cfg.resolve_dt(0.1) == pytest.approx(1e-3)

    def test_stability_guard(self):
        cfg = SimConfig(dt=0.5)
        with pytest.raises(StabilityViolated):
            cfg.resolve_dt(0.1)
        assert stability_cap(0.1) == pytest.approx(0.28 * 0.01)

    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            SimConfig(scheme="euler")

    def test_bad_t_final(self):
        with pytest.raises(ValueError):
            SimConfig(t_final=0.0)


class TestStep:
    def test_straight_is_stationary(self):
        g = Grid.periodic(2.0 * np.pi, 64)
        u = _constant_e3(g)
        out = step(u, 1e-4, SimConfig())
        assert np.array_equal(out.values, u.values)

    def test_step_rejects_big_dt(self):
        g = Grid.periodic(2.0 * np.pi, 64)
        with pytest.raises(StabilityViolated):
            step(_constant_e3(g), 1.0, SimConfig())

    def test_midpoint_diverges_with_one_iteration(self):
        g = Grid.periodic(2.0 * np.pi, 64)
        fam = HelixFamily()
        cfg = SimConfig(scheme="midpoint_fixedpoint", fp_tol=1e-16, fp_max_iter=1)
        with pytest.raises(FixedPointDiverged):
            step(fam.sample(g), 1e-4, cfg)

    def test_midpoint_conserves_norm_per_step(self):
        g = Grid.periodic(2.0 * np.pi, 64)
        fam = HelixFamily()
        u = fam.sample(g)
        cfg = SimConfig(scheme="midpoint_fixedpoint")
        out = step(u, 1e-4, cfg)
        assert out.unit_deviation() < 1e-13


class TestWholeLine:
    def test_helix_tracks_exact_rotating_wave(self):
        a, c, k = 0.6, 0.8, 2.0
        fam = HelixFamily(a, c, k)
        g = Grid.periodic(2.0 * np.pi, 128)
        series = solve_whole_line(fam.sample(g), SimConfig(t_final=0.1))
        exact = fam.exact(g.nodes(), 0.1)
        assert np.max(np.abs(series.final().values - exact)) < 5e-3

    def test_rk4_norm_exact_to_roundoff(self):
        fam = HelixFamily()
        g = Grid.periodic(2.0 * np.pi, 64)
        series = solve_whole_line(fam.sample(g), SimConfig(t_final=0.05))
        assert max(r["norm_dev"] for r in series.telemetry) < 1e-14

    def test_midpoint_norm_conserved(self):
        fam = HelixFamily()
        g = Grid.periodic(2.0 * np.pi, 64)
        cfg = SimConfig(t_final=0.05, scheme="midpoint_fixedpoint")
        series = solve_whole_line(fam.sample(g), cfg)
        assert max(r["norm_dev"] for r in series.telemetry) < 1e-11

    def test_energy_roughly_conserved(self):
        fam = HelixFamily()
        g = Grid.periodic(2.0 * np.pi, 128)
        series = solve_whole_line(fam.sample(g), SimConfig(t_final=0.1))
        energies = [r["energy"] for r in series.telemetry]
        assert abs(energies[-1] - energies[0]) < 1e-3 * abs(energies[0])

    def test_final_time_hit_exactly(self):
        fam = HelixFamily()
        g = Grid.periodic(2.0 * np.pi, 64)
        series = solve_whole_line(fam.sample(g), SimConfig(t_final=0.0731))
        assert series.times[-1] == 0.0731

    def test_deterministic_bitwise(self):
        fam = HelixFamily()
        g = Grid.periodic(2.0 * np.pi, 64)
        cfg = SimConfig(t_final=0.05)
        s1 = solve_whole_line(fam.sample(g), cfg)
        s2 = solve_whole_line(fam.sample(g), cfg)
        assert np.array_equal(s1.final().values, s2.final().values)

    def test_rejects_non_unit_data(self):
        g = Grid.periodic(2.0 * np.pi, 64)
        u = VectorField(g, np.tile([0.0, 0.0, 1.001], (64, 1)))
        with pytest.raises(NotUnitField):
            solve_whole_line(u, SimConfig(t_final=0.01))


class TestHalfSpace:
    def test_planar_odd_symmetry_and_boundary_exact(self):
        fam = get_family("planar_odd", a=0.5)
        v0 = fam.sample(Grid.half_line(20.0, 129))
        run = solve_half_space(v0, SimConfig(t_final=0.05), resampler=fam.sampler())
        for row in run.half.telemetry:
            assert row["symmetry"] == 0.0
            assert row["boundary"] == 0.0

    def test_boundary_value_bitwise_e3(self):
        fam = get_family("planar_odd", a=0.5)
        v0 = fam.sample(Grid.half_line(20.0, 129))
        run = solve_half_space(v0, SimConfig(t_final=0.05), resampler=fam.sampler())
        for snap in run.half.snapshots:
            assert np.array_equal(snap.values[0], E3)

    def test_snapshot_grids_and_times_match(self):
        fam = get_family("planar_odd", a=0.5)
        v0 = fam.sample(Grid.half_line(20.0, 129))
        cfg = SimConfig(t_final=0.05)
        run = solve_half_space(v0, cfg, resampler=fam.sampler())
        whole = solve_whole_line(extend(v0), cfg)
        assert run.half.grid == v0.grid
        assert run.half.times == whole.times
        assert run.half.telemetry == whole.telemetry
        for half_snap, whole_snap in zip(run.half.snapshots, whole.snapshots, strict=True):
            assert half_snap.grid == v0.grid
            assert np.array_equal(half_snap.values, restrict(whole_snap).values)

    def test_incompatible_data_rejected(self):
        fam = get_family("planar_bad", a=0.5)
        v0 = fam.sample(Grid.half_line(20.0, 129))
        with pytest.raises(CompatibilityRejected):
            solve_half_space(v0, SimConfig(t_final=0.05), resampler=fam.sampler())

    def test_non_strict_lets_incompatible_data_run(self):
        fam = get_family("planar_bad", a=0.5)
        v0 = fam.sample(Grid.half_line(20.0, 129))
        cfg = SimConfig(t_final=0.01, strict=False)
        run = solve_half_space(v0, cfg, resampler=fam.sampler())
        assert not run.report.passed
        assert len(run.half.snapshots) >= 2

    def test_farfield_gate(self):
        # on a short interval the planar profile has not decayed at s = L
        fam = get_family("planar_odd", a=0.5)
        v0 = fam.sample(Grid.half_line(2.0, 33))
        assert farfield_deviation(v0) > 1e-3
        with pytest.raises(FarFieldViolation):
            solve_half_space(v0, SimConfig(t_final=0.01), resampler=fam.sampler())


def test_bending_energy_helix_value():
    # |v_s|^2 = a^2 k^2 = 1.44 over [0, 2 pi)
    fam = HelixFamily()
    g = Grid.periodic(2.0 * np.pi, 256)
    assert bending_energy(fam.sample(g)) == pytest.approx(
        1.44 * 2.0 * np.pi, rel=1e-3
    )
