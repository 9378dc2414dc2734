"""Oracles, convergence studies, and the run-level invariant suite."""

import math

import numpy as np
import pytest

from filamentlab.compat import HelixFamily, get_family
from filamentlab.errors import UnknownOracle
from filamentlab.evolve import SimConfig, solve_half_space, solve_whole_line
from filamentlab.geometry import Grid
from filamentlab.harness import (
    convergence_study,
    extension_jump_study,
    fit_order,
    helix_dispersion_error,
    helix_solution_error,
    invariant_suite,
    oracle_error,
    ring_translation_error,
    stationary_line_error,
    timed,
)
from filamentlab.reconstruct import integrate_tangent, reconstruct_positions


class TestFitOrder:
    def test_recovers_synthetic_slope(self):
        hs = [0.1, 0.05, 0.025]
        errors = [3.0 * h**2 for h in hs]
        assert fit_order(hs, errors) == pytest.approx(2.0, abs=1e-10)

    def test_roundoff_reported_as_exact(self):
        assert fit_order([0.1, 0.05], [1e-16, 1e-16]) == math.inf

    def test_noisy_first_order(self):
        rng = np.random.default_rng(23)
        hs = [0.2, 0.1, 0.05, 0.025]
        errors = [0.7 * h * (1.0 + 0.02 * rng.normal()) for h in hs]
        assert fit_order(hs, errors) == pytest.approx(1.0, abs=0.1)


class TestOracles:
    def test_stationary_line_exact(self):
        out = stationary_line_error(n=64, t_final=0.05)
        assert out["max_deviation"] == 0.0

    def test_helix_dispersion_small_grid(self):
        out = helix_dispersion_error(n=96, t_final=0.2)
        assert out["omega_exact"] == pytest.approx(3.2)
        assert out["relative_error"] < 5e-3

    def test_ring_translation_small_grid(self):
        out = ring_translation_error(n=96, t_final=0.2)
        assert out["relative_error"] < 5e-3

    def test_dispatch_and_unknown(self):
        out = oracle_error("stationary_line", n=64, t_final=0.05)
        assert out["max_deviation"] == 0.0
        with pytest.raises(UnknownOracle):
            oracle_error("breather")


class TestConvergence:
    def test_needs_three_levels(self):
        with pytest.raises(ValueError):
            convergence_study("helix", [64, 128])

    def test_unknown_case(self):
        with pytest.raises(UnknownOracle):
            convergence_study("soliton", [32, 64, 128])

    def test_helix_second_order_small(self):
        result = convergence_study("helix", [32, 48, 64])
        assert 1.7 <= result.order <= 2.6
        assert result.errors[0] > result.errors[-1]

    def test_helix_error_decreases_with_n(self):
        e1 = helix_solution_error(48, t_final=0.1)
        e2 = helix_solution_error(96, t_final=0.1)
        assert e2 < 0.35 * e1


def test_extension_jump_study_separates_families():
    good = extension_jump_study(get_family("planar_odd", a=0.5), [129, 257, 513])
    bad = extension_jump_study(get_family("planar_bad", a=0.5), [129, 257, 513])
    for k in (1, 2, 3):
        assert good[k].order > 1.5
    assert abs(bad[2].order) < 0.3  # converges to the true jump


class TestInvariantSuite:
    def _run(self, scheme="rk4_project"):
        fam = get_family("planar_odd", a=0.5)
        v0 = fam.sample(Grid.half_line(20.0, 129))
        cfg = SimConfig(t_final=0.05, scheme=scheme)
        run, wall = timed(solve_half_space, v0, cfg, fam.sample)
        curves = reconstruct_positions(integrate_tangent(v0), run)
        return invariant_suite(run, curves, wall_seconds=wall), run

    def test_all_verdicts_pass(self):
        summary, _ = self._run()
        assert summary.passed
        assert set(summary.verdicts) == {
            "norm_dev",
            "symmetry",
            "boundary",
            "endpoint_height",
            "arclength_dev",
        }

    def test_maxima_within_tolerances(self):
        summary, _ = self._run()
        for name, verdict in summary.verdicts.items():
            assert summary.maxima[name]["max"] <= summary.tolerances[name], name
            assert verdict

    def test_midpoint_uses_looser_norm_tolerance(self):
        summary, _ = self._run("midpoint_fixedpoint")
        assert summary.tolerances["norm_dev"] == 1e-10
        assert summary.passed

    def test_json_excludes_wall_clock(self):
        summary, _ = self._run()
        assert summary.wall_seconds > 0.0
        assert "wall" not in summary.to_json()

    def test_repeated_runs_serialize_identically(self):
        s1, _ = self._run()
        s2, _ = self._run()
        assert s1.to_json() == s2.to_json()

    def test_root_cause_on_incompatible_run(self):
        fam = get_family("planar_bad", a=0.5)
        v0 = fam.sample(Grid.half_line(20.0, 129))
        cfg = SimConfig(t_final=0.2, strict=False, tol_boundary=1e-10)
        run, wall = timed(solve_half_space, v0, cfg, fam.sample)
        summary = invariant_suite(run, None, wall)
        if not summary.verdicts["boundary"]:
            assert "compatibility" in summary.root_cause
        assert not summary.compat["passed"]


class TestRunRecord:
    """The series carries its config and gate report; the summary reads them."""

    def test_half_space_summary_reads_the_runs_config(self):
        fam = get_family("planar_odd", a=0.5)
        v0 = fam.sample(Grid.half_line(20.0, 129))
        cfg = SimConfig(t_final=0.05, scheme="midpoint_fixedpoint", tol_boundary=1e-30)
        run = solve_half_space(v0, cfg, fam.sample)
        assert run.cfg is cfg
        summary = invariant_suite(run)  # no config passed
        assert summary.config["scheme"] == "midpoint_fixedpoint"
        assert summary.config["dt"] == 0.25 * v0.grid.h**2
        assert summary.tolerances["norm_dev"] == 1e-10
        assert summary.tolerances["boundary"] == 1e-30
        assert summary.verdicts["boundary"]  # the boundary trace is exactly e3
        assert summary.solver == run.solver
        assert summary.solver["fp_iters_total"] > 0
        assert summary.compat == run.report.to_dict()

    def test_periodic_series_gets_no_wall_checks(self):
        v0 = HelixFamily().sample(Grid.periodic(2.0 * np.pi, 64))
        series = solve_whole_line(v0, SimConfig(t_final=0.05))
        assert series.report is None
        curves = reconstruct_positions(integrate_tangent(v0), series)
        summary = invariant_suite(series, curves)
        assert summary.compat == {}
        assert set(summary.verdicts) == set(summary.tolerances) == {"norm_dev"}
        assert summary.root_cause == ""
        assert summary.config["scheme"] == "rk4_project"
