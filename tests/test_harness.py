"""Oracles, convergence studies, and the run-level invariant suite."""

import json
import math

import numpy as np
import pytest

from filamentlab import evolve
from filamentlab.compat import HelixFamily, get_family
from filamentlab.evolve import SimConfig, solve_half_space, solve_whole_line
from filamentlab.geometry import E3, Grid, VectorField
from filamentlab.harness import (
    ENERGY_DRIFT_TOL,
    convergence_study,
    fit_order,
    helix_dispersion_error,
    helix_solution_error,
    invariant_suite,
    oracle_error,
    ring_translation_error,
    stationary_line_error,
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
        with pytest.raises(ValueError, match="unknown oracle 'breather'"):
            oracle_error("breather")


class TestConvergence:
    def test_needs_three_levels(self):
        with pytest.raises(ValueError):
            convergence_study("helix", [64, 128])

    def test_unknown_case(self):
        with pytest.raises(ValueError, match="unknown convergence case 'soliton'"):
            convergence_study("soliton", [32, 64, 128])

    def test_helix_second_order_small(self):
        result = convergence_study("helix", [32, 48, 64])
        assert 1.7 <= result["order"] <= 2.6
        assert result["errors"][0] > result["errors"][-1]

    def test_helix_error_decreases_with_n(self):
        e1 = helix_solution_error(48)
        e2 = helix_solution_error(96)
        assert e2 < 0.35 * e1


class TestHalfLineClosedForm:
    """The small-amplitude wave packet: an exact half-line oracle for the whole pipeline.

    Write v = (w1, w2, 1) + O(|w|^2) with w = w1 + i w2; then v_t = v x v_ss is
    w_t = i w_ss + O(|w|^3).  planar_odd:a has w(s, 0) = a s exp(-s^2), which is
    odd, so its odd extension is the paper's reflection and the free evolution
    w(s, t) = a s (1 + 4it)^(-3/2) exp(-s^2 / (1 + 4it)) solves the half-line
    problem up to O(a^3).  Its foot point on the wall moves to
    x1 + i x2 = (a/2) (1 - (1 + 4it)^(-1/2)), with x3(0, t) = 0.
    """

    A = 1e-3
    LEVELS = (129, 257, 513)

    @pytest.fixture(scope="class")
    def runs(self):
        # half line, L = 20, RK4 at its default step, t = 1
        family = get_family("planar_odd", a=self.A)
        return [
            solve_half_space(family, Grid.half_line(20.0, n), SimConfig(t_final=1.0))
            for n in self.LEVELS
        ]

    def _error(self, run) -> float:
        """max over nodes of |(v1, v2) - (Re w, Im w)| at the run's last time."""
        s, z = run.grid.nodes(), 1.0 + 4.0j * run.times[-1]
        w = self.A * s * z**-1.5 * np.exp(-(s**2) / z)
        v = run.final().values
        return float(np.max(np.hypot(v[:, 0] - w.real, v[:, 1] - w.imag)))

    def test_second_order_against_the_closed_form(self, runs):
        # measured 1.273e-5, 3.151e-6 and 7.853e-7: order 2.010
        errors = [self._error(run) for run in runs]
        assert 1.8 <= fit_order([run.grid.h for run in runs], errors) <= 2.5
        assert errors[-1] < 1e-6

    def test_wall_holds_bitwise_on_every_snapshot(self, runs):
        for run in runs:
            assert run.times[-1] == 1.0
            for snap in run.snapshots:
                assert snap[0].tobytes() == E3.tobytes()

    def test_foot_point_on_the_wall(self, runs):
        # the curve is read off its own snapshot, so its foot has the same bits at any
        # snapshot cadence; a trapezoid in t over the snapshots missed by 0.65 and 1.21
        # of |x(0, 1)| at 640 and 5000 (3 and 2 snapshots)
        def curves(run):
            return reconstruct_positions(integrate_tangent(VectorField(run.grid, run.snapshots[0])), run)

        run = runs[-1]
        family = get_family("planar_odd", a=self.A)
        final = curves(run)[-1].positions
        for every in (640, 5000):
            thinned = solve_half_space(family, run.grid, SimConfig(t_final=1.0, snapshot_every=every))
            assert len(thinned.times) < 4
            assert curves(thinned)[-1].positions.tobytes() == final.tobytes()
        exact = self.A / 2.0 * (1.0 - (1.0 + 4.0j) ** -0.5)
        x1, x2, _ = final[0]
        assert abs(complex(x1, x2) - exact) <= 5e-4 * abs(exact)  # measured 3.80e-4
        assert all(curve.positions[0, 2] == 0.0 for curve in curves(run))


def test_extension_jump_study_separates_families(extension_jump_study):
    good = extension_jump_study(get_family("planar_odd", a=0.5), [129, 257, 513])
    bad = extension_jump_study(get_family("planar_bad", a=0.5), [129, 257, 513])
    for k in (1, 2, 3):
        assert good[k]["order"] > 1.5
    assert abs(bad[2]["order"]) < 0.3  # converges to the true jump


class TestInvariantSuite:
    def _run(self, scheme="rk4_project"):
        fam = get_family("planar_odd", a=0.5)
        cfg = SimConfig(t_final=0.05, scheme=scheme)
        run = solve_half_space(fam, Grid.half_line(20.0, 129), cfg)
        curves = reconstruct_positions(integrate_tangent(VectorField(run.grid, run.snapshots[0])), run)
        return invariant_suite(run, curves), run

    def test_all_verdicts_pass(self):
        summary, _ = self._run()
        assert summary["passed"]
        assert set(summary["verdicts"]) == {
            "norm_dev",
            "symmetry",
            "boundary",
            "endpoint_height",
            "arclength_dev",
        }

    def test_maxima_within_tolerances(self):
        summary, _ = self._run()
        for name, verdict in summary["verdicts"].items():
            assert summary["maxima"][name]["max"] <= summary["tolerances"][name], name
            assert verdict

    def test_midpoint_uses_looser_norm_tolerance(self):
        summary, run = self._run("midpoint_fixedpoint")
        assert summary["tolerances"]["norm_dev"] == 1e-10 + run.solver["steps"] * run.cfg.fp_tol
        assert summary["passed"]

    def test_midpoint_norm_dev_above_its_bound_fails(self):
        _, run = self._run("midpoint_fixedpoint")
        bound = 1e-10 + run.solver["steps"] * run.cfg.fp_tol
        run.telemetry[-1]["norm_dev"] = np.nextafter(bound, 1.0)
        summary = invariant_suite(run)
        assert summary["maxima"]["norm_dev"]["max"] > summary["tolerances"]["norm_dev"] == bound
        assert not summary["verdicts"]["norm_dev"]
        assert not summary["passed"]

    @pytest.mark.parametrize(
        "scheme, gated", [("rk4_project", False), ("midpoint_fixedpoint", True)]
    )
    def test_energy_drift_gates_midpoint_only(self, monkeypatch, scheme, gated):
        # mutation: close s = 0 with bar(v(h)); E drifts about 0.8 under either scheme
        monkeypatch.setattr(evolve, "_NEGBAR_ROWS", -evolve._NEGBAR_ROWS)
        fam = get_family("planar_odd", a=0.5)
        cfg = SimConfig(t_final=0.05, scheme=scheme, monitor_every=5)
        run = solve_half_space(fam, Grid.half_line(20.0, 65), cfg)
        summary = invariant_suite(run)
        # the drift exceeds the midpoint bound under either scheme
        bound = ENERGY_DRIFT_TOL + run.solver["steps"] * cfg.fp_tol
        assert summary["maxima"]["energy_drift"]["max"] > bound
        if gated:
            assert summary["tolerances"]["energy_drift"] == bound
            assert summary["verdicts"]["energy_drift"] is False
        else:
            assert "energy_drift" not in summary["tolerances"]
        # with every other verdict holding, only the midpoint run fails
        others = {name: True for name in summary["verdicts"] if name != "energy_drift"}
        assert all({**summary["verdicts"], **others}.values()) is not gated

    def test_midpoint_energy_drift_within_its_bound_at_a_loose_fp_tol(self):
        # the largest case of the fp_tol sweep: drift 1.9e-7 against a bound of 1.6e-5
        fam = get_family("planar_odd", a=0.5)
        grid = Grid.half_line(20.0, 512)
        dt = 0.4 * grid.h**2
        cfg = SimConfig(t_final=1.0, dt=dt, scheme="midpoint_fixedpoint", fp_tol=1e-8)
        summary = invariant_suite(solve_half_space(fam, grid, cfg))
        assert summary["tolerances"]["energy_drift"] == ENERGY_DRIFT_TOL + math.ceil(1.0 / dt) * 1e-8
        assert summary["maxima"]["energy_drift"]["max"] > 1e-9  # the fixed-point tolerance shows in E
        assert summary["verdicts"]["energy_drift"]

    def test_json_excludes_wall_clock(self):
        # the CLI times its solve itself; a summary holds no clock to serialize
        summary, _ = self._run()
        assert not [key for key in summary if "wall" in key]
        assert "wall" not in json.dumps(summary, indent=2, sort_keys=True)

    def test_repeated_runs_serialize_identically(self):
        s1, _ = self._run()
        s2, _ = self._run()
        assert json.dumps(s1, indent=2, sort_keys=True) == json.dumps(s2, indent=2, sort_keys=True)

    def test_root_cause_on_incompatible_run(self):
        # v0(0) != e3 breaks order 0, which the mirror ghost cannot repair
        # (planar_bad breaks order 1 only, and its boundary trace stays e3)
        class TiltedAtWall:
            def sample(self, grid):
                beta = 0.1 * np.exp(-grid.nodes() ** 2)
                return VectorField(grid, np.stack([np.sin(beta), 0.0 * beta, np.cos(beta)], 1))

        cfg = SimConfig(t_final=0.05, strict=False)
        summary = invariant_suite(solve_half_space(TiltedAtWall(), Grid.half_line(20.0, 129), cfg))
        assert summary["maxima"]["boundary"]["max"] == pytest.approx(0.09996, abs=1e-5)
        assert summary["verdicts"]["boundary"] is False
        assert summary["root_cause"] == (
            "compatibility orders [0, 1] violated; boundary trace cannot converge"
        )
        assert summary["passed"] is False
        assert not summary["compat"]["passed"]


class TestRunRecord:
    """The series carries its config and gate report; the summary reads them."""

    def test_half_space_summary_reads_the_runs_config(self):
        fam = get_family("planar_odd", a=0.5)
        grid = Grid.half_line(20.0, 129)
        cfg = SimConfig(t_final=0.05, scheme="midpoint_fixedpoint", tol_boundary=1e-30)
        run = solve_half_space(fam, grid, cfg)
        assert run.cfg is cfg
        summary = invariant_suite(run)  # no config passed
        assert summary["config"]["scheme"] == "midpoint_fixedpoint"
        assert summary["config"]["dt"] == 0.25 * grid.h**2
        assert summary["tolerances"]["norm_dev"] == 1e-10 + run.solver["steps"] * cfg.fp_tol
        assert summary["tolerances"]["boundary"] == 1e-30
        assert summary["verdicts"]["boundary"]  # the boundary trace is exactly e3
        assert summary["solver"] == run.solver
        assert summary["solver"]["fp_iters_total"] > 0
        assert summary["compat"] == run.report.to_dict()

    def test_periodic_series_gets_no_wall_checks(self):
        v0 = HelixFamily().sample(Grid.periodic(2.0 * np.pi, 64))
        series = solve_whole_line(v0, SimConfig(t_final=0.05))
        assert series.report is None
        curves = reconstruct_positions(integrate_tangent(v0), series)
        summary = invariant_suite(series, curves)
        assert summary["compat"] == {}
        assert set(summary["verdicts"]) == set(summary["tolerances"]) == {"norm_dev"}
        assert summary["root_cause"] == ""
        assert summary["config"]["scheme"] == "rk4_project"

    @pytest.mark.parametrize("scheme", ["rk4_project", "midpoint_fixedpoint"])
    @pytest.mark.parametrize("case", ["half-curves", "half", "periodic"])
    def test_one_table_of_tolerances_verdicts_and_maxima(self, case, scheme):
        cfg = SimConfig(t_final=0.05, scheme=scheme)
        if case == "periodic":
            v0 = HelixFamily().sample(Grid.periodic(2.0 * np.pi, 64))
            series = solve_whole_line(v0, cfg)
        else:
            fam = get_family("planar_odd", a=0.5)
            series = solve_half_space(fam, Grid.half_line(20.0, 65), cfg)
        curves = None
        if case == "half-curves":
            x0 = integrate_tangent(VectorField(series.grid, series.snapshots[0]))
            curves = reconstruct_positions(x0, series)
        summary = invariant_suite(series, curves)
        gating = {"norm_dev"}
        if case != "periodic":
            gating |= {"symmetry", "boundary"}
        if curves is not None:
            gating |= {"endpoint_height", "arclength_dev"}
        if scheme == "midpoint_fixedpoint":
            gating |= {"energy_drift"}
        assert set(summary["verdicts"]) == set(summary["tolerances"]) == gating
        assert set(summary["tolerances"]) <= set(summary["maxima"])
        assert set(summary["maxima"]) == gating | {"energy_drift"}
        assert summary["passed"] == all(summary["verdicts"].values())
        assert summary["passed"]
