"""Command-line interface: exit codes, file formats, determinism."""

import errno
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from filamentlab import cli, evolve, harness
from filamentlab.cli import (
    EXIT_COMPAT,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_config,
    read_field_csv,
    write_field_csv,
)
from filamentlab.compat import HelixFamily, get_family, parse_family_spec
from filamentlab.errors import GridMismatch
from filamentlab.evolve import (
    MIDPOINT_FIXEDPOINT,
    RK4_PROJECT,
    SimConfig,
    TimeSeries,
    solve_half_space,
    solve_whole_line,
)
from filamentlab.geometry import E3, Grid, VectorField
from filamentlab.reconstruct import FilamentCurve, integrate_tangent, reconstruct_positions


SIM_CONFIG = """\
# half-space run, small for test speed
grid.kind = half
grid.L = 20.0
grid.n = 129
data.family = planar_odd:a=0.5
time.t_final = 0.05
scheme = rk4_project
check.order = 1
output.snapshot_every = 50
output.monitor_every = 50
"""

#: A small half-line run: n = 65, dt = h^2 / 2 (pinned below the RK4 default,
#: so the failing step and rhs call stay put), 7 steps, telemetry rows at steps 0 and 7.
NAN_RUN_CONFIG = """\
grid.kind = half
grid.L = 20.0
grid.n = 65
data.family = planar_odd:a=0.5
time.t_final = 0.3
time.dt = 0.048828125
"""

PERIODIC_CONFIG = """\
grid.kind = periodic
grid.L = 6.283185307179586
grid.n = 64
data.family = helix:a=0.6,c=0.8,k=2.0
time.t_final = 0.05
"""


def _with_key(text: str, key: str, value: str) -> str:
    """Config ``text`` with ``key`` set to ``value``: its line replaced, or one appended."""
    lines = [line + "\n" for line in text.splitlines() if not line.startswith(key + " ")]
    return "".join(lines) + f"{key} = {value}\n"


class TestCheck:
    def test_compatible_family_exit_zero(self, capsys):
        rc = main(["check", "--family", "planar_odd:a=0.5", "--order", "2", "--strict"])
        assert rc == EXIT_OK
        assert "compatibility passed" in capsys.readouterr().out

    def test_incompatible_family_exit_two(self, capsys):
        rc = main(["check", "--family", "planar_bad:a=0.5", "--order", "1", "--strict"])
        assert rc == EXIT_COMPAT
        assert "FAILED" in capsys.readouterr().out

    def test_incompatible_without_strict_exit_zero(self):
        rc = main(["check", "--family", "planar_bad:a=0.5", "--order", "1"])
        assert rc == EXIT_OK

    def test_unknown_family_exit_one(self, capsys):
        rc = main(["check", "--family", "nosuch"])
        assert rc == EXIT_USAGE

    def test_missing_input_exit_one(self):
        assert main(["check"]) == EXIT_USAGE

    @pytest.mark.parametrize("strict", [[], ["--strict"]])
    def test_negative_order_exit_one(self, capsys, strict):
        # order -1 checks nothing, so it once passed even incompatible data
        argv = ["check", "--family", "planar_bad:a=0.5", "--n", "257", "--order", "-1"]
        assert main(argv + strict) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "order must be at least 0" in captured.err
        assert "compatibility passed" not in captured.out

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    def test_bad_tolerance_exit_one(self, capsys, tol):
        # an infinite tolerance once passed incompatible data, and nan left
        # the two-grid rule alone to decide
        argv = ["check", "--family", "planar_bad:a=0.5", "--order", "1", "--tol", tol, "--strict"]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "tolerance must be a finite number above 0" in captured.err
        assert "compatibility passed" not in captured.out

    def test_misspelt_family_parameter_exit_one(self, capsys):
        # the misspelt A was once dropped and the run took a = 0.5 and passed
        rc = main(["check", "--family", "planar_odd:A=5", "--order", "1", "--strict"])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert "'planar_odd' has no parameter A; accepted: a" in captured.err
        assert "compatibility passed" not in captured.out

    def test_help_exits_zero(self, capsys):
        # usage errors return exit 1 from main (see EXIT_ONE_INPUTS); --help still exits 0
        with pytest.raises(SystemExit) as exc:
            main(["check", "--help"])
        assert exc.value.code == EXIT_OK
        assert "--family" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "family, strict",
        [("planar_odd:a=0.5", ""), ("planar_bad:a=0.5", "check.strict = false\n"), ("straight", "")],
    )
    def test_defaults_judge_the_sample_simulate_gates(self, tmp_path, capsys, family, strict):
        # at their defaults (grid length and nodes, gate order and tolerance) check
        # and simulate must judge one sample: a default that drifts on one side splits them
        report = tmp_path / "report.json"
        assert main(["check", "--family", family, "--out", str(report)]) == EXIT_OK
        config = tmp_path / "run.cfg"
        config.write_text(f"data.family = {family}\n{strict}")
        assert main(["simulate", str(config), "--out", str(tmp_path / "run")]) == EXIT_OK
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert json.loads(report.read_text()) == summary["compat"]

    @pytest.mark.parametrize(
        "family, length",
        [
            ("planar_odd:a=0.5", "1e-300"),
            ("straight", "1e300"),
            # s^2 past the float range once warned of an overflow, and planar_bad's
            # inf * exp(-inf) made a NaN sample where the tangent is e3
            ("planar_odd:a=0.5", "1e300"),
            ("planar_bad:a=0.5", "1e160"),
            ("planar_bad:a=0.5", "1e300"),
        ],
    )
    def test_compatible_data_pass_at_any_grid_length(self, capsys, family, length):
        # the h-scaled stencil weights once overflowed here: "order 1: residual nan  FAIL"
        assert main(["check", "--family", family, "--length", length, "--strict"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "order 1: residual 0.000000e+00  pass" in out
        assert out.endswith("compatibility passed\n")

    def test_report_json_written(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(
            ["check", "--family", "planar_odd:a=0.5", "--order", "1", "--out", str(out)]
        )
        assert rc == EXIT_OK
        blob = json.loads(out.read_text())
        assert blob["passed"] is True


class TestFieldCsv:
    def test_round_trip_bitwise(self, tmp_path):
        fam = get_family("planar_odd", a=0.5)
        v0 = fam.sample(Grid.half_line(10.0, 65))
        path = tmp_path / "field.csv"
        write_field_csv(str(path), v0)
        back = read_field_csv(str(path))
        assert back.grid == v0.grid
        assert np.array_equal(back.values, v0.values)

    @pytest.mark.parametrize(
        "spec, n, order, code",
        [
            ("planar_odd:a=0.5", 129, 0, EXIT_OK),
            # from a file with no family to resample, this once failed order 1 and exited 2
            ("planar_odd:a=0.5", 512, 2, EXIT_OK),
            *[
                (f"planar_bad:a={a}", n, 1, EXIT_COMPAT)
                for a in (0.5, 0.05)
                for n in (65, 512, 2049)
            ],
        ],
    )
    def test_check_from_csv(self, tmp_path, spec, n, order, code):
        v0 = parse_family_spec(spec).sample(Grid.half_line(20.0, n))
        path = tmp_path / "field.csv"
        write_field_csv(str(path), v0)
        # a file is cross-checked against its own decimation at 2h
        rc = main(["check", "--input", str(path), "--order", str(order), "--strict"])
        assert rc == code

    def test_nonuniform_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("s,v1,v2,v3\n" + "".join(f"{s}.0,0,0,1\n" for s in (0, 1, 3, 4, 5, 6, 7, 8)))
        with pytest.raises(ValueError, match="s must increase in equal steps"):
            read_field_csv(str(path))

    @staticmethod
    def _shifted_csv(tmp_path):
        """planar_odd data sampled on [5, 15] instead of [0, 10]."""
        v0 = get_family("planar_odd", a=0.5).sample(Grid.half_line(10.0, 64))
        path = tmp_path / "shifted.csv"
        rows = np.column_stack([v0.grid.nodes() + 5.0, v0.values])
        np.savetxt(path, rows, delimiter=",", header="s,v1,v2,v3", comments="")
        return str(path)

    def test_grid_not_starting_at_zero_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not a half grid"):
            read_field_csv(self._shifted_csv(tmp_path))

    def test_check_rejects_shifted_csv(self, tmp_path, capsys):
        path = self._shifted_csv(tmp_path)
        rc = main(["check", "--input", path, "--order", "0", "--strict"])
        assert rc == EXIT_USAGE
        assert "s runs 5..15" in capsys.readouterr().err

    def test_check_rejects_extended_csv(self, tmp_path, capsys):
        # --input takes half-line data; extend --out writes the whole line [-L, L]
        path = tmp_path / "ext.csv"
        assert main(["extend", "--family", "planar_odd:a=0.5", "--n", "65", "-L", "10",
                     "--out", str(path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["check", "--input", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {path}: s runs -10..10, not a half grid\n"


class TestExtend:
    def test_writes_extended_field(self, tmp_path, capsys):
        out = tmp_path / "ext.csv"
        rc = main(
            ["extend", "--family", "planar_odd:a=0.5", "--n", "65", "-L", "10", "--out", str(out)]
        )
        assert rc == EXIT_OK
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (129, 4)
        assert (data[0, 0], data[64, 0], data[-1, 0]) == (-10.0, 0.0, 10.0)
        assert "jump residual k=0" in capsys.readouterr().out


class TestSimulate:
    def _write_config(self, tmp_path, text=SIM_CONFIG):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        return cfg

    def test_outputs_and_exit_code(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["simulate", str(cfg), "--reconstruct", "--out", str(out)])
        assert rc == EXIT_OK
        assert (out / "snapshots.csv").exists()
        assert (out / "telemetry.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True
        assert all(summary["verdicts"].values())
        assert "wall_seconds" not in summary

    def test_grid_defaults(self, tmp_path):
        cfg = self._write_config(tmp_path, "data.family = planar_odd:a=0.5\ntime.t_final = 1e-5\n")
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["grid"] == {"kind": "half", "length": 20.0, "n": 512}

    def test_summary_without_curves_has_no_curve_tolerances(self, tmp_path, capsys):
        # endpoint_height and arclength_dev once had tolerances but no verdicts here
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        gating = {"norm_dev", "symmetry", "boundary"}
        assert set(summary["tolerances"]) == set(summary["verdicts"]) == gating
        assert set(summary["maxima"]) == gating | {"energy_drift"}
        drift = summary["maxima"]["energy_drift"]["max"]
        assert f"energy_drift {drift:.3e} (reported, not gating)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "config",
        [SIM_CONFIG, _with_key(SIM_CONFIG, "scheme", MIDPOINT_FIXEDPOINT),
         PERIODIC_CONFIG.replace("helix:a=0.6,c=0.8,k=2.0", "ring:r=1.0")],
        ids=["half-rk4", "half-midpoint", "periodic-ring"],
    )
    def test_summary_json_is_the_invariant_suite_dict(self, tmp_path, monkeypatch, config):
        # the dict that simulate's invariant_suite call returned, not a second run's
        made, suite = [], harness.invariant_suite

        def spy(*args):
            made.append(suite(*args))
            return made[-1]

        monkeypatch.setattr(harness, "invariant_suite", spy)
        out = tmp_path / "out"
        assert main(["simulate", str(self._write_config(tmp_path, config)), "--reconstruct",
                     "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "summary.json").read_text()) == made[0]

    def test_summary_bit_identical_across_runs(self, tmp_path):
        cfg = self._write_config(tmp_path)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", str(cfg), "--reconstruct", "--out", str(out)]) == EXIT_OK
            blobs.append((out / "summary.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_snapshots_csv_round_trip_floats(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        main(["simulate", str(cfg), "--reconstruct", "--out", str(out)])
        data = np.genfromtxt(out / "snapshots.csv", delimiter=",", skip_header=1)
        assert data.shape[1] == 8
        # every tangent sample is unit length after the text round trip
        norms = np.sqrt(np.sum(data[:, 2:5] ** 2, axis=1))
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        # and reads back as exactly the values the solver and the curve produced
        fam = get_family("planar_odd", a=0.5)
        grid = Grid.half_line(20.0, 129)
        run = solve_half_space(fam, grid, SimConfig(t_final=0.05, check_order=1))
        curves = reconstruct_positions(integrate_tangent(VectorField(grid, run.snapshots[0])), run)
        tangents = run.snapshots.reshape(-1, 3)
        positions = np.concatenate([c.positions for c in curves])
        assert data[:, 0].tobytes() == np.repeat(run.times, 129).tobytes()
        assert data[:, 1].tobytes() == np.tile(grid.nodes(), len(run.times)).tobytes()
        assert data[:, 2:5].tobytes() == tangents.tobytes()
        assert data[:, 5:8].tobytes() == positions.tobytes()

    def test_periodic_run(self, tmp_path):
        cfg = self._write_config(tmp_path, PERIODIC_CONFIG)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", str(cfg), "--reconstruct", "--out", str(out)]) == EXIT_OK
            blobs.append((out / "summary.json").read_bytes())
        assert blobs[0] == blobs[1]
        summary = json.loads(blobs[0])
        assert summary["verdicts"] == {"norm_dev": True}
        assert summary["compat"] == {}
        assert summary["config"]["grid"]["kind"] == "periodic"
        lines = (tmp_path / "a" / "telemetry.csv").read_text().splitlines()
        assert lines[0] == "step,time,norm_dev,energy,symmetry,boundary"
        assert len(lines) > 1
        assert all(line.endswith(",,") for line in lines[1:])

    @pytest.mark.parametrize("key", ["time.tfinal", "tolerances.norm"])
    def test_unknown_config_key_exit_one(self, tmp_path, capsys, key):
        cfg = self._write_config(tmp_path, SIM_CONFIG + f"{key} = 0.01\n")
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_every_documented_key_accepted(self, tmp_path, monkeypatch):
        monkeypatch.delenv("FILAMENTLAB_OUTDIR", raising=False)
        out = tmp_path / "from_config"
        extra = (
            "time.dt = 0.002\n"
            "tolerances.boundary = 1e-10\n"
            "tolerances.compat = 1e-6\n"
            "tolerances.farfield = 1e-3\n"
            "tolerances.fixed_point = 1e-14\n"
            "check.strict = true\n"
            f"output.dir = {out}\n"
        )
        cfg = self._write_config(tmp_path, SIM_CONFIG + extra)
        assert main(["simulate", str(cfg)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["dt"] == 0.002

    @pytest.mark.parametrize("value", ["treu", "2", "enabled", "y"])
    def test_misspelt_strict_exit_one(self, tmp_path, capsys, value):
        # a misspelling once read as false and let incompatible data run
        bad = SIM_CONFIG.replace("planar_odd:a=0.5", "planar_bad:a=0.5")
        cfg = self._write_config(tmp_path, bad + f"check.strict = {value}\n")
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "check.strict" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "value, rc",
        [("TRUE", EXIT_COMPAT), ("On", EXIT_COMPAT), ("1", EXIT_COMPAT),
         ("False", EXIT_OK), ("OFF", EXIT_OK), ("no", EXIT_OK), ("0", EXIT_OK)],
    )
    def test_strict_spellings(self, tmp_path, value, rc):
        bad = SIM_CONFIG.replace("planar_odd:a=0.5", "planar_bad:a=0.5")
        cfg = self._write_config(tmp_path, bad + f"check.strict = {value}\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "out")]) == rc

    def test_negative_check_order_exit_one(self, tmp_path, capsys):
        bad = SIM_CONFIG.replace("planar_odd:a=0.5", "planar_bad:a=0.5")
        cfg = self._write_config(tmp_path, bad.replace("check.order = 1", "check.order = -1"))
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "order must be at least 0" in capsys.readouterr().err
        assert not out.exists()

    def test_incompatible_family_exit_two(self, tmp_path):
        cfg = self._write_config(
            tmp_path, SIM_CONFIG.replace("planar_odd:a=0.5", "planar_bad:a=0.5")
        )
        rc = main(["simulate", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == EXIT_COMPAT

    @pytest.mark.parametrize(
        "edits, reason",
        [
            ({"planar_odd:a=0.5": "planar_bad:a=0.5", "grid.n = 129": "grid.n = 512"}, "orders"),
            ({"grid.L = 20.0": "grid.L = 2.0", "grid.n = 129": "grid.n = 33"}, "outer-window"),
        ],
        ids=["compatibility", "farfield"],
    )
    def test_rejected_run_leaves_no_output_directory(self, tmp_path, capsys, edits, reason):
        text = SIM_CONFIG
        for old, new in edits.items():
            text = text.replace(old, new)
        cfg = self._write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_COMPAT
        assert reason in capsys.readouterr().err
        assert not out.exists()

    def test_outdir_from_environment(self, tmp_path, monkeypatch):
        cfg = self._write_config(tmp_path)
        envdir = tmp_path / "envout"
        monkeypatch.setenv("FILAMENTLAB_OUTDIR", str(envdir))
        assert main(["simulate", str(cfg)]) == EXIT_OK
        assert (envdir / "summary.json").exists()

    def test_missing_config_exit_one(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.cfg")]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("time.dt", "-0.001", "dt"),
            ("time.dt", "0", "dt"),
            ("time.dt", "nan", "dt"),
            ("time.t_final", "inf", "t_final"),
            ("output.snapshot_every", "0", "snapshot_every"),
            ("output.monitor_every", "0", "monitor_every"),
        ],
    )
    def test_bad_time_setting_exit_one(self, tmp_path, capsys, key, value, field):
        cfg = self._write_config(tmp_path, _with_key(SIM_CONFIG, key, value))
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert f"{field} must" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("tolerances.farfield", "nan", "farfield_tol"),
            ("tolerances.boundary", "inf", "tol_boundary"),
            ("tolerances.compat", "0", "compat_tol"),
            ("tolerances.fixed_point", "-1e-14", "fp_tol"),
        ],
    )
    def test_bad_tolerance_exit_one(self, tmp_path, capsys, key, value, field):
        # on [0, 2] planar_odd has not decayed to e3 (exit 2 at the default
        # far-field tolerance); a nan tolerance once switched that gate off
        short = SIM_CONFIG.replace("grid.L = 20.0", "grid.L = 2.0").replace(
            "grid.n = 129", "grid.n = 33"
        )
        cfg = self._write_config(tmp_path, short + f"{key} = {value}\n")
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert f"{field} must" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("grid.n", "12x"), ("grid.L", "2o")])
    def test_bad_grid_value_names_its_key(self, tmp_path, capsys, key, value):
        cfg = self._write_config(tmp_path, _with_key(SIM_CONFIG, key, value))
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert f"config key {key}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config", [SIM_CONFIG, PERIODIC_CONFIG], ids=["half", "periodic"])
    def test_rk4_summary_counts_four_rhs_calls_per_step(self, tmp_path, config):
        cfg = self._write_config(tmp_path, config)
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
        solver = json.loads((tmp_path / "out" / "summary.json").read_text())["solver"]
        assert set(solver) == {"steps", "rhs_calls"}
        assert solver["steps"] > 0
        assert solver["rhs_calls"] == 4 * solver["steps"]

    def test_numerical_failure_names_its_step(self, tmp_path, capsys):
        # no fixed-point increment falls below 1e-300, so the first step stalls
        text = PERIODIC_CONFIG.replace("t_final = 0.05", "t_final = 0.01") + (
            "scheme = midpoint_fixedpoint\ntolerances.fixed_point = 1e-300\n"
        )
        cfg = self._write_config(tmp_path, text)
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: midpoint iteration stalled")
        assert "after 50 iters at step 1 of 5, t = 0\n" in err
        assert not (tmp_path / "out").exists()

    def test_non_finite_stage_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # rhs call 10 is the last RK4 stage of step 2 (a telemetry row makes 2
        # calls, a step 4); its NaN was once filed as a usage error (exit 1)
        calls = [0]

        def nan_rhs(u, values, _rhs=evolve.rhs):
            calls[0] += 1
            out = _rhs(u, values)
            if calls[0] == 10:
                out[1, 4] = np.nan  # node 3, component 2
            return out

        monkeypatch.setattr(evolve, "rhs", nan_rhs)
        cfg, out = self._write_config(tmp_path, NAN_RUN_CONFIG), tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: field values must be finite at step 2 of 7, t = 0.0488281\n"
        )
        assert not out.exists()

    def test_non_finite_stage_of_a_periodic_run_names_no_key(self, tmp_path, capsys, monkeypatch):
        # simulate's one naming map spans the periodic sample and the solve; it
        # lists no bare ValueError, so the run's NonFiniteState names no key
        calls = [0]

        def nan_rhs(u, values, _rhs=evolve.rhs):
            calls[0] += 1
            out = _rhs(u, values)
            if calls[0] == 10:
                out[1, 4] = np.nan  # node 3, component 2
            return out

        monkeypatch.setattr(evolve, "rhs", nan_rhs)
        cfg, out = self._write_config(tmp_path, PERIODIC_CONFIG), tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: field values must be finite at step 3 of 8, t = 0.0125298\n"
        )
        assert not out.exists()

    def test_unallocatable_series_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # a snapshot block too large to allocate once ended in numpy's traceback
        class Unallocatable:
            def __init__(self, *args):
                raise MemoryError("Unable to allocate 14.8 GiB for an array with shape "
                                  "(330000001, 64, 3) and data type float64")

        monkeypatch.setattr(evolve, "TimeSeries", Unallocatable)
        cfg, out = self._write_config(tmp_path, NAN_RUN_CONFIG), tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate 14.8 GiB") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "scheme, bad_call, message",
        [
            (RK4_PROJECT, 2, "at step 3 of 7, t = 0.0976562"),
            (MIDPOINT_FIXEDPOINT, 2, "at step 3 of 13, t = 0.0488281"),
        ],
        ids=["rk4_second_stage", "midpoint_second_iterate"],
    )
    def test_non_finite_value_in_a_step_exits_three(
        self, tmp_path, capsys, monkeypatch, scheme, bad_call, message, bad
    ):
        # the value lands in rhs call bad_call of step 3: RK4's second stage, or the
        # midpoint's second iterate.  No finiteness pass follows the step: RK4's
        # projection and the midpoint iteration must each raise NonFiniteState
        steps, calls = [0], [0]

        def counted_step(*args, _step=evolve.step):
            steps[0] += 1
            calls[0] = 0
            return _step(*args)

        def bad_rhs(u, values, _rhs=evolve.rhs):
            calls[0] += 1
            out = _rhs(u, values)
            if steps[0] == 3 and calls[0] == bad_call:
                out[1, 4] = bad  # node 3, component 2
            return out

        monkeypatch.setattr(evolve, "step", counted_step)
        monkeypatch.setattr(evolve, "rhs", bad_rhs)
        text = NAN_RUN_CONFIG + f"scheme = {scheme}\n"
        if scheme == MIDPOINT_FIXEDPOINT:  # 0.5 h^2 is above the midpoint cap; take its default
            text = text.replace("time.dt = 0.048828125\n", "")
        cfg, out = self._write_config(tmp_path, text), tmp_path / "out"
        with np.errstate(invalid="ignore"):  # inf - inf in the cross products of an inf
            assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == f"numerical failure: field values must be finite {message}\n"
        assert (steps[0], calls[0]) == (3, 4 if scheme == RK4_PROJECT else bad_call)
        assert not out.exists()

    def test_run_ends_on_a_positive_step(self, tmp_path):
        # t_final / dt = 17850.000000000004 passed the 1e-12 slack of the step
        # count: the run took a 17851st step of length 0, recorded t_final twice
        # and exited 1 with "snapshot times must increase strictly"
        text = PERIODIC_CONFIG.replace("grid.n = 64", "grid.n = 8").replace(
            "helix:a=0.6,c=0.8,k=2.0", "ring:r=1"
        ).replace("time.t_final = 0.05", "time.t_final = 16.065")
        text += "time.dt = 0.0009\noutput.snapshot_every = 50\n"
        cfg, out = self._write_config(tmp_path, text), tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "summary.json").read_text())["solver"]["steps"] == 17850
        assert (out / "snapshots.csv").read_text().splitlines()[-1].startswith("16.065,")

    def test_nan_in_a_telemetry_row_fails_the_run(self, tmp_path, monkeypatch):
        # a NaN in the ghost-closed rhs(u) of the last telemetry row; Python's
        # max once dropped it, and the run exited 0 with symmetry 0.0 on every row
        rows = []

        def row(step_idx, t, u, y, _row=evolve._telemetry_row):
            rows.append(step_idx)
            return _row(step_idx, t, u, y)

        def nan_rhs(u, values, _rhs=evolve.rhs):
            out = _rhs(u, values)
            if len(rows) == 2 and u.grid.kind == "half":  # no step follows the last row
                out[1, 4] = np.nan  # node 3, component 2
            return out

        monkeypatch.setattr(evolve, "_telemetry_row", row)
        monkeypatch.setattr(evolve, "rhs", nan_rhs)
        cfg, out = self._write_config(tmp_path, NAN_RUN_CONFIG), tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL
        header, *lines = (out / "telemetry.csv").read_text().splitlines()
        column = header.split(",").index("symmetry")
        assert [line.split(",")[column] for line in lines] == ["0.0", "nan"]
        summary = json.loads((out / "summary.json").read_text())
        assert math.isnan(summary["maxima"]["symmetry"]["max"])
        assert summary["maxima"]["symmetry"]["step"] == 7
        assert summary["verdicts"]["symmetry"] is False

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("ring:r=0", "parameter r must be above 0"),
            ("ring:r=-1", "parameter r must be above 0"),
            ("ring:r=nan", "parameter r must be finite"),
            ("helix:a=nan,c=0.8", "parameter a must be finite"),
        ],
    )
    def test_bad_family_parameter_exit_one(self, tmp_path, capsys, spec, message):
        # ring:r=0 once raised ZeroDivisionError out of main, and r=-1 ran
        text = f"grid.kind = periodic\ngrid.L = 6.0\ngrid.n = 64\ndata.family = {spec}\n"
        cfg, out = self._write_config(tmp_path, text), tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert f"error: family '{spec.partition(':')[0]}' {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "family_line, message",
        [
            (
                "data.family = planar_odd:a=abc\n",
                "config key data.family: family 'planar_odd' parameter a must be a number, "
                "got 'abc'",
            ),
            ("", "config key data.family is missing"),
        ],
        ids=["unparsable", "missing"],
    )
    def test_data_family_error_names_the_key(self, tmp_path, capsys, family_line, message):
        text = SIM_CONFIG.replace("data.family = planar_odd:a=0.5\n", family_line)
        cfg, out = self._write_config(tmp_path, text), tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_midpoint_norm_bound_grows_with_fixed_point_tolerance(self, tmp_path):
        # with a fixed 1e-10 bound this run failed on norm_dev 3.13e-10 (exit 3),
        # although its energy drift, 1.9e-7, was within 1.63e-5
        text = (
            "grid.kind = half\ngrid.L = 20.0\ngrid.n = 512\n"
            "data.family = planar_odd:a=0.5\ntime.t_final = 1.0\ntime.dt = 0.0006127\n"
            "scheme = midpoint_fixedpoint\ntolerances.fixed_point = 1e-8\n"
        )
        cfg, out = self._write_config(tmp_path, text), tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["maxima"]["norm_dev"]["max"] > 1e-10
        assert summary["tolerances"]["norm_dev"] == 1e-10 + summary["solver"]["steps"] * 1e-8
        assert summary["passed"]

    def test_family_on_grid_kind_it_does_not_declare_exit_one(self, tmp_path, capsys):
        # planar_odd has a jump at the wrap point of a periodic grid
        cfg = self._write_config(
            tmp_path, PERIODIC_CONFIG.replace("helix:a=0.6,c=0.8,k=2.0", "planar_odd:a=0.5")
        )
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "planar_odd" in capsys.readouterr().err
        assert not out.exists()


class TestSnapshotWriter:
    def test_failed_write_removes_the_partial_file(self, tmp_path, capsys, monkeypatch):
        """ENOSPC on the second snapshot block: OSError, no snapshots.csv, and simulate exits 1."""

        class DiskFull:
            """A file whose third write, the second block after the header, finds the disk full."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.writes += 1
                if self.writes == 3:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.fh.write(text)

            def writelines(self, pieces):
                for piece in pieces:
                    self.write(piece)

        def opening(path, mode="r"):
            fh = open(path, mode)
            return DiskFull(fh) if path.endswith("snapshots.csv") else fh

        monkeypatch.setattr(cli, "open", opening, raising=False)
        fam = get_family("planar_odd", a=0.5)
        cfg = SimConfig(t_final=0.1, check_order=1, snapshot_every=1)
        run = solve_half_space(fam, Grid.half_line(20.0, 129), cfg)
        assert len(run.times) >= 2
        with pytest.raises(OSError, match="No space left"):
            cli.write_snapshots_csv(str(tmp_path / "snapshots.csv"), run)
        assert os.listdir(tmp_path) == []  # no partial file to pass for output

        text = SIM_CONFIG.replace("output.snapshot_every = 50", "output.snapshot_every = 1")
        config = tmp_path / "run.cfg"
        config.write_text(text)
        assert main(["simulate", str(config), "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: [Errno 28] No space left on device")
        assert os.listdir(tmp_path / "out") == []


    def test_non_finite_curve_is_refused_and_leaves_no_file(self, tmp_path):
        # orjson writes NaN as null; the writer once wrote the cell nan
        grid = Grid.half_line(20.0, 17)
        tangent = VectorField(grid, np.tile(E3, (grid.n, 1)))
        series = TimeSeries(grid, 2, SimConfig())
        for t in (0.0, 0.5):
            series.record(t, tangent)
        bad = np.zeros((grid.n, 3))
        bad[5, 2] = np.nan
        curves = [FilamentCurve(grid, np.zeros((grid.n, 3))), FilamentCurve(grid, bad)]
        with pytest.raises(ValueError, match="finite"):
            cli.write_snapshots_csv(str(tmp_path / "snapshots.csv"), series, curves)
        assert os.listdir(tmp_path) == []  # the first block, written, is removed too


    def test_snapshot_on_another_grid_is_refused(self, tmp_path):
        # record once took a snapshot on any grid, and the writer put the
        # series' s column next to the values of a shorter grid
        grid = Grid.half_line(20.0, 33)
        fam = get_family("planar_odd", a=0.5)
        series = TimeSeries(grid, 2, SimConfig())
        series.record(0.0, fam.sample(grid))
        with pytest.raises(GridMismatch, match="snapshot on .*length=10.0"):
            series.record(0.5, fam.sample(Grid.half_line(10.0, 33)))
        assert np.array_equal(series.times, [0.0]) and len(series.snapshots) == 1
        series.record(1.0, fam.sample(grid))
        cli.write_snapshots_csv(str(tmp_path / "snapshots.csv"), series)
        rows = np.loadtxt(tmp_path / "snapshots.csv", delimiter=",", skiprows=1)
        assert rows.shape == (2 * grid.n, 5)
        assert np.array_equal(rows[:, 0], np.repeat([0.0, 1.0], grid.n))
        want = series.snapshots.reshape(-1, 3)
        assert np.array_equal(rows[:, 2:], want)


class TestOtherCommands:
    def test_oracle_stationary(self, capsys):
        rc = main(["oracle", "stationary_line", "--n", "64", "--t-final", "0.05"])
        assert rc == EXIT_OK
        blob = json.loads(capsys.readouterr().out)
        assert blob["max_deviation"] == 0.0

    def test_oracle_unknown_exit_one(self):
        assert main(["oracle", "breather"]) == EXIT_USAGE

    def test_convergence_table(self, capsys):
        rc = main(["convergence", "helix", "--levels", "32,48,64"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "fitted order" in out

    def test_convergence_stationary_is_exact(self, capsys):
        assert main(["convergence", "stationary", "--levels", "16,32,64"]) == EXIT_OK
        assert capsys.readouterr().out.endswith("fitted order: exact\n")

    def test_convergence_nls_is_second_order(self, capsys):
        assert main(["convergence", "nls", "--levels", "32,64,128"]) == EXIT_OK
        last = capsys.readouterr().out.splitlines()[-1]
        # the window of acceptance criterion 9
        assert 1.8 <= float(last.removeprefix("fitted order: ")) <= 2.5

    def test_convergence_nls_on_coarse_levels(self, capsys):
        # at n = 16 the default cadence kept 2 snapshots of 5 steps, and the
        # study exited 1: need >= 3 snapshots for a centered psi_t
        assert main(["convergence", "nls", "--levels", "16,32,64"]) == EXIT_OK
        last = capsys.readouterr().out.splitlines()[-1]
        assert 1.8 <= float(last.removeprefix("fitted order: ")) <= 2.5

    @pytest.mark.parametrize(
        "flag, message",
        [("--n", "need at least 8 nodes, got 0"), ("--t-final", "t_final must be a finite")],
    )
    def test_oracle_zero_setting_exit_one(self, capsys, flag, message):
        # 0 once read as "not given", so the oracle ran its default instead
        assert main(["oracle", "stationary_line", flag, "0"]) == EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, t_final",
        [("ring_translation", "1e-300"), ("helix_dispersion", "1e-200")],
    )
    def test_oracle_at_a_tiny_t_final(self, capsys, name, t_final):
        # the ring's norm once squared a subnormal shift and printed NaN; the
        # helix fit underflowed polyfit's column scale, and LAPACK failed
        def refuse(constant):
            raise ValueError(f"non-finite JSON value {constant}")

        def run(t):
            assert main(["oracle", name, "--n", "16", "--t-final", t]) == EXIT_OK
            return json.loads(capsys.readouterr().out, parse_constant=refuse)["relative_error"]

        error = run(t_final)
        assert math.isfinite(error)
        assert error == pytest.approx(run("1e-3"), rel=1e-9)

    def test_non_finite_value_in_an_oracle_run_names_no_option(self, capsys, monkeypatch):
        # --n and --t-final are checked before the run; a NonFiniteState is a
        # ValueError, so a run inside the --t-final check would have named it
        calls = [0]

        def bad_rhs(u, values, _rhs=evolve.rhs):
            calls[0] += 1
            out = _rhs(u, values)
            if calls[0] == 6:
                out[1, 4] = np.nan  # node 3, component 2
            return out

        monkeypatch.setattr(evolve, "rhs", bad_rhs)
        argv = ["oracle", "ring_translation", "--n", "64", "--t-final", "0.01"]
        assert main(argv) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: field values must be finite at step 2 of 7, t = 0.00156622\n"
        )

    @pytest.mark.parametrize("levels", ["32,32,32", "32,64,32"])
    def test_convergence_repeated_levels_exit_one(self, capsys, levels):
        # three copies of one level once printed a fitted order and exited 0
        assert main(["convergence", "helix", "--levels", levels]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "at least 3 distinct levels" in captured.err
        assert "fitted order" not in captured.out

    @pytest.mark.parametrize("levels", ["32,64,x", "32,,64", "32.0,64,128"])
    def test_convergence_unparsable_level_names_the_flag(self, capsys, levels):
        # int('x') once surfaced as "invalid literal for int() with base 10"
        assert main(["convergence", "helix", "--levels", levels]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "argument --levels: expected comma-separated node counts" in captured.err
        assert captured.out == ""

    def test_diagnose_helix(self, capsys):
        rc = main(["diagnose", "--family", "helix", "--n", "96", "--t-final", "0.05"])
        assert rc == EXIT_OK
        blob = json.loads(capsys.readouterr().out)
        assert blob["kappa_mean"] == pytest.approx(1.2, abs=2e-2)
        assert blob["tau_mean"] == pytest.approx(1.6, abs=2e-2)

    @staticmethod
    def _diagnose(monkeypatch, capsys, argv):
        """(exit code, printed values, snapshots of the solve) of ``diagnose``."""
        runs = []

        def recording_solve(u0, cfg, _solve=cli.solve_whole_line):
            runs.append(_solve(u0, cfg))
            return runs[-1]

        monkeypatch.setattr(cli, "solve_whole_line", recording_solve)
        rc = main(["diagnose", *argv])
        out = capsys.readouterr().out
        return rc, json.loads(out) if out else None, len(runs[0].snapshots) if runs else 0

    def test_diagnose_a_run_shorter_than_one_default_step(self, monkeypatch, capsys):
        # the default step, 0.65 h^2 = 0.0111, is longer than t_final: one
        # step and two snapshots, too few for a centered psi_t, once exited 1
        argv = ["--family", "helix", "--n", "48", "--t-final", "0.01"]
        rc, blob, snapshots = self._diagnose(monkeypatch, capsys, argv)
        assert rc == EXIT_OK
        assert snapshots == 3
        assert all(math.isfinite(value) for value in blob.values())

    def test_default_diagnose_keeps_the_solver_cadence(self, monkeypatch, capsys):
        # n = 256, t = 0.1: 256 steps of the default dt, a snapshot every 8
        rc, _, snapshots = self._diagnose(monkeypatch, capsys, ["--family", "helix"])
        assert rc == EXIT_OK
        assert snapshots == 33

    def test_diagnose_logs_each_warning_once(self, caplog):
        # the final snapshot's psi was once computed twice, and its warning logged twice
        with caplog.at_level("WARNING", logger="filamentlab.hasimoto"):
            assert main(["diagnose", "--family", "straight", "--n", "32"]) == EXIT_OK
        assert [r.message for r in caplog.records] == [
            "curvature below floor everywhere; psi is the zero field",
            "empty mask throughout; residual reported as 0",
        ]

    def test_diagnose_half_line_family_exit_one(self, capsys):
        assert main(["diagnose", "--family", "planar_odd", "--n", "64"]) == EXIT_USAGE
        assert "planar_odd" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check", "--family", "planar_odd:a=inf"], "'planar_odd' parameter a must be finite"),
            (["diagnose", "--family", "ring:r=0"], "'ring' parameter r must be above 0"),
            (
                ["check", "--family", "planar_odd:a=1x"],
                "'planar_odd' parameter a must be a number, got '1x'",
            ),
        ],
    )
    def test_bad_family_parameter_exit_one(self, capsys, argv, message):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"error: family {message}" in captured.err
        assert captured.out == ""

    def test_diagnose_misspelt_family_parameter_exit_one(self, capsys):
        # kk was once dropped and the helix sampled with k = 2
        argv = ["diagnose", "--family", "helix:a=0.6,c=0.8,kk=7", "--n", "64"]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "'helix' has no parameter kk; accepted: a, c, k" in captured.err
        assert captured.out == ""


HELIX = "helix:a=0.6,c=0.8,k=2.0"

#: Every exit-1 input of the README's list: a simulate config text, or a
#: command line in which {nonuniform}, {shifted} and the other names of the
#: test's ``files`` name CSV files.
EXIT_ONE_INPUTS = {
    "unknown-key": SIM_CONFIG + "time.tfinal = 0.01\n",
    "dt-nan": SIM_CONFIG + "time.dt = nan\n",
    "dt-zero": SIM_CONFIG + "time.dt = 0\n",
    "t_final-inf": _with_key(SIM_CONFIG, "time.t_final", "inf"),
    "snapshot_every-zero": _with_key(SIM_CONFIG, "output.snapshot_every", "0"),
    "monitor_every-zero": _with_key(SIM_CONFIG, "output.monitor_every", "0"),
    # the last copy once won silently: this ran at n = 65 and exited 0
    "repeated-key": SIM_CONFIG + "grid.n = 65\n",
    "family-off-its-grid-kind": PERIODIC_CONFIG.replace(HELIX, "planar_odd:a=0.5"),
    # these two once named no key
    "ring-on-a-half-grid": "data.family = ring:r=0.5\n",
    "diagnose-half-line-family": ["diagnose", "--family", "planar_odd", "--n", "64"],
    "csv-not-uniform": ["check", "--input", "{nonuniform}"],
    "csv-not-at-zero": ["check", "--input", "{shifted}"],
    "strict-misspelt": SIM_CONFIG + "check.strict = treu\n",
    "check-order-negative": ["check", "--family", "planar_odd:a=0.5", "--order", "-1"],
    # once "order 3 needs derivative 6 > k_max=4", naming neither the option nor its range
    "check-order-3": ["check", "--family", "planar_odd:a=0.5", "--order", "3"],
    "config-order-negative-half": SIM_CONFIG.replace("check.order = 1", "check.order = -1"),
    # a periodic run checks no compatibility, so order -1 once ran and exited 0
    "config-order-negative-periodic": PERIODIC_CONFIG + "check.order = -1\n",
    # order 3 needs derivative 6 at the wall; a periodic run once accepted and ignored it
    "config-order-3-half": SIM_CONFIG.replace("check.order = 1", "check.order = 3"),
    "config-order-3-periodic": PERIODIC_CONFIG + "check.order = 3\n",
    "check-tol-inf": ["check", "--family", "planar_bad:a=0.5", "--tol", "inf"],
    "check-tol-nan": ["check", "--family", "planar_bad:a=0.5", "--tol", "nan"],
    "config-tol-nan": SIM_CONFIG + "tolerances.compat = nan\n",
    "grid-n-unparsable": SIM_CONFIG.replace("grid.n = 129", "grid.n = 12x"),
    "grid-n-too-small": SIM_CONFIG.replace("grid.n = 129", "grid.n = 4"),
    "family-param-unknown": ["check", "--family", "planar_odd:A=5"],
    "family-param-unknown-helix": ["diagnose", "--family", "helix:kk=7", "--n", "64"],
    "family-param-nan": PERIODIC_CONFIG.replace(HELIX, "helix:a=nan"),
    "family-param-inf": ["check", "--family", "planar_odd:a=inf"],
    "ring-r-zero": PERIODIC_CONFIG.replace(HELIX, "ring:r=0"),
    "ring-r-negative": ["diagnose", "--family", "ring:r=-1"],
    "oracle-n-zero": ["oracle", "stationary_line", "--n", "0"],
    "oracle-t_final-zero": ["oracle", "stationary_line", "--t-final", "0"],
    "oracle-n-too-small": ["oracle", "helix_dispersion", "--n", "4"],
    "convergence-repeated-levels": ["convergence", "helix", "--levels", "32,32,32"],
    "convergence-level-too-small": ["convergence", "helix", "--levels", "4,8,16"],
    "convergence-level-unparsable": ["convergence", "helix", "--levels", "32,64,x"],
    "usage-simulate-without-config": ["simulate"],
    "usage-order-not-an-integer": ["check", "--order", "x", "--family", "planar_odd"],
    "usage-unknown-command": ["bogus"],
    # --input was once ignored beside --family, so this check passed
    "usage-family-and-input": ["check", "--family", "planar_odd:a=0.5", "--input", "{shifted}"],
    "usage-family-and-input-extend": ["extend", "--family", "planar_odd", "--input", "{shifted}"],
    "data-family-missing": SIM_CONFIG.replace("data.family = planar_odd:a=0.5\n", ""),
    "data-family-param-unparsable": SIM_CONFIG.replace("a=0.5", "a=abc"),
    "check-family-param-unparsable": ["check", "--family", "planar_odd:a=1x"],
    # as with a repeated config key, neither copy may win silently
    "family-param-repeated": ["check", "--family", "planar_odd:a=0.5,a=2"],
    "data-family-param-repeated": SIM_CONFIG.replace("a=0.5", "a=0.5,a=2"),
    "grid-kind-whole": SIM_CONFIG.replace("grid.kind = half", "grid.kind = whole"),
    # an infinite length once ran into numpy warnings, and none of these named the key
    "grid-L-inf": SIM_CONFIG.replace("grid.L = 20.0", "grid.L = inf"),
    "grid-L-nan": SIM_CONFIG.replace("grid.L = 20.0", "grid.L = nan"),
    "grid-L-inf-periodic": PERIODIC_CONFIG.replace("grid.L = 6.283185307179586", "grid.L = inf"),
    "check-length-inf": ["check", "--family", "planar_odd:a=0.5", "--length", "inf"],
    # a non-finite value in a solve exits 3; in an input file it stays a usage error
    "csv-not-finite": ["check", "--input", "{nonfinite}"],
    # a text cell once read as NaN and failed as not finite
    "csv-not-numeric": ["check", "--input", "{nonnumeric}"],
    "csv-one-row": ["check", "--input", "{onerow}"],
    "csv-header-only": ["check", "--input", "{headeronly}"],
    # a falling s column once reached Grid, whose message named no file
    "csv-s-backward": ["check", "--input", "{backward}"],
    # the reader skips blank and comment lines; the message counts them
    "csv-not-finite-after-blank-line": ["check", "--input", "{blankline}"],
    "csv-ragged": ["check", "--input", "{ragged}"],
    # the rows of a snapshots.csv: t,s,v1,v2,v3
    "csv-five-columns": ["check", "--input", "{fivecolumns}"],
    # a periodic family off a whole number of its periods once ran and exited 0
    "ring-length-not-whole-periods": PERIODIC_CONFIG.replace(HELIX, "ring:r=0.5").replace(
        "grid.L = 6.283185307179586", "grid.L = 3.0"
    ),
    "helix-length-not-whole-periods": PERIODIC_CONFIG.replace(HELIX, "helix:k=1.5"),
    "diagnose-helix-off-its-period": ["diagnose", "--family", "helix:k=1.5", "--n", "128"],
    # the message once named a length of 2 pi that the user never passed
    "diagnose-helix-default-length": ["diagnose", "--family", "helix:k=0.5"],
    # diagnose once ignored --length for a ring
    "diagnose-ring-length": ["diagnose", "--family", "ring:r=0.5", "--length", "5"],
    # a period under 2 h once sampled aliased noise and exited 0 (energy drift 0.94)
    "helix-period-under-2h": PERIODIC_CONFIG.replace(HELIX, "helix:k=1e300"),
    "diagnose-helix-period-under-2h": ["diagnose", "--family", "helix:k=1e300", "--n", "64"],
    # these once named no option, unlike simulate's grid.n and grid.L
    "extend-n-too-small": ["extend", "--family", "planar_odd:a=0.5", "--n", "4"],
    "diagnose-n-too-small": ["diagnose", "--family", "helix", "--n", "4"],
    "diagnose-family-off-its-grid-kind": ["diagnose", "--family", "planar_odd"],
    "check-family-off-its-grid-kind": ["check", "--family", "helix"],
    "diagnose-t-final-zero": ["diagnose", "--family", "helix", "--t-final", "0"],
    # a boundary estimate out of the float range once printed "nan  FAIL" and exited 0
    "check-length-tiny-order-2": [
        "check", "--family", "planar_odd:a=0.5", "--length", "1e-300", "--order", "2"
    ],
    "extend-length-tiny": ["extend", "--family", "planar_odd:a=0.5", "--length", "1e-300"],
    "extend-input-tiny-spacing": ["extend", "--input", "{tinyspacing}"],
    # a time step of 0 or infinity once died in a traceback or in "cannot convert float NaN"
    "grid-L-tiny": SIM_CONFIG.replace("grid.L = 20.0", "grid.L = 1e-300"),
    "grid-L-tiny-not-strict": SIM_CONFIG.replace("grid.L = 20.0", "grid.L = 1e-300")
    + "check.strict = false\n",
    "grid-L-huge": SIM_CONFIG.replace("grid.L = 20.0", "grid.L = 1e300").replace(
        "planar_odd:a=0.5", "straight"
    ),
    "ring-length-tiny": PERIODIC_CONFIG.replace(HELIX, "ring:r=1e-300").replace(
        "grid.L = 6.283185307179586", "grid.L = 6.283185307179586e-300"
    ),
    # this once named --t-final, which the user never passed
    "diagnose-ring-tiny": ["diagnose", "--family", "ring:r=1e-300", "--n", "16"],
    # a finite but hopeless step count once died in numpy's allocator, in a
    # traceback or in "Maximum allowed dimension exceeded", naming no key
    "grid-L-tiny-finite-step": SIM_CONFIG.replace("grid.L = 20.0", "grid.L = 1e-100").replace(
        "planar_odd:a=0.5", "straight"
    ),
    "grid-L-small": SIM_CONFIG.replace("grid.L = 20.0", "grid.L = 1e-5"),
    # these three once named grid.L or --length, or no option, for a t_final at fault
    "t_final-hopeless": _with_key(SIM_CONFIG, "time.t_final", "1e12"),
    "oracle-t_final-hopeless": ["oracle", "ring_translation", "--n", "16", "--t-final", "1e12"],
    "diagnose-t_final-hopeless": ["diagnose", "--family", "helix", "--n", "16", "--t-final", "1e9"],
    "diagnose-ring-tiny-finite-step": ["diagnose", "--family", "ring:r=1e-150", "--n", "16"],
    # a set dt too short for the cap once named grid.L
    "dt-hopeless": SIM_CONFIG + "time.dt = 1e-30\n",
    # a t_final whose step count overflows once named grid.L
    "t_final-huge": _with_key(SIM_CONFIG, "time.t_final", "1e308"),
    # a closed form that is not finite at the nodes once named --t-final, or no
    # option after numpy warnings
    "diagnose-ring-radius-tiny": ["diagnose", "--family", "ring:r=1e-310"],
    "check-family-not-finite": ["check", "--family", "planar_odd:a=1e308"],
    "ring-radius-tiny": PERIODIC_CONFIG.replace(HELIX, "ring:r=1e-310").replace(
        "grid.L = 6.283185307179586", "grid.L = 6.283185307179586e-310"
    ),
    # these once named the SimConfig field and not the config key
    "t_final-negative": _with_key(SIM_CONFIG, "time.t_final", "-1"),
    "config-order-9": SIM_CONFIG.replace("check.order = 1", "check.order = 9"),
    "scheme-unknown": _with_key(SIM_CONFIG, "scheme", "foo"),
}

RING_PERIOD = "family 'ring' has period 3.141592653589793"
HELIX_PERIOD = "family 'helix' has period 4.1887902047863905"
WHOLE_PERIODS = "a periodic grid must hold a whole number of periods, got length"
POSITIVE_LENGTH = "grid length must be a finite number above 0, got"
DIAGNOSE_DEFAULT_LENGTH = "--length (default: a ring's period, else 2 pi)"
ALIASED_HELIX = (
    "family 'helix' has period 6.283185307179586e-300; a periodic grid of 64 nodes "
    "must hold fewer than 32 periods, got length 6.283185307179586"
)

NO_STEP = "the step count to t_final or to a sample is not a finite number at grid spacing"
OVER_CAP = "exceed the cap of 2147483648 at grid spacing"

#: The start of the error line of the rows whose message is checked.
EXIT_ONE_MESSAGES = {
    "check-length-tiny-order-2": (
        "--length: derivative 4 at s = 0 is not a finite number at grid spacing h=9.78474e-304"
    ),
    "extend-length-tiny": (
        "--length: jump residual k=1 is not a finite number at grid spacing h=1.95695e-303"
    ),
    "extend-input-tiny-spacing": (
        "{tinyspacing}: jump residual k=1 is not a finite number at grid spacing h=1e-300"
    ),
    "grid-L-tiny": f"config key grid.L: {NO_STEP} h=7.8125e-303",
    "grid-L-tiny-not-strict": f"config key grid.L: {NO_STEP} h=7.8125e-303",
    "grid-L-huge": f"config key grid.L: {NO_STEP} h=7.8125e+297",
    "ring-length-tiny": f"config key grid.L: {NO_STEP} h=9.81748e-302",
    "diagnose-ring-tiny": f"{DIAGNOSE_DEFAULT_LENGTH}: {NO_STEP} h=3.92699e-301",
    "grid-L-tiny-finite-step": (
        f"config key grid.L: 1.26e+203 steps of dt=3.96729e-205 to t_final=0.05 {OVER_CAP} "
        "h=7.8125e-103"
    ),
    "grid-L-small": (
        f"config key grid.L: 1.26e+13 steps of dt=3.96729e-15 to t_final=0.05 {OVER_CAP} "
        "h=7.8125e-08"
    ),
    "t_final-hopeless": (
        f"config key time.t_final: 6.3e+13 steps of dt=0.0158691 to t_final=1e+12 {OVER_CAP} "
        "h=0.15625"
    ),
    "oracle-t_final-hopeless": (
        f"--t-final: 3.99e+13 steps of dt=0.0250595 to t_final=1e+12 {OVER_CAP} h=0.19635"
    ),
    "diagnose-t_final-hopeless": (
        f"--t-final: 9.98e+09 steps of dt=0.100238 to t_final=1e+09 {OVER_CAP} h=0.392699"
    ),
    "dt-hopeless": f"config key time.dt: 5e+28 steps of dt=1e-30 to t_final=0.05 {OVER_CAP} h=0.15625",
    "t_final-huge": (
        f"config key time.t_final: inf steps of dt=0.0158691 to t_final=1e+308 {OVER_CAP} h=0.15625"
    ),
    "diagnose-ring-radius-tiny": (
        "--family: family 'ring' with r=1e-310 is not finite at the grid's nodes"
    ),
    "check-family-not-finite": (
        "--family: family 'planar_odd' with a=1e+308 is not finite at the grid's nodes"
    ),
    "ring-radius-tiny": (
        "config key data.family: family 'ring' with r=1e-310 is not finite at the grid's nodes"
    ),
    "t_final-negative": "config key time.t_final: t_final must be a finite number above 0, got -1.0",
    "config-order-9": "config key check.order: check_order must be at least 0 and at most 2, got 9",
    "scheme-unknown": "config key scheme: unknown scheme 'foo'",
    "check-tol-inf": "--tol: compatibility tolerance must be a finite number above 0, got inf",
    "check-tol-nan": "--tol: compatibility tolerance must be a finite number above 0, got nan",
    "diagnose-ring-tiny-finite-step": (
        f"{DIAGNOSE_DEFAULT_LENGTH}: 9.98e+299 steps of dt=1.00238e-301 to t_final=0.1 "
        f"{OVER_CAP} h=3.92699e-151"
    ),
    "grid-L-inf": f"config key grid.L: {POSITIVE_LENGTH} inf",
    "grid-L-nan": f"config key grid.L: {POSITIVE_LENGTH} nan",
    "grid-L-inf-periodic": f"config key grid.L: {POSITIVE_LENGTH} inf",
    "check-length-inf": f"--length: {POSITIVE_LENGTH} inf",
    "ring-length-not-whole-periods": f"config key grid.L: {RING_PERIOD}; {WHOLE_PERIODS} 3.0",
    "helix-length-not-whole-periods": (
        f"config key grid.L: {HELIX_PERIOD}; {WHOLE_PERIODS} 6.283185307179586"
    ),
    "diagnose-helix-off-its-period": (
        f"{DIAGNOSE_DEFAULT_LENGTH}: {HELIX_PERIOD}; {WHOLE_PERIODS} 6.283185307179586"
    ),
    "diagnose-helix-default-length": (
        f"{DIAGNOSE_DEFAULT_LENGTH}: family 'helix' has period 12.566370614359172; "
        f"{WHOLE_PERIODS} 6.283185307179586"
    ),
    "diagnose-ring-length": f"--length: {RING_PERIOD}; {WHOLE_PERIODS} 5.0",
    "helix-period-under-2h": f"config key grid.n: {ALIASED_HELIX}",
    "diagnose-helix-period-under-2h": f"--n: {ALIASED_HELIX}",
    "extend-n-too-small": "--n: need at least 8 nodes, got 4",
    "diagnose-n-too-small": "--n: need at least 8 nodes, got 4",
    "diagnose-family-off-its-grid-kind": (
        "--family: family 'planar_odd' is defined on half/whole grids, not on a periodic grid"
    ),
    "check-family-off-its-grid-kind": (
        "--family: family 'helix' is defined on periodic/whole grids, not on a half grid"
    ),
    "family-off-its-grid-kind": (
        "config key data.family: family 'planar_odd' is defined on half/whole grids, "
        "not on a periodic grid"
    ),
    "ring-on-a-half-grid": (
        "config key data.family: family 'ring' is defined on periodic grids, not on a half grid"
    ),
    "diagnose-t-final-zero": "--t-final: t_final must be a finite number above 0, got 0.0",
    "oracle-n-zero": "--n: need at least 8 nodes, got 0",
    "oracle-n-too-small": "--n: need at least 8 nodes, got 4",
    "oracle-t_final-zero": "--t-final: t_final must be a finite number above 0, got 0.0",
    "convergence-repeated-levels": (
        "--levels: need at least 3 distinct levels for an order fit, got [32, 32, 32]"
    ),
    "convergence-level-too-small": "--levels: need at least 8 nodes, got 4",
    "csv-not-uniform": "{nonuniform}: s must increase in equal steps",
    "csv-not-at-zero": "{shifted}: s runs 5..12, not a half grid",
    "csv-not-finite": "{nonfinite}: line 2, column 3 is not a finite number",
    "csv-not-numeric": "{nonnumeric}: line 3, column 2 is not a finite number",
    # one data row once failed as wrong columns
    "csv-one-row": "{onerow}: too few rows (1); a grid needs 8",
    "csv-header-only": "{headeronly}: too few rows (0); a grid needs 8",
    "csv-s-backward": "{backward}: s must increase in equal steps",
    "csv-not-finite-after-blank-line": "{blankline}: line 5, column 3 is not a finite number",
    # numpy's own message follows, naming the line
    "csv-ragged": "{ragged}: ",
    "check-order-3": "--order must be at least 0 and at most 2, got 3",
    "config-order-3-half": "config key check.order: check_order must be at least 0 and at most 2, got 3",
    "config-order-3-periodic": (
        "config key check.order: check_order must be at least 0 and at most 2, got 3"
    ),
    "grid-n-too-small": "config key grid.n: need at least 8 nodes, got 4",
    "t_final-inf": "config key time.t_final: t_final must be a finite number above 0, got inf",
    "snapshot_every-zero": "config key output.snapshot_every: snapshot_every must be at least 1, got 0",
    "monitor_every-zero": "config key output.monitor_every: monitor_every must be at least 1, got 0",
    "repeated-key": "config key grid.n is set twice",
    "family-param-repeated": "family 'planar_odd' parameter a is set twice",
    "data-family-param-repeated": (
        "config key data.family: family 'planar_odd' parameter a is set twice"
    ),
    "grid-kind-whole": "grid.kind must be half or periodic, got 'whole'",
    "csv-five-columns": "{fivecolumns}: expected columns s,v1,v2,v3",
}


@pytest.mark.parametrize("case", EXIT_ONE_INPUTS, ids=list(EXIT_ONE_INPUTS))
def test_every_documented_exit_one_input(tmp_path, capsys, case):
    given = EXIT_ONE_INPUTS[case]
    files = {
        "nonuniform": "s,v1,v2,v3\n" + "".join(f"{s}.0,0,0,1\n" for s in (0, 1, 3, 4, 5, 6, 7, 8)),
        "shifted": "s,v1,v2,v3\n" + "".join(f"{s}.0,0,0,1\n" for s in range(5, 13)),
        "nonfinite": "s,v1,v2,v3\n" + "".join(f"{s}.0,0,nan,1\n" for s in range(8)),
        "nonnumeric": "s,v1,v2,v3\n0.0,0,0,1\n1.0,abc,0,1\n"
        + "".join(f"{s}.0,0,0,1\n" for s in range(2, 8)),
        "onerow": "s,v1,v2,v3\n0.0,0,0,1\n",
        "blankline": "s,v1,v2,v3\n0.0,0,0,1\n\n# a comment\n1.0,0,nan,1\n"
        + "".join(f"{s}.0,0,0,1\n" for s in range(2, 8)),
        "backward": "s,v1,v2,v3\n" + "".join(f"-0.{s},0,0,1\n" for s in range(8)),
        "ragged": "s,v1,v2,v3\n0.0,0,0,1\n1.0,0,1\n" + "".join(f"{s}.0,0,0,1\n" for s in range(2, 8)),
        "headeronly": "s,v1,v2,v3\n",
        "fivecolumns": "t,s,v1,v2,v3\n" + "".join(f"0.0,{s}.0,0,0,1\n" for s in range(8)),
        "tinyspacing": "s,v1,v2,v3\n" + "".join(f"{s}e-300,0.{s},0,1\n" for s in range(8)),
        "config": given if isinstance(given, str) else "",
    }
    paths = {name: tmp_path / f"{name}.txt" for name in files}
    for name, text in files.items():
        paths[name].write_text(text)
    if isinstance(given, str):
        argv = ["simulate", str(paths["config"]), "--out", str(tmp_path / "out")]
    else:
        argv = [arg.format(**paths) for arg in given]
    assert main(argv) == EXIT_USAGE
    message = EXIT_ONE_MESSAGES.get(case, "").format(**paths)
    assert capsys.readouterr().err.startswith("error: " + message)
    assert not (tmp_path / "out").exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(first: str) -> list:
    """The README lines after the first one that starts with ``first``, to the next blank line."""
    lines = README.read_text().splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith(first))
    return lines[start + 1 : lines.index("", start)]


def test_readme_names_every_summary_key():
    # each sub-bullet of summary.json leads with the keys it describes
    lines = _readme_block("- `summary.json`")
    bullets = [re.match(r"  - ((`\w+`( and )?)+)", line) for line in lines]
    named = [key for m in bullets if m for key in re.findall(r"`(\w+)`", m.group(1))]
    v0 = HelixFamily().sample(Grid.periodic(2.0 * np.pi, 16))
    summary = harness.invariant_suite(solve_whole_line(v0, SimConfig(t_final=0.01)))
    assert sorted(named) == sorted(summary)


def test_readme_library_example_runs():
    # the example is the documented call shape; run it so it cannot drift from the code
    library = README.read_text().split("\n## Library\n", 1)[1]
    code = library.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(code, scope)
    assert scope["summary"]["passed"]


def _readme_commands() -> list:
    """The argument lists of the README's command-line block, ``filamentlab`` dropped."""
    block = README.read_text().split("\n## Command line\n", 1)[1]
    text = block.split("```text\n", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in text.splitlines()]


# simulate is run by test_readme_library_example_runs and TestSimulate
@pytest.mark.parametrize(
    "argv", [a for a in _readme_commands() if a[0] != "simulate"], ids=lambda argv: argv[0]
)
def test_readme_command_examples_run(tmp_path, argv):
    # no test ran these, so the `check ... --strict` example could stop passing unseen
    after_out = [False] + [arg == "--out" for arg in argv[:-1]]
    argv = [str(tmp_path / arg) if out else arg for arg, out in zip(argv, after_out)]
    assert main(argv) == EXIT_OK


def test_readme_config_table_lists_every_accepted_key():
    rows = [re.match(r"\| `([\w.]+)` \|", line) for line in _readme_block("| key | default |")]
    assert sorted(m.group(1) for m in rows if m) == sorted([*cli._SIM_KEYS, *cli._RUN_KEYS])


def test_parse_config(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("a = 1 # trailing\n\n# full comment\nb.c = two words\n")
    assert parse_config(str(path)) == {"a": "1", "b.c": "two words"}
    path.write_text("just a line\n")
    with pytest.raises(ValueError):
        parse_config(str(path))
