"""Command-line interface: exit codes, file formats, determinism."""

import json

import numpy as np
import pytest

from filamentlab.cli import (
    EXIT_COMPAT,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_config,
    read_field_csv,
    write_field_csv,
)
from filamentlab.compat import get_family
from filamentlab.evolve import SimConfig, solve_half_space
from filamentlab.geometry import Grid


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

PERIODIC_CONFIG = """\
grid.kind = periodic
grid.L = 6.283185307179586
grid.n = 64
data.family = helix:a=0.6,c=0.8,k=2.0
time.t_final = 0.05
"""


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
        back = read_field_csv(str(path), "half")
        assert back.grid == v0.grid
        assert np.array_equal(back.values, v0.values)

    def test_check_from_csv(self, tmp_path):
        fam = get_family("planar_odd", a=0.5)
        v0 = fam.sample(Grid.half_line(20.0, 129))
        path = tmp_path / "field.csv"
        write_field_csv(str(path), v0)
        # no resampler from a file, but sampled planar_odd still passes order 1
        rc = main(["check", "--input", str(path), "--order", "0", "--strict"])
        assert rc == EXIT_OK

    def test_nonuniform_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("s,v1,v2,v3\n0.0,0,0,1\n1.0,0,0,1\n3.0,0,0,1\n")
        with pytest.raises(ValueError):
            read_field_csv(str(path))

    @staticmethod
    def _shifted_csv(tmp_path):
        """planar_odd data sampled on [5, 15] instead of [0, 10]."""
        v0 = get_family("planar_odd", a=0.5).sample(Grid.half_line(10.0, 64))
        path = tmp_path / "shifted.csv"
        rows = np.column_stack([v0.grid.nodes() + 5.0, v0.values])
        np.savetxt(path, rows, delimiter=",", header="s,v1,v2,v3", comments="")
        return str(path)

    @pytest.mark.parametrize("kind", ["half", "periodic"])
    def test_grid_not_starting_at_zero_rejected(self, tmp_path, kind):
        with pytest.raises(ValueError, match=f"not a {kind} grid"):
            read_field_csv(self._shifted_csv(tmp_path), kind)

    def test_check_rejects_shifted_csv(self, tmp_path, capsys):
        path = self._shifted_csv(tmp_path)
        rc = main(["check", "--input", path, "--order", "0", "--strict"])
        assert rc == EXIT_USAGE
        assert "s runs 5..15" in capsys.readouterr().err

    def test_asymmetric_whole_grid_rejected(self, tmp_path):
        path = tmp_path / "ext.csv"
        assert main(["extend", "--family", "planar_odd:a=0.5", "--n", "65", "-L", "10",
                     "--out", str(path)]) == EXIT_OK
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop the s = L row
        with pytest.raises(ValueError, match="not a whole grid"):
            read_field_csv(str(path), "whole")


class TestExtend:
    def test_writes_extended_field(self, tmp_path, capsys):
        out = tmp_path / "ext.csv"
        rc = main(
            ["extend", "--family", "planar_odd:a=0.5", "--n", "65", "-L", "10", "--out", str(out)]
        )
        assert rc == EXIT_OK
        ext = read_field_csv(str(out), "whole")
        assert ext.grid.n == 129
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
        main(["simulate", str(cfg), "--out", str(out)])
        data = np.genfromtxt(out / "snapshots.csv", delimiter=",", skip_header=1)
        assert data.shape[1] == 5
        # every tangent sample is unit length after repr round trip
        norms = np.sqrt(np.sum(data[:, 2:5] ** 2, axis=1))
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        # and reads back as exactly the values the solver produced
        fam = get_family("planar_odd", a=0.5)
        v0 = fam.sample(Grid.half_line(20.0, 129))
        run = solve_half_space(v0, SimConfig(t_final=0.05, check_order=1), fam.sampler())
        assert np.array_equal(data[:, 0], np.repeat(run.half.times, 129))
        assert np.array_equal(data[:, 1], np.tile(v0.grid.nodes(), len(run.half.times)))
        assert np.array_equal(data[:, 2:5], np.concatenate([u.values for u in run.half.snapshots]))

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

    def test_incompatible_family_exit_two(self, tmp_path):
        cfg = self._write_config(
            tmp_path, SIM_CONFIG.replace("planar_odd:a=0.5", "planar_bad:a=0.5")
        )
        rc = main(["simulate", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == EXIT_COMPAT

    def test_outdir_from_environment(self, tmp_path, monkeypatch):
        cfg = self._write_config(tmp_path)
        envdir = tmp_path / "envout"
        monkeypatch.setenv("FILAMENTLAB_OUTDIR", str(envdir))
        assert main(["simulate", str(cfg)]) == EXIT_OK
        assert (envdir / "summary.json").exists()

    def test_missing_config_exit_one(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.cfg")]) == EXIT_USAGE


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

    def test_diagnose_helix(self, capsys):
        rc = main(["diagnose", "--family", "helix", "--n", "96", "--t-final", "0.05"])
        assert rc == EXIT_OK
        blob = json.loads(capsys.readouterr().out)
        assert blob["kappa_mean"] == pytest.approx(1.2, abs=2e-2)
        assert blob["tau_mean"] == pytest.approx(1.6, abs=2e-2)


def test_parse_config(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("a = 1 # trailing\n\n# full comment\nb.c = two words\n")
    assert parse_config(str(path)) == {"a": "1", "b.c": "two words"}
    path.write_text("just a line\n")
    with pytest.raises(ValueError):
        parse_config(str(path))
