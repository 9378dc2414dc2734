"""The benchmark's workloads: inputs made from a seed, one timed sample, checks.

A sample runs one workload from its spec to outputs through the package's
public calls and is timed with ``perf_counter`` around exactly those calls.
Every sample's outputs are then checked outside the timed region; a sample
with any problem counts as failed.

Why these three:

``halfspace_rk4``
    ``filamentlab simulate --reconstruct`` (through ``cli.main``) of the
    compatible ``planar_odd`` family on the half line, n = 512, RK4 with
    projection: the paper's whole pipeline, check -> extend -> evolve ->
    restrict -> reconstruct -> write, with every phase present.
``halfspace_midpoint``
    The same pipeline with the implicit midpoint scheme at its default dt:
    only the evolve layer does different work (fixed-point iterations,
    about 5 ``rhs`` calls per step against RK4's 4).  A solver change must
    show here; ``halfspace_rk4`` is its bypass.
``ring_oracle``
    A periodic ring (r = 0.5, n = 256) through ``solve_whole_line``,
    ``reconstruct_positions`` and ``series_nls_residual``: many small steps,
    where per-call numpy overhead and wrapper objects dominate.  No check,
    extend, restrict or CSV writing, so changes there must show no change.

Run length is shortened from the acceptance t (1 and 0.5) so that one run of
``--seconds`` holds 20 to 50 samples; grids and dt are the acceptance ones.

Seeds: seed 0 is the acceptance configuration.  On the half line a seed
picks ``planar_odd``'s amplitude ``a`` from five values within 2 % of 0.5
(the family is compatible for every ``a``; grid and step count do not
change).  The spread is kept that small because the error metric moves about
2 % per 0.01 of ``a`` and its run-to-run spread must stay inside its bound.
On the ring a seed rotates the initial curve about e3, which leaves the work
and the expected translation unchanged.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import shutil
import tempfile
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from filamentlab import cli, compat, evolve, hasimoto, reconstruct
from filamentlab import Grid, SimConfig, VectorField

BENCH = Path(__file__).resolve().parent
REF_DIR = BENCH / "refs"

HALF_L = 20.0
HALF_N = 512
HALF_T = 0.25
CHECK_ORDER = 2
REF_N = 2 * HALF_N - 1  # spacing h/2; every other node is a node of the run
A_BASE = 0.5
A_OFFSETS = (0.0, 0.005, -0.005, 0.01, -0.01)

RING_R = 0.5
RING_N = 256
RING_T = 0.0125
RING_ERROR_MAX = 1e-2

#: frac(seed * golden ratio) spreads ring rotation angles evenly over seeds.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: One set-up in a fresh interpreter.  It prints the set-up's wall seconds and
#: then those of one calibration kernel run in the same process right after
#: it, which gives the speed factor of that process (see measure.py).
SETUP_CODE = """\
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import filamentlab
fam = filamentlab.get_family({family!r}, **{params!r})
fam.sample(filamentlab.Grid.{grid})
seconds = time.perf_counter() - t0
sys.path.insert(0, {bench!r})
import calibration
print(repr(seconds), repr(calibration.kernel_seconds()))
"""


def planar_a(seed: int) -> float:
    return A_BASE + A_OFFSETS[seed % len(A_OFFSETS)]


@dataclass
class Outcome:
    """Checked result of one sample; failed when ``problems`` is not empty."""

    error: float | None = None
    fingerprint: str = ""
    problems: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# refined reference for the half-line error


class StaleReference(Exception):
    """A stored reference is missing, corrupt, or built for another config."""


def reference_config(a: float, t_final: float) -> dict:
    return {
        "family": "planar_odd",
        "a": a,
        "grid.L": HALF_L,
        "grid.n": REF_N,
        "time.t_final": t_final,
        "scheme": evolve.RK4_PROJECT,
        "check.order": CHECK_ORDER,
    }


def reference_path(ref_dir: Path, a: float) -> Path:
    return Path(ref_dir) / f"planar_odd_a{a:.4f}.npz"


def _digest(config_json: str, final: np.ndarray) -> str:
    return hashlib.sha256(config_json.encode() + final.tobytes()).hexdigest()


def simulate_config(a: float, n: int, t_final: float, scheme: str, extra: str = "") -> str:
    return (
        "grid.kind = half\n"
        f"grid.L = {HALF_L!r}\n"
        f"grid.n = {n}\n"
        f"data.family = planar_odd:a={a!r}\n"
        f"time.t_final = {t_final!r}\n"
        f"scheme = {scheme}\n"
        f"check.order = {CHECK_ORDER}\n"
    ) + extra


def build_reference(ref_dir: Path, a: float, t_final: float, workdir: Path) -> Path:
    """Run the refined RK4 reference through ``cli.main`` and store its final snapshot."""
    config = reference_config(a, t_final)
    text = simulate_config(
        a, REF_N, t_final, evolve.RK4_PROJECT,
        "output.snapshot_every = 1000000000\noutput.monitor_every = 1000000000\n",
    )
    out = Path(tempfile.mkdtemp(prefix="reference-", dir=workdir))
    try:
        (out / "run.cfg").write_text(text)
        with redirect_stdout(io.StringIO()):
            rc = cli.main(["simulate", str(out / "run.cfg"), "--out", str(out)])
        if rc != 0:
            raise RuntimeError(f"reference run exited with {rc}")
        nodes = Grid.half_line(HALF_L, REF_N).nodes().tolist()
        final, _, problems = read_snapshots(out / "snapshots.csv", nodes, t_final, 5)
        if problems:
            raise RuntimeError(f"reference outputs: {problems}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    config_json = json.dumps(config, sort_keys=True)
    path = reference_path(ref_dir, a)
    Path(ref_dir).mkdir(parents=True, exist_ok=True)
    np.savez(
        path,
        config=np.array(config_json),
        final=final,
        sha256=np.array(_digest(config_json, final)),
    )
    return path


def load_reference(ref_dir: Path, a: float, t_final: float) -> np.ndarray:
    """Final reference snapshot; refuses a missing, corrupt or stale file."""
    path = reference_path(ref_dir, a)
    hint = "rebuild it with: python3 perfbench/build_refs.py"
    if not path.is_file():
        raise StaleReference(f"{path.name} is missing; {hint}")
    with np.load(path, allow_pickle=False) as z:
        config_json = str(z["config"])
        final = np.array(z["final"])
        digest = str(z["sha256"])
    if _digest(config_json, final) != digest:
        raise StaleReference(f"{path.name} does not match its stored hash; {hint}")
    wanted = reference_config(a, t_final)
    if json.loads(config_json) != wanted:
        raise StaleReference(
            f"{path.name} was built for {config_json}, the workload needs "
            f"{json.dumps(wanted, sort_keys=True)}; {hint}"
        )
    return final


# ---------------------------------------------------------------------------
# output checks


def read_snapshots(path: Path, nodes: list, t_final: float, columns: int):
    """Stream snapshots.csv; returns (last snapshot's v, snapshot count, problems).

    Every block must hold one row per node with the grid's s values, one
    time per block, times increasing from 0 to ``t_final``.
    """
    n = len(nodes)
    final = np.empty((n, 3))
    times: list = []
    problems: list = []
    rows = 0
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if len(header) != columns or header[:5] != ["t", "s", "v1", "v2", "v3"]:
            return final, 0, [f"snapshots.csv header {header}"]
        for line in fh:
            vals = [float(x) for x in line.split(",")]
            j = rows % n
            rows += 1
            if len(vals) != columns or not all(map(math.isfinite, vals)):
                problems.append(f"snapshots.csv row {rows}: {len(vals)} values or non-finite")
                break
            if j == 0:
                if times and vals[0] <= times[-1]:
                    problems.append(f"snapshots.csv row {rows}: time does not increase")
                    break
                times.append(vals[0])
            elif vals[0] != times[-1]:
                problems.append(f"snapshots.csv row {rows}: time changes inside a snapshot")
                break
            if vals[1] != nodes[j]:
                problems.append(f"snapshots.csv row {rows}: s={vals[1]!r}, node is {nodes[j]!r}")
                break
            final[j] = vals[2:5]
    if not problems:
        if not times or rows != len(times) * n:
            problems.append(f"snapshots.csv: {rows} rows is not {len(times)} snapshots x {n}")
        elif times[0] != 0.0 or times[-1] != t_final:
            problems.append(f"snapshots.csv: times run {times[0]!r}..{times[-1]!r}")
    return final, len(times), problems


def check_telemetry(path: Path) -> list:
    """The symmetry and boundary columns must read exactly 0.0 on every row."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        cols = [header.index("symmetry"), header.index("boundary")]
        rows = 0
        for line in fh:
            cells = line.rstrip("\n").split(",")
            rows += 1
            if any(float(cells[c]) != 0.0 for c in cols):
                return [f"telemetry.csv row {rows}: symmetry/boundary not exactly 0.0"]
    return [] if rows else ["telemetry.csv has no rows"]


# ---------------------------------------------------------------------------
# workloads


class HalfSpace:
    """``filamentlab simulate run.cfg --reconstruct`` on the half line."""

    def __init__(self, name, scheme, seed, workdir, t_final=HALF_T, ref_dir=REF_DIR):
        self.name = name
        self.a = planar_a(seed)
        self.t_final = t_final
        self.workdir = Path(workdir)
        self.reference = load_reference(ref_dir, self.a, t_final)[::2]
        self.config_text = simulate_config(self.a, HALF_N, t_final, scheme)
        self.nodes = Grid.half_line(HALF_L, HALF_N).nodes().tolist()
        self.setup_code = SETUP_CODE.format(
            src=str(Path(cli.__file__).parents[1]),
            bench=str(BENCH),
            family="planar_odd",
            params={"a": self.a},
            grid=f"half_line({HALF_L!r}, {HALF_N})",
        )
        self.inputs = {"config": self.config_text, "reference_n": REF_N}

    def sample(self) -> tuple:
        out = Path(tempfile.mkdtemp(prefix=self.name + "-", dir=self.workdir))
        try:
            cfg = out / "run.cfg"
            cfg.write_text(self.config_text)
            argv = ["simulate", str(cfg), "--reconstruct", "--out", str(out)]
            with redirect_stdout(io.StringIO()):
                t0 = perf_counter()
                rc = cli.main(argv)
                wall = perf_counter() - t0
            return wall, self.check(out, rc)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def check(self, out: Path, rc: int) -> Outcome:
        result = Outcome()
        if rc != 0:
            result.problems.append(f"exit code {rc}")
        try:
            summary = (out / "summary.json").read_bytes()
            if json.loads(summary).get("passed") is not True:
                result.problems.append("summary.passed is not true")
            result.problems += check_telemetry(out / "telemetry.csv")
            final, _, problems = read_snapshots(out / "snapshots.csv", self.nodes, self.t_final, 8)
            result.problems += problems
        except (OSError, ValueError, KeyError) as exc:
            result.problems.append(f"unreadable outputs: {exc!r}")
            return result
        if not problems:
            diff = final - self.reference
            result.error = float(np.max(np.sqrt(np.sum(diff * diff, axis=1))))
        result.fingerprint = hashlib.sha256(summary).hexdigest()
        return result


class Ring:
    """Periodic ring through solve_whole_line, reconstruct_positions, series_nls_residual."""

    def __init__(self, seed, t_final=RING_T):
        theta = 2.0 * math.pi * ((seed * GOLDEN) % 1.0)
        c, s = math.cos(theta), math.sin(theta)
        self.rotation = None if seed == 0 else np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        self.cfg = SimConfig(t_final=t_final)
        self.expected = np.array([0.0, 0.0, t_final / RING_R])
        self.setup_code = SETUP_CODE.format(
            src=str(Path(cli.__file__).parents[1]),
            bench=str(BENCH),
            family="ring",
            params={"r": RING_R},
            grid=f"periodic({2.0 * math.pi * RING_R!r}, {RING_N})",
        )
        self.inputs = {"r": RING_R, "n": RING_N, "t_final": t_final, "rotation_rad": theta}

    def sample(self) -> tuple:
        t0 = perf_counter()
        fam = compat.get_family("ring", r=RING_R)
        grid = Grid.periodic(fam.period(), RING_N)
        v0 = fam.sample(grid)
        if self.rotation is not None:
            v0 = VectorField(grid, v0.values @ self.rotation.T)
        series = evolve.solve_whole_line(v0, self.cfg)
        curves = reconstruct.reconstruct_positions(reconstruct.integrate_tangent(v0), series)
        nls = hasimoto.series_nls_residual(series)
        wall = perf_counter() - t0
        return wall, self.check(series, curves, nls)

    def check(self, series, curves, nls) -> Outcome:
        result = Outcome()
        disp = np.mean(curves[-1].positions - curves[0].positions, axis=0)
        result.error = float(np.linalg.norm(disp - self.expected) / np.linalg.norm(self.expected))
        if not result.error <= RING_ERROR_MAX:
            result.problems.append(f"ring translation error {result.error:.3e} > {RING_ERROR_MAX:g}")
        if not math.isfinite(nls):
            result.problems.append(f"NLS residual {nls!r} is not finite")
        if series.times[-1] != self.cfg.t_final or len(series.snapshots) < 3:
            result.problems.append(f"{len(series.snapshots)} snapshots ending at {series.times[-1]!r}")
        final = series.final().values
        result.fingerprint = hashlib.sha256(final.tobytes() + repr(nls).encode()).hexdigest()
        return result


WORKLOADS = {
    "halfspace_rk4": lambda seed, workdir, **kw: HalfSpace(
        "halfspace_rk4", evolve.RK4_PROJECT, seed, workdir, **kw
    ),
    "halfspace_midpoint": lambda seed, workdir, **kw: HalfSpace(
        "halfspace_midpoint", evolve.MIDPOINT_FIXEDPOINT, seed, workdir, **kw
    ),
    "ring_oracle": lambda seed, workdir, **kw: Ring(seed, **kw),
}
