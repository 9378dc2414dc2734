"""Self-test of the benchmark: every workload at a shortened t, in a few seconds each.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that an untraced and a traced run of each workload are correct,
that every metric named in BENCHMARK.json appears with its unit, that the
counts match their formulas (``rhs_calls == 4 * steps`` for RK4, one
``restrict`` per snapshot, ...), that tracing leaves no wrapper behind, and
that the committed references load for every seed while a reference built
for another config is refused.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import machine

machine.pin_threads()

SHORT_T = {"halfspace_rk4": 0.02, "halfspace_midpoint": 0.02, "ring_oracle": 0.005}
SECONDS = 0.5


class Failures(list):
    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.append(what)


def _every(nsteps: int, every: int) -> int:
    """Rows recorded at step 0, every ``every`` steps and at the last step."""
    return 1 + nsteps // every + (1 if nsteps % every else 0)


def check_counts(f: Failures, name: str, m: dict, t_final: float) -> None:
    from filamentlab import Grid, SimConfig

    import workloads

    cfg = SimConfig()
    half = name.startswith("halfspace")
    if half:
        grid = Grid.half_line(workloads.HALF_L, workloads.HALF_N)
        nodes = 2 * workloads.HALF_N - 1
    else:
        grid = Grid.periodic(2.0 * math.pi * workloads.RING_R, workloads.RING_N)
        nodes = workloads.RING_N
    steps = max(1, math.ceil(t_final / cfg.resolve_dt(grid.h) - 1e-12))
    snapshots = _every(steps, cfg.snapshot_every)
    f.check(m["evolve.steps"] == steps, f"steps {m['evolve.steps']} != {steps}")
    if name == "halfspace_midpoint":
        f.check(m["evolve.rhs_calls"] >= 2 * steps, "midpoint: fewer than 2 rhs calls per step")
    else:
        f.check(m["evolve.rhs_calls"] == 4 * steps, "RK4: rhs_calls != 4 * steps")
    f.check(m["evolve.rhs_per_step"] == m["evolve.rhs_calls"] / steps, "rhs_per_step")
    f.check(m["evolve.rhs_node_evals"] == nodes * m["evolve.rhs_calls"], "rhs_node_evals != n * rhs_calls")
    f.check(m["evolve.telemetry_rows"] == _every(steps, cfg.monitor_every), "telemetry_rows")
    f.check(m["evolve.snapshots"] == snapshots, f"snapshots {m['evolve.snapshots']} != {snapshots}")
    f.check(m["geometry.field_inits"] >= 2 * m["evolve.rhs_calls"], "fewer than 2 fields per rhs")
    f.check(m["reflect.restrict_calls"] == (snapshots if half else 0), "restrict_calls")
    f.check((m["cli.write_snapshots_bytes"] > 0) == half, "write_snapshots_bytes")
    f.check((m["hasimoto.nls_s"] > 0) != half, "hasimoto.nls_s present on the wrong workload")
    f.check((m["compat.check_s"] > 0) == half, "compat.check_s present on the wrong workload")


def check_restored(f: Failures) -> None:
    from filamentlab import cli, evolve, geometry, hasimoto, reconstruct

    for owner, attr in [(evolve, "rhs"), (evolve, "step"), (evolve, "cross"),
                        (cli, "write_snapshots_csv"), (reconstruct, "deriv"),
                        (hasimoto, "series_nls_residual")]:
        f.check(not hasattr(getattr(owner, attr), "__wrapped__"), f"{attr} still wrapped")
    f.check("__init__" not in vars(geometry.VectorField), "VectorField.__init__ still wrapped")


def check_references(f: Failures, work: Path) -> None:
    import workloads

    for seed in range(len(workloads.A_OFFSETS)):
        try:
            workloads.load_reference(workloads.REF_DIR, workloads.planar_a(seed), workloads.HALF_T)
        except workloads.StaleReference as exc:
            f.append(f"committed reference for seed {seed}: {exc}")
    try:
        workloads.load_reference(work, workloads.A_BASE, 2 * SHORT_T["halfspace_rk4"])
        f.append("a reference built for another t was accepted")
    except workloads.StaleReference:
        pass


def run_workload(name: str, work: Path, spec: dict) -> Failures:
    import layers
    import measure
    import workloads

    f = Failures()
    t = SHORT_T[name]
    kw = {"t_final": t}
    if name.startswith("halfspace"):
        kw["ref_dir"] = work
    wl = workloads.WORKLOADS[name](0, work, **kw)
    plain = measure.measure(wl, SECONDS, trace=False, setup_repeats=1)
    traced = measure.measure(wl, SECONDS, trace=True, spans_path=work / "spans.csv")
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        f.check(result["correct"] and result["failed"] == 0, f"{kind} run: {result['problems']}")
        wanted = {m["name"]: m["unit"] for m in spec[kind]}
        units = measure.END_TO_END_UNITS if kind == "end_to_end" else layers.units()
        f.check(set(result["metrics"]) == set(wanted), f"{kind} names differ from BENCHMARK.json")
        f.check(all(units.get(k) == u for k, u in wanted.items()), f"{kind} units differ")
        f.check(all(v is not None for v in result["metrics"].values()), f"{kind} has missing values")
    if not f:
        check_counts(f, name, traced["metrics"], t)
        f.check(plain["metrics"]["error"] > 0, "error reads 0")
    check_restored(f)
    return f


def main() -> int:
    import run

    run.import_package()
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if not names == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES):
        print(f"workload names differ: {names}, {list(workloads.WORKLOADS)}, {run.WORKLOAD_NAMES}")
        return 1
    (run.BENCH / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.BENCH / "_work"))
    ok = True
    try:
        workloads.build_reference(work, workloads.A_BASE, SHORT_T["halfspace_rk4"], work)
        f = Failures()
        check_references(f, work)
        print(f"references: {'ok' if not f else f}")
        ok = not f
        for name in workloads.WORKLOADS:
            f = run_workload(name, work, spec)
            print(f"{name}: {'ok' if not f else f}", flush=True)
            ok = ok and not f
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
