"""filamentlab benchmark: run one workload for a fixed time and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload halfspace_rk4 --seed 0 --seconds 20 --trace 0

The package is imported from ``src/`` of the same checkout; nothing is
installed.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics, with ``--trace 1`` the per-layer ones
(see BENCHMARK.json).  The lines before it repeat every metric with its
unit.  The exit code is 1 when a check failed (the JSON line is still
printed) and 2 when the run could not start.  Run records (environment,
every sample's wall time, metrics, and the spans of the last traced sample)
go to ``perfbench/_results/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import machine

machine.pin_threads()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("halfspace_rk4", "halfspace_midpoint", "ring_oracle")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Import filamentlab from this checkout's src/, never from elsewhere."""
    package = SRC / "filamentlab"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no package source at {package}")
    sys.path.insert(0, str(SRC))
    import filamentlab

    if Path(filamentlab.__file__).resolve().parent != package.resolve():
        raise ImportError(f"filamentlab imported from {filamentlab.__file__}, not {package}")


def report(args, result, units) -> None:
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['attempted']} attempted, {result['failed']} failed")
    info = result["wall_info"]
    if info.get("samples"):
        print(f"wall_s samples: {info['samples']}; unscaled median {info['unscaled_median_s']:.4f} s, "
              f"median speed factor {info['median_factor']:.3f}")
    if "tail_s" in info:
        print(f"wall_s p{info['tail_percentile']:.0f} (10 samples above it) = {info['tail_s']:.4f} s")
    if not args.trace:
        print(f"failed_share = {result['failed'] / result['attempted']:.4f}")
    for name, value in result["metrics"].items():
        print(f"{name} = {value} {units[name]}")
    for text in result["problems"]:
        print(f"problem: {text}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import layers
    import measure
    import workloads

    env = machine.environment(ROOT)
    results = BENCH / "_results"
    results.mkdir(exist_ok=True)
    (BENCH / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=BENCH / "_work"))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        try:
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        except workloads.StaleReference as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        spans = results / f"{stem}-spans.csv" if args.trace else None
        result = measure.measure(workload, args.seconds, bool(args.trace), spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = layers.units() if args.trace else measure.END_TO_END_UNITS
    record = {"args": vars(args), "environment": env, "inputs": workload.inputs, **result}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True))
    report(args, result, units)
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
