"""Repeat the benchmark over seeds and report each metric's run-to-run spread.

Run from the repository root:

    python3 perfbench/sweep.py --repeats 10

Repeat k uses seed k and runs every workload once for BENCHMARK.json's
``run_seconds``, each in a fresh untraced process, with the workload order
rotated from repeat to repeat so no workload always runs first.  For every end-to-end metric the sweep prints
the median, the quartiles and their distance as a share of the median, the
smallest and largest value, and the bound in BENCHMARK.json; ``steady`` means
the spread is below a third of the bound.  The whole record goes to ``perfbench/_results/sweep-*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 900


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeats", type=int, default=10)
    args = p.parse_args(argv)

    runs = []
    for seed in range(args.repeats):
        shift = seed % len(names)
        for name in names[shift:] + names[:shift]:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            elapsed = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            runs.append({"workload": name, "seed": seed, "returncode": proc.returncode,
                         "elapsed_s": elapsed, "result": result})
            status = "ok" if result and result["correct"] else "FAILED"
            print(f"seed {seed} {name}: {status}, {elapsed:.1f} s", flush=True)
            if result is None:
                print(proc.stderr[-2000:], file=sys.stderr)

    summary = {}
    print(f"\n{'workload':<20} {'metric':<14} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'min':>11} {'max':>11} {'bound':>5}")
    for name in names:
        results = [r["result"] for r in runs if r["workload"] == name and r["result"]]
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            values = [v for v in values if v is not None]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = m["bound"]
            verdict = "steady" if spread <= bound / 3 else ("within" if spread <= bound else "WIDE")
            summary[f"{name}/{m['name']}"] = {"median": med, "q1": q1, "q3": q3,
                                             "spread": spread, "values": values}
            print(f"{name:<20} {m['name']:<14} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                  f"{spread:>7.4f} {min(values):>11.5g} {max(values):>11.5g} {bound:>5} {verdict}")
    failed = [r for r in runs if not (r["result"] and r["result"]["correct"])]
    out = BENCH / "_results" / f"sweep-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"args": vars(args), "runs": runs, "summary": summary}, indent=2))
    print(f"\n{len(runs)} runs, {len(failed)} not correct; record in {out.relative_to(ROOT)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
