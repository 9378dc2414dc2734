"""Build the refined RK4 references that the half-line error metric compares against.

Run from the repository root after changing a workload's family, grid or t:

    python3 perfbench/build_refs.py

One file per ``planar_odd`` amplitude a seed can pick, each holding the final
snapshot at half-line n = 1023, its generating config and a SHA-256 over
both.  The benchmark refuses a reference whose config or hash does not match.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import machine

machine.pin_threads()


def main() -> int:
    import run

    run.import_package()
    import workloads

    (run.BENCH / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="refs-", dir=run.BENCH / "_work"))
    try:
        for offset in workloads.A_OFFSETS:
            a = workloads.A_BASE + offset
            t0 = perf_counter()
            path = workloads.build_reference(workloads.REF_DIR, a, workloads.HALF_T, work)
            print(f"{path.name}: a={a!r}, {perf_counter() - t0:.1f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
