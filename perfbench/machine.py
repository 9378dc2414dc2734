"""Thread pinning and the environment record stored with every result.

Imports nothing heavy: ``pin_threads`` must run before numpy is imported.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path

#: Thread-pool variables read by BLAS/OpenMP runtimes when numpy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_threads() -> None:
    """Pin every BLAS/OpenMP pool to one thread, here and in child processes."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    text = _read(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict:
    """Cache sizes of cpu0 by level and type, read from sysfs."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = _read(index / "level")
        kind = _read(index / "type")
        size = _read(index / "size")
        if level and kind and size:
            out[f"L{level}-{kind.lower()}"] = size
    return out


def _commit(root: Path) -> str | None:
    """``git rev-parse HEAD`` when the checkout is a git work tree, else None."""
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment(root: Path) -> dict:
    """Machine, versions and load; reads metadata only, imports no package."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "sympy": _version("sympy"),
        "commit": _commit(root),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "loadavg_at_start": list(os.getloadavg()),
    }
