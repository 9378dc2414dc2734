"""A fixed calibration kernel that tracks how fast this machine runs right now.

On a shared machine the speed of one core drifts by tens of percent over
seconds to minutes (other tenants load the shared caches and cores), and a
median over one run cannot remove a drift that lasts longer than the run.
The benchmark therefore runs this kernel between samples and scales each
sample's wall time by ``REFERENCE_S / kernel time`` (the mean of the kernel
runs just before and just after it): the result is the sample's wall time
as it would read at the machine speed at which the kernel takes
``REFERENCE_S``.  The kernel does the kinds of work the workloads spend
their time in -- small numpy calls on (n, 3) arrays, Python-level calls,
float formatting -- and none of the package's code, so a change to the
package cannot move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Kernel wall time on a quiet core of the machine the benchmark was defined
#: on (Intel Xeon, 2 vCPUs, numpy 2.4); fixes the unit of scaled times.
REFERENCE_S = 0.045

_RNG = np.random.default_rng(12345)
_ARRAYS = [_RNG.standard_normal((n, 3)) for n in (1023, 256)]


def _kernel() -> float:
    acc = 0.0
    for _ in range(200):
        for x in _ARRAYS:
            c = np.cross(x, x[::-1])
            d = (np.roll(x, 1, axis=0) + np.roll(x, -1, axis=0)) - 2.0 * x
            n = np.sqrt(np.sum(d * d, axis=1))
            acc += float(np.max(np.abs(c / n[:, None])))
        acc += len(",".join(map(repr, _ARRAYS[1][:64, 0].tolist())))
    return acc


def kernel_seconds() -> float:
    """Wall seconds of one run of the kernel."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0
