"""Run one workload for a fixed time and reduce its samples to metrics.

A run takes one warm-up sample first: it is checked but not timed, and it
pays the process's one-off imports (sympy among them), which ``setup_s``
measures on its own in fresh processes.  Then samples run back to back until
``seconds`` have passed.  Every sample is checked; a sample with a problem
counts as failed, and any problem makes the run incorrect.

Every time reported is scaled to the calibration kernel's reference speed
(see calibration.py): a sample's wall seconds times ``REFERENCE_S`` over the
mean kernel time just before and after it, and a set-up's seconds times
``REFERENCE_S`` over the kernel time in its own process.  The raw seconds
and the factors are kept in the run record.

An untraced run (trace 0) reports the end-to-end metrics.  A traced run
(trace 1) spends half its time on untraced samples and half on traced ones
and reports the per-layer metrics: medians of the traced samples' scaled
self times, counts that must repeat exactly from sample to sample, and the
tracing overhead (traced median minus untraced median).
"""

from __future__ import annotations

import itertools
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import calibration
import layers
from tracing import Tracer
from workloads import Outcome

#: ``setup_s`` is the median of at least this many fresh processes ...
SETUP_REPEATS = 15
#: ... started until this many seconds have passed (cheap set-ups get more)
SETUP_SECONDS = 8.0
SETUP_TIMEOUT_S = 60
MAX_PROBLEMS = 20

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "error": "1",
    "peak_rss_mb": "MB",
    "passed_share": "share",
}


class Run:
    """The samples of one run and what their checks found."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.first = None  # (fingerprint, error) of the first sample

    def problem(self, text: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(text)

    def sample(self):
        """One checked sample; its wall seconds, or None when it failed."""
        try:
            wall, outcome = self.workload.sample()
        except Exception as exc:  # a failing sample is counted, not fatal
            wall, outcome = None, Outcome(problems=[f"raised {exc!r}"])
        self.attempted += 1
        key = (outcome.fingerprint, outcome.error)
        if self.first is None:
            self.first = key
        elif key != self.first and not outcome.problems:
            outcome.problems.append("outputs differ from the first sample's")
        if outcome.problems:
            self.failed += 1
            for text in outcome.problems:
                self.problem(f"sample {self.attempted}: {text}")
            return None
        return wall

    def timed(self, seconds: float, tracer=None) -> list:
        """Samples until ``seconds`` have passed, the calibration kernel between them.

        Returns one (wall seconds, speed factor, per-layer values or None)
        per sample that passed its checks; the factor scales the wall to the
        calibration's reference speed.
        """
        samples = []
        deadline = perf_counter() + seconds
        before = calibration.kernel_seconds()
        while True:
            if tracer is not None:
                tracer.reset()
            wall = self.sample()
            after = calibration.kernel_seconds()
            if wall is not None:
                layer = layers.sample_metrics(tracer, wall) if tracer is not None else None
                samples.append((wall, 2.0 * calibration.REFERENCE_S / (before + after), layer))
            before = after
            if perf_counter() >= deadline:
                return samples

    def setup_seconds(self, repeats: int) -> list:
        """(seconds, speed factor) of import + family + first sample, each in a fresh interpreter.

        The factor comes from the calibration kernel run inside the same
        process just after its set-up; kernel runs between the processes
        tracked set-up speed less well (see README.md).
        """
        out = []
        deadline = perf_counter() + SETUP_SECONDS
        for k in itertools.count():
            if k >= repeats and perf_counter() >= deadline:
                return out
            self.attempted += 1
            try:
                proc = subprocess.run(
                    [sys.executable, "-c", self.workload.setup_code],
                    capture_output=True,
                    text=True,
                    timeout=SETUP_TIMEOUT_S,
                )
                if proc.returncode != 0:
                    raise ValueError(f"exit code {proc.returncode}: {proc.stderr[-300:]}")
                seconds, kernel = map(float, proc.stdout.split()[-2:])
            except (subprocess.SubprocessError, ValueError) as exc:
                self.failed += 1
                self.problem(f"set-up process: {exc!r}")
                continue
            out.append((seconds, calibration.REFERENCE_S / kernel))


def tail(walls: list):
    """(percentile, seconds) of the highest percentile with 10 samples above it."""
    k = len(walls) - 10
    if k < 1:
        return None
    return 100.0 * k / len(walls), sorted(walls)[k - 1]


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def _scaled(pairs) -> list:
    return [seconds * factor for seconds, factor, *_ in pairs]


def measure(workload, seconds: float, trace: bool, spans_path=None,
            setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run ``workload`` for ``seconds``; metrics plus every sample's raw record."""
    run = Run(workload)
    setups = [] if trace else run.setup_seconds(setup_repeats)
    run.sample()
    untraced = run.timed(seconds / 2 if trace else seconds)
    if trace:
        tracer = Tracer()
        layers.instrument(tracer)
        try:
            traced = run.timed(seconds / 2, tracer)
        finally:
            tracer.restore()
        if spans_path is not None:
            tracer.write_spans(spans_path)
        metrics = _layer_metrics(run, traced)
        if traced and untraced:
            metrics["trace.overhead_s"] = _median(_scaled(traced)) - _median(_scaled(untraced))
        metrics = {name: metrics.get(name) for name in layers.units()}
        wall_info = {}
    else:
        traced = []
        wall_info = _wall_info(untraced)
        metrics = {
            "wall_s": _median(_scaled(untraced)),
            "setup_s": _median(_scaled(setups)),
            "error": run.first[1] if run.first else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "passed_share": (run.attempted - run.failed) / run.attempted,
        }
    return {
        "metrics": metrics,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "correct": not run.problems and all(v is not None for v in metrics.values()),
        "wall_info": wall_info,
        "samples": [{"wall_s": w, "factor": f} for w, f, _ in untraced],
        "traced_samples": [{"wall_s": w, "factor": f} for w, f, _ in traced],
        "setups": [{"seconds": s, "factor": f} for s, f in setups],
    }


def _wall_info(samples: list) -> dict:
    """Sample count, tail and unscaled median that go with ``wall_s``."""
    info = {"samples": len(samples)}
    if samples:
        info["unscaled_median_s"] = _median(w for w, _, _ in samples)
        info["median_factor"] = _median(f for _, f, _ in samples)
    t = tail(_scaled(samples))
    if t:
        info["tail_percentile"], info["tail_s"] = t
    return info


def _layer_metrics(run: Run, traced: list) -> dict:
    """Scaled medians of the time metrics; counts, which must repeat exactly."""
    metrics = {}
    for name in traced[0][2] if traced else ():
        if name in layers.COUNT_METRICS:
            values = [layer[name] for _, _, layer in traced]
            if any(v != values[0] for v in values):
                run.problem(f"{name} differs between traced samples: {sorted(set(values))}")
            metrics[name] = values[0]
        else:
            metrics[name] = _median(layer[name] * factor for _, factor, layer in traced)
    return metrics
