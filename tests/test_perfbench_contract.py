"""The traced benchmark wraps package names; they must exist and unwrap cleanly.

``perfbench/layers.py`` replaces module attributes of the package with
recorders and puts them back afterwards.  A rename or a call that stops going
through one of those names would break the traced benchmark run; this test
catches it in the regular suite.
"""

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

from filamentlab.cli import EXIT_OK, main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load("layers")
tracing = _load("tracing")


class RecordingTracer(tracing.Tracer):
    """Tracer that also remembers what it wrapped and the original object."""

    def __init__(self):
        super().__init__()
        self.wrapped = []

    def wrap(self, owner, attr, name, on_return=None):
        self.wrapped.append((owner, attr, vars(owner).get(attr)))
        super().wrap(owner, attr, name, on_return)


def test_every_wrapped_name_exists_and_is_restored():
    tracer = RecordingTracer()
    try:
        layers.instrument(tracer)  # AttributeError names a missing attribute
    finally:
        tracer.restore()
    assert tracer.wrapped
    for owner, attr, original in tracer.wrapped:
        current = vars(owner).get(attr)
        assert current is original, f"{owner.__name__}.{attr} not restored"
        assert not hasattr(current, "__wrapped__"), f"{owner.__name__}.{attr} still wrapped"


def test_traced_simulate_reaches_every_half_line_layer(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "grid.kind = half\ngrid.L = 20.0\ngrid.n = 65\n"
        "data.family = planar_odd:a=0.5\ntime.t_final = 0.02\n"
    )
    tracer = tracing.Tracer()
    layers.instrument(tracer)
    try:
        with redirect_stdout(io.StringIO()):
            rc = main(["simulate", str(cfg), "--reconstruct", "--out", str(tmp_path / "out")])
    finally:
        tracer.restore()
    assert rc == EXIT_OK
    calls = tracer.totals()[0]
    for span in (
        "cli.parse_config",
        "compat.family",
        "compat.check",
        "reflect.extend",
        "evolve.solve",
        "evolve.step",
        "evolve.rhs",
        "evolve.normalize",
        "evolve.telemetry",
        "geometry.deriv",
        "geometry.cross",
        "geometry.field_init",
        "reflect.restrict",
        "reconstruct.positions",
        "harness.invariant_suite",
        "cli.write_snapshots",
        "cli.write_telemetry",
    ):
        assert calls.get(span, 0) > 0, f"{span} never called through its wrapped name"
    assert calls["reflect.restrict"] == tracer.counters["snapshots"]
