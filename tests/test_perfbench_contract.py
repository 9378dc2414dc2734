"""The traced benchmark wraps package names; they must exist and unwrap cleanly.

``perfbench/layers.py`` replaces module attributes of the package with
recorders and puts them back afterwards.  A rename or a call that stops going
through one of those names would break the traced benchmark run; this test
catches it in the regular suite.
"""

import importlib.util
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from filamentlab import evolve, reconstruct
from filamentlab.cli import EXIT_OK, main
from filamentlab.compat import get_family
from filamentlab.evolve import SimConfig
from filamentlab.geometry import Grid

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


def _traced_simulate(tmp_path, config: str, *flags):
    """Run ``simulate`` of ``config`` under the benchmark's tracer; (exit code, tracer)."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    tracer = tracing.Tracer()
    layers.instrument(tracer)
    try:
        with redirect_stdout(io.StringIO()):
            rc = main(["simulate", str(cfg), *flags, "--out", str(tmp_path / "out")])
    finally:
        tracer.restore()
    return rc, tracer


def test_traced_simulate_reaches_every_half_line_layer(tmp_path):
    rc, tracer = _traced_simulate(
        tmp_path,
        "grid.kind = half\ngrid.L = 20.0\ngrid.n = 65\n"
        "data.family = planar_odd:a=0.5\ntime.t_final = 0.02\n",
        "--reconstruct",
    )
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
        "geometry.cross",
        "geometry.field_init",
        "reflect.restrict",
        "reconstruct.positions",
        "harness.invariant_suite",
        "cli.write_snapshots",
        "cli.write_telemetry",
    ):
        assert calls.get(span, 0) > 0, f"{span} never called through its wrapped name"
    assert calls["reflect.restrict"] == calls["evolve.telemetry"]
    # the half-line curve is read off each state with no derivative; deriv is reached
    # on the ring (test_traced_ring_reconstruct_reaches_deriv_and_cross)
    assert "geometry.deriv" not in calls


def test_traced_ring_reconstruct_reaches_deriv_and_cross():
    # the ring workload's curve takes one deriv and one cross of its whole snapshot block
    fam = get_family("ring", r=0.5)
    v0 = fam.sample(Grid.periodic(fam.period(), 64))
    series = evolve.solve_whole_line(v0, SimConfig(t_final=0.01))
    tracer = tracing.Tracer()
    layers.instrument(tracer)
    try:
        reconstruct.reconstruct_positions(reconstruct.integrate_tangent(v0), series)
    finally:
        tracer.restore()
    calls = tracer.totals()[0]
    assert calls["reconstruct.positions"] == calls["geometry.deriv"] == calls["geometry.cross"] == 1


@pytest.mark.parametrize("scheme", ["rk4_project", "midpoint_fixedpoint"])
def test_run_counts_agree_with_the_tracer(tmp_path, scheme):
    # the solver block of summary.json against the calls the tracer sees; each
    # half-line telemetry row adds rhs(u) on n nodes and rhs(extend(u)) on 2n - 1
    n = 65
    rc, tracer = _traced_simulate(
        tmp_path,
        f"grid.kind = half\ngrid.L = 20.0\ngrid.n = {n}\n"
        f"data.family = planar_odd:a=0.5\ntime.t_final = 0.3\nscheme = {scheme}\n",
    )
    assert rc == EXIT_OK
    solver = json.loads((tmp_path / "out" / "summary.json").read_text())["solver"]
    calls = tracer.totals()[0]
    rows = calls["evolve.telemetry"]
    assert calls["evolve.step"] == solver["steps"]
    assert calls["evolve.rhs"] == solver["rhs_calls"] + 2 * rows
    node_evals = n * (calls["evolve.rhs"] - rows) + (2 * n - 1) * rows
    assert tracer.counters["rhs_node_evals"] == node_evals


@pytest.mark.parametrize("scheme", ["rk4_project", "midpoint_fixedpoint"])
def test_traced_periodic_solve_counts_every_rhs_node(scheme):
    # the ring workload's path: every rhs call, stage or iterate included,
    # reaches the node counter, and a periodic telemetry row calls no rhs
    fam = get_family("ring", r=0.5)
    v0 = fam.sample(Grid.periodic(fam.period(), 64))
    tracer = tracing.Tracer()
    layers.instrument(tracer)
    try:
        series = evolve.solve_whole_line(v0, SimConfig(t_final=0.01, scheme=scheme))
    finally:
        tracer.restore()
    calls = tracer.totals()[0]
    assert calls["evolve.step"] == series.solver["steps"]
    assert calls["evolve.rhs"] == series.solver["rhs_calls"]
    assert tracer.counters["rhs_node_evals"] == 64 * calls["evolve.rhs"]


def test_planar_sample_evaluates_through_the_family_span():
    # compat.family_setup_s times a planar family's closed form through
    # _PlanarFamily._lam; a tangent that bypassed it would leave it unmeasured
    fam = get_family("planar_odd", a=0.5)
    tracer = tracing.Tracer()
    layers.instrument(tracer)
    try:
        fam.sample(Grid.half_line(20.0, 65))
    finally:
        tracer.restore()
    assert tracer.totals()[0].get("compat.family", 0) == 1
