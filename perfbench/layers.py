"""Which package names a traced sample wraps, and the per-layer metrics.

Every ``*_s`` metric is a self time: seconds inside the wrapped calls of that
layer minus the seconds inside wrapped calls they make.  So ``evolve.rhs_s``
excludes the ``deriv``, ``cross`` and ``VectorField`` construction inside
``rhs``; those are ``geometry.*``.  A layer a workload does not reach reads 0.
"""

from __future__ import annotations

import os

from filamentlab import cli, compat, evolve, geometry, harness, hasimoto, reconstruct


def _count_nodes(counters, args, result):
    counters["rhs_node_evals"] += args[0].grid.n


def _count_snapshots(counters, args, result):
    counters["snapshots"] += len(result.snapshots)


def _count_bytes(counters, args, result):
    counters["write_snapshots_bytes"] += os.path.getsize(args[0])


def instrument(tracer) -> None:
    """Wrap the module-level names the package calls through; ``tracer.restore`` undoes it."""
    wrap = tracer.wrap
    wrap(cli, "parse_config", "cli.parse_config")
    wrap(cli, "write_snapshots_csv", "cli.write_snapshots", _count_bytes)
    wrap(cli, "write_telemetry_csv", "cli.write_telemetry")
    wrap(cli, "parse_family_spec", "compat.family")
    wrap(compat, "get_family", "compat.family")
    wrap(compat._PlanarFamily, "_lam", "compat.family")
    wrap(evolve, "check_compat", "compat.check")
    wrap(evolve, "extend", "reflect.extend")
    wrap(evolve, "restrict", "reflect.restrict")
    wrap(evolve, "solve_whole_line", "evolve.solve", _count_snapshots)
    wrap(evolve, "step", "evolve.step")
    wrap(evolve, "rhs", "evolve.rhs", _count_nodes)
    wrap(evolve, "normalize_field", "evolve.normalize")
    wrap(evolve, "_telemetry_row", "evolve.telemetry")
    for module in (evolve, reconstruct, hasimoto):
        wrap(module, "deriv", "geometry.deriv")
        wrap(module, "cross", "geometry.cross")
    wrap(geometry.VectorField, "__init__", "geometry.field_init")
    wrap(cli, "reconstruct_positions", "reconstruct.positions")
    wrap(reconstruct, "reconstruct_positions", "reconstruct.positions")
    wrap(hasimoto, "series_nls_residual", "hasimoto.nls")
    wrap(harness, "invariant_suite", "harness.invariant_suite")


#: metric name -> (unit, span names whose self times it sums)
SELF_TIMES = {
    "compat.family_setup_s": ("s", ["compat.family"]),
    "compat.check_s": ("s", ["compat.check"]),
    "reflect.extend_s": ("s", ["reflect.extend"]),
    "reflect.restrict_s": ("s", ["reflect.restrict"]),
    "evolve.solve_s": ("s", ["evolve.solve", "evolve.step"]),
    "evolve.rhs_s": ("s", ["evolve.rhs"]),
    "evolve.normalize_s": ("s", ["evolve.normalize"]),
    "evolve.telemetry_s": ("s", ["evolve.telemetry"]),
    "geometry.deriv_s": ("s", ["geometry.deriv"]),
    "geometry.cross_s": ("s", ["geometry.cross"]),
    "geometry.field_init_s": ("s", ["geometry.field_init"]),
    "reconstruct.positions_s": ("s", ["reconstruct.positions"]),
    "hasimoto.nls_s": ("s", ["hasimoto.nls"]),
    "harness.invariant_suite_s": ("s", ["harness.invariant_suite"]),
    "cli.parse_config_s": ("s", ["cli.parse_config"]),
    "cli.write_snapshots_s": ("s", ["cli.write_snapshots"]),
    "cli.write_telemetry_s": ("s", ["cli.write_telemetry"]),
}

#: metric name -> span name whose call count it is
CALL_COUNTS = {
    "reflect.restrict_calls": "reflect.restrict",
    "evolve.steps": "evolve.step",
    "evolve.rhs_calls": "evolve.rhs",
    "evolve.telemetry_rows": "evolve.telemetry",
    "geometry.field_inits": "geometry.field_init",
}

#: metric name -> counter filled by an ``on_return`` hook
HOOK_COUNTS = {
    "evolve.rhs_node_evals": ("count", "rhs_node_evals"),
    "evolve.snapshots": ("count", "snapshots"),
    "cli.write_snapshots_bytes": ("bytes", "write_snapshots_bytes"),
}

#: metrics whose values must repeat exactly from sample to sample
COUNT_METRICS = list(CALL_COUNTS) + list(HOOK_COUNTS) + ["evolve.rhs_per_step"]


def units() -> dict:
    out = {name: unit for name, (unit, _) in SELF_TIMES.items()}
    out.update({name: "count" for name in CALL_COUNTS})
    out.update({name: unit for name, (unit, _) in HOOK_COUNTS.items()})
    out.update(
        {
            "evolve.step_us": "us",
            "evolve.rhs_per_step": "calls/step",
            "trace.unattributed_s": "s",
            "trace.overhead_s": "s",
        }
    )
    return out


def sample_metrics(tracer, wall: float) -> dict:
    """Per-layer values of one traced sample of ``wall`` seconds.

    ``trace.unattributed_s`` is the part of the sample outside every wrapped
    call; ``trace.overhead_s`` needs untraced samples and is added by the caller.
    """
    calls, inclusive, self_s = tracer.totals()
    out = {
        name: sum(self_s.get(span, 0.0) for span in spans)
        for name, (_, spans) in SELF_TIMES.items()
    }
    out.update({name: calls.get(span, 0) for name, span in CALL_COUNTS.items()})
    out.update({name: tracer.counters[key] for name, (_, key) in HOOK_COUNTS.items()})
    steps = calls.get("evolve.step", 0)
    out["evolve.step_us"] = 1e6 * inclusive.get("evolve.step", 0.0) / steps if steps else 0.0
    out["evolve.rhs_per_step"] = out["evolve.rhs_calls"] / steps if steps else 0.0
    out["trace.unattributed_s"] = wall - tracer.top_level_s()
    return out
