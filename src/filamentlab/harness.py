"""Closed-form oracles, convergence studies, and run-level verdicts.

The oracle cases are classical exact solutions of the binormal flow,
verified by direct substitution (the tests redo the substitution
symbolically/numerically):

* rotating helix tangent (a cos(ks - wt), a sin(ks - wt), c) with
  angular rate w = c k^2;
* circle tangent of radius r, stationary as a tangent field while the
  curve translates along e3 at speed 1/r;
* the straight filament, a fixed point of the flow.
"""

from __future__ import annotations

import math
from dataclasses import asdict, replace

import numpy as np

from .compat import HelixFamily, RingFamily, failed_orders, get_family
from .evolve import (
    MIDPOINT_FIXEDPOINT,
    SimConfig,
    TimeSeries,
    solve_half_space,
    solve_whole_line,
)
from .geometry import E3, Grid, row_norms
from .hasimoto import series_nls_residual
from .reconstruct import (
    arclength_deviation,
    endpoint_height,
    integrate_tangent,
    reconstruct_positions,
)


def fit_order(hs, errors) -> float:
    """Least-squares slope of log(error) against log(h).

    Returns inf when the errors sit at roundoff (no order to measure).
    """
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if np.any(errors < 1e-14):
        return math.inf
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])


# ---------------------------------------------------------------------------
# oracles

#: Length of the half-line grids of the stationary line and of the tests' jump study.
HALF_LENGTH = 10.0


def _helix_run(n, t_final) -> tuple:
    """(family, grid, series) of an RK4 run of ``HelixFamily()`` on one period of n nodes."""
    fam = HelixFamily()
    grid = Grid.periodic(2.0 * np.pi, n)
    series = solve_whole_line(fam.sample(grid), SimConfig(t_final=t_final))
    return fam, grid, series


def helix_dispersion_error(n=256, t_final=0.5) -> dict:
    """Measured rotation rate of the helix against w = c k^2."""
    fam, _, series = _helix_run(n, t_final)
    # math.atan2, not np.arctan2, whose bits numpy does not fix across releases
    phases = np.unwrap([math.atan2(y, x) for x, y, _ in series.snapshots[:, 0]])
    # fitted in units of t_final: a tiny t_final would underflow polyfit's column scale
    slope = np.polyfit(series.times / t_final, phases, 1)[0]
    measured = -float(slope) / t_final
    c, k = fam.params["c"], fam.params["k"]
    exact = c * k * k
    return {
        "omega_measured": measured,
        "omega_exact": exact,
        "relative_error": abs(measured - exact) / exact,
    }


def ring_translation_error(n=256, t_final=0.5) -> dict:
    """Rigid displacement of the reconstructed circle against (0, 0, t/r), r = 0.5."""
    r = 0.5
    fam = RingFamily(r)
    grid = Grid.periodic(fam.period(), n)
    v0 = fam.sample(grid)
    series = solve_whole_line(v0, SimConfig(t_final=t_final))
    curves = reconstruct_positions(integrate_tangent(v0), series)
    disp = np.mean(curves[-1].positions - curves[0].positions, axis=0)
    expected = np.array([0.0, 0.0, t_final / r])
    return {
        "displacement": disp.tolist(),
        "expected": expected.tolist(),
        # in units of the expected shift t_final / r: a tiny one would square to a subnormal
        "relative_error": float(np.linalg.norm(disp / (t_final / r) - E3)),
    }


def stationary_line_error(n=128, t_final=0.1) -> dict:
    """Deviation of the straight-filament run from e3 (zero to roundoff)."""
    cfg = SimConfig(t_final=t_final)
    run = solve_half_space(get_family("straight"), Grid.half_line(HALF_LENGTH, n), cfg)
    worst = _track(enumerate(np.abs(run.snapshots - E3).max(axis=(1, 2)).tolist()))["max"]
    return {"max_deviation": worst, "relative_error": worst}


_ORACLES = {
    "helix_dispersion": helix_dispersion_error,
    "ring_translation": ring_translation_error,
    "stationary_line": stationary_line_error,
}


def oracle_error(name: str, **kw) -> dict:
    try:
        fn = _ORACLES[name]
    except KeyError:
        raise ValueError(
            f"unknown oracle {name!r}; choose from {sorted(_ORACLES)}"
        ) from None
    return fn(**kw)


# ---------------------------------------------------------------------------
# convergence studies


def helix_solution_error(n: int) -> float:
    """max-norm error at t = 0.5 against the exact rotating wave."""
    fam, grid, series = _helix_run(n, 0.5)
    diff = series.snapshots[-1] - fam.exact(grid.nodes(), 0.5)
    return float(np.max(row_norms(diff)))


def nls_config(grid: Grid, t_final: float) -> SimConfig:
    """The default SimConfig to ``t_final``, with the 3 snapshots a centered psi_t takes.

    It steps at most t_final / 2 and keeps a snapshot at least every half of its steps.
    """
    # before a step of 0 reaches SimConfig(dt=...) below
    dt = SimConfig(t_final=t_final).schedule(grid.h)[0]
    cfg = SimConfig(t_final=t_final, dt=min(dt, t_final / 2.0))
    _, steps, every, _ = cfg.schedule(grid.h)  # a capped step can still take a sample out of range
    return replace(cfg, snapshot_every=min(every, steps // 2))


def check_levels(levels) -> None:
    """Raise unless ``levels`` holds at least 3 distinct node counts, each one ``Grid`` takes."""
    for n in levels:
        Grid.periodic(2.0 * np.pi, n)  # GridTooSmall; every study grid has only this rule on n
    if len(set(levels)) < 3:
        raise ValueError(f"need at least 3 distinct levels for an order fit, got {list(levels)}")


def convergence_study(case: str, levels) -> dict:
    """{levels, hs, errors, order} of ``case`` at each node count in ``levels`` (dt follows h^2)."""
    check_levels(levels)
    if case == "helix":
        hs = [Grid.periodic(2.0 * np.pi, n).h for n in levels]
        errors = [helix_solution_error(n) for n in levels]
    elif case == "stationary":
        hs = [Grid.half_line(HALF_LENGTH, n).h for n in levels]
        errors = [stationary_line_error(n)["max_deviation"] for n in levels]
    elif case == "nls":
        grids = [Grid.periodic(2.0 * np.pi, n) for n in levels]
        hs = [g.h for g in grids]
        runs = (solve_whole_line(HelixFamily().sample(g), nls_config(g, 0.5)) for g in grids)
        errors = [series_nls_residual(run) for run in runs]
    else:
        raise ValueError(f"unknown convergence case {case!r}")
    return {"levels": list(levels), "hs": hs, "errors": errors, "order": fit_order(hs, errors)}


# ---------------------------------------------------------------------------
# invariant suite

#: Tolerance of the energy_drift verdict, the relative drift of the conserved
#: energy E (``evolve.bending_energy``) over a run.  On planar_odd at n = 512,
#: t = 1, RK4 with projection drifts 1.3e-11 at 0.7 h^2 and midpoint 7e-16,
#: while RK4 past its stability limit (0.72 h^2) drifts 1e4 and a wrong wall
#: closure 0.8.  Under RK4 the drift is in ``maxima`` only, not a verdict:
#: RK4 also damps grid-scale modes, so under-resolved data drifts more
#: (planar_odd at n = 129, t = 1: 1.9e-6; planar_bad at n = 257: 2.3e-4)
#: without being wrong.  Implicit midpoint conserves E up to its fixed-point
#: tolerance, so a midpoint run gates on ENERGY_DRIFT_TOL + steps * fp_tol; a
#: sweep of fp_tol from 1e-14 to 1e-6 (n = 129 and 512, 0.25 and 0.4 h^2, t = 1)
#: drifted at most 0.02 * steps * fp_tol.
ENERGY_DRIFT_TOL = 1e-9


def _track(pairs):
    """{max, step} over (step, value) pairs; the last step holding the max wins.

    A NaN counts above every number, so its verdict fails (nan <= tol is false).
    """
    best, step = 0.0, 0
    for k, val in pairs:
        if val >= best or math.isnan(val):
            best, step = val, k
    return {"max": best, "step": step}


def energy_drift(rows) -> dict:
    """{max, step} of the relative change of the telemetry ``energy`` from its first row.

    The change is absolute when the first energy is 0 (a straight filament).
    """
    e0 = rows[0]["energy"]
    scale = e0 if e0 > 0.0 else 1.0
    return _track((row["step"], abs(row["energy"] - e0) / scale) for row in rows)


def invariant_suite(series: TimeSeries, curves=None) -> dict:
    """The run's summary, the dict ``summary.json`` holds, read against the config that produced it.

    Every run gets the norm check and the energy drift maximum, which is a
    verdict under midpoint only (see ENERGY_DRIFT_TOL); a gated (half-space)
    run, one whose ``report`` is set, also gets the wall checks (symmetry,
    boundary trace and, given curves, the endpoint height, x0's by
    construction, and arclength) and holds its ``check_compat`` report
    itself, not a copy, as ``compat`` (else {}).  ``maxima`` maps a name to
    {max, step}; ``verdicts`` are those of ``tolerances``, and ``passed`` is
    all of them.  No wall-clock time is held, so identical runs serialize to
    identical bytes.
    """
    cfg, report, g = series.cfg, series.report, series.grid
    # midpoint keeps |v| = 1 only up to its fixed-point tolerance, once per step,
    # so its norm and energy bounds both grow by steps * fp_tol
    midpoint = cfg.scheme == MIDPOINT_FIXEDPOINT
    fp_slack = series.solver["steps"] * cfg.fp_tol
    tolerances = {"norm_dev": 1e-10 + fp_slack if midpoint else 1e-12}
    rows = series.telemetry
    maxima = {
        "norm_dev": _track((row["step"], row["norm_dev"]) for row in rows),
        "energy_drift": energy_drift(rows),
    }
    if report is not None:
        tolerances.update(symmetry=1e-12, boundary=cfg.tol_boundary)
        for name in ("symmetry", "boundary"):
            maxima[name] = _track((row["step"], row[name]) for row in rows)
        if curves is not None:
            tolerances.update(endpoint_height=1e-8, arclength_dev=5.0 * g.h * g.h)
            # per-curve maxima; "step" is the snapshot index here
            maxima["endpoint_height"] = _track(
                enumerate(abs(endpoint_height(curve)) for curve in curves)
            )
            maxima["arclength_dev"] = _track(
                enumerate(arclength_deviation(curve) for curve in curves)
            )
    if midpoint:
        tolerances["energy_drift"] = ENERGY_DRIFT_TOL + fp_slack
    verdicts = {name: maxima[name]["max"] <= tol for name, tol in tolerances.items()}
    dt, _, snapshot_every, monitor_every = cfg.schedule(g.h)
    root_cause = ""
    if not verdicts.get("boundary", True) and not report["passed"]:
        root_cause = (
            f"compatibility orders {failed_orders(report)} violated; "
            "boundary trace cannot converge"
        )
    return {
        "config": {
            "grid": asdict(g),
            "t_final": cfg.t_final,
            "dt": dt,
            "scheme": cfg.scheme,
            "snapshot_every": snapshot_every,
            "monitor_every": monitor_every,
        },
        "maxima": maxima,
        "tolerances": tolerances,
        "verdicts": verdicts,
        "compat": report or {},
        "root_cause": root_cause,
        "solver": series.solver,
        "passed": all(verdicts.values()),
    }
