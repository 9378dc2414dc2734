"""Acceptance gate: one test per release criterion, at its stated tolerance.

Each test prints a single `criterion N: pass/FAIL` line (visible with
`pytest -s` or in captured output on failure) before asserting, so a red
run still reports every verdict it reached.
"""

import json
import time

import numpy as np
import pytest

from filamentlab.cli import EXIT_COMPAT, EXIT_OK, main as cli_main
from filamentlab.compat import HelixFamily, get_family
from filamentlab.evolve import SimConfig, solve_half_space, solve_whole_line
from filamentlab.geometry import Grid, VectorField
from filamentlab.harness import (
    extension_jump_study,
    fit_order,
    helix_dispersion_error,
    invariant_suite,
    ring_translation_error,
)
from filamentlab.hasimoto import frenet, series_nls_residual
from filamentlab.reconstruct import endpoint_height, integrate_tangent, reconstruct_positions


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'pass' if ok else 'FAIL'} ({detail})")


def _planar_run(scheme: str):
    fam = get_family("planar_odd", a=0.5)
    cfg = SimConfig(t_final=1.0, scheme=scheme, check_order=2)
    start = time.perf_counter()
    run = solve_half_space(fam, Grid.half_line(20.0, 512), cfg)
    wall = time.perf_counter() - start
    curves = reconstruct_positions(integrate_tangent(VectorField(run.grid, run.snapshots[0])), run)
    summary = invariant_suite(run, curves)
    return run, curves, summary, wall


@pytest.fixture(scope="module")
def rk4_run():
    return _planar_run("rk4_project")


@pytest.fixture(scope="module")
def midpoint_run():
    return _planar_run("midpoint_fixedpoint")


@pytest.fixture(scope="module")
def helix_levels():
    """One helix run per level; solution error and NLS residual from each."""
    levels = [64, 128, 256]
    a, c, k, t_final = 0.6, 0.8, 2.0, 0.5
    fam = HelixFamily(a, c, k)
    hs, sol_errors, nls_residuals = [], [], []
    for n in levels:
        grid = Grid.periodic(2.0 * np.pi, n)
        series = solve_whole_line(fam.sample(grid), SimConfig(t_final=t_final))
        diff = series.final().values - fam.exact(grid.nodes(), t_final)
        hs.append(grid.h)
        sol_errors.append(float(np.max(np.sqrt(np.sum(diff * diff, axis=1)))))
        nls_residuals.append(series_nls_residual(series))
    return levels, hs, sol_errors, nls_residuals


def test_criterion_1_unit_norm(rk4_run):
    run, _, _, wall = rk4_run
    worst = max(row["norm_dev"] for row in run.telemetry)
    ok = worst <= 1e-12 and wall < 30.0
    _report(1, ok, f"max norm dev {worst:.3e}, wall {wall:.1f}s")
    assert worst <= 1e-12
    assert wall < 30.0


def test_criterion_2_boundary_condition(rk4_run):
    run, _, _, _ = rk4_run
    w1 = max(abs(float(s[0, 0])) for s in run.snapshots)
    w2 = max(abs(float(s[0, 1])) for s in run.snapshots)
    w3 = max(abs(float(s[0, 2]) - 1.0) for s in run.snapshots)
    ok = max(w1, w2, w3) <= 1e-10
    _report(2, ok, f"|v1|,|v2|,|v3-1| at wall = {w1:.1e},{w2:.1e},{w3:.1e}")
    assert w1 <= 1e-10 and w2 <= 1e-10 and w3 <= 1e-10


def test_criterion_3_T_symmetry(rk4_run):
    run, _, _, _ = rk4_run
    worst = max(row["symmetry"] for row in run.telemetry)
    ok = worst <= 1e-12
    _report(3, ok, f"max symmetry residual {worst:.3e}")
    assert worst <= 1e-12


def test_criterion_4_endpoint_on_wall(rk4_run):
    _, curves, _, _ = rk4_run
    worst = max(abs(endpoint_height(c)) for c in curves)
    wall_track = [tuple(c.positions[0, :2]) for c in curves]  # recorded, free to move
    ok = worst <= 1e-8
    _report(4, ok, f"max |x3(0,t)| {worst:.3e}; wall track has {len(wall_track)} samples")
    assert worst <= 1e-8
    assert len(wall_track) == len(curves)


def test_criterion_5_extension_smoothness():
    levels = [128, 256, 512]
    good = extension_jump_study(get_family("planar_odd", a=0.5), levels)
    bad = extension_jump_study(get_family("planar_bad", a=0.5), levels)
    orders = {k: good[k]["order"] for k in (1, 2, 3)}
    monotone = all(
        e1 > e2 for k in (1, 2, 3) for e1, e2 in zip(good[k]["errors"], good[k]["errors"][1:])
    )
    bad_vals = bad[2]["errors"]
    variation = (max(bad_vals) - min(bad_vals)) / max(bad_vals)
    ok = monotone and all(o >= 1.8 for o in orders.values()) and variation < 0.10
    _report(
        5,
        ok,
        "jump orders "
        + ", ".join(f"k={k}: {o:.2f}" for k, o in orders.items())
        + f"; bad k=2 variation {100 * variation:.1f}%",
    )
    assert monotone
    for k, o in orders.items():
        assert o >= 1.8, (k, o)
    assert variation < 0.10


def test_criterion_6_compatibility_gate(capsys):
    rc_good = cli_main(
        ["check", "--family", "planar_odd:a=0.5", "--order", "2", "--strict"]
    )
    rc_bad = cli_main(
        ["check", "--family", "planar_bad:a=0.5", "--order", "1", "--strict"]
    )
    capsys.readouterr()  # swallow the CLI chatter
    ok = rc_good == EXIT_OK and rc_bad == EXIT_COMPAT
    _report(6, ok, f"exit codes {rc_good} and {rc_bad}")
    assert rc_good == EXIT_OK
    assert rc_bad == EXIT_COMPAT


def test_criterion_7_helix_dispersion():
    start = time.perf_counter()
    out = helix_dispersion_error(n=256, t_final=0.5)
    wall = time.perf_counter() - start
    ok = out["relative_error"] <= 1e-2 and wall < 60.0
    _report(
        7,
        ok,
        f"omega {out['omega_measured']:.4f} vs 3.2, "
        f"rel err {out['relative_error']:.2e}, wall {wall:.1f}s",
    )
    assert out["omega_exact"] == pytest.approx(3.2)
    assert out["relative_error"] <= 1e-2
    assert wall < 60.0


def test_criterion_8_ring_translation():
    out = ring_translation_error(n=256, t_final=0.5)
    ok = out["relative_error"] <= 1e-2
    _report(
        8,
        ok,
        f"displacement {np.round(out['displacement'], 4).tolist()} vs (0,0,1), "
        f"rel err {out['relative_error']:.2e}",
    )
    assert out["relative_error"] <= 1e-2


def test_criterion_9_convergence_order(helix_levels):
    _, hs, sol_errors, _ = helix_levels
    order = fit_order(hs, sol_errors)
    ok = 1.8 <= order <= 2.5
    _report(9, ok, f"errors {[f'{e:.2e}' for e in sol_errors]}, order {order:.3f}")
    assert 1.8 <= order <= 2.5


def test_criterion_10_hasimoto_cross_check(helix_levels):
    fam = HelixFamily(0.6, 0.8, 2.0)
    grid = Grid.periodic(2.0 * np.pi, 256)
    kappa, tau, _ = frenet(fam.sample(grid).values, grid)
    kappa_err = float(np.max(np.abs(kappa - 1.2)))
    tau_err = float(np.max(np.abs(tau - 1.6)))
    frenet_tol = 10.0 * grid.h**2
    _, hs, _, nls_residuals = helix_levels
    order = fit_order(hs, nls_residuals)
    ok = kappa_err <= frenet_tol and tau_err <= frenet_tol and order >= 1.8
    _report(
        10,
        ok,
        f"kappa err {kappa_err:.2e}, tau err {tau_err:.2e} (tol {frenet_tol:.2e}); "
        f"NLS residual order {order:.3f}",
    )
    assert kappa_err <= frenet_tol
    assert tau_err <= frenet_tol
    assert order >= 1.8


def test_criterion_11_scheme_independence(midpoint_run):
    run, curves, summary, _ = midpoint_run
    norm = max(row["norm_dev"] for row in run.telemetry)
    sym = max(row["symmetry"] for row in run.telemetry)
    bnd1 = max(abs(float(s[0, 0])) for s in run.snapshots)
    bnd2 = max(abs(float(s[0, 1])) for s in run.snapshots)
    bnd3 = max(abs(float(s[0, 2]) - 1.0) for s in run.snapshots)
    endpoint = max(abs(endpoint_height(c)) for c in curves)
    ok = (
        norm <= 1e-10
        and sym <= 1e-12
        and max(bnd1, bnd2, bnd3) <= 1e-10
        and endpoint <= 1e-8
    )
    _report(
        11,
        ok,
        f"midpoint: norm {norm:.2e}, symmetry {sym:.2e}, "
        f"boundary {max(bnd1, bnd2, bnd3):.2e}, endpoint {endpoint:.2e}",
    )
    assert norm <= 1e-10
    assert sym <= 1e-12
    assert max(bnd1, bnd2, bnd3) <= 1e-10
    assert endpoint <= 1e-8


def test_criterion_12_determinism(rk4_run):
    _, _, summary_first, _ = rk4_run
    _, _, summary_again, _ = _planar_run("rk4_project")
    first, again = (json.dumps(s, indent=2, sort_keys=True) for s in (summary_first, summary_again))
    ok = first == again
    _report(12, ok, f"summary JSON identical: {ok}")
    assert first == again
