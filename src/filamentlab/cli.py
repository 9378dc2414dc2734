"""Command-line entry point: check, extend, simulate, oracle, convergence, diagnose.

File formats are deliberately plain: key = value config files, CSV
snapshots with full round-trip float precision, JSON summaries.  Exit
codes: 0 success, 1 usage/I-O error, 2 compatibility rejection,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import harness
from .compat import check_compat, parse_family_spec
from .errors import (
    CompatibilityRejected,
    DegenerateVector,
    FarFieldViolation,
    FilamentError,
    FixedPointDiverged,
    StabilityViolated,
)
from .evolve import SimConfig, solve_half_space, solve_whole_line
from .geometry import Grid, VectorField
from .hasimoto import frenet, gauge_rate, hasimoto_psi, series_nls_residual
from .reconstruct import integrate_tangent, reconstruct_positions
from .reflect import derivative_jump_residual, extend

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPAT = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# file I/O


def _write_csv(path: str, header: str, blocks) -> None:
    """Write ``header``, then each block of rows as it comes.

    Cells are Python ints, floats or "" (empty); str of a Python float is
    its repr, the shortest text that reads back to the same float.
    """
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for rows in blocks:
            fh.write("".join(",".join(map(str, row)) + "\n" for row in rows))


def write_field_csv(path: str, field: VectorField) -> None:
    rows = np.column_stack([field.grid.nodes(), field.values]).tolist()
    _write_csv(path, "s,v1,v2,v3", [rows])


def read_field_csv(path: str, kind: str = "half") -> VectorField:
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    if data.ndim != 2 or data.shape[1] != 4:
        raise ValueError(f"{path}: expected columns s,v1,v2,v3")
    s = data[:, 0]
    h = s[1] - s[0]
    tol = 1e-9 * max(1.0, abs(h))
    if np.max(np.abs(np.diff(s) - h)) > tol:
        raise ValueError(f"{path}: grid must be uniform")
    # half-line and periodic data start at s = 0; whole-line data span [-L, L]
    if abs(s[0] + s[-1] if kind == "whole" else s[0]) > tol:
        raise ValueError(f"{path}: s runs {s[0]:g}..{s[-1]:g}, not a {kind} grid")
    if kind == "half":
        grid = Grid.half_line(s[-1], len(s))
    elif kind == "whole":
        grid = Grid.whole_line(s[-1], len(s))
    else:
        grid = Grid.periodic(s[-1] + h, len(s))
    return VectorField(grid, data[:, 1:4])


def write_snapshots_csv(path: str, series, curves=None) -> None:
    header = "t,s,v1,v2,v3" + (",x1,x2,x3" if curves is not None else "")
    nodes = series.grid.nodes()

    def blocks():
        for m, (t, snap) in enumerate(zip(series.times, series.snapshots)):
            cols = [np.full(len(nodes), t), nodes, snap.values]
            if curves is not None:
                cols.append(curves[m].positions)
            yield np.column_stack(cols).tolist()

    _write_csv(path, header, blocks())


def write_telemetry_csv(path: str, telemetry) -> None:
    keys = ["step", "time", "norm_dev", "energy", "symmetry", "boundary"]
    rows = [
        [row["step"]] + [float(row[k]) if k in row else "" for k in keys[1:]]
        for row in telemetry
    ]
    _write_csv(path, ",".join(keys), [rows])


def parse_config(path: str) -> dict:
    """Flat `key = value` file; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


# ---------------------------------------------------------------------------
# commands


def _input_field(args, kind="half"):
    """(field, resampler_or_None) from --family or --input."""
    if getattr(args, "family", None):
        fam = parse_family_spec(args.family)
        if kind == "periodic":
            grid = Grid.periodic(args.length, args.n)
        else:
            grid = Grid.half_line(args.length, args.n)
        return fam.sample(grid), fam.sampler()
    if getattr(args, "input", None):
        return read_field_csv(args.input, kind), None
    raise ValueError("provide --family or --input")


def cmd_check(args) -> int:
    v0, resampler = _input_field(args)
    report = check_compat(v0, args.order, args.tol, resampler)
    for k, (res, ok) in enumerate(zip(report.a_residuals, report.a_pass)):
        print(f"order {k}: residual {res:.6e}  {'pass' if ok else 'FAIL'}")
    print(f"norm residual: {report.norm_residual:.3e}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
    if not report.passed:
        print(f"compatibility FAILED at orders {report.failed_orders()}")
        return EXIT_COMPAT if args.strict else EXIT_OK
    print("compatibility passed")
    return EXIT_OK


def cmd_extend(args) -> int:
    v0, _ = _input_field(args)
    ext = extend(v0)
    for k in range(0, 4):
        print(f"jump residual k={k}: {derivative_jump_residual(ext, k):.6e}")
    if args.out:
        write_field_csv(args.out, ext)
        print(f"wrote {args.out}")
    return EXIT_OK


#: simulate config keys read into SimConfig: key -> (field, parser)
_SIM_KEYS = {
    "time.t_final": ("t_final", float),
    "time.dt": ("dt", float),
    "scheme": ("scheme", str),
    "tolerances.boundary": ("tol_boundary", float),
    "tolerances.compat": ("compat_tol", float),
    "tolerances.farfield": ("farfield_tol", float),
    "tolerances.fixed_point": ("fp_tol", float),
    "output.snapshot_every": ("snapshot_every", int),
    "output.monitor_every": ("monitor_every", int),
    "check.order": ("check_order", int),
    "check.strict": ("strict", lambda v: v.lower() in ("1", "true", "yes", "on")),
}

#: simulate config keys read by cmd_simulate itself
_RUN_KEYS = ("grid.kind", "grid.L", "grid.n", "data.family", "output.dir")


def _build_cfg(conf: dict) -> SimConfig:
    unknown = sorted(set(conf) - set(_SIM_KEYS) - set(_RUN_KEYS))
    if unknown:
        raise ValueError(
            f"unknown config key(s) {', '.join(unknown)}; "
            f"accepted: {', '.join(sorted([*_SIM_KEYS, *_RUN_KEYS]))}"
        )
    return SimConfig(
        **{field: parse(conf[key]) for key, (field, parse) in _SIM_KEYS.items() if key in conf}
    )


def cmd_simulate(args) -> int:
    conf = parse_config(args.config)
    cfg = _build_cfg(conf)
    kind = conf.get("grid.kind", "half")
    if kind not in ("half", "periodic"):
        raise ValueError(f"grid.kind must be half or periodic, got {kind!r}")
    length = float(conf.get("grid.L", 20.0))
    n = int(conf.get("grid.n", 512))
    fam = parse_family_spec(conf["data.family"])

    outdir = args.out or os.environ.get("FILAMENTLAB_OUTDIR") or conf.get("output.dir", ".")
    os.makedirs(outdir, exist_ok=True)

    if kind == "half":
        v0 = fam.sample(Grid.half_line(length, n))
        run, wall = harness.timed(solve_half_space, v0, cfg, fam.sampler())
        series = run.half
    else:
        v0 = fam.sample(Grid.periodic(length, n))
        run, wall = harness.timed(solve_whole_line, v0, cfg)
        series = run
    curves = None
    if args.reconstruct:
        curves = reconstruct_positions(integrate_tangent(v0), series)
    summary = harness.invariant_suite(run, curves, cfg, wall_seconds=wall)

    write_snapshots_csv(os.path.join(outdir, "snapshots.csv"), series, curves)
    write_telemetry_csv(os.path.join(outdir, "telemetry.csv"), series.telemetry)
    with open(os.path.join(outdir, "summary.json"), "w") as fh:
        fh.write(summary.to_json())
    print(f"run finished in {summary.wall_seconds:.2f} s; outputs in {outdir}")
    for name, ok in summary.verdicts.items():
        print(f"invariant {name}: {'pass' if ok else 'FAIL'}")
    return EXIT_OK if summary.passed else EXIT_NUMERICAL


def cmd_oracle(args) -> int:
    kw = {}
    if args.n:
        kw["n"] = args.n
    if args.t_final:
        kw["t_final"] = args.t_final
    result = harness.oracle_error(args.name, **kw)
    print(json.dumps(result, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_convergence(args) -> int:
    levels = [int(x) for x in args.levels.split(",")]
    result = harness.convergence_study(args.case, levels)
    print(f"{'n':>6} {'h':>12} {'error':>14}")
    for n, h, e in zip(result.levels, result.hs, result.errors):
        print(f"{n:>6} {h:>12.6f} {e:>14.6e}")
    order = result.order
    print(f"fitted order: {'exact' if order == float('inf') else f'{order:.3f}'}")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    fam = parse_family_spec(args.family)
    if fam.name == "ring":
        length = fam.period()
    else:
        length = args.length
    grid = Grid.periodic(length, args.n)
    cfg = SimConfig(t_final=args.t_final)
    series = solve_whole_line(fam.sample(grid), cfg)
    f = frenet(series.final())
    psi = hasimoto_psi(f)
    masked = f.mask
    out = {
        "kappa_mean": float(np.mean(f.kappa[masked])) if masked.any() else 0.0,
        "tau_mean": float(np.mean(f.tau[masked])) if masked.any() else 0.0,
        "psi_abs_max": float(np.max(np.abs(psi.psi))),
        "gauge_rate": gauge_rate(f),
        "nls_residual": series_nls_residual(series),
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="filamentlab",
        description="Half-space vortex filament laboratory",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_data_args(sp, default_L=20.0, default_n=512):
        sp.add_argument("--family", help="builtin family, e.g. planar_odd:a=0.5")
        sp.add_argument("--input", help="sampled-data CSV (s,v1,v2,v3)")
        sp.add_argument("--length", "-L", type=float, default=default_L)
        sp.add_argument("--n", type=int, default=default_n)

    sp = sub.add_parser("check", help="compatibility conditions at s = 0")
    add_data_args(sp)
    sp.add_argument("--order", type=int, default=1)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--strict", action="store_true")
    sp.add_argument("--out", help="write report JSON here")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("extend", help="reflect half-line data to the whole line")
    add_data_args(sp)
    sp.add_argument("--out", help="write extended field CSV here")
    sp.set_defaults(fn=cmd_extend)

    sp = sub.add_parser("simulate", help="run a configured simulation")
    sp.add_argument("config", help="key = value config file")
    sp.add_argument("--reconstruct", action="store_true")
    sp.add_argument("--out", help="output directory override")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("oracle", help="closed-form solution checks")
    sp.add_argument("name", help="helix_dispersion | ring_translation | stationary_line")
    sp.add_argument("--n", type=int)
    sp.add_argument("--t-final", type=float, dest="t_final")
    sp.set_defaults(fn=cmd_oracle)

    sp = sub.add_parser("convergence", help="grid refinement study")
    sp.add_argument("case", help="helix | stationary | nls")
    sp.add_argument("--levels", default="64,128,256")
    sp.set_defaults(fn=cmd_convergence)

    sp = sub.add_parser("diagnose", help="curvature/torsion/NLS diagnostics")
    sp.add_argument("--family", required=True)
    sp.add_argument("--length", "-L", type=float, default=2.0 * np.pi)
    sp.add_argument("--n", type=int, default=256)
    sp.add_argument("--t-final", type=float, dest="t_final", default=0.1)
    sp.set_defaults(fn=cmd_diagnose)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CompatibilityRejected, FarFieldViolation) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_COMPAT
    except (StabilityViolated, FixedPointDiverged, DegenerateVector) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (FilamentError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
