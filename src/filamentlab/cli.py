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
import time
import warnings
from contextlib import contextmanager

import numpy as np
import orjson

from . import harness
from .compat import check_compat, check_order_range, parse_family_spec
from .errors import (
    CompatibilityRejected,
    DegenerateVector,
    FarFieldViolation,
    FilamentError,
    FixedPointDiverged,
    GridMismatch,
    GridTooSmall,
    NonFiniteState,
    SpacingOutOfRange,
    StabilityViolated,
    UnknownFamily,
)
from .evolve import TELEMETRY_KEYS, SimConfig, solve_half_space, solve_whole_line
from .geometry import HALF, MIN_NODES, PERIODIC, Grid, VectorField
from .hasimoto import series_diagnostics
from .reconstruct import integrate_tangent, reconstruct_positions
from .reflect import derivative_jump_residual, extend

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPAT = 2
EXIT_NUMERICAL = 3

#: The default grid of check and extend (--length, --n) and of simulate (grid.L, grid.n),
#: and the rule by which ``cmd_diagnose`` picks its default --length.
DEFAULT_LENGTH, DEFAULT_N = 20.0, 512
_DIAGNOSE_LENGTH = "default: a ring's period, else 2 pi"


# ---------------------------------------------------------------------------
# file I/O


def _write_csv(path: str, header: str, pieces) -> None:
    """Write ``header`` and its newline, then each piece of text as it comes.

    A write that fails removes the partial file before the error goes on, so
    no partial CSV can pass for the output of a run.
    """
    fh = open(path, "w")
    try:
        with fh:
            fh.write(header + "\n")
            fh.writelines(pieces)
    except BaseException:
        os.remove(path)
        raise


def _rows_text(values: np.ndarray, prefix: str) -> str:
    """The CSV lines of the rows of an (n, k) float64 array, each led by ``prefix``.

    Every cell is orjson's shortest text that reads back to the same float
    (``0.00001`` where repr writes ``1e-05``, ``1e16`` for ``1e+16``).  orjson
    writes a non-finite value as ``null``, so a block that holds one is refused.
    """
    if not np.isfinite(values).all():
        raise ValueError("CSV cells must be finite numbers; a block holds a NaN or infinity")
    rows = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).decode()[2:-2].split("],[")
    return prefix + ("\n" + prefix).join(rows) + "\n"


def write_field_csv(path: str, field: VectorField) -> None:
    rows = _rows_text(np.column_stack((field.grid.nodes(), field.values)), "")
    _write_csv(path, "s,v1,v2,v3", [rows])


def read_field_csv(path: str) -> VectorField:
    """The half-line field of a CSV with header ``s,v1,v2,v3`` and rows from s = 0.

    An error names the file, and a text or non-finite cell its line and column.
    """
    try:
        with warnings.catch_warnings():
            # an empty file warns, and the row count rejects it; a text cell reads as NaN
            warnings.simplefilter("ignore", UserWarning)
            data = np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)
    except ValueError as exc:  # rows of differing lengths
        raise ValueError(f"{path}: {exc}") from None
    if len(data) < MIN_NODES:
        raise ValueError(f"{path}: too few rows ({len(data)}); a grid needs {MIN_NODES}")
    if data.shape[1] != 4:
        raise ValueError(f"{path}: expected columns s,v1,v2,v3")
    bad = np.argwhere(~np.isfinite(data))
    if len(bad):
        row, col = bad[0].tolist()
        # genfromtxt skips blank and comment lines; count them back in
        with open(path) as fh:
            lines = [k for k, text in enumerate(fh, 1) if k > 1 and text.split("#")[0].strip()]
        raise ValueError(f"{path}: line {lines[row]}, column {col + 1} is not a finite number")
    s = data[:, 0]
    h = s[1] - s[0]
    tol = 1e-9 * max(1.0, abs(h))
    if not h > 0.0 or np.max(np.abs(np.diff(s) - h)) > tol:
        raise ValueError(f"{path}: s must increase in equal steps")
    if abs(s[0]) > tol:
        raise ValueError(f"{path}: s runs {s[0]:g}..{s[-1]:g}, not a half grid")
    return VectorField(Grid.half_line(s[-1], len(s)), data[:, 1:4])


def write_snapshots_csv(path: str, series, curves=None) -> None:
    """Write the snapshot blocks, t by t, each row ``t,s,v1,v2,v3[,x1,x2,x3]``."""
    header = "t,s,v1,v2,v3" + (",x1,x2,x3" if curves is not None else "")
    s = series.grid.nodes()[:, None]

    def block(m):
        parts = [s, series.snapshots[m]] + ([] if curves is None else [curves[m].positions])
        return _rows_text(np.hstack(parts), str(float(series.times[m])) + ",")

    _write_csv(path, header, map(block, range(len(series.times))))


def write_telemetry_csv(path: str, telemetry) -> None:
    # a key a row lacks (symmetry, boundary off the half line) is an empty cell
    cells = ([str(row[k]) if k in row else "" for k in TELEMETRY_KEYS] for row in telemetry)
    _write_csv(path, ",".join(TELEMETRY_KEYS), [",".join(line) + "\n" for line in cells])


def parse_config(path: str) -> dict:
    """Flat `key = value` file; '#' starts a comment and each key is set once."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key in out:
                raise ValueError(f"config key {key} is set twice")
            out[key] = val
    return out


# ---------------------------------------------------------------------------
# commands


@contextmanager
def _naming(options: dict):
    """Raise an error again, as the same type, led by the option that answers for it.

    ``options`` maps option names to error types, each a type or a tuple of types;
    the first name whose type the error has leads it, and other errors pass as they are.
    """
    try:
        yield
    except Exception as exc:
        for name, error in options.items():
            if isinstance(exc, error):
                raise type(exc)(f"{name}: {exc}") from None
        raise


def _input_field(args, refined: bool):
    """The half-line field of --input, or of --family at spacing h (at h/2 when ``refined``)."""
    if args.family is not None:
        fam = parse_family_spec(args.family)
        grid = Grid.half_line(args.length, args.n)
        return fam.sample(grid.refined() if refined else grid)
    return read_field_csv(args.input)


def _input_names(args) -> dict:
    """The ``_naming`` map of check and extend: the option of their input that answers."""
    if args.family is not None:
        return {"--family": GridMismatch, "--n": GridTooSmall, "--length": SpacingOutOfRange}
    return {args.input: SpacingOutOfRange}


def cmd_check(args) -> int:
    check_order_range("--order", args.order)
    with _naming(_input_names(args)):
        report = check_compat(_input_field(args, refined=True), args.order, args.tol)
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
    with _naming(_input_names(args)):
        ext = extend(_input_field(args, refined=False))
        for k in range(0, 4):
            print(f"jump residual k={k}: {derivative_jump_residual(ext, k):.6e}")
    if args.out:
        write_field_csv(args.out, ext)
        print(f"wrote {args.out}")
    return EXIT_OK


def _flag(text: str) -> bool:
    word = text.lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected 1/true/yes/on or 0/false/no/off, got {text!r}")


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
    "check.strict": ("strict", _flag),
}

#: simulate config keys read by cmd_simulate itself
_RUN_KEYS = ("grid.kind", "grid.L", "grid.n", "data.family", "output.dir")


def _read_key(conf: dict, key: str, parse, default=None):
    """``parse(conf[key])``, or ``default`` when the key is absent; an error names the key."""
    if key not in conf:
        return default
    with _naming({f"config key {key}": ValueError}):
        return parse(conf[key])


def _build_cfg(conf: dict) -> SimConfig:
    unknown = sorted(set(conf) - set(_SIM_KEYS) - set(_RUN_KEYS))
    if unknown:
        raise ValueError(
            f"unknown config key(s) {', '.join(unknown)}; "
            f"accepted: {', '.join(sorted([*_SIM_KEYS, *_RUN_KEYS]))}"
        )
    fields = {
        field: _read_key(conf, key, parse)
        for key, (field, parse) in _SIM_KEYS.items()
        if key in conf
    }
    return SimConfig(**fields)


def cmd_simulate(args) -> int:
    conf = parse_config(args.config)
    cfg = _build_cfg(conf)
    kind = conf.get("grid.kind", HALF)
    if kind not in (HALF, PERIODIC):
        raise ValueError(f"grid.kind must be {HALF} or {PERIODIC}, got {kind!r}")
    length = _read_key(conf, "grid.L", float, DEFAULT_LENGTH)
    n = _read_key(conf, "grid.n", int, DEFAULT_N)
    if "data.family" not in conf:
        raise ValueError("config key data.family is missing; it names the initial data")
    with _naming({"config key data.family": (UnknownFamily, GridMismatch),
                  "config key grid.n": GridTooSmall, "config key grid.L": SpacingOutOfRange}):
        fam = parse_family_spec(conf["data.family"])
        grid = Grid(kind, length, n)
        start = time.perf_counter()
        if kind == HALF:
            series = solve_half_space(fam, grid, cfg)
        else:
            series = solve_whole_line(fam.sample(grid), cfg)
        wall = time.perf_counter() - start
    curves = None
    if args.reconstruct:
        x0 = integrate_tangent(VectorField(series.grid, series.snapshots[0]))
        curves = reconstruct_positions(x0, series)
    summary = harness.invariant_suite(series, curves)

    # only now: a run rejected above (exit 1 or 2) leaves no directory behind
    outdir = args.out or os.environ.get("FILAMENTLAB_OUTDIR") or conf.get("output.dir", ".")
    os.makedirs(outdir, exist_ok=True)
    write_snapshots_csv(os.path.join(outdir, "snapshots.csv"), series, curves)
    write_telemetry_csv(os.path.join(outdir, "telemetry.csv"), series.telemetry)
    with open(os.path.join(outdir, "summary.json"), "w") as fh:
        fh.write(summary.to_json())
    print(f"run finished in {wall:.2f} s; outputs in {outdir}")
    for name, ok in summary.verdicts.items():
        print(f"invariant {name}: {'pass' if ok else 'FAIL'}")
    for name, worst in summary.maxima.items():
        if name not in summary.verdicts:
            print(f"{name} {worst['max']:.3e} (reported, not gating)")
    return EXIT_OK if summary.passed else EXIT_NUMERICAL


def cmd_oracle(args) -> int:
    # --t-final is checked before the run, whose own bare ValueErrors must name no
    # option; a GridTooSmall can only come from the run's grid, so the run names --n
    kw = {k: v for k, v in vars(args).items() if k in ("n", "t_final") and v is not None}
    if args.t_final is not None:
        with _naming({"--t-final": ValueError}):
            SimConfig(t_final=args.t_final)
    with _naming({"--n": GridTooSmall}):
        result = harness.oracle_error(args.name, **kw)
    print(json.dumps(result, indent=2, sort_keys=True))
    return EXIT_OK


def _levels(text: str) -> list:
    """``--levels``: comma-separated node counts."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated node counts, got {text!r}"
        ) from None


def cmd_convergence(args) -> int:
    with _naming({"--levels": (GridTooSmall, ValueError)}):
        harness.check_levels(args.levels)
    result = harness.convergence_study(args.case, args.levels)
    print(f"{'n':>6} {'h':>12} {'error':>14}")
    for n, h, e in zip(result.levels, result.hs, result.errors):
        print(f"{n:>6} {h:>12.6f} {e:>14.6e}")
    order = result.order
    print(f"fitted order: {'exact' if order == float('inf') else f'{order:.3f}'}")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    fam = parse_family_spec(args.family)
    length = args.length
    if length is None:
        length = fam.period() if fam.name == "ring" else 2.0 * np.pi
    flag = "--length" if args.length is not None else f"--length ({_DIAGNOSE_LENGTH})"
    # the first match names, and SpacingOutOfRange is a ValueError: typed entries first
    with _naming({"--family": GridMismatch, "--n": GridTooSmall, flag: SpacingOutOfRange,
                  "--t-final": ValueError}):
        grid = Grid.periodic(length, args.n)
        v0 = fam.sample(grid)
        cfg = harness.nls_config(grid, args.t_final)
    print(json.dumps(series_diagnostics(solve_whole_line(v0, cfg)), indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """A usage error exits 1 through ``main``, not 2, the compatibility-rejection code."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="filamentlab",
        description="Half-space vortex filament laboratory",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_data_args(sp):
        data = sp.add_mutually_exclusive_group(required=True)
        data.add_argument("--family", help="builtin family, e.g. planar_odd:a=0.5")
        data.add_argument("--input", help="sampled-data CSV (s,v1,v2,v3)")
        sp.add_argument("--length", "-L", type=float, default=DEFAULT_LENGTH)
        sp.add_argument("--n", type=int, default=DEFAULT_N)

    sp = sub.add_parser("check", help="compatibility conditions at s = 0")
    add_data_args(sp)
    sp.add_argument("--order", type=int, default=SimConfig.check_order)
    sp.add_argument("--tol", type=float, default=SimConfig.compat_tol)
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
    sp.add_argument("--levels", type=_levels, default="64,128,256")
    sp.set_defaults(fn=cmd_convergence)

    sp = sub.add_parser("diagnose", help="curvature/torsion/NLS diagnostics")
    sp.add_argument("--family", required=True)
    sp.add_argument("--length", "-L", type=float, help=_DIAGNOSE_LENGTH)
    sp.add_argument("--n", type=int, default=256)
    sp.add_argument("--t-final", type=float, dest="t_final", default=0.1)
    sp.set_defaults(fn=cmd_diagnose)

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (CompatibilityRejected, FarFieldViolation) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_COMPAT
    except (StabilityViolated, FixedPointDiverged, DegenerateVector, NonFiniteState) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (FilamentError, OSError, ValueError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
