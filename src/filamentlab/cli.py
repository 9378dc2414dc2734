"""Command-line entry point: check, extend, simulate, oracle, convergence, diagnose.

File formats are deliberately plain: key = value config files, CSV
snapshots with full round-trip float precision, JSON summaries.  Exit
codes: 0 success, 1 usage/I-O error, 2 compatibility rejection,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import tempfile
import threading

import numpy as np

from . import harness
from .compat import check_compat, parse_family_spec
from .errors import (
    CompatibilityRejected,
    DegenerateVector,
    FarFieldViolation,
    FilamentError,
    FixedPointDiverged,
    GridTooSmall,
    NonFiniteState,
    StabilityViolated,
    UnknownFamily,
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


def _write_csv(path: str, header: str, pieces) -> None:
    """Write ``header`` and its newline, then each piece of text as it comes."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(pieces)


def _cells(values: np.ndarray, previous=None) -> tuple:
    """(bits, cells): the cell text of an (n, k) float64 array, as an object array.

    str of a Python float is its repr, the shortest text that reads back to
    the same float.  Formatting dominates the cost of writing, so given the
    ``(bits, cells)`` of the previous array of a series, a cell keeps its
    text wherever its bits are unchanged and only the changed cells go
    through str; ``cells`` is updated in place.  The bits decide, not
    ``==``: 0.0 == -0.0, yet their text differs.
    """
    bits = values.view(np.uint64)
    if previous is None:
        cells = np.empty(values.shape, dtype=object)
        changed = np.ones(values.shape, dtype=bool)
    else:
        old_bits, cells = previous
        changed = bits != old_bits
    for j in range(values.shape[1]):  # a column at a time: less new text alive at once
        rows = changed[:, j]
        cells[rows, j] = list(map(str, values[rows, j].tolist()))
    return bits, cells


def _lines(cells: np.ndarray, prefix: str = "") -> tuple:
    """Pieces of the CSV text of the rows of ``cells``, each line led by ``prefix``."""
    return prefix, ("\n" + prefix).join(map(",".join, cells.tolist())), "\n"


def write_field_csv(path: str, field: VectorField) -> None:
    _, cells = _cells(np.column_stack((field.grid.nodes(), field.values)))
    _write_csv(path, "s,v1,v2,v3", _lines(cells))


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


#: Fewest snapshot blocks one writer process formats: a chunk's first block is
#: formatted in full, so a smaller chunk would spend its process on set-up.
MIN_CHUNK_BLOCKS = 4


def _chunks(blocks: int) -> list:
    """Contiguous ranges of block indices, one per process that formats them.

    One per usable CPU, each of at least MIN_CHUNK_BLOCKS blocks; a single
    one where processes cannot be forked, or where other threads run, since a
    forked child holds a copy of every lock those threads might hold.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if not hasattr(os, "fork") or threading.active_count() > 1:
        cpus = 1
    count = max(1, min(cpus, blocks // MIN_CHUNK_BLOCKS))
    return [range(k * blocks // count, (k + 1) * blocks // count) for k in range(count)]


def _fork_writer(pieces, part) -> int:
    """Fork a child that writes ``pieces`` to ``part`` and exits, 0 if it all went; its pid."""
    pid = os.fork()
    if pid == 0:  # the child: it must leave here, whatever happens
        code = 1
        try:
            part.writelines(pieces)
            part.flush()
            code = 0
        except Exception as exc:
            print(f"error: snapshot writer process {os.getpid()}: {exc!r}", file=sys.stderr)
        finally:
            os._exit(code)
    return pid


def write_snapshots_csv(path: str, series, curves=None) -> None:
    """Write the snapshot blocks, t by t, each row ``t,s,v1,v2,v3[,x1,x2,x3]``.

    Blocks are formatted by one process per usable CPU (``_chunks``): each
    child formats a contiguous chunk into an anonymous part file, while this
    process writes the header and the first chunk, then copies each child's
    part in chunk order.  The bytes do not depend on the number of chunks.
    A write that fails removes the partial file before the error goes on.
    """
    header = "t,s,v1,v2,v3" + (",x1,x2,x3" if curves is not None else "")
    s = series.grid.nodes()[:, None]

    def pieces(blocks):
        # the s cells keep their bits, so s is formatted once per chunk; t once per block
        state = None
        for m in blocks:
            snap = series.snapshots[m].values
            parts = (s, snap) if curves is None else (s, snap, curves[m].positions)
            state = _cells(np.hstack(parts), state)
            yield from _lines(state[1], str(float(series.times[m])) + ",")

    first, *rest = _chunks(len(series.times))
    # the parts go beside the output, on the disk chosen for it, not in a RAM-backed /tmp
    where = os.path.dirname(os.path.abspath(path))
    children = {}  # pid -> (blocks, part file) of each child not yet reaped
    with contextlib.ExitStack() as parts:
        try:
            for blocks in rest:
                part = parts.enter_context(tempfile.TemporaryFile("w+", dir=where))
                children[_fork_writer(pieces(blocks), part)] = blocks, part
            fh = open(path, "w")
            try:
                with fh:
                    fh.write(header + "\n")
                    fh.writelines(pieces(first))
                    for pid, (blocks, part) in list(children.items()):
                        status = os.waitpid(pid, 0)[1]
                        del children[pid]
                        if status != 0:
                            raise OSError(
                                f"{path}: the process formatting snapshot blocks "
                                f"{blocks.start}..{blocks.stop - 1} failed "
                                f"(exit code {os.waitstatus_to_exitcode(status)})"
                            )
                        part.seek(0)
                        shutil.copyfileobj(part, fh)
            except BaseException:
                os.remove(path)
                raise
        finally:
            for pid in children:
                os.waitpid(pid, 0)


def write_telemetry_csv(path: str, telemetry) -> None:
    keys = ["step", "time", "norm_dev", "energy", "symmetry", "boundary"]
    # a key a row lacks (symmetry, boundary off the half line) is an empty cell
    lines = [",".join(str(row[k]) if k in row else "" for k in keys) + "\n" for row in telemetry]
    _write_csv(path, ",".join(keys), lines)


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


def _input_field(args):
    """(half-line field, resampler_or_None) from --family or --input."""
    if args.family is not None:
        fam = parse_family_spec(args.family)
        return fam.sample(Grid.half_line(args.length, args.n)), fam.sample
    return read_field_csv(args.input), None


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
    try:
        return parse(conf[key])
    except ValueError as exc:
        raise ValueError(f"config key {key}: {exc}") from None


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
    kind = conf.get("grid.kind", "half")
    if kind not in ("half", "periodic"):
        raise ValueError(f"grid.kind must be half or periodic, got {kind!r}")
    length = _read_key(conf, "grid.L", float, 20.0)
    n = _read_key(conf, "grid.n", int, 512)
    if "data.family" not in conf:
        raise ValueError("config key data.family is missing; it names the initial data")
    try:
        fam = parse_family_spec(conf["data.family"])
    except UnknownFamily as exc:
        raise UnknownFamily(f"config key data.family: {exc}") from None
    try:
        grid = Grid.half_line(length, n) if kind == "half" else Grid.periodic(length, n)
    except GridTooSmall as exc:
        raise GridTooSmall(f"config key grid.n: {exc}") from None
    except ValueError as exc:  # the one grid ValueError a half or periodic grid raises
        raise ValueError(f"config key grid.L: {exc}") from None
    v0 = fam.sample(grid)

    if kind == "half":
        series, wall = harness.timed(solve_half_space, v0, cfg, fam.sample)
    else:
        series, wall = harness.timed(solve_whole_line, v0, cfg)
    curves = None
    if args.reconstruct:
        curves = reconstruct_positions(integrate_tangent(v0), series)
    summary = harness.invariant_suite(series, curves, wall_seconds=wall)

    # only now: a run rejected above (exit 1 or 2) leaves no directory behind
    outdir = args.out or os.environ.get("FILAMENTLAB_OUTDIR") or conf.get("output.dir", ".")
    os.makedirs(outdir, exist_ok=True)
    write_snapshots_csv(os.path.join(outdir, "snapshots.csv"), series, curves)
    write_telemetry_csv(os.path.join(outdir, "telemetry.csv"), series.telemetry)
    with open(os.path.join(outdir, "summary.json"), "w") as fh:
        fh.write(summary.to_json())
    print(f"run finished in {summary.wall_seconds:.2f} s; outputs in {outdir}")
    for name, ok in summary.verdicts.items():
        print(f"invariant {name}: {'pass' if ok else 'FAIL'}")
    drift = summary.energy_drift
    print(
        f"energy drift {drift['max']:.3e}: {'within' if drift['passed'] else 'above'} "
        f"{drift['tolerance']:g} "
        f"({'gating' if summary.energy_gated else 'reported, not gating'})"
    )
    return EXIT_OK if summary.passed else EXIT_NUMERICAL


def cmd_oracle(args) -> int:
    kw = {}
    if args.n is not None:
        kw["n"] = args.n
    if args.t_final is not None:
        kw["t_final"] = args.t_final
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
    result = harness.convergence_study(args.case, args.levels)
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
        sp.add_argument("--length", "-L", type=float, default=20.0)
        sp.add_argument("--n", type=int, default=512)

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
    sp.add_argument("--levels", type=_levels, default="64,128,256")
    sp.set_defaults(fn=cmd_convergence)

    sp = sub.add_parser("diagnose", help="curvature/torsion/NLS diagnostics")
    sp.add_argument("--family", required=True)
    sp.add_argument("--length", "-L", type=float, default=2.0 * np.pi)
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
    except (FilamentError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
