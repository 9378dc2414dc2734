"""Frenet diagnostics and the curvature/torsion-to-complex-field map.

For a unit tangent field v: curvature kappa = |v_s|, torsion
tau = (v x v_s) . v_ss / kappa^2, and the complex field

    psi = kappa * exp(i * integral_0^s tau ds').

A filament evolving by the binormal flow makes psi satisfy a cubic
Schroedinger equation -- but only up to a real, time-dependent phase
rate left free by the choice of phase origin.  Plugging constant-
curvature test fields into the raw equation leaves an O(1) remainder;
the free rate has the closed form

    R(t) = -( (kappa_ss - kappa tau^2) / kappa + kappa^2 / 2 ) |_{ref}

evaluated at the phase-origin node, which restores the identity (checked
against the rotating-wave and circle oracles in the tests).  The
residual monitor therefore measures

    (1/i) psi_t - psi_ss - (|psi|^2 / 2) psi - R(t) psi

over interior masked nodes.  It is a diagnostic, never a solver.

A series is evaluated in one pass: its m snapshots stacked as (n, m, 3),
grid axis first, give (n, m) curvature, torsion, mask and psi, and the
residual runs on all m - 2 interior triples at once.  The per-snapshot
``frenet``, ``hasimoto_psi`` and ``gauge_rate`` are the m = 1 case of the
same helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, InsufficientSnapshots, MaskFragmented
from .evolve import TimeSeries
from .geometry import PERIODIC, Grid, VectorField, cross, cumtrapz, deriv, row_norms, second_difference

#: Curvature floor; below it torsion and psi are masked out, not computed.
EPS_KAPPA = 1e-6


@dataclass
class FrenetData:
    """Curvature/torsion samples with a validity mask (kappa >= floor)."""

    grid: Grid
    kappa: np.ndarray
    tau: np.ndarray
    mask: np.ndarray


@dataclass
class HasimotoField:
    """Complex field psi on the grid; zero (and meaningless) off the mask.

    On periodic grids psi is only quasi-periodic: going once around the
    filament multiplies it by exp(i * wrap_phase), wrap_phase being the
    total torsion over one period.  Stencils that wrap must twist by
    that factor.
    """

    grid: Grid
    psi: np.ndarray
    mask: np.ndarray
    wrap_phase: float = 0.0


def _frenet(values: np.ndarray, grid: Grid) -> tuple:
    """kappa, tau and mask of unit tangents ``values`` of shape (n, ..., 3).

    Derivatives run along the grid axis 0, so a stack of m snapshots as
    (n, m, 3) gives (n, m) samples, each column those of its snapshot.
    """
    vs = deriv(values, grid, 1)
    vss = deriv(values, grid, 2)
    kappa = row_norms(vs)
    mask = kappa >= EPS_KAPPA
    num = cross(values, vs)
    num *= vss
    tau = np.zeros_like(kappa)
    np.divide(num.sum(axis=-1), kappa**2, out=tau, where=mask)
    return kappa, tau, mask


def frenet(v: VectorField) -> FrenetData:
    """Curvature and torsion of the curve whose unit tangent is v."""
    return FrenetData(v.grid, *_frenet(v.values, v.grid))


def _psi(kappa: np.ndarray, tau: np.ndarray, mask: np.ndarray, grid: Grid) -> tuple:
    """psi and wrap phase of (n, ...) Frenet samples, one per trailing column.

    A column whose mask is not one block (circularly, on a periodic grid)
    raises MaskFragmented; a column with an empty mask gets the zero
    field and wrap phase 0.
    """
    periodic = grid.kind == PERIODIC
    # one block is at most one rising edge per column; node 0 rises from node n - 1
    # on a periodic grid and from outside the grid otherwise
    first = mask[0] > mask[-1] if periodic else mask[0]
    if np.any(np.count_nonzero(mask[1:] > mask[:-1], axis=0) + first > 1):
        raise MaskFragmented("curvature mask is not contiguous")
    h = grid.h
    phase = cumtrapz(tau, h)
    wrap = phase[-1] + 0.5 * h * (tau[-1] + tau[0]) if periodic else np.zeros(phase.shape[1:])
    psi = np.multiply(1j, phase)
    np.exp(psi, out=psi)
    # kappa first, as in kappa * exp(1j * phase): a complex product that
    # underflows takes the sign of its zero from the operand order
    np.multiply(kappa, psi, out=psi)
    psi[~mask] = 0.0
    curved = mask.any(axis=0)
    if not np.all(curved):
        import logging

        logging.getLogger(__name__).warning("curvature below floor everywhere; psi is the zero field")
        wrap = np.where(curved, wrap, 0.0)
    return psi, wrap


def hasimoto_psi(f: FrenetData) -> HasimotoField:
    """kappa * exp(i * cumulative trapezoid of tau), phase zero at the start.

    The phase is accumulated, never wrapped mod 2*pi.  An empty mask
    (straight filament) yields the zero field with a warning; a
    fragmented mask is an error, the phase integral being undefined
    across curvature zeros.
    """
    psi, wrap = _psi(f.kappa, f.tau, f.mask, f.grid)
    return HasimotoField(f.grid, psi, f.mask.copy(), float(wrap))


def _gauge_rates(kappa: np.ndarray, tau: np.ndarray, mask: np.ndarray, grid: Grid) -> list:
    """R(t) of each column of (n, m) Frenet samples, 0 where the mask is empty."""
    kss = deriv(kappa, grid, 2)
    rates = []
    for j, i0 in enumerate(mask.argmax(axis=0)):
        if not mask[i0, j]:
            rates.append(0.0)
            continue
        k0 = kappa[i0, j]
        # tau0 ** 2 squares a numpy scalar, which may round unlike an array's x * x
        rates.append(float(-((kss[i0, j] - k0 * tau[i0, j] ** 2) / k0 + 0.5 * k0 * k0)))
    return rates


def gauge_rate(f: FrenetData) -> float:
    """Free phase rate R(t) fixed by the transform's phase origin."""
    return _gauge_rates(f.kappa[:, None], f.tau[:, None], f.mask[:, None], f.grid)[0]


def _residual(grid: Grid, psi: np.ndarray, mask: np.ndarray, wraps, times, rates) -> float:
    """Max NLS residual over the interior columns of (n, m) stacked psi.

    psi_t is the centered difference across each snapshot triple; ``wraps``
    and ``rates`` hold each snapshot's wrap phase and R(t).  The two edge
    nodes at each end of a non-periodic grid are excluded.
    """
    keep = mask[:, :-2] & mask[:, 1:-1] & mask[:, 2:]
    # the psi_ss stencil must not read zeroed-out neighbors; a roll wraps
    # only into the end nodes, which a non-periodic grid drops anyway
    keep = keep & np.roll(keep, 1, axis=0) & np.roll(keep, -1, axis=0)
    if grid.kind != PERIODIC:
        keep[:2] = False
        keep[-2:] = False
    if not keep.any():
        import logging

        logging.getLogger(__name__).warning("empty mask throughout; residual reported as 0")
        return 0.0
    times = np.asarray(times, dtype=float)
    mid = psi[:, 1:-1]
    res = np.subtract(psi[:, 2:], psi[:, :-2])
    res /= times[2:] - times[:-2]
    res /= 1j
    if grid.kind != PERIODIC:
        res -= deriv(mid, grid, 2)
    else:
        # psi is quasi-periodic: the wrapped neighbours twist by the wrap phase
        twist = np.exp(1j * np.asarray(wraps[1:-1]))
        padded = np.concatenate((mid[-1:] / twist, mid, mid[:1] * twist))
        ss = second_difference(padded)
        ss /= grid.h * grid.h
        res -= ss
    cubic = np.abs(mid)
    cubic *= cubic
    cubic *= 0.5
    res -= cubic * mid
    res -= np.asarray(rates[1:-1], dtype=float) * mid
    # np.max folds with np.maximum: a NaN residual wins, not the last finite one
    return float(np.max(np.abs(res), where=keep, initial=0.0))


def series_nls_residual(series: TimeSeries) -> float:
    """Frenet + transform + residual for a trajectory, all snapshots at once."""
    if len(series.snapshots) < 3:
        raise InsufficientSnapshots("need >= 3 snapshots for a centered psi_t")
    grid = series.snapshots[0].grid
    if any(snap.grid != grid for snap in series.snapshots):
        raise GridMismatch("snapshots live on different grids")
    kappa, tau, mask = _frenet(np.stack([s.values for s in series.snapshots], axis=1), grid)
    psi, wraps = _psi(kappa, tau, mask, grid)
    rates = _gauge_rates(kappa, tau, mask, grid)
    del kappa, tau
    return _residual(grid, psi, mask, wraps, series.times, rates)
