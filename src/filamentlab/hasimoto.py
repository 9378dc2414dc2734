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
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, InsufficientSnapshots, MaskFragmented
from .evolve import TimeSeries
from .geometry import Grid, VectorField, cross, deriv, second_difference

logger = logging.getLogger(__name__)

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


def frenet(v: VectorField) -> FrenetData:
    """Curvature and torsion of the curve whose unit tangent is v."""
    vs = deriv(v.values, v.grid, 1)
    vss = deriv(v.values, v.grid, 2)
    kappa = np.sqrt(np.sum(vs * vs, axis=1))
    mask = kappa >= EPS_KAPPA
    tau = np.zeros_like(kappa)
    num = np.sum(cross(v.values, vs) * vss, axis=1)
    tau[mask] = num[mask] / (kappa[mask] ** 2)
    return FrenetData(v.grid, kappa, tau, mask)


def _mask_contiguous(mask: np.ndarray, periodic: bool) -> bool:
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return True
    if idx[-1] - idx[0] + 1 == idx.size:
        return True
    if periodic:
        # allow a single wrap-around block
        gap = np.flatnonzero(~mask)
        return gap.size > 0 and gap[-1] - gap[0] + 1 == gap.size
    return False


def hasimoto_psi(f: FrenetData) -> HasimotoField:
    """kappa * exp(i * cumulative trapezoid of tau), phase zero at the start.

    The phase is accumulated, never wrapped mod 2*pi.  An empty mask
    (straight filament) yields the zero field with a warning; a
    fragmented mask is an error, the phase integral being undefined
    across curvature zeros.
    """
    if not _mask_contiguous(f.mask, f.grid.kind == "periodic"):
        raise MaskFragmented("curvature mask is not contiguous")
    n = f.grid.n
    if not np.any(f.mask):
        logger.warning("curvature below floor everywhere; psi is the zero field")
        return HasimotoField(f.grid, np.zeros(n, dtype=complex), f.mask.copy())
    h = f.grid.h
    phase = np.zeros(n)
    phase[1:] = np.cumsum(0.5 * h * (f.tau[1:] + f.tau[:-1]))
    psi = f.kappa * np.exp(1j * phase)
    psi[~f.mask] = 0.0
    wrap = 0.0
    if f.grid.kind == "periodic":
        wrap = float(phase[-1] + 0.5 * h * (f.tau[-1] + f.tau[0]))
    return HasimotoField(f.grid, psi, f.mask.copy(), wrap)


def gauge_rate(f: FrenetData) -> float:
    """Free phase rate R(t) fixed by the transform's phase origin."""
    idx = np.flatnonzero(f.mask)
    if idx.size == 0:
        return 0.0
    i0 = int(idx[0])
    kss = deriv(f.kappa, f.grid, 2)
    k0 = f.kappa[i0]
    return float(-((kss[i0] - k0 * f.tau[i0] ** 2) / k0 + 0.5 * k0 * k0))


def _psi_ss(hf: HasimotoField) -> np.ndarray:
    """Second s-derivative of psi; periodic wrap twisted by wrap_phase."""
    grid, psi = hf.grid, hf.psi
    if grid.kind != "periodic":
        return deriv(psi, grid, 2)
    twist = np.exp(1j * hf.wrap_phase)
    padded = np.concatenate((psi[-1:] / twist, psi, psi[:1] * twist))
    return second_difference(padded) / (grid.h * grid.h)


def nls_residual(psis: list, times: list, rates: list) -> float:
    """Max residual of the cubic Schroedinger identity over the run.

    Time derivative by centered differences across consecutive snapshot
    triples; needs at least three.  ``rates`` carries R(t) per snapshot.
    The two edge nodes at each end of a non-periodic grid are excluded.
    """
    if len(psis) < 3:
        raise InsufficientSnapshots("need >= 3 snapshots for a centered psi_t")
    grid = psis[0].grid
    for p in psis:
        if p.grid != grid:
            raise GridMismatch("snapshots live on different grids")
    worst = 0.0
    any_masked = False
    for m in range(1, len(psis) - 1):
        mask = psis[m - 1].mask & psis[m].mask & psis[m + 1].mask
        # the psi_ss stencil must not read zeroed-out neighbors; a roll wraps
        # only into the end nodes, which a non-periodic grid drops anyway
        mask = mask & np.roll(mask, 1) & np.roll(mask, -1)
        if grid.kind != "periodic":
            mask[:2] = False
            mask[-2:] = False
        if not np.any(mask):
            continue
        any_masked = True
        psi = psis[m].psi
        psi_t = (psis[m + 1].psi - psis[m - 1].psi) / (times[m + 1] - times[m - 1])
        psi_ss = _psi_ss(psis[m])
        res = psi_t / 1j - psi_ss - 0.5 * np.abs(psi) ** 2 * psi - rates[m] * psi
        worst = max(worst, float(np.max(np.abs(res[mask]))))
    if not any_masked:
        logger.warning("empty mask throughout; residual reported as 0")
    return worst


def series_nls_residual(series: TimeSeries) -> float:
    """Convenience wrapper: Frenet + transform + residual for a trajectory."""
    psis, rates = [], []
    for snap in series.snapshots:
        f = frenet(snap)
        psis.append(hasimoto_psi(f))
        rates.append(gauge_rate(f))
    return nls_residual(psis, series.times, rates)
