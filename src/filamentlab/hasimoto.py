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

A series is evaluated in one pass: its (m, n, 3) snapshots, viewed as
(n, m, 3), grid axis first, give (n, m) curvature, torsion, mask and psi,
and the residual runs on all m - 2 interior triples at once.  ``diagnose``
reads the final snapshot's numbers off the last column of that pass
(``series_diagnostics``).  The pass starts with ``frenet(values, grid)``,
whose (kappa, tau, mask) of one field's (n, 3) values is its m = 1 case.
"""

from __future__ import annotations

import numpy as np

from .evolve import TimeSeries
from .geometry import PERIODIC, Grid, cross, cumtrapz, deriv, row_norms, second_difference

#: Curvature floor; below it torsion and psi are masked out, not computed.
EPS_KAPPA = 1e-6


def frenet(values: np.ndarray, grid: Grid) -> tuple:
    """(kappa, tau, mask) of unit tangents ``values`` of shape (n, ..., 3) on ``grid``.

    The mask is kappa >= EPS_KAPPA; tau is 0 off it.  Derivatives run along
    the grid axis 0, so one field's (n, 3) values give (n,) samples, and m
    snapshots viewed as (n, m, 3) give (n, m), each column its snapshot's.
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


def _psi(kappa: np.ndarray, tau: np.ndarray, mask: np.ndarray, grid: Grid) -> tuple:
    """psi and wrap phase of (n, ...) Frenet samples, one per trailing column.

    The phase starts at 0 and is never wrapped mod 2*pi; on a periodic grid
    the wrap phase is the total torsion over one period.  A column whose
    mask is not one block (circularly, on a periodic grid) raises
    ValueError; a column with an empty mask gets the zero field and wrap
    phase 0, with a warning.
    """
    periodic = grid.kind == PERIODIC
    # one block is at most one rising edge per column; node 0 rises from node n - 1
    # on a periodic grid and from outside the grid otherwise
    first = mask[0] > mask[-1] if periodic else mask[0]
    if np.any(np.count_nonzero(mask[1:] > mask[:-1], axis=0) + first > 1):
        raise ValueError("curvature mask is not contiguous")
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
    # psi is quasi-periodic: the wrapped neighbours twist by the wrap phase.  Off a
    # periodic grid the phase is 0, and the two wrapped rows are edge rows keep drops
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


def _series_pass(series: TimeSeries) -> tuple:
    """(n, m) kappa, tau, mask and psi of a series' m snapshots, and their m wraps and rates."""
    if len(series.snapshots) < 3:
        raise ValueError("need >= 3 snapshots for a centered psi_t")
    kappa, tau, mask = frenet(series.snapshots.transpose(1, 0, 2), series.grid)
    psi, wraps = _psi(kappa, tau, mask, series.grid)
    return kappa, tau, mask, psi, wraps, _gauge_rates(kappa, tau, mask, series.grid)


def series_nls_residual(series: TimeSeries) -> float:
    """Frenet + transform + residual for a trajectory, all snapshots at once."""
    kappa, tau, mask, psi, wraps, rates = _series_pass(series)
    del kappa, tau
    return _residual(series.grid, psi, mask, wraps, series.times, rates)


def series_diagnostics(series: TimeSeries) -> dict:
    """The numbers ``filamentlab diagnose`` prints, from one pass over the series.

    nls_residual is ``series_nls_residual``; the rest are the final snapshot's,
    the last column of the pass: masked kappa and tau means (0 for an empty
    mask), max |psi| and R(t).
    """
    kappa, tau, mask, psi, wraps, rates = _series_pass(series)
    last = mask[:, -1]
    return {
        "kappa_mean": float(np.mean(kappa[last, -1])) if last.any() else 0.0,
        "tau_mean": float(np.mean(tau[last, -1])) if last.any() else 0.0,
        "psi_abs_max": float(np.max(np.abs(psi[:, -1]))),
        "gauge_rate": rates[-1],
        "nls_residual": _residual(series.grid, psi, mask, wraps, series.times, rates),
    }
