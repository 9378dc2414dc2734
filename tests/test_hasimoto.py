"""Curvature/torsion extraction and the complex-field diagnostics.

The diagnostic runs over all snapshots of a series at once; the property
tests at the end hold that pass, and ``series_diagnostics``, to a
per-snapshot reference kept here, float for float.
"""

import functools
import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filamentlab.compat import HelixFamily, RingFamily, get_family
from filamentlab.evolve import MIDPOINT_FIXEDPOINT, RK4_PROJECT, SimConfig, TimeSeries, solve_whole_line
from filamentlab.geometry import Grid, VectorField, cumtrapz, deriv, second_difference
from filamentlab.hasimoto import (
    EPS_KAPPA,
    _gauge_rates,
    _psi,
    _residual,
    frenet,
    series_diagnostics,
    series_nls_residual,
)


def stacked(snapshots, grid):
    """(n, m) kappa, tau and mask of (m, n, 3) snapshots on ``grid``, read as the series pass reads them."""
    return frenet(np.asarray(snapshots).transpose(1, 0, 2), grid)


class TestFrenet:
    def test_helix_curvature_and_torsion(self):
        # (a cos ks, a sin ks, c): kappa = a k = 1.2, tau = c k = 1.6
        fam = HelixFamily(0.6, 0.8, 2.0)
        g = Grid.periodic(2.0 * np.pi, 256)
        kappa, tau, mask = frenet(fam.sample(g).values, g)
        assert mask.all()
        assert np.max(np.abs(kappa - 1.2)) < 5e-3
        assert np.max(np.abs(tau - 1.6)) < 5e-3

    def test_helix_frenet_second_order(self):
        fam = HelixFamily(0.6, 0.8, 2.0)
        errs = []
        for n in (128, 256):
            g = Grid.periodic(2.0 * np.pi, n)
            kappa, tau, _ = frenet(fam.sample(g).values, g)
            errs.append(np.max(np.abs(kappa - 1.2)) + np.max(np.abs(tau - 1.6)))
        assert 3.0 <= errs[0] / errs[1] <= 5.0

    def test_ring_is_planar(self):
        fam = RingFamily(0.5)
        g = Grid.periodic(fam.period(), 256)
        kappa, tau, _ = frenet(fam.sample(g).values, g)
        assert np.max(np.abs(kappa - 2.0)) < 1e-2
        assert np.max(np.abs(tau)) < 1e-8

    def test_straight_masks_everything(self):
        fam = get_family("straight")
        g = Grid.periodic(2.0 * np.pi, 64)
        _, _, mask = frenet(fam.sample(g).values, g)
        assert not mask.any()


class TestPsi:
    def test_modulus_equals_curvature(self):
        fam = HelixFamily()
        g = Grid.periodic(2.0 * np.pi, 128)
        kappa, tau, mask = stacked([fam.sample(g).values], g)
        psi, _ = _psi(kappa, tau, mask, g)
        assert np.allclose(np.abs(psi[mask]), kappa[mask], atol=1e-14)

    def test_phase_slope_is_torsion(self):
        fam = HelixFamily(0.6, 0.8, 2.0)
        g = Grid.periodic(2.0 * np.pi, 256)
        psi, _ = _psi(*stacked([fam.sample(g).values], g), g)
        phase = np.unwrap(np.angle(psi[:, 0]))
        slope = np.polyfit(g.nodes(), phase, 1)[0]
        assert slope == pytest.approx(1.6, abs=5e-3)

    def test_wrap_phase_is_total_torsion(self):
        # one period of the helix carries total torsion 2 pi tau
        fam = HelixFamily(0.6, 0.8, 2.0)
        g = Grid.periodic(2.0 * np.pi, 256)
        _, wraps = _psi(*stacked([fam.sample(g).values], g), g)
        assert wraps[0] == pytest.approx(2.0 * np.pi * 1.6, rel=1e-3)

    def test_straight_gives_zero_field_with_warning(self, caplog):
        fam = get_family("straight")
        g = Grid.periodic(2.0 * np.pi, 64)
        with caplog.at_level("WARNING", logger="filamentlab.hasimoto"):
            psi, wraps = _psi(*stacked([fam.sample(g).values], g), g)
        assert np.array_equal(psi, np.zeros((64, 1), dtype=complex))
        assert np.array_equal(wraps, [0.0])
        assert any("zero field" in r.message for r in caplog.records)

    def test_fragmented_mask_raises(self):
        g = Grid.whole_line(5.0, 21)
        mask = np.zeros((21, 1), dtype=bool)
        mask[2:5] = True
        mask[10:15] = True
        with pytest.raises(ValueError, match="curvature mask is not contiguous"):
            _psi(np.ones((21, 1)), np.zeros((21, 1)), mask, g)

    def test_periodic_wraparound_mask_allowed(self):
        g = Grid.periodic(2.0 * np.pi, 20)
        mask = np.ones((20, 1), dtype=bool)
        mask[8:12] = False  # one gap -> one wrap-around block
        _psi(np.ones((20, 1)), np.zeros((20, 1)), mask, g)  # must not raise


class TestGaugeRate:
    def test_helix_closed_form(self):
        # kappa, tau constant: R = -(-tau^2 + kappa^2 / 2) = c^2 k^2 - a^2 k^2 / 2
        fam = HelixFamily(0.6, 0.8, 2.0)
        g = Grid.periodic(2.0 * np.pi, 256)
        (rate,) = _gauge_rates(*stacked([fam.sample(g).values], g), g)
        assert rate == pytest.approx(0.64 * 4.0 - 0.5 * 0.36 * 4.0, abs=5e-2)

    def test_ring_closed_form(self):
        # tau = 0: R = -kappa^2 / 2
        fam = RingFamily(0.5)
        g = Grid.periodic(fam.period(), 256)
        (rate,) = _gauge_rates(*stacked([fam.sample(g).values], g), g)
        assert rate == pytest.approx(-2.0, abs=5e-2)

    def test_empty_mask_rate_zero(self):
        fam = get_family("straight")
        g = Grid.periodic(2.0 * np.pi, 64)
        assert _gauge_rates(*stacked([fam.sample(g).values], g), g) == [0.0]


class TestNlsResidual:
    def test_needs_three_snapshots(self):
        g = Grid.periodic(2.0 * np.pi, 64)
        series = TimeSeries(g, 2, SimConfig())
        for t in (0.0, 0.1):
            series.record(t, HelixFamily().sample(g))
        with pytest.raises(ValueError, match="need >= 3 snapshots"):
            series_nls_residual(series)

    def test_global_phase_invariance(self):
        # multiplying every snapshot by the same unit phase changes nothing
        fam = HelixFamily()
        g = Grid.periodic(2.0 * np.pi, 96)
        series = solve_whole_line(fam.sample(g), SimConfig(t_final=0.05))
        kappa, tau, mask = stacked(series.snapshots, series.grid)
        psi, wraps = _psi(kappa, tau, mask, g)
        rates = _gauge_rates(kappa, tau, mask, g)
        base = _residual(g, psi, mask, wraps, series.times, rates)
        assert base == series_nls_residual(series)
        rot = _residual(g, psi * np.exp(0.37j), mask, wraps, series.times, rates)
        assert rot == pytest.approx(base, rel=1e-10)

    def test_helix_residual_small_and_shrinking(self):
        vals = []
        for n in (64, 128):
            fam = HelixFamily()
            g = Grid.periodic(2.0 * np.pi, n)
            series = solve_whole_line(fam.sample(g), SimConfig(t_final=0.1))
            vals.append(series_nls_residual(series))
        assert vals[0] < 0.1
        assert vals[1] < 0.35 * vals[0]

    def test_half_line_skips_end_nodes_and_masked_neighbours(self):
        # psi_t at a node reads only that node of the last snapshot, so a
        # large value planted there shows exactly where the residual looks
        g = Grid.half_line(1.0, 32)
        times = [0.0, 0.01, 0.02]
        mask = np.ones(32, dtype=bool)
        mask[15] = False

        def residual(planted):
            psi = np.exp(1j * (g.nodes()[:, None] - times))
            psi[planted, -1] = 1e6
            stack = np.repeat(mask[:, None], len(times), axis=1)
            return _residual(g, psi, stack, [0.0] * len(times), times, [0.0] * len(times))

        base = residual([])
        assert residual([0, 1, 14, 16, 30, 31]) == base
        assert residual([2]) > 1e6  # node 2 is read

    def test_nan_rate_makes_the_residual_nan(self):
        # a NaN among the rates must reach the caller's isfinite check, not
        # fold away behind the finite residuals of the other snapshots
        g = Grid.periodic(np.pi, 64)
        series = solve_whole_line(HelixFamily().sample(g), SimConfig(t_final=0.05))
        kappa, tau, mask = stacked(series.snapshots, series.grid)
        psi, wraps = _psi(kappa, tau, mask, g)
        rates = _gauge_rates(kappa, tau, mask, g)
        assert np.isfinite(_residual(g, psi, mask, wraps, series.times, rates))
        rates[1] = np.nan
        assert np.isnan(_residual(g, psi, mask, wraps, series.times, rates))

    def test_gauge_term_is_essential(self):
        # dropping the rates leaves an O(1) remainder on the helix
        fam = HelixFamily()
        g = Grid.periodic(2.0 * np.pi, 128)
        series = solve_whole_line(fam.sample(g), SimConfig(t_final=0.05))
        kappa, tau, mask = stacked(series.snapshots, series.grid)
        psi, wraps = _psi(kappa, tau, mask, g)
        without = _residual(g, psi, mask, wraps, series.times, [0.0] * len(wraps))
        assert without > 1.0 > 100.0 * series_nls_residual(series)

    def test_straight_run_residual_zero(self, caplog):
        fam = get_family("straight")
        g = Grid.periodic(2.0 * np.pi, 64)
        series = solve_whole_line(fam.sample(g), SimConfig(t_final=0.05, snapshot_every=4))
        assert len(series.snapshots) >= 3
        with caplog.at_level("WARNING", logger="filamentlab.hasimoto"):
            assert series_nls_residual(series) == 0.0


# ---------------------------------------------------------------------------
# the reference: the per-snapshot path, one snapshot and one triple at a time


def _ref_frenet(values, grid):
    vs = deriv(values, grid, 1)
    vss = deriv(values, grid, 2)
    kappa = np.sqrt(np.sum(vs * vs, axis=1))
    mask = kappa >= EPS_KAPPA
    tau = np.zeros_like(kappa)
    num = np.sum(np.cross(values, vs) * vss, axis=1)
    tau[mask] = num[mask] / (kappa[mask] ** 2)
    return kappa, tau, mask


def _ref_mask_contiguous(mask, periodic):
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return True
    if idx[-1] - idx[0] + 1 == idx.size:
        return True
    if periodic:
        gap = np.flatnonzero(~mask)
        return gap.size > 0 and gap[-1] - gap[0] + 1 == gap.size
    return False


def _ref_psi(kappa, tau, mask, grid):
    """(psi, wrap phase) of one snapshot."""
    if not _ref_mask_contiguous(mask, grid.kind == "periodic"):
        raise ValueError("curvature mask is not contiguous")
    if not np.any(mask):
        return np.zeros(grid.n, dtype=complex), 0.0
    h = grid.h
    phase = cumtrapz(tau, h)
    psi = kappa * np.exp(1j * phase)
    psi[~mask] = 0.0
    wrap = 0.0
    if grid.kind == "periodic":
        wrap = float(phase[-1] + 0.5 * h * (tau[-1] + tau[0]))
    return psi, wrap


def _ref_rate(kappa, tau, mask, grid):
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return 0.0
    i0 = int(idx[0])
    kss = deriv(kappa, grid, 2)
    k0 = kappa[i0]
    return float(-((kss[i0] - k0 * tau[i0] ** 2) / k0 + 0.5 * k0 * k0))


#: One snapshot's psi, mask and wrap phase, as the reference residual takes them.
Field = namedtuple("Field", "psi mask wrap_phase")


def _ref_residual(grid, fields, times, rates):
    """One triple at a time, over per-snapshot Fields."""
    if len(fields) < 3:
        raise ValueError("need >= 3 snapshots for a centered psi_t")
    worst = 0.0
    for m in range(1, len(fields) - 1):
        mask = fields[m - 1].mask & fields[m].mask & fields[m + 1].mask
        mask = mask & np.roll(mask, 1) & np.roll(mask, -1)
        if grid.kind != "periodic":
            mask[:2] = False
            mask[-2:] = False
        if not np.any(mask):
            continue
        psi = fields[m].psi
        psi_t = (fields[m + 1].psi - fields[m - 1].psi) / (times[m + 1] - times[m - 1])
        if grid.kind == "periodic":
            twist = np.exp(1j * fields[m].wrap_phase)
            padded = np.concatenate((psi[-1:] / twist, psi, psi[:1] * twist))
            psi_ss = second_difference(padded) / (grid.h * grid.h)
        else:
            psi_ss = deriv(psi, grid, 2)
        res = psi_t / 1j - psi_ss - 0.5 * np.abs(psi) ** 2 * psi - rates[m] * psi
        worst = float(np.maximum(worst, np.abs(res[mask]).max()))
    return worst


def _ref_series(series):
    fields, rates = [], []
    for snap in series.snapshots:
        kappa, tau, mask = _ref_frenet(snap, series.grid)
        psi, wrap = _ref_psi(kappa, tau, mask, series.grid)
        fields.append(Field(psi, mask.copy(), wrap))
        rates.append(_ref_rate(kappa, tau, mask, series.grid))
    return _ref_residual(series.grid, fields, series.times, rates)


def _ref_diagnostics(series):
    """What ``diagnose`` prints: the reference residual, then the final snapshot's numbers alone."""
    residual = _ref_series(series)
    kappa, tau, mask = _ref_frenet(series.final().values, series.grid)
    psi, _ = _ref_psi(kappa, tau, mask, series.grid)
    return {
        "kappa_mean": float(np.mean(kappa[mask])) if mask.any() else 0.0,
        "tau_mean": float(np.mean(tau[mask])) if mask.any() else 0.0,
        "psi_abs_max": float(np.max(np.abs(psi))),
        "gauge_rate": _ref_rate(kappa, tau, mask, series.grid),
        "nls_residual": residual,
    }


def _outcome(fn, *args):
    """repr of the returned float or dict (exact, NaN and -0.0 included), or the error's message."""
    try:
        result = fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"
    return repr(result if isinstance(result, dict) else float(result))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


BATCH_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def synthetic_series(draw, kind, count=st.integers(3, 6)):
    """Unit tangents on any grid kind, each snapshot with its own bends.

    The polar angle is a bump ``a max(0, sin(p(u - u0)))^3`` over a base
    angle; a base of 0 leaves a straight stretch where the mask is empty
    (wrapping around a periodic grid when the bump sits across its ends),
    and p = 2 makes two curved blocks, a fragmented mask.
    """
    n = draw(st.integers(12, 40))
    if kind == "whole":
        n |= 1
    grid = Grid(kind, draw(st.sampled_from([1.0, np.pi, 5.0])), n)
    u = 2.0 * np.pi * (grid.nodes() - grid.s_min) / (grid.length - grid.s_min)
    base = draw(st.sampled_from([0.0, 0.3]))
    lobes = draw(st.sampled_from([1, 1, 1, 1, 2]))
    # off a periodic grid a bump across the ends would be two blocks
    u0 = draw(st.floats(0.0, (2.0 if kind == "periodic" else 1.0) * np.pi))
    m = draw(count)
    series = TimeSeries(grid, m, SimConfig())
    t = 0.0
    for _ in range(m):
        a = draw(st.floats(0.2, 1.2))
        b, c = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
        shift = draw(st.sampled_from([0.0, 0.0, 0.4]))  # a mask that moves between snapshots
        theta = base + a * np.maximum(0.0, np.sin(lobes * (u - u0 - shift))) ** 3
        phi = b * np.sin(u) + c * np.cos(2.0 * u)
        v = np.stack((np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)), axis=1)
        series.record(t, VectorField(grid, v))
        t += draw(st.sampled_from([0.01, 0.025, 0.1]))
    return series


def _check_against_reference(series, nan_at=None):
    """The stacked pass, the series residual and diagnostics, and the stacked residual, float for float.

    Each snapshot's column of the stacked Frenet samples, psi, wrap and rate
    is held to the reference run on that snapshot alone, as is ``frenet``.
    ``nan_at`` picks a rate (modulo the count) that the stacked residual gets as NaN.
    """
    grid = series.grid
    kappa, tau, mask = stacked(series.snapshots, series.grid)
    rates = _gauge_rates(kappa, tau, mask, grid)
    fields, mapped = [], []
    for j, snap in enumerate(series.snapshots):
        want = _ref_frenet(snap, grid)
        for got in (frenet(snap, grid), (kappa[:, j], tau[:, j], mask[:, j])):
            assert all(_same_bits(a, b) for a, b in zip(got, want))
        assert repr(rates[j]) == repr(_ref_rate(*want, grid))
        try:
            psi, wrap = _ref_psi(*want, grid)
        except ValueError:
            continue
        fields.append(Field(psi, want[2], wrap))
        mapped.append(j)
    if len(mapped) < len(series.snapshots):
        with pytest.raises(ValueError, match="curvature mask is not contiguous"):
            _psi(kappa, tau, mask, grid)
    if mapped:
        # the columns whose mask is one block, all of them unless the check above raised
        psi, wraps = _psi(kappa[:, mapped], tau[:, mapped], mask[:, mapped], grid)
        for j, field in enumerate(fields):
            assert _same_bits(psi[:, j], field.psi) and repr(float(wraps[j])) == repr(field.wrap_phase)
    if len(series.snapshots) < 3:
        # the count is checked before the masks
        want = "ValueError: need >= 3 snapshots for a centered psi_t"
        assert _outcome(series_nls_residual, series) == _outcome(series_diagnostics, series) == want
    else:
        assert _outcome(series_nls_residual, series) == _outcome(_ref_series, series)
        assert _outcome(series_diagnostics, series) == _outcome(_ref_diagnostics, series)
    # the stacked residual takes no count check of its own: fewer than 3 is the series' case
    if len(fields) == len(series.snapshots) >= 3:
        if nan_at is not None and len(rates) > 2:
            rates[nan_at % len(rates)] = np.nan
        times = series.times
        got = _outcome(_residual, grid, psi, mask, wraps, times, rates)
        assert got == _outcome(_ref_residual, grid, fields, times, rates)


class TestStackedIsPerSnapshot:
    @pytest.mark.parametrize("kind", ["periodic", "half", "whole"])
    @BATCH_SETTINGS
    @given(data=st.data(), nan_at=st.one_of(st.none(), st.integers(0, 5)))
    def test_synthetic_series(self, kind, data, nan_at):
        _check_against_reference(data.draw(synthetic_series(kind)), nan_at)

    @pytest.mark.parametrize("kind", ["periodic", "half", "whole"])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_short_series(self, kind, data):
        _check_against_reference(data.draw(synthetic_series(kind, st.integers(1, 2))))

    def test_underflowing_phase_keeps_the_sign_of_zero(self):
        # a torsion whose trapezoid sum is a negative subnormal: kappa times
        # the phase's sine underflows, and the zero's sign follows the
        # operand order, so psi must take kappa first as kappa * exp(1j * phase)
        grid = Grid.whole_line(1.0, 9)
        kappa = np.full(grid.n, 1e-3)
        tau = np.zeros(grid.n)
        tau[1] = -8e-323
        mask = np.ones(grid.n, dtype=bool)
        phase = cumtrapz(tau, grid.h)
        assert np.all(phase[1:] < 0.0) and np.all(np.abs(phase) < 1e-320)
        got = _psi(kappa[:, None], tau[:, None], mask[:, None], grid)[0][:, 0]
        want = _ref_psi(kappa, tau, mask, grid)[0]
        assert np.all(np.signbit(want[1:].imag)) and np.all(want[1:].imag == 0.0)
        assert _same_bits(got, want)

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _run(family, scheme, n):
        fam = HelixFamily() if family == "helix" else RingFamily(0.5)
        g = Grid.periodic(np.pi if family == "helix" else fam.period(), n)
        return solve_whole_line(fam.sample(g), SimConfig(t_final=0.02, scheme=scheme, snapshot_every=2))

    @pytest.mark.parametrize("scheme", [RK4_PROJECT, MIDPOINT_FIXEDPOINT])
    @pytest.mark.parametrize("family", ["helix", "ring"])
    def test_runs(self, family, scheme):
        series = self._run(family, scheme, 48)
        assert len(series.snapshots) >= 3
        assert math.isfinite(series_nls_residual(series))
        _check_against_reference(series)
        _check_against_reference(series, nan_at=1)

    @BATCH_SETTINGS
    @given(
        st.sampled_from(["helix", "ring"]),
        st.sampled_from([RK4_PROJECT, MIDPOINT_FIXEDPOINT]),
        st.integers(0, 47),
        st.integers(1, 20),
        st.lists(st.lists(st.integers(0, 47), max_size=3), min_size=11, max_size=11),
    )
    def test_runs_with_wrapping_gaps(self, family, scheme, start, width, holes):
        # a gap in every mask that may wrap past the last node, plus
        # single-node holes of each snapshot's own: masked neighbours drop out
        series = self._run(family, scheme, 48)
        grid = series.grid
        kappa, tau, mask = stacked(series.snapshots, series.grid)
        mask[(start + np.arange(width)) % 48] = False
        psi, wraps = _psi(kappa, tau, mask, grid)
        rates = _gauge_rates(kappa, tau, mask, grid)
        for j in range(len(series.snapshots)):
            mask[holes[j], j] = False
        fields = [Field(psi[:, j], mask[:, j], float(wraps[j])) for j in range(len(series.snapshots))]
        times = series.times
        got = _outcome(_residual, grid, psi, mask, wraps, times, rates)
        assert got == _outcome(_ref_residual, grid, fields, times, rates)

    def test_straight_run_warns_once(self, caplog):
        g = Grid.periodic(2.0 * np.pi, 64)
        series = solve_whole_line(get_family("straight").sample(g), SimConfig(t_final=0.05, snapshot_every=4))
        with caplog.at_level("WARNING", logger="filamentlab.hasimoto"):
            assert repr(series_nls_residual(series)) == repr(_ref_series(series)) == "0.0"
        messages = [r.message for r in caplog.records]
        assert messages == [
            "curvature below floor everywhere; psi is the zero field",
            "empty mask throughout; residual reported as 0",
        ]
