"""Curvature/torsion extraction and the complex-field diagnostics."""

import numpy as np
import pytest

from filamentlab.compat import HelixFamily, RingFamily, get_family
from filamentlab.errors import InsufficientSnapshots, MaskFragmented
from filamentlab.evolve import SimConfig, solve_whole_line
from filamentlab.geometry import Grid
from filamentlab.hasimoto import (
    FrenetData,
    HasimotoField,
    frenet,
    gauge_rate,
    hasimoto_psi,
    nls_residual,
    series_nls_residual,
)


class TestFrenet:
    def test_helix_curvature_and_torsion(self):
        # (a cos ks, a sin ks, c): kappa = a k = 1.2, tau = c k = 1.6
        fam = HelixFamily(0.6, 0.8, 2.0)
        g = Grid.periodic(2.0 * np.pi, 256)
        f = frenet(fam.sample(g))
        assert f.mask.all()
        assert np.max(np.abs(f.kappa - 1.2)) < 5e-3
        assert np.max(np.abs(f.tau - 1.6)) < 5e-3

    def test_helix_frenet_second_order(self):
        fam = HelixFamily(0.6, 0.8, 2.0)
        errs = []
        for n in (128, 256):
            g = Grid.periodic(2.0 * np.pi, n)
            f = frenet(fam.sample(g))
            errs.append(np.max(np.abs(f.kappa - 1.2)) + np.max(np.abs(f.tau - 1.6)))
        assert 3.0 <= errs[0] / errs[1] <= 5.0

    def test_ring_is_planar(self):
        fam = RingFamily(0.5)
        g = Grid.periodic(fam.period(), 256)
        f = frenet(fam.sample(g))
        assert np.max(np.abs(f.kappa - 2.0)) < 1e-2
        assert np.max(np.abs(f.tau)) < 1e-8

    def test_straight_masks_everything(self):
        fam = get_family("straight")
        g = Grid.periodic(2.0 * np.pi, 64)
        f = frenet(fam.sample(g))
        assert not f.mask.any()


class TestPsi:
    def test_modulus_equals_curvature(self):
        fam = HelixFamily()
        g = Grid.periodic(2.0 * np.pi, 128)
        f = frenet(fam.sample(g))
        hf = hasimoto_psi(f)
        assert np.allclose(np.abs(hf.psi[hf.mask]), f.kappa[hf.mask], atol=1e-14)

    def test_phase_slope_is_torsion(self):
        fam = HelixFamily(0.6, 0.8, 2.0)
        g = Grid.periodic(2.0 * np.pi, 256)
        hf = hasimoto_psi(frenet(fam.sample(g)))
        phase = np.unwrap(np.angle(hf.psi))
        slope = np.polyfit(g.nodes(), phase, 1)[0]
        assert slope == pytest.approx(1.6, abs=5e-3)

    def test_wrap_phase_is_total_torsion(self):
        # one period of the helix carries total torsion 2 pi tau
        fam = HelixFamily(0.6, 0.8, 2.0)
        g = Grid.periodic(2.0 * np.pi, 256)
        hf = hasimoto_psi(frenet(fam.sample(g)))
        assert hf.wrap_phase == pytest.approx(2.0 * np.pi * 1.6, rel=1e-3)

    def test_straight_gives_zero_field_with_warning(self, caplog):
        fam = get_family("straight")
        g = Grid.periodic(2.0 * np.pi, 64)
        with caplog.at_level("WARNING", logger="filamentlab.hasimoto"):
            hf = hasimoto_psi(frenet(fam.sample(g)))
        assert np.array_equal(hf.psi, np.zeros(64, dtype=complex))
        assert any("zero field" in r.message for r in caplog.records)

    def test_fragmented_mask_raises(self):
        g = Grid.whole_line(5.0, 21)
        mask = np.zeros(21, dtype=bool)
        mask[2:5] = True
        mask[10:15] = True
        f = FrenetData(g, np.ones(21), np.zeros(21), mask)
        with pytest.raises(MaskFragmented):
            hasimoto_psi(f)

    def test_periodic_wraparound_mask_allowed(self):
        g = Grid.periodic(2.0 * np.pi, 20)
        mask = np.ones(20, dtype=bool)
        mask[8:12] = False  # one gap -> one wrap-around block
        f = FrenetData(g, np.ones(20), np.zeros(20), mask)
        hasimoto_psi(f)  # must not raise


class TestGaugeRate:
    def test_helix_closed_form(self):
        # kappa, tau constant: R = -(-tau^2 + kappa^2 / 2) = c^2 k^2 - a^2 k^2 / 2
        fam = HelixFamily(0.6, 0.8, 2.0)
        g = Grid.periodic(2.0 * np.pi, 256)
        rate = gauge_rate(frenet(fam.sample(g)))
        assert rate == pytest.approx(0.64 * 4.0 - 0.5 * 0.36 * 4.0, abs=5e-2)

    def test_ring_closed_form(self):
        # tau = 0: R = -kappa^2 / 2
        fam = RingFamily(0.5)
        g = Grid.periodic(fam.period(), 256)
        rate = gauge_rate(frenet(fam.sample(g)))
        assert rate == pytest.approx(-2.0, abs=5e-2)

    def test_empty_mask_rate_zero(self):
        fam = get_family("straight")
        g = Grid.periodic(2.0 * np.pi, 64)
        assert gauge_rate(frenet(fam.sample(g))) == 0.0


class TestNlsResidual:
    def test_needs_three_snapshots(self):
        fam = HelixFamily()
        g = Grid.periodic(2.0 * np.pi, 64)
        hf = hasimoto_psi(frenet(fam.sample(g)))
        with pytest.raises(InsufficientSnapshots):
            nls_residual([hf, hf], [0.0, 0.1], [0.0, 0.0])

    def test_global_phase_invariance(self):
        # multiplying every snapshot by the same unit phase changes nothing
        fam = HelixFamily()
        g = Grid.periodic(2.0 * np.pi, 96)
        series = solve_whole_line(fam.sample(g), SimConfig(t_final=0.05))
        psis, rates = [], []
        for snap in series.snapshots:
            f = frenet(snap)
            psis.append(hasimoto_psi(f))
            rates.append(gauge_rate(f))
        base = nls_residual(psis, series.times, rates)
        from dataclasses import replace

        rot = [replace(p, psi=p.psi * np.exp(0.37j)) for p in psis]
        assert nls_residual(rot, series.times, rates) == pytest.approx(base, rel=1e-10)

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
            psis = []
            for t in times:
                psi = np.exp(1j * (g.nodes() - t))
                if t == times[-1]:
                    psi[planted] = 1e6
                psis.append(HasimotoField(g, psi, mask))
            return nls_residual(psis, times, [0.0] * len(times))

        base = residual([])
        assert residual([0, 1, 14, 16, 30, 31]) == base
        assert residual([2]) > 1e6  # node 2 is read

    def test_gauge_term_is_essential(self):
        # dropping the rates leaves an O(1) remainder on the helix
        fam = HelixFamily()
        g = Grid.periodic(2.0 * np.pi, 128)
        series = solve_whole_line(fam.sample(g), SimConfig(t_final=0.05))
        psis = [hasimoto_psi(frenet(s)) for s in series.snapshots]
        without = nls_residual(psis, series.times, [0.0] * len(psis))
        assert without > 1.0

    def test_straight_run_residual_zero(self, caplog):
        fam = get_family("straight")
        g = Grid.periodic(2.0 * np.pi, 64)
        series = solve_whole_line(fam.sample(g), SimConfig(t_final=0.05))
        with caplog.at_level("WARNING", logger="filamentlab.hasimoto"):
            assert series_nls_residual(series) == 0.0
