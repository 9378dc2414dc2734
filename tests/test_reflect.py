"""Reflection conjugation, the involution T, extension, and jump residuals."""

import numpy as np
import pytest

from filamentlab.compat import get_family
from filamentlab.errors import GridNotSymmetric
from filamentlab.geometry import E3, Grid, VectorField, row_norms
from filamentlab.reflect import (
    _NEGBAR,
    apply_T,
    derivative_jump_residual,
    extend,
    restrict,
    symmetry_residual,
)


class TestBar:
    """bar(w) = (w1, w2, -w3), as the sign pattern ``_NEGBAR`` of -bar carries it."""

    def test_flips_third_component(self):
        assert np.array_equal(-(np.array([1.0, 2.0, 3.0]) * _NEGBAR), [1.0, 2.0, -3.0])

    def test_involution(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(20, 3))
        assert np.array_equal(w * _NEGBAR * _NEGBAR, w)

    def test_preserves_norm(self):
        rng = np.random.default_rng(4)
        u = VectorField(Grid.whole_line(3.0, 21), rng.normal(size=(21, 3)))
        # bitwise: a sign flip leaves every square as it was
        assert np.array_equal(row_norms(u.values * _NEGBAR), u.norms())
        assert np.array_equal(apply_T(u).norms(), u.norms()[::-1])


class TestApplyT:
    def test_fixes_constant_e3(self):
        g = Grid.whole_line(5.0, 21)
        u = VectorField(g, np.tile(E3, (21, 1)))
        assert np.array_equal(apply_T(u).values, u.values)

    def test_closed_form(self):
        # w(s) = (cos s, 0, sin s): w(-s) = (cos s, 0, -sin s), so
        # (Tw)(s) = -bar(w(-s)) = (-cos s, 0, -sin s)
        g = Grid.whole_line(2.0, 41)
        s = g.nodes()
        u = VectorField(g, np.stack([np.cos(s), 0 * s, np.sin(s)], axis=1))
        out = apply_T(u).values
        assert np.allclose(out[:, 0], -np.cos(s), atol=1e-15)
        assert np.allclose(out[:, 2], -np.sin(s), atol=1e-15)

    def test_involution_bitwise(self):
        rng = np.random.default_rng(9)
        g = Grid.whole_line(3.0, 31)
        u = VectorField(g, rng.normal(size=(31, 3)))
        assert np.array_equal(apply_T(apply_T(u)).values, u.values)

    def test_rejects_half_grid(self):
        g = Grid.half_line(3.0, 16)
        u = VectorField(g, np.tile(E3, (16, 1)))
        with pytest.raises(GridNotSymmetric):
            apply_T(u)


class TestExtend:
    def test_restriction_is_bitwise_exact(self):
        fam = get_family("planar_odd", a=0.5)
        v0 = fam.sample(Grid.half_line(10.0, 65))
        ext = extend(v0)
        assert ext.grid.n == 129
        back = restrict(ext)
        assert back.grid == v0.grid
        assert np.array_equal(back.values, v0.values)

    def test_extension_is_T_fixed_bitwise(self):
        fam = get_family("planar_odd", a=0.5)
        ext = extend(fam.sample(Grid.half_line(10.0, 65)))
        assert symmetry_residual(ext) == 0.0

    def test_T_fixed_even_for_incompatible_data(self):
        # T-fixedness is a property of the construction, not of the data
        fam = get_family("planar_bad", a=0.5)
        ext = extend(fam.sample(Grid.half_line(10.0, 65)))
        assert symmetry_residual(ext) == 0.0

    def test_matches_closed_form_on_negative_axis(self):
        # alpha odd => extending the samples equals sampling the closed
        # form at negative s with the (-1,-1,+1) mirror
        fam = get_family("planar_odd", a=0.5)
        g = Grid.half_line(10.0, 65)
        ext = extend(fam.sample(g))
        s_neg = ext.grid.nodes()[: ext.grid.center]
        direct = fam.tangent(-s_neg) * np.array([-1.0, -1.0, 1.0])
        assert np.allclose(ext.values[: ext.grid.center], direct, atol=1e-13)

    def test_preserves_unit_norm_exactly(self):
        fam = get_family("planar_odd", a=0.5)
        v0 = fam.sample(Grid.half_line(10.0, 65))
        assert extend(v0).unit_deviation() == v0.unit_deviation()

    def test_rejects_whole_grid(self):
        g = Grid.whole_line(3.0, 21)
        u = VectorField(g, np.tile(E3, (21, 1)))
        with pytest.raises(GridNotSymmetric):
            extend(u)


def test_symmetry_residual_detects_asymmetry():
    fam = get_family("helix")
    g = Grid.whole_line(np.pi, 129)
    u = fam.sample(g)
    assert symmetry_residual(u) > 0.1


class TestJumpResiduals:
    def test_constant_field_all_orders_zero(self):
        g = Grid.half_line(5.0, 65)
        ext = extend(VectorField(g, np.tile(E3, (65, 1))))
        for k in range(4):
            assert derivative_jump_residual(ext, k) < 1e-10

    def test_compatible_extension_jumps_shrink(self):
        fam = get_family("planar_odd", a=0.5)
        res = {k: [] for k in (1, 2, 3)}
        for n in (129, 257):
            ext = extend(fam.sample(Grid.half_line(10.0, n)))
            for k in res:
                res[k].append(derivative_jump_residual(ext, k))
        for k, (coarse, fine) in res.items():
            assert fine < 0.5 * coarse, k

    def test_incompatible_second_jump_is_twice_alpha_pp(self):
        # planar_bad: alpha''(0) = 2, odd reflection doubles it -> jump 4
        fam = get_family("planar_bad", a=0.5)
        ext = extend(fam.sample(Grid.half_line(10.0, 513)))
        assert derivative_jump_residual(ext, 2) == pytest.approx(4.0, abs=0.2)

    def test_incompatible_jump_does_not_shrink(self):
        fam = get_family("planar_bad", a=0.5)
        vals = [
            derivative_jump_residual(
                extend(fam.sample(Grid.half_line(10.0, n))), 2
            )
            for n in (129, 257, 513)
        ]
        assert max(vals) - min(vals) < 0.1 * max(vals)
