"""Vector algebra, grids, and finite-difference stencils."""

import numpy as np
import pytest

from filamentlab.errors import DegenerateVector, GridTooSmall, SpacingOutOfRange
from filamentlab.geometry import (
    E3,
    K_MAX,
    STENCILS,
    Grid,
    VectorField,
    cross,
    deriv,
    normalize_field,
    one_sided_deriv_at_zero,
)


def test_cross_canonical_basis():
    assert np.allclose(cross([1.0, 0, 0], [0, 1.0, 0]), [0, 0, 1.0])


def test_cross_self_vanishes():
    a = np.array([0.3, -1.2, 2.5])
    assert np.allclose(cross(a, a), 0.0)


def test_cross_hand_expansion():
    # determinant expansion of (0.6, 0, 0.8) x (0, 1, 0)
    assert np.allclose(cross([0.6, 0, 0.8], [0, 1.0, 0]), [-0.8, 0, 0.6])


def test_cross_antisymmetric_and_bilinear():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b, c = rng.normal(size=(3, 3))
        lam = rng.normal()
        assert np.allclose(cross(a, b), -cross(b, a), atol=1e-15)
        assert np.allclose(
            cross(a, lam * b + c), lam * cross(a, b) + cross(a, c), atol=1e-12
        )


class TestGrid:
    def test_half_line(self):
        g = Grid.half_line(10.0, 11)
        assert g.h == 1.0
        assert g.nodes()[0] == 0.0
        assert g.center == 0

    def test_whole_line_center(self):
        g = Grid.whole_line(5.0, 11)
        assert g.center == 5
        assert g.nodes()[5] == 0.0

    def test_periodic_spacing(self):
        g = Grid.periodic(2.0 * np.pi, 16)
        assert g.h == pytest.approx(2.0 * np.pi / 16)

    def test_too_small(self):
        with pytest.raises(GridTooSmall):
            Grid.half_line(1.0, 4)

    def test_length_error_is_a_spacing_error(self):
        # its own type, so a command names its length option; still a ValueError
        with pytest.raises(SpacingOutOfRange) as info:
            Grid("half", np.inf, 8)
        assert isinstance(info.value, ValueError)
        assert str(info.value) == "grid length must be a finite number above 0, got inf"

    def test_whole_needs_odd(self):
        with pytest.raises(ValueError):
            Grid.whole_line(1.0, 10)

    def test_refined_nests(self):
        g = Grid.half_line(10.0, 33)
        f = g.refined()
        assert f.n == 65
        assert np.allclose(f.nodes()[::2], g.nodes())


def test_deriv_constant_is_zero():
    g = Grid.half_line(1.0, 21)
    values = np.tile(E3, (21, 1))
    assert np.allclose(deriv(values, g, 1), 0.0)
    assert np.allclose(deriv(values, g, 2), 0.0)


def test_deriv_linear_ramp_exact():
    g = Grid.half_line(2.0, 21)
    assert np.allclose(deriv(3.0 * g.nodes() - 1.0, g, 1), 3.0, atol=1e-13)


def test_deriv_cubic_interior_exact():
    # central second difference is exact through cubics
    g = Grid.half_line(2.0, 21)
    s = g.nodes()
    expected = 6.0 * s - 4.0
    got = deriv(s**3 - 2.0 * s**2 + s, g, 2)
    assert np.allclose(got[1:-1], expected[1:-1], atol=1e-10)


@pytest.mark.parametrize("order", [1, 2])
def test_deriv_second_order_convergence(order):
    errs = []
    for n in (64, 128):
        g = Grid.periodic(2.0 * np.pi, n)
        s = g.nodes()
        exact = np.cos(s) if order == 1 else -np.sin(s)
        errs.append(np.max(np.abs(deriv(np.sin(s), g, order) - exact)))
    ratio = errs[0] / errs[1]
    assert 3.0 <= ratio <= 5.0


def test_deriv_edges_second_order():
    errs = []
    for n in (65, 129):
        g = Grid.half_line(2.0, n)
        s = g.nodes()
        errs.append(np.max(np.abs(deriv(np.sin(s), g, 1) - np.cos(s))))
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_stencil_table_holds_the_correctly_rounded_weights():
    import sympy

    # k + 2 nodes for compat (k = 1..4), k + 4 for the s <= 0 side of the jump residual
    assert set(STENCILS) == {(k, k + 2) for k in range(1, 5)} | {(k, k + 4) for k in range(1, 4)}
    assert K_MAX == max(k for k, _ in STENCILS) == 4
    for (k, p), weights in STENCILS.items():
        exact = sympy.finite_diff_weights(k, list(range(p)), 0)[k][-1]
        # Python's int / int is the correctly rounded quotient
        assert list(weights) == [int(w.p) / int(w.q) for w in exact], (k, p)


class TestOneSidedDeriv:
    def test_order_zero_is_trace(self):
        g = Grid.half_line(1.0, 16)
        rng = np.random.default_rng(3)
        field = VectorField(g, rng.normal(size=(16, 3)))
        assert np.array_equal(one_sided_deriv_at_zero(field, 0), field.values[0])

    def test_constant_field_higher_orders(self):
        g = Grid.half_line(1.0, 16)
        field = VectorField(g, np.tile(E3, (16, 1)))
        for k in (1, 2, 3, 4):
            assert np.allclose(one_sided_deriv_at_zero(field, k), 0.0, atol=1e-9)

    def test_linear_angle_first_derivative(self):
        # v = (sin s, 0, cos s): dv/ds(0) = (1, 0, 0)
        errs = []
        for n in (65, 129):
            g = Grid.half_line(1.0, n)
            s = g.nodes()
            field = VectorField(g, np.stack([np.sin(s), 0 * s, np.cos(s)], axis=1))
            d = one_sided_deriv_at_zero(field, 1)
            errs.append(np.linalg.norm(d - np.array([1.0, 0.0, 0.0])))
        assert errs[1] < errs[0] / 3.0

    def test_against_symbolic_family_derivatives(self, sympy_derivative):
        from filamentlab.compat import get_family

        fam = get_family("planar_odd", a=0.5)
        exact = {}
        for k in range(1, 5):
            sin, cos = (float(fn(0.0, 0.5)) for fn in sympy_derivative("planar_odd", k))
            exact[k] = np.array([sin, 0.0, cos])
        prev = None
        for n in (129, 257, 513):
            g = Grid.half_line(10.0, n)
            field = fam.sample(g)
            errs = [
                np.linalg.norm(one_sided_deriv_at_zero(field, k) - exact[k])
                for k in range(1, 5)
            ]
            if prev is not None:
                for e_coarse, e_fine in zip(prev, errs):
                    assert e_fine < 0.6 * e_coarse + 1e-12
            prev = errs

    def test_order_too_high(self):
        g = Grid.half_line(1.0, 16)
        field = VectorField(g, np.tile(E3, (16, 1)))
        with pytest.raises(ValueError, match="derivative order 5 exceeds k_max=4"):
            one_sided_deriv_at_zero(field, 5)

    def test_stencil_does_not_fit(self):
        g = Grid.half_line(1.0, 8)
        field = VectorField(g, np.tile(E3, (8, 1)))
        with pytest.raises(GridTooSmall):
            one_sided_deriv_at_zero(field, 4, points=9)


class TestNormalize:
    def test_rescales(self):
        out = normalize_field(np.tile([0.0, 0.0, 2.0], (8, 1)))
        assert np.allclose(out, E3)

    def test_exact_value(self):
        out = normalize_field(np.tile([1.0, 1.0, 0.0], (8, 1)))
        r = 1.0 / np.sqrt(2.0)
        assert np.allclose(out, [r, r, 0.0])

    def test_idempotent_to_roundoff(self):
        rng = np.random.default_rng(11)
        once = normalize_field(rng.normal(size=(32, 3)) + 2.0)
        twice = normalize_field(once)
        assert np.max(np.abs(twice - once)) < 1e-15

    def test_degenerate_raises(self):
        vals = np.tile(E3, (8, 1))
        vals[3] = [0.01, 0.0, 0.0]
        with pytest.raises(DegenerateVector):
            normalize_field(vals)


def test_field_rejects_nan():
    g = Grid.half_line(1.0, 8)
    vals = np.tile(E3, (8, 1))
    vals[0, 0] = np.nan
    with pytest.raises(ValueError):
        VectorField(g, vals)
