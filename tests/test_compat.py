"""Compatibility conditions, diagnostics, and the builtin families."""

import functools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import filamentlab
from filamentlab.compat import (
    HelixFamily,
    RingFamily,
    check_compat,
    get_family,
    parse_family_spec,
)
from filamentlab.errors import GridMismatch, NotUnitField, OrderTooHigh, UnknownFamily
from filamentlab.geometry import Grid, VectorField
from filamentlab.reflect import extend, restrict


class TestFamilies:
    def test_all_families_unit_length(self):
        rng = np.random.default_rng(5)
        s = rng.uniform(-3.0, 3.0, size=50)
        for name in ("straight", "planar_odd", "planar_bad", "helix", "ring"):
            fam = get_family(name)
            v = fam.tangent(s)
            assert np.allclose(np.sum(v * v, axis=1), 1.0, atol=1e-12), name

    def test_symbolic_derivatives_match_finite_difference(self):
        # analytic derivative vs. centered difference of the closed form
        rng = np.random.default_rng(17)
        s = rng.uniform(0.2, 2.0, size=12)
        eps = 1e-5
        for name in ("planar_odd", "planar_bad", "helix", "ring"):
            fam = get_family(name)
            for k in (1, 2, 3):
                num = (fam.derivative(s + eps, k - 1) - fam.derivative(s - eps, k - 1)) / (
                    2.0 * eps
                )
                assert np.allclose(fam.derivative(s, k), num, rtol=1e-5, atol=1e-5), (
                    name,
                    k,
                )

    def test_planar_odd_angle_derivative_at_zero(self):
        # alpha = a s exp(-s^2): alpha'(0) = a, so dv/ds(0) = (a, 0, 0)
        fam = get_family("planar_odd", a=0.7)
        d = fam.derivative(np.array([0.0]), 1)[0]
        assert np.allclose(d, [0.7, 0.0, 0.0], atol=1e-14)

    def test_planar_bad_second_angle_derivative(self):
        # alpha = (a s + s^2) exp(-s^2): alpha''(0) = 2, the planted violation
        fam = get_family("planar_bad", a=0.5)
        d2 = fam.derivative(np.array([0.0]), 2)[0]
        # v'' (0) = (alpha'' cos a - alpha'^2 sin a, 0, ...) with alpha(0)=0
        assert d2[0] == pytest.approx(2.0, abs=1e-12)

    def test_helix_needs_unit_amplitude(self):
        with pytest.raises(ValueError):
            get_family("helix", a=0.5, c=0.5)

    def test_helix_exact_starts_at_tangent(self):
        s = np.random.default_rng(29).uniform(-5.0, 5.0, size=64)
        fam = HelixFamily(0.6, 0.8, 2.0)
        assert fam.exact(s, 0.0).tobytes() == fam.tangent(s).tobytes()

    @pytest.mark.parametrize("a, c, k", [(0.6, 0.8, 2.0), (0.8, 0.6, 3.0)])
    @pytest.mark.parametrize("t", [0.1, 0.5])
    def test_helix_exact_is_the_rotating_wave(self, a, c, k, t):
        s = Grid.periodic(2.0 * np.pi / k, 64).nodes()
        phase = k * s - c * k * k * t
        wave = np.column_stack((a * np.cos(phase), a * np.sin(phase), np.full_like(s, c)))
        assert np.max(np.abs(HelixFamily(a, c, k).exact(s, t) - wave)) <= 1e-14

    @pytest.mark.parametrize("k", range(6))
    def test_rotating_wave_derivatives_are_their_closed_forms_bitwise(self, k):
        # k-th derivatives of (a cos qs, a sin qs, c) and (-sin s/r, cos s/r, 0),
        # in the operation order of the closed forms, including the sign of 0.0
        s = np.concatenate((np.linspace(-7.0, 7.0, 1001), [0.0, -0.0]))
        shift = k * np.pi / 2.0
        for a, c, q in [(0.6, 0.8, 2.0), (0.8, 0.6, 3.0), (1.0, 0.0, -1.5)]:
            want = np.column_stack(
                (
                    a * q**k * np.cos(q * s + shift),
                    a * q**k * np.sin(q * s + shift),
                    np.full_like(s, c if k == 0 else 0.0),
                )
            )
            assert HelixFamily(a, c, q).derivative(s, k).tobytes() == want.tobytes()
        for r in (0.5, 1.0, 2.7):
            w = 1.0 / r
            want = np.column_stack(
                (-(w**k) * np.sin(s * w + shift), w**k * np.cos(s * w + shift), np.zeros_like(s))
            )
            assert RingFamily(r).derivative(s, k).tobytes() == want.tobytes()

    def test_helix_exact_solves_the_flow(self):
        # centred time difference of exact vs v x v_ss at t = 0: error O(dt^2)
        s = np.random.default_rng(31).uniform(-5.0, 5.0, size=64)
        fam = HelixFamily(0.6, 0.8, 2.0)
        flow = np.cross(fam.exact(s, 0.0), fam.derivative(s, 2))
        errs = []
        for dt in (1e-2, 5e-3):
            v_t = (fam.exact(s, dt) - fam.exact(s, -dt)) / (2.0 * dt)
            errs.append(float(np.max(np.abs(v_t - flow))))
        assert errs[0] < 1e-3
        assert 3.9 <= errs[0] / errs[1] <= 4.1

    def test_ring_period(self):
        fam = get_family("ring", r=2.5)
        assert fam.period() == pytest.approx(5.0 * np.pi)

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            get_family("trefoil")

    @pytest.mark.parametrize(
        "name, params, bad, accepted",
        [
            ("planar_odd", {"A": 5.0}, "A", "a"),
            ("planar_bad", {"a": 0.5, "c2": 0.0}, "c2", "a"),
            ("helix", {"kk": 7.0}, "kk", "a, c, k"),
            ("ring", {"radius": 2.0}, "radius", "r"),
            ("straight", {"a": 1.0}, "a", "none"),
        ],
    )
    def test_unknown_parameter_rejected(self, name, params, bad, accepted):
        # a misspelt parameter was once dropped and the default sampled
        with pytest.raises(UnknownFamily, match=f"no parameter {bad}; accepted: {accepted}$"):
            get_family(name, **params)

    @pytest.mark.parametrize(
        "name, params, bad",
        [
            ("ring", {"r": 0.0}, "r must be above 0"),
            ("ring", {"r": -1.0}, "r must be above 0"),
            ("ring", {"r": math.nan}, "r must be finite"),
            ("helix", {"a": math.nan, "c": 0.8}, "a must be finite"),
            ("planar_odd", {"a": math.inf}, "a must be finite"),
        ],
    )
    def test_bad_parameter_value_rejected(self, name, params, bad):
        # ring:r=0 once died in derivative on 1/r, and r=-1 ran
        with pytest.raises(ValueError, match=f"^family '{name}' parameter {bad}, got"):
            get_family(name, **params)

    @pytest.mark.parametrize(
        "make, name, key",
        [
            (lambda: HelixFamily(a=math.nan), "helix", "a"),
            (lambda: HelixFamily(k=math.inf), "helix", "k"),
            (lambda: RingFamily(r=math.inf), "ring", "r"),
        ],
        ids=["helix-a-nan", "helix-k-inf", "ring-r-inf"],
    )
    def test_direct_construction_obeys_the_parameter_rule(self, make, name, key):
        # the finiteness rule once lived in get_family only
        with pytest.raises(ValueError, match=f"^family '{name}' parameter {key} must be finite"):
            make()

    def test_parse_family_spec(self):
        fam = parse_family_spec("planar_odd:a=0.25")
        assert fam.name == "planar_odd"
        assert fam.params["a"] == 0.25
        assert parse_family_spec("straight").name == "straight"
        with pytest.raises(UnknownFamily):
            parse_family_spec("planar_odd:a")

    def test_sample_shape(self):
        g = Grid.half_line(10.0, 33)
        v0 = get_family("planar_odd", a=0.5).sample(g)
        assert v0.values.shape == (33, 3)
        assert v0.grid == g

    @pytest.mark.parametrize(
        "name, grid",
        [
            ("ring", Grid.half_line(10.0, 33)),
            ("planar_odd", Grid.periodic(10.0, 32)),
            ("helix", Grid.half_line(10.0, 33)),
        ],
    )
    def test_sample_rejects_grid_kind_outside_family_kinds(self, name, grid):
        fam = get_family(name)
        with pytest.raises(GridMismatch, match=f"{name}.*{grid.kind}"):
            fam.sample(grid)

    @pytest.mark.parametrize("name, c2", [("planar_odd", 0.0), ("planar_bad", 1.0)])
    def test_planar_parameter_used_exactly(self, name, c2):
        # a has 16 significant digits; a 15-digit rounding of it changes the samples
        a = 1.0 / 3.0
        grid = Grid.half_line(20.0, 512)
        s = grid.nodes()
        alpha = (a * s + c2 * s**2) * np.exp(-(s**2))
        v = get_family(name, a=a).sample(grid).values
        assert v[:, 0].tobytes() == np.sin(alpha).tobytes()
        assert v[:, 2].tobytes() == np.cos(alpha).tobytes()


class TestCheckCompat:
    def test_straight_passes_exactly(self):
        g = Grid.half_line(10.0, 65)
        fam = get_family("straight")
        report = check_compat(fam.sample(g), 2, resampler=fam.sample)
        assert report.passed
        assert all(r == 0.0 for r in report.a_residuals)
        assert report.norm_residual == 0.0

    def test_constant_tilt_order_zero_residual(self):
        # v0 = (sin 0.1, 0, cos 0.1): |v0(0) - e3| = 2 sin(0.05)
        g = Grid.half_line(10.0, 65)
        th = 0.1
        vals = np.tile([np.sin(th), 0.0, np.cos(th)], (65, 1))
        report = check_compat(VectorField(g, vals), 0)
        assert report.a_residuals[0] == pytest.approx(2.0 * math.sin(0.05), rel=1e-12)
        assert not report.passed
        assert report.failed_orders() == [0]

    def test_planar_odd_passes_to_order_two(self):
        fam = get_family("planar_odd", a=0.5)
        g = Grid.half_line(20.0, 257)
        report = check_compat(fam.sample(g), 2, resampler=fam.sample)
        assert report.refined
        assert report.passed
        assert report.failed_orders() == []

    def test_planar_bad_fails_order_one(self):
        fam = get_family("planar_bad", a=0.5)
        g = Grid.half_line(20.0, 257)
        report = check_compat(fam.sample(g), 1, resampler=fam.sample)
        assert not report.passed
        assert 1 in report.failed_orders()
        assert 0 not in report.failed_orders()
        # residual |v0 x v0''|(0) = alpha''(0) = 2 plus the a-term cross part
        assert report.a_residuals[1] > 1.0

    def test_planar_bad_residual_does_not_contract(self):
        fam = get_family("planar_bad", a=0.5)
        g = Grid.half_line(20.0, 257)
        report = check_compat(fam.sample(g), 1, resampler=fam.sample)
        coarse = report.a_residuals_coarse[1]
        fine = report.a_residuals[1]
        assert fine > 0.8 * coarse  # converging to a nonzero constant

    def test_planar_odd_residual_contracts(self):
        fam = get_family("planar_odd", a=0.5)
        g = Grid.half_line(20.0, 257)
        report = check_compat(fam.sample(g), 2, resampler=fam.sample)
        for rc, rf in zip(report.a_residuals_coarse[1:], report.a_residuals[1:]):
            assert rf <= 0.35 * rc or rf <= report.tol

    def test_diagnostics_flag_planar_bad(self):
        # |v0| = 1 holds identically, yet v' . v'' (0) = alpha' alpha'' = a * 2
        fam = get_family("planar_bad", a=0.5)
        g = Grid.half_line(20.0, 257)
        report = check_compat(fam.sample(g), 1, resampler=fam.sample)
        assert report.d_residuals[(1, 2)] == pytest.approx(1.0, rel=0.05)
        assert not report.d_pass[(1, 2)]

    def test_rotation_about_wall_normal_invariance(self):
        # conditions are covariant under rotations fixing e3
        fam = get_family("planar_odd", a=0.5)
        g = Grid.half_line(20.0, 129)
        v0 = fam.sample(g)
        th = 0.8
        rot = np.array(
            [
                [np.cos(th), -np.sin(th), 0.0],
                [np.sin(th), np.cos(th), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        v_rot = VectorField(g, v0.values @ rot.T)
        r0 = check_compat(v0, 2)
        r1 = check_compat(v_rot, 2)
        assert np.allclose(r0.a_residuals, r1.a_residuals, atol=1e-12)

    def test_extension_round_trip_preserves_report(self):
        fam = get_family("planar_odd", a=0.5)
        g = Grid.half_line(20.0, 129)
        v0 = fam.sample(g)
        back = restrict(extend(v0))
        r0 = check_compat(v0, 2)
        r1 = check_compat(back, 2)
        assert r0.a_residuals == r1.a_residuals

    def test_order_too_high(self):
        g = Grid.half_line(10.0, 65)
        with pytest.raises(OrderTooHigh):
            check_compat(get_family("straight").sample(g), 3)

    def test_non_unit_field_rejected(self):
        g = Grid.half_line(10.0, 65)
        vals = np.tile([0.0, 0.0, 1.3], (65, 1))
        with pytest.raises(NotUnitField):
            check_compat(VectorField(g, vals), 1)

    def test_report_dict_round_trips_through_json(self):
        import json

        fam = get_family("planar_odd", a=0.5)
        g = Grid.half_line(20.0, 129)
        report = check_compat(fam.sample(g), 1, resampler=fam.sample)
        blob = json.dumps(report.to_dict(), sort_keys=True)
        assert json.loads(blob)["passed"] is True


# ---------------------------------------------------------------------------
# the planar families against their symbolic definition


@functools.lru_cache(maxsize=None)
def _sympy_derivative(name: str, k: int):
    """Lambdified d^k/ds^k of (sin alpha, cos alpha) as a function of (s, a).

    sympy applies the chain rule to sin and cos of an opaque A(s), and then
    puts in alpha and its own derivatives: the same derivative in a third of
    the time of differentiating the composite k times.
    """
    import sympy as sp

    s, a = sp.symbols("s a", real=True)
    poly = a * s if name == "planar_odd" else a * s + s**2
    alpha = poly * sp.exp(-(s**2))
    opaque = sp.Function("A")(s)
    inner = {sp.Derivative(opaque, (s, j)): sp.diff(alpha, s, j) for j in range(k, 0, -1)}
    return [
        sp.lambdify((s, a), sp.diff(f(opaque), s, k).subs(inner).subs(opaque, alpha), "numpy")
        for f in (sp.sin, sp.cos)
    ]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["planar_odd", "planar_bad"]),
    st.integers(100_000, 2_000_000).map(lambda m: m / 1e6),
    arrays(np.float64, st.integers(1, 32), elements=st.floats(-4.0, 4.0)),
    st.integers(0, 8),
)
def test_planar_derivatives_match_sympy(name, a, s, k):
    # k = 0 bit for bit; k >= 1 relative to the size of d^k v on [-4, 4]: where
    # d^k v is small, both float evaluations carry rounding from terms as large
    # as its peak (pointwise relative gaps reach 7e-12 at k = 8)
    pytest.importorskip("sympy")
    got = get_family(name, a=a).derivative(s, k)
    assert not got[:, 1].any()
    for column, ref_fn in zip((0, 2), _sympy_derivative(name, k)):
        ref = ref_fn(s, a)
        if k == 0:
            assert got[:, column].tobytes() == ref.tobytes()
        else:
            size = np.max(np.abs(ref_fn(np.linspace(-4.0, 4.0, 801), a)))
            assert np.max(np.abs(got[:, column] - ref)) <= 1e-13 * max(1.0, size)


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("a", [0.5, 1.3])
@pytest.mark.parametrize("name", ["planar_odd", "planar_bad"])
def test_planar_derivatives_match_sympy_on_a_fixed_grid(name, a, k):
    # every order on 801 nodes across [-4, 4], at the tolerance of the test
    # above: an error in one order shows on every run, not only on the draws
    # that reach where that order is large
    pytest.importorskip("sympy")
    s = np.linspace(-4.0, 4.0, 801)
    got = get_family(name, a=a).derivative(s, k)
    for column, ref_fn in zip((0, 2), _sympy_derivative(name, k)):
        ref = ref_fn(s, a)
        size = np.max(np.abs(ref))
        assert np.max(np.abs(got[:, column] - ref)) <= 1e-13 * max(1.0, size)


def test_cold_start_does_not_import_sympy():
    code = (
        "import sys\n"
        "import filamentlab\n"
        "grid = filamentlab.Grid.half_line(20.0, 129)\n"
        "for name in ('planar_odd', 'planar_bad'):\n"
        "    fam = filamentlab.get_family(name, a=0.5)\n"
        "    filamentlab.check_compat(fam.sample(grid), 2, resampler=fam.sample)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy')[:5])\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(filamentlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
