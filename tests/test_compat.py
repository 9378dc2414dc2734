"""Compatibility conditions and the builtin families."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import filamentlab
from filamentlab.compat import (
    HelixFamily,
    RingFamily,
    check_compat,
    decimated,
    get_family,
    parse_family_spec,
)
from filamentlab.errors import (
    GridMismatch,
    GridTooSmall,
    SpacingOutOfRange,
    UnknownFamily,
)
from filamentlab.evolve import SimConfig, solve_half_space
from filamentlab.geometry import Grid, VectorField, row_norms, second_difference
from filamentlab.reflect import extend, restrict

#: The gate's tolerance: the default of simulate's tolerances.compat and check's --tol.
TOL = SimConfig.compat_tol


class TestFamilies:
    def test_all_families_unit_length(self):
        rng = np.random.default_rng(5)
        s = rng.uniform(-3.0, 3.0, size=50)
        for name in ("straight", "planar_odd", "planar_bad", "helix", "ring"):
            fam = get_family(name)
            v = fam.tangent(s)
            assert np.allclose(np.sum(v * v, axis=1), 1.0, atol=1e-12), name

    def test_planar_odd_angle_derivative_at_zero(self, sympy_derivative):
        # alpha = a s exp(-s^2): alpha'(0) = a, so dv/ds(0) = (a, 0, 0)
        d = [float(fn(0.0, 0.7)) for fn in sympy_derivative("planar_odd", 1)]
        assert np.allclose(d, [0.7, 0.0], atol=1e-14)

    def test_planar_bad_second_angle_derivative(self, sympy_derivative):
        # alpha = (a s + s^2) exp(-s^2): alpha''(0) = 2, the planted violation
        d2 = float(sympy_derivative("planar_bad", 2)[0](0.0, 0.5))
        # v'' (0) = (alpha'' cos a - alpha'^2 sin a, 0, ...) with alpha(0)=0
        assert d2 == pytest.approx(2.0, abs=1e-12)

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

    def test_rotating_wave_tangents_are_their_closed_forms_bitwise(self):
        # (a cos qs, a sin qs, c) and (-sin s/r, cos s/r, 0) in the operation
        # order of the closed forms, including the sign of 0.0: the phase is
        # +0.0 at s = -0.0 and, with q < 0, at s = 0.0
        s = np.concatenate((np.linspace(-7.0, 7.0, 1001), [0.0, -0.0]))
        for a, c, q in [(0.6, 0.8, 2.0), (0.8, 0.6, 3.0), (1.0, 0.0, -1.5)]:
            phase = q * s + 0.0
            want = np.column_stack((a * np.cos(phase), a * np.sin(phase), np.full_like(s, c)))
            assert HelixFamily(a, c, q).tangent(s).tobytes() == want.tobytes()
        assert not np.signbit(HelixFamily(1.0, 0.0, -1.5).tangent(np.array([0.0, -0.0]))).any()
        for r in (0.5, 1.0, 2.7):
            phase = s * (1.0 / r) + 0.0
            want = np.column_stack((-np.sin(phase), np.cos(phase), np.zeros_like(s)))
            assert RingFamily(r).tangent(s).tobytes() == want.tobytes()

    def test_helix_exact_solves_the_flow(self):
        # centred time difference of exact vs v x v_ss at t = 0: error O(dt^2)
        s = np.random.default_rng(31).uniform(-5.0, 5.0, size=64)
        fam = HelixFamily(0.6, 0.8, 2.0)
        v_ss = -4.0 * np.column_stack((0.6 * np.cos(2.0 * s), 0.6 * np.sin(2.0 * s), 0.0 * s))
        flow = np.cross(fam.exact(s, 0.0), v_ss)
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

    @pytest.mark.parametrize(
        "spec, length, fits",
        [
            ("ring:r=0.5", np.pi, True),
            ("ring:r=0.5", 3.0 * np.pi, True),
            ("ring:r=0.5", np.pi * (1.0 + 5e-10), True),  # within 1e-9 relative
            ("ring:r=0.5", np.pi * (1.0 + 2e-9), False),
            ("ring:r=0.5", 0.5 * np.pi, False),
            ("ring:r=0.5", 3.0, False),
            ("helix:k=-2", np.pi, True),  # the period is 2 pi / |k|
            ("helix:k=1.5", 2.0 * np.pi, False),
            ("helix:k=0", 3.0, True),  # constant: every length fits
            ("straight", 3.0, True),
            # a period of at most 2 h is aliased: k = 1e300 once ran on noise and exited 0
            ("helix:k=1e300", 2.0 * np.pi, GridTooSmall),
            ("helix:k=16", 2.0 * np.pi, GridTooSmall),  # period 2 h exactly
            ("helix:k=15", 2.0 * np.pi, True),
        ],
    )
    def test_periodic_sample_needs_whole_periods(self, spec, length, fits):
        # a ring on a length of 3 once ran with a kink at the wrap-around and exited 0
        fam = parse_family_spec(spec)
        grid = Grid.periodic(length, 32)
        if fits is True:
            assert fam.sample(grid).grid == grid
        else:
            # False: not a whole number of periods, a length error
            match = f"has period .* got length {length!r}$"
            with pytest.raises(fits or SpacingOutOfRange, match=match):
                fam.sample(grid)

    def test_off_period_length_is_a_spacing_error(self):
        # its own type, so a command names its length option; still a ValueError
        with pytest.raises(SpacingOutOfRange) as info:
            parse_family_spec("helix:k=1.5").sample(Grid.periodic(2.0 * np.pi, 32))
        assert isinstance(info.value, ValueError)
        assert str(info.value) == (
            "family 'helix' has period 4.1887902047863905; a periodic grid must hold "
            "a whole number of periods, got length 6.283185307179586"
        )

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
        report = check_compat(fam.sample(g.refined()), 2, TOL)
        assert report.passed
        assert all(r == 0.0 for r in report.a_residuals)
        assert report.norm_residual == 0.0

    def test_constant_tilt_order_zero_residual(self):
        # v0 = (sin 0.1, 0, cos 0.1): |v0(0) - e3| = 2 sin(0.05)
        g = Grid.half_line(10.0, 65)
        th = 0.1
        vals = np.tile([np.sin(th), 0.0, np.cos(th)], (65, 1))
        report = check_compat(VectorField(g, vals), 0, TOL)
        assert report.a_residuals[0] == pytest.approx(2.0 * math.sin(0.05), rel=1e-12)
        assert not report.passed
        assert report.failed_orders() == [0]

    def test_planar_odd_passes_to_order_two(self):
        fam = get_family("planar_odd", a=0.5)
        g = Grid.half_line(20.0, 257)
        report = check_compat(fam.sample(g.refined()), 2, TOL)
        assert report.refined
        assert report.passed
        assert report.failed_orders() == []

    def test_planar_bad_fails_order_one(self):
        fam = get_family("planar_bad", a=0.5)
        g = Grid.half_line(20.0, 257)
        report = check_compat(fam.sample(g.refined()), 1, TOL)
        assert not report.passed
        assert 1 in report.failed_orders()
        assert 0 not in report.failed_orders()
        # residual |v0 x v0''|(0) = alpha''(0) = 2 plus the a-term cross part
        assert report.a_residuals[1] > 1.0

    def test_planar_bad_residual_does_not_contract(self):
        fam = get_family("planar_bad", a=0.5)
        g = Grid.half_line(20.0, 257)
        report = check_compat(fam.sample(g.refined()), 1, TOL)
        coarse = report.a_residuals_coarse[1]
        fine = report.a_residuals[1]
        assert fine > 0.8 * coarse  # converging to a nonzero constant

    def test_planar_odd_residual_contracts(self):
        fam = get_family("planar_odd", a=0.5)
        g = Grid.half_line(20.0, 257)
        report = check_compat(fam.sample(g.refined()), 2, TOL)
        for rc, rf in zip(report.a_residuals_coarse[1:], report.a_residuals[1:]):
            assert rf <= 0.35 * rc or rf <= report.tol

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.05, 2.0),
        st.floats(2.0, 20.0),
        st.integers(15, 1025),
        st.integers(0, 2),
    )
    # a coarse draw whose order-1 residual passes only by the two-grid cross-check
    @example(0.5, 20.0, 65, 1)
    def test_report_holds_a_false_only_when_it_fails(self, a, length, n, order):
        report = check_compat(
            get_family("planar_odd", a=a).sample(Grid.half_line(length, n).refined()), order, TOL
        )
        assert ("false" in json.dumps(report.to_dict())) == (not report.passed)

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
        r0 = check_compat(v0, 2, TOL)
        r1 = check_compat(v_rot, 2, TOL)
        assert np.allclose(r0.a_residuals, r1.a_residuals, atol=1e-12)

    def test_extension_round_trip_preserves_report(self):
        fam = get_family("planar_odd", a=0.5)
        g = Grid.half_line(20.0, 129)
        v0 = fam.sample(g)
        back = restrict(extend(v0))
        r0 = check_compat(v0, 2, TOL)
        r1 = check_compat(back, 2, TOL)
        assert r0.a_residuals == r1.a_residuals

    @pytest.mark.parametrize("n", [14, 15, 16, 17])
    def test_cross_check_against_decimation_from_15_nodes(self, n):
        # every other node from s = 0, an even count losing its last: a grid from n = 15
        v0 = get_family("planar_odd", a=0.5).sample(Grid.half_line(20.0, n))
        assert check_compat(v0, 1, TOL).refined == (n >= 15)
        if n >= 15:
            coarse = decimated(v0)
            assert coarse.grid.n == (n + 1) // 2
            assert coarse.grid.h == pytest.approx(2.0 * v0.grid.h, rel=1e-15)
            assert np.array_equal(coarse.values, v0.values[::2])

    @pytest.mark.parametrize("grid", [Grid.whole_line(20.0, 129), Grid.periodic(20.0, 128)])
    def test_half_line_data_only(self, grid):
        # the decimation keeps s = 0 only on a half line
        with pytest.raises(GridMismatch, match=f"half-line data, not on a {grid.kind} grid"):
            check_compat(get_family("straight").sample(grid), 1, TOL)

    def test_order_too_high(self):
        g = Grid.half_line(10.0, 65)
        with pytest.raises(ValueError, match="order must be at least 0 and at most 2, got 3"):
            check_compat(get_family("straight").sample(g), 3, TOL)

    def test_non_unit_field_rejected(self):
        g = Grid.half_line(10.0, 65)
        vals = np.tile([0.0, 0.0, 1.3], (65, 1))
        with pytest.raises(ValueError, match="not a tangent field"):
            check_compat(VectorField(g, vals), 1, TOL)

    def test_report_dict_round_trips_through_json(self):
        fam = get_family("planar_odd", a=0.5)
        g = Grid.half_line(20.0, 129)
        report = check_compat(fam.sample(g.refined()), 1, TOL)
        blob = json.dumps(report.to_dict(), sort_keys=True)
        assert json.loads(blob)["passed"] is True


# ---------------------------------------------------------------------------
# the planar families against their symbolic definition


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["planar_odd", "planar_bad"]),
    st.integers(100_000, 2_000_000).map(lambda m: m / 1e6),
    arrays(np.float64, st.integers(1, 32), elements=st.floats(-4.0, 4.0)),
)
def test_planar_derivatives_match_sympy(sympy_derivative, name, a, s):
    # the tangent is the symbolic definition's lambdified code, bit for bit
    got = get_family(name, a=a).tangent(s)
    assert not got[:, 1].any()
    for column, ref_fn in zip((0, 2), sympy_derivative(name, 0)):
        assert got[:, column].tobytes() == ref_fn(s, a).tobytes()


def test_cold_start_does_not_import_sympy():
    code = (
        "import sys\n"
        "import filamentlab\n"
        "grid = filamentlab.Grid.half_line(20.0, 129)\n"
        "tol = filamentlab.SimConfig.compat_tol\n"
        "for name in ('planar_odd', 'planar_bad'):\n"
        "    fam = filamentlab.get_family(name, a=0.5)\n"
        "    filamentlab.check_compat(fam.sample(grid.refined()), 2, tol)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy')[:5])\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(filamentlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class _AnglePlanar:
    """v0 = (sin alpha, 0, cos alpha) with alpha = p(s) exp(-s^2): any p, not only the builtins'."""

    def __init__(self, p):
        self.p = p

    def sample(self, grid):
        s = grid.nodes()
        alpha = self.p(s) * np.exp(-s * s)
        return VectorField(grid, np.column_stack((np.sin(alpha), np.zeros_like(s), np.cos(alpha))))


def _ghost_closed_vss(v, h):
    """v_ss at every node but the clamped far one, closed at s = 0 by the ghost -bar(v(h))."""
    return second_difference(np.concatenate((v[1:2] * [-1.0, -1.0, 1.0], v))) / (h * h)


def _successive_ratios(finals):
    """Ratios of max |fine - coarse| on the coarse nodes, each level against the next."""
    gaps = [np.max(row_norms(fine[::2] - coarse)) for coarse, fine in zip(finals, finals[1:])]
    return [a / b for a, b in zip(gaps, gaps[1:])]


@pytest.mark.parametrize(
    "p, verdicts, second_order",
    [
        (lambda s: 0.5 * s, [True, True, True], True),
        (lambda s: 0.5 * s + s**2, [True, False, False], False),
        (lambda s: 0.5 * s + s**4, [True, True, False], True),
    ],
    ids=["odd", "order-1-broken", "order-2-broken"],
)
def test_what_each_compatibility_order_buys(p, verdicts, second_order):
    # half line, L = 20, t = 0.25, RK4 at its default step.  Compatible data and
    # data that break only order 2 converge at second order in v and in v_ss;
    # breaking order 1 costs v its rate and v_ss nearly all of its convergence.
    fam = _AnglePlanar(p)
    cfg = SimConfig(t_final=0.25, strict=False, check_order=2)
    runs = [solve_half_space(fam, Grid.half_line(20.0, n), cfg) for n in (129, 257, 513, 1025)]
    assert runs[-1].report.a_pass == verdicts
    v = [run.final().values for run in runs]
    vss = [_ghost_closed_vss(values, run.grid.h) for values, run in zip(v, runs)]
    v_ratios, vss_ratios = _successive_ratios(v), _successive_ratios(vss)
    if second_order:
        assert all(3.5 <= r <= 4.5 for r in v_ratios + vss_ratios), (v_ratios, vss_ratios)
    else:
        assert all(r < 2.0 for r in vss_ratios), vss_ratios
        assert v_ratios[-1] < 3.5, v_ratios
