"""Time stepping, invariants of the discrete flow, and the half-space solve."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from filamentlab.cli import EXIT_OK, main
from filamentlab.compat import HelixFamily, check_compat, get_family
from filamentlab.errors import (
    CompatibilityRejected,
    DegenerateVector,
    DurationOutOfRange,
    FarFieldViolation,
    FixedPointDiverged,
    NonFiniteState,
    SpacingOutOfRange,
    StabilityViolated,
    StepOutOfRange,
)
from filamentlab import evolve
from filamentlab.evolve import (
    MAX_STEPS,
    MIDPOINT_FIXEDPOINT,
    RK4_PROJECT,
    SLOPE_START_FACTOR,
    STABILITY_FACTOR,
    TELEMETRY_KEYS,
    SimConfig,
    StepLog,
    TimeSeries,
    _step_rk4,
    bending_energy,
    farfield_deviation,
    pack,
    rhs,
    solve_half_space,
    solve_whole_line,
    step,
)
from filamentlab.geometry import (
    E3,
    HALF,
    KINDS,
    PERIODIC,
    Grid,
    VectorField,
    normalize_field,
    row_norms,
)
from filamentlab.harness import ENERGY_DRIFT_TOL, energy_drift
from filamentlab.reflect import extend, restrict


def _constant_e3(grid):
    return VectorField(grid, np.tile(E3, (grid.n, 1)))


class TestRhs:
    def test_straight_is_fixed_point(self, node_rhs):
        u = _constant_e3(Grid.periodic(2.0 * np.pi, 64))
        assert np.array_equal(node_rhs(u, u.values), np.zeros((64, 3)))

    def test_helix_closed_form(self, node_rhs):
        # v x v_ss for (a cos ks, a sin ks, c) is c k^2 a (sin ks, -cos ks, 0)
        a, c, k = 0.6, 0.8, 2.0
        g = Grid.periodic(2.0 * np.pi, 256)
        s = g.nodes()
        fam = HelixFamily(a, c, k)
        u = fam.sample(g)
        got = node_rhs(u, u.values) / (g.h * g.h)
        expect = np.stack(
            [c * k * k * a * np.sin(k * s), -c * k * k * a * np.cos(k * s), 0.0 * s],
            axis=1,
        )
        assert np.max(np.abs(got - expect)) < 1e-2  # O(h^2), h ~ 0.0245

    def test_helix_rhs_converges(self, node_rhs):
        a, c, k = 0.6, 0.8, 2.0
        fam = HelixFamily(a, c, k)
        errs = []
        for n in (128, 256):
            g = Grid.periodic(2.0 * np.pi, n)
            s = g.nodes()
            expect = np.stack(
                [
                    c * k * k * a * np.sin(k * s),
                    -c * k * k * a * np.cos(k * s),
                    0.0 * s,
                ],
                axis=1,
            )
            u = fam.sample(g)
            errs.append(np.max(np.abs(node_rhs(u, u.values) / (g.h * g.h) - expect)))
        assert 3.0 <= errs[0] / errs[1] <= 5.0

    def test_edges_clamped_on_whole_grid(self, node_rhs):
        fam = get_family("planar_odd", a=0.5)
        ext = extend(fam.sample(Grid.half_line(10.0, 65)))
        out = node_rhs(ext, ext.values)
        assert np.array_equal(out[0], [0.0, 0.0, 0.0])
        assert np.array_equal(out[-1], [0.0, 0.0, 0.0])


class TestConfig:
    @pytest.mark.parametrize(
        "dt, t_final, nsteps", [(0.0009, 16.065, 17850), (0.00025, 8.05, 32200)]
    )
    def test_step_count_drops_an_empty_last_step(self, dt, t_final, nsteps):
        # t_final / dt rounds above the count by more than the 1e-12 slack, so
        # the count once came out one higher, with a last step of length 0.0
        cfg = SimConfig(dt=dt, t_final=t_final)
        assert cfg.schedule(1.0)[1] == nsteps
        assert t_final - (nsteps - 1) * dt > 0.0

    def test_default_dt(self):
        cfg = SimConfig()
        assert cfg.resolve_dt(0.1) == pytest.approx(6.5e-3)

    def test_stability_guard(self):
        cfg = SimConfig(dt=0.5)
        with pytest.raises(StabilityViolated):
            cfg.resolve_dt(0.1)
        cap = STABILITY_FACTOR[RK4_PROJECT] * 0.1 * 0.1
        assert cap == pytest.approx(0.65 * 0.01)
        assert SimConfig(dt=cap).resolve_dt(0.1) == cap
        with pytest.raises(StabilityViolated):
            SimConfig(dt=math.nextafter(cap, 1.0)).resolve_dt(0.1)

    def test_sampling_resolves_as_simulated_time(self):
        # unset: every 5 h^2 of simulated time; set: a count of steps
        assert SimConfig().schedule(0.1)[2:] == (8, 8)
        assert SimConfig(scheme=MIDPOINT_FIXEDPOINT).schedule(0.1)[2:] == (20, 20)
        assert SimConfig(dt=0.002).schedule(0.1)[2:] == (25, 25)
        assert SimConfig(snapshot_every=7).schedule(0.1)[2:] == (7, 8)
        # RK4 pinned at 0.5 h^2 (its default 0.65 h^2 makes 5 h^2 no whole
        # number of steps): two step lengths, one sampling time
        g = Grid.periodic(2.0 * np.pi, 64)
        times = [
            solve_whole_line(
                HelixFamily().sample(g), SimConfig(t_final=0.2, dt=f * g.h * g.h, scheme=scheme)
            ).times
            for scheme, f in ((RK4_PROJECT, 0.5), (MIDPOINT_FIXEDPOINT, 0.25))
        ]
        assert len(times[0]) > 3
        assert times[0] == pytest.approx(times[1], rel=1e-12)

    def test_step_count_cap(self):
        # 0.5 is a power of two: t_final / dt is 2^31 exactly, the most a run takes
        cap = SimConfig(dt=0.5, t_final=MAX_STEPS * 0.5)
        assert cap.schedule(1.0)[:2] == (0.5, MAX_STEPS)
        over = SimConfig(dt=0.5, t_final=math.nextafter(MAX_STEPS * 0.5, math.inf))
        with pytest.raises(DurationOutOfRange, match=r"2\.15e\+09 steps of dt=0\.5 .* 2147483648"):
            over.schedule(1.0)

    @pytest.mark.parametrize(
        "cfg, h, error",
        [
            # one time unit fits the cap: t_final is at fault, even at a count that overflows
            (SimConfig(t_final=1e12), 0.15625, DurationOutOfRange),
            (SimConfig(t_final=1e308), 0.15625, DurationOutOfRange),
            (SimConfig(t_final=1e12, dt=1e-3), 1.0, DurationOutOfRange),
            # else a set dt is, and else the spacing behind the default dt
            (SimConfig(t_final=1.0, dt=1e-10), 1.0, StepOutOfRange),
            (SimConfig(t_final=1.0), 1e-6, SpacingOutOfRange),
        ],
    )
    def test_step_cap_names_the_input_at_fault(self, cfg, h, error):
        with pytest.raises(error, match=" steps of dt=.* exceed the cap of 2147483648"):
            cfg.schedule(h)

    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            SimConfig(scheme="euler")

    def test_bad_t_final(self):
        with pytest.raises(ValueError):
            SimConfig(t_final=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dt", -0.001),
            ("dt", 0.0),
            ("dt", math.nan),
            ("dt", math.inf),
            ("t_final", math.inf),
            ("t_final", math.nan),
            ("snapshot_every", 0),
            ("monitor_every", 0),
            ("check_order", -1),
            ("check_order", 3),
            *[
                (tol, value)
                for tol in ("tol_boundary", "fp_tol", "compat_tol", "farfield_tol")
                for value in (math.nan, math.inf, 0.0, -1e-6)
            ],
        ],
    )
    def test_bad_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            SimConfig(**{field: value})


class TestDefaultStep:
    """RK4 steps at its stability cap unless dt is set."""

    def test_time_error_against_a_fine_step(self):
        # measured 2.26e-8; the spatial error at n = 513 alone is 3.9e-4
        fam = get_family("planar_odd", a=0.5)
        grid = Grid.half_line(20.0, 257)
        finals = [
            solve_half_space(fam, grid, SimConfig(dt=dt)).final().values
            for dt in (None, 0.05 * grid.h * grid.h)
        ]
        assert np.max(row_norms(finals[0] - finals[1])) < 1e-7

    @pytest.mark.parametrize(
        "name, params, grid, t_final",
        [
            ("planar_bad", {"a": 2.0}, Grid.half_line(20.0, 65), 0.5),
            ("planar_bad", {"a": 2.0}, Grid.half_line(20.0, 129), 0.5),
            ("planar_bad", {"a": 2.0}, Grid.half_line(20.0, 257), 0.5),
            ("ring", {"r": 0.5}, Grid.periodic(np.pi, 64), 1.0),
            ("helix", {}, Grid.periodic(2.0 * np.pi, 64), 1.0),
        ],
        ids=["planar_bad-65", "planar_bad-129", "planar_bad-257", "ring-64", "helix-64"],
    )
    def test_rough_and_periodic_data_stay_stable(self, name, params, grid, t_final):
        # an unstable step grows the energy drift past 1; the largest measured
        # here is 5.2e-3, planar_bad at n = 65
        fam = get_family(name, **params)
        cfg = SimConfig(t_final=t_final, strict=False)
        if grid.kind == "half":
            series = solve_half_space(fam, grid, cfg)
        else:
            series = solve_whole_line(fam.sample(grid), cfg)
        assert series.times[-1] == t_final
        assert energy_drift(series.telemetry)["max"] < 1e-2


class TestStep:
    def test_straight_is_stationary(self):
        g = Grid.periodic(2.0 * np.pi, 64)
        u = _constant_e3(g)
        out = step(u, pack(u.values), 1e-4, SimConfig(), StepLog())
        assert np.array_equal(out[:, 1:-1].T, u.values)

    @staticmethod
    def _count_fields(monkeypatch):
        """A list that grows by one for every VectorField built from here on."""
        built, init = [], VectorField.__init__

        def counting_init(self, grid, values):
            init(self, grid, values)
            built.append(self)

        monkeypatch.setattr(VectorField, "__init__", counting_init)
        return built

    def test_rk4_step_builds_no_field(self, monkeypatch):
        # the stage inputs and the result are plain arrays
        u = HelixFamily().sample(Grid.periodic(2.0 * np.pi, 64))
        v = pack(u.values)
        built = self._count_fields(monkeypatch)
        step(u, v, 1e-4, SimConfig(), StepLog())
        assert len(built) == 0

    def test_midpoint_step_builds_no_field_whatever_its_iterations(self, monkeypatch):
        u = HelixFamily().sample(Grid.periodic(2.0 * np.pi, 64))
        cfg, log = SimConfig(scheme=MIDPOINT_FIXEDPOINT), StepLog()
        v = pack(u.values)
        built = self._count_fields(monkeypatch)
        step(u, v, 1e-4, cfg, log)
        assert log.iters[-1] > 1 and len(built) == 0

    @pytest.mark.parametrize(
        "kind, scheme",
        [(PERIODIC, RK4_PROJECT), (PERIODIC, MIDPOINT_FIXEDPOINT), (HALF, RK4_PROJECT)],
    )
    def test_solve_builds_a_field_only_at_its_samples(self, monkeypatch, kind, scheme):
        # one field per distinct snapshot or telemetry step, shared where both
        # fall on one step, and none on the steps between; a half-line
        # telemetry row builds its extension and restriction on other grids.
        # Each sample is a view of the state block, copied only by record.
        if kind == PERIODIC:
            u0, t_final = HelixFamily().sample(Grid.periodic(2.0 * np.pi, 64)), 0.1
        else:
            u0, t_final = get_family("planar_odd", a=0.5).sample(Grid.half_line(20.0, 65)), 1.0
        cfg = SimConfig(t_final=t_final, scheme=scheme, snapshot_every=3, monitor_every=2)
        built = self._count_fields(monkeypatch)
        nsteps = solve_whole_line(u0, cfg).solver["steps"]
        samples = {k for k in range(1, nsteps + 1) if k % 3 == 0 or k % 2 == 0 or k == nsteps}
        sampled = [u for u in built if u.grid is u0.grid]
        assert nsteps >= 10
        assert len(sampled) == len(samples)
        if kind == PERIODIC:
            assert len(built) == len(samples)
        assert not any(u.values.flags.owndata for u in sampled)

    @pytest.mark.parametrize(
        "scheme, bad_call",
        [(RK4_PROJECT, 4), (MIDPOINT_FIXEDPOINT, 2)],
        ids=["last_rk4_stage", "first_midpoint_iterate"],
    )
    def test_non_finite_value_fails_its_step(self, monkeypatch, scheme, bad_call):
        # rhs call bad_call returns NaN: the last RK4 stage, or the first
        # midpoint iterate after the rhs(u, v) start.  RK4's projection, or
        # the midpoint iteration, raises and names step 1, with no rhs call
        # after the bad value.
        calls = [0]

        def nan_rhs(u, values, _rhs=evolve.rhs):
            calls[0] += 1
            out = _rhs(u, values)
            if calls[0] == bad_call:
                out[1, 4] = np.nan  # node 3, component 2
            return out

        monkeypatch.setattr(evolve, "rhs", nan_rhs)
        u = HelixFamily().sample(Grid.periodic(2.0 * np.pi, 64))
        message = r"^field values must be finite at step 1 of \d+, t = 0$"
        with pytest.raises(NonFiniteState, match=message):
            solve_whole_line(u, SimConfig(t_final=0.05, scheme=scheme))
        assert calls[0] == bad_call

    def test_run_at_the_cap_is_not_rechecked_per_step(self, tmp_path, capsys):
        # resolve_dt is the one guard: a run at dt = cap whose last step comes
        # out 5e-13 above dt by rounding once exited 3 on a per-step check
        h = 20.0 / 64
        dt = STABILITY_FACTOR[RK4_PROJECT] * h * h
        assert dt == 0.0634765625
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "grid.kind = half\ngrid.L = 20.0\ngrid.n = 65\n"
            "data.family = planar_odd:a=0.5\n"
            f"time.dt = {dt!r}\ntime.t_final = {(10 + 5e-13) * dt!r}\n"
        )
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
        assert "numerical failure" not in capsys.readouterr().err

    def test_midpoint_diverges_with_one_iteration(self, monkeypatch):
        monkeypatch.setattr(evolve, "FP_MAX_ITER", 1)
        g = Grid.periodic(2.0 * np.pi, 64)
        fam = HelixFamily()
        cfg = SimConfig(scheme="midpoint_fixedpoint", fp_tol=1e-16)
        u = fam.sample(g)
        with pytest.raises(FixedPointDiverged):
            step(u, pack(u.values), 1e-4, cfg, StepLog())

    def test_failure_names_its_step_and_time(self, monkeypatch):
        calls = [0]

        def failing_on_the_third_call(v, _normalize=evolve.normalize_field):
            calls[0] += 1
            if calls[0] == 3:
                raise DegenerateVector("sample norm 0 below MIN_NORM")
            return _normalize(v)

        monkeypatch.setattr(evolve, "normalize_field", failing_on_the_third_call)
        g = Grid.periodic(2.0 * np.pi, 64)
        cfg = SimConfig(t_final=0.05)
        dt = cfg.resolve_dt(g.h)
        with pytest.raises(DegenerateVector) as info:
            solve_whole_line(HelixFamily().sample(g), cfg)
        nsteps = math.ceil(0.05 / dt)
        assert str(info.value) == (
            f"sample norm 0 below MIN_NORM at step 3 of {nsteps}, t = {2 * dt:.6g}"
        )

    def test_midpoint_conserves_norm_per_step(self):
        g = Grid.periodic(2.0 * np.pi, 64)
        fam = HelixFamily()
        u = fam.sample(g)
        cfg = SimConfig(scheme="midpoint_fixedpoint")
        out = step(u, pack(u.values), 1e-4, cfg, StepLog())
        assert VectorField(g, out[:, 1:-1].T).unit_deviation() < 1e-13


class TestMidpointStart:
    """A midpoint step starts from extrapolated slopes only at dt <= (pi/12) h^2.

    From two slopes the start is linear; from four it is cubic, or linear
    where the cubic one predicted worse at the last comparison of the two,
    made on every START_CHECK_EVERYth four-slope step from the first.
    """

    def _after_two_steps(self, factor):
        u = get_family("planar_odd", a=0.5).sample(Grid.half_line(20.0, 129))
        dt = factor * u.grid.h**2
        cfg = SimConfig(scheme=MIDPOINT_FIXEDPOINT, dt=dt)
        history = StepLog()
        v = pack(u.values)
        for _ in range(2):
            v = step(u, v, dt, cfg, history)
        assert history.rhs_calls == sum(history.iters) + 2  # both started from rhs(u, v)
        return u, v, dt, cfg, history

    def test_extrapolated_start_below_the_bound(self):
        u, v, dt, cfg, history = self._after_two_steps(0.25)
        assert dt <= SLOPE_START_FACTOR * u.grid.h**2
        calls = history.rhs_calls
        step(u, v, dt, cfg, history)
        assert history.rhs_calls - calls == history.iters[-1]

    def test_four_slopes_start_the_cubic_then_the_better_start(self):
        u, v, dt, cfg, history = self._after_two_steps(0.25)
        for _ in range(2):
            v = step(u, v, dt, cfg, history)
        assert len(history.slopes) == 4 and history.cubic
        slopes, calls = history.slopes, history.rhs_calls
        step(u, v, dt, cfg, history)
        assert history.rhs_calls - calls == history.iters[-1]  # no rhs(u)
        assert all(new is old for new, old in zip(history.slopes[:3], slopes[1:], strict=True))
        f = history.slopes[-1]
        cubic = 4.0 * slopes[3] - 6.0 * slopes[2] + 4.0 * slopes[1] - slopes[0]
        linear = 2.0 * slopes[3] - slopes[2]
        assert history.cubic == (np.max(np.abs(f - cubic)) <= np.max(np.abs(f - linear)))

    def test_four_slope_steps_compare_the_starts_every_eighth(self, monkeypatch):
        u, v, dt, cfg, history = self._after_two_steps(0.25)
        for _ in range(2):
            v = step(u, v, dt, cfg, history)
        calls = [0]

        def counting_linear_start(slopes, out, _linear=evolve._linear_start):
            calls[0] += 1
            return _linear(slopes, out)

        monkeypatch.setattr(evolve, "_linear_start", counting_linear_start)
        for _ in range(20):
            v = step(u, v, dt, cfg, history)
            assert history.cubic  # held, so only a comparison builds the linear start
        assert calls[0] == 3  # four-slope steps 1, 9 and 17, not all 20

    def test_above_the_bound_a_step_is_the_rhs_started_one(self):
        u, v, dt, cfg, history = self._after_two_steps(0.3)
        assert dt > SLOPE_START_FACTOR * u.grid.h**2
        calls = history.rhs_calls
        got = step(u, v, dt, cfg, history)
        assert got.tobytes() == step(u, v, dt, cfg, StepLog()).tobytes()
        assert history.rhs_calls - calls == history.iters[-1] + 1


@pytest.fixture(scope="module")
def acceptance_u0():
    """planar_odd on the half line, n = 512: with t = 0.25, the benchmark's run."""
    return get_family("planar_odd", a=0.5).sample(Grid.half_line(20.0, 512))


@pytest.mark.parametrize("scheme", [RK4_PROJECT, MIDPOINT_FIXEDPOINT])
def test_solver_counts_are_the_rhs_calls_made_in_steps(acceptance_u0, monkeypatch, scheme):
    cfg = SimConfig(t_final=0.25, scheme=scheme)
    calls, in_step = [0], [False]

    def counting_rhs(u, values, _rhs=evolve.rhs):
        calls[0] += in_step[0]
        return _rhs(u, values)

    def flagging_step(*args, _step=evolve.step):
        in_step[0] = True
        try:
            return _step(*args)
        finally:
            in_step[0] = False

    monkeypatch.setattr(evolve, "rhs", counting_rhs)
    monkeypatch.setattr(evolve, "step", flagging_step)
    solver = solve_whole_line(acceptance_u0, cfg).solver
    assert solver["steps"] == math.ceil(cfg.t_final / cfg.resolve_dt(acceptance_u0.grid.h))
    assert solver["rhs_calls"] == calls[0]
    if scheme == RK4_PROJECT:
        assert set(solver) == {"steps", "rhs_calls"}
        assert solver["rhs_calls"] == 4 * solver["steps"]
    else:
        # 3.39; 4.63 from the linear start, 5.75 from the Euler start
        assert solver["rhs_calls"] / solver["steps"] <= 3.6
        # only the first two steps, with no history yet, started from rhs(u)
        assert solver["rhs_calls"] == solver["fp_iters_total"] + 2
        assert 1 <= solver["fp_iters_max"] <= evolve.FP_MAX_ITER


def test_noise_slopes_keep_the_linear_start():
    # the ring's tangent field is stationary, so f(m) is roundoff; there the
    # cubic weights amplify noise 15x against the linear start's 3x and the
    # cubic start would take 3.40 rhs calls per step
    fam = get_family("ring", r=0.5)
    v0 = fam.sample(Grid.periodic(fam.period(), 256))
    solver = solve_whole_line(v0, SimConfig(t_final=0.2, scheme=MIDPOINT_FIXEDPOINT)).solver
    assert solver["rhs_calls"] / solver["steps"] <= 2.0  # 1.82


def test_extrapolated_start_keeps_the_solve(acceptance_u0):
    # the start only moves where the iteration stops within fp_tol
    cfg = SimConfig(t_final=0.25, scheme=MIDPOINT_FIXEDPOINT)
    dt = cfg.resolve_dt(acceptance_u0.grid.h)
    nsteps = math.ceil(cfg.t_final / dt - 1e-12)
    u = acceptance_u0
    v = pack(u.values)
    for k in range(1, nsteps + 1):
        v = step(u, v, dt if k < nsteps else cfg.t_final - (nsteps - 1) * dt, cfg, StepLog())
    final = solve_whole_line(acceptance_u0, cfg).final()
    assert np.max(np.abs(final.values - v[:, 1:-1].T)) <= 1e-12


class TestWholeLine:
    def test_helix_tracks_exact_rotating_wave(self):
        a, c, k = 0.6, 0.8, 2.0
        fam = HelixFamily(a, c, k)
        g = Grid.periodic(2.0 * np.pi, 128)
        series = solve_whole_line(fam.sample(g), SimConfig(t_final=0.1))
        exact = fam.exact(g.nodes(), 0.1)
        assert np.max(np.abs(series.final().values - exact)) < 5e-3

    def test_rk4_norm_exact_to_roundoff(self):
        fam = HelixFamily()
        g = Grid.periodic(2.0 * np.pi, 64)
        series = solve_whole_line(fam.sample(g), SimConfig(t_final=0.05))
        assert max(r["norm_dev"] for r in series.telemetry) < 1e-14

    def test_midpoint_norm_conserved(self):
        fam = HelixFamily()
        g = Grid.periodic(2.0 * np.pi, 64)
        cfg = SimConfig(t_final=0.05, scheme="midpoint_fixedpoint")
        series = solve_whole_line(fam.sample(g), cfg)
        assert max(r["norm_dev"] for r in series.telemetry) < 1e-11

    def test_energy_roughly_conserved(self):
        fam = HelixFamily()
        g = Grid.periodic(2.0 * np.pi, 128)
        series = solve_whole_line(fam.sample(g), SimConfig(t_final=0.1))
        energies = [r["energy"] for r in series.telemetry]
        assert abs(energies[-1] - energies[0]) < 1e-3 * abs(energies[0])

    def test_final_time_hit_exactly(self):
        fam = HelixFamily()
        g = Grid.periodic(2.0 * np.pi, 64)
        series = solve_whole_line(fam.sample(g), SimConfig(t_final=0.0731))
        assert series.times[-1] == 0.0731

    def test_deterministic_bitwise(self):
        fam = HelixFamily()
        g = Grid.periodic(2.0 * np.pi, 64)
        cfg = SimConfig(t_final=0.05)
        s1 = solve_whole_line(fam.sample(g), cfg)
        s2 = solve_whole_line(fam.sample(g), cfg)
        assert np.array_equal(s1.final().values, s2.final().values)

    def test_rejects_non_unit_data(self):
        g = Grid.periodic(2.0 * np.pi, 64)
        u = VectorField(g, np.tile([0.0, 0.0, 1.001], (64, 1)))
        with pytest.raises(ValueError, match="initial data must be unit length"):
            solve_whole_line(u, SimConfig(t_final=0.01))


class TestTimeSeries:
    def test_constructor_takes_no_snapshots(self):
        # the constructor once took times and snapshots unchecked, and the
        # writer put the L = 20 s column next to these L = 10 values
        samples = [get_family("planar_odd", a=0.5).sample(Grid.half_line(10.0, 33))] * 2
        with pytest.raises(TypeError):
            TimeSeries(Grid.half_line(20.0, 33), [0.0, 1.0], samples)

    def test_only_record_writes_the_block(self):
        grid = Grid.periodic(2.0 * np.pi, 16)
        series = TimeSeries(grid, 2, SimConfig())
        series.record(0.0, HelixFamily().sample(grid))
        for view in (series.times, series.snapshots):
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 1.0
        with pytest.raises(ValueError, match="increase strictly"):
            series.record(0.0, HelixFamily().sample(grid))
        series.record(0.5, HelixFamily().sample(grid))
        with pytest.raises(IndexError):  # past the capacity
            series.record(1.0, HelixFamily().sample(grid))
        assert series.times.tolist() == [0.0, 0.5]
        assert series.snapshots[1].tobytes() == HelixFamily().sample(grid).values.tobytes()


class TestHalfSpace:
    def test_planar_odd_symmetry_and_boundary_exact(self):
        fam = get_family("planar_odd", a=0.5)
        run = solve_half_space(fam, Grid.half_line(20.0, 129), SimConfig(t_final=0.05))
        for row in run.telemetry:
            assert row["symmetry"] == 0.0
            assert row["boundary"] == 0.0

    def test_telemetry_row_keys_are_the_column_list_in_order(self):
        # telemetry.csv writes its header from TELEMETRY_KEYS, not from the rows
        fam = get_family("planar_odd", a=0.5)
        run = solve_half_space(fam, Grid.half_line(20.0, 129), SimConfig(t_final=0.05))
        assert len(run.telemetry) >= 2
        for row in run.telemetry:
            assert tuple(row) == TELEMETRY_KEYS

    def test_boundary_value_bitwise_e3(self):
        fam = get_family("planar_odd", a=0.5)
        run = solve_half_space(fam, Grid.half_line(20.0, 129), SimConfig(t_final=0.05))
        for snap in run.snapshots:
            assert np.array_equal(snap[0], E3)

    def test_snapshot_grids_and_times_match(self):
        # the ghost-node solve is the whole-line solve of the extension,
        # restricted to s >= 0, bit for bit; compatible or not, either scheme
        for name, scheme in itertools.product(
            ("planar_odd", "planar_bad"), (RK4_PROJECT, MIDPOINT_FIXEDPOINT)
        ):
            fam = get_family(name, a=0.5)
            grid = Grid.half_line(20.0, 129)
            cfg = SimConfig(
                t_final=0.05,
                dt=0.1 * grid.h**2,  # enough steps for > 3 rows at this step cadence
                scheme=scheme,
                strict=False,
                snapshot_every=5,
                monitor_every=7,
            )
            run = solve_half_space(fam, grid, cfg)
            whole = solve_whole_line(extend(VectorField(grid, run.snapshots[0])), cfg)
            assert run.grid == grid
            assert np.array_equal(run.times, whole.times)
            assert run.telemetry == whole.telemetry
            assert len(run.telemetry) > 3
            for half_snap, whole_snap in zip(run.snapshots, whole.snapshots, strict=True):
                assert np.array_equal(half_snap, restrict(VectorField(whole.grid, whole_snap)).values)

    @pytest.mark.parametrize("name", ["planar_odd", "planar_bad"])
    @pytest.mark.parametrize("length, n", itertools.product((20.0, 10.0), (65, 512, 513)))
    def test_decimated_fine_sample_is_the_sample(self, name, length, n):
        # the solve samples at h/2 and evolves the decimation; its data and the gate's
        # coarse level are the family sampled at h, bit for bit, so no verdict moves
        fam = get_family(name, a=0.5)
        grid = Grid.half_line(length, n)
        run = solve_half_space(fam, grid, SimConfig(t_final=1e-6, check_order=2, strict=False))
        assert run.snapshots[0].tobytes() == fam.sample(grid).values.tobytes()
        coarse = check_compat(fam.sample(grid), 2, SimConfig.compat_tol)["a_residuals"]
        assert run.report["a_residuals_coarse"] == coarse

    def test_incompatible_data_rejected(self):
        fam = get_family("planar_bad", a=0.5)
        with pytest.raises(CompatibilityRejected):
            solve_half_space(fam, Grid.half_line(20.0, 129), SimConfig(t_final=0.05))

    def test_non_strict_lets_incompatible_data_run(self):
        fam = get_family("planar_bad", a=0.5)
        cfg = SimConfig(t_final=0.01, strict=False)
        run = solve_half_space(fam, Grid.half_line(20.0, 129), cfg)
        assert not run.report["passed"]
        assert len(run.snapshots) >= 2

    def test_farfield_gate(self):
        # on a short interval the planar profile has not decayed at s = L
        fam = get_family("planar_odd", a=0.5)
        grid = Grid.half_line(2.0, 33)
        assert farfield_deviation(fam.sample(grid)) > 1e-3
        with pytest.raises(FarFieldViolation):
            solve_half_space(fam, grid, SimConfig(t_final=0.01))


def test_bending_energy_helix_value():
    # |v_s|^2 = a^2 k^2 = 1.44 over [0, 2 pi)
    fam = HelixFamily()
    g = Grid.periodic(2.0 * np.pi, 256)
    assert bending_energy(fam.sample(g)) == pytest.approx(
        1.44 * 2.0 * np.pi, rel=1e-3
    )


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(4, 40), data=st.data())
def test_bending_energy_does_not_depend_on_the_layout(kind, n, data):
    # np.sum adds in memory order; a Fortran-ordered copy and a view of the
    # state block, the layout of a solve's samples, give the C-ordered bits
    grid = Grid(kind, 20.0, 2 * n + 1)
    elements = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    values = data.draw(arrays(np.float64, (grid.n, 3), elements=elements))
    layouts = [values, np.asfortranarray(values), pack(values)[:, 1:-1].T]
    energies = [bending_energy(VectorField(grid, a)).hex() for a in layouts]
    assert energies == energies[:1] * 3


@pytest.mark.parametrize("factor, stable", [(0.70, True), (0.72, False)])
def test_rk4_energy_holds_below_its_stability_limit_only(factor, stable):
    # linearised about e3 the spectrum reaches 4/h^2 i and RK4 holds to
    # |lambda dt| = 2 sqrt(2): dt <= 0.707 h^2.  Step past the cap on purpose.
    assert STABILITY_FACTOR[RK4_PROJECT] < factor
    u = get_family("planar_odd", a=0.5).sample(Grid.half_line(20.0, 512))
    dt = factor * u.grid.h**2
    e0 = bending_energy(u)
    v = pack(u.values)
    for _ in range(math.ceil(1.0 / dt)):
        v = normalize_field(_step_rk4(u, v, dt / (u.grid.h * u.grid.h), StepLog()).T).T
    drift = abs(bending_energy(VectorField(u.grid, v[:, 1:-1].T)) - e0) / e0
    if stable:
        assert drift < ENERGY_DRIFT_TOL
    else:
        assert drift > 1.0
