import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import chemolab as cl
from chemolab import evolve
from chemolab.diagnostics import lp_norms
from chemolab.elliptic import solve_helmholtz_array
from chemolab.errors import ChemolabError, NegativeOvershoot, OutOfRange, StalledDt
from chemolab.evolve import BLOWUP_LINF, DT_MAX_FACTOR, DT_MIN, RunReport, RunSpec, SimState, run_batch
from chemolab.grid import Field, face_gradients, integrate


def _setup(nx=64, **overrides):
    raw = {"chi": 0.4, "a": 1, "b": 1, "theta": 2, "kappa": 1, "beta": 1, "dim": 1, "L": math.pi}
    raw.update(overrides)
    p = cl.build_params(raw)
    k = cl.make_kinetics(p, "generalized-logistic")
    return p, k, cl.make_grid(p, nx)


def _near_zero_kinetics(p):
    """Essentially vanishing growth so the dynamics reduce to diffusion."""
    return cl.make_kinetics(p, "polynomial", poly_coeffs=(0.0, 0.0, 0.0, -1e-30))


class TestStep:
    def test_constant_equilibrium_is_fixed_point(self):
        p, k, g = _setup()
        s = SimState.initial(p, k, Field.constant(g, 1.0), dt=1e-3)
        s2 = cl.step(s, p, k)
        assert np.max(np.abs(s2.u.values - 1.0)) < 1e-14
        assert np.max(np.abs(s2.v.values - 1.0)) < 1e-12

    def test_pure_diffusion_conserves_and_flattens(self):
        p, k, g = _setup(chi=1e-12)
        k0 = _near_zero_kinetics(p)
        x = g.coordinates[0]
        s = SimState.initial(p, k0, Field(1.0 + np.cos(x), g), dt=5e-3)
        mass0 = integrate(s.u.values, g)
        sup = [np.max(np.abs(s.u.values - 1.0))]
        for _ in range(40):
            s = cl.step(s, p, k0)
            sup.append(np.max(np.abs(s.u.values - 1.0)))
        assert integrate(s.u.values, g) == pytest.approx(mass0, rel=1e-12)
        assert all(b < a for a, b in zip(sup, sup[1:]))

    def test_mass_identity_every_step(self):
        p, k, g = _setup(nx=128)
        x = g.coordinates[0]
        s = SimState.initial(p, k, Field(1.0 + 0.5 * np.cos(x), g), dt=0.0)
        for _ in range(50):
            s = replace(s, dt=cl.adapt_dt(s, p, k))
            s = cl.step(s, p, k)
            assert s.last_mass_residual < 1e-12

    def test_negative_overshoot_is_loud(self):
        p, k, g = _setup()
        u = np.ones(g.shape)
        u[10] = -0.5
        v = cl.solve_helmholtz(g, Field(np.abs(u), g))
        s = SimState(t=0.0, u=Field(u, g), v=v, dt=1e-4)
        with pytest.raises(NegativeOvershoot):
            cl.step(s, p, k)


class TestNonfiniteSource:
    """A step whose secretion beta*u**kappa overflows fails its point alone."""

    @staticmethod
    def _state(g, u, beta):
        # built directly: SimState.initial would already fail on the source
        p, k, _ = _setup(nx=g.shape[0], beta=beta)
        return p, k, SimState(t=0.0, u=Field(u, g), v=Field.constant(g, 1.0), dt=1e-3)

    def test_step_raises_out_of_range(self):
        _, _, g = _setup(nx=16)
        p, k, s = self._state(g, np.full(g.shape, 10.0), beta=1e308)
        with pytest.raises(OutOfRange, match="^source: must be finite$"):
            cl.step(s, p, k)

    def test_only_the_overflowing_row_of_a_batch_fails(self):
        _, _, g = _setup(nx=16)
        x = g.coordinates[0]
        rows = [self._state(g, 1.0 + 0.3 * np.cos(x), beta=1.0),
                self._state(g, np.full(g.shape, 10.0), beta=1e308),
                self._state(g, 1.0 + 0.2 * np.cos(2.0 * x), beta=2.0)]
        params, kinetics, states = zip(*rows)
        kernel = evolve._Stepper(states, params, kinetics)
        kernel.step([s.dt for s in states])
        assert [(row, str(error)) for row, error in kernel.failures] == [
            (1, "source: must be finite")]
        assert kernel.u[1].tobytes() == states[1].u.values.tobytes()  # its old u
        for row in (0, 2):
            alone = cl.step(states[row], params[row], kinetics[row])
            batched = kernel.state(row)
            for f in dataclasses.fields(SimState):
                assert _bits(getattr(batched, f.name)) == _bits(getattr(alone, f.name)), f.name

    def test_overflowing_initial_source_fails_its_point_alone(self):
        # under filterwarnings = error an overflow warning would escape
        # run_batch and lose the good point's report
        p, k, g = _setup(nx=16)
        big_p, big_k, _ = _setup(nx=16, beta=1e308)
        outcomes = run_batch([RunSpec(p, k, Field.constant(g, 1.0), 0.1),
                              RunSpec(big_p, big_k, Field.constant(g, 10.0), 0.1)])
        assert isinstance(outcomes[0], RunReport)
        assert isinstance(outcomes[1], OutOfRange)
        assert str(outcomes[1]) == "source: must be finite"


class TestChemicalRoute:
    """For kappa = 1 a step takes v from the implicit solve's coefficients;
    a row that clamps or fails, and every row when kappa != 1, takes the
    direct solve of beta*u_new**kappa."""

    @seed(33)
    @settings(max_examples=30, deadline=None)
    @given(
        kappa=st.one_of(st.just(1.0), st.floats(0.5, 2.0)),
        shape=st.one_of(st.tuples(st.just(1), st.integers(16, 64)),
                        st.tuples(st.just(2), st.integers(8, 16)),
                        st.tuples(st.just(3), st.just(8))),
        # a "step" row leaves roundoff negatives far from its plateau at small
        # dt, which clamp; an "overshoot" row fails and keeps its old u
        rows=st.lists(st.tuples(st.sampled_from(["smooth", "step", "overshoot"]),
                                st.floats(0.05, 5.0), st.floats(-5.0, -1.0),
                                st.integers(0, 2**32 - 1)),
                      min_size=1, max_size=3),
    )
    def test_v_against_the_direct_solve(self, kappa, shape, rows):
        dim, cells = shape
        params, kinetics, states = [], [], []
        for kind, beta, log_dt, data_seed in rows:
            p = cl.build_params({"chi": 0.4 if kind == "smooth" else 1e-3, "a": 1, "b": 1,
                                 "theta": 2, "kappa": kappa, "beta": beta, "dim": dim,
                                 "L": math.pi})
            k = cl.make_kinetics(p, "generalized-logistic")
            g = cl.make_grid(p, cells)
            if kind == "smooth":
                u0 = np.random.default_rng(data_seed).uniform(0.5, 1.5, g.shape)
            else:
                u0 = np.where(g.coordinates[0] < 0.3, 1.0 if kind == "step" else 1e3, 0.0)
            params.append(p)
            kinetics.append(k)
            states.append(SimState.initial(p, k, Field(u0, g), dt=10.0**log_dt))
        kernel = evolve._Stepper(states, params, kinetics)
        kernel.step([s.dt for s in states])
        failed = {row for row, _ in kernel.failures}
        for row, k in enumerate(kinetics):
            u, v = kernel.u[row], kernel.v[row]
            direct = solve_helmholtz_array(g, k.beta * u**kappa)
            if kappa != 1.0 or row in failed or kernel.clamped_mass[row] > 0.0:
                assert v.tobytes() == direct.tobytes()
            else:
                assert np.max(np.abs(v - direct)) <= 1e-13 * np.max(np.abs(v))
                # the shift pins the sum as solve_dct_diagonal pins its own
                target = k.beta * kernel.mass[row]
                assert abs(v.sum() - target) <= 1e-14 * target


# cell values for the target-error identity: mixed signs, signed zeros,
# subnormals and magnitudes up to 1e6
_CELL_VALUES = st.one_of(
    st.floats(-1e6, 1e6),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
)


class TestTargetError:
    @seed(20)
    @settings(max_examples=400, deadline=None)
    @given(values=st.lists(_CELL_VALUES, min_size=1, max_size=40),
           side=st.sampled_from(["below", "above", "inside", "cell", "zero"]),
           gap=st.one_of(st.floats(0.0, 1e6), st.floats(0.0, 1e-300)))
    # max(u_max - target, target - u_min) would give -0.0 here
    @example(values=[-0.0], side="zero", gap=0.0)
    def test_extremes_give_max_abs_difference(self, values, side, gap):
        u = np.array(values)
        lo, hi = float(u.min()), float(u.max())
        target = {"below": lo - gap, "above": hi + gap, "inside": 0.5 * lo + 0.5 * hi,
                  "cell": values[-1], "zero": 0.0}[side]
        expected = np.max(np.abs(u - target))
        assert _bits(evolve._target_error(hi, lo, target)) == _bits(float(expected))

    def test_last_error_is_the_final_field_error(self):
        p, k, g = _setup(nx=32)
        x = g.coordinates[0]
        converge = RunSpec(p, k, Field(1.0 + 0.5 * np.cos(x), g), 100.0, target=1.0)
        horizon = RunSpec(p, k, Field(1.0 + 0.4 * np.cos(2.0 * x), g), 0.5, target=1.1)
        untargeted = RunSpec(replace(p, chi=0.2), k, Field(1.0 + 0.3 * np.cos(x), g), 0.3)
        batched = run_batch([untargeted, converge, horizon, untargeted])
        alone = run_batch([converge]) + run_batch([horizon])
        assert [r.status for r in batched] == ["ReachedHorizon", "Converged", "ReachedHorizon",
                                               "ReachedHorizon"]
        assert batched[0].target_errors == batched[3].target_errors == []
        for report, spec in zip(batched[1:3] + alone, [converge, horizon] * 2):
            t, error = report.target_errors[-1]
            assert t == report.final_time
            assert _bits(error) == _bits(float(np.max(np.abs(report.final_u.values - spec.target))))


class TestAdaptDt:
    def test_unconstrained_hits_cap(self):
        p, k, g = _setup(chi=1e-12)
        k0 = _near_zero_kinetics(p)
        s = SimState.initial(p, k0, Field.constant(g, 1.0), dt=0.0)
        h = g.spacings[0]
        assert cl.adapt_dt(s, p, k0) == pytest.approx(DT_MAX_FACTOR * h**2)

    def test_advective_bound(self):
        p, k, g = _setup(nx=256)
        x = g.coordinates[0]
        # gradient of v equal to 10 everywhere makes chi*|grad v| = 4
        s = SimState(
            t=0.0, u=Field.constant(g, 1.0), v=Field(10.0 * x, g), dt=0.0
        )
        h = g.spacings[0]
        expected = 0.4 * h / 4.0
        assert expected == pytest.approx(1.227e-3, rel=1e-3)
        assert cl.adapt_dt(s, p, k) == pytest.approx(expected, rel=1e-9)

    def test_stall_raises(self):
        p, k, g = _setup()
        x = g.coordinates[0]
        s = SimState(t=0.0, u=Field.constant(g, 1.0), v=Field(1e14 * x, g), dt=0.0)
        with pytest.raises(StalledDt):
            cl.adapt_dt(s, p, k)


class TestBlowupThreshold:
    """The run loop ends a point as BlowUp once its sup-norm passes BLOWUP_LINF."""

    @pytest.mark.parametrize("threshold, status", [(0.99, "BlowUp"), (1.01, "ReachedHorizon")])
    def test_strictly_above_the_threshold(self, monkeypatch, threshold, status):
        # the equilibrium u = 1 holds to roundoff, so only the threshold decides
        p, k, g = _setup(nx=32)
        monkeypatch.setattr(evolve, "BLOWUP_LINF", threshold)
        report = cl.run(p, k, Field.constant(g, 1.0), 0.1)
        assert report.status == status
        assert (report.steps == 1) == (status == "BlowUp")

    def test_short_last_step_is_not_blowup(self):
        # a step that run clamps to reach the horizon may be shorter than
        # DT_MIN; that is neither a stall nor blow-up evidence
        p, k, g = _setup(nx=32)
        report = cl.run(p, k, Field.constant(g, 1.0), 0.5 * DT_MIN)
        assert report.status == "ReachedHorizon" and report.steps == 1


class TestMonitorExponent:
    @pytest.mark.parametrize("dim, kappa, p_star", [
        (2, 1.0, 1.5),   # kappa*n/2 + MONITOR_EPS
        (3, 2.0, 3.5),
        (1, 0.5, 1.0),   # floored at 1: sublinear secretion in 1D
    ])
    def test_kappa_n_over_two_plus_eps(self, dim, kappa, p_star):
        p, _, _ = _setup(dim=dim, kappa=kappa, theta=kappa + 1)
        k = cl.make_kinetics(p, "generalized-logistic")
        g = cl.make_grid(p, 8)
        spec = RunSpec(p, k, Field.constant(g, 1.0), 1e-3)
        assert spec.p_star == p_star
        assert cl.run(p, k, Field.constant(g, 1.0), 1e-3).p_star == p_star


class TestRun:
    def test_globally_convergent_demo(self):
        p, k, g = _setup(nx=64)
        x = g.coordinates[0]
        report = cl.run(p, k, Field(1.0 + 0.5 * np.cos(x), g), 100.0, target=1.0)
        assert report.status == "Converged"
        assert np.max(np.abs(report.final_u.values - 1.0)) < 1e-6
        assert np.max(np.abs(report.final_v.values - 1.0)) < 1e-6
        assert report.max_mass_residual < 1e-12
        assert report.l1_bound_ok

    def test_reached_horizon_and_series_increasing(self):
        p, k, g = _setup(nx=32)
        report = cl.run(p, k, Field.constant(g, 0.5), 0.5)
        assert report.status == "ReachedHorizon"
        t = report.column("t")
        assert np.all(np.diff(t) > 0)
        assert report.final_time == pytest.approx(0.5)

    def test_blowup_status_via_sup_norm(self):
        p, k, g = _setup()
        report = cl.run(p, k, Field.constant(g, 1.5e6), 1.0)
        assert report.status == "BlowUp"
        assert report.column("linf_u")[-1] > BLOWUP_LINF

    def test_stalled_dt_status(self):
        # a near-singular spike drives the advective step below the floor
        p, k, g = _setup()
        u = np.ones(g.shape)
        u[5] = 1e13
        report = cl.run(p, k, Field(u, g), 1.0)
        assert report.status == "StalledDt"
        assert report.column("linf_u")[-1] == 1e13

    def test_rejects_negative_u0(self):
        p, k, g = _setup()
        u = np.ones(g.shape)
        u[0] = -0.1
        with pytest.raises(OutOfRange):
            cl.run(p, k, Field(u, g), 1.0)

    def test_rejects_nan_u0(self):
        p, k, g = _setup()
        u = np.ones(g.shape)
        u[0] = np.nan
        with pytest.raises(OutOfRange):
            cl.run(p, k, Field(u, g), 1.0)

    def test_rejects_zero_u0(self):
        p, k, g = _setup()
        with pytest.raises(OutOfRange):
            cl.run(p, k, Field.constant(g, 0.0), 1.0)

    def test_snapshots_at_requested_times(self):
        p, k, g = _setup(nx=32)
        report = cl.run(p, k, Field.constant(g, 0.5), 1.0, snapshot_times=(0.0, 0.5, 1.0))
        assert len(report.snapshots) == 3
        times = [t for t, _, _ in report.snapshots]
        assert times[0] == 0.0 and times[-1] <= 1.0 + 1e-9

    def test_upper_envelope_limits_density(self):
        # from above the equilibrium, limsup max(u) <= (a/(b-chi))**(1/kappa)
        p, k, g = _setup(nx=64)
        x = g.coordinates[0]
        report = cl.run(p, k, Field(2.5 + np.cos(x), g), 40.0)
        linf = report.column("linf_u")
        tail = linf[report.column("t") > 20.0]
        assert tail.max() <= (p.a / (p.b - p.chi)) ** (1 / p.kappa) * 1.02

    def test_plateau_monotone_norms_subcritical(self):
        # theta - kappa = 2: bounded run, both monitored norms plateau
        p = cl.build_params(
            {"chi": 0.6, "a": 1, "b": 1, "theta": 3, "kappa": 1, "beta": 1,
             "dim": 1, "L": math.pi}
        )
        k = cl.make_kinetics(p, "power-envelope")
        g = cl.make_grid(p, 64)
        x = g.coordinates[0]
        report = cl.run(p, k, Field(1.0 + 0.5 * np.cos(x), g), 30.0)
        assert report.status == "ReachedHorizon"
        t = report.column("t")
        for name in ("linf_u", "lp_u"):
            series = report.column(name)
            first, second = series[t <= 15.0], series[t > 15.0]
            assert second.max() <= 1.05 * first.max()

    def test_clamped_last_step_below_dt_min_reaches_horizon(self):
        # two capped steps of 10*h**2, then a last step clamped to 5e-13 < DT_MIN
        p, k, g = _setup(chi=0.05)
        h = g.spacings[0]
        report = cl.run(p, k, Field.constant(g, 1.0), 2 * (10 * h**2) + 5e-13)
        assert report.status == "ReachedHorizon"
        assert report.steps == 3
        assert report.series[-1, -1] < DT_MIN

    @seed(8)
    @settings(max_examples=12, deadline=None)
    @given(
        f_kind=st.sampled_from(["generalized-logistic", "power-envelope"]),
        chi=st.floats(0.05, 2.0), a=st.floats(0.5, 2.0), b=st.floats(0.5, 2.0),
        kappa=st.one_of(st.just(1.0), st.floats(0.5, 2.0)), theta=st.floats(1.5, 3.0),
        shape=st.one_of(st.tuples(st.just(1), st.integers(16, 64)),
                        st.tuples(st.just(2), st.integers(8, 16)),
                        st.tuples(st.just(3), st.just(8))),
        data_seed=st.integers(0, 2**32 - 1), horizon=st.floats(0.5, 2.0),
    )
    def test_run_equals_loop_of_public_step(
        self, f_kind, chi, a, b, kappa, theta, shape, data_seed, horizon
    ):
        dim, cells = shape
        p = cl.build_params(
            {"chi": chi, "a": a, "b": b, "theta": theta, "kappa": kappa, "beta": 1,
             "dim": dim, "L": math.pi}
        )
        g = cl.make_grid(p, cells)
        u0 = Field(np.random.default_rng(data_seed).uniform(0.0, 2.0, g.shape), g)
        _assert_run_equals_step_loop(p, cl.make_kinetics(p, f_kind), u0, horizon)

    def test_clamped_run_equals_loop_of_public_step(self):
        # an empty region far from the mass: the implicit solve leaves roundoff
        # negatives there, clamped on 9 of the 333 steps
        p, k, g = _setup(nx=256, chi=0.05)
        u0 = Field(np.where(g.coordinates[0] < 0.5, 1.0, 0.0), g)
        report = _assert_run_equals_step_loop(p, k, u0, 0.5)
        assert report.clamped_mass > 0.0


def _assert_run_equals_step_loop(p, k, u0, horizon):
    """run against a loop of public adapt_dt + step with run's horizon clamp:
    bit-identical series, final fields, step count and clamp totals, and the
    per-step mass law at roundoff."""
    g = u0.grid
    # rows far above the step count records every step
    report = cl.run(p, k, u0, horizon, rows=10**9)

    def row(s):
        grad_v = max(float(np.max(np.abs(f))) for f in face_gradients(s.v.values, g))
        return (s.t, integrate(s.u.values, g), float(np.max(np.abs(s.u.values))),
                lp_norms(s.u.values, g, report.p_star)[0], float(np.max(np.abs(s.v.values))),
                grad_v, s.dt)

    s = SimState.initial(p, k, u0)
    rows, residuals = [row(s)], []
    while s.t < horizon * (1.0 - 1e-12):
        s = cl.step(replace(s, dt=min(cl.adapt_dt(s, p, k), horizon - s.t)), p, k)
        assert s.last_mass_residual <= 1e-12
        residuals.append(s.last_mass_residual)
        rows.append(row(s))

    assert report.status == "ReachedHorizon"
    assert report.steps == s.step_count == len(residuals)
    assert report.final_time == s.t
    assert report.series.tobytes() == np.array(rows).tobytes()
    assert report.final_u.values.tobytes() == s.u.values.tobytes()
    assert report.final_v.values.tobytes() == s.v.values.tobytes()
    assert report.max_mass_residual == max(residuals)
    assert (report.clamp_count, report.clamped_mass) == (s.clamp_count, s.clamped_mass)
    return report


# ---------------------------------------------------------------------------
# batched runs
# ---------------------------------------------------------------------------

# u0 and chi of each kind of point; "clamp" leaves roundoff negatives far
# from a tall plateau, "overshoot" pushes a true negative out of it
SCENARIOS = ("horizon", "converge", "blowup", "stall", "clamp", "overshoot")


def _scenario(kind, p, k, g, rng):
    """(params, u0, target) of one point of the given kind."""
    eq = (p.a / p.b) ** (1.0 / k.exponent)
    x = g.coordinates[0]
    if kind == "converge":
        return p, Field(eq * (1.0 + 1e-5 * rng.uniform(-1.0, 1.0, g.shape)), g), eq
    if kind == "blowup":
        return p, Field.constant(g, 1.5e6), None
    if kind == "stall":
        u = np.ones(g.shape)
        u.flat[g.n_cells // 2] = 1e13
        return p, Field(u, g), None
    if kind == "clamp":
        return replace(p, chi=1e-3), Field(np.where(x < 0.3, 1e3, 0.0), g), None
    if kind == "overshoot":
        return replace(p, chi=0.05), Field(np.where(x < 0.3, 1e4, 0.0), g), None
    return p, Field(eq * rng.uniform(0.5, 1.5, g.shape), g), eq


def _bits(x):
    if isinstance(x, Field):
        return x.values.tobytes()
    if isinstance(x, np.ndarray):
        return x.tobytes()
    if isinstance(x, (list, tuple)):
        return [_bits(y) for y in x]
    if isinstance(x, float):
        return np.float64(x).tobytes()
    return x


def _alone(spec):
    try:
        return cl.run(spec.p, spec.k, spec.u0, spec.horizon, target=spec.target,
                      rows=spec.rows, snapshot_times=spec.snapshot_times)
    except ChemolabError as exc:
        return exc


def _assert_batch_equals_alone(specs):
    outcomes = run_batch(specs)
    assert len(outcomes) == len(specs)
    for spec, batched in zip(specs, outcomes):
        alone = _alone(spec)
        if isinstance(alone, ChemolabError):
            assert (type(batched), str(batched)) == (type(alone), str(alone))
            continue
        assert isinstance(batched, RunReport)
        for f in dataclasses.fields(RunReport):
            assert _bits(getattr(batched, f.name)) == _bits(getattr(alone, f.name)), f.name
    return outcomes


class TestRunBatch:
    @seed(9)
    @settings(max_examples=10, deadline=None)
    @given(
        f_kind=st.sampled_from(["generalized-logistic", "power-envelope", "allee"]),
        kappa=st.one_of(st.just(1.0), st.floats(0.5, 2.0)), theta=st.floats(1.5, 3.0),
        shape=st.one_of(st.tuples(st.just(1), st.integers(16, 64)),
                        st.tuples(st.just(2), st.integers(8, 16)),
                        st.tuples(st.just(3), st.just(8))),
        points=st.lists(
            st.tuples(
                st.sampled_from(SCENARIOS), st.floats(0.05, 2.0), st.floats(0.5, 2.0),
                st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(0.05, 1.0),
                st.sampled_from([1, 7, 500, 10**9]), st.integers(0, 3), st.booleans(),
                st.integers(0, 2**32 - 1),
            ),
            min_size=2, max_size=6,
        ),
    )
    def test_batch_equals_each_point_alone(self, f_kind, kappa, theta, shape, points):
        dim, cells = shape
        specs = []
        for kind, chi, a, b, beta, horizon, rows, snaps, targeted, data_seed in points:
            p = cl.build_params({"chi": chi, "a": a, "b": b, "theta": theta, "kappa": kappa,
                                 "beta": beta, "dim": dim, "L": math.pi})
            k = cl.make_kinetics(p, f_kind)
            g = cl.make_grid(p, cells)
            p, u0, target = _scenario(kind, p, k, g, np.random.default_rng(data_seed))
            specs.append(RunSpec(
                p, k, u0, horizon, target=target if targeted or kind == "converge" else None,
                rows=rows, snapshot_times=np.linspace(0.0, horizon, snaps),
            ))
        assert len({spec.batch_key for spec in specs}) == 1  # one batch
        _assert_batch_equals_alone(specs)

    def test_every_ending_in_one_batch(self):
        p, k, g = _setup(nx=32)
        rng = np.random.default_rng(0)
        specs = []
        for kind in SCENARIOS:
            p_i, u0, target = _scenario(kind, p, k, g, rng)
            horizon = 5.0 if kind == "converge" else 0.3
            specs.append(RunSpec(p_i, k, u0, horizon, target=target, snapshot_times=(0.0, 0.1)))
        outcomes = _assert_batch_equals_alone(specs)
        horizon, converge, blowup, stall, clamp, overshoot = outcomes
        assert converge.status == "Converged" and 1 < converge.steps < clamp.steps
        assert horizon.status == "ReachedHorizon" and horizon.target_errors
        assert blowup.status == "BlowUp" and blowup.steps == 1
        assert stall.status == "StalledDt" and stall.steps == 0
        assert clamp.status == "ReachedHorizon" and clamp.clamped_mass > 0.0
        assert isinstance(overshoot, NegativeOvershoot)

    def test_batch_over_the_cell_budget_runs_in_chunks(self, monkeypatch):
        p, k, g = _setup(nx=16)
        monkeypatch.setattr(evolve, "BATCH_CELLS", 40)  # two 16-cell points a chunk
        rng = np.random.default_rng(2)
        specs = [RunSpec(replace(p, chi=0.1 * (i + 1)), k, Field(rng.uniform(0.5, 1.5, 16), g),
                         0.2 * (i + 1), target=1.0) for i in range(5)]
        _assert_batch_equals_alone(specs)

    def test_points_with_different_keys_run_apart(self):
        p, k, g = _setup(nx=16)
        p2 = replace(p, kappa=2.0)
        k2 = cl.make_kinetics(p2, "generalized-logistic")
        u0 = Field(1.0 + 0.5 * np.cos(g.coordinates[0]), g)
        specs = [RunSpec(p, k, u0, 0.5), RunSpec(p2, k2, u0, 0.5),
                 RunSpec(p, k, Field(u0.values[:8], cl.make_grid(p, 8)), 0.5),
                 RunSpec(p, k, u0, -1.0), RunSpec(p, k, u0, 0.5, rows=0)]
        # kappa and the grid each split the batch
        assert len({spec.batch_key for spec in specs}) == 3
        outcomes = _assert_batch_equals_alone(specs)
        assert isinstance(outcomes[3], OutOfRange) and isinstance(outcomes[4], OutOfRange)

    def test_one_record_per_live_row(self):
        # a point's state lives in its _Point, so dropping a row shortens
        # live and the kernel, and the run keeps no other list
        p, k, g = _setup(nx=16)
        u0 = Field(1.0 + 0.5 * np.cos(g.coordinates[0]), g)
        specs = [RunSpec(replace(p, chi=chi), k, u0, 0.5, target=1.0, snapshot_times=(0.0, 0.2))
                 for chi in (0.1, 0.2, 0.3)]
        points = [evolve._Point(spec, [0.0, 0.2]) for spec in specs]
        batch = evolve._BatchRun(points, [spec.initial_state() for spec in specs])
        batch._drop({1})
        assert batch.live == [points[0], points[2]] and len(batch.kernel.t) == 2
        assert [name for name, value in vars(batch).items() if isinstance(value, list)] == ["live"]
        assert all(len(point.rows) == 1 and point.pending == [0.2] for point in points)
