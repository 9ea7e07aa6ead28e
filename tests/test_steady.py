import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import chemolab as cl
from chemolab.elliptic import neumann_eigenvalues, solve_helmholtz_array
from chemolab.errors import NoConvergence, OutOfRange
from chemolab.evolve import SimState
from chemolab.grid import Field
from chemolab.stability import characteristic_chi
from chemolab.steady import NEWTON_TOL, _jvp, _newton_direction, stationary_residual


def _params(chi=4.2):
    return cl.build_params(
        {"chi": chi, "a": 1, "b": 1, "theta": 2, "kappa": 1, "beta": 1, "dim": 1, "L": math.pi}
    )


@pytest.fixture(scope="module")
def setup():
    p = _params()
    k = cl.make_kinetics(p, "generalized-logistic")
    g = cl.make_grid(p, 64)
    eq = cl.equilibrium_info(k, 1.0)
    return p, k, g, eq


def _mode_seed(g, k, amplitude):
    x = g.coordinates[0]
    u = 1.0 + amplitude * np.cos(x)
    v = solve_helmholtz_array(g, k.g(u))
    return Field(u, g), Field(v, g)


@pytest.fixture(scope="module")
def pattern(setup):
    p, k, g, eq = setup
    branch = cl.continuation(p, k, eq, 1, (4.2, 4.2), 1, grid=g)
    return branch.states[0]


class TestSolveStationary:
    def test_exact_constant_root(self, setup):
        p, k, g, eq = setup
        guess = (Field.constant(g, 1.0), Field.constant(g, 1.0))
        state = cl.solve_stationary(p, k, guess)
        assert state.iterations <= 1
        assert state.u.values == pytest.approx(np.ones(64))

    def test_nonconstant_state_from_large_seed(self, setup):
        p, k, g, eq = setup
        state = cl.solve_stationary(p, k, _mode_seed(g, k, 0.4))
        assert state.amplitude(1.0) > 0.1
        assert state.residual_norm < 1e-9

    def test_nan_guess_rejected(self, setup):
        p, k, g, eq = setup
        u = np.ones(g.shape)
        u[3] = np.nan
        with pytest.raises(OutOfRange):
            cl.solve_stationary(p, k, (Field(u, g), Field.constant(g, 1.0)))

    def test_negative_guess_rejected(self, setup):
        p, k, g, eq = setup
        u = np.ones(g.shape)
        u[3] = -0.2
        with pytest.raises(OutOfRange):
            cl.solve_stationary(p, k, (Field(u, g), Field.constant(g, 1.0)))


class TestContinuation:
    def test_branch_amplitudes_increase_from_small(self, setup):
        p, k, g, eq = setup
        branch = cl.continuation(p, k, eq, 1, (4.05, 5.0), 10, grid=g)
        amps = branch.amplitudes
        assert len(amps) == 10
        assert np.all(amps > 1e-3)
        assert np.all(np.diff(amps) > 0)
        assert amps[0] < 0.25

    def test_below_threshold_reports_empty(self, setup):
        p, k, g, eq = setup
        branch = cl.continuation(p, k, eq, 1, (3.0, 3.5), 4, grid=g)
        assert branch.is_empty
        assert np.all(branch.amplitudes < 1e-6)

    def test_zero_steps_rejected(self, setup):
        p, k, g, eq = setup
        with pytest.raises(OutOfRange):
            cl.continuation(p, k, eq, 1, (4.2, 5.0), 0, grid=g)

    def test_mirror_pair(self, setup):
        p, k, g, eq = setup
        x = g.coordinates[0]
        states = []
        for sign in (1.0, -1.0):
            u = 1.0 + sign * 0.4 * np.cos(x)
            v = solve_helmholtz_array(g, k.g(u))
            states.append(cl.solve_stationary(p, k, (Field(u, g), Field(v, g))))
        mirrored = states[0].u.values[::-1]
        assert np.max(np.abs(mirrored - states[1].u.values)) < 1e-7


def _random_state(dim):
    """A rough nonconstant (u, v) on the 1D n=16 or 2D 8x10 test grid."""
    if dim == 1:
        p = _params(chi=1.3)
        g = cl.make_grid(p, 16)
    else:
        p = cl.build_params(
            {"chi": 1.3, "a": 1, "b": 1, "theta": 2, "kappa": 1, "beta": 1,
             "dim": 2, "lengths": (1.0, 1.6)}
        )
        g = cl.make_grid(p, (8, 10))
    k = cl.make_kinetics(p, "generalized-logistic")
    rng = np.random.default_rng(2)
    u = 1.0 + 0.3 * rng.uniform(-1, 1, g.shape)
    v = 0.8 + 0.2 * rng.uniform(-1, 1, g.shape)
    return p, k, g, u, v, rng


def _stacked(pair):
    return np.concatenate([r.ravel() for r in pair])


class TestJacobian:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_finite_differences(self, dim):
        p, k, g, u, v, rng = _random_state(dim)
        n = g.n_cells
        eps = 1e-6
        for _ in range(4):
            d = rng.normal(size=2 * n)
            du, dv = d[:n].reshape(g.shape), d[n:].reshape(g.shape)
            rp = _stacked(stationary_residual(u + eps * du, v + eps * dv, p, k, g))
            rm = _stacked(stationary_residual(u - eps * du, v - eps * dv, p, k, g))
            fd = (rp - rm) / (2 * eps)
            assert fd == pytest.approx(_stacked(_jvp(u, v, du, dv, p, k, g)), rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_newton_direction_matches_dense_solve(self, dim):
        p, k, g, u, v, _ = _random_state(dim)
        n = g.n_cells
        columns = []
        for j in range(2 * n):
            e = np.zeros(2 * n)
            e[j] = 1.0
            du, dv = e[:n].reshape(g.shape), e[n:].reshape(g.shape)
            columns.append(_stacked(_jvp(u, v, du, dv, p, k, g)))
        ru, rv = stationary_residual(u, v, p, k, g)
        dense = np.linalg.solve(np.column_stack(columns), -_stacked((ru, rv)))
        krylov = _stacked(_newton_direction(u, v, ru, rv, p, k, g))
        assert np.linalg.norm(krylov - dense) <= 1e-8 * np.linalg.norm(dense)


class TestSingularPoint:
    @pytest.mark.parametrize("dim, cells", [(1, 64), (2, 16)])
    def test_newton_at_exact_mode_one_onset(self, dim, cells):
        p = cl.build_params(
            {"chi": 1, "a": 1, "b": 1, "theta": 2, "kappa": 1, "beta": 1, "dim": dim, "L": math.pi}
        )
        k = cl.make_kinetics(p, "generalized-logistic")
        g = cl.make_grid(p, cells)
        eq = cl.equilibrium_info(k, 1.0)
        mode = neumann_eigenvalues(g, 2)[1]
        p = replace(p, chi=characteristic_chi(eq, mode.sigma_h))
        u = 1.0 + 1e-3 * mode.eigenfunction.values
        guess = (Field(u, g), Field(solve_helmholtz_array(g, k.g(u)), g))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                state = cl.solve_stationary(p, k, guess)
            except NoConvergence as exc:
                assert exc.history
            else:
                assert state.residual_norm < NEWTON_TOL


class TestLineSearch:
    def test_nan_trial_residuals_emit_no_warning(self):
        # 2D 13^2, kappa = 1.9, seeded on mode 2: some line-search trials have
        # u < 0, so u**1.9 is NaN there and the trial is rejected silently
        a, b, kappa = 1.084592174890127, 0.6797338484583977, 1.9
        p = cl.build_params(
            {"chi": 1, "a": a, "b": b, "theta": kappa + 1, "kappa": kappa, "beta": 1,
             "dim": 2, "L": math.pi}
        )
        k = cl.make_kinetics(p, "generalized-logistic")
        g = cl.make_grid(p, 13)
        eq = cl.equilibrium_info(k, (a / b) ** (1 / kappa))
        chi = 2.8358778384769625
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            branch = cl.continuation(p, k, eq, 2, (chi, chi), 1, grid=g)
        # the same state as the solve with warnings enabled
        (state,) = branch.states
        assert state.iterations == 5
        assert state.residual_norm == pytest.approx(8.393713346703183e-10, rel=1e-6)
        assert float(state.u.values.sum()) == pytest.approx(216.11787507700888, rel=1e-13)
        assert float(state.v.values.sum()) == pytest.approx(269.658599447117, rel=1e-13)


class TestSteadyEvolveConsistency:
    def test_steady_state_is_evolve_fixed_point(self, setup, pattern):
        p, k, g, eq = setup
        p42 = replace(p, chi=pattern.chi)
        s = SimState(t=0.0, u=pattern.u.copy(), v=pattern.v.copy(), dt=0.0)
        dt = cl.adapt_dt(s, p42, k)
        s2 = cl.step(replace(s, dt=dt), p42, k)
        drift = np.max(np.abs(s2.u.values - pattern.u.values))
        assert drift < 10.0 * dt * max(pattern.residual_norm, 1e-12)

    @seed(7)
    @settings(max_examples=12, deadline=None)
    @given(
        a=st.floats(0.5, 2.0), b=st.floats(0.5, 2.0), kappa=st.floats(0.5, 2.0),
        shape=st.one_of(st.tuples(st.just(1), st.integers(16, 64)),
                        st.tuples(st.just(2), st.integers(8, 16))),
        factor=st.floats(1.05, 1.5),
    )
    def test_random_steady_state_is_step_fixed_point(self, a, b, kappa, shape, factor):
        dim, cells = shape
        p = cl.build_params(
            {"chi": 1, "a": a, "b": b, "theta": kappa + 1, "kappa": kappa, "beta": 1,
             "dim": dim, "L": math.pi}
        )
        k = cl.make_kinetics(p, "generalized-logistic")
        g = cl.make_grid(p, cells)
        eq = cl.equilibrium_info(k, (a / b) ** (1 / kappa))
        pairs = neumann_eigenvalues(g, 6)[1:]
        onsets = [characteristic_chi(eq, pair.sigma_h) for pair in pairs]
        mode = 1 + int(np.argmin(onsets))
        chi = factor * min(onsets)
        branch = cl.continuation(p, k, eq, mode, (chi, chi), 1, grid=g)
        assume(branch.states)
        state = branch.states[0]
        p_chi = replace(p, chi=chi)
        s = SimState(t=0.0, u=state.u.copy(), v=state.v.copy(), dt=0.0)
        dt = cl.adapt_dt(s, p_chi, k)
        moved = cl.step(replace(s, dt=dt), p_chi, k).u.values - state.u.values
        assert np.max(np.abs(moved)) <= 10.0 * dt * max(state.residual_norm, 1e-12)


class TestValidateSteady:
    def test_constant_state_identities(self, setup):
        p, k, g, eq = setup
        guess = (Field.constant(g, 1.0), Field.constant(g, 1.0))
        state = cl.solve_stationary(p, k, guess)
        report = cl.validate_steady(state, p, k)
        assert report.all_pass
        ident = report.row("stationary_mass_identity")
        assert ident.observed == pytest.approx(0.0, abs=1e-12)
        min_row = report.row("min_u_below_largest_zero")
        assert min_row.observed == pytest.approx(min_row.bound)

    def test_pattern_passes_all_checks(self, setup, pattern):
        p, k, g, eq = setup
        report = cl.validate_steady(pattern, replace(p, chi=pattern.chi), k)
        assert report.all_pass
        assert len(report.rows) == 7

    def test_inflated_state_fails_pointwise_bound(self, setup, pattern):
        p, k, g, eq = setup
        fake = cl.SteadyState(
            u=Field(pattern.u.values * 1000.0, g),
            v=pattern.v.copy(),
            chi=pattern.chi,
            residual_norm=pattern.residual_norm,
            iterations=pattern.iterations,
        )
        report = cl.validate_steady(fake, replace(p, chi=pattern.chi), k)
        assert not report.row("pointwise_exp_bound").passed
        assert not report.all_pass
