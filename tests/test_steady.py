import math
from dataclasses import replace

import numpy as np
import pytest

import chemolab as cl
from chemolab.elliptic import solve_helmholtz_array
from chemolab.errors import OutOfRange
from chemolab.evolve import SimState
from chemolab.grid import Field


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


class TestJacobian:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_finite_differences(self, dim):
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
        from chemolab.steady import _jacobian, stationary_residual

        J = _jacobian(u, v, p, k, g).toarray()
        n = g.n_cells
        eps = 1e-6
        for _ in range(4):
            d = rng.normal(size=2 * n)
            du, dv = d[:n].reshape(g.shape), d[n:].reshape(g.shape)
            rp = np.concatenate(
                [r.ravel() for r in stationary_residual(u + eps * du, v + eps * dv, p, k, g)]
            )
            rm = np.concatenate(
                [r.ravel() for r in stationary_residual(u - eps * du, v - eps * dv, p, k, g)]
            )
            fd = (rp - rm) / (2 * eps)
            assert fd == pytest.approx(J @ d, rel=1e-6, abs=1e-6)


class TestSteadyEvolveConsistency:
    def test_steady_state_is_evolve_fixed_point(self, setup, pattern):
        p, k, g, eq = setup
        p42 = replace(p, chi=pattern.chi)
        s = SimState(t=0.0, u=pattern.u.copy(), v=pattern.v.copy(), dt=0.0)
        dt = cl.adapt_dt(s, p42, k)
        s2 = cl.step(replace(s, dt=dt), p42, k)
        drift = np.max(np.abs(s2.u.values - pattern.u.values))
        assert drift < 10.0 * dt * max(pattern.residual_norm, 1e-12)


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
