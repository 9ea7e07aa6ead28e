import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import chemolab as cl
from chemolab.errors import OutOfRange, ZUnbounded
from chemolab.grid import Field


def _params(**overrides):
    raw = {"chi": 0.4, "a": 1, "b": 1, "theta": 2, "kappa": 1, "beta": 1, "dim": 1, "L": math.pi}
    raw.update(overrides)
    return cl.build_params(raw)


class TestSolveSandwich:
    def test_equilibrium_initial_data_stays_constant(self):
        traj = cl.solve_sandwich(_params(), 1.0, 1.0, 10.0)
        assert traj.ubar == pytest.approx(np.ones_like(traj.ubar), abs=1e-12)
        assert traj.ulow == pytest.approx(np.ones_like(traj.ulow), abs=1e-12)

    def test_convergence_and_monotone_gap(self):
        traj = cl.solve_sandwich(_params(), 0.5, 1.5, 60.0)
        assert traj.ubar[-1] == pytest.approx(1.0, abs=1e-4)
        assert traj.ulow[-1] == pytest.approx(1.0, abs=1e-4)
        assert np.all(np.diff(traj.log_ratio) <= 1e-12)

    def test_ordering_around_equilibrium(self):
        p = _params(a=2, b=3, kappa=2, theta=3, chi=0.9)
        traj = cl.solve_sandwich(p, 0.3, 1.4, 20.0)
        eq = (p.a / p.b) ** (1 / p.kappa)
        assert np.all(traj.w <= eq + 1e-9)
        assert np.all(traj.ubar >= eq - 1e-9)
        assert np.all(traj.w > 0)

    @seed(12)
    @settings(max_examples=15, deadline=None)
    @given(
        a=st.floats(0.5, 2.0), b=st.floats(0.5, 2.0), kappa=st.floats(0.5, 2.0),
        chi_fraction=st.floats(0.05, 0.95),
        low=st.floats(0.3, 1.0), high=st.floats(1.0, 2.0),
    )
    def test_ordering_and_contraction_property(self, a, b, kappa, chi_fraction, low, high):
        # chi < b/2; the extremes bracket eq, u0 = mid + half*cos(x) between them
        p = _params(a=a, b=b, kappa=kappa, theta=kappa + 1, chi=chi_fraction * b / 2)
        eq = (a / b) ** (1 / kappa)
        g = cl.make_grid(p, 64)
        x = g.coordinates[0]
        u0 = 0.5 * (low + high) * eq + 0.5 * (high - low) * eq * np.cos(x)
        horizon = 1.0
        report = cl.run(p, cl.make_kinetics(p, "generalized-logistic"), Field(u0, g), horizon,
                        snapshot_times=np.linspace(0.0, horizon, 11))
        traj = cl.solve_sandwich(p, report.u0_min, report.u0_max, horizon)
        assert np.all(traj.w > 0)
        assert np.all(traj.w <= eq + 1e-9)
        assert np.all(traj.ubar >= eq - 1e-9)
        assert np.all(np.diff(traj.log_ratio) <= 1e-12)
        assert cl.check_sandwich(traj, report) <= 10.0 * g.spacings[0] ** 2

    def test_rejects_weak_damping(self):
        with pytest.raises(OutOfRange):
            cl.solve_sandwich(_params(chi=1.5), 0.5, 1.5, 10.0)

    def test_rejects_nonpositive_minimum(self):
        with pytest.raises(OutOfRange):
            cl.solve_sandwich(_params(), 0.0, 1.5, 10.0)

    def test_csv(self, tmp_path):
        # The trajectory goes to disk through the CLI's one CSV writer; the
        # columns must read back as the trajectory's own arrays.
        from chemolab.cli import _Manifest

        traj = cl.solve_sandwich(_params(), 0.5, 1.5, 5.0, n_out=20)
        manifest = _Manifest(tmp_path, "compare-ode", "cfg", 0, config_sha="0")
        manifest.write_csv(
            "traj.csv", ("t", "ubar", "ulow", "log_ratio"),
            zip(traj.times, traj.ubar, traj.ulow, traj.log_ratio),
        )
        lines = (tmp_path / "traj.csv").read_text().splitlines()
        assert lines[0] == "t,ubar,ulow,log_ratio"
        assert len(lines) == 21
        table = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        for column, values in zip(table.T, (traj.times, traj.ubar, traj.ulow, traj.log_ratio)):
            np.testing.assert_array_equal(column, values)


class TestContractionRate:
    def test_direct_substitution(self):
        # kappa=1, a=b=1, chi=0.4: eps0 = 1*(0.5/2)*1*0.2 = 0.05
        assert cl.sandwich_contraction_rate(_params(), 0.5, 2.0) == pytest.approx(0.05)

    def test_degenerate_at_equality(self):
        assert cl.sandwich_contraction_rate(_params(chi=0.5), 0.5, 2.0) == 0.0

    def test_equilibrium_ratio_one(self):
        p = _params()
        rate = cl.sandwich_contraction_rate(p, 1.0, 1.0)
        assert rate == pytest.approx(p.kappa * (p.a / p.b) * (p.b - 2 * p.chi))

    def test_rejects_b_below_twice_chi(self):
        with pytest.raises(OutOfRange):
            cl.sandwich_contraction_rate(_params(chi=0.7), 0.5, 2.0)

    def test_fitted_decay_beats_rate(self):
        p = _params()
        traj = cl.solve_sandwich(p, 0.5, 1.5, 50.0)
        fit = cl.fit_exponential_decay(traj.times, traj.log_ratio)
        assert traj.eps0 == pytest.approx(1.0 / 15.0)
        assert fit.rate <= -traj.eps0 * (1 - 1e-3)


class TestCheckSandwich:
    def test_constant_run_has_zero_violation(self):
        p = _params()
        k = cl.make_kinetics(p, "generalized-logistic")
        g = cl.make_grid(p, 32)
        report = cl.run(p, k, Field.constant(g, 1.0), 2.0, snapshot_times=(0.0, 1.0, 2.0))
        traj = cl.solve_sandwich(p, report.u0_min, report.u0_max, 2.0)
        # the stepper holds the equilibrium to roundoff, so only machine
        # noise separates the run from the trajectory
        assert cl.check_sandwich(traj, report) == pytest.approx(0.0, abs=5e-14)

    def test_bounded_by_grid_resolution(self):
        p = _params()
        k = cl.make_kinetics(p, "generalized-logistic")
        g = cl.make_grid(p, 64)
        x = g.coordinates[0]
        report = cl.run(
            p, k, Field(1.0 + 0.5 * np.cos(x), g), 10.0,
            snapshot_times=np.linspace(0, 10, 21),
        )
        traj = cl.solve_sandwich(p, report.u0_min, report.u0_max, 10.0)
        assert cl.check_sandwich(traj, report) <= 10.0 * g.spacings[0] ** 2

    def test_mismatched_chi_rejected(self):
        p = _params()
        k = cl.make_kinetics(p, "generalized-logistic")
        g = cl.make_grid(p, 32)
        report = cl.run(p, k, Field.constant(g, 1.0), 1.0, snapshot_times=(0.5,))
        other = cl.solve_sandwich(_params(chi=0.45), report.u0_min, report.u0_max, 1.0)
        with pytest.raises(OutOfRange, match="chi"):
            cl.check_sandwich(other, report)


class TestEnvelopeOdes:
    def test_upper_envelope_limit_matches_root_oracle(self):
        p = _params()
        k = cl.make_kinetics(p, "generalized-logistic")
        env = cl.envelope_odes(p, k, 0.5, 1.5, 60.0)
        oracle = brentq(
            lambda z: float(k.f(np.array([z]))[0]) + p.chi * z**2, 0.5, 50.0
        )
        assert env.z_inf == pytest.approx((p.a / (p.b - p.chi)) ** (1 / p.kappa), rel=1e-8)
        assert env.z_inf == pytest.approx(oracle, rel=1e-8)

    def test_lower_envelope_limit(self):
        p = _params()
        k = cl.make_kinetics(p, "generalized-logistic")
        env = cl.envelope_odes(p, k, 0.5, 1.5, 120.0)
        bound = ((p.b - 2 * p.chi) * p.a / (p.b - p.chi) ** 2) ** (1 / p.kappa)
        assert env.y_inf >= bound * (1 - 1e-3)
        assert env.y_inf > 0

    def test_unbounded_when_damping_too_weak(self):
        p = _params(chi=1.5)
        k = cl.make_kinetics(p, "generalized-logistic")
        with pytest.raises(ZUnbounded):
            cl.envelope_odes(p, k, 0.5, 1.5, 200.0)

    def test_short_horizon_flagged_as_not_stationary(self):
        p = _params()
        k = cl.make_kinetics(p, "generalized-logistic")
        with pytest.raises(OutOfRange, match="horizon"):
            cl.envelope_odes(p, k, 0.5, 1.5, 0.5)
