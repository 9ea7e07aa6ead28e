import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import chemolab as cl
from chemolab import compare_ode
from chemolab.compare_ode import N_OUT, ODE_RTOL, ODE_RTOL_RETRY
from chemolab.errors import InvariantBreach, OutOfRange, ZUnbounded
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

    def test_breach_is_retried_once_then_raised(self, monkeypatch):
        rtols = []
        integrate = compare_ode._integrate_sandwich

        def counted(p, y0, horizon, rtol):
            rtols.append(rtol)
            return integrate(p, y0, horizon, rtol)

        monkeypatch.setattr(compare_ode, "_integrate_sandwich", counted)
        monkeypatch.setattr(compare_ode, "_check_sandwich_invariants",
                            lambda p, eq, ubar, w: "log-ratio increased")
        with pytest.raises(InvariantBreach, match="^log-ratio increased$"):
            cl.solve_sandwich(_params(), 0.5, 1.5, 1.0)
        assert rtols == [ODE_RTOL, ODE_RTOL_RETRY]

    def test_csv(self, tmp_path):
        # The trajectory goes to disk through the CLI's one CSV writer; the
        # columns must read back as the trajectory's own arrays.
        from chemolab.cli import _Manifest

        traj = cl.solve_sandwich(_params(), 0.5, 1.5, 5.0)
        manifest = _Manifest(tmp_path, "compare-ode", "cfg", 0, config_sha="0")
        manifest.write_csv(
            "traj.csv", ("t", "ubar", "ulow", "log_ratio"),
            zip(traj.times, traj.ubar, traj.ulow, traj.log_ratio),
        )
        lines = (tmp_path / "traj.csv").read_text().splitlines()
        assert lines[0] == "t,ubar,ulow,log_ratio"
        assert len(lines) == N_OUT + 1
        table = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        for column, values in zip(table.T, (traj.times, traj.ubar, traj.ulow, traj.log_ratio)):
            np.testing.assert_array_equal(column, values)


@pytest.mark.parametrize("horizon", [0.0, -1.0])
@pytest.mark.parametrize("solve", [
    lambda p, horizon: cl.solve_sandwich(p, 0.5, 1.5, horizon),
    lambda p, horizon: cl.envelope_odes(p, cl.make_kinetics(p, "generalized-logistic"),
                                        0.5, 1.5, horizon),
], ids=["solve_sandwich", "envelope_odes"])
def test_nonpositive_horizon_rejected_before_integrating(solve, horizon):
    with pytest.raises(OutOfRange, match=r"^horizon: must be > 0"):
        solve(_params(), horizon)


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

    def test_secretion_factor_scales_chi(self):
        # beta = 2 doubles the sensitivity: b = 1 < 2*chi*beta = 1.6 fails,
        # and chi = 0.2 leaves the margin b - 2*chi*beta = 0.2 at equilibrium
        with pytest.raises(OutOfRange) as info:
            cl.sandwich_contraction_rate(_params(beta=2), 1.0, 1.0)
        assert str(info.value) == "b: need b >= 2*chi*beta (got b = 1.0, chi*beta = 0.8)"
        rate = cl.sandwich_contraction_rate(_params(chi=0.2, beta=2), 1.0, 1.0)
        assert rate == pytest.approx(0.2)

    def test_rejects_b_below_twice_chi(self):
        with pytest.raises(OutOfRange):
            cl.sandwich_contraction_rate(_params(chi=0.7), 0.5, 2.0)

    @pytest.mark.parametrize("ulow0, ubar0, reason", [
        (0.0, 2.0, "ulow0: must be > 0 (got 0.0)"),
        (1.5, 2.0, "ulow0: must be <= a/b = 1.0 (got 1.5)"),
        (0.5, 0.5, "ubar0: must be >= (a/b)**(1/kappa) = 1.0 (got 0.5)"),
    ])
    def test_rejects_unordered_extremes(self, ulow0, ubar0, reason):
        with pytest.raises(OutOfRange) as info:
            cl.sandwich_contraction_rate(_params(), ulow0, ubar0)
        assert str(info.value) == reason

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

    def test_secretion_factor_is_compared(self):
        # beta = 2 at chi = 0.2 is the chi*beta = 0.4 system; a trajectory
        # solved at beta = 1 is a different model and is refused
        p = _params(chi=0.2, beta=2)
        g = cl.make_grid(p, 64)
        report = cl.run(p, cl.make_kinetics(p), Field(1.0 + 0.5 * np.cos(g.coordinates[0]), g),
                        10.0, snapshot_times=np.linspace(0, 10, 21))
        traj = cl.solve_sandwich(p, report.u0_min, report.u0_max, 10.0)
        assert cl.check_sandwich(traj, report) <= 10.0 * g.spacings[0] ** 2
        other = cl.solve_sandwich(_params(chi=0.2), report.u0_min, report.u0_max, 10.0)
        with pytest.raises(OutOfRange) as info:
            cl.check_sandwich(other, report)
        assert str(info.value) == "beta: ODE/PDE mismatch: 1.0 vs 2.0"

    @pytest.mark.parametrize("chi, change, reason", [
        (0.4, {"f_kind": "power-envelope"},
         "run: growth must be u*(a - b*u**kappa) (got power-envelope)"),
        (0.5, {}, "b: the comparison needs b > 2*chi*beta"),
        (0.4, {"snapshots": []}, "run: no snapshots recorded"),
    ], ids=["growth", "weak-damping", "no-snapshots"])
    def test_refuses_what_it_cannot_compare(self, chi, change, reason):
        p = _params(chi=chi)
        g = cl.make_grid(p, 8)
        report = cl.run(p, cl.make_kinetics(p), Field.constant(g, 1.0), 0.1,
                        snapshot_times=(0.0,))
        traj = cl.solve_sandwich(p, report.u0_min, report.u0_max, 0.1)
        with pytest.raises(OutOfRange) as info:
            cl.check_sandwich(traj, dataclasses.replace(report, **change))
        assert str(info.value) == reason

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

    def test_lower_envelope_decays_to_zero_without_going_below(self):
        # b < 2*chi*beta: y -> 0, and RK45 trial stages near 0 step below it
        p = _params(chi=1, b=1.5, theta=2.5, kappa=1.5)
        eq = (p.a / p.b) ** (1 / p.kappa)
        env = cl.envelope_odes(p, cl.make_kinetics(p, "generalized-logistic"), eq, eq, 60.0)
        assert env.z_inf == pytest.approx((p.a / (p.b - p.chi)) ** (1 / p.kappa), rel=1e-8)
        assert env.y_inf >= 0.0 and env.y.min() >= 0.0 and env.y_inf < 1e-12

    def test_unbounded_when_damping_too_weak(self):
        p = _params(chi=1.5)
        k = cl.make_kinetics(p, "generalized-logistic")
        with pytest.raises(ZUnbounded):
            cl.envelope_odes(p, k, 0.5, 1.5, 200.0)

    def test_rejects_nonpositive_minimum(self):
        p = _params()
        with pytest.raises(OutOfRange, match=r"^u0_min: must be > 0 \(got 0.0\)$"):
            cl.envelope_odes(p, cl.make_kinetics(p), 0.0, 1.5, 60.0)

    def test_short_horizon_flagged_as_not_stationary(self):
        p = _params()
        k = cl.make_kinetics(p, "generalized-logistic")
        with pytest.raises(OutOfRange, match="horizon"):
            cl.envelope_odes(p, k, 0.5, 1.5, 0.5)


class TestAgainstScipyRK45:
    """The integrator takes RK45's steps: scipy's solve_ivp is the reference."""

    # the converge-1d model and extremes, to its convergence time
    P = dict(chi=0.4, a=1, b=1, kappa=1)
    U0_MIN, U0_MAX, HORIZON = 0.5, 1.5, 10.83

    @staticmethod
    def _reference(rhs, y0, horizon, rtol, atol, **kwargs):
        from scipy.integrate import solve_ivp

        return solve_ivp(lambda _t, y: rhs(list(y)), (0.0, horizon), y0, method="RK45",
                         rtol=rtol, atol=atol, dense_output=True,
                         t_eval=np.linspace(0.0, horizon, N_OUT), **kwargs)

    @staticmethod
    def _assert_same(dense, ref):
        assert dense.steps == ref.sol.n_segments
        np.testing.assert_allclose(dense(ref.t), ref.y, rtol=0, atol=1e-13)
        # between the output times, where the quartics are read alone
        between = 0.5 * (ref.t[1:] + ref.t[:-1])
        np.testing.assert_allclose(dense(between), ref.sol(between), rtol=0, atol=1e-13)
        for t in between[::500]:
            np.testing.assert_allclose(dense(t), ref.sol(t), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("rtol", [ODE_RTOL, ODE_RTOL_RETRY])
    def test_sandwich_pair(self, rtol):
        p = _params(**self.P)
        kap, chi = p.kappa, p.chi * p.beta

        def rhs(y):
            ub, w = y
            gap = ub**kap - w**kap
            return [chi * ub * gap + ub * (p.a - p.b * ub**kap),
                    -chi * w * gap + w * (p.a - p.b * w**kap)]

        y0 = [self.U0_MAX, self.U0_MIN]
        dense = compare_ode._integrate_sandwich(p, y0, self.HORIZON, rtol)
        ref = self._reference(rhs, y0, self.HORIZON, rtol, rtol * 1e-2)
        self._assert_same(dense, ref)
        if rtol == ODE_RTOL:
            traj = cl.solve_sandwich(p, self.U0_MIN, self.U0_MAX, self.HORIZON)
            np.testing.assert_allclose(np.array([traj.ubar, traj.w]), ref.y, rtol=0, atol=1e-13)

    def test_envelope_odes(self, monkeypatch):
        p = _params(**self.P)
        k = cl.make_kinetics(p, "generalized-logistic")
        runs = []
        dopri5 = compare_ode._dopri5

        def recorded(rhs, y0, horizon, rtol, atol, **kwargs):
            runs.append((rhs, y0, horizon, rtol, atol, dopri5(rhs, y0, horizon, rtol, atol,
                                                                **kwargs)))
            return runs[-1][-1]

        monkeypatch.setattr(compare_ode, "_dopri5", recorded)
        horizon = 60.0
        env = cl.envelope_odes(p, k, self.U0_MIN, self.U0_MAX, horizon)
        assert [run[1] for run in runs] == [[self.U0_MAX], [self.U0_MIN]]
        for (rhs, y0, _, rtol, atol, dense), out in zip(runs, (env.z, env.y)):
            assert (rtol, atol) == (ODE_RTOL, 1e-12)
            ref = self._reference(rhs, y0, horizon, rtol, atol)
            self._assert_same(dense, ref)
            np.testing.assert_allclose(out, ref.y[0], rtol=0, atol=1e-13)

    def test_escape_time(self):
        from scipy.integrate import solve_ivp

        p = _params(chi=1.5)
        k = cl.make_kinetics(p, "generalized-logistic")
        with pytest.raises(ZUnbounded) as info:
            cl.envelope_odes(p, k, 0.5, 1.5, 200.0)

        def escape(_t, z):
            return z[0] - compare_ode.Z_CAP

        escape.terminal = True
        ref = solve_ivp(
            lambda _t, z: [float(k.f(z)[0]) + p.chi * z[0] ** 2], (0.0, 200.0), [1.5],
            method="RK45", rtol=ODE_RTOL, atol=1e-12, events=escape,
        )
        t_escape = ref.t_events[0][0]
        assert info.value.t == pytest.approx(t_escape, rel=1e-9, abs=0)
        assert str(info.value) == f"upper envelope escaped beyond 1e+06 at t = {t_escape:.6g}"
