import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chemolab as cl
from chemolab.errors import DissipativityFail, MissingKey, OutOfRange, UnknownKey


def _params(**overrides):
    raw = {"chi": 0.4, "a": 1, "b": 1, "theta": 2, "kappa": 1, "beta": 1, "dim": 1, "L": math.pi}
    raw.update(overrides)
    return cl.build_params(raw)


class TestBuildParams:
    def test_valid(self):
        p = _params()
        assert p.chi == 0.4 and p.lengths == (math.pi,)

    def test_negative_chi(self):
        with pytest.raises(OutOfRange, match="chi"):
            _params(chi=-1)

    def test_theta_strictly_above_one(self):
        with pytest.raises(OutOfRange, match="theta"):
            _params(theta=1)

    def test_missing_key(self):
        with pytest.raises(MissingKey):
            cl.build_params({"chi": 0.4})

    def test_unknown_key(self):
        with pytest.raises(UnknownKey):
            _params(extra=1)

    def test_lengths_match_dim(self):
        p = cl.build_params(
            {"chi": 1, "a": 1, "b": 1, "theta": 2, "kappa": 1, "beta": 1,
             "dim": 2, "lengths": (1.0, 2.0)}
        )
        assert p.volume == pytest.approx(2.0)

    def test_simulation_dimension_capped_at_two(self):
        # higher dimensions stay classifier-only (see classify_regime dim=)
        with pytest.raises(OutOfRange, match="dim"):
            _params(dim=3, L=(1.0, 1.0, 1.0))


def _bisect_zeros(f, upper, n=200_000, atol=1e-12):
    """Independent oracle: dense scan plus plain bisection."""
    xs = np.linspace(0.0, upper, n)
    fs = f(xs)
    zeros = [float(x) for x, v in zip(xs, fs) if v == 0.0]
    for i in range(n - 1):
        if fs[i] * fs[i + 1] < 0:
            lo, hi = xs[i], xs[i + 1]
            while hi - lo > atol / 4:
                mid = 0.5 * (lo + hi)
                if f(np.array([mid]))[0] * fs[i] < 0:
                    hi = mid
                else:
                    lo = mid
            zeros.append(0.5 * (lo + hi))
    merged = []
    for z in sorted(zeros):
        if not merged or z - merged[-1] > 1e-9 * upper:
            merged.append(z)
    return merged


class TestGrowthZeros:
    def test_logistic(self, logistic_kinetics):
        zeros, largest = cl.growth_zeros(logistic_kinetics)
        assert zeros == pytest.approx([0.0, 1.0], abs=1e-12)
        assert largest == pytest.approx(1.0, abs=1e-12)

    def test_allee(self):
        k = cl.make_kinetics(_params(theta=3), "allee", allee_c=0.5)
        zeros, largest = cl.growth_zeros(k)
        assert zeros == pytest.approx([0.0, 0.5, 1.0], abs=1e-12)
        assert largest == pytest.approx(1.0)

    def test_quadratic_secretion_family_against_bisection_oracle(self):
        k = cl.make_kinetics(_params(a=2, b=3, kappa=2, theta=3), "generalized-logistic")
        zeros, largest = cl.growth_zeros(k, upper=4.0)
        oracle = _bisect_zeros(k.f, 4.0)
        assert zeros == pytest.approx(oracle, abs=1e-10)
        assert largest == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)

    def test_no_zero(self):
        k = cl.make_kinetics(_params(a=1, b=1, theta=2), "power-envelope")
        # f = 1 - u**2 has its only nonnegative zero at 1; search below it
        with pytest.raises(cl.errors.NoZeroFound):
            cl.growth_zeros(k, upper=0.5)

    @given(a=st.floats(0.1, 10), b=st.floats(0.1, 10), kappa=st.floats(0.25, 3))
    @example(a=7.35666256524149, b=1.0, kappa=0.25)
    @settings(max_examples=25, deadline=None)
    def test_logistic_zero_set_is_exact(self, a, b, kappa):
        k = cl.make_kinetics(_params(a=a, b=b, kappa=kappa, theta=kappa + 1), "generalized-logistic")
        zeros, largest = cl.growth_zeros(k)
        assert len(zeros) == 2 and zeros[0] == pytest.approx(0.0, abs=1e-12)
        assert largest == pytest.approx((a / b) ** (1 / kappa), rel=1e-9)


class TestGrowthEnvelope:
    def test_violated_envelope(self, logistic_kinetics):
        check = cl.verify_growth_envelope(logistic_kinetics, 0.25, 1.0, 2.0)
        assert not check.ok
        assert check.worst_violation > 0

    def test_valid_envelope_quadratic_discriminant(self, logistic_kinetics):
        # u - u**2 <= 1 - 0.5*u**2 iff 0.5*u**2 - u + 1 >= 0; discriminant < 0
        assert 1.0 - 4.0 * 0.5 * 1.0 < 0
        check = cl.verify_growth_envelope(logistic_kinetics, 1.0, 0.5, 2.0)
        assert check.ok

    def test_identity_envelope(self):
        k = cl.make_kinetics(_params(theta=3), "power-envelope")
        check = cl.verify_growth_envelope(k, 1.0, 1.0, 3.0)
        assert check.ok
        assert check.worst_violation == pytest.approx(0.0, abs=1e-12)

    def test_sample_count_never_flips_false_to_true(self, logistic_kinetics):
        for n in (128, 256, 1024, 4096):
            assert not cl.verify_growth_envelope(logistic_kinetics, 0.25, 1.0, 2.0, n).ok

    def test_minimum_samples(self, logistic_kinetics):
        with pytest.raises(OutOfRange):
            cl.verify_growth_envelope(logistic_kinetics, 1.0, 0.5, 2.0, n_samples=10)

    def test_constructed_envelopes_verify(self):
        for kind, kw in [
            ("generalized-logistic", {}),
            ("power-envelope", {}),
            ("allee", {"allee_c": 0.3}),
            ("polynomial", {"poly_coeffs": (0.0, 1.0, 0.5, -1.0)}),
        ]:
            k = cl.make_kinetics(_params(theta=3), kind, **kw)
            a_env, b_env, th_env = k.envelope
            assert cl.verify_growth_envelope(k, a_env, b_env, th_env).ok

    def test_polynomial_needs_negative_leading_coefficient(self):
        with pytest.raises(OutOfRange):
            cl.make_kinetics(_params(), "polynomial", poly_coeffs=(0.0, 1.0, 1.0))

    def test_f0_must_be_nonnegative(self):
        with pytest.raises(OutOfRange, match="f"):
            cl.make_kinetics(_params(), "polynomial", poly_coeffs=(-1.0, 0.0, 0.0, -1.0))


class TestStrongDissipativity:
    def test_logistic_closed_form(self, logistic_kinetics):
        assert cl.check_strong_dissipativity(logistic_kinetics, 0.4, 1.0, 1.0) == pytest.approx(0.2)

    def test_fail_carries_pair(self, logistic_kinetics):
        with pytest.raises(DissipativityFail) as err:
            cl.check_strong_dissipativity(logistic_kinetics, 0.6, 1.0, 1.0)
        assert err.value.eta0 == pytest.approx(-0.2)
        assert len(err.value.pair) == 2

    def test_sampled_path_matches_closed_form(self):
        # Same f = u - u**2 expressed as a raw polynomial forces the sampler.
        k = cl.make_kinetics(_params(), "polynomial", poly_coeffs=(0.0, 1.0, -1.0))
        eta = cl.check_strong_dissipativity(k, 0.4, 1.0, 1.0)
        assert eta == pytest.approx(1.0 - 0.8, abs=1e-10)

    def test_general_exponent_identity(self):
        # f = u*(2 - 3*u**2): the difference quotient is identically -3.
        k = cl.make_kinetics(_params(a=2, b=3, kappa=2, theta=3), "generalized-logistic")
        eta = cl.check_strong_dissipativity(k, 0.4, 2.0, math.sqrt(2.0 / 3.0))
        assert eta == pytest.approx(3.0 - 0.8)

    def test_needs_positive_equilibrium(self, logistic_kinetics):
        with pytest.raises(OutOfRange):
            cl.check_strong_dissipativity(logistic_kinetics, 0.4, 1.0, 0.0)


class TestClassifyRegime:
    def test_strict_borderline_inequality_n3(self):
        # theta = kappa + 1 and b just above (kappa*n-2)/(kappa*n)*beta*chi
        p = _params(chi=3.0, b=1.01 * (1.0 / 3.0) * 3.0, theta=2, kappa=1)
        k = cl.make_kinetics(p, "generalized-logistic")
        report = cl.classify_regime(p, k, dim=3)
        assert "StrictBorderlineInequality" in report

    def test_threshold_vanishes_in_2d_linear_secretion(self):
        p = cl.build_params(
            {"chi": 1, "a": 1, "b": 0.01, "theta": 2, "kappa": 1, "beta": 1,
             "dim": 2, "L": math.pi}
        )
        k = cl.make_kinetics(p, "generalized-logistic")
        report = cl.classify_regime(p, k)
        assert "StrictBorderlineInequality" in report

    def test_globally_convergent(self, logistic_params, logistic_kinetics):
        report = cl.classify_regime(logistic_params, logistic_kinetics)
        assert "GloballyConvergent" in report

    def test_borderline_equality(self):
        p = cl.build_params(
            {"chi": 1, "a": 1, "b": 0.5, "theta": 3, "kappa": 2, "beta": 1,
             "dim": 2, "L": math.pi}
        )
        k = cl.make_kinetics(p, "power-envelope")
        report = cl.classify_regime(p, k)
        assert "Borderline" in report
        assert "StrictBorderlineInequality" not in report

    def test_monotone_in_b(self):
        tagged = []
        for b in (0.34, 0.5, 1.0, 3.0):
            p = _params(chi=3.0, b=b, theta=2, kappa=1)
            k = cl.make_kinetics(p, "generalized-logistic")
            tagged.append("StrictBorderlineInequality" in cl.classify_regime(p, k, dim=3))
        # once satisfied at some b, satisfied at every larger b
        first = tagged.index(True)
        assert all(tagged[first:])

    def test_condition_strings_carry_numbers(self, logistic_params, logistic_kinetics):
        report = cl.classify_regime(logistic_params, logistic_kinetics)
        sub = next(v for v in report.verdicts if v.tag == "Subcritical")
        assert "2 - 1 = 1" in sub.condition.replace(".0", "")

    def test_pattern_thresholds_reported(self, logistic_params, logistic_kinetics):
        report = cl.classify_regime(logistic_params, logistic_kinetics)
        verdict = next(v for v in report.verdicts if v.tag == "PatternCapableAt")
        assert verdict.satisfied
        assert verdict.data[0] == pytest.approx(4.0)
        assert verdict.data[1] == pytest.approx(6.25)

    def test_unclassified_fallback(self):
        # supercritical, not borderline, not convergent
        p = _params(chi=5.0, b=0.1, theta=1.5, kappa=2, beta=2)
        k = cl.make_kinetics(p, "power-envelope")
        report = cl.classify_regime(p, k)
        tags = report.satisfied_tags()
        assert tags == ["Unclassified"] or "Unclassified" not in tags
