import math

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

import chemolab as cl
from chemolab.errors import MissingKey, OutOfRange, UnknownKey
from chemolab.grid import Grid


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

    def test_missing_length(self):
        raw = {"chi": 0.4, "a": 1, "b": 1, "theta": 2, "kappa": 1, "beta": 1, "dim": 1}
        with pytest.raises(MissingKey, match="^missing required key: L$"):
            cl.build_params(raw)

    def test_unknown_key(self):
        with pytest.raises(UnknownKey):
            _params(extra=1)

    @pytest.mark.parametrize("overrides, reason", [
        ({"a": -1}, "a: must be >= 0 (got -1.0)"),
        ({"b": 0}, "b: must be > 0 (got 0.0)"),
        ({"kappa": 0}, "kappa: must be > 0 (got 0.0)"),
        ({"beta": -1}, "beta: must be > 0 (got -1.0)"),
        ({"L": (1.0, 2.0)}, "lengths: need 1 entries (got 2)"),
        ({"dim": 2, "L": (1.0, 0.0)}, "lengths: all sides must be > 0 (got (1.0, 0.0))"),
    ])
    def test_out_of_range_value_names_its_key(self, overrides, reason):
        with pytest.raises(OutOfRange) as info:
            _params(**overrides)
        assert str(info.value) == reason

    def test_lengths_match_dim(self):
        p = cl.build_params(
            {"chi": 1, "a": 1, "b": 1, "theta": 2, "kappa": 1, "beta": 1,
             "dim": 2, "L": (1.0, 2.0)}
        )
        assert p.volume == pytest.approx(2.0)

    def test_dimension_bounded_one_to_three(self):
        # params and grids share one bound; n >= 4 stays classifier-only
        # (see classify_regime dim=)
        for dim in (0, 4):
            with pytest.raises(OutOfRange, match="dim"):
                _params(dim=dim, L=(1.0,) * dim)
            with pytest.raises(OutOfRange, match="axes"):
                Grid((1.0,) * dim, (8,) * dim)
        p = _params(dim=3, L=(1.0, 2.0, 3.0))
        g = cl.make_grid(p, 8)
        assert p.volume == pytest.approx(6.0)
        assert g.shape == (8, 8, 8) and g.axis_names == ("x", "y", "z")


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


@st.composite
def _zero_cases(draw):
    """A logistic or power-envelope parameter set, or 2 to 4 distinct roots
    in [0, 5], the positive ones at least 1e-2 apart and from 0, with 0
    among them when the count is even so that f = -prod(u - r) has
    f(0) >= 0."""
    kind = draw(st.sampled_from(("generalized-logistic", "power-envelope", "polynomial")))
    if kind == "generalized-logistic":
        return kind, {"a": draw(st.floats(0.0, 10.0)), "b": draw(st.floats(0.01, 10.0)),
                      "kappa": draw(st.floats(0.05, 16.0))}, []
    if kind == "power-envelope":
        return kind, {"a": draw(st.floats(0.0, 10.0)), "b": draw(st.floats(0.01, 10.0)),
                      "theta": draw(st.floats(1.01, 2000.0))}, []
    roots = sorted(draw(st.lists(st.floats(0.0, 5.0), min_size=2, max_size=4, unique=True)))
    if len(roots) % 2 == 0:
        roots[0] = 0.0
    positive = [0.0] + [r for r in roots if r > 0]
    assume(all(hi - lo >= 1e-2 for lo, hi in zip(positive, positive[1:])))
    return kind, {}, roots


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
        zeros, largest = cl.growth_zeros(k)
        oracle = _bisect_zeros(k.f, 4.0)
        assert zeros == pytest.approx(oracle, abs=1e-10)
        assert largest == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)

    @given(a=st.floats(0.1, 10), b=st.floats(0.1, 10), kappa=st.floats(0.25, 3))
    @example(a=7.35666256524149, b=1.0, kappa=0.25)
    @settings(max_examples=25, deadline=None)
    @seed(13)
    def test_logistic_zero_set_is_exact(self, a, b, kappa):
        k = cl.make_kinetics(_params(a=a, b=b, kappa=kappa, theta=kappa + 1), "generalized-logistic")
        zeros, largest = cl.growth_zeros(k)
        assert len(zeros) == 2 and zeros[0] == pytest.approx(0.0, abs=1e-12)
        assert largest == pytest.approx((a / b) ** (1 / kappa), rel=1e-9)

    def test_quartic_finds_both_close_zeros(self):
        # zeros 1, 2 and 2.002: the last two are closer together than a
        # sampled scan of [0, 4*roof] resolves
        k = cl.make_kinetics(_params(), "polynomial", poly_coeffs=(0, 4.004, -8.006, 5.002, -1))
        _, largest = cl.growth_zeros(k)
        assert largest == pytest.approx(2.002, rel=1e-9)

    def test_allee_double_zero(self):
        # c = 1 gives f = -u*(u - 1)**2, which touches 0 at u = 1 without
        # changing sign
        k = cl.make_kinetics(_params(theta=3), "allee", allee_c=1.0)
        zeros, _ = cl.growth_zeros(k)
        assert any(abs(z - 1.0) < 1e-8 for z in zeros if z > 0)

    def test_unresolvable_positive_zero_is_refused(self):
        # f = -(u - 1e-40)*(u + 1)*(u + 2): the companion eigenvalue of the
        # zero at 1e-40 comes back as 0
        coeffs = tuple(-np.polynomial.polynomial.polyfromroots([1e-40, -1.0, -2.0]))
        k = cl.make_kinetics(_params(), "polynomial", poly_coeffs=coeffs)
        with pytest.raises(OutOfRange, match="poly_coeffs: positive zeros of f too small to resolve"):
            cl.growth_zeros(k)

    @given(case=_zero_cases())
    @settings(max_examples=200, deadline=None)
    @seed(29)
    def test_zeros_are_closed_forms_or_polynomial_roots(self, case):
        # polynomial roots are companion eigenvalues, accurate to about eps
        # times the largest root: roots nearer 0, or three 1e-3 apart next
        # to 5, lose relative digits
        kind, overrides, roots = case
        if kind != "polynomial":
            k = cl.make_kinetics(_params(**overrides), kind)
            a, b = overrides["a"], overrides["b"]
            root = (a / b) ** (1.0 / overrides["kappa" if kind == "generalized-logistic" else "theta"])
            expected = [root] if kind == "power-envelope" else [0.0] if a == 0 else [0.0, root]
            assert cl.growth_zeros(k) == (expected, expected[-1])
            return
        coeffs = tuple(-np.polynomial.polynomial.polyfromroots(roots))
        zeros, _ = cl.growth_zeros(cl.make_kinetics(_params(), kind, poly_coeffs=coeffs))
        assert len(zeros) == len(roots)
        assert zeros == pytest.approx(roots, rel=1e-8, abs=0.0)


def _surplus_critical_points(k):
    """The s > 0 where f(s) + b_env*s**theta_env, and with it the gap
    f(s) - (a_env - b_env*s**theta_env), has a critical point."""
    _, b_env, _ = k.envelope
    if k.f_kind == "generalized-logistic":
        a, b = k.coeffs
        kap = k.exponent
        return [(2.0 * a / (b * (kap + 1.0))) ** (1.0 / kap)] if a > 0 else []
    if k.f_kind == "polynomial":
        surplus = list(k.coeffs)
        surplus[-1] += b_env
        roots = np.polynomial.Polynomial(surplus).deriv().roots()
        # a looser realness test than the one that built a_env
        real = [r for r in roots if abs(r.imag) <= 1e-6 * max(1.0, abs(r))]
        return [float(r.real) for r in real if r.real > 0]
    return []  # power-envelope: the gap is identically 0


def _assert_envelope_holds(k):
    """f(s) <= a_env - b_env*s**theta_env at s = 0, at the critical points of
    the gap and on a log grid up to where b_env*s**theta_env overflows.
    """
    a_env, b_env, th = k.envelope
    big = math.log(np.finfo(float).max)
    s_top = math.exp((big - max(math.log(b_env), 0.0)) / th) * (1.0 - 1e-9)
    s = np.concatenate([[0.0], _surplus_critical_points(k), np.geomspace(1e-9, s_top, 2048)])
    with np.errstate(over="ignore"):  # f's own damping term may overflow to -inf
        damping = b_env * s**th
        f = k.f(s)
    assert np.isfinite(damping).all() and not np.isnan(f).any()
    gap = f - (a_env - damping)
    bad = gap > 0.0
    assert not bad.any(), (k, s[bad], gap[bad])


@st.composite
def _kinetics_cases(draw):
    kind = draw(st.sampled_from(cl.model.F_KINDS))
    a, b = draw(st.floats(0.0, 10.0)), draw(st.floats(0.01, 10.0))
    if kind == "generalized-logistic":
        return kind, {"a": a, "b": b, "kappa": draw(st.floats(0.05, 16.0))}, {}
    if kind == "power-envelope":
        return kind, {"a": a, "b": b, "theta": draw(st.floats(1.01, 2000.0))}, {}
    if kind == "allee":
        return kind, {"theta": 3}, {"allee_c": draw(st.floats(0.0, 1.0))}
    middle = draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=5))
    coeffs = (draw(st.floats(0.0, 1e3)), *middle, -draw(st.floats(0.01, 1e3)))
    return kind, {}, {"poly_coeffs": coeffs}


class TestGrowthEnvelope:
    @given(case=_kinetics_cases())
    @example(case=("power-envelope", {"theta": 2000}, {}))
    @example(case=("generalized-logistic", {"kappa": 16}, {}))
    @settings(max_examples=200, deadline=None)
    @seed(28)
    def test_envelope_bounds_f_in_every_family(self, case):
        kind, overrides, kw = case
        _assert_envelope_holds(cl.make_kinetics(_params(**overrides), kind, **kw))

    def test_constructed_envelopes_verify(self):
        for kind, kw in [
            ("generalized-logistic", {}),
            ("power-envelope", {}),
            ("allee", {"allee_c": 0.3}),
            ("polynomial", {"poly_coeffs": (0.0, 1.0, 0.5, -1.0)}),
        ]:
            _assert_envelope_holds(cl.make_kinetics(_params(theta=3), kind, **kw))

    @pytest.mark.parametrize("kind, kw", [
        ("generalized-logistic", {}), ("power-envelope", {}), ("allee", {"allee_c": 0.3}),
        ("polynomial", {"poly_coeffs": (0.0, 1.0, 0.5, -1.0)}),
    ], ids=["generalized-logistic", "power-envelope", "allee", "polynomial"])
    @pytest.mark.parametrize("theta, kappa", [(2, 1), (3, 2), (17, 16)])
    def test_build_evaluates_f_a_few_times(self, monkeypatch, kind, kw, theta, kappa):
        # only the f(0) >= 0 check: every envelope is built in closed form
        # or from the polynomial's coefficients, without sampling f
        calls = []
        f = cl.Kinetics.f
        monkeypatch.setattr(cl.Kinetics, "f", lambda k, u: calls.append(u) or f(k, u))
        cl.make_kinetics(_params(theta=theta, kappa=kappa), kind, **kw)
        assert len(calls) == 1 and calls[0].tolist() == [0.0]

    @pytest.mark.parametrize("kind, theta, kappa", [
        ("power-envelope", 17, 1), ("power-envelope", 20, 1), ("power-envelope", 40, 1),
        ("power-envelope", 2000, 1), ("generalized-logistic", 17, 16),
    ])
    def test_steep_envelopes_verify_within_the_float_range(self, kind, theta, kappa):
        # the grid ends just below the s where b_env*s**theta_env overflows
        k = cl.make_kinetics(_params(theta=theta, kappa=kappa), kind)
        assert k.envelope[2] == theta
        _assert_envelope_holds(k)

    @pytest.mark.parametrize("c", [0.0, 0.3, 0.5])
    def test_allee_is_the_cubic_polynomial(self, c):
        p = _params(theta=3)
        allee = cl.make_kinetics(p, "allee", allee_c=c)
        poly = cl.make_kinetics(p, "polynomial", poly_coeffs=(0.0, -c, 1.0 + c, -1.0))
        assert allee == poly and allee.f_kind == "polynomial"
        assert allee.envelope == poly.envelope
        # the polynomial envelope is the closed-form Allee surplus bound
        peak = cl.model._poly_max((0.0, -c, 1.0 + c, -0.5))
        assert allee.envelope == (peak + 1e-12 * (1.0 + abs(peak)), 0.5, 3.0)
        # Horner's rule against the product form: a few ulps of the terms
        u = np.linspace(0.0, 2.0, 201)
        product, slope = u * (1.0 - u) * (u - c), -3.0 * u**2 + 2.0 * (1.0 + c) * u - c
        np.testing.assert_allclose(allee.f(u), product, rtol=0, atol=4 * np.spacing(2.0))
        np.testing.assert_allclose(allee.f_prime(u), slope, rtol=0, atol=4 * np.spacing(8.0))

    def test_polynomial_needs_negative_leading_coefficient(self):
        with pytest.raises(OutOfRange):
            cl.make_kinetics(_params(), "polynomial", poly_coeffs=(0.0, 1.0, 1.0))

    def test_polynomial_needs_degree_two(self):
        # f = 1 - u has a negative leading coefficient but no damping power
        with pytest.raises(OutOfRange, match="degree >= 2"):
            cl.make_kinetics(_params(), "polynomial", poly_coeffs=(1.0, -1.0))

    def test_f0_must_be_nonnegative(self):
        with pytest.raises(OutOfRange, match="f"):
            cl.make_kinetics(_params(), "polynomial", poly_coeffs=(-1.0, 0.0, 0.0, -1.0))

    def test_logistic_and_polynomial_share_the_slack_rule(self):
        # f = u - u**2 in both families: surplus peak 0.5, slack 1e-12*(1 + 0.5)
        p = _params()
        logistic = cl.make_kinetics(p)
        polynomial = cl.make_kinetics(p, "polynomial", poly_coeffs=(0.0, 1.0, -1.0))
        assert logistic.envelope == polynomial.envelope == (0.5 + 1.5e-12, 0.5, 2.0)

    def test_logistic_without_linear_growth(self):
        # f = -u**2: the envelope constant is the 1e-12 margin alone
        k = cl.make_kinetics(_params(a=0))
        assert k.envelope == (1e-12, 0.5, 2.0)
        _assert_envelope_holds(k)

    @pytest.mark.parametrize("build, error, reason", [
        (lambda p: cl.Kinetics("bogus", (1.0, 1.0), 2.0, 1.0, 1.0), OutOfRange,
         "f_kind: must be one of ('generalized-logistic', 'power-envelope', 'polynomial') "
         "(got bogus)"),
        (lambda p: cl.make_kinetics(p, "bogus"), OutOfRange, "f_kind: must be one of"),
        (lambda p: cl.make_kinetics(p, "polynomial"), MissingKey, "poly_coeffs"),
        (lambda p: cl.Kinetics("generalized-logistic", (1.0, 1.0), 1.0, 0.0, 1.0), OutOfRange,
         "beta: must be > 0 (got 0.0)"),
        (lambda p: cl.Kinetics("generalized-logistic", (1.0, 1.0), 1.0, 1.0, -1.0), OutOfRange,
         "kappa: must be > 0 (got -1.0)"),
    ], ids=["Kinetics", "make_kinetics", "no-coefficients", "beta", "kappa"])
    def test_unknown_family_or_missing_coefficients(self, build, error, reason):
        with pytest.raises(error) as info:
            build(_params())
        assert reason in str(info.value)


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

    @pytest.mark.parametrize("b, expected", [(1.0, True), (0.3, False), (0.4, False)])
    def test_globally_convergent_reads_chi_times_beta(self, b, expected):
        # chi = 0.1, beta = 2: the bound is 2*chi*beta = 0.4, not 2*chi = 0.2,
        # and b at the bound is the degenerate case, not a margin
        p = cl.build_params({"chi": 0.1, "a": 1, "b": b, "theta": 2, "kappa": 1, "beta": 2,
                             "dim": 1, "L": math.pi})
        report = cl.classify_regime(p, cl.make_kinetics(p, "generalized-logistic"))
        assert ("GloballyConvergent" in report) is expected

    @pytest.mark.parametrize("kind, kw", [
        ("power-envelope", {}), ("polynomial", {"poly_coeffs": (0.0, 1.0, -1.0)}),
    ], ids=["power-envelope", "polynomial"])
    def test_globally_convergent_needs_logistic_growth(self, kind, kw):
        # b = 1 > 2*chi*beta = 0.1 holds, but the margin is the logistic's:
        # for polynomial f = u - u**2 with kappa = 2 the difference quotient
        # -1/(r + s) has no negative bound below -2*chi*beta
        p = _params(chi=0.025, beta=2, theta=3, kappa=2)
        assert "GloballyConvergent" in cl.classify_regime(p, cl.make_kinetics(p))
        assert "GloballyConvergent" not in cl.classify_regime(p, cl.make_kinetics(p, kind, **kw))

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

    def test_dimension_below_one_rejected(self, logistic_params, logistic_kinetics):
        with pytest.raises(OutOfRange, match=r"^dim: must be >= 1 \(got 0\)$"):
            cl.classify_regime(logistic_params, logistic_kinetics, dim=0)

    def test_no_positive_equilibrium_no_pattern(self):
        # f = -u**3 vanishes only at 0
        p = _params(a=0, theta=3)
        report = cl.classify_regime(p, cl.make_kinetics(p, "power-envelope"))
        verdict = next(v for v in report.verdicts if v.tag == "PatternCapableAt")
        assert not verdict.satisfied and verdict.data == ()
        assert verdict.condition == "no positive equilibrium with pattern thresholds -> False"

    @pytest.mark.parametrize("overrides, kind, kw, dim, numbers", [
        # f = u*(1 - u) has theta = kappa + 1 = 2 whatever model.theta says
        ({"theta": 3, "kappa": 1}, "generalized-logistic", {}, 2, ("2 - 1 = 1", "1 > 0 ")),
        # the Allee cubic u*(1 - u)*(u - c) has b = 1 and theta = 3
        ({"theta": 5, "kappa": 2}, "allee", {"allee_c": 0.3}, 2, ("3 - 2 = 1", "1 > 0.5 ")),
        # f = 2u - u**2 has b = 1 and theta = 2, and model.b = 0.2 is below
        # the threshold 1/3 at n = 3
        ({"theta": 3, "kappa": 1, "b": 0.2}, "polynomial", {"poly_coeffs": (0.0, 2.0, -1.0)},
         3, ("2 - 1 = 1", "1 > 0.333333 ")),
    ], ids=["logistic", "allee", "polynomial"])
    def test_theta_and_b_come_from_f(self, overrides, kind, kw, dim, numbers):
        p = _params(chi=1, dim=2, L=(math.pi, math.pi), **overrides)
        report = cl.classify_regime(p, cl.make_kinetics(p, kind, **kw), dim=dim)
        conditions = {v.tag: v.condition for v in report.verdicts}
        assert "Subcritical" not in report and "StrictBorderlineInequality" in report
        assert f"theta - kappa > 1: {numbers[0]} -> False" == conditions["Subcritical"]
        assert "theta = kappa+1 (margin 0.000e+00)" in conditions["StrictBorderlineInequality"]
        assert f"*beta*chi: {numbers[1]}" in conditions["StrictBorderlineInequality"]

    @pytest.mark.parametrize("kind, kw", [
        ("generalized-logistic", {}), ("power-envelope", {}),
        ("polynomial", {"poly_coeffs": (0.0, 2.0, -1.0)}),
    ])
    def test_sublinear_secretion_needs_f_zero(self, kind, kw):
        # case (i) of the paper is kappa < 2/n together with f = 0, and no
        # growth family can be 0: kappa = 0.5 < 2/n = 1 alone does not hold it
        p = _params(kappa=0.5, theta=1.5, dim=2, L=(math.pi, math.pi))
        report = cl.classify_regime(p, cl.make_kinetics(p, kind, **kw))
        verdict = next(v for v in report.verdicts if v.tag == "SublinearSecretion")
        assert not verdict.satisfied
        assert verdict.condition == f"kappa < 2/n: 0.5 < 1 and f = 0 [{kind}]: False -> False"

    def test_unclassified_fallback(self):
        # supercritical, not borderline, not convergent
        p = _params(chi=5.0, b=0.1, theta=1.5, kappa=2, beta=2)
        k = cl.make_kinetics(p, "power-envelope")
        report = cl.classify_regime(p, k)
        tags = report.satisfied_tags()
        assert tags == ["Unclassified"] or "Unclassified" not in tags
