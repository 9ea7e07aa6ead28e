import math

import numpy as np
import pytest

import chemolab as cl
from chemolab.diagnostics import lp_norms
from chemolab.errors import NonPositiveValues, OutOfRange
from chemolab.grid import integrate


def _grid(nx=256):
    p = cl.build_params(
        {"chi": 1, "a": 1, "b": 1, "theta": 2, "kappa": 1, "beta": 1, "dim": 1, "L": math.pi}
    )
    return cl.make_grid(p, nx)


class TestLpNorms:
    def test_constant_field(self):
        g = _grid(64)
        for p_exp in (1.0, 2.0, 3.5):
            assert lp_norms(np.full(64, 2.0), g, p_exp)[0] == pytest.approx(
                2.0 * math.pi ** (1 / p_exp)
            )

    def test_cosine_l2(self):
        g = _grid(256)
        assert lp_norms(np.cos(g.coordinates[0]), g, 2.0)[0] == pytest.approx(
            math.sqrt(math.pi / 2.0), abs=1e-6
        )

    def test_batch_rows_equal_single_fields(self):
        # a field's norm must not depend on its batch
        g = _grid(64)
        batch = np.random.default_rng(1).uniform(-2.0, 2.0, (3, 64))
        for p_exp in (1.0, 1.5, 7.0):
            assert lp_norms(batch, g, p_exp) == [lp_norms(row, g, p_exp)[0] for row in batch]

    def test_l1_norm_of_nonnegative_field_is_its_integral(self):
        g = _grid(64)
        u = np.random.default_rng(2).uniform(0.0, 3.0, 64)
        assert lp_norms(u, g, 1.0)[0] == pytest.approx(integrate(u, g), rel=1e-14)

    def test_monotone_in_p_on_probability_field(self):
        # on a unit-mass normalized field over a unit-measure domain the
        # p-norms increase with p, up to the max norm
        p = cl.build_params(
            {"chi": 1, "a": 1, "b": 1, "theta": 2, "kappa": 1, "beta": 1,
             "dim": 1, "L": 1.0}
        )
        g = cl.make_grid(p, 128)
        u = np.random.default_rng(0).uniform(0.5, 1.5, 128)
        norms = [lp_norms(u, g, q)[0] for q in (1.0, 2.0, 4.0, 8.0)] + [float(np.max(u))]
        assert norms == sorted(norms)


class TestFitExponentialDecay:
    def test_exact_exponential(self):
        t = np.linspace(0, 40, 200)
        fit = cl.fit_exponential_decay(t, np.exp(-0.05 * t))
        assert fit.rate == pytest.approx(-0.05, abs=1e-12)
        assert fit.residual < 1e-12

    def test_perturbed_exponential(self):
        t = np.linspace(0, 100, 400)
        values = np.exp(-0.05 * t) * (1 + 0.01 * np.sin(t))
        fit = cl.fit_exponential_decay(t, values)
        assert fit.rate == pytest.approx(-0.05, rel=0.02)

    def test_rejects_nonpositive(self):
        t = np.linspace(0, 10, 50)
        values = np.exp(-t)
        values[30] = 0.0
        with pytest.raises(NonPositiveValues):
            cl.fit_exponential_decay(t, values)

    @pytest.mark.parametrize("values, window_fraction, reason", [
        (np.ones(49), 0.5, "series: times and values must be equal-length 1D"),
        (np.ones(50), 0.0, "window_fraction: must be in (0, 1] (got 0.0)"),
        (np.ones(50), 1.5, "window_fraction: must be in (0, 1] (got 1.5)"),
    ])
    def test_rejects_bad_series_or_window(self, values, window_fraction, reason):
        with pytest.raises(OutOfRange) as info:
            cl.fit_exponential_decay(np.linspace(0, 10, 50), values, window_fraction)
        assert str(info.value) == reason

    def test_needs_ten_window_points(self):
        t = np.linspace(0, 10, 12)
        with pytest.raises(OutOfRange):
            cl.fit_exponential_decay(t, np.exp(-t), window_fraction=0.2)

    def test_window_fraction_selects_tail(self):
        # fast early transient, clean tail decay
        t = np.linspace(0, 50, 300)
        values = np.exp(-0.05 * t) + 5.0 * np.exp(-2.0 * t)
        fit = cl.fit_exponential_decay(t, values, window_fraction=0.5)
        assert fit.rate == pytest.approx(-0.05, rel=1e-3)
        assert fit.window[0] >= 24.9
