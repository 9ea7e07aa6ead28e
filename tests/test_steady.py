import functools
import inspect
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import chemolab as cl
from chemolab.elliptic import solve_helmholtz_array
from chemolab.errors import NoConvergence, OutOfRange
from chemolab.evolve import SimState
from chemolab.grid import Field, mode_groups
from chemolab import steady
from chemolab.stability import characteristic_chi
from chemolab.steady import (
    CONSTANT_AMPLITUDE,
    FORCING_FLOOR,
    FORCING_MAX,
    KRYLOV_BUDGET,
    NEWTON_TOL,
    CheckRow,
    ValidationReport,
    _gmres,
    _jvp,
    _krylov_direction,
    _linearize,
    _onset_expansion,
    _precondition,
    stationary_residual,
)


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

    def test_failed_line_search_retries_at_the_floor(self, setup, monkeypatch):
        # a loose direction that does not descend (zero) must be replaced by
        # one solved at FORCING_FLOOR before the solve gives up
        p, k, g, eq = setup
        forcings = []
        real = steady._krylov_direction

        def loose_fails(lin, rhs, forcing):
            forcings.append(forcing)
            d, used = real(lin, rhs, forcing)
            return (d if forcing == FORCING_FLOOR else np.zeros_like(d)), used

        monkeypatch.setattr(steady, "_krylov_direction", loose_fails)
        state = cl.solve_stationary(p, k, _mode_seed(g, k, 0.4))
        assert state.residual_norm < NEWTON_TOL
        assert forcings[0] == FORCING_MAX and forcings[1] == FORCING_FLOOR
        assert all(f == FORCING_FLOOR for f in forcings[1::2])

    def test_failed_retry_raises_no_convergence(self, setup, monkeypatch):
        p, k, g, eq = setup
        forcings = []

        def never_descends(lin, rhs, forcing):
            forcings.append(forcing)
            return np.zeros_like(rhs), 1

        monkeypatch.setattr(steady, "_krylov_direction", never_descends)
        with pytest.raises(NoConvergence, match="stagnated") as exc:
            cl.solve_stationary(p, k, _mode_seed(g, k, 0.4))
        assert forcings == [FORCING_MAX, FORCING_FLOOR]
        assert len(exc.value.history) == 2

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
        assert np.all(branch.amplitudes < 1e-6)

    def test_below_onset_is_the_constant_state_without_a_newton_step(self, setup, monkeypatch):
        p, k, g, eq = setup

        def no_solve(*args, **kwargs):
            raise AssertionError("Newton ran below onset")

        monkeypatch.setattr(steady, "solve_stationary", no_solve)
        branch = cl.continuation(p, k, eq, 1, (3.0, 3.9), 4, grid=g)
        assert branch.chi_h > 3.9 and branch.inv_chi2 > 0
        assert branch.terminated_reason is None and len(branch.states) == 4
        for state in branch.states:
            assert state.iterations == 0 and state.krylov_iterations == 0
            assert np.all(state.u.values == eq.u0) and np.all(state.v.values == eq.v0)
            assert state.residual_norm < NEWTON_TOL
        assert branch.approach_points == 0

    def test_far_first_point_is_approached_and_counted(self, setup):
        # at 2.5 times onset eps max|phi| exceeds u0/2, so the first point is
        # reached by unrecorded secant steps from where that bound holds
        p, k, g, eq = setup
        branch = cl.continuation(p, k, eq, 1, (10.0, 10.0), 1, grid=g)
        (state,) = branch.states
        assert state.amplitude(eq.u0) > 0.5 and state.residual_norm < NEWTON_TOL
        assert branch.approach_points >= 1
        assert branch.approach_newton >= branch.approach_points
        assert branch.approach_krylov >= branch.approach_newton
        # the same state as a continuation that passes through 10 point by point
        ranged = cl.continuation(p, k, eq, 1, (4.2, 10.0), 30, grid=g)
        assert np.max(np.abs(ranged.states[-1].u.values - state.u.values)) < 1e-7

    def test_step_off_the_branch_is_halved(self, setup):
        # from chi = 4.2 the step to 10 converges to a state symmetric about
        # the centre, c ~ 1e-12 on cos(x), and so does the half step to 7.1;
        # the walk takes quarter steps instead and reaches the mode-1 state
        p, k, g, eq = setup
        branch = cl.continuation(p, k, eq, 1, (4.2, 10.0), 2, grid=g)
        assert branch.terminated_reason is None and len(branch.states) == 2
        assert branch.approach_points == 4  # two rejected states and two quarter steps
        assert min(_branch_c(branch, g)) > 0.25
        ranged = cl.continuation(p, k, eq, 1, (4.2, 10.0), 30, grid=g)
        assert np.max(np.abs(ranged.states[-1].u.values - branch.states[-1].u.values)) < 1e-7

    def test_walk_stalls_at_a_fold(self):
        # the 2D 24^2 mode-2 branch folds near chi = 10.25: the walk from
        # onset toward 2.5 times onset stalls there, before a first point
        p, k, g, eq, onset = _logistic_window(2, 24, 1.0, 2)
        branch = cl.continuation(p, k, eq, 2, (2.5 * onset, 3.0 * onset), 3, grid=g)
        assert branch.states == [] and 10.2 < _stalled_at(branch) < 10.3
        assert "Newton" in branch.terminated_reason and len(branch.terminated_history) >= 2
        assert branch.approach_points >= 1

    def test_negative_secant_guess_continues_from_previous_state(self, monkeypatch):
        # 1D n=32, chi from 4.2 to 30 in 15 points: the secant through the
        # first two states dips to u = -0.11, so the third point starts from
        # the second state; later points start from the secant
        p = _params()
        k = cl.make_kinetics(p, "generalized-logistic")
        g = cl.make_grid(p, 32)
        guesses = []
        real = steady.solve_stationary

        def recording(p_i, k_i, guess, **kwargs):
            guesses.append(np.stack([guess[0].values, guess[1].values]))
            return real(p_i, k_i, guess, **kwargs)

        monkeypatch.setattr(steady, "solve_stationary", recording)
        branch = cl.continuation(p, k, cl.equilibrium_info(k, 1.0), 1, (4.2, 30.0), 15, grid=g)
        assert branch.terminated_reason is None and len(branch.states) == 15
        states = [np.stack([s.u.values, s.v.values]) for s in branch.states]
        assert len(guesses) == 15  # one solve per point, the first on the expansion
        guesses = guesses[1:]
        assert np.array_equal(guesses[0], states[0])
        assert float((2 * states[1] - states[0])[0].min()) < 0.0
        assert np.array_equal(guesses[1], states[1])
        secants = 0
        for i in range(3, 15):
            secant = 2 * states[i - 1] - states[i - 2]
            expected = secant if secant[0].min() >= 0.0 else states[i - 1]
            assert np.array_equal(guesses[i - 1], expected)
            secants += expected is secant
        assert secants >= 10

    def test_failed_predicted_solve_retried_at_half_the_step(self, setup, monkeypatch):
        # point 3's solve from the secant fails once: the walk solves at half
        # the step from the secant with ratio 1/2, with no keyword argument
        # (so at FORCING_MAX), then reaches point 3 from the secant through
        # point 2 and that half step
        p, k, g, eq = setup
        keywords = inspect.signature(steady.solve_stationary).parameters
        assert not {"forcing_max", "seed_mode", "continuation_step"} & set(keywords)
        calls, solved = [], []
        real = steady.solve_stationary

        def fourth_solve_fails(p_i, k_i, guess):
            calls.append((p_i.chi, np.stack([guess[0].values, guess[1].values])))
            state = real(p_i, k_i, guess)
            if len(calls) == 4:
                raise NoConvergence("stalled", best=state, history=[1.0, 1.0])
            solved.append(np.stack([state.u.values, state.v.values]))
            return state

        monkeypatch.setattr(steady, "solve_stationary", fourth_solve_fails)
        branch = cl.continuation(p, k, eq, 1, (4.2, 5.0), 5, grid=g)
        assert branch.terminated_reason is None and len(branch.states) == 5
        chis = np.linspace(4.2, 5.0, 5)
        assert [chi for chi, _ in calls] == pytest.approx([*chis[:4], 4.7, *chis[3:]], abs=1e-15)
        assert np.array_equal(calls[4][1], 1.5 * solved[2] - 0.5 * solved[1])
        assert np.array_equal(calls[5][1], 2.0 * solved[3] - 1.0 * solved[2])
        assert branch.approach_points == 2  # the failed solve and the half step

    # 12-point windows that the walk completes with every point on the
    # branch: in the first two a solve from the previous state alone falls
    # back to the constant (1D, second point) or fails (2D, fourth point);
    # the 1D 2.5-6 window starts with steps from onset
    @pytest.mark.parametrize("dim, cells, kappa, mode, window", [
        (1, 64, 1.0, 1, (1.02, 2.5)), (2, 24, 0.5, 2, (1.02, 2.5)), (1, 256, 1.0, 2, (2.5, 6.0)),
    ])
    def test_far_windows_complete(self, dim, cells, kappa, mode, window):
        p, k, g, eq, onset = _logistic_window(dim, cells, kappa, mode)
        branch = cl.continuation(p, k, eq, mode, (window[0] * onset, window[1] * onset), 12, grid=g)
        assert branch.terminated_reason is None and len(branch.states) == 12
        assert max(s.residual_norm for s in branch.states) < NEWTON_TOL
        assert min(_branch_c(branch, g)) >= CONSTANT_AMPLITUDE

    # windows whose branch ends: the 2D 24^2 kappa = 1 mode-2 branch folds
    # near chi = 10.25, short of 2.5 times onset; on the kappa = 2 mode-1
    # branch c falls toward 0 and every step past chi = 4.04 leaves the branch
    @pytest.mark.parametrize("dim, cells, kappa, mode, window, points, stall", [
        (2, 24, 1.0, 2, (2.5, 6.0), 0, (10.2, 10.3)),
        (2, 48, 2.0, 1, (1.02, 2.5), 3, (4.0, 4.1)),
        (1, 256, 2.0, 1, (2.5, 6.0), 0, (4.0, 4.1)),
    ])
    def test_far_windows_stall(self, dim, cells, kappa, mode, window, points, stall):
        p, k, g, eq, onset = _logistic_window(dim, cells, kappa, mode)
        branch = cl.continuation(p, k, eq, mode, (window[0] * onset, window[1] * onset), 12, grid=g)
        assert len(branch.states) == points and stall[0] < _stalled_at(branch) < stall[1]
        assert all(c >= CONSTANT_AMPLITUDE for c in _branch_c(branch, g))

    def test_every_mode_of_a_coarse_grid_seeds_a_grid_cosine(self):
        # an index k >= n aliases: cos(n*pi*x/L) samples to zero at the cell
        # centres, so an expansion on it would be no perturbation at all
        p = cl.build_params(
            {"chi": 4.2, "a": 1, "b": 1, "theta": 2, "kappa": 1, "beta": 1, "dim": 2, "L": math.pi}
        )
        k = cl.make_kinetics(p, "generalized-logistic")
        g = cl.make_grid(p, 8)
        eq = cl.equilibrium_info(k, 1.0)
        groups = mode_groups(g.helmholtz_symbol, g.n_cells)
        assert sum(len(members) for _, members in groups) == g.n_cells
        assert all(i < n for _, members in groups for ks in members for i, n in zip(ks, g.shape))
        constant = np.ones(g.shape)
        for mode, (sigma, members) in enumerate(groups[1:], start=1):
            chi_h, _, w1, _ = _onset_expansion(p, k, eq, g, sigma, members)
            assert chi_h == characteristic_chi(eq, sigma)
            # the first-order term is (phi, g'(u0)/sigma_h phi) on the first
            # member's cosine, of norm >= 4 on this grid, and a null vector
            # of the Jacobian at the constant state and chi_h
            cosine = g.cosine_product(members[0])
            assert np.array_equal(w1[0], cosine)
            assert w1[1] == pytest.approx(eq.gprime / sigma * cosine, rel=1e-15, abs=1e-15)
            assert np.linalg.norm(w1[0]) > 0.1, mode
            lin = _linearize(eq.u0 * constant, eq.v0 * constant, replace(p, chi=chi_h), k, g)
            assert np.max(np.abs(_jvp(lin, w1))) <= 1e-14 * chi_h * sigma, mode

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


def _logistic_window(dim, cells, kappa, mode):
    """Logistic kinetics (a = b = 1, theta = kappa + 1) on an n^dim grid of
    side pi, with the mode's discrete onset."""
    p = cl.build_params(
        {"chi": 1, "a": 1, "b": 1, "theta": kappa + 1, "kappa": kappa, "beta": 1,
         "dim": dim, "L": math.pi}
    )
    k = cl.make_kinetics(p, "generalized-logistic")
    g = cl.make_grid(p, cells)
    eq = cl.equilibrium_info(k, 1.0)
    onset = characteristic_chi(eq, mode_groups(g.helmholtz_symbol, mode + 1)[mode][0])
    return p, k, g, eq, onset


def _branch_c(branch, g):
    """c = <u - u0, phi>/<phi, phi> per point, phi the seed mode's first cosine."""
    members = mode_groups(g.helmholtz_symbol, branch.seed_mode + 1)[branch.seed_mode][1]
    phi = g.cosine_product(members[0])
    return [float(np.vdot(s.u.values - branch.reference, phi) / np.vdot(phi, phi))
            for s in branch.states]


def _stalled_at(branch):
    """The chi named by a stalled branch's terminated_reason."""
    return float(re.match(r"continuation stalled at chi = (\S+):", branch.terminated_reason)[1])


def _random_state(dim):
    """A rough nonconstant (u, v) on the 1D n=16 or 2D 8x10 test grid."""
    if dim == 1:
        p = _params(chi=1.3)
        g = cl.make_grid(p, 16)
    else:
        p = cl.build_params(
            {"chi": 1.3, "a": 1, "b": 1, "theta": 2, "kappa": 1, "beta": 1,
             "dim": 2, "L": (1.0, 1.6)}
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
            jd = _jvp(_linearize(u, v, p, k, g), np.stack([du, dv]))
            assert fd == pytest.approx(_stacked(jd), rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_newton_direction_matches_dense_solve(self, dim):
        p, k, g, u, v, _ = _random_state(dim)
        n = g.n_cells
        lin = _linearize(u, v, p, k, g)
        columns = [_jvp(lin, e.reshape((2,) + g.shape)).ravel() for e in np.eye(2 * n)]
        ru, rv = stationary_residual(u, v, p, k, g)
        dense = np.linalg.solve(np.column_stack(columns), -_stacked((ru, rv)))
        direction, _ = _krylov_direction(lin, -np.stack([ru, rv]), FORCING_FLOOR)
        krylov = _stacked(direction)
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
        sigma, members = mode_groups(g.helmholtz_symbol, 2)[1]
        p = replace(p, chi=characteristic_chi(eq, sigma))
        u = 1.0 + 1e-3 * g.cosine_product(members[0])
        guess = (Field(u, g), Field(solve_helmholtz_array(g, k.g(u)), g))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                state = cl.solve_stationary(p, k, guess)
            except NoConvergence as exc:
                assert exc.history
            else:
                assert state.residual_norm < NEWTON_TOL

    @pytest.mark.parametrize("j", [-2, -1, 0, 1, 2])
    @pytest.mark.parametrize("dim, cells", [(1, 64), (2, 16)])
    def test_newton_converges_within_eps_of_onset(self, dim, cells, j):
        # the preconditioner's critical-mode determinant is zero up to
        # roundoff here; its floor keeps the inverse finite
        p = cl.build_params(
            {"chi": 1, "a": 1, "b": 1, "theta": 2, "kappa": 1, "beta": 1, "dim": dim, "L": math.pi}
        )
        k = cl.make_kinetics(p, "generalized-logistic")
        g = cl.make_grid(p, cells)
        eq = cl.equilibrium_info(k, 1.0)
        sigma, members = mode_groups(g.helmholtz_symbol, 2)[1]
        chi = characteristic_chi(eq, sigma) * (1.0 + j * np.finfo(float).eps)
        p = replace(p, chi=chi)
        u = 1.0 + 1e-3 * g.cosine_product(members[0])
        guess = (Field(u, g), Field(solve_helmholtz_array(g, k.g(u)), g))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = cl.solve_stationary(p, k, guess)
        assert state.residual_norm < NEWTON_TOL


class TestGmres:
    @staticmethod
    def _system(size, seed):
        # nonsymmetric and strictly diagonally dominant by rows
        rng = np.random.default_rng(seed)
        off = rng.uniform(-1.0, 1.0, (size, size))
        return off + np.diag(np.abs(off).sum(axis=1) + 1.0), rng.normal(size=size)

    def test_matches_dense_solve(self):
        a, b = self._system(200, 0)
        x, _ = _gmres(lambda y: a @ y, b, KRYLOV_BUDGET, 1e-13 * np.linalg.norm(b))
        exact = np.linalg.solve(a, b)
        assert np.linalg.norm(x - exact) <= 1e-10 * np.linalg.norm(exact)

    @pytest.mark.parametrize("relative", [1e-2, 1e-10])
    def test_true_residual_within_tol(self, relative):
        a, b = self._system(200, 3)
        tol = relative * np.linalg.norm(b)
        x, basis = _gmres(lambda y: a @ y, b, KRYLOV_BUDGET, tol)
        assert len(basis) < KRYLOV_BUDGET
        assert np.linalg.norm(b - a @ x) <= tol

    def test_loose_tol_stops_earlier(self):
        a, b = self._system(200, 3)
        loose = _gmres(lambda y: a @ y, b, KRYLOV_BUDGET, 1e-2 * np.linalg.norm(b))[1]
        tight = _gmres(lambda y: a @ y, b, KRYLOV_BUDGET, 1e-10 * np.linalg.norm(b))[1]
        assert len(loose) < len(tight)

    def test_zero_rhs_returns_zeros_without_matvec(self):
        def matvec(y):
            raise AssertionError("mat-vec called")

        x, basis = _gmres(matvec, np.zeros(7), KRYLOV_BUDGET, 1e-11)
        assert np.array_equal(x, np.zeros(7))
        assert basis.shape == (0, 7)

    @pytest.mark.parametrize("budget", [1, 3, 6])
    def test_small_budget_returns_least_squares_iterate(self, budget):
        a, b = self._system(200, 1)
        x, basis = _gmres(lambda y: a @ y, b, budget, 0.0)
        assert basis.shape == (budget, 200)
        # the Krylov space of a is that of a - c*I; the shift keeps its
        # power basis well conditioned
        shifted = a - np.mean(np.diag(a)) * np.eye(200)
        krylov = np.column_stack([np.linalg.matrix_power(shifted, i) @ b for i in range(budget)])
        q, _ = np.linalg.qr(krylov)
        coeffs = np.linalg.lstsq(a @ q, b, rcond=None)[0]
        assert np.linalg.norm(x - q @ coeffs) <= 1e-10 * np.linalg.norm(x)
        assert np.linalg.norm(b - a @ x) <= np.linalg.norm(b)

    def test_basis_is_orthonormal(self):
        a, b = self._system(200, 2)
        _, basis = _gmres(lambda y: a @ y, b, 40, 0.0)
        assert basis.shape == (40, 200)
        assert np.max(np.abs(basis @ basis.T - np.eye(40))) <= 1e-12


class TestPreconditioner:
    @seed(11)
    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(0.5, 2.0), b=st.floats(0.5, 2.0), chi=st.floats(0.1, 20.0),
        shape=st.one_of(st.tuples(st.integers(8, 40)),
                        st.tuples(st.integers(8, 16), st.integers(8, 16))),
        data_seed=st.integers(0, 2**32 - 1),
    )
    def test_inverts_jacobian_at_constant_state(self, a, b, chi, shape, data_seed):
        dim = len(shape)
        p = cl.build_params(
            {"chi": chi, "a": a, "b": b, "theta": 2, "kappa": 1, "beta": 1,
             "dim": dim, "L": (math.pi, 2.0)[:dim]}
        )
        k = cl.make_kinetics(p, "generalized-logistic")
        g = cl.make_grid(p, shape)
        eq = cl.equilibrium_info(k, a / b)
        # away from onset: no mode's 2x2 block is close to singular
        lam = g.laplacian_eigenvalues
        block_det = (lam - eq.fprime) * (lam + 1.0) - chi * eq.u0 * lam * eq.gprime
        assume(np.min(np.abs(block_det) / (lam + 1.0) ** 2) > 1e-3)
        u = np.full(g.shape, eq.u0)
        lin = _linearize(u, np.full(g.shape, eq.v0), p, k, g)
        x = np.random.default_rng(data_seed).normal(size=(2,) + g.shape)
        assert np.max(np.abs(_jvp(lin, _precondition(lin, x)) - x)) <= 1e-10 * np.max(np.abs(x))

    def test_singular_constant_mode_block_stays_finite(self):
        # u = v = 0.5 under f(u) = u(1 - u): mean f'(u) = 0, so the constant
        # mode's block [[0, 0], [mean g', -1]] has determinant 0 and no
        # |ad| + |bc| to scale a floor by
        p = _params()
        k = cl.make_kinetics(p, "generalized-logistic")
        g = cl.make_grid(p, 32)
        half = Field.constant(g, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lin = _linearize(half.values, half.values, p, k, g)
            assert all(np.all(np.isfinite(block)) for block in lin.inverse_block)
            # the Jacobian itself is singular on the constant mode there, so
            # Newton stagnates instead of dividing by zero
            with pytest.raises(NoConvergence, match="stagnated"):
                cl.solve_stationary(p, k, (half, half))


class TestOnsetExpansion:
    """1/chi2 of the onset expansion against Newton states on 1D logistic
    branches (a = b = 1, L = pi); for kappa = 1 and mode 1 it is 1/2 in the
    continuum."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _onset(kappa, mode, cells):
        p = cl.build_params(
            {"chi": 1, "a": 1, "b": 1, "theta": kappa + 1, "kappa": kappa, "beta": 1,
             "dim": 1, "L": math.pi}
        )
        k = cl.make_kinetics(p, "generalized-logistic")
        g = cl.make_grid(p, cells)
        eq = cl.equilibrium_info(k, 1.0)
        sigma, members = mode_groups(g.helmholtz_symbol, mode + 1)[mode]
        return p, k, g, eq, _onset_expansion(p, k, eq, g, sigma, members)

    # kappa != 1 gives g'' != 0, so the v row of the solvability condition counts
    @pytest.mark.parametrize("kappa, mode, cells", [
        (1.0, 1, 64), (1.0, 1, 128), (2.0, 1, 64), (0.5, 1, 64), (2.0, 2, 64),
    ])
    def test_inv_chi2_matches_newton_amplitudes(self, kappa, mode, cells):
        # a**2/(chi - chi_h) = 1/chi2 + O(chi - chi_h) for the phi-projection a
        # of the Newton state; Richardson over delta = 1e-3 and 4e-3 removes
        # the linear term
        p, k, g, eq, (chi_h, inv_chi2, w1, _) = self._onset(kappa, mode, cells)
        phi = w1[0]
        ratios = []
        for delta in (1e-3, 4e-3):
            chi = chi_h * (1.0 + delta)
            branch = cl.continuation(p, k, eq, mode, (chi, chi), 1, grid=g)
            (state,) = branch.states
            assert state.residual_norm < NEWTON_TOL
            a = float(np.vdot(state.u.values - eq.u0, phi)) / float(np.vdot(phi, phi))
            assert a > 0.0  # eps > 0 keeps the orientation of phi
            ratios.append(a * a / (chi - chi_h))
        extrapolated = (4.0 * ratios[0] - ratios[1]) / 3.0
        assert extrapolated == pytest.approx(inv_chi2, rel=1e-3)

    def test_inv_chi2_converges_at_second_order(self):
        errors = [self._onset(1.0, 1, cells)[4][1] - 0.5 for cells in (64, 128)]
        assert errors[0] > 0.0 and 3.5 < errors[0] / errors[1] < 4.5


class TestBranchRegression:
    """Accepted Newton and GMRES counts and amplitudes along two mode-1
    logistic branches under the inexact Newton step, the onset-expansion
    start and the secant predictor.

    EXACT_STEP_AMPLITUDES are the same branches under exact Newton steps
    (GMRES to 1e-10 relative) started from the previous point; both are
    converged to NEWTON_TOL, so they agree within 10 NEWTON_TOL."""

    RAW = {"chi": 0.4, "a": 1, "b": 1, "theta": 2, "kappa": 1, "beta": 1, "L": math.pi}
    BRANCHES = {
        # the onset-analysis benchmark branch
        "2d-64": (2, 64, (4.2, 6.0), 10, [4, 5, 4, 4, 3, 3, 3, 3, 3, 3], [
            0.33777402950276714, 0.4781053714758685, 0.5795478448354807, 0.6587056349998082,
            0.722582872724177, 0.7750735411582772, 0.8186616574136407, 0.8550653441950429,
            0.8855366451533431, 0.9110213440127881,
        ]),
        "1d-256": (1, 256, (4.2, 8.0), 20, [3, 5, 4] + [3] * 17, [
            0.33788652003534714, 0.4783525191841327, 0.5799465686564704, 0.6592653861049071,
            0.7233078466183109, 0.7759640487418724, 0.8197150595343263, 0.8562767316659841,
            0.8868993618675842, 0.9125274118928246, 0.9338932795990431, 0.9515764872517722,
            0.9660432085456807, 0.9776738877165425, 0.9867832673729442, 0.9936353609546045,
            0.9984549210582874, 1.0014363800730717, 1.0027508899020545, 1.0025518691578754,
        ]),
    }
    EXACT_STEP_AMPLITUDES = {
        "2d-64": [
            0.3377740302790724, 0.4781053706619298, 0.5795478448401938, 0.6587056349998326,
            0.7225828725971908, 0.7750735413671868, 0.8186616574331012, 0.8550653441856051,
            0.8855366451674358, 0.91102134402493,
        ],
        "1d-256": [
            0.33788652006317954, 0.47835251917159405, 0.579946568661406, 0.6592653861527968,
            0.7233078464948617, 0.7759640489508848, 0.8197150595809097, 0.8562767316875168,
            0.8868993618826428, 0.9125274119048135, 0.933893279610442, 0.9515764872620773,
            0.966043208555531, 0.977673887725756, 0.9867832673817187, 0.9936353609655904,
            0.9984549210670528, 1.0014363800819863, 1.0027508899092035, 1.002551869164746,
        ],
    }
    # GMRES iterations summed over the accepted states; the first point
    # starts on the onset expansion, so every solve is accepted
    KRYLOV_ITERATIONS = {"2d-64": 235, "1d-256": 532}

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _branch(name):
        dim, cells, chi_range, points, _, _ = TestBranchRegression.BRANCHES[name]
        p = cl.build_params({**TestBranchRegression.RAW, "dim": dim})
        k = cl.make_kinetics(p, "generalized-logistic")
        g = cl.make_grid(p, cells)
        return cl.continuation(p, k, cl.equilibrium_info(k, 1.0), 1, chi_range, points, grid=g)

    @pytest.mark.parametrize("name", sorted(BRANCHES))
    def test_counts_and_amplitudes_unchanged(self, name):
        _, _, _, _, iterations, amplitudes = self.BRANCHES[name]
        branch = self._branch(name)
        assert branch.terminated_reason is None
        assert [s.iterations for s in branch.states] == iterations
        assert np.max(np.abs(branch.amplitudes - amplitudes)) <= 1e-12
        assert max(s.residual_norm for s in branch.states) < NEWTON_TOL
        assert np.max(np.abs(branch.amplitudes - self.EXACT_STEP_AMPLITUDES[name])) <= 10 * NEWTON_TOL

    @pytest.mark.parametrize("name", sorted(BRANCHES))
    def test_krylov_iterations_pinned(self, name):
        branch = self._branch(name)
        assert sum(s.krylov_iterations for s in branch.states) == self.KRYLOV_ITERATIONS[name]
        assert all(s.krylov_iterations >= s.iterations for s in branch.states)


class TestLineSearch:
    def test_nan_trial_residuals_emit_no_warning(self, monkeypatch):
        # 2D 13^2, kappa = 1.9, Newton from u0 + s*u0*cos(x)cos(y) for
        # s = 0.05 ... 0.8: some line-search trials have u < 0, so u**1.9 is
        # NaN there and the trial is rejected silently
        a, b, kappa = 1.084592174890127, 0.6797338484583977, 1.9
        p = cl.build_params(
            {"chi": 2.8358778384769625, "a": a, "b": b, "theta": kappa + 1, "kappa": kappa,
             "beta": 1, "dim": 2, "L": math.pi}
        )
        k = cl.make_kinetics(p, "generalized-logistic")
        g = cl.make_grid(p, 13)
        eq = cl.equilibrium_info(k, (a / b) ** (1 / kappa))
        nan_trials = []
        real = steady.stationary_residual

        def recording(*args):
            ru, rv = real(*args)
            nan_trials.append(bool(np.isnan(ru).any()))
            return ru, rv

        monkeypatch.setattr(steady, "stationary_residual", recording)
        states = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fraction in (0.05, 0.1, 0.2, 0.4, 0.8):
                u = eq.u0 * (1.0 + fraction * g.cosine_product((1, 1)))
                guess = (Field(u, g), Field(solve_helmholtz_array(g, k.g(u)), g))
                try:
                    states.append(cl.solve_stationary(p, k, guess))
                except NoConvergence:
                    pass
        assert any(nan_trials)
        # the same state as the solve with warnings enabled
        state = states[2]
        assert state.iterations == 5
        assert state.residual_norm == pytest.approx(1.3620271770374827e-10, rel=1e-6)
        assert float(state.u.values.sum()) == pytest.approx(216.11787506337316, rel=1e-13)
        assert float(state.v.values.sum()) == pytest.approx(269.65859942481677, rel=1e-13)


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
                        st.tuples(st.just(2), st.integers(8, 16)),
                        st.tuples(st.just(3), st.just(8))),
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
        onsets = [characteristic_chi(eq, sigma)
                  for sigma, _ in mode_groups(g.helmholtz_symbol, 6)[1:]]
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


    def test_3d_steady_state_is_step_fixed_point(self):
        p = cl.build_params(
            {"chi": 4.6, "a": 1, "b": 1, "theta": 2, "kappa": 1, "beta": 1, "dim": 3, "L": math.pi}
        )
        k = cl.make_kinetics(p, "generalized-logistic")
        g = cl.make_grid(p, 8)
        branch = cl.continuation(p, k, cl.equilibrium_info(k, 1.0), 1, (4.6, 4.6), 1, grid=g)
        state = branch.states[0]
        assert state.amplitude(1.0) > 0.1
        s = SimState(t=0.0, u=state.u.copy(), v=state.v.copy(), dt=0.0)
        moved = cl.step(replace(s, dt=cl.adapt_dt(s, p, k)), p, k).u.values - state.u.values
        assert np.max(np.abs(moved)) <= 1e-12


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

    def test_unknown_row_name(self):
        report = ValidationReport((CheckRow("elliptic_identity", 1e-8, 0.0, True),))
        with pytest.raises(KeyError, match="no_such_check"):
            report.row("no_such_check")

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

    def test_nonpositive_v_fails_the_elliptic_identity(self, setup, pattern):
        p, k, g, eq = setup
        v = pattern.v.values.copy()
        v.flat[0] = 0.0
        fake = cl.SteadyState(u=pattern.u.copy(), v=Field(v, g), chi=pattern.chi,
                              residual_norm=pattern.residual_norm, iterations=pattern.iterations)
        row = cl.validate_steady(fake, replace(p, chi=pattern.chi), k).row("elliptic_identity")
        assert (row.passed, row.observed, row.note) == (False, np.inf, "v not positive")
