"""Damped Newton for the stationary system, parameter continuation in chi,
and validators for every a-priori steady-state estimate.

The residual is discretized in the same conservative flux form as the time
stepper,

    R_u = div(grad u - chi * avg(u) * grad v) + f(u)
    R_v = lap v - v + g(u),

so a converged steady state is an exact fixed point of one IMEX step (up to
the Newton tolerance).  Each Newton step is Jacobian-free Newton-Krylov
(Knoll & Keyes, J. Comput. Phys. 193, 2004): GMRES on the directional
derivative of that residual, written with the same face stencils, so the
operator is encoded once.  It is right-preconditioned by the exact inverse of
the Jacobian about the mean state, which the DCT-II splits into one 2x2 block
per cosine mode, the algebra of ``stability``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

import numpy as np
import scipy.sparse.linalg as spla

from .elliptic import (
    cell_values,
    cosine_coefficients,
    elliptic_identity_residual,
    neumann_eigenvalues,
    solve_helmholtz_array,
)
from .errors import NoConvergence, NonpositiveV, OutOfRange
from .grid import (
    Field,
    face_averages,
    face_divergence,
    face_gradients,
    integrate,
    laplacian_apply,
)
from .model import Kinetics, ModelParams, growth_zeros
from .stability import EquilibriumInfo

NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 50
NEWTON_MAX_HALVINGS = 20
# GMRES iterations per Newton step, one restart cycle: the 2D 64^2 and 128^2
# onset branch needs at most 16, the worst of 5467 solves over 48 1D/2D
# continuation windows 48.
KRYLOV_BUDGET = 60
SEED_FRACTION = 0.05        # first-point perturbation, as a fraction of u0
CONSTANT_AMPLITUDE = 1e-6   # below this a branch point counts as constant


@dataclass
class SteadyState:
    u: Field
    v: Field
    chi: float
    residual_norm: float
    iterations: int
    seed_mode: int | None = None
    continuation_step: int | None = None

    def amplitude(self, reference: float) -> float:
        return float(np.max(np.abs(self.u.values - reference)))


def stationary_residual(
    u: np.ndarray, v: np.ndarray, p: ModelParams, k: Kinetics, grid
) -> tuple[np.ndarray, np.ndarray]:
    grads = face_gradients(v, grid)
    chemo = [p.chi * a * g for a, g in zip(face_averages(u, grid), grads)]
    ru = laplacian_apply(u, grid) - face_divergence(chemo, grid) + k.f(u)
    rv = laplacian_apply(v, grid) - v + k.g(u)
    return ru, rv


def _jvp(u, v, du, dv, p: ModelParams, k: Kinetics, grid) -> tuple[np.ndarray, np.ndarray]:
    """Directional derivative of stationary_residual at (u, v) along (du, dv)."""
    avgs, grads = face_averages(u, grid), face_gradients(v, grid)
    d_avgs, d_grads = face_averages(du, grid), face_gradients(dv, grid)
    chemo = [p.chi * (da * g + a * dg) for a, da, g, dg in zip(avgs, d_avgs, grads, d_grads)]
    ju = laplacian_apply(du, grid) - face_divergence(chemo, grid) + k.f_prime(u) * du
    jv = laplacian_apply(dv, grid) - dv + k.g_prime(u) * du
    return ju, jv


def _newton_direction(u, v, ru, rv, p: ModelParams, k: Kinetics, grid):
    """GMRES for J (du, dv) = -(ru, rv), right-preconditioned about the mean state.

    About the state (mean u, mean f'(u), mean g'(u)) the cosine mode with
    eigenvalue lam of -lap_h sees the block [[f' - lam, chi*u*lam],
    [g', -lam - 1]], inverted in closed form.  A stalled GMRES still returns its last iterate;
    the line search decides whether that descends.
    """
    n = grid.n_cells
    lam = grid.laplacian_eigenvalues
    a, b = float(np.mean(k.f_prime(u))) - lam, p.chi * float(np.mean(u)) * lam
    c, d = float(np.mean(k.g_prime(u))), -lam - 1.0
    det = a * d - b * c

    def precondition(x):
        xu = cosine_coefficients(grid, x[:n].reshape(grid.shape))
        xv = cosine_coefficients(grid, x[n:].reshape(grid.shape))
        pu, pv = (d * xu - b * xv) / det, (a * xv - c * xu) / det
        return cell_values(grid, pu), cell_values(grid, pv)

    def matvec(x):
        return np.concatenate([r.ravel() for r in _jvp(u, v, *precondition(x), p, k, grid)])

    op = spla.LinearOperator((2 * n, 2 * n), matvec=matvec, dtype=float)
    rhs = -np.concatenate([ru.ravel(), rv.ravel()])
    y, _ = spla.gmres(op, rhs, rtol=1e-10, atol=0.01 * NEWTON_TOL, restart=KRYLOV_BUDGET,
                      maxiter=1)
    return precondition(y)


def solve_stationary(
    p: ModelParams,
    k: Kinetics,
    guess: tuple[Field, Field],
    seed_mode: int | None = None,
    continuation_step: int | None = None,
) -> SteadyState:
    """Damped Newton on the stacked residual; converged at sup-norm < 1e-9.

    At most NEWTON_MAX_ITER iterations, each with a step-halving line search
    of at most NEWTON_MAX_HALVINGS.  NoConvergence carries the best iterate
    and the residual-norm history.
    """
    u_field, v_field = guess
    grid = u_field.grid
    u = u_field.values.copy()
    v = v_field.values.copy()
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise OutOfRange("guess", "must be finite")
    if float(u.min()) < 0.0:
        raise OutOfRange("guess", f"u must be nonnegative (min = {u.min():.3e})")

    def norm(ru, rv):
        return max(float(np.max(np.abs(ru))), float(np.max(np.abs(rv))))

    ru, rv = stationary_residual(u, v, p, k, grid)
    res = norm(ru, rv)
    history = [res]
    for it in range(1, NEWTON_MAX_ITER + 1):
        if res < NEWTON_TOL:
            break
        du, dv = _newton_direction(u, v, ru, rv, p, k, grid)
        s = 1.0
        accepted = False
        for _ in range(NEWTON_MAX_HALVINGS + 1):
            u_try = u + s * du
            v_try = v + s * dv
            # u < 0 with a non-integer exponent gives a NaN residual, rejected below
            with np.errstate(invalid="ignore"):
                ru_try, rv_try = stationary_residual(u_try, v_try, p, k, grid)
                res_try = norm(ru_try, rv_try)
            if np.isfinite(res_try) and res_try < res:
                u, v, ru, rv, res = u_try, v_try, ru_try, rv_try, res_try
                accepted = True
                break
            s *= 0.5
        history.append(res)
        if not accepted:
            raise NoConvergence(
                f"Newton stagnated at residual {res:.3e} after {it} iterations",
                best=(Field(u, grid), Field(v, grid)),
                history=history,
            )
    if res >= NEWTON_TOL:
        raise NoConvergence(
            f"Newton residual {res:.3e} after {NEWTON_MAX_ITER} iterations",
            best=(Field(u, grid), Field(v, grid)),
            history=history,
        )
    if float(u.min()) < -1e-9:
        raise NoConvergence(
            f"converged state violates u >= 0 (min = {u.min():.3e})",
            best=(Field(u, grid), Field(v, grid)),
            history=history,
        )
    return SteadyState(
        u=Field(np.maximum(u, 0.0), grid),
        v=Field(v, grid),
        chi=p.chi,
        residual_norm=res,
        iterations=len(history) - 1,
        seed_mode=seed_mode,
        continuation_step=continuation_step,
    )


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------


@dataclass
class Branch:
    states: list[SteadyState]
    reference: float
    seed_mode: int
    terminated_reason: str | None = None

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([s.amplitude(self.reference) for s in self.states])

    @property
    def is_empty(self) -> bool:
        return bool(np.all(self.amplitudes < CONSTANT_AMPLITUDE)) if self.states else True


def continuation(
    p: ModelParams,
    k: Kinetics,
    e: EquilibriumInfo,
    mode: int,
    chi_range: tuple[float, float],
    steps: int,
    grid=None,
    seed_fraction: float = SEED_FRACTION,
) -> Branch:
    """Trace the steady branch seeded from the given Neumann mode.

    The first point starts from constant + seed_fraction*u0 times the mode
    eigenfunction; later points reuse the previous solution.  NoConvergence
    terminates the branch early, returning the partial list with the reason.
    A range that never leaves the constant basin comes back with every
    amplitude below CONSTANT_AMPLITUDE and reports itself empty.

    Near onset the constant root's Newton basin swallows small seeds (its
    radius shrinks like the branch amplitude), so whenever a fresh seed
    collapses back to the constant the seed amplitude is doubled, up to
    sixteen times the requested fraction, before accepting the constant
    answer.  Each attempt is a plain damped Newton solve, so below the onset
    threshold every rung collapses and the branch honestly reports empty.
    """
    if steps < 1:
        raise OutOfRange("steps", f"must be >= 1 (got {steps})")
    if grid is None:
        raise OutOfRange("grid", "a Grid for the discretization is required")
    pairs = neumann_eigenvalues(grid, mode + 1)
    mode_fn = pairs[mode].eigenfunction.values
    chis = np.linspace(chi_range[0], chi_range[1], steps)
    states: list[SteadyState] = []
    reason = None
    guess = None
    for i, chi in enumerate(chis):
        p_i = dc_replace(p, chi=float(chi))
        if guess is not None:
            try:
                state = solve_stationary(p_i, k, guess, seed_mode=mode, continuation_step=i)
            except NoConvergence as exc:
                reason = str(exc)
                break
        else:
            state = _solve_from_mode_seed(
                p_i, k, e, mode, mode_fn, grid, seed_fraction, step_index=i
            )
            if state is None:
                reason = f"no converged state from mode-{mode} seeds at chi = {chi:g}"
                break
        states.append(state)
        if state.amplitude(e.u0) >= CONSTANT_AMPLITUDE:
            guess = (state.u.copy(), state.v.copy())
    return Branch(states=states, reference=e.u0, seed_mode=mode, terminated_reason=reason)


def _solve_from_mode_seed(
    p: ModelParams,
    k: Kinetics,
    e: EquilibriumInfo,
    mode: int,
    mode_fn: np.ndarray,
    grid,
    seed_fraction: float,
    step_index: int,
) -> SteadyState | None:
    """Escalating-amplitude seeding along one mode; None if nothing converged.

    Returns the first nonconstant solve, or the constant one when every rung
    (including amplitudes up to 16x the requested fraction, capped where the
    seed would go negative) falls back to it.
    """
    best = None
    for rung in range(5):
        amp = seed_fraction * e.u0 * 2.0**rung
        u_seed = e.u0 + amp * mode_fn
        if float(u_seed.min()) < 0.0:
            break
        v_seed = solve_helmholtz_array(grid, k.g(u_seed))
        try:
            attempt = solve_stationary(
                p, k, (Field(u_seed, grid), Field(v_seed, grid)),
                seed_mode=mode, continuation_step=step_index,
            )
        except NoConvergence:
            continue
        if best is None or attempt.amplitude(e.u0) > best.amplitude(e.u0):
            best = attempt
        if attempt.amplitude(e.u0) >= CONSTANT_AMPLITUDE:
            break
    return best


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------

EXACT_TOL = 1e-6
DISCRETE_TOL = 0.02


@dataclass(frozen=True)
class CheckRow:
    name: str
    bound: float
    observed: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class ValidationReport:
    rows: tuple[CheckRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    def row(self, name: str) -> CheckRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)


def validate_steady(s: SteadyState, p: ModelParams, k: Kinetics) -> ValidationReport:
    """Run every steady-state estimate against a converged state.

    Integral bounds use the verified damping envelope of the kinetics;
    exact identities are held to EXACT_TOL, discretization-limited bounds to
    DISCRETE_TOL.  Pure report: rows carry (bound, observed, pass), nothing
    raises on failure.
    """
    grid = s.u.grid
    u = s.u.values
    v = s.v.values
    a_env, b_env, th_env = k.envelope
    vol = grid.volume
    rows: list[CheckRow] = []

    obs = integrate(u**th_env, grid)
    bound = (a_env / b_env) * vol
    rows.append(CheckRow("damped_power_integral", bound, obs, obs <= bound * (1 + DISCRETE_TOL)))

    _, largest_zero = growth_zeros(k)
    obs = float(u.min())
    rows.append(
        CheckRow(
            "min_u_below_largest_zero",
            largest_zero,
            obs,
            obs <= largest_zero * (1 + DISCRETE_TOL) + 1e-12,
        )
    )

    obs = integrate(v, grid)
    bound = k.beta * (a_env / b_env) ** (k.kappa / th_env) * vol
    rows.append(CheckRow("chemical_mass_bound", bound, obs, obs <= bound * (1 + DISCRETE_TOL)))

    roof = (a_env / b_env) ** (1.0 / th_env)
    obs = float(np.max(u * np.exp(-p.chi * v)))
    rows.append(
        CheckRow("pointwise_exp_bound", roof, obs, obs <= roof * (1 + DISCRETE_TOL))
    )

    probe = np.geomspace(1e-9, roof * (1 - 1e-9), 512)
    f_positive_below_roof = bool(np.all(k.f(probe) > 0.0))
    if f_positive_below_roof:
        spread = p.chi * (float(v.max()) - float(v.min()))
        lower = roof * np.exp(-spread)
        upper = roof * np.exp(spread)
        tiny = np.finfo(float).tiny
        ratio = max(float(u.max()) / upper, lower / max(float(u.min()), tiny))
        rows.append(
            CheckRow("two_sided_exp_bound", 1.0, ratio, ratio <= 1.0 + DISCRETE_TOL)
        )
    else:
        rows.append(
            CheckRow(
                "two_sided_exp_bound", np.inf, 0.0, True,
                note="not applicable: f not positive below the envelope root",
            )
        )

    try:
        res = abs(elliptic_identity_residual(s.u, s.v, k.beta, k.kappa))
        bound = 10.0 * max(grid.spacings) ** 2 * vol
        rows.append(CheckRow("elliptic_identity", bound, res, res <= bound * (1 + DISCRETE_TOL)))
    except NonpositiveV:
        rows.append(
            CheckRow("elliptic_identity", np.inf, np.inf, False, note="v not positive")
        )

    if k.f_kind == "generalized-logistic":
        a_f, b_f = k.coeffs
        th_f = k.exponent + 1.0
        lhs = integrate(u**th_f, grid)
        rhs = (a_f / b_f) * integrate(u, grid)
        obs = abs(lhs - rhs)
        bound = EXACT_TOL * lhs
        rows.append(CheckRow("stationary_mass_identity", bound, obs, obs <= bound))
    else:
        rows.append(
            CheckRow(
                "stationary_mass_identity", np.inf, 0.0, True,
                note="not applicable: growth is not u*(a - b*u**kappa)",
            )
        )

    return ValidationReport(tuple(rows))
