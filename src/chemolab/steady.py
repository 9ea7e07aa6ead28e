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
per cosine mode, the algebra of ``stability``.  The linearization is computed
once per Newton step, u and v are transformed and differenced as one stacked
array, and GMRES is this module's own loop (CGS2 Arnoldi, Givens rotations on
Python floats), not scipy.sparse.linalg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np

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
    Grid,
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
# GMRES iterations per Newton step, one cycle: the 2D 64^2 and 128^2 onset
# branch needs at most 16.  Over 48 continuation windows (1D n=64, 256 and 2D
# 24^2, 48^2; logistic kappa 0.5, 1, 2; modes 1, 2; chi from 1.02 to 2.5 and
# from 2.5 to 6 times onset) the median of 5981 solves is 16 and the worst
# below 2.5 times onset 26; four mode-2 windows beyond it reach the budget on
# some points, as they did under scipy's gmres.
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


@dataclass(frozen=True)
class _Linearization:
    """The Jacobian of stationary_residual at one state, and its preconditioner.

    Everything that stays fixed while GMRES runs is computed once per Newton
    step: chi*avg(u) and chi*grad(v) on the faces, f'(u) and g'(u) in the
    cells, and the entries of the inverse 2x2 block per cosine mode about the
    mean state.
    """

    grid: Grid
    chi_avg_u: list[np.ndarray]
    chi_grad_v: list[np.ndarray]
    f_prime: np.ndarray
    g_prime: np.ndarray
    inverse_block: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _linearize(u, v, p: ModelParams, k: Kinetics, grid) -> _Linearization:
    """Linearize about (u, v); the preconditioner is about the mean state.

    About (mean u, mean f'(u), mean g'(u)) the cosine mode with eigenvalue
    lam of -lap_h sees the block [[a, b], [c, d]] = [[f' - lam, chi*u*lam],
    [g', -lam - 1]], inverted in closed form.  At an onset chi the critical
    mode's determinant ad - bc vanishes up to roundoff, so its magnitude is
    floored at 64 eps (|ad| + |bc|), keeping its sign: that mode's inverse is
    then large but finite, and GMRES corrects it.
    """
    f_prime, g_prime = k.f_prime(u), k.g_prime(u)
    lam = grid.laplacian_eigenvalues
    a, b = float(np.mean(f_prime)) - lam, p.chi * float(np.mean(u)) * lam
    c, d = float(np.mean(g_prime)), -lam - 1.0
    det = a * d - b * c
    floor = 64.0 * np.finfo(float).eps * (np.abs(a * d) + np.abs(b * c))
    det = np.where(np.abs(det) < floor, np.copysign(floor, det), det)
    return _Linearization(
        grid=grid,
        chi_avg_u=[p.chi * avg for avg in face_averages(u, grid)],
        chi_grad_v=[p.chi * grad for grad in face_gradients(v, grid)],
        f_prime=f_prime,
        g_prime=g_prime,
        inverse_block=(d / det, -b / det, -c / det, a / det),
    )


def _jvp(lin: _Linearization, d: np.ndarray) -> np.ndarray:
    """Directional derivative of stationary_residual along d = (du, dv), shape
    (2, *grid.shape); both Laplacians come from one stacked stencil call."""
    grid = lin.grid
    du, dv = d
    fluxes = face_gradients(d, grid)
    for flux, chemo, ca, cg in zip(fluxes, face_averages(du, grid), lin.chi_avg_u, lin.chi_grad_v):
        # grad du - chi*(avg(du)*grad v + avg(u)*grad dv), built in place
        chemo *= cg
        chemo += ca * flux[1]
        flux[0] -= chemo
    out = face_divergence(fluxes, grid)
    out[0] += lin.f_prime * du
    out[1] += lin.g_prime * du
    out[1] -= dv
    return out


def _precondition(lin: _Linearization, x: np.ndarray) -> np.ndarray:
    """Apply the mean-state inverse to x = (xu, xv), shape (2, *grid.shape),
    with one stacked forward and one stacked inverse DCT."""
    p00, p01, p10, p11 = lin.inverse_block
    coeffs = cosine_coefficients(lin.grid, x)
    xu, xv = coeffs
    from_v, from_u = p01 * xv, p10 * xu
    xu *= p00
    xu += from_v
    xv *= p11
    xv += from_u
    return cell_values(lin.grid, coeffs)


def _gmres(matvec, b: np.ndarray, budget: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """One GMRES cycle from zero for matvec(x) = b; returns (x, Krylov basis).

    At most ``budget`` iterations, stopping once the least-squares residual
    is <= tol or the Krylov space is invariant.  Arnoldi orthogonalises each
    new vector by classical Gram-Schmidt applied twice (CGS2): as stable as
    modified Gram-Schmidt, in four matrix-vector products instead of a Python
    loop over the basis.  The Givens rotations run on Python floats.  x is
    the least-squares iterate over the returned orthonormal basis, so a
    stalled solve still returns its best iterate.
    """
    beta = float(np.linalg.norm(b))
    if beta <= tol:
        return np.zeros_like(b), np.empty((0, b.size))
    basis = np.empty((budget, b.size))
    basis[0] = b / beta
    r = np.zeros((budget, budget))
    rotations: list[tuple[float, float]] = []
    g = [beta]
    for j in range(budget):
        w = matvec(basis[j])
        w_norm = float(np.linalg.norm(w))
        vj = basis[: j + 1]
        h = vj @ w
        w -= h @ vj
        h2 = vj @ w
        w -= h2 @ vj
        col = (h + h2).tolist()
        col.append(float(np.linalg.norm(w)))
        for i, (cs, sn) in enumerate(rotations):
            col[i], col[i + 1] = cs * col[i] + sn * col[i + 1], cs * col[i + 1] - sn * col[i]
        rho = math.hypot(col[j], col[j + 1])
        if rho == 0.0:  # singular: keep the iterate over the first j vectors
            break
        cs, sn = col[j] / rho, col[j + 1] / rho
        rotations.append((cs, sn))
        col[j] = rho
        r[: j + 1, j] = col[: j + 1]
        g[j], g_next = cs * g[j], -sn * g[j]
        g.append(g_next)
        invariant = col[j + 1] <= np.finfo(float).eps * w_norm
        if abs(g_next) <= tol or invariant or j + 1 == budget:
            break
        np.divide(w, col[j + 1], out=basis[j + 1])
    m = len(rotations)
    # r is upper triangular with a nonzero diagonal, so LU needs no pivoting
    # and this is back substitution
    y = np.linalg.solve(r[:m, :m], g[:m])
    return y @ basis[:m], basis[:m]


def _newton_direction(u, v, ru, rv, p: ModelParams, k: Kinetics, grid):
    """GMRES for J (du, dv) = -(ru, rv), right-preconditioned about the mean
    state; stops at a residual of max(0.01 NEWTON_TOL, 1e-10 |rhs|_2).

    A stalled GMRES still returns its least-squares iterate; the line search
    decides whether that descends.
    """
    lin = _linearize(u, v, p, k, grid)
    shape = (2,) + grid.shape
    rhs = -np.stack([ru, rv]).ravel()

    def matvec(x):
        return _jvp(lin, _precondition(lin, x.reshape(shape))).ravel()

    tol = max(0.01 * NEWTON_TOL, 1e-10 * float(np.linalg.norm(rhs)))
    y, _ = _gmres(matvec, rhs, KRYLOV_BUDGET, tol)
    du, dv = _precondition(lin, y.reshape(shape))
    return du, dv


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
