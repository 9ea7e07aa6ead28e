"""Damped Newton for the stationary system, parameter continuation in chi,
and validators for every a-priori steady-state estimate.

The residual is discretized in the same conservative flux form as the time
stepper,

    R_u = div(grad u - chi * avg(u) * grad v) + f(u)
    R_v = lap v - v + g(u),

so a converged steady state is an exact fixed point of one IMEX step (up to
the Newton tolerance).  Each Newton step is Jacobian-free Newton-Krylov
(Knoll & Keyes, J. Comput. Phys. 193, 2004): GMRES on the directional
derivative of that residual, whose chemotaxis part is the flux derivative
that ``grid`` defines next to the flux, so the operator is encoded once.  It
is right-preconditioned by the exact inverse of the Jacobian about the mean
state, which the DCT-II splits into one 2x2 block per cosine mode, the
algebra of ``stability``.  The linearization is computed once per Newton
step, u and v are transformed and differenced as one stacked array, and
GMRES is its own loop (CGS2 Arnoldi, Givens rotations on Python floats).

Newton is inexact (Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996): step k
stops GMRES at the forcing term min(FORCING_MAX, |r_k|_2) relative to |r_k|_2,
floored at FORCING_FLOOR, so far from the root the linear solves are loose and
near it they are as tight as an exact step; convergence stays quadratic.  A
line search that fails on a loose direction retries once on a direction
solved at the floor.  ``continuation`` walks a branch from the discrete onset
in step-controlled chi steps: the first from its weakly nonlinear expansion,
later ones from the secant through the last two solved states, halving a step
whose solve fails or leaves the branch and ending the branch where a step
would fall below 2**-APPROACH_HALVINGS of the range's spacing.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from .elliptic import cell_values, cosine_coefficients, elliptic_identity_residual
from .errors import NoConvergence, NonpositiveV, OutOfRange
from .grid import (
    Field,
    Grid,
    chemotaxis_divergence,
    chemotaxis_flux_derivative,
    face_divergence,
    face_gradients,
    integrate,
    laplacian_apply,
    mode_groups,
)
from .model import Kinetics, ModelParams, growth_zeros
from .stability import EquilibriumInfo, characteristic_chi

NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 50
NEWTON_MAX_HALVINGS = 20
APPROACH_HALVINGS = 8  # halvings of a continuation step before the branch ends
# GMRES iterations per Newton step, one cycle: the 2D 64^2 and 128^2 onset
# branch needs at most 16.  Over 48 continuation windows (1D n=64, 256 and 2D
# 24^2, 48^2; logistic kappa 0.5, 1, 2; modes 1, 2; chi from 1.02 to 2.5 and
# from 2.5 to 6 times onset) the median of 5981 solves is 16 and the worst
# below 2.5 times onset 26; four mode-2 windows beyond it reach the budget on
# some points, as they did under scipy's gmres.
KRYLOV_BUDGET = 60
# Forcing terms of the inexact Newton step.  0.01 keeps the accepted Newton
# count on the 2D 64^2 onset branch at 36 while halving its GMRES iterations;
# 0.1 raises that count to 44, and exact steps (with the secant predictor)
# take 33 but 400 GMRES iterations against 240.  The floor is the exact
# step's tolerance.
FORCING_MAX = 0.01
FORCING_FLOOR = 1e-10
CONSTANT_AMPLITUDE = 1e-6  # below this a branch point counts as constant


@dataclass
class SteadyState:
    u: Field
    v: Field
    chi: float
    residual_norm: float
    iterations: int
    krylov_iterations: int = 0  # GMRES iterations summed over the Newton steps

    def amplitude(self, reference: float) -> float:
        return float(np.max(np.abs(self.u.values - reference)))


def stationary_residual(u, v, p: ModelParams, k: Kinetics, grid) -> tuple[np.ndarray, np.ndarray]:
    grad_v = face_gradients(v, grid)
    ru = laplacian_apply(u, grid) - chemotaxis_divergence(u, grad_v, p.chi, grid) + k.f(u)
    rv = face_divergence(grad_v, grid) - v + k.g(u)
    return ru, rv


@dataclass(frozen=True)
class _Linearization:
    """The Jacobian of stationary_residual at one state, and its preconditioner.

    Everything that stays fixed while GMRES runs is computed once per Newton
    step: the derivative of the chemotaxis face flux about (u, v), f'(u) and
    g'(u) in the cells, and the entries of the inverse 2x2 block per cosine
    mode about the mean state.
    """

    grid: Grid
    chemotaxis_flux: Callable[[np.ndarray, list[np.ndarray]], list[np.ndarray]]
    f_prime: np.ndarray
    g_prime: np.ndarray
    inverse_block: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _linearize(u, v, p: ModelParams, k: Kinetics, grid) -> _Linearization:
    """Linearize about (u, v); the preconditioner is about the mean state.

    About (mean u, mean f'(u), mean g'(u)) the cosine mode with eigenvalue
    lam of -lap_h sees the block [[a, b], [c, d]] = [[f' - lam, chi*u*lam],
    [g', -lam - 1]], inverted in closed form.  At an onset chi the critical
    mode's determinant ad - bc vanishes up to roundoff, so its magnitude is
    floored at 64 eps (|ad| + |bc| + d**2), keeping its sign: that mode's
    inverse is then large but finite, and GMRES corrects it.  d**2 >= 1 keeps
    the floor positive where the block has a zero row, as the constant mode's
    [[mean f', 0], [mean g', -1]] does where f'(u) averages to 0.
    """
    f_prime, g_prime = k.f_prime(u), k.g_prime(u)
    lam = grid.laplacian_eigenvalues
    a, b = float(np.mean(f_prime)) - lam, p.chi * float(np.mean(u)) * lam
    c, d = float(np.mean(g_prime)), -lam - 1.0
    det = a * d - b * c
    floor = 64.0 * np.finfo(float).eps * (np.abs(a * d) + np.abs(b * c) + d * d)
    det = np.where(np.abs(det) < floor, np.copysign(floor, det), det)
    flux = chemotaxis_flux_derivative(u, face_gradients(v, grid), p.chi, grid)
    return _Linearization(grid, flux, f_prime, g_prime, (d / det, -b / det, -c / det, a / det))


def _jvp(lin: _Linearization, d: np.ndarray) -> np.ndarray:
    """Directional derivative of stationary_residual along d = (du, dv), shape
    (2, *grid.shape); both Laplacians come from one stacked stencil call."""
    du, dv = d
    fluxes = face_gradients(d, lin.grid)
    # grad du - chi*(avg(du)*grad v + avg(u)*grad dv)
    for flux, chemo in zip(fluxes, lin.chemotaxis_flux(du, [grad[1] for grad in fluxes])):
        flux[0] -= chemo
    out = face_divergence(fluxes, lin.grid)
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


def _krylov_direction(lin: _Linearization, rhs: np.ndarray, forcing: float):
    """GMRES for J d = rhs, rhs of shape (2, *grid.shape), right-preconditioned
    about the mean state; stops at a residual of max(0.01 NEWTON_TOL,
    forcing |rhs|_2).  Returns (d, GMRES iterations).

    A stalled GMRES still returns its least-squares iterate; the line search
    decides whether that descends.
    """
    shape = rhs.shape

    def matvec(x):
        return _jvp(lin, _precondition(lin, x.reshape(shape))).ravel()

    tol = max(0.01 * NEWTON_TOL, forcing * float(np.linalg.norm(rhs)))
    y, basis = _gmres(matvec, rhs.ravel(), KRYLOV_BUDGET, tol)
    return _precondition(lin, y.reshape(shape)), len(basis)


def solve_stationary(p: ModelParams, k: Kinetics, guess: tuple[Field, Field]) -> SteadyState:
    """Inexact damped Newton on the stacked residual; converged at sup-norm
    < NEWTON_TOL.

    At most NEWTON_MAX_ITER iterations, each with a step-halving line search
    of at most NEWTON_MAX_HALVINGS.  Step k solves its linear system to the
    forcing term min(FORCING_MAX, |r_k|_2), floored at FORCING_FLOOR; if no
    step length descends along that direction, the direction is solved again
    at the floor before the solve gives up.  NoConvergence carries the best
    iterate as a SteadyState, with its Newton and GMRES counts, and the
    residual-norm history.
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

    def line_search(du, dv):
        s = 1.0
        for _ in range(NEWTON_MAX_HALVINGS + 1):
            u_try = u + s * du
            v_try = v + s * dv
            # u < 0 with a non-integer exponent gives a NaN residual, rejected below
            with np.errstate(invalid="ignore"):
                ru_try, rv_try = stationary_residual(u_try, v_try, p, k, grid)
                res_try = norm(ru_try, rv_try)
            if np.isfinite(res_try) and res_try < res:
                return u_try, v_try, ru_try, rv_try, res_try
            s *= 0.5
        return None

    def state(u_values) -> SteadyState:
        return SteadyState(Field(u_values, grid), Field(v, grid), p.chi, res, len(history) - 1,
                           krylov)

    ru, rv = stationary_residual(u, v, p, k, grid)
    res = norm(ru, rv)
    history = [res]
    krylov = 0
    for it in range(1, NEWTON_MAX_ITER + 1):
        if res < NEWTON_TOL:
            break
        lin = _linearize(u, v, p, k, grid)
        rhs = -np.stack([ru, rv])
        forcing = max(FORCING_FLOOR, min(FORCING_MAX, float(np.linalg.norm(rhs))))
        d, used = _krylov_direction(lin, rhs, forcing)
        krylov += used
        step = line_search(*d)
        if step is None and forcing > FORCING_FLOOR:
            d, used = _krylov_direction(lin, rhs, FORCING_FLOOR)
            krylov += used
            step = line_search(*d)
        if step is None:
            history.append(res)
            raise NoConvergence(f"Newton stagnated at residual {res:.3e} after {it} iterations",
                                best=state(u), history=history)
        u, v, ru, rv, res = step
        history.append(res)
    if res >= NEWTON_TOL:
        raise NoConvergence(f"Newton residual {res:.3e} after {NEWTON_MAX_ITER} iterations",
                            best=state(u), history=history)
    if float(u.min()) < -1e-9:
        raise NoConvergence(f"converged state violates u >= 0 (min = {u.min():.3e})",
                            best=state(u), history=history)
    return state(np.maximum(u, 0.0))


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------


@dataclass
class Branch:
    states: list[SteadyState]
    reference: float
    seed_mode: int
    terminated_reason: str | None = None
    # residual-norm history of the last failed Newton solve of a branch that ended early
    terminated_history: list[float] = field(default_factory=list)
    chi_h: float = math.nan  # discrete onset of the seed mode
    inv_chi2: float = math.nan  # eps**2 = (chi - chi_h) * inv_chi2 near onset
    # the solves that recorded no point, summed: steps short of a range point,
    # and steps that failed or left the branch
    approach_points: int = 0
    approach_newton: int = 0
    approach_krylov: int = 0

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([s.amplitude(self.reference) for s in self.states])


def continuation(
    p: ModelParams,
    k: Kinetics,
    e: EquilibriumInfo,
    mode: int,
    chi_range: tuple[float, float],
    steps: int,
    grid: Grid,
) -> Branch:
    """Trace the steady branch that bifurcates from a Neumann mode of the grid.

    Mode m is the m-th distinct eigenvalue sigma_h of -lap_h + I, counted
    from 0 for the constant by grid.mode_groups over grid.helmholtz_symbol;
    OutOfRange unless 1 <= mode < the number of distinct eigenvalues.

    Until the branch has a solved state, a point on the wrong side of the
    discrete onset chi_h is the constant state, with no Newton solve.  Every
    other point is reached by one step-controlled walk.  Its first step goes
    from chi_h, by at most the distance at which the weakly nonlinear
    expansion (_onset_expansion) has eps max|phi| = u0/2, and Newton starts
    on that expansion; later steps start from _predict's secant through the
    last two solved states.  Steps toward a range point start at the range's
    spacing (for one point, at that distance), halve when the solve raises
    NoConvergence or its state is off the branch, c = <u - u0, phi>/<phi, phi>
    < CONSTANT_AMPLITUDE, and double again up to the spacing after a
    success.  Where a step would fall below 2**-APPROACH_HALVINGS spacings,
    the branch ends with the points so far, terminated_reason and the last
    failed solve's residual history.  Solves that record no point are
    counted in approach_points, approach_newton and approach_krylov.
    """
    if steps < 1:
        raise OutOfRange("steps", f"must be >= 1 (got {steps})")
    if mode < 1:
        raise OutOfRange("mode", f"must be >= 1, a nonconstant mode (got {mode})")
    groups = mode_groups(grid.helmholtz_symbol, mode + 1)
    if mode >= len(groups):
        raise OutOfRange("mode", f"the grid has modes 1 to {len(groups) - 1} (got {mode})")
    chi_h, inv_chi2, w1, w2 = _onset_expansion(p, k, e, grid, *groups[mode])
    branch = Branch([], e.u0, mode, chi_h=chi_h, inv_chi2=inv_chi2)
    phi = w1[0]
    chis = np.linspace(chi_range[0], chi_range[1], steps)
    # the chi distance from chi_h at which eps max|phi| = u0/2
    reach = (0.5 * e.u0 / float(np.max(np.abs(phi)))) ** 2 / abs(inv_chi2)
    # the walk's position x counts range spacings from chis[0], point i at
    # x = i, so halved and doubled steps add up exactly and equal steps have
    # the secant ratio 1.0
    unit = (float(chis[1] - chis[0]) if steps > 1 else 0.0) or math.copysign(reach, chis[0] - chi_h)

    def chi_at(x: float) -> float:
        if 0.0 <= x <= steps - 1:
            return float(np.interp(x, np.arange(steps), chis))
        return float(chis[0] + x * unit)

    x_last, last_step = (chi_h - chis[0]) / unit, 0.0  # the walk starts at chi_h
    solved: list[SteadyState] = []  # the last two solved states
    history: list[float] = []  # of the last failed solve since then
    for i, chi in enumerate(chis):
        if not solved and (chi - chi_h) * inv_chi2 <= 0.0:
            # the residual of the constant state is (f(u0), g(u0) - v0) = (f(u0), 0)
            residual = abs(float(k.f(np.array([e.u0]))[0]))
            branch.states.append(SteadyState(Field.constant(grid, e.u0), Field.constant(grid, e.v0),
                                             float(chi), residual, 0))
            continue
        step = 1.0 if solved else reach / abs(unit)
        while x_last != i:
            h = min(step, abs(i - x_last))
            x = i if h == abs(i - x_last) else x_last + math.copysign(h, i - x_last)
            p_x = dc_replace(p, chi=chi_at(x))
            if solved:
                guess = _predict(solved, h / last_step)
            else:
                eps = math.sqrt((p_x.chi - chi_h) * inv_chi2)
                du, dv = eps * w1 + eps**2 * w2
                guess = Field(np.maximum(e.u0 + du, 0.0), grid), Field(e.v0 + dv, grid)
            try:
                state = solve_stationary(p_x, k, guess)
            except NoConvergence as exc:
                state, cause, history = exc.best, str(exc), exc.history
            else:
                c = float(np.vdot(state.u.values - e.u0, phi) / np.vdot(phi, phi))
                cause = (None if c >= CONSTANT_AMPLITUDE
                         else f"the state left the branch (c = {c:.3e})")
            if x != i or cause:
                branch.approach_points += 1
                branch.approach_newton += state.iterations
                branch.approach_krylov += state.krylov_iterations
            if cause is None:
                x_last, last_step, solved = x, h, [*solved[-1:], state]
                step, history = min(2.0 * step, 1.0), []
            elif h / 2.0 >= 0.5**APPROACH_HALVINGS:
                step = h / 2.0
            else:
                branch.terminated_reason = (f"continuation stalled at chi = {chi_at(x_last):.6g}: "
                                            f"{cause} at chi = {p_x.chi:.6g}")
                branch.terminated_history = history
                return branch
        branch.states.append(solved[-1])
    return branch


def _predict(states: list[SteadyState], ratio: float) -> tuple[Field, Field]:
    """The secant guess s_(i-1) + ratio*(s_(i-1) - s_(i-2)) through the last
    two states, ratio the chi step over the last one; the last state where
    there is one or that guess has u < 0."""
    last = states[-1]
    if len(states) > 1:
        u = (1.0 + ratio) * last.u.values - ratio * states[-2].u.values
        if float(u.min()) >= 0.0:
            v = (1.0 + ratio) * last.v.values - ratio * states[-2].v.values
            return Field(u, last.u.grid), Field(v, last.v.grid)
    return last.u, last.v


def _taylor(derivative, x: float) -> tuple[float, float]:
    """Second and third derivatives at x > 0, central differences of the first."""
    h = 1e-3 * x
    lo, mid, hi = derivative(x + h * np.array([-1.0, 0.0, 1.0])).tolist()
    return (hi - lo) / (2.0 * h), (hi - 2.0 * mid + lo) / h**2


def _onset_expansion(p: ModelParams, k: Kinetics, e: EquilibriumInfo, grid: Grid, sigma: float,
                     members: list[tuple[int, ...]]) -> tuple[float, float, np.ndarray, np.ndarray]:
    """(chi_h, 1/chi2, w1, w2): the branch from a mode's discrete onset is
    (u0, v0) + eps w1 + eps**2 w2 + O(eps**3) at chi = chi_h + eps**2 chi2.

    chi_h = characteristic_chi(e, sigma_h).  w1 = (phi, g'(u0)/sigma_h phi),
    phi the cosine of the group's first member, spans the kernel of the
    Jacobian J at (u0, v0).  J w2 = -(quadratic part of the residual) is
    solved per DCT mode by the blocks of _linearize, skipping the critical
    group (on the square, (1,0) and (0,1)).  chi2 makes the cubic part
    orthogonal to the critical block's left null vector (g'(u0), sigma_h -
    1 - f'(u0)).  w1 and w2 have shape (2, *grid.shape).
    """
    chi_h = characteristic_chi(e, sigma)
    lam = sigma - 1.0
    phi = grid.cosine_product(members[0])
    w1 = np.stack([phi, e.gprime / sigma * phi])
    (f2, f3), (g2, g3) = _taylor(k.f_prime, e.u0), _taylor(k.g_prime, e.u0)
    constant = np.ones(grid.shape)
    lin = _linearize(e.u0 * constant, e.v0 * constant, dc_replace(p, chi=chi_h), k, grid)
    for block in lin.inverse_block:  # skip the critical group (arrays owned by lin)
        block[tuple(zip(*members))] = 0.0
    grad_v1 = face_gradients(w1[1], grid)
    quadratic_u = f2 / 2 * phi**2 - chemotaxis_divergence(phi, grad_v1, chi_h, grid)
    w2 = _precondition(lin, -np.stack([quadratic_u, g2 / 2 * phi**2]))
    chemotaxis = (chemotaxis_divergence(phi, face_gradients(w2[1], grid), chi_h, grid)
                  + chemotaxis_divergence(w2[0], grad_v1, chi_h, grid))
    cubic_u = f2 * phi * w2[0] + f3 / 6 * phi**3 - chemotaxis
    cubic_v = g2 * phi * w2[0] + g3 / 6 * phi**3
    cubic = float(np.vdot(phi, e.gprime * cubic_u + (lam - e.fprime) * cubic_v))
    # d(J w1)/dchi = (-u0 lap_h v1, 0) = (u0 lam v1, 0)
    along_chi = e.gprime * e.u0 * lam * float(np.vdot(phi, w1[1]))
    return chi_h, -along_chi / cubic, w1, w2


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

    Integral bounds use the damping envelope of the kinetics, exact by
    construction; exact identities are held to EXACT_TOL,
    discretization-limited bounds to DISCRETE_TOL.  Pure report: rows carry
    (bound, observed, pass), nothing raises on failure.
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
