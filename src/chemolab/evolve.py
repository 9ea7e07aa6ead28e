"""IMEX time integration of the coupled density/chemical system.

One step treats chemotaxis and reaction explicitly in conservative flux form
and diffusion implicitly, then refreshes the chemical by an elliptic solve
(the chemical equilibrates instantly, so lagging it would be inconsistent):

    flux   F = chi * avg(u) * grad(v)          on interior faces, 0 on walls
    u*       = u + dt * (-div F + f(u))
    (I - dt*lap_h) u_new = u*
    (I -    lap_h) v_new = g(u_new)

Both linear systems go through the one exact DCT-II solve of
elliptic.solve_screened_array.  Interior fluxes telescope and the implicit
operator preserves cell sums, so the discrete mass law
sum(u_new) = sum(u) + dt*sum(f(u))  holds to roundoff; each step records its
relative mass residual.  Tiny negative densities are clamped and counted;
overshoot beyond 1e-8 of the max is a hard error because it signals
under-resolution.

Thousands of steps per run make per-step Python overhead the cost, so a run
advances plain u/v arrays through one private kernel, _Stepper, and the grid
constants (spacings, cell volume and count, face slices) are cached on Grid.
SimState and RunReport exist only at the boundary: the public step and
adapt_dt wrap that same kernel around one SimState.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import lp_norm
from .elliptic import solve_helmholtz_array, solve_screened_array
from .errors import NegativeOvershoot, OutOfRange, StalledDt
from .grid import Field, face_averages, face_divergence, face_gradients, integrate
from .model import Kinetics, ModelParams

DT_SAFETY = 0.4
DT_MAX_FACTOR = 10.0       # dt_max = 10 * h**2
DT_MIN = 1e-12
BLOWUP_LINF = 1e6
CLAMP_SOFT = 1e-12         # negatives below this fraction of max(u) are routine
CLAMP_HARD = 1e-8          # beyond this fraction the step errors out
MONITOR_EPS = 0.5          # epsilon in the monitor exponent kappa*n/2 + eps
TARGET_TOL = 1e-6          # convergence threshold against a constant target
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class SimState:
    t: float
    u: Field
    v: Field
    dt: float
    step_count: int = 0
    clamp_count: int = 0
    clamped_mass: float = 0.0
    last_mass_residual: float = 0.0

    @classmethod
    def initial(cls, p: ModelParams, k: Kinetics, u0: Field, dt: float = 0.0) -> "SimState":
        v = Field(solve_helmholtz_array(u0.grid, k.g(u0.values)), u0.grid)
        return cls(t=0.0, u=u0.copy(), v=v, dt=dt)


class _Stepper:
    """The step kernel: one state's plain arrays and counters.

    grad_v holds the face gradients of v and grad_v_inf their largest
    magnitude, both refreshed with v: the flux, the dt rule and the
    diagnostics row of the same v share them.
    """

    def __init__(self, s: SimState, p: ModelParams, k: Kinetics):
        self.grid, self.chi, self.k = s.u.grid, p.chi, k
        self.h_min = min(self.grid.spacings)
        self.t, self.u, self.dt = s.t, s.u.values, s.dt
        self.step_count = s.step_count
        self.clamp_count, self.clamped_mass = s.clamp_count, s.clamped_mass
        self.last_mass_residual = s.last_mass_residual
        self._set_v(s.v.values)

    def _set_v(self, v: np.ndarray) -> None:
        self.v = v
        self.grad_v = face_gradients(v, self.grid)
        self.grad_v_inf = max(float(np.abs(g).max()) for g in self.grad_v)

    def state(self) -> SimState:
        return SimState(
            t=self.t, u=Field(self.u, self.grid), v=Field(self.v, self.grid), dt=self.dt,
            step_count=self.step_count, clamp_count=self.clamp_count,
            clamped_mass=self.clamped_mass, last_mass_residual=self.last_mass_residual,
        )

    def adapt_dt(self) -> float:
        advective = self.h_min / (self.chi * self.grad_v_inf + _TINY)
        reaction = 1.0 / (float(np.abs(self.k.f_prime(self.u)).max()) + _TINY)
        dt = DT_SAFETY * min(advective, reaction)
        dt = min(dt, DT_MAX_FACTOR * self.h_min**2)
        if dt < DT_MIN:
            raise StalledDt(f"dt = {dt:.3e} fell below {DT_MIN:.0e}")
        return dt

    def step(self, dt: float) -> None:
        grid, u = self.grid, self.u
        chemo = [self.chi * a * g for a, g in zip(face_averages(u, grid), self.grad_v)]
        f_old = self.k.f(u)
        u_star = u + dt * (-face_divergence(chemo, grid) + f_old)
        u_new = solve_screened_array(grid, u_star, dt)

        mass_old = u.sum()
        mass_residual = abs(u_new.sum() - mass_old - dt * f_old.sum()) / max(abs(mass_old), _TINY)

        u_max = max(float(u_new.max()), 0.0)
        u_min = float(u_new.min())
        if u_min < 0.0:
            if u_min < -CLAMP_HARD * u_max:
                raise NegativeOvershoot(
                    f"min(u) = {u_min:.3e} below -{CLAMP_HARD:.0e}*max(u) at t = {self.t + dt:.6g}"
                )
            negatives = u_new < 0.0
            self.clamp_count += int(np.count_nonzero(u_new < -CLAMP_SOFT * u_max))
            self.clamped_mass += float(-u_new[negatives].sum()) * grid.cell_volume
            u_new = np.where(negatives, 0.0, u_new)

        self._set_v(solve_helmholtz_array(grid, self.k.g(u_new)))
        self.t, self.u, self.dt = self.t + dt, u_new, dt
        self.step_count += 1
        self.last_mass_residual = mass_residual


def adapt_dt(s: SimState, p: ModelParams, k: Kinetics) -> float:
    """Stable explicit step: advective CFL against chi*|grad v| plus a
    reaction bound from |f'| over the observed density range, with safety
    DT_SAFETY, cap 10*h**2 and hard floor DT_MIN (StalledDt below it)."""
    return _Stepper(s, p, k).adapt_dt()


def step(s: SimState, p: ModelParams, k: Kinetics) -> SimState:
    """One IMEX step of size s.dt; see the module docstring for the scheme."""
    kernel = _Stepper(s, p, k)
    kernel.step(s.dt)
    return kernel.state()


def detect_blowup(s: SimState) -> bool:
    """Heuristic evidence only: sup-norm beyond BLOWUP_LINF.

    A stalled step is not judged here: adapt_dt raises StalledDt when the
    admissible step falls below DT_MIN, while a step that run clamps to
    reach the horizon exactly may be shorter than DT_MIN without any stall.
    """
    return float(np.max(np.abs(s.u.values))) > BLOWUP_LINF


SERIES_COLUMNS = ("t", "mass", "linf_u", "lp_u", "linf_v", "linf_gradv", "dt")


@dataclass
class RunReport:
    """Diagnostics time series plus termination status of one run.

    status is one of Converged / ReachedHorizon / BlowUp / StalledDt.  The
    series rows carry SERIES_COLUMNS; lp_u is the boundedness-monitor norm
    with exponent p_star = kappa*n/2 + eps.  l1_bound records the a-priori
    mass bound max(int u0, c*|domain|) built from the verified damping
    envelope together with the observed supremum of int u.
    """

    status: str
    final_time: float
    series: np.ndarray
    p_star: float
    params: ModelParams
    f_kind: str
    u0_min: float
    u0_max: float
    final_u: Field
    final_v: Field
    snapshots: list[tuple[float, np.ndarray, np.ndarray]] = field(default_factory=list)
    target_errors: list[tuple[float, float]] = field(default_factory=list)
    clamp_count: int = 0
    clamped_mass: float = 0.0
    max_mass_residual: float = 0.0
    l1_bound: float = 0.0
    l1_observed: float = 0.0
    blowup_norms: tuple[float, float] | None = None
    steps: int = 0

    @property
    def l1_bound_ok(self) -> bool:
        return self.l1_observed <= self.l1_bound * 1.01

    def column(self, name: str) -> np.ndarray:
        return self.series[:, SERIES_COLUMNS.index(name)]


def _gronwall_constant(k: Kinetics) -> float:
    """c = max over s >= 0 of a_env - b_env*s**theta_env + s."""
    a_env, b_env, th = k.envelope
    s_star = (1.0 / (b_env * th)) ** (1.0 / (th - 1.0))
    return a_env + s_star - b_env * s_star**th


def run(
    p: ModelParams,
    k: Kinetics,
    u0: Field,
    horizon: float,
    target: float | None = None,
    eps: float = MONITOR_EPS,
    rows: int = 500,
    snapshot_times=(),
) -> RunReport:
    """Step until t >= horizon, convergence to a constant target, or blow-up.

    Diagnostics are appended roughly ``rows`` times over the horizon and
    always at the first and last step.  Snapshot fields are copied out the
    first time t reaches each requested snapshot time.
    """
    if not u0.is_finite():
        raise OutOfRange("u0", "must be finite")
    if float(u0.values.min()) < 0.0:
        raise OutOfRange("u0", f"must be nonnegative (min = {u0.values.min():.3e})")
    if float(u0.values.max()) == 0.0:
        raise OutOfRange("u0", "must not be identically zero")
    if not horizon > 0:
        raise OutOfRange("horizon", f"must be > 0 (got {horizon})")

    grid = u0.grid
    stop = horizon * (1.0 - 1e-12)
    # monitored norm exponent; floored at 1 so sublinear secretion in 1D
    # still logs a valid (stronger) norm
    p_star = max(1.0, p.kappa * p.dim / 2.0 + eps)
    kernel = _Stepper(SimState.initial(p, k, u0), p, k)
    pending_snapshots = sorted(float(t) for t in snapshot_times)
    snapshots: list[tuple[float, np.ndarray, np.ndarray]] = []

    def take_snapshots():
        while pending_snapshots and kernel.t >= pending_snapshots[0] - 1e-12:
            pending_snapshots.pop(0)
            snapshots.append((kernel.t, kernel.u.copy(), kernel.v.copy()))

    def lp_u() -> float:
        return lp_norm(Field(kernel.u, grid), p_star)

    def series_row(mass: float, linf_u: float):
        v_sup = float(np.abs(kernel.v).max())
        return (kernel.t, mass, linf_u, lp_u(), v_sup, kernel.grad_v_inf, kernel.dt)

    l1_observed = integrate(kernel.u, grid)
    series = [series_row(l1_observed, float(np.abs(kernel.u).max()))]
    target_errors: list[tuple[float, float]] = []
    take_snapshots()

    status = "ReachedHorizon"
    blowup_norms = None
    max_mass_residual = 0.0
    interval = 1

    while kernel.t < stop:
        try:
            dt = kernel.adapt_dt()
        except StalledDt:
            status = "StalledDt"
            blowup_norms = (series[-1][2], series[-1][3])
            break
        if kernel.step_count == 0:
            interval = max(1, math.floor(horizon / (rows * dt)))
        kernel.step(min(dt, horizon - kernel.t))
        max_mass_residual = max(max_mass_residual, kernel.last_mass_residual)
        mass = integrate(kernel.u, grid)
        l1_observed = max(l1_observed, mass)
        take_snapshots()

        linf_u = float(np.abs(kernel.u).max())
        record = kernel.step_count % interval == 0 or kernel.t >= stop
        if record:
            series.append(series_row(mass, linf_u))
        if target is not None:
            err = float(np.abs(kernel.u - target).max())
            if record:
                target_errors.append((kernel.t, err))
            if err < TARGET_TOL:
                status = "Converged"
                if not record:
                    series.append(series_row(mass, linf_u))
                    target_errors.append((kernel.t, err))
                break
        if linf_u > BLOWUP_LINF:
            status = "BlowUp"
            blowup_norms = (linf_u, lp_u())
            if not record:
                series.append(series_row(mass, linf_u))
            break

    return RunReport(
        status=status,
        final_time=kernel.t,
        series=np.array(series),
        p_star=p_star,
        params=p,
        f_kind=k.f_kind,
        u0_min=float(u0.values.min()),
        u0_max=float(u0.values.max()),
        final_u=Field(kernel.u, grid),
        final_v=Field(kernel.v, grid),
        snapshots=snapshots,
        target_errors=target_errors,
        clamp_count=kernel.clamp_count,
        clamped_mass=kernel.clamped_mass,
        max_mass_residual=max_mass_residual,
        l1_bound=max(integrate(u0.values, grid), _gronwall_constant(k) * grid.volume),
        l1_observed=l1_observed,
        blowup_norms=blowup_norms,
        steps=kernel.step_count,
    )
