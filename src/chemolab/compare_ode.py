"""Spatially homogeneous ODE systems that sandwich the PDE dynamics.

For the growth family f(u) = u*(a - b*u**kappa) with secretion beta*u**kappa,
the pair (ubar, ulow) solving

    ubar' = chi*beta*ubar*(ubar**kappa - ulow) + f(ubar)
    w'    = chi*beta*w*(ulow - ubar**kappa) + f(w),      ulow = w**kappa

from the extremes of the initial data traps the PDE solution between them:
ulow(t) <= u(x,t)**kappa <= ubar(t)**kappa.  The gap log(ubar**kappa/ulow)
contracts at least at the explicit rate

    eps0 = kappa * (ulow(0)/ubar(0)**kappa) * (a/b) * (b - 2*chi*beta)

whenever b > 2*chi*beta.  The transformed variable w = ulow**(1/kappa) is the
integration state, which keeps the fractional power regular near zero.

For general growth functions, ``envelope_odes`` integrates the upper
envelope z and the lower envelope y that bracket where the density can
settle once the chemical feedback is accounted for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvariantBreach, OutOfRange, ZUnbounded
from .evolve import RunReport
from .model import Kinetics, ModelParams

ODE_RTOL = 1e-10
ODE_RTOL_RETRY = 1e-12
ORDER_TOL = 1e-9           # sandwich ordering along outputs
MONOTONE_SLACK = 1e-12     # log-ratio decrease between consecutive outputs
Z_CAP = 1e6
STATIONARY_TOL = 1e-10
N_OUT = 2001               # output times of every ODE trajectory


def sandwich_contraction_rate(p: ModelParams, ulow0: float, ubar0: float) -> float:
    """The explicit contraction rate eps0 of the sandwich gap.

    Requires b >= 2*chi*beta (zero at equality, which is the degenerate case)
    and the ordering ubar0 >= (a/b)**(1/kappa) >= ulow0**(1/kappa) > 0.
    """
    chi = p.chi * p.beta
    if p.b < 2.0 * chi:
        raise OutOfRange("b", f"need b >= 2*chi*beta (got b = {p.b}, chi*beta = {chi})")
    eqk = p.a / p.b
    if not ulow0 > 0:
        raise OutOfRange("ulow0", f"must be > 0 (got {ulow0})")
    if ulow0 > eqk * (1 + 1e-12):
        raise OutOfRange("ulow0", f"must be <= a/b = {eqk} (got {ulow0})")
    if ubar0 < eqk ** (1.0 / p.kappa) * (1 - 1e-12):
        raise OutOfRange(
            "ubar0", f"must be >= (a/b)**(1/kappa) = {eqk ** (1.0 / p.kappa)} (got {ubar0})"
        )
    return p.kappa * (ulow0 / ubar0**p.kappa) * eqk * (p.b - 2.0 * chi)


@dataclass
class SandwichTrajectory:
    times: np.ndarray
    ubar: np.ndarray
    w: np.ndarray              # lower solution in the transformed variable
    params: ModelParams
    u0_min: float
    u0_max: float
    eps0: float | None
    dense: Callable[[float], np.ndarray]

    @property
    def ulow(self) -> np.ndarray:
        return self.w**self.params.kappa

    @property
    def log_ratio(self) -> np.ndarray:
        """log(ubar**kappa / ulow), the contracting gap."""
        return self.params.kappa * (np.log(self.ubar) - np.log(self.w))


def _integrate_sandwich(p: ModelParams, y0, horizon, rtol):
    # Imported here: scipy.integrate costs about as much as the rest of
    # chemolab to import, and most commands never integrate an ODE.
    from scipy.integrate import solve_ivp

    kap = p.kappa
    chi = p.chi * p.beta

    def f(s):
        return s * (p.a - p.b * s**kap)

    def rhs(_t, y):
        ub, w = y
        gap = ub**kap - w**kap
        return [chi * ub * gap + f(ub), -chi * w * gap + f(w)]

    sol = solve_ivp(
        rhs,
        (0.0, horizon),
        y0,
        method="RK45",
        rtol=rtol,
        atol=rtol * 1e-2,
        dense_output=True,
        t_eval=np.linspace(0.0, horizon, N_OUT),
    )
    if not sol.success:
        raise InvariantBreach(f"sandwich integration failed: {sol.message}")
    return sol


def _check_sandwich_invariants(p: ModelParams, eq, ubar, w):
    if np.any(w <= 0.0):
        return "lower solution touched zero"
    if np.any(w > eq + ORDER_TOL) or np.any(ubar < eq - ORDER_TOL):
        return "ordering ulow**(1/kappa) <= (a/b)**(1/kappa) <= ubar failed"
    if p.b > 2.0 * p.chi * p.beta:
        lr = p.kappa * (np.log(ubar) - np.log(w))
        if np.any(np.diff(lr) > MONOTONE_SLACK):
            return "log-ratio increased"
    return None


def solve_sandwich(
    p: ModelParams,
    u0_min: float,
    u0_max: float,
    horizon: float,
) -> SandwichTrajectory:
    """Integrate the sandwich pair from the initial-data extremes.

    Adaptive 4th/5th-order Runge-Kutta at relative tolerance 1e-10; the
    ordering invariants are asserted along the trajectory and a breach
    triggers one retry at 1e-12 before raising InvariantBreach.
    """
    chi = p.chi * p.beta
    if not p.b > chi:
        raise OutOfRange("b", f"need b > chi*beta = {chi} for boundedness (got b = {p.b})")
    if not horizon > 0:
        raise OutOfRange("horizon", f"must be > 0 (got {horizon})")
    if not u0_min > 0:
        raise OutOfRange("u0_min", f"must be > 0 (got {u0_min})")
    if u0_max < u0_min:
        raise OutOfRange("u0_max", f"must be >= u0_min (got {u0_max} < {u0_min})")
    eq = (p.a / p.b) ** (1.0 / p.kappa)
    y0 = [max(u0_max, eq), min(u0_min, eq)]
    breach = None
    for rtol in (ODE_RTOL, ODE_RTOL_RETRY):
        sol = _integrate_sandwich(p, y0, horizon, rtol)
        ubar, w = sol.y
        breach = _check_sandwich_invariants(p, eq, ubar, w)
        if breach is None:
            break
    if breach is not None:
        raise InvariantBreach(breach)
    eps0 = None
    if p.b > 2.0 * chi:
        eps0 = sandwich_contraction_rate(p, y0[1] ** p.kappa, y0[0])
    return SandwichTrajectory(
        times=sol.t,
        ubar=ubar,
        w=w,
        params=p,
        u0_min=float(u0_min),
        u0_max=float(u0_max),
        eps0=eps0,
        dense=sol.sol,
    )


def check_sandwich(traj: SandwichTrajectory, report: RunReport) -> float:
    """Worst violation of ulow <= u**kappa <= ubar**kappa over all snapshots.

    Zero in the continuum; discretely it must stay below 10*h**2.  The PDE
    run and the trajectory must share the parameter set and the initial-data
    extremes, and the regime must actually be the sandwiched one.
    """
    p = report.params
    if report.f_kind != "generalized-logistic":
        raise OutOfRange("run", f"growth must be u*(a - b*u**kappa) (got {report.f_kind})")
    for name, got, want in (
        *((name, getattr(traj.params, name), getattr(p, name))
          for name in ("chi", "a", "b", "kappa", "beta")),
        ("u0_min", traj.u0_min, report.u0_min),
        ("u0_max", traj.u0_max, report.u0_max),
    ):
        if abs(got - want) > 1e-12 * max(1.0, abs(got), abs(want)):
            raise OutOfRange(name, f"ODE/PDE mismatch: {got} vs {want}")
    if not p.b > 2.0 * p.chi * p.beta:
        raise OutOfRange("b", "the comparison needs b > 2*chi*beta")
    if not report.snapshots:
        raise OutOfRange("run", "no snapshots recorded")
    worst = 0.0
    for t, u, _v in report.snapshots:
        ub, w = traj.dense(t)
        uk = u**p.kappa
        worst = max(
            worst,
            float(w**p.kappa - uk.min()),
            float(uk.max() - ub**p.kappa),
        )
    return max(worst, 0.0)


# ---------------------------------------------------------------------------
# envelope ODEs for general growth functions
# ---------------------------------------------------------------------------


@dataclass
class EnvelopeTrajectories:
    times_z: np.ndarray
    z: np.ndarray
    z_inf: float
    times_y: np.ndarray
    y: np.ndarray
    y_inf: float


def envelope_odes(
    p: ModelParams,
    k: Kinetics,
    u0_min: float,
    u0_max: float,
    horizon: float,
) -> EnvelopeTrajectories:
    """Upper envelope z' = f(z) + c*z**(kappa+1) from max u0, then the lower
    envelope y' = f(y) + c*y**(kappa+1) - c*z_inf**kappa*y from min u0, c = chi*beta.

    z must settle (|z'| < 1e-10 at the horizon) for z_inf to be meaningful;
    escape beyond Z_CAP raises ZUnbounded.  y_inf is the infimum over the
    trailing half of the y trajectory.
    """
    if not horizon > 0:
        raise OutOfRange("horizon", f"must be > 0 (got {horizon})")
    if not u0_min > 0:
        raise OutOfRange("u0_min", f"must be > 0 (got {u0_min})")
    from scipy.integrate import solve_ivp

    kap = p.kappa
    chi = p.chi * p.beta

    # u >= 0 is invariant (f(0) >= 0), so a trial stage below zero reads 0
    def z_rhs(_t, z):
        z = max(z[0], 0.0)
        return [float(k.f(np.array([z]))[0]) + chi * z ** (kap + 1.0)]

    def escape(_t, z):
        return z[0] - Z_CAP

    escape.terminal = True
    sol_z = solve_ivp(
        z_rhs, (0.0, horizon), [u0_max], method="RK45", rtol=ODE_RTOL,
        atol=1e-12, events=escape, t_eval=np.linspace(0.0, horizon, N_OUT),
    )
    if sol_z.t_events[0].size > 0 or (sol_z.y.size and sol_z.y[0].max() >= Z_CAP):
        raise ZUnbounded(
            f"upper envelope escaped beyond {Z_CAP:.0e} at t = {sol_z.t_events[0][0]:.6g}"
            if sol_z.t_events[0].size
            else f"upper envelope exceeded {Z_CAP:.0e}"
        )
    z_inf = float(sol_z.y[0][-1])
    z_rate = abs(z_rhs(0.0, [z_inf])[0])
    if z_rate >= STATIONARY_TOL:
        raise OutOfRange(
            "horizon", f"z not stationary at horizon (|z'| = {z_rate:.3e}); extend it"
        )

    def y_rhs(_t, y):
        y = max(y[0], 0.0)
        return [float(k.f(np.array([y]))[0]) + chi * y ** (kap + 1.0) - chi * z_inf**kap * y]

    sol_y = solve_ivp(
        y_rhs, (0.0, horizon), [u0_min], method="RK45", rtol=ODE_RTOL,
        atol=1e-12, t_eval=np.linspace(0.0, horizon, N_OUT),
    )
    # where y decays to 0, a long step within atol can still land below it
    y = np.maximum(sol_y.y[0], 0.0)
    tail = y[sol_y.t >= 0.5 * horizon]
    return EnvelopeTrajectories(
        times_z=sol_z.t,
        z=sol_z.y[0],
        z_inf=z_inf,
        times_y=sol_y.t,
        y=y,
        y_inf=float(tail.min()),
    )
