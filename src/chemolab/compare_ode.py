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

Every ODE here is integrated by ``_dopri5``, the Dormand-Prince 5(4) pair
stepping on Python floats with scipy RK45's tableau, initial-step rule, RMS
error norm and step-size controller, so it takes RK45's step sequence
without importing scipy.  One quartic of the pair's dense output per
accepted step gives the output times, ``SandwichTrajectory.dense`` and the
time the upper envelope escapes.  RK45 forms its stage sums with BLAS dot
products, which may fuse multiply-adds, so the two agree to roundoff (4e-16
on the converge-1d sandwich, 81 steps each) until an error estimate that
roundoff dominates falls on the other side of 1; the step sequences then
part, and the trajectories still agree within the tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
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
SETTLE_RTOL = 1e-8         # z(T) against the zero of z' it settles at
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


# Dormand-Prince 5(4) (Dormand & Prince, J. Comput. Appl. Math. 6, 1980),
# with scipy's RK45 tableau and its 4th-order dense output (Shampine's optimal
# c_6, Math. Comp. 46, 1986).  Every right-hand side here is autonomous, so
# the stage nodes c_i are not needed.
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


class _DenseOutput:
    """One quartic per accepted step; called with a time or an array of times.

    A time on a step boundary reads the piece that ends there.
    """

    def __init__(self, ts: list, ys: list, ks: list, y_end: list):
        self.ts = np.array(ts)
        self.y_end = y_end                              # last accepted state
        self._y = np.array(ys).T                        # (n, steps) step starts
        self._q = np.array(ks).transpose(0, 2, 1) @ _P  # (steps, n, 4)

    @property
    def steps(self) -> int:
        return len(self.ts) - 1

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        i = np.searchsorted(self.ts[1:-1], t)  # the piece, first and last extended
        h = self.ts[i + 1] - self.ts[i]
        x = (t - self.ts[i]) / h
        powers = np.cumprod(np.broadcast_to(x[..., None], x.shape + (4,)), axis=-1)
        return self._y[:, i] + h * np.einsum("...nk,...k->n...", self._q[i], powers)


def _rms(values, scale) -> float:
    return math.sqrt(sum((v / s) ** 2 for v, s in zip(values, scale)) / len(scale))


def _dopri5(rhs, y0, horizon: float, rtol: float, atol: float,
            cap: float = math.inf) -> _DenseOutput:
    """Integrate y' = rhs(y) over [0, horizon] on Python floats.

    scipy RK45's step sequence: its initial-step rule (Hairer, Norsett &
    Wanner, Sec. II.4), the RMS norm of the error over
    atol + rtol*max(|y|, |y_new|), and its controller (safety 0.9, step factors 0.2 to 10, no growth right after
    a rejection).  Stops after the first accepted step with y[0] >= cap.
    """
    y = [float(v) for v in y0]
    f = rhs(y)
    scale = [atol + abs(v) * rtol for v in y]
    d0, d1 = _rms(y, scale), _rms(f, scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, horizon)
    f1 = rhs([v + h0 * fv for v, fv in zip(y, f)])
    d2 = _rms([a - b for a, b in zip(f1, f)], scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h_abs = max(1e-6, h0 * 1e-3)
    else:
        h_abs = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100.0 * h0, h_abs, horizon)

    t, ts, ys, ks = 0.0, [0.0], [], []
    while t < horizon and not y[0] >= cap:
        min_step = 10.0 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise InvariantBreach(
                    f"ODE integration failed: step size below {min_step:.3g} at t = {t:.6g}")
            t_new = min(t + h_abs, horizon)
            h = t_new - t
            k = [f]
            for row in _A:
                k.append(rhs([v + sum(map(mul, row, col)) * h
                              for v, col in zip(y, zip(*k))]))
            y_new = [v + h * sum(map(mul, _B, col)) for v, col in zip(y, zip(*k))]
            k.append(rhs(y_new))
            scale = [atol + max(abs(a), abs(b)) * rtol for a, b in zip(y, y_new)]
            error = _rms([sum(map(mul, _E, col)) * h for col in zip(*k)], scale)
            if error < 1.0:
                factor = _MAX_FACTOR if error == 0.0 else min(_MAX_FACTOR,
                                                              _SAFETY * error**-0.2)
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(_MIN_FACTOR, _SAFETY * error**-0.2)
            rejected = True
        ts.append(t_new)
        ys.append(y)
        ks.append(k)
        t, y, f = t_new, y_new, k[-1]
    return _DenseOutput(ts, ys, ks, y)


def _integrate_sandwich(p: ModelParams, y0, horizon, rtol) -> _DenseOutput:
    kap = p.kappa
    chi = p.chi * p.beta

    def f(s):
        return s * (p.a - p.b * s**kap)

    # both solutions stay positive; a trial stage below zero reads 0
    def rhs(y):
        ub, w = max(y[0], 0.0), max(y[1], 0.0)
        gap = ub**kap - w**kap
        return [chi * ub * gap + f(ub), -chi * w * gap + f(w)]

    return _dopri5(rhs, y0, horizon, rtol, rtol * 1e-2)


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

    Dormand-Prince 5(4) with RK45's step-size controller (error per step
    within rtol*|y| + rtol/100 in the RMS norm, safety 0.9, step factors 0.2
    to 10) at rtol = ODE_RTOL, sampled at N_OUT equally spaced times by its
    4th-order dense output.  The ordering invariants are asserted along the
    trajectory and a breach triggers one retry at ODE_RTOL_RETRY before
    raising InvariantBreach.
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
    times = np.linspace(0.0, horizon, N_OUT)
    breach = None
    for rtol in (ODE_RTOL, ODE_RTOL_RETRY):
        sol = _integrate_sandwich(p, y0, horizon, rtol)
        ubar, w = sol(times)
        breach = _check_sandwich_invariants(p, eq, ubar, w)
        if breach is None:
            break
    if breach is not None:
        raise InvariantBreach(breach)
    eps0 = None
    if p.b > 2.0 * chi:
        eps0 = sandwich_contraction_rate(p, y0[1] ** p.kappa, y0[0])
    return SandwichTrajectory(
        times=times,
        ubar=ubar,
        w=w,
        params=p,
        u0_min=float(u0_min),
        u0_max=float(u0_max),
        eps0=eps0,
        dense=sol,
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

    z' = h(z) is scalar and autonomous, so z moves monotonically to the zero
    z* of h next to max u0, or escapes.  z_inf = z(T) is accepted when it lies
    within SETTLE_RTOL*max(1, z*) of z*, found by Newton's method from z(T);
    escape beyond Z_CAP raises ZUnbounded, which carries the crossing time.
    y_inf is the infimum over the trailing half of the y trajectory.
    """
    if not horizon > 0:
        raise OutOfRange("horizon", f"must be > 0 (got {horizon})")
    if not u0_min > 0:
        raise OutOfRange("u0_min", f"must be > 0 (got {u0_min})")
    if u0_max < u0_min:
        raise OutOfRange("u0_max", f"must be >= u0_min (got {u0_max} < {u0_min})")
    kap = p.kappa
    chi = p.chi * p.beta
    times = np.linspace(0.0, horizon, N_OUT)

    # u >= 0 is invariant (f(0) >= 0), so a trial stage below zero reads 0
    def z_rhs(z):
        z = max(z[0], 0.0)
        return [float(k.f(np.array([z]))[0]) + chi * z ** (kap + 1.0)]

    sol_z = _dopri5(z_rhs, [u0_max], horizon, ODE_RTOL, 1e-12, cap=Z_CAP)
    if sol_z.y_end[0] >= Z_CAP:
        # the terminal crossing, by bisection on the last step's quartic
        lo, hi = map(float, sol_z.ts[-2:])
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (lo, mid) if sol_z(mid)[0] >= Z_CAP else (mid, hi)
        raise ZUnbounded(f"upper envelope escaped beyond {Z_CAP:.0e} at t = {hi:.6g}", hi)
    z = sol_z(times)[0]
    if z.max() >= Z_CAP:
        t = float(times[np.argmax(z >= Z_CAP)])
        raise ZUnbounded(f"upper envelope exceeded {Z_CAP:.0e} at t = {t:.6g}", t)
    z_inf, z_star = float(z[-1]), z[-1:]
    with np.errstate(all="ignore"):  # a step without a slope gives nan: not settled
        for _ in range(8):  # Newton's quadratic steps from z(T) to z*
            z_star = z_star - (k.f(z_star) + chi * z_star ** (kap + 1.0)) / (
                k.f_prime(z_star) + chi * (kap + 1.0) * z_star**kap)
    z_star = float(z_star[0])
    gap = abs(z_inf - z_star)
    if not gap <= SETTLE_RTOL * max(1.0, z_star):
        raise OutOfRange("horizon", f"z not settled at horizon (|z(T) - z*| = {gap:.3e} "
                                    f"with z* = {z_star:.6g}); extend it")

    def y_rhs(y):
        y = max(y[0], 0.0)
        return [float(k.f(np.array([y]))[0]) + chi * y ** (kap + 1.0) - chi * z_inf**kap * y]

    # where y decays to 0, a long step within atol can still land below it
    y = np.maximum(_dopri5(y_rhs, [u0_min], horizon, ODE_RTOL, 1e-12)(times)[0], 0.0)
    return EnvelopeTrajectories(
        times_z=times,
        z=z,
        z_inf=z_inf,
        y=y,
        y_inf=float(y[times >= 0.5 * horizon].min()),
    )
