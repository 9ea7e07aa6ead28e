"""IMEX time integration of the coupled density/chemical system.

One step treats chemotaxis and reaction explicitly in conservative flux form
and diffusion implicitly, then refreshes the chemical by an elliptic solve
(the chemical equilibrates instantly, so lagging it would be inconsistent):

    flux   F = chi * avg(u) * grad(v)          on interior faces, 0 on walls
    u*       = u + dt * (-div F + f(u))
    (I - dt*lap_h) u_new = u*
    (I -    lap_h) v_new = g(u_new)

Both linear systems go through the one exact DCT-II solve of
elliptic.solve_dct_diagonal.  Interior fluxes telescope and the implicit
operator preserves cell sums, so the discrete mass law
sum(u_new) = sum(u) + dt*sum(f(u))  holds to roundoff; each step records its
relative mass residual.  Tiny negative densities are clamped and counted;
overshoot beyond 1e-8 of the max is a hard error because it signals
under-resolution.

Thousands of steps per run make per-step Python overhead the cost, so runs
advance plain arrays through one private kernel, _Stepper, with a leading
batch axis: u and v have shape (B, *grid.shape).  Every array operation acts
on each point alone -- elementwise arithmetic, DCTs along the grid axes,
reductions over one point's cells -- and each point's scalars go through the
float arithmetic a lone point's would, so a point gets the same bits in any
batch.  run_batch advances the points that share a grid, growth family and
exponent, kappa and monitor exponent in one vectorised loop, and a point
that finishes leaves the batch.  run is a batch of one, and the public step
and adapt_dt wrap the same kernel around one SimState.  SimState and
RunReport exist only at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .diagnostics import lp_norms
from .elliptic import screened_symbol, solve_dct_diagonal, solve_helmholtz_array
from .errors import ChemolabError, NegativeOvershoot, OutOfRange, StalledDt
from .grid import Field, Grid, cell_sums, chemotaxis_divergence, face_gradients, integrate
from .model import Kinetics, ModelParams, growth, growth_prime

DT_SAFETY = 0.4
DT_MAX_FACTOR = 10.0       # dt_max = 10 * h**2
DT_MIN = 1e-12
BLOWUP_LINF = 1e6
CLAMP_SOFT = 1e-12         # negatives below this fraction of max(u) are routine
CLAMP_HARD = 1e-8          # beyond this fraction the step errors out
MONITOR_EPS = 0.5          # epsilon in the monitor exponent kappa*n/2 + eps
TARGET_TOL = 1e-6          # convergence threshold against a constant target
BATCH_CELLS = 1 << 16      # cells advanced together: bounds a batch's working memory
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
        with np.errstate(over="ignore"):  # an overflow fails the solver's finite check
            source = k.g(u0.values)
        v = Field(solve_helmholtz_array(u0.grid, source), u0.grid)
        return cls(t=0.0, u=u0.copy(), v=v, dt=dt)


def _column(values: Sequence[float], grid: Grid):
    """Per-point values shaped to broadcast against (B, *grid.shape).

    A single point's value stays a float: numpy's scalar operand fast path
    is about 0.5 us faster per operation than a broadcast column.
    """
    if len(values) == 1:
        return float(values[0])
    return np.array(values, dtype=float).reshape((-1,) + (1,) * grid.dim)


def _cell_max(values: np.ndarray, grid: Grid) -> list[float]:
    """The largest entry of each point's cells in a (B, *grid.shape) array."""
    return np.maximum.reduce(values, axis=grid.cell_axes).tolist()


def _cell_min(values: np.ndarray, grid: Grid) -> list[float]:
    """The smallest entry of each point's cells in a (B, *grid.shape) array."""
    return np.minimum.reduce(values, axis=grid.cell_axes).tolist()


def _target_error(u_max: float, u_min: float, target: float) -> float:
    """max |u - target| over the cells of u, from its extremes alone.

    Rounding u - target is monotone in u, so the largest rounded magnitude
    sits at the largest or the smallest u: this is np.max(np.abs(u - target))
    bit for bit, and a zero error is +0.0 as np.abs gives it.
    """
    return max(abs(u_max - target), abs(u_min - target))


class _Stepper:
    """The step kernel: a batch of states on one grid, advanced together.

    u and v have shape (B, *grid.shape).  The per-point scalars -- t, dt,
    step_count, clamp_count, clamped_mass, last_mass_residual, mass (the
    cell sum of u, the next step's old mass), linf_u (max |u|), u_min
    (min u) and chi -- are lists, one entry per point, and go through the
    same float arithmetic as a lone point would: numpy calls on a few
    entries cost far more than that arithmetic.  chi, the growth
    coefficients and beta enter the array arithmetic as columns (see
    _column).  The grid, f_kind, the growth exponent and kappa are shared,
    because numpy's x**2.0 and x**0.5 take fast paths that an array of
    exponents does not.

    grad_v holds the face gradients of v and grad_v_inf their largest
    magnitude per point, both refreshed with v: the flux, the dt rule and
    the diagnostics row of the same v share them.  A point whose step raises
    a ChemolabError keeps its old u through that step and lands in
    failures as (row, error).  Only the constructor builds kernel state:
    when points leave, the caller builds a new kernel from state(row) of the
    rest, which recomputes every other value bit for bit.  So per-point state
    that must survive that is a SimState field; the rest lives in the caller.
    """

    def __init__(self, states: Sequence[SimState], params: Sequence[ModelParams],
                 kinetics: Sequence[Kinetics]):
        grid = self.grid = states[0].u.grid
        self.f_kind, self.exponent, self.kappa = (
            kinetics[0].f_kind, kinetics[0].exponent, kinetics[0].kappa)
        self.h_min = min(grid.spacings)
        self.dt_cap = DT_MAX_FACTOR * self.h_min**2
        self.chi = [p.chi for p in params]
        self.chi_col = _column(self.chi, grid)
        self.coeff_cols = tuple(_column(c, grid) for c in zip(*(k.coeffs for k in kinetics)))
        self.beta_col = _column([k.beta for k in kinetics], grid)
        self.t = [s.t for s in states]
        self.dt = [s.dt for s in states]
        self.step_count = [s.step_count for s in states]
        self.clamp_count = [s.clamp_count for s in states]
        self.clamped_mass = [s.clamped_mass for s in states]
        self.last_mass_residual = [s.last_mass_residual for s in states]
        self.u = np.stack([s.u.values for s in states])
        self.mass = cell_sums(self.u, grid).tolist()
        self.linf_u = _cell_max(np.abs(self.u), grid)
        self.u_min = _cell_min(self.u, grid)
        self.failures: list[tuple[int, ChemolabError]] = []
        self._implicit: tuple = (None, None)   # (dt, screened_symbol at dt)
        self._set_v(np.stack([s.v.values for s in states]))

    def _set_v(self, v: np.ndarray) -> None:
        self.v = v
        self.grad_v = face_gradients(v, self.grid)
        per_axis = [_cell_max(np.abs(g), self.grid) for g in self.grad_v]
        self.grad_v_inf = [max(axes) for axes in zip(*per_axis)]

    def state(self, row: int) -> SimState:
        return SimState(
            t=self.t[row], u=Field(self.u[row], self.grid), v=Field(self.v[row], self.grid),
            dt=self.dt[row], step_count=self.step_count[row],
            clamp_count=self.clamp_count[row], clamped_mass=self.clamped_mass[row],
            last_mass_residual=self.last_mass_residual[row],
        )

    def adapt_dt(self) -> list[float]:
        """adapt_dt of every point, without the DT_MIN floor."""
        f_prime = growth_prime(self.f_kind, self.coeff_cols, self.exponent, self.u)
        reaction = _cell_max(np.abs(f_prime, out=f_prime), self.grid)
        return [
            min(DT_SAFETY * min(self.h_min / (chi * g + _TINY), 1.0 / (f + _TINY)), self.dt_cap)
            for chi, g, f in zip(self.chi, self.grad_v_inf, reaction)
        ]

    def step(self, dt: list[float]) -> None:
        """One IMEX step of size dt[i] for every point i."""
        grid, u = self.grid, self.u
        dt_col = _column(dt, grid)
        f_old = growth(self.f_kind, self.coeff_cols, self.exponent, u)
        # u + dt*(-div + f), in place: IEEE addition and multiplication commute
        u_star = f_old - chemotaxis_divergence(u, self.grad_v, self.chi_col, grid)
        u_star *= dt_col
        u_star += u
        # dt repeats while it sits at its cap, and so does the implicit symbol
        if dt != self._implicit[0]:
            self._implicit = (dt, screened_symbol(grid, dt_col))
        u_new = solve_dct_diagonal(grid, u_star, self._implicit[1])

        mass = cell_sums(u_new, grid).tolist()
        self.last_mass_residual = [
            abs(new - old - d * f) / max(abs(old), _TINY)
            for new, old, d, f in zip(mass, self.mass, dt, cell_sums(f_old, grid).tolist())
        ]

        u_max = [max(m, 0.0) for m in _cell_max(u_new, grid)]
        u_min = _cell_min(u_new, grid)
        for row, m in enumerate(u_min):
            if m < 0.0:
                self._clamp(row, u_new, m, u_max[row], mass, dt[row])

        # an overflow is reported by the finite check, as the point's error
        with np.errstate(over="ignore"):
            source = self.beta_col * u_new**self.kappa
        try:
            v = solve_helmholtz_array(grid, source)
        except OutOfRange as error:
            finite = np.logical_and.reduce(np.isfinite(source), axis=grid.cell_axes)
            for row in np.flatnonzero(~finite).tolist():
                # one error object per failing point
                self.failures.append((row, OutOfRange(error.name, error.reason)))
                u_new[row], source[row] = u[row], 0.0
            v = solve_helmholtz_array(grid, source)
        self._set_v(v)
        self.t = [t + d for t, d in zip(self.t, dt)]
        self.step_count = [n + 1 for n in self.step_count]
        # u >= 0 after the clamp, so its clamp bound max(u, 0) is max |u|, and
        # a clamped row's minimum is 0
        self.u, self.dt, self.mass, self.linf_u = u_new, dt, mass, u_max
        self.u_min = [max(m, 0.0) for m in u_min]

    def _clamp(self, row, u_new, u_min, u_max, mass, dt) -> None:
        """Zero the routine negatives of one row, counting them, and refresh
        its mass; a negative beyond CLAMP_HARD fails the point instead."""
        if u_min < -CLAMP_HARD * u_max:
            self.failures.append((row, NegativeOvershoot(
                f"min(u) = {u_min:.3e} below -{CLAMP_HARD:.0e}*max(u) at t = {self.t[row] + dt:.6g}"
            )))
            u_new[row] = self.u[row]
            return
        cells = u_new[row]
        negatives = cells < 0.0
        self.clamp_count[row] += int(np.count_nonzero(cells < -CLAMP_SOFT * u_max))
        self.clamped_mass[row] += float(-cells[negatives].sum()) * self.grid.cell_volume
        cells[negatives] = 0.0
        mass[row] = float(cells.sum())


def adapt_dt(s: SimState, p: ModelParams, k: Kinetics) -> float:
    """Stable explicit step: advective CFL against chi*|grad v| plus a
    reaction bound from |f'| over the observed density range, with safety
    DT_SAFETY, cap 10*h**2 and hard floor DT_MIN (StalledDt below it)."""
    dt = _Stepper([s], [p], [k]).adapt_dt()[0]
    if dt < DT_MIN:
        raise StalledDt(f"dt = {dt:.3e} fell below {DT_MIN:.0e}")
    return dt


def step(s: SimState, p: ModelParams, k: Kinetics) -> SimState:
    """One IMEX step of size s.dt; see the module docstring for the scheme."""
    kernel = _Stepper([s], [p], [k])
    kernel.step([s.dt])
    for _, error in kernel.failures:
        raise error
    return kernel.state(0)


SERIES_COLUMNS = ("t", "mass", "linf_u", "lp_u", "linf_v", "linf_gradv", "dt")


@dataclass
class RunReport:
    """Diagnostics time series plus termination status of one run.

    status is one of Converged / ReachedHorizon / BlowUp / StalledDt.  The
    series rows carry SERIES_COLUMNS; lp_u is the boundedness-monitor norm
    with exponent p_star = kappa*n/2 + eps.  l1_bound records the a-priori
    mass bound max(int u0, c*|domain|) built from the damping envelope,
    exact by construction, together with the observed supremum of int u.
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


@dataclass(frozen=True)
class RunSpec:
    """The inputs of one run: run(p, k, u0, horizon, ...) takes the same fields."""

    p: ModelParams
    k: Kinetics
    u0: Field
    horizon: float
    target: float | None = None
    rows: int = 500
    snapshot_times: Sequence[float] = ()

    @property
    def p_star(self) -> float:
        # monitored norm exponent; floored at 1 so sublinear secretion in 1D
        # still logs a valid (stronger) norm
        return max(1.0, self.p.kappa * self.p.dim / 2.0 + MONITOR_EPS)

    @property
    def batch_key(self) -> tuple:
        """What the points of one batch share (see _Stepper)."""
        return (self.u0.grid, self.k.f_kind, self.k.exponent, self.k.kappa, self.p_star)

    def initial_state(self) -> SimState:
        u0 = self.u0
        if not u0.is_finite():
            raise OutOfRange("u0", "must be finite")
        if float(u0.values.min()) < 0.0:
            raise OutOfRange("u0", f"must be nonnegative (min = {u0.values.min():.3e})")
        if float(u0.values.max()) == 0.0:
            raise OutOfRange("u0", "must not be identically zero")
        if not self.horizon > 0:
            raise OutOfRange("horizon", f"must be > 0 (got {self.horizon})")
        if self.rows < 1:
            raise OutOfRange("rows", f"must be >= 1 (got {self.rows})")
        return SimState.initial(self.p, self.k, u0)


def run(
    p: ModelParams,
    k: Kinetics,
    u0: Field,
    horizon: float,
    target: float | None = None,
    rows: int = 500,
    snapshot_times=(),
) -> RunReport:
    """Step until t >= horizon, convergence to a constant target, or blow-up.

    Diagnostics are appended roughly ``rows`` times over the horizon and
    always at the first and last step.  Snapshot fields are copied out the
    first time t reaches each requested snapshot time.  This is run_batch of
    one point, and raises the point's error.
    """
    (outcome,) = run_batch([RunSpec(p, k, u0, horizon, target, rows, snapshot_times)])
    if isinstance(outcome, ChemolabError):
        raise outcome
    return outcome


def run_batch(specs: Sequence[RunSpec]) -> list[RunReport | ChemolabError]:
    """run of every point, in order, with a point's ChemolabError in place of
    its report; any other exception propagates.

    Points with the same batch_key advance together in one vectorised loop,
    at most BATCH_CELLS cells at a time, and each report is bit for bit the
    one run gives the point alone.
    """
    points = [_Point(spec, sorted(float(t) for t in spec.snapshot_times)) for spec in specs]
    groups: dict[tuple, list[tuple[_Point, SimState]]] = {}
    for point in points:
        try:
            state = point.spec.initial_state()
        except ChemolabError as exc:
            point.outcome = exc
            continue
        groups.setdefault(point.spec.batch_key, []).append((point, state))
    for members in groups.values():
        size = max(1, BATCH_CELLS // members[0][1].u.grid.n_cells)
        for start in range(0, len(members), size):
            _BatchRun(*zip(*members[start:start + size])).run()
    return [point.outcome for point in points]


@dataclass(eq=False, slots=True)
class _Point:
    """One point of run_batch: its spec and what its outcome is built from.
    pending holds the snapshot times not reached yet, interval the steps
    between diagnostics rows, and rows those rows so far."""

    spec: RunSpec
    pending: list[float]
    interval: int = 1
    max_mass_residual: float = 0.0
    l1_observed: float = 0.0
    rows: list[np.ndarray] = field(default_factory=list)
    target_errors: list[tuple[float, float]] = field(default_factory=list)
    snapshots: list[tuple[float, np.ndarray, np.ndarray]] = field(default_factory=list)
    outcome: RunReport | ChemolabError | None = None


class _BatchRun:
    """run's loop over a batch of points that share a batch_key.

    The kernel advances one row per live point, and live, the _Point of each
    row, is the only list the run keeps: _drop, called at most twice a step,
    takes finished rows out of live and rebuilds the kernel from the rest.
    """

    def __init__(self, points: Sequence[_Point], states: Sequence[SimState]):
        self.live = list(points)
        self.kernel = kernel = _Stepper(states, [q.spec.p for q in points],
                                        [q.spec.k for q in points])
        self.grid = kernel.grid
        self.p_star = points[0].spec.p_star
        rows = self._rows()
        for row, (point, mass) in enumerate(zip(points, kernel.mass)):
            point.l1_observed = mass * self.grid.cell_volume
            point.rows.append(rows[row])
            self._take_snapshots(row, point)

    def _drop(self, rows: list[int]) -> None:
        """Take the given rows out of live and rebuild the kernel without them."""
        kept = [row for row in range(len(self.live)) if row not in rows]
        self.live = [self.live[row] for row in kept]
        if kept:
            self.kernel = _Stepper([self.kernel.state(row) for row in kept],
                                   [q.spec.p for q in self.live], [q.spec.k for q in self.live])

    def _rows(self) -> np.ndarray:
        """Every row's diagnostics row, in SERIES_COLUMNS order."""
        k = self.kernel
        columns = (k.t, [m * self.grid.cell_volume for m in k.mass], k.linf_u,
                   lp_norms(k.u, self.grid, self.p_star), _cell_max(np.abs(k.v), self.grid),
                   k.grad_v_inf, k.dt)
        return np.array(columns, dtype=float).T

    def _take_snapshots(self, row: int, point: _Point) -> None:
        k, pending = self.kernel, point.pending
        while pending and k.t[row] >= pending[0] - 1e-12:
            pending.pop(0)
            point.snapshots.append((k.t[row], k.u[row].copy(), k.v[row].copy()))

    def _finish(self, row: int, status: str) -> None:
        k, grid, point = self.kernel, self.grid, self.live[row]
        spec = point.spec
        point.outcome = RunReport(
            status=status,
            final_time=k.t[row],
            series=np.array(point.rows),
            p_star=self.p_star,
            params=spec.p,
            f_kind=spec.k.f_kind,
            u0_min=float(spec.u0.values.min()),
            u0_max=float(spec.u0.values.max()),
            final_u=Field(k.u[row].copy(), grid),
            final_v=Field(k.v[row].copy(), grid),
            snapshots=point.snapshots,
            target_errors=point.target_errors,
            clamp_count=k.clamp_count[row],
            clamped_mass=k.clamped_mass[row],
            max_mass_residual=point.max_mass_residual,
            l1_bound=max(integrate(spec.u0.values, grid), _gronwall_constant(spec.k) * grid.volume),
            l1_observed=point.l1_observed,
            steps=k.step_count[row],
        )

    def run(self) -> None:
        volume = self.grid.cell_volume
        steps = 0
        while self.live:
            dt = self.kernel.adapt_dt()
            if min(dt) < DT_MIN:
                stalled = [row for row, d in enumerate(dt) if d < DT_MIN]
                for row in stalled:
                    self._finish(row, "StalledDt")
                self._drop(stalled)
                continue  # the rebuilt kernel gives the other rows the same dt
            kernel, live = self.kernel, self.live
            if steps == 0:
                for point, d in zip(live, dt):
                    point.interval = max(1, math.floor(point.spec.horizon / (point.spec.rows * d)))
            kernel.step([min(d, point.spec.horizon - t)
                         for d, point, t in zip(dt, live, kernel.t)])
            steps += 1

            # a failed row ends with its error; events holds (row, point, record,
            # status, target error) of every other row that logs a row or stops
            going = enumerate(live)
            if kernel.failures:
                for row, error in kernel.failures:
                    live[row].outcome = error
                failed = {row for row, _ in kernel.failures}
                going = [(row, point) for row, point in going if row not in failed]
            events = []
            for row, point in going:
                t, spec = kernel.t[row], point.spec
                point.max_mass_residual = max(point.max_mass_residual,
                                              kernel.last_mass_residual[row])
                point.l1_observed = max(point.l1_observed, kernel.mass[row] * volume)
                if point.pending and t >= point.pending[0] - 1e-12:
                    self._take_snapshots(row, point)
                done = t >= spec.horizon * (1.0 - 1e-12)
                record = steps % point.interval == 0 or done
                status = "ReachedHorizon" if done else None
                error = None if spec.target is None else _target_error(
                    kernel.linf_u[row], kernel.u_min[row], float(spec.target))
                if error is not None and error < TARGET_TOL:
                    status = "Converged"
                elif kernel.linf_u[row] > BLOWUP_LINF:
                    status = "BlowUp"
                if record or status:
                    events.append((row, point, record, status, error))
            if events:
                rows = self._rows()
                for row, point, record, status, error in events:
                    point.rows.append(rows[row])
                    if error is not None and (record or status == "Converged"):
                        point.target_errors.append((kernel.t[row], error))
                    if status:
                        self._finish(row, status)
            elif not kernel.failures:
                continue
            ended = [row for row, _ in kernel.failures] + [
                row for row, _, _, status, _ in events if status]
            if ended:
                self._drop(ended)
