"""The four workloads: their inputs, their timed work and their checks.

Every workload is one closed-loop caller driving chemolab through its public
API.  ``setup`` imports chemolab and builds the inputs (this is what
``setup_s`` measures, in a fresh interpreter); ``op`` is the timed work of
one repetition; ``check`` compares its outputs against a computation made
apart from the program (``reference``) or against a property of the method,
and returns the list of what failed.  A workload whose repetition takes
several seconds also has ``warm_up``: the same calls on a smaller problem,
run once before timing in place of a whole untimed repetition, so that the
run's window holds more timed repetitions.

chemolab functions are always called through their module attribute
(``evolve.run``, not a name imported from it), so the traced run's wrappers
on those attributes see every call.  The benchmark's own reference module is
imported inside ``check`` only, so that it never counts toward set-up time.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import math
import re
import shutil
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

MASS_RESIDUAL_MAX = 1e-12


@dataclasses.dataclass
class Outcome:
    """One repetition's timings, exact counts and outputs.

    ``step_s`` is the part of ``wall_s`` spent in the stepping layer and
    ``steps`` its exact count of steps; ``sim_time`` is the span of the
    stepped variable (simulated time, or chi for onset-analysis).  Both
    times are as measured; ``host_scale`` (set by run.py from the
    calibration kernel timed around the repetition) turns them into
    reference-host seconds.
    """

    wall_s: float
    step_s: float
    steps: int
    sim_time: float
    outputs: dict
    counts: dict = dataclasses.field(default_factory=dict)
    host_scale: float = 1.0


def _import_chemolab(with_cli: bool = False) -> float:
    start = time.perf_counter()
    import chemolab  # noqa: F401

    if with_cli:
        import chemolab.cli  # noqa: F401
    return time.perf_counter() - start


def _timed_kinetics(model, p, f_kind):
    start = time.perf_counter()
    k = model.make_kinetics(p, f_kind)
    return k, (time.perf_counter() - start) * 1e3


# ---------------------------------------------------------------------------
# converge-1d: acceptance criterion 1 plus the sandwich comparison
# ---------------------------------------------------------------------------


class Converge1D:
    """Global convergence for b > 2*chi: 1D n=256, chi=0.4, a=b=1, theta=2,
    kappa=beta=1, L=pi, u0 = 1 + 0.5*cos(x), 201 snapshot times.  Each step
    is two banded solves plus Python overhead, so the stepper dominates."""

    name = "converge-1d"
    N = 256
    HORIZON = 100.0
    SNAPSHOTS = 201
    RAW = {"chi": 0.4, "a": 1, "b": 1, "theta": 2, "kappa": 1, "beta": 1, "dim": 1, "L": math.pi}

    def setup(self, seed: int, workdir: Path):
        import_s = _import_chemolab()
        from chemolab import evolve, grid, model

        p = model.build_params(self.RAW)
        k, kinetics_ms = _timed_kinetics(model, p, "generalized-logistic")
        g = grid.make_grid(p, self.N)
        u0 = grid.Field(1.0 + 0.5 * np.cos(g.coordinates[0]), g)
        return SimpleNamespace(
            p=p, k=k, grid=g, u0=u0, evolve=evolve,
            timings={"import_s": import_s, "make_kinetics_ms": kinetics_ms},
            sandwich_cache={},
        )

    def op(self, s) -> Outcome:
        from chemolab import compare_ode

        target = (s.p.a / s.p.b) ** (1.0 / s.p.kappa)
        start = time.perf_counter()
        report = s.evolve.run(
            s.p, s.k, s.u0, self.HORIZON, target=target,
            snapshot_times=np.linspace(0.0, self.HORIZON, self.SNAPSHOTS),
        )
        ran = time.perf_counter()
        traj = compare_ode.solve_sandwich(s.p, report.u0_min, report.u0_max, report.final_time)
        violation = compare_ode.check_sandwich(traj, report)
        end = time.perf_counter()
        return Outcome(
            wall_s=end - start, step_s=ran - start, steps=report.steps,
            sim_time=report.final_time, outputs={"report": report, "violation": violation},
        )

    def check(self, s, out: Outcome) -> list[str]:
        import reference as ref

        p, report = s.p, out.outputs["report"]
        problems = []
        eq = (p.a / p.b) ** (1.0 / p.kappa)
        if report.status != "Converged":
            problems.append(f"status {report.status}, expected Converged")
        u_err = float(np.max(np.abs(report.final_u.values - eq)))
        v_err = float(np.max(np.abs(report.final_v.values - p.beta * eq**p.kappa)))
        if not (u_err < 1e-6 and v_err < 1e-6):
            problems.append(f"|u-1| = {u_err:.3e}, |v-1| = {v_err:.3e}, need < 1e-6")
        if not report.max_mass_residual <= MASS_RESIDUAL_MAX:
            problems.append(f"per-step mass residual {report.max_mass_residual:.3e} > 1e-12")
        allowance = 10.0 * (p.lengths[0] / self.N) ** 2
        if not out.outputs["violation"] <= allowance:
            problems.append(f"sandwich violation {out.outputs['violation']:.3e} > 10h^2")
        # the same ordering against the benchmark's own RK4 sandwich
        times = tuple(t for t, _, _ in report.snapshots)
        if times not in s.sandwich_cache:
            u0 = s.u0.values
            s.sandwich_cache[times] = ref.sandwich(
                p.chi, p.a, p.b, p.kappa, max(float(u0.max()), eq), min(float(u0.min()), eq),
                times,
            )
        ubar, w = s.sandwich_cache[times]
        worst = 0.0
        for (_, u, _), ub_t, w_t in zip(report.snapshots, ubar, w):
            uk = u**p.kappa
            worst = max(worst, float(w_t**p.kappa - uk.min()), float(uk.max() - ub_t**p.kappa))
        if not worst <= allowance:
            problems.append(f"reference sandwich violation {worst:.3e} > 10h^2")
        return problems


# ---------------------------------------------------------------------------
# borderline-2d: acceptance criterion 6 at its full horizon
# ---------------------------------------------------------------------------


class Borderline2D:
    """Boundedness on the borderline line b = (kappa*n-2)/(kappa*n)*chi:
    2D 64^2, chi=1, b=1/2, theta=3, kappa=2, power-envelope growth, seeded
    random initial data.  Two CG solves per step dominate."""

    name = "borderline-2d"
    N = 64
    HORIZON = 50.0
    WARM_HORIZON = 0.2
    RAW = {"chi": 1, "a": 1, "b": 0.5, "theta": 3, "kappa": 2, "beta": 1, "dim": 2, "L": math.pi}

    def setup(self, seed: int, workdir: Path):
        import_s = _import_chemolab()
        from chemolab import evolve, grid, model

        p = model.build_params(self.RAW)
        k, kinetics_ms = _timed_kinetics(model, p, "power-envelope")
        g = grid.make_grid(p, self.N)
        rng = np.random.default_rng(seed)
        eq = (p.a / p.b) ** (1.0 / p.kappa)
        u0 = grid.Field(eq * (1.0 + 0.3 * rng.uniform(-1.0, 1.0, g.shape)), g)
        return SimpleNamespace(
            p=p, k=k, grid=g, u0=u0, evolve=evolve,
            timings={"import_s": import_s, "make_kinetics_ms": kinetics_ms},
        )

    def warm_up(self, s) -> None:
        s.evolve.run(s.p, s.k, s.u0, self.WARM_HORIZON)

    def op(self, s) -> Outcome:
        start = time.perf_counter()
        report = s.evolve.run(s.p, s.k, s.u0, self.HORIZON)
        end = time.perf_counter()
        return Outcome(
            wall_s=end - start, step_s=end - start, steps=report.steps,
            sim_time=report.final_time, outputs={"report": report},
        )

    def check(self, s, out: Outcome) -> list[str]:
        import reference as ref

        p, report = s.p, out.outputs["report"]
        problems = []
        if report.status != "ReachedHorizon":
            problems.append(f"status {report.status}, expected ReachedHorizon")
        if not report.max_mass_residual <= MASS_RESIDUAL_MAX:
            problems.append(f"per-step mass residual {report.max_mass_residual:.3e} > 1e-12")
        u = report.final_u.values
        v = report.final_v.values
        source = p.beta * u**p.kappa
        if not abs(v.sum() - source.sum()) <= 1e-12 * source.sum():
            problems.append(f"sum v - sum g(u) = {v.sum() - source.sum():.3e}")
        v_ref = ref.dct_helmholtz(source, p.lengths)
        if not float(np.max(np.abs(v - v_ref))) <= 1e-10:
            problems.append(f"v differs from the DCT solve by {np.max(np.abs(v - v_ref)):.3e}")
        t = report.column("t")
        sup = report.column("linf_u")
        early = float(sup[(t > 12.5) & (t <= 25.0)].max())
        late = float(sup[(t > 25.0) & (t <= 50.0)].max())
        if not late < 1.01 * early:
            problems.append(f"sup|u| grew from {early:.6g} to {late:.6g}")
        cell = float(np.prod([L / n for L, n in zip(p.lengths, u.shape)]))
        domain = float(np.prod(p.lengths))
        bound = max(
            float(s.u0.values.sum()) * cell,
            ref.power_envelope_l1_constant(p.a, p.b, p.theta) * domain,
        )
        if not float(report.column("mass").max()) <= 1.01 * bound:
            problems.append(f"mass {report.column('mass').max():.6g} above L1 bound {bound:.6g}")
        return problems


# ---------------------------------------------------------------------------
# onset-analysis: thresholds, singularity scan, continuation, validators
# ---------------------------------------------------------------------------


class OnsetAnalysis:
    """Pattern onset with no time stepping: the 1D bifurcation table, the 1D
    n=256 singularity scan over chi in [3.5, 12] with 40 points, continuation
    of the mode-1 branch on 2D 64^2 over chi in [4.2, 6.0] with 10 points,
    and validate_steady on the last state.  Dense SVD/slogdet and sparse LU
    share the time."""

    name = "onset-analysis"
    SCAN = (3.5, 12.0, 40)
    CHI_RANGE = (4.2, 6.0)
    BRANCH_POINTS = 10
    WARM_SCAN_POINTS = 4
    WARM_BRANCH_POINTS = 2
    FIXED_POINT_DT = 9e-3
    RAW = {"chi": 0.4, "a": 1, "b": 1, "theta": 2, "kappa": 1, "beta": 1, "L": math.pi}

    def setup(self, seed: int, workdir: Path):
        import_s = _import_chemolab()
        from chemolab import evolve, grid, model, stability, steady

        p1 = model.build_params({**self.RAW, "dim": 1})
        k1, kinetics_ms = _timed_kinetics(model, p1, "generalized-logistic")
        p2 = model.build_params({**self.RAW, "dim": 2})
        k2 = model.make_kinetics(p2, "generalized-logistic")
        return SimpleNamespace(
            p1=p1, k1=k1, grid1=grid.make_grid(p1, 256), eq1=stability.equilibrium_info(k1, 1.0),
            p2=p2, k2=k2, grid2=grid.make_grid(p2, 64), eq2=stability.equilibrium_info(k2, 1.0),
            evolve=evolve, stability=stability, steady=steady,
            timings={"import_s": import_s, "make_kinetics_ms": kinetics_ms},
        )

    def _analyse(self, s, scan_points: int, branch_points: int):
        rows = s.stability.bifurcation_table(s.eq1, s.p1.lengths, 3)
        scan = s.stability.singularity_scan(s.eq1, s.grid1, *self.SCAN[:2], scan_points)
        branch = s.steady.continuation(
            s.p2, s.k2, s.eq2, 1, self.CHI_RANGE, branch_points, grid=s.grid2
        )
        validation = None
        if branch.states:
            last = branch.states[-1]
            validation = s.steady.validate_steady(
                last, dataclasses.replace(s.p2, chi=last.chi), s.k2
            )
        return rows, scan, branch, validation

    def warm_up(self, s) -> None:
        self._analyse(s, self.WARM_SCAN_POINTS, self.WARM_BRANCH_POINTS)

    def op(self, s) -> Outcome:
        start = time.perf_counter()
        rows, scan, branch, validation = self._analyse(s, self.SCAN[2], self.BRANCH_POINTS)
        end = time.perf_counter()
        # The solver steps are the scan points and the Newton iterations of the
        # accepted solves; the stepped span is the chi range scanned plus the
        # chi range continued.  The whole repetition is charged to them.
        return Outcome(
            wall_s=end - start, step_s=end - start,
            steps=self.SCAN[2] + sum(st.iterations for st in branch.states),
            sim_time=(self.SCAN[1] - self.SCAN[0]) + (self.CHI_RANGE[1] - self.CHI_RANGE[0]),
            outputs={"rows": rows, "scan": scan, "branch": branch, "validation": validation},
            counts={"scan_points": self.SCAN[2]},
        )

    def check(self, s, out: Outcome) -> list[str]:
        import reference as ref

        rows, scan, branch = out.outputs["rows"], out.outputs["scan"], out.outputs["branch"]
        problems = []
        want = [4.0, 25.0 / 4.0, 100.0 / 9.0]
        got = [r.chi_hat for r in rows]
        if len(got) != 3 or any(abs(g - w) > 1e-12 * w for g, w in zip(got, want)):
            problems.append(f"bifurcation table {got}, expected {{4, 25/4, 100/9}}")
        p1 = s.p1
        n = s.grid1.shape[0]
        if len(scan.roots) != 3:
            problems.append(f"scan found {len(scan.roots)} roots, expected 3")
        for mode, root in enumerate(scan.roots[:3], start=1):
            sigma = ref.sigma_h(n, p1.lengths[0], (mode,))
            predicted = ref.logistic_onset_chi(p1.a, p1.b, p1.kappa, p1.beta, sigma)
            if not abs(root - predicted) < 1e-6:
                problems.append(f"scan root {root:.10g} != chi_hat(sigma_h) {predicted:.10g}")
        if branch.terminated_reason or len(branch.states) != self.BRANCH_POINTS:
            problems.append(
                f"branch has {len(branch.states)} points ({branch.terminated_reason})"
            )
        if not branch.states:
            return problems
        worst = max(st.residual_norm for st in branch.states)
        if not worst < 1e-9:
            problems.append(f"Newton residual {worst:.3e} >= 1e-9")
        if min(st.amplitude(s.eq2.u0) for st in branch.states) <= 1e-6:
            problems.append("a branch point collapsed to the constant state")
        if not out.outputs["validation"].all_pass:
            failed = [r.name for r in out.outputs["validation"].rows if not r.passed]
            problems.append(f"validators failed: {failed}")
        last = branch.states[-1]
        p_last = dataclasses.replace(s.p2, chi=last.chi)
        state = s.evolve.SimState(t=0.0, u=last.u, v=last.v, dt=self.FIXED_POINT_DT)
        moved = float(np.max(np.abs(s.evolve.step(state, p_last, s.k2).u.values - last.u.values)))
        if not moved <= 1e-9:
            problems.append(f"steady state moved by {moved:.3e} in one step")
        return problems


# ---------------------------------------------------------------------------
# sweep-grid: the CLI sweep of simulate over a 6x6 (chi, b) grid
# ---------------------------------------------------------------------------

_STATUS_LINE = re.compile(r"status: (\w+) at t = (\S+) \((\d+) steps")


class SweepGrid:
    """``chemolab sweep`` of ``simulate`` in-process over chi in [0.05, 0.45]
    x b in [1, 2] (6x6) at 1D n=64, horizon 10, 5 snapshots, seeded random
    initial data.  Many short runs, each with its own config, kinetics,
    manifest, per-step diagnostics row and CSV artifacts."""

    name = "sweep-grid"
    N = 64
    HORIZON = 10.0
    CHIS = (0.05, 0.45, 6)
    BS = (1.0, 2.0, 6)
    BASE, AMPLITUDE = 1.0, 0.5
    WARM_GRID = ((0.05, 0.45, 2), (1.0, 2.0, 2), 1.0)  # chis, bs, horizon
    CONFIG = """\
sweep.command = simulate
sweep.parameter = model.chi
sweep.start = {chis[0]!r}
sweep.stop = {chis[1]!r}
sweep.count = {chis[2]}
sweep.parameter2 = model.b
sweep.start2 = {bs[0]!r}
sweep.stop2 = {bs[1]!r}
sweep.count2 = {bs[2]}
model.chi = {chis[0]!r}
model.a = 1
model.b = {bs[0]!r}
model.theta = 2
model.kappa = 1
model.beta = 1
model.dim = 1
model.L = pi
kinetics.f_kind = generalized-logistic
grid.nx = {n}
init.kind = random
init.base = {base!r}
init.amplitude = {amplitude!r}
run.horizon = {horizon!r}
run.snapshots = 5
"""

    def _write_config(self, path: Path, chis, bs, horizon) -> Path:
        path.write_text(
            self.CONFIG.format(
                chis=chis, bs=bs, n=self.N, base=self.BASE,
                amplitude=self.AMPLITUDE, horizon=horizon,
            ),
            encoding="utf-8",
        )
        return path

    def setup(self, seed: int, workdir: Path):
        import_s = _import_chemolab(with_cli=True)
        from chemolab import cli, config

        workdir.mkdir(parents=True, exist_ok=True)
        path = self._write_config(workdir / "sweep.cfg", self.CHIS, self.BS, self.HORIZON)
        config.Config.load(path)
        return SimpleNamespace(
            cli=cli, config_path=path, out_dir=workdir / "sweep-out", seed=seed,
            workdir=workdir, timings={"import_s": import_s}, summary_digest=None,
            envelope=None,
        )

    def _sweep(self, s, config_path: Path):
        shutil.rmtree(s.out_dir, ignore_errors=True)
        argv = ["sweep", "--config", str(config_path), "--out", str(s.out_dir),
                "--seed", str(s.seed)]
        chatter = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(chatter), contextlib.redirect_stderr(chatter):
            code = s.cli.main(argv)
        return code, chatter, start, time.perf_counter()

    def warm_up(self, s) -> None:
        path = self._write_config(s.workdir / "warm.cfg", *self.WARM_GRID)
        code, chatter, _, _ = self._sweep(s, path)
        shutil.rmtree(s.out_dir, ignore_errors=True)
        if code != 0:
            raise RuntimeError(f"warm-up sweep exited {code}: {chatter.getvalue()[-200:]}")

    def op(self, s) -> Outcome:
        code, chatter, start, end = self._sweep(s, s.config_path)
        runs = _STATUS_LINE.findall(chatter.getvalue())
        summary = (s.out_dir / "sweep_summary.csv").read_bytes()
        artifact_bytes = sum(f.stat().st_size for f in s.out_dir.rglob("*") if f.is_file())
        shutil.rmtree(s.out_dir, ignore_errors=True)
        return Outcome(
            wall_s=end - start, step_s=end - start,
            steps=sum(int(r[2]) for r in runs), sim_time=sum(float(r[1]) for r in runs),
            outputs={"code": code, "summary": summary, "runs": runs},
            counts={"artifact_bytes": artifact_bytes},
        )

    def _envelope(self, s):
        """Reference sandwich (ubar, w) at the horizon for every grid point."""
        import reference as ref

        if s.envelope is None:
            noise = np.random.default_rng(s.seed).uniform(-1.0, 1.0, size=self.N)
            u0 = self.BASE * (1.0 + self.AMPLITUDE * noise)
            chi, b = np.meshgrid(np.linspace(*self.CHIS), np.linspace(*self.BS), indexing="ij")
            chi, b = chi.ravel(), b.ravel()
            eq = 1.0 / b  # (a/b)**(1/kappa) with a = kappa = 1
            ubar, w = ref.sandwich(
                chi, 1.0, b, 1.0, np.maximum(u0.max(), eq), np.minimum(u0.min(), eq),
                (self.HORIZON,),
            )
            s.envelope = (chi, b, ubar[0], w[0])
        return s.envelope

    def check(self, s, out: Outcome) -> list[str]:
        problems = []
        if out.outputs["code"] != 0:
            problems.append(f"sweep exited {out.outputs['code']}")
        points = self.CHIS[2] * self.BS[2]
        if len(out.outputs["runs"]) != points:
            problems.append(f"{len(out.outputs['runs'])} status lines, expected {points}")
        rows = list(csv.DictReader(io.StringIO(out.outputs["summary"].decode("utf-8"))))
        if len(rows) != points or any(r["status"] != "ok" for r in rows):
            problems.append(f"summary rows not all ok: {[r['status'] for r in rows]}")
            return problems
        chi, b, ubar, w = self._envelope(s)
        allowance = 10.0 * (math.pi / self.N) ** 2
        for i, r in enumerate(rows):
            if abs(float(r["model.chi"]) - chi[i]) > 1e-12 or abs(float(r["model.b"]) - b[i]) > 1e-12:
                problems.append(f"row {i} is at ({r['model.chi']}, {r['model.b']})")
                continue
            sup = float(r["scalar"])
            if not w[i] - allowance <= sup <= ubar[i] + allowance:
                problems.append(
                    f"point {i}: sup|u| = {sup:.6g} outside [{w[i]:.6g}, {ubar[i]:.6g}]"
                )
        digest = hashlib.sha256(out.outputs["summary"]).hexdigest()
        if s.summary_digest is None:
            s.summary_digest = digest
        elif digest != s.summary_digest:
            problems.append("sweep_summary.csv differs from the first repetition's")
        return problems


WORKLOADS = {w.name: w for w in (Converge1D(), Borderline2D(), OnsetAnalysis(), SweepGrid())}
