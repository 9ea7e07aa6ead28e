"""Command-line orchestration: subcommands, sweeps, CSV emission, exit codes.

Exit codes: 0 success/converged, 1 usage or config error, 2 blow-up detected,
3 solver non-convergence.  Every invocation writes its artifacts under the
--out directory together with a line-oriented manifest listing the inputs,
the package version, and each produced file.  Every artifact is a CSV file
written by the manifest itself: floats with 17 significant digits, booleans
as true/false, and a cell quoted only where CSV needs it.  A float table
(a 2-D float64 array) is formatted in one call per file, with the same
bytes the cell-by-cell path gives.  Reruns with identical config and seed
are byte-identical apart from the manifest timestamp.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import functools
import hashlib
import io
import math
import os
import pickle
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import compare_ode as cmp_ode
from . import evolve, stability, steady
from .config import (
    Config,
    grid_from_config,
    initial_field,
    kinetics_from_config,
    params_from_config,
)
from .errors import ChemolabError, ConfigError, OutOfRange, UndefinedForThisChi
from .grid import Grid
from .model import classify_regime, growth_zeros

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BLOWUP = 2
EXIT_NOCONV = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="chemolab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "steady", "stability", "compare-ode", "classify", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=0)
    return parser


class _Manifest:
    def __init__(self, out_dir: Path, command: str, config_path: str, seed: int,
                 config_sha: str | None = None):
        self.out_dir = out_dir
        self.lines = [
            f"command: {command}",
            f"version: chemolab {__version__}",
            f"config: {config_path}",
            f"config_sha256: {config_sha if config_sha is not None else _sha256(config_path)}",
            f"seed: {seed}",
        ]
        self.artifacts: list[str] = []

    def write_csv(self, name: str, header, *blocks) -> None:
        """List ``name`` as an artifact and write it as a header plus each
        block of rows in turn.  A 2-D float64 array block is formatted by one
        ``%`` call; any other block cell by cell through ``_cell``."""
        self.artifacts.append(name)
        with open(self.out_dir / name, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(header)
            for rows in blocks:
                # float64 only: "%.17g" turns a large int into 1e+18, and
                # _cell formats narrower floats through str
                if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64:
                    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
                    fh.write((line * len(rows)) % tuple(rows.ravel().tolist()))
                else:
                    out.writerows([_cell(x) for x in row] for row in rows)

    def write(self):
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        with open(self.out_dir / "manifest.txt", "w", encoding="utf-8") as fh:
            for line in self.lines:
                fh.write(line + "\n")
            for name in self.artifacts:
                fh.write(f"artifact: {name}\n")
            fh.write(f"timestamp: {stamp}\n")


def _cell(x) -> str:
    # float first, as the common case (np.float64 is a float); bools before
    # the str fallback, which would give "True"
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    return str(x)


def write_snapshot_csv(manifest: _Manifest, name: str, grid: Grid, u: np.ndarray,
                       v: np.ndarray) -> None:
    """Snapshot file: one row x[,y[,z]],u,v per cell centre of ``grid``."""
    columns = [c.ravel() for c in grid.coordinates] + [u.ravel(), v.ravel()]
    manifest.write_csv(name, grid.axis_names + ("u", "v"), np.column_stack(columns))


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path("chemolab-out")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _config_keys(**keys):
    """Decorate a handler so that an OutOfRange on a function argument named
    in ``keys`` is reported under the config key that set it."""
    def wrap(handler):
        @functools.wraps(handler)
        def run(cfg: Config, args, manifest: _Manifest):
            try:
                return handler(cfg, args, manifest)
            except OutOfRange as exc:
                if exc.name not in keys:
                    raise
                raise OutOfRange(keys[exc.name], exc.reason) from exc
        return run
    return wrap


def _simulate_inputs(cfg: Config, args) -> evolve.RunSpec:
    p = params_from_config(cfg)
    k = kinetics_from_config(cfg, p)
    grid = grid_from_config(cfg, p)
    u0 = initial_field(cfg, grid, seed=args.seed)
    horizon = cfg.number("run.horizon")
    if not horizon > 0:
        raise OutOfRange("run.horizon", f"must be > 0 (got {horizon})")
    rows = cfg.integer("run.rows", 500)
    if rows < 1:
        raise OutOfRange("run.rows", f"must be >= 1 (got {rows})")
    target = None
    if cfg.has("run.target"):
        raw = cfg.raw("run.target")
        target = growth_zeros(k)[1] if raw == "equilibrium" else cfg.number("run.target")
    n_snaps = cfg.integer("run.snapshots", 0)
    if n_snaps < 0:
        raise OutOfRange("run.snapshots", f"must be >= 0 (got {n_snaps})")
    snap_times = np.linspace(0.0, horizon, n_snaps) if n_snaps else ()
    return evolve.RunSpec(
        p, k, u0, horizon,
        target=target,
        rows=rows,
        snapshot_times=snap_times,
    )


def _simulate_outputs(report, manifest: _Manifest) -> tuple[int, float]:
    """Write one run's artifacts and print its status line; ``report`` is a
    run_batch outcome, so a point's error is raised here."""
    if isinstance(report, ChemolabError):
        raise report
    grid = report.final_u.grid
    footer = f"# status={report.status} final_time={report.final_time:.17g}"
    manifest.write_csv("series.csv", evolve.SERIES_COLUMNS, report.series, [[footer]])
    for i, (t, u_vals, v_vals) in enumerate(report.snapshots):
        write_snapshot_csv(manifest, f"snapshot_{i:03d}.csv", grid, u_vals, v_vals)
    write_snapshot_csv(manifest, "final.csv", grid, report.final_u.values, report.final_v.values)
    print(f"status: {report.status} at t = {report.final_time:.6g} "
          f"({report.steps} steps, max mass residual {report.max_mass_residual:.3e})")
    code = EXIT_BLOWUP if report.status in ("BlowUp", "StalledDt") else EXIT_OK
    return code, float(report.column("linf_u")[-1])


def _cmd_simulate(cfg: Config, args, manifest: _Manifest) -> tuple[int, float]:
    (outcome,) = evolve.run_batch([_simulate_inputs(cfg, args)])
    return _simulate_outputs(outcome, manifest)


@_config_keys(mode="steady.mode", steps="steady.steps")
def _cmd_steady(cfg: Config, args, manifest: _Manifest) -> tuple[int, float]:
    p = params_from_config(cfg)
    k = kinetics_from_config(cfg, p)
    grid = grid_from_config(cfg, p)
    _, u0 = growth_zeros(k)
    eq = stability.equilibrium_info(k, u0)
    mode = cfg.integer("steady.mode", 1)
    cfg.needs("steady.chi_start", "steady.chi_stop", "steady.steps")
    if cfg.has("steady.chi_start"):
        if cfg.has("steady.chi"):
            raise OutOfRange("steady.chi", "conflicts with steady.chi_start")
        chi_range = (cfg.number("steady.chi_start"), cfg.number("steady.chi_stop"))
        steps = cfg.integer("steady.steps")
    else:
        chi = cfg.number("steady.chi", p.chi)
        chi_range, steps = (chi, chi), 1
    branch = steady.continuation(p, k, eq, mode, chi_range, steps, grid=grid)
    manifest.write_csv(
        "onset.csv", ("chi_h", "inv_chi2", "approach_points", "approach_newton_iterations",
                      "approach_krylov_iterations"),
        [(branch.chi_h, branch.inv_chi2, branch.approach_points, branch.approach_newton,
          branch.approach_krylov)],
    )
    manifest.write_csv(
        "branch.csv",
        ("chi", "amplitude", "residual", "seed_mode", "newton_iterations", "krylov_iterations"),
        [(s.chi, s.amplitude(branch.reference), s.residual_norm, branch.seed_mode,
          s.iterations, s.krylov_iterations) for s in branch.states],
    )
    if branch.terminated_history:
        manifest.write_csv(
            "newton_history.csv", ("iteration", "residual"),
            enumerate(branch.terminated_history),
        )
    if branch.states:
        last = branch.states[-1]
        write_snapshot_csv(manifest, "steady_state.csv", last.u.grid, last.u.values, last.v.values)
        report = steady.validate_steady(last, dataclasses.replace(p, chi=last.chi), k)
        manifest.write_csv(
            "validation.csv", ("name", "bound", "observed", "pass", "note"),
            [(r.name, r.bound, r.observed, r.passed, r.note) for r in report.rows],
        )
        print(f"branch points: {len(branch.states)}, "
              f"last amplitude {last.amplitude(eq.u0):.6g}, "
              f"validators {'pass' if report.all_pass else 'FAIL'}")
    if branch.terminated_reason and not branch.states:
        print(f"no convergence: {branch.terminated_reason}", file=sys.stderr)
        return EXIT_NOCONV, math.nan
    if branch.terminated_reason:
        print(f"branch terminated early: {branch.terminated_reason}", file=sys.stderr)
    amp = branch.states[-1].amplitude(eq.u0) if branch.states else math.nan
    return EXIT_OK, amp


@_config_keys(count="stability.count", n_points="stability.scan_points",
              chi_hi="stability.scan_hi")
def _cmd_stability(cfg: Config, args, manifest: _Manifest) -> tuple[int, float]:
    cfg.needs("stability.chi_lo", "stability.chi_hi", "stability.chi_samples")
    cfg.needs("stability.scan", "stability.scan_lo", "stability.scan_hi", "stability.scan_points")
    p = params_from_config(cfg)
    k = kinetics_from_config(cfg, p)
    if cfg.has("stability.u0"):
        u0 = cfg.number("stability.u0")
        if not u0 > 0:
            raise OutOfRange("stability.u0", f"equilibrium must be > 0 (got {u0})")
    else:
        _, u0 = growth_zeros(k)
    eq = stability.equilibrium_info(k, u0)
    count = cfg.integer("stability.count", 6)
    rows = stability.bifurcation_table(eq, p.lengths, count)
    manifest.write_csv(
        "bifurcation.csv", ("k", "sigma", "multiplicity", "chi_hat", "proven"),
        [(r.k, r.sigma, r.multiplicity, r.chi_hat, r.proven) for r in rows],
    )
    intervals = stability.pattern_intervals(rows)
    for lo, hi in intervals:
        print(f"pattern interval: ({lo:.6g}, {hi:.6g})")
    print("outside the listed intervals the existence of patterns is unknown")
    if cfg.has("stability.chi_lo"):
        samples = cfg.integer("stability.chi_samples", 100)
        if samples < 1:
            raise OutOfRange("stability.chi_samples", f"must be >= 1 (got {samples})")
        chis = np.linspace(cfg.number("stability.chi_lo"), cfg.number("stability.chi_hi"), samples)
        lambdas = np.full((len(chis), 2), np.nan)  # NaN below chi_floor
        for i, chi in enumerate(chis):
            try:
                lambdas[i] = stability.linearization_eigenvalues(eq, float(chi))
            except UndefinedForThisChi:
                pass
        manifest.write_csv(
            "lambda.csv", ("chi", "lambda_minus", "lambda_plus"), np.column_stack([chis, lambdas])
        )
    if cfg.flag("stability.scan"):
        grid = grid_from_config(cfg, p)
        scan = stability.singularity_scan(
            eq, grid,
            cfg.number("stability.scan_lo"),
            cfg.number("stability.scan_hi"),
            cfg.integer("stability.scan_points", 40),
        )
        manifest.write_csv(
            "scan.csv", ("chi", "smallest_singular_value"),
            np.column_stack([scan.chis, scan.smallest_singular_values]),
        )
        manifest.write_csv("scan_roots.csv", ("chi_singular",), [(r,) for r in scan.roots])
        print(f"scan roots: {[f'{r:.8g}' for r in scan.roots]}")
    # key scalar: gap between the growing branch at this chi and the nearest
    # mode eigenvalue; it touches zero exactly at the onset thresholds
    try:
        _, lam_plus = stability.linearization_eigenvalues(eq, p.chi)
        sigmas = [r.sigma for r in rows] or [math.inf]
        gap = min(abs(lam_plus - s) for s in sigmas)
    except ChemolabError:
        gap = math.nan
    return EXIT_OK, gap


@_config_keys(horizon="compare.horizon", u0_min="compare.u0_min", u0_max="compare.u0_max")
def _cmd_compare_ode(cfg: Config, args, manifest: _Manifest) -> tuple[int, float]:
    p = params_from_config(cfg)
    k = kinetics_from_config(cfg, p)
    horizon = cfg.number("compare.horizon")
    u0_min = cfg.number("compare.u0_min")
    u0_max = cfg.number("compare.u0_max")
    envelopes, eps0 = cfg.flag("compare.envelopes"), math.nan
    # the sandwich pair is the logistic's; other families have only envelopes
    if k.f_kind == "generalized-logistic":
        traj = cmp_ode.solve_sandwich(p, u0_min, u0_max, horizon)
        manifest.write_csv(
            "trajectory.csv", ("t", "ubar", "ulow", "log_ratio"),
            np.column_stack([traj.times, traj.ubar, traj.ulow, traj.log_ratio]),
        )
        if traj.eps0 is not None:
            eps0 = traj.eps0
            print(f"contraction rate eps0 = {eps0:.8g}")
    elif not envelopes:
        raise OutOfRange("kinetics.f_kind", f"{k.f_kind} growth has no sandwich pair; "
                         "compare-ode needs compare.envelopes")
    if envelopes:
        env = cmp_ode.envelope_odes(p, k, u0_min, u0_max, horizon)
        manifest.write_csv(
            "envelopes.csv", ("t", "z", "y"), np.column_stack([env.times_z, env.z, env.y])
        )
        print(f"z_inf = {env.z_inf:.8g}, y_inf = {env.y_inf:.8g}")
    return EXIT_OK, eps0


def _cmd_classify(cfg: Config, args, manifest: _Manifest) -> tuple[int, float]:
    p = params_from_config(cfg)
    k = kinetics_from_config(cfg, p)
    dim = cfg.integer("classify.dim", p.dim)
    # checked here: a "dim" mapping would relabel a bad model.dim too
    if dim < 1:
        raise OutOfRange("classify.dim", f"must be >= 1 (got {dim})")
    report = classify_regime(p, k, dim=dim)
    manifest.write_csv(
        "regimes.csv", ("tag", "satisfied", "condition"),
        [(v.tag, v.satisfied, v.condition) for v in report.verdicts],
    )
    for v in report.verdicts:
        if v.satisfied:
            print(v.tag)
            print(f"  {v.condition}")
    return EXIT_OK, float(len(report.satisfied_tags()))


_HANDLERS = {
    "simulate": _cmd_simulate,
    "steady": _cmd_steady,
    "stability": _cmd_stability,
    "compare-ode": _cmd_compare_ode,
    "classify": _cmd_classify,
}


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_axis(cfg: Config, suffix: str = "") -> np.ndarray:
    count = cfg.integer(f"sweep.count{suffix}")
    if count < 1:
        raise OutOfRange(f"sweep.count{suffix}", f"grid is empty (got {count})")
    start, stop = cfg.number(f"sweep.start{suffix}"), cfg.number(f"sweep.stop{suffix}")
    return np.linspace(start, stop, count)


def _sweep_points(cfg: Config) -> tuple[list[str], list[tuple[float, ...]]]:
    cfg.needs("sweep.parameter2", "sweep.start2", "sweep.stop2", "sweep.count2")
    names = [cfg.raw("sweep.parameter")]
    axes = [_sweep_axis(cfg)]
    if cfg.has("sweep.parameter2"):
        names.append(cfg.raw("sweep.parameter2"))
        axes.append(_sweep_axis(cfg, "2"))
    if len(axes) == 1:
        points = [(float(x),) for x in axes[0]]
    else:
        points = [(float(x), float(y)) for x in axes[0] for y in axes[1]]
    return names, points


def _sweep_point(index, names, values, cfg: Config, args, out_root: Path, command):
    """The config and manifest of one sweep point, in its own directory."""
    entries = dict(cfg.entries)
    for name, value in zip(names, values):
        entries[name] = f"{value!r}"
    point_dir = out_root / f"point_{index:04d}"
    point_dir.mkdir(parents=True, exist_ok=True)
    manifest = _Manifest(point_dir, command, "<sweep point>", args.seed, config_sha="inherited")
    return Config(entries), manifest


_POINT_STATUS = {EXIT_OK: "ok", EXIT_BLOWUP: "blowup", EXIT_NOCONV: "no-convergence"}


def _point_result(manifest: _Manifest, handler, *handler_args):
    """Run one point's handler and write its manifest; a ChemolabError is a
    parameter failure of that point and must not sink the sweep."""
    try:
        code, scalar = handler(*handler_args)
    except ChemolabError as exc:
        manifest.write()
        return f"error: {exc}", EXIT_USAGE, math.nan
    manifest.write()
    return _POINT_STATUS.get(code, f"exit_{code}"), code, scalar


def _sweep_block(points, command, args) -> list:
    """(status, exit code, scalar) of each (config, manifest) point of a block;
    simulate runs the block's inputs as batches (evolve.run_batch) first."""
    if command != "simulate":
        return [_point_result(m, _HANDLERS[command], c, args, m) for c, m in points]
    outcomes = []
    for point_cfg, _ in points:
        try:
            outcomes.append(_simulate_inputs(point_cfg, args))
        except ChemolabError as exc:
            outcomes.append(exc)
    reports = iter(evolve.run_batch([x for x in outcomes if isinstance(x, evolve.RunSpec)]))
    outcomes = [next(reports) if isinstance(x, evolve.RunSpec) else x for x in outcomes]
    return [_point_result(m, _simulate_outputs, o, m) for o, (_, m) in zip(outcomes, points)]


def _workers(n_points: int) -> int:
    """One sweep worker per CPU in the affinity mask, at most one per point."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), n_points)


def _sweep_child(block, command, args, read: int, write: int) -> None:
    """A forked worker: pickle its block's reply into the pipe ``write``, and exit."""
    try:
        os.close(read)
        out, err = sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
        try:
            reply = (_sweep_block(block, command, args), out.getvalue(), err.getvalue())
        except BaseException as exc:  # re-raised in the parent
            reply = exc
        with os.fdopen(write, "wb") as pipe:
            pickle.dump(reply, pipe)
        os._exit(0)
    finally:
        os._exit(1)  # never return into the caller's frames


def _sweep_blocks(points, command, args) -> list:
    """_sweep_block over contiguous blocks, one per worker, with the output
    of forked workers replayed in point order.  Fork keeps module state."""
    n = _workers(len(points))
    if n == 1:
        return _sweep_block(points, command, args)
    sys.stdout.flush()
    sys.stderr.flush()
    children, results = {}, []
    try:
        for i in range(n):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                block = points[len(points) * i // n:len(points) * (i + 1) // n]
                _sweep_child(block, command, args, read, write)
            os.close(write)
            children[pid] = os.fdopen(read, "rb")
        for pid, pipe in list(children.items()):
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if status != 0 or not data:
                raise RuntimeError(f"sweep worker exited with status {status} without results")
            reply = pickle.loads(data)
            if isinstance(reply, BaseException):
                raise reply
            results += reply[0]
            sys.stdout.write(reply[1])
            sys.stderr.write(reply[2])
        return results
    finally:
        for pid, pipe in children.items():  # no worker outlives the sweep
            pipe.close()
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)


def _cmd_sweep(cfg: Config, args, manifest: _Manifest) -> int:
    command = cfg.raw("sweep.command")
    if command not in _HANDLERS:
        raise OutOfRange("sweep.command", f"must be one of {sorted(_HANDLERS)} (got {command})")
    names, values = _sweep_points(cfg)
    points = [
        _sweep_point(i, names, v, cfg, args, manifest.out_dir, command)
        for i, v in enumerate(values)
    ]
    results = _sweep_blocks(points, command, args)
    manifest.write_csv(
        "sweep_summary.csv", ["index", *names, "status", "exit_code", "scalar"],
        [(i, *v, *result) for i, (v, result) in enumerate(zip(values, results))],
    )
    n_ok = sum(1 for status, code, _ in results if code == EXIT_OK)
    print(f"sweep: {n_ok}/{len(values)} points succeeded")
    return EXIT_OK if n_ok >= 1 else EXIT_USAGE


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = Config.load(args.config)
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out_dir = _out_dir(args)
    manifest = _Manifest(out_dir, args.command, args.config, args.seed)
    try:
        if args.command == "sweep":
            code = _cmd_sweep(cfg, args, manifest)
        else:
            code, _ = _HANDLERS[args.command](cfg, args, manifest)
    except ChemolabError as exc:
        # the manifest still lists whatever was written before the failure
        kind = "config error" if isinstance(exc, ConfigError) else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    manifest.write()
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
