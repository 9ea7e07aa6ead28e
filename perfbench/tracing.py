"""Spans around chemolab's layer boundaries, recorded from the benchmark.

``Tracer.install`` replaces each module-level name in ``TARGETS`` with a
wrapper that records a span (layer, parent layer, duration) and restores the
originals on ``uninstall``.  The names are those through which one chemolab
module calls another (``chemolab.evolve.solve_helmholtz_array``) and the
public entry points the benchmark calls (``chemolab.evolve.run``), so the
wrappers see every call across a layer boundary while nothing under ``src/``
changes.  Spans are aggregated in memory per (parent, layer) and written out
when the run ends.

A layer's self time is its spans' duration minus the part covered by its
child spans.  ``layer_metrics`` turns the aggregate into the per-layer
metrics of BENCHMARK.json, each averaged over the traced repetitions.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
import types
from collections import defaultdict

# (module, attribute path, layer).  Several names may share one layer.
TARGETS = (
    ("chemolab.evolve", "run", "evolve.run"),
    ("chemolab.evolve", "step", "evolve.step"),
    ("chemolab.evolve", "adapt_dt", "evolve.adapt_dt"),
    ("chemolab.evolve", "solve_helmholtz_array", "elliptic.solve_helmholtz"),
    ("chemolab.evolve", "lp_norm", "diagnostics.lp_norm"),
    ("chemolab.evolve", "face_gradients", "grid.stencil"),
    ("chemolab.evolve", "face_averages", "grid.stencil"),
    ("chemolab.evolve", "face_divergence", "grid.stencil"),
    ("chemolab.evolve", "gradient_inf_norm", "grid.stencil"),
    ("chemolab.evolve", "integrate", "grid.stencil"),
    ("chemolab.evolve", "RunReport.write_series_csv", "cli.artifact_write"),
    ("chemolab.steady", "continuation", "steady.continuation"),
    ("chemolab.steady", "solve_stationary", "steady.solve_stationary"),
    ("chemolab.steady", "validate_steady", "steady.validate_steady"),
    ("chemolab.steady", "spla.spsolve", "steady.spsolve"),
    ("chemolab.steady", "solve_helmholtz_array", "elliptic.solve_helmholtz"),
    ("chemolab.steady", "face_average_div_matrix", "grid.assembly"),
    ("chemolab.steady", "weighted_divgrad_matrix", "grid.assembly"),
    ("chemolab.stability", "bifurcation_table", "stability.bifurcation_table"),
    ("chemolab.stability", "singularity_scan", "stability.singularity_scan"),
    ("chemolab.compare_ode", "solve_sandwich", "compare_ode.solve_sandwich"),
    ("chemolab.compare_ode", "check_sandwich", "compare_ode.check_sandwich"),
    ("chemolab.cli", "_run_sweep_point", "cli.point"),
    ("chemolab.cli", "params_from_config", "config.build"),
    ("chemolab.cli", "kinetics_from_config", "config.build"),
    ("chemolab.cli", "grid_from_config", "config.build"),
    ("chemolab.cli", "initial_field", "config.build"),
    ("chemolab.cli", "write_snapshot_csv", "cli.artifact_write"),
    ("chemolab.cli", "_Manifest.write", "cli.artifact_write"),
)

# name -> (unit, better); the per_layer block of BENCHMARK.json
LAYER_METRICS = {
    "chemolab.import_s": ("s", "lower"),
    "model.make_kinetics_ms": ("ms", "lower"),
    "evolve.step_us": ("us", "lower"),
    "evolve.step_calls": ("count", "lower"),
    "evolve.adapt_dt_us": ("us", "lower"),
    "evolve.run_self_us_per_step": ("us", "lower"),
    "elliptic.solve_helmholtz_us": ("us", "lower"),
    "elliptic.solve_helmholtz_calls": ("count", "lower"),
    "grid.stencil_us_per_step": ("us", "lower"),
    "grid.assembly_ms": ("ms", "lower"),
    "diagnostics.lp_norm_us": ("us", "lower"),
    "diagnostics.lp_norm_calls": ("count", "lower"),
    "steady.newton_iterations": ("count", "lower"),
    "steady.spsolve_ms": ("ms", "lower"),
    "steady.solve_stationary_ms": ("ms", "lower"),
    "steady.validate_steady_ms": ("ms", "lower"),
    "stability.singularity_scan_s": ("s", "lower"),
    "stability.scan_ms_per_point": ("ms", "lower"),
    "stability.bifurcation_table_us": ("us", "lower"),
    "compare_ode.solve_sandwich_ms": ("ms", "lower"),
    "compare_ode.check_sandwich_ms": ("ms", "lower"),
    "cli.point_ms": ("ms", "lower"),
    "cli.artifact_write_ms_per_point": ("ms", "lower"),
    "cli.artifact_bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# the per-layer times taken from the traced spans; the set-up figures and
# trace.overhead_s come from already scaled times
SPAN_TIMED = tuple(
    name for name, (unit, _) in LAYER_METRICS.items()
    if unit in ("s", "ms", "us")
    and name not in ("chemolab.import_s", "model.make_kinetics_ms", "trace.overhead_s")
)


class _ModuleProxy:
    """Stands in for a foreign module inside one chemolab module's namespace,
    so that wrapping ``spla.spsolve`` there leaves scipy itself untouched."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved = []
        self.missing = set()
        # (parent layer or None, layer) -> [calls, total ns, self ns]
        self.edges = defaultdict(lambda: [0, 0, 0])

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn):
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                with self._lock:
                    rec = self.edges[(parent[0] if parent else None, layer)]
                    rec[0] += 1
                    rec[1] += elapsed
                    rec[2] += elapsed - frame[1]

        return wrapper

    def install(self) -> None:
        """Wrap every target; one the program no longer has is skipped and
        listed in ``missing``, so its layer reads 0 instead of the run failing."""
        for modname, path, layer in TARGETS:
            *owners, name = path.split(".")
            try:
                holder = importlib.import_module(modname)
                for part in owners:
                    inner = getattr(holder, part)
                    if isinstance(inner, types.ModuleType):
                        proxy = _ModuleProxy(inner)
                        self._saved.append((holder, part, inner))
                        setattr(holder, part, proxy)
                        inner = proxy
                    holder = inner
                original = getattr(holder, name)
            except (ImportError, AttributeError):
                self.missing.add(f"{modname}.{path}")
                continue
            self._saved.append((holder, name, original))
            setattr(holder, name, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._saved:
            holder, name, original = self._saved.pop()
            setattr(holder, name, original)

    def layers(self) -> dict:
        """layer -> (calls, total ns, self ns), summed over parents."""
        out = defaultdict(lambda: [0, 0, 0])
        for (_, layer), rec in self.edges.items():
            for i in range(3):
                out[layer][i] += rec[i]
        return out

    def dump(self) -> list:
        return [
            {"parent": parent, "layer": layer, "calls": c, "total_s": t / 1e9, "self_s": s / 1e9}
            for (parent, layer), (c, t, s) in sorted(self.edges.items(), key=lambda e: -e[1][2])
        ]


def layer_metrics(tracer: Tracer, reps: int, counts: dict, setup: dict, overhead_s: float) -> dict:
    """Per-layer metrics from the aggregated spans of ``reps`` traced repetitions.

    ``*_us`` is self time per call, ``*_ms`` self time per repetition unless
    the name says per what, ``*_calls`` calls per repetition.  Layers the
    workload never enters read 0.  ``counts`` holds per-repetition totals
    the workload measured itself (scan points, artifact bytes); ``setup``
    holds the set-up probes' medians.
    """
    lay = tracer.layers()

    def calls(layer):
        return lay[layer][0]

    def self_ns(layer):
        return lay[layer][2]

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    steps = calls("evolve.step")
    newton = calls("steady.spsolve")
    points = calls("cli.point")
    scan_points = counts.get("scan_points", 0) * reps
    return {
        "chemolab.import_s": setup["import_s"],
        "model.make_kinetics_ms": setup.get("make_kinetics_ms", 0.0),
        "evolve.step_us": ratio(self_ns("evolve.step"), steps, 1e-3),
        "evolve.step_calls": steps / reps,
        "evolve.adapt_dt_us": ratio(self_ns("evolve.adapt_dt"), calls("evolve.adapt_dt"), 1e-3),
        "evolve.run_self_us_per_step": ratio(self_ns("evolve.run"), steps, 1e-3),
        "elliptic.solve_helmholtz_us": ratio(
            self_ns("elliptic.solve_helmholtz"), calls("elliptic.solve_helmholtz"), 1e-3
        ),
        "elliptic.solve_helmholtz_calls": calls("elliptic.solve_helmholtz") / reps,
        "grid.stencil_us_per_step": ratio(self_ns("grid.stencil"), steps, 1e-3),
        "grid.assembly_ms": ratio(self_ns("grid.assembly"), newton, 1e-6),
        "diagnostics.lp_norm_us": ratio(
            self_ns("diagnostics.lp_norm"), calls("diagnostics.lp_norm"), 1e-3
        ),
        "diagnostics.lp_norm_calls": calls("diagnostics.lp_norm") / reps,
        "steady.newton_iterations": newton / reps,
        "steady.spsolve_ms": self_ns("steady.spsolve") / reps * 1e-6,
        "steady.solve_stationary_ms": self_ns("steady.solve_stationary") / reps * 1e-6,
        "steady.validate_steady_ms": self_ns("steady.validate_steady") / reps * 1e-6,
        "stability.singularity_scan_s": self_ns("stability.singularity_scan") / reps * 1e-9,
        "stability.scan_ms_per_point": ratio(
            self_ns("stability.singularity_scan"), scan_points, 1e-6
        ),
        "stability.bifurcation_table_us": ratio(
            self_ns("stability.bifurcation_table"), calls("stability.bifurcation_table"), 1e-3
        ),
        "compare_ode.solve_sandwich_ms": self_ns("compare_ode.solve_sandwich") / reps * 1e-6,
        "compare_ode.check_sandwich_ms": self_ns("compare_ode.check_sandwich") / reps * 1e-6,
        "cli.point_ms": ratio(lay["cli.point"][1], points, 1e-6),
        "cli.artifact_write_ms_per_point": ratio(self_ns("cli.artifact_write"), points, 1e-6),
        "cli.artifact_bytes": counts.get("artifact_bytes", 0),
        "trace.overhead_s": overhead_s,
    }
