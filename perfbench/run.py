"""chemolab benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; chemolab is imported from its
``src/``.  Within about S seconds the run measures set-up time in fresh
interpreters, then warms up and repeats the workload's timed work in this
process, checking every repetition.  A fixed calibration kernel
(``calibrate.py``) is timed between all of these, and every time reported
is scaled to a reference host speed by the kernel times around it.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced repetitions and reports the per-layer
metrics.  Progress goes to stderr; the last line of stdout is one JSON
object with keys correct, attempted, failed, metrics.  Results and traces
are written under ``.perfbench/`` in the checkout.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy is first imported here or in a
# child: on the two-core host a second thread added outliers and no speed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 60

# name -> (unit, better); the end_to_end block of BENCHMARK.json
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "us_per_step": ("us", "lower"),
    "steps_per_time": ("steps/t", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def probe_setup(workload: str, seed: int, workdir: Path) -> tuple[float, dict]:
    """Set-up time of one fresh interpreter: spawn until its inputs are built."""
    cmd = [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed), str(workdir)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not line:
        raise HarnessError(f"set-up probe exited {proc.returncode}")
    return ready - start, json.loads(line)


class HostClock:
    """Scales measured times to the reference host speed.

    The calibration kernel is timed once after every timed region (and once
    before the first); a region's scale is ``REFERENCE_S`` over the mean of
    the kernel times just before and just after it.
    """

    def __init__(self):
        import calibrate  # scipy: kept out of the set-up probes' imports

        self.reference_s = calibrate.REFERENCE_S
        self.kernel = calibrate.Kernel()
        self.last = self.kernel.time()
        self.samples = [self.last]

    def scale_since_last(self) -> float:
        """Time the kernel now; the scale of the region since the last call."""
        now = self.kernel.time()
        self.samples.append(now)
        before, self.last = self.last, now
        return self.reference_s / (0.5 * (before + now))


def calibrated_probes(clock, workload: str, seed: int, workdir: Path) -> list:
    """``SETUP_SAMPLES`` set-up probes, each time scaled to the reference host."""
    probes = []
    for i in range(SETUP_SAMPLES):
        took, info = probe_setup(workload, seed, workdir / f"probe{i}")
        scale = clock.scale_since_last()
        info = {key: value * scale for key, value in info.items()}
        probes.append((took * scale, info))
    return probes


def timed_reps(wl, inputs, clock, start: float, seconds: float, tracer=None):
    """Warm up once, then repeat while the next repetition fits the window.

    The warm-up is the workload's ``warm_up`` (the same calls on a smaller
    problem) where it has one, else one whole checked but untimed
    repetition.  The window is ``seconds`` from ``start``.  Without a tracer every
    repetition after the warm-up is timed untraced.  With one, timed
    repetitions alternate untraced and traced (in pairs), so host drift
    touches both sides alike.  Each repetition is followed by a timing of
    the calibration kernel, which sets its ``host_scale``.  Every repetition
    is checked outside its timed region; one whose check fails is counted
    failed and its time is not used.  Returns (untraced, traced, attempted,
    failed).
    """
    untraced, traced = [], []
    attempted = failed = 0
    longest = 0.0
    warm_up = getattr(wl, "warm_up", None)
    if warm_up is not None:
        try:
            warm_up(inputs)
        except Exception as exc:  # the timed repetitions show what is broken
            log(f"warm-up raised {type(exc).__name__}: {exc}")
        clock.scale_since_last()
    while True:
        warm = attempted == 0 and warm_up is None
        group = [False] if tracer is None or warm else [False, True]
        if not warm:
            elapsed = time.perf_counter() - start
            fits = elapsed + longest * len(group) <= seconds
            missing = not untraced or (tracer is not None and not traced)
            if not fits and not (missing and elapsed < 2 * seconds):
                break
        for use_trace in group:
            began = time.perf_counter()
            if use_trace:
                tracer.install()
            try:
                out = wl.op(inputs)
                error = None
            except Exception as exc:  # a failing operation is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            finally:
                if use_trace:
                    tracer.uninstall()
            scale = clock.scale_since_last()
            try:
                problems = [error] if error else wl.check(inputs, out)
            except Exception as exc:  # outputs too malformed to check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            attempted += 1
            if problems:
                failed += 1
                log(f"repetition {attempted} failed: {'; '.join(problems)}")
            elif not warm:
                out.host_scale = scale
                (traced if use_trace else untraced).append(out)
            longest = max(longest, time.perf_counter() - began)
        if warm and failed:
            break
    return untraced, traced, attempted, failed


def scaled_wall(outcomes) -> float:
    return statistics.median(o.wall_s * o.host_scale for o in outcomes)


def e2e_metrics(outcomes, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "wall_s": scaled_wall(outcomes),
        "us_per_step": statistics.median(
            o.step_s * o.host_scale / o.steps * 1e6 for o in outcomes
        ),
        "steps_per_time": statistics.median(o.steps / o.sim_time for o in outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run(args) -> tuple[dict, dict]:
    if not (SRC / "chemolab" / "__init__.py").is_file():
        raise HarnessError(f"no chemolab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    wl = workloads.WORKLOADS[args.workload]
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    try:
        inputs = wl.setup(args.seed, workdir)
        import chemolab

        if Path(chemolab.__file__).resolve().parent != (SRC / "chemolab").resolve():
            raise HarnessError(f"chemolab imported from {chemolab.__file__}, not {SRC}")
        clock = HostClock()
        start = time.perf_counter()
        probes = calibrated_probes(clock, args.workload, args.seed, workdir)
        setup_s = statistics.median(t for t, _ in probes)
        log(f"setup_s samples {[round(t, 4) for t, _ in probes]}")
        tracer = tracing.Tracer() if args.trace else None
        untraced, traced, attempted, failed = timed_reps(
            wl, inputs, clock, start, args.seconds, tracer
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    log(f"{attempted} repetitions, {failed} failed; untraced wall_s as measured "
        f"{[round(o.wall_s, 4) for o in untraced]}, host scales "
        f"{[round(o.host_scale, 3) for o in untraced]}")
    correct = bool(untraced) and (not args.trace or bool(traced))
    if not correct:
        metrics = {}
    elif args.trace:
        setup = {
            key: statistics.median(info[key] for _, info in probes)
            for key in probes[0][1]
        }
        overhead = scaled_wall(traced) - scaled_wall(untraced)
        metrics = tracing.layer_metrics(tracer, len(traced), traced[-1].counts, setup, overhead)
        # span times of the traced repetitions, scaled like every other time
        trace_scale = statistics.median(o.host_scale for o in traced)
        for name in tracing.SPAN_TIMED:
            metrics[name] *= trace_scale
        log(f"traced wall_s as measured {[round(o.wall_s, 4) for o in traced]}")
        if tracer.missing:
            log(f"not traced, absent from chemolab: {sorted(tracer.missing)}")
        write_json(OUT / "traces" / f"{args.workload}-seed{args.seed}.json", tracer.dump())
    else:
        metrics = e2e_metrics(untraced, setup_s)
    table = tracing.LAYER_METRICS if args.trace else E2E_METRICS
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": table[name][0]}
                    for name, value in metrics.items()},
    }
    samples = {
        "setup_s": [t for t, _ in probes],
        "wall_s_measured": [o.wall_s for o in untraced],
        "host_scale": [o.host_scale for o in untraced],
        "traced_wall_s_measured": [o.wall_s for o in traced],
        "traced_host_scale": [o.host_scale for o in traced],
        "kernel_s": clock.samples,
    }
    return result, samples


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, samples = run(args)
    except HarnessError as exc:
        log(f"cannot run: {exc}")
        return 2
    write_json(OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
               {"result": result, "samples": samples})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
