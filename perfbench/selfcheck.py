"""Fast self-check of the benchmark harness (no chemolab run, a few seconds).

    python3 perfbench/selfcheck.py

- BENCHMARK.json has the declared shape, and every metric the harness can
  print is declared there with the same unit and direction;
- the DCT-II reference solve reproduces the closed-form cosine eigenpairs of
  the mirror-ghost operator (-lap_h + I) and inverts its stencil;
- the RK4 sandwich integrator matches the logistic closed form at chi = 0;
- the onset formula gives the continuum thresholds {4, 25/4, 100/9};
- the calibration kernel does the same work on every pass.

Exits 0 when every check holds, 1 otherwise, listing the failures.
"""

import json
import math
import re
import sys

import numpy as np

import calibrate
import reference as ref
import run
import tracing
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(failures: list) -> None:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        failures.append(f"BENCHMARK.json keys {sorted(spec)}")
        return
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        failures.append("workload names differ from workloads.WORKLOADS")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            failures.append(f"workload entry {w.get('name')} malformed")
    for block, table, keyset in (
        ("end_to_end", run.E2E_METRICS, {"name", "unit", "better", "bound"}),
        ("per_layer", tracing.LAYER_METRICS, {"name", "unit", "better"}),
    ):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[block]}
        if declared != table:
            failures.append(f"{block} differs from the harness table: "
                            f"{sorted(set(declared.items()) ^ set(table.items()))}")
        for m in spec[block]:
            if set(m) != keyset:
                failures.append(f"{block} entry {m.get('name')} has keys {sorted(m)}")
            if not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
                failures.append(f"{block} entry {m['name']!r} has a bad name or unit")
            if m["better"] not in ("lower", "higher"):
                failures.append(f"{m['name']}: better = {m['better']!r}")
            if block == "end_to_end" and not 0 < m["bound"] <= 0.25:
                failures.append(f"{m['name']}: bound {m['bound']} outside (0, 0.25]")
    names = [w["name"] for w in spec["workloads"]] + [
        m["name"] for block in ("end_to_end", "per_layer") for m in spec[block]
    ]
    if len(names) != len(set(names)):
        failures.append("a name is used twice")


def check_dct(failures: list) -> None:
    rng = np.random.default_rng(0)
    for shape, lengths in (((256,), (math.pi,)), ((64, 64), (math.pi, math.pi)),
                           ((16, 24), (2.0, 3.0))):
        for ks in ((0,) * len(shape), (1,) * len(shape), tuple(range(3, 3 + len(shape)))):
            mode = ref.cosine_mode(shape, ks)
            sigma = 1.0 + sum(float(ref.axis_eigenvalues(n, L)[k])
                              for n, L, k in zip(shape, lengths, ks))
            applied = ref.neumann_apply(mode, lengths)
            if not np.max(np.abs(applied - sigma * mode)) <= 1e-9 * sigma:
                failures.append(f"stencil eigenvalue for {shape} {ks} differs from closed form")
            solved = ref.dct_helmholtz(mode, lengths)
            if not np.max(np.abs(solved - mode / sigma)) <= 1e-14:
                failures.append(f"DCT solve of mode {ks} on {shape} is not mode/sigma_h")
        source = rng.uniform(0.5, 1.5, shape)
        residual = ref.neumann_apply(ref.dct_helmholtz(source, lengths), lengths) - source
        if not np.max(np.abs(residual)) <= 1e-10:
            failures.append(f"DCT solve on {shape} leaves residual {np.max(np.abs(residual)):.2e}")
    if abs(ref.sigma_h(64, math.pi, (1, 0)) - (1.0 + 4.0 * (64 / math.pi) ** 2
                                               * math.sin(math.pi / 128) ** 2)) > 1e-12:
        failures.append("sigma_h disagrees with 1 + 4/h^2 sin^2(k pi h / 2L)")


def check_sandwich(failures: list) -> None:
    # chi = 0 decouples the pair into two logistic equations, kappa = 1
    a, b, t = 1.0, 2.0, (0.5, 3.0, 10.0)
    ubar, w = ref.sandwich(0.0, a, b, 1.0, 1.5, 0.1, t)
    for u0, got in ((1.5, ubar), (0.1, w)):
        exact = a / (b + (a / u0 - b) * np.exp(-a * np.array(t)))
        if not np.max(np.abs(got - exact)) <= 1e-8:
            failures.append(f"RK4 sandwich off the logistic closed form by "
                            f"{np.max(np.abs(got - exact)):.2e}")


def check_onset(failures: list) -> None:
    got = [ref.logistic_onset_chi(1.0, 1.0, 1.0, 1.0, 1.0 + k * k) for k in (1, 2, 3)]
    if any(abs(g - w) > 1e-12 for g, w in zip(got, (4.0, 6.25, 100.0 / 9.0))):
        failures.append(f"onset thresholds {got}")


def check_calibration(failures: list) -> None:
    kernel = calibrate.Kernel()
    first, second = kernel.run(), kernel.run()
    if first != second or not math.isfinite(first):
        failures.append(f"calibration kernel returned {first!r} then {second!r}")
    if not calibrate.REFERENCE_S > 0:
        failures.append(f"calibrate.REFERENCE_S = {calibrate.REFERENCE_S}")


def main() -> int:
    failures: list = []
    for check in (check_spec, check_dct, check_sandwich, check_onset, check_calibration):
        check(failures)
    for f in failures:
        print(f"FAIL {f}")
    print("selfcheck: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
