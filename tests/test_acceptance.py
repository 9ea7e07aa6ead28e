"""Acceptance experiments for the whole laboratory.

Each test prints one PASS/FAIL line (run with ``pytest -v -s`` to watch them)
and asserts the same condition, so the suite is green exactly when every
criterion holds at its stated tolerance.  Expensive runs are shared through
module-scoped fixtures; wall-clock budgets are asserted where stated.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import chemolab as cl
from _reference import helmholtz_matrix
from chemolab.grid import Field, integrate
from chemolab.stability import characteristic_chi


def _report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def logistic_setup():
    p = cl.build_params(
        {"chi": 0.4, "a": 1, "b": 1, "theta": 2, "kappa": 1, "beta": 1,
         "dim": 1, "L": math.pi}
    )
    return p, cl.make_kinetics(p, "generalized-logistic")


def _convergent_run(p, k, nx):
    grid = cl.make_grid(p, nx)
    x = grid.coordinates[0]
    u0 = Field(1.0 + 0.5 * np.cos(x), grid)
    start = time.perf_counter()
    report = cl.run(
        p, k, u0, 100.0, target=1.0, snapshot_times=np.linspace(0.0, 100.0, 201)
    )
    return report, grid, time.perf_counter() - start


@pytest.fixture(scope="module")
def run_256(logistic_setup):
    return _convergent_run(*logistic_setup, 256)


@pytest.fixture(scope="module")
def run_128(logistic_setup):
    return _convergent_run(*logistic_setup, 128)


@pytest.fixture(scope="module")
def borderline_2d():
    # borderline damping: b = (kappa*n-2)/(kappa*n)*beta*chi = 1/2 exactly
    p = cl.build_params(
        {"chi": 1, "a": 1, "b": 0.5, "theta": 3, "kappa": 2, "beta": 1,
         "dim": 2, "L": math.pi}
    )
    k = cl.make_kinetics(p, "power-envelope")
    grid = cl.make_grid(p, 64)
    rng = np.random.default_rng(0)
    u0 = Field((p.a / p.b) ** (1.0 / p.kappa) * (1.0 + 0.3 * rng.uniform(-1.0, 1.0, grid.shape)), grid)
    start = time.perf_counter()
    report = cl.run(p, k, u0, 50.0)
    return p, k, report, time.perf_counter() - start


@pytest.fixture(scope="module")
def subcritical_1d():
    p = cl.build_params(
        {"chi": 8, "a": 1, "b": 1, "theta": 3, "kappa": 1, "beta": 1,
         "dim": 1, "L": math.pi}
    )
    k = cl.make_kinetics(p, "power-envelope")
    grid = cl.make_grid(p, 128)
    x = grid.coordinates[0]
    report = cl.run(p, k, Field(1.0 + 0.5 * np.cos(x), grid), 50.0)
    return p, k, report


def _window_max(report, column, lo, hi):
    t = report.column("t")
    values = report.column(column)
    return float(values[(t > lo) & (t <= hi)].max())


def test_criterion_1_global_convergence(run_256):
    report, grid, elapsed = run_256
    u_err = float(np.max(np.abs(report.final_u.values - 1.0)))
    v_err = float(np.max(np.abs(report.final_v.values - 1.0)))
    times, errors = zip(*report.target_errors)
    fit = cl.fit_exponential_decay(np.array(times), np.array(errors))
    ok = (
        report.status == "Converged"
        and report.final_time < 100.0
        and u_err < 1e-6
        and v_err < 1e-6
        and fit.rate < 0.0
        and elapsed < 60.0
    )
    assert _report(
        1, ok,
        f"converged at t={report.final_time:.2f}, |u-1|={u_err:.2e}, "
        f"|v-1|={v_err:.2e}, decay rate {fit.rate:.3f}, {elapsed:.1f}s",
    )


def test_criterion_2_sandwich_comparison(logistic_setup, run_256, run_128):
    p, k = logistic_setup
    violations = {}
    for report, grid, _ in (run_128, run_256):
        traj = cl.solve_sandwich(p, report.u0_min, report.u0_max, report.final_time)
        violations[grid.shape[0]] = cl.check_sandwich(traj, report)
    h = math.pi / 256
    bound_ok = violations[256] <= 10.0 * h**2
    # The scheme keeps the solution strictly inside the envelope here, so both
    # violations can sit at roundoff; the shrink ratio is meaningful only when
    # the coarse violation is actually measurable.
    floor = 1e-13
    if violations[128] > floor:
        shrink_ok = violations[128] / max(violations[256], floor) >= 3.5
    else:
        shrink_ok = violations[256] <= floor
    ok = bound_ok and shrink_ok
    assert _report(
        2, ok,
        f"violation nx=128 {violations[128]:.2e}, nx=256 {violations[256]:.2e}, "
        f"allowance {10 * h * h:.2e}",
    )


def test_criterion_3_explicit_contraction_rate(logistic_setup):
    p, _ = logistic_setup
    traj = cl.solve_sandwich(p, 0.5, 1.5, 60.0)
    eps0 = traj.eps0
    fit = cl.fit_exponential_decay(traj.times, traj.log_ratio)
    ok = eps0 == pytest.approx(1.0 / 15.0, rel=1e-12) and fit.rate <= -eps0 * (1 - 1e-3)
    assert _report(
        3, ok, f"eps0 = {eps0:.10f} (= 1/15), fitted gap decay rate {fit.rate:.4f}"
    )


def test_criterion_4_bifurcation_thresholds(logistic_setup):
    p, k = logistic_setup
    eq = cl.equilibrium_info(k, 1.0)
    rows = cl.bifurcation_table(eq, p.lengths, 3)
    table_ok = [r.chi_hat for r in rows] == pytest.approx([4.0, 6.25, 100.0 / 9.0])

    grid = cl.make_grid(p, 256)
    scan = cl.singularity_scan(eq, grid, 3.5, 12.0, 40)
    analytic = (4.0, 6.25, 100.0 / 9.0)
    scan_ok = len(scan.roots) == 3
    worst_rel = 0.0
    for mode, root, exact in zip((1, 2, 3), scan.roots, analytic):
        predicted = characteristic_chi(eq, grid.helmholtz_symbol[mode])
        scan_ok = scan_ok and abs(root - predicted) < 1e-6
        worst_rel = max(worst_rel, abs(root - exact) / exact)
    scan_ok = scan_ok and worst_rel < 0.002

    vieta_ok = True
    for chi in np.linspace(4.0, 40.0, 100):
        lam_minus, lam_plus = cl.linearization_eigenvalues(eq, chi)
        trace = eq.slope * chi + eq.fprime + 1.0
        det = eq.slope * chi
        vieta_ok = vieta_ok and abs(lam_minus + lam_plus - trace) <= 1e-12 * max(1, abs(trace))
        vieta_ok = vieta_ok and abs(lam_minus * lam_plus - det) <= 1e-12 * max(1, abs(det))

    ok = table_ok and scan_ok and vieta_ok
    assert _report(
        4, ok,
        f"table {[round(r.chi_hat, 6) for r in rows]}, scan max rel dev "
        f"{worst_rel:.2e} (< 0.2%), Vieta at 100 points to 1e-12",
    )


def test_criterion_5_pattern_near_onset(logistic_setup):
    p, k = logistic_setup
    p42 = replace(p, chi=4.2)
    eq = cl.equilibrium_info(k, 1.0)
    grid = cl.make_grid(p42, 256)
    branch = cl.continuation(p42, k, eq, 1, (4.2, 4.2), 1, grid=grid)
    state = branch.states[0]
    report = cl.validate_steady(state, p42, k)
    amp = state.amplitude(1.0)
    ok = amp > 0.05 and state.residual_norm < 1e-9 and report.all_pass
    assert _report(
        5, ok,
        f"amplitude {amp:.4f} (> 0.05), Newton residual {state.residual_norm:.2e}, "
        f"validators {sum(r.passed for r in report.rows)}/7 pass",
    )


def test_criterion_6_borderline_boundedness(borderline_2d):
    p, k, report, elapsed = borderline_2d
    early = _window_max(report, "linf_u", 12.5, 25.0)
    late = _window_max(report, "linf_u", 25.0, 50.0)
    ok = (
        report.status == "ReachedHorizon"
        and late < early * 1.01
        and elapsed < 600.0
    )
    assert _report(
        6, ok,
        f"{report.status}, sup|u| windows {early:.4f} -> {late:.4f} "
        f"(growth {late / early - 1:+.2%}), {elapsed:.0f}s",
    )


def test_criterion_7_subcritical_boundedness(subcritical_1d):
    p, k, report = subcritical_1d
    early = _window_max(report, "linf_u", 12.5, 25.0)
    late = _window_max(report, "linf_u", 25.0, 50.0)
    mass = report.column("mass")
    bound = report.l1_bound * 1.01
    gronwall_ok = bool(np.all(mass <= bound))
    ok = report.status == "ReachedHorizon" and late < early * 1.01 and gronwall_ok
    assert _report(
        7, ok,
        f"{report.status}, sup|u| windows {early:.4f} -> {late:.4f}, "
        f"mass <= {bound:.4f} at every output time: {gronwall_ok}",
    )


def test_criterion_8_elliptic_solver_order(logistic_setup, run_256, borderline_2d):
    p, k = logistic_setup
    errs = {}
    defects = []
    for nx in (128, 256):
        grid = cl.make_grid(p, nx)
        x = grid.coordinates[0]
        src = Field(2.0 * np.cos(x), grid)
        v = cl.solve_helmholtz(grid, src)
        errs[nx] = float(np.max(np.abs(v.values - np.cos(x))))
        # the source has zero mean, so normalize the defect by its L1 mass
        defects.append(
            abs(integrate(v.values, grid) - integrate(src.values, grid))
            / integrate(np.abs(src.values), grid)
        )
    ratio = errs[128] / errs[256]
    # compatibility on the live solves of the acceptance runs
    for rep in (run_256[0], borderline_2d[2]):
        grid = rep.final_u.grid
        kin = k if rep.f_kind == "generalized-logistic" else borderline_2d[1]
        total_v = integrate(rep.final_v.values, grid)
        total_s = integrate(kin.g(rep.final_u.values), grid)
        defects.append(abs(total_v - total_s) / abs(total_s))
    ok = 3.6 <= ratio <= 4.4 and max(defects) <= 1e-12
    assert _report(
        8, ok,
        f"error ratio 128->256 = {ratio:.3f} in [3.6, 4.4], "
        f"worst compatibility defect {max(defects):.2e}",
    )


def test_criterion_9_spectrum_cross_check(logistic_setup):
    p, k = logistic_setup
    eq = cl.equilibrium_info(k, 1.0)
    chi = 5.0
    grid = cl.make_grid(p, 256)
    kinv = np.linalg.inv(helmholtz_matrix(grid).toarray())
    n = grid.n_cells
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = (eq.slope * chi + eq.fprime + 1.0) * kinv
    M[:n, n:] = (-chi * eq.u0) * kinv
    M[n:, :n] = eq.gprime * kinv
    spectrum = np.linalg.eigvals(M)
    worst = 0.0
    for j in range(5):
        sigma_h = grid.helmholtz_symbol[j]
        for mu in cl.mode_eigenvalues(eq, chi, [sigma_h])[0, 1:]:
            worst = max(worst, float(np.min(np.abs(spectrum - mu))))
    ok = worst < 1e-8
    assert _report(9, ok, f"formula vs dense eigensolver, worst deviation {worst:.2e}")


def test_criterion_10_mass_law(run_256, run_128, borderline_2d, subcritical_1d):
    residuals = {
        "convergent nx=256": run_256[0].max_mass_residual,
        "convergent nx=128": run_128[0].max_mass_residual,
        "borderline 2D": borderline_2d[2].max_mass_residual,
        "subcritical 1D": subcritical_1d[2].max_mass_residual,
    }
    worst = max(residuals.values())
    ok = worst <= 1e-12
    assert _report(10, ok, f"worst per-step mass residual {worst:.2e} over all runs")
