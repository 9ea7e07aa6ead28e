import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import chemolab as cl
from _reference import continuum_groups, helmholtz_matrix
from chemolab.errors import NotOnPlusBranch, OutOfRange, UndefinedForThisChi
from chemolab.grid import mode_groups
from chemolab.stability import BRANCH_RTOL, characteristic_chi


def _params(**overrides):
    raw = {"chi": 5.0, "a": 1, "b": 1, "theta": 2, "kappa": 1, "beta": 1, "dim": 1, "L": math.pi}
    raw.update(overrides)
    return cl.build_params(raw)


@pytest.fixture(scope="module")
def damped_eq(logistic_kinetics):
    """u0 = 1 for f = u*(1-u): f'(u0) = -1, g'(u0)*u0 = 1."""
    return cl.equilibrium_info(logistic_kinetics, 1.0)


@pytest.fixture(scope="module")
def growing_eq():
    """Allee equilibrium with f'(u0) > 0: u0 = 0.5 for u*(1-u)*(u-0.5)."""
    p = _params(theta=3)
    k = cl.make_kinetics(p, "allee", allee_c=0.5)
    return cl.equilibrium_info(k, 0.5)


def _quadratic_roots(e, chi):
    """Oracle: numpy roots of sigma**2 - trace*sigma + det."""
    trace = e.slope * chi + e.fprime + 1.0
    det = e.slope * chi
    return sorted(np.roots([1.0, -trace, det]).real)


class TestEquilibriumInfo:
    def test_fields(self, damped_eq):
        assert damped_eq.fprime == pytest.approx(-1.0)
        assert damped_eq.v0 == pytest.approx(1.0)
        assert damped_eq.chi_floor == pytest.approx(4.0)

    def test_no_floor_for_growing_fprime(self, growing_eq):
        assert growing_eq.fprime > 0
        assert growing_eq.chi_floor is None

    def test_rejects_non_zero(self, logistic_kinetics):
        with pytest.raises(OutOfRange):
            cl.equilibrium_info(logistic_kinetics, 0.7)

    def test_rejects_nonpositive(self, logistic_kinetics):
        with pytest.raises(OutOfRange):
            cl.equilibrium_info(logistic_kinetics, 0.0)

    def test_rejects_vanishing_secretion_slope(self):
        # f = 0.1*u - u**2 vanishes at 0.1, where g' = 400*0.1**399 underflows to 0
        p = _params(kappa=400)
        k = cl.make_kinetics(p, "polynomial", poly_coeffs=(0.0, 0.1, -1.0))
        with pytest.raises(OutOfRange, match=r"^g'\(u0\): must be > 0 \(got 0.0\)$"):
            cl.equilibrium_info(k, 0.1)


class TestLinearizationEigenvalues:
    def test_perfect_square_for_zero_fprime(self):
        p = _params(theta=3)
        # double-ish structure: f = -(u-1)**2*(u-0.5) has f'(1) = 0 exactly
        k = cl.make_kinetics(p, "polynomial", poly_coeffs=(0.5, -2.0, 2.5, -1.0))
        e = cl.equilibrium_info(k, 1.0)
        assert e.fprime == pytest.approx(0.0, abs=1e-14)
        lam_minus, lam_plus = cl.linearization_eigenvalues(e, 3.0)
        assert (lam_minus, lam_plus) == pytest.approx((1.0, e.slope * 3.0))

    def test_damped_example(self, damped_eq):
        lam = cl.linearization_eigenvalues(damped_eq, 5.0)
        assert lam == pytest.approx(((5 - math.sqrt(5)) / 2, (5 + math.sqrt(5)) / 2))
        assert lam == pytest.approx(_quadratic_roots(damped_eq, 5.0))

    def test_double_root_at_floor(self, damped_eq):
        lam_minus, lam_plus = cl.linearization_eigenvalues(damped_eq, 4.0)
        assert lam_minus == pytest.approx(2.0)
        assert lam_plus == pytest.approx(2.0)
        assert lam_plus == pytest.approx(1.0 + math.sqrt(-damped_eq.fprime))

    def test_undefined_below_floor(self, damped_eq):
        with pytest.raises(UndefinedForThisChi):
            cl.linearization_eigenvalues(damped_eq, 3.0)

    @pytest.mark.parametrize("chi", [0.0, -1.0])
    def test_rejects_nonpositive_chi(self, damped_eq, chi):
        with pytest.raises(OutOfRange, match=r"^chi: must be > 0"):
            cl.linearization_eigenvalues(damped_eq, chi)

    def test_vieta_identities(self, damped_eq, growing_eq):
        for e in (damped_eq, growing_eq):
            start = (e.chi_floor or 0.0) + 0.01
            for chi in np.linspace(start, start + 50, 100):
                lam_minus, lam_plus = cl.linearization_eigenvalues(e, chi)
                trace = e.slope * chi + e.fprime + 1.0
                det = e.slope * chi
                assert lam_minus + lam_plus == pytest.approx(trace, rel=1e-12)
                assert lam_minus * lam_plus == pytest.approx(det, rel=1e-12)

    def test_branch_monotonicity(self, damped_eq, growing_eq):
        for e, minus_decreasing in ((damped_eq, True), (growing_eq, False)):
            start = (e.chi_floor or 0.0) + 1e-6
            chis = np.linspace(start, start + 30, 100)
            lam = np.array([cl.linearization_eigenvalues(e, c) for c in chis])
            assert np.all(np.diff(lam[:, 1]) > 0)
            if minus_decreasing:
                assert np.all(np.diff(lam[:, 0]) < 0)
            else:
                assert np.all(np.diff(lam[:, 0]) > 0)


def _bisect_plus_branch(e, sigma, lo, hi, tol=1e-12):
    """Oracle: bisection on lam_plus(chi) - sigma (lam_plus is increasing)."""
    f = lambda c: cl.linearization_eigenvalues(e, c)[1] - sigma
    assert f(lo) < 0 < f(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCriticalChi:
    def test_closed_form_values(self, damped_eq):
        # chi_hat(sigma) = sigma**2/(sigma-1) for f' = -1, g'(u0)*u0 = 1
        assert cl.critical_chi(damped_eq, 2.0) == pytest.approx(4.0)
        assert cl.critical_chi(damped_eq, 5.0) == pytest.approx(6.25)
        assert cl.critical_chi(damped_eq, 10.0) == pytest.approx(100.0 / 9.0)

    def test_against_bisection_oracle(self, damped_eq):
        for sigma in (5.0, 10.0, 17.0):
            oracle = _bisect_plus_branch(damped_eq, sigma, 4.0, 200.0)
            assert cl.critical_chi(damped_eq, sigma) == pytest.approx(oracle, abs=1e-10)

    def test_below_branch_point(self, damped_eq):
        with pytest.raises(NotOnPlusBranch):
            cl.critical_chi(damped_eq, 1.5)

    def test_negative_inversion_is_not_on_the_branch(self, growing_eq):
        # f'(u0) = 1/4 > sigma - 1 makes the inverted chi negative
        with pytest.raises(NotOnPlusBranch, match="is not positive"):
            cl.critical_chi(growing_eq, 1.1)

    @pytest.mark.parametrize("a", [0.1, 0.13, 0.2, 0.3, 0.5, 0.7, 2.0, 3.0])
    def test_branch_point_is_on_the_branch(self, a):
        # logistic u*(a - u) at u0 = a: at sigma = 1 + sqrt(-f'(u0)) the two
        # roots meet, and the discriminant at the inverted chi rounds to
        # either side of zero; the order of the roots does not depend on it
        e = cl.equilibrium_info(cl.make_kinetics(_params(a=a)), a)
        sigma = 1.0 + math.sqrt(-e.fprime)
        assert cl.critical_chi(e, sigma) == characteristic_chi(e, sigma)

    @seed(24)
    @settings(max_examples=300, deadline=None)
    @given(fprime=st.floats(-5.0, 3.0), slope=st.floats(0.1, 10.0),
           sigma=st.floats(1.01, 12.0))
    def test_branch_rule_matches_exact_arithmetic(self, fprime, slope, sigma):
        # exact inversion and trace on the same floats: sigma is lam+ iff
        # 2*sigma >= trace, decided outside the BRANCH_RTOL band
        e = cl.EquilibriumInfo(u0=1.0, v0=1.0, fprime=fprime, gprime=slope, chi_floor=None)
        fp, sl, sg = Fraction(fprime), Fraction(e.slope), Fraction(sigma)
        chi = sg * (sg - fp - 1) / (sl * (sg - 1))
        assume(chi > 0)
        gap = 2 * sg - (sl * chi + fp + 1)
        assume(abs(gap) > 2 * Fraction(BRANCH_RTOL) * max(1, sg))
        if gap > 0:
            assert cl.critical_chi(e, sigma) == characteristic_chi(e, sigma)
        else:
            with pytest.raises(NotOnPlusBranch, match="is lam-"):
                cl.critical_chi(e, sigma)

    def test_requires_sigma_above_one(self, damped_eq):
        with pytest.raises(OutOfRange):
            cl.critical_chi(damped_eq, 1.0)

    def test_inverts_lambda_plus(self, damped_eq, growing_eq):
        for e in (damped_eq, growing_eq):
            if e.fprime < 0:
                floor = 1.0 + math.sqrt(-e.fprime)   # branch point at chi_floor
            else:
                floor = e.fprime + 1.0               # lam_plus range is (f'+1, inf)
            for sigma in np.linspace(floor + 0.2, floor + 40, 50):
                chi_hat = cl.critical_chi(e, sigma)
                assert cl.linearization_eigenvalues(e, chi_hat)[1] == pytest.approx(
                    sigma, abs=1e-10
                )


class TestModeEigenvalues:
    def test_constant_mode_gives_lambda(self, damped_eq):
        rows = cl.mode_eigenvalues(damped_eq, 5.0, [1.0])
        assert rows[0, 1:] == pytest.approx(cl.linearization_eigenvalues(damped_eq, 5.0))

    def test_first_mode_example(self, damped_eq):
        rows = cl.mode_eigenvalues(damped_eq, 5.0, [1.0, 2.0])
        assert rows[1, 1:] == pytest.approx(((5 - math.sqrt(5)) / 4, (5 + math.sqrt(5)) / 4))

    def test_unit_eigenvalue_exactly_at_threshold(self, damped_eq):
        for sigma in (5.0, 10.0):
            chi_hat = cl.critical_chi(damped_eq, sigma)
            rows = cl.mode_eigenvalues(damped_eq, chi_hat, [sigma])
            assert rows[0, 2] == pytest.approx(1.0, abs=1e-12)

    def test_product_recovers_lambda(self, damped_eq):
        sigmas = np.array([1.0, 2.0, 5.0, 10.0])
        rows = cl.mode_eigenvalues(damped_eq, 7.0, sigmas)
        lam = cl.linearization_eigenvalues(damped_eq, 7.0)
        assert rows[:, 1] * sigmas == pytest.approx(np.full(4, lam[0]))
        assert rows[:, 2] * sigmas == pytest.approx(np.full(4, lam[1]))

    def test_undefined_propagates(self, damped_eq):
        with pytest.raises(UndefinedForThisChi):
            cl.mode_eigenvalues(damped_eq, 3.0, [1.0, 2.0])


class TestBifurcationTable:
    def test_1d_rows(self, damped_eq):
        rows = cl.bifurcation_table(damped_eq, (math.pi,), 3)
        assert [(r.k, r.sigma, r.multiplicity) for r in rows] == [
            (1, pytest.approx(2.0), 1),
            (2, pytest.approx(5.0), 1),
            (3, pytest.approx(10.0), 1),
        ]
        assert [r.chi_hat for r in rows] == pytest.approx([4.0, 6.25, 100.0 / 9.0])
        assert all(r.proven for r in rows)
        chis = [r.chi_hat for r in rows]
        assert chis == sorted(chis)

    def test_square_degeneracy_not_proven(self, damped_eq):
        rows = cl.bifurcation_table(damped_eq, (math.pi, math.pi), 2)
        assert rows[0].sigma == pytest.approx(2.0)
        assert rows[0].multiplicity == 2
        assert not rows[0].proven

    def test_count_precondition(self, damped_eq):
        with pytest.raises(OutOfRange):
            cl.bifurcation_table(damped_eq, (math.pi,), 0)

    def test_grid_splits_continuum_group_like_the_scan(self, damped_eq):
        # sigma = 26 on a square: (0,5),(5,0) and (3,4),(4,3) differ in sigma_h,
        # so the grid's table has two groups where the lengths-only row has one
        g = cl.make_grid(_params(dim=2), 32)
        groups = [(s, m) for s, m in mode_groups(g.helmholtz_symbol, 20) if 25.0 < s < 26.0]
        assert [m for _, m in groups] == [[(0, 5), (5, 0)], [(3, 4), (4, 3)]]
        assert [s for s, _ in groups] == [float(g.helmholtz_symbol[m[0]]) for _, m in groups]
        expected = [characteristic_chi(damped_eq, s) for s, m in groups for _ in m]
        roots = cl.singularity_scan(damped_eq, g, 26.5, 27.2, 4).roots
        assert roots == pytest.approx(expected, rel=1e-12)
        lengths_only = cl.bifurcation_table(damped_eq, g.lengths, 13)[-1]
        assert (lengths_only.indices, lengths_only.multiplicity, lengths_only.proven) == (
            ((0, 5), (3, 4), (4, 3), (5, 0)), 4, False
        )

    @pytest.mark.parametrize("lengths", [
        (math.pi,), (math.pi, math.pi), (math.pi,) * 3, (1.0, 1.3 * math.pi), (1.0, 2.0, 3.0),
    ])
    def test_rows_equal_the_loop_enumeration(self, damped_eq, lengths):
        # a mode below the branch point has no row (the first one of the
        # 1 x 1.3*pi box), so rows are matched to groups by k
        for count in range(1, 21):
            rows = cl.bifurcation_table(damped_eq, lengths, count)
            groups = continuum_groups(lengths, count + 1)
            assert rows or count == 1
            for r in rows:
                sigma, members = groups[r.k]
                assert (r.sigma, r.indices) == (sigma, tuple(sorted(members)))

    def test_pattern_intervals_pair_consecutive_rows(self, damped_eq):
        rows = cl.bifurcation_table(damped_eq, (math.pi,), 4)
        intervals = cl.pattern_intervals(rows)
        assert intervals[0] == pytest.approx((4.0, 6.25))
        assert intervals[1][0] == pytest.approx(100.0 / 9.0)


class TestSingularityScan:
    def test_roots_match_quadratic_inversion_of_discrete_modes(self, damped_eq):
        p = _params()
        g = cl.make_grid(p, 64)
        scan = cl.singularity_scan(damped_eq, g, 3.5, 12.0, 35)
        assert len(scan.roots) == 3
        for mode, root in zip((1, 2, 3), scan.roots):
            predicted = characteristic_chi(damped_eq, g.helmholtz_symbol[mode])
            assert root == pytest.approx(predicted, abs=1e-6)

    def test_no_roots_below_floor(self, damped_eq):
        p = _params()
        g = cl.make_grid(p, 32)
        scan = cl.singularity_scan(damped_eq, g, 1.0, 3.4, 13)
        assert scan.roots == ()

    def test_zero_fprime_singular_at_sigma(self):
        p = _params(theta=3)
        k = cl.make_kinetics(p, "polynomial", poly_coeffs=(0.5, -2.0, 2.5, -1.0))
        e = cl.equilibrium_info(k, 1.0)
        # lam_plus = slope*chi, so the first mode goes singular at sigma_1/slope
        g = cl.make_grid(p, 64)
        target = g.helmholtz_symbol[1] / e.slope
        scan = cl.singularity_scan(e, g, target - 0.2, target + 0.2, 9)
        assert scan.roots[0] == pytest.approx(target, abs=1e-6)
        # the constant mode's block I - A is singular for every chi, and its
        # determinant sigma_h*(sigma_h - f'(u0) - 1) - slope*chi*(sigma_h - 1)
        # is exactly 0 at sigma_h = 1
        assert (scan.smallest_singular_values == 0.0).all()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_zero_fprime_window_centred_on_a_root(self, dim):
        # f'(u0) = 0 makes the constant mode singular for every chi, and the
        # window's midpoint is itself a root
        p = _params(theta=3, dim=dim)
        k = cl.make_kinetics(p, "polynomial", poly_coeffs=(0.5, -2.0, 2.5, -1.0))
        e = cl.equilibrium_info(k, 1.0)
        g = cl.make_grid(p, 16)
        modes = np.array([characteristic_chi(e, 1.0 + lam)
                          for lam in g.laplacian_eigenvalues.ravel()[1:]])
        target = float(np.sort(modes)[2])
        scan = cl.singularity_scan(e, g, target - 1.0, target + 1.0, 3)
        expected = np.sort(modes[np.abs(modes - target) <= 1.0])
        assert scan.roots == pytest.approx(expected.tolist(), rel=1e-12)

    def test_second_order_convergence_to_analytic_thresholds(self, damped_eq):
        p = _params()
        shifts = {}
        for nx in (128, 256):
            g = cl.make_grid(p, nx)
            scan = cl.singularity_scan(damped_eq, g, 6.0, 6.5, 6)
            shifts[nx] = abs(scan.roots[0] - 6.25)
        assert 3.0 <= shifts[128] / shifts[256] <= 5.0

    def test_2d_square_roots_repeat_per_multiplicity(self, damped_eq):
        g = cl.make_grid(_params(dim=2), 16)
        lo, hi = 3.5, 12.0
        scan = cl.singularity_scan(damped_eq, g, lo, hi, 5)
        modes = [characteristic_chi(damped_eq, 1.0 + lam)
                 for lam in g.laplacian_eigenvalues.ravel()[1:]]
        assert scan.roots == pytest.approx(sorted(c for c in modes if lo <= c <= hi), rel=1e-12)
        groups = [(s, m) for s, m in mode_groups(g.helmholtz_symbol, g.n_cells)[1:]
                  if lo <= characteristic_chi(damped_eq, s) <= hi]
        repeats = [
            sum(abs(root - characteristic_chi(damped_eq, s)) <= 1e-10 * root
                for root in scan.roots)
            for s, _ in groups
        ]
        assert repeats == [len(m) for _, m in groups]
        assert sum(repeats) == len(scan.roots)
        assert repeats.count(2) == 5  # modes (j, k) and (k, j) share sigma_h on a square

    def test_3d_cube_roots_repeat_per_multiplicity(self, damped_eq):
        # checked against the Helmholtz symbol, not a dense pencil: a dense
        # 8^3 reference has 1026 unknowns and takes seconds
        g = cl.make_grid(_params(dim=3), 8)
        scan = cl.singularity_scan(damped_eq, g, 3.5, 7.0, 2)
        # modes (1,0,0) and (1,1,0) with their permutations, each threefold
        expected = [characteristic_chi(damped_eq, g.helmholtz_symbol[ks])
                    for ks in ((1, 0, 0), (1, 1, 0)) for _ in range(3)]
        assert scan.roots[:6] == pytest.approx(expected, rel=1e-10)

    def test_repeated_scan_is_bit_identical(self, damped_eq):
        g = cl.make_grid(_params(dim=2), 12)
        first, second = (cl.singularity_scan(damped_eq, g, 3.5, 8.0, 6) for _ in range(2))
        assert first.chis.tobytes() == second.chis.tobytes()
        assert first.smallest_singular_values.tobytes() == second.smallest_singular_values.tobytes()
        assert first.roots == second.roots

    @pytest.mark.parametrize(
        "raw, cells, window",
        [
            ({}, 24, (3.5, 12.0)),
            ({"dim": 2}, 8, (3.5, 8.0)),
            ({"a": 9.998049980023461, "b": 1.522005768842087, "kappa": 1.7275687421751194,
              "theta": 2.7275687421751194}, 58, (1.357945824303739, 3.810464086670553)),
            ({"dim": 3}, 8, (3.5, 7.0)),
        ],
    )
    def test_smallest_singular_values_match_dense_svd(self, raw, cells, window):
        p = _params(**raw)
        k = cl.make_kinetics(p, "generalized-logistic")
        e = cl.equilibrium_info(k, (p.a / p.b) ** (1.0 / p.kappa))
        g = cl.make_grid(p, cells)
        scan = cl.singularity_scan(e, g, *window, 6)
        kinv = np.linalg.inv(helmholtz_matrix(g).toarray())
        for chi, got in zip(scan.chis, scan.smallest_singular_values):
            a = [[e.slope * chi + e.fprime + 1.0, -chi * e.u0], [e.gprime, 0.0]]
            dense = np.eye(2 * g.n_cells) - np.kron(a, kinv)
            assert got == pytest.approx(np.linalg.svd(dense, compute_uv=False)[-1], rel=1e-12)

    @pytest.mark.parametrize(
        "raw, kind, cells, window",
        [
            ({}, "generalized-logistic", 24, (3.5, 12.0)),
            ({"dim": 2, "L": (math.pi, 1.3 * math.pi)}, "generalized-logistic", (8, 12),
             (3.5, 8.0)),
            ({"theta": 3}, "polynomial", 16, (1.5, 40.0)),  # f'(u0) = 0
        ],
    )
    def test_roots_equal_eigenvalues_of_the_assembled_bordered_pencil(
        self, raw, kind, cells, window
    ):
        # An independent reference: M(chi) = M0 + chi*M1 on stacked (u, v) is
        # assembled from the sparse Helmholtz matrix, bordered with the means
        # of u and v (which removes the constant mode), and its real finite
        # generalised eigenvalues come from a dense QZ, not from the DCT.
        p = _params(**raw)
        extra = {"poly_coeffs": (0.5, -2.0, 2.5, -1.0)} if kind == "polynomial" else {}
        e = cl.equilibrium_info(cl.make_kinetics(p, kind, **extra), 1.0)
        g = cl.make_grid(p, cells)
        n = g.n_cells
        K, eye, zero = helmholtz_matrix(g).toarray(), np.eye(n), np.zeros((n, n))
        m0 = np.block([[K - (e.fprime + 1.0) * eye, zero], [-e.gprime * eye, K]])
        m1 = np.block([[-e.slope * eye, e.u0 * eye], [zero, zero]])
        means = np.kron(np.eye(2), np.ones((1, n)))
        m0_b = np.block([[m0, means.T], [means, np.zeros((2, 2))]])
        m1_b = np.zeros_like(m0_b)
        m1_b[:2 * n, :2 * n] = m1
        theta = scipy.linalg.eigvals(m0_b, -m1_b)
        real = theta[np.isfinite(theta) & (np.abs(theta.imag) <= 1e-9 * np.abs(theta))].real
        lo, hi = window
        expected = np.sort(real[(real >= lo) & (real <= hi)])
        roots = cl.singularity_scan(e, g, lo, hi, 2).roots
        assert len(expected) >= 3
        assert roots == pytest.approx(expected.tolist(), rel=1e-12)

    def test_window_must_be_increasing(self, damped_eq):
        g = cl.make_grid(_params(), 16)
        with pytest.raises(OutOfRange):
            cl.singularity_scan(damped_eq, g, 5.0, 5.0, 4)

    @seed(6)
    @settings(max_examples=20, deadline=None)
    @given(
        a=st.floats(0.1, 10), b=st.floats(0.1, 10), kappa=st.floats(0.25, 3),
        shape=st.one_of(st.tuples(st.just(1), st.integers(8, 64)),
                        st.tuples(st.just(2), st.integers(8, 16)),
                        st.tuples(st.just(3), st.just(8))),
        lo_factor=st.floats(0.5, 2.0), width=st.floats(1.1, 4.0),
    )
    def test_roots_equal_characteristic_chi_at_sigma_h(self, a, b, kappa, shape, lo_factor, width):
        dim, cells = shape
        p = _params(a=a, b=b, kappa=kappa, theta=kappa + 1, dim=dim)
        e = cl.equilibrium_info(cl.make_kinetics(p, "generalized-logistic"), (a / b) ** (1 / kappa))
        g = cl.make_grid(p, cells)
        modes = np.array([characteristic_chi(e, 1.0 + lam)
                          for lam in g.laplacian_eigenvalues.ravel()[1:]])
        lo = lo_factor * modes.min()
        hi = width * lo
        assume(np.all(np.abs(modes - lo) > 1e-8 * lo) and np.all(np.abs(modes - hi) > 1e-8 * hi))
        expected = np.sort(modes[(modes >= lo) & (modes <= hi)])
        roots = cl.singularity_scan(e, g, lo, hi, 2).roots
        assert len(roots) == len(expected)
        assert roots == pytest.approx(expected.tolist(), rel=1e-10)
