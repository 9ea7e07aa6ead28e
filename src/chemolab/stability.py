"""Linearized spectrum about constant equilibria and pattern-onset thresholds.

Perturbing the stationary system about (u0, g(u0)) couples each Neumann mode
of -lap + I to the 2x2 interaction matrix

    A(chi) = [[g'(u0)*u0*chi + f'(u0) + 1, -chi*u0],
              [g'(u0),                      0      ]]

whose eigenvalues lam-+(chi) solve sigma**2 - trace*sigma + det = 0.  A mode
with eigenvalue sigma_k goes singular exactly when lam+(chi) = sigma_k, which
inverts in closed form to the onset threshold

    chi_hat(sigma) = sigma*(sigma - f'(u0) - 1) / (g'(u0)*u0*(sigma - 1)).

``singularity_scan`` cross-validates those thresholds against the assembled
sparse operator on stacked (u, v) perturbations, in 1D, 2D and 3D: its roots,
with multiplicity, are the eigenvalues of a sparse pencil affine in chi, found
without the closed form or the DCT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .elliptic import continuum_eigenvalues, discrete_sigma, helmholtz_matrix, tie_groups
from .errors import NoConvergence, NotOnPlusBranch, OutOfRange, UndefinedForThisChi
from .grid import Grid
from .model import Kinetics

EQUILIBRIUM_ATOL = 1e-10
BRANCH_RTOL = 1e-10


@dataclass(frozen=True)
class EquilibriumInfo:
    """A positive zero of the growth function with positive secretion slope.

    chi_floor is the smallest sensitivity where the interaction eigenvalues
    are real; it exists only for f'(u0) < 0 (damping equilibria).
    """

    u0: float
    v0: float
    fprime: float
    gprime: float
    chi_floor: float | None

    @property
    def slope(self) -> float:
        """g'(u0)*u0, the coupling strength in the interaction matrix."""
        return self.gprime * self.u0


def equilibrium_info(k: Kinetics, u0: float) -> EquilibriumInfo:
    if not u0 > 0:
        raise OutOfRange("u0", f"equilibrium must be > 0 (got {u0})")
    fu0 = float(k.f(np.array([u0]))[0])
    if abs(fu0) >= EQUILIBRIUM_ATOL:
        raise OutOfRange("u0", f"f(u0) = {fu0:.3e} not within {EQUILIBRIUM_ATOL:.0e} of zero")
    fp = float(k.f_prime(np.array([u0]))[0])
    gp = float(k.g_prime(np.array([u0]))[0])
    if not gp > 0:
        raise OutOfRange("g'(u0)", f"must be > 0 (got {gp})")
    chi_floor = None
    if fp < 0:
        chi_floor = (1.0 + 2.0 * math.sqrt(-fp) - fp) / (gp * u0)
    return EquilibriumInfo(
        u0=float(u0), v0=float(k.g(np.array([u0]))[0]), fprime=fp, gprime=gp,
        chi_floor=chi_floor,
    )


def linearization_eigenvalues(e: EquilibriumInfo, chi: float) -> tuple[float, float]:
    """(lam-, lam+) of the interaction matrix at this sensitivity.

    Raises UndefinedForThisChi when the discriminant is negative, which only
    happens for f'(u0) < 0 below chi_floor.
    """
    if not chi > 0:
        raise OutOfRange("chi", f"must be > 0 (got {chi})")
    trace = e.slope * chi + e.fprime + 1.0
    disc = (e.slope * chi + e.fprime - 1.0) ** 2 + 4.0 * e.fprime
    if disc < 0.0:
        raise UndefinedForThisChi(
            f"discriminant {disc:.3e} < 0 at chi = {chi:g} (chi_floor = {e.chi_floor:g})"
        )
    root = math.sqrt(disc)
    return 0.5 * (trace - root), 0.5 * (trace + root)


def characteristic_chi(e: EquilibriumInfo, sigma: float) -> float:
    """The sensitivity where sigma solves the characteristic quadratic.

    Raw inversion without a branch check: the crossing may sit on either
    eigenvalue branch.  This is what the discrete singularity scan sees, so
    scan roots are validated against this form evaluated at the discrete
    mode eigenvalues (which can fall marginally below the branch point even
    when their continuum values sit exactly on it).
    """
    if not sigma > 1:
        raise OutOfRange("sigma", f"must be > 1 (got {sigma})")
    return sigma * (sigma - e.fprime - 1.0) / (e.slope * (sigma - 1.0))


def critical_chi(e: EquilibriumInfo, sigma: float) -> float:
    """The sensitivity where lam+ crosses the mode eigenvalue sigma.

    Closed-form inversion of the characteristic quadratic, accepted only if
    the growing branch actually attains sigma there (NotOnPlusBranch when
    sigma sits below the branch point or behind the decaying branch).
    """
    chi_hat = characteristic_chi(e, sigma)
    if not chi_hat > 0:
        raise NotOnPlusBranch(f"inverted chi = {chi_hat:g} is not positive")
    try:
        _, lam_plus = linearization_eigenvalues(e, chi_hat)
    except UndefinedForThisChi as exc:
        raise NotOnPlusBranch(str(exc)) from exc
    if abs(lam_plus - sigma) > BRANCH_RTOL * max(1.0, abs(sigma)):
        raise NotOnPlusBranch(
            f"lam+({chi_hat:g}) = {lam_plus:.12g} != sigma = {sigma:.12g}"
        )
    return chi_hat


def mode_eigenvalues(e: EquilibriumInfo, chi: float, sigmas) -> np.ndarray:
    """Rows (sigma_j, mu_j-, mu_j+) with mu_j+- = lam+-(chi)/sigma_j."""
    lam_minus, lam_plus = linearization_eigenvalues(e, chi)
    sigmas = np.asarray(sigmas, dtype=float)
    return np.column_stack([sigmas, lam_minus / sigmas, lam_plus / sigmas])


# ---------------------------------------------------------------------------
# bifurcation table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BifurcationRow:
    k: int
    sigma: float
    multiplicity: int
    chi_hat: float
    proven: bool
    indices: tuple[tuple[int, ...], ...] = ()
    sigma_h: float | None = None


def bifurcation_table(e: EquilibriumInfo, domain, count: int) -> list[BifurcationRow]:
    """Onset thresholds for the first ``count`` nonconstant Neumann modes.

    ``domain`` is a Grid (rows then also carry the discrete eigenvalue, and a
    continuum group whose members differ in it splits into one row per
    discrete eigenvalue, sharing k, sigma and chi_hat) or a lengths tuple
    (analytic values only).  Rows on the growing branch are
    flagged ``proven`` when the mode multiplicity is odd; even-multiplicity
    crossings leave the topological index unchanged and are reported but not
    claimed.
    """
    if count < 1:
        raise OutOfRange("count", f"must be >= 1 (got {count})")
    if isinstance(domain, Grid):
        lengths: tuple[float, ...] = domain.lengths
        grid = domain
    else:
        lengths = tuple(float(L) for L in domain)
        grid = None
    groups = continuum_eigenvalues(lengths, count + 1)[1:]  # drop the constant mode
    rows: list[BifurcationRow] = []
    for idx, (sigma, members) in enumerate(groups, start=1):
        try:
            chi_hat = critical_chi(e, sigma)
        except NotOnPlusBranch:
            continue
        # A continuum group can split on the grid (sigma = 26 on a square:
        # (0,5),(5,0) | (3,4),(4,3)); each discrete eigenvalue is its own root.
        if grid is None:
            parts = [(None, members)]
        else:
            parts = tie_groups([(discrete_sigma(grid, ks), ks) for ks in members])
        for sigma_h, part in parts:
            rows.append(BifurcationRow(
                k=idx, sigma=sigma, multiplicity=len(part), chi_hat=chi_hat,
                proven=len(part) % 2 == 1, indices=tuple(part), sigma_h=sigma_h,
            ))
    return rows


def pattern_intervals(rows: list[BifurcationRow]) -> list[tuple[float, float]]:
    """Consecutive threshold pairs (chi_hat_{2k-1}, chi_hat_{2k}).

    Inside these windows a nonconstant steady state exists; outside them the
    question is open, so absence of an interval never means "no pattern".
    """
    out = []
    for i in range(0, len(rows) - 1, 2):
        out.append((rows[i].chi_hat, rows[i + 1].chi_hat))
    return out


@dataclass(frozen=True)
class StabilityReport:
    equilibrium: EquilibriumInfo
    chis: np.ndarray
    lambdas: np.ndarray  # rows (lam-, lam+), NaN where undefined
    rows: tuple[BifurcationRow, ...]
    intervals: tuple[tuple[float, float], ...]


def stability_report(
    e: EquilibriumInfo, domain, chis, count: int = 6
) -> StabilityReport:
    chis = np.asarray(chis, dtype=float)
    lams = np.full((len(chis), 2), np.nan)
    for i, chi in enumerate(chis):
        try:
            lams[i] = linearization_eigenvalues(e, float(chi))
        except UndefinedForThisChi:
            pass
    rows = bifurcation_table(e, domain, count)
    return StabilityReport(
        equilibrium=e,
        chis=chis,
        lambdas=lams,
        rows=tuple(rows),
        intervals=tuple(pattern_intervals(rows)),
    )


# ---------------------------------------------------------------------------
# discrete singularity scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanResult:
    chis: np.ndarray
    smallest_singular_values: np.ndarray
    roots: tuple[float, ...]


def _arpack(solver, *args, **kwargs):
    """Call an ARPACK driver; its non-convergence becomes NoConvergence."""
    try:
        return solver(*args, **kwargs)
    except spla.ArpackNoConvergence as exc:
        raise NoConvergence(f"singularity scan: {exc}") from exc


def singularity_scan(
    e: EquilibriumInfo, grid: Grid, chi_lo: float, chi_hi: float, n_points: int
) -> ScanResult:
    """Locate sensitivities where the discrete linearized operator is singular.

    L(chi) = I - (-lap_h + I)^-1 A(chi) on stacked (u, v) is D^-1 M(chi) with
    K = -lap_h + I, D = diag(K, K) and M(chi) = [[K - a11*I, -a12*I],
    [-a21*I, K]] = M0 + chi*M1 sparse, so the roots are the eigenvalues of the
    pencil M0 x = -chi*M1 x.  Shift-invert Arnoldi about s = mid + i*half/16
    of the window maps each eigenvalue theta of (M0 + s*M1)^-1 M1 to a root
    chi = s - 1/theta, nearest first; the count doubles until a root falls
    outside [chi_lo, chi_hi].  M0 is bordered with the means of u and v, which
    removes the constant mode (singular for every chi when f'(u0) = 0).  Every
    other mode's determinant is linear in chi, so every root is real and the
    complex shift is never singular; a small imaginary part keeps the roots'
    |theta| apart.  ``roots`` is ascending and repeats each root once per
    multiplicity, in any dimension.  ``smallest_singular_values`` is
    1/sigma_max(M(chi)^-1 D) from one sparse LU per point, 0 where that
    factor is exactly singular.  ARPACK non-convergence raises NoConvergence.
    """
    if n_points < 2:
        raise OutOfRange("n_points", f"must be >= 2 (got {n_points})")
    if not chi_hi > chi_lo:
        raise OutOfRange("chi_hi", f"must be > chi_lo = {chi_lo} (got {chi_hi})")
    n = grid.n_cells
    K = helmholtz_matrix(grid)
    eye, zero = sp.identity(n), sp.csr_matrix((n, n))
    m0 = sp.bmat([[K - (e.fprime + 1.0) * eye, zero], [-e.gprime * eye, K]], format="csc")
    m1 = sp.bmat([[-e.slope * eye, e.u0 * eye], [zero, zero]], format="csc")
    rng = np.random.default_rng(0)  # fixed ARPACK start vectors

    means = sp.block_diag([np.ones((1, n))] * 2)
    bordered0 = sp.bmat([[m0, means.T], [means, None]], format="csc")
    bordered1 = sp.block_diag((m1, sp.csc_matrix((2, 2))), format="csc")
    shift = complex(0.5 * (chi_lo + chi_hi), (chi_hi - chi_lo) / 32.0)
    shifted = spla.splu(bordered0 + shift * bordered1)
    op = spla.LinearOperator(
        bordered0.shape, lambda x: shifted.solve(bordered1 @ x), dtype=complex
    )
    v0 = rng.standard_normal(2 * n + 2).astype(complex)
    k = 6
    while True:
        k = min(k, 2 * n)
        found = (shift - 1.0 / _arpack(spla.eigs, op, k, v0=v0, return_eigenvectors=False)).real
        inside = (found >= chi_lo) & (found <= chi_hi)
        if not inside.all() or k == 2 * n:
            break
        k *= 2
    roots = tuple(sorted(float(chi) for chi in found[inside]))

    chis = np.linspace(chi_lo, chi_hi, n_points)
    smallest = np.zeros(n_points)
    d = sp.block_diag((K, K), format="csc")
    v0 = rng.standard_normal(2 * n)
    for i, chi in enumerate(chis):
        try:
            lu = spla.splu(m0 + chi * m1)
        except RuntimeError:  # exactly singular factor: sigma_min = 0
            continue
        inverse = spla.LinearOperator(
            m0.shape, lambda x: lu.solve(d @ x), lambda x: d @ lu.solve(x, trans="T"),
            dtype=float,
        )
        # Far below onset sigma_max is a cluster of top modes 1e-8 apart that
        # ARPACK cannot split at machine precision; tol=1e-3 bounds the error
        # there by about 5e-7 and leaves isolated values near roundoff.
        top = _arpack(spla.svds, inverse, 1, tol=1e-3, v0=v0, return_singular_vectors=False)[0]
        smallest[i] = 1.0 / top
    return ScanResult(chis=chis, smallest_singular_values=smallest, roots=roots)
