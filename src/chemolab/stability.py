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
discrete operator on stacked (u, v) perturbations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import continuum_eigenvalues, discrete_sigma, helmholtz_matrix
from .errors import NotOnPlusBranch, OutOfRange, UndefinedForThisChi
from .grid import Grid
from .model import Kinetics

EQUILIBRIUM_ATOL = 1e-10
BRANCH_RTOL = 1e-10
SCAN_BISECT_TOL = 1e-8


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

    ``domain`` is a Grid (rows then also carry the discrete eigenvalue) or a
    lengths tuple (analytic values only).  Rows on the growing branch are
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
        rows.append(
            BifurcationRow(
                k=idx,
                sigma=sigma,
                multiplicity=len(members),
                chi_hat=chi_hat,
                proven=len(members) % 2 == 1,
                indices=tuple(members),
                sigma_h=discrete_sigma(grid, members[0]) if grid is not None else None,
            )
        )
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


def _stacked_operator(e: EquilibriumInfo, kinv: np.ndarray, chi: float) -> np.ndarray:
    n = kinv.shape[0]
    a11 = e.slope * chi + e.fprime + 1.0
    a12 = -chi * e.u0
    a21 = e.gprime
    L = np.eye(2 * n)
    L[:n, :n] -= a11 * kinv
    L[:n, n:] -= a12 * kinv
    L[n:, :n] -= a21 * kinv
    return L


def singularity_scan(
    e: EquilibriumInfo, grid: Grid, chi_lo: float, chi_hi: float, n_points: int
) -> ScanResult:
    """Locate sensitivities where the discrete linearized operator is singular.

    Assembles L(chi) = I - (-lap_h + I)^-1 A(chi) on stacked (u, v), tracks
    its smallest singular value over the chi grid, and refines determinant
    sign changes by bisection to SCAN_BISECT_TOL.  The roots agree with
    critical_chi evaluated at the discrete mode eigenvalues; the scan is a
    validation tool and is restricted to 1D grids.
    """
    if grid.dim != 1:
        raise OutOfRange("grid", "the scan is a 1D validation tool")
    if n_points < 2:
        raise OutOfRange("n_points", f"must be >= 2 (got {n_points})")
    kinv = np.linalg.inv(helmholtz_matrix(grid).toarray())
    chis = np.linspace(chi_lo, chi_hi, n_points)

    def det_sign(chi: float) -> float:
        sign, _ = np.linalg.slogdet(_stacked_operator(e, kinv, chi))
        return sign

    smallest = np.empty(n_points)
    signs = np.empty(n_points)
    for i, chi in enumerate(chis):
        L = _stacked_operator(e, kinv, float(chi))
        smallest[i] = np.linalg.svd(L, compute_uv=False)[-1]
        signs[i] = np.linalg.slogdet(L)[0]

    roots: list[float] = []
    for i in range(n_points - 1):
        if signs[i] == 0.0:
            roots.append(float(chis[i]))
            continue
        if signs[i] * signs[i + 1] < 0.0:
            lo, hi = float(chis[i]), float(chis[i + 1])
            s_lo = signs[i]
            while hi - lo > SCAN_BISECT_TOL:
                mid = 0.5 * (lo + hi)
                s_mid = det_sign(mid)
                if s_mid == 0.0:
                    lo = hi = mid
                    break
                if s_lo * s_mid < 0.0:
                    hi = mid
                else:
                    lo, s_lo = mid, s_mid
            roots.append(0.5 * (lo + hi))
    if signs[-1] == 0.0:
        roots.append(float(chis[-1]))
    return ScanResult(chis=chis, smallest_singular_values=smallest, roots=tuple(roots))
