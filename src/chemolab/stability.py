"""Linearized spectrum about constant equilibria and pattern-onset thresholds.

Perturbing the stationary system about (u0, g(u0)) couples each Neumann mode
of -lap + I to the 2x2 interaction matrix

    A(chi) = [[g'(u0)*u0*chi + f'(u0) + 1, -chi*u0],
              [g'(u0),                      0      ]]

whose eigenvalues lam-+(chi) solve sigma**2 - trace*sigma + det = 0.  A mode
with eigenvalue sigma_k goes singular exactly when lam+(chi) = sigma_k, which
inverts in closed form to the onset threshold

    chi_hat(sigma) = sigma*(sigma - f'(u0) - 1) / (g'(u0)*u0*(sigma - 1)).

``singularity_scan`` finds where the discrete operator on stacked (u, v)
perturbations goes singular, in 1D, 2D and 3D.  The DCT-II splits it into
one exact 2x2 block per grid mode, with -lap_h + I in place of -lap + I; its
roots, with multiplicity, are the inversion above at each block's discrete
eigenvalue, and its smallest singular value per sample is the smallest over
the blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotOnPlusBranch, OutOfRange, UndefinedForThisChi
from .grid import Grid, mode_groups
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
    eigenvalue branch.  This is what the discrete singularity scan sees: its
    roots are this form evaluated at the discrete mode eigenvalues (which can
    fall marginally below the branch point even when their continuum values
    sit exactly on it).
    """
    if not sigma > 1:
        raise OutOfRange("sigma", f"must be > 1 (got {sigma})")
    return sigma * (sigma - e.fprime - 1.0) / (e.slope * (sigma - 1.0))


def critical_chi(e: EquilibriumInfo, sigma: float) -> float:
    """The sensitivity where lam+ crosses the mode eigenvalue sigma.

    Closed-form inversion of the characteristic quadratic.  At the inverted
    chi, sigma is one of its two roots, whose sum is the trace, so sigma is
    lam+ exactly when 2*sigma >= trace; the branch point, where the roots
    meet, is accepted.  NotOnPlusBranch when the inverted chi is not
    positive or 2*sigma < trace - BRANCH_RTOL*max(1, sigma) (sigma is lam-).
    """
    chi_hat = characteristic_chi(e, sigma)
    if not chi_hat > 0:
        raise NotOnPlusBranch(f"inverted chi = {chi_hat:g} is not positive")
    trace = e.slope * chi_hat + e.fprime + 1.0
    if 2.0 * sigma < trace - BRANCH_RTOL * max(1.0, sigma):
        raise NotOnPlusBranch(
            f"sigma = {sigma:.12g} is lam-({chi_hat:g}): below trace/2 = {0.5 * trace:.12g}"
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


def bifurcation_table(e: EquilibriumInfo, lengths, count: int) -> list[BifurcationRow]:
    """Onset thresholds for the first ``count`` nonconstant Neumann modes of
    the box with these side lengths.

    Row k is the k-th distinct continuum eigenvalue 1 + sum((k_i*pi/L_i)**2)
    of -lap + I with its index tuples, grouped by grid.mode_groups.  Rows on
    the growing branch are flagged ``proven`` when the mode multiplicity is
    odd; even-multiplicity crossings leave the topological index unchanged
    and are reported but not claimed.
    """
    if count < 1:
        raise OutOfRange("count", f"must be >= 1 (got {count})")
    # k <= count along one axis alone gives count + 1 distinct values, so this
    # box holds every member of the first count + 1 groups
    ks = np.indices((count + 2,) * len(lengths))
    symbol = 1.0 + sum((k * math.pi / float(L)) ** 2 for k, L in zip(ks, lengths))
    rows: list[BifurcationRow] = []
    for idx, (sigma, members) in enumerate(mode_groups(symbol, count + 1)[1:], start=1):
        try:
            chi_hat = critical_chi(e, sigma)
        except NotOnPlusBranch:
            continue
        rows.append(BifurcationRow(
            k=idx, sigma=sigma, multiplicity=len(members), chi_hat=chi_hat,
            proven=len(members) % 2 == 1, indices=tuple(members),
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


# ---------------------------------------------------------------------------
# discrete singularity scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanResult:
    chis: np.ndarray
    smallest_singular_values: np.ndarray
    roots: tuple[float, ...]


def singularity_scan(
    e: EquilibriumInfo, grid: Grid, chi_lo: float, chi_hi: float, n_points: int
) -> ScanResult:
    """Locate sensitivities where the discrete linearized operator is singular.

    L(chi) = I - (-lap_h + I)^-1 A(chi) acts on stacked (u, v).  The
    orthonormal DCT-II diagonalises K = -lap_h + I with symbol sigma_h, so L
    is orthogonally similar to the block diagonal of B = I - A(chi)/sigma_h,
    one 2x2 block per mode, with

        det B = (sigma_h*(sigma_h - f'(u0) - 1)
                 - g'(u0)*u0*chi*(sigma_h - 1)) / sigma_h**2,

    the characteristic quadratic.  It is linear in chi, so each nonconstant
    mode is singular at exactly one sensitivity, characteristic_chi(e,
    sigma_h).  ``roots`` lists those inside [chi_lo, chi_hi], ascending, once
    per mode, so a root repeats once per multiplicity in any dimension.  The
    constant mode (sigma_h = 1) is left out: its determinant is -f'(u0) for
    every chi, identically 0 when f'(u0) = 0.

    ``smallest_singular_values`` is sigma_min(L(chi)) at each of the n_points
    samples, the minimum over modes of |det B| / sigma_max(B), so it is 0 at
    every sample when f'(u0) = 0.
    """
    if n_points < 2:
        raise OutOfRange("n_points", f"must be >= 2 (got {n_points})")
    if not chi_hi > chi_lo:
        raise OutOfRange("chi_hi", f"must be > the low end {chi_lo} (got {chi_hi})")
    sigma = grid.helmholtz_symbol.ravel()  # entry 0 is the constant mode
    chi_modes = (float(characteristic_chi(e, s)) for s in sigma[1:])
    roots = tuple(sorted(chi for chi in chi_modes if chi_lo <= chi <= chi_hi))

    chis = np.linspace(chi_lo, chi_hi, n_points)
    smallest = np.empty(n_points)
    for i, chi in enumerate(chis):
        det = (sigma * (sigma - e.fprime - 1.0) - e.slope * chi * (sigma - 1.0)) / sigma**2
        p = 1.0 - (e.slope * chi + e.fprime + 1.0) / sigma  # B = [[p, q], [r, 1]]
        q, r = chi * e.u0 / sigma, -e.gprime / sigma
        top = 0.5 * (np.hypot(p + 1.0, q - r) + np.hypot(p - 1.0, q + r))
        smallest[i] = np.min(np.abs(det) / top)
    return ScanResult(chis=chis, smallest_singular_values=smallest, roots=roots)
