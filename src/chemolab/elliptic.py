"""The screened Poisson solve -lap v + v = s and the Neumann eigenpairs of -lap + I.

Cell-centered cosines are exact discrete eigenfunctions of the mirror-ghost
operator, so both the continuum eigenvalues 1 + sum((k_i*pi/L_i)**2) and their
discrete counterparts 1 + sum((4/h_i**2)*sin(k_i*pi*h_i/(2*L_i))**2) are
available in closed form.  The same fact makes every constant-coefficient
Neumann system (I - c*lap_h) x = b diagonal in the DCT-II basis, so one exact
spectral solve serves the chemical equation (c = 1) and implicit diffusion
(c = dt) in any dimension.  The constant mode is projected exactly afterwards,
which pins the discrete compatibility identity sum(x) = sum(b) to roundoff.

The transforms come from scipy.fftpack: scipy.fft's pocketfft kernel, bit for
bit, without its backend dispatch, which adds about 60% to a 256-cell call
(9.5 against 5.8 us, 2-vCPU x86, scipy 1.17) and runs four times a step.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.fftpack import dct, idct

from .errors import NonpositiveV, OutOfRange
from .grid import Field, Grid, cell_gradients, integrate


def continuum_eigenvalues(
    lengths: tuple[float, ...], count: int
) -> list[tuple[float, list[tuple[int, ...]]]]:
    """First ``count`` distinct eigenvalues of -lap + I with zero-flux walls.

    Returns (sigma, index tuples) sorted ascending; ties within relative
    1e-12 are grouped, so the list length equals the number of distinct
    eigenvalues and the group size is the multiplicity.
    """
    if count < 1:
        raise OutOfRange("count", f"must be >= 1 (got {count})")
    dim = len(lengths)
    # Along one axis, `count` distinct values need at most k = count - 1.
    kmax = count
    entries = []
    for ks in itertools.product(range(kmax + 1), repeat=dim):
        sigma = 1.0 + sum((k * math.pi / L) ** 2 for k, L in zip(ks, lengths))
        entries.append((sigma, ks))
    return tie_groups(entries)[:count]


def tie_groups(entries: list[tuple[float, tuple[int, ...]]]) -> list[tuple[float, list]]:
    """Sort (eigenvalue, index tuple) pairs and group values within relative
    1e-12 of a group's first value; each group keeps that first value."""
    groups: list[tuple[float, list[tuple[int, ...]]]] = []
    for sigma, ks in sorted(entries):
        if groups and abs(sigma - groups[-1][0]) <= 1e-12 * max(1.0, sigma):
            groups[-1][1].append(ks)
        else:
            groups.append((sigma, [ks]))
    return groups


def discrete_sigma(grid: Grid, ks: tuple[int, ...]) -> float:
    """Eigenvalue of the assembled (-lap_h + I) for the sampled-cosine mode."""
    out = 1.0
    for k, L, h in zip(ks, grid.lengths, grid.spacings):
        out += 4.0 / h**2 * math.sin(k * math.pi * h / (2.0 * L)) ** 2
    return out


def _cosine_mode(grid: Grid, ks: tuple[int, ...]) -> np.ndarray:
    vals = np.ones(grid.shape)
    for ax, k in enumerate(ks):
        x = grid.axis_centers(ax)
        mode = np.cos(k * math.pi * x / grid.lengths[ax])
        shape = [1] * grid.dim
        shape[ax] = -1
        vals = vals * mode.reshape(shape)
    return vals


@dataclass(frozen=True)
class EigenPair:
    """A distinct Neumann eigenvalue of -lap + I with its mode data.

    ``indices`` lists every cosine index tuple sharing the continuum value;
    the eigenfunction is the sampled cosine product of the first one.
    """

    indices: tuple[tuple[int, ...], ...]
    sigma: float
    sigma_h: float
    multiplicity: int
    eigenfunction: Field

    @property
    def index(self) -> tuple[int, ...]:
        return self.indices[0]

    @property
    def descriptor(self) -> str:
        names = "xy"
        factors = [
            f"cos({k}*pi*{names[ax]}/{L:g})"
            for ax, (k, L) in enumerate(zip(self.index, self.eigenfunction.grid.lengths))
            if k > 0
        ]
        return " * ".join(factors) if factors else "1"


def neumann_eigenvalues(grid: Grid, count: int) -> list[EigenPair]:
    """First ``count`` distinct eigenpairs, sorted by continuum eigenvalue."""
    if count > grid.n_cells:
        raise OutOfRange("count", f"exceeds cell count {grid.n_cells}")
    groups = continuum_eigenvalues(grid.lengths, count)
    pairs = []
    for sigma, members in groups:
        rep = members[0]
        pairs.append(
            EigenPair(
                indices=tuple(members),
                sigma=sigma,
                sigma_h=discrete_sigma(grid, rep),
                multiplicity=len(members),
                eigenfunction=Field(_cosine_mode(grid, rep), grid),
            )
        )
    return pairs


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------


def cosine_coefficients(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II per axis; entry k pairs with grid.laplacian_eigenvalues[k]."""
    # Per-axis transforms: dctn's n-d argument handling makes a round trip on
    # a 64-cell 1D grid about 40% slower.
    for ax in range(grid.dim):
        values = dct(values, type=2, norm="ortho", axis=ax)
    return values


def cell_values(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Inverse of cosine_coefficients; overwrites ``coeffs``."""
    for ax in range(grid.dim):
        coeffs = idct(coeffs, type=2, norm="ortho", axis=ax, overwrite_x=True)
    return coeffs


def solve_screened_array(grid: Grid, rhs: np.ndarray, c: float) -> np.ndarray:
    """Solve (I - c*lap_h) x = rhs, mirror-ghost Neumann stencil, c >= 0.

    A forward DCT-II along each axis diagonalises the operator exactly, the
    coefficients are divided by 1 + c*grid.laplacian_eigenvalues, and the
    inverse DCT-II along each axis returns to cell values.
    """
    x = cosine_coefficients(grid, rhs)
    x /= 1.0 + c * grid.laplacian_eigenvalues
    x = cell_values(grid, x)
    # Constants are eigenvectors with eigenvalue 1, so shifting by the mass
    # defect restores sum(x) = sum(rhs) exactly without degrading the residual.
    x += (rhs.sum() - x.sum()) / grid.n_cells
    return x


def solve_helmholtz_array(grid: Grid, source: np.ndarray) -> np.ndarray:
    """Solve (-lap_h + I) v = s with zero-flux walls; see solve_helmholtz."""
    if not np.all(np.isfinite(source)):
        raise OutOfRange("source", "must be finite")
    return solve_screened_array(grid, source, 1.0)


def solve_helmholtz(grid: Grid, source: Field) -> Field:
    """v with (-lap_h + I) v = source, mirror-ghost Neumann stencil.

    Direct: the DCT-II diagonalisation of solve_screened_array, exact up to
    roundoff in 1D and 2D.  Nonnegative sources give nonnegative v (M-matrix).
    """
    return Field(solve_helmholtz_array(grid, source.values), grid)


def helmholtz_matrix(grid: Grid) -> sp.csr_matrix:
    """Assembled (-lap_h + I), symmetric positive definite."""
    return (sp.identity(grid.n_cells, format="csr") - grid.laplacian_matrix).tocsr()


def elliptic_identity_residual(u: Field, v: Field, beta: float, kappa: float) -> float:
    """Residual of int(|grad v|**2 / v**2) + beta*int(u**kappa / v) - |domain|.

    The identity holds exactly in the continuum whenever v solves the
    chemical equation with source beta*u**kappa; the discrete residual decays
    at second order.  Gradients are centered cell differences, integrals
    midpoint sums.  Raises NonpositiveV unless v > 0 everywhere.
    """
    grid = u.grid
    if not np.all(v.values > 0.0):
        raise NonpositiveV("v must be strictly positive")
    grads = cell_gradients(v.values, grid)
    grad_sq = sum(g**2 for g in grads)
    term1 = integrate(grad_sq / v.values**2, grid)
    term2 = beta * integrate(u.values**kappa / v.values, grid)
    return term1 + term2 - grid.volume
