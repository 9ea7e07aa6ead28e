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
from .grid import Field, Grid, cell_gradients, cell_sums, integrate


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


@dataclass(frozen=True)
class EigenPair:
    """A distinct Neumann eigenvalue of -lap + I with its mode data.

    ``indices`` lists every cosine index tuple sharing both the continuum
    value and the discrete one; the eigenfunction is the sampled cosine
    product of the first one.
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
        grid = self.eigenfunction.grid
        factors = [
            f"cos({k}*pi*{name}/{L:g})"
            for k, name, L in zip(self.index, grid.axis_names, grid.lengths)
            if k > 0
        ]
        return " * ".join(factors) if factors else "1"


def neumann_eigenvalues(grid: Grid, count: int) -> list[EigenPair]:
    """Eigenpairs of the first ``count`` distinct continuum eigenvalues.

    A continuum group whose members differ in the discrete eigenvalue
    (sigma = 26 on a square: (0,5),(5,0) | (3,4),(4,3)) splits into one pair
    per discrete eigenvalue, in ascending order, each with its own sigma_h
    and multiplicity; so the list is sorted by continuum eigenvalue and may
    hold more than ``count`` pairs.
    """
    if count > grid.n_cells:
        raise OutOfRange("count", f"exceeds cell count {grid.n_cells}")
    pairs = []
    for sigma, members in continuum_eigenvalues(grid.lengths, count):
        for sigma_h, part in tie_groups([(discrete_sigma(grid, ks), ks) for ks in members]):
            pairs.append(
                EigenPair(
                    indices=tuple(part),
                    sigma=sigma,
                    sigma_h=sigma_h,
                    multiplicity=len(part),
                    eigenfunction=Field(grid.cosine_product(part[0]), grid),
                )
            )
    return pairs


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------


def cosine_coefficients(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II per axis; entry k pairs with grid.laplacian_eigenvalues[k].

    The transforms run along the trailing grid axes, so a leading batch axis
    passes through; pocketfft transforms each line alone, so every field of a
    batch gets the bits it would get alone.
    """
    # Per-axis transforms: dctn's n-d argument handling makes a round trip on
    # a 64-cell 1D grid about 40% slower.
    for ax in range(-grid.dim, 0):
        values = dct(values, type=2, norm="ortho", axis=ax)
    return values


def cell_values(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Inverse of cosine_coefficients; overwrites ``coeffs``."""
    for ax in range(-grid.dim, 0):
        coeffs = idct(coeffs, type=2, norm="ortho", axis=ax, overwrite_x=True)
    return coeffs


def screened_symbol(grid: Grid, c) -> np.ndarray:
    """1 + c*grid.laplacian_eigenvalues: the DCT-II symbol of I - c*lap_h,
    for a float c or one value per field shaped to broadcast, (B, 1, ...)."""
    return 1.0 + c * grid.laplacian_eigenvalues


def solve_screened_array(grid: Grid, rhs: np.ndarray, c) -> np.ndarray:
    """Solve (I - c*lap_h) x = rhs, mirror-ghost Neumann stencil, c >= 0.

    A forward DCT-II along each axis diagonalises the operator exactly, the
    coefficients are divided by screened_symbol(grid, c), and the inverse
    DCT-II along each axis returns to cell values.  rhs may carry a leading
    batch axis, (B, *grid.shape), with c a float or one value per field
    shaped to broadcast, (B, 1, ...); each field is solved bit for bit as it
    would be alone.
    """
    return solve_dct_diagonal(grid, rhs, screened_symbol(grid, c))


def solve_dct_diagonal(grid: Grid, rhs: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """solve_screened_array with its symbol given, for callers that reuse one."""
    x = cosine_coefficients(grid, rhs)
    x /= symbol
    x = cell_values(grid, x)
    # Constants are eigenvectors with eigenvalue 1, so shifting by the mass
    # defect restores sum(x) = sum(rhs) exactly without degrading the residual.
    x += (cell_sums(rhs, grid, keepdims=True) - cell_sums(x, grid, keepdims=True)) / grid.n_cells
    return x


def solve_helmholtz_array(grid: Grid, source: np.ndarray) -> np.ndarray:
    """Solve (-lap_h + I) v = s with zero-flux walls; see solve_helmholtz.

    source may carry a leading batch axis, as in solve_screened_array.
    """
    if not np.isfinite(source).all():
        raise OutOfRange("source", "must be finite")
    # solve_screened_array at c = 1: 1.0*eigenvalue is exact, so the cached
    # symbol 1 + eigenvalue gives the same bits
    return solve_dct_diagonal(grid, source, grid.helmholtz_symbol)


def solve_helmholtz(grid: Grid, source: Field) -> Field:
    """v with (-lap_h + I) v = source, mirror-ghost Neumann stencil.

    Direct: the DCT-II diagonalisation of solve_screened_array, exact up to
    roundoff in any dimension.  Nonnegative sources give nonnegative v (M-matrix).
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
