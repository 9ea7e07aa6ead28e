"""The screened Poisson solve -lap v + v = s on the mirror-ghost grid.

Cell-centered cosines are exact discrete eigenfunctions of the mirror-ghost
operator: the one with indices k has eigenvalue grid.helmholtz_symbol[k] =
1 + sum((4/h_i**2)*sin(k_i*pi/(2*n_i))**2) under -lap_h + I.  So every
constant-coefficient Neumann system (I - c*lap_h) x = b is diagonal in the
DCT-II basis, and one exact spectral solve serves the chemical equation
(c = 1) and implicit diffusion (c = dt) in any dimension.  The constant mode
is projected exactly afterwards, which pins the discrete compatibility
identity sum(x) = sum(b) to roundoff.

The transforms call scipy.fft's compiled pocketfft kernel, one axis per
call with the arguments of the orthonormal dct/idct, and skip wrapper
checks that float64 input never needs (2.7 against 5.6 us per 256-cell
transform, 2-vCPU x86, scipy 1.17).  The kernel is loaded from its file,
as scipy.fft's package __init__ costs 0.35 s of a 0.6 s cold start.  It is
private to scipy, so tests/test_grid_elliptic.py::TestTransformKernel checks
that it is scipy.fft's own file and matches the public transforms bitwise.
"""

from __future__ import annotations

import os
from importlib import machinery, util

import numpy as np

from .errors import NonpositiveV, OutOfRange
from .grid import Field, Grid, cell_gradients, cell_sums, integrate


def _load_pocketfft():
    """scipy.fft's pocketfft module, loaded without scipy's package __init__."""
    where = os.path.join(os.path.dirname(util.find_spec("scipy").origin), "fft", "_pocketfft")
    spec = machinery.PathFinder.find_spec("pypocketfft", [where])
    if spec is None:
        from importlib.metadata import version
        raise ImportError(f"scipy {version('scipy')} has no pypocketfft extension in {where}")
    kernel = util.module_from_spec(spec)
    spec.loader.exec_module(kernel)
    return kernel


_POCKETFFT = _load_pocketfft()
dct = _POCKETFFT.dct
_DCT_II, _DCT_III = 2, 3   # the orthonormal DCT-III is the DCT-II's inverse
_ORTHO = 1                 # pocketfft's normalisation code for norm="ortho"


def cosine_coefficients(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II per axis of a float64 array; entry k pairs with
    grid.laplacian_eigenvalues[k].

    The transforms run along the trailing grid axes, so leading batch axes
    pass through; pocketfft transforms each line alone, so every field of a
    batch gets the bits it would get alone.
    """
    # Per-axis transforms: one call over all axes applies the orthonormal
    # factor once, not per axis, and so moves the last bits.  The first call
    # writes a new array and later axes transform it in place.
    first, *later = grid.cell_axes
    out = dct(values, _DCT_II, (first,), _ORTHO, None, 1, None)
    for ax in later:
        dct(out, _DCT_II, (ax,), _ORTHO, out, 1, None)
    return out


def cell_values(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Inverse of cosine_coefficients; overwrites ``coeffs`` and returns it."""
    for ax in grid.cell_axes:
        dct(coeffs, _DCT_III, (ax,), _ORTHO, coeffs, 1, None)
    return coeffs


def screened_symbol(grid: Grid, c) -> np.ndarray:
    """1 + c*grid.laplacian_eigenvalues: the DCT-II symbol of I - c*lap_h,
    for a float c or one value per field shaped to broadcast, (B, 1, ...)."""
    return 1.0 + c * grid.laplacian_eigenvalues


def solve_dct_diagonal(grid: Grid, rhs: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Solve (I - c*lap_h) x = rhs, mirror-ghost Neumann stencil, c >= 0, given
    its symbol, screened_symbol(grid, c).

    A forward DCT-II along each axis diagonalises the operator exactly, the
    coefficients are divided by the symbol, and the inverse DCT-II along each
    axis returns to cell values.  rhs may carry a leading batch axis,
    (B, *grid.shape), with c a float or one value per field shaped to
    broadcast, (B, 1, ...); each field gets the bits it would get alone.
    """
    x = cosine_coefficients(grid, rhs)
    x /= symbol
    x = cell_values(grid, x)
    return shift_to_sums(grid, x, cell_sums(rhs, grid, keepdims=True))


def shift_to_sums(grid: Grid, x: np.ndarray, sums) -> np.ndarray:
    """Shift each field of x, in place, by the constant that makes its cell
    sum ``sums``.  Constants are eigenvectors of every symbol with eigenvalue
    1, so a solve shifted by its mass defect keeps its residual and meets
    sum(x) = sum(rhs) to roundoff."""
    x += (sums - cell_sums(x, grid, keepdims=True)) / grid.n_cells
    return x


def solve_dct_stack(grid: Grid, rhs: np.ndarray, symbol: np.ndarray,
                    factors: np.ndarray) -> np.ndarray:
    """For each factor f in ``factors`` (F, *rhs.shape), the cell values of f
    times the coefficients of x, the solve of (I - c*lap_h) x = rhs, shifted
    to sum f's constant-mode entry times sum(rhs); one stacked inverse.

    A factor of ones gives x bit for bit as solve_dct_diagonal does: the
    product by 1.0 is exact and pocketfft transforms each line alone.  A
    factor beta/grid.helmholtz_symbol gives y with (I - lap_h) y = beta*x
    and sum(y) = beta*sum(rhs): a linear chemical from the same forward
    transform.
    """
    coeffs = cosine_coefficients(grid, rhs)
    coeffs /= symbol
    out = cell_values(grid, factors * coeffs)
    constant = factors[(Ellipsis,) + (slice(0, 1),) * grid.dim]
    return shift_to_sums(grid, out, cell_sums(rhs, grid, keepdims=True) * constant)


def solve_helmholtz_array(grid: Grid, source: np.ndarray) -> np.ndarray:
    """Solve (-lap_h + I) v = s with zero-flux walls; see solve_helmholtz.

    source may carry a leading batch axis, as in solve_dct_diagonal.
    """
    if not np.isfinite(source).all():
        raise OutOfRange("source", "must be finite")
    # the cached symbol is screened_symbol(grid, 1.0): 1.0*eigenvalue is exact
    return solve_dct_diagonal(grid, source, grid.helmholtz_symbol)


def solve_helmholtz(grid: Grid, source: Field) -> Field:
    """v with (-lap_h + I) v = source, mirror-ghost Neumann stencil.

    Direct: the DCT-II diagonalisation of solve_dct_diagonal, exact up to
    roundoff in any dimension.  Nonnegative sources give nonnegative v (M-matrix).
    """
    return Field(solve_helmholtz_array(grid, source.values), grid)


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
