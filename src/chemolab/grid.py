"""Uniform cell-centered tensor grids with zero-flux (mirror ghost) boundaries.

Cell centers sit at (i + 1/2)*h, so the mirror ghost value equals the first
interior value and the zero-flux condition is exact to second order.  All
discrete calculus used elsewhere lives here: face gradients, conservative
divergence of face fluxes, the mirror-ghost Laplacian (array form, sparse
matrix and eigenvalues), centered cell gradients, and midpoint-rule integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import OutOfRange
from .model import AXIS_NAMES, MAX_DIM, ModelParams

MIN_CELLS_PER_AXIS = 8


@dataclass(frozen=True)
class Grid:
    lengths: tuple[float, ...]
    shape: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(float(L) for L in self.lengths))
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        if len(self.lengths) != len(self.shape) or not 1 <= len(self.shape) <= MAX_DIM:
            raise OutOfRange("grid", f"need 1 to {MAX_DIM} axes with matching lengths")
        if any(n < MIN_CELLS_PER_AXIS for n in self.shape):
            raise OutOfRange(
                "resolution", f"need >= {MIN_CELLS_PER_AXIS} cells per axis (got {self.shape})"
            )

    @cached_property
    def dim(self) -> int:
        return len(self.shape)

    @cached_property
    def axis_names(self) -> tuple[str, ...]:
        return AXIS_NAMES[: self.dim]

    @cached_property
    def cell_axes(self) -> tuple[int, ...]:
        """The trailing axes that hold a field's cells, (-dim, ..., -1)."""
        return tuple(range(-self.dim, 0))

    @cached_property
    def spacings(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.lengths, self.shape))

    @cached_property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    @cached_property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    @cached_property
    def face_slices(self) -> tuple[tuple[tuple, tuple], ...]:
        """Per axis, index tuples (lo, hi) of the cells left and right of the
        interior faces: all but the last and all but the first entry.  They
        index the trailing grid axes, so a leading batch axis passes through."""
        full = (slice(None),) * self.dim
        return tuple(
            tuple(
                (Ellipsis,) + full[:ax] + (sl,) + full[ax + 1:]
                for sl in (slice(None, -1), slice(1, None))
            )
            for ax in range(self.dim)
        )

    def axis_centers(self, axis: int) -> np.ndarray:
        h = self.spacings[axis]
        return (np.arange(self.shape[axis]) + 0.5) * h

    def _along_axis(self, axis: int, values: np.ndarray) -> np.ndarray:
        """One value per cell of ``axis``, shaped to broadcast over the grid."""
        return values.reshape((-1,) + (1,) * (self.dim - 1 - axis))

    @cached_property
    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinate arrays, each of full grid shape."""
        return tuple(np.meshgrid(*map(self.axis_centers, range(self.dim)), indexing="ij"))

    def cosine_product(self, ks: Sequence[int]) -> np.ndarray:
        """prod_i cos(k_i*pi*x_i/L_i) at the cell centres; missing trailing
        indices count as 0."""
        vals = np.ones(self.shape)
        for ax, k in enumerate(ks):
            mode = np.cos(k * math.pi * self.axis_centers(ax) / self.lengths[ax])
            vals = vals * self._along_axis(ax, mode)
        return vals

    @cached_property
    def laplacian_matrix(self) -> sp.csr_matrix:
        """Sparse mirror-ghost Neumann Laplacian on flattened (C-order) fields:
        the Kronecker sum of the 1D operators, the last axis fastest."""
        mats = [_neumann_laplacian_1d(n, h) for n, h in zip(self.shape, self.spacings)]
        return reduce(lambda lap, m: sp.kronsum(m, lap), mats).tocsr()

    @cached_property
    def helmholtz_symbol(self) -> np.ndarray:
        """Eigenvalues of -lap_h + I on the sampled cosines, in DCT-II order."""
        return 1.0 + self.laplacian_eigenvalues

    @cached_property
    def laplacian_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of -lap_h on the sampled cosines, in DCT-II order.

        Entry k belongs to the cell-centered cosine product with indices k;
        each axis adds 4/h**2 * sin(k*pi/(2n))**2.
        """
        total = np.zeros(self.shape)
        for ax, (n, h) in enumerate(zip(self.shape, self.spacings)):
            lam = 4.0 / h**2 * np.sin(np.arange(n) * np.pi / (2 * n)) ** 2
            total = total + self._along_axis(ax, lam)
        return total


def _neumann_laplacian_1d(n: int, h: float) -> sp.csr_matrix:
    main = np.full(n, -2.0)
    main[0] = main[-1] = -1.0
    off = np.ones(n - 1)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr") / h**2


def make_grid(p: ModelParams, resolution: int | Sequence[int]) -> Grid:
    """Cell-centered uniform grid over the params' domain."""
    if isinstance(resolution, (int, np.integer)):
        shape = (int(resolution),) * p.dim
    else:
        shape = tuple(int(r) for r in resolution)
        if len(shape) != p.dim:
            raise OutOfRange("resolution", f"need {p.dim} entries (got {len(shape)})")
    return Grid(lengths=p.lengths, shape=shape)


@dataclass
class Field:
    """Scalar field on grid cells."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise OutOfRange(
                "field", f"values shape {self.values.shape} != grid shape {self.grid.shape}"
            )

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "Field":
        return cls(np.full(grid.shape, float(value)), grid)

    def copy(self) -> "Field":
        return Field(self.values.copy(), self.grid)

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.values)))


# ---------------------------------------------------------------------------
# discrete calculus on plain arrays
#
# The stencils take arrays of grid shape or, with a leading batch axis, of
# shape (B, *grid.shape); every field of a batch gets the bits it would get
# alone.
# ---------------------------------------------------------------------------


def integrate(values: np.ndarray, grid: Grid) -> float:
    """Midpoint rule: sum of cell values times cell volume."""
    return float(values.sum()) * grid.cell_volume


def cell_sums(values: np.ndarray, grid: Grid, keepdims: bool = False) -> np.ndarray:
    """Cell sum of each field along the leading batch axes.

    numpy sums a C-contiguous field's cells as one contiguous row, alone or
    in a batch, so entry i equals values[i].sum() bit for bit.
    """
    return np.add.reduce(values, axis=grid.cell_axes, keepdims=keepdims)


def face_gradients(values: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """Interior-face normal gradients per axis (boundary faces carry zero flux)."""
    return [
        (values[hi] - values[lo]) / h
        for (lo, hi), h in zip(grid.face_slices, grid.spacings)
    ]


def face_averages(values: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """Arithmetic means on interior faces per axis."""
    return [0.5 * (values[lo] + values[hi]) for lo, hi in grid.face_slices]


def face_divergence(fluxes: Sequence[np.ndarray], grid: Grid) -> np.ndarray:
    """Conservative divergence of interior-face fluxes with zero boundary flux.

    The cell sums of the result telescope to zero exactly, which is what makes
    the discrete mass law hold.
    """
    shape = fluxes[0].shape[: fluxes[0].ndim - grid.dim] + grid.shape
    out = np.zeros(shape)
    for (lo, hi), flux, h in zip(grid.face_slices, fluxes, grid.spacings):
        # cell i gets F[i] - F[i-1], with F = 0 on the two walls
        diff = np.zeros(shape)
        diff[lo] = flux
        diff[hi] -= flux
        out += diff / h
    return out


def laplacian_apply(values: np.ndarray, grid: Grid) -> np.ndarray:
    return face_divergence(face_gradients(values, grid), grid)


def cell_gradients(values: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """Centered cell gradients with mirror ghosts (replicated edge values)."""
    out = []
    for ax, ((lo, hi), h) in enumerate(zip(grid.face_slices, grid.spacings)):
        padded = np.pad(values, [(int(i == ax),) * 2 for i in range(grid.dim)], mode="edge")
        # cell i sits at padded index i + 1: its neighbours are [hi][hi] and [lo][lo]
        out.append((padded[hi][hi] - padded[lo][lo]) / (2.0 * h))
    return out
