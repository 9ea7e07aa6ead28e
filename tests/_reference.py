"""Reference implementations that the tests compare chemolab against.

chemolab applies the mirror-ghost Neumann operators by stencils and solves
them by the DCT-II; the tests check both against the sparse matrices
assembled here.  It groups Neumann modes with one argsort; the tests check
that against the loop over index tuples here.
"""

import itertools
import math
from functools import reduce

import numpy as np
import scipy.sparse as sp


def laplacian_matrix(grid) -> sp.csr_matrix:
    """Sparse mirror-ghost Neumann Laplacian on flattened (C-order) fields:
    the Kronecker sum of the 1D operators, the last axis fastest."""
    mats = [_neumann_laplacian_1d(n, h) for n, h in zip(grid.shape, grid.spacings)]
    return reduce(lambda lap, m: sp.kronsum(m, lap), mats).tocsr()


def _neumann_laplacian_1d(n: int, h: float) -> sp.csr_matrix:
    main = np.full(n, -2.0)
    main[0] = main[-1] = -1.0
    off = np.ones(n - 1)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr") / h**2


def helmholtz_matrix(grid) -> sp.csr_matrix:
    """Assembled (-lap_h + I), symmetric positive definite."""
    return (sp.identity(grid.n_cells, format="csr") - laplacian_matrix(grid)).tocsr()


def continuum_groups(lengths, count: int) -> list[tuple[float, list[tuple[int, ...]]]]:
    """The first ``count`` distinct values 1 + sum((k_i*pi/L_i)**2), ascending,
    each with its index tuples, by a loop over every tuple with k_i <= count:
    sorted by (value, tuple), a value joins a group within 1e-12 relative of
    the group's first value."""
    groups: list[tuple[float, list[tuple[int, ...]]]] = []
    entries = (
        (1.0 + sum((k * math.pi / L) ** 2 for k, L in zip(ks, lengths)), ks)
        for ks in itertools.product(range(count + 1), repeat=len(lengths))
    )
    for sigma, ks in sorted(entries):
        if groups and abs(sigma - groups[-1][0]) <= 1e-12 * max(1.0, sigma):
            groups[-1][1].append(ks)
        else:
            groups.append((sigma, [ks]))
    return groups[:count]
