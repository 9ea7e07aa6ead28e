"""Host-speed calibration: a fixed kernel timed next to every repetition.

On a shared host the speed of the CPU a run gets drifts by up to about 1.8x
over seconds to minutes, with CPU time tracking wall time, so the same code
reads very different times in runs minutes apart.  The kernel below never
calls chemolab and does the same work on every call; it mixes the kinds of
work the workloads do (Python glue around small-array numpy calls and a
banded LAPACK solve, CSR mat-vecs and vector updates on a 64x64 grid, a
sparse LU solve, a small dense SVD, and dataclass, dict and float-to-text
churn like the stepper's state updates and the CSV writers), so its time
moves with the host in the same way.
``run.py`` times it around every repetition and reports each time scaled by
``REFERENCE_S / kernel time``: seconds on a host where the kernel takes
``REFERENCE_S``.  A change to chemolab moves the scaled times in full; a
change of host speed moves the kernel and the repetition alike and cancels.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# About the kernel's median time on the 2-vCPU host of the reference figures
# (perfbench/README.md); a constant, so scaled times compare across runs.
REFERENCE_S = 0.28


@dataclasses.dataclass(frozen=True)
class _State:
    t: float
    dt: float
    count: int


class Kernel:
    """The calibration kernel, with its inputs built once."""

    N1 = 256
    N2 = 64
    LOOPS_1D = 1500
    LOOPS_2D = 1500
    LU_SOLVES = 2
    SVD_N = 128
    SVD_LOOPS = 30
    OBJECT_LOOPS = 6000

    def __init__(self) -> None:
        n = self.N1
        self.x1 = np.linspace(0.0, np.pi, n)
        self.c1 = np.cos(self.x1)
        self.banded = np.zeros((3, n))
        self.banded[0], self.banded[1], self.banded[2] = -1.0, 3.0, -1.0
        m = self.N2
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
        eye = sp.identity(m)
        self.op2 = (sp.kron(lap, eye) + sp.kron(eye, lap) + sp.identity(m * m)).tocsr()
        self.op2_csc = self.op2.tocsc()
        self.x2 = np.sin(np.arange(m * m) * 0.01)
        rng = np.random.default_rng(12345)
        self.dense = rng.standard_normal((self.SVD_N, self.SVD_N))
        self.run()

    def run(self) -> float:
        """One pass of the kernel; returns a value so no part is skipped."""
        x = self.x1
        acc = 0.0
        for _ in range(self.LOOPS_1D):
            y = self.c1 * x + 0.5 * self.x1
            m = float(np.max(np.abs(y)))
            x = sla.solve_banded((1, 1), self.banded, self.c1 + y / (1.0 + m))
            acc += m
        r = self.x2.copy()
        for _ in range(self.LOOPS_2D):
            q = self.op2 @ r
            alpha = float(r @ r) / float(r @ q)
            r = r - 0.1 * alpha * q
            r /= np.sqrt(float(r @ r))  # kept at unit length
            acc += alpha
        for _ in range(self.LU_SOLVES):
            acc += float(spla.spsolve(self.op2_csc, self.x2)[0])
        for _ in range(self.SVD_LOOPS):
            acc += float(np.linalg.svd(self.dense, compute_uv=False)[0])
        state, rows = _State(0.0, 1e-3, 0), []
        for i in range(self.OBJECT_LOOPS):
            state = dataclasses.replace(state, t=state.t + state.dt, count=i)
            rows.append({"t": state.t, "count": state.count, "norm": acc * 1e-9 + i})
        acc += len("\n".join(",".join(f"{v:.17g}" for v in row.values()) for row in rows))
        return acc

    def time(self) -> float:
        """Seconds one pass takes now."""
        start = time.perf_counter()
        self.run()
        return time.perf_counter() - start
