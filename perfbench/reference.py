"""Reference computations the benchmark checks chemolab against.

None of these call chemolab: each is written from the mathematics of the
method, so a check that compares a program output with one of them compares
two independent computations.

- ``dct_helmholtz`` solves (-lap_h + I) v = s on a cell-centered grid with
  mirror-ghost walls by a DCT-II, in which that operator is diagonal.
- ``neumann_apply`` applies the same operator by its stencil, so the DCT
  solve can itself be checked by its residual.
- ``sandwich`` integrates the sandwich ODE pair by classical RK4 at step ``MAX_DT``.
- ``sigma_h`` and ``logistic_onset_chi`` give the discrete mode eigenvalue
  and the onset threshold chi_hat(sigma) of the generalized-logistic family.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.fft

# RK4 step of ``sandwich``: selfcheck holds it to 1e-8 of the logistic closed
# form, far inside the 10h^2 the workloads' sandwich checks allow.
MAX_DT = 1e-2


def axis_eigenvalues(n: int, length: float) -> np.ndarray:
    """Eigenvalues 4/h**2 * sin(k*pi/(2n))**2 of -lap_h along one axis, k = 0..n-1."""
    h = length / n
    k = np.arange(n)
    return 4.0 / h**2 * np.sin(k * math.pi / (2.0 * n)) ** 2


def sigma_h(n: int, length: float, ks: tuple[int, ...]) -> float:
    """Discrete eigenvalue of (-lap_h + I) for the sampled cosine with indices ks
    on a square or cubic grid of n cells of side ``length`` per axis."""
    return 1.0 + sum(float(axis_eigenvalues(n, length)[k]) for k in ks)


def dct_helmholtz(source: np.ndarray, lengths: tuple[float, ...]) -> np.ndarray:
    """Solve (-lap_h + I) v = source with zero-flux walls by a DCT-II."""
    denom = np.ones(source.shape)
    for ax, (n, L) in enumerate(zip(source.shape, lengths)):
        shape = [1] * source.ndim
        shape[ax] = n
        denom = denom + axis_eigenvalues(n, L).reshape(shape)
    coeffs = scipy.fft.dctn(source, type=2, norm="ortho")
    return scipy.fft.idctn(coeffs / denom, type=2, norm="ortho")


def neumann_apply(v: np.ndarray, lengths: tuple[float, ...]) -> np.ndarray:
    """(-lap_h + I) v by the mirror-ghost five-point (three-point in 1D) stencil."""
    out = v.copy()
    for ax, (n, L) in enumerate(zip(v.shape, lengths)):
        h = L / n
        padded = np.concatenate(
            [np.take(v, [0], axis=ax), v, np.take(v, [n - 1], axis=ax)], axis=ax
        )
        lo = np.take(padded, np.arange(0, n), axis=ax)
        hi = np.take(padded, np.arange(2, n + 2), axis=ax)
        out += (2.0 * v - lo - hi) / h**2
    return out


def cosine_mode(shape: tuple[int, ...], ks: tuple[int, ...]) -> np.ndarray:
    """Sampled cosine product cos(k_i*pi*(j + 1/2)/n_i) at cell centers."""
    out = np.ones(shape)
    for ax, (n, k) in enumerate(zip(shape, ks)):
        line = np.cos(k * math.pi * (np.arange(n) + 0.5) / n)
        sh = [1] * len(shape)
        sh[ax] = n
        out = out * line.reshape(sh)
    return out


def logistic_onset_chi(a: float, b: float, kappa: float, beta: float, sigma: float) -> float:
    """chi_hat(sigma) for f(u) = u*(a - b*u**kappa), g(u) = beta*u**kappa.

    At u* = (a/b)**(1/kappa): f'(u*) = -kappa*a and g'(u*)*u* = beta*kappa*a/b,
    so chi_hat = sigma*(sigma + kappa*a - 1) / (beta*kappa*(a/b)*(sigma - 1)).
    """
    return sigma * (sigma + kappa * a - 1.0) / (beta * kappa * (a / b) * (sigma - 1.0))


def power_envelope_l1_constant(a: float, b: float, theta: float) -> float:
    """max over s >= 0 of a - b*s**theta + s, the Gronwall constant of the L1 bound."""
    s_star = (1.0 / (b * theta)) ** (1.0 / (theta - 1.0))
    return a + s_star - b * s_star**theta


def sandwich(chi, a, b, kappa, ubar0, w0, times):
    """RK4 solution of the sandwich pair at the sorted ``times``.

        ubar' = chi*ubar*(ubar**kappa - w**kappa) + ubar*(a - b*ubar**kappa)
        w'    = -chi*w*(ubar**kappa - w**kappa)   + w*(a - b*w**kappa)

    Every argument but ``times`` may be an array; the pairs are integrated
    side by side.  Returns (ubar, w), each of shape (len(times),) + broadcast
    shape of the arguments.
    """
    chi, a, b = (np.asarray(x, dtype=float) for x in (chi, a, b))

    def rhs(ub, w):
        gap = ub**kappa - w**kappa
        return (
            chi * ub * gap + ub * (a - b * ub**kappa),
            -chi * w * gap + w * (a - b * w**kappa),
        )

    zero = 0.0 * (chi + a + b)
    ub = np.asarray(ubar0, dtype=float) + zero
    w = np.asarray(w0, dtype=float) + zero
    t = 0.0
    out_ub, out_w = [], []
    for target in times:
        while t < target:
            remaining = target - t
            dt = min(MAX_DT, remaining)
            k1u, k1w = rhs(ub, w)
            k2u, k2w = rhs(ub + 0.5 * dt * k1u, w + 0.5 * dt * k1w)
            k3u, k3w = rhs(ub + 0.5 * dt * k2u, w + 0.5 * dt * k2w)
            k4u, k4w = rhs(ub + dt * k3u, w + dt * k3w)
            ub = ub + dt / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
            w = w + dt / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
            t = float(target) if dt == remaining else t + dt
        out_ub.append(ub)
        out_w.append(w)
    return np.array(out_ub), np.array(out_w)
