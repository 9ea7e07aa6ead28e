"""Norms, monitor exponents, and exponential-rate fitting shared by all modules."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveValues, OutOfRange
from .grid import Field, Grid, cell_sums


def lp_norm(field: Field, p: float) -> float:
    """Midpoint-rule Lp norm, (sum |u|**p h**n)**(1/p); max-abs for p = inf."""
    if p == math.inf or p == np.inf:
        return float(np.max(np.abs(field.values)))
    if not p >= 1:
        raise OutOfRange("p", f"exponent must be >= 1 or inf (got {p})")
    return lp_norms(field.values, field.grid, p)[0]


def lp_norms(values: np.ndarray, grid: Grid, p: float) -> list[float]:
    """lp_norm of each field along a leading batch axis, finite p >= 1.

    The root is taken per field in float arithmetic: numpy's vectorised pow
    can differ from the scalar pow in the last bit, and a field's norm must
    not depend on its batch.
    """
    sums = np.ravel(cell_sums(np.abs(values) ** p, grid)).tolist()
    return [(s * grid.cell_volume) ** (1.0 / p) for s in sums]


@dataclass(frozen=True)
class SeriesFit:
    """Log-linear least-squares fit over a trailing window of a time series."""

    rate: float
    window: tuple[float, float]
    residual: float
    n_points: int


def fit_exponential_decay(
    times, values, window_fraction: float = 0.5
) -> SeriesFit:
    """Least squares on (t, ln value) over the trailing window.

    The fitted ``rate`` is the slope (negative for decay); ``residual`` is the
    root-mean-square misfit of the log-linear model, reported so a bad fit is
    never silent.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise OutOfRange("series", "times and values must be equal-length 1D")
    if np.any(y <= 0.0):
        raise NonPositiveValues("series contains nonpositive values")
    if not 0 < window_fraction <= 1:
        raise OutOfRange("window_fraction", f"must be in (0, 1] (got {window_fraction})")
    t_cut = t[-1] - window_fraction * (t[-1] - t[0])
    mask = t >= t_cut
    if int(mask.sum()) < 10:
        raise OutOfRange("window", f"need >= 10 points in window (got {int(mask.sum())})")
    tw, yw = t[mask], np.log(y[mask])
    slope, intercept = np.polyfit(tw, yw, 1)
    resid = yw - (slope * tw + intercept)
    return SeriesFit(
        rate=float(slope),
        window=(float(tw[0]), float(tw[-1])),
        residual=float(np.sqrt(np.mean(resid**2))),
        n_points=int(mask.sum()),
    )
