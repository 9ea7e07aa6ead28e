"""Model parameters, growth/secretion kinetics, and the parameter-regime classifier.

The simulated system is

    u_t = div(grad u - chi * u * grad v) + f(u)
    0   = lap v - v + g(u)

with zero-flux boundaries.  ``ModelParams`` holds every scalar: the
sensitivity ``chi``, the damping envelope ``(a, b, theta)`` bounding the
growth source from above by ``a - b*u**theta``, and the secretion pair
``(beta, kappa)`` with ``g(u) = beta * u**kappa``.  ``Kinetics`` turns a
named growth-function family into evaluators with derivatives, zeros and a
verified damping envelope.  ``classify_regime`` evaluates every known
parameter condition (boundedness, borderline, global convergence, pattern
onset) and reports each inequality with the numbers substituted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DissipativityFail,
    MissingKey,
    NoZeroFound,
    OutOfRange,
    UnknownKey,
)

F_KINDS = ("generalized-logistic", "power-envelope", "allee", "polynomial")

# Tolerances pinned by the contracts in this module.
EQUALITY_RTOL = 1e-12      # regime conditions testing exact parameter equalities
ZERO_ATOL = 1e-12          # |f(z)| at reported zeros whose bracket did not close
ZERO_SCAN_SAMPLES = 4096   # uniform pre-scan before bisection
DISSIPATIVITY_GRID = 256   # log-spaced sample pairs per side of the equilibrium

# Axis names of a simulated domain; their count bounds ModelParams.dim and Grid.
AXIS_NAMES = ("x", "y", "z")
MAX_DIM = len(AXIS_NAMES)


@dataclass(frozen=True)
class ModelParams:
    """All scalar parameters of the system.

    chi     chemotactic sensitivity, > 0
    a       growth envelope constant, >= 0
    b       damping constant, > 0
    theta   damping exponent, > 1 strictly
    kappa   secretion exponent, > 0
    beta    secretion coefficient, > 0
    dim     spatial dimension, 1 to MAX_DIM (3)
    lengths domain side lengths, one per axis, > 0
    """

    chi: float
    a: float
    b: float
    theta: float
    kappa: float
    beta: float
    dim: int
    lengths: tuple[float, ...]

    def __post_init__(self):
        if not self.chi > 0:
            raise OutOfRange("chi", f"must be > 0 (got {self.chi})")
        if not self.a >= 0:
            raise OutOfRange("a", f"must be >= 0 (got {self.a})")
        if not self.b > 0:
            raise OutOfRange("b", f"must be > 0 (got {self.b})")
        if not self.theta > 1:
            raise OutOfRange("theta", f"must be > 1 strictly (got {self.theta})")
        if not self.kappa > 0:
            raise OutOfRange("kappa", f"must be > 0 (got {self.kappa})")
        if not self.beta > 0:
            raise OutOfRange("beta", f"must be > 0 (got {self.beta})")
        if not 1 <= self.dim <= MAX_DIM:
            raise OutOfRange("dim", f"must be 1 to {MAX_DIM} (got {self.dim})")
        object.__setattr__(self, "lengths", tuple(float(L) for L in self.lengths))
        if len(self.lengths) != self.dim:
            raise OutOfRange(
                "lengths", f"need {self.dim} entries (got {len(self.lengths)})"
            )
        if any(not L > 0 for L in self.lengths):
            raise OutOfRange("lengths", f"all sides must be > 0 (got {self.lengths})")

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    @property
    def equilibrium(self) -> float:
        """Positive equilibrium (a/b)**(1/kappa) of the u(a - b*u**kappa) family."""
        return (self.a / self.b) ** (1.0 / self.kappa)


_REQUIRED_KEYS = ("chi", "a", "b", "theta", "kappa", "beta", "dim")


def build_params(raw: dict) -> ModelParams:
    """Validate a key/value map into ModelParams.

    Domain lengths come in either as ``lengths`` (sequence) or ``L``
    (scalar applied to every axis, or sequence).
    """
    raw = dict(raw)
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise MissingKey(key)
    if "lengths" in raw:
        lengths = raw.pop("lengths")
    elif "L" in raw:
        lengths = raw.pop("L")
    else:
        raise MissingKey("lengths (or L)")
    dim = int(raw["dim"])
    if isinstance(lengths, (int, float)):
        lengths = (float(lengths),) * max(dim, 1)
    extras = set(raw) - set(_REQUIRED_KEYS)
    if extras:
        raise UnknownKey(sorted(extras)[0])
    return ModelParams(
        chi=float(raw["chi"]),
        a=float(raw["a"]),
        b=float(raw["b"]),
        theta=float(raw["theta"]),
        kappa=float(raw["kappa"]),
        beta=float(raw["beta"]),
        dim=dim,
        lengths=tuple(float(L) for L in lengths),
    )


@dataclass(frozen=True)
class EnvelopeCheck:
    ok: bool
    worst_violation: float
    at: float


def _check_envelope(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    theta: float,
    n_samples: int,
    scale: float,
) -> EnvelopeCheck:
    """Sample f(s) - (a - b*s**theta) on (0, S_max] plus s = 0.

    S_max doubles until the damping term dominates the growth function, so any
    asymptotic violation lands inside the sampled range.
    """
    if n_samples < 100:
        raise OutOfRange("n_samples", f"must be >= 100 (got {n_samples})")
    s_max = max(1.0, 4.0 * scale)
    for _ in range(60):
        if b * s_max**theta >= 2.0 * (abs(float(f(np.array([s_max]))[0])) + a + 1.0):
            break
        s_max *= 2.0
    samples = np.concatenate([[0.0], np.geomspace(1e-9, s_max, n_samples - 1)])
    diff = f(samples) - (a - b * samples**theta)
    i = int(np.argmax(diff))
    return EnvelopeCheck(bool(diff[i] <= 0.0), float(diff[i]), float(samples[i]))


@dataclass(frozen=True)
class Kinetics:
    """A growth function family plus the power secretion g(u) = beta*u**kappa.

    ``coeffs`` holds the family parameters: (a, b) for generalized-logistic
    u*(a - b*u**kappa) and power-envelope a - b*u**theta, the Allee root c for
    u*(1-u)*(u-c), or the ascending coefficient list of a polynomial.
    ``envelope`` is a verified triple (a_env, b_env, theta_env) with
    f(s) <= a_env - b_env*s**theta_env for all s >= 0.
    """

    f_kind: str
    coeffs: tuple[float, ...]
    exponent: float
    beta: float
    kappa: float
    envelope: tuple[float, float, float] = field(default=(0.0, 0.0, 0.0))

    def __post_init__(self):
        if self.f_kind not in F_KINDS:
            raise OutOfRange("f_kind", f"must be one of {F_KINDS} (got {self.f_kind})")
        if not self.beta > 0:
            raise OutOfRange("beta", f"must be > 0 (got {self.beta})")
        if not self.kappa > 0:
            raise OutOfRange("kappa", f"must be > 0 (got {self.kappa})")
        f0 = float(self.f(np.array([0.0]))[0])
        if not f0 >= 0:
            raise OutOfRange("f(0)", f"must be >= 0 (got {f0})")
        if self.envelope == (0.0, 0.0, 0.0):
            object.__setattr__(self, "envelope", self._build_envelope())
        a_env, b_env, th_env = self.envelope
        check = _check_envelope(
            self.f, a_env, b_env, th_env, 512, (max(a_env, 1.0) / b_env) ** (1 / th_env)
        )
        if not check.ok:
            raise OutOfRange(
                "envelope",
                f"f(s) <= {a_env} - {b_env}*s**{th_env} violated by "
                f"{check.worst_violation} at s = {check.at}",
            )

    # -- growth function ---------------------------------------------------

    def f(self, u):
        return growth(self.f_kind, self.coeffs, self.exponent, np.asarray(u, dtype=float))

    def f_prime(self, u):
        return growth_prime(self.f_kind, self.coeffs, self.exponent, np.asarray(u, dtype=float))

    # -- secretion ---------------------------------------------------------

    def g(self, u):
        u = np.asarray(u, dtype=float)
        return self.beta * u**self.kappa

    def g_prime(self, u):
        u = np.asarray(u, dtype=float)
        return self.beta * self.kappa * u ** (self.kappa - 1.0)

    # -- envelope construction ----------------------------------------------

    def _build_envelope(self) -> tuple[float, float, float]:
        if self.f_kind == "power-envelope":
            a, b = self.coeffs
            return (a, b, self.exponent)
        if self.f_kind == "generalized-logistic":
            a, b = self.coeffs
            kap = self.exponent
            b_env, th_env = b / 2.0, kap + 1.0
            if a == 0.0:
                a_env = 0.0
            else:
                s_star = (2.0 * a / (b * (kap + 1.0))) ** (1.0 / kap)
                a_env = a * s_star * kap / (kap + 1.0)
            return (a_env + 1e-12 * (1.0 + abs(a_env)), b_env, th_env)
        if self.f_kind == "allee":
            (c,) = self.coeffs
            # f + s**3/2 = -s**3/2 + (1+c)s**2 - c*s, maximize over s >= 0
            surplus = (0.0, -c, 1.0 + c, -0.5)
            return (_poly_max(surplus) + 1e-12, 0.5, 3.0)
        coeffs = self.coeffs
        deg = len(coeffs) - 1
        if deg < 2 or not coeffs[-1] < 0:
            raise OutOfRange(
                "coeffs",
                "polynomial growth needs degree >= 2 with negative leading "
                f"coefficient (got {list(coeffs)})",
            )
        b_env = abs(coeffs[-1]) / 2.0
        surplus = list(coeffs)
        surplus[-1] = surplus[-1] + b_env
        return (_poly_max(tuple(surplus)) + 1e-12, b_env, float(deg))


def growth(f_kind: str, coeffs, exponent: float, u: np.ndarray) -> np.ndarray:
    """The growth function f(u) of a Kinetics family (see Kinetics.coeffs).

    Each coefficient may be a float or an array that broadcasts against u,
    such as one column per field of a batch; the exponent is a float.
    """
    if f_kind == "generalized-logistic":
        a, b = coeffs
        return a * u - b * u ** (exponent + 1.0)
    if f_kind == "power-envelope":
        a, b = coeffs
        return a - b * u**exponent
    if f_kind == "allee":
        (c,) = coeffs
        return u * (1.0 - u) * (u - c)
    return np.polynomial.polynomial.polyval(u, coeffs, tensor=False)


def growth_prime(f_kind: str, coeffs, exponent: float, u: np.ndarray) -> np.ndarray:
    """f'(u), with the coefficients and exponent of growth."""
    if f_kind == "generalized-logistic":
        a, b = coeffs
        return a - b * (exponent + 1.0) * u**exponent
    if f_kind == "power-envelope":
        a, b = coeffs
        return -b * exponent * u ** (exponent - 1.0)
    if f_kind == "allee":
        (c,) = coeffs
        return -3.0 * u**2 + 2.0 * (1.0 + c) * u - c
    dcoef = np.polynomial.polynomial.polyder(coeffs)
    return np.polynomial.polynomial.polyval(u, dcoef, tensor=False)


def _poly_max(coeffs: tuple[float, ...]) -> float:
    """Max of a polynomial with negative leading coefficient over s >= 0."""
    dcoef = np.polynomial.polynomial.polyder(coeffs)
    roots = np.polynomial.polynomial.polyroots(dcoef)
    crit = [0.0] + [float(r.real) for r in roots if abs(r.imag) < 1e-12 and r.real > 0]
    vals = np.polynomial.polynomial.polyval(np.array(crit), coeffs)
    return float(np.max(vals))


def make_kinetics(
    p: ModelParams,
    f_kind: str = "generalized-logistic",
    allee_c: float = 0.5,
    poly_coeffs: Sequence[float] | None = None,
) -> Kinetics:
    """Build the named growth family from the model parameters.

    generalized-logistic uses (p.a, p.b, p.kappa), power-envelope uses
    (p.a, p.b, p.theta); the secretion is always beta*u**kappa.
    """
    if f_kind == "generalized-logistic":
        return Kinetics(f_kind, (p.a, p.b), p.kappa, p.beta, p.kappa)
    if f_kind == "power-envelope":
        return Kinetics(f_kind, (p.a, p.b), p.theta, p.beta, p.kappa)
    if f_kind == "allee":
        return Kinetics(f_kind, (float(allee_c),), 3.0, p.beta, p.kappa)
    if f_kind == "polynomial":
        if not poly_coeffs:
            raise MissingKey("poly_coeffs")
        coeffs = tuple(float(c) for c in poly_coeffs)
        return Kinetics(f_kind, coeffs, float(len(coeffs) - 1), p.beta, p.kappa)
    raise OutOfRange("f_kind", f"must be one of {F_KINDS} (got {f_kind})")


# ---------------------------------------------------------------------------
# zeros of the growth function
# ---------------------------------------------------------------------------


def growth_zeros(
    k: Kinetics, upper: float | None = None, atol: float = ZERO_ATOL
) -> tuple[list[float], float]:
    """Nonnegative zeros of f found by sign-change bracketing plus bisection.

    Returns the sorted zero list and its last entry (the largest zero).
    The scan uses ZERO_SCAN_SAMPLES uniform samples on [0, upper].  The
    default bound is four times (a_env/b_env)**(1/theta_env): every zero z
    satisfies b_env*z**theta_env <= a_env under the verified envelope, so
    this covers all of them while keeping the sampling dense.  A zero is
    reported when |f| < atol there or its bisection bracket closed to
    adjacent floats; NoZeroFound otherwise.
    """
    if upper is None:
        a_env, b_env, th_env = k.envelope
        upper = max(1e-12, 4.0 * (max(a_env, 1e-30) / b_env) ** (1.0 / th_env))
    if not upper > 0:
        raise OutOfRange("upper", f"search bound must be > 0 (got {upper})")
    xs = np.linspace(0.0, float(upper), ZERO_SCAN_SAMPLES)
    fs = k.f(xs)
    # (zero, proven): an exact zero sample or a bracket closed by bisection
    # proves the root whatever the rounding error of f there.
    zeros: list[tuple[float, bool]] = []
    for i in range(len(xs)):
        if fs[i] == 0.0:
            zeros.append((float(xs[i]), True))
    # Sign changes between consecutive nonzero samples; samples that are
    # exactly zero would otherwise mask a crossing right next to them.
    nz = np.flatnonzero(fs != 0.0)
    for i, j in zip(nz[:-1], nz[1:]):
        if fs[i] * fs[j] < 0.0:
            zeros.append(_bisect(k.f, float(xs[i]), float(xs[j])))
    zeros.sort()
    merged: list[tuple[float, bool]] = []
    merge_tol = max(atol, 1e-9 * upper)
    for z, proven in zeros:
        if not merged or z - merged[-1][0] > merge_tol:
            merged.append((z, proven))
    if not merged:
        raise NoZeroFound(f"f has no nonnegative zero below {upper}")
    bad = [
        z for z, proven in merged
        if not proven and abs(float(k.f(np.array([z]))[0])) >= atol
    ]
    if bad:
        raise NoZeroFound(f"bisection failed to polish zeros near {bad}")
    return [z for z, _ in merged], merged[-1][0]


def _bisect(f, lo: float, hi: float) -> tuple[float, bool]:
    """Bisect a sign change of f on [lo, hi].

    The flag is True when an exact zero was hit or the bracket closed to
    adjacent floats, so the sign change pins the root to the last ulp.
    """
    flo = float(f(np.array([lo]))[0])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid, True
        fm = float(f(np.array([mid]))[0])
        if fm == 0.0:
            return mid, True
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi), False


# ---------------------------------------------------------------------------
# envelope and dissipativity checks
# ---------------------------------------------------------------------------


def verify_growth_envelope(
    k: Kinetics, a: float, b: float, theta: float, n_samples: int = 512
) -> EnvelopeCheck:
    """Sampled check of f(s) <= a - b*s**theta for all s >= 0.

    Pure check: returns the verdict and the worst (largest) value of
    f(s) - (a - b*s**theta) over the samples, never raises on violation.
    """
    scale = (max(a, 1.0) / b) ** (1.0 / theta)
    return _check_envelope(k.f, a, b, theta, n_samples, scale)


def check_strong_dissipativity(
    k: Kinetics,
    chi: float,
    kappa: float,
    z_j: float,
    zeros: Sequence[float] | None = None,
    n_samples: int = DISSIPATIVITY_GRID,
) -> float:
    """Margin eta0 in f(s)/s - f(r)/r <= -(2*chi + eta0)*(s**kappa - r**kappa).

    The supremum of the difference quotient is taken over pairs r <= z_j <= s
    bracketing the equilibrium between its neighbouring zeros (log-spaced
    distances on each side).  For the generalized-logistic family the quotient
    is identically -b, so the closed form b - 2*chi is returned directly.
    Raises DissipativityFail when the margin is nonpositive.
    """
    if not z_j > 0:
        raise OutOfRange("z_j", f"equilibrium must be > 0 (got {z_j})")
    if k.f_kind == "generalized-logistic" and kappa == k.exponent:
        _, b = k.coeffs
        eta0 = b - 2.0 * chi
        if eta0 <= 0.0:
            raise DissipativityFail(eta0, z_j / 2.0, z_j * 2.0)
        return eta0
    if zeros is None:
        zeros, _ = growth_zeros(k)
    below = [z for z in zeros if z < z_j - 1e-9 * z_j]
    above = [z for z in zeros if z > z_j + 1e-9 * z_j]
    left = below[-1] if below else 0.0
    right = above[0] if above else 8.0 * z_j
    d_r = np.geomspace(1e-8 * z_j, (z_j - left) * (1.0 - 1e-12), n_samples)
    d_s = np.geomspace(1e-8 * z_j, (right - z_j) * (1.0 - 1e-12), n_samples)
    r = z_j - d_r
    s = z_j + d_s
    qr = (k.f(r) / r)[:, None]
    qs = (k.f(s) / s)[None, :]
    quot = (qs - qr) / (s[None, :] ** kappa - r[:, None] ** kappa)
    i, j = np.unravel_index(np.argmax(quot), quot.shape)
    eta0 = -2.0 * chi - float(quot[i, j])
    if eta0 <= 0.0:
        raise DissipativityFail(eta0, float(r[i]), float(s[j]))
    return eta0


# ---------------------------------------------------------------------------
# regime classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    tag: str
    condition: str
    satisfied: bool
    data: tuple = ()


@dataclass(frozen=True)
class RegimeReport:
    verdicts: tuple[Verdict, ...]

    def satisfied_tags(self) -> list[str]:
        return [v.tag for v in self.verdicts if v.satisfied]

    def __contains__(self, tag: str) -> bool:
        return tag in self.satisfied_tags()


def _almost_equal(x: float, y: float) -> bool:
    return abs(x - y) <= EQUALITY_RTOL * max(1.0, abs(x), abs(y))


def classify_regime(p: ModelParams, k: Kinetics, dim: int | None = None) -> RegimeReport:
    """Evaluate every known parameter condition and report each verdict.

    Tags are not mutually exclusive.  Equality conditions use relative
    tolerance EQUALITY_RTOL and the condition string carries the signed
    margin.  ``dim`` overrides the spatial dimension in the inequalities
    only (the formulas are valid for any n >= 1); the pattern-onset check
    always uses the params' own domain geometry.
    """
    n = p.dim if dim is None else int(dim)
    if n < 1:
        raise OutOfRange("dim", f"must be >= 1 (got {n})")
    verdicts: list[Verdict] = []

    ok = p.kappa < 2.0 / n
    verdicts.append(
        Verdict(
            "SublinearSecretion",
            f"kappa < 2/n: {p.kappa:g} < {2.0 / n:g} -> {ok}",
            ok,
        )
    )

    ok = p.theta - p.kappa > 1.0
    verdicts.append(
        Verdict(
            "Subcritical",
            f"theta - kappa > 1: {p.theta:g} - {p.kappa:g} = {p.theta - p.kappa:g} -> {ok}",
            ok,
        )
    )

    threshold = (p.kappa * n - 2.0) / (p.kappa * n) * p.beta * p.chi
    crit_margin = p.theta - (p.kappa + 1.0)
    on_line = _almost_equal(p.theta, p.kappa + 1.0)
    b_margin = p.b - threshold

    ok = on_line and p.b > threshold and not _almost_equal(p.b, threshold)
    verdicts.append(
        Verdict(
            "StrictBorderlineInequality",
            f"theta = kappa+1 (margin {crit_margin:.3e}) and "
            f"b > (kappa*n-2)/(kappa*n)*beta*chi: {p.b:g} > {threshold:g} "
            f"(margin {b_margin:.3e}) -> {ok}",
            ok,
        )
    )

    g_exact_power = True  # secretion is beta*u**kappa by construction
    ok = on_line and _almost_equal(p.b, threshold) and g_exact_power
    verdicts.append(
        Verdict(
            "Borderline",
            f"theta = kappa+1 (margin {crit_margin:.3e}) and "
            f"b = (kappa*n-2)/(kappa*n)*beta*chi: {p.b:g} vs {threshold:g} "
            f"(margin {b_margin:.3e}) and g = beta*u**kappa -> {ok}",
            ok,
        )
    )

    unit_secretion = _almost_equal(k.beta, 1.0)
    ok = (
        k.f_kind == "generalized-logistic"
        and unit_secretion
        and p.b > 2.0 * p.chi
        and not _almost_equal(p.b, 2.0 * p.chi)
    )
    verdicts.append(
        Verdict(
            "GloballyConvergent",
            f"f = u*(a - b*u**kappa) [{k.f_kind}] and g = u**kappa "
            f"(beta = {k.beta:g}) and b > 2*chi: {p.b:g} > {2.0 * p.chi:g} -> {ok}",
            ok,
        )
    )

    verdicts.append(_pattern_verdict(p, k))

    any_ok = any(v.satisfied for v in verdicts)
    verdicts.append(
        Verdict("Unclassified", f"no condition satisfied -> {not any_ok}", not any_ok)
    )
    return RegimeReport(tuple(verdicts))


def _pattern_verdict(p: ModelParams, k: Kinetics) -> Verdict:
    # Deferred import: stability builds on this module.
    from . import stability

    try:
        zeros, _ = growth_zeros(k)
    except NoZeroFound:
        zeros = []
    positive = [z for z in zeros if z > 0]
    chi_hats: list[float] = []
    detail = []
    for u0 in positive:
        eq = stability.equilibrium_info(k, u0)
        rows = stability.bifurcation_table(eq, p.lengths, count=4)
        vals = [row.chi_hat for row in rows]
        chi_hats.extend(vals)
        detail.append(f"u0 = {u0:.6g}: chi_hat = {[f'{v:.6g}' for v in vals]}")
    ok = bool(chi_hats)
    cond = (
        "equilibria with pattern thresholds: " + "; ".join(detail)
        if detail
        else "no positive equilibrium with pattern thresholds"
    )
    return Verdict("PatternCapableAt", cond + f" -> {ok}", ok, tuple(chi_hats))
