"""Model parameters, growth/secretion kinetics, and the parameter-regime classifier.

The simulated system is

    u_t = div(grad u - chi * u * grad v) + f(u)
    0   = lap v - v + g(u)

with zero-flux boundaries.  ``ModelParams`` holds every scalar: the
sensitivity ``chi``, the damping envelope ``(a, b, theta)`` bounding the
growth source from above by ``a - b*u**theta``, and the secretion pair
``(beta, kappa)`` with ``g(u) = beta * u**kappa``.  ``Kinetics`` turns a
named growth-function family into evaluators with derivatives and a
damping envelope; it is the one description of f.  ``growth_zeros`` gives
f's zeros, and the positive equilibrium of every command is the largest.
Both envelope and zeros are exact by construction: closed forms, or the
companion-matrix roots of a polynomial, never a sampled scan.
``classify_regime`` evaluates every known parameter condition (boundedness,
borderline, global convergence, pattern onset) and reports each inequality
with the numbers substituted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DissipativityFail, MissingKey, OutOfRange, UnknownKey

# The growth families a Kinetics evaluates.  make_kinetics also takes
# "allee", the cubic u*(1-u)*(u-c), which it builds as a polynomial.
FAMILIES = ("generalized-logistic", "power-envelope", "polynomial")
F_KINDS = ("generalized-logistic", "power-envelope", "allee", "polynomial")

# Tolerances pinned by the contracts in this module.
EQUALITY_RTOL = 1e-12      # regime conditions testing exact parameter equalities
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


_REQUIRED_KEYS = ("chi", "a", "b", "theta", "kappa", "beta", "dim")


def build_params(raw: dict) -> ModelParams:
    """Validate a key/value map into ModelParams.

    The domain lengths come in as ``L``: one value for every axis, or a
    sequence with one per axis.
    """
    raw = dict(raw)
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise MissingKey(key)
    if "L" not in raw:
        raise MissingKey("L")
    lengths = raw.pop("L")
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
class Kinetics:
    """A growth function family plus the power secretion g(u) = beta*u**kappa.

    ``coeffs`` holds the family parameters: (a, b) for generalized-logistic
    u*(a - b*u**kappa) and power-envelope a - b*u**theta, or the ascending
    coefficient list of a polynomial.  ``envelope`` is the triple
    (a_env, b_env, theta_env) with f(s) <= a_env - b_env*s**theta_env for
    all s >= 0, exact by construction from the family (see _build_envelope).
    """

    f_kind: str
    coeffs: tuple[float, ...]
    exponent: float
    beta: float
    kappa: float
    envelope: tuple[float, float, float] = field(init=False)

    def __post_init__(self):
        if self.f_kind not in FAMILIES:
            raise OutOfRange("f_kind", f"must be one of {FAMILIES} (got {self.f_kind})")
        if not self.beta > 0:
            raise OutOfRange("beta", f"must be > 0 (got {self.beta})")
        if not self.kappa > 0:
            raise OutOfRange("kappa", f"must be > 0 (got {self.kappa})")
        f0 = float(self.f(np.array([0.0]))[0])
        if not f0 >= 0:
            raise OutOfRange("f(0)", f"must be >= 0 (got {f0})")
        object.__setattr__(self, "envelope", self._build_envelope())

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
        """The envelope triple, exact by construction.  Power-envelope: the
        envelope is f itself.  Logistic: a_env is the maximum of
        a*s - (b/2)*s**(kappa+1), taken at s* = (2a/(b(kappa+1)))**(1/kappa),
        plus a relative slack of 1e-12.  Polynomial: a_env is _poly_max of
        the surplus f + b_env*s**deg, plus 1e-12.  Any maximum on s > 0 is a
        root of odd multiplicity of the surplus's derivative; complex
        companion eigenvalues come in conjugate pairs, so at least one
        eigenvalue there comes back exactly real, and _poly_max keeps it."""
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
    return np.polynomial.polynomial.polyval(u, coeffs, tensor=False)


def growth_prime(f_kind: str, coeffs, exponent: float, u: np.ndarray) -> np.ndarray:
    """f'(u), with the coefficients and exponent of growth."""
    if f_kind == "generalized-logistic":
        a, b = coeffs
        return a - b * (exponent + 1.0) * u**exponent
    if f_kind == "power-envelope":
        a, b = coeffs
        return -b * exponent * u ** (exponent - 1.0)
    dcoef = np.polynomial.polynomial.polyder(coeffs)
    return np.polynomial.polynomial.polyval(u, dcoef, tensor=False)


def _real_roots(coeffs) -> list[float]:
    """Real roots of a polynomial in ascending coefficients: its companion
    eigenvalues with |imag| < 1e-12."""
    roots = np.polynomial.polynomial.polyroots(coeffs)
    return [float(r.real) for r in roots if abs(r.imag) < 1e-12]


def _poly_max(coeffs: tuple[float, ...]) -> float:
    """Max of a polynomial with negative leading coefficient over s >= 0."""
    dcoef = np.polynomial.polynomial.polyder(coeffs)
    crit = [0.0] + [r for r in _real_roots(dcoef) if r > 0]
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
    (p.a, p.b, p.theta), and allee is the polynomial u*(1-u)*(u-c) with
    coefficients (0, -c, 1+c, -1); the secretion is always beta*u**kappa.
    """
    if f_kind == "generalized-logistic":
        return Kinetics(f_kind, (p.a, p.b), p.kappa, p.beta, p.kappa)
    if f_kind == "power-envelope":
        return Kinetics(f_kind, (p.a, p.b), p.theta, p.beta, p.kappa)
    if f_kind == "allee":
        c = float(allee_c)
        f_kind, poly_coeffs = "polynomial", (0.0, -c, 1.0 + c, -1.0)
    if f_kind == "polynomial":
        if not poly_coeffs:
            raise MissingKey("poly_coeffs")
        coeffs = tuple(float(c) for c in poly_coeffs)
        return Kinetics(f_kind, coeffs, float(len(coeffs) - 1), p.beta, p.kappa)
    raise OutOfRange("f_kind", f"must be one of {F_KINDS} (got {f_kind})")


# ---------------------------------------------------------------------------
# zeros of the growth function
# ---------------------------------------------------------------------------


def growth_zeros(k: Kinetics) -> tuple[list[float], float]:
    """Nonnegative zeros of f, exact by construction, sorted, and the
    largest one, the positive equilibrium of the model.

    Logistic u*(a - b*u**kappa): 0 and (a/b)**(1/kappa), or only 0 when
    a = 0.  Power-envelope a - b*u**theta: (a/b)**(1/theta).  Polynomial: 0
    when the constant coefficient is 0, plus the distinct positive real
    roots (_real_roots) of the rest once its zero low-order coefficients go.
    f(0) > 0 leaves a positive root of odd multiplicity, and complex
    eigenvalues come in conjugate pairs, so one there comes back exactly
    real.  Eigenvalues are accurate to about eps times the largest root
    modulus: OutOfRange when every positive root is below that.
    """
    if k.f_kind == "generalized-logistic":
        a, b = k.coeffs
        zeros = [0.0] if a == 0.0 else [0.0, (a / b) ** (1.0 / k.exponent)]
    elif k.f_kind == "power-envelope":
        a, b = k.coeffs
        zeros = [(a / b) ** (1.0 / k.exponent)]
    else:
        lowest = next(i for i, c in enumerate(k.coeffs) if c != 0.0)
        positive = {r for r in _real_roots(k.coeffs[lowest:]) if r > 0}
        zeros = ([0.0] if lowest else []) + sorted(positive)
        if not zeros:
            raise OutOfRange("poly_coeffs", f"positive zeros of f too small to resolve: {k.coeffs}")
    return zeros, zeros[-1]


# ---------------------------------------------------------------------------
# dissipativity check
# ---------------------------------------------------------------------------


def check_strong_dissipativity(k: Kinetics, chi: float, z_j: float) -> float:
    """Margin eta0 in f(s)/s - f(r)/r <= -(2*chi*beta + eta0)*(s**kappa - r**kappa),
    kappa and beta the secretion exponent and factor k.kappa and k.beta.

    The supremum of the difference quotient is taken over pairs r <= z_j <= s
    bracketing the equilibrium between its neighbouring zeros
    (DISSIPATIVITY_GRID log-spaced distances on each side).  For the
    generalized-logistic family the quotient is identically -b, so the
    closed form b - 2*chi*beta is returned directly.  Raises DissipativityFail
    when the margin is nonpositive.
    """
    if not z_j > 0:
        raise OutOfRange("z_j", f"equilibrium must be > 0 (got {z_j})")
    kappa = k.kappa
    chi = chi * k.beta
    if k.f_kind == "generalized-logistic" and kappa == k.exponent:
        _, b = k.coeffs
        eta0 = b - 2.0 * chi
        if eta0 <= 0.0:
            raise DissipativityFail(eta0, z_j / 2.0, z_j * 2.0)
        return eta0
    zeros, _ = growth_zeros(k)
    below = [z for z in zeros if z < z_j - 1e-9 * z_j]
    above = [z for z in zeros if z > z_j + 1e-9 * z_j]
    left = below[-1] if below else 0.0
    right = above[0] if above else 8.0 * z_j
    d_r = np.geomspace(1e-8 * z_j, (z_j - left) * (1.0 - 1e-12), DISSIPATIVITY_GRID)
    d_s = np.geomspace(1e-8 * z_j, (right - z_j) * (1.0 - 1e-12), DISSIPATIVITY_GRID)
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
    always uses the params' own domain geometry.  b and theta are read
    from f's leading term -b*u**theta, since only power-envelope growth
    reads p.theta and polynomial growth reads neither p.b nor p.theta.
    """
    n = p.dim if dim is None else int(dim)
    if n < 1:
        raise OutOfRange("dim", f"must be >= 1 (got {n})")
    b = -k.coeffs[-1] if k.f_kind == "polynomial" else k.coeffs[1]
    theta = k.exponent + 1.0 if k.f_kind == "generalized-logistic" else k.exponent
    verdicts: list[Verdict] = []

    f_zero = not any(k.coeffs)  # each family's f is 0 exactly when all its coefficients are
    ok = p.kappa < 2.0 / n and f_zero
    verdicts.append(
        Verdict(
            "SublinearSecretion",
            f"kappa < 2/n: {p.kappa:g} < {2.0 / n:g} and f = 0 [{k.f_kind}]: {f_zero} -> {ok}",
            ok,
        )
    )

    ok = theta - p.kappa > 1.0
    verdicts.append(
        Verdict(
            "Subcritical",
            f"theta - kappa > 1: {theta:g} - {p.kappa:g} = {theta - p.kappa:g} -> {ok}",
            ok,
        )
    )

    threshold = (p.kappa * n - 2.0) / (p.kappa * n) * p.beta * p.chi
    crit_margin = theta - (p.kappa + 1.0)
    on_line = _almost_equal(theta, p.kappa + 1.0)
    b_margin = b - threshold

    ok = on_line and b > threshold and not _almost_equal(b, threshold)
    verdicts.append(
        Verdict(
            "StrictBorderlineInequality",
            f"theta = kappa+1 (margin {crit_margin:.3e}) and "
            f"b > (kappa*n-2)/(kappa*n)*beta*chi: {b:g} > {threshold:g} "
            f"(margin {b_margin:.3e}) -> {ok}",
            ok,
        )
    )

    # g = beta*u**kappa holds by construction of Kinetics
    ok = on_line and _almost_equal(b, threshold)
    verdicts.append(
        Verdict(
            "Borderline",
            f"theta = kappa+1 (margin {crit_margin:.3e}) and "
            f"b = (kappa*n-2)/(kappa*n)*beta*chi: {b:g} vs {threshold:g} "
            f"(margin {b_margin:.3e}) and g = beta*u**kappa -> {ok}",
            ok,
        )
    )

    # v -> v/beta leaves chi*beta as the only sensitivity
    bound = 2.0 * p.chi * p.beta
    ok = k.f_kind == "generalized-logistic" and b > bound and not _almost_equal(b, bound)
    verdicts.append(
        Verdict(
            "GloballyConvergent",
            f"f = u*(a - b*u**kappa) [{k.f_kind}] and g = beta*u**kappa "
            f"and b > 2*chi*beta: {b:g} > {bound:g} -> {ok}",
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

    zeros, _ = growth_zeros(k)
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
