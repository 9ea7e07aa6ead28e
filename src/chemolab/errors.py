"""Exception types shared across the package.

Every error that a caller is expected to branch on gets its own class;
generic misuse raises ValueError like any other numpy-adjacent code.
"""

import copyreg


class ChemolabError(Exception):
    """Base class for all package-specific errors."""

    def __reduce__(self):
        # rebuild from args and attributes, not through each class's own __init__
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ConfigError(ChemolabError):
    """Base class for configuration problems (maps to CLI exit code 1)."""


class MissingKey(ConfigError):
    def __init__(self, key):
        super().__init__(f"missing required key: {key}")
        self.key = key


class UnknownKey(ConfigError):
    def __init__(self, key):
        super().__init__(f"unknown config key: {key}")
        self.key = key


class OutOfRange(ConfigError):
    """A parameter violates its range invariant; message names the invariant."""

    def __init__(self, name, message):
        super().__init__(f"{name}: {message}")
        self.name = name
        self.reason = message


class DissipativityFail(ChemolabError):
    """Strong dissipativity margin came out nonpositive.

    Carries the (r, s) pair realizing the worst difference quotient.
    """

    def __init__(self, eta0, r, s):
        super().__init__(
            f"dissipativity margin {eta0:.6g} <= 0 at pair (r, s) = ({r:.6g}, {s:.6g})"
        )
        self.eta0 = eta0
        self.pair = (r, s)


class NoConvergence(ChemolabError):
    """An iterative solver ran out of iterations.

    ``best`` holds the last iterate where that makes sense (for
    ``steady.solve_stationary`` a SteadyState with its iteration counts),
    ``history`` the residual-norm trace.
    """

    def __init__(self, message, best=None, history=None):
        super().__init__(message)
        self.best = best
        self.history = history or []


class NonpositiveV(ChemolabError):
    """The chemical field must be strictly positive for this operation."""


class NegativeOvershoot(ChemolabError):
    """The cell density went more negative than the resolution guard allows."""


class StalledDt(ChemolabError):
    """The adaptive time step collapsed below the hard floor."""


class UndefinedForThisChi(ChemolabError):
    """The linearization eigenvalues are complex at this sensitivity."""


class NotOnPlusBranch(ChemolabError):
    """The requested mode eigenvalue is never attained by the growing branch."""


class InvariantBreach(ChemolabError):
    """An analytically guaranteed ordering failed along an ODE trajectory."""


class ZUnbounded(ChemolabError):
    """The upper envelope ODE escaped to infinity (hypotheses fail).

    Carries ``t``, the time at which the envelope reached the cap.
    """

    def __init__(self, message, t):
        super().__init__(message)
        self.t = t


class NonPositiveValues(ChemolabError):
    """Log-linear fitting needs strictly positive data."""
