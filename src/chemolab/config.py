"""Flat key=value configuration shared by every CLI subcommand.

The file format is UTF-8 text, one ``section.key = value`` per line, with
``#`` comments and blank lines allowed.  Keys are namespaced and closed:
anything outside the registry below is an error, so a typo never silently
falls back to a default.  Values are numbers (a tiny arithmetic grammar with
``pi`` and ``e`` is accepted, e.g. ``model.L = pi``), comma lists of numbers,
or bare words.
"""

from __future__ import annotations

import ast
import math
import operator

import numpy as np

from .errors import MissingKey, OutOfRange, UnknownKey
from .grid import Field, Grid, make_grid
from .model import Kinetics, ModelParams, build_params, make_kinetics

KNOWN_KEYS = {
    "model.chi", "model.a", "model.b", "model.theta", "model.kappa",
    "model.beta", "model.dim", "model.L", "model.lengths",
    "kinetics.f_kind", "kinetics.allee_c", "kinetics.poly_coeffs",
    "grid.nx", "grid.ny",
    "init.kind", "init.base", "init.amplitude", "init.mode",
    "run.horizon", "run.target", "run.eps", "run.rows", "run.snapshots",
    "steady.chi", "steady.chi_start", "steady.chi_stop", "steady.steps",
    "steady.mode", "steady.seed_fraction",
    "stability.u0", "stability.count",
    "stability.chi_lo", "stability.chi_hi", "stability.chi_samples",
    "stability.scan", "stability.scan_lo", "stability.scan_hi",
    "stability.scan_points",
    "compare.horizon", "compare.u0_min", "compare.u0_max", "compare.envelopes",
    "classify.dim",
    "sweep.command", "sweep.parameter", "sweep.start", "sweep.stop",
    "sweep.count", "sweep.parameter2", "sweep.start2", "sweep.stop2",
    "sweep.count2",
}

_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}
_NAMES = {"pi": math.pi, "e": math.e}


def eval_number(text: str) -> float:
    """Evaluate a constant arithmetic expression (numbers, + - * / **, pi, e)."""
    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id in _NAMES:
            return _NAMES[node.id]
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](walk(node.left), walk(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            val = walk(node.operand)
            return -val if isinstance(node.op, ast.USub) else val
        raise ValueError(f"unsupported expression: {text!r}")

    try:
        value = walk(ast.parse(text.strip(), mode="eval"))
    except (SyntaxError, ValueError, ArithmeticError) as exc:
        raise OutOfRange("value", f"cannot parse number {text!r}: {exc}") from exc
    if isinstance(value, complex):  # a negative base to a fractional power
        raise OutOfRange("value", f"{text!r} is not a real number")
    return value


def _whole(key: str, val: float) -> int:
    if not math.isfinite(val) or val != int(val):
        raise OutOfRange(key, f"expected an integer (got {val})")
    return int(val)


class Config:
    """Validated flat key/value map with typed accessors."""

    def __init__(self, entries: dict[str, str]):
        for key in entries:
            if key not in KNOWN_KEYS:
                raise UnknownKey(key)
        self.entries = dict(entries)

    @classmethod
    def parse(cls, text: str) -> "Config":
        entries: dict[str, str] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise OutOfRange("config", f"line {lineno} is not key = value: {raw!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            entries[key] = value.strip()
        return cls(entries)

    @classmethod
    def load(cls, path) -> "Config":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse(fh.read())

    def has(self, key: str) -> bool:
        return key in self.entries

    def raw(self, key: str, default: str | None = None) -> str:
        if key in self.entries:
            return self.entries[key]
        if default is not None:
            return default
        raise MissingKey(key)

    def number(self, key: str, default: float | None = None) -> float:
        if key not in self.entries:
            if default is not None:
                return default
            raise MissingKey(key)
        return eval_number(self.entries[key])

    def integer(self, key: str, default: int | None = None) -> int:
        return _whole(key, self.number(key, default=None if default is None else float(default)))

    def numbers(self, key: str) -> list[float]:
        return [eval_number(part) for part in self.raw(key).split(",")]

    def integers(self, key: str) -> list[int]:
        return [_whole(key, val) for val in self.numbers(key)]

    def flag(self, key: str, default: bool = False) -> bool:
        if key not in self.entries:
            return default
        return self.raw(key).lower() in ("1", "true", "yes", "on")


# ---------------------------------------------------------------------------
# object assembly
# ---------------------------------------------------------------------------


def params_from_config(cfg: Config) -> ModelParams:
    raw = {
        name: cfg.number(f"model.{name}")
        for name in ("chi", "a", "b", "theta", "kappa", "beta")
    }
    raw["dim"] = cfg.integer("model.dim")
    if cfg.has("model.lengths"):
        raw["lengths"] = cfg.numbers("model.lengths")
    elif cfg.has("model.L"):
        vals = cfg.numbers("model.L")
        raw["L"] = vals[0] if len(vals) == 1 else vals
    else:
        raise MissingKey("model.L")
    return build_params(raw)


def kinetics_from_config(cfg: Config, p: ModelParams) -> Kinetics:
    f_kind = cfg.raw("kinetics.f_kind", "generalized-logistic")
    poly = cfg.numbers("kinetics.poly_coeffs") if cfg.has("kinetics.poly_coeffs") else None
    return make_kinetics(
        p, f_kind, allee_c=cfg.number("kinetics.allee_c", 0.5), poly_coeffs=poly
    )


def grid_from_config(cfg: Config, p: ModelParams) -> Grid:
    """grid.nx cells along axis 0 and grid.ny (default nx) along every later axis."""
    nx = cfg.integer("grid.nx")
    return make_grid(p, [nx] + [cfg.integer("grid.ny", nx) for _ in range(1, p.dim)])


def initial_field(cfg: Config, grid: Grid, seed: int = 0) -> Field:
    """Initial density: constant, cosine bump, or seeded uniform noise.

    cosine:  base + amplitude * prod(cos(mode_i*pi*x_i/L_i)), init.mode = 1 per
             axis by default, a missing trailing mode_i is 0
    random:  base * (1 + amplitude * uniform(-1, 1)), seeded
    """
    kind = cfg.raw("init.kind", "constant")
    base = cfg.number("init.base", 1.0)
    amplitude = cfg.number("init.amplitude", 0.0)
    if kind == "constant":
        return Field.constant(grid, base)
    if kind == "cosine":
        modes = cfg.integers("init.mode") if cfg.has("init.mode") else [1] * grid.dim
        if len(modes) > grid.dim:
            raise OutOfRange(
                "init.mode", f"more entries ({len(modes)}) than grid axes ({grid.dim})"
            )
        return Field(np.full(grid.shape, base) + amplitude * grid.cosine_product(modes), grid)
    if kind == "random":
        rng = np.random.default_rng(seed)
        noise = rng.uniform(-1.0, 1.0, size=grid.shape)
        return Field(base * (1.0 + amplitude * noise), grid)
    raise OutOfRange("init.kind", f"must be constant, cosine or random (got {kind})")
