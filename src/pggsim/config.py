"""Run configuration: defaults, aliases, and the one parser of `key = value` text.

Keys follow the model's parameter tables: M, N, t, g, c, r, u for the game;
s/w/beta, pr, pe for learning; n, p for the generated network; plus artifact
keys mode, density, dt, steps, x0/y0/z0, seed, out, plot.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .agent_sim import LearningParams, Population
from .dynamics import DynamicsKind, DynamicsMode
from .errors import ConfigError
from .network import GraphParams
from .payoffs import PGGParams, SimplexState

_ALIASES = {"s": "beta", "w": "beta"}

_MODES = {kind.value: kind for kind in DynamicsKind}


@dataclass(frozen=True)
class RunConfig:
    """One run's full parameter set, defaulting to the model's table values."""

    M: int = 100
    N: int = 5
    t: int = 10000
    g: float = 0.5
    c: float = 1.0
    r: float = 3.0
    u: float = 1e-10
    beta: float = 1.0
    pr: float = 1.0
    pe: float = 1e-3
    n: int = 100
    p: float = 0.1
    mode: str = "mutator"
    density: float = 1.0
    dt: float = 0.01
    steps: int = 100000
    x0: float = 0.9
    y0: float = 0.05
    z0: float = 0.05
    seed: int = 1
    out: str | None = None
    plot: bool = False

    def __post_init__(self):
        # reuse the domain types' validation so errors name the field
        try:
            self.pgg_params()
            self.learning_params()
            self.graph_params()
            self.dynamics_mode()
            self.initial_state()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.t < 0:
            raise ConfigError(f"t (generations) must be nonnegative, got {self.t}")
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.steps < 1:
            raise ConfigError(f"steps must be at least 1, got {self.steps}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.out is not None and not self.out.strip():
            raise ConfigError(f"out must name a file, got {self.out!r}")

    def pgg_params(self) -> PGGParams:
        return PGGParams(M=self.M, N=self.N, c=self.c, r=self.r, g=self.g, u=self.u)

    def learning_params(self) -> LearningParams:
        return LearningParams(beta=self.beta, pr=self.pr, pe=self.pe)

    def graph_params(self) -> GraphParams:
        return GraphParams(n=self.n, p=self.p, seed=self.seed)

    def dynamics_mode(self) -> DynamicsMode:
        if self.mode not in _MODES:
            raise ConfigError(
                f"mode must be one of {sorted(_MODES)}, got {self.mode!r}"
            )
        return DynamicsMode(kind=_MODES[self.mode], density=self.density)

    def initial_state(self) -> SimplexState:
        return SimplexState(self.x0, self.y0, self.z0)

    def initial_population(self) -> Population:
        return Population.from_fractions(self.M, self.x0, self.y0, self.z0)


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _parse_value(key: str, raw: str, prefix: str):
    """Parse raw as the type of key's default; `out`'s None default parses as a string."""
    text = raw.strip()
    kind = type(_FIELDS[key].default)
    try:
        if kind in (int, float):
            value = float(text)
            if not math.isfinite(value) or kind is int and not value.is_integer():
                raise ValueError
            # an integer literal is read exactly, also past 2**53; a form such as 1e3 is not
            return int(text) if kind is int and text.lstrip("+-").isdecimal() else kind(value)
        if kind is bool:
            lowered = text.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError
    except ValueError:
        raise ConfigError(f"{prefix}invalid value for {key}: {raw!r}") from None
    return text


def _fields(entries, parse) -> dict:
    """Values by field name from config-file lines and `--set`/`--grid` entries.

    Each entry is (`key = value` text, line), line None off a file; each value
    goes through `parse`. Aliases resolve to their field, unknown keys are
    reported together, and a key given twice, also through an alias, is an
    error.
    """
    values: dict = {}
    unknown: list[str] = []
    for entry, line in entries:
        prefix = f"line {line}: " if line else ""
        raw_key, sep, text = entry.partition("=")
        if not sep:
            raise ConfigError(f"{prefix}expected key = value, got {entry!r}")
        raw_key = raw_key.strip()
        key = _ALIASES.get(raw_key, raw_key)
        if key not in _FIELDS:
            unknown.append(f"{raw_key} (line {line})" if line else raw_key)
        elif key in values:
            raise ConfigError(f"{prefix}duplicate key {key!r}")
        else:
            values[key] = parse(key, text, prefix)
    if unknown:
        raise ConfigError("unknown config key: " + ", ".join(unknown))
    return values


def parse_grid(entries: list[str]) -> dict[str, list[tuple[str, object]]]:
    """("key=text", value) pairs by field name from `--grid key=v1,v2,...` entries."""
    def parse_items(key, text, prefix):
        return [(f"{key}={item.strip()}", _parse_value(key, item, prefix))
                for item in text.split(",")]

    return _fields(((entry, None) for entry in entries), parse_items)


def load_config(path: str | Path | None = None, entries: list[str] = (),
                grid: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional file plus `key=value` command-line entries.

    The file holds one `key = value` pair per line; `#` starts a comment.
    Entries are parsed like file lines and win over them. Unknown keys and
    duplicate keys are errors; so is any value violating a parameter
    invariant. A sweep's `grid` (`parse_grid`'s result) wins over both with
    each key's first value, so the config is the grid's first point: a value
    that every point replaces is never checked on its own.
    """
    values: dict = {}
    if path is not None:
        lines = []
        for lineno, raw_line in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw_line.split("#", 1)[0].strip()
            if line:
                lines.append((line, lineno))
        values = _fields(lines, _parse_value)
    values.update(_fields(((entry, None) for entry in entries), _parse_value))
    values.update((key, items[0][1]) for key, items in (grid or {}).items())
    return RunConfig(**values)
