"""Deterministic dynamics on the 3-simplex of strategy frequencies.

Three vector fields (pure selection, selection plus uniform exploration, and
the exploration term rescaled by a network-density factor) and a fixed-step
classical 4th-order integrator. The fixed step keeps trajectory files
bit-for-bit reproducible across runs.

`integrate` steps one run with Python floats. `integrate_lockstep` steps a
group of runs that share (dt, steps) with numpy arrays, one element per run,
keeping only each run's trailing samples; its samples are bitwise equal to
`integrate`'s, and `integrate` is the reference its tests compare against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError
from .payoffs import PGGParams, SimplexState, _expected_terms, _expected_terms_many

_NEG_TOL = -1e-12


class DynamicsKind(enum.Enum):
    REPLICATOR = "replicator"
    REPLICATOR_MUTATOR = "mutator"
    NETWORK_SCALED_MUTATOR = "network"


@dataclass(frozen=True)
class DynamicsMode:
    """Vector-field selection; density rescales the exploration term and is
    only consulted by the network-scaled kind."""

    kind: DynamicsKind = DynamicsKind.REPLICATOR_MUTATOR
    density: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.density <= 1.0):
            raise ValueError(f"density must be in [0, 1], got {self.density}")


@dataclass(frozen=True)
class Trajectory:
    """Time grid plus an (n, 3) array of simplex states, one row per sample."""

    times: np.ndarray
    frequencies: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


def _rhs(x: float, y: float, z: float, params: PGGParams, mu: float) -> tuple[float, float, float]:
    """Selection flow x_i*(P_i - P_bar) plus exploration mu*(1 - x_i) - 2*mu*x_i.

    P_bar is accumulated as x*P_c + y*P_d (loners pay 0) so the three
    components cancel exactly and the flow stays tangent to the simplex.
    """
    p_c, p_d = _expected_terms(x, z, params.N, params.c, params.r, params.g)
    p_bar = x * p_c + y * p_d
    dx = x * (p_c - p_bar) + mu * (1.0 - x) - 2.0 * mu * x
    dy = y * (p_d - p_bar) + mu * (1.0 - y) - 2.0 * mu * y
    dz = z * (0.0 - p_bar) + mu * (1.0 - z) - 2.0 * mu * z
    return dx, dy, dz


def replicator_rhs(state: SimplexState, params: PGGParams) -> tuple[float, float, float]:
    """Pure selection: each frequency grows at its payoff advantage over the average."""
    return _rhs(state.x, state.y, state.z, params, 0.0)


def mutator_rhs(state: SimplexState, params: PGGParams) -> tuple[float, float, float]:
    """Selection plus exploration at rate params.u toward the other two strategies."""
    return _rhs(state.x, state.y, state.z, params, params.u)


def network_scaled_rhs(
    state: SimplexState, params: PGGParams, density: float
) -> tuple[float, float, float]:
    """Selection plus exploration with the exploration rate scaled by a network density in [0, 1].

    density=1 reproduces mutator_rhs and density=0 reproduces replicator_rhs
    exactly; only the product density*u enters the flow.
    """
    if not (0.0 <= density <= 1.0):
        raise ValueError(f"density must be in [0, 1], got {density}")
    return _rhs(state.x, state.y, state.z, params, params.u * density)


def _effective_mu(params: PGGParams, mode: DynamicsMode) -> float:
    if mode.kind is DynamicsKind.REPLICATOR:
        return 0.0
    if mode.kind is DynamicsKind.REPLICATOR_MUTATOR:
        return params.u
    return params.u * mode.density


def integrate(
    initial: SimplexState,
    params: PGGParams,
    mode: DynamicsMode,
    dt: float,
    steps: int,
) -> Trajectory:
    """Fixed-step classical RK4 trajectory of steps+1 samples including the start.

    After each step, components in [-1e-12, 0) are clamped to 0 and the state
    renormalized; anything more negative raises IntegrationError with the step
    index.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")

    mu = _effective_mu(params, mode)
    x, y, z = initial.as_tuple()

    times = np.empty(steps + 1)
    freqs = np.empty((steps + 1, 3))
    times[0] = 0.0
    freqs[0] = (x, y, z)

    sixth = dt / 6.0
    half = dt / 2.0
    for step in range(1, steps + 1):
        ax, ay, az = _rhs(x, y, z, params, mu)
        bx, by, bz = _rhs(x + half * ax, y + half * ay, z + half * az, params, mu)
        cx, cy, cz = _rhs(x + half * bx, y + half * by, z + half * bz, params, mu)
        ex, ey, ez = _rhs(x + dt * cx, y + dt * cy, z + dt * cz, params, mu)
        x += sixth * (ax + 2.0 * (bx + cx) + ex)
        y += sixth * (ay + 2.0 * (by + cy) + ey)
        z += sixth * (az + 2.0 * (bz + cz) + ez)

        if x < 0.0 or y < 0.0 or z < 0.0:
            x, y, z = _clamp(step, x, y, z)

        times[step] = step * dt
        freqs[step] = (x, y, z)

    return Trajectory(times=times, frequencies=freqs)


def _clamp(step: int, x: float, y: float, z: float) -> tuple[float, float, float]:
    """The state after a step that left the simplex: components in [-1e-12, 0)
    are clamped to 0 and the state renormalized; anything more negative raises
    IntegrationError with the step index."""
    if x < _NEG_TOL or y < _NEG_TOL or z < _NEG_TOL:
        raise IntegrationError(
            f"state left the simplex at step {step}: ({x!r}, {y!r}, {z!r})", step
        )
    x = max(x, 0.0)
    y = max(y, 0.0)
    z = max(z, 0.0)
    total = x + y + z
    return x / total, y / total, z / total


def integrate_lockstep(
    runs: list[tuple[SimplexState, PGGParams, DynamicsMode]],
    dt: float,
    steps: int,
    keep: int,
) -> list[Trajectory | IntegrationError]:
    """`integrate` of every (initial, params, mode) run at once, keeping the last `keep` samples.

    Each run is one element of the state and parameter arrays, and every
    operation of `_rhs` and `_expected_terms` is applied elementwise in the
    same order (see `_expected_terms_many`), so each kept sample is bitwise
    equal to `integrate`'s. A run that leaves the simplex is frozen at its
    last valid state from then on, and its result is the IntegrationError
    that `integrate` raises for it; the other results are Trajectories of the
    last `keep` samples, each with its own contiguous (keep, 3) array.
    The cost per step is nearly independent of len(runs), so this pays only
    for groups of some tens of runs.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    if not 1 <= keep <= steps + 1:
        raise ValueError(f"keep must be in [1, steps + 1], got {keep}")

    initials, params, modes = zip(*runs)
    x, y, z = (np.array(column) for column in zip(*(s.as_tuple() for s in initials)))
    exps = [p.N - 1 for p in params]
    c = np.array([p.c for p in params])
    rc = np.array([p.r * p.c for p in params])
    g = np.array([p.g for p in params])
    mu = np.array([_effective_mu(p, m) for p, m in zip(params, modes)])
    two_mu = 2.0 * mu

    def rhs(x, y, z):
        p_c, p_d = _expected_terms_many(x, z, exps, c, rc, g)
        p_bar = x * p_c + y * p_d
        dx = x * (p_c - p_bar) + mu * (1.0 - x) - two_mu * x
        dy = y * (p_d - p_bar) + mu * (1.0 - y) - two_mu * y
        dz = z * (0.0 - p_bar) + mu * (1.0 - z) - two_mu * z
        return dx, dy, dz

    first = steps + 1 - keep
    tail = np.empty((len(runs), keep, 3))
    if first == 0:
        tail[:, 0] = np.column_stack((x, y, z))
    failed: dict[int, IntegrationError] = {}

    sixth = dt / 6.0
    half = dt / 2.0
    # A run in the no-game branch divides by active == 0, and a failed run's
    # step may overflow; both values are discarded, so their warnings are too.
    with np.errstate(all="ignore"):
        for step in range(1, steps + 1):
            ax, ay, az = rhs(x, y, z)
            bx, by, bz = rhs(x + half * ax, y + half * ay, z + half * az)
            cx, cy, cz = rhs(x + half * bx, y + half * by, z + half * bz)
            ex, ey, ez = rhs(x + dt * cx, y + dt * cy, z + dt * cz)
            nx = x + sixth * (ax + 2.0 * (bx + cx) + ex)
            ny = y + sixth * (ay + 2.0 * (by + cy) + ey)
            nz = z + sixth * (az + 2.0 * (bz + cz) + ez)

            for k in np.flatnonzero((nx < 0.0) | (ny < 0.0) | (nz < 0.0)).tolist():
                if k not in failed:
                    try:
                        nx[k], ny[k], nz[k] = _clamp(step, float(nx[k]), float(ny[k]), float(nz[k]))
                        continue
                    except IntegrationError as exc:
                        failed[k] = exc
                nx[k], ny[k], nz[k] = x[k], y[k], z[k]

            x, y, z = nx, ny, nz
            if step >= first:
                row = step - first
                tail[:, row, 0] = x
                tail[:, row, 1] = y
                tail[:, row, 2] = z

    times = np.arange(first, steps + 1) * dt
    return [failed[k] if k in failed else Trajectory(times=times, frequencies=tail[k])
            for k in range(len(runs))]
