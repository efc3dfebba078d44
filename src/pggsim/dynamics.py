"""Deterministic dynamics on the 3-simplex of strategy frequencies.

Three vector fields (pure selection, selection plus uniform exploration, and
the exploration term rescaled by a network-density factor) and a fixed-step
classical 4th-order integrator. The fixed step keeps trajectory files
bit-for-bit reproducible across runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError
from .payoffs import PGGParams, SimplexState, _expected_terms

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
            if x < _NEG_TOL or y < _NEG_TOL or z < _NEG_TOL:
                raise IntegrationError(
                    f"state left the simplex at step {step}: ({x!r}, {y!r}, {z!r})", step
                )
            x = max(x, 0.0)
            y = max(y, 0.0)
            z = max(z, 0.0)
            total = x + y + z
            x /= total
            y /= total
            z /= total

        times[step] = step * dt
        freqs[step] = (x, y, z)

    return Trajectory(times=times, frequencies=freqs)
