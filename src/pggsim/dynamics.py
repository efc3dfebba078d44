"""Deterministic dynamics on the 3-simplex of strategy frequencies.

Three vector fields (pure selection, selection plus uniform exploration, and
the exploration term rescaled by a network-density factor), which differ only
in the exploration rate `_effective_mu` picks, and a fixed-step classical
4th-order integrator whose fixed step keeps trajectory files reproducible.

One flow (`_flow`) and one RK4 step (`_rk4`) serve floats and numpy arrays
alike. `integrate` steps one run with Python floats; `integrate_tails` keeps
the trailing samples of runs that share (dt, steps) and steps a large group
as numpy arrays, one element per run, bitwise equal to `integrate`. In both a
step fails when its state has a NaN component or one below -1e-12, or when
one of its stages overflows.
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


def _flow(terms, mu):
    """The flow (x, y, z) -> (dx, dy, dz) of `terms(x, z) -> (P_c, P_d)` and exploration rate mu.

    Selection x_i*(P_i - P_bar) plus exploration mu*(1 - x_i) - 2*mu*x_i, on
    floats or elementwise on numpy arrays. P_bar is accumulated as
    x*P_c + y*P_d (loners pay 0) so the three components cancel exactly and
    the flow stays tangent to the simplex.
    """
    two_mu = 2.0 * mu

    def flow(x, y, z):
        p_c, p_d = terms(x, z)
        p_bar = x * p_c + y * p_d
        return (x * (p_c - p_bar) + mu * (1.0 - x) - two_mu * x,
                y * (p_d - p_bar) + mu * (1.0 - y) - two_mu * y,
                z * (0.0 - p_bar) + mu * (1.0 - z) - two_mu * z)

    return flow


def _rk4(flow, dt: float):
    """One classical RK4 step of `flow` with step size dt, as a function of (x, y, z)."""
    half = dt / 2.0
    sixth = dt / 6.0

    def step(x, y, z):
        ax, ay, az = flow(x, y, z)
        bx, by, bz = flow(x + half * ax, y + half * ay, z + half * az)
        cx, cy, cz = flow(x + half * bx, y + half * by, z + half * bz)
        ex, ey, ez = flow(x + dt * cx, y + dt * cy, z + dt * cz)
        return (x + sixth * (ax + 2.0 * (bx + cx) + ex),
                y + sixth * (ay + 2.0 * (by + cy) + ey),
                z + sixth * (az + 2.0 * (bz + cz) + ez))

    return step


def _effective_mu(params: PGGParams, mode: DynamicsMode) -> float:
    if mode.kind is DynamicsKind.REPLICATOR:
        return 0.0
    if mode.kind is DynamicsKind.REPLICATOR_MUTATOR:
        return params.u
    return params.u * mode.density


def _scalar_flow(params: PGGParams, mode: DynamicsMode):
    """The flow of one run on Python floats."""
    return _flow(_expected_terms(params), _effective_mu(params, mode))


_REPLICATOR = DynamicsMode(DynamicsKind.REPLICATOR)
_MUTATOR = DynamicsMode(DynamicsKind.REPLICATOR_MUTATOR)


def replicator_rhs(state: SimplexState, params: PGGParams) -> tuple[float, float, float]:
    """Pure selection: each frequency grows at its payoff advantage over the average."""
    return _scalar_flow(params, _REPLICATOR)(state.x, state.y, state.z)


def mutator_rhs(state: SimplexState, params: PGGParams) -> tuple[float, float, float]:
    """Selection plus exploration at rate params.u toward the other two strategies."""
    return _scalar_flow(params, _MUTATOR)(state.x, state.y, state.z)


def network_scaled_rhs(
    state: SimplexState, params: PGGParams, density: float
) -> tuple[float, float, float]:
    """Selection plus exploration with the exploration rate scaled by a network density in [0, 1].

    density=1 reproduces mutator_rhs and density=0 reproduces replicator_rhs
    exactly; only the product density*u enters the flow.
    """
    mode = DynamicsMode(DynamicsKind.NETWORK_SCALED_MUTATOR, density)
    return _scalar_flow(params, mode)(state.x, state.y, state.z)


def integrate(initial: SimplexState, params: PGGParams, mode: DynamicsMode,
              dt: float, steps: int) -> Trajectory:
    """Fixed-step classical RK4 trajectory of steps+1 samples including the start.

    After each step, components in [-1e-12, 0) are clamped to 0 and the state
    renormalized; a NaN or more negative component, or a stage that
    overflows, raises IntegrationError with the step index.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")

    rk4 = _rk4(_scalar_flow(params, mode), dt)
    x, y, z = initial.as_tuple()

    freqs = np.empty((steps + 1, 3))
    freqs[0] = (x, y, z)

    try:
        for step in range(1, steps + 1):
            x, y, z = rk4(x, y, z)
            if not (x >= 0.0 and y >= 0.0 and z >= 0.0):
                x, y, z = _clamp(step, x, y, z)
            freqs[step] = (x, y, z)
    except OverflowError as exc:
        raise IntegrationError(f"state left the simplex at step {step}: a stage overflowed",
                               step) from exc

    return Trajectory(times=np.arange(steps + 1) * dt, frequencies=freqs)


def _clamp(step: int, x: float, y: float, z: float) -> tuple[float, float, float]:
    """The state after a step that left the simplex: components in [-1e-12, 0)
    are clamped to 0 and the state renormalized; a NaN or more negative
    component raises IntegrationError with the step index."""
    if not (x >= _NEG_TOL and y >= _NEG_TOL and z >= _NEG_TOL):
        raise IntegrationError(f"state left the simplex at step {step}: ({x!r}, {y!r}, {z!r})",
                               step)
    x, y, z = max(x, 0.0), max(y, 0.0), max(z, 0.0)
    total = x + y + z
    return x / total, y / total, z / total


# A group of at least this many runs is integrated in lockstep. Measured on a
# 2-core AVX-512 host (Python 3.11, numpy 2.4) with 2000 steps: a lockstep step
# costs about 150 us plus about 1 us per run, the scalar `integrate` about 5 us
# per run and step. The two broke even between 24 and 32 runs; a single run in
# lockstep was about 30 times slower.
_LOCKSTEP_MIN_RUNS = 32


def integrate_tails(runs: list[tuple[SimplexState, PGGParams, DynamicsMode]],
                    dt: float, steps: int, keep: int) -> list[Trajectory | IntegrationError]:
    """`integrate` of each (initial, params, mode) run, keeping its last `keep` samples.

    Each result is a Trajectory with its own contiguous (keep, 3) array, or the
    IntegrationError that `integrate` raises for that run, whichever way the
    group runs: in lockstep from _LOCKSTEP_MIN_RUNS runs on (run by run again
    if libm `pow` overflows in one of them), else one `integrate` per run.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    if not 1 <= keep <= steps + 1:
        raise ValueError(f"keep must be in [1, steps + 1], got {keep}")

    if len(runs) >= _LOCKSTEP_MIN_RUNS:
        try:
            return _integrate_lockstep(runs, dt, steps, keep)
        except OverflowError:
            pass  # the lockstep cannot tell which run overflowed; the scalar path can
    results = []
    for run in runs:
        try:
            traj = integrate(*run, dt, steps)
        except IntegrationError as exc:
            results.append(exc)
        else:
            results.append(Trajectory(traj.times[-keep:].copy(), traj.frequencies[-keep:].copy()))
    return results


def _integrate_lockstep(runs: list[tuple[SimplexState, PGGParams, DynamicsMode]],
                        dt: float, steps: int, keep: int) -> list[Trajectory | IntegrationError]:
    """`integrate_tails` of every run at once, on checked arguments.

    Each run is one element of the arrays that the same `_rk4` step of the
    same `_flow` works on, through `_expected_terms_many`, so each kept
    sample is bitwise equal to `integrate`'s. A run that leaves the simplex
    is frozen at its last valid state from then on. An overflowing libm `pow`
    raises OverflowError for the whole group, which cannot tell in which run
    it happened.
    """
    initials, params, modes = zip(*runs)
    x, y, z = (np.array(column) for column in zip(*(s.as_tuple() for s in initials)))
    mu = np.array([_effective_mu(p, m) for p, m in zip(params, modes)])
    rk4 = _rk4(_flow(_expected_terms_many(params), mu), dt)

    first = steps + 1 - keep
    tail = np.empty((len(runs), keep, 3))
    if first == 0:
        tail[:, 0] = np.column_stack((x, y, z))
    failed: dict[int, IntegrationError] = {}

    # A run in the no-game branch divides by active == 0, and a failed run's
    # step may overflow; both values are discarded, so their warnings are too.
    with np.errstate(all="ignore"):
        for step in range(1, steps + 1):
            nx, ny, nz = rk4(x, y, z)
            for k in np.flatnonzero(~((nx >= 0.0) & (ny >= 0.0) & (nz >= 0.0))).tolist():
                if k not in failed:
                    try:
                        nx[k], ny[k], nz[k] = _clamp(step, float(nx[k]), float(ny[k]), float(nz[k]))
                        continue
                    except IntegrationError as exc:
                        failed[k] = exc
                nx[k], ny[k], nz[k] = x[k], y[k], z[k]

            x, y, z = nx, ny, nz
            if step >= first:
                tail[:, step - first] = np.column_stack((x, y, z))

    times = np.arange(first, steps + 1) * dt
    return [failed[k] if k in failed else Trajectory(times=times, frequencies=tail[k])
            for k in range(len(runs))]
