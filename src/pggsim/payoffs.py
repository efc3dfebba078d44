"""Payoff formulas for the optional public goods game.

Three strategies: cooperators contribute c to a common pool multiplied by the
interest rate r, defectors participate without contributing, loners stay out
for a fixed payoff of 0. Participation itself costs g.

Two levels are covered: payoffs of a concrete played round, and expected
payoffs over group composition when coplayers are drawn from the population
frequencies (x, y, z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Below this participant mass the group has effectively no coplayers and no
# game takes place; all participant payoffs are 0.
_PARTICIPANT_EPS = 1e-12


@dataclass(frozen=True)
class PGGParams:
    """Game constants.

    M: population size; N: sample (group) size per round; c: contribution
    cost; r: interest rate on the pool; g: participation cost; u: mutation /
    exploration rate.
    """

    M: int = 100
    N: int = 5
    c: float = 1.0
    r: float = 3.0
    g: float = 0.5
    u: float = 1e-10

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"N must be at least 2, got N={self.N}")
        if self.M < self.N:
            raise ValueError(f"M must be at least N, got M={self.M} < N={self.N}")
        if not self.c > 0:
            raise ValueError(f"c must be positive, got c={self.c}")
        if self.g < 0:
            raise ValueError(f"g must be nonnegative, got g={self.g}")
        for name, v in (("c", self.c), ("g", self.g)):
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {name}={v}")
        if not (0.0 <= self.u <= 1.0):
            raise ValueError(f"u must be in [0, 1], got u={self.u}")
        if not (1.0 < self.r < self.N):
            raise ValueError(f"r must satisfy 1 < r < N, got r={self.r}, N={self.N}")


@dataclass(frozen=True)
class SimplexState:
    """Population frequencies (x, y, z) of cooperators, defectors, loners."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name, v in (("x", self.x), ("y", self.y), ("z", self.z)):
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"frequency {name} must be finite and >= 0, got {v}")
        total = self.x + self.y + self.z
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"frequencies must sum to 1 within 1e-9, got {total!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return self.x, self.y, self.z


@dataclass(frozen=True)
class PayoffProfile:
    """Per-strategy expected payoffs and the population average."""

    P_c: float
    P_d: float
    P_bar: float


def realized_payoffs(n_c: int, n_d: int, params: PGGParams) -> tuple[float, float]:
    """Per-member payoffs (cooperator, defector) of a played round, contributions shared among coplayers.

    Each cooperator's contribution c is multiplied by r and divided equally
    among the other S - 1 participants, so a member's benefit is
    r*c*(cooperating coplayers)/(S - 1). This is the division rule whose
    composition average equals expected_profile's P_d exactly.

    A round needs two participants: with S <= 1 no game takes place, and
    every member gets the stay-out payoff 0. Entries for strategies absent
    from the round are returned as 0.0 and carry no meaning.
    """
    s = n_c + n_d
    if s <= 1:
        return 0.0, 0.0
    rc = params.r * params.c
    p_c = rc * (n_c - 1) / (s - 1) - params.c - params.g if n_c > 0 else 0.0
    p_d = rc * n_c / (s - 1) - params.g if n_d > 0 else 0.0
    return p_c, p_d


def _expected_terms(params: PGGParams):
    """The raw-float (P_c, P_d) core of the ODE flow for one game, as a function of (x, z)."""
    n, c, r, g = params.N, params.c, params.r, params.g

    def terms(x: float, z: float) -> tuple[float, float]:
        no_coplayer = z ** (n - 1)
        active = 1.0 - z
        if active < _PARTICIPANT_EPS:
            p_d = 0.0
        else:
            coop_share = x / active
            if coop_share > 1.0:
                coop_share = 1.0
            p_d = (r * c * coop_share - g) * (1.0 - no_coplayer)
        return p_d - c * (1.0 - no_coplayer), p_d

    return terms


def _expected_terms_many(games, overflowed: np.ndarray):
    """Array twin of `_expected_terms` for a sequence of games: x, z and both
    results hold one element per game, and each element sees the same
    operations in the same order as the scalar form, r*c first.

    z**(N-1) is np.float_power, whose float64 loop calls libm `pow` once per
    element, as the scalar float power does; numpy's `**` (np.power) runs a
    SIMD loop that can differ from it in the last ulp. The results are
    therefore bitwise equal to the scalar form's wherever that form returns.
    Where a finite z gives an infinite power, the scalar power raises
    OverflowError; this form raises nothing, sets that game's element of the
    boolean array `overflowed` and returns a value the caller discards. Where
    active < _PARTICIPANT_EPS the division may divide by 0. The caller masks
    the warnings of both, and np.where discards the quotient.
    """
    exps = np.array([float(p.N - 1) for p in games])
    c, rc, g = (np.array(v) for v in zip(*((p.c, p.r * p.c, p.g) for p in games)))

    def terms(x, z):
        no_coplayer = np.float_power(z, exps)
        over = np.isinf(no_coplayer)
        if over.any():
            overflowed[over & np.isfinite(z)] = True
        some_coplayer = 1.0 - no_coplayer
        active = 1.0 - z
        coop_share = np.minimum(x / active, 1.0)
        p_d = np.where(active < _PARTICIPANT_EPS, 0.0, (rc * coop_share - g) * some_coplayer)
        return p_d - c * some_coplayer, p_d

    return terms


def expected_profile(state: SimplexState, params: PGGParams) -> PayoffProfile:
    """Expected payoffs of all three strategies plus the population average.

    P_d = (r*c*x/(1 - z) - g) * (1 - z**(N-1)) is the payoff of a defector
    whose N - 1 coplayers are drawn from the state: x/(1 - z) is the
    cooperator share among participants and z**(N-1) the probability of
    finding no coplayer; at z = 1 no game ever forms and P_d = 0.
    P_c = P_d - c*(1 - z**(N-1)) and P_bar = x*P_c + y*P_d, which
    coincides with average_payoff (the factored closed form) to rounding.
    """
    x, y, _ = state.as_tuple()
    p_c, p_d = _expected_terms(params)(state.x, state.z)
    return PayoffProfile(P_c=p_c, P_d=p_d, P_bar=x * p_c + y * p_d)


def average_payoff(state: SimplexState, params: PGGParams) -> float:
    """Population-average payoff in factored closed form.

    (1 - z**(N-1)) * ((r - 1)*c*x - (1 - z)*g); algebraically identical to the
    frequency-weighted sum of the per-strategy expected payoffs.
    """
    x, _, z = state.as_tuple()
    return (1.0 - z ** (params.N - 1)) * ((params.r - 1.0) * params.c * x - (1.0 - z) * params.g)
