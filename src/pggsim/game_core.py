"""Minimal 2x2 bimatrix game kit.

Expected payoffs under mixed strategies, outcome probability grids, and the
closed-form mixed equilibrium for the symmetric family
``((b, a), (c, c); (c, c), (a, b))`` with payoff levels a > b > c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MixedStrategy2:
    """Mixed strategy over two pure strategies: the first with probability p, the second with q.

    Both weights are given, so a pair like (1/3, 2/3) stays exact instead of
    rounding through the complement.
    """

    p: float
    q: float

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0) or not math.isfinite(self.p):
            raise ValueError(f"strategy weight p must be in [0, 1], got {self.p}")
        if not (0.0 <= self.q <= 1.0) or abs(self.p + self.q - 1.0) > 1e-12:
            raise ValueError(f"weights must satisfy p + q = 1, got ({self.p}, {self.q})")

    def probs(self) -> tuple[float, float]:
        return self.p, self.q


@dataclass(frozen=True)
class Matrix2x2:
    """Bimatrix game: cell (i, j) pays row[i, j] to the row player and col[i, j] to the column player."""

    row: np.ndarray
    col: np.ndarray

    def __post_init__(self):
        row = np.asarray(self.row, dtype=float)
        col = np.asarray(self.col, dtype=float)
        if row.shape != (2, 2) or col.shape != (2, 2):
            raise ValueError("payoff matrices must be 2x2")
        if not (np.isfinite(row).all() and np.isfinite(col).all()):
            raise ValueError("payoffs must be finite")
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "col", col)

    @classmethod
    def abc_game(cls, a: float, b: float, c: float) -> "Matrix2x2":
        """Symmetric-role game ((b,a),(c,c);(c,c),(a,b)) parameterized by levels a, b, c."""
        return cls(row=[[b, c], [c, a]], col=[[a, c], [c, b]])


def outcome_distribution(row: MixedStrategy2, col: MixedStrategy2) -> np.ndarray:
    """Probability of each of the four outcomes under independent mixing.

    Cell (i, j) is prob_row(i) * prob_col(j); the four cells sum to 1.
    """
    r = np.asarray(row.probs())
    c = np.asarray(col.probs())
    return np.outer(r, c)


def expected_payoffs(m: Matrix2x2, row: MixedStrategy2, col: MixedStrategy2) -> tuple[float, float]:
    """Expected payoff pair (row player, column player) under mixed play."""
    dist = outcome_distribution(row, col)
    return float(np.sum(dist * m.row)), float(np.sum(dist * m.col))


def mixed_equilibrium_abc(a: float, b: float, c: float) -> float:
    """Mixed-equilibrium weight (b - c) / (a + b - 2c) for the abc_game family.

    The row player puts this weight on its first pure strategy; the column
    player puts it on its second (see equilibrium_profile_abc). Requires
    b - c > 0, a + b - 2c > 0, a + b - 2c > b - c, and a > c; all four hold
    whenever a > b > c.
    """
    if not (b - c > 0):
        raise ValueError(f"requires b - c > 0, got b - c = {b - c}")
    if not (a + b - 2 * c > 0):
        raise ValueError(f"requires a + b - 2c > 0, got a + b - 2c = {a + b - 2 * c}")
    if not (a + b - 2 * c > b - c):
        raise ValueError(f"requires a + b - 2c > b - c, i.e. a > c, got a - c = {a - c}")
    if not (a > c):
        raise ValueError(f"requires a > c, got a - c = {a - c}")
    return (b - c) / (a + b - 2 * c)


def equilibrium_profile_abc(a: float, b: float, c: float) -> tuple[MixedStrategy2, MixedStrategy2]:
    """Full mixed-equilibrium profile for abc_game(a, b, c).

    Returns (row strategy, column strategy). The column player's first-strategy
    weight is the mirrored (a - c)/(a + b - 2c) = 1 - sigma, which makes the
    row player indifferent between its two pure strategies (and vice versa).
    Both weights of each strategy are computed as direct quotients so pairs
    like (1/3, 2/3) come out exact.
    """
    sigma = mixed_equilibrium_abc(a, b, c)
    mirror = (a - c) / (a + b - 2 * c)
    return MixedStrategy2(sigma, mirror), MixedStrategy2(mirror, sigma)
