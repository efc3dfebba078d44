"""Deterministic trajectory diagnostics: time averages, oscillation counts, fixation, distance.

A trajectory is anything with a `frequencies` array of shape (n, 3) and,
for `trajectory_distance`, a `times` grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# A deterministic trajectory never reaches a vertex exactly in finite time,
# so fixation is a threshold call.
_ODE_FIXATION = 1.0 - 1e-6


@dataclass(frozen=True)
class TrajectoryStats:
    """Per-strategy summary over a trailing window of a trajectory."""

    time_means: tuple[float, float, float]
    oscillation_counts: tuple[int, int, int]
    fixated: int | None
    amplitude: tuple[float, float, float]


def _mean_crossings(series: np.ndarray) -> int:
    """Number of times the series crosses its own mean.

    Samples sitting exactly on the mean are skipped, so a touch-and-return
    does not count but a pass-through does.
    """
    signs = np.sign(series - series.mean())
    signs = signs[signs != 0]
    if len(signs) < 2:
        return 0
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def window_rows(n: int, window: float) -> int:
    """How many trailing samples of an n-sample trajectory `stats` reads for `window`."""
    return max(1, math.ceil(window * n))


def stats(traj, window: float = 1.0) -> TrajectoryStats:
    """Summary statistics over the trailing `window` fraction of the trajectory.

    Means, amplitudes (max - min), and mean-crossing oscillation counts are
    computed inside the window; fixation is judged at the final sample of the
    full trajectory.
    """
    if not (0.0 < window <= 1.0):
        raise ValueError(f"window must be in (0, 1], got {window}")
    freqs = np.asarray(traj.frequencies, dtype=float)
    if freqs.size == 0:
        raise ValueError("trajectory is empty")
    n = len(freqs)
    tail = freqs[n - window_rows(n, window):]

    means = tail.mean(axis=0)
    amplitude = tail.max(axis=0) - tail.min(axis=0)
    crossings = tuple(_mean_crossings(tail[:, i]) for i in range(3))

    final = freqs[-1]
    winner = int(np.argmax(final))
    fixated = winner if final[winner] > _ODE_FIXATION else None

    return TrajectoryStats(
        time_means=tuple(float(v) for v in means),
        oscillation_counts=crossings,
        fixated=fixated,
        amplitude=tuple(float(v) for v in amplitude),
    )


def trajectory_distance(a, b) -> float:
    """Mean L1 distance between two trajectories on the same sample grid."""
    if not np.array_equal(a.times, b.times):
        raise ValueError("trajectories must share an identical sample grid")
    fa = np.asarray(a.frequencies, dtype=float)
    fb = np.asarray(b.frequencies, dtype=float)
    return float(np.mean(np.abs(fa - fb).sum(axis=1)))
