"""Standalone SVG rendering of simplex trajectories.

Frequencies (x, y, z) are projected barycentrically into an equilateral
triangle whose corners are the pure cooperator (C, blue), defector (D, red),
and loner (L, yellow) states.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

_WIDTH = 420.0
_HEIGHT = 400.0
# equilateral triangle with a horizontal base
_CORNER_C = (210.0, 45.551)
_CORNER_D = (40.0, 340.0)
_CORNER_L = (380.0, 340.0)
_COLORS = {"C": "blue", "D": "red", "L": "yellow"}
_MAX_POINTS = 4000


def plot_simplex(traj, out: str | Path) -> None:
    """Write the trajectory to `out` as an SVG polyline inside a labeled triangle."""
    freqs = np.asarray(traj.frequencies, dtype=float)
    if freqs.size == 0:
        raise ValueError("trajectory is empty")
    if len(freqs) > _MAX_POINTS:
        keep = np.unique(np.linspace(0, len(freqs) - 1, _MAX_POINTS).astype(int))
        freqs = freqs[keep]
    points = freqs @ np.array([_CORNER_C, _CORNER_D, _CORNER_L])

    triangle = " ".join(
        f"{px:.2f},{py:.2f}" for px, py in (_CORNER_C, _CORNER_D, _CORNER_L)
    )
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">',
        f'<polygon points="{triangle}" fill="none" stroke="#999" stroke-width="1"/>',
    ]
    for label, (cx, cy) in (("C", _CORNER_C), ("D", _CORNER_D), ("L", _CORNER_L)):
        color = _COLORS[label]
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="4" fill="{color}"/>')
        ty = cy - 10 if label == "C" else cy + 20
        parts.append(
            f'<text x="{cx:.2f}" y="{ty:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16" fill="{color}">{label}</text>'
        )
    if len(points) == 1:
        px, py = points[0]
        parts.append(f'<circle cx="{px:.3f}" cy="{py:.3f}" r="3" fill="#333"/>')
    else:
        coords = " ".join(f"{px:.3f},{py:.3f}" for px, py in points)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="#333" stroke-width="1"/>'
        )
    parts.append("</svg>")

    Path(out).write_text("\n".join(parts) + "\n")
