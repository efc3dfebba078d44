"""A fixed pure-Python kernel that measures how fast the machine runs Python at the moment.

A shared host can run the same command at half speed for minutes at a time,
so a raw wall time says as much about the host as about the program. The
benchmark therefore times this kernel again and again between the program's
commands and scales each end-to-end time by NOMINAL_S over the kernel's
mean time in the same run: when the host slows down, the kernel and the
program slow down together and the scaled figure stays where it was. A
change to the program does not move the kernel, which uses nothing from
pggsim, so it shows in the scaled figure in full.

The kernel looks like the program's hot loops: RK4 steps on three floats,
a pseudo-random draw per step, and one formatted CSV row per step. Changing
the kernel, its size or NOMINAL_S changes every end-to-end figure, so none
of them may change except where the benchmark itself is redefined.
"""

from __future__ import annotations

import time

STEPS = 20_000
# About the kernel's mean time on the 2-core Xeon machine the benchmark was
# written on; end-to-end times are quoted at this speed.
NOMINAL_S = 0.2


def _rhs(x: float, y: float, z: float, a: float, b: float) -> tuple[float, float, float]:
    f = a * x - b * y
    g = b * y - a * z
    h = 1.0 - f - g
    return x * (f - h), y * (g - h), z * (h - f - g)


def kernel() -> int:
    """The fixed work; returns the length of the CSV text it formats."""
    x, y, z = 0.3, 0.3, 0.4
    state = 12345
    rows = []
    dt = 0.01
    half = dt / 2.0
    sixth = dt / 6.0
    for i in range(STEPS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        a = 1.0 + state / 2147483648.0
        b = 2.0
        ax, ay, az = _rhs(x, y, z, a, b)
        bx, by, bz = _rhs(x + half * ax, y + half * ay, z + half * az, a, b)
        cx, cy, cz = _rhs(x + half * bx, y + half * by, z + half * bz, a, b)
        ex, ey, ez = _rhs(x + dt * cx, y + dt * cy, z + dt * cz, a, b)
        x += sixth * (ax + 2.0 * (bx + cx) + ex)
        y += sixth * (ay + 2.0 * (by + cy) + ey)
        z += sixth * (az + 2.0 * (bz + cz) + ez)
        total = x + y + z
        x, y, z = abs(x) / total, abs(y) / total, abs(z) / total
        rows.append(f"{i},{x:.17g},{y:.17g},{z:.17g}")
    return len("\n".join(rows))


def timings(n: int) -> list[float]:
    """The times of n runs of the kernel, in seconds."""
    times = []
    for _ in range(n):
        start = time.monotonic()
        kernel()
        times.append(time.monotonic() - start)
    return times
