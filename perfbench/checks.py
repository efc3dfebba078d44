"""Output checks for benchmark runs.

Deterministic commands must reproduce their files byte for byte, so they are
checked against recorded SHA-256 digests. A stochastic run is checked only
against invariants that every valid random stream satisfies, so a change of
sampler that keeps the process's law intact is not counted as a failure.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

ABM_HEADER = "gen,frac_c,frac_d,frac_l,mean_payoff"

# CSV floats carry 12 significant digits, so a count n/M read back and scaled
# by M lies within ~1e-8 of n for M up to 10^3; 1e-6 still rejects any
# fraction that is not a whole count.
_COUNT_TOL = 1e-6
_SUM_TOL = 1e-9
_PAYOFF_TOL = 1e-9


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_digests(outdir: Path, digests: dict) -> list[str]:
    problems = []
    for name, expected in digests.items():
        path = Path(outdir) / name
        if not path.is_file():
            problems.append(f"{name}: missing")
        elif (got := sha256(path)) != expected:
            problems.append(f"{name}: sha256 {got} != recorded {expected}")
    return problems


def payoff_range(N: int, c: float, r: float, g: float) -> tuple[float, float]:
    """Smallest and largest per-agent payoff delta one round can realize.

    A round with S >= 2 participants pays a cooperator r*c*(n_c - 1)/(S - 1)
    - c - g and a defector r*c*n_c/(S - 1) - g; loners, lone participants
    and agents in voided rounds get 0. mean_payoff averages such deltas.
    """
    values = [0.0]
    for s in range(2, N + 1):
        for n_c in range(s + 1):
            if n_c > 0:
                values.append(r * c * (n_c - 1) / (s - 1) - c - g)
            if n_c < s:
                values.append(r * c * n_c / (s - 1) - g)
    return min(values), max(values)


def check_abm_csv(path: Path, M: int, t: int, N: int, c: float, r: float, g: float) -> list[str]:
    """Invariants of an `abm` CSV: t+1 rows of whole counts over M and an attainable mean payoff."""
    try:
        text = Path(path).read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as exc:
        return [f"{Path(path).name}: unreadable: {exc}"]
    if not text.endswith("\n"):
        return ["file does not end with a newline"]
    lines = text[:-1].split("\n")
    if lines[0] != ABM_HEADER:
        return [f"header {lines[0]!r} != {ABM_HEADER!r}"]
    if len(lines) - 1 != t + 1:
        return [f"{len(lines) - 1} rows, expected t+1 = {t + 1}"]

    lo, hi = payoff_range(N, c, r, g)
    slack = _PAYOFF_TOL * max(1.0, abs(lo), abs(hi))
    for gen, line in enumerate(lines[1:]):
        fields = line.split(",")
        if len(fields) != 5:
            return [f"row {gen}: {len(fields)} fields"]
        try:
            row_gen = int(fields[0])
            fracs = [float(v) for v in fields[1:4]]
            payoff = float(fields[4])
        except ValueError:
            return [f"row {gen}: unparsable {line!r}"]
        if row_gen != gen:
            return [f"row {gen}: gen column reads {row_gen}"]
        counts = [f * M for f in fracs]
        whole = [round(n) for n in counts]
        if any(abs(n - w) > _COUNT_TOL or w < 0 for n, w in zip(counts, whole)):
            return [f"row {gen}: fractions {fracs} are not whole counts over M={M}"]
        if sum(whole) != M or abs(sum(fracs) - 1.0) > _SUM_TOL:
            return [f"row {gen}: fractions {fracs} do not sum to 1"]
        if not lo - slack <= payoff <= hi + slack:
            return [f"row {gen}: mean_payoff {payoff} outside [{lo}, {hi}]"]
        if gen == 0 and payoff != 0.0:
            return [f"row 0: mean_payoff {payoff}, expected 0 before any round"]
    return []
