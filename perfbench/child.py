"""Run one pggsim CLI command in this fresh interpreter and print its measurements as JSON.

    python3 perfbench/child.py MODE SPAWNED -- ARGV...

MODE is `run` (the whole command, untraced), `trace` (the whole command,
with a span around each call from `pggsim.cli` into another layer) or
`setup` (the command up to its set-up point, where it stops). SPAWNED
is the parent's time.monotonic() just before it started this process; the
clock is CLOCK_MONOTONIC, which all processes of a Linux machine share, so
set-up time includes interpreter start-up and imports.

Until the command's config is loaded, this script imports nothing that the
interpreter has not loaded already, so set-up time is the program's own.

The package is imported from the checkout's own `src/`, never from an
installed copy, so the benchmark fails where the sources are absent.
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# mutator_rhs is timed on this many states of the traced trajectory, in batches
_RHS_STATES = 1000
_RHS_BATCHES = 7
# the cost of one span is timed on this many calls of a wrapped no-op, in batches
_SPAN_CALLS = 20_000
_SPAN_BATCHES = 7


class _SetupDone(BaseException):
    """Stops a `setup` run at the set-up point; cli.main catches only Exceptions."""


def _rhs_call_us(dynamics, payoffs, traj, params) -> float:
    import statistics

    freqs = traj.frequencies
    stride = max(1, len(freqs) // _RHS_STATES)
    states = []
    for x, y, z in freqs[::stride]:
        try:
            states.append(payoffs.SimplexState(float(x), float(y), float(z)))
        except ValueError:
            continue
    per_call = []
    for _ in range(_RHS_BATCHES):
        start = time.monotonic()
        for state in states:
            dynamics.mutator_rhs(state, params)
        per_call.append((time.monotonic() - start) / len(states))
    return statistics.median(per_call) * 1e6


def _span_cost_s() -> float:
    """Time one span adds to a call: a wrapped no-op's call minus a bare no-op's."""
    import statistics
    import types

    from spans import Recorder

    def noop():
        return None

    bare = types.SimpleNamespace(f=noop)
    wrapped = types.SimpleNamespace(f=noop)
    Recorder().wrap(wrapped, "f", "noop")
    extra = []
    for _ in range(_SPAN_BATCHES):
        per_call = []
        for owner in (bare, wrapped):
            f = owner.f
            start = time.monotonic()
            for _ in range(_SPAN_CALLS):
                f()
            per_call.append((time.monotonic() - start) / _SPAN_CALLS)
        extra.append(per_call[1] - per_call[0])
    return statistics.median(extra)


def main(args: list[str]) -> int:
    mode, spawned, sep, argv = args[0], float(args[1]), args[2], args[3:]
    if mode not in ("run", "trace", "setup") or sep != "--":
        raise SystemExit(f"usage: child.py run|trace|setup SPAWNED -- ARGV... (got {args[:3]})")

    sys.path.insert(0, SRC)
    import pggsim
    from pggsim import analysis, cli, dynamics, payoffs

    if os.path.dirname(os.path.abspath(pggsim.__file__)) != os.path.join(SRC, "pggsim"):
        raise SystemExit(f"pggsim imported from {pggsim.__file__}, not from {SRC}")

    seen: dict = {"steps": 0}
    recorder = None
    if mode == "trace":
        from spans import Recorder

        def on_integrate(traj):
            seen["steps"] += len(traj) - 1
            seen["traj"] = traj

        recorder = Recorder()
        recorder.wrap(cli, "main", "cli.main")
        recorder.wrap(cli, "load_config", "config.load_config",
                      lambda cfg: seen.__setitem__("cfg", cfg))
        recorder.wrap(cli, "integrate", "dynamics.integrate", on_integrate)
        recorder.wrap(cli, "run_abm", "agent_sim.run_abm",
                      lambda traj: seen.__setitem__("abm", traj))
        recorder.wrap(analysis, "stats", "analysis.stats")
        recorder.wrap(cli, "plot_simplex", "plotting.plot_simplex")

    traced_load_config = cli.load_config

    def first_load_config(*a, **kw):
        cfg = traced_load_config(*a, **kw)
        seen["setup_done"] = time.monotonic()
        cli.load_config = traced_load_config
        if mode == "setup":
            raise _SetupDone
        return cfg

    cli.load_config = first_load_config

    start = time.monotonic()
    try:
        rc = cli.main(argv)
    except _SetupDone:
        rc = 0
    wall_s = time.monotonic() - start

    import json
    import platform
    import resource

    import numpy

    report = {
        "rc": rc,
        "setup_s": seen["setup_done"] - spawned if "setup_done" in seen else None,
        "wall_s": wall_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if recorder is not None:
        cfg = seen["cfg"]
        abm = seen.get("abm")
        traj = abm if abm is not None else seen.get("traj")
        report["spans"] = recorder.spans
        report["span_cost_s"] = _span_cost_s()
        report["steps"] = seen["steps"]
        report["events"] = cfg.M * (len(abm) - 1) if abm is not None else 0
        if abm is not None:
            counts = numpy.rint(abm.frequencies[:, :2] * cfg.M).astype(int)
            report["distinct_state_share"] = len({tuple(c) for c in counts}) / len(counts)
        else:
            report["distinct_state_share"] = 0.0
        report["rhs_call_us"] = (
            _rhs_call_us(dynamics, payoffs, traj, cfg.pgg_params()) if traj is not None else 0.0
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
