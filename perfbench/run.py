"""pggsim benchmark: run one workload in a closed loop for a fixed time and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
One client runs one command at a time, each in a fresh interpreter
(child.py), until the time is up. Before the first, an untimed import of
pggsim.cli compiles the sources to bytecode, as any earlier use would have,
and checks that pggsim imports. Every repetition's output is checked
(workloads.py); a repetition that fails is counted and makes the run
incorrect, and the timings of one that finished still enter the medians.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json,
medians over untraced repetitions. Before each repetition it runs a few
set-up probes, commands stopped at their set-up point, whose set-up times
join those of the repetitions. Before each repetition, and once after the
last, it times a fixed reference kernel (reference.py) a few times; the
times of the run are quoted at the kernel's nominal speed, i.e. scaled by
NOMINAL_S over the kernel's mean time in the run, so that a host that
slows down for seconds or minutes moves them much less. The raw times are printed too.
Every child process, probe or repetition, counts as one attempt.
With --trace 1 it runs traced repetitions only and reports the per-layer
metrics derived from their spans, unscaled.

Human-readable lines come first; the last line is one JSON object with the
keys correct, attempted, failed and metrics. The environment of the run is
printed next to it, and the spans of each traced repetition are saved under
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from spans import layer_times
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ".perfbench_out"

MIN_REPS = 3  # timed repetitions per run, whatever --seconds says
# Before each repetition: reference kernel runs (0.2 s each) and set-up
# probes (0.25 s each). One 0.2 s sample varies by a fifth with the host's
# jitter; the kernel's mean and the set-up median over a run hold steadier.
REF_RUNS = 4
SETUP_RUNS = 2
# A repetition takes 2-6 s here; one that runs 10x longer is hung.
CHILD_TIMEOUT_S = 60


class Client:
    """The closed-loop client of one benchmark run: its child processes and their failures."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.outdir = ROOT / OUT / workload.name
        self.argv = workload.argv(seed, f"{OUT}/{workload.name}")
        self.attempted = 0
        self.failures: list[str] = []
        self.hung = False
        self.first: dict | None = None  # the first finished repetition's report

    def _spawn(self, mode: str) -> dict | None:
        """Run child.py in a fresh interpreter; its report, or None when it failed."""
        self.attempted += 1
        spawned = time.monotonic()
        cmd = [sys.executable, str(HERE / "child.py"), mode, repr(spawned), "--", *self.argv]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.hung = True
            self.failures.append(f"{mode} timed out after {CHILD_TIMEOUT_S} s")
            return None
        lines = proc.stdout.strip().splitlines()
        report = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if report is None or report["rc"] != 0:
            tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
            self.failures.append(f"{mode} exited {proc.returncode}: {tail}")
            return None
        return report

    def probe(self) -> float | None:
        """The set-up time of one command stopped at its set-up point, None when it failed."""
        report = self._spawn("setup")
        return None if report is None else report["setup_s"]

    def rep(self, mode: str) -> dict | None:
        """One whole command, None when it did not finish.

        A finished command whose output fails its check still returns its
        timings; the failure is counted and makes the run incorrect.
        """
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)
        report = self._spawn(mode)
        if report is None:
            return None
        self.first = self.first or report
        problems = self.workload.check(self.outdir)
        if problems:
            self.failures.append("; ".join(problems))
        csv = self.outdir / self.workload.csv
        report["rows"] = max(0, csv.read_bytes().count(b"\n") - 1) if csv.is_file() else 0
        svg = self.outdir / (self.workload.svg or "-")
        report["svg_bytes"] = svg.stat().st_size if svg.is_file() else 0
        return report


def _quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _layer_metrics(report: dict) -> dict[str, float]:
    layers = layer_times(report["spans"])
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    integ = layers.get("dynamics.integrate", zero)
    abm = layers.get("agent_sim.run_abm", zero)
    cli = layers["cli.main"]
    steps, events, rows = report["steps"], report["events"], report["rows"]
    return {
        "dynamics.integrate.calls": integ["calls"],
        "dynamics.integrate.busy_s": integ["busy_s"],
        "dynamics.steps": steps,
        "dynamics.rk4_step_us": integ["busy_s"] / steps * 1e6 if steps else 0.0,
        "dynamics.rhs_call_us": report["rhs_call_us"],
        "agent_sim.run_abm.busy_s": abm["busy_s"],
        "agent_sim.events": events,
        "agent_sim.event_us": abm["busy_s"] / events * 1e6 if events else 0.0,
        "agent_sim.distinct_state_share": report["distinct_state_share"],
        "cli.self_s": cli["self_s"],
        "cli.rows": rows,
        "cli.row_format_us": cli["self_s"] / rows * 1e6 if rows else 0.0,
        "config.load_config.calls": layers.get("config.load_config", zero)["calls"],
        "config.load_config.busy_s": layers.get("config.load_config", zero)["busy_s"],
        "analysis.stats.calls": layers.get("analysis.stats", zero)["calls"],
        "analysis.stats.busy_s": layers.get("analysis.stats", zero)["busy_s"],
        "plotting.plot_simplex.busy_s": layers.get("plotting.plot_simplex", zero)["busy_s"],
        "plotting.svg_bytes": report["svg_bytes"],
        "trace.overhead_s": report["span_cost_s"] * len(report["spans"]),
    }


def _layer_shares(report: dict) -> dict[str, float]:
    """Each layer's self time as a share of the traced command's wall time."""
    layers = layer_times(report["spans"])
    wall = layers["cli.main"]["busy_s"]
    return {name: layer["self_s"] / wall for name, layer in sorted(layers.items())}


def _environment(client: Client, seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pggsim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": client.workload.name,
        "seed": seed,
        "argv": ["pggsim", *client.argv],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": client.first["python"],
        "numpy": client.first["numpy"],
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def _run(client: Client, deadline: float, trace: bool) -> tuple[dict, list[str]]:
    """Measure until the deadline; returns (metric values, human-readable lines)."""
    kind = "trace" if trace else "run"
    reps: list[dict] = []
    durations: list[float] = []
    ref: list[float] = []
    setups: list[float] = []
    while not client.hung:
        # Start another repetition while at least half of it fits in the time.
        estimate = statistics.median(durations) / 2 if durations else 0.0
        if len(durations) >= MIN_REPS and time.monotonic() + estimate > deadline:
            break
        start = time.monotonic()
        if not trace:
            ref += reference.timings(REF_RUNS)
            setups += [s for s in (client.probe() for _ in range(SETUP_RUNS)) if s is not None]
        report = client.rep(kind)
        if report is not None:
            reps.append(report)
        durations.append(time.monotonic() - start)

    if not reps:
        raise RuntimeError("no repetition succeeded: " + " / ".join(client.failures[-3:]))

    lines = []
    if not trace:
        ref += reference.timings(REF_RUNS)
        # A mean, not a median: a repetition's wall time averages the host's
        # fast and slow spells, so the kernel's time must average them too.
        ref_s = statistics.mean(ref)
        scale = reference.NOMINAL_S / ref_s
        w = client.workload
        walls = [r["wall_s"] for r in reps]
        setups += [r["setup_s"] for r in reps]
        lines.append(f"reference      {ref_s:.6g} s  (kernel mean of {len(ref)}, nominal "
                     f"{reference.NOMINAL_S} s; times below are scaled by {scale:.4g}; "
                     f"samples {' '.join(f'{v:.4g}' for v in ref)})")
        lines.append(f"raw wall_s     {statistics.median(walls):.6g} s  "
                     f"raw setup_s {statistics.median(setups):.6g} s  (unscaled medians; "
                     f"samples {' '.join(f'{v:.4g}' for v in walls)})")
        walls = [x * scale for x in walls]
        samples = {
            "wall_s": (walls, "s"),
            "throughput": ([w.work / x for x in walls], f"{w.work_unit}/s"),
            "setup_s": ([x * scale for x in setups], "s"),
            "peak_rss_mb": ([r["peak_rss_kb"] / 1024 for r in reps], "MB"),
        }
        for name, (vals, unit) in samples.items():
            q1, q3 = _quartiles(vals)
            lines.append(f"{name:<14} {statistics.median(vals):.6g} {unit}  "
                         f"(median of {len(vals)}; quartiles {q1:.6g} .. {q3:.6g}; "
                         f"samples {' '.join(f'{v:.4g}' for v in vals)})")
        return {name: statistics.median(vals) for name, (vals, _) in samples.items()}, lines

    per_rep = [_layer_metrics(r) for r in reps]
    values = {name: statistics.median([m[name] for m in per_rep]) for name in per_rep[0]}
    shares = [_layer_shares(r) for r in reps]
    for name in shares[0]:
        lines.append(f"share {name:<24} {statistics.median([s.get(name, 0.0) for s in shares]):.3f}"
                     f"  (self time / traced wall, median of {len(shares)})")
    spans_path = client.outdir.parent / f"spans-{client.workload.name}.json"
    spans_path.write_text(json.dumps([r["spans"] for r in reps]))
    lines.append(f"spans of {len(reps)} traced repetitions saved to {spans_path.relative_to(ROOT)}")
    return values, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "pggsim" / "cli.py").is_file():
        print(f"error: no pggsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    client = Client(WORKLOADS[args.workload], args.seed)
    deadline = time.monotonic() + args.seconds
    warm = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
         "import pggsim.cli"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if warm.returncode != 0:
        print(f"error: pggsim does not import: {warm.stderr.strip()}", file=sys.stderr)
        return 2

    try:
        values, lines = _run(client, deadline, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(client.outdir, ignore_errors=True)

    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    failed = len(client.failures)
    for why in client.failures:
        print(f"failed: {why}")
    print(f"env {json.dumps(_environment(client, args.seed))}")
    for line in lines:
        print(line)
    if args.trace:
        for name, metric in metrics.items():
            print(f"{name:<32} {metric['value']:.6g} {metric['unit']}")
    print(f"fail_frac      {failed / client.attempted:.6g}  ({failed} of {client.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": client.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
