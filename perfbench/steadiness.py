"""Steadiness report: run the benchmark in sets of seeds and compare the sets.

    python3 perfbench/steadiness.py [--first-seed N]

The full set runs every workload of BENCHMARK.json ten times for its
run_seconds, each time with a new seed (N, N+1, ...), going round the
workloads so a slow spell of the machine is shared among them. The set is
run twice on the same code. For each set the report prints every end-to-end
metric's median and quartiles and its spread, (q3 - q1) / median. It flags
every spread above the metric's bound in BENCHMARK.json and a second set
whose median is worse than the first set's by more than the bound. The raw
results, each with the environment printed next to it, are written as JSON
to .perfbench_out/steadiness-N.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10


def _run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {"workload": workload, "seed": seed, "env": env, "lines": lines[:-1],
            "result": json.loads(lines[-1])}


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def _worse_by(metric: dict, first: float, later: float) -> float:
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    report_path = ROOT / ".perfbench_out" / f"steadiness-{args.first_seed}.json"

    runs = []
    for s in range(SETS):
        for i in range(RUNS):
            seed = args.first_seed + s * RUNS + i
            for workload in workloads:
                run = _run(workload, seed, spec["run_seconds"])
                run["set"] = s
                runs.append(run)
                print(f"set {s} seed {seed} {workload}: " + " ".join(
                    f"{k}={v['value']:.5g}" for k, v in run["result"]["metrics"].items()),
                    flush=True)

    report = {"args": vars(args), "runs": runs, "summary": {}}
    problems = []
    print(f"\n{'workload':<12} {'metric':<12} set {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = []
            for s in range(SETS):
                values = [r["result"]["metrics"][name]["value"] for r in runs
                          if r["set"] == s and r["workload"] == workload]
                summary = _summary(values)
                sets.append(summary)
                flag = ""
                if summary["spread"] > bound:
                    flag = "  SPREAD ABOVE BOUND"
                    problems.append(f"{workload} {name} set {s}: spread {summary['spread']:.3f}")
                elif summary["spread"] > bound / 3:
                    flag = "  (above a third of the bound)"
                if s > 0 and _worse_by(metric, sets[0]["median"], summary["median"]) > bound:
                    flag += "  MEDIAN WORSE THAN SET 0 BY MORE THAN BOUND"
                    problems.append(f"{workload} {name} set {s}: median drifted")
                print(f"{workload:<12} {name:<12} {s:>3} {summary['median']:>11.5g} "
                      f"{summary['q1']:>11.5g} {summary['q3']:>11.5g} "
                      f"{summary['spread']:>7.3f} {bound:>6}{flag}")
            report["summary"].setdefault(workload, {})[name] = sets

    failed = sum(r["result"]["failed"] for r in runs)
    attempted = sum(r["result"]["attempted"] for r in runs)
    print(f"\nfail_frac {failed / attempted:.4g} ({failed} of {attempted} attempted)")
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(json.dumps(report, indent=1))
    print(f"report written to {report_path.relative_to(ROOT)}")
    for problem in problems:
        print(f"unsteady: {problem}")
    return 1 if problems or failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
