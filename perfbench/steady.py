"""Steadiness check: run workloads N times with different seeds and report
each metric's spread against its bound in ``BENCHMARK.json``.

Usage, from the repository root::

    python3 perfbench/steady.py --runs 10 --seconds 20
    python3 perfbench/steady.py --workload remote_stream --runs 5 --first-seed 100

For every end-to-end metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``), the spread — the
interquartile distance as a share of the median — and the bound.  A metric
is flagged ``UNSTEADY`` when its spread exceeds a tenth, and ``OVER`` when
it exceeds a third of its bound (``setup_s`` is flagged only on the tenth).
Runs are sequential: concurrent runs would measure each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    names = args.workload or [workload["name"] for workload in spec["workloads"]]
    steady = True
    for workload in names:
        values = {name: [] for name in bounds}
        failures = 0
        for run in range(args.runs):
            result = run_once(workload, args.first_seed + run, args.seconds, 0)
            failures += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {workload} seed {args.first_seed + run}: "
                  + ", ".join(f"{n}={values[n][-1]:.4g}" for n in bounds), flush=True)
        print(f"\n{workload}: {args.runs} runs, {failures} failed operations")
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            flags = []
            if spread > 0.1:
                flags.append("UNSTEADY")
            if name != "setup_s" and spread > bounds[name] / 3:
                flags.append("OVER")
            steady = steady and not flags
            print(f"  {name:<20} {median:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                  f"{spread:>8.3f} {bounds[name]:>6.2f}  {' '.join(flags)}", flush=True)
        print()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
