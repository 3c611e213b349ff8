"""Steadiness check: repeat each workload and report the spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 [--workloads a,b] [--seconds N]
        [--out results.json]

Runs are untraced.  Run ``i`` uses seed ``i + 1`` and visits the workloads in
forward order on even runs and reverse order on odd ones, so no workload
always runs after the same neighbour.  For each metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``), the
interquartile distance as a share of the median next to the metric's
bound from ``BENCHMARK.json``, and the range.  It also prints each
workload's failed share and marks every end-to-end spread above a third
of its bound, ``setup_s`` included.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One untraced ``run.py`` invocation; its parsed result object."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["info"] = [json.loads(line[len("info "):]) for line in lines
                      if line.startswith("info ")]
    return result


def spread(values: List[float]) -> Dict[str, float]:
    """Median, quartiles, interquartile share of the median and range."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else float("nan"),
            "min": min(values), "max": max(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results: Dict[str, List[dict]] = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for workload in order:
            result = run_once(workload, i + 1, args.seconds)
            results[workload].append(result)
            print(f"run {i} {workload}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)

    summary: Dict[str, dict] = {}
    steady = True
    for workload in workloads:
        runs = results[workload]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        rows = {}
        print(f"\n{workload}: failed share {shares}, "
              f"all correct: {all(r['correct'] for r in runs)}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            row = spread(values) if len(values) >= 2 else {
                "median": values[0]}
            row["unit"] = runs[0]["metrics"][metric]["unit"]
            rows[metric] = row
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and row.get("iqr_share", 0) > bound / 3:
                flag = "  <-- spread above a third of the bound"
                steady = False
            print(f"  {metric:40s} median {row['median']:12.4f} "
                  f"q1 {row.get('q1', 0):12.4f} q3 {row.get('q3', 0):12.4f} "
                  f"iqr/median {row.get('iqr_share', 0):7.4f} "
                  f"bound {bound if bound is not None else '-'} "
                  f"range [{row.get('min', 0):.4f}, {row.get('max', 0):.4f}]"
                  f" {row['unit']}{flag}")
        summary[workload] = {"failed_shares": shares, "metrics": rows,
                             "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
