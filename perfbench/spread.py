#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 0 1 ...] [--save FILE]

Runs `run.py` once per seed (tracing off) and prints, for every end-to-end
metric, the median of the per-run values and the distance between their
first and third quartiles as a share of that median, next to the metric's
bound from BENCHMARK.json.  The benchmark is steady when every spread but
that of setup_s stays below a third of its bound.

With --save, it also makes two traced runs on the first seed, checks that
their count metrics repeat exactly, and merges the workload's medians,
quartiles, per-run values and per-layer metrics into FILE, a trajectory
point (`trajectory/BENCH_<n>.json`).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: not correct\n{proc.stderr}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(run.WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    parser.add_argument("--save", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in args.seeds:
        result = bench(args.workload, seed, spec["run_seconds"], 0)
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4f}" for k, v in values.items()),
              flush=True)
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        summary[name] = {"unit": run.END_TO_END_UNITS[name], "median": med, "q1": q1, "q3": q3,
                         "spread": spread, "runs": vals}
        print(f"{args.workload} {name:12s} median={med:.4f} spread={spread:.4f} "
              f"bound={bounds[name]} ({spread / bounds[name]:.2f} of bound)")
    if args.save is None:
        return 0

    first, second = (bench(args.workload, args.seeds[0], spec["run_seconds"], 1)
                     for _ in range(2))
    counts = [k for k, entry in first["metrics"].items() if entry["unit"] == "count"]
    moved = [k for k in counts if first["metrics"][k] != second["metrics"][k]]
    if moved:
        raise SystemExit(f"count metrics differ between two traced runs: {moved}")
    point = json.loads(args.save.read_text()) if args.save.exists() else {}
    point["env"] = run.environment()
    point.setdefault("workloads", {})[args.workload] = {
        "seeds": args.seeds, "run_seconds": spec["run_seconds"], "end_to_end": summary,
        "per_layer": {k: e["value"] for k, e in first["metrics"].items()}}
    args.save.parent.mkdir(parents=True, exist_ok=True)
    args.save.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
