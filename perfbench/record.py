#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py [--workload NAME ...] [--seed N ...]

For every workload and reference seed this runs one pass of the workload's
commands, which must all exit 0, and stores each command's exit code and
`--out` files under `references/seed<N>/<workload>.json`.  It then runs one
traced pass per workload (seed 0) and stores the digest of every mask
`erode_domain` returned, keyed by eps and the input domain, under
`references/erosion/<workload>.json`.
Recording replaces the references: do it only on a commit whose outputs are
the ones later commits must reproduce.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def record_pass(name: str, seed: int, mode: str) -> list:
    run.OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=run.OUT))
    try:
        return run.run_pass(name, seed, mode, work, time.monotonic() + run.RUN_BUDGET_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", default=list(run.WORKLOADS),
                        choices=list(run.WORKLOADS))
    parser.add_argument("--seed", type=int, nargs="*", default=list(run.REFERENCE_SEEDS))
    args = parser.parse_args(argv)
    for name in args.workload:
        for seed in args.seed:
            commands = record_pass(name, seed, "time")
            for cmd in commands:
                if cmd["rc"] != 0:
                    raise SystemExit(f"{name} seed {seed} exits {cmd['rc']}; a reference seed "
                                     f"must pass:\n{cmd.get('log_tail', '')}")
            write_json(run.REFERENCES / f"seed{seed}" / f"{name}.json", {"commands": [
                {"args": args_, "exit": cmd["rc"], "outputs": cmd["outputs"]}
                for (_, args_), cmd in zip(run.WORKLOADS[name]["commands"], commands)]})
            print(f"{name} seed {seed}: exit codes {[c['rc'] for c in commands]}")
        digests = {}
        for cmd in record_pass(name, 0, "trace"):
            for erosion in cmd["trace"]["erosions"]:
                if digests.setdefault(erosion["key"], erosion["digest"]) != erosion["digest"]:
                    raise SystemExit(f"erosion {erosion['key']} is not deterministic")
        write_json(run.REFERENCES / "erosion" / f"{name}.json", digests)
        print(f"{name}: {len(digests)} erosion digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
