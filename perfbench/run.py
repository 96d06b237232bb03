#!/usr/bin/env python3
"""carnot benchmark: real CLI commands, one fresh process each, checked
against reference outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every workload, as a table

Run from a source checkout: the commands import `carnot` from `src/`.

Each workload is a closed loop of `carnot` commands, one process at a time.
Every command runs in its own process because `mollify._ERODE_CACHE` is
module-global: repeating a command inside one process would time a warm cache
that CLI users never get.  A pass is one run of the workload's commands;
passes repeat until `--seconds` would be exceeded (at least one pass).

Workloads (the seed is passed to every command as `--seed`):
  h1-mollify     H^1 defaults (12^3 grid, mollifier resolution 9, eps
                 0.4/0.2/0.1): `verify --suite mollify`, `verify --suite
                 sandwich`.  Over 90 % of the default CLI's time; the step-2
                 group law inside erosion and convolution, and heavy erosion
                 reuse in one process (sandwich: 36 calls, 4 distinct).
  engel-mollify  Engel (step 3, n = 4), 5^4 grid, mollifier resolution 5:
                 `verify --suite mollify`.  Same layers through the step-3
                 branch of `multiply` and a 4-D erosion; a group-law or
                 erosion gain on step 2 must show here too.  Sandwich is left
                 out: 30 s at this size.
  h1-gamma       H^1 `gamma` on a 32^3 grid, then `recover` and `verify
                 --suite functional` on defaults.  The minimizer and
                 functional paths; never erodes, so it is the bypass workload
                 for group-law and erosion changes (predicted: no change).

End-to-end metrics (`--trace 0`), medians over the run's passes:
  wall_s       wall-clock time of one pass (spawn to reap, every command)
  setup_s      process start until `carnot.cli.main` is entered, per pass:
               commands per pass x the median per-process set-up time over
               the run (every command process plus SETUP_PROBES probes)
  compute_s    time inside `carnot.cli.main`, summed over a pass's commands
  peak_rss_mb  largest resident set size of any process in a pass
A command that exits non-zero or whose outputs differ from the reference
counts as failed; the run is then not correct.

Per-layer metrics (`--trace 1`) come from one traced pass in which
`spans.install` wraps every layer from outside the library (see
`LAYER_METRICS`); an untraced pass of the same run gives
`trace.overhead_ratio`.  The traced pass also checks a digest of every
erosion mask against the recorded one and fails when a function predicted to
do most of a workload's work records no calls.

Reference outputs were recorded with `record.py` for the seeds in DEV_SEEDS
and for the held-out seed 7919, which is meant for re-checking a gain on a
seed not used while writing it.  Any other seed N runs the commands with
DEV_SEEDS[N mod 10].
Every run writes a run record (environment, code identity, raw per-pass
samples) under `perfbench/out/runs/`.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
REFERENCES = BENCH / "references"
OUT = BENCH / "out"

ENGEL = {"group": "engel", "grid": {"shape": 5}, "mollifier_resolution": 5}
GRID32 = {"grid": {"shape": 32}}

# name -> commands as (config overrides or None, cli args) and the spans that
# must record calls, because they are predicted to do most of its work.
WORKLOADS = {
    "h1-mollify": {
        "commands": [(None, ["verify", "--suite", "mollify"]),
                     (None, ["verify", "--suite", "sandwich"])],
        "busy": ["groups.bracket", "groups.multiply", "mollify.erode_domain",
                 "mollify.convolve", "functionals.sandwich_check",
                 "functionals.jensen_check", "suites.suite_mollify",
                 "suites.suite_sandwich"],
    },
    "engel-mollify": {
        "commands": [(ENGEL, ["verify", "--suite", "mollify"])],
        "busy": ["groups.bracket", "groups.multiply", "mollify.erode_domain",
                 "mollify.convolve", "suites.suite_mollify"],
    },
    "h1-gamma": {
        "commands": [(GRID32, ["gamma"]), (None, ["recover"]),
                     (None, ["verify", "--suite", "functional"])],
        "busy": ["recovery.minimize_convex", "recovery.recover_integrand",
                 "functionals.IntegrandFunctional.eval", "suites.suite_functional"],
    },
}

# Seed 6 is not used: on it `engel-mollify` exits 1, because its
# `convergence_decreasing` row fails (the mollification errors of that seed's
# random quadratic are not strictly decreasing in eps on the 5^4 grid).
DEV_SEEDS = (0, 1, 2, 3, 4, 5, 7, 8, 9, 10)
HELD_OUT_SEED = 7919
REFERENCE_SEEDS = DEV_SEEDS + (HELD_OUT_SEED,)

# Numeric outputs match when |a - b| <= RTOL * max(|a|, |b|) + ATOL; booleans
# (`passed`, `converged`, `bracket_ok`), strings and exit codes match exactly.
RTOL, ATOL = 1e-6, 1e-9

SETUP_PROBES = 4
RUN_BUDGET_S = 165.0
# carnot is single-threaded by contract (`--threads` is documented as a
# no-op); pinning BLAS/OpenMP pools keeps idle pool threads from competing
# for the sandbox's cores.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "compute_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The checkout or the references cannot support a run."""


def cli_seed(seed: int) -> int:
    return seed if seed in REFERENCE_SEEDS else DEV_SEEDS[seed % len(DEV_SEEDS)]


# -- processes -------------------------------------------------------------------


def spawn(work: Path, tag: str, mode: str, argv: list, deadline: float) -> dict:
    """Run child.py once; wait for it and return its exit code and timings."""
    record = work / f"{tag}.record.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
    record.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(record), mode, "--", *argv]
    with open(work / f"{tag}.log", "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = {"rc": proc.returncode, "wall_s": t1 - t0, "rss_mb": usage.ru_maxrss / 1024.0}
    if record.exists():
        info = json.loads(record.read_text())
        src = Path(info["carnot_file"]).resolve()
        if ROOT / "src" not in src.parents:
            raise BenchError(f"commands imported carnot from {src}, not from {ROOT / 'src'}")
        out.update(setup_s=info["t_enter"] - t0, compute_s=info["t_exit"] - info["t_enter"],
                   import_s=info.get("import_s"), trace=info.get("trace"))
    if out["rc"] != 0 or not record.exists():
        out["log_tail"] = (work / f"{tag}.log").read_text()[-2000:]
    return out


def collect_outputs(out_dir: Path) -> dict:
    """Every file a command wrote with --out: CSVs as rows, JSON parsed."""
    files = {}
    for path in sorted(out_dir.glob("*")) if out_dir.is_dir() else []:
        with open(path, newline="") as fh:
            files[path.name] = (list(csv.reader(fh)) if path.suffix == ".csv"
                                else json.load(fh))
    return files


def run_pass(name: str, seed: int, mode: str, work: Path, deadline: float) -> list:
    """One pass of a workload's commands; returns one entry per command."""
    commands = []
    for i, (overrides, args) in enumerate(WORKLOADS[name]["commands"]):
        out_dir = work / f"out{i}"
        argv = [*args, "--seed", str(seed), "--out", str(out_dir)]
        if overrides is not None:
            config = work / f"config{i}.json"
            config.write_text(json.dumps(overrides))
            argv += ["--config", str(config)]
        result = spawn(work, f"cmd{i}", mode, argv, deadline)
        result["outputs"] = collect_outputs(out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        commands.append(result)
    return commands


# -- correctness -------------------------------------------------------------------


def _number(value):
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def first_difference(ref, got, path: str = ""):
    """Path of the first place `got` departs from `ref`, or None."""
    if isinstance(ref, dict) or isinstance(got, dict):
        if not (isinstance(ref, dict) and isinstance(got, dict)) or ref.keys() != got.keys():
            return path or "/"
        for key in ref:
            diff = first_difference(ref[key], got[key], f"{path}/{key}")
            if diff:
                return diff
        return None
    if isinstance(ref, list) or isinstance(got, list):
        if not (isinstance(ref, list) and isinstance(got, list)) or len(ref) != len(got):
            return path or "/"
        for i, (a, b) in enumerate(zip(ref, got)):
            diff = first_difference(a, b, f"{path}[{i}]")
            if diff:
                return diff
        return None
    a, b = _number(ref), _number(got)
    if a is None or b is None:
        same = type(ref) is type(got) and ref == got
    elif math.isnan(a) or math.isnan(b):
        same = math.isnan(a) and math.isnan(b)
    elif math.isinf(a) or math.isinf(b):
        same = a == b
    else:
        same = abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL
    return None if same else f"{path}: expected {ref!r}, got {got!r}"


def check_command(reference: dict, result: dict) -> list:
    problems = []
    if result["rc"] != 0 or result["rc"] != reference["exit"]:
        problems.append(f"exit code {result['rc']}, reference {reference['exit']}")
    diff = first_difference(reference["outputs"], result["outputs"])
    if diff:
        problems.append(f"outputs differ at {diff}")
    return problems


def load_references(name: str, seed: int) -> list:
    path = REFERENCES / f"seed{seed}" / f"{name}.json"
    if not path.is_file():
        raise BenchError(f"no reference outputs at {path}")
    commands = json.loads(path.read_text())["commands"]
    if len(commands) != len(WORKLOADS[name]["commands"]):
        raise BenchError(f"{path} does not match the workload's commands")
    return commands


def load_erosion_digests(name: str) -> dict:
    path = REFERENCES / "erosion" / f"{name}.json"
    if not path.is_file():
        raise BenchError(f"no erosion digests at {path}")
    return json.loads(path.read_text())


# -- metrics -------------------------------------------------------------------------


def pass_summary(commands: list) -> dict:
    return {"wall_s": sum(c["wall_s"] for c in commands),
            "compute_s": sum(c.get("compute_s", 0.0) for c in commands),
            "peak_rss_mb": max(c["rss_mb"] for c in commands)}


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


# Per-layer metric name -> unit, as computed by layer_metrics().
LAYER_METRICS = {
    "groups.bracket.calls": "count", "groups.bracket.self_s": "s",
    "groups.multiply.calls": "count", "groups.multiply.points": "count",
    "groups.multiply.self_s": "s", "groups.multiply.ns_per_point": "ns",
    "groups.norm.points": "count", "groups.norm.self_s": "s",
    "groups.vector_field_coeffs.self_s": "s",
    "fields.horizontal_gradient.calls": "count",
    "fields.horizontal_gradient.points": "count",
    "fields.horizontal_gradient.self_s": "s",
    "mollify.erode_domain.calls": "count", "mollify.erode_domain.distinct": "count",
    "mollify.erode_domain.reuse_ratio": "ratio", "mollify.erode_domain.busy_s": "s",
    "mollify.erode_domain.self_s": "s", "mollify.erode_domain.cells_kept_ratio": "ratio",
    "mollify.convolve.calls": "count",
    "mollify.convolve.values.points": "count", "mollify.convolve.values.busy_s": "s",
    "mollify.convolve.hgrad.points": "count", "mollify.convolve.hgrad.busy_s": "s",
    "mollify.MollifierFamily.init_s": "s",
    "functionals.IntegrandFunctional.eval.calls": "count",
    "functionals.IntegrandFunctional.eval.cells": "count",
    "functionals.IntegrandFunctional.eval.self_s": "s",
    "functionals.IntegrandFunctional.eval.busy_s": "s",
    "functionals.jensen_check.busy_s": "s", "functionals.sandwich_check.busy_s": "s",
    "recovery.minimize_convex.calls": "count", "recovery.minimize_convex.iterations": "count",
    "recovery.minimize_convex.self_s": "s", "recovery.minimize_convex.s_per_iter": "s",
    "recovery.minimize_convex.converged_ratio": "ratio",
    "recovery.recover_integrand.busy_s": "s", "recovery.constancy_probe.busy_s": "s",
    "suites.suite_mollify.busy_s": "s", "suites.suite_sandwich.busy_s": "s",
    "suites.suite_functional.busy_s": "s", "suites.rows_passed_ratio": "ratio",
    "config.build.busy_s": "s", "cli.import_s": "s", "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: list, untraced_compute_s: float) -> dict:
    """Per-layer metrics of one traced pass (ratios are 0 when their base is)."""
    stats = {}
    for cmd in traced:
        for span, stat in cmd["trace"]["stats"].items():
            total = stats.setdefault(span, {})
            for key, value in stat.items():
                total[key] = total.get(key, 0) + value

    def get(span, key):
        return stats.get(span, {}).get(key, 0)

    def total(prefix, key):
        return sum(s.get(key, 0) for span, s in stats.items() if span.startswith(prefix))

    m = {}
    for span, keys in {"groups.bracket": ("calls", "self_s"),
                       "groups.multiply": ("calls", "points", "self_s"),
                       "groups.norm": ("points", "self_s"),
                       "groups.vector_field_coeffs": ("self_s",),
                       "fields.horizontal_gradient": ("calls", "points", "self_s"),
                       "mollify.erode_domain": ("calls", "busy_s", "self_s"),
                       "mollify.convolve": ("calls",),
                       "mollify.convolve.values": ("points", "busy_s"),
                       "mollify.convolve.hgrad": ("points", "busy_s"),
                       "functionals.IntegrandFunctional.eval": ("calls", "cells", "self_s",
                                                                "busy_s"),
                       "functionals.jensen_check": ("busy_s",),
                       "functionals.sandwich_check": ("busy_s",),
                       "recovery.minimize_convex": ("calls", "iterations", "self_s"),
                       "recovery.recover_integrand": ("busy_s",),
                       "recovery.constancy_probe": ("busy_s",),
                       "suites.suite_mollify": ("busy_s",),
                       "suites.suite_sandwich": ("busy_s",),
                       "suites.suite_functional": ("busy_s",)}.items():
        for key in keys:
            m[f"{span}.{key}"] = get(span, key)
    m["groups.multiply.ns_per_point"] = 1e9 * _ratio(get("groups.multiply", "busy_s"),
                                                     get("groups.multiply", "points"))
    # distinct keys per process, summed: the erosion cache lives per process
    erosions = [cmd["trace"]["erosions"] for cmd in traced]
    m["mollify.erode_domain.distinct"] = sum(len({e["key"] for e in er}) for er in erosions)
    calls = m["mollify.erode_domain.calls"]
    m["mollify.erode_domain.reuse_ratio"] = (
        1.0 - m["mollify.erode_domain.distinct"] / calls if calls else 0.0)
    kept = sum(e["cells_kept"] for er in erosions for e in er)
    m["mollify.erode_domain.cells_kept_ratio"] = _ratio(kept, sum(e["cells_in"] for er in erosions
                                                                  for e in er))
    m["mollify.MollifierFamily.init_s"] = get("mollify.MollifierFamily.init", "busy_s")
    m["recovery.minimize_convex.s_per_iter"] = _ratio(get("recovery.minimize_convex", "busy_s"),
                                                      get("recovery.minimize_convex", "iterations"))
    m["recovery.minimize_convex.converged_ratio"] = _ratio(
        get("recovery.minimize_convex", "converged"), get("recovery.minimize_convex", "calls"))
    m["suites.rows_passed_ratio"] = _ratio(total("suites.suite_", "rows_passed"),
                                           total("suites.suite_", "rows"))
    m["config.build.busy_s"] = total("config.", "busy_s")
    m["cli.import_s"] = sum(cmd["import_s"] for cmd in traced)
    m["cli.main.self_s"] = total("cli.", "self_s")
    m["trace.overhead_ratio"] = _ratio(sum(c["compute_s"] for c in traced), untraced_compute_s)
    return m


def check_trace(name: str, traced: list, digests: dict) -> tuple:
    """Erosion-mask digests and interception coverage of one traced pass."""
    problems, checked, mismatched = [], 0, set()
    for cmd in traced:
        for erosion in cmd["trace"]["erosions"]:
            want = digests.get(erosion["key"])
            if want is None:
                continue
            checked += 1
            if erosion["digest"] != want and erosion["key"] not in mismatched:
                mismatched.add(erosion["key"])
                problems.append(f"erosion mask differs for {erosion['key']}")
    for span in WORKLOADS[name]["busy"]:
        if not sum(cmd["trace"]["stats"].get(span, {}).get("calls", 0) for cmd in traced):
            problems.append(f"{span} recorded no calls")
    return problems, checked


# -- runs ----------------------------------------------------------------------------


def environment() -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "sympy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    git = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        git = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    thread_vars = sorted(set(THREAD_ENV) | {k for k in os.environ
                                            if k.endswith("_NUM_THREADS") or k.startswith("OMP_")})
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(), **versions,
            "thread_env_parent": {k: os.environ.get(k) for k in thread_vars},
            "thread_env_commands": THREAD_ENV, "git_commit": git,
            "src_sha256": src.hexdigest()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """One benchmark run; returns the result line and the raw run record."""
    if not (ROOT / "src" / "carnot" / "cli.py").is_file():
        raise BenchError(f"no carnot sources under {ROOT / 'src'}; run from a source checkout")
    seed_used = cli_seed(seed)
    references = load_references(name, seed_used)
    digests = load_erosion_digests(name) if trace else None
    deadline = time.monotonic() + RUN_BUDGET_S
    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    record = {"workload": name, "seed": seed, "cli_seed": seed_used, "seconds": seconds,
              "trace": int(trace), "started": datetime.datetime.now(
                  datetime.timezone.utc).isoformat(timespec="seconds"),
              "env": environment(), "probes_setup_s": [], "passes": []}
    n_cmds = len(WORKLOADS[name]["commands"])

    def one_pass(mode: str) -> float:
        commands = run_pass(name, seed_used, mode, work, deadline)
        for ref, cmd in zip(references, commands):
            cmd["problems"] = check_command(ref, cmd)
        record["passes"].append({"mode": mode, **pass_summary(commands), "commands": commands})
        return record["passes"][-1]["wall_s"]

    try:
        if trace:
            one_pass("time")
            one_pass("trace")
        else:
            for i in range(SETUP_PROBES):
                probe = spawn(work, f"probe{i}", "probe", [], deadline)
                if probe["rc"] != 0 or "setup_s" not in probe:
                    raise BenchError(f"set-up probe failed:\n{probe.get('log_tail', '')}")
                record["probes_setup_s"].append(probe["setup_s"])
            t_start = time.monotonic()
            walls = [one_pass("time")]
            while (time.monotonic() - t_start + statistics.median(walls) <= seconds
                   and time.monotonic() + max(walls) <= deadline):
                walls.append(one_pass("time"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    commands = [c for p in record["passes"] for c in p["commands"]]
    failed = sum(1 for c in commands if c["problems"])
    problems = [f"{' '.join(WORKLOADS[name]['commands'][i % n_cmds][1])}: {msg}"
                for i, c in enumerate(commands) for msg in c["problems"]]
    timed = [p for p in record["passes"] if p["mode"] == "time"]
    if trace:
        traced = record["passes"][-1]["commands"]
        if any(c.get("trace") is None for c in traced):
            raise BenchError("the traced pass did not complete")
        trace_problems, checked = check_trace(name, traced, digests)
        problems += trace_problems
        record["erosions_checked"] = checked
        values = layer_metrics(traced, timed[0]["compute_s"])
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in LAYER_METRICS.items()}
    else:
        setups = record["probes_setup_s"] + [c["setup_s"] for p in timed for c in p["commands"]
                                             if "setup_s" in c]
        values = {"wall_s": statistics.median(p["wall_s"] for p in timed),
                  "setup_s": n_cmds * statistics.median(setups),
                  "compute_s": statistics.median(p["compute_s"] for p in timed),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in timed)}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        record["samples"] = {k: [p[k] for p in timed] for k in ("wall_s", "compute_s",
                                                                "peak_rss_mb")}
        record["samples"]["setup_s_per_process"] = setups
        record["quartiles"] = {k: quartiles(v) for k, v in record["samples"].items()}
    for p in record["passes"]:
        for c in p["commands"]:
            c.pop("outputs", None)
            c.pop("trace", None)
    record.update(problems=problems, attempted=len(commands), failed=failed,
                  failed_ratio=failed / len(commands), metrics=metrics)
    result = {"correct": not problems, "attempted": len(commands), "failed": failed,
              "metrics": metrics}
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S")
    (runs / f"{stamp}-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, record = run_workload(name, args.seed, args.seconds, bool(args.trace))
            results[name] = result
            for msg in record["problems"]:
                print(f"{name}: FAILED {msg}", file=sys.stderr)
            if args.workload == "all":
                print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
                      f"failed_ratio={record['failed_ratio']:.3g}")
                for metric, entry in result["metrics"].items():
                    spread = record.get("quartiles", {}).get(metric)
                    extra = (f"  q1={spread[0]:.4g} q3={spread[2]:.4g} "
                             f"n={len(record['samples'][metric])}") if spread else ""
                    print(f"  {metric:48s} {entry['value']:14.6g} {entry['unit']}{extra}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
