"""Batch front door: run verification suites and experiments from a JSON
config, emitting deterministic CSV/JSON tables.

Exit codes: 0 all checks pass, 1 a check failed, 2 config error (also a
value too large or too small for floating-point arithmetic), 3 a standing
hypothesis is violated (e.g. p = 1 for the gamma command).
"""

from __future__ import annotations

import argparse
import csv
import ctypes  # numpy imports it already
import io
import json
import os
import sys

import numpy as np
import numpy.random  # numpy loads it on first use; every seeded command needs it

from . import config as cfgmod
from .config import ConfigError
from .fields import DomainError
from .functionals import IntegrandFunctional
from .recovery import (HypothesisError, recover_integrand, constancy_probe,
                       gamma_experiment)
from .suites import (suite_axioms, suite_mollify, suite_functional,
                     suite_sandwich, suite_lsc)

EXIT_OK, EXIT_FAIL, EXIT_CONFIG, EXIT_HYPOTHESIS = 0, 1, 2, 3

# glibc's mallopt parameters (malloc.h) and the values the CLI sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_BYTES, _TRIM_BYTES = 1 << 20, 64 << 20

_FMT = "%.17g"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return _FMT % value
    return str(value)


def _csv(rows: list) -> str:
    """The rows as CSV, their columns the first row's keys in order."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(rows[0])
    writer.writerows([_fmt(row[k]) for k in rows[0]] for row in rows)
    return buf.getvalue()


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _xi_rows(xi: np.ndarray) -> list:
    """One {xi_1: .., xi_m: ..} row per row of xi."""
    names = [f"xi_{j + 1}" for j in range(xi.shape[1])]
    return [dict(zip(names, map(float, point))) for point in xi]


def _load(args) -> dict:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.tol_scale is not None:
        overrides["tol_scale"] = args.tol_scale
    return cfgmod.load_config(args.config, overrides)


# -- subcommands ---------------------------------------------------------------
# each takes the merged config and returns (stdout text, {file name: contents},
# whether every check passed)


def cmd_group_info(cfg: dict) -> tuple:
    group = cfgmod.build_group(cfg)
    report = {
        "group": group.name,
        "n": group.n,
        "m": group.m,
        "k": group.step,
        "Q": group.homogeneous_dimension(),
        "weights": group.weights.tolist(),
        "brackets": [{"i": i + 1, "j": j + 1, "l": l + 1, "c": c}
                     for i, j, l, c in group.structure],
        "axiom_violations": group.axiom_violations(),
    }
    return json.dumps(report, indent=2), {"group_info.json": _json(report)}, True


def cmd_verify(cfg: dict, suite: str) -> tuple:
    group = cfgmod.build_group(cfg)
    norm = cfgmod.build_norm(cfg, group)
    if suite == "axioms":  # reads no grid: its keys are checked, nothing is allocated
        cfgmod.read_grid(cfg, group)
    else:
        grid = cfgmod.build_grid(cfg, group)
    rng = np.random.default_rng(cfg["seed"])
    if suite == "axioms":
        rows = suite_axioms(norm, rng, tol=1e-12 * cfg["tol_scale"])
    elif suite == "mollify":
        rows = suite_mollify(cfgmod.build_mollifier(cfg, norm), grid, rng,
                             eps_list=cfg["schedules"]["eps"], p=cfg["p"])
    elif suite == "functional":
        functional = cfgmod.build_functional(cfg, group)
        if not isinstance(functional, IntegrandFunctional):
            raise ConfigError("the functional suite needs a built-from-integrand functional")
        rows = suite_functional(group, functional.integrand, grid, rng, samples=cfg["samples"])
    elif suite == "sandwich":
        rows = suite_sandwich(cfgmod.build_mollifier(cfg, norm), grid, rng,
                              eps_list=cfg["schedules"]["eps"])
    elif suite == "lsc":
        rows = suite_lsc(group, grid, rng, h_list=cfg["schedules"]["h"])
    text = "\n".join(f"{'pass' if row['passed'] else 'FAIL':5s} {row['name']:40s} "
                     f"value={row['value']:.6g} tol={row['tolerance']:.6g}" for row in rows)
    files = {f"verify_{suite}.csv": _csv(rows)}
    return text, files, all(r["passed"] for r in rows)


def cmd_recover(cfg: dict) -> tuple:
    group = cfgmod.build_group(cfg)
    norm = cfgmod.build_norm(cfg, group)
    functional = cfgmod.build_functional(cfg, group)
    xi_grid = cfgmod.build_xi_grid(cfg, group)
    base = cfgmod.build_recovery_ball(cfg, norm)
    rec = recover_integrand(functional, group, base, xi_grid)
    defects = rec.pointwise_convexity_defect()
    if functional.growth is None:  # no certificate: no slack to measure
        slack, min_slack = np.full(len(xi_grid), np.nan), None
    else:
        slack = rec.growth_slack(functional.growth)
        min_slack = float(np.nanmin(slack))

    rows = _xi_rows(xi_grid)
    for row, value, defect, gap in zip(rows, rec.values, defects, slack):
        row.update(f_rec=float(value), convexity_violation=float(defect),
                   growth_slack=float(gap))

    xi0 = np.zeros(group.m)
    xi0[0] = 1.0
    centers = np.zeros((2, group.n))
    centers[1, 0] = 1.5
    probe = constancy_probe(functional, norm, xi0, centers, cfg["schedules"]["rho"],
                            cells_per_axis=base.shape[0])
    summary = {
        "max_convexity_violation": float(defects.max()),
        "min_growth_slack": min_slack,
        "constancy_spread": probe["spreads"],
        "constancy_max_spread": probe["max_spread"],
        "probes": len(xi_grid),
    }
    files = {"recovered.csv": _csv(rows),
             "recover_summary.json": _json(summary)}
    return json.dumps(summary, indent=2, default=_json_default), files, True


def cmd_gamma(cfg: dict) -> tuple:
    group = cfgmod.build_group(cfg)
    norm = cfgmod.build_norm(cfg, group)
    grid = cfgmod.build_grid(cfg, group)
    sequence = cfgmod.build_gamma_sequence(cfg, group)
    xi_grid = cfgmod.build_xi_grid(cfg, group)
    base = cfgmod.build_recovery_ball(cfg, norm)
    fields = cfgmod.build_fields(cfg, group)
    report = gamma_experiment(group, sequence, fields, grid, cfg["schedules"]["delta"],
                              cfg["p"], base, xi_grid, cfg["minimizer"]["max_iter"])

    limit = report["limit"]
    limit_rows = _xi_rows(limit.xi)
    for row, value in zip(limit_rows, limit.values):
        row["f_limit"] = float(value)
    summary = {
        "h_schedule": [h for h, _ in sequence],
        "limit_convexity_violation": report["limit_convexity_violation"],
        "limit_growth_slack_min": report["limit_growth_slack_min"],
        "bracket_ok": report["bracket_ok"],
    }
    files = {"gamma_brackets.csv": _csv(report["brackets"]),
             "gamma_limit.csv": _csv(limit_rows),
             "gamma_summary.json": _json(summary)}
    return json.dumps(summary, indent=2, default=_json_default), files, summary["bracket_ok"]


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", default=None, help="JSON config path")
    shared.add_argument("--out", default=None, help="output directory for CSV/JSON")
    shared.add_argument("--seed", type=int, default=None)
    shared.add_argument("--tol-scale", type=float, default=None, dest="tol_scale",
                        help="factor on the axioms suite's tolerances, must be > 0")
    parser = argparse.ArgumentParser(
        prog="carnot",
        description="verification suites and experiments for left-invariant "
                    "integral functionals on stratified groups")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("group-info", parents=[shared],
                   help="group constants, Q and axiom summary")
    verify = sub.add_parser("verify", parents=[shared], help="run a verification suite")
    verify.add_argument("--suite", required=True,
                        choices=["axioms", "mollify", "functional", "sandwich", "lsc"])
    sub.add_parser("recover", parents=[shared],
                   help="probe-recover the integrand of the configured functional")
    sub.add_parser("gamma", parents=[shared],
                   help="variational-limit bracketing experiment")
    return parser


def _keep_freed_heap() -> None:
    """Fix the C allocator's policy for this process: blocks up to _MMAP_BYTES
    come from the heap, and freed heap goes back to the kernel only when more
    than _TRIM_BYTES of it lie free at the top.  glibc's default thresholds
    move with the largest block freed, and under them each averaging chunk's
    arrays go back to the kernel on release, to be faulted in again, page by
    page, by the next chunk (mallopt(3)).  Does nothing where the C library
    has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, TypeError):  # no handle on the C library (Windows), or no mallopt
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)


def main(argv=None) -> int:
    """The only place that prints command output, writes --out and picks the
    exit code.  It also sets the process's allocator policy, which importing
    carnot as a library leaves alone."""
    _keep_freed_heap()
    args = build_parser().parse_args(argv)
    commands = {"group-info": cmd_group_info, "recover": cmd_recover, "gamma": cmd_gamma,
                "verify": lambda cfg: cmd_verify(cfg, args.suite)}
    try:
        # an overflow, a division by zero or a NaN raises instead of running on
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            text, files, passed = commands[args.command](_load(args))
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:
        print(f"config error: values out of floating-point range: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    print(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for name, contents in files.items():
            with open(os.path.join(args.out, name), "w", newline="") as fh:
                fh.write(contents)
    return EXIT_OK if passed else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
