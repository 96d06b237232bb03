"""Batch front door: run verification suites and experiments from a JSON
config, emitting deterministic CSV/JSON tables.

Exit codes: 0 all checks pass, 1 a check failed, 2 config error (also a
value too large or too small for floating-point arithmetic), 3 a standing
hypothesis is violated (e.g. p = 1 for the gamma command).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import config as cfgmod
from .config import ConfigError
from .fields import DomainError
from .functionals import IntegrandFunctional
from .recovery import (HypothesisError, recover_integrand, constancy_probe,
                       gamma_experiment)
from .suites import (suite_axioms, suite_mollify, suite_functional,
                     suite_sandwich, suite_lsc)

EXIT_OK, EXIT_FAIL, EXIT_CONFIG, EXIT_HYPOTHESIS = 0, 1, 2, 3

_FMT = "%.17g"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return _FMT % value
    return str(value)


def _csv(rows: list, fieldnames: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(fieldnames)
    writer.writerows([_fmt(row[k]) for k in fieldnames] for row in rows)
    return buf.getvalue()


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _xi_rows(xi: np.ndarray) -> tuple:
    """The column names xi_1..xi_m and one {name: value} row per row of xi."""
    names = [f"xi_{j + 1}" for j in range(xi.shape[1])]
    return names, [dict(zip(names, map(float, point))) for point in xi]


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
    grid = cfgmod.build_grid(cfg, group)
    rng = cfgmod.build_rng(cfg)
    if suite == "axioms":
        rows = suite_axioms(norm, rng, tol=1e-12 * cfgmod.build_tol_scale(cfg))
    elif suite == "mollify":
        eps = cfgmod.build_schedule(cfg, "eps")
        rows = suite_mollify(cfgmod.build_mollifier(cfg, norm), grid, rng, eps_list=eps,
                             p=cfgmod.build_scalar(cfg, "p", minimum=1.0))
    elif suite == "functional":
        functional = cfgmod.build_functional(cfg, group)
        if not isinstance(functional, IntegrandFunctional):
            raise ConfigError("the functional suite needs a built-from-integrand functional")
        rows = suite_functional(group, functional.integrand, grid, rng,
                                samples=cfgmod.build_scalar(cfg, "samples", int, minimum=1))
    elif suite == "sandwich":
        eps = cfgmod.build_schedule(cfg, "eps")
        rows = suite_sandwich(cfgmod.build_mollifier(cfg, norm), grid, rng, eps_list=eps)
    elif suite == "lsc":
        rows = suite_lsc(group, grid, rng, h_list=cfgmod.build_schedule(cfg, "h", int))
    text = "\n".join(f"{'pass' if row['passed'] else 'FAIL':5s} {row['name']:40s} "
                     f"value={row['value']:.6g} tol={row['tolerance']:.6g}" for row in rows)
    files = {f"verify_{suite}.csv": _csv(rows, ["name", "value", "tolerance", "passed"])}
    return text, files, all(r["passed"] for r in rows)


def cmd_recover(cfg: dict) -> tuple:
    group = cfgmod.build_group(cfg)
    norm = cfgmod.build_norm(cfg, group)
    functional = cfgmod.build_functional(cfg, group)
    xi_grid = cfgmod.build_xi_grid(cfg, group)
    base = cfgmod.build_recovery_ball(cfg, norm)
    radii = cfgmod.build_schedule(cfg, "rho")
    rec = recover_integrand(functional, group, base, xi_grid)
    defects = rec.pointwise_convexity_defect()
    if functional.growth is None:  # no certificate: no slack to measure
        slack, min_slack = np.full(len(xi_grid), np.nan), None
    else:
        slack = rec.growth_slack(functional.growth)
        min_slack = float(np.nanmin(slack))

    names, rows = _xi_rows(xi_grid)
    for row, value, defect, gap in zip(rows, rec.values, defects, slack):
        row.update(f_rec=float(value), convexity_violation=float(defect),
                   growth_slack=float(gap))

    xi0 = np.zeros(group.m)
    xi0[0] = 1.0
    centers = np.zeros((2, group.n))
    centers[1, 0] = 1.5
    probe = constancy_probe(functional, norm, xi0, centers, radii,
                            cells_per_axis=base.shape[0])
    summary = {
        "max_convexity_violation": float(defects.max()),
        "min_growth_slack": min_slack,
        "constancy_spread": probe["spreads"],
        "constancy_max_spread": probe["max_spread"],
        "probes": len(xi_grid),
    }
    files = {"recovered.csv": _csv(rows, names + ["f_rec", "convexity_violation",
                                                  "growth_slack"]),
             "recover_summary.json": _json(summary)}
    return json.dumps(summary, indent=2, default=_json_default), files, True


def cmd_gamma(cfg: dict) -> tuple:
    group = cfgmod.build_group(cfg)
    norm = cfgmod.build_norm(cfg, group)
    grid = cfgmod.build_grid(cfg, group)
    sequence = cfgmod.build_gamma_sequence(cfg, group)
    xi_grid = cfgmod.build_xi_grid(cfg, group)
    max_iter = cfgmod.build_scalar(cfg, "minimizer.max_iter", int, minimum=0)
    base = cfgmod.build_recovery_ball(cfg, norm)
    fields = cfgmod.build_fields(cfg, group)
    report = gamma_experiment(group, sequence, fields, grid,
                              cfgmod.build_scalar(cfg, "schedules.delta", minimum=0.0),
                              cfgmod.build_scalar(cfg, "p"), base, xi_grid, max_iter)

    limit = report["limit"]
    names, limit_rows = _xi_rows(limit.xi)
    for row, value in zip(limit_rows, limit.values):
        row["f_limit"] = float(value)
    summary = {
        "h_schedule": [h for h, _ in sequence],
        "limit_convexity_violation": report["limit_convexity_violation"],
        "limit_growth_slack_min": report["limit_growth_slack_min"],
        "bracket_ok": report["bracket_ok"],
    }
    files = {"gamma_brackets.csv": _csv(report["brackets"], ["h", "field", "lower", "upper",
                                                          "converged", "cauchy_gap"]),
             "gamma_limit.csv": _csv(limit_rows, names + ["f_limit"]),
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


def main(argv=None) -> int:
    """The only place that prints command output, writes --out and picks the
    exit code."""
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
