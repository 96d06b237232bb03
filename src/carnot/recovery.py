"""Integrand recovery from left-invariant functionals and the variational
limit experiment.

Recovery rests on the linear probes: their horizontal gradient is the
constant xi, so F(u_xi, A0) = f(xi) |A0| and dividing by the volume reads
the integrand off a single bounded open set.  The constancy probe averages
F(u_xi, B_rho(x)) / |B_rho(x)| across centers and is the desk-scale
detector for hidden x-dependence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .groups import StratifiedGroup, HomogeneousNorm
from .fields import GridDomain, ScalarField, DomainError, probe_field, _lp_norm
from .functionals import (Functional, IntegrandFunctional, OffsetIntegrand,
                          _midpoint_defect, _total)

__all__ = [
    "HypothesisError",
    "RecoveredIntegrand",
    "uniform_xi_grid",
    "recover_integrand",
    "constancy_probe",
    "verify_uniqueness",
    "MinimizeResult",
    "minimize_convex",
    "gamma_experiment",
]


class HypothesisError(ValueError):
    """A standing assumption of the theory is violated (e.g. p = 1 for the
    variational-limit experiment)."""


def uniform_xi_grid(m: int, radius: float = 4.0, points: int = 17) -> np.ndarray:
    """Uniform probe grid on [-radius, radius]^m, `points` per axis."""
    axis = np.linspace(-radius, radius, points)
    return np.array(list(itertools.product(axis, repeat=m)), dtype=float)


@dataclass(frozen=True)
class RecoveredIntegrand:
    """Probe-recovered integrand values on a xi-grid with diagnostics."""

    xi: np.ndarray
    values: np.ndarray
    axis_points: int

    @property
    def table(self) -> np.ndarray:
        """The values on the (axis_points,)^m probe lattice."""
        return self.values.reshape((self.axis_points,) * self.xi.shape[1])

    def convexity_violation(self) -> Optional[float]:
        """Worst midpoint-convexity defect along grid lines (<= 0 is convex),
        or None when no node is interior to an axis (fewer than 3 points)."""
        if self.axis_points < 3:
            return None
        return float(_midpoint_defect(self.table).max())

    def pointwise_convexity_defect(self) -> np.ndarray:
        """Per-node worst midpoint defect against the two axis neighbours
        (zero on the grid boundary)."""
        return np.maximum(0.0, _midpoint_defect(self.table)).ravel()

    def growth_slack(self, certificate) -> np.ndarray:
        """a + b |xi|^p - f_rec(xi); nonnegative when the bound holds."""
        a, b, p = certificate
        return a + b * np.linalg.norm(self.xi, axis=-1) ** p - self.values


def recover_integrand(functional: Functional, group: StratifiedGroup,
                      base_domain: GridDomain, xi_grid) -> RecoveredIntegrand:
    """f_rec(xi) = F(u_xi, A0) / |A0| over the probe grid."""
    xi_grid = np.atleast_2d(np.asarray(xi_grid, dtype=float))
    vol = base_domain.volume
    if vol <= 0:
        raise DomainError("recovery needs a base domain of positive volume")
    values = functional.probe_values(group, xi_grid, base_domain) / vol
    points = round(len(xi_grid) ** (1.0 / xi_grid.shape[1]))
    return RecoveredIntegrand(xi_grid, values, points)


def constancy_probe(functional: Functional, norm: HomogeneousNorm, xi, centers, radii,
                    cells_per_axis: int = 12) -> dict:
    """Ball averages F(u_xi, B_rho(x_i)) / |B_rho(x_i)| over centers and radii.

    For a left-invariant functional the spread across centers stays at mask
    resolution for every rho; a genuinely x-dependent functional separates."""
    u = probe_field(norm.group, np.asarray(xi, dtype=float))
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    table = {}
    for rho in radii:
        row = []
        for x in centers:
            ball = GridDomain.ball(norm, x, float(rho), cells_per_axis)
            if ball.is_empty:
                raise DomainError(f"ball of radius {rho} has an empty mask")
            row.append(functional.eval(u, ball) / ball.volume)
        table[float(rho)] = row
    spreads = {rho: max(row) - min(row) for rho, row in table.items()}
    return {"table": table, "spreads": spreads, "max_spread": max(spreads.values())}


def verify_uniqueness(f_functional: Functional, g_functional: Functional,
                      group: StratifiedGroup, base_domain: GridDomain,
                      xi_grid, test_pairs, probe_tol: float) -> dict:
    """Probe agreement on one base set, then sampled agreement on (u, A) pairs.

    If the probe values differ the functionals are reported distinct with the
    probe gap; otherwise the worst |F - G| over the samples is returned."""
    rec_f = recover_integrand(f_functional, group, base_domain, xi_grid)
    rec_g = recover_integrand(g_functional, group, base_domain, xi_grid)
    probe_gap = float(np.abs(rec_f.values - rec_g.values).max())
    report = {"probe_gap": probe_gap, "probes_agree": probe_gap <= probe_tol,
              "volume": base_domain.volume}
    if not report["probes_agree"]:
        return report
    diffs = [abs(f_functional.eval(u, a) - g_functional.eval(u, a))
             for u, a in test_pairs]
    report["max_value_gap"] = max(diffs) if diffs else 0.0
    report["value_gaps"] = diffs
    return report


# -- constrained first-order minimization --------------------------------------


# stall rule: stop after `_PATIENCE` steps in a row that miss a relative `_REL_TOL` gain
_REL_TOL = 1e-10
_PATIENCE = 50


@dataclass(frozen=True)
class MinimizeResult:
    """One row per integrand: its best iterate `samples[i]`, its `value[i]`
    there, its anchor value `start_value[i]`, and whether its stall rule
    fired (`stalled[i]`).  `iterations` counts the descent steps taken, summed
    over the descents; `converged` is every integrand stalled."""

    samples: np.ndarray
    value: np.ndarray
    start_value: np.ndarray
    stalled: np.ndarray
    iterations: int
    converged: bool


def _gradient_operators(group: StratifiedGroup, domain: GridDomain) -> list:
    """Per-direction sparse operators sending cell samples to group-fd
    horizontal derivatives, kept on the masked cells whose full difference
    stencil stays inside the sample lattice."""
    centers = domain.centers()
    stencil = []
    valid = np.ones(len(centers), dtype=bool)
    for j in range(group.m):
        step = np.zeros(group.n)
        step[j] = domain.spacing[j]
        fwd = group.multiply(centers, step)
        bwd = group.multiply(centers, -step)
        valid &= domain.in_hull(fwd) & domain.in_hull(bwd)
        stencil.append((fwd, bwd))
    if not valid.any():
        raise DomainError("no cell admits a full horizontal difference stencil")
    ops = []
    for j, (fwd, bwd) in enumerate(stencil):
        diff = domain.interpolation(fwd[valid]) - domain.interpolation(bwd[valid])
        ops.append(diff / (2.0 * domain.spacing[j]))
    return ops


def _descent_operators(group: StratifiedGroup, domain: GridDomain) -> tuple:
    """The `_gradient_operators` laid out for the descent loop: one CSR stack
    of shape (m*K, N), whose product with the samples holds the m directional
    derivatives one after another, and the per-direction CSR transposes for
    the adjoint (kept apart, so each entry sums in the order of `op.T @`)."""
    from scipy import sparse  # only operator builders need it; it is slow to import

    ops = _gradient_operators(group, domain)
    return sparse.vstack(ops, format="csr"), [op.T.tocsr() for op in ops]


def _core(f):
    """`f` without its `OffsetIntegrand` layers: integrands with one core
    differ by a constant, so they share every subgradient."""
    while isinstance(f, OffsetIntegrand):
        f = f.inner
    return f


def minimize_convex(group: StratifiedGroup, integrands, anchor: ScalarField,
                    domain: GridDomain, delta: float, p: float = 2.0, max_iter: int = 400, *,
                    operators: Optional[tuple] = None) -> MinimizeResult:
    """Projected subgradient descent over grid fields v with
    ||v - anchor||_{L^p(A)} <= delta, minimizing the discrete functional of
    each integrand in `integrands` in at most `max_iter` steps of size
    s0/sqrt(t), s0 line-searched once.

    The iterate starts at the anchor (the delta = 0 feasible point), so the
    reported value never exceeds the anchor's, and the best iterate is kept.
    Integrands with one core (`_core`) whose line searches pick the same s0
    walk the same iterates, so they share one descent; within it each keeps
    its own best iterate and stall counter, and reads exactly what a descent
    of its own would give.  Only the first member of a descent takes
    `value_and_grad`; the others are evaluated through `f(eta)`.
    `operators` is `_descent_operators(group, domain)`, built here when absent;
    callers minimizing on one domain repeatedly pass it to build it once."""
    if delta < 0 or max_iter < 0:
        raise ValueError("the constraint radius and the iteration budget must be nonnegative")
    integrands = list(integrands)
    mask_flat = None if domain.mask.all() else domain.mask.ravel()
    cellvol = domain.cell_volume
    stack, adjoints = operators if operators is not None else _descent_operators(group, domain)
    u0 = anchor.values(domain.all_centers())
    if not np.isfinite(u0).all():
        raise DomainError(f"the field {anchor.name} is not finite at every cell center")

    def gradients(v):
        # a column-major (K, m) view: the integrands reduce over m without a copy
        return (stack @ v).reshape(group.m, -1).T

    def subgradient(df):
        g = np.zeros_like(u0)
        for j, adjoint in enumerate(adjoints):
            g += adjoint @ df[:, j]
        return g * cellvol

    def project(v):
        w = v - u0
        nrm = _lp_norm(w if mask_flat is None else w[mask_flat], cellvol, p)
        if nrm <= delta:
            return v
        return u0 + w * (delta / nrm)

    samples = np.repeat(u0[None], len(integrands), axis=0)
    stalled = np.ones(len(integrands), dtype=bool)
    grads0 = gradients(u0)
    start_value = np.array([_total(f(grads0), cellvol) for f in integrands])
    if delta == 0 or max_iter == 0:
        return MinimizeResult(samples, start_value, start_value.copy(), stalled, 0, True)
    value = start_value.copy()

    def descend(members, s0, g):
        """One descent shared by `members`; returns the steps it took."""
        lead, live = members[0], list(members)
        counts = dict.fromkeys(members, 0)
        v = u0
        for it in range(1, max_iter + 1):
            v = project(v - s0 / np.sqrt(it) * g)
            grads = gradients(v)
            lead_values, df = integrands[lead].value_and_grad(grads)
            for i in list(live):
                val = _total(lead_values if i == lead else integrands[i](grads), cellvol)
                if val < value[i] - _REL_TOL * max(1.0, abs(value[i])):
                    value[i], samples[i], counts[i] = val, v, 0
                else:
                    counts[i] += 1
                    if counts[i] >= _PATIENCE:
                        live.remove(i)
            if not live:
                break
            g = subgradient(df)
        stalled[list(live)] = False
        return it

    families = {}
    for i, f in enumerate(integrands):
        families.setdefault(id(_core(f)), []).append(i)
    scale = np.linalg.norm(u0 - u0.mean()) + 1.0
    iterations = 0
    for members in families.values():
        g = subgradient(integrands[members[0]].value_and_grad(grads0)[1])
        probes = np.logspace(-4, 1, 12) * scale / (np.linalg.norm(g) + 1e-30)
        trials = np.empty((len(probes), len(members)))
        for k, s in enumerate(probes):
            grads = gradients(project(u0 - s * g))
            trials[k] = [_total(integrands[i](grads), cellvol) for i in members]
        # rounding of the offsets can tip a line search: one descent per pick
        picks = {}
        for i, k in zip(members, trials.argmin(axis=0)):
            picks.setdefault(int(k), []).append(i)
        for k, same in picks.items():
            iterations += descend(same, float(probes[k]), g)
    return MinimizeResult(samples, value, start_value, stalled, iterations,
                          bool(stalled.all()))


# -- variational limit experiment -----------------------------------------------


def gamma_experiment(group: StratifiedGroup, integrands, u_list, domain: GridDomain,
                     delta: float, p: float, base_domain: GridDomain, xi_grid,
                     max_iter: int = 400) -> dict:
    """Bracket the variational limit of a functional sequence.

    `integrands` is a list of (h, Integrand) with h increasing.  The report's
    `brackets` holds one row per (h, target field), h-major: the
    constrained-minimization lower estimate, the plain evaluation upper
    estimate, whether the minimizer's stall rule fired, and the Cauchy gap of
    the probe-recovered integrand against the previous h.  `recovered` holds
    the recovery per h; the fitted `limit` is the one at the largest h, and
    `bracket_ok` says every lower estimate stays below its upper one.
    Requires p > 1.
    """
    if p <= 1:
        raise HypothesisError("the variational-limit experiment requires p > 1")
    xi_grid = np.atleast_2d(np.asarray(xi_grid, dtype=float))
    recs = [recover_integrand(IntegrandFunctional(group, f), group, base_domain, xi_grid)
            for _, f in integrands]
    operators = _descent_operators(group, domain) if u_list else None
    # one call per field: the whole sequence shares its descents
    results = [minimize_convex(group, [f for _, f in integrands], u, domain, delta, p,
                               max_iter, operators=operators) for u in u_list]
    brackets = []
    for i, (h, _) in enumerate(integrands):
        cauchy = (float(np.abs(recs[i].values - recs[i - 1].values).max())
                  if i else float("nan"))
        brackets.extend({"h": h, "field": u.name,
                         "lower": float(res.value[i]),
                         "upper": float(res.start_value[i]),
                         "converged": bool(res.stalled[i]),
                         "cauchy_gap": cauchy}
                        for u, res in zip(u_list, results))
    limit = recs[-1]
    growth = integrands[-1][1].growth
    return {
        "brackets": brackets,
        "recovered": recs,
        "limit": limit,
        "limit_convexity_violation": limit.convexity_violation(),
        "limit_growth_slack_min": (float(limit.growth_slack(growth).min())
                                   if growth is not None else None),
        # holds by construction while `lower` is the best iterate's value: the
        # descent starts at the anchor, whose value is `upper`
        "bracket_ok": all(r["lower"] <= r["upper"] + 1e-12 for r in brackets),
    }
