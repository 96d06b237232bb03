"""Integrand recovery from left-invariant functionals and the variational
limit experiment.

Recovery rests on the linear probes: their horizontal gradient is the
constant xi, so F(u_xi, A0) = f(xi) |A0| and dividing by the volume reads
the integrand off a single bounded open set.  The constancy probe averages
F(u_xi, B_rho(x)) / |B_rho(x)| across centers and is the desk-scale
detector for hidden x-dependence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .groups import StratifiedGroup, HomogeneousNorm, _row_norm
from .fields import GatherTable, GridDomain, ScalarField, DomainError, _lp_norm
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


def uniform_xi_grid(m: int, radius: float, points: int) -> np.ndarray:
    """Uniform probe grid on [-radius, radius]^m, `points` per axis, in the
    order of itertools.product: the last coordinate varies fastest."""
    out = np.empty((points ** m, m))  # first: a grid too large fails before any work
    axis = np.linspace(-radius, radius, points)
    lattice = out.reshape((points,) * m + (m,))
    for j in range(m):  # coordinate j runs along lattice axis j
        lattice[..., j] = axis.reshape((points,) + (1,) * (m - 1 - j))
    return out


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
        return a + b * _row_norm(self.xi) ** p - self.values


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
                    cells_per_axis: int) -> dict:
    """Ball averages F(u_xi, B_rho(x_i)) / |B_rho(x_i)| over centers and radii.

    For a left-invariant functional the spread across centers stays at mask
    resolution for every rho; a genuinely x-dependent functional separates."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))  # a grid of one probe
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    table = {}
    for rho in radii:
        row = []
        for x in centers:
            ball = GridDomain.ball(norm, x, float(rho), cells_per_axis)
            if ball.is_empty:
                raise DomainError(f"ball of radius {rho} has an empty mask")
            row.append(functional.probe_values(norm.group, xi, ball)[0] / ball.volume)
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
    """Arrays indexed [field, integrand]: the best iterate `samples[a, i]` of
    the descent of i's core (`_core`), i's own `value[a, i]` there, its anchor
    value `start_value[a, i]`, and whether the core's stall rule fired
    (`stalled[a, i]`).  `iterations` counts the descent steps taken, summed
    over every (field, core) descent; `converged` is every descent stalled."""

    samples: np.ndarray
    value: np.ndarray
    start_value: np.ndarray
    stalled: np.ndarray
    iterations: int
    converged: bool


# cells per chunk of the gradient operators' build: the chunk's temporaries
# stay small next to the tables
_CHUNK = 2048


def _gradient_operators(group: StratifiedGroup, domain: GridDomain) -> tuple:
    """The gather tables sending cell samples to group-fd horizontal
    derivatives on the K masked cells whose full difference stencil stays
    inside the sample lattice, laid out for the descent loop: one forward
    table of m*K rows, whose product with the samples holds the m directional
    derivatives one after another, and one transposed table per direction
    for the adjoint.  Each row is the CSR difference (fwd - bwd interpolation)
    / 2h_j (see `_difference_rows`), and the products sum in the order of the
    CSR products `op @ v` and `op.T @ w` of that direction's operator.  The
    rows are built in one pass over chunks of `_CHUNK` masked cells: a chunk's
    stencil points x.(+-h_j e_j) decide which of its cells are valid, and then
    give those cells' interpolation rows."""
    # the stencil steps h_j e_j and -h_j e_j, direction by direction
    steps = np.zeros((group.m, 2, group.n))
    for j in range(group.m):
        steps[j, :, j] = domain.spacing[j], -domain.spacing[j]
    steps = steps.reshape(-1, 1, group.n)
    centers, samples = domain.centers(), domain.mask.size
    blocks = [[] for _ in range(group.m)]  # per direction, per chunk: (row widths, columns, weights)
    # per direction, the entries of each sample: the transposed tables' row widths
    counts = np.zeros((group.m, samples), dtype=np.intp)
    for lo in range(0, len(centers), _CHUNK):
        ends = domain._node_coords(group.multiply(centers[lo:lo + _CHUNK], steps))
        valid = domain._in_hull(ends).all(axis=0)
        if not valid.any():
            continue
        # the corners of the chunk's valid stencil points, by corner, direction,
        # side (fwd, bwd) and cell
        cols, weights = domain._corners(ends[:, valid].reshape(-1, group.n))
        cols = cols.reshape(len(cols), group.m, 2, -1)
        weights = weights.reshape(cols.shape)
        for j, block in enumerate(blocks):
            block.append(_difference_rows(cols[:, j], weights[:, j],
                                          1 / (2.0 * domain.spacing[j])))
            counts[j] += np.bincount(block[-1][1], minlength=samples)
    k = sum(len(widths) for widths, _, _ in blocks[0])
    if not k:
        raise DomainError("no cell admits a full horizontal difference stencil")

    def entries(block):
        """A direction's entries in CSR order, chunk by chunk: (cells, samples,
        weights).  Pops the chunks off `block`, so a table frees each one as it
        fills."""
        first = 0
        while block:
            widths, cols, weights = block.pop(0)
            yield np.repeat(np.arange(first, first + len(widths)), widths), cols, weights
            first += len(widths)

    # the forward table reads copies of the chunk lists; each transposed table consumes its own
    forward = GatherTable.from_entries(
        np.concatenate([widths for block in blocks for widths, _, _ in block]),
        ((cells + j * k, cols, weights)
         for j, block in enumerate(blocks) for cells, cols, weights in entries(list(block))),
        samples)
    adjoints = [GatherTable.from_entries(
        widths, ((cols, cells, weights) for cells, cols, weights in entries(block)), k)
        for widths, block in zip(counts, blocks)]
    return forward, adjoints


def _difference_rows(cols: np.ndarray, weights: np.ndarray, scale: float) -> tuple:
    """(fwd - bwd) * scale for the interpolation rows of two point sets on one
    domain, row by row as scipy's CSR difference builds it: columns
    ascending, a column of both stored as a - b, exact zeros dropped, and
    then every entry times `scale`.  `cols` and `weights` are the two sets'
    `GridDomain.interpolation` slots, (corners, 2, count) arrays of at least
    one row, whose [:, 0] is fwd's and [:, 1] bwd's.  Returns the row widths
    and the entries, row after row.

    A row of either set holds its first column plus the domain's ascending
    corner offsets, so the order in which a row's two corner lists merge
    depends only on the gap between their first columns: each gap's order is
    worked out once, for every row with that gap."""
    corners, _, count = cols.shape
    first = cols[0, 0]
    offsets = cols[:, 0, 0] - first[0]
    gaps, gap_of = np.unique(first - cols[0, 1], return_inverse=True)
    # per gap, the columns relative to the row's first fwd column: fwd's, then
    # bwd's, sorted stably, so a column of both holds the fwd entry first
    merged = np.concatenate([np.broadcast_to(offsets, (len(gaps), corners)),
                             offsets - gaps[:, None]], axis=1)
    order = np.argsort(merged, axis=1, kind="stable")
    merged = np.take_along_axis(merged, order, axis=1)
    weights = np.concatenate([weights[:, 0].T, -weights[:, 1].T], axis=1).ravel().take(
        order[gap_of] + 2 * corners * np.arange(count)[:, None])
    shared = (merged[:, 1:] == merged[:, :-1])[gap_of]  # a fwd column, then the same bwd one
    np.add(weights[:, :-1], weights[:, 1:], out=weights[:, :-1], where=shared)  # a - b
    keep = weights != 0
    keep[:, 1:] &= ~shared
    kept = np.flatnonzero(keep)
    return (np.bincount(kept // (2 * corners), minlength=count),
            (first[:, None] + merged[gap_of]).ravel().take(kept),
            weights.ravel().take(kept) * scale)


def _core(f):
    """`f` without its `OffsetIntegrand` layers: integrands with one core
    differ by a constant, so they share every subgradient."""
    while isinstance(f, OffsetIntegrand):
        f = f.inner
    return f


def _from_core(f, core_values):
    """f's values from its core's: the offsets of f's `OffsetIntegrand`
    layers added innermost first, as `OffsetIntegrand.__call__` adds them."""
    if isinstance(f, OffsetIntegrand):
        return _from_core(f.inner, core_values) + f.c
    return core_values


def minimize_convex(group: StratifiedGroup, integrands, anchors, domain: GridDomain,
                    delta: float, p: float, max_iter: int) -> MinimizeResult:
    """Projected subgradient descent, for every anchor field u0 in `anchors`
    and every integrand in `integrands`, over grid fields v with
    ||v - u0||_{L^p(A)} <= delta, minimizing the discrete functional of the
    integrand in at most `max_iter` steps of size s0/sqrt(t), s0 line-searched
    once.

    Each iterate starts at its anchor (the delta = 0 feasible point), and the
    best iterate is kept.  The gradient operators are built once, for every
    field.  Integrands with one core (`_core`) differ by a constant, so they
    share every minimizer: per field, the core walks one descent for all of
    them.  Its line search takes the smallest of its trial steps whose total
    lies within the stall rule's tolerance of the best trial's, so a rounding
    tie cannot tip it, and its best iterate and stall rule read the core's
    total.  Each step and each trial evaluates the core once
    (`value_and_grad` in a step, a call in a trial); every integrand reads
    its start value and its value from the core's values (`_from_core`) at
    the anchor and at the core's best iterate."""
    if delta < 0 or max_iter < 0:
        raise ValueError("the constraint radius and the iteration budget must be nonnegative")
    integrands, anchors = list(integrands), list(anchors)
    shape = (len(anchors), len(integrands))
    samples = np.empty(shape + (domain.mask.size,))
    value, start_value = np.empty(shape), np.empty(shape)
    stalled = np.ones(shape, dtype=bool)
    if not anchors:  # no field, no operators to build
        return MinimizeResult(samples, value, start_value, stalled, 0, True)
    mask_flat = None if domain.mask.all() else domain.mask.ravel()
    cellvol = domain.cell_volume
    forward, adjoints = _gradient_operators(group, domain)

    def gradients(v):
        # a column-major (K, m) view: the integrands reduce over m without a copy
        return (forward @ v).reshape(group.m, -1).T

    def subgradient(df):
        g = adjoints[0] @ df[:, 0]  # sums from 0.0: no zero-filled array to add into
        for j, adjoint in enumerate(adjoints[1:], 1):
            g += adjoint @ df[:, j]
        return g * cellvol

    def project(v, u0):
        w = v - u0
        nrm = _lp_norm(w if mask_flat is None else w[mask_flat], cellvol, p)
        if nrm <= delta:
            return v
        return u0 + w * (delta / nrm)

    def descend(u0, core, core_values, df):
        """The core's descent from u0, whose values are `core_values`: its best
        iterate, the core's values there, whether it stalled and its steps."""
        best_v, best = u0, _total(core_values, cellvol)
        g = subgradient(df)
        probes = np.logspace(-4, 1, 12) * (np.linalg.norm(u0 - u0.mean()) + 1.0) / (
            np.linalg.norm(g) + 1e-30)
        trials = np.array([_total(core(gradients(project(u0 - s * g, u0))), cellvol)
                           for s in probes])
        low = trials.min()
        s0 = probes[np.flatnonzero(trials <= low + _REL_TOL * max(1.0, abs(low)))[0]]
        v, count = u0, 0
        for it in range(1, max_iter + 1):
            v = project(v - s0 / np.sqrt(it) * g, u0)
            values, df = core.value_and_grad(gradients(v))
            total = _total(values, cellvol)
            if total < best - _REL_TOL * max(1.0, abs(best)):
                best_v, best, core_values, count = v, total, values, 0
            else:
                count += 1
            if count >= _PATIENCE or it == max_iter:  # no step reads another subgradient
                break
            g = subgradient(df)
        return best_v, core_values, count >= _PATIENCE, it

    families = {}
    for i, f in enumerate(integrands):
        families.setdefault(id(_core(f)), (_core(f), []))[1].append(i)
    iterations = 0
    for a, anchor in enumerate(anchors):
        u0 = anchor.values(domain.all_centers())
        if not np.isfinite(u0).all():
            raise DomainError(f"the field {anchor.name} is not finite at every cell center")
        samples[a] = u0
        grads0 = gradients(u0)
        for core, members in families.values():
            start_values, df = core.value_and_grad(grads0)
            best_values = start_values
            if delta > 0 and max_iter > 0:
                samples[a, members], best_values, stalled[a, members], steps = descend(
                    u0, core, start_values, df)
                iterations += steps
            for i in members:
                start_value[a, i] = _total(_from_core(integrands[i], start_values), cellvol)
                value[a, i] = _total(_from_core(integrands[i], best_values), cellvol)
    return MinimizeResult(samples, value, start_value, stalled, iterations,
                          bool(stalled.all()))


# -- variational limit experiment -----------------------------------------------


def gamma_experiment(group: StratifiedGroup, integrands, u_list, domain: GridDomain,
                     delta: float, p: float, base_domain: GridDomain, xi_grid,
                     max_iter: int) -> dict:
    """Bracket the variational limit of a functional sequence.

    `integrands` is a list of (h, Integrand) with h increasing.  The report's
    `brackets` holds one row per (h, target field), h-major: the
    constrained-minimization lower estimate (the h-th functional at the best
    iterate of the descent its integrand's core walks, see `minimize_convex`),
    the plain evaluation upper estimate, whether that descent's stall rule
    fired, and the Cauchy gap of the probe-recovered integrand against the
    previous h.  `recovered` holds
    the recovery per h; the fitted `limit` is the one at the largest h, and
    `bracket_ok` says every lower estimate stays below its upper one.
    Requires p > 1.
    """
    if p <= 1:
        raise HypothesisError("the variational-limit experiment requires p > 1")
    xi_grid = np.atleast_2d(np.asarray(xi_grid, dtype=float))
    # one call for every field: one operator build, and one descent per field
    # and core; first, so a grid that admits no operators fails before the
    # recoveries
    res = minimize_convex(group, [f for _, f in integrands], u_list, domain, delta, p, max_iter)
    recs = [recover_integrand(IntegrandFunctional(group, f), group, base_domain, xi_grid)
            for _, f in integrands]
    brackets = []
    for i, (h, _) in enumerate(integrands):
        cauchy = (float(np.abs(recs[i].values - recs[i - 1].values).max())
                  if i else float("nan"))
        brackets.extend({"h": h, "field": u.name,
                         "lower": float(res.value[a, i]),
                         "upper": float(res.start_value[a, i]),
                         "converged": bool(res.stalled[a, i]),
                         "cauchy_gap": cauchy}
                        for a, u in enumerate(u_list))
    limit = recs[-1]
    growth = integrands[-1][1].growth
    return {
        "brackets": brackets,
        "recovered": recs,
        "limit": limit,
        "limit_convexity_violation": limit.convexity_violation(),
        "limit_growth_slack_min": (float(limit.growth_slack(growth).min())
                                   if growth is not None else None),
        # holds while `lower` is read at the best iterate: the descent starts at
        # the anchor, whose value is `upper`, and keeps an iterate only if it
        # lowers the core's total by the stall rule's tolerance, far beyond
        # the rounding of an offset
        "bracket_ok": all(r["lower"] <= r["upper"] + 1e-12 for r in brackets),
    }
