"""Deterministic verification suites over a configured group.

Each suite returns a list of row dicts (name, value, tolerance, passed)
that the CLI serializes to CSV and the test suite asserts on.  Values are
residuals unless the name says otherwise.
"""

from __future__ import annotations

import numpy as np

from .groups import StratifiedGroup, HomogeneousNorm
from .fields import (GridDomain, ScalarField, DomainError, constant_field, probe_field,
                     quadratic_field, translate_domain, horizontal_gradient)
from .mollify import (MollifierFamily, erode_domain, convolve, commutation_residual,
                      convergence_table)
from .functionals import (Integrand, IntegrandFunctional, check_set_function,
                          jensen_check, sandwich_check, lsc_check, _total,
                          PowerIntegrand, QuadraticIntegrand, MaxAffineIntegrand)

__all__ = [
    "suite_axioms",
    "suite_mollify",
    "suite_functional",
    "suite_sandwich",
    "suite_lsc",
    "random_points",
    "random_quadratic",
    "menu_integrands",
]


def _row(name: str, value: float, tol: float) -> dict:
    return {"name": name, "value": float(value), "tolerance": float(tol),
            "passed": bool(value <= tol)}


def random_points(group: StratifiedGroup, rng: np.random.Generator,
                  count: int, scale: float = 1.0) -> np.ndarray:
    return rng.uniform(-scale, scale, size=(count, group.n))


def random_quadratic(group: StratifiedGroup, rng: np.random.Generator) -> ScalarField:
    return quadratic_field(group, rng.normal(), rng.normal(size=group.n),
                           0.5 * rng.normal(size=(group.n, group.n)))


def menu_integrands(m: int, rng: np.random.Generator) -> list:
    """One representative of each convex menu family."""
    b = rng.normal(size=(m, m))
    planes = rng.normal(size=(5, m))
    return [
        PowerIntegrand(m, 1.0),
        PowerIntegrand(m, 2.0),
        PowerIntegrand(m, 3.0),
        QuadraticIntegrand(b.T @ b + 0.1 * np.eye(m)),
        MaxAffineIntegrand(planes, rng.normal(size=5)),
    ]


# -- group axioms ---------------------------------------------------------------


# random points per group-axiom check
_AXIOM_SAMPLES = 1000


def suite_axioms(norm: HomogeneousNorm, rng: np.random.Generator,
                 tol: float = 1e-12) -> list:
    g = norm.group
    x = random_points(g, rng, _AXIOM_SAMPLES)
    y = random_points(g, rng, _AXIOM_SAMPLES)
    z = random_points(g, rng, _AXIOM_SAMPLES)
    lam = rng.uniform(0.5, 2.0, size=_AXIOM_SAMPLES)
    rows = []

    assoc = g.multiply(g.multiply(x, y), z) - g.multiply(x, g.multiply(y, z))
    rows.append(_row("associativity", np.abs(assoc).max(), tol))
    rows.append(_row("identity", np.abs(g.multiply(x, g.origin()) - x).max()
                     + np.abs(g.multiply(g.origin(), x) - x).max(), tol))
    rows.append(_row("inverse", np.abs(g.multiply(x, g.inverse(x))).max(), tol))
    dil = g.dilate(lam, g.multiply(x, y)) - g.multiply(g.dilate(lam, x), g.dilate(lam, y))
    rows.append(_row("dilation_automorphism", np.abs(dil).max(), tol))

    rows.append(_row("norm_zero", norm(g.origin()), tol))
    rows.append(_row("norm_inverse_symmetry", np.abs(norm(g.inverse(x)) - norm(x)).max(), tol))
    rows.append(_row("norm_homogeneity",
                     np.abs(norm(g.dilate(lam, x)) - lam * norm(x)).max(), tol))

    dl = norm.dist_left(g.multiply(z, x), g.multiply(z, y)) - norm.dist_left(x, y)
    dr = norm.dist_right(g.multiply(x, z), g.multiply(y, z)) - norm.dist_right(x, y)
    rows.append(_row("dist_left_invariance", np.abs(dl).max(), tol))
    rows.append(_row("dist_right_invariance", np.abs(dr).max(), tol))
    origin = g.origin()
    ball_gap = np.abs(norm.dist_left(x, origin) - norm.dist_right(x, origin)).max()
    rows.append(_row("origin_balls_coincide", ball_gap, tol))

    # Haar volume under a grid-compatible (top-layer, spacing-snapped) translation
    dom = GridDomain.box(-np.ones(g.n), np.ones(g.n), 8)
    shift = np.zeros(g.n)
    shift[-1] = 3 * dom.spacing[-1]
    moved = translate_domain(g, shift, dom)
    rows.append(_row("haar_translation_volume", abs(moved.volume - dom.volume),
                     dom.cell_volume))
    return rows


# -- mollifier laws --------------------------------------------------------------


def suite_mollify(mollifier: MollifierFamily, omega: GridDomain, rng: np.random.Generator,
                  eps_list=(0.4, 0.2, 0.1), p: float = 2.0) -> list:
    g = mollifier.group
    rows = []
    for eps in eps_list:
        rows.append(_row(f"unit_mass_eps={eps:g}", abs(mollifier.unit_mass(eps) - 1.0), 1e-6))
    pts = random_points(g, rng, 200, scale=2.0)
    rows.append(_row("nonnegativity", max(0.0, -mollifier.profile(pts).min()), 0.0))
    outside = pts[mollifier.norm(pts) >= 1.0]
    rows.append(_row("support_containment",
                     np.abs(mollifier.profile(outside)).max() if len(outside) else 0.0, 0.0))

    eps0 = float(eps_list[0])
    const = constant_field(g, 3.25)
    u_eps = convolve(mollifier, eps0, const, omega)
    rows.append(_row("constant_convolution",
                     np.abs(u_eps.values(u_eps.domain.centers()) - 3.25).max(), 1e-10))

    xi = rng.normal(size=g.m)
    u_xi = probe_field(g, xi)
    probe_eps = convolve(mollifier, eps0, u_xi, omega)
    fix_pts = probe_eps.domain.centers()
    rows.append(_row("probe_fixed_point",
                     np.abs(probe_eps.values(fix_pts) - u_xi.values(fix_pts)).max(), 1e-6))

    quad = random_quadratic(g, rng)
    rows.append(_row("gradient_commutation",
                     commutation_residual(mollifier, eps0, quad, omega), 1e-4))

    inner = omega.erode_cells(max(1, int(np.ceil(max(eps_list) / omega.spacing.max())) + 1))
    table = convergence_table(mollifier, quad, omega, inner, p, eps_list)
    lp = [r["Lp_err"] for r in table]
    w1 = [r["W1p_err"] for r in table]
    decreasing = all(a > b for a, b in zip(lp, lp[1:])) and all(a > b for a, b in zip(w1, w1[1:]))
    rows.append({"name": "convergence_decreasing", "value": float(lp[-1] / lp[0]),
                 "tolerance": 1.0, "passed": decreasing})
    return rows


# -- functional hypotheses --------------------------------------------------------


def suite_functional(group: StratifiedGroup, integrand: Integrand,
                     domain: GridDomain, rng: np.random.Generator,
                     samples: int = 200) -> list:
    g = group
    functional = IntegrandFunctional(g, integrand)
    rows = []
    u = random_quadratic(g, rng)

    # grid-level locality: perturb values and gradients away from A's cells only
    bump = lambda p: (~domain.contains(np.atleast_2d(p))).astype(float)
    masked = ScalarField(
        values=lambda p: u.values(p) + 7.0 * bump(p),
        hgrad=lambda p: u.hgrad(p) + 3.0 * bump(p)[:, None],
        name="masked")
    rows.append(_row("locality",
                     abs(functional.eval(u, domain) - functional.eval(masked, domain)), 0.0))

    report = check_set_function(functional, u, domain)
    rows.append(_row("disjoint_additivity", report["additivity_gap"], 1e-12))
    rows.append({"name": "monotone_in_A", "value": 0.0, "tolerance": 0.0,
                 "passed": report["increasing"]})
    rows.append({"name": "subadditive", "value": 0.0, "tolerance": 0.0,
                 "passed": report["subadditive"]})
    rows.append({"name": "superadditive", "value": 0.0, "tolerance": 0.0,
                 "passed": report["superadditive"]})
    rows.append({"name": "inner_regular_monotone", "value": report["inner_regular_gap"],
                 "tolerance": float("inf"), "passed": report["monotone_exhaustion"]})

    shift_res = conv_res = growth_res = 0.0
    centers = domain.centers()
    growth = integrand.growth
    for _ in range(samples):
        v = random_quadratic(g, rng)
        w = random_quadratic(g, rng)
        c = rng.normal()
        # F(v) from one gradient sample: `eval` at refine 1 sums the same numbers
        grads = horizontal_gradient(g, v, centers)
        f_v = functional.quadrature(grads, domain.cell_volume)
        shift_res = max(shift_res, abs(functional.eval(v.shifted(c), domain) - f_v))
        lam = rng.uniform()
        mix = v.scaled(lam) + w.scaled(1.0 - lam)
        conv_res = max(conv_res, functional.eval(mix, domain)
                       - lam * f_v - (1.0 - lam) * functional.eval(w, domain))
        if growth is not None:
            a, b, p = growth
            bound = _total(a + b * np.linalg.norm(grads, axis=-1) ** p, domain.cell_volume)
            growth_res = max(growth_res, f_v - bound)
    rows.append(_row("constant_shift_invariance", shift_res, 1e-12))
    rows.append(_row("convexity_in_u", conv_res, 1e-10))
    if growth is not None:
        rows.append(_row("growth_bound", growth_res, 1e-10))
    return rows


# -- sandwich and Jensen ----------------------------------------------------------


def suite_sandwich(mollifier: MollifierFamily, domain: GridDomain, rng: np.random.Generator,
                   eps_list=(0.4, 0.2, 0.1)) -> list:
    """The sandwich chain and the Jensen step of every menu integrand, on the
    inner set that erodes `domain` by 1.1 max(eps_list) in the mollifier's norm."""
    g = mollifier.group
    inner = erode_domain(g, mollifier.norm, domain, 1.1 * max(eps_list))
    if inner.is_empty:
        raise DomainError("eps schedule leaves no room for an inner domain")
    rows = []
    for idx, integrand in enumerate(menu_integrands(g.m, rng)):
        tag = f"{idx}_{type(integrand).__name__}"
        functional = IntegrandFunctional(g, integrand)
        for xi_scale in (0.5, 1.5):
            xi = xi_scale * rng.normal(size=g.m)
            u = probe_field(g, xi)
            chain = sandwich_check(functional, u, inner, domain, mollifier, eps_list)
            lo, hi = chain["lower"], chain["upper"]
            worst = max(max(lo - r["middle"], r["middle"] - hi) for r in chain["rows"])
            scale = max(1.0, abs(hi))
            rows.append(_row(f"chain_{tag}_xi{xi_scale:g}", worst / scale, 1e-10))
        u = random_quadratic(g, rng)
        lhs, rhs = jensen_check(functional, u, inner, mollifier, float(eps_list[0]), domain)
        rows.append(_row(f"jensen_{tag}", (lhs - rhs) / max(1.0, abs(rhs)), 1e-10))
    return rows


# -- lower semicontinuity -----------------------------------------------------------


def _sawtooth_field(group: StratifiedGroup, freq: float) -> ScalarField:
    """Triangle wave in x1 at the given frequency: values O(1/freq), slope +-1."""

    def phase(p):
        return ((freq * np.atleast_2d(p)[..., 0] + 1.0) % 2.0) - 1.0

    def values(p):
        return np.abs(phase(p)) / freq

    def hgrad(p):
        out = np.zeros((len(np.atleast_2d(p)), group.m))
        out[:, 0] = np.sign(phase(p))
        return out

    return ScalarField(values=values, hgrad=hgrad, name=f"sawtooth({freq:g})")


def suite_lsc(group: StratifiedGroup, domain: GridDomain,
              rng: np.random.Generator, h_list=(1, 2, 4, 8, 16)) -> list:
    g = group
    functional = IntegrandFunctional(g, PowerIntegrand(g.m, 2.0))
    rows = []

    u = random_quadratic(g, rng)
    w = random_quadratic(g, rng)
    seq = [u + w.scaled(1.0 / h) for h in h_list]
    rep = lsc_check(functional, u, seq, domain)
    # Cauchy-Schwarz bound on the quadratic cross term at the head of the tail
    fu, fw = functional.eval(u, domain), functional.eval(w, domain)
    h_tail = h_list[len(h_list) // 2]
    drift = 2.0 / h_tail * np.sqrt(fu * fw) + fw / h_tail**2
    rows.append(_row("lsc_perturbation_liminf",
                     rep["limit_value"] - rep["tail_min"], drift + 1e-10))
    rows.append(_row("lsc_perturbation_convergence",
                     abs(rep["sequence_values"][-1] - rep["limit_value"])
                     / max(1.0, rep["limit_value"]),
                     (2.0 * np.sqrt(fu * fw) + fw) / h_list[-1]))

    zero = constant_field(g, 0.0)
    # irrational-ish frequencies keep the sawtooth kinks off the cell centers
    osc = [_sawtooth_field(g, 0.731 * h / domain.spacing[0]) for h in h_list]
    rep = lsc_check(functional, zero, osc, domain)
    rows.append(_row("lsc_oscillation_liminf",
                     rep["limit_value"] - rep["tail_min"], 1e-10))
    strict = rep["tail_min"] - rep["limit_value"]
    rows.append({"name": "lsc_oscillation_strict", "value": float(strict),
                 "tolerance": float("inf"), "passed": strict > 0.5 * domain.volume})
    return rows

