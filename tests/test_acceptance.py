"""Acceptance gate: one test per criterion, pinned tolerances.

Each test prints a single summary line with the measured quantity so the
log reads as a pass/fail table under `pytest -v`.
"""

import time

import numpy as np
import pytest

from carnot.groups import euclidean, heisenberg, engel
from carnot.fields import (GridDomain, ScalarField, probe_field, quadratic_field,
                           horizontal_gradient)
from carnot.mollify import MollifierFamily, erode_domain, convolve, \
    commutation_residual, convergence_table
from carnot.functionals import (PowerIntegrand, QuadraticIntegrand,
                                MaxAffineIntegrand, OffsetIntegrand,
                                ShiftedArgIntegrand, IntegrandFunctional,
                                check_left_invariance, jensen_check)
from carnot.recovery import (uniform_xi_grid, recover_integrand, constancy_probe,
                             verify_uniqueness, gamma_experiment)
from carnot.suites import (suite_axioms, suite_functional, suite_sandwich,
                           random_quadratic, menu_integrands)
from carnot.cli import main as cli_main, EXIT_HYPOTHESIS

from conftest import x_weighted_functional

H1 = heisenberg(1)


def _menu(rng):
    return menu_integrands(2, rng)


def test_criterion_01_group_algebra_axioms():
    """Axioms and norm properties on all presets: residual <= 1e-12, < 5 s."""
    t0 = time.monotonic()
    worst = 0.0
    for g in (euclidean(2), euclidean(3), heisenberg(1), heisenberg(2), engel()):
        rows = suite_axioms(g.norm(), np.random.default_rng(0), tol=1e-12)
        algebra = [r for r in rows if r["name"] != "haar_translation_volume"]
        assert all(r["passed"] for r in algebra), [r for r in algebra if not r["passed"]]
        worst = max(worst, max(r["value"] for r in algebra))
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"PASS criterion 1: axiom residual {worst:.3g} <= 1e-12 in {elapsed:.2f}s")


def test_criterion_02_frame_left_invariance():
    """X_j(tau_y u) = tau_y(X_j u) on 100 random pairs: residual <= 1e-10.

    The left side differentiates the values of tau_y u along x . (t e_j);
    t -> u(x . t e_j) is a quadratic on a step-2 group, so a central group
    difference of any step is exact up to roundoff.  It must match both
    tau_y(X_j u) and the gradient the translated field carries."""
    from carnot.fields import translate_field
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        y = rng.uniform(-1, 1, H1.n)
        u = random_quadratic(H1, rng)
        pts = rng.uniform(-1, 1, (20, H1.n))
        tu = translate_field(H1, y, u)
        lhs = horizontal_gradient(H1, tu, pts, "group-fd", h=0.25)
        for rhs in (u.hgrad(H1.multiply(H1.inverse(y), pts)), tu.hgrad(pts)):
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst <= 1e-10
    print(f"PASS criterion 2: frame invariance residual {worst:.3g} <= 1e-10")


def test_criterion_03_probe_identity_and_fd_order():
    """grad of probes is xi exactly; fd error ratio in [3.2, 4.8] on 20 xi."""
    rng = np.random.default_rng(2)
    ratios = []
    for _ in range(20):
        xi = rng.normal(size=H1.m)
        u = probe_field(H1, xi)
        pts = rng.uniform(-1, 1, (30, H1.n))
        assert np.abs(u.hgrad(pts) - xi).max() == 0.0
        # cubic of the probe: the fd truncation term is exactly order 2
        exi = np.zeros(H1.n)
        exi[:H1.m] = xi
        cubic = ScalarField(
            values=lambda p, e=exi: (np.atleast_2d(p) @ e + 0.7) ** 3,
            hgrad=lambda p, e=exi, x=xi:
                3.0 * ((np.atleast_2d(p) @ e + 0.7) ** 2)[:, None] * x)
        exact = cubic.hgrad(pts)
        e1 = np.abs(horizontal_gradient(H1, cubic, pts, "group-fd", h=1e-2) - exact).max()
        e2 = np.abs(horizontal_gradient(H1, cubic, pts, "group-fd", h=5e-3) - exact).max()
        ratios.append(e1 / e2)
    assert all(3.2 <= r <= 4.8 for r in ratios)
    print(f"PASS criterion 3: fd order ratios in [{min(ratios):.3f}, {max(ratios):.3f}]")


def test_criterion_04_mollifier_laws():
    """Unit mass 1e-6, constants 1e-10, probe fixed point 1e-6, commutation 1e-4."""
    norm = H1.norm()
    omega = GridDomain.box(-np.ones(3), np.ones(3), 12)
    rng = np.random.default_rng(3)
    from carnot.fields import constant_field
    for resolution in (7, 9, 13):
        fam = MollifierFamily(norm, resolution=resolution)
        for eps in (0.4, 0.2, 0.1):
            assert abs(fam.unit_mass(eps) - 1.0) <= 1e-6
    fam = MollifierFamily(norm, resolution=9)
    c_eps = convolve(fam, 0.3, constant_field(H1, 2.5), omega)
    pts = c_eps.domain.centers()
    const_err = float(np.abs(c_eps.values(pts) - 2.5).max())
    assert const_err <= 1e-10
    u_xi = probe_field(H1, rng.normal(size=2))
    p_eps = convolve(fam, 0.3, u_xi, omega)
    probe_err = float(np.abs(p_eps.values(pts) - u_xi.values(pts)).max())
    assert probe_err <= 1e-6
    quad = random_quadratic(H1, rng)
    comm = commutation_residual(fam, 0.3, quad, omega)
    assert comm <= 1e-4
    print(f"PASS criterion 4: const {const_err:.3g}, probe {probe_err:.3g}, "
          f"commutation {comm:.3g}")


def test_criterion_05_mollifier_convergence():
    """Both error columns strictly decreasing, final <= 25% of initial, < 60 s."""
    t0 = time.monotonic()
    norm = H1.norm()
    fam = MollifierFamily(norm, resolution=9)
    omega = GridDomain.box(-np.ones(3), np.ones(3), 12)
    inner = erode_domain(H1, norm, omega, 0.45)
    u = random_quadratic(H1, np.random.default_rng(4))
    rows = convergence_table(fam, u, omega, inner, 2.0, [0.4, 0.2, 0.1, 0.05])
    lp = [r["Lp_err"] for r in rows]
    w1 = [r["W1p_err"] for r in rows]
    assert all(a > b for a, b in zip(lp, lp[1:]))
    assert all(a > b for a, b in zip(w1, w1[1:]))
    assert lp[-1] <= 0.25 * lp[0] and w1[-1] <= 0.25 * w1[0]
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 5: Lp ratio {lp[-1] / lp[0]:.3g}, "
          f"W1p ratio {w1[-1] / w1[0]:.3g} in {elapsed:.1f}s")


def test_criterion_06_functional_hypotheses():
    """Locality, additivity, monotonicity, shift invariance, convexity,
    growth on 200 samples per menu integrand."""
    rng = np.random.default_rng(5)
    dom = GridDomain.box(-np.ones(3), np.ones(3), 8)
    for integrand in _menu(rng):
        rows = suite_functional(H1, integrand, dom, rng, samples=200)
        assert all(r["passed"] for r in rows), \
            (type(integrand).__name__, [r for r in rows if not r["passed"]])
    print("PASS criterion 6: all functional hypothesis rows pass, 200 samples each")


def test_criterion_07_functional_left_invariance():
    """Abelian grid-aligned residual <= 1e-12; halving h cuts the Heisenberg
    residual by a factor <= 0.6."""
    ge = euclidean(2)
    Fe = IntegrandFunctional(ge, PowerIntegrand(2, 2.0))
    dom = GridDomain.box(-np.ones(2), np.ones(2), 8)
    u = quadratic_field(ge, 0.0, [1.0, -2.0], 0.4 * np.eye(2))
    ys = np.array([[2, 1], [-3, 2]]) * dom.spacing
    abelian = check_left_invariance(ge, Fe, u, dom, ys)["max_residual"]
    assert abelian <= 1e-12

    rng = np.random.default_rng(6)
    F = IntegrandFunctional(H1, PowerIntegrand(2, 2.0))
    uq = random_quadratic(H1, rng)
    ys = rng.uniform(-0.3, 0.3, (3, 3))
    res = []
    for shape in (8, 16):
        box = GridDomain.box(-np.ones(3), np.ones(3), shape)
        res.append(check_left_invariance(H1, F, uq, box, ys)["max_residual"])
    ratio = res[1] / res[0]
    assert ratio <= 0.6
    print(f"PASS criterion 7: abelian {abelian:.3g} <= 1e-12, halving ratio "
          f"{ratio:.3f} <= 0.6")


def test_criterion_08_sandwich_and_jensen():
    """Three-term chain on 10 configurations; Jensen violation <= 1e-10."""
    norm = H1.norm()
    fam = MollifierFamily(norm, resolution=9)
    omega = GridDomain.box(-np.ones(3), np.ones(3), 12)
    rows = suite_sandwich(fam, omega, np.random.default_rng(7), eps_list=[0.4, 0.2, 0.1])
    chains = [r for r in rows if r["name"].startswith("chain_")]
    jensens = [r for r in rows if r["name"].startswith("jensen_")]
    assert len(chains) == 10
    assert all(r["passed"] for r in rows), [r for r in rows if not r["passed"]]
    worst_chain = max(r["value"] for r in chains)
    worst_jensen = max(r["value"] for r in jensens)
    assert worst_jensen <= 1e-10
    print(f"PASS criterion 8: chain residual {worst_chain:.3g}, jensen "
          f"violation {worst_jensen:.3g} <= 1e-10 on 10 configurations")


def test_criterion_09_recovery_round_trip():
    """Menu round trip on the default xi-grid: relative error <= 1e-10,
    convexity <= 1e-10, growth slack >= -1e-10."""
    rng = np.random.default_rng(8)
    ball = GridDomain.ball(H1.norm(), H1.origin(), 1.0, 12)
    xi_grid = uniform_xi_grid(2, radius=4.0, points=17)
    worst_rel = 0.0
    for f in _menu(rng):
        rec = recover_integrand(IntegrandFunctional(H1, f), H1, ball, xi_grid)
        truth = f(xi_grid)
        rel = float((np.abs(rec.values - truth) / np.maximum(1.0, np.abs(truth))).max())
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-10
        assert rec.convexity_violation() <= 1e-10
        assert rec.growth_slack(f.growth).min() >= -1e-10
    print(f"PASS criterion 9: round-trip relative error {worst_rel:.3g} <= 1e-10")


def test_criterion_10_constancy_detector():
    """Left-invariant fixtures: spread <= 1e-12; the x-dependent fixture
    f(x, eta) = (1 + x1^2)|eta|^2 separates with spread >= 0.5."""
    norm = H1.norm()
    centers = np.array([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0], [0.0, 1.5, -0.5]])
    radii = [0.9, 0.7, 0.5]
    invariant_spreads = []
    for f in (PowerIntegrand(2, 2.0), QuadraticIntegrand(np.eye(2)),
              MaxAffineIntegrand(np.array([[1.0, 1.0]]), np.array([0.5]))):
        rep = constancy_probe(IntegrandFunctional(H1, f), norm,
                              [1.0, 0.0], centers, radii)
        invariant_spreads.append(rep["max_spread"])
    dependent = constancy_probe(x_weighted_functional(H1), norm,
                                [1.0, 0.0], centers, radii)["max_spread"]
    assert max(invariant_spreads) <= 1e-12
    assert dependent >= 0.5
    assert max(invariant_spreads) < dependent  # zero overlap on the fixture set
    print(f"PASS criterion 10: invariant spread {max(invariant_spreads):.3g}, "
          f"x-dependent spread {dependent:.3g} >= 0.5")


def test_criterion_11_uniqueness():
    """Probe agreement then value agreement within refinement tolerance;
    the offset pair is distinct with probe gap |A0| +- 1e-10."""
    rng = np.random.default_rng(9)
    ball = GridDomain.ball(H1.norm(), H1.origin(), 1.0, 12)
    xi_grid = uniform_xi_grid(2, 4.0, 5)
    f = PowerIntegrand(2, 2.0)
    F1 = IntegrandFunctional(H1, f, refine=1)
    F2 = IntegrandFunctional(H1, f, refine=2)
    F4 = IntegrandFunctional(H1, f, refine=4)
    dom = GridDomain.box(-np.ones(3), np.ones(3), 6)
    pairs = [(random_quadratic(H1, rng), dom) for _ in range(50)]
    rep = verify_uniqueness(F1, F2, H1, ball, xi_grid, pairs, probe_tol=1e-10)
    assert rep["probes_agree"]
    for (u, a), gap in zip(pairs, rep["value_gaps"]):
        assert gap <= 4.5 * abs(F2.eval(u, a) - F4.eval(u, a)) + 1e-12

    G = IntegrandFunctional(H1, OffsetIntegrand(f, 1.0))
    u = probe_field(H1, xi_grid[0])
    gap = abs(F1.eval(u, ball) - G.eval(u, ball))
    assert gap == pytest.approx(ball.volume, abs=1e-10)
    rep2 = verify_uniqueness(F1, G, H1, ball, xi_grid, [], probe_tol=1e-10)
    assert not rep2["probes_agree"]
    print(f"PASS criterion 11: 50 samples within refinement tolerance; "
          f"offset probe gap {gap:.12g} = |A0| = {ball.volume:.12g}")


def test_criterion_12_gamma_experiment():
    """f_h = |eta|^2 + 1/h: limit within 1/16 + 1e-6; brackets ordered;
    alternating fixture splits into two subsequence limits; p = 1 exits 3;
    < 120 s on a 32^3 grid."""
    t0 = time.monotonic()
    base = PowerIntegrand(2, 2.0)
    ball = GridDomain.ball(H1.norm(), H1.origin(), 1.0, 12)
    xi_grid = uniform_xi_grid(2, 4.0, 9)
    dom = GridDomain.box(-np.ones(3), np.ones(3), 32)
    fields = [probe_field(H1, np.array([0.6, -0.2])),
              random_quadratic(H1, np.random.default_rng(10))]
    seq = [(h, OffsetIntegrand(base, 1.0 / h)) for h in (1, 2, 4, 8, 16)]
    rep = gamma_experiment(H1, seq, fields, dom, 0.5, 2.0, ball, xi_grid, max_iter=50)
    gap = float(np.abs(rep["limit"].values - base(xi_grid)).max())
    assert gap <= 1.0 / 16.0 + 1e-6
    for row in rep["brackets"]:
        assert row["lower"] <= row["upper"] + 1e-12
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0

    alt = [(h, ShiftedArgIntegrand(base, (-1) ** h * np.array([1.0, 0.0])))
           for h in (1, 2, 3, 4, 5, 6)]
    small = GridDomain.box(-np.ones(3), np.ones(3), 6)
    rep2 = gamma_experiment(H1, alt, [], small, 0.0, 2.0, ball, xi_grid)
    recs = [rec.values for rec in rep2["recovered"]]
    for sub in (recs[0::2], recs[1::2]):
        for r in sub[1:]:
            np.testing.assert_allclose(r, sub[0], atol=1e-10)
    assert np.abs(recs[0] - recs[1]).max() > 1.0

    import json, tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "p1.json")
        with open(cfg, "w") as fh:
            json.dump({"p": 1.0}, fh)
        assert cli_main(["gamma", "--config", cfg]) == EXIT_HYPOTHESIS
    print(f"PASS criterion 12: limit gap {gap:.3g} <= 1/16 + 1e-6, 32^3 run "
          f"in {elapsed:.1f}s, alternating subsequence limits distinct, p=1 exit 3")
