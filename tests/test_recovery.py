"""Integrand recovery, uniqueness checks, the constrained minimizer and the
variational-limit experiment."""

from types import SimpleNamespace

import numpy as np
import pytest

from carnot import config, recovery
from carnot.groups import euclidean, heisenberg, engel
from carnot.fields import (GridDomain, DomainError, ScalarField, probe_field, quadratic_field,
                           _lp_norm)
from carnot.functionals import (PowerIntegrand, QuadraticIntegrand,
                                MaxAffineIntegrand, TabulatedIntegrand, OffsetIntegrand,
                                ShiftedArgIntegrand, Functional, IntegrandFunctional,
                                BlackBoxFunctional)
from carnot.recovery import (HypothesisError, uniform_xi_grid, recover_integrand,
                             constancy_probe, verify_uniqueness,
                             minimize_convex, gamma_experiment,
                             _gradient_operators, _PATIENCE, _REL_TOL)

from conftest import x_weighted_functional


@pytest.fixture(scope="module")
def h1():
    g = heisenberg(1)
    return g, g.norm()


@pytest.fixture(scope="module")
def ball(h1):
    g, norm = h1
    return GridDomain.ball(norm, g.origin(), 1.0, 12)


class TestRecovery:
    def test_grid_shape(self):
        grid = uniform_xi_grid(2, radius=4.0, points=9)
        assert grid.shape == (81, 2)
        assert grid.min() == -4.0 and grid.max() == 4.0

    def test_round_trip_menu(self, h1, ball):
        g, _ = h1
        rng = np.random.default_rng(0)
        b = rng.normal(size=(2, 2))
        xi_grid = uniform_xi_grid(2, radius=4.0, points=9)
        menu = [PowerIntegrand(2, 1.0), PowerIntegrand(2, 2.0), PowerIntegrand(2, 3.0),
                QuadraticIntegrand(b.T @ b + 0.1 * np.eye(2)),
                MaxAffineIntegrand(rng.normal(size=(5, 2)), rng.normal(size=5))]
        for f in menu:
            rec = recover_integrand(IntegrandFunctional(g, f), g, ball, xi_grid)
            truth = f(xi_grid)
            rel = np.abs(rec.values - truth) / np.maximum(1.0, np.abs(truth))
            assert rel.max() <= 1e-10
            assert rec.convexity_violation() <= 1e-10
            assert rec.growth_slack(f.growth).min() >= -1e-10

    def test_zero_probe_reads_f_at_zero(self, h1, ball):
        g, _ = h1
        f = OffsetIntegrand(PowerIntegrand(2, 2.0), 0.75)
        rec = recover_integrand(IntegrandFunctional(g, f), g, ball, np.zeros((1, 2)))
        assert rec.values[0] == pytest.approx(0.75, rel=1e-12)

    def test_empty_base_rejected(self, h1):
        g, _ = h1
        box = GridDomain.box(-np.ones(3), np.ones(3), 4)
        empty = GridDomain(box.lo, box.hi, box.shape, np.zeros(box.shape, bool))
        with pytest.raises(ValueError):
            recover_integrand(IntegrandFunctional(g, PowerIntegrand(2, 2.0)),
                              g, empty, np.zeros((1, 2)))


class TestProbeValues:
    """The one-pass probe recovery of an integrand functional against the
    per-probe evaluation every functional falls back on."""

    @staticmethod
    def _menu(rng):
        b = rng.normal(size=(2, 2))
        axis = np.linspace(-4.0, 4.0, 9)
        power = PowerIntegrand(2, 2.0)
        return {"power1": PowerIntegrand(2, 1.0), "power2": power,
                "power3": PowerIntegrand(2, 3.0),
                "quadratic": QuadraticIntegrand(b.T @ b + 0.1 * np.eye(2)),
                "max_affine": MaxAffineIntegrand(rng.normal(size=(5, 2)), rng.normal(size=5)),
                "tabulated": TabulatedIntegrand((axis, axis), np.add.outer(axis**2, axis**2)),
                "offset": OffsetIntegrand(power, 0.75),
                "shifted": ShiftedArgIntegrand(power, [1.0, -0.5])}

    # refine 2 sums 8K copies at an eighth of the cell volume, which rounds as
    # K copies do; refine 3 rounds differently
    @pytest.mark.parametrize("refine", [1, 2, 3])
    def test_matches_per_probe_eval_bit_for_bit(self, h1, ball, refine):
        g, _ = h1
        rng = np.random.default_rng(5)
        xi_grid = np.vstack([uniform_xi_grid(2, 4.0, 5), rng.uniform(-4, 4, size=(7, 2))])
        assert not ball.mask.all()
        for name, f in self._menu(rng).items():
            F = IntegrandFunctional(g, f, refine=refine)
            fast = F.probe_values(g, xi_grid, ball)
            np.testing.assert_array_equal(fast, Functional.probe_values(F, g, xi_grid, ball),
                                          err_msg=name)
            for k in (0, 12, len(xi_grid) - 1):
                assert fast[k] == F.eval(probe_field(g, xi_grid[k]), ball), name
            single = F.probe_values(g, xi_grid[:1], ball)
            assert single.shape == (1,) and single[0] == fast[0], name

    def test_blackbox_evaluates_every_probe(self, h1, ball):
        g, _ = h1
        F = IntegrandFunctional(g, PowerIntegrand(2, 3.0))
        seen = []

        def fn(u, domain):
            seen.append(u.name)
            return F.eval(u, domain)

        xi_grid = uniform_xi_grid(2, 4.0, 5)
        values = BlackBoxFunctional(fn).probe_values(g, xi_grid, ball)
        assert len(seen) == len(xi_grid)
        np.testing.assert_array_equal(values, F.probe_values(g, xi_grid, ball))

    def test_recovery_reads_probe_values(self, h1, ball):
        g, _ = h1
        F = x_weighted_functional(g)
        xi_grid = uniform_xi_grid(2, 2.0, 3)
        rec = recover_integrand(F, g, ball, xi_grid)
        np.testing.assert_array_equal(rec.values,
                                      F.probe_values(g, xi_grid, ball) / ball.volume)


class TestConstancy:
    CENTERS = np.array([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0], [0.0, -1.5, 0.5]])

    def test_left_invariant_spread_is_tiny(self, h1):
        g, norm = h1
        F = IntegrandFunctional(g, PowerIntegrand(2, 2.0))
        rep = constancy_probe(F, norm, [1.0, 0.0], self.CENTERS, [0.9, 0.7, 0.5])
        assert rep["max_spread"] <= 1e-12

    def test_x_dependent_fixture_fires(self, h1):
        g, norm = h1
        F = x_weighted_functional(g)
        rep = constancy_probe(F, norm, [1.0, 0.0], self.CENTERS, [0.9, 0.7, 0.5])
        assert rep["max_spread"] >= 0.5


class TestUniqueness:
    def test_same_integrand_two_resolutions(self, h1, ball):
        g, _ = h1
        f = PowerIntegrand(2, 2.0)
        F1 = IntegrandFunctional(g, f, refine=1)
        F2 = IntegrandFunctional(g, f, refine=2)
        F4 = IntegrandFunctional(g, f, refine=4)
        rng = np.random.default_rng(1)
        dom = GridDomain.box(-np.ones(3), np.ones(3), 6)
        pairs = [(quadratic_field(g, 0.0, rng.normal(size=3), rng.normal(size=(3, 3))),
                  dom) for _ in range(50)]
        rep = verify_uniqueness(F1, F2, g, ball, uniform_xi_grid(2, 4.0, 5),
                                pairs, probe_tol=1e-10)
        assert rep["probes_agree"]
        # order-2 quadrature: |F1 - F2| is controlled by the next refinement gap
        for (u, a), gap in zip(pairs, rep["value_gaps"]):
            finer = abs(F2.eval(u, a) - F4.eval(u, a))
            assert gap <= 4.5 * finer + 1e-12

    def test_offset_is_distinct_with_volume_gap(self, h1, ball):
        g, _ = h1
        f = PowerIntegrand(2, 2.0)
        F = IntegrandFunctional(g, f)
        G = IntegrandFunctional(g, OffsetIntegrand(f, 1.0))
        xi_grid = uniform_xi_grid(2, 4.0, 5)
        rep = verify_uniqueness(F, G, g, ball, xi_grid, [], probe_tol=1e-10)
        assert not rep["probes_agree"]
        assert rep["probe_gap"] == pytest.approx(1.0, abs=1e-10)
        # in functional values the probe gap is exactly |A0|
        u = probe_field(g, xi_grid[0])
        assert abs(F.eval(u, ball) - G.eval(u, ball)) == pytest.approx(
            ball.volume, abs=1e-10)

    def test_blackbox_wrap_agrees(self, h1, ball):
        g, _ = h1
        from carnot.functionals import BlackBoxFunctional
        F = IntegrandFunctional(g, PowerIntegrand(2, 2.0))
        G = BlackBoxFunctional(F.eval)
        rep = verify_uniqueness(F, G, g, ball, uniform_xi_grid(2, 4.0, 5),
                                [(probe_field(g, [0.3, 0.3]), ball)], probe_tol=1e-12)
        assert rep["probes_agree"] and rep["max_value_gap"] == 0.0


def _trust_region_optimum(H, u0, delta, cellvol):
    """Independent oracle: exact constrained minimum of v^T H v over the
    L^2 ball around u0, via eigendecomposition and bisection on the
    multiplier."""
    radius = delta / np.sqrt(cellvol)
    w, V = np.linalg.eigh(H)
    g = V.T @ (H @ u0)

    def step_norm(lam):
        return np.linalg.norm(g / (w + lam))

    if step_norm(1e-14) <= radius:
        coef = g / (w + 1e-14)
    else:
        lo, hi = 1e-14, 1.0
        while step_norm(hi) > radius:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if step_norm(mid) > radius else (lo, mid)
        coef = g / (w + hi)
    v = u0 - V @ coef
    return float(v @ H @ v)


@pytest.fixture(scope="module")
def problem():
    g = euclidean(2)
    dom = GridDomain.box(-np.ones(2), np.ones(2), 8)
    M = np.array([[2.0, 0.3], [0.3, 1.0]])
    F = IntegrandFunctional(g, QuadraticIntegrand(M))
    u = quadratic_field(g, 0.0, [1.0, -0.5], 0.3 * np.eye(2))
    ops = _gradient_operators(g, dom)
    H = np.zeros((ops[0].shape[1],) * 2)
    for j in range(2):
        for k in range(2):
            H += M[j, k] * (ops[j].T @ ops[k]).toarray()
    H = dom.cell_volume * 0.5 * (H + H.T)
    return g, dom, F, u, H


class TestMinimizer:
    def test_delta_zero_returns_anchor(self, problem):
        g, dom, F, u, _ = problem
        res = minimize_convex(g, [F.integrand], u, dom, 0.0)
        assert res.value[0] == res.start_value[0]
        np.testing.assert_array_equal(res.samples[0], u.values(dom.all_centers()))

    def test_never_exceeds_anchor(self, problem):
        g, dom, F, u, _ = problem
        for delta in (0.1, 0.5, 2.0):
            res = minimize_convex(g, [F.integrand], u, dom, delta, max_iter=100)
            assert res.value[0] <= res.start_value[0] + 1e-12

    def test_matches_trust_region_oracle(self, problem):
        g, dom, F, u, H = problem
        u0 = u.values(dom.all_centers())
        for delta in (0.25, 0.5):
            exact = _trust_region_optimum(H, u0, delta, dom.cell_volume)
            res = minimize_convex(g, [F.integrand], u, dom, delta, max_iter=600)
            assert res.value[0] == pytest.approx(exact, rel=1e-6)

    def test_large_ball_approaches_zero_energy(self, problem):
        g, dom, F, u, _ = problem
        res = minimize_convex(g, [F.integrand], u, dom, 50.0, max_iter=800)
        assert res.value[0] <= 0.05 * res.start_value[0]

    def test_negative_radius_rejected(self, problem):
        g, dom, F, u, _ = problem
        with pytest.raises(ValueError):
            minimize_convex(g, [F.integrand], u, dom, -1.0)
        with pytest.raises(ValueError, match="budget"):
            minimize_convex(g, [F.integrand], u, dom, 0.5, max_iter=-1)

    def test_non_finite_anchor_rejected(self, problem):
        g, dom, F, u, _ = problem
        holed = ScalarField(values=lambda p: np.where(np.atleast_2d(p)[:, 0] > 0.5, np.nan, 0.0),
                            name="holed")
        with pytest.raises(DomainError, match="holed"):
            minimize_convex(g, [F.integrand], holed, dom, 0.5)

    def test_converged_means_stalled(self, problem):
        # a large ball keeps improving for the whole budget; a tiny one stalls
        g, dom, F, u, _ = problem
        res = minimize_convex(g, [F.integrand], u, dom, 50.0, max_iter=20)
        assert (res.iterations, res.converged) == (20, False)
        res = minimize_convex(g, [F.integrand], u, dom, 1e-12, max_iter=400)
        assert res.converged and res.iterations < 400


def _reference_minimize(group, functional, anchor, domain, delta, p, max_iter):
    """The descent of `minimize_convex` with the per-direction layout: each
    directional derivative its own array, stacked on a trailing axis, and the
    adjoint applied through each operator's transpose."""
    f = functional.integrand
    mask_flat = domain.mask.ravel()
    cellvol = domain.cell_volume
    ops = _gradient_operators(group, domain)
    u0 = anchor.values(domain.all_centers())

    def objective(v):
        grads = np.stack([op @ v for op in ops], axis=-1)
        return float(np.sum(f(grads)) * cellvol), grads

    def subgradient(grads):
        df = f.value_and_grad(grads)[1]
        g = np.zeros_like(u0)
        for j, op in enumerate(ops):
            g += op.T @ df[:, j]
        return g * cellvol

    def project(v):
        w = v - u0
        nrm = _lp_norm(w[mask_flat], cellvol, p)
        return v if nrm <= delta or nrm == 0 else u0 + w * (delta / nrm)

    start_value, grads = objective(u0)
    v = u0.copy()
    best_v, best_val = v.copy(), start_value
    g = subgradient(grads)
    probes = np.logspace(-4, 1, 12) * (np.linalg.norm(u0 - u0.mean()) + 1.0) / (
        np.linalg.norm(g) + 1e-30)
    s0 = float(probes[int(np.argmin([objective(project(v - s * g))[0] for s in probes]))])
    stalled = 0
    for it in range(1, max_iter + 1):
        v = project(v - s0 / np.sqrt(it) * g)
        val, grads = objective(v)
        if val < best_val - _REL_TOL * max(1.0, abs(best_val)):
            best_val, best_v, stalled = val, v.copy(), 0
        else:
            stalled += 1
            if stalled >= _PATIENCE:
                break
        g = subgradient(grads)
    return best_v, best_val, it


def _integrand_menu(m, rng):
    b = rng.normal(size=(m, m))
    return {"power2": PowerIntegrand(m, 2.0), "power3": PowerIntegrand(m, 3.0),
            "quadratic": QuadraticIntegrand(b.T @ b + 0.1 * np.eye(m)),
            "max_affine": MaxAffineIntegrand(rng.normal(size=(5, m)), rng.normal(size=5))}


class TestMinimizerLayout:
    @pytest.mark.parametrize("group, shape", [(heisenberg(1), 6), (heisenberg(2), 4),
                                              (engel(), 4)], ids=["h1-6", "h2-4", "engel-4"])
    def test_matches_per_direction_descent_exactly(self, group, shape):
        # the stacked forward operator and the per-direction CSR adjoints must
        # reproduce the per-direction descent bit for bit
        rng = np.random.default_rng(3)
        dom = GridDomain.box(-np.ones(group.n), np.ones(group.n), shape)
        u = quadratic_field(group, 0.2, rng.normal(size=group.n),
                            rng.normal(size=(group.n, group.n)))
        for name, f in _integrand_menu(group.m, rng).items():
            F = IntegrandFunctional(group, f)
            res = minimize_convex(group, [F.integrand], u, dom, 0.5, 2.0, 30)
            samples, value, iterations = _reference_minimize(group, F, u, dom, 0.5, 2.0, 30)
            np.testing.assert_array_equal(res.samples[0], samples, err_msg=name)
            assert (res.value[0], res.iterations) == (value, iterations), name

    def test_gamma_builds_operators_once(self, h1, ball, monkeypatch):
        g, _ = h1
        calls = []

        def counted(group, domain):
            calls.append(domain)
            return _gradient_operators(group, domain)

        monkeypatch.setattr(recovery, "_gradient_operators", counted)
        seq = [(h, OffsetIntegrand(PowerIntegrand(2, 2.0), 1.0 / h)) for h in (1, 2, 4)]
        fields = [probe_field(g, np.array([0.5, 0.5])),
                  quadratic_field(g, 0.0, [1.0, 0.0, 0.5], 0.3 * np.eye(3))]
        dom = GridDomain.box(-np.ones(3), np.ones(3), 6)
        rep = gamma_experiment(g, seq, fields, dom, 0.5, 2.0, ball, np.zeros((1, 2)),
                               max_iter=5)
        assert len(rep["brackets"]) == 6
        assert len(calls) == 1


@pytest.fixture(scope="module")
def shared():
    g = heisenberg(1)
    base = PowerIntegrand(2, 2.0)
    return SimpleNamespace(
        g=g, dom=GridDomain.box(-np.ones(3), np.ones(3), 6), base=base,
        u=quadratic_field(g, 0.0, [1.0, 0.0, 0.5], np.diag([1.0, 0.3, 0.0])),
        offsets=[OffsetIntegrand(base, 1.0 / h) for h in (1, 2, 4, 8, 16)])


class TestSharedDescent:
    """One call over a family of integrands gives each integrand exactly what
    `_reference_minimize` gives it on its own: samples, value and start value."""

    @staticmethod
    def _check(shared, family, delta, max_iter=400):
        """The shared result and each integrand's own step count."""
        g, dom, u = shared.g, shared.dom, shared.u
        res = minimize_convex(g, family, u, dom, delta, 2.0, max_iter)
        u0 = u.values(dom.all_centers())
        grads0 = np.stack([op @ u0 for op in _gradient_operators(g, dom)], axis=-1)
        steps = []
        for i, f in enumerate(family):
            samples, value, it = _reference_minimize(g, IntegrandFunctional(g, f), u, dom,
                                                     delta, 2.0, max_iter)
            np.testing.assert_array_equal(res.samples[i], samples, err_msg=str(i))
            assert res.value[i] == value, i
            assert res.start_value[i] == float(np.sum(f(grads0)) * dom.cell_volume), i
            steps.append(it)
        return res, steps

    def test_split_line_search(self, shared):
        # rounding of the offsets tips the line search of h = 4, 8, 16 to
        # another s0: two descents, each as long as its slowest member
        res, steps = self._check(shared, shared.offsets, 0.02)
        assert steps == [59, 59, 55, 55, 55]
        assert res.iterations == 59 + 55
        assert res.converged and res.stalled.all()

    def test_members_stall_at_their_own_step(self, shared):
        res, steps = self._check(shared, shared.offsets, 0.03)
        assert steps == [67, 66, 66, 66, 66]
        assert res.iterations == 67 and res.converged
        # a budget between the two stall steps: only h = 1 has not stalled
        res, _ = self._check(shared, shared.offsets, 0.03, max_iter=66)
        assert res.stalled.tolist() == [False, True, True, True, True]
        assert res.iterations == 66 and not res.converged

    def test_constant_family(self, shared):
        res, steps = self._check(shared, [shared.base] * 3, 0.03)
        assert res.iterations == steps[0]
        assert res.stalled.all()

    def test_offsets_mixed_with_shifts(self, shared):
        shift = np.array([0.5, -0.25])
        left, right = (ShiftedArgIntegrand(shared.base, s) for s in (shift, -shift))
        family = [shared.offsets[0], left, shared.offsets[1], right, shared.offsets[2]]
        res, steps = self._check(shared, family, 0.03)
        # three descents: the offsets, then each shift on its own
        assert res.iterations == max(steps[0], steps[2], steps[4]) + steps[1] + steps[3]

    @pytest.mark.parametrize("gamma, cores", [
        ({"kind": "offset"}, 1), ({"kind": "constant"}, 1),
        ({"kind": "alternating", "shift": [1.0, 0.0]}, 2)],
        ids=["offset", "constant", "alternating"])
    def test_gamma_calls_once_per_field(self, shared, ball, monkeypatch, gamma, cores):
        g, dom, u = shared.g, shared.dom, shared.u
        cfg = config.load_config(overrides={"gamma": gamma, "schedules": {"h": [1, 2, 3, 4]}})
        seq = config.build_gamma_sequence(cfg, g)
        calls = []

        def counted(group, integrands, *args, **kwargs):
            calls.append(integrands)
            return minimize_convex(group, integrands, *args, **kwargs)

        monkeypatch.setattr(recovery, "minimize_convex", counted)
        fields = [u, probe_field(g, np.array([0.5, 0.5]))]
        rep = gamma_experiment(g, seq, fields, dom, 0.5, 2.0, ball, np.zeros((1, 2)),
                               max_iter=5)
        assert [row["h"] for row in rep["brackets"]] == [1, 1, 2, 2, 3, 3, 4, 4]
        assert len(calls) == 2
        for integrands in calls:
            assert [id(f) for f in integrands] == [id(f) for _, f in seq]
            assert len({id(recovery._core(f)) for f in integrands}) == cores


class TestGamma:
    def test_p_one_rejected(self, h1, ball):
        g, _ = h1
        seq = [(1, PowerIntegrand(2, 2.0))]
        dom = GridDomain.box(-np.ones(3), np.ones(3), 6)
        with pytest.raises(HypothesisError):
            gamma_experiment(g, seq, [], dom, 1.0, 1.0, ball, np.zeros((1, 2)))

    def test_offset_sequence_limit(self, h1, ball):
        g, _ = h1
        base = PowerIntegrand(2, 2.0)
        seq = [(h, OffsetIntegrand(base, 1.0 / h)) for h in (1, 2, 4, 8, 16)]
        dom = GridDomain.box(-np.ones(3), np.ones(3), 6)
        xi_grid = uniform_xi_grid(2, 4.0, 5)
        u = probe_field(g, np.array([0.5, 0.5]))
        rep = gamma_experiment(g, seq, [u], dom, 0.5, 2.0, ball, xi_grid, max_iter=40)
        gap = np.abs(rep["limit"].values - base(xi_grid)).max()
        assert gap <= 1.0 / 16.0 + 1e-6
        for row in rep["brackets"]:
            assert row["lower"] <= row["upper"] + 1e-12
        assert rep["limit_convexity_violation"] <= 1e-10

    def test_constant_sequence_collapses(self, h1, ball):
        g, _ = h1
        base = PowerIntegrand(2, 2.0)
        seq = [(h, base) for h in (1, 2, 4)]
        dom = GridDomain.box(-np.ones(3), np.ones(3), 6)
        u = probe_field(g, np.array([1.0, 0.0]))
        rep = gamma_experiment(g, seq, [u], dom, 0.0, 2.0, ball,
                               np.zeros((1, 2)), max_iter=0)
        uppers = {row["upper"] for row in rep["brackets"]}
        lowers = {row["lower"] for row in rep["brackets"]}
        assert len(uppers) == 1 and uppers == lowers

    def test_alternating_sequence_has_two_limits(self, h1, ball):
        g, _ = h1
        shift = np.array([1.0, 0.0])
        seq = [(h, ShiftedArgIntegrand(PowerIntegrand(2, 2.0), (-1) ** h * shift))
               for h in (1, 2, 3, 4, 5, 6)]
        dom = GridDomain.box(-np.ones(3), np.ones(3), 6)
        xi_grid = uniform_xi_grid(2, 4.0, 5)
        rep = gamma_experiment(g, seq, [], dom, 0.0, 2.0, ball, xi_grid)
        recs = [rec.values for rec in rep["recovered"]]
        odd, even = recs[0::2], recs[1::2]
        for sub in (odd, even):
            for r in sub[1:]:
                np.testing.assert_allclose(r, sub[0], atol=1e-10)
        assert np.abs(odd[0] - even[0]).max() > 1.0
