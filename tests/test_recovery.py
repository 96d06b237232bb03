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
                                BlackBoxFunctional, _repeated_totals, _total)
from carnot.recovery import (HypothesisError, uniform_xi_grid, recover_integrand,
                             constancy_probe, verify_uniqueness,
                             minimize_convex, gamma_experiment,
                             _gradient_operators, _PATIENCE, _REL_TOL)

from conftest import (assert_same_bits, csr_interpolation, with_non_finite,
                      x_weighted_functional)


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
    def test_matches_per_probe_eval_bit_for_bit(self, h1, refine):
        g, _ = h1
        # a Koranyi ball masks part of its box; a weighted-max one at the origin is the box
        ball = GridDomain.ball(g.norm("koranyi"), g.origin(), 1.0, 12)
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

    def test_one_reduction_sums_as_full_arrays_do(self):
        # every total of K copies of a value has the bits of the sum of a
        # K-entry array: K < 300, powers of two +-1 up to 2^18 and random K,
        # for special values (+-inf, nan, +-0.0, subnormals, +-1e308) and
        # random ones; a numpy whose reduction order changes fails here
        rng = np.random.default_rng(11)
        values = np.concatenate([
            [np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, 1 / 3],
            rng.normal(size=8) * 10.0 ** rng.integers(-30, 30, size=8)])
        counts = set(range(1, 300)) | {2 ** e + d for e in range(1, 19) for d in (-1, 0, 1)}
        counts |= set(rng.integers(300, 2 ** 18, size=8).tolist())
        with np.errstate(over="ignore"):  # the 1e308 sums overflow, in both forms
            for k in sorted(counts):
                assert_same_bits(_repeated_totals(values, k, 0.37),
                                 np.array([_total(np.full(k, v), 0.37) for v in values]))

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
        rep = constancy_probe(F, norm, [1.0, 0.0], self.CENTERS, [0.9, 0.7, 0.5], 12)
        assert rep["max_spread"] <= 1e-12

    def test_x_dependent_fixture_fires(self, h1):
        g, norm = h1
        F = x_weighted_functional(g)
        rep = constancy_probe(F, norm, [1.0, 0.0], self.CENTERS, [0.9, 0.7, 0.5], 12)
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
    ops = _direction_operators(g, dom)
    H = np.zeros((ops[0].shape[1],) * 2)
    for j in range(2):
        for k in range(2):
            H += M[j, k] * (ops[j].T @ ops[k]).toarray()
    H = dom.cell_volume * 0.5 * (H + H.T)
    return g, dom, F, u, H


class TestMinimizer:
    def test_delta_zero_returns_anchor(self, problem):
        g, dom, F, u, _ = problem
        res = minimize_convex(g, [F.integrand], [u], dom, 0.0, 2.0, 400)
        assert res.value[0, 0] == res.start_value[0, 0]
        np.testing.assert_array_equal(res.samples[0, 0], u.values(dom.all_centers()))

    def test_never_exceeds_anchor(self, problem):
        g, dom, F, u, _ = problem
        for delta in (0.1, 0.5, 2.0):
            res = minimize_convex(g, [F.integrand], [u], dom, delta, 2.0, max_iter=100)
            assert res.value[0, 0] <= res.start_value[0, 0] + 1e-12

    def test_matches_trust_region_oracle(self, problem):
        g, dom, F, u, H = problem
        u0 = u.values(dom.all_centers())
        for delta in (0.25, 0.5):
            exact = _trust_region_optimum(H, u0, delta, dom.cell_volume)
            res = minimize_convex(g, [F.integrand], [u], dom, delta, 2.0, max_iter=600)
            assert res.value[0, 0] == pytest.approx(exact, rel=1e-6)

    def test_large_ball_approaches_zero_energy(self, problem):
        g, dom, F, u, _ = problem
        res = minimize_convex(g, [F.integrand], [u], dom, 50.0, 2.0, max_iter=800)
        assert res.value[0, 0] <= 0.05 * res.start_value[0, 0]

    def test_negative_radius_rejected(self, problem):
        g, dom, F, u, _ = problem
        with pytest.raises(ValueError):
            minimize_convex(g, [F.integrand], [u], dom, -1.0, 2.0, 400)
        with pytest.raises(ValueError, match="budget"):
            minimize_convex(g, [F.integrand], [u], dom, 0.5, 2.0, max_iter=-1)

    def test_non_finite_anchor_rejected(self, problem):
        g, dom, F, u, _ = problem
        holed = ScalarField(values=lambda p: np.where(np.atleast_2d(p)[:, 0] > 0.5, np.nan, 0.0),
                            name="holed")
        with pytest.raises(DomainError, match="holed"):
            minimize_convex(g, [F.integrand], [holed], dom, 0.5, 2.0, 400)

    def test_converged_means_stalled(self, problem):
        # a large ball keeps improving for the whole budget; a tiny one stalls
        g, dom, F, u, _ = problem
        res = minimize_convex(g, [F.integrand], [u], dom, 50.0, 2.0, max_iter=20)
        assert (res.iterations, res.converged) == (20, False)
        res = minimize_convex(g, [F.integrand], [u], dom, 1e-12, 2.0, max_iter=400)
        assert res.converged and res.iterations < 400

    def test_one_subgradient_per_step(self, problem, monkeypatch):
        # each descent step reads one subgradient, m adjoint products: the
        # line search's before the first step, then one after every step but
        # the last, which no step reads; on the budget (20 steps) and on a
        # stall (fewer)
        g, dom, F, u, _ = problem
        products = []

        class Counted:
            def __init__(self, table):
                self.table = table

            def __matmul__(self, values):
                products.append(self.table)
                return self.table @ values

        def counted(group, domain):
            forward, adjoints = _gradient_operators(group, domain)
            return forward, [Counted(adjoint) for adjoint in adjoints]

        monkeypatch.setattr(recovery, "_gradient_operators", counted)
        for delta, max_iter in ((50.0, 20), (1e-12, 400)):
            products.clear()
            res = minimize_convex(g, [F.integrand], [u], dom, delta, 2.0, max_iter)
            assert res.converged == (res.iterations < max_iter)
            assert len(products) == g.m * res.iterations


def _lattice(group, shape, koranyi=False):
    """The box [-1, 1]^n on `shape` cells per axis, or the unit ball of the
    Koranyi norm masked over its bounding box."""
    if koranyi:
        return GridDomain.ball(group.norm("koranyi"), group.origin(), 1.0, shape)
    return GridDomain.box(-np.ones(group.n), np.ones(group.n), shape)


def _direction_operators(group, domain):
    """The per-direction group-fd operators, one scipy CSR matrix per
    direction, each (fwd - bwd interpolation) / 2h on the cells whose stencils
    stay in the sample hull: the oracle the gather tables must reproduce."""
    centers = domain.centers()
    stencil = []
    valid = np.ones(len(centers), dtype=bool)
    for j in range(group.m):
        step = np.zeros(group.n)
        step[j] = domain.spacing[j]
        fwd, bwd = group.multiply(centers, step), group.multiply(centers, -step)
        valid &= (domain._in_hull(domain._node_coords(fwd))
                  & domain._in_hull(domain._node_coords(bwd)))
        stencil.append((fwd, bwd))
    return [(csr_interpolation(domain, fwd[valid]) - csr_interpolation(domain, bwd[valid]))
            / (2.0 * domain.spacing[j]) for j, (fwd, bwd) in enumerate(stencil)]


def _reference_minimize(group, functional, anchor, domain, delta, p, max_iter):
    """The descent of `minimize_convex` with the per-direction layout: each
    directional derivative its own array, stacked on a trailing axis, and the
    adjoint applied through each operator's transpose.  Returns the best
    iterate, its value, the steps taken and whether the stall rule fired."""
    f = functional.integrand
    mask_flat = domain.mask.ravel()
    cellvol = domain.cell_volume
    ops = _direction_operators(group, domain)
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
    trials = np.array([objective(project(v - s * g))[0] for s in probes])
    # the smallest step within the stall rule's tolerance of the best trial
    s0 = float(probes[trials <= trials.min() + _REL_TOL * max(1.0, abs(trials.min()))][0])
    count = 0
    for it in range(1, max_iter + 1):
        v = project(v - s0 / np.sqrt(it) * g)
        val, grads = objective(v)
        if val < best_val - _REL_TOL * max(1.0, abs(best_val)):
            best_val, best_v, count = val, v.copy(), 0
        else:
            count += 1
            if count >= _PATIENCE:
                break
        g = subgradient(grads)
    return best_v, best_val, it, count >= _PATIENCE


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
            res = minimize_convex(group, [F.integrand], [u], dom, 0.5, 2.0, 30)
            samples, value, iterations, _ = _reference_minimize(group, F, u, dom, 0.5, 2.0, 30)
            np.testing.assert_array_equal(res.samples[0, 0], samples, err_msg=name)
            assert (res.value[0, 0], res.iterations) == (value, iterations), name

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
        # no field: nothing to minimize, no operator to build
        rep = gamma_experiment(g, seq, [], dom, 0.5, 2.0, ball, np.zeros((1, 2)), max_iter=5)
        assert rep["brackets"] == [] and len(calls) == 1

    @pytest.mark.parametrize("group, shape, koranyi", [
        (heisenberg(1), 6, False), (heisenberg(1), 32, False), (engel(), 5, False),
        (heisenberg(2), 5, False), (euclidean(2), 8, False), (heisenberg(1), 12, True)],
        ids=["h1-6", "h1-32", "engel-5", "h2-5", "euclidean2-8", "h1-koranyi-12"])
    def test_stack_is_the_per_direction_operators(self, group, shape, koranyi):
        # the forward table's product is the stacked CSR products and each
        # transposed table's is its CSR transpose's, bit for bit, also where a
        # sample is +-inf or nan and where a product overflows, without a
        # floating-point warning (pytest turns one into an error); on Engel
        # 5^4 and H^2 5^5 the rows have different widths (3 to 32 and 3 to
        # 64 entries), and the Koranyi ball masks part of its box
        from scipy import sparse

        dom = _lattice(group, shape, koranyi)
        forward, adjoints = _gradient_operators(group, dom)
        ops = _direction_operators(group, dom)
        stack = sparse.vstack(ops, format="csr")
        assert forward.shape == stack.shape and len(adjoints) == group.m
        rng = np.random.default_rng(shape)
        v = rng.normal(size=stack.shape[1])
        for samples in (v, with_non_finite(v, rng), 1e307 * v):
            assert_same_bits(forward @ samples, stack @ samples)
        for adjoint, op in zip(adjoints, ops):
            w = rng.normal(size=op.shape[0])
            assert adjoint.shape == op.T.shape
            for values in (w, with_non_finite(w, rng), 1e307 * w):
                assert_same_bits(adjoint @ values, op.T.tocsr() @ values)

    @pytest.mark.parametrize("group, shape, koranyi, chunk", [
        (engel(), 5, False, 7), (heisenberg(2), 4, False, 7), (heisenberg(1), 6, False, 1),
        (heisenberg(1), 8, True, 7)], ids=["engel-5", "h2-4", "h1-6-chunk-1", "h1-koranyi-8"])
    def test_chunks_do_not_change_the_products(self, group, shape, koranyi, chunk, monkeypatch):
        # rows of different widths split over many chunks of the build; with
        # one cell per chunk, the chunks of the boundary cells hold no valid
        # stencil, and on the Koranyi ball only some of a box row's cells are masked
        monkeypatch.setattr(recovery, "_CHUNK", chunk)
        dom = _lattice(group, shape, koranyi)
        forward, adjoints = _gradient_operators(group, dom)
        ops = _direction_operators(group, dom)
        assert 0 < forward.shape[0] < group.m * len(dom.centers())
        rng = np.random.default_rng(shape)
        v = rng.normal(size=dom.mask.size)
        assert_same_bits(forward @ v, np.concatenate([op @ v for op in ops]))
        for adjoint, op in zip(adjoints, ops):
            w = rng.normal(size=op.shape[0])
            assert_same_bits(adjoint @ w, op.T.tocsr() @ w)

    def test_operator_build_memory(self):
        # the build works in row chunks: on H^1 32^3 its traced peak stays at
        # half the 25.9 MB the CSR build took, for about 7.4 MB of tables
        import tracemalloc

        group, dom = heisenberg(1), GridDomain.box(-np.ones(3), np.ones(3), 32)
        tracemalloc.start()
        try:
            _gradient_operators(group, dom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 13e6

    def test_members_read_the_core_values(self):
        # a member's values built from its core's are the member's own values,
        # bit for bit: offsets nested three deep, on a power core and on a
        # shifted-argument core
        rng = np.random.default_rng(5)
        grads = rng.normal(size=(50, 2))
        for core in (PowerIntegrand(2, 2.0),
                     ShiftedArgIntegrand(PowerIntegrand(2, 1.5), [0.3, -0.7])):
            members = [core, OffsetIntegrand(core, 0.1),
                       OffsetIntegrand(OffsetIntegrand(core, 1.0 / 3), 0.7),
                       OffsetIntegrand(OffsetIntegrand(OffsetIntegrand(core, 1e-9), 2.5), 1.0 / 7)]
            core_values = core.value_and_grad(grads)[0]
            for f in members:
                assert recovery._core(f) is core
                assert_same_bits(recovery._from_core(f, core_values), f(grads))


@pytest.fixture(scope="module")
def shared():
    g = heisenberg(1)
    base = PowerIntegrand(2, 2.0)
    return SimpleNamespace(
        g=g, dom=GridDomain.box(-np.ones(3), np.ones(3), 6), base=base,
        u=quadratic_field(g, 0.0, [1.0, 0.0, 0.5], np.diag([1.0, 0.3, 0.0])),
        offsets=[OffsetIntegrand(base, 1.0 / h) for h in (1, 2, 4, 8, 16)])


class TestSharedDescent:
    """One call over a family of integrands walks one descent per core
    (`_core`): each integrand's samples are what `_reference_minimize` gives
    its core, its value is its own total there, and its stall flag is the
    core's."""

    @staticmethod
    def _check(shared, family, delta, max_iter=400):
        """The shared result and each integrand's core's step count."""
        g, dom, u = shared.g, shared.dom, shared.u
        res = minimize_convex(g, family, [u], dom, delta, 2.0, max_iter)
        ops = _direction_operators(g, dom)

        def total(f, v):
            return float(np.sum(f(np.stack([op @ v for op in ops], axis=-1))) * dom.cell_volume)

        steps = []
        for i, f in enumerate(family):
            samples, _, it, stalled = _reference_minimize(
                g, IntegrandFunctional(g, recovery._core(f)), u, dom, delta, 2.0, max_iter)
            np.testing.assert_array_equal(res.samples[0, i], samples, err_msg=str(i))
            assert res.value[0, i] == total(f, samples), i
            assert res.start_value[0, i] == total(f, u.values(dom.all_centers())), i
            assert res.stalled[0, i] == stalled, i
            steps.append(it)
        return res, steps

    def test_one_descent_per_family(self, shared):
        # the offsets' line-search trials tie at rounding level, yet the family
        # walks one descent: its core's
        res, steps = self._check(shared, shared.offsets, 0.02)
        assert len(set(steps)) == 1
        assert res.iterations == steps[0]
        assert res.converged and res.stalled.all()

    def test_members_stall_with_their_core(self, shared):
        res, steps = self._check(shared, shared.offsets, 0.03)
        assert len(set(steps)) == 1
        assert res.iterations == steps[0] and res.converged
        # a budget one step short of the stall: no member has stalled
        res, _ = self._check(shared, shared.offsets, 0.03, max_iter=steps[0] - 1)
        assert not res.stalled.any()
        assert res.iterations == steps[0] - 1 and not res.converged

    def test_constant_family(self, shared):
        res, steps = self._check(shared, [shared.base] * 3, 0.03)
        assert res.iterations == steps[0]
        assert res.stalled.all()

    def test_offsets_mixed_with_shifts(self, shared):
        shift = np.array([0.5, -0.25])
        left, right = (ShiftedArgIntegrand(shared.base, s) for s in (shift, -shift))
        family = [shared.offsets[0], left, shared.offsets[1], right, shared.offsets[2]]
        res, steps = self._check(shared, family, 0.03)
        # three descents: the offsets' core, then each shift on its own
        assert steps[0] == steps[2] == steps[4]
        assert res.iterations == steps[0] + steps[1] + steps[3]

    def test_fields_match_single_field_calls(self, shared):
        # one call over two fields and an offset family: every [field, integrand]
        # entry is what a call on that field alone gives, and the step counts add
        g, dom = shared.g, shared.dom
        fields = [shared.u, probe_field(g, np.array([0.5, -0.25]))]
        both = minimize_convex(g, shared.offsets, fields, dom, 0.03, 2.0, 400)
        assert both.value.shape == (2, len(shared.offsets))
        steps = 0
        for a, u in enumerate(fields):
            one = minimize_convex(g, shared.offsets, [u], dom, 0.03, 2.0, 400)
            for name in ("samples", "value", "start_value", "stalled"):
                np.testing.assert_array_equal(getattr(both, name)[a], getattr(one, name)[0],
                                              err_msg=f"{name} of field {a}")
            steps += one.iterations
        assert both.iterations == steps
        assert both.converged == bool(both.stalled.all())

    @pytest.mark.parametrize("gamma, cores", [
        ({"kind": "offset"}, 1), ({"kind": "constant"}, 1),
        ({"kind": "alternating", "shift": [1.0, 0.0]}, 2)],
        ids=["offset", "constant", "alternating"])
    def test_gamma_calls_once_for_every_field(self, shared, ball, monkeypatch, gamma, cores):
        g, dom, u = shared.g, shared.dom, shared.u
        cfg = config.load_config(overrides={"gamma": gamma, "schedules": {"h": [1, 2, 3, 4]}})
        seq = config.build_gamma_sequence(cfg, g)
        calls = []

        def counted(group, integrands, anchors, *args, **kwargs):
            calls.append((integrands, anchors))
            return minimize_convex(group, integrands, anchors, *args, **kwargs)

        monkeypatch.setattr(recovery, "minimize_convex", counted)
        fields = [u, probe_field(g, np.array([0.5, 0.5]))]
        rep = gamma_experiment(g, seq, fields, dom, 0.5, 2.0, ball, np.zeros((1, 2)),
                               max_iter=5)
        assert [row["h"] for row in rep["brackets"]] == [1, 1, 2, 2, 3, 3, 4, 4]
        assert [(row["h"], row["field"]) for row in rep["brackets"][:2]] == \
            [(1, u.name), (1, fields[1].name)]
        [(integrands, anchors)] = calls
        assert anchors is fields
        assert [id(f) for f in integrands] == [id(f) for _, f in seq]
        assert len({id(recovery._core(f)) for f in integrands}) == cores


class TestGamma:
    def test_p_one_rejected(self, h1, ball):
        g, _ = h1
        seq = [(1, PowerIntegrand(2, 2.0))]
        dom = GridDomain.box(-np.ones(3), np.ones(3), 6)
        with pytest.raises(HypothesisError):
            gamma_experiment(g, seq, [], dom, 1.0, 1.0, ball, np.zeros((1, 2)), max_iter=400)

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
        rep = gamma_experiment(g, seq, [], dom, 0.0, 2.0, ball, xi_grid, max_iter=400)
        recs = [rec.values for rec in rep["recovered"]]
        odd, even = recs[0::2], recs[1::2]
        for sub in (odd, even):
            for r in sub[1:]:
                np.testing.assert_allclose(r, sub[0], atol=1e-10)
        assert np.abs(odd[0] - even[0]).max() > 1.0
