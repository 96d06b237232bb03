"""Integrand menu and the integral functionals with their property checkers."""

import dataclasses

import numpy as np
import pytest

from carnot.groups import euclidean, heisenberg, engel
from carnot.fields import (GridDomain, DomainError, ScalarField, constant_field,
                           probe_field, quadratic_field, horizontal_gradient)
from carnot.mollify import MollifierFamily, erode_domain, convolve
from carnot import suites
from carnot.suites import menu_integrands, random_quadratic
from carnot.config import ConfigError, integrand_from_config
from carnot.functionals import (PowerIntegrand, QuadraticIntegrand,
                                MaxAffineIntegrand, TabulatedIntegrand,
                                OffsetIntegrand, ShiftedArgIntegrand,
                                IntegrandFunctional, BlackBoxFunctional,
                                check_left_invariance, check_set_function,
                                jensen_check, sandwich_check, lsc_check)


class TestIntegrands:
    def test_power_values_and_grad(self):
        f = PowerIntegrand(2, 3.0)
        eta = np.array([[3.0, 4.0]])
        assert f(eta)[0] == pytest.approx(125.0)
        np.testing.assert_allclose(f.value_and_grad(eta)[1], 3.0 * 5.0 * eta, atol=1e-12)
        assert f.value_and_grad(np.zeros((1, 2)))[1].tolist() == [[0.0, 0.0]]
        with pytest.raises(ValueError):
            PowerIntegrand(2, 0.5)

    def test_quadratic_psd_enforced(self):
        with pytest.raises(ValueError):
            QuadraticIntegrand(np.array([[1.0, 0.0], [0.0, -1.0]]))
        f = QuadraticIntegrand(np.array([[2.0, 1.0], [1.0, 2.0]]))
        eta = np.array([[1.0, -1.0]])
        assert f(eta)[0] == pytest.approx(2.0)

    def test_max_affine_clamped(self):
        f = MaxAffineIntegrand(np.array([[1.0, 0.0]]), np.array([-2.0]))
        assert f(np.array([[0.0, 0.0]]))[0] == 0.0
        assert f(np.array([[5.0, 0.0]]))[0] == pytest.approx(3.0)
        assert (f.value_and_grad(np.array([[0.0, 0.0]]))[1] == 0).all()

    def test_tabulated_convexity_guard(self):
        axis = np.linspace(-2, 2, 9)
        good = TabulatedIntegrand((axis,), axis**2)
        assert good(np.array([[1.0]]))[0] == pytest.approx(1.0)
        with pytest.raises(ValueError):
            TabulatedIntegrand((axis,), np.abs(np.sin(3 * axis)) * 2)

    @pytest.mark.parametrize("axis, table", [
        ([0.0, 0.9, 1.0], [0.0, 0.9, 1.0]),   # linear, yet its defect read 0.4
        ([0.0, 0.1, 1.0], [0.0, 0.3, 1.0]),   # slope 3 then 0.78, yet no defect
        ([1.0, 0.0, -1.0], [1.0, 0.0, 1.0]),
    ], ids=["linear-uneven", "concave-uneven", "decreasing"])
    def test_tabulated_axes_must_be_uniform(self, axis, table):
        # the midpoint-convexity guard reads convexity only off uniform nodes
        with pytest.raises(ValueError, match="uniformly spaced"):
            TabulatedIntegrand((np.array(axis),), np.array(table))

    def test_wrappers_and_growth(self):
        base = PowerIntegrand(2, 2.0)
        f = OffsetIntegrand(ShiftedArgIntegrand(base, [1.0, 0.0]), 0.5)
        eta = np.array([[1.0, 0.0]])
        assert f(eta)[0] == pytest.approx(0.5)
        a, b, p = f.growth
        pts = np.random.default_rng(0).uniform(-5, 5, size=(300, 2))
        bound = a + b * np.linalg.norm(pts, axis=-1) ** p
        assert (f(pts) <= bound + 1e-12).all()

    def test_menu_is_convex(self):
        rng = np.random.default_rng(1)
        b = rng.normal(size=(2, 2))
        menu = [PowerIntegrand(2, 1.0), PowerIntegrand(2, 2.5),
                QuadraticIntegrand(b.T @ b),
                MaxAffineIntegrand(rng.normal(size=(4, 2)), rng.normal(size=4))]
        for f in menu:
            # midpoint convexity on random pairs: f((a+b)/2) <= (f(a)+f(b))/2
            a = rng.uniform(-4.0, 4.0, size=(300, 2))
            b = rng.uniform(-4.0, 4.0, size=(300, 2))
            assert (f(0.5 * (a + b)) - 0.5 * (f(a) + f(b))).max() <= 1e-10

    def test_config_roundtrip(self):
        f = integrand_from_config({"kind": "power", "p": 3, "offset": 1.5,
                                   "shift": [1.0, 0.0]}, 2)
        assert f(np.array([[1.0, 0.0]]))[0] == pytest.approx(1.5)
        g = integrand_from_config({"kind": "max_affine",
                                   "planes": [{"a": [1, 0], "b": 0.0}]}, 2)
        assert g(np.array([[2.0, 0.0]]))[0] == pytest.approx(2.0)
        with pytest.raises(ValueError):
            integrand_from_config({"kind": "quadratic", "M": [[1.0]]}, 2)  # m mismatch
        with pytest.raises(ValueError):
            integrand_from_config({"kind": "mystery"}, 2)

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "power", "p": 0.5}, "power integrands need p >= 1 for convexity"),
        ({"kind": "quadratic", "M": [[1.0, 0.0], [0.0, -1.0]]},
         "quadratic integrand matrix must be positive semidefinite"),
        ({"kind": "tabulated", "axes": [[0, 1, 3], [0, 1, 2]], "table": [[0] * 3] * 3},
         "nodes must be increasing and uniformly spaced: [0.0, 1.0, 3.0]"),
        ({"kind": "power", "shift": [1.0, 0.0, 0.0]}, "shift must have m components"),
    ], ids=["power-p-half", "quadratic-not-psd", "tabulated-uneven-axes", "shift-length"])
    def test_config_errors_are_config_errors(self, spec, message):
        # the integrands' own checks reach callers as ConfigError, text kept
        with pytest.raises(ConfigError) as info:
            integrand_from_config(spec, 2)
        assert str(info.value) == message


def _value_and_grad_menu(m, rng):
    """Every menu family (powers at p = 1, 2 and 3) and both wrappers."""
    b = rng.normal(size=(m, m))
    axis = np.linspace(-4.0, 4.0, 9)
    table = np.add.outer(axis**2, axis**2) if m == 2 else axis**2
    menu = {"power1": PowerIntegrand(m, 1.0), "power2": PowerIntegrand(m, 2.0),
            "power3": PowerIntegrand(m, 3.0),
            "quadratic": QuadraticIntegrand(b.T @ b + 0.1 * np.eye(m)),
            "max_affine": MaxAffineIntegrand(rng.normal(size=(5, m)), rng.normal(size=5)),
            "tabulated": TabulatedIntegrand((axis,) * m, table)}
    menu["offset"] = OffsetIntegrand(menu["power3"], 0.25)
    menu["shifted"] = ShiftedArgIntegrand(menu["power2"], rng.normal(size=m))
    menu["offset-shifted-tabulated"] = OffsetIntegrand(
        ShiftedArgIntegrand(menu["tabulated"], np.full(m, 0.5)), 1.0)
    return menu


class TestValueAndGrad:
    @pytest.mark.parametrize("layout", ["rows", "column-major"])
    def test_matches_separate_calls_bit_for_bit(self, layout):
        rng = np.random.default_rng(11)
        eta = rng.uniform(-3.0, 3.0, size=(64, 2))
        eta[::7] = 0.0  # zero rows: |eta| = 0 takes the other branch of the power grad
        if layout == "column-major":
            # the minimizer's (K, m) view of its stacked directional derivatives
            eta = np.ascontiguousarray(eta.T).T
        for name, f in _value_and_grad_menu(2, rng).items():
            value, _ = f.value_and_grad(eta)
            np.testing.assert_array_equal(value, f(eta), err_msg=name)

    def test_wrapped_values_match_value_and_grad(self):
        # the shared descent reads every member but its lead through f(eta):
        # that must be the value value_and_grad gives, bare and wrapped
        rng = np.random.default_rng(13)
        eta = np.ascontiguousarray(rng.uniform(-3.0, 3.0, size=(2, 64))).T
        eta[::5] = 0.0
        for name, f in _value_and_grad_menu(2, rng).items():
            for wrapped in (f, OffsetIntegrand(f, 1.0 / 3.0),
                            ShiftedArgIntegrand(f, np.array([0.5, -0.25])),
                            OffsetIntegrand(ShiftedArgIntegrand(f, np.array([-0.5, 0.5])), 0.1)):
                np.testing.assert_array_equal(wrapped(eta), wrapped.value_and_grad(eta)[0],
                                              err_msg=name)

    def test_power_magnitude_is_linalg_norm(self):
        eta = np.random.default_rng(12).normal(size=(200, 4))
        np.testing.assert_array_equal(PowerIntegrand._magnitude(eta),
                                      np.linalg.norm(eta, axis=-1))


class TestEval:
    def test_probe_closed_form(self):
        # constant-gradient probes make midpoint quadrature exact
        g = heisenberg(1)
        F = IntegrandFunctional(g, PowerIntegrand(2, 2.0))
        dom = GridDomain.box(-np.ones(3), np.ones(3), 8)
        xi = np.array([1.2, -0.7])
        assert F.eval(probe_field(g, xi), dom) == pytest.approx(
            float(xi @ xi) * dom.volume, rel=1e-14)

    def test_refinement_converges_to_integral(self):
        # independent oracle: int over [-1,1]^2 of |grad(x1^2+x2^2)|^2 = 32/3
        g = euclidean(2)
        u = quadratic_field(g, 0.0, np.zeros(2), np.eye(2))
        dom = GridDomain.box(-np.ones(2), np.ones(2), 4)
        errs = [abs(IntegrandFunctional(g, PowerIntegrand(2, 2.0), refine=r)
                    .eval(u, dom) - 32.0 / 3.0) for r in (1, 2, 4)]
        assert errs[2] < errs[1] < errs[0]
        assert 3.5 <= errs[0] / errs[1] <= 4.5

    def test_empty_domain_is_zero(self):
        g = euclidean(2)
        dom = GridDomain.box(-np.ones(2), np.ones(2), 4)
        empty = GridDomain(dom.lo, dom.hi, dom.shape, np.zeros(dom.shape, bool))
        assert IntegrandFunctional(g, PowerIntegrand(2, 2.0)).eval(
            probe_field(g, [1.0, 0.0]), empty) == 0.0

    def test_blackbox_passthrough(self):
        F = BlackBoxFunctional(lambda u, dom: 42.0)
        assert F.eval(None, None) == 42.0
        with pytest.raises(TypeError, match="callable"):
            BlackBoxFunctional(heisenberg(1))


class TestSetFunction:
    def test_power_functional_properties(self):
        g = heisenberg(1)
        F = IntegrandFunctional(g, PowerIntegrand(2, 2.0))
        rng = np.random.default_rng(2)
        u = quadratic_field(g, 0.0, rng.normal(size=3), rng.normal(size=(3, 3)))
        dom = GridDomain.box(-np.ones(3), np.ones(3), 8)
        report = check_set_function(F, u, dom)
        assert report["additive"]
        assert report["increasing"]
        assert report["subadditive"]
        assert report["superadditive"]
        assert report["monotone_exhaustion"]
        assert report["inner_regular_gap"] >= 0.0

    def test_constant_shift_invariance(self):
        g = heisenberg(1)
        F = IntegrandFunctional(g, PowerIntegrand(2, 2.0))
        dom = GridDomain.box(-np.ones(3), np.ones(3), 8)
        u = quadratic_field(g, 0.0, [1.0, 2.0, -1.0], np.diag([1.0, 0.5, 0.0]))
        assert F.eval(u.shifted(17.0), dom) == pytest.approx(F.eval(u, dom), rel=1e-14)


class TestLeftInvariance:
    def test_euclidean_grid_aligned_exact(self):
        g = euclidean(2)
        F = IntegrandFunctional(g, PowerIntegrand(2, 2.0))
        dom = GridDomain.box(-np.ones(2), np.ones(2), 8)
        u = quadratic_field(g, 0.0, [1.0, -2.0], 0.4 * np.eye(2))
        ys = np.array([[2, 1], [-3, 4]]) * dom.spacing
        report = check_left_invariance(g, F, u, dom, ys)
        assert report["max_residual"] <= 1e-12

    def test_residual_shrinks_with_grid(self):
        g = heisenberg(1)
        F = IntegrandFunctional(g, PowerIntegrand(2, 2.0))
        rng = np.random.default_rng(3)
        u = quadratic_field(g, 0.0, rng.normal(size=3), rng.normal(size=(3, 3)))
        ys = rng.uniform(-0.3, 0.3, size=(2, 3))
        res = []
        for shape in (8, 16):
            dom = GridDomain.box(-np.ones(3), np.ones(3), shape)
            res.append(check_left_invariance(g, F, u, dom, ys)["max_residual"])
        assert res[1] <= 0.6 * res[0]


@pytest.fixture(scope="module")
def setting():
    g = heisenberg(1)
    norm = g.norm()
    mol = MollifierFamily(norm, resolution=7)
    omega = GridDomain.box(-np.ones(3), np.ones(3), 10)
    inner = erode_domain(g, norm, omega, 0.45)
    return g, mol, omega, inner


class TestSandwichAndLsc:
    def test_probe_chain_is_exact_ordering(self, setting):
        g, mol, omega, inner = setting
        F = IntegrandFunctional(g, PowerIntegrand(2, 2.0))
        u = probe_field(g, np.array([0.9, 0.4]))
        chain = sandwich_check(F, u, inner, omega, mol, [0.4, 0.2])
        f_xi = 0.9**2 + 0.4**2
        assert chain["lower"] == pytest.approx(f_xi * inner.volume, rel=1e-12)
        assert chain["upper"] == pytest.approx(f_xi * omega.volume, rel=1e-12)
        for row in chain["rows"]:
            assert chain["lower"] - 1e-10 <= row["middle"] <= chain["upper"] + 1e-10

    def test_margin_violation_raises(self, setting):
        g, mol, omega, _ = setting
        F = IntegrandFunctional(g, PowerIntegrand(2, 2.0))
        with pytest.raises(DomainError, match="convolution queried outside the eroded domain"):
            sandwich_check(F, probe_field(g, [1.0, 0.0]), omega, omega, mol, [0.4])

    def test_jensen_outside_eroded_domain_raises(self, setting):
        g, mol, omega, _ = setting
        F = IntegrandFunctional(g, PowerIntegrand(2, 2.0))
        with pytest.raises(DomainError, match="convolution queried outside the eroded domain"):
            jensen_check(F, probe_field(g, [1.0, 0.0]), omega, mol, 0.3, omega)

    def test_jensen_never_violated(self, setting):
        g, mol, omega, inner = setting
        rng = np.random.default_rng(4)
        u = quadratic_field(g, 0.0, rng.normal(size=3), rng.normal(size=(3, 3)))
        for f in (PowerIntegrand(2, 2.0), PowerIntegrand(2, 3.0)):
            lhs, rhs = jensen_check(IntegrandFunctional(g, f), u, inner, mol, 0.3, omega)
            assert lhs <= rhs + 1e-10

    def test_jensen_equality_for_probes(self, setting):
        g, mol, omega, inner = setting
        F = IntegrandFunctional(g, PowerIntegrand(2, 2.0))
        u = probe_field(g, np.array([1.0, -1.0]))
        lhs, rhs = jensen_check(F, u, inner, mol, 0.3, omega)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("case", ["h1", "engel", "h1-refine2"])
    def test_jensen_matches_two_convolutions(self, setting, case):
        # reference: the left side as F(phi_eps * u, A') and the right side as
        # a second convolution of f(grad_G u), each pulling back on its own
        if case == "engel":
            g = engel()
            omega = GridDomain.box(-np.ones(4), np.ones(4), 5)
            mol = MollifierFamily(g.norm(), resolution=4)
            eps = 0.4
            inner = erode_domain(g, mol.norm, omega, eps)
        else:
            g, mol, omega, inner = setting
            eps = 0.3
        refine = 2 if case == "h1-refine2" else 1
        # 80 fine points: more than one chunk of the average
        keep = np.zeros(inner.mask.size, dtype=bool)
        keep[np.flatnonzero(inner.mask)[:80 // refine ** g.n]] = True
        inner = dataclasses.replace(inner, mask=keep.reshape(inner.shape))
        rng = np.random.default_rng(11)
        u = random_quadratic(g, rng)
        for f in menu_integrands(g.m, rng):
            F = IntegrandFunctional(g, f, refine=refine)
            fine = inner.refine(refine)
            density = ScalarField(values=lambda p: f(horizontal_gradient(g, u, p)), name="f")
            lhs = F.eval(convolve(mol, eps, u, omega), inner)
            rhs = (float(np.sum(convolve(mol, eps, density, omega).values(fine.centers())))
                   * fine.cell_volume)
            assert jensen_check(F, u, inner, mol, eps, omega) == (lhs, rhs)

    def test_lsc_constant_sequence(self, setting):
        g, _, omega, _ = setting
        F = IntegrandFunctional(g, PowerIntegrand(2, 2.0))
        u = quadratic_field(g, 0.0, [1.0, 0.0, 0.0], np.zeros((3, 3)))
        rep = lsc_check(F, u, [u, u, u, u], omega)
        assert rep["limit_value"] == pytest.approx(rep["tail_min"], rel=1e-14)

    def test_lsc_perturbation_sequence(self, setting):
        g, _, omega, _ = setting
        F = IntegrandFunctional(g, PowerIntegrand(2, 2.0))
        rng = np.random.default_rng(5)
        u = quadratic_field(g, 0.0, rng.normal(size=3), rng.normal(size=(3, 3)))
        w = quadratic_field(g, 0.0, rng.normal(size=3), rng.normal(size=(3, 3)))
        hs = [1, 2, 4, 8, 16, 32]
        rep = lsc_check(F, u, [u + w.scaled(1.0 / h) for h in hs], omega)
        assert abs(rep["sequence_values"][-1] - rep["limit_value"]) <= \
            abs(rep["sequence_values"][0] - rep["limit_value"]) * 0.25


class TestSuiteSandwich:
    def test_inner_set_erodes_in_the_mollifier_norm(self, monkeypatch):
        # the Koranyi and weighted-max erosions of this box differ, so the
        # recorded inner set shows which norm the suite eroded with
        g = heisenberg(1)
        mol = MollifierFamily(g.norm("koranyi"), resolution=5)
        omega = GridDomain.box(-np.ones(3), np.ones(3), 8)
        calls = []

        def recorded(group, norm, domain, eps):
            calls.append((norm.kind, eps, domain))
            return erode_domain(group, norm, domain, eps)

        monkeypatch.setattr(suites, "erode_domain", recorded)
        rows = suites.suite_sandwich(mol, omega, np.random.default_rng(0), eps_list=[0.3])
        assert all(r["passed"] for r in rows)
        assert calls == [("koranyi", 1.1 * 0.3, omega)]
        koranyi = erode_domain(g, mol.norm, omega, 0.33).mask
        assert not np.array_equal(koranyi, erode_domain(g, g.norm(), omega, 0.33).mask)

    def test_emptied_inner_set_raises(self):
        g = heisenberg(1)
        mol = MollifierFamily(g.norm(), resolution=5)
        omega = GridDomain.box(-np.ones(3), np.ones(3), 5)
        with pytest.raises(DomainError, match="^eps schedule leaves no room for an inner domain$"):
            suites.suite_sandwich(mol, omega, np.random.default_rng(0), eps_list=[2.5])
