"""Grid domains, scalar fields, translations and horizontal gradients."""

import dataclasses
import warnings

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from conftest import run_fresh
from carnot.groups import euclidean, heisenberg, engel
from carnot.fields import (GridDomain, DomainError, constant_field,
                           probe_field, from_expression, quadratic_field,
                           translate_field, translate_domain,
                           horizontal_gradient, _lp_norm)


class TestGridDomain:
    def test_box_volume(self):
        dom = GridDomain.box(np.zeros(2), np.array([1.0, 2.0]), 4)
        assert dom.volume == pytest.approx(2.0)
        assert dom.cell_volume == pytest.approx(0.125)

    def test_contains_and_centers(self):
        dom = GridDomain.box(-np.ones(2), np.ones(2), 4)
        assert dom.contains([[0.1, 0.1], [3.0, 0.0]]).tolist() == [True, False]
        assert len(dom.centers()) == 16

    def test_centers_computed_once_and_read_only(self):
        g = heisenberg(1)
        ball = GridDomain.ball(g.norm(), g.origin(), 1.0, 6)
        box = GridDomain.box(-np.ones(3), np.ones(3), 4)
        for dom in (ball, box):
            fresh = np.stack([c.ravel() for c in np.meshgrid(*dom.axis_centers(),
                                                             indexing="ij")], axis=-1)
            np.testing.assert_array_equal(dom.all_centers(), fresh)
            np.testing.assert_array_equal(dom.centers(), fresh[dom.mask.ravel()])
            for arr in (dom.all_centers(), dom.centers()):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0, 0] = 1.0
            assert dom.all_centers() is dom.all_centers()
            assert dom.centers() is dom.centers()
        # a full mask has one centers array; a masked one its own gather
        assert box.centers() is box.all_centers()
        assert ball.centers() is not ball.all_centers()
        # a replaced domain computes its own
        half = np.zeros(box.shape, bool)
        half[:2] = True
        cut = dataclasses.replace(box, mask=half)
        assert len(cut.centers()) == half.sum() and cut.centers() is not box.centers()
        np.testing.assert_array_equal(cut.centers(), box.all_centers()[half.ravel()])
        moved = dataclasses.replace(box, lo=box.lo + 1.0, hi=box.hi + 1.0)
        np.testing.assert_array_equal(moved.all_centers(), box.all_centers() + 1.0)

    def test_mask_algebra(self):
        dom = GridDomain.box(-np.ones(2), np.ones(2), 4)
        left = GridDomain(dom.lo, dom.hi, dom.shape,
                          np.arange(16).reshape(4, 4) < 8)
        assert left.is_subset(dom) and not dom.is_subset(left)

    def test_erode_and_refine(self):
        dom = GridDomain.box(-np.ones(2), np.ones(2), 6)
        assert dom.erode_cells(1).mask.sum() == 16
        fine = dom.refine(3)
        assert fine.shape == (18, 18)
        assert fine.volume == pytest.approx(dom.volume)

    @pytest.mark.parametrize("shape", [(7,), (5, 9), (4, 6, 3), (3, 5, 4, 6)])
    def test_erode_cells_matches_binary_erosion(self, shape):
        # reference: scipy's face-connected erosion with an outside border
        from scipy import ndimage

        rng = np.random.default_rng(len(shape))
        for density in (0.7, 0.95, 1.0):
            mask = rng.random(shape) < density
            dom = GridDomain(-np.ones(len(shape)), np.ones(len(shape)), shape, mask)
            for rings in (1, 2, 3):
                np.testing.assert_array_equal(
                    dom.erode_cells(rings).mask,
                    ndimage.binary_erosion(mask, iterations=rings, border_value=0))
        full = GridDomain.box(-np.ones(len(shape)), np.ones(len(shape)), shape)
        assert full.erode_cells(2).is_empty == (min(shape) <= 4)
        assert full.erode_cells(max(shape)).is_empty
        assert full.erode_cells(0) is full

    def test_ball_matches_norm(self):
        g = heisenberg(1)
        norm = g.norm()
        ball = GridDomain.ball(norm, g.origin(), 0.8, 10)
        centers = ball.centers()
        assert (norm(centers) < 0.8).all()
        assert ball.volume > 0

    def test_lattice_mismatch_raises(self):
        a = GridDomain.box(-np.ones(2), np.ones(2), 4)
        b = GridDomain.box(-np.ones(2), np.ones(2), 5)
        with pytest.raises(DomainError):
            a.is_subset(b)


class TestFields:
    def test_probe_gradient_is_exact(self):
        g = engel()
        xi = np.array([0.3, -1.1])
        u = probe_field(g, xi)
        pts = np.random.default_rng(0).normal(size=(40, 4))
        assert np.abs(u.hgrad(pts) - xi).max() == 0.0

    def test_expression_matches_quadratic(self):
        g = heisenberg(1)
        ue = from_expression(g, "1.5 + 2*x1 - x2 + x1*x3")
        quad = np.zeros((3, 3))
        quad[0, 2] = 1.0
        uq = quadratic_field(g, 1.5, [2.0, -1.0, 0.0], quad)
        pts = np.random.default_rng(1).normal(size=(30, 3))
        np.testing.assert_allclose(ue.values(pts), uq.values(pts), atol=1e-12)
        np.testing.assert_allclose(ue.hgrad(pts), uq.hgrad(pts), atol=1e-12)

    def test_heisenberg_vertical_derivative(self):
        # u = x3: X1 u = -x2/2, X2 u = x1/2
        g = heisenberg(1)
        u = from_expression(g, "x3")
        pts = np.array([[1.0, 2.0, 0.3], [-0.5, 0.4, 1.1]])
        expect = np.stack([-pts[:, 1] / 2, pts[:, 0] / 2], axis=-1)
        np.testing.assert_allclose(u.hgrad(pts), expect, atol=1e-14)

    def test_expression_rejects_malformed(self):
        g = heisenberg(1)
        # the last six parse, but sympy has no numpy printer for them, the
        # printed evaluator fails, or it returns complex values
        for expr in ("x1**", "x1 +* 2", "y9 + x1", "x4", "lambda: 1", "I", "zoo",
                     "f(x1)", "Integral(x1, x1)", "x1 + I"):
            with pytest.raises(ValueError):
                from_expression(g, expr)

    def test_expression_keeps_non_finite_values(self):
        # a non-finite value is the caller's to reject, and it raises no warning
        g = heisenberg(1)
        pts = np.array([[-1.0, 0.0, 0.0], [4.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = from_expression(g, "sqrt(x1)").values(pts)
        np.testing.assert_array_equal(values, [np.nan, 2.0])

    def test_algebra(self):
        g = euclidean(2)
        u = quadratic_field(g, 0.0, [1.0, 0.0])
        v = quadratic_field(g, 0.0, [0.0, 2.0])
        pts = np.array([[1.0, 1.0]])
        assert (u + v)(pts)[0] == pytest.approx(3.0)
        assert u.scaled(4.0)(pts)[0] == pytest.approx(4.0)
        assert u.shifted(1.0)(pts)[0] == pytest.approx(2.0)


class TestInterpolation:
    """GridDomain.interpolation is the one multilinear kernel behind
    tabulated integrands and the minimizer's difference stencils.  It accepts queries up to 1e-9 cell outside the hull
    of the cell centers (stencils built by group multiplication land on nodes
    only up to roundoff), where scipy's RegularGridInterpolator, used here as
    the reference, raised at any distance; farther out it still raises."""

    LATTICES = [
        ([0.0], [1.0], [7]),
        ([-1.0, 0.3], [1.0, 2.0], [5, 9]),
        ([-0.7, 0.0, -2.0], [1.1, 0.3, 1.0], [3, 6, 4]),
    ]

    @pytest.mark.parametrize("lo, hi, shape", LATTICES, ids=["1d", "2d", "3d"])
    def test_matches_regular_grid_interpolator(self, lo, hi, shape):
        dom = GridDomain.box(np.array(lo), np.array(hi), shape)
        rng = np.random.default_rng(len(shape))
        samples = rng.normal(size=dom.shape)
        axes = dom.axis_centers()
        pts = rng.uniform([a[0] for a in axes], [a[-1] for a in axes],
                          size=(200, dom.ndim))
        pts = np.vstack([pts, dom.all_centers(), [a[-1] for a in axes]])
        reference = RegularGridInterpolator(axes, samples)(pts)
        np.testing.assert_allclose(dom.interpolation(pts) @ samples.ravel(), reference,
                                   rtol=1e-13, atol=1e-13 * np.abs(samples).max())

    def test_nodes_exact_and_linear_fields_reproduced(self):
        # dyadic spacings so that the cell centers are exact binary numbers
        dom = GridDomain.box(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 0.5, 4.0]), [4, 8, 2])
        rng = np.random.default_rng(4)
        samples = rng.normal(size=dom.shape).ravel()
        nodes = dom.all_centers()
        assert (dom.interpolation(nodes) @ samples == samples).all()

        slope = np.array([1.5, -2.0, 0.25])
        linear = 0.7 + nodes @ slope
        axes = dom.axis_centers()
        pts = rng.uniform([a[0] for a in axes], [a[-1] for a in axes], size=(100, 3))
        np.testing.assert_allclose(dom.interpolation(pts) @ linear, 0.7 + pts @ slope,
                                   rtol=0, atol=1e-13)

    def test_hull_tolerance(self):
        dom = GridDomain.box(np.zeros(2), np.ones(2), 4)
        h = dom.spacing[0]
        first, last = 0.5 * h, 1.0 - 0.5 * h
        inside = np.array([[first - 1e-10 * h, last], [last + 1e-10 * h, first]])
        assert dom.in_hull(inside).all()
        assert dom.interpolation(inside).shape == (2, 16)
        for far in ([first - 1e-6 * h, 0.5], [0.5, last + 1e-6 * h]):
            assert not dom.in_hull([far]).any()
            with pytest.raises(DomainError):
                dom.interpolation([far])

    def test_from_centers_rejects_uneven_nodes(self):
        dom = GridDomain.from_centers([np.linspace(-2, 2, 9), [0.0, 0.5]])
        np.testing.assert_allclose(dom.axis_centers()[0], np.linspace(-2, 2, 9), atol=1e-15)
        for axis in ([0.0, 0.9, 1.0], [0.0, 0.1, 1.0], [1.0, 0.0, -1.0], [0.0]):
            with pytest.raises(DomainError):
                GridDomain.from_centers([axis])

    def test_import_does_not_load_scipy_interpolate(self, cli_import_modules):
        assert "scipy.interpolate" not in cli_import_modules

    def test_import_does_not_load_scipy_ndimage(self, cli_import_modules):
        assert "scipy.ndimage" not in cli_import_modules

    def test_import_does_not_load_sympy(self, cli_import_modules):
        # only fields given by an expression need sympy, and it is slow to import
        assert "sympy" not in cli_import_modules

    def test_import_does_not_load_scipy(self, cli_import_modules):
        # only sparse operator builders need scipy, and it is slow to import
        assert not [m for m in cli_import_modules if m.split(".")[0] == "scipy"]
        assert "numpy.random" in cli_import_modules  # seeded commands need it

    def test_expression_field_does_not_load_numpy_f2py(self):
        # lambdify's modules="numpy" runs `from numpy import *`, which loads
        # numpy.f2py, numpy.ma, numpy.polynomial and dozens more
        loaded = run_fresh(
            "import sys; from carnot.groups import heisenberg; "
            "from carnot.fields import from_expression; "
            "from_expression(heisenberg(1), 'sin(x1) * exp(x3)'); print(*sys.modules)").split()
        assert "sympy" in loaded and "numpy.f2py" not in loaded


class TestTranslation:
    def test_field_pullback(self):
        g = heisenberg(1)
        rng = np.random.default_rng(2)
        y = rng.normal(size=3)
        u = quadratic_field(g, 0.3, rng.normal(size=3), rng.normal(size=(3, 3)))
        tu = translate_field(g, y, u)
        pts = rng.normal(size=(25, 3))
        np.testing.assert_allclose(tu.values(pts),
                                   u.values(g.multiply(g.inverse(y), pts)), atol=1e-12)

    def test_frame_left_invariance(self):
        # X_j(tau_y u) from the values of tau_y u, by its definition
        # d/dt tau_y u(x . t e_j): on Engel t -> u(x . t e_j) is a quartic, so
        # its central differences are u' + c h^2 exactly and one Richardson
        # step leaves the derivative; it must match both tau_y(X_j u) and the
        # gradient the translated field carries
        g = engel()
        rng = np.random.default_rng(3)
        y = rng.normal(size=4)
        u = quadratic_field(g, 0.0, rng.normal(size=4), rng.normal(size=(4, 4)))
        tu = translate_field(g, y, u)
        pts = rng.normal(size=(25, 4))
        fd = lambda h: horizontal_gradient(g, tu, pts, "group-fd", h=h)
        lhs = (4.0 * fd(0.1) - fd(0.2)) / 3.0
        for rhs in (u.hgrad(g.multiply(g.inverse(y), pts)), tu.hgrad(pts)):
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_domain_volume_preserved(self):
        # Haar measure: translation keeps the volume up to mask resolution
        g = heisenberg(1)
        dom = GridDomain.box(-np.ones(3), np.ones(3), 10)
        moved = translate_domain(g, np.array([0.3, -0.2, 0.5]), dom)
        boundary = 2 * 6 * 10 * 10 * dom.cell_volume
        assert abs(moved.volume - dom.volume) <= boundary

    def test_grid_aligned_euclidean_exact(self):
        g = euclidean(2)
        dom = GridDomain.box(-np.ones(2), np.ones(2), 8)
        y = 3 * dom.spacing
        moved = translate_domain(g, y, dom)
        assert moved.volume == pytest.approx(dom.volume)
        np.testing.assert_allclose(np.sort(moved.centers(), axis=0),
                                   np.sort(dom.centers() + y, axis=0), atol=1e-12)


class TestHorizontalGradient:
    def test_group_fd_exact_on_step2_quadratics(self):
        # t -> x.(t e_j) is affine on step-2 groups, so central differences
        # of quadratics are exact up to roundoff
        g = heisenberg(1)
        rng = np.random.default_rng(4)
        u = quadratic_field(g, 0.0, rng.normal(size=3), rng.normal(size=(3, 3)))
        pts = rng.normal(size=(30, 3))
        fd = horizontal_gradient(g, u, pts, mode="group-fd", h=1e-3)
        np.testing.assert_allclose(fd, u.hgrad(pts), atol=1e-9)

    def test_fd_second_order(self):
        g = heisenberg(1)
        u = from_expression(g, "x1**3 + x2**2*x1")
        pts = np.random.default_rng(5).normal(size=(10, 3))
        exact = u.hgrad(pts)
        e1 = np.abs(horizontal_gradient(g, u, pts, mode="group-fd", h=2e-2) - exact).max()
        e2 = np.abs(horizontal_gradient(g, u, pts, mode="group-fd", h=1e-2) - exact).max()
        assert 3.2 <= e1 / e2 <= 4.8

    def test_unknown_mode(self):
        g = euclidean(2)
        with pytest.raises(ValueError):
            horizontal_gradient(g, probe_field(g, [1.0, 0.0]), [[0.0, 0.0]], mode="spectral")


class TestLpNorm:
    def test_large_exponent_does_not_overflow(self):
        # 20^269 overflows a double; the norm itself is about max |w| = 20
        w = np.array([20.0, -10.0, 0.0])
        assert _lp_norm(w, 1.0, 269.0) == pytest.approx(20.0, rel=1e-12)
        assert _lp_norm(w, 1.0, 2.0) == float(np.sum(w ** 2.0) ** 0.5)
