"""Grid domains, scalar fields, translations and horizontal gradients."""

import dataclasses
import itertools
import json
import warnings

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from conftest import (assert_same_bits, csr_interpolation, filiform_spec, run_fresh,
                      with_non_finite)
from carnot.config import build_group
from carnot.expression import Expression
from carnot.groups import euclidean, heisenberg, engel
from carnot.fields import (GridDomain, GatherTable, DomainError, constant_field,
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
        # a Koranyi ball masks part of its bounding box (a weighted-max one at
        # the origin is the whole box)
        ball = GridDomain.ball(g.norm("koranyi"), g.origin(), 1.0, 6)
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

    @pytest.mark.parametrize("group, center", [
        (heisenberg(1), [1.5, 0.0, 0.0]), (heisenberg(1), [-0.7, 1.2, 2.0]),
        (engel(), [1.5, 0.0, 0.0, 0.0]), (engel(), [1.5, -0.7, 0.3, 0.2]),
        (heisenberg(2), [0.4, -1.1, 0.8, 0.5, -0.3]),
        (build_group({"group": filiform_spec(4)}), [1.5, -0.7, 0.3, 0.2, -0.4])],
        ids=["h1-axis", "h1", "engel-axis", "engel", "h2", "filiform-4"])
    def test_ball_box_holds_the_ball(self, group, center):
        # every point center.z with |z_i| <= r**d_i, the weighted-max ball that
        # holds the Koranyi one, lies in the bounding box, vertices included; on
        # the axis centers some vertex attains every term of the bound
        center, radius = np.asarray(center), 0.9
        dom = GridDomain.ball(group.norm(), center, radius, 5)
        extent = radius ** group.weights.astype(float)
        corners = np.array(list(itertools.product((-1.0, 1.0), repeat=group.n)))
        z = np.vstack([corners, np.random.default_rng(0).uniform(-1, 1, (4000, group.n))])
        x = group.multiply(center, z * extent)
        assert ((x >= dom.lo) & (x <= dom.hi)).all()
        # the box is what the bracket bound gives, not wider than twice the ball's reach
        reach = np.abs(x - center).max(axis=0)
        assert ((dom.hi - center) <= 2 * reach + 1e-9).all()
        assert not dom.is_empty

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

    def test_slope_is_the_constant_gradient(self):
        # probes and constants carry their gradient as a slope; operations
        # whose gradient varies drop it, and a shift keeps it
        g = engel()
        pts = np.random.default_rng(2).normal(size=(40, 4))
        u = probe_field(g, [0.3, -1.1])
        np.testing.assert_array_equal(u.hgrad(pts), np.broadcast_to(u.slope, (40, g.m)))
        c = constant_field(g, 2.0)
        np.testing.assert_array_equal(c.hgrad(pts), np.broadcast_to(c.slope, (40, g.m)))
        np.testing.assert_array_equal(c.slope, np.zeros(g.m))
        assert u.shifted(1.5).slope is u.slope
        for derived in (u + c, u.scaled(2.0), translate_field(g, pts[0], u),
                        quadratic_field(g, 0.0, [1.0, 0.0, 0.0, 0.0])):
            assert derived.slope is None

    def test_expression_matches_quadratic(self):
        g = heisenberg(1)
        ue = from_expression(g, "1.5 + 2*x1 - x2 + x1*x3")
        quad = np.zeros((3, 3))
        quad[0, 2] = 1.0
        uq = quadratic_field(g, 1.5, [2.0, -1.0, 0.0], quad)
        pts = np.random.default_rng(1).normal(size=(30, 3))
        np.testing.assert_allclose(ue.values(pts), uq.values(pts), atol=1e-12)
        np.testing.assert_allclose(ue.hgrad(pts), uq.hgrad(pts), atol=1e-12)

    @pytest.mark.parametrize("g", [heisenberg(1), engel(), heisenberg(2)], ids=repr)
    def test_quadratic_same_bits_on_every_layout(self, g):
        # the quadratic form and the gradient's constant row are summed column
        # by column, so a C array, its F-ordered copy and strided views give
        # the same bits.  The linear part is zero for the values: `p @ lin` is
        # a BLAS product, whose summation order follows the layout
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(200, g.n))
        quad, lin = rng.normal(size=(g.n, g.n)), rng.normal(size=g.n)
        layouts = (np.asfortranarray(pts), np.repeat(pts, 2, axis=-1)[:, ::2],
                   np.repeat(pts, 2, axis=0)[::2])
        u, pure = quadratic_field(g, 0.3, lin, quad), quadratic_field(g, 0.3, np.zeros(g.n), quad)
        for other in layouts:
            assert_same_bits(u.hgrad(other), u.hgrad(pts))
            assert_same_bits(pure.values(other), pure.values(pts))

    def test_heisenberg_vertical_derivative(self):
        # u = x3: X1 u = -x2/2, X2 u = x1/2
        g = heisenberg(1)
        u = from_expression(g, "x3")
        pts = np.array([[1.0, 2.0, 0.3], [-0.5, 0.4, 1.1]])
        expect = np.stack([-pts[:, 1] / 2, pts[:, 0] / 2], axis=-1)
        np.testing.assert_allclose(u.hgrad(pts), expect, atol=1e-14)

    def test_expression_rejects_malformed(self):
        g = heisenberg(1)
        # the first two do not parse; the rest parse but leave the grammar: a
        # name other than x1..x3, pi and E, a lambda, or an unknown function
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

    def test_expression_is_bitwise_the_hand_written_numpy(self):
        # the default field and the two-field CI one take the floating-point
        # operations a hand-written evaluator takes, so outputs do not move;
        # `^` is `**`
        g = heisenberg(1)
        p = np.random.default_rng(7).normal(size=(50, 3))
        x1, x2, x3 = p.T
        zero = np.zeros(len(p))
        for text, values, egrad in [
                ("x1**2 + 0.5*x2", x1**2 + 0.5 * x2, [2 * x1, zero + 0.5, zero]),
                ("x1*x3 + x2**2", x1 * x3 + x2**2, [x3, 2 * x2, x1]),
                ("x1^2 + 1", x1**2 + 1, [2 * x1, zero, zero])]:
            egrad = np.stack(egrad, axis=-1)
            u = from_expression(g, text)
            assert u.name == text
            np.testing.assert_array_equal(u.values(p), values)
            np.testing.assert_array_equal(Expression(text, 3).egrad(p), egrad)
            np.testing.assert_array_equal(u.hgrad(p), g.hgrad_from_egrad(p, egrad))

    @pytest.mark.parametrize("text", [
        "sqrt(x1 + 2*x2)", "exp(x1*x3)", "log(x1 + x2**2)", "sin(x1*x3) - x2",
        "cos(x2/x3) + x1", "tan(x1 - x2/2)", "Abs(x1 - 2*x2)*x3", "Max(x1, x2*x3, 0.3)",
        "Min(x1*x2, x3, 0.9)", "pi*x1**E", "x2**x1 * x3**2.5", "-x1/(x2 + x3) + +x2",
        "x1^2 + 1"])
    def test_expression_gradient_matches_central_differences(self, text):
        # points in (0.2, 0.9)^3 and at least 1e-3 away from the kinks of
        # Abs, Max and Min, where the partials are continuous
        rng = np.random.default_rng(11)
        p = rng.uniform(0.2, 0.9, size=(400, 3))
        x1, x2, x3 = p.T
        far = ((np.abs(x1 - 2 * x2) > 1e-3) & (np.abs(x1 - x2 * x3) > 1e-3)
               & (np.abs(x1 - 0.3) > 1e-3) & (np.abs(x2 * x3 - 0.3) > 1e-3)
               & (np.abs(x1 * x2 - x3) > 1e-3) & (np.abs(x1 * x2 - 0.9) > 1e-3)
               & (np.abs(x3 - 0.9) > 1e-3))
        p = p[far][:100]
        expr, h = Expression(text, 3), 1e-6
        fd = np.stack([(expr.values(p + h * e) - expr.values(p - h * e)) / (2 * h)
                       for e in np.eye(3)], axis=-1)
        np.testing.assert_allclose(expr.egrad(p), fd, rtol=1e-6, atol=1e-9)

    def test_extremum_tie_takes_the_mean_gradient(self):
        # sympy's Heaviside(0) = 1/2: on the tie each argument's gradient
        # counts once in the mean
        p = np.array([[0.3, 0.3, 0.0], [0.5, 0.1, 0.0]])
        np.testing.assert_array_equal(Expression("Max(x1, x2)", 3).egrad(p),
                                      [[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(Expression("Min(x1, x2)", 3).egrad(p),
                                      [[0.5, 0.5, 0.0], [0.0, 1.0, 0.0]])

    def test_abs_is_a_field(self):
        g = heisenberg(1)
        p = np.array([[-0.5, 1.0, 0.0], [2.0, -1.0, 0.0]])
        u = from_expression(g, "Abs(x1)")
        np.testing.assert_array_equal(u.values(p), [0.5, 2.0])
        np.testing.assert_array_equal(u.hgrad(p), [[-1.0, 0.0], [1.0, 0.0]])

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
    tabulated integrands and the minimizer's difference stencils.  Its gather
    table's product is the product of the scipy CSR matrix with the same
    rows, bit for bit.  It accepts queries up to 1e-9 cell outside the hull
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

    @pytest.mark.parametrize("lo, hi, shape", LATTICES + [
        ([-1.0] * 4, [1.0] * 4, [5, 4, 3, 5]), ([-1.0] * 5, [1.0] * 5, [3, 4, 3, 2, 3])],
        ids=["1d", "2d", "3d", "4d", "5d"])
    def test_products_match_csr_bit_for_bit(self, lo, hi, shape):
        # also on the nodes, where weights are exact zeros, and where samples
        # are +-inf or nan: 0 * inf is nan in both, at the same places
        dom = GridDomain.box(np.array(lo), np.array(hi), shape)
        rng = np.random.default_rng(len(shape))
        axes = dom.axis_centers()
        pts = rng.uniform([a[0] for a in axes], [a[-1] for a in axes], size=(300, dom.ndim))
        pts = np.vstack([pts, dom.all_centers()])
        table, reference = dom.interpolation(pts), csr_interpolation(dom, pts)
        assert table.shape == reference.shape
        samples = rng.normal(size=dom.mask.size)
        for values in (samples, with_non_finite(samples, rng)):
            assert_same_bits(table @ values, reference @ values)
        with pytest.raises(ValueError):
            table @ samples[1:]

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
        assert dom._in_hull(dom._node_coords(inside)).all()
        assert dom.interpolation(inside).shape == (2, 16)
        for far in ([first - 1e-6 * h, 0.5], [0.5, last + 1e-6 * h]):
            assert not dom._in_hull(dom._node_coords([far])).any()
            with pytest.raises(DomainError):
                dom.interpolation([far])

    @pytest.mark.parametrize("shape, axis", [((1, 4), "x1"), ((4, 4, 1), "x3"),
                                             ((5, 5, 1), "x3")])
    def test_one_cell_axis_rejected(self, shape, axis):
        # the lone center along that axis passes the hull test, and the base
        # corner used to come out as -1, ending in numpy's "invalid entry in
        # coordinates array"; there is no cell to interpolate across
        dom = GridDomain.box(np.zeros(len(shape)), np.ones(len(shape)), shape)
        with pytest.raises(DomainError, match=f"axis {axis} has one"):
            dom.interpolation([[0.5] * len(shape)])

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
        # no field needs sympy, which is slow to import
        assert "sympy" not in cli_import_modules

    def test_import_does_not_load_scipy(self, cli_import_modules):
        # the package does not use scipy, and it is slow to import
        assert not [m for m in cli_import_modules if m.split(".")[0] == "scipy"]
        assert "numpy.random" in cli_import_modules  # seeded commands need it

    def test_expression_field_does_not_load_numpy_f2py(self, tmp_path):
        # building an expression field loads neither sympy, which is slow to
        # import, nor numpy.f2py, which `from numpy import *` loads (scipy's
        # array API layer runs it); nor does a whole gamma run
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"grid": {"shape": 4}, "minimizer": {"max_iter": 2}}))
        built, ran = run_fresh(
            "import contextlib, io, sys\n"
            "from carnot.fields import from_expression\n"
            "from carnot.groups import heisenberg\n"
            "from_expression(heisenberg(1), 'sin(x1) * exp(x3) + Max(x1, x2)')\n"
            "print(*sys.modules)\n"
            "from carnot.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main(['gamma', '--config', {str(cfg)!r}])\n"
            "print(code, *sys.modules)").splitlines()
        built, ran = built.split(), ran.split()
        assert "sympy" not in built and "numpy.f2py" not in built
        assert ran[0] == "0" and "sympy" not in ran and "numpy.f2py" not in ran


def _csr_entries(widths, columns, rng):
    """Entries of a random matrix with the given row widths, in CSR order
    (rows ascending, each row's columns in a random order, none repeated),
    with weights over many magnitudes, so that a row's sum depends on its
    order; and the scipy CSR matrix that stores them in that order."""
    from scipy import sparse

    rows = np.repeat(np.arange(len(widths)), widths)
    cols = np.concatenate([rng.permutation(columns)[:w] for w in widths]).astype(np.intp)
    weights = rng.normal(size=len(rows)) * 10.0 ** rng.uniform(-6, 6, size=len(rows))
    csr = sparse.csr_matrix((weights, cols, np.concatenate([[0], np.cumsum(widths)])),
                            shape=(len(widths), columns))
    return rows, cols, weights, csr


def _chunked(entries, size):
    """The entries (rows, cols, weights) in chunks of `size`."""
    bounds = range(0, len(entries[0]), size)
    return [tuple(a[lo:lo + size] for a in entries) for lo in bounds]


class TestGatherTable:
    """`GatherTable.from_entries` against scipy CSR: a row sums its entries
    in the order they arrive, whatever the chunks and however the rows
    interleave, and entries with rows and cols swapped give the CSR
    transpose's product.  Products are compared bit for bit, on finite
    samples and with +-inf and nan among them."""

    WIDTHS = {"mixed": [3, 0, 12, 1, 7, 0, 0, 5, 12, 2, 9, 4, 0, 6, 1, 11] * 4,
              "equal": [5] * 40}

    def _assert_products(self, table, csr, rng):
        assert table.shape == csr.shape
        v = rng.normal(size=csr.shape[1])
        for samples in (v, with_non_finite(v, rng)):
            assert_same_bits(table @ samples, csr @ samples)

    @pytest.mark.parametrize("size", [1, 7, None], ids=["chunk-1", "chunk-7", "one-chunk"])
    @pytest.mark.parametrize("kind", sorted(WIDTHS))
    def test_rows_sum_in_arrival_order(self, kind, size):
        rng = np.random.default_rng(len(kind) + (size or 0))
        widths = np.array(self.WIDTHS[kind])
        rows, cols, weights, csr = _csr_entries(widths, 30, rng)
        # the rows interleave at random, each row's entries in CSR order: the
        # k-th arrival of row r is r's k-th entry
        arrival = rng.permutation(rows)
        entry = np.empty(len(rows), dtype=np.intp)
        entry[np.argsort(arrival, kind="stable")] = np.arange(len(rows))
        entries = (arrival, cols[entry], weights[entry])
        table = GatherTable.from_entries(widths, _chunked(entries, size or len(rows)), 30)
        assert (table.rank is None) == (kind == "equal")
        self._assert_products(table, csr, rng)

    @pytest.mark.parametrize("size", [1, 7, None], ids=["chunk-1", "chunk-7", "one-chunk"])
    @pytest.mark.parametrize("kind", sorted(WIDTHS))
    def test_swapped_entries_are_the_transpose(self, kind, size):
        rng = np.random.default_rng(len(kind) + (size or 0))
        widths = np.array(self.WIDTHS[kind])
        rows, cols, weights, csr = _csr_entries(widths, 30, rng)
        chunks = _chunked((cols, rows, weights), size or len(rows))
        table = GatherTable.from_entries(np.bincount(cols, minlength=30), chunks, len(widths))
        self._assert_products(table, csr.T.tocsr(), rng)

    def test_no_entries(self):
        table = GatherTable.from_entries(np.zeros(3, dtype=np.intp), iter([]), 2)
        assert_same_bits(table @ np.array([np.nan, 1.0]), np.zeros(3))


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
