"""Mollifier families, domain erosion and the group-local convolution."""

import dataclasses

import numpy as np
import pytest

from carnot import mollify
from carnot.groups import StratifiedGroup, euclidean, heisenberg, engel
from carnot.fields import (GridDomain, DomainError, ScalarField, constant_field,
                           probe_field, quadratic_field, from_expression, horizontal_gradient)
from carnot.mollify import (MollifierFamily, LocalAverage, erode_domain, convolve, pull_back,
                            commutation_residual, convergence_table)


@pytest.fixture(scope="module")
def h1():
    g = heisenberg(1)
    return g, g.norm()


@pytest.fixture(scope="module")
def mollifier(h1):
    return MollifierFamily(h1[1], resolution=9)


@pytest.fixture(scope="module")
def omega():
    return GridDomain.box(-np.ones(3), np.ones(3), 12)


class TestFamily:
    def test_unit_mass_across_scales(self, mollifier):
        for eps in (1.0, 0.5, 0.25, 0.1):
            assert mollifier.unit_mass(eps) == pytest.approx(1.0, abs=1e-12)

    def test_nonnegative_and_supported(self, h1, mollifier):
        _, norm = h1
        pts = np.random.default_rng(0).uniform(-2, 2, size=(500, 3))
        vals = mollifier.profile(pts)
        assert (vals >= 0).all()
        assert np.abs(vals[norm(pts) >= 1.0]).max() == 0.0

    def test_symmetry(self, mollifier):
        pts = np.random.default_rng(1).uniform(-1, 1, size=(200, 3))
        np.testing.assert_array_equal(mollifier.profile(-pts), mollifier.profile(pts))

    def test_scaled_support(self, h1, mollifier):
        _, norm = h1
        pts = np.random.default_rng(2).uniform(-1, 1, size=(300, 3))
        eps = 0.3
        vals = mollifier.scaled(eps, pts)
        assert np.abs(vals[norm(pts) >= eps]).max() == 0.0
        assert (vals[norm(pts) < 0.5 * eps] > 0).all()

    def test_resolution_floor(self, h1):
        with pytest.raises(ValueError):
            MollifierFamily(h1[1], resolution=2)


class TestErosion:
    def test_subset_and_monotone(self, h1, omega):
        g, norm = h1
        small = erode_domain(g, norm, omega, 0.15)
        large = erode_domain(g, norm, omega, 0.4)
        assert large.is_subset(small)
        assert small.is_subset(omega)

    def test_right_distance_margin(self, h1, omega):
        g, norm = h1
        eps = 0.3
        eroded = erode_domain(g, norm, omega, eps)
        # every kept center is at right-distance > eps from the box boundary
        kept = eroded.centers()
        faces = np.abs(kept).max(axis=-1)
        assert (faces < 1.0).all()

    def test_rejects_nonpositive(self, h1, omega):
        g, norm = h1
        with pytest.raises(ValueError):
            erode_domain(g, norm, omega, 0.0)


def _all_pairs_erosion(group, norm, omega, eps):
    """Reference mask: every masked center against every complement center of
    the padded lattice (the box plus its outer ring), with no window."""
    h = omega.spacing
    pad = np.ceil(eps ** group.weights.astype(float) / h).astype(int) + 1
    padded = GridDomain.box(omega.lo - pad * h, omega.hi + pad * h,
                            tuple(s + 2 * p for s, p in zip(omega.shape, pad)))
    inner = np.zeros(padded.shape, dtype=bool)
    inner[tuple(slice(p, p + s) for p, s in zip(pad, omega.shape))] = omega.mask
    comp_inv = group.inverse(padded.all_centers()[~inner.ravel()])
    centers = omega.centers()
    nearest = np.concatenate([
        norm(group.multiply(centers[k:k + 16, None, :], comp_inv[None, :, :])).min(axis=1)
        for k in range(0, len(centers), 16)])
    mask = np.zeros(omega.shape, dtype=bool)
    mask[omega.mask] = nearest > eps
    return mask


class TestErosionWindow:
    """The horizontal window leaves the mask bit-identical to all pairs."""

    @pytest.mark.parametrize("kind", ["weighted-max", "koranyi"])
    def test_heisenberg(self, kind):
        g = heisenberg(1)
        norm = g.norm(kind)
        omega = GridDomain.box(-np.ones(3), np.ones(3), 8)
        # h = 0.25: at eps = 0.5 and 0.75 some centers lie exactly eps/h cells
        # from their nearest complement cell, the edge of the window
        for eps in (0.2, 0.35, 0.5, 0.75, 1.1):
            got = erode_domain(g, norm, omega, eps).mask
            np.testing.assert_array_equal(got, _all_pairs_erosion(g, norm, omega, eps))
        assert not got.any()  # eps = 1.1 empties the box

    def test_heisenberg_2(self):
        g = heisenberg(2)
        norm = g.norm("koranyi")
        # h = 0.5 on V_1 and 0.25 on V_2: the outer t-layers sit at rho = eps exactly
        omega = GridDomain.box([-1, -1, -1, -1, -0.5], [1, 1, 1, 1, 0.5], 4)
        got = erode_domain(g, norm, omega, 0.5).mask
        np.testing.assert_array_equal(got, _all_pairs_erosion(g, norm, omega, 0.5))
        assert 0 < got.sum() < got.size

    def test_engel(self):
        g = engel()
        norm = g.norm()
        omega = GridDomain.box(-np.ones(4), np.ones(4), 4)
        for eps in (0.6, 0.9):
            got = erode_domain(g, norm, omega, eps).mask
            np.testing.assert_array_equal(got, _all_pairs_erosion(g, norm, omega, eps))

    @pytest.mark.parametrize("lo, hi, eps", [
        # eps < h = 0.5 on both horizontal axes: reach 0, so only cells in a
        # center's own column can kill it, here at rho = sqrt(0.125) on e3
        ([-1, -1, -0.25, -1], [1, 1, 0.25, 1], 0.45),
        # eps = h = 0.5: centers next to a horizontal face are killed by a
        # ring cell exactly one spacing away, on the edge of the window
        ([-1] * 4, [1] * 4, 0.5),
    ], ids=["below-one-spacing", "one-spacing"])
    def test_engel_4(self, lo, hi, eps):
        g = engel()
        norm = g.norm()
        omega = GridDomain.box(lo, hi, 4)
        got = erode_domain(g, norm, omega, eps).mask
        np.testing.assert_array_equal(got, _all_pairs_erosion(g, norm, omega, eps))
        assert 0 < got.sum() < got.size

    @pytest.mark.parametrize("kind", ["weighted-max", "koranyi"])
    def test_unequal_horizontal_spacings(self, kind):
        g = heisenberg(1)
        norm = g.norm(kind)
        # h = (0.25, 0.125): eps = 0.375 reaches 1.5 cells on x and 3 on y
        omega = GridDomain.box([-1, -0.5, -1], [1, 0.5, 1], 8)
        got = erode_domain(g, norm, omega, 0.375).mask
        np.testing.assert_array_equal(got, _all_pairs_erosion(g, norm, omega, 0.375))
        assert 0 < got.sum() < got.size

    @pytest.mark.parametrize("kind", ["weighted-max", "koranyi"])
    def test_far_from_origin(self, kind):
        g = euclidean(2)
        norm = g.norm(kind)
        # h = 0.1 and eps = 0.3, but eps/h rounds to just below 3, while centers
        # near 1e3 carry 1e-13 of rounding: cells three spacings from a face
        # are killed only when the window keeps its margin
        omega = GridDomain.box([1000, 1000], [1001, 1001], 10)
        assert np.floor(0.3 / omega.spacing).max() == 2
        got = erode_domain(g, norm, omega, 0.3).mask
        np.testing.assert_array_equal(got, _all_pairs_erosion(g, norm, omega, 0.3))
        assert got.sum() == 16

    def test_mask_with_hole(self):
        g = heisenberg(1)
        norm = g.norm()
        mask = np.ones((8, 8, 8), dtype=bool)
        mask[3:5, 3:5, 2:6] = False
        mask[:2, 6:, :] = False
        omega = GridDomain(-np.ones(3), np.ones(3), (8, 8, 8), mask)
        for eps in (0.2, 0.3):
            got = erode_domain(g, norm, omega, eps).mask
            np.testing.assert_array_equal(got, _all_pairs_erosion(g, norm, omega, eps))
            assert got.any()


class TestConvolve:
    def test_constant_is_fixed(self, h1, mollifier, omega):
        g, _ = h1
        u_eps = convolve(mollifier, 0.3, constant_field(g, -1.75), omega)
        pts = u_eps.domain.centers()
        assert np.abs(u_eps.values(pts) + 1.75).max() <= 1e-12

    def test_probe_is_fixed(self, h1, mollifier, omega):
        # symmetric mollifier: affine parts average out node by node
        g, _ = h1
        u = probe_field(g, np.array([0.8, -0.4]))
        u_eps = convolve(mollifier, 0.25, u, omega)
        pts = u_eps.domain.centers()
        assert np.abs(u_eps.values(pts) - u.values(pts)).max() <= 1e-12
        assert np.abs(u_eps.hgrad(pts) - u.hgrad(pts)).max() <= 1e-12

    def test_outside_eroded_domain_raises(self, h1, mollifier, omega):
        g, _ = h1
        u_eps = convolve(mollifier, 0.3, constant_field(g, 1.0), omega)
        with pytest.raises(DomainError):
            u_eps.values(np.array([[0.99, 0.99, 0.99]]))

    def test_empty_erosion_raises(self, h1, mollifier):
        g, _ = h1
        tiny = GridDomain.box(-0.1 * np.ones(3), 0.1 * np.ones(3), 4)
        with pytest.raises(DomainError):
            convolve(mollifier, 0.5, constant_field(g, 1.0), tiny)

    def test_euclidean_matches_direct_average(self):
        # independent oracle: on (R^2, +) the convolution is a plain
        # weighted average of shifted samples
        g = euclidean(2)
        norm = g.norm()
        mol = MollifierFamily(norm, resolution=7)
        omega = GridDomain.box(-np.ones(2), np.ones(2), 10)
        u = quadratic_field(g, 0.2, [1.0, -0.5], 0.3 * np.eye(2))
        eps = 0.3
        u_eps = convolve(mol, eps, u, omega)
        pts = u_eps.domain.centers()[:17]
        masses = mol.node_masses()
        direct = np.array([float(masses @ u.values(x - eps * mol.nodes)) for x in pts])
        np.testing.assert_allclose(u_eps.values(pts), direct, atol=1e-12)


@pytest.fixture
def multiply_points(monkeypatch):
    """A fresh pull-back memo, and a list that records how many points every
    later group multiplication pushes through the group law."""
    monkeypatch.setattr(mollify, "_PULLBACK_CACHE", {})
    counts = []
    multiply = StratifiedGroup.multiply

    def counted(self, x, y):
        counts.append(int(np.prod(np.broadcast_shapes(np.shape(x), np.shape(y))[:-1])))
        return multiply(self, x, y)

    monkeypatch.setattr(StratifiedGroup, "multiply", counted)
    return counts


def _scaled_heisenberg():
    """H^1 with [e1, e2] = 2 e3: the layer dimensions of H^1, other constants."""
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = 2.0, -2.0
    return StratifiedGroup((2, 1), c, name="heisenberg-scaled")


class TestPullBack:
    def test_one_pull_back_per_scale_and_point_set(self, h1, multiply_points):
        g, norm = h1
        mol = MollifierFamily(norm, resolution=5)
        omega = GridDomain.box(-np.ones(3), np.ones(3), 8)
        quad = quadratic_field(g, 0.5, [1.0, -0.5, 0.25], 0.3 * np.eye(3))
        probe = probe_field(g, [0.7, -0.2])
        first = convolve(mol, 0.3, quad, omega)
        second = convolve(mol, 0.3, probe, omega)
        pts = first.domain.centers()
        live = int((mol.node_masses() > 0).sum())
        multiply_points.clear()
        first.values(pts)
        assert sum(multiply_points) == len(pts) * live
        second.values(pts)
        first.hgrad(pts)
        second.hgrad(pts)
        assert sum(multiply_points) == len(pts) * live
        first.values(pts[::-1])
        assert sum(multiply_points) == 2 * len(pts) * live
        other = convolve(mol, 0.25, quad, omega)
        multiply_points.clear()
        other.values(pts)
        assert sum(multiply_points) == len(pts) * live

    def test_no_false_hit(self, h1, multiply_points):
        # every variant pulls back again and matches a cold memo; the point
        # variant keeps the base set's shape, the eps variant its node count
        g, norm = h1
        omega = GridDomain.box(-np.ones(3), np.ones(3), 8)
        base = dict(group=g, norm=norm, resolution=5, eps=0.3)
        pts = erode_domain(g, norm, omega, 0.4).centers()[:40]
        scaled = _scaled_heisenberg()
        variants = [(dict(base, eps=0.35), pts), (dict(base, resolution=7), pts),
                    (dict(base, norm=g.norm("koranyi")), pts),
                    (dict(base, group=scaled, norm=scaled.norm()), pts),
                    (base, pts[::-1].copy())]

        def values(spec, points):
            group = spec["group"]
            u = quadratic_field(group, 0.0, [1.0, 0.5, -1.0],
                                np.outer([1.0, 2.0, 0.5], [0.3, -1.0, 1.0]))
            mol = MollifierFamily(spec["norm"], resolution=spec["resolution"])
            return convolve(mol, spec["eps"], u, omega).values(points)

        warm = values(base, pts)
        for spec, points in variants:
            multiply_points.clear()
            got = values(spec, points)
            assert sum(multiply_points) > 0
            mollify._PULLBACK_CACHE.clear()
            np.testing.assert_array_equal(got, values(spec, points))
            values(base, pts)  # warm the base entry again
        np.testing.assert_array_equal(values(base, pts), warm)

    def test_memo_is_read_only(self, h1, multiply_points):
        g, norm = h1
        mol = MollifierFamily(norm, resolution=5)
        omega = GridDomain.box(-np.ones(3), np.ones(3), 8)
        pts = erode_domain(g, norm, omega, 0.3).centers()[:10]
        y_inv = -g.dilate(0.3, mol.nodes)
        pulled = pull_back(g, y_inv, pts)
        assert pulled.shape == (10, len(mol.nodes), 3) and not pulled.flags.writeable
        assert pull_back(g, y_inv, pts) is pulled
        np.testing.assert_array_equal(pulled, g.multiply(y_inv[None], pts[:, None]))

        def scribble(p):
            p[:] = 0.0
            return p[:, 0]

        u_eps = convolve(mol, 0.3, ScalarField(values=scribble, name="scribble"), omega)
        with pytest.raises(ValueError, match="read-only"):
            u_eps.values(pts)

    def test_memo_bytes_bounded(self, h1, multiply_points, monkeypatch):
        g, norm = h1
        mol = MollifierFamily(norm, resolution=5)
        omega = GridDomain.box(-np.ones(3), np.ones(3), 8)
        u_eps = convolve(mol, 0.3, constant_field(g, 2.0), omega)
        pts = u_eps.domain.centers()
        chunk = mollify._CHUNK * len(mol.nodes) * g.n * 8
        monkeypatch.setattr(mollify, "_PULLBACK_BYTES", 3 * chunk)
        assert len(pts) > 4 * mollify._CHUNK
        np.testing.assert_allclose(u_eps.values(pts), 2.0, atol=1e-12)
        held = sum(a.nbytes for a in mollify._PULLBACK_CACHE.values())
        assert 0 < held <= 3 * chunk


class TestLocalAverage:
    def test_outputs_match_a_per_chunk_loop(self, h1, mollifier, omega):
        # each output takes its trailing shape from the evaluator: a scalar, an
        # (m,) gradient, and both from one evaluator as the Jensen check asks
        g, _ = h1
        average = LocalAverage.of(mollifier, 0.3, omega)
        pts = average.domain.centers()[:150]  # two full chunks and a partial one
        assert len(pts) == 150 and len(pts) % mollify._CHUNK
        u = quadratic_field(g, 0.5, [1.0, -0.5, 0.25], np.outer([1.0, 2.0, 0.5], [0.3, -1.0, 1.0]))

        def sample(points):
            return u.values(points), horizontal_gradient(g, u, points)

        values, grads = np.empty(len(pts)), np.empty((len(pts), g.m))
        for start in range(0, len(pts), mollify._CHUNK):
            chunk = pts[start:start + mollify._CHUNK]
            pulled = g.multiply(average.y_inv[None], chunk[:, None])
            vals, grad = sample(pulled.reshape(-1, g.n))
            rows = slice(start, start + len(chunk))
            values[rows] = vals.reshape(len(chunk), -1) @ average.masses
            grads[rows] = np.moveaxis(grad.reshape(len(chunk), -1, g.m), 1, -1) @ average.masses
        (scalar,) = average(lambda p: (u.values(p),), pts)
        (vector,) = average(lambda p: (horizontal_gradient(g, u, p),), pts)
        both = average(sample, pts)
        assert scalar.shape == (150,) and vector.shape == (150, g.m)
        for got, want in ((scalar, values), (vector, grads), (both[0], values), (both[1], grads)):
            np.testing.assert_array_equal(got, want)


class TestCommutation:
    def test_quadratic_residual_small(self, h1, mollifier, omega):
        g, _ = h1
        rng = np.random.default_rng(3)
        u = quadratic_field(g, 0.0, rng.normal(size=3), rng.normal(size=(3, 3)))
        assert commutation_residual(mollifier, 0.3, u, omega) <= 1e-4


class TestConvergence:
    def test_errors_decrease(self, h1, mollifier, omega):
        g, norm = h1
        u = from_expression(g, "x1**2 - 0.5*x2*x3 + x3")
        inner = erode_domain(g, norm, omega, 0.45)
        rows = convergence_table(mollifier, u, omega, inner, 2.0, [0.4, 0.2, 0.1])
        lp = [r["Lp_err"] for r in rows]
        w1 = [r["W1p_err"] for r in rows]
        assert all(a > b for a, b in zip(lp, lp[1:]))
        assert all(a > b for a, b in zip(w1, w1[1:]))
        # second-order profile: quartering eps cuts both columns ~16x
        assert lp[-1] <= 0.25 * lp[0]
        assert w1[-1] <= 0.25 * w1[0]

    def test_inner_outside_eroded_domain_raises(self, h1, mollifier, omega):
        g, _ = h1
        with pytest.raises(DomainError, match="convolution queried outside the eroded domain"):
            convergence_table(mollifier, constant_field(g, 1.0), omega, omega, 2.0, [0.4])

    def test_empty_inner_raises(self, h1, mollifier, omega):
        g, _ = h1
        empty = dataclasses.replace(omega, mask=np.zeros(omega.shape, dtype=bool))
        with pytest.raises(DomainError, match="nonempty inner"):
            convergence_table(mollifier, constant_field(g, 1.0), omega, empty, 2.0,
                              [0.4, 0.2])
