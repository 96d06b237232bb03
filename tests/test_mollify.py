"""Mollifier families, domain erosion and the group-local convolution."""

import ast
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from carnot import mollify
from carnot.config import build_group
from carnot.groups import StratifiedGroup, euclidean, heisenberg, engel, preset
from carnot.fields import (GridDomain, DomainError, constant_field, probe_field,
                           quadratic_field, from_expression, horizontal_gradient)
from carnot.mollify import (MollifierFamily, erode_domain, convolve, commutation_residual,
                            convergence_table)
from carnot.functionals import (IntegrandFunctional, PowerIntegrand, QuadraticIntegrand,
                                jensen_check, sandwich_check, _total)
from carnot.suites import menu_integrands, random_quadratic

from conftest import assert_same_bits, filiform_spec

# the erosion masks the benchmark pins, one file per workload
EROSION_REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references" / "erosion"


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

    def test_oversized_lattice_raises_before_allocating(self):
        # the padded lattice's 6.3e30 cells lie beyond numpy's index range,
        # where allocating would raise ValueError, not DomainError
        g = engel()
        omega = GridDomain.box(-np.ones(4), np.ones(4), 5)
        with pytest.raises(DomainError, match=r"^erosion by eps=10000\.0 needs a padded lattice "
                                              r"of 6251750210033254165294034302401 cells, "
                                              r"too many to allocate$"):
            erode_domain(g, g.norm(), omega, 1e4)


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
    """The per-layer window leaves the mask bit-identical to all pairs."""

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

    @pytest.mark.parametrize("kind", ["weighted-max", "koranyi"])
    @pytest.mark.parametrize("lo, hi, eps_list", [
        # at x_1, x_2 in [1, 4] the bracket term moves t by up to eps |x_h|, so
        # killers sit several vertical cells past eps^2 (three at eps = 0.4)
        ([1, 1, -2], [4, 4, 2], (0.4, 0.7)),
        # t near 1e3 carries 1e-13 of rounding in every center and product,
        # which the window's margin must absorb
        ([-1, -1, 1000], [1, 1, 1001], (0.3, 0.4)),
    ], ids=["horizontally", "vertically"])
    def test_off_origin(self, kind, lo, hi, eps_list):
        g = heisenberg(1)
        norm = g.norm(kind)
        omega = GridDomain.box(lo, hi, 8)
        for eps in eps_list:
            got = erode_domain(g, norm, omega, eps).mask
            np.testing.assert_array_equal(got, _all_pairs_erosion(g, norm, omega, eps))
            assert 0 < got.sum() < got.size

    @pytest.mark.parametrize("kind", ["weighted-max", "koranyi"])
    def test_eps_squared_below_a_pad_cell(self, kind):
        # the middle column sits at x_1 = x_2 = 0, so its killers lie straight
        # above or below; its top center (t = 0.875) is exactly eps^2 = 0.25
        # below the first pad cell, rho = eps, on the edge of the window
        g = heisenberg(1)
        norm = g.norm(kind)
        omega = GridDomain.box([-0.75, -0.75, -1], [0.75, 0.75, 1], (3, 3, 8))
        got = erode_domain(g, norm, omega, 0.5).mask
        np.testing.assert_array_equal(got, _all_pairs_erosion(g, norm, omega, 0.5))
        np.testing.assert_array_equal(got[1, 1], [False] + [True] * 6 + [False])

    def test_filiform_step_4(self):
        # off the origin along x_1, which every bracket of the filiform group
        # takes, so the tail moves killers past eps^w in layers 2 to 4
        g = build_group({"group": filiform_spec(4)})
        norm = g.norm()
        omega = GridDomain.box([1, -0.5, -0.5, -0.5, -0.5], [3, 0.5, 0.5, 0.5, 0.5], 2)
        got = erode_domain(g, norm, omega, 0.6).mask
        np.testing.assert_array_equal(got, _all_pairs_erosion(g, norm, omega, 0.6))
        assert 0 < got.sum() < got.size

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

    def test_one_offset_per_batch(self, monkeypatch):
        # a batch always takes at least one offset, however many centers are live
        monkeypatch.setattr(mollify, "_BATCH_BYTES", 1)
        self.test_heisenberg("weighted-max")
        self.test_engel_4([-1] * 4, [1] * 4, 0.5)
        self.test_mask_with_hole()


@pytest.fixture
def multiply_points(monkeypatch):
    """A list that records how many points every later group multiplication
    pushes through the group law."""
    counts = []
    multiply = StratifiedGroup.multiply

    def counted(self, x, y):
        counts.append(int(np.prod(np.broadcast_shapes(np.shape(x), np.shape(y))[:-1])))
        return multiply(self, x, y)

    monkeypatch.setattr(StratifiedGroup, "multiply", counted)
    return counts


class TestErosionWork:
    """The window multiplies only pairs that can kill."""

    @pytest.mark.parametrize("group, shape, eps", [
        (heisenberg(1), 12, 0.1), (engel(), 5, 0.2), (engel(), 5, 0.1)],
        ids=["h1-0.1", "engel-0.2", "engel-0.1"])
    def test_no_pair_when_no_cell_is_in_reach(self, multiply_points, group, shape, eps):
        # every complement cell is farther than the window from every center
        # (a window on the horizontal layer only takes 6912, 35000 and 35000)
        omega = GridDomain.box(-np.ones(group.n), np.ones(group.n), shape)
        eroded = erode_domain(group, group.norm(), omega, eps)
        assert eroded.mask.all()
        assert sum(multiply_points) == 0

    @pytest.mark.parametrize("group, shape, horizontal_pairs", [
        (heisenberg(1), 12, 140_784), (engel(), 5, 287_518)], ids=["h1", "engel"])
    def test_window_prunes_most_pairs(self, multiply_points, group, shape, horizontal_pairs):
        # the pairs a window on the horizontal layer only takes at eps = 0.4
        omega = GridDomain.box(-np.ones(group.n), np.ones(group.n), shape)
        erode_domain(group, group.norm(), omega, 0.4)
        assert 0 < sum(multiply_points) < horizontal_pairs / 4


def _mask_digest(mask: np.ndarray) -> str:
    """The sha256 of a mask's shape and packed bits, as the benchmark digests
    an erosion."""
    digest = hashlib.sha256(repr(mask.shape).encode())
    digest.update(np.packbits(mask.ravel()).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("workload", ["h1-mollify", "engel-mollify"])
def test_benchmark_erosion_digests(workload):
    # each key reads group|norm|eps=..|shape=..|lo=..|hi=..|mask=<16 hex digits
    # of the input mask's digest>; every key of these workloads erodes a full box
    pinned = json.loads((EROSION_REFERENCES / f"{workload}.json").read_text())
    assert pinned
    for key, want in pinned.items():
        name, kind, *fields = key.split("|")
        spec = dict(field.split("=", 1) for field in fields)
        omega = GridDomain.box(ast.literal_eval(spec["lo"]), ast.literal_eval(spec["hi"]),
                               ast.literal_eval(spec["shape"]))
        assert _mask_digest(omega.mask)[:16] == spec["mask"], key
        g = preset(name)
        eroded = erode_domain(g, g.norm(kind), omega, float(spec["eps"]))
        assert _mask_digest(eroded.mask) == want, key


class TestConvolve:
    def test_constant_is_fixed(self, h1, mollifier, omega):
        g, _ = h1
        u_eps = convolve(mollifier.average(0.3, omega), constant_field(g, -1.75))
        pts = u_eps.domain.centers()
        assert np.abs(u_eps.values(pts) + 1.75).max() <= 1e-12

    def test_probe_is_fixed(self, h1, mollifier, omega):
        # symmetric mollifier: affine parts average out node by node
        g, _ = h1
        u = probe_field(g, np.array([0.8, -0.4]))
        u_eps = convolve(mollifier.average(0.25, omega), u)
        pts = u_eps.domain.centers()
        assert np.abs(u_eps.values(pts) - u.values(pts)).max() <= 1e-12
        assert np.abs(u_eps.hgrad(pts) - u.hgrad(pts)).max() <= 1e-12

    def test_outside_eroded_domain_raises(self, h1, mollifier, omega):
        g, _ = h1
        u_eps = convolve(mollifier.average(0.3, omega), constant_field(g, 1.0))
        with pytest.raises(DomainError):
            u_eps.values(np.array([[0.99, 0.99, 0.99]]))

    def test_empty_erosion_raises(self, h1, mollifier):
        g, _ = h1
        tiny = GridDomain.box(-0.1 * np.ones(3), 0.1 * np.ones(3), 4)
        with pytest.raises(DomainError):
            convolve(mollifier.average(0.5, tiny), constant_field(g, 1.0))

    def test_euclidean_matches_direct_average(self):
        # independent oracle: on (R^2, +) the convolution is a plain
        # weighted average of shifted samples
        g = euclidean(2)
        norm = g.norm()
        mol = MollifierFamily(norm, resolution=7)
        omega = GridDomain.box(-np.ones(2), np.ones(2), 10)
        u = quadratic_field(g, 0.2, [1.0, -0.5], 0.3 * np.eye(2))
        eps = 0.3
        u_eps = convolve(mol.average(eps, omega), u)
        pts = u_eps.domain.centers()[:17]
        masses = mol.node_masses()
        direct = np.array([float(masses @ u.values(x - eps * mol.nodes)) for x in pts])
        np.testing.assert_allclose(u_eps.values(pts), direct, atol=1e-12)


class TestPullBack:
    def test_one_pull_back_per_scale_and_point_set(self, h1, multiply_points):
        # each check takes all its averages of one point set at one scale from
        # one pass, so six (functional, field) pairs cost what one pair costs;
        # a second refinement queries other points and costs one more pass
        g, norm = h1
        mol = MollifierFamily(norm, resolution=5)
        omega = GridDomain.box(-np.ones(3), np.ones(3), 8)
        schedule = [0.3, 0.25]
        inner = erode_domain(g, norm, omega, 0.35)
        averages = [mol.average(eps, omega) for eps in schedule]  # not counted below
        live = int((mol.node_masses() > 0).sum())
        cells = int(inner.mask.sum())
        quad = quadratic_field(g, 0.5, [1.0, -0.5, 0.25], 0.3 * np.eye(3))
        pairs = [(IntegrandFunctional(g, f), u)
                 for f in (PowerIntegrand(2, 2.0), PowerIntegrand(2, 3.0),
                           QuadraticIntegrand(np.eye(2)))
                 for u in (quad, probe_field(g, [0.7, -0.2]))]
        multiply_points.clear()
        sandwich_check(pairs, inner, omega, averages)
        assert sum(multiply_points) == len(schedule) * cells * live
        multiply_points.clear()
        jensen_check(pairs, inner, averages[0])
        assert sum(multiply_points) == cells * live
        multiply_points.clear()
        refined = (IntegrandFunctional(g, PowerIntegrand(2, 2.0), refine=2), quad)
        jensen_check(pairs + [refined], inner, averages[0])
        assert sum(multiply_points) == (1 + 2 ** g.n) * cells * live
        multiply_points.clear()
        convergence_table(averages, quad, inner, 2.0)
        assert sum(multiply_points) == len(schedule) * cells * live

    @pytest.mark.parametrize("group, shape", [(heisenberg(1), 12), (engel(), 5)],
                             ids=["h1", "engel"])
    def test_every_call_within_the_batch_budget(self, group, shape, multiply_points):
        # an erosion batch and an average chunk each hand the group law at most
        # _BATCH_BYTES of points, or one point's K products where those alone
        # are larger (Engel at resolution 9: 6561 nodes, one point per chunk)
        mol = MollifierFamily(group.norm(), resolution=9)
        omega = GridDomain.box(-np.ones(group.n), np.ones(group.n), shape)
        budget = mollify._BATCH_BYTES // (8 * group.n)
        average = mol.average(0.5, omega)
        assert multiply_points and max(multiply_points) <= budget
        live = len(average.masses)
        chunk = max(1, mollify._BATCH_BYTES // average.y_inv.nbytes)
        assert chunk * live <= max(budget, live)
        pts = average.domain.centers()[:3 * chunk + 1]
        multiply_points.clear()
        average(lambda p: (p[:, 0],), pts)
        assert multiply_points == [chunk * live] * 3 + [live]

    def test_probe_chains_pull_back_one_point(self, h1, multiply_points):
        # a probe's gradient is its slope at every point, so a chain over
        # probes only averages it at one point of A' per scale
        g, norm = h1
        mol = MollifierFamily(norm, resolution=5)
        omega = GridDomain.box(-np.ones(3), np.ones(3), 8)
        schedule = [0.3, 0.25]
        inner = erode_domain(g, norm, omega, 0.35)
        averages = [mol.average(eps, omega) for eps in schedule]  # not counted below
        live = int((mol.node_masses() > 0).sum())
        pairs = [(IntegrandFunctional(g, f), probe_field(g, xi))
                 for f in (PowerIntegrand(2, 2.0), QuadraticIntegrand(np.eye(2)))
                 for xi in ([0.7, -0.2], [-1.5, 2.0])]
        multiply_points.clear()
        sandwich_check(pairs, inner, omega, averages)
        assert sum(multiply_points) == len(schedule) * live

    def test_mollifiers_share_nothing(self, h1, multiply_points):
        # a mollifier holds no operators: every `average` call erodes afresh
        # and returns an operator of its own, on one mollifier as on an equal
        # second one, and a convolution pulls back through the operator it takes
        g, norm = h1
        omega = GridDomain.box(-np.ones(3), np.ones(3), 8)
        u = constant_field(g, 2.0)
        first, second = (MollifierFamily(norm, resolution=5) for _ in range(2))
        live = int((first.node_masses() > 0).sum())
        average = first.average(0.3, omega)
        pts = average.domain.centers()
        convolve(average, u).values(pts)
        for mollifier in (first, second):
            multiply_points.clear()
            again = mollifier.average(0.3, omega)
            assert sum(multiply_points) > 0  # the erosion
            assert again is not average
            np.testing.assert_array_equal(again.domain.mask, average.domain.mask)
        multiply_points.clear()
        np.testing.assert_allclose(convolve(again, u).values(pts), 2.0, atol=1e-12)
        assert sum(multiply_points) == len(pts) * live


class TestProbeAverage:
    """`LocalAverage.constant`, the one-point average of a constant gradient."""

    @pytest.mark.parametrize("group, shape, schedule", [
        (heisenberg(1), 10, [0.4, 0.2, 0.1]), (engel(), 5, [0.3, 0.2])], ids=["h1", "engel"])
    def test_chains_match_the_full_average(self, group, shape, schedule):
        # every menu integrand on probes of several sizes, one group refined
        # twice: the chains equal the per-point average's bit for bit
        rng = np.random.default_rng(3)
        norm = group.norm()
        mol = MollifierFamily(norm, resolution=5)
        omega = GridDomain.box(-np.ones(group.n), np.ones(group.n), shape)
        inner = erode_domain(group, norm, omega, 1.1 * max(schedule))
        assert not inner.is_empty
        pairs = [(IntegrandFunctional(group, f, refine=1 + (k == 1)),
                  probe_field(group, scale * rng.normal(size=group.m)))
                 for k, f in enumerate(menu_integrands(group.m, rng)) for scale in (0.5, 3.0)]
        averages = [mol.average(eps, omega) for eps in schedule]
        chains = sandwich_check(pairs, inner, omega, averages)
        full = [(F, dataclasses.replace(u, slope=None)) for F, u in pairs]
        assert chains == sandwich_check(full, inner, omega, averages)

    def test_matches_the_full_average(self, h1, mollifier, omega):
        # a probe's averaged gradient and the average of a constant, over two
        # full chunks and a partial one, and the shapes of both outputs
        # without points
        g, _ = h1
        average = mollifier.average(0.3, omega)
        pts = average.domain.centers()[:150]
        u = probe_field(g, [0.6, -1.3])

        def sample(points):
            return horizontal_gradient(g, u, points), np.ones(len(points))

        for got, want in zip(average.constant(sample, pts), average(sample, pts)):
            assert_same_bits(got, want)
        for got, want in zip(average.constant(sample, pts[:0]), average(sample, pts[:0])):
            assert got.shape == want.shape == (0,) + want.shape[1:]

    def test_every_point_is_checked(self, h1, mollifier, omega):
        # the first center of A' lies in the eroded domain, a later one does not
        g, norm = h1
        eroded = mollifier.average(0.3, omega).domain
        mask = erode_domain(g, norm, omega, 0.35).mask.copy()
        mask.flat[-1] = True  # the last corner cell, which the erosion drops
        inner = dataclasses.replace(omega, mask=mask)
        assert eroded.contains(inner.centers()[:1]).all()
        assert not eroded.contains(inner.centers()).all()
        F = IntegrandFunctional(g, PowerIntegrand(2, 2.0))
        with pytest.raises(DomainError, match="convolution queried outside the eroded domain"):
            sandwich_check([(F, probe_field(g, [1.0, 0.0]))], inner, omega,
                           [mollifier.average(0.3, omega)])
        with pytest.raises(DomainError, match="convolution queried outside the eroded domain"):
            mollifier.average(0.3, omega).constant(lambda p: (p,), inner.centers())


class TestLocalAverage:
    def test_outputs_match_a_per_chunk_loop(self, h1, mollifier, omega, monkeypatch):
        # each output takes its trailing shape from the evaluator: a scalar, an
        # (m,) gradient, and both from one evaluator as the Jensen check asks;
        # each point sums its nodes by a product of its own
        g, _ = h1
        average = mollifier.average(0.3, omega)
        chunk = 64
        monkeypatch.setattr(mollify, "_BATCH_BYTES", chunk * average.y_inv.nbytes)
        pts = average.domain.centers()[:150]  # two full chunks and a partial one
        assert len(pts) == 150 and len(pts) % chunk
        u = quadratic_field(g, 0.5, [1.0, -0.5, 0.25], np.outer([1.0, 2.0, 0.5], [0.3, -1.0, 1.0]))

        def sample(points):
            return u.values(points), horizontal_gradient(g, u, points)

        values, grads = np.empty(len(pts)), np.empty((len(pts), g.m))
        for start in range(0, len(pts), chunk):
            part = pts[start:start + chunk]
            pulled = g.multiply(average.y_inv[None], part[:, None])
            vals, grad = sample(pulled.reshape(-1, g.n))
            rows = slice(start, start + len(part))
            values[rows] = [row @ average.masses for row in vals.reshape(len(part), -1)]
            grads[rows] = np.moveaxis(grad.reshape(len(part), -1, g.m), 1, -1) @ average.masses
        (scalar,) = average(lambda p: (u.values(p),), pts)
        (vector,) = average(lambda p: (horizontal_gradient(g, u, p),), pts)
        both = average(sample, pts)
        assert scalar.shape == (150,) and vector.shape == (150, g.m)
        for got, want in ((scalar, values), (vector, grads), (both[0], values), (both[1], grads)):
            np.testing.assert_array_equal(got, want)


class TestBatchIndependence:
    """A point's average depends on that point alone: every averaging entry
    point gives the same bits whatever chunk `_BATCH_BYTES` allows and
    whichever points share its call."""

    @pytest.mark.parametrize("group, shape", [(heisenberg(1), 8), (engel(), 5)],
                             ids=["h1", "engel"])
    def test_every_entry_point(self, group, shape, monkeypatch):
        rng = np.random.default_rng(11)
        norm = group.norm()
        mol = MollifierFamily(norm, resolution=5)
        omega = GridDomain.box(-np.ones(group.n), np.ones(group.n), shape)
        eps = 0.3
        inner = erode_domain(group, norm, omega, 0.35)
        mask = inner.mask.copy()
        mask.flat[np.flatnonzero(mask)[40:]] = False  # batches of 37 leave 3 points
        inner = dataclasses.replace(inner, mask=mask)
        pts, vol = inner.centers(), inner.cell_volume
        average = mol.average(eps, omega)
        u = random_quadratic(group, rng)
        u_eps = convolve(average, u)
        integrands = menu_integrands(group.m, rng)
        quads = [(IntegrandFunctional(group, f), u) for f in integrands]
        probes = [(IntegrandFunctional(group, f), probe_field(group, rng.normal(size=group.m)))
                  for f in integrands]

        def sample(points):
            grad = horizontal_gradient(group, u, points)
            return [u.values(points), grad, grad[:, :, None] * grad[:, None, :]] + [
                f(grad) for f in integrands]

        def probe_sample(points):
            return [horizontal_gradient(group, v, points) for _, v in probes] + [
                np.ones(len(points))]

        def compose(size, fn):
            # fn's outputs at every point, asked for `size` points at a time
            parts = [fn(pts[i:i + size]) for i in range(0, len(pts), size)]
            return [np.concatenate(col) for col in zip(*parts)]

        want = None
        for chunk in (64, 7, 1):
            monkeypatch.setattr(mollify, "_BATCH_BYTES", chunk * average.y_inv.nbytes)
            jensen = jensen_check(quads, inner, average)
            middles = [chain["rows"][0]["middle"] for pairs in (quads, probes)
                       for chain in sandwich_check(pairs, inner, omega, [average])]
            for size in (len(pts), 1, 7, 37):
                call = compose(size, lambda b: average(sample, b))
                const = compose(size, lambda b: average.constant(probe_sample, b))
                got = call + const + compose(size, lambda b: (u_eps.values(b), u_eps.hgrad(b)))
                want = got if want is None else want
                for output, reference in zip(got, want):
                    assert_same_bits(output, reference)
                # the checks sum the same per-point averages over A'
                assert_same_bits(jensen, [(F.quadrature(call[1], vol), _total(density, vol))
                                          for (F, _), density in zip(quads, call[3:])])
                assert_same_bits(middles, [F.quadrature(call[1], vol) for F, _ in quads]
                                 + [F.quadrature(grad, vol) for (F, _), grad in zip(probes, const)])


class TestCommutation:
    def test_quadratic_residual_small(self, h1, mollifier, omega):
        g, _ = h1
        rng = np.random.default_rng(3)
        u = quadratic_field(g, 0.0, rng.normal(size=3), rng.normal(size=(3, 3)))
        assert commutation_residual(mollifier.average(0.3, omega), u) <= 1e-4


class TestConvergence:
    def test_errors_decrease(self, h1, mollifier, omega):
        g, norm = h1
        u = from_expression(g, "x1**2 - 0.5*x2*x3 + x3")
        inner = erode_domain(g, norm, omega, 0.45)
        rows = convergence_table([mollifier.average(eps, omega) for eps in [0.4, 0.2, 0.1]],
                                 u, inner, 2.0)
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
            convergence_table([mollifier.average(0.4, omega)], constant_field(g, 1.0), omega, 2.0)

    def test_empty_inner_raises(self, h1, mollifier, omega):
        g, _ = h1
        empty = dataclasses.replace(omega, mask=np.zeros(omega.shape, dtype=bool))
        with pytest.raises(DomainError, match="nonempty inner"):
            convergence_table([mollifier.average(eps, omega) for eps in [0.4, 0.2]],
                              constant_field(g, 1.0), empty, 2.0)
