"""Group arithmetic, axiom checking, norms and presets."""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_same_bits, filiform_spec
from carnot.config import ConfigError, build_group
from carnot.groups import (BCH, MAX_STEP, _fold, _quadratic_form, _rank, StratifiedGroup,
                           GroupAxiomError, euclidean, heisenberg, engel, preset)


def _coords(n, scale=2.0):
    return st.lists(st.floats(-scale, scale, allow_nan=False, width=32),
                    min_size=n, max_size=n).map(np.array)


class TestMultiply:
    def test_heisenberg_hand_product(self):
        # BCH by hand: [e1, e2] = e3, so x.y picks up half the area term
        g = heisenberg(1)
        np.testing.assert_allclose(g.multiply([1, 0, 0], [0, 1, 0]), [1, 1, 0.5])
        np.testing.assert_allclose(g.multiply([0, 1, 0], [1, 0, 0]), [1, 1, -0.5])

    def test_engel_hand_product(self):
        # x = e1, y = e2: [x,y] = e3, [x,[x,y]] = e4, [y,[x,y]] = 0
        g = engel()
        np.testing.assert_allclose(g.multiply([1, 0, 0, 0], [0, 1, 0, 0]),
                                   [1, 1, 0.5, 1.0 / 12.0])

    def test_euclidean_is_addition(self):
        g = euclidean(3)
        x, y = np.array([1.0, -2.0, 3.0]), np.array([0.5, 0.5, 0.5])
        np.testing.assert_array_equal(g.multiply(x, y), x + y)

    def test_batched_broadcast(self):
        g = heisenberg(1)
        xs = np.random.default_rng(0).normal(size=(7, 3))
        ys = np.random.default_rng(1).normal(size=(7, 3))
        rows = np.array([g.multiply(x, y) for x, y in zip(xs, ys)])
        np.testing.assert_allclose(g.multiply(xs, ys), rows)

    @settings(max_examples=60, deadline=None)
    @given(_coords(3), _coords(3), _coords(3))
    def test_associativity_heisenberg(self, x, y, z):
        g = heisenberg(1)
        lhs = g.multiply(g.multiply(x, y), z)
        rhs = g.multiply(x, g.multiply(y, z))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(_coords(4), _coords(4))
    def test_inverse_engel(self, x, y):
        g = engel()
        np.testing.assert_allclose(g.multiply(x, g.inverse(x)), 0.0, atol=1e-12)
        # anti-homomorphism: (x.y)^{-1} = y^{-1}.x^{-1}
        np.testing.assert_allclose(g.inverse(g.multiply(x, y)),
                                   g.multiply(g.inverse(y), g.inverse(x)), atol=1e-10)


class TestBracket:
    """The sparse pair loop against the dense contraction over all of c."""

    @staticmethod
    def _dense(g, x, y):
        return np.einsum("...i,...j,ijl->...l", x, y, g.c)

    @pytest.mark.parametrize("name", ["euclidean:3", "heisenberg:1", "heisenberg:2",
                                      "heisenberg:3", "engel"])
    def test_presets(self, name):
        g = preset(name)
        x, y = np.random.default_rng(5).normal(size=(2, 300, g.n))
        outputs = [l for _, _, l, _ in g.structure]
        if len(outputs) == len(set(outputs)):
            # one pair per output coordinate: the same products, bit for bit
            np.testing.assert_array_equal(g.bracket(x, y), self._dense(g, x, y))
        else:
            # H^n, n >= 2: the n pairs feeding t are summed in another order
            np.testing.assert_allclose(g.bracket(x, y), self._dense(g, x, y),
                                       rtol=1e-14, atol=1e-14)

    CUSTOM = [
        {"layer_dims": [4, 1], "brackets": [{"i": 1, "j": 2, "out": {"5": 2.5}},
                                             {"i": 3, "j": 4, "out": {"5": -0.75}}]},
        {"layer_dims": [2, 1, 1], "brackets": [{"i": 1, "j": 2, "out": {"3": 1.5}},
                                                {"i": 1, "j": 3, "out": {"4": -0.3}}]},
    ]
    CUSTOM_IDS = ["two-pairs-one-output", "step3-non-unit"]

    @pytest.mark.parametrize("spec", CUSTOM, ids=CUSTOM_IDS)
    def test_custom_constants(self, spec):
        g = build_group({"group": spec})
        x, y = np.random.default_rng(6).normal(size=(2, 300, g.n))
        np.testing.assert_allclose(g.bracket(x, y), self._dense(g, x, y),
                                   rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("name", ["heisenberg:1", "engel"])
    def test_broadcasting(self, name):
        g = preset(name)
        rng = np.random.default_rng(7)
        x, y = rng.normal(size=(4, 1, g.n)), rng.normal(size=(1, 6, g.n))
        assert g.bracket(x, y).shape == (4, 6, g.n)
        np.testing.assert_array_equal(g.bracket(x, y), self._dense(g, x, y))
        point, batch = rng.normal(size=g.n), rng.normal(size=(5, g.n))
        np.testing.assert_array_equal(g.bracket(point, batch), self._dense(g, point, batch))
        assert g.bracket(point, point).shape == (g.n,)
        np.testing.assert_array_equal(g.bracket(batch[0], point), self._dense(g, batch[0], point))


class TestFrameKernels:
    """The frame, built from the sparse bracket, against the dense matrices
    of v -> [z, v] contracted over all of c."""

    @staticmethod
    def _ad(g, z):
        return np.einsum("...i,ijl->...lj", z, g.c)

    @classmethod
    def _dense_frame(cls, g, x):
        adx = cls._ad(g, x)
        coeffs = np.eye(g.n)[:, : g.m] + 0.5 * adx[..., : g.m]
        if g.step >= 3:
            coeffs = coeffs + (adx @ adx)[..., : g.m] / 12.0
        return coeffs

    def _check(self, g, exact):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(500, g.n))
        if exact:
            compare = np.testing.assert_array_equal
        else:
            compare = lambda a, b: np.testing.assert_allclose(a, b, rtol=1e-14, atol=1e-14)
        frame = g.vector_field_coeffs(x)
        assert frame.shape == (500, g.n, g.m) and frame.flags.c_contiguous
        compare(frame, self._dense_frame(g, x))

    @pytest.mark.parametrize("name", ["euclidean:3", "heisenberg:1", "heisenberg:2",
                                      "heisenberg:3", "engel"])
    def test_presets(self, name):
        self._check(preset(name), exact=True)

    @pytest.mark.parametrize("spec", TestBracket.CUSTOM, ids=TestBracket.CUSTOM_IDS)
    def test_custom_constants(self, spec):
        self._check(build_group({"group": spec}), exact=False)


class TestHgradKernel:
    """X u straight from the structure constants against the contraction of
    grad u with the dense frame A(x)."""

    @staticmethod
    def _check(g, compare):
        x, grad = np.random.default_rng(9).normal(size=(2, 500, g.n))
        out = g.hgrad_from_egrad(x, grad)
        assert out.shape == (500, g.m) and out.flags.c_contiguous
        compare(out, np.einsum("...nj,...n->...j", g.vector_field_coeffs(x), grad))
        assert g.hgrad_from_egrad(x[0], grad[0]).shape == (g.m,)

    @pytest.mark.parametrize("name", ["euclidean:3", "heisenberg:1", "heisenberg:2",
                                      "heisenberg:3"])
    def test_step2_presets_bit_for_bit(self, name):
        # each X_j u is g_j plus one product, summed in the same order
        self._check(preset(name), np.testing.assert_array_equal)

    @pytest.mark.parametrize("spec", ["engel"] + TestBracket.CUSTOM,
                             ids=["engel"] + TestBracket.CUSTOM_IDS)
    def test_against_frame(self, spec):
        self._check(build_group({"group": spec}), lambda a, b: np.testing.assert_allclose(
            a, b, rtol=1e-14, atol=1e-14))


def _matrix_group(basis, layer_dims):
    """The group whose structure constants are the commutators of the
    nilpotent matrices `basis`, and the map from coordinates to matrices."""
    flat = np.array([b.ravel() for b in basis]).T
    c = np.array([[np.linalg.lstsq(flat, (a @ b - b @ a).ravel(), rcond=None)[0]
                   for b in basis] for a in basis])
    c[np.abs(c) < 1e-12] = 0.0
    return StratifiedGroup(layer_dims, c), flat


def _filiform(step):
    # rho(a e1 + v) = [[a N, v], [0, 0]], N the shift on span(e2..en)
    n = step + 1
    head = np.zeros((n, n))
    head[1:n - 1, : n - 2] = np.eye(n - 2)
    columns = [np.zeros((n, n)) for _ in range(n - 1)]
    for i, b in enumerate(columns):
        b[i, n - 1] = 1.0
    g, flat = _matrix_group([head] + columns, (2,) + (1,) * (step - 1))
    np.testing.assert_array_equal(g.c, build_group({"group": filiform_spec(step)}).c)
    return g, flat


def _triangular(size):
    # strictly upper-triangular matrices, layer k the k-th superdiagonal
    basis = []
    for k in range(1, size):
        for i in range(size - k):
            basis.append(np.zeros((size, size)))
            basis[-1][i, i + k] = 1.0
    return _matrix_group(basis, tuple(range(size - 1, 0, -1)))


def _exp(a):
    # finite for nilpotent a: a^len(a) = 0
    out = term = np.eye(len(a))
    for k in range(1, len(a)):
        term = term @ a / k
        out = out + term
    return out


def _log(a):
    # finite for unipotent a
    out, term, nil = np.zeros_like(a), np.eye(len(a)), a - np.eye(len(a))
    for k in range(1, len(a)):
        term = term @ nil
        out = out + (-1) ** (k + 1) * term / k
    return out


ORACLE_GROUPS = {"filiform-2": lambda: _filiform(2), "filiform-3": lambda: _filiform(3),
                 "filiform-4": lambda: _filiform(4), "filiform-5": lambda: _filiform(5),
                 "triangular-5": lambda: _triangular(5), "triangular-6": lambda: _triangular(6)}


class TestMatrixOracle:
    """The group law against log(exp X exp Y) in a faithful matrix
    representation, and the frame against derivatives of the group law, on the
    model filiform groups (step 2 is Heisenberg, 3 Engel) and on the strictly
    upper-triangular 5 x 5 and 6 x 6 matrices (steps 4 and 5)."""

    @pytest.mark.parametrize("name", ORACLE_GROUPS)
    def test_multiply(self, name):
        g, flat = ORACLE_GROUPS[name]()
        size = math.isqrt(flat.shape[0])
        assert g.step == {"triangular-5": 4, "triangular-6": 5}.get(name, int(name[-1]))
        x, y = np.random.default_rng(10).normal(size=(2, 40, g.n))
        want = [np.linalg.lstsq(flat, _log(_exp((flat @ a).reshape(size, size))
                                           @ _exp((flat @ b).reshape(size, size))).ravel(),
                                rcond=None)[0] for a, b in zip(x, y)]
        got = g.multiply(x, y)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("name", ORACLE_GROUPS)
    def test_frame_is_the_derivative_of_multiply(self, name):
        # column j is d/dt (x . t e_j) at t = 0
        g, _ = ORACLE_GROUPS[name]()
        x = np.random.default_rng(11).normal(size=(20, g.n))
        t = 1e-6
        steps = t * np.eye(g.n)[: g.m, None, :]
        fd = (g.multiply(x, steps) - g.multiply(x, -steps)) / (2 * t)
        np.testing.assert_allclose(g.vector_field_coeffs(x), np.moveaxis(fd, 0, -1),
                                   atol=1e-8)

    @pytest.mark.parametrize("name", ORACLE_GROUPS)
    def test_hgrad_is_the_frame_transpose(self, name):
        g, _ = ORACLE_GROUPS[name]()
        x, grad = np.random.default_rng(12).normal(size=(2, 200, g.n))
        out = g.hgrad_from_egrad(x, grad)
        assert out.shape == (200, g.m) and out.flags.c_contiguous
        np.testing.assert_allclose(
            out, np.einsum("...nj,...n->...j", g.vector_field_coeffs(x), grad),
            rtol=1e-13, atol=1e-13)

    def test_table_linear_part_is_psi(self):
        # the words with one y are ad_x^(d-1) y, and their coefficients are the
        # series of psi(z) = z / (1 - e^-z), the inverse of sum (-z)^k / (k+1)!
        inverse = [Fraction((-1) ** k, math.factorial(k + 1)) for k in range(len(BCH) + 2)]
        psi = [Fraction(1)]
        for k in range(1, len(inverse)):
            psi.append(-sum(psi[i] * inverse[k - i] for i in range(k)))
        for d, (den, terms) in enumerate(BCH, start=2):
            assert all(len(w) == d and set(w) <= {"x", "y"} for _, w in terms)
            linear = [(num, w) for num, w in terms if w.count("y") == 1]
            assert all(w == "x" * (d - 1) + "y" for _, w in linear)
            assert sum(Fraction(num, den) for num, _ in linear) == psi[d - 1]
        assert psi[1:5] == [Fraction(1, 2), Fraction(1, 12), 0, Fraction(-1, 720)]
        assert MAX_STEP == len(BCH) + 1 == 5


class TestDilations:
    def test_automorphism(self):
        g = engel()
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(2, 4))
        lam = 1.7
        np.testing.assert_allclose(g.dilate(lam, g.multiply(x, y)),
                                   g.multiply(g.dilate(lam, x), g.dilate(lam, y)),
                                   atol=1e-12)

    def test_weights(self):
        np.testing.assert_array_equal(heisenberg(1).weights, [1, 1, 2])
        np.testing.assert_array_equal(engel().weights, [1, 1, 2, 3])

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            heisenberg(1).dilate(-1.0, [1.0, 0.0, 0.0])


class TestHomogeneousDimension:
    def test_values(self):
        assert euclidean(3).homogeneous_dimension() == 3
        assert heisenberg(1).homogeneous_dimension() == 4
        assert heisenberg(2).homogeneous_dimension() == 6
        assert engel().homogeneous_dimension() == 7


class TestFrame:
    def test_heisenberg_columns(self):
        # X1 = d1 - (x2/2) d3, X2 = d2 + (x1/2) d3
        g = heisenberg(1)
        x = np.array([0.4, -1.2, 0.7])
        coeffs = g.vector_field_coeffs(x)
        np.testing.assert_allclose(coeffs[:, 0], [1.0, 0.0, 0.6])
        np.testing.assert_allclose(coeffs[:, 1], [0.0, 1.0, 0.2])

    def test_matches_curve_derivative(self):
        # column j is d/dt (x . t e_j) at t = 0
        g = engel()
        rng = np.random.default_rng(3)
        x = rng.normal(size=4)
        coeffs = g.vector_field_coeffs(x)
        t = 1e-6
        for j in range(g.m):
            step = np.zeros(4)
            step[j] = t
            fd = (g.multiply(x, step) - g.multiply(x, -step)) / (2 * t)
            np.testing.assert_allclose(coeffs[:, j], fd, atol=1e-8)


class TestAxioms:
    def test_antisymmetry_witness(self):
        c = np.zeros((3, 3, 3))
        c[0, 1, 2] = 1.0  # missing the mirrored entry
        with pytest.raises(GroupAxiomError, match="antisymmetry"):
            StratifiedGroup((2, 1), c)

    def test_grading_witness(self):
        c = np.zeros((3, 3, 3))
        c[0, 2, 1], c[2, 0, 1] = 1.0, -1.0  # [V1, V2] back into V1
        with pytest.raises(GroupAxiomError, match="grading"):
            StratifiedGroup((2, 1), c)

    def test_jacobi_witness(self):
        # layers (3,1,1): [e1,e2]=e4, [e2,e3]=e4, [e1,e4]=e5 breaks Jacobi
        c = np.zeros((5, 5, 5))
        for i, j, l in [(0, 1, 3), (1, 2, 3), (0, 3, 4)]:
            c[i, j, l], c[j, i, l] = 1.0, -1.0
        with pytest.raises(GroupAxiomError, match="Jacobi"):
            StratifiedGroup((3, 1, 1), c)

    def test_step_cap(self):
        # the six-layer filiform group is valid, but the BCH table stops at degree 5
        c = np.zeros((7, 7, 7))
        for i in range(1, 6):
            c[0, i, i + 1], c[i, 0, i + 1] = 1.0, -1.0
        with pytest.raises(GroupAxiomError, match="step 6 not supported"):
            StratifiedGroup((2, 1, 1, 1, 1, 1), c)

    @pytest.mark.parametrize("spec, layer", [
        ({"layer_dims": [2, 1, 1], "brackets": [{"i": 1, "j": 2, "out": {"3": 1}}]}, 3),
        ({"layer_dims": [2, 1], "brackets": []}, 2),
        ({"layer_dims": [2, 2], "brackets": [{"i": 1, "j": 2, "out": {"3": 1, "4": 2}}]}, 2),
        ({"layer_dims": [2, 1, 2], "brackets": [{"i": 1, "j": 2, "out": {"3": 1}},
                                                 {"i": 1, "j": 3, "out": {"4": 1, "5": 1}},
                                                 {"i": 2, "j": 3, "out": {"4": 2, "5": 2}}]},
         3)],
        ids=["no-third-layer-bracket", "abelian-second-layer", "rank-one-second-layer",
             "rank-one-third-layer"])
    def test_stratification_witness(self, spec, layer):
        # graded, antisymmetric and Jacobi, but [V_1, V_(k-1)] misses part of V_k
        with pytest.raises(ConfigError, match=f"layer {layer} is not generated") as exc:
            build_group({"group": spec})
        assert isinstance(exc.value.__cause__, GroupAxiomError)

    def test_rank_matches_the_svd_rank(self):
        # the stratification check's elimination against numpy's SVD rank
        rng = np.random.default_rng(13)
        for rows, cols, rank in [(4, 1, 0), (4, 1, 1), (6, 3, 2), (9, 4, 4), (3, 5, 3),
                                 (8, 6, 1)]:
            a = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
            assert _rank(a) == np.linalg.matrix_rank(a) == rank

    def test_valid_groups_report_clean(self):
        for g in (euclidean(2), heisenberg(2), engel()):
            assert g.axiom_violations() == []


class TestNorms:
    def test_weighted_max_properties(self):
        g = engel()
        norm = g.norm("weighted-max")
        rng = np.random.default_rng(5)
        x = rng.normal(size=(50, 4))
        assert norm(g.origin()) == 0.0
        assert (norm(x) > 0).all()
        np.testing.assert_allclose(norm(-x), norm(x), atol=1e-14)
        lam = 0.37
        np.testing.assert_allclose(norm(g.dilate(lam, x)), lam * norm(x), atol=1e-12)

    def test_koranyi_homogeneity(self):
        g = heisenberg(1)
        norm = g.norm("koranyi")
        rng = np.random.default_rng(6)
        x = rng.normal(size=(50, 3))
        np.testing.assert_allclose(norm(g.dilate(2.0, x)), 2.0 * norm(x), atol=1e-12)

    def test_koranyi_rejected_on_step3(self):
        with pytest.raises(ValueError):
            engel().norm("koranyi")

    def test_distance_invariances(self):
        g = heisenberg(2)
        norm = g.norm()
        rng = np.random.default_rng(7)
        x, y, z = rng.normal(size=(3, 5))
        np.testing.assert_allclose(norm.dist_left(g.multiply(z, x), g.multiply(z, y)),
                                   norm.dist_left(x, y), atol=1e-12)
        np.testing.assert_allclose(norm.dist_right(g.multiply(x, z), g.multiply(y, z)),
                                   norm.dist_right(x, y), atol=1e-12)


def _reference_bch(g, x, y, head, act, one_y=False, signed=True):
    """sum(head) + the series of `BCH` through g's step, written from the
    table: each word by recursion at full width, cut to head[0]'s width, and
    each degree's sum out of place in table order, as the sign of its first
    kept term times the sum, over that sign times den."""
    letters = {"x": x, "y": y}

    def word(w):
        return letters[w] if len(w) == 1 else act(letters[w[0]], word(w[1:]))

    out, width = sum(head[1:], head[0]), head[0].shape[-1]
    for den, terms in BCH[: max(g.step, 2) - 1]:
        kept = [(num if signed else abs(num), w) for num, w in terms
                if not one_y or w.count("y") == 1]
        if not kept:
            continue
        sign = 1 if kept[0][0] > 0 else -1
        total = abs(kept[0][0]) * word(kept[0][1])[..., :width]
        for num, w in kept[1:]:
            part = abs(num) * word(w)[..., :width]
            total = total + part if num * sign > 0 else total - part
        out = out + total / (sign * den)
    return out


def _bound(g):
    """The bracket bound B(a, b)_l = sum over i < j of |c_ijl| (a_i b_j + a_j b_i)."""

    def bound(a, b):
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
        for i, j, l, c in g.structure:
            out[..., l] += abs(c) * (a[..., i] * b[..., j] + a[..., j] * b[..., i])
        return out

    return bound


EVALUATOR_GROUPS = {"euclidean:2": lambda: preset("euclidean:2"),
                    "heisenberg:1": lambda: preset("heisenberg:1"),
                    "heisenberg:2": lambda: preset("heisenberg:2"),
                    "engel": engel,
                    "filiform-4": lambda: build_group({"group": filiform_spec(4)}),
                    "filiform-5": lambda: build_group({"group": filiform_spec(5)})}


class TestBchEvaluator:
    """`StratifiedGroup.bch`, which builds each degree's words once from the
    previous degree's and sums in place, against the table read plainly."""

    @staticmethod
    def _pairs(n):
        # the pull-back's broadcast (1, K, n) x (P, 1, n), and aligned rows;
        # entries over eight orders of magnitude, some of them signed zeros
        rng = np.random.default_rng(n)
        draw = lambda shape: (rng.normal(size=shape) * 10.0 ** rng.integers(-4, 4, size=shape)
                              * (rng.random(shape) > 0.1))
        x = draw((1, 40, n))
        x[0, :3] = -0.0
        return [(x, draw((7, 1, n))), (draw((30, n)), draw((30, n)))]

    @pytest.mark.parametrize("name", EVALUATOR_GROUPS)
    def test_multiply(self, name):
        g = EVALUATOR_GROUPS[name]()
        for x, y in self._pairs(g.n):
            assert_same_bits(g.multiply(x, y), _reference_bch(g, x, y, (x, y), g.bracket))

    @pytest.mark.parametrize("name", EVALUATOR_GROUPS)
    def test_hgrad_from_egrad(self, name):
        g = EVALUATOR_GROUPS[name]()
        act = lambda a, v: g._coadjoint(a, v, g.n)
        for x, grad in self._pairs(g.n):
            assert_same_bits(g.hgrad_from_egrad(x, grad), _reference_bch(
                g, x, grad, (grad[..., :g.m],), act, one_y=True))

    @pytest.mark.parametrize("name", EVALUATOR_GROUPS)
    def test_vector_field_coeffs(self, name):
        g = EVALUATOR_GROUPS[name]()
        eye = np.eye(g.n)[: g.m]
        for x, _ in self._pairs(g.n):
            rows = _reference_bch(g, x[..., None, :], eye, (eye,), g.bracket, one_y=True)
            assert_same_bits(g.vector_field_coeffs(x), np.swapaxes(rows, -1, -2))

    @pytest.mark.parametrize("name", EVALUATOR_GROUPS)
    def test_bch_bound(self, name):
        g = EVALUATOR_GROUPS[name]()
        for x, y in self._pairs(g.n):
            a, b = np.abs(x), np.abs(y)
            assert_same_bits(g.bch_bound(a, b, a + b), _reference_bch(
                g, a, b, (a + b,), _bound(g), signed=False))

    @pytest.mark.parametrize("step, brackets, coadjoints", [(2, 1, 1), (3, 3, 2), (4, 4, 2),
                                                            (5, 17, 4)])
    def test_each_word_once(self, step, brackets, coadjoints):
        # the distinct words of the kept terms and their right-nested tails
        # (step 5: xy, yx; four of degree 3, five of degree 4, six of degree
        # 5); the frame's words are those linear in y (step 5: xy up to xxxxy,
        # step 4 has no degree-4 one)
        g = build_group({"group": filiform_spec(step)})
        x, y = np.random.default_rng(step).normal(size=(2, 5, g.n))
        with (mock.patch.object(StratifiedGroup, "bracket", autospec=True,
                                side_effect=StratifiedGroup.bracket) as bracket,
              mock.patch.object(StratifiedGroup, "_coadjoint", autospec=True,
                                side_effect=StratifiedGroup._coadjoint) as coadjoint):
            g.multiply(x, y)
            g.hgrad_from_egrad(x, y)
        assert (bracket.call_count, coadjoint.call_count) == (brackets, coadjoints)

    def test_h1_product_peak_memory(self):
        # the bracket and the sum, plus one column of the head x + y: each
        # degree's sum is divided and added in place, and the head is added
        # column by column, never built whole
        g = heisenberg(1)
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(1, 729, 3)), rng.normal(size=(64, 1, 3))
        g.multiply(x, y)  # the plan is cached
        tracemalloc.start()
        try:
            out = g.multiply(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.9 * out.nbytes


class TestFold:
    """The column fold gives numpy's reduction of the trailing axis bit for bit."""

    @pytest.mark.parametrize("ufunc", [np.add, np.maximum], ids=["add", "maximum"])
    @pytest.mark.parametrize("width", range(1, 13))
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("lead", [(300,), (6, 11)], ids=["2d", "3d"])
    def test_matches_reduce(self, ufunc, width, order, lead):
        rng = np.random.default_rng(width)
        x = rng.normal(size=lead + (width,)) * 10.0 ** rng.integers(-8, 9, size=lead + (width,))
        # a third of the entries are signed zeros, infinities or nan, and the
        # first rows are all -0.0, all +0.0 and mixed zeros
        spots = rng.random(x.shape) < 1 / 3
        x[spots] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size=spots.sum())
        rows = x.reshape(-1, width)
        rows[0], rows[1], rows[2] = -0.0, 0.0, np.resize([-0.0, 0.0], width)
        x = np.asarray(x, order=order)
        with np.errstate(invalid="ignore"):
            assert_same_bits(_fold(ufunc, x), ufunc.reduce(x, axis=-1))

    def test_one_row_gives_a_scalar(self):
        # as a reduction does; and an empty axis (the Koranyi norm's vertical
        # part on a Euclidean group) sums to the identity
        x = np.array([1.0, -2.0, 0.5])
        for ufunc in (np.add, np.maximum):
            assert type(_fold(ufunc, x)) is type(ufunc.reduce(x, axis=-1))
            assert _fold(ufunc, x) == ufunc.reduce(x, axis=-1)
        assert_same_bits(_fold(np.add, np.zeros((4, 0))), np.zeros(4))


class TestQuadraticForm:
    """The column fold x^T q x gives numpy's einsum bit for bit, so that a
    numpy whose einsum sums in another order fails here, not in an output."""

    @staticmethod
    def _draw(rng, shape, special):
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        if special:
            spots = rng.random(shape) < 1 / 4
            x[spots] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310, 1e308],
                                  size=spots.sum())
        return x

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("lead", [(300,), (6, 11)], ids=["points", "chunk"])
    @pytest.mark.parametrize("special", [False, True], ids=["finite", "special"])
    def test_matches_einsum(self, n, layout, lead, special):
        rng = np.random.default_rng(n)
        for _ in range(10):
            x = self._draw(rng, lead + (n,), special)
            q = self._draw(rng, (n, n), special)
            if layout == "F":
                x = np.asfortranarray(x)
            elif layout == "strided":
                x = np.repeat(x, 2, axis=-1)[..., ::2]
            with np.errstate(over="ignore", invalid="ignore"):
                assert_same_bits(_quadratic_form(x, q), np.einsum("...i,ij,...j->...", x, q, x))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_one_row_gives_its_batch_value(self, n):
        # a scalar for one row, as einsum gives, equal to that row's value in
        # any batch (einsum sums one or two rows of two columns in another
        # grouping, so its value for a row can depend on the batch)
        rng = np.random.default_rng(10 + n)
        x, q = rng.normal(size=(3, n)), rng.normal(size=(n, n))
        row = _quadratic_form(x[0], q)
        assert type(row) is type(np.einsum("...i,ij,...j->...", x[0], q, x[0]))
        for batch in (x[:1], x[:2], x):
            assert_same_bits(_quadratic_form(batch, q)[0], row)


class TestConfig:
    def test_presets(self):
        assert preset("heisenberg:2").n == 5
        assert preset("euclidean:4").step == 1
        assert preset("engel").step == 3
        with pytest.raises(ValueError):
            preset("torus:2")
