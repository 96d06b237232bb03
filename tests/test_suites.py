"""Suite rows: each verdict follows from the value and tolerance it prints."""

import csv
import io
import math

import numpy as np
import pytest

from carnot import cli, config, fields, functionals, mollify, suites
from carnot.fields import GridDomain, constant_field
from carnot.functionals import (BlackBoxFunctional, IntegrandFunctional, MaxAffineIntegrand,
                                PowerIntegrand, check_set_function)
from carnot.groups import engel, heisenberg
from carnot.mollify import MollifierFamily, erode_domain
from carnot.suites import (random_quadratic, suite_functional, suite_lsc, suite_mollify,
                           suite_sandwich)

# hand-built rows whose printed numbers the benchmark references pin: their
# verdicts are a strict ordering of two error columns and the exhaustion's
# monotonicity, not value <= tolerance
PINNED = {"convergence_decreasing", "inner_regular_monotone"}

ENGEL_5 = {"group": "engel", "grid": {"shape": 5}}
SUITES = ("axioms", "mollify", "functional", "sandwich", "lsc")


def _printed_rows(overrides: dict, suite: str) -> list:
    """The rows of `verify --suite <suite>` as its CSV prints them."""
    _, files, _ = cli.cmd_verify(config.load_config(overrides=overrides), suite)
    return list(csv.DictReader(io.StringIO(files[f"verify_{suite}.csv"])))


# Engel 5^4 sandwich runs at mollifier resolution 5 (0.5 s), since it takes
# about 4 s at the default resolution 9 (2-vCPU host)
@pytest.mark.parametrize("overrides, suite",
                         [({}, s) for s in SUITES]
                         + [(ENGEL_5, s) for s in SUITES if s != "sandwich"]
                         + [(dict(ENGEL_5, mollifier_resolution=5), "sandwich")],
                         ids=[f"h1-{s}" for s in SUITES]
                         + [f"engel-5-{s}" for s in SUITES if s != "sandwich"]
                         + ["engel-5-r5-sandwich"])
def test_every_row_passes_by_its_printed_numbers(overrides, suite):
    rows = _printed_rows(overrides, suite)
    assert rows
    for row in rows:
        if row["name"] in PINNED:
            continue
        value, tol = float(row["value"]), float(row["tolerance"])
        assert math.isfinite(tol), row
        assert (row["passed"] == "true") == (value <= tol), row


def _box():
    g = heisenberg(1)
    return g, GridDomain.box(-np.ones(3), np.ones(3), 6)


def _set_rows(monkeypatch, fn) -> dict:
    """suite_functional's set-function rows with the report of the black box
    F(u, A) = fn(A) in place of its integrand functional's."""
    g, dom = _box()
    blackbox = BlackBoxFunctional(lambda u, domain: fn(domain))
    monkeypatch.setattr(suites, "check_set_function",
                        lambda functional, u, domain: check_set_function(blackbox, u, domain))
    rows = suite_functional(g, PowerIntegrand(2, 2.0), dom, np.random.default_rng(0), samples=1)
    return {r["name"]: r for r in rows
            if r["name"] in ("monotone_in_A", "subadditive", "superadditive")}


class TestSetFunctionRows:
    def test_shrinking_functional_fails_monotone_by_its_value(self, monkeypatch):
        g, dom = _box()
        shrinking = BlackBoxFunctional(lambda u, domain: 10.0 - domain.volume)
        report = check_set_function(shrinking, constant_field(g, 0.0), dom)
        # the one-ring peel keeps 4^3 of the 6^3 cells, the two-ring one 2^3
        cell = dom.cell_volume
        assert report["monotone_defect"] == pytest.approx((216 - 8) * cell, rel=1e-12)
        row = _set_rows(monkeypatch, lambda domain: 10.0 - domain.volume)["monotone_in_A"]
        assert row["value"] == pytest.approx(report["monotone_defect"] - 1e-10, rel=1e-12)
        assert row["tolerance"] == 0.0 and not row["passed"]

    def test_nan_defect_fails(self, monkeypatch):
        # F is NaN on the two-ring peel only (8 cells): the monotone defect
        # compares it with A after the one-ring peel's finite one
        rows = _set_rows(monkeypatch, lambda domain: domain.volume if domain.volume > 1
                         else float("nan"))
        row = rows["monotone_in_A"]
        assert math.isnan(row["value"]) and not row["passed"], row
        assert rows["subadditive"]["passed"] and rows["superadditive"]["passed"]
        rows = _set_rows(monkeypatch, lambda domain: float("nan"))
        for row in rows.values():
            assert math.isnan(row["value"]) and not row["passed"], row

    def test_infinite_on_both_sides_holds(self, monkeypatch):
        rows = _set_rows(monkeypatch, lambda domain: float("inf"))
        for row in rows.values():
            assert (row["value"], row["passed"]) == (0.0, True), row

    def test_defect_within_the_allowance_reads_zero(self, monkeypatch):
        # the two halves of the box (volume 4 each) sum 6e-11 above the box
        g, dom = _box()
        fn = lambda domain: domain.volume + 3e-11 * (domain.volume <= 4)
        report = check_set_function(BlackBoxFunctional(lambda u, domain: fn(domain)),
                                    constant_field(g, 0.0), dom)
        assert 0 < report["superadditive_defect"] <= 1e-10
        rows = _set_rows(monkeypatch, fn)
        assert [r["value"] for r in rows.values()] == [0.0, 0.0, 0.0]
        assert all(r["passed"] for r in rows.values())

    def test_one_cell_axis_is_covered_twice(self):
        # the overlapping cover keeps at least one cell on axis 0: with one
        # cell, both halves are A, where they used to be empty and F(A)
        # exceeded their sum
        g = heisenberg(1)
        dom = GridDomain.box(-np.ones(3), np.ones(3), (1, 4, 4))
        report = check_set_function(BlackBoxFunctional(lambda u, domain: domain.volume),
                                    constant_field(g, 0.0), dom)
        assert report["subadditive_defect"] == -dom.volume
        rows = _printed_rows({"grid": {"shape": [1, 4, 4]}}, "functional")
        assert all(row["passed"] == "true" for row in rows), rows


class TestFunctionalSamples:
    """Each sample of `suite_functional` takes the horizontal gradients of v,
    of w and of v shifted by c, and reads F of v, of w and of their mix from
    them: every quadrature of the sample loop is the number that `eval` of
    the field algebra's fields gives."""

    @pytest.mark.parametrize("group", [heisenberg(1), engel()], ids=["h1", "engel"])
    @pytest.mark.parametrize("kind", ["power3", "max_affine"])
    def test_three_gradients_per_sample(self, group, kind, monkeypatch):
        rng = np.random.default_rng(1)
        integrand = (PowerIntegrand(group.m, 3.0) if kind == "power3"
                     else MaxAffineIntegrand(rng.normal(size=(4, group.m)), rng.normal(size=4)))
        dom = GridDomain.box(-np.ones(group.n), np.ones(group.n), 4)
        functional = IntegrandFunctional(group, integrand)
        samples = 6
        rng = np.random.default_rng(5)
        random_quadratic(group, rng)  # the suite's u
        expected = []
        for _ in range(samples):
            v, w, c = random_quadratic(group, rng), random_quadratic(group, rng), rng.normal()
            lam = rng.uniform()
            mix = v.scaled(lam) + w.scaled(1.0 - lam)
            expected.append(sorted(functional.eval(field, dom)
                                   for field in (v, v.shifted(c), mix, w)))

        gradients, quadratures = [], []
        horizontal_gradient = fields.horizontal_gradient

        def counted(*args, **kwargs):
            gradients.append(args[1])
            return horizontal_gradient(*args, **kwargs)

        quadrature = IntegrandFunctional.quadrature

        def recorded(self, grads, cell_volume):
            quadratures.append(quadrature(self, grads, cell_volume))
            return quadratures[-1]

        monkeypatch.setattr(suites, "horizontal_gradient", counted)
        monkeypatch.setattr(functionals, "horizontal_gradient", counted)
        monkeypatch.setattr(IntegrandFunctional, "quadrature", recorded)
        counts = []
        for n in (0, samples):
            gradients.clear()
            quadratures.clear()
            suite_functional(group, integrand, dom, np.random.default_rng(5), n)
            counts.append((len(gradients), len(quadratures)))
        assert counts[1][0] - counts[0][0] == 3 * samples
        loop = quadratures[counts[0][1]:]
        assert [sorted(loop[4 * k:4 * k + 4]) for k in range(samples)] == expected


class TestErosions:
    """Each suite builds each scale's operator once: the mollify suite erodes
    once per eps, the sandwich suite once per eps and once for its inner set,
    in that order, largest eps first after the mollify suite's first scale."""

    def test_one_erosion_per_scale(self, monkeypatch):
        g = heisenberg(1)
        omega = GridDomain.box(-np.ones(3), np.ones(3), 10)
        calls = []

        def recorded(group, norm, domain, eps):
            calls.append(eps)
            return erode_domain(group, norm, domain, eps)

        monkeypatch.setattr(mollify, "erode_domain", recorded)
        monkeypatch.setattr(suites, "erode_domain", recorded)
        rng = np.random.default_rng(0)
        rows = suite_mollify(MollifierFamily(g.norm(), resolution=5), omega, rng,
                             [0.2, 0.1, 0.3], 2.0)
        assert all(row["passed"] for row in rows), rows
        assert calls == [0.2, 0.3, 0.1]
        calls.clear()
        rows = suite_sandwich(MollifierFamily(g.norm(), resolution=5), omega, rng,
                              [0.2, 0.1, 0.3])
        assert all(row["passed"] for row in rows), rows
        assert calls == [1.1 * 0.3, 0.3, 0.2, 0.1]


class TestSuiteLsc:
    H = (1, 2, 4, 8, 16)

    def test_rows_are_the_printed_formulas(self):
        g, dom = _box()
        rows = {r["name"]: r for r in suite_lsc(g, dom, np.random.default_rng(3), self.H)}
        F = IntegrandFunctional(g, PowerIntegrand(2, 2.0))
        rng = np.random.default_rng(3)
        u, w = random_quadratic(g, rng), random_quadratic(g, rng)
        fu, fw = F.eval(u, dom), F.eval(w, dom)
        tail = [F.eval(u + w.scaled(1.0 / h), dom) for h in (4, 8, 16)]
        liminf = rows["lsc_perturbation_liminf"]
        assert liminf["value"] == fu - min(tail)
        assert liminf["tolerance"] == 2.0 / 4 * np.sqrt(fu * fw) + fw / 16 + 1e-10
        conv = rows["lsc_perturbation_convergence"]
        assert conv["value"] == abs(tail[-1] - fu)
        assert conv["tolerance"] == 2.0 / 16 * np.sqrt(fu * fw) + fw / 256
        # the sawtooth has |grad| = 1 at every cell center: F = |A| on the tail
        strict = rows["lsc_oscillation_strict"]
        assert strict["value"] == pytest.approx(-0.5 * dom.volume, rel=1e-12)
        assert strict["tolerance"] == 0.0
        assert rows["lsc_oscillation_liminf"]["value"] == pytest.approx(-dom.volume, rel=1e-12)
        assert all(r["passed"] == (r["value"] <= r["tolerance"]) for r in rows.values())
        assert all(r["passed"] for r in rows.values())

    def test_one_cell_on_a_kink(self):
        # the one cell's center is the origin, a kink of every sawtooth: its
        # one-sided slope reads |grad| = 1 there, so F = |A| on the tail
        g = heisenberg(1)
        assert suites._sawtooth_field(g, 3.0).hgrad(g.origin()).tolist() == [[1.0, 0.0]]
        rows = {r["name"]: r for r in _printed_rows({"grid": {"shape": 1}}, "lsc")}
        assert all(r["passed"] == "true" for r in rows.values()), rows
        dom = config.build_grid(config.load_config(overrides={"grid": {"shape": 1}}), g)
        assert float(rows["lsc_oscillation_strict"]["value"]) == pytest.approx(-0.5 * dom.volume)

    def test_each_field_evaluated_once(self, monkeypatch):
        g, dom = _box()
        seen = []
        evaluate = IntegrandFunctional.eval

        def counted(self, u, domain):
            seen.append(u)
            return evaluate(self, u, domain)

        monkeypatch.setattr(IntegrandFunctional, "eval", counted)
        suite_lsc(g, dom, np.random.default_rng(0), self.H)
        # u, w and the three tail members of u + w/h; 0 and three sawtooth tails
        assert len(seen) == 2 + 3 + 1 + 3
        assert len({id(u) for u in seen}) == len(seen)
