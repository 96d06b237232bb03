import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import carnot

from carnot.fields import horizontal_gradient
from carnot.functionals import BlackBoxFunctional


def x_weighted_functional(group):
    """Deliberately non-left-invariant fixture: F(u, A) = sum over A of
    (1 + x1^2) |grad_G u|^2, the detector target for the constancy probe."""

    def fn(u, domain):
        pts = domain.centers()
        grads = horizontal_gradient(group, u, pts)
        weight = 1.0 + pts[:, 0] ** 2
        return float(np.sum(weight * np.sum(grads**2, axis=-1)) * domain.cell_volume)

    return BlackBoxFunctional(fn, name="x_weighted_energy")


# the argv of each of the eight commands
COMMANDS = [["group-info"], ["recover"], ["gamma"]] + [
    ["verify", "--suite", suite] for suite in ("axioms", "mollify", "functional",
                                               "sandwich", "lsc")]


def csr_interpolation(domain, points):
    """The multilinear interpolation matrix of `domain` at `points` as a scipy
    CSR matrix, one row per point with its 2^n corners in increasing column
    order: the oracle the package's gather tables are checked against."""
    from scipy import sparse

    t = domain._node_coords(points)
    shape = np.asarray(domain.shape)
    base = np.clip(np.floor(t).astype(int), 0, shape - 2)
    frac = t - base
    corners = 2 ** domain.ndim
    cols = np.empty((len(t), corners), dtype=np.intp)
    vals = np.empty((len(t), corners))
    for k, corner in enumerate(itertools.product((0, 1), repeat=domain.ndim)):
        corner = np.asarray(corner)
        cols[:, k] = np.ravel_multi_index(tuple((base + corner).T), domain.shape)
        vals[:, k] = np.prod(np.where(corner, frac, 1.0 - frac), axis=-1)
    return sparse.csr_matrix((vals.ravel(), cols.ravel(), np.arange(0, cols.size + 1, corners)),
                             shape=(len(t), int(shape.prod())))


def assert_same_bits(actual, expected):
    """Equal float arrays bit for bit, signed zeros included, with nan at the
    same places (a nan's sign and payload may differ: x86 keeps one
    operand's nan, and which one depends on the kernel)."""
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    np.testing.assert_array_equal(actual[~nan].view(np.uint64), expected[~nan].view(np.uint64))


def with_non_finite(values, rng, count: int = 6):
    """A copy of `values` with +inf, -inf and nan at `count` random places."""
    out = np.array(values, dtype=float)
    spots = rng.choice(out.size, size=min(count, out.size), replace=False)
    out.flat[spots] = np.resize([np.inf, -np.inf, np.nan], len(spots))
    return out


def filiform_spec(step: int) -> dict:
    """The model filiform group of a step >= 2 as a group spec: layers
    (2, 1, .., 1) and [e1, e_i] = e_(i+1) for i = 2..step; step 2 is the
    Heisenberg group, step 3 the Engel group."""
    return {"layer_dims": [2] + [1] * (step - 1), "name": f"filiform-{step}",
            "brackets": [{"i": 1, "j": i, "out": {str(i + 1): 1}}
                         for i in range(2, step + 1)]}


def run_fresh(code: str) -> str:
    """stdout of `code` run in a fresh interpreter that imports carnot from the
    same source tree as the tests."""
    src = str(Path(carnot.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


@pytest.fixture(scope="session")
def cli_import_modules() -> frozenset:
    """Every module a bare `import carnot.cli` loads, from one fresh interpreter."""
    return frozenset(run_fresh("import sys, carnot.cli; print(*sys.modules)").split())
