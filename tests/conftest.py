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
