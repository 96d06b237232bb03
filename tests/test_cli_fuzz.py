"""The command line's exit-code contract on configs drawn around the defaults.

Every draw overrides a few keys of a small valid config with values of the
right type, the wrong type or out of range.  Whatever the config, `main`
returns 0, 1, 2 or 3 without an exception escaping, and exits 2 and 3 print
exactly one line.  Counts stay small (grid <= 4 cells per axis, <= 5 xi
points per axis, few nodes and iterations), so a valid draw is cheap.
"""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from carnot.cli import main, EXIT_OK, EXIT_FAIL, EXIT_CONFIG, EXIT_HYPOTHESIS
from carnot.config import _merge

_BASE = {"grid": {"shape": 4}, "xi_grid": {"points": 3}, "recovery": {"cells_per_axis": 5},
         "schedules": {"h": [1, 2]}, "minimizer": {"max_iter": 3}, "samples": 2,
         "mollifier_resolution": 3}

_COMMANDS = [["group-info"], ["recover"], ["gamma"]] + [
    ["verify", "--suite", suite] for suite in ("axioms", "mollify", "functional",
                                               "sandwich", "lsc")]

_wrong = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just([]), st.just({}),
                   st.lists(st.integers(-1, 3), max_size=3))
_real = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(-3, 3),
                  st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0, 1e-300, 1e300]))


def _count(top: int):
    return st.one_of(st.integers(-1, top), st.sampled_from([2.5, 3.0, True, "3"]))


def _maybe_wrong(strategy):
    return st.one_of(strategy, _wrong)


def _spec(**keys):
    return _maybe_wrong(st.fixed_dictionaries({}, optional=keys))


_vector = st.lists(_real, min_size=1, max_size=3)
_integrand = _spec(
    kind=_maybe_wrong(st.sampled_from(["power", "quadratic", "max_affine", "tabulated",
                                       "cubic"])),
    p=_maybe_wrong(_real),
    M=_maybe_wrong(st.lists(_vector, min_size=1, max_size=2)),
    planes=_maybe_wrong(st.lists(_spec(a=_vector, b=_real), max_size=2)),
    axes=_maybe_wrong(st.lists(st.lists(_real, max_size=3), max_size=2)),
    table=_maybe_wrong(st.lists(st.lists(_real, max_size=3), max_size=3)),
    shift=_maybe_wrong(_vector),
    offset=_maybe_wrong(_real))

_KEYS = {
    "group": _maybe_wrong(st.sampled_from(["heisenberg:1", "euclidean:2", "engel",
                                           "heisenberg:x", "torus:3"])),
    "norm": _maybe_wrong(st.sampled_from(["weighted-max", "koranyi", "l2"])),
    "grid": _spec(lo=_maybe_wrong(_vector), hi=_maybe_wrong(_vector),
                  shape=_maybe_wrong(st.one_of(_count(4), st.lists(_count(4), max_size=4)))),
    "fields": _maybe_wrong(st.lists(_spec(
        expr=_maybe_wrong(st.sampled_from(["x1**2 + 0.5*x2", "x1*x3", "1/x1", "sqrt(x1)",
                                           "x1 +"])),
        probe=_maybe_wrong(_vector)), max_size=2)),
    "integrand": _integrand,
    "p": _maybe_wrong(_real),
    "mollifier_resolution": _maybe_wrong(_count(4)),
    "schedules": _spec(eps=_maybe_wrong(st.lists(_real, max_size=3)),
                       rho=_maybe_wrong(st.lists(_real, max_size=3)),
                       delta=_maybe_wrong(_real),
                       h=_maybe_wrong(st.lists(_count(4), max_size=3))),
    "xi_grid": _spec(radius=_maybe_wrong(_real), points=_maybe_wrong(_count(5))),
    "recovery": _spec(ball_radius=_maybe_wrong(_real), cells_per_axis=_maybe_wrong(_count(4))),
    "gamma": _spec(kind=_maybe_wrong(st.sampled_from(["offset", "alternating", "constant",
                                                      "chaotic"])),
                   base=_integrand, scale=_maybe_wrong(_real), shift=_maybe_wrong(_vector)),
    "minimizer": _spec(max_iter=_maybe_wrong(_count(4))),
    "samples": _maybe_wrong(_count(3)),
    "seed": _maybe_wrong(st.one_of(st.integers(-1, 2**32), _real)),
    "tol_scale": _maybe_wrong(_real),
}
# a few keys per draw, so that most draws get past the first check
_overrides = st.lists(st.sampled_from(sorted(_KEYS)), max_size=3, unique=True).flatmap(
    lambda names: st.fixed_dictionaries({name: _KEYS[name] for name in names}))


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(argv=st.sampled_from(_COMMANDS), overrides=_overrides)
def test_exit_code_contract(tmp_path, capsys, argv, overrides):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_merge(_BASE, overrides)))
    code = main(argv + ["--config", str(path)])
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_CONFIG, EXIT_HYPOTHESIS)
    if code == EXIT_CONFIG:
        assert err.startswith("config error: ") and err.count("\n") == 1, err
    elif code == EXIT_HYPOTHESIS:
        assert err.startswith("hypothesis violation: ") and err.count("\n") == 1, err
