"""Config loading and object construction."""

import ast
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from carnot import config as cfgmod
from carnot.config import ConfigError, load_config
from carnot.functionals import IntegrandFunctional, BlackBoxFunctional
from carnot.groups import heisenberg


def test_defaults_and_merge(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"schedules": {"eps": [0.3]}, "seed": 5}))
    cfg = load_config(str(path), overrides={"seed": 9})
    assert cfg["seed"] == 9
    assert cfg["schedules"]["eps"] == [0.3]
    assert cfg["schedules"]["rho"] == [0.9, 0.7, 0.5]  # untouched default


def test_builders_roundtrip():
    cfg = load_config()
    group = cfgmod.build_group(cfg)
    norm = cfgmod.build_norm(cfg, group)
    grid = cfgmod.build_grid(cfg, group)
    assert group.n == 3 and norm.kind == "weighted-max" and grid.shape == (12,) * 3
    fields = cfgmod.build_fields(cfg, group)
    assert len(fields) == 1
    F = cfgmod.build_functional(cfg, group)
    assert isinstance(F, IntegrandFunctional)
    xi = cfgmod.build_xi_grid(cfg, group)
    assert xi.shape == (81, 2)


@pytest.mark.parametrize("key, value", [
    ("eps", [0.4, True]), ("eps", ["0.2"]), ("rho", [True]), ("h", ["2"]),
])
def test_schedule_entries_must_be_numbers(key, value):
    # float() reads true as 1.0 and "0.2" as 0.2; a schedule takes JSON numbers only
    with pytest.raises(ConfigError, match=f"schedules.{key}"):
        load_config(overrides={"schedules": {key: value}})


def test_numbers_of_any_json_type_accepted():
    cfg = load_config(overrides={"tol_scale": 1, "xi_grid": {"radius": np.float64(2.5)},
                                 "schedules": {"eps": [1, 0.5]}})
    assert cfg["tol_scale"] == 1.0 and type(cfg["tol_scale"]) is float
    assert cfg["xi_grid"]["radius"] == 2.5 and type(cfg["xi_grid"]["radius"]) is float
    assert cfg["schedules"]["eps"] == [1.0, 0.5]
    assert [type(v) for v in cfg["schedules"]["eps"]] == [float, float]


def test_readme_config_reference(tmp_path):
    # the README's example config loads, and its lists of count and
    # real-valued keys name exactly the number keys and schedules that
    # load_config checks
    readme = Path(cfgmod.__file__).parents[2] / "README.md"
    text = readme.read_text().split("### Configuration", 1)[1]
    path = tmp_path / "readme.json"
    path.write_text(re.search(r"```json\n(.*?)```", text, re.S).group(1))
    load_config(str(path))
    keys = {kind: {key for key, (of, _) in cfgmod._NUMBERS.items() if of is kind}
            | {f"schedules.{key}" for key, of in cfgmod._SCHEDULES.items() if of is kind}
            for kind in (int, float)}
    for kind, label in ((int, "Counts"), (float, "real-valued keys")):
        listed = re.search(rf"{label}\s+\(([^)]*)\)", text).group(1)
        assert set(re.findall(r"`([^`]+)`", listed)) == keys[kind], label


def test_group_dict_spec_matches_preset():
    spec = {"layer_dims": [2, 1],
            "brackets": [{"i": 1, "j": 2, "out": {"3": 1.0}}]}
    g = cfgmod.build_group({"group": spec})
    np.testing.assert_array_equal(g.c, heisenberg(1).c)


def test_group_json_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"layer_dims": [2], "brackets": []}')
    assert cfgmod.build_group({"group": str(path)}).n == 2


def test_grid_axis_mismatch():
    cfg = load_config(overrides={"grid": {"lo": [0.0], "hi": [1.0]}})
    group = cfgmod.build_group(cfg)
    with pytest.raises(ConfigError):
        cfgmod.build_grid(cfg, group)


def test_field_entry_validation():
    # known keys only, but neither an expression nor a probe (an unknown key
    # fails earlier, in load_config)
    cfg = load_config(overrides={"fields": [{"name": "nonsense"}]})
    group = cfgmod.build_group(cfg)
    with pytest.raises(ConfigError, match="field entry needs 'expr' or 'probe'"):
        cfgmod.build_fields(cfg, group)


def test_blackbox_plugin(tmp_path, monkeypatch):
    mod = tmp_path / "bb_fixture.py"
    mod.write_text(
        "def make(group):\n"
        "    return lambda u, domain: 42.0\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    cfg = load_config(overrides={"integrand": {"blackbox": "bb_fixture:make"}})
    group = cfgmod.build_group(cfg)
    F = cfgmod.build_functional(cfg, group)
    assert isinstance(F, BlackBoxFunctional)
    assert F.eval(None, None) == 42.0
    sys.modules.pop("bb_fixture", None)


def test_blackbox_unresolvable():
    cfg = load_config(overrides={"integrand": {"blackbox": "no_such_module:attr"}})
    group = cfgmod.build_group(cfg)
    with pytest.raises(ConfigError):
        cfgmod.build_functional(cfg, group)


def test_gamma_sequence_kinds():
    group = cfgmod.build_group(load_config())
    offset = cfgmod.build_gamma_sequence(load_config(), group)
    assert [h for h, _ in offset] == [1, 2, 4, 8, 16]
    eta = np.array([[1.0, 1.0]])
    assert offset[0][1](eta)[0] == pytest.approx(3.0)   # |eta|^2 + 1/1
    assert offset[-1][1](eta)[0] == pytest.approx(2.0 + 1.0 / 16.0)

    alt_cfg = load_config(overrides={
        "gamma": {"kind": "alternating", "shift": [1.0, 0.0]},
        "schedules": {"h": [1, 2]}})
    alt = cfgmod.build_gamma_sequence(alt_cfg, group)
    assert alt[0][1](eta)[0] != alt[1][1](eta)[0]

    with pytest.raises(ConfigError):
        cfgmod.build_gamma_sequence(
            load_config(overrides={"gamma": {"kind": "chaotic"}}), group)


@pytest.mark.parametrize("module", ["groups", "fields", "mollify", "functionals",
                                    "recovery", "suites"])
def test_numerics_modules_do_not_import_config(module):
    # config imports the numerics, so they must not import it back, not even
    # inside a function: the JSON format and ConfigError stay in config
    path = Path(cfgmod.__file__).with_name(f"{module}.py")
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            names += [node.module or ""]
        else:
            continue
        assert not any("config" in name.split(".") for name in names), \
            f"{module}.py line {node.lineno} imports config"
