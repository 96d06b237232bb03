"""Exit-code contract, determinism and output formats of the command line."""

import csv
import json

import numpy as np
import pytest

from carnot import cli
from carnot.cli import main, EXIT_OK, EXIT_FAIL, EXIT_CONFIG, EXIT_HYPOTHESIS
from carnot.recovery import gamma_experiment

from conftest import run_fresh


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestGroupInfo:
    def test_default_heisenberg(self, tmp_path, capsys):
        assert main(["group-info", "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "group_info.json").read_text())
        assert (report["n"], report["m"], report["k"], report["Q"]) == (3, 2, 2, 4)
        assert report["axiom_violations"] == []

    def test_euclidean_q(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", {"group": "euclidean:3"})
        assert main(["group-info", "--config", cfg]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["Q"] == 3 and report["brackets"] == []

    def test_axiom_violation_exits_config(self, tmp_path, capsys):
        # i = j bracket leaves an unpaired entry: antisymmetry fails
        cfg = _write(tmp_path, "c.json", {"group": {
            "layer_dims": [2, 1],
            "brackets": [{"i": 1, "j": 1, "out": {"3": 1.0}}]}})
        assert main(["group-info", "--config", cfg]) == EXIT_CONFIG

    def test_unknown_preset_exits_config(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", {"group": "torus:7"})
        assert main(["group-info", "--config", cfg]) == EXIT_CONFIG

    def test_json_file_reports_its_name(self, tmp_path, capsys):
        # the report names the built group, not the path it was read from
        group = _write(tmp_path, "custom-group.json", {
            "layer_dims": [2, 1], "name": "engel-like",
            "brackets": [{"i": 1, "j": 2, "out": {"3": 1.5}}]})
        cfg = _write(tmp_path, "c.json", {"group": group})
        assert main(["group-info", "--config", cfg]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["group"] == "engel-like"

    def test_malformed_json_exits_config(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["group-info", "--config", str(path)]) == EXIT_CONFIG


class TestVerify:
    def test_axioms_pass_and_csv(self, tmp_path, capsys):
        assert main(["verify", "--suite", "axioms", "--out", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "verify_axioms.csv").read_text().splitlines()
        assert lines[0] == "name,value,tolerance,passed"
        assert all(line.endswith(",true") for line in lines[1:])

    def test_tolerance_squeeze_fails(self, tmp_path, capsys):
        # residuals are roundoff-level but nonzero; a crushed tolerance flips them
        cfg = _write(tmp_path, "c.json", {"tol_scale": 1e-20})
        assert main(["verify", "--suite", "axioms", "--config", cfg]) == EXIT_FAIL
        assert "FAIL" in capsys.readouterr().out

    def test_missing_schedule_exits_config(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", {"schedules": {"eps": []}})
        assert main(["verify", "--suite", "mollify", "--config", cfg]) == EXIT_CONFIG

    def test_margin_violation_exits_config(self, tmp_path, capsys):
        # eps too large for the default box: no room for an inner domain
        cfg = _write(tmp_path, "c.json", {"schedules": {"eps": [2.5]}})
        assert main(["verify", "--suite", "sandwich", "--config", cfg]) == EXIT_CONFIG

    def test_functional_suite_passes(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", {"samples": 20})
        assert main(["verify", "--suite", "functional", "--config", cfg]) == EXIT_OK


# field expressions that parse but have no real numpy evaluator, or whose
# values are not finite on the grid
_BAD_EXPRESSIONS = {"lambda": "lambda: 1", "imaginary-unit": "I", "complex-infinity": "zoo",
                    "undefined-function": "f(x1)", "integral": "Integral(x1, x1)",
                    "complex": "x1 + I", "nan": "nan", "infinity": "oo",
                    "sqrt-negative": "sqrt(x1)"}


def _small_gamma(expr):
    return {"grid": {"shape": 4}, "xi_grid": {"points": 2}, "schedules": {"h": [1]},
            "minimizer": {"max_iter": 2}, "fields": [{"expr": _BAD_EXPRESSIONS[expr]}]}


# |eta|^2 on the nodes {-4, 0, 4}^2, which cover the default recover probes
_CONE_TABLE = [[32, 16, 32], [16, 0, 16], [32, 16, 32]]


class TestConfigBoundary:
    @pytest.mark.parametrize("argv, payload", [
        (["verify", "--suite", "mollify"], {"group": "heisenberg:2"}),
        (["verify", "--suite", "sandwich"], {"mollifier_resolution": 2}),
        (["gamma"], {"grid": {"shape": 2}}),
        (["recover"], {"xi_grid": {"points": 0}}),
        (["verify", "--suite", "mollify"], {"grid": {"shape": 4}}),
        (["gamma"], {"schedules": {"h": []}}),
        (["verify", "--suite", "lsc"], {"schedules": {"h": []}}),
        (["verify", "--suite", "axioms"], {"grid": {"shape": 0}}),
        (["recover"], {"xi_grid": {"points": "a"}}),
        (["group-info"], {"group": 5}),
        (["gamma"], {"minimizer": {"step_rule": "bogus"}}),
        (["verify", "--suite", "functional"],
         {"integrand": {"kind": "tabulated", "axes": [[0, 0.1, 1], [0, 1]],
                        "table": [[0, 0], [0.3, 0.3], [1, 1]]}}),
        (["verify", "--suite", "axioms"], {"seed": "a"}),
        (["verify", "--suite", "functional"], {"samples": "many"}),
        (["recover"], {"recovery": {"ball_radius": "x"}}),
        (["gamma"], {"schedules": {"delta": "d"}}),
        (["verify", "--suite", "lsc"], {"schedules": 5}),
        (["verify", "--suite", "mollify"], {"schedules": {"eps": ["a"]}}),
        (["verify", "--suite", "mollify"], {"p": "x"}),
        (["verify", "--suite", "axioms"], {"tol_scale": "x"}),
        (["recover"], {"schedules": {"rho": []}}),
        (["verify", "--suite", "axioms"], {"seed": -1}),
        (["gamma"], {"schedules": {"delta": -1}}),
        (["verify", "--suite", "mollify"], {"schedules": {"eps": [0]}}),
        (["verify", "--suite", "lsc"], {"grid": 5}),
        (["gamma"], {"minimizer": 5}),
        (["recover"], {"recovery": 5}),
        (["gamma"], {"fields": [{"expr": "x1**"}]}),
        (["gamma"], {"fields": [{"expr": "x1 +* 2"}]}),
        (["gamma"], {"fields": [{"expr": "y9 + x1"}]}),
        (["verify", "--suite", "mollify"], {"p": 0}),
        (["verify", "--suite", "mollify"], {"p": -1}),
        (["verify", "--suite", "axioms"], {"tol_scale": 0}),
        (["verify", "--suite", "axioms"], {"tol_scale": -1}),
        (["verify", "--suite", "axioms", "--tol-scale", "0"], {}),
        (["gamma"], {"minimizer": {"step_rule": "fixed"}}),
        (["gamma"], {"minimizer": {"step_scale": 0.1}}),
        (["gamma"], {"minimizer": {"stepscale": 5}}),
        (["gamma"], {"minimizer": {"max_iter": -1}}),
        (["gamma"], {"minimizer": {"max_iter": 2.5}}),
        (["verify", "--suite", "functional"], {"samples": 3.7}),
        (["verify", "--suite", "functional"], {"samples": True}),
        (["verify", "--suite", "axioms"], {"seed": 1.5}),
        (["verify", "--suite", "axioms"], {"seed": True}),
        (["recover"], {"xi_grid": {"points": 2.5}}),
        (["recover"], {"recovery": {"cells_per_axis": 6.5}}),
        (["verify", "--suite", "axioms"], {"grid": {"shape": 4.9}}),
        (["verify", "--suite", "axioms"], {"grid": {"shape": [4, True, 4]}}),
        (["verify", "--suite", "mollify"], {"mollifier_resolution": 9.5}),
        (["verify", "--suite", "lsc"], {"schedules": {"h": [1, 2.5]}}),
        (["verify", "--suite", "axioms"], {"tol_scale": True}),
        (["verify", "--suite", "axioms"], {"tol_scale": "1e-3"}),
        (["verify", "--suite", "mollify"], {"p": True}),
        (["recover"], {"xi_grid": {"radius": True, "points": 3}}),
        (["recover"], {"recovery": {"ball_radius": True}}),
        (["recover"], {"schedules": {"rho": ["0.9"]}}),
        (["gamma"], {"schedules": {"delta": True}}),
        (["verify", "--suite", "functional"], {"samples": "5"}),
        (["verify", "--suite", "axioms"], {"tol_scale": 10**400}),
        (["verify", "--suite", "functional"], {"integrand": {"kind": "power", "p": True}}),
        (["verify", "--suite", "functional"],
         {"integrand": {"kind": "power", "p": 2, "offset": "1"}}),
        (["verify", "--suite", "functional"],
         {"integrand": {"kind": "max_affine", "planes": [{"a": [1, 0], "b": True}]}}),
        (["gamma"], {"gamma": {"scale": "0.5"}}),
        (["gamma"], {"gamma": {"base": {"kind": "power", "p": "2"}}}),
        (["verify", "--suite", "functional"], {"integrand": "power"}),
        (["verify", "--suite", "functional"], {"integrand": 5}),
        (["verify", "--suite", "functional"], {"integrand": {"kind": "max_affine", "planes": 5}}),
        (["verify", "--suite", "functional"], {"integrand": {"kind": "max_affine", "planes": [5]}}),
        (["verify", "--suite", "functional"],
         {"integrand": {"kind": "tabulated", "axes": 5, "table": [1]}}),
        (["verify", "--suite", "functional"], {"integrand": {"blackbox": 5}}),
        (["gamma"], {"gamma": {"base": 5}}),
        (["gamma"], {"fields": 5}),
        (["gamma"], {"fields": [5]}),
        (["gamma"], {"fields": [{"probe": [1]}]}),
        (["verify", "--suite", "axioms"], {"grid": {"lo": ["-1", "-1", "-1"]}}),
        (["verify", "--suite", "axioms"], {"grid": {"lo": 5}}),
        (["gamma"], {"fields": [{"probe": [True, 0]}]}),
        (["verify", "--suite", "functional"],
         {"integrand": {"kind": "quadratic", "M": [[True, 0], [0, 1]]}}),
        (["verify", "--suite", "functional"],
         {"integrand": {"kind": "max_affine", "planes": [{"a": ["1", 0]}]}}),
        (["verify", "--suite", "functional"], {"integrand": {"kind": "power", "shift": [True, 0]}}),
        (["recover"], {"integrand": {"kind": "tabulated", "axes": [[-4, 0, 4], [-4, 0, "4"]],
                                     "table": _CONE_TABLE}}),
        (["recover"], {"integrand": {"kind": "tabulated", "axes": [[-4, 0, 4], [-4, 0, 4]],
                                     "table": [_CONE_TABLE[0], [16, False, 16], _CONE_TABLE[2]]}}),
        (["gamma"], {"gamma": {"kind": "alternating", "shift": [True, 0]}}),
        (["group-info"], {"group": {"layer_dims": [2, 1],
                                    "brackets": [{"i": 1, "j": 2, "out": {"0": 1}}]}}),
        (["group-info"], {"group": {"layer_dims": [2.5, 1],
                                    "brackets": [{"i": 1, "j": 2, "out": {"3": 1}}]}}),
        (["group-info"], {"group": {"layer_dims": [2, 1],
                                    "brackets": [{"i": 1, "j": 2, "out": {"3": True}}]}}),
        (["group-info"], {"group": {"layer_dims": [2, 1],
                                    "brackets": [{"i": 1, "j": 2, "out": 5}]}}),
        (["recover"], {"recovery": {"ball_radius": 1e200}}),
        (["gamma"], {"recovery": {"ball_radius": 1e200}}),
        (["recover"], {"recovery": {"ball_radius": 1e100}}),
        (["group-info"], [1, 2]),
        (["group-info"], "hello"),
        (["group-info"], None),
        (["recover"], {"integrand": {"blackbox": "math:pi"}}),
        (["recover"], {"integrand": {"blackbox": "math:sqrt"}}),
        (["recover"], {"integrand": {"blackbox": "carnot.functionals:BlackBoxFunctional"}}),
    ] + [(["gamma"], _small_gamma(expr)) for expr in _BAD_EXPRESSIONS],
       ids=["n5-mollify", "resolution2-sandwich", "shape2-gamma", "points0-recover",
            "shape4-mollify", "empty-h-gamma", "empty-h-lsc", "shape0-axioms",
            "points-string-recover", "group-int-info", "step-rule-gamma",
            "uneven-tabulated-functional", "seed-string-axioms",
            "samples-string-functional", "ball-radius-string-recover",
            "delta-string-gamma", "schedules-int-lsc", "eps-string-mollify",
            "p-string-mollify", "tol-scale-string-axioms", "empty-rho-recover",
            "seed-negative-axioms", "delta-negative-gamma", "eps-zero-mollify",
            "grid-int-lsc", "minimizer-int-gamma", "recovery-int-recover",
            "expr-dangling-gamma", "expr-double-operator-gamma", "expr-foreign-symbol-gamma",
            "p-zero-mollify", "p-negative-mollify", "tol-scale-zero-axioms",
            "tol-scale-negative-axioms", "tol-scale-flag-zero-axioms",
            "step-rule-fixed-gamma", "step-scale-gamma", "misspelled-minimizer-key-gamma",
            "max-iter-negative-gamma", "max-iter-fraction-gamma",
            "samples-fraction-functional", "samples-bool-functional", "seed-fraction-axioms",
            "seed-bool-axioms", "points-fraction-recover", "cells-per-axis-fraction-recover",
            "shape-fraction-axioms", "shape-bool-axioms", "resolution-fraction-mollify",
            "h-fraction-lsc", "tol-scale-bool-axioms", "tol-scale-numeric-string-axioms",
            "p-bool-mollify", "radius-bool-recover", "ball-radius-bool-recover",
            "rho-numeric-string-recover", "delta-bool-gamma",
            "samples-numeric-string-functional", "tol-scale-beyond-float-axioms",
            "integrand-p-bool-functional", "integrand-offset-string-functional",
            "plane-offset-bool-functional", "gamma-scale-string-gamma",
            "gamma-base-p-string-gamma",
            "integrand-string-functional", "integrand-int-functional",
            "planes-int-functional", "plane-int-functional", "axes-int-functional",
            "blackbox-int-functional", "gamma-base-int-gamma", "fields-int-gamma",
            "field-entry-int-gamma", "probe-short-gamma",
            "grid-lo-numeric-string-axioms", "grid-lo-int-axioms", "probe-bool-gamma",
            "quadratic-m-bool-functional", "plane-a-numeric-string-functional",
            "shift-bool-functional", "axes-numeric-string-recover", "table-bool-recover",
            "gamma-shift-bool-gamma", "bracket-index-zero-info",
            "layer-dims-fraction-info", "bracket-constant-bool-info",
            "bracket-out-int-info", "ball-radius-beyond-float-recover",
            "ball-radius-beyond-float-gamma", "ball-volume-beyond-float-recover",
            "config-list-info", "config-string-info", "config-null-info",
            "blackbox-not-callable-recover", "blackbox-factory-raises-recover",
            "blackbox-class-recover"]
       + [f"expr-{name}-gamma" for name in _BAD_EXPRESSIONS])
    def test_out_of_range_config_exits_config(self, tmp_path, capsys, argv, payload):
        # each of these used to escape as a traceback with exit 1, or to run
        # as if it were valid (an empty grid passing the axioms suite, an
        # unknown step rule falling back to a fixed step, a non-convex table
        # on uneven axes passing the convexity guard, a negative p reporting
        # an L^p error, a misspelled minimizer key being ignored, a complex
        # field losing its imaginary part)
        cfg = _write(tmp_path, "c.json", payload)
        assert main(argv + ["--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, text, key", [
        (["verify", "--suite", "axioms"], '{"tol_scale": 1e400}', "tol_scale"),
        (["verify", "--suite", "axioms", "--tol-scale", "inf"], "{}", "tol_scale"),
        (["verify", "--suite", "axioms"], '{"grid": {"lo": [-1e400, -1, -1]}}', "grid.lo"),
        (["recover"], '{"xi_grid": {"radius": 1e400, "points": 3}}', "xi_grid.radius"),
        (["gamma"], '{"schedules": {"delta": 1e400}}', "schedules.delta"),
        (["verify", "--suite", "mollify"], '{"p": Infinity}', "p"),
        (["verify", "--suite", "mollify"], '{"schedules": {"eps": [Infinity, 0.2, 0.1]}}',
         "schedules.eps"),
        (["recover"], '{"recovery": {"ball_radius": NaN}}', "recovery.ball_radius"),
    ], ids=["tol-scale-axioms", "tol-scale-flag-axioms", "grid-lo-axioms", "radius-recover",
            "delta-gamma", "p-mollify", "eps-mollify", "ball-radius-nan-recover"])
    def test_non_finite_number_exits_config(self, tmp_path, capsys, argv, text, key):
        # json reads 1e400 and Infinity as inf and NaN as nan; each of these
        # used to run (an inf tolerance passing every axiom, a NaN summary)
        # or to end in a traceback with exit 1
        path = tmp_path / "c.json"
        path.write_text(text)
        assert main(argv + ["--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} must be") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, payload, key", [
        (["verify", "--suite", "functional"], {"integrand": {"kind": "quadratic"}},
         "integrand.M"),
        (["gamma"], {"gamma": {"kind": "alternating"}}, "gamma.shift"),
        (["verify", "--suite", "functional"],
         {"integrand": {"kind": "max_affine", "planes": [{"b": 0.0}]}}, "integrand.planes.a"),
        (["recover"], {"integrand": {"kind": "tabulated", "axes": [[-4, 0, 4], [-4, 0, 4]]}},
         "integrand.table"),
    ], ids=["quadratic-m-functional", "alternating-shift-gamma", "plane-a-functional",
            "tabulated-table-recover"])
    def test_missing_key_names_itself(self, tmp_path, capsys, argv, payload, key):
        cfg = _write(tmp_path, "c.json", payload)
        assert main(argv + ["--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: {key} is missing\n"

    _NOT_A_GROUP = "group must be a preset name, a .json path or a mapping, got "

    @pytest.mark.parametrize("group, message", [
        ([1, 2], _NOT_A_GROUP + "[1, 2]"),
        (5, _NOT_A_GROUP + "5"),
        (None, _NOT_A_GROUP + "None"),
        (True, _NOT_A_GROUP + "True"),
        ("list-group.json", _NOT_A_GROUP + "[1, 2]"),
        ({"layer_dims": [2, 1], "brackets": 5}, "group.brackets must be a list, got 5"),
        ({"layer_dims": [2, 1], "brackets": [5]}, "group.brackets[0] must be a mapping, got 5"),
        ({"layer_dims": 5}, "group.layer_dims must be a list, got 5"),
        ({"layer_dims": [2, 1], "brackets": [{"i": 1, "j": 2, "out": {"x": 1}}]},
         "group.brackets.out keys must be integer coordinates, got 'x'"),
    ], ids=["list", "int", "null", "bool", "json-file-list", "brackets-int",
            "bracket-int", "layer-dims-int", "out-key-letter"])
    def test_group_spec_of_wrong_type_names_its_key(self, tmp_path, capsys, group, message):
        if isinstance(group, str):  # a .json group file holding a list
            group = _write(tmp_path, group, [1, 2])
        cfg = _write(tmp_path, "c.json", {"group": group})
        assert main(["group-info", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_group_file_not_json_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "broken-group.json"
        path.write_text("not json")
        cfg = _write(tmp_path, "c.json", {"group": str(path)})
        assert main(["group-info", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == (f"config error: cannot read group file "
                                           f"{str(path)!r}: Expecting value: line 1 "
                                           f"column 1 (char 0)\n")

    @pytest.mark.parametrize("argv, payload, message", [
        (["group-info"], {"group": {"layer_dims": [2, 1], "name": [1]}},
         "group.name must be a string, got [1]"),
        (["gamma"], {"fields": [{"probe": [1, 0], "name": 5}]},
         "fields[0].name must be a string, got 5"),
    ], ids=["group-name-list-info", "field-name-int-gamma"])
    def test_name_must_be_a_string(self, tmp_path, capsys, argv, payload, message):
        cfg = _write(tmp_path, "c.json", payload)
        assert main(argv + ["--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("preset", ["heisenberg:x", "euclidean:1.5", "heisenberg:0"])
    def test_preset_argument_must_be_a_positive_integer(self, tmp_path, capsys, preset):
        cfg = _write(tmp_path, "c.json", {"group": preset})
        assert main(["group-info", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == (f"config error: group preset {preset!r} needs "
                                           f"a positive integer after ':'\n")

    @pytest.mark.parametrize("name", ["missing.json", "directory.json"])
    def test_unreadable_group_file_exits_config(self, tmp_path, capsys, name):
        (tmp_path / "directory.json").mkdir()
        cfg = _write(tmp_path, "c.json", {"group": str(tmp_path / name)})
        assert main(["group-info", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, payload", [
        (["verify", "--suite", "axioms"], {"grid": {"shape": [4.0, 4, 4]}, "seed": 3.0}),
        (["verify", "--suite", "functional"], {"samples": 20.0}),
        (["group-info"], {"group": {"layer_dims": [2.0, 1],
                                    "brackets": [{"i": 1, "j": 2.0, "out": {"3": 1}}]}}),
    ], ids=["shape-seed-axioms", "samples-functional", "layer-dims-index-group-info"])
    def test_integral_float_counts_accepted(self, tmp_path, capsys, argv, payload):
        cfg = _write(tmp_path, "c.json", payload)
        assert main(argv + ["--config", cfg]) == EXIT_OK

    @pytest.mark.parametrize("argv, payload, message", [
        (["verify", "--suite", "lsc"], {"sed": 1, "schedules": {"epss": [0.3]}},
         "unknown config keys ['sed']"),
        (["verify", "--suite", "lsc"], {"grid": {"shap": 4}}, "unknown grid keys ['shap']"),
        (["verify", "--suite", "lsc"], {"schedules": {"epss": [0.3]}},
         "unknown schedules keys ['epss']"),
        (["verify", "--suite", "axioms"], {"xi_grid": {"point": 3}},
         "unknown xi_grid keys ['point']"),
        (["verify", "--suite", "axioms"], {"recovery": {"radius": 0.5}},
         "unknown recovery keys ['radius']"),
        (["verify", "--suite", "lsc"], {"minimizer": {"stepscale": 5}},
         "unknown minimizer keys ['stepscale']"),
        (["verify", "--suite", "axioms"], {"gamma": {"scal": 2.0}}, "unknown gamma keys ['scal']"),
        (["verify", "--suite", "functional"], {"integrand": {"kind": "power", "pp": 3}},
         "unknown integrand (power) keys ['pp']"),
        (["verify", "--suite", "functional"],
         {"integrand": {"kind": "quadratic", "M": [[1, 0], [0, 1]], "p": 3}},
         "unknown integrand (quadratic) keys ['p']"),
        (["verify", "--suite", "functional"],
         {"integrand": {"kind": "max_affine", "planes": [{"a": [1, 0]}], "offsets": [1]}},
         "unknown integrand (max_affine) keys ['offsets']"),
        (["recover"], {"integrand": {"kind": "tabulated", "axes": [[-4, 0, 4], [-4, 0, 4]],
                                     "table": _CONE_TABLE, "shfit": [1, 0]}},
         "unknown integrand (tabulated) keys ['shfit']"),
        (["verify", "--suite", "axioms"],
         {"integrand": {"blackbox": "conftest:x_weighted_functional", "shift": [1, 0]}},
         "unknown integrand keys ['shift']"),
        (["verify", "--suite", "axioms"], {"gamma": {"base": {"pp": 3}}},
         "unknown gamma.base (power) keys ['pp']"),
    ], ids=["top-level", "grid", "schedules", "xi-grid", "recovery", "minimizer", "gamma",
            "power", "quadratic", "max-affine", "tabulated", "blackbox", "gamma-base"])
    def test_unknown_key_exits_config(self, tmp_path, capsys, argv, payload, message):
        # each of these used to run on the defaults it meant to override
        cfg = _write(tmp_path, "c.json", payload)
        assert main(argv + ["--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}, expected some of [")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, payload", [
        (["recover"], {"xi_grid": {"radius": 1e300}}),
        (["verify", "--suite", "mollify"], {"schedules": {"eps": [1e300]}}),
        (["verify", "--suite", "functional"], {"grid": {"lo": [-1e300, -1, -1]}}),
        (["verify", "--suite", "functional"], {"integrand": {"kind": "power", "p": 1e300}}),
        (["gamma"], {"gamma": {"scale": 1.7e308}}),
    ], ids=["xi-radius-recover", "eps-mollify", "grid-lo-functional", "power-p-functional",
            "gamma-scale-gamma"])
    def test_floating_point_range_exits_config(self, tmp_path, capsys, argv, payload):
        # each of these used to print numpy overflow warnings and go on with
        # inf or nan values
        cfg = _write(tmp_path, "c.json", payload)
        assert main(argv + ["--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: values out of floating-point range: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("h", [[16, 1], [1, 1]], ids=["decreasing", "repeated"])
    @pytest.mark.parametrize("argv", [["gamma"], ["verify", "--suite", "lsc"]],
                             ids=["gamma", "lsc"])
    def test_h_schedule_must_increase(self, tmp_path, capsys, argv, h):
        # gamma used to report the recovery at the last h as the limit, and
        # lsc to widen its convergence tolerance by the last h
        cfg = _write(tmp_path, "c.json", {"schedules": {"h": h}, "grid": {"shape": 8}})
        assert main(argv + ["--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == (f"config error: schedules.h must strictly "
                                           f"increase, got {h!r}\n")


def _strict_json(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity, as strict parsers do."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


class TestSummaryJson:
    _SMALL_GAMMA = {"grid": {"shape": 6}, "schedules": {"h": [1, 2]},
                    "minimizer": {"max_iter": 10}}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, payload, name, key", [
        (["recover"], {"integrand": {"kind": "tabulated", "axes": [[-4, 0, 4], [-4, 0, 4]],
                                     "table": _CONE_TABLE}},
         "recover_summary.json", "min_growth_slack"),
        (["gamma"], dict(_SMALL_GAMMA, xi_grid={"points": 2}),
         "gamma_summary.json", "limit_convexity_violation"),
        (["gamma"], dict(_SMALL_GAMMA, gamma={"base": {
            "kind": "tabulated", "axes": [[-4, 0, 4], [-4, 0, 4]], "table": _CONE_TABLE}}),
         "gamma_summary.json", "limit_growth_slack_min"),
    ], ids=["tabulated-recover", "two-points-gamma", "tabulated-base-gamma"])
    def test_unmeasured_value_is_null(self, tmp_path, capsys, argv, payload, name, key):
        # nothing to measure: no growth certificate, or no probe node interior
        # to an axis for a midpoint defect
        cfg = _write(tmp_path, "c.json", payload)
        out = tmp_path / "out"
        assert main(argv + ["--config", cfg, "--out", str(out)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert _strict_json(captured.out)[key] is None
        assert _strict_json((out / name).read_text())[key] is None


class TestStartup:
    def test_only_operator_builders_load_scipy(self, tmp_path):
        # every suite and recover run without scipy; gamma builds sparse
        # gradient operators and loads it then
        small = _write(tmp_path, "small.json", {
            "grid": {"shape": 6}, "samples": 5, "mollifier_resolution": 5,
            "schedules": {"eps": [0.2, 0.1], "h": [1, 2]},
            "xi_grid": {"points": 3}, "minimizer": {"max_iter": 5}})
        code = f"""
import contextlib, io, json, sys
from carnot.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

report = {{}}
with contextlib.redirect_stdout(io.StringIO()):
    for suite in ("axioms", "mollify", "functional", "sandwich", "lsc"):
        report[suite] = main(["verify", "--suite", suite, "--config", {small!r}])
    report["recover"] = main(["recover"])
    report["scipy_before_gamma"] = scipy_modules()
    report["gamma"] = main(["gamma", "--config", {small!r}])
    report["scipy_after_gamma"] = scipy_modules()
print(json.dumps(report))
"""
        report = json.loads(run_fresh(code))
        for command in ("axioms", "mollify", "functional", "sandwich", "lsc",
                        "recover", "gamma"):
            assert report[command] == EXIT_OK, command
        assert report["scipy_before_gamma"] == []
        assert "scipy.sparse" in report["scipy_after_gamma"]


class TestRecover:
    def test_round_trip_and_formats(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", {"xi_grid": {"radius": 2.0, "points": 5}})
        out = tmp_path / "out"
        assert main(["recover", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "recovered.csv").read_text().splitlines()
        assert lines[0] == "xi_1,xi_2,f_rec,convexity_violation,growth_slack"
        assert len(lines) == 26
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["f_rec"]) == pytest.approx(8.0, abs=1e-10)  # |(-2,-2)|^2
        summary = json.loads((out / "recover_summary.json").read_text())
        assert summary["max_convexity_violation"] <= 1e-10
        assert summary["constancy_max_spread"] <= 1e-10

    def test_single_point_grid(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", {"xi_grid": {"radius": 0.0, "points": 1}})
        out = tmp_path / "out"
        assert main(["recover", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert len((out / "recovered.csv").read_text().splitlines()) == 2

    def test_determinism_byte_identical(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", {"xi_grid": {"radius": 2.0, "points": 3}})
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["recover", "--config", cfg, "--out", str(out),
                         "--seed", "7"]) == EXIT_OK
            blobs.append((out / "recovered.csv").read_bytes()
                         + (out / "recover_summary.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_seventeen_digit_floats(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", {"xi_grid": {"radius": 1.0, "points": 3}})
        out = tmp_path / "out"
        main(["recover", "--config", cfg, "--out", str(out)])
        lines = (out / "recovered.csv").read_text().splitlines()[1:]
        values = [float(line.split(",")[2]) for line in lines]
        # every printed value survives a parse round trip bit-exactly
        for line in lines:
            for tok in line.split(","):
                assert f"{float(tok):.17g}" == f"{float(f'{float(tok):.17g}'):.17g}"
        assert max(values) > 0


class TestGamma:
    def test_offset_schedule(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", {
            "grid": {"shape": 6}, "xi_grid": {"radius": 2.0, "points": 3},
            "minimizer": {"max_iter": 20}})
        out = tmp_path / "out"
        assert main(["gamma", "--config", cfg, "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "gamma_summary.json").read_text())
        assert summary["bracket_ok"] is True
        limits = (out / "gamma_limit.csv").read_text().splitlines()
        assert limits[0] == "xi_1,xi_2,f_limit"

    def test_brackets_are_the_csv_rows(self, tmp_path, capsys, monkeypatch):
        # gamma writes the experiment's bracket table as it is: same columns,
        # one row per (h, field), h-major
        reports = []

        def recorded(*args, **kwargs):
            reports.append(gamma_experiment(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "gamma_experiment", recorded)
        cfg = _write(tmp_path, "c.json", {
            "grid": {"shape": 6}, "xi_grid": {"points": 3}, "schedules": {"h": [1, 2, 4]},
            "minimizer": {"max_iter": 10},
            "fields": [{"expr": "x1*x3 + x2**2"}, {"probe": [1, 0]}]})
        out = tmp_path / "out"
        assert main(["gamma", "--config", cfg, "--out", str(out)]) == EXIT_OK
        with open(out / "gamma_brackets.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = [{"h": int(r["h"]), "field": r["field"], "lower": float(r["lower"]),
                     "upper": float(r["upper"]), "converged": r["converged"] == "true",
                     "cauchy_gap": float(r["cauchy_gap"])} for r in reader]
        brackets = reports[0]["brackets"]
        assert reader.fieldnames == list(brackets[0])
        assert [(r["h"], r["field"]) for r in brackets] == [
            (h, name) for h in (1, 2, 4) for name in ("x1*x3 + x2**2", "probe([1. 0.])")]
        np.testing.assert_equal(rows, brackets)

    def test_p_one_exits_hypothesis(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", {"p": 1.0})
        assert main(["gamma", "--config", cfg]) == EXIT_HYPOTHESIS

    def test_determinism(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", {
            "grid": {"shape": 6}, "xi_grid": {"radius": 2.0, "points": 3},
            "minimizer": {"max_iter": 10}})
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["gamma", "--config", cfg, "--out", str(out)]) == EXIT_OK
            blobs.append((out / "gamma_brackets.csv").read_bytes())
        assert blobs[0] == blobs[1]
