"""Experiment configuration: JSON in, constructed objects out.

A config file only needs to override the defaults below.  Field menus are
sympy expressions in x1..xn or probe directions; integrands use the menu
serialization of :mod:`carnot.functionals`.
"""

from __future__ import annotations

import copy
import importlib
import json
import math
import numbers
from dataclasses import replace

import numpy as np
import numpy.random  # numpy loads it on first use; every seeded command needs it

from . import groups
from .fields import GridDomain, from_expression, probe_field
from .functionals import (Integrand, PowerIntegrand, QuadraticIntegrand, MaxAffineIntegrand,
                          TabulatedIntegrand, OffsetIntegrand, ShiftedArgIntegrand,
                          Functional, IntegrandFunctional, BlackBoxFunctional)
from .mollify import MollifierFamily
from .recovery import uniform_xi_grid


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


DEFAULTS = {
    "group": "heisenberg:1",
    "norm": "weighted-max",
    "grid": {"lo": None, "hi": None, "shape": 12},
    "fields": [{"expr": "x1**2 + 0.5*x2"}],
    "integrand": {"kind": "power", "p": 2},
    "p": 2.0,
    "mollifier_resolution": 9,
    "schedules": {
        "eps": [0.4, 0.2, 0.1],
        "rho": [0.9, 0.7, 0.5],
        "delta": 1.0,
        "h": [1, 2, 4, 8, 16],
    },
    "xi_grid": {"radius": 4.0, "points": 9},
    "recovery": {"ball_radius": 1.0, "cells_per_axis": 12},
    "gamma": {"kind": "offset", "base": {"kind": "power", "p": 2}, "scale": 1.0},
    "minimizer": {"max_iter": 200},
    "samples": 200,
    "seed": 0,
    "tol_scale": 1.0,
}


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def load_config(path: str | None = None, overrides: dict | None = None) -> dict:
    """DEFAULTS merged with the config file at `path`, then with `overrides`;
    a key in either that no reader reads raises ConfigError (`_check_keys`)."""
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            with open(path) as fh:
                user = _mapping(json.load(fh), f"config {path}")
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        _check_keys(user)
        cfg = _merge(cfg, user)
    if overrides:
        _check_keys(overrides)
        cfg = _merge(cfg, overrides)
    return cfg


# the keys each section's readers read: its defaults, and the alternating gamma
# sequence's shift; and the keys each integrand kind reads besides "kind" and
# the "shift" and "offset" wrappers
_SECTION_KEYS = {name: set(DEFAULTS[name]) for name in
                 ("grid", "schedules", "xi_grid", "recovery", "minimizer", "gamma")}
_SECTION_KEYS["gamma"].add("shift")
_INTEGRAND_KEYS = {"power": {"p"}, "quadratic": {"M"}, "max_affine": {"planes"},
                   "tabulated": {"axes", "table"}}


def _check_keys(user: dict) -> None:
    """Raise ConfigError on a key of a user config (before it is merged into
    the defaults) that no reader reads: at the top level, in a section of
    _SECTION_KEYS, and in an integrand spec by its kind.  Values of the wrong
    type are left to their readers."""
    _known(user, DEFAULTS, "config")
    for name, allowed in _SECTION_KEYS.items():
        if isinstance(user.get(name), dict):
            _known(user[name], allowed, name)
    _check_integrand(user.get("integrand"), DEFAULTS["integrand"], "integrand")
    if isinstance(user.get("gamma"), dict):
        _check_integrand(user["gamma"].get("base"), DEFAULTS["gamma"]["base"], "gamma.base")


def _check_integrand(spec, default: dict, key: str) -> None:
    """The key check of one integrand spec, whose kind is the default's when
    it names none; only the top-level integrand may be a blackbox."""
    if not isinstance(spec, dict):
        return
    kind = spec.get("kind", default["kind"])
    if key == "integrand" and "blackbox" in spec:
        _known(spec, {"blackbox"}, key)
    elif isinstance(kind, str) and kind in _INTEGRAND_KEYS:
        _known(spec, {"kind", "shift", "offset", *_INTEGRAND_KEYS[kind]}, f"{key} ({kind})")


def _known(spec: dict, allowed, key: str) -> None:
    unknown = sorted(set(spec) - set(allowed), key=str)
    if unknown:
        raise ConfigError(f"unknown {key} keys {unknown}, expected some of {sorted(allowed)}")


def _read(kind, value, key: str):
    """kind(value) for a finite JSON number `value`, or a ConfigError naming
    the config key.  Booleans and strings are not numbers, although float()
    reads true as 1.0 and "1e-3" as 0.001.  An int must be given as an
    integer: int() would truncate 2.5 to 2, while an integral float such as
    3.0 stays valid.  json reads 1e400 and Infinity as inf, and NaN as nan."""
    message = f"{key} must be {kind.__name__}, got {value!r}"
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(message)
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(message)
    try:
        out = kind(value)
    except OverflowError as exc:  # float() of an integer beyond 1e308
        raise ConfigError(message) from exc
    if kind is float and not math.isfinite(out):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return out


def _read_array(value, key: str) -> np.ndarray:
    """The float array of a JSON number or nested lists of JSON numbers, read
    entry by entry through `_read`, or a ConfigError naming the config key:
    np.asarray(value, float) would read true as 1.0 and "1" as 1.0."""
    entries = np.array(value, dtype=object)
    return np.array([_read(float, v, key) for v in entries.flat]).reshape(entries.shape)


def _mapping(value, key: str) -> dict:
    """`value`, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a mapping, got {value!r}")
    return value


def _list(value, key: str) -> list:
    """`value`, which must be a JSON array."""
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list, got {value!r}")
    return value


def _string(value, key: str) -> str:
    """`value`, which must be a JSON string."""
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _required(spec: dict, name: str, key: str):
    """spec[name], or a ConfigError naming the missing dotted config `key`."""
    try:
        return spec[name]
    except KeyError:
        raise ConfigError(f"{key} is missing") from None


def _section(cfg: dict, key: str) -> dict:
    """cfg[key], which must be a mapping."""
    return _mapping(cfg[key], key)


def build_scalar(cfg: dict, key: str, kind=float, minimum=None):
    """The value at the dotted config `key` converted by `kind`, at least
    `minimum` when one is given, or a ConfigError naming the key."""
    *sections, name = key.split(".")
    spec = cfg
    for section in sections:
        spec = _section(spec, section)
    value = _read(kind, spec[name], key)
    if minimum is not None and not value >= minimum:
        raise ConfigError(f"{key} must be at least {minimum}, got {value!r}")
    return value


def build_tol_scale(cfg: dict) -> float:
    """tol_scale, which must be positive: a zero or negative scale turns every
    tolerance it multiplies into one that no residual can meet."""
    value = build_scalar(cfg, "tol_scale")
    if not value > 0:
        raise ConfigError(f"tol_scale must be positive, got {value!r}")
    return value


def build_rng(cfg: dict) -> np.random.Generator:
    return np.random.default_rng(build_scalar(cfg, "seed", int, minimum=0))


def build_group(cfg: dict) -> groups.StratifiedGroup:
    """The group of cfg["group"]: a preset name, the path of a .json file, or
    {"layer_dims": [...], "brackets": [{"i": 1, "j": 2, "out": {"3": 1.0}}]}
    with 1-based coordinate indices in 1..n and numeric constants."""
    spec = cfg["group"]
    try:
        if isinstance(spec, str) and not spec.endswith(".json"):
            return groups.preset(spec)
        if isinstance(spec, str):
            with open(spec) as fh:
                spec = json.load(fh)
        if not isinstance(spec, dict):
            raise ConfigError(f"group must be a preset name, a .json path or a mapping, "
                              f"got {spec!r}")
        dims = tuple(_read(int, d, "group.layer_dims") for d in _list(
            _required(spec, "layer_dims", "group.layer_dims"), "group.layer_dims"))
        n = sum(dims)
        c = np.zeros((n, n, n))
        for k, entry in enumerate(_list(spec.get("brackets", []), "group.brackets")):
            entry = _mapping(entry, f"group.brackets[{k}]")
            i = _coordinate(_required(entry, "i", "group.brackets.i"), n)
            j = _coordinate(_required(entry, "j", "group.brackets.j"), n)
            out = _mapping(_required(entry, "out", "group.brackets.out"), "group.brackets.out")
            for key, val in out.items():
                l = _coordinate(_out_key(key), n)
                value = _read(float, val, "group bracket constant")
                c[i, j, l], c[j, i, l] = value, -value
        return groups.StratifiedGroup(dims, c, name=_string(spec.get("name", "custom"),
                                                            "group.name"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:  # an unreadable file
        raise ConfigError(f"cannot read group file {cfg['group']!r}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _out_key(key) -> int:
    """The coordinate named by a key of a bracket's `out` mapping: JSON keys
    are strings, so "3" names coordinate 3."""
    try:
        return int(key)
    except ValueError:
        raise ConfigError(f"group.brackets.out keys must be integer coordinates, "
                          f"got {key!r}") from None


def _coordinate(value, n: int) -> int:
    """The 0-based index of the 1-based group coordinate `value`, checked
    against 1..n: unchecked, index 0 would wrap around to the last one."""
    index = _read(int, value, "group bracket index")
    if not 1 <= index <= n:
        raise ConfigError(f"group bracket index {value!r} outside 1..{n}")
    return index - 1


def build_norm(cfg: dict, group: groups.StratifiedGroup) -> groups.HomogeneousNorm:
    try:
        return group.norm(cfg["norm"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_grid(cfg: dict, group: groups.StratifiedGroup) -> GridDomain:
    spec = _section(cfg, "grid")
    lo = _read_array(spec.get("lo") or [-1.0] * group.n, "grid.lo")
    hi = _read_array(spec.get("hi") or [1.0] * group.n, "grid.hi")
    if lo.shape != (group.n,) or hi.shape != (group.n,):
        raise ConfigError(f"grid box must have {group.n} axes")
    try:
        # object dtype keeps each entry's JSON type for _read
        shape = np.broadcast_to(np.array(spec["shape"], dtype=object), (group.n,))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed grid spec {spec!r}: {exc}") from exc
    shape = tuple(_read(int, s, "grid.shape") for s in shape)
    if min(shape) < 1:
        raise ConfigError(f"grid needs at least one cell per axis, got shape {shape}")
    return GridDomain.box(lo, hi, shape)


def build_fields(cfg: dict, group: groups.StratifiedGroup) -> list:
    out = []
    for i, entry in enumerate(_list(cfg["fields"], "fields")):
        entry = _mapping(entry, f"fields[{i}]")
        if "expr" in entry:
            try:
                field = from_expression(group, entry["expr"])
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        elif "probe" in entry:
            xi = _read_array(entry["probe"], f"fields[{i}].probe")
            if xi.shape != (group.m,):
                raise ConfigError(f"fields[{i}].probe must have {group.m} entries, got {xi}")
            field = probe_field(group, xi)
        else:
            raise ConfigError(f"field entry needs 'expr' or 'probe': {entry}")
        if "name" in entry:
            field = replace(field, name=_string(entry["name"], f"fields[{i}].name"))
        out.append(field)
    return out


def build_functional(cfg: dict, group: groups.StratifiedGroup) -> Functional:
    spec = _section(cfg, "integrand")
    if "blackbox" in spec:
        mod_name, _, attr = _string(spec["blackbox"], "integrand.blackbox").partition(":")
        try:
            target = getattr(importlib.import_module(mod_name), attr)
        except (ImportError, AttributeError) as exc:
            raise ConfigError(f"cannot resolve blackbox {spec['blackbox']}: {exc}") from exc
        obj = target
        if callable(target) and not isinstance(target, Functional):
            try:
                obj = target(group)
            except Exception as exc:  # not a make(group) factory, or one that fails
                raise ConfigError(f"blackbox factory {spec['blackbox']}(group) raised "
                                  f"{type(exc).__name__}: {exc}") from exc
        if isinstance(obj, Functional):
            return obj
        if not callable(obj):
            raise ConfigError(f"blackbox {spec['blackbox']} gives {obj!r}, "
                              f"which is neither a Functional nor callable")
        return BlackBoxFunctional(obj, name=spec["blackbox"])
    return IntegrandFunctional(group, integrand_from_config(spec, group.m))


def integrand_from_config(spec: dict, m: int, key: str = "integrand") -> Integrand:
    """Deserialize the integrand menu: power / quadratic / max_affine /
    tabulated, with optional "offset" and "shift" wrappers.  `key` names the
    config section in error messages.  A malformed spec raises ConfigError,
    also where an integrand's own check rejects it (its message kept)."""
    try:
        return _integrand(spec, m, key)
    except ConfigError:
        raise
    except ValueError as exc:  # DomainError included: uneven tabulated axes
        raise ConfigError(str(exc)) from exc


def _integrand(spec: dict, m: int, key: str) -> Integrand:
    spec = _mapping(spec, key)
    kind = spec.get("kind")
    if kind == "power":
        f = PowerIntegrand(m, _read(float, spec.get("p", 2.0), f"{key}.p"))
    elif kind == "quadratic":
        f = QuadraticIntegrand(_read_array(_required(spec, "M", f"{key}.M"), f"{key}.M"))
    elif kind == "max_affine":
        planes = [_mapping(pl, f"{key}.planes[{i}]") for i, pl in
                  enumerate(_list(_required(spec, "planes", f"{key}.planes"), f"{key}.planes"))]
        f = MaxAffineIntegrand(
            np.array([_read_array(_required(pl, "a", f"{key}.planes.a"), f"{key}.planes.a")
                      for pl in planes]),
            np.array([_read(float, pl.get("b", 0.0), f"{key}.planes.b") for pl in planes]))
    elif kind == "tabulated":
        axes = _list(_required(spec, "axes", f"{key}.axes"), f"{key}.axes")
        f = TabulatedIntegrand(tuple(_read_array(a, f"{key}.axes") for a in axes),
                               _read_array(_required(spec, "table", f"{key}.table"),
                                           f"{key}.table"))
    else:
        raise ConfigError(f"unknown integrand kind {kind!r}")
    if f.m != m:
        raise ConfigError(f"integrand dimension {f.m} != horizontal dimension {m}")
    if "shift" in spec:
        f = ShiftedArgIntegrand(f, _read_array(spec["shift"], f"{key}.shift"))
    if "offset" in spec:
        f = OffsetIntegrand(f, _read(float, spec["offset"], f"{key}.offset"))
    return f


def build_mollifier(cfg: dict, norm: groups.HomogeneousNorm) -> MollifierFamily:
    resolution = _read(int, cfg["mollifier_resolution"], "mollifier_resolution")
    try:
        return MollifierFamily(norm, resolution=resolution)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_xi_grid(cfg: dict, group: groups.StratifiedGroup) -> np.ndarray:
    points = build_scalar(cfg, "xi_grid.points", int, minimum=1)
    return uniform_xi_grid(group.m, build_scalar(cfg, "xi_grid.radius"), points)


def build_recovery_ball(cfg: dict, norm: groups.HomogeneousNorm) -> GridDomain:
    """The base ball B(0, recovery.ball_radius) of probe recovery."""
    radius = build_scalar(cfg, "recovery.ball_radius")
    cells = build_scalar(cfg, "recovery.cells_per_axis", int, minimum=1)
    return GridDomain.ball(norm, norm.group.origin(), radius, cells)


def build_schedule(cfg: dict, key: str, kind=float) -> list:
    """schedules.<key> as a nonempty list of positive `kind` values.  The h
    schedule, shared by the gamma experiment and the lsc suite, must also
    strictly increase: the one reads its limit at the last h, the other its
    tail from the end."""
    raw = _section(cfg, "schedules")[key]
    message = f"schedules.{key} must be a nonempty list of positive {kind.__name__}, got {raw!r}"
    try:
        values = [_read(kind, v, key) for v in raw]
    except (TypeError, ValueError) as exc:
        raise ConfigError(message) from exc
    if not values or min(values) <= 0:
        raise ConfigError(message)
    if key == "h" and any(a >= b for a, b in zip(values, values[1:])):
        raise ConfigError(f"schedules.h must strictly increase, got {raw!r}")
    return values


def build_gamma_sequence(cfg: dict, group: groups.StratifiedGroup) -> list:
    """(h, integrand) pairs for the variational-limit experiment."""
    spec = _section(cfg, "gamma")
    hs = build_schedule(cfg, "h", int)
    try:
        base = integrand_from_config(spec["base"], group.m, "gamma.base")
        kind = spec["kind"]
        if kind == "offset":
            scale = _read(float, spec["scale"], "gamma.scale")
            return [(h, OffsetIntegrand(base, scale / h)) for h in hs]
        if kind == "alternating":
            shift = _read_array(_required(spec, "shift", "gamma.shift"), "gamma.shift")
            # one integrand per parity, so the minimizer sees two, not len(hs)
            by_sign = {sign: ShiftedArgIntegrand(base, sign * shift) for sign in (1, -1)}
            return [(h, by_sign[(-1) ** h]) for h in hs]
        if kind == "constant":
            return [(h, base) for h in hs]
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown gamma sequence kind {spec['kind']!r}")
