"""Experiment configuration: JSON in, constructed objects out.

A config file only needs to override the defaults below.  Field menus are
expressions in x1..xn (the grammar of :mod:`carnot.expression`, parsed and
never evaluated as Python) or probe directions; integrands use the menu
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
    """DEFAULTS merged with the config file at `path`, then with `overrides`.
    A key in either that no reader reads raises ConfigError (`_check_keys`),
    and so does a number key or schedule of the wrong type or out of range
    (`_check_numbers`); the config returned holds their converted values."""
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
    _check_numbers(cfg)
    return cfg


# the keys each gamma sequence kind reads; the keys each section's readers
# read: its defaults, and in gamma any kind's (each kind is checked against its
# own, an unknown one is left to its builder); and the keys each integrand kind
# reads besides "kind" and the "shift" and "offset" wrappers
_GAMMA_KEYS = {"offset": {"kind", "base", "scale"}, "alternating": {"kind", "base", "shift"},
               "constant": {"kind", "base"}}
_SECTION_KEYS = {name: set(DEFAULTS[name]) for name in
                 ("grid", "schedules", "xi_grid", "recovery", "minimizer")}
_SECTION_KEYS["gamma"] = set().union(*_GAMMA_KEYS.values())
_INTEGRAND_KEYS = {"power": {"p"}, "quadratic": {"M"}, "max_affine": {"planes"},
                   "tabulated": {"axes", "table"}}

# the type and lower bound of every number key ("positive" excludes 0: a zero
# tol_scale makes every tolerance unmeetable), and each schedule's entry type;
# keys whose check needs the group are checked by their builders
_NUMBERS = {
    "p": (float, 1.0), "mollifier_resolution": (int, 3), "schedules.delta": (float, 0.0),
    "xi_grid.radius": (float, 0.0), "xi_grid.points": (int, 1),
    "recovery.ball_radius": (float, "positive"), "recovery.cells_per_axis": (int, 1),
    "gamma.scale": (float, 0.0), "minimizer.max_iter": (int, 0),
    "samples": (int, 1), "seed": (int, 0), "tol_scale": (float, "positive"),
}
_SCHEDULES = {"eps": float, "rho": float, "h": int}


def _check_keys(user: dict) -> None:
    """Raise ConfigError on a key of a user config (before it is merged into
    the defaults) that no reader reads: at the top level, in a section of
    _SECTION_KEYS (gamma by its kind), in a `fields` entry, which also may not
    take both `expr` and `probe`, and in an integrand spec by its kind.
    Values of the wrong type are left to `_check_numbers` and the builders;
    the group spec, which may come from a file, is checked by `build_group`."""
    _known(user, DEFAULTS, "config")
    for name, allowed in _SECTION_KEYS.items():
        if isinstance(user.get(name), dict):
            if name == "gamma":
                kind = user[name].get("kind", DEFAULTS["gamma"]["kind"])
                allowed = _GAMMA_KEYS.get(kind, allowed) if isinstance(kind, str) else allowed
            _known(user[name], allowed, name)
    if isinstance(user.get("fields"), list):
        for i, entry in enumerate(user["fields"]):
            if isinstance(entry, dict):
                _known(entry, {"expr", "probe", "name"}, f"fields[{i}]")
                if "expr" in entry and "probe" in entry:
                    raise ConfigError(f"fields[{i}] takes 'expr' or 'probe', not both")
    _check_integrand(user.get("integrand"), DEFAULTS["integrand"], "integrand")
    if isinstance(user.get("gamma"), dict):
        _check_integrand(user["gamma"].get("base"), DEFAULTS["gamma"]["base"], "gamma.base")


def _check_numbers(cfg: dict) -> None:
    """Raise ConfigError on a section of _SECTION_KEYS that is not a mapping,
    on a number key of _NUMBERS or a schedule of the wrong type or out of
    range, on an h schedule that does not strictly increase (the gamma
    experiment reads its limit at the last h, the lsc suite its tail from the
    end) and on a schedule that repeats a value (a repeated eps reads as a
    convergence stall, a repeated rho as one radius).  Each checked value is
    replaced by its converted one."""
    for name in _SECTION_KEYS:
        _mapping(cfg[name], name)
    for key, (kind, bound) in _NUMBERS.items():
        section, _, name = key.rpartition(".")
        spec = cfg[section] if section else cfg
        value = spec[name] = _read(kind, spec[name], key)
        if bound == "positive" and not value > 0:
            raise ConfigError(f"{key} must be positive, got {value!r}")
        if bound not in (None, "positive") and not value >= bound:
            raise ConfigError(f"{key} must be at least {bound}, got {value!r}")
    for name, kind in _SCHEDULES.items():
        raw = cfg["schedules"][name]
        message = (f"schedules.{name} must be a nonempty list of positive {kind.__name__}, "
                   f"got {raw!r}")
        try:
            values = cfg["schedules"][name] = [_read(kind, v, name) for v in raw]
        except (TypeError, ValueError) as exc:
            raise ConfigError(message) from exc
        if not values or min(values) <= 0:
            raise ConfigError(message)
        if name == "h" and any(a >= b for a, b in zip(values, values[1:])):
            raise ConfigError(f"schedules.h must strictly increase, got {raw!r}")
        if len(set(values)) < len(values):
            raise ConfigError(f"schedules.{name} must not repeat a value, got {raw!r}")


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
        if kind == "max_affine" and isinstance(spec.get("planes"), list):
            for i, plane in enumerate(spec["planes"]):
                if isinstance(plane, dict):
                    _known(plane, {"a", "b"}, f"{key}.planes[{i}]")


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
        _known(spec, {"layer_dims", "brackets", "name"}, "group")
        dims = tuple(_read(int, d, "group.layer_dims") for d in _list(
            _required(spec, "layer_dims", "group.layer_dims"), "group.layer_dims"))
        n = sum(dims)
        c = np.zeros((n, n, n))
        for k, entry in enumerate(_list(spec.get("brackets", []), "group.brackets")):
            entry = _mapping(entry, f"group.brackets[{k}]")
            _known(entry, {"i", "j", "out"}, f"group.brackets[{k}]")
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


def read_grid(cfg: dict, group: groups.StratifiedGroup) -> tuple:
    """The grid's (lo, hi, shape), checked but not allocated."""
    spec = cfg["grid"]
    # only an absent or null bound means the default box: 0, false and [] do not
    lo = _read_array([-1.0] * group.n if spec.get("lo") is None else spec["lo"], "grid.lo")
    hi = _read_array([1.0] * group.n if spec.get("hi") is None else spec["hi"], "grid.hi")
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
    return lo, hi, shape


def build_grid(cfg: dict, group: groups.StratifiedGroup) -> GridDomain:
    lo, hi, shape = read_grid(cfg, group)
    mask = _allocate(f"grid.shape {shape}", math.prod(shape), "cells", 1,
                     lambda: np.ones(shape, bool))
    return GridDomain(lo, hi, shape, mask)


def _allocate(subject: str, count: int, unit: str, itemsize: int, build):
    """build(), or the ConfigError `<subject> has <count> <unit>, too many to
    allocate`, where `itemsize` is the bytes per unit of the largest array
    that build allocates.  The error is raised before building when those
    bytes lie beyond numpy's index range, and in place of a MemoryError from
    the build; any other error, a DomainError among them, passes through."""
    message = f"{subject} has {count} {unit}, too many to allocate"
    if count * itemsize > np.iinfo(np.intp).max:
        raise ConfigError(message)
    try:
        return build()
    except MemoryError as exc:
        raise ConfigError(message) from exc


def build_fields(cfg: dict, group: groups.StratifiedGroup) -> list:
    entries = _list(cfg["fields"], "fields")
    if not entries:  # a gamma run over no field checks nothing
        raise ConfigError(f"fields must be a nonempty list, got {entries!r}")
    out = []
    for i, entry in enumerate(entries):
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
    spec = _mapping(cfg["integrand"], "integrand")
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
    """The mollifier on resolution^n quadrature nodes, each n floats."""
    resolution, n = cfg["mollifier_resolution"], norm.group.n
    try:
        return _allocate(f"mollifier_resolution {resolution}", resolution ** n, "nodes",
                         8 * n, lambda: MollifierFamily(norm, resolution=resolution))
    except ConfigError:
        raise
    except ValueError as exc:  # the quadrature's cap on n
        raise ConfigError(str(exc)) from exc


def build_xi_grid(cfg: dict, group: groups.StratifiedGroup) -> np.ndarray:
    """The points^m probes of recovery, each m floats."""
    spec, m = cfg["xi_grid"], group.m
    return _allocate(f"xi_grid.points {spec['points']}", spec["points"] ** m, "probes", 8 * m,
                     lambda: uniform_xi_grid(m, spec["radius"], spec["points"]))


def build_recovery_ball(cfg: dict, norm: groups.HomogeneousNorm) -> GridDomain:
    """The base ball B(0, recovery.ball_radius) of probe recovery, masked over
    cells_per_axis^n cells whose centers are n floats each."""
    spec, n = cfg["recovery"], norm.group.n
    cells = spec["cells_per_axis"]
    return _allocate(f"recovery.cells_per_axis {cells}", cells ** n, "cells", 8 * n,
                     lambda: GridDomain.ball(norm, norm.group.origin(), spec["ball_radius"],
                                             cells))


def build_gamma_sequence(cfg: dict, group: groups.StratifiedGroup) -> list:
    """(h, integrand) pairs for the variational-limit experiment."""
    spec = cfg["gamma"]
    hs = cfg["schedules"]["h"]
    try:
        base = integrand_from_config(spec["base"], group.m, "gamma.base")
        kind = spec["kind"]
        if kind == "offset":
            return [(h, OffsetIntegrand(base, spec["scale"] / h)) for h in hs]
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
