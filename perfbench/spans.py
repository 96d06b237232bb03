"""Spans and counters recorded around carnot's layers from outside the library.

`install` wraps the public functions of every carnot module, plus the
methods that carry the numerical kernels, and rebinds every name that
refers to them: `cli`, `suites` and `functionals` import `erode_domain`,
`convolve` and friends with `from ... import`, so patching only the
defining module would miss those calls without any error.

Each wrapper records calls, busy time (outermost activation only) and self
time (busy time minus the time covered by traced child calls), plus the
work counters named in `_HOOKS`.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("groups", "fields", "mollify", "functionals", "recovery", "suites",
          "config", "cli")

# Methods that carry the kernels, with the span name they are reported under.
METHODS = {
    ("groups", "StratifiedGroup", "bracket"): "groups.bracket",
    ("groups", "StratifiedGroup", "multiply"): "groups.multiply",
    ("groups", "StratifiedGroup", "vector_field_coeffs"): "groups.vector_field_coeffs",
    ("groups", "HomogeneousNorm", "__call__"): "groups.norm",
    ("mollify", "MollifierFamily", "__post_init__"): "mollify.MollifierFamily.init",
    ("functionals", "IntegrandFunctional", "eval"): "functionals.IntegrandFunctional.eval",
}


def _rows(shape) -> int:
    """Number of points in a (..., n) batch."""
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _mask_digest(mask: np.ndarray) -> str:
    h = hashlib.sha256(repr(mask.shape).encode())
    h.update(np.packbits(np.asarray(mask, dtype=bool).ravel()).tobytes())
    return h.hexdigest()


def erosion_key(group, norm, omega, eps) -> str:
    """Identifies an erosion by eps and the input domain (as the cache does)."""
    return (f"{group.name}|{norm.kind}|eps={float(eps)!r}|shape={omega.shape}"
            f"|lo={omega.lo.tolist()}|hi={omega.hi.tolist()}"
            f"|mask={_mask_digest(omega.mask)[:16]}")


class Recorder:
    """In-memory span statistics for one process."""

    def __init__(self):
        self.stats: dict = {}
        self.erosions: list = []
        self._children: list = []
        self._depth: dict = {}

    def _stat(self, name: str) -> dict:
        return self.stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})

    def wrap(self, name: str, fn):
        stat = self._stat(name)
        before, after = _HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(stat, args, kwargs)
            stat["calls"] += 1
            depth = self._depth.get(name, 0)
            self._depth[name] = depth + 1
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._depth[name] = depth
                stat["self_s"] += dt - self._children.pop()
                if self._children:
                    self._children[-1] += dt
                if depth == 0:
                    stat["busy_s"] += dt
            if after is not None:
                result = after(self, stat, args, kwargs, result)
            return result

        return wrapper

    def dump(self) -> dict:
        return {"stats": self.stats, "erosions": self.erosions}


# -- work counters -------------------------------------------------------------


def _add(stat: dict, key: str, amount) -> None:
    stat[key] = stat.get(key, 0) + amount


def _count_multiply(stat, args, kwargs):
    _, x, y = args
    _add(stat, "points", _rows(np.broadcast_shapes(np.shape(x), np.shape(y))))


def _count_first_batch(stat, args, kwargs):
    _add(stat, "points", _rows(np.shape(np.atleast_2d(args[1]))))


def _count_points_arg(stat, args, kwargs):
    points = args[2] if len(args) > 2 else kwargs["points"]
    _add(stat, "points", _rows(np.shape(np.atleast_2d(points))))


def _count_closure_points(stat, args, kwargs):
    _add(stat, "points", _rows(np.shape(np.atleast_2d(args[0]))))


def _count_eval_cells(stat, args, kwargs):
    functional, _, domain = args
    _add(stat, "cells", int(domain.mask.sum()) * functional.refine ** domain.ndim)


def _after_erode(rec, stat, args, kwargs, result):
    group, norm, omega, eps = args
    rec.erosions.append({"key": erosion_key(group, norm, omega, eps),
                         "digest": _mask_digest(result.mask),
                         "cells_in": int(omega.mask.sum()),
                         "cells_kept": int(result.mask.sum())})
    return result


def _after_convolve(rec, stat, args, kwargs, result):
    hgrad = result.hgrad
    return dataclasses.replace(
        result, values=rec.wrap("mollify.convolve.values", result.values),
        hgrad=None if hgrad is None else rec.wrap("mollify.convolve.hgrad", hgrad))


def _after_minimize(rec, stat, args, kwargs, result):
    _add(stat, "iterations", int(result.iterations))
    _add(stat, "converged", int(bool(result.converged)))
    return result


def _after_suite(rec, stat, args, kwargs, result):
    _add(stat, "rows", len(result))
    _add(stat, "rows_passed", sum(bool(r["passed"]) for r in result))
    return result


_HOOKS = {
    "groups.multiply": (_count_multiply, None),
    "groups.norm": (_count_first_batch, None),
    "fields.horizontal_gradient": (_count_points_arg, None),
    "mollify.convolve.values": (_count_closure_points, None),
    "mollify.convolve.hgrad": (_count_closure_points, None),
    "mollify.erode_domain": (None, _after_erode),
    "mollify.convolve": (None, _after_convolve),
    "functionals.IntegrandFunctional.eval": (_count_eval_cells, None),
    "recovery.minimize_convex": (None, _after_minimize),
    **{f"suites.suite_{s}": (None, _after_suite)
       for s in ("axioms", "mollify", "functional", "sandwich", "lsc")},
}


# -- installation ----------------------------------------------------------------


def _public_functions(module) -> dict:
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    return {n: getattr(module, n) for n in names
            if inspect.isfunction(getattr(module, n, None))
            and getattr(module, n).__module__ == module.__name__}


def install(rec: Recorder) -> None:
    """Wrap every layer's public functions and kernel methods, and rebind every
    module-level name (and module-level dict entry) in the carnot package that
    refers to one of them."""
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "carnot" or name.startswith("carnot.")}
    wrappers = {}
    for layer in LAYERS:
        for attr, fn in _public_functions(modules[f"carnot.{layer}"]).items():
            wrappers[id(fn)] = (fn, rec.wrap(f"{layer}.{attr}", fn))

    def wrapped(value):
        entry = wrappers.get(id(value))
        return entry[1] if entry is not None and entry[0] is value else None

    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if wrapped(value) is not None:
                setattr(mod, attr, wrapped(value))
            elif isinstance(value, dict):
                for key, item in value.items():
                    if wrapped(item) is not None:
                        value[key] = wrapped(item)
    for (layer, cls_name, attr), span in METHODS.items():
        cls = getattr(modules[f"carnot.{layer}"], cls_name)
        setattr(cls, attr, rec.wrap(span, vars(cls)[attr]))
