"""Integral functionals F(u, A) = integral over A of f(grad_G u) dx.

Integrands come from a small convex menu (powers, quadratic forms,
max-affine, tabulated) and may carry a growth certificate (a, b, p) with
f(eta) <= a + b |eta|^p.  Functionals are either built from an integrand
with midpoint quadrature, or opaque black boxes supplied by callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, Optional

import numpy as np

from .groups import StratifiedGroup
from .fields import (GridDomain, ScalarField, DomainError, horizontal_gradient, probe_field,
                     translate_field, translate_domain)
from .mollify import MollifierFamily, LocalAverage, convolve

__all__ = [
    "Integrand",
    "PowerIntegrand",
    "QuadraticIntegrand",
    "MaxAffineIntegrand",
    "TabulatedIntegrand",
    "OffsetIntegrand",
    "ShiftedArgIntegrand",
    "Functional",
    "IntegrandFunctional",
    "BlackBoxFunctional",
    "check_left_invariance",
    "check_set_function",
    "jensen_check",
    "sandwich_check",
    "lsc_check",
]


class Integrand:
    """Extended-real convex integrand on R^m."""

    m: int
    growth: Optional[tuple] = None  # (a, b, p) with f(eta) <= a + b |eta|^p

    def __call__(self, eta) -> np.ndarray:
        raise NotImplementedError

    def value_and_grad(self, eta) -> tuple:
        """(self(eta), a subgradient at each row of eta)."""
        raise NotImplementedError

    def _coerce(self, eta) -> np.ndarray:
        eta = np.atleast_2d(np.asarray(eta, dtype=float))
        if eta.shape[-1] != self.m:
            raise ValueError(f"integrand argument must have {self.m} components")
        return eta


@dataclass(frozen=True)
class PowerIntegrand(Integrand):
    """f(eta) = |eta|^p for p >= 1."""

    m: int
    p: float = 2.0

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("power integrands need p >= 1 for convexity")

    @property
    def growth(self):
        return (0.0, 1.0, self.p)

    @staticmethod
    def _magnitude(eta) -> np.ndarray:
        # what np.linalg.norm(eta, axis=-1) computes for real input, without
        # its conjugate copy
        return np.sqrt(np.add.reduce(eta * eta, axis=-1))

    def __call__(self, eta):
        return self._magnitude(self._coerce(eta)) ** self.p

    def value_and_grad(self, eta):
        eta = self._coerce(eta)
        mag = self._magnitude(eta)
        live = mag[..., None] > 0
        safe = np.where(live, mag[..., None], 1.0)
        return mag ** self.p, self.p * safe ** (self.p - 2) * np.where(live, eta, 0.0)


@dataclass(frozen=True)
class QuadraticIntegrand(Integrand):
    """f(eta) = eta^T M eta with M symmetric positive semidefinite."""

    M: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("quadratic integrand needs a square matrix")
        M = 0.5 * (M + M.T)
        if np.linalg.eigvalsh(M).min() < -1e-10:
            raise ValueError("quadratic integrand matrix must be positive semidefinite")
        object.__setattr__(self, "M", M)
        M.setflags(write=False)

    @property
    def m(self):
        return self.M.shape[0]

    @property
    def growth(self):
        return (0.0, float(np.linalg.eigvalsh(self.M).max()), 2.0)

    def __call__(self, eta):
        eta = self._coerce(eta)
        return np.einsum("...i,ij,...j->...", eta, self.M, eta)

    def value_and_grad(self, eta):
        eta = self._coerce(eta)
        return self(eta), 2.0 * eta @ self.M


@dataclass(frozen=True)
class MaxAffineIntegrand(Integrand):
    """f(eta) = max(0, max_i <a_i, eta> + b_i)."""

    planes: np.ndarray   # (k, m)
    offsets: np.ndarray  # (k,)

    def __post_init__(self):
        planes = np.atleast_2d(np.asarray(self.planes, dtype=float))
        offsets = np.asarray(self.offsets, dtype=float).ravel()
        if len(planes) != len(offsets):
            raise ValueError("one offset per plane required")
        object.__setattr__(self, "planes", planes)
        object.__setattr__(self, "offsets", offsets)
        planes.setflags(write=False)
        offsets.setflags(write=False)

    @property
    def m(self):
        return self.planes.shape[1]

    @property
    def growth(self):
        a = max(0.0, float(self.offsets.max()))
        b = float(np.linalg.norm(self.planes, axis=1).max())
        return (a, b, 1.0)

    def _affine(self, eta):
        return self._coerce(eta) @ self.planes.T + self.offsets

    def __call__(self, eta):
        return np.maximum(self._affine(eta).max(axis=-1), 0.0)

    def value_and_grad(self, eta):
        vals = self._affine(eta)
        top = vals.max(axis=-1)
        grad = self.planes[vals.argmax(axis=-1)]
        grad[top <= 0] = 0.0
        return np.maximum(top, 0.0), grad


# step of the tabulated integrand's central-difference subgradient
_TABLE_FD_STEP = 1e-6


@dataclass(frozen=True)
class TabulatedIntegrand(Integrand):
    """Convex values tabulated on a uniform m-grid, interpolated multilinearly.

    The axes must be increasing and uniformly spaced; midpoint convexity of
    the table is sampled at construction; queries outside the table raise."""

    axes: tuple          # per-component node arrays
    table: np.ndarray
    _lattice: GridDomain = dc_field(init=False, repr=False)

    def __post_init__(self):
        axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        table = np.asarray(self.table, dtype=float)
        if table.shape != tuple(len(a) for a in axes):
            raise ValueError("table shape must match the axis lengths")
        if (table < 0).any():
            raise ValueError("tabulated integrand must be nonnegative")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_lattice", GridDomain.from_centers(axes))
        viol = max(0.0, float(_midpoint_defect(table).max()))
        if viol > 1e-10:
            raise ValueError(f"table is not midpoint convex (violation {viol:.3g})")

    @property
    def m(self):
        return len(self.axes)

    def _interp(self, eta):
        return self._lattice.interpolation(eta) @ self.table.ravel()

    def __call__(self, eta):
        return self._interp(self._coerce(eta))

    def value_and_grad(self, eta):
        """Values and central differences of step _TABLE_FD_STEP."""
        eta = self._coerce(eta)
        out = np.empty_like(eta)
        for j in range(self.m):
            step = np.zeros(self.m)
            step[j] = _TABLE_FD_STEP
            out[:, j] = ((self._interp(eta + step) - self._interp(eta - step))
                         / (2 * _TABLE_FD_STEP))
        return self._interp(eta), out


def _midpoint_defect(table) -> np.ndarray:
    """Per-node worst midpoint-convexity defect a[i] - (a[i-1] + a[i+1]) / 2 over
    the axes along which the node is interior (-inf where it is interior to none).

    A table is midpoint convex along grid lines when no entry is positive."""
    defect = np.full(table.shape, -np.inf)
    for ax in range(table.ndim):
        a = np.moveaxis(table, ax, 0)
        d = np.moveaxis(defect, ax, 0)
        np.maximum(d[1:-1], a[1:-1] - 0.5 * (a[:-2] + a[2:]), out=d[1:-1])
    return defect


@dataclass(frozen=True)
class OffsetIntegrand(Integrand):
    """f(eta) = inner(eta) + c for a constant c >= 0."""

    inner: Integrand
    c: float

    @property
    def m(self):
        return self.inner.m

    @property
    def growth(self):
        g = self.inner.growth
        return None if g is None else (g[0] + self.c, g[1], g[2])

    def __call__(self, eta):
        return self.inner(eta) + self.c

    def value_and_grad(self, eta):
        value, grad = self.inner.value_and_grad(eta)
        return value + self.c, grad


@dataclass(frozen=True)
class ShiftedArgIntegrand(Integrand):
    """f(eta) = inner(eta - shift)."""

    inner: Integrand
    shift: np.ndarray

    def __post_init__(self):
        shift = np.asarray(self.shift, dtype=float).ravel()
        if shift.shape != (self.inner.m,):
            raise ValueError("shift must have m components")
        object.__setattr__(self, "shift", shift)
        shift.setflags(write=False)

    @property
    def m(self):
        return self.inner.m

    @property
    def growth(self):
        g = self.inner.growth
        if g is None:
            return None
        a, b, p = g
        scale = 2.0 ** (p - 1)
        return (a + b * scale * float(np.linalg.norm(self.shift)) ** p, b * scale, p)

    def __call__(self, eta):
        return self.inner(self._coerce(eta) - self.shift)

    def value_and_grad(self, eta):
        return self.inner.value_and_grad(self._coerce(eta) - self.shift)


# -- functionals ---------------------------------------------------------------


class Functional:
    """Common surface: eval(u, A) -> extended nonnegative real."""

    growth: Optional[tuple] = None

    def eval(self, u: ScalarField, domain: GridDomain) -> float:
        raise NotImplementedError

    def probe_values(self, group: StratifiedGroup, xi_grid, domain: GridDomain) -> np.ndarray:
        """F(u_xi, A) for the linear probe u_xi of every row xi of `xi_grid`."""
        return np.array([self.eval(probe_field(group, xi), domain) for xi in xi_grid])


@dataclass(frozen=True)
class IntegrandFunctional(Functional):
    """Midpoint-quadrature functional built from an integrand.

    refine > 1 resamples every cell into refine^n subcells before summing."""

    group: StratifiedGroup
    integrand: Integrand
    refine: int = 1

    @property
    def growth(self):
        return self.integrand.growth

    def eval(self, u: ScalarField, domain: GridDomain) -> float:
        if domain.is_empty:
            return 0.0
        dom = domain.refine(self.refine)
        return self.quadrature(horizontal_gradient(self.group, u, dom.centers()),
                               dom.cell_volume)

    def probe_values(self, group: StratifiedGroup, xi_grid, domain: GridDomain) -> np.ndarray:
        """`eval` of every linear probe, with f evaluated once per probe: a
        probe's horizontal gradient is xi at every cell, so its quadrature
        sums K copies of f(xi), the same numbers `eval` would sum."""
        xi_grid = np.atleast_2d(np.asarray(xi_grid, dtype=float))
        if domain.is_empty:
            return np.zeros(len(xi_grid))
        dom = domain.refine(self.refine)
        cells = int(np.count_nonzero(dom.mask))
        return np.array([_total(np.full(cells, value), dom.cell_volume)
                         for value in self.integrand(xi_grid)])

    def quadrature(self, grads, cell_volume: float) -> float:
        """cell_volume * sum of f over the gradient rows, +inf if not finite."""
        return _total(self.integrand(grads), cell_volume)


def _total(values, cell_volume: float) -> float:
    """cell_volume * sum of the integrand values, +inf if not finite."""
    total = float(np.sum(values) * cell_volume)
    return float("inf") if not np.isfinite(total) else total


@dataclass(frozen=True)
class BlackBoxFunctional(Functional):
    """Opaque (u, A) -> value evaluator; property checks can only sample it."""

    fn: Callable
    name: str = "blackbox"
    growth: Optional[tuple] = None

    def __post_init__(self):
        if not callable(self.fn):
            raise TypeError(f"BlackBoxFunctional needs a callable fn, got {self.fn!r}")

    def eval(self, u: ScalarField, domain: GridDomain) -> float:
        return float(self.fn(u, domain))


# -- property checkers ---------------------------------------------------------


def check_left_invariance(group: StratifiedGroup, functional: Functional,
                          u: ScalarField, domain: GridDomain, y_samples) -> dict:
    """Residuals |F(tau_y u, tau_y A) - F(u, A)| over the given translations."""
    base = functional.eval(u, domain)
    residuals = []
    for y in np.atleast_2d(np.asarray(y_samples, dtype=float)):
        shifted = functional.eval(translate_field(group, y, u),
                                  translate_domain(group, y, domain))
        residuals.append(abs(shifted - base))
    return {"base": base, "residuals": residuals, "max_residual": max(residuals)}


# tolerance of the set-function comparisons, and the number of cell rings
# the inner-regularity exhaustion peels off at most
_SET_TOL = 1e-10
_EXHAUSTION_RINGS = 4


def check_set_function(functional: Functional, u: ScalarField,
                       domain: GridDomain) -> dict:
    """Sample-based report on the set-function properties of F(u, .):
    monotone, additive on disjoint splits, subadditive on overlapping covers,
    superadditive, and inner regular along the cell-ring exhaustion."""
    half = np.zeros(domain.shape, dtype=bool)
    half[: domain.shape[0] // 2] = True
    a1 = replace(domain, mask=domain.mask & half)
    a2 = replace(domain, mask=domain.mask & ~half)
    f_all = functional.eval(u, domain)
    f1, f2 = functional.eval(u, a1), functional.eval(u, a2)

    # overlapping cover: two thirds overlapping in the middle
    cut = 2 * domain.shape[0] // 3
    c1 = np.zeros(domain.shape, dtype=bool)
    c1[:cut] = True
    c2 = np.zeros(domain.shape, dtype=bool)
    c2[domain.shape[0] - cut:] = True
    g1 = functional.eval(u, replace(domain, mask=domain.mask & c1))
    g2 = functional.eval(u, replace(domain, mask=domain.mask & c2))

    # exhaust from the innermost rings outward so the sets grow toward A
    by_rings = {}
    for k in range(_EXHAUSTION_RINGS, 0, -1):
        sub = domain.erode_cells(k)
        if not sub.is_empty:
            by_rings[k] = functional.eval(u, sub)
    exhaustion = list(by_rings.values())

    report = {
        "additivity_gap": abs(f_all - f1 - f2),
        "increasing": all(by_rings[k] <= f_all + _SET_TOL for k in (1, 2) if k in by_rings),
        "subadditive": f_all <= g1 + g2 + _SET_TOL,
        "superadditive": f1 + f2 <= f_all + _SET_TOL,
        "inner_regular_gap": f_all - max(exhaustion) if exhaustion else float("nan"),
        "exhaustion": exhaustion,
        "value": f_all,
    }
    report["additive"] = report["additivity_gap"] <= _SET_TOL
    report["monotone_exhaustion"] = all(x <= y + _SET_TOL
                                        for x, y in zip(exhaustion, exhaustion[1:]))
    return report


def jensen_check(functional: IntegrandFunctional, u: ScalarField, inner_domain: GridDomain,
                 mollifier: MollifierFamily, eps: float, omega: GridDomain) -> tuple:
    """Both sides of the Jensen step: F(phi_eps * u, A') on the left and the
    mollifier average of F(tau_y u, A') on the right; left <= right holds
    exactly at quadrature level for convex integrands.  The average raises
    DomainError when A' leaves its eroded domain."""
    average = LocalAverage.of(mollifier, eps, omega)
    fine = inner_domain.refine(functional.refine)
    # grad_G(tau_y u)(x) = (grad_G u)(y^{-1} . x) by left-invariance of the frame,
    # so the mollifier average of F(tau_y u, A') is phi_eps * f(grad_G u) summed
    # over A'; one gradient sample G per chunk feeds both phi_eps * G and
    # phi_eps * f(G)
    def sample(points):
        grads = horizontal_gradient(mollifier.group, u, points)
        return grads, functional.integrand(grads)

    grads, density = average(sample, fine.centers())
    return (functional.quadrature(grads, fine.cell_volume),
            _total(density, fine.cell_volume))


def sandwich_check(functional: Functional, u: ScalarField, inner_domain: GridDomain,
                   domain: GridDomain, mollifier: MollifierFamily, eps_list) -> dict:
    """The three-term chain F(u, A') <= F(phi_eps * u, A') <= F(u, A) along an
    eps schedule; returns the raw values so callers apply their tolerance.
    The convolution raises DomainError when A' leaves its eroded domain."""
    if inner_domain.shape == domain.shape and not inner_domain.is_subset(domain):
        raise DomainError("inner domain must sit inside the outer one")
    lower = functional.eval(u, inner_domain)
    upper = functional.eval(u, domain)
    rows = []
    for eps in sorted(eps_list, reverse=True):
        u_eps = convolve(mollifier, eps, u, domain)
        rows.append({"epsilon": float(eps), "middle": functional.eval(u_eps, inner_domain)})
    return {"lower": lower, "upper": upper, "rows": rows}


def lsc_check(functional: Functional, limit_field: ScalarField,
              sequence, domain: GridDomain) -> dict:
    """Values of F along an explicit sequence converging to `limit_field`;
    the lower-semicontinuity witness is F(u, A) <= min over the tail."""
    values = [functional.eval(v, domain) for v in sequence]
    limit_value = functional.eval(limit_field, domain)
    tail = values[len(values) // 2:]
    return {"limit_value": limit_value, "sequence_values": values,
            "tail_min": min(tail) if tail else float("nan")}
