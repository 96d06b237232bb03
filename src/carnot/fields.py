"""Scalar fields and grid domains on a stratified group.

Fields are evaluator-first: a closed-form vectorized evaluator is always
present, optionally with a horizontal gradient evaluator: the one gradient
a functional F(u, A) = integral over A of f(grad_G u) reads.  Fields without
one are differentiated by group differences.  Domains are uniform Cartesian
boxes with a boolean cell mask.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .groups import StratifiedGroup, _add_row, _quadratic_form

__all__ = [
    "GridDomain",
    "GatherTable",
    "ScalarField",
    "probe_field",
    "constant_field",
    "from_expression",
    "translate_field",
    "translate_domain",
    "horizontal_gradient",
]


class DomainError(ValueError):
    """Query or construction outside the declared grid support."""


@dataclass(frozen=True)
class GridDomain:
    """A bounded open set realized as a cell mask over a uniform box grid."""

    lo: np.ndarray
    hi: np.ndarray
    shape: tuple
    mask: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        shape = tuple(int(s) for s in self.shape)
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != shape:
            raise DomainError(f"mask shape {mask.shape} != grid shape {shape}")
        if np.any(hi <= lo):
            raise DomainError("box must have positive extent on every axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "mask", mask)
        lo.setflags(write=False)
        hi.setflags(write=False)
        mask.setflags(write=False)

    # -- geometry ----------------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def spacing(self) -> np.ndarray:
        return (self.hi - self.lo) / np.asarray(self.shape)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def volume(self) -> float:
        return float(self.mask.sum()) * self.cell_volume

    @property
    def is_empty(self) -> bool:
        return not self.mask.any()

    def axis_centers(self) -> list:
        h = self.spacing
        return [self.lo[k] + h[k] * (np.arange(self.shape[k]) + 0.5) for k in range(self.ndim)]

    def all_centers(self) -> np.ndarray:
        """Centers of every cell in C order, shape (prod(shape), n), read-only."""
        return self._all_centers

    def centers(self) -> np.ndarray:
        """Centers of the masked cells, shape (count, n), read-only; the
        `all_centers` array itself when every cell is masked."""
        return self._centers

    # computed once per instance: `replace` builds a new instance, which
    # recomputes them for its own lattice and mask
    @cached_property
    def _all_centers(self) -> np.ndarray:
        grids = np.meshgrid(*self.axis_centers(), indexing="ij")
        out = np.stack([c.ravel() for c in grids], axis=-1)
        out.setflags(write=False)
        return out

    @cached_property
    def _centers(self) -> np.ndarray:
        if self.mask.all():
            return self._all_centers
        out = self._all_centers[self.mask.ravel()]
        out.setflags(write=False)
        return out

    def cell_index(self, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.floor((points - self.lo) / self.spacing).astype(int)

    def _node_coords(self, points) -> np.ndarray:
        """Points in cell units from the first cell center."""
        h = self.spacing
        return (np.atleast_2d(np.asarray(points, dtype=float)) - (self.lo + 0.5 * h)) / h

    def _in_hull(self, t) -> np.ndarray:
        """True where a point given in cell units (`_node_coords`) lies in the
        box spanned by the cell centers, up to 1e-9 cell (stencils built by
        group multiplication hit nodes to roundoff)."""
        return ((t >= -1e-9) & (t <= np.asarray(self.shape) - 1 + 1e-9)).all(axis=-1)

    def interpolation(self, points) -> "GatherTable":
        """The multilinear interpolation matrix W from samples at all cell
        centers (C order) to `points`, as a gather table: row i holds the 2^n
        corners of point i (`_corners`), and W @ samples.ravel() is the
        interpolant.  Raises DomainError for points outside the hull of the
        centers, or on a lattice with one cell along an axis."""
        t = self._node_coords(points)
        if not self._in_hull(t).all():
            raise DomainError("interpolation query outside the hull of the cell centers")
        return GatherTable(*self._corners(t), (len(t), self.mask.size))

    def _corners(self, t) -> tuple:
        """The multilinear corners of points given in cell units
        (`_node_coords`), which the caller has checked to lie in the hull
        (`_in_hull`): their columns and weights, (2^n, count) arrays, one row
        per corner in increasing column order.  Raises DomainError when an axis
        has one cell, which leaves no cell to interpolate across."""
        if 1 in self.shape:
            raise DomainError(f"interpolation needs two cells along every axis, and "
                              f"axis x{self.shape.index(1) + 1} has one")
        base = np.clip(np.floor(t).astype(int), 0, np.asarray(self.shape) - 2)
        frac = t - base
        # the corners in itertools.product order, the last axis fastest: each
        # is the base's column plus a fixed offset, so the columns increase,
        # and its weight is the product of the axes' factors in axis order
        corners = np.array(list(itertools.product((0, 1), repeat=self.ndim)))
        strides = np.cumprod((self.shape[1:] + (1,))[::-1])[::-1]
        cols = (np.ravel_multi_index(tuple(base.T), self.shape)
                + (corners @ strides)[:, None])
        weights = np.ones((1, len(t)))
        for k in range(self.ndim):
            weights = np.stack([weights * (1.0 - frac[:, k]), weights * frac[:, k]],
                               axis=1).reshape(-1, len(t))
        return cols, weights

    def contains(self, points) -> np.ndarray:
        """True where a point falls inside a masked cell."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        idx = self.cell_index(points)
        inside = np.all((idx >= 0) & (idx < np.asarray(self.shape)), axis=-1)
        out = np.zeros(len(points), dtype=bool)
        if inside.any():
            sel = tuple(idx[inside].T)
            out[inside] = self.mask[sel]
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def box(cls, lo, hi, shape) -> "GridDomain":
        shape = tuple(int(s) for s in np.broadcast_to(shape, np.shape(lo)))
        return cls(np.asarray(lo, float), np.asarray(hi, float), shape, np.ones(shape, bool))

    @classmethod
    def from_centers(cls, axes) -> "GridDomain":
        """The full box whose cell centers are the given per-axis nodes, which
        must be increasing and uniformly spaced, at least two per axis."""
        axes = [np.asarray(a, dtype=float) for a in axes]
        for a in axes:
            step = np.diff(a)
            if not (len(step) and (step > 0).all()
                    and np.allclose(step, step[0], rtol=1e-9, atol=0)):
                raise DomainError(f"nodes must be increasing and uniformly spaced: {a.tolist()}")
        half = np.array([0.5 * (a[-1] - a[0]) / (len(a) - 1) for a in axes])
        return cls.box(np.array([a[0] for a in axes]) - half,
                       np.array([a[-1] for a in axes]) + half, [len(a) for a in axes])

    @classmethod
    def ball(cls, norm, center, radius: float, shape) -> "GridDomain":
        """Left-metric ball B(center, radius) masked over its bounding box.
        Raises DomainError when that box or its volume overflows floats."""
        g = norm.group
        center = np.asarray(center, dtype=float)
        radius = np.float64(radius)  # overflows to inf, where a float raises
        with np.errstate(over="ignore", invalid="ignore"):
            # the ball is center.z over |z|_norm < r, where |z_i| <= r**d_i; bound
            # center.z - center, the BCH series of center and z less its head
            # center, term by term
            z = radius ** g.weights.astype(float)
            extent = g.bch_bound(np.abs(center), z, z) + 1e-9
            dom = cls.box(center - extent, center + extent, shape)
            box_volume = np.prod(dom.hi - dom.lo)
        if not np.isfinite(box_volume):
            raise DomainError(f"ball of radius {radius:g} does not fit in floats: "
                              f"its bounding box has volume {box_volume:g}")
        dist = norm.dist_left(dom.all_centers(), center)
        return replace(dom, mask=(dist < radius).reshape(dom.shape))

    # -- mask algebra (same lattice only) -----------------------------------

    def _check_lattice(self, other: "GridDomain"):
        if (self.shape != other.shape or not np.allclose(self.lo, other.lo)
                or not np.allclose(self.hi, other.hi)):
            raise DomainError("set operations require domains on the same lattice")

    def is_subset(self, other: "GridDomain") -> bool:
        self._check_lattice(other)
        return not (self.mask & ~other.mask).any()

    def erode_cells(self, rings: int) -> "GridDomain":
        """Peel `rings` cell layers off the mask: each ring drops every cell with
        a face neighbour outside the mask (the box boundary counts as outside)."""
        mask = self.mask
        for _ in range(max(rings, 0)):
            padded = np.pad(mask, 1)
            kept = mask.copy()
            for ax in range(self.ndim):
                for side in (slice(None, -2), slice(2, None)):
                    kept &= padded[tuple(side if k == ax else slice(1, -1)
                                         for k in range(self.ndim))]
            mask = kept
        return self if mask is self.mask else replace(self, mask=mask)

    def refine(self, factor: int) -> "GridDomain":
        """Split every cell into factor**n subcells, keeping the same set."""
        if factor == 1:
            return self
        shape = tuple(s * factor for s in self.shape)
        mask = self.mask
        for ax in range(self.ndim):
            mask = np.repeat(mask, factor, axis=ax)
        return GridDomain(self.lo, self.hi, shape, mask)

    def __repr__(self):
        return (f"GridDomain(shape={self.shape}, cells={int(self.mask.sum())}, "
                f"|A|={self.volume:.6g})")


@dataclass(frozen=True)
class GatherTable:
    """A sparse matrix stored for gathers.  Row i of `table @ v` is

        0.0 + w[i, 0] * v[c[i, 0]] + w[i, 1] * v[c[i, 1]] + ...

    summed slot by slot, the order in which a CSR product sums a row whose
    entries are stored in slot order.  The rows are held as jagged diagonals:
    stored row r has its slot k in `cols[k][r]` and `weights[k][r]`, slot k
    covers the first len(cols[k]) stored rows (non-increasing lengths), so a
    row has no slot it does not use.  Output row i is stored row `rank[i]`,
    or row i when `rank` is None."""

    cols: object     # per slot, an integer array (or the rows of a 2-d one)
    weights: object  # per slot, a float array of the same length
    shape: tuple
    rank: Optional[np.ndarray] = None

    @classmethod
    def from_entries(cls, widths, chunks, columns: int) -> "GatherTable":
        """The table of `columns` columns whose row r holds widths[r] entries,
        read once from `chunks` of entries, each a triple of arrays (rows,
        cols, weights).  An entry's slot counts its row's entries placed
        before it: those of earlier chunks, then those earlier in its chunk.
        So a row sums its entries in arrival order: entries in CSR order give
        the CSR product, and the same entries with rows and cols swapped give
        the CSR transpose's, which orders each column's entries by row."""
        # rows are stored by decreasing width (stably), so slot k covers the
        # rows wider than k, at starts[k]:starts[k + 1]
        rank = np.empty(len(widths), dtype=np.intp)
        rank[np.argsort(-widths, kind="stable")] = np.arange(len(widths))
        wider = len(widths) - np.cumsum(np.bincount(widths))[:-1]
        starts = np.concatenate([[0], np.cumsum(wider)])
        cols = np.empty(starts[-1], dtype=np.intp)
        weights = np.empty(starts[-1])
        seen = np.zeros(len(widths), dtype=np.intp)  # entries placed per row
        for r, c, w in chunks:
            by_row = np.argsort(r, kind="stable")  # arrival order within a row
            ordered = r[by_row]
            first = np.ones(len(r), dtype=bool)  # where a row's entries start
            np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
            heads = np.flatnonzero(first)
            runs = np.diff(heads, append=len(r))
            rows = ordered[heads]  # each run's row
            slots = np.empty_like(by_row)
            slots[by_row] = np.arange(len(r)) - np.repeat(heads - seen[rows], runs)
            seen[rows] += runs
            pos = starts[slots] + rank[r]
            cols[pos] = c
            weights[pos] = w
        return cls(np.split(cols, starts[1:-1]), np.split(weights, starts[1:-1]),
                   (len(widths), columns), None if (np.diff(widths) <= 0).all() else rank)

    def __matmul__(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != self.shape[1:]:
            raise ValueError(f"a table of shape {self.shape} cannot take a vector of shape "
                             f"{v.shape}")
        out = np.zeros(self.shape[0])
        # like a CSR product, this one raises and warns about nothing: an
        # overflow or a nan propagates into the result
        with np.errstate(all="ignore"):
            for c, w in zip(self.cols, self.weights):
                out[:len(c)] += w * v.take(c)
        return out if self.rank is None else out.take(self.rank)


@dataclass(frozen=True)
class ScalarField:
    """A real-valued function on the group.

    values : vectorized evaluator, (N, n) -> (N,)
    hgrad  : optional horizontal gradient, (N, n) -> (N, m)
    domain : set the field is defined on (None = everywhere)
    slope  : the horizontal gradient, shape (m,), when it is the same at every
             point (linear probes, constants); None says nothing about it
    """

    values: Callable
    hgrad: Optional[Callable] = None
    domain: Optional[GridDomain] = None
    name: str = "field"
    slope: Optional[np.ndarray] = dc_field(default=None, compare=False)

    def __call__(self, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.asarray(self.values(points), dtype=float)

    def shifted(self, c: float) -> "ScalarField":
        return replace(self, values=lambda p, _v=self.values: _v(p) + c,
                       name=f"{self.name}+{c:g}")

    def __add__(self, other: "ScalarField") -> "ScalarField":
        hg = None
        if self.hgrad is not None and other.hgrad is not None:
            hg = lambda p, a=self.hgrad, b=other.hgrad: a(p) + b(p)
        return ScalarField(lambda p, a=self.values, b=other.values: a(p) + b(p),
                           hgrad=hg, name=f"{self.name}+{other.name}")

    def scaled(self, s: float) -> "ScalarField":
        hg = None if self.hgrad is None else (lambda p, g=self.hgrad: s * g(p))
        return ScalarField(lambda p, v=self.values: s * v(p), hgrad=hg,
                           name=f"{s:g}*{self.name}")


# -- field constructors ------------------------------------------------------


def constant_field(group: StratifiedGroup, c: float) -> ScalarField:
    return ScalarField(
        values=lambda p: np.full(len(np.atleast_2d(p)), float(c)),
        hgrad=lambda p: np.zeros((len(np.atleast_2d(p)), group.m)),
        name=f"const({c:g})",
        slope=np.zeros(group.m),
    )


def probe_field(group: StratifiedGroup, xi) -> ScalarField:
    """The linear probe <xi, P(x)> over the horizontal layer: its horizontal
    gradient is identically xi."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (group.m,):
        raise ValueError(f"probe direction must have length m={group.m}")
    m = group.m

    def values(p):
        return np.atleast_2d(p)[..., :m] @ xi

    return ScalarField(
        values=values,
        hgrad=lambda p: np.broadcast_to(xi, (len(np.atleast_2d(p)), m)).copy(),
        name=f"probe({np.array2string(xi, precision=3)})",
        slope=xi,
    )


def from_expression(group: StratifiedGroup, expr) -> ScalarField:
    """Closed-form field from an expression in x1..xn (see
    :mod:`carnot.expression` for the grammar), named by its text.

    The expression is parsed, never evaluated as Python.  One pass over it
    gives the Euclidean gradient with the values; the horizontal gradient then
    comes from the group's structure constants.  Raises ValueError when the
    text does not parse or leaves the grammar; non-finite values are the
    caller's to reject.
    """
    from .expression import Expression  # only expression fields (gamma's) need it

    parsed = Expression(expr, group.n)
    return ScalarField(values=parsed.values, hgrad=_hgrad_from_egrad(group, parsed.egrad),
                       name=expr)


def _hgrad_from_egrad(group: StratifiedGroup, egrad: Callable) -> Callable:
    def hgrad(p):
        p = np.atleast_2d(p)
        return group.hgrad_from_egrad(p, egrad(p))

    return hgrad


def quadratic_field(group: StratifiedGroup, const: float, lin, quad=None,
                    name: str = "poly2") -> ScalarField:
    """c + <l, x> + x^T Q x with numpy evaluators (faster than an expression
    for randomized property checks)."""
    n = group.n
    lin = np.asarray(lin, dtype=float).reshape(n)
    quad = np.zeros((n, n)) if quad is None else np.asarray(quad, dtype=float).reshape(n, n)
    sym = quad + quad.T

    def values(p):
        p = np.atleast_2d(p)
        return const + p @ lin + _quadratic_form(p, quad)

    def egrad(p):
        return _add_row(np.atleast_2d(p) @ sym, lin)

    return ScalarField(values=values, hgrad=_hgrad_from_egrad(group, egrad), name=name)


# -- translation operators ----------------------------------------------------


def translate_field(group: StratifiedGroup, y, u: ScalarField) -> ScalarField:
    """Left translation of a field: (tau_y u)(x) = u(y^{-1} . x).  Its
    horizontal gradient is u's pulled back the same way, by left-invariance
    of the frame: X_j(tau_y u) = tau_y(X_j u)."""
    y_inv = group.inverse(y)

    def pull(p):
        return group.multiply(y_inv, np.atleast_2d(p))

    hgrad = None if u.hgrad is None else (lambda p: u.hgrad(pull(p)))
    return ScalarField(values=lambda p: u.values(pull(p)), hgrad=hgrad,
                       name=f"tau[{np.array2string(np.asarray(y, float), precision=3)}]{u.name}")


def translate_domain(group: StratifiedGroup, y, domain: GridDomain) -> GridDomain:
    """Left translation of a set: tau_y A = {x : y^{-1} . x in A}, re-boxed
    on the same spacing and masked by indicator pullback of cell centers."""
    if domain.is_empty:
        raise DomainError("cannot translate an empty domain")
    y = np.asarray(y, dtype=float)
    h = domain.spacing
    # snap the new box so translated cell centers land on cell centers again
    images = group.multiply(y, domain.centers())
    lo = images.min(axis=0) - 1.5 * h
    hi_target = images.max(axis=0) + 1.5 * h
    shape = tuple(int(np.ceil(v - 1e-12)) for v in (hi_target - lo) / h)
    hi = lo + h * np.asarray(shape)
    boxed = GridDomain.box(lo, hi, shape)
    pulled = group.multiply(group.inverse(y), boxed.all_centers())
    mask = domain.contains(pulled).reshape(shape)
    out = GridDomain(lo, hi, shape, mask)
    if out.is_empty:
        raise DomainError("translated domain has an empty mask")
    return out


# -- horizontal differentiation ----------------------------------------------


def horizontal_gradient(group: StratifiedGroup, u: ScalarField, points,
                        mode: str = "analytic", h: float = 1e-3) -> np.ndarray:
    """Horizontal gradient (X_1 u, .., X_m u) at the given points.

    analytic mode uses the field's horizontal gradient evaluator; group-fd mode
    takes central differences along the group exponential directions
    x . (t e_j), which is what X_j means off the horizontal layer.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if mode == "analytic":
        if u.hgrad is None:
            raise ValueError(f"field {u.name!r} has no closed-form gradient; use mode='group-fd'")
        return np.atleast_2d(np.asarray(u.hgrad(points), dtype=float))
    if mode != "group-fd":
        raise ValueError(f"unknown gradient mode {mode!r}")
    out = np.empty((len(points), group.m))
    for j in range(group.m):
        step = np.zeros(group.n)
        step[j] = h
        fwd = u(group.multiply(points, step))
        bwd = u(group.multiply(points, -step))
        out[:, j] = (fwd - bwd) / (2.0 * h)
    return out


def _lp_norm(w: np.ndarray, cellvol: float, p: float) -> float:
    """The discrete L^p norm (sum of |w|^p cellvol)^(1/p) of cell values w.
    Where |w|^p overflows (a large p), the sum is taken over w / max|w|."""
    w = np.abs(w)
    with np.errstate(over="ignore"):
        total = np.sum(w ** p) * cellvol
        if not np.isfinite(total) and np.isfinite(top := w.max()):
            return float(top * (np.sum((w / top) ** p) * cellvol) ** (1.0 / p))
    return float(total ** (1.0 / p))
