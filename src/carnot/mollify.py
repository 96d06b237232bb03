"""Mollifier families and the group-local convolution.

The convolution is evaluated through its unit-ball form
    (phi_eps * u)(x) = integral over B(0,1) of phi(z) u((delta_eps z)^{-1} . x) dz
with a fixed midpoint product rule, so convolving a constant is exact and
the node set is symmetric under negation.

A `MollifierFamily` owns its scale operators.  `average(eps, omega)` builds
the `LocalAverage` of one scale and domain once: the eps-erosion of omega,
the live node masses m_k and the inverses y_k^{-1} of the scaled nodes.
Every average x -> sum_k m_k g(y_k^{-1} . x) runs one chunk of _CHUNK query
points at a time, so the group law's products y_k^{-1} . x_i, its
temporaries and g's samples stay one chunk in size.  Nothing is memoized
across calls: a caller that needs several averages of one point set at one
scale (values and gradients, several fields, or a field and f of its
gradient) asks for them in one call, whose evaluator returns them all from
one pull-back per chunk.  Two mollifiers share nothing.  Whether the points
lie in the eroded domain is checked on every query.
"""

from __future__ import annotations

from dataclasses import dataclass, replace, field as dc_field

import numpy as np

from .groups import StratifiedGroup, HomogeneousNorm
from .fields import GridDomain, ScalarField, DomainError, horizontal_gradient, _lp_norm

__all__ = (
    "MollifierFamily",
    "erode_domain",
    "LocalAverage",
    "convolve",
    "commutation_residual",
    "convergence_table",
)

_CHUNK = 64
# the scale operators a mollifier holds before it drops them all
_AVERAGES_HELD = 64


@dataclass(frozen=True)
class MollifierFamily:
    """A radial bump profile on the unit ball of a homogeneous norm.

    The base profile is exp(-1/(1 - rho(x)^2)) inside the unit ball, zero
    outside, normalized so that the fixed quadrature rule integrates it to
    exactly one.  Radiality in rho makes the profile symmetric, since
    rho(-x) = rho(x).
    """

    norm: HomogeneousNorm
    resolution: int
    nodes: np.ndarray = dc_field(init=False, repr=False)
    node_weight: float = dc_field(init=False, repr=False)
    normalization: float = dc_field(init=False, repr=False)
    _averages: dict = dc_field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        g = self.group
        if g.n > 4:
            raise ValueError("product-rule quadrature is capped at n <= 4 axes")
        if self.resolution < 3:
            raise ValueError("quadrature resolution must be at least 3")
        axes = [-1.0 + (np.arange(self.resolution) + 0.5) * (2.0 / self.resolution)] * g.n
        grids = np.meshgrid(*axes, indexing="ij")
        nodes = np.stack([a.ravel() for a in grids], axis=-1)
        weight = (2.0 / self.resolution) ** g.n
        raw = self._raw(nodes)
        total = float(raw.sum() * weight)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "node_weight", weight)
        object.__setattr__(self, "normalization", total)
        nodes.setflags(write=False)

    @property
    def group(self) -> StratifiedGroup:
        return self.norm.group

    def _raw(self, points) -> np.ndarray:
        rho = self.norm(np.atleast_2d(points))
        out = np.zeros_like(rho)
        inside = rho < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - rho[inside] ** 2))
        return out

    def profile(self, points) -> np.ndarray:
        """The normalized base profile phi, supported in B(0, 1)."""
        return self._raw(points) / self.normalization

    def scaled(self, eps: float, points) -> np.ndarray:
        """phi_eps(x) = eps^{-Q} phi(delta_{1/eps} x), supported in B(0, eps)."""
        if eps <= 0:
            raise ValueError("mollifier scale must be positive")
        g = self.group
        shrunk = g.dilate(1.0 / eps, np.atleast_2d(points))
        return self.profile(shrunk) / eps ** g.homogeneous_dimension()

    def node_masses(self) -> np.ndarray:
        """Quadrature masses w * phi(z_k); they sum to one by normalization."""
        return self.profile(self.nodes) * self.node_weight

    def unit_mass(self, eps: float) -> float:
        """Quadrature of phi_eps over B(0, eps)."""
        scale = self.group.dilate(eps, self.nodes)
        jac = eps ** self.group.homogeneous_dimension()
        return float(np.sum(self.scaled(eps, scale)) * self.node_weight * jac)

    def average(self, eps: float, omega: GridDomain) -> "LocalAverage":
        """The scale operator of phi_eps on `omega`, built once per eps and
        domain (its lo, hi, shape and mask); raises DomainError when the
        eps-erosion of `omega` is empty."""
        eps = float(eps)
        key = (eps, omega.lo.tobytes(), omega.hi.tobytes(), omega.shape, omega.mask.tobytes())
        average = self._averages.get(key)
        if average is None:
            g = self.group
            eroded = erode_domain(g, self.norm, omega, eps)
            if eroded.is_empty:
                raise DomainError(f"erosion by eps={eps} empties the domain")
            masses = self.node_masses()
            live = masses > 0
            average = LocalAverage(g, eps, eroded, masses[live],
                                   g.inverse(g.dilate(eps, self.nodes[live])))
            if len(self._averages) >= _AVERAGES_HELD:
                self._averages.clear()
            self._averages[key] = average
        return average


# erosion batches: a tile's first batch tests _FIRST_CELLS candidate cells,
# each later one twice as many, capped at _MAX_PAIRS (center, cell) pairs
_FIRST_CELLS = 64
_MAX_PAIRS = 1 << 16
_TILE_CENTERS = 16


def _column_offsets(mask: np.ndarray, m: int) -> np.ndarray:
    """Offsets of each horizontal column's cells among the true cells of
    `mask` in C order; the m horizontal axes lead, so a column's vertical
    cells are contiguous."""
    per_column = mask.reshape(int(np.prod(mask.shape[:m])), -1).sum(axis=1)
    return np.concatenate([[0], np.cumsum(per_column)])


def _window_offsets(reach: np.ndarray, length: int, h: np.ndarray) -> np.ndarray:
    """Offsets from a tile's first column to every column within `reach` of a
    tile of `length` columns along the last horizontal axis, nearest first:
    C order, stably sorted by the distance to the tile."""
    last = np.zeros_like(reach)
    last[-1] = length - 1
    ranges = [np.arange(-r, b + r + 1) for r, b in zip(reach, last)]
    near = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, len(reach))
    gap = np.maximum(np.maximum(-near, near - last), 0) * h
    return near[np.argsort(gap.max(axis=1), kind="stable")]


def erode_domain(group: StratifiedGroup, norm: HomogeneousNorm,
                 omega: GridDomain, eps: float) -> GridDomain:
    """Right-distance erosion: cells whose center is farther than eps (in d^R)
    from every complement cell center, including a ring outside the box.

    Exact horizontal window.  Brackets land in layers >= 2, so on a horizontal
    axis k the product z = x.y^{-1} has z_k = fl(x_k - y_k), and both norms
    give rho(z) >= |z_k|(1 - 4u), u = 2^-53 (the Koranyi norm rounds two
    squares, a sum and a fourth root; the weighted-max norm is exact there).
    Let h be the box spacing on axis k and W = max(|lo_k|, |hi_k|) over the
    padded box, so W bounds every coordinate, the pad width and eps.  The ideal
    centers lo + h(i + 1/2) of the box and of its padded lattice, whose corner
    is lo - p.h, differ by exactly d.h, d the integer cell offset.  Computing a
    box center as fl(lo + fl(h(i + 1/2))) errs by at most 3uW; the padded
    lattice rounds its corner (2uW), its spacing fl(fl(hi' - lo')/s') (12uW
    over the whole axis) and each center (3uW), 17uW in all.  So a pair with
    rho(z) <= eps has |d| h <= eps(1 + 5u) + 20uW, and with two more roundings
    in forming eps/h + margin, |d| <= eps/h + (7 eps + 20W)u/h <= eps/h + 27uW/h
    to first order.  The window reach_k = floor(eps/h + 32uW/h) therefore holds
    every killer; no pair outside it is evaluated, and every pair inside is
    tested exactly.  The ring's pad stays ceil(eps^w/h) + 1 per axis, because
    it defines which complement cells exist.

    Centers are taken one tile at a time: a horizontal column (all vertical
    cells over one horizontal cell), or a short run of neighbouring columns
    when columns hold few cells.  A tile's candidates are the complement cells
    of the columns within reach of it, nearest column first, in batches that
    grow geometrically; a tile stops as soon as each of its centers has a
    complement cell within eps.  A tile with no complement cell within reach
    keeps all its centers and is skipped before its candidates are set up."""
    if eps <= 0:
        raise ValueError("erosion radius must be positive")
    m = group.m
    h = omega.spacing
    pad = np.ceil(eps ** group.weights.astype(float) / h).astype(int) + 1
    padded = GridDomain.box(omega.lo - pad * h, omega.hi + pad * h,
                            tuple(s + 2 * p for s, p in zip(omega.shape, pad)))
    inner = np.zeros(padded.shape, dtype=bool)
    inner[tuple(slice(p, p + s) for p, s in zip(pad, omega.shape))] = omega.mask
    columns = padded.shape[:m]
    comp_inv = group.inverse(padded.all_centers()[~inner.ravel()])
    col_start = _column_offsets(~inner, m)
    has_comp = np.diff(col_start).reshape(columns) > 0
    coord_max = np.maximum(np.abs(padded.lo), np.abs(padded.hi))[:m]  # W
    u = np.finfo(float).eps / 2
    reach = np.floor(eps / h[:m] + 32 * u * coord_max / h[:m]).astype(int)

    centers = omega.centers()
    bounds = _column_offsets(omega.mask, m)
    keep = np.ones(len(centers), dtype=bool)
    # a tile is a run of columns along the last horizontal axis holding about
    # _TILE_CENTERS cells: one column when columns are tall, several when they
    # are short (m = n leaves one cell per column)
    last = omega.shape[m - 1]
    run = max(1, _TILE_CENTERS // int(np.prod(omega.shape[m:])))
    tiles = [(t, min(t + run, row + last)) for row in range(0, len(bounds) - 1, last)
             for t in range(row, row + last, run)]
    # the pad exceeds the reach (reach <= ceil(eps/h) = pad - 1 while 32uW < h),
    # so every tile's window lies inside the padded lattice
    tile_los = np.stack(np.unravel_index([t0 for t0, _ in tiles], omega.shape[:m]),
                        axis=-1) + pad[:m]
    offsets = {}
    for (t0, t1), tile_lo in zip(tiles, tile_los):
        if bounds[t0] == bounds[t1]:
            continue
        tile_hi = tile_lo.copy()
        tile_hi[-1] += t1 - t0 - 1
        window = tuple(slice(a - r, b + r + 1) for a, b, r in zip(tile_lo, tile_hi, reach))
        if not has_comp[window].any():
            continue
        if t1 - t0 not in offsets:
            offsets[t1 - t0] = _window_offsets(reach, t1 - t0, h[:m])
        near = tile_lo + offsets[t1 - t0]
        col = np.ravel_multi_index(tuple(near.T), columns)
        first, counts = col_start[col], col_start[col + 1] - col_start[col]
        cand = np.arange(counts.sum()) + np.repeat(first - np.cumsum(counts) + counts, counts)
        block = centers[bounds[t0]:bounds[t1]]
        alive = keep[bounds[t0]:bounds[t1]]
        done, size = 0, _FIRST_CELLS
        while done < len(cand) and alive.any():
            live = np.flatnonzero(alive)
            cells = cand[done:done + max(1, min(size, _MAX_PAIRS // len(live)))]
            prod = group.multiply(block[live, None, :], comp_inv[None, cells, :])
            alive[live[(norm(prod) <= eps).any(axis=1)]] = False
            done += len(cells)
            size *= 2
    mask = np.zeros(omega.shape, dtype=bool)
    mask.ravel()[np.flatnonzero(omega.mask.ravel())[keep]] = True
    return replace(omega, mask=mask)


@dataclass(frozen=True)
class LocalAverage:
    """x -> sum_k m_k g(y_k^{-1} . x), the quadrature form of phi_eps * g, over
    the nodes y_k = delta_eps z_k of positive mass m_k; queries must lie in
    `domain`, the eps-erosion of the field's domain.  Each call pulls its
    points back afresh, so callers batch every output they need at this scale
    and these points into one evaluator."""

    group: StratifiedGroup
    eps: float
    domain: GridDomain
    masses: np.ndarray
    y_inv: np.ndarray

    def __call__(self, g, points) -> list:
        """The averages of each output of g, where g maps (P, n) points to a
        tuple of per-point arrays; each average takes its trailing shape from
        g's first chunk, and g sees each chunk of pulled-back points once."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if not self.domain.contains(points).all():
            raise DomainError("convolution queried outside the eroded domain")
        outs = []
        # one pass even without points, so the outputs' shapes are known; g's
        # outputs are not held while g evaluates the next chunk, which would
        # cost fresh memory on every chunk
        for start in range(0, max(len(points), 1), _CHUNK):
            pts = self.group.multiply(self.y_inv[None], points[start:start + _CHUNK, None])
            for k, vals in enumerate(g(pts.reshape(-1, self.group.n))):
                vals = vals.reshape(pts.shape[:2] + vals.shape[1:])
                if k == len(outs):
                    outs.append(np.empty((len(points),) + vals.shape[2:]))
                outs[k][start:start + len(pts)] = np.moveaxis(vals, 1, -1) @ self.masses
        return outs


def convolve(mollifier: MollifierFamily, eps: float, u: ScalarField,
             omega: GridDomain) -> ScalarField:
    """Local convolution phi_eps * u, defined on the eroded domain.

    The returned field's horizontal gradient, when u carries one, is the
    convolution of the gradient node-by-node, which is the commutation
    identity X_j(phi_eps * u) = phi_eps * (X_j u)."""
    average = mollifier.average(eps, omega)

    def values(points):
        return average(lambda p: (u.values(p),), points)[0]

    hgrad = None
    if u.hgrad is not None:
        def hgrad(points):
            return average(lambda p: (horizontal_gradient(mollifier.group, u, p),), points)[0]

    return ScalarField(values=values, hgrad=hgrad, domain=average.domain,
                       name=f"phi_{eps:g}*{u.name}")


# the commutation check's group-difference step and its sample-point budget
_COMMUTATION_FD_STEP = 1e-3
_COMMUTATION_POINTS = 64


def commutation_residual(mollifier: MollifierFamily, eps: float, u: ScalarField,
                         omega: GridDomain) -> float:
    """max |X_j(phi_eps * u) - phi_eps * (X_j u)| over every horizontal
    direction j and at most _COMMUTATION_POINTS interior cell centers, the
    left side taken by a central group difference of the convolved values."""
    u_eps = convolve(mollifier, eps, u, omega)
    # stay a ring of cells inside the eroded mask so fd queries remain legal
    interior = u_eps.domain.erode_cells(1)
    if interior.is_empty:
        raise DomainError("eroded domain too small for a finite-difference check")
    pts = interior.centers()
    if len(pts) > _COMMUTATION_POINTS:
        idx = np.linspace(0, len(pts) - 1, _COMMUTATION_POINTS).astype(int)
        pts = pts[idx]
    lhs = horizontal_gradient(mollifier.group, u_eps, pts, mode="group-fd",
                              h=_COMMUTATION_FD_STEP)
    rhs = u_eps.hgrad(pts)
    return float(np.abs(lhs - rhs).max())


def convergence_table(mollifier: MollifierFamily, u: ScalarField, omega: GridDomain,
                      inner: GridDomain, p: float, eps_list) -> list:
    """Rows (eps, Lp_err, W1p_err) of the mollification errors over `inner`,
    the values and gradients of phi_eps * u from one average per eps.

    Requires `inner` to be nonempty and to sit inside the eroded domain for
    every eps; the average raises DomainError where it does not."""
    if inner.is_empty:
        raise DomainError("convergence table needs a nonempty inner set")
    rows = []
    pts = inner.centers()
    vol = inner.cell_volume
    base_vals = u.values(pts)
    base_grad = horizontal_gradient(mollifier.group, u, pts)
    for eps in sorted(eps_list, reverse=True):
        vals, grads = mollifier.average(eps, omega)(
            lambda q: (u.values(q), horizontal_gradient(mollifier.group, u, q)), pts)
        dv = vals - base_vals
        dg = np.linalg.norm(grads - base_grad, axis=-1)
        rows.append({
            "epsilon": float(eps),
            "Lp_err": _lp_norm(dv, vol, p),
            "W1p_err": _lp_norm(dg, vol, p),
        })
    return rows
