"""Mollifier families and the group-local convolution.

The convolution is evaluated through its unit-ball form
    (phi_eps * u)(x) = integral over B(0,1) of phi(z) u((delta_eps z)^{-1} . x) dz
with a fixed midpoint product rule, so convolving a constant is exact up to
rounding and the node set is symmetric under negation.

`MollifierFamily.average(eps, omega)` builds the `LocalAverage` of one scale
and domain: the eps-erosion of omega, the live node masses m_k and the
inverses y_k^{-1} of the scaled nodes.  The mollifier keeps none of them: a
caller builds each scale's operator once and passes it to `convolve`,
`commutation_residual`, `convergence_table` and the Jensen and sandwich
checks of `functionals`, which read the group, the eroded domain and eps
from it.  Every average x -> sum_k m_k g(y_k^{-1} . x) runs one chunk of
query points at a time, as many as fit their K products y_k^{-1} . x_i in
_BATCH_BYTES (at least one point), so the group law's products, its
temporaries and g's samples stay a fixed working set whatever K is; the
erosion tests its (center, offset) pairs in batches under the same budget.
Each point sums its nodes by a product of its own, so its average, to the
last bit, depends neither on the chunk size nor on the other points queried.
Nothing is memoized across calls either: a caller that needs several
averages of one point set at one scale (values and gradients, several
fields, or a field and f of its gradient) asks for them in one call, whose
evaluator returns them all from one pull-back per chunk; an evaluator whose
outputs are the same at every point, such as a linear probe's gradient, is
averaged at one point (`LocalAverage.constant`).  Whether the points lie in
the eroded domain is checked on every query.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace, field as dc_field

import numpy as np

from .groups import StratifiedGroup, HomogeneousNorm, _row_norm
from .fields import GridDomain, ScalarField, DomainError, horizontal_gradient, _lp_norm

__all__ = (
    "MollifierFamily",
    "erode_domain",
    "LocalAverage",
    "convolve",
    "commutation_residual",
    "convergence_table",
)

# the bytes of one average chunk's products y_k^{-1} . x_i (at least one
# point's) and of one erosion batch's pairs, 8n each (at least one offset's)
_BATCH_BYTES = 1 << 18


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
        """The scale operator of phi_eps on `omega`; raises DomainError when
        the eps-erosion of `omega` is empty."""
        eps = float(eps)
        g = self.group
        eroded = erode_domain(g, self.norm, omega, eps)
        if eroded.is_empty:
            raise DomainError(f"erosion by eps={eps} empties the domain")
        masses = self.node_masses()
        live = masses > 0
        return LocalAverage(g, eps, eroded, masses[live],
                            g.inverse(g.dilate(eps, self.nodes[live])))


# the erosion window's relative slack theta, which absorbs every rounding
# between a computed kill and the window's bound (erode_domain derives it)
_WINDOW_SLACK = 2.0 ** -30


def _box_counts(grid: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The number of true cells of `grid` in each box of index rows lo..hi
    (inclusive, inside the grid), by inclusion-exclusion over the 2^ndim
    corners of the boxes in a summed-area table."""
    table = np.zeros(tuple(s + 1 for s in grid.shape), dtype=np.int64)
    table[(slice(1, None),) * grid.ndim] = grid
    for axis in range(grid.ndim):
        np.cumsum(table, axis=axis, out=table)
    total = np.zeros(len(lo), dtype=np.int64)
    for corner in itertools.product((0, 1), repeat=grid.ndim):
        at = tuple(np.where(c, hi[:, k] + 1, lo[:, k]) for k, c in enumerate(corner))
        total += (-1) ** (grid.ndim - sum(corner)) * table[at]
    return total


def erode_domain(group: StratifiedGroup, norm: HomogeneousNorm,
                 omega: GridDomain, eps: float) -> GridDomain:
    """Right-distance erosion: cells whose center is farther than eps (in d^R)
    from every complement cell center, including a ring outside the box.

    Exact window in every layer.  If a complement center c kills a center x,
    z = x.c^{-1} has rho(z) <= eps, so |z_k| <= eps^{w_k} under both norms.
    Then c = z^{-1}.x, the BCH series of -z and x, whose head is x - z, so
    |c_k - x_k| <= E_k(x) = b_k + T_k(b, |x|) for b = eps^w, where T bounds the
    series past its head term by term (`StratifiedGroup.bch_bound`, which also
    bounds `GridDomain.ball`'s box).  Brackets land in layers >= 2, so E_k = eps
    on a horizontal axis; above, E grows with x's lower layers (on H^1,
    E_3 = eps^2 + eps(|x_1| + |x_2|)/2).  Complement centers lie on the padded
    lattice, d_k cells from x along axis k, d_k an integer, so no pair with
    |d_k| h_k > E_k(x) can kill.

    Rounding, u = 2^-53.  Let W be the padded box's corner magnitudes
    max(|lo_k|, |hi_k|), which bound every coordinate, and P = 2W + T(W, W),
    which bounds the absolute evaluation of every product x.c^{-1} the test
    forms.  Four roundings part the computed test from that bound, each a
    relative error far below theta = 2^-30 of the magnitudes it involves:
      - a computed rho(z~) <= eps gives |z~_k| <= (eps(1 + 1500u))^{w_k}: the
        weighted-max norm rounds its exponent 1/w_k, which moves rho by at
        most u |ln eps| <= 745u near eps, and its power; the Koranyi norm
        rounds n + 4 squares, sums and a root;
      - the computed product z~ lies within D u P_k of z, where D = 12 +
        (step - 1)(4 + s) bounds the roundings along any path of the BCH
        evaluation and s < n^2/2 counts the structure constants landing on one
        coordinate, so D < 2^21 for n < 1000;
      - a computed box center lies within 3uW_k of its ideal lattice point
        lo + h(i + 1/2), and a padded one within 17uW_k: its corner lo - p.h
        (2uW), its spacing fl(fl(hi' - lo')/s') (12uW over the whole axis) and
        the center itself (3uW);
      - evaluating E and dividing it by h_k.
    So with b = (eps(1 + theta))^w + theta P and E~ = b + T(b, |x|) + theta P,
    every killer has |d_k| <= reach_k(x) = floor((1 + theta) E~_k(x) / h_k).
    An overflow gives an infinite or NaN extent, which means the whole
    lattice.  The ring's pad stays ceil(eps^w/h) + 1 per axis, because it
    defines which complement cells exist.

    One pass over lattice offsets serves every center.  A summed-area count
    over the padded lattice finds the centers with a complement cell in their
    window; the others keep their cell untested.  The offsets d with |d_k| at
    most the largest reach of those centers are walked nearest first (by
    max_k |d_k| h_k), in batches of at most _BATCH_BYTES / 8n (center, offset)
    pairs, at least one offset each.
    A pair is multiplied only when x + d lies in the center's window and is a
    complement cell, and a center leaves the pass once a complement cell lies
    within eps.  Every pair that can kill is tested exactly, so the mask does
    not depend on the order of the pairs.

    Raises DomainError when the padded lattice, whose cells carry n floats
    each, is too large to allocate."""
    if eps <= 0:
        raise ValueError("erosion radius must be positive")
    h = omega.spacing
    w = group.weights.astype(float)
    span = np.ceil(eps ** w / h)
    # counted in Python ints, which no pad overflows
    cells = math.prod(s + 2 * int(p) + 2 for s, p in zip(omega.shape, span))
    message = f"erosion by eps={eps} needs a padded lattice of {cells} cells, too many to allocate"
    if cells * 8 * group.n > np.iinfo(np.intp).max:
        raise DomainError(message)
    pad = span.astype(int) + 1
    centers = omega.centers()
    center_idx = np.argwhere(omega.mask) + pad
    theta = _WINDOW_SLACK
    try:
        padded = GridDomain.box(omega.lo - pad * h, omega.hi + pad * h,
                                tuple(s + 2 * p for s, p in zip(omega.shape, pad)))
        outside = np.ones(padded.shape, dtype=bool)
        outside[tuple(slice(p, p + s) for p, s in zip(pad, omega.shape))] = ~omega.mask
        comp_inv = group.inverse(padded.all_centers()[outside.ravel()])
        # each padded cell's place among the complement cells, read at complement cells
        comp_at = np.cumsum(outside.ravel()) - 1
    except MemoryError as exc:
        raise DomainError(message) from exc
    with np.errstate(over="ignore", invalid="ignore"):
        corner = np.maximum(np.abs(padded.lo), np.abs(padded.hi))
        slack = theta * group.bch_bound(corner, corner, 2 * corner)
        b = (eps * (1 + theta)) ** w + slack
        extent = group.bch_bound(b, np.abs(centers), b) + slack
        # fmin takes the lattice's extent over NaN, as over inf
        reach = np.floor(np.fmin((1 + theta) * extent / h, padded.shape)).astype(int)
    # each center's window, clipped to the padded lattice
    lo = np.maximum(center_idx - reach, 0)
    hi = np.minimum(center_idx + reach, np.array(padded.shape) - 1)
    live = np.flatnonzero(_box_counts(outside, lo, hi))
    ranges = [np.arange(-r, r + 1) for r in reach[live].max(axis=0, initial=0)]
    d = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, group.n)
    d = d[np.argsort((np.abs(d) * h).max(axis=1), kind="stable")]
    # C-order strides of the padded lattice, one byte per cell
    stride = np.array(outside.strides)
    center_at, step = center_idx @ stride, d @ stride
    keep = np.ones(len(centers), dtype=bool)
    done = 0
    while done < len(d) and len(live):
        batch = slice(done, done + max(1, _BATCH_BYTES // (8 * group.n * len(live))))
        offsets = d[batch]
        inside = np.ones((len(live), len(offsets)), dtype=bool)
        for k in range(group.n):
            to = center_idx[live, k, None] + offsets[:, k]
            inside &= (lo[live, k, None] <= to) & (to <= hi[live, k, None])
        x, c = np.nonzero(inside)
        at = center_at[live[x]] + step[batch][c]
        hit = outside.ravel()[at]
        if hit.any():
            x = live[x[hit]]
            prod = group.multiply(centers[x], comp_inv[comp_at[at[hit]]])
            keep[x[norm(prod) <= eps]] = False
            live = live[keep[live]]
        done = batch.stop
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
        """The averages of each output of g, where g maps (P, n) points to an
        iterable of per-point arrays; each average takes its trailing shape from
        g's first chunk, and g sees each chunk of pulled-back points once."""
        points = self._checked(points)
        outs = []
        chunk = max(1, _BATCH_BYTES // self.y_inv.nbytes)
        # one pass even without points, so the outputs' shapes are known; g's
        # outputs are not held while g evaluates the next chunk, which would
        # cost fresh memory on every chunk
        for start in range(0, max(len(points), 1), chunk):
            pts = self.group.multiply(self.y_inv[None], points[start:start + chunk, None])
            for k, vals in enumerate(g(pts.reshape(-1, self.group.n))):
                if k == len(outs):
                    outs.append(np.empty((len(points),) + vals.shape[1:]))
                # (points, nodes, columns), one column for a scalar, so that
                # every point sums its nodes by a product of its own
                cols = math.prod(vals.shape[1:])
                vals = vals.reshape(pts.shape[:2] + (cols,))
                outs[k].reshape(len(points), cols)[start:start + len(pts)] = (
                    vals.swapaxes(1, 2) @ self.masses)
        return outs

    def constant(self, g, points) -> list:
        """`self(g, points)` for an evaluator g whose outputs are the same at
        every point, such as a linear probe's gradient: the averages at the
        first point, repeated over all of them.  Every point is checked
        against the domain as in `__call__`, and only the first is pulled back.
        A point's average does not depend on the other points, so the bits
        agree with `__call__`'s."""
        points = self._checked(points)
        return [np.repeat(out, len(points), axis=0) for out in self(g, points[:1])]

    def _checked(self, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if not self.domain.contains(points).all():
            raise DomainError("convolution queried outside the eroded domain")
        return points


def convolve(average: LocalAverage, u: ScalarField) -> ScalarField:
    """Local convolution phi_eps * u at the scale of `average`, defined on its
    eroded domain.

    The returned field's horizontal gradient, when u carries one, is the
    convolution of the gradient node-by-node, which is the commutation
    identity X_j(phi_eps * u) = phi_eps * (X_j u)."""

    def values(points):
        return average(lambda p: (u.values(p),), points)[0]

    hgrad = None
    if u.hgrad is not None:
        def hgrad(points):
            return average(lambda p: (horizontal_gradient(average.group, u, p),), points)[0]

    return ScalarField(values=values, hgrad=hgrad, domain=average.domain,
                       name=f"phi_{average.eps:g}*{u.name}")


# the commutation check's group-difference step and its sample-point budget
_COMMUTATION_FD_STEP = 1e-3
_COMMUTATION_POINTS = 64


def commutation_residual(average: LocalAverage, u: ScalarField) -> float:
    """max |X_j(phi_eps * u) - phi_eps * (X_j u)| at the scale of `average`
    over every horizontal direction j and at most _COMMUTATION_POINTS interior
    cell centers, the left side taken by a central group difference of the
    convolved values."""
    u_eps = convolve(average, u)
    # stay a ring of cells inside the eroded mask so fd queries remain legal
    interior = u_eps.domain.erode_cells(1)
    if interior.is_empty:
        raise DomainError("eroded domain too small for a finite-difference check")
    pts = interior.centers()
    if len(pts) > _COMMUTATION_POINTS:
        idx = np.linspace(0, len(pts) - 1, _COMMUTATION_POINTS).astype(int)
        pts = pts[idx]
    lhs = horizontal_gradient(average.group, u_eps, pts, mode="group-fd",
                              h=_COMMUTATION_FD_STEP)
    rhs = u_eps.hgrad(pts)
    return float(np.abs(lhs - rhs).max())


def convergence_table(averages, u: ScalarField, inner: GridDomain, p: float) -> list:
    """Rows (eps, Lp_err, W1p_err) of the mollification errors over `inner`,
    one per scale operator of `averages` in decreasing eps, the values and
    gradients of phi_eps * u from one average each.

    Requires `inner` to be nonempty, which is checked before `averages` is
    read, so a generator builds its operators only after the check; each
    operator raises DomainError where `inner` leaves its eroded domain."""
    if inner.is_empty:
        raise DomainError("convergence table needs a nonempty inner set")
    rows = []
    pts = inner.centers()
    vol = inner.cell_volume
    base_vals = u.values(pts)
    base_grad = None
    for average in sorted(averages, key=lambda a: a.eps, reverse=True):
        g = average.group
        if base_grad is None:
            base_grad = horizontal_gradient(g, u, pts)
        vals, grads = average(lambda q: (u.values(q), horizontal_gradient(g, u, q)), pts)
        rows.append({
            "epsilon": average.eps,
            "Lp_err": _lp_norm(vals - base_vals, vol, p),
            "W1p_err": _lp_norm(_row_norm(grads - base_grad), vol, p),
        })
    return rows
