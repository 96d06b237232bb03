"""Arithmetic of stratified nilpotent groups in exponential coordinates.

Points are plain numpy arrays of length n.  The group law, the horizontal
frame and its transpose all read one table of the Baker-Campbell-Hausdorff
series, through degree 5, which is exact for nilpotency step <= 5.  All
operations broadcast over leading axes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "StratifiedGroup",
    "HomogeneousNorm",
    "GroupAxiomError",
    "euclidean",
    "heisenberg",
    "engel",
    "preset",
]

# log(exp x exp y) = x + y + sum over degrees d of (sum of num * word) / den; a word
# is a right-nested bracket ("xxy" = [x, [x, y]]) in layers >= d, so the first step - 1
# degrees are exact at that step.  Casas and Murua, J. Math. Phys. 50, 033513 (2009).
BCH = (
    (2, ((1, "xy"),)),
    (12, ((1, "xxy"), (-1, "yxy"))),
    (24, ((-1, "yxxy"),)),
    (720, ((-1, "yyyyx"), (-1, "xxxxy"), (2, "xyyyx"), (2, "yxxxy"), (6, "yxyxy"),
           (6, "xyxyx"))),
)
MAX_STEP = len(BCH) + 1


@functools.cache
def _plan(step: int, one_y: bool, signed: bool) -> tuple:
    """BCH as `StratifiedGroup.bch` reads it, shared by every call (so never mutated):
    per degree its denominator, its words, each with whether the next degree reads
    it, and its kept terms in table order."""
    plan, reads = [], {}
    for den, terms in reversed(BCH[: max(step, 2) - 1]):
        terms = tuple((num if signed else abs(num), w) for num, w in terms
                      if not one_y or w.count("y") == 1)
        words = {w: w in reads for w in [w for _, w in terms] + list(reads)}
        plan.append((den, words, terms))
        reads = dict.fromkeys(w[1:] for w in words)
    return tuple(plan[::-1])


# the largest structure-constant defect `axiom_violations` lets pass
_AXIOM_TOL = 1e-12

# the widest trailing axis `_fold` folds column by column
_FOLD_WIDTH = 7

# The kernels below sweep point arrays (..., n), n = 2 to 5, column by column:
# numpy runs an op's inner loop along its innermost axis, once per point when
# that axis is a point's n coordinates, once per column for x[..., k].


def _fold(ufunc, x) -> np.ndarray:
    """ufunc.reduce(x, axis=-1), bit for bit, for a binary ufunc such as
    np.add or np.maximum.  Up to _FOLD_WIDTH columns the columns are folded
    left to right, which is the order numpy's reduction takes there (from 8
    columns on, np.add sums a C-contiguous axis pairwise, so wider axes go to
    ufunc.reduce); numpy reduces a short contiguous trailing axis several
    times slower than this fold."""
    x = np.asarray(x)
    if not 1 <= x.shape[-1] <= _FOLD_WIDTH:
        return ufunc.reduce(x, axis=-1)
    # numpy starts a reduction from the ufunc's identity where it has one,
    # so np.add sums -0.0 and -0.0 to +0.0
    out = x[..., 0].copy()
    if ufunc.identity is not None:
        ufunc(ufunc.identity, out, out=out)
    for k in range(1, x.shape[-1]):
        ufunc(out, x[..., k], out=out)
    return out[()]  # a scalar for one row, as a reduction gives


def _quadratic_form(x, q) -> np.ndarray:
    """x^T q x over the trailing axis of float x: the terms (x_i q_ij) x_j
    summed from +0.0 with j fastest.  That is np.einsum("...i,ij,...j->...",
    x, q, x) bit for bit, at a few times its speed, wherever einsum sums point
    by point: always but for n = 2 on one or two points, where einsum may sum
    each i's terms apart first, so that its value for a point depends on the
    batch."""
    x = np.asarray(x)
    out = np.zeros(x.shape[:-1])
    term = np.empty_like(out)
    for i in range(x.shape[-1]):
        for j in range(x.shape[-1]):
            np.multiply(np.multiply(x[..., i], q[i, j], out=term), x[..., j], out=term)
            np.add(out, term, out=out)
    return out[()]  # a scalar for one row, as einsum gives


def _add_row(a, row) -> np.ndarray:
    """a + row for a fresh (..., k) array a and a length-k row, bit for bit,
    written into a column by column."""
    for k in range(a.shape[-1]):
        np.add(a[..., k], row[k], out=a[..., k])
    return a


def _row_norm(x) -> np.ndarray:
    """|x| over the trailing axis: np.linalg.norm(x, axis=-1) for real x, bit
    for bit, without its conjugate copy."""
    return np.sqrt(_fold(np.add, x * x))


def _rank(a: np.ndarray) -> int:
    """The rank of a small matrix, by Gaussian elimination with row pivoting:
    np.linalg.matrix_rank's first LAPACK call costs a process about 1 MB."""
    a, rank = np.array(a, dtype=float), 0
    tol = 1e-12 * max(np.abs(a).max(initial=0.0), 1.0)
    for col in range(a.shape[1]):
        pivot = rank + int(np.abs(a[rank:, col]).argmax()) if rank < len(a) else None
        if pivot is not None and abs(a[pivot, col]) > tol:
            a[[rank, pivot]] = a[[pivot, rank]]
            a[rank + 1:] -= np.multiply.outer(a[rank + 1:, col] / a[rank, col], a[rank])
            rank += 1
    return rank


class GroupAxiomError(ValueError):
    """Structure constants violate a stratified Lie algebra axiom."""


@dataclass(frozen=True)
class StratifiedGroup:
    """A Carnot group given by layer dimensions and structure constants.

    ``c[i, j, l]`` is the coefficient of e_l in [e_i, e_j].  The weights
    d_i assign each coordinate to its layer, so d_1 = ... = d_m = 1 for
    m = dim V_1.  ``structure`` lists the nonzero constants once per pair, as
    (i, j, l, c[i, j, l]) with i < j; antisymmetry supplies the rest.
    """

    layer_dims: tuple
    c: np.ndarray
    name: str = "custom"
    weights: np.ndarray = field(init=False, repr=False)
    structure: tuple = field(init=False, repr=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        if not dims or any(d <= 0 for d in dims):
            raise GroupAxiomError(f"layer dims must be positive: {dims}")
        if len(dims) > MAX_STEP:
            raise GroupAxiomError(f"step {len(dims)} not supported (the BCH table is exact "
                                  f"only up to step {MAX_STEP})")
        object.__setattr__(self, "layer_dims", dims)
        w = np.repeat(np.arange(1, len(dims) + 1), dims)
        object.__setattr__(self, "weights", w)
        c = np.asarray(self.c, dtype=float)
        if c.shape != (self.n, self.n, self.n):
            raise GroupAxiomError(f"structure constants must be {(self.n,) * 3}, got {c.shape}")
        object.__setattr__(self, "c", c)
        c.setflags(write=False)
        self._check_axioms()
        object.__setattr__(self, "structure", tuple(
            (int(i), int(j), int(l), float(c[i, j, l]))
            for i, j, l in zip(*np.nonzero(c)) if i < j))

    # -- basic attributes -------------------------------------------------

    @property
    def n(self) -> int:
        return int(sum(self.layer_dims))

    @property
    def m(self) -> int:
        """Dimension of the horizontal layer V_1."""
        return int(self.layer_dims[0])

    @property
    def step(self) -> int:
        return len(self.layer_dims)

    def homogeneous_dimension(self) -> int:
        """Q = sum_i i * dim(V_i), the volume-scaling exponent."""
        return int(sum((i + 1) * d for i, d in enumerate(self.layer_dims)))

    # -- axiom checks ------------------------------------------------------

    def _check_axioms(self):
        for msg in self.axiom_violations():
            raise GroupAxiomError(msg)

    def axiom_violations(self) -> list:
        """Witness strings for every violated Lie algebra axiom, beyond
        _AXIOM_TOL, and for a layer V_k that [V_1, V_{k-1}] does not span
        (empty = valid)."""
        out = []
        c, w = self.c, self.weights
        anti = c + np.swapaxes(c, 0, 1)
        if np.abs(anti).max() > _AXIOM_TOL:
            i, j, l = np.unravel_index(np.abs(anti).argmax(), anti.shape)
            out.append(f"antisymmetry fails at c[{i},{j},{l}]: {c[i, j, l]} vs {-c[j, i, l]}")
        bad_weight = w[None, None, :] != w[:, None, None] + w[None, :, None]
        graded = np.where(bad_weight, c, 0.0)
        if np.abs(graded).max() > _AXIOM_TOL:
            i, j, l = np.unravel_index(np.abs(graded).argmax(), graded.shape)
            out.append(f"grading fails: c[{i},{j},{l}]={c[i, j, l]} but d_{l} != d_{i}+d_{j}")
        # Jacobi on basis triples: [e_i,[e_j,e_k]] + cyclic = 0.
        t = np.einsum("jks,isl->ijkl", c, c)
        jac = t + np.einsum("ijkl->jkil", t) + np.einsum("ijkl->kijl", t)
        if np.abs(jac).max() > _AXIOM_TOL:
            i, j, k, _ = np.unravel_index(np.abs(jac).argmax(), jac.shape)
            out.append(f"Jacobi identity fails on basis triple ({i},{j},{k})")
        # stratified: the rows c[i, j, V_k] over i in V_1, j in V_{k-1} span V_k
        for k in range(2, self.step + 1):
            rows = c[w == 1][:, w == k - 1][..., w == k].reshape(-1, self.layer_dims[k - 1])
            rank = _rank(rows)
            if rank < self.layer_dims[k - 1]:
                out.append(f"layer {k} is not generated: [V_1, V_{k - 1}] spans {rank} of "
                           f"its {self.layer_dims[k - 1]} dimensions")
        return out

    # -- Lie algebra -------------------------------------------------------

    def bracket(self, x, y) -> np.ndarray:
        """[x, y] = sum over i < j of c_ijl (x_i y_j - x_j y_i) e_l; broadcasts
        over leading axes."""
        x = np.asarray(x)
        y = np.asarray(y)
        out = np.zeros(np.broadcast_shapes(x.shape, y.shape), np.result_type(x, y, float))
        for i, j, l, c in self.structure:
            out[..., l] += c * (x[..., i] * y[..., j] - x[..., j] * y[..., i])
        return out

    def _coadjoint(self, x, v, width: int) -> np.ndarray:
        """The first `width` coordinates of ad_x^T v, where (ad_x^T v)_j is
        sum over i, l of c_ijl x_i v_l; broadcasts over leading axes."""
        out = np.zeros(np.broadcast_shapes(x.shape[:-1], v.shape[:-1]) + (width,))
        for i, j, l, c in self.structure:
            if j < width:
                out[..., j] += (c * x[..., i]) * v[..., l]
            if i < width:
                out[..., i] -= (c * x[..., j]) * v[..., l]
        return out

    def hgrad_from_egrad(self, x, grad) -> np.ndarray:
        """Horizontal gradient (X_1 u, .., X_m u) at x from the Euclidean
        gradient grad u(x), as a C-contiguous (..., m) array.

        X u = A(x)^T g for g = grad u(x) and the frame A of
        `vector_field_coeffs`, summed from the structure constants without
        building A: the transposed series (g + ad_x^T g / 2 + (ad_x^T)^2 g / 12
        - ..)[:m], its last power only m coordinates wide.
        """
        g = self._coerce(grad)
        return self.bch(self._coerce(x), g, (g[..., :self.m],), one_y=True,
                        act=lambda a, v, tail: self._coadjoint(a, v, self.n if tail else self.m))

    # -- group operations --------------------------------------------------

    def multiply(self, x, y) -> np.ndarray:
        """Group product via BCH: x + y + [x,y]/2 + ([x,[x,y]] - [y,[x,y]])/12 + .."""
        x, y = self._coerce(x), self._coerce(y)
        return self.bch(x, y, (x, y))

    def bch(self, x, y, head, act=None, one_y=False, signed=True) -> np.ndarray:
        """sum(head) + the BCH series of x and y through the group's step (at
        least degree 2, whose zero bracket on an Abelian group broadcasts the
        result), each degree's sum of num * word over den added in table order.
        A word is act(first letter, tail's value, whether the next degree reads
        it), [a, v] by default; each degree's words are built once from the
        previous degree's, and cut to head[0]'s width when summed.  one_y keeps
        the words linear in y (the frame), signed=False takes |num|."""
        act = act or (lambda a, v, tail: self.bracket(a, v))
        letters = words = {"x": x, "y": y}
        out, width = None, head[0].shape[-1]
        for den, reads, terms in _plan(self.step, one_y, signed):
            words = {w: act(letters[w[0]], words[w[1:]], tail) for w, tail in reads.items()}
            total = None
            for num, w in terms:  # sign * the degree's sum
                v = (words[w] if reads[w] else words.pop(w))[..., :width]
                if total is None:
                    sign = 1 if num > 0 else -1
                    # a word the next degree reads is never written: the sum starting
                    # from it adds and divides out of place
                    total, shared = (v, reads[w]) if abs(num) == 1 else (abs(num) * v, False)
                else:
                    total = (np.add if num * sign > 0 else np.subtract)(
                        total, v if abs(num) == 1 else abs(num) * v,
                        out=None if shared else total)
                    shared = False
            if total is not None:
                total = np.divide(total, sign * den, out=None if shared else total)
                if out is not None:
                    out = np.add(out, total, out=total)
                else:  # column by column: no head sum of the output's size is built
                    for k in range(width):
                        np.add(sum([h[..., k] for h in head[1:]], head[0][..., k]),
                               total[..., k], out=total[..., k])
                    out = total
        return out

    def bch_bound(self, a, b, head) -> np.ndarray:
        """head + a coordinatewise bound on the BCH series of x and y past its
        head x + y, for |x| <= a and |y| <= b coordinatewise; broadcasts over
        leading axes.  Each bracket [x, y]_l is bounded by B(a, b)_l = sum over
        i < j of |c_ijl| (a_i b_j + a_j b_i), each numerator by its absolute
        value.  Overflow gives an infinite or NaN coordinate, never an error."""

        def bound(a, b, tail):
            out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
            for i, j, l, c in self.structure:
                out[..., l] += abs(c) * (a[..., i] * b[..., j] + a[..., j] * b[..., i])
            return out

        with np.errstate(over="ignore", invalid="ignore"):
            return self.bch(a, b, (head,), act=bound, signed=False)

    def inverse(self, x) -> np.ndarray:
        """x^{-1} = -x, exact in exponential coordinates."""
        return -self._coerce(x)

    def dilate(self, lam, x) -> np.ndarray:
        """Anisotropic dilation: coordinate i scaled by lam**d_i."""
        lam = np.asarray(lam, dtype=float)
        if np.any(lam <= 0):
            raise ValueError(f"dilation factor must be positive, got {lam}")
        return self._coerce(x) * lam[..., None] ** self.weights

    def vector_field_coeffs(self, x) -> np.ndarray:
        """Coefficient matrix A(x) of the horizontal frame X_1..X_m.

        Column j is d/dt (x . t e_j) at t = 0, the words of the BCH series
        linear in y = e_j: e_j + [x,e_j]/2 + [x,[x,e_j]]/12 - .., so
        X_j u = A(x)[:, j] . grad u.  This is the dense reference frame: the
        tests check `hgrad_from_egrad` against it and the benchmark traces it
        by name, while fields take their horizontal gradients from that kernel.
        """
        eye = np.eye(self.n)[: self.m]
        rows = self.bch(self._coerce(x)[..., None, :], eye, (eye,), one_y=True)  # rows e_j
        # in C order, the layout the contraction in X_j u sums in
        return np.ascontiguousarray(np.swapaxes(rows, -1, -2))

    def norm(self, kind: str = "weighted-max") -> "HomogeneousNorm":
        return HomogeneousNorm(self, kind)

    def origin(self) -> np.ndarray:
        return np.zeros(self.n)

    def _coerce(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.n:
            raise ValueError(f"point has {x.shape[-1]} coordinates, group needs {self.n}")
        return x

    def __repr__(self):
        return f"StratifiedGroup({self.name!r}, layers={self.layer_dims})"


class HomogeneousNorm:
    """A homogeneous norm: vanishes only at 0, even, 1-homogeneous under dilations.

    kinds:
      weighted-max   rho(x) = max_i |x_i|**(1/d_i), valid on every group
      koranyi        (|x_(1)|^4 + |x_(2)|^2)^(1/4), step-2 groups only
    """

    KINDS = ("weighted-max", "koranyi")

    def __init__(self, group: StratifiedGroup, kind: str = "weighted-max"):
        if kind not in self.KINDS:
            raise ValueError(f"unknown norm kind {kind!r}, expected one of {self.KINDS}")
        if kind == "koranyi" and group.step > 2:
            raise ValueError("koranyi norm is only provided for groups of step <= 2")
        self.group = group
        self.kind = kind

    def __call__(self, x) -> np.ndarray:
        g = self.group
        x = g._coerce(x)
        if self.kind == "weighted-max":
            return _fold(np.maximum, np.abs(x) ** (1.0 / g.weights))
        horiz = _fold(np.add, x[..., : g.m] ** 2)
        vert = _fold(np.add, x[..., g.m:] ** 2)
        return (horiz**2 + vert) ** 0.25

    def dist_left(self, x, y) -> np.ndarray:
        """d(x, y) = |y^{-1} . x|, invariant under left translation."""
        g = self.group
        return self(g.multiply(g.inverse(y), x))

    def dist_right(self, x, y) -> np.ndarray:
        """d^R(x, y) = |x . y^{-1}|, invariant under right translation."""
        g = self.group
        return self(g.multiply(x, g.inverse(y)))

    def __repr__(self):
        return f"HomogeneousNorm({self.kind!r} on {self.group.name})"


# -- presets -------------------------------------------------------------------


def _empty_constants(n: int) -> np.ndarray:
    return np.zeros((n, n, n))


def euclidean(n: int) -> StratifiedGroup:
    """(R^n, +): the only Abelian Carnot group."""
    return StratifiedGroup((n,), _empty_constants(n), name=f"euclidean:{n}")


def heisenberg(n: int = 1) -> StratifiedGroup:
    """H^n: coordinates (x_1..x_n, y_1..y_n, t) with [X_i, Y_i] = T."""
    dim = 2 * n + 1
    c = _empty_constants(dim)
    for i in range(n):
        c[i, n + i, 2 * n] = 1.0
        c[n + i, i, 2 * n] = -1.0
    return StratifiedGroup((2 * n, 1), c, name=f"heisenberg:{n}")


def engel() -> StratifiedGroup:
    """The Engel group: step 3, layers (2, 1, 1), [e1,e2]=e3, [e1,e3]=e4."""
    c = _empty_constants(4)
    c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
    c[0, 2, 3], c[2, 0, 3] = 1.0, -1.0
    return StratifiedGroup((2, 1, 1), c, name="engel")


def preset(name: str) -> StratifiedGroup:
    """Resolve a preset name: "euclidean:n", "heisenberg:n" or "engel", with
    n a positive integer ("heisenberg" alone is "heisenberg:1")."""
    if name == "engel":
        return engel()
    base, _, arg = name.partition(":")
    if base in ("euclidean", "heisenberg") and arg:
        if not (arg.isdecimal() and int(arg) > 0):
            raise ValueError(f"group preset {name!r} needs a positive integer after ':'")
        return euclidean(int(arg)) if base == "euclidean" else heisenberg(int(arg))
    if base == "heisenberg":
        return heisenberg()
    raise ValueError(f"unknown group preset {name!r}")
