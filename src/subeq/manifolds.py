"""Desk-scale model geometries, grid functions and discrete jets.

Three manifold kinds:

* ``FlatBox``    -- axis-aligned lattice in R^m;
* ``RadialModel``-- warped-product model dr^2 + g(r)^2 dtheta^2, discretized
                    along the radial coordinate only (radial functions);
* ``PuncturedEuclidean`` -- R^m minus the origin, a radial grid on
                    [r_min, r_max] meshed logarithmically near the puncture.

On radial kinds a function of r has Hessian eigenvalues phi'' (radial) and
phi' g'/g with multiplicity m-1 (angular).  Every line grid (the radial
kinds and 1-D boxes) carries one ``LineStencil``, the non-uniform 3-point
first and second differences built once from its spacings, whose ``view``
writes every line jet; a ``sub_range`` slices its root grid's rows.
``batch_jets`` hands each grid's jets in one view: a ``jets.RadialView``
on line grids, a ``jets.DenseView`` on the centred cross stencil of boxes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, InputError
from .jets import DenseView, RadialView

# ---------------------------------------------------------------------------
# warps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Warp:
    name: str
    g: callable
    dg: callable

    def ratio(self, r):
        """g'(r)/g(r) where g(r) > 0, the angular Hessian factor, at the nodes
        r or at one r; a DomainError names the first node (or the r) where it
        is not finite (g or g' overflows)."""
        r = np.asarray(r, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.dg(r) / self.g(r)
        bad = np.flatnonzero(~np.isfinite(out))
        if bad.size:
            at = f"node {bad[0]} (r = {r[bad[0]]:.6g})" if r.ndim else f"r = {r:.6g}"
            raise DomainError(f"warp {self.name}: g'/g is not finite at {at}")
        return out


def _warp_table(xs, ys) -> Warp:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if np.any(ys <= 0):
        raise InputError("table warp must be positive")
    dydx = np.gradient(ys, xs)
    return Warp(
        "table",
        g=lambda r: np.interp(r, xs, ys),
        dg=lambda r: np.interp(r, xs, dydx),
    )


WARPS = {
    "euclidean": Warp("euclidean", g=lambda r: np.asarray(r, dtype=float),
                      dg=lambda r: np.ones_like(np.asarray(r, dtype=float))),
    "sinh": Warp("sinh", g=np.sinh, dg=np.cosh),
    "exp_r3": Warp("exp_r3", g=lambda r: np.exp(np.asarray(r, dtype=float) ** 3),
                   dg=lambda r: 3 * np.asarray(r, dtype=float) ** 2
                   * np.exp(np.asarray(r, dtype=float) ** 3)),
}


def get_warp(spec) -> Warp:
    if isinstance(spec, Warp):
        return spec
    if isinstance(spec, str):
        if spec not in WARPS:
            raise InputError(f"unknown warp '{spec}' (have {sorted(WARPS)})")
        return WARPS[spec]
    if isinstance(spec, dict) and "r" in spec and "g" in spec:
        return _warp_table(spec["r"], spec["g"])
    raise InputError("warp spec must be a name or {'r': [...], 'g': [...]}")


# ---------------------------------------------------------------------------
# the line stencil
# ---------------------------------------------------------------------------


class LineStencil:
    """The non-uniform 3-point stencil of a line grid in dimension m, one
    entry per node, and the one writer of its jets (``view``).

    With hL = x[i] - x[i-1] and hR = x[i+1] - x[i], the differences

        du = wL u[i-1] + wC u[i] + wR u[i+1]
        d2 = aL u[i-1] + aC u[i] + aR u[i+1]

    are exact on quadratics; a radial function has the angular Hessian
    eigenvalue aa = ang * du (ang = g'/g).  m = 1 has no angular
    direction: there ang = 0 and aa = 0.  The end nodes copy their
    neighbour's spacing.  The nine per-node quantities are the rows of
    one array, so ``at(ids)`` gathers the rows of a node set in one step.
    """

    def __init__(self, rows: np.ndarray, m: int):
        self.rows, self.m = rows, m
        (self.hL, self.hR, self.wL, self.wC, self.wR,
         self.aL, self.aC, self.aR, self.ang) = rows

    @staticmethod
    def _spacing_rows(hL, hR):
        """The eight rows of the nodes with spacings hL and hR (all but ang)."""
        den = hL * hR * (hL + hR)
        return [hL, hR,
                -hR**2 / den, (hR**2 - hL**2) / den, hL**2 / den,
                2.0 * hR / den, -2.0 * (hL + hR) / den, 2.0 * hL / den]

    @staticmethod
    def on(x: np.ndarray, m: int, ratio=None) -> "LineStencil":
        """The stencil of the nodes x; ``ratio(x)`` gives g'/g, read at m > 1."""
        h = np.diff(x)
        rows = LineStencil._spacing_rows(np.concatenate([h[:1], h]), np.concatenate([h, h[-1:]]))
        return LineStencil(np.stack(rows + [ratio(x) if m > 1 else np.zeros_like(x)]), m)

    def sub(self, ids: np.ndarray) -> "LineStencil":
        """The stencil of the nodes X[ids], ids contiguous (at least 3), of
        the grid X whose stencil this is: ``on(X[ids], m, ratio)`` byte for
        byte, with no ratio read.  An inner node has the same neighbours in
        both grids, so its rows are this stencil's; the two end nodes copy
        their neighbour's spacing, as ``on`` writes them."""
        rows = self.rows[:, ids]
        h = rows[[1, 0], [0, -1]]  # the spacings next to the two ends: hR, hL
        rows[:8, [0, -1]] = LineStencil._spacing_rows(h, h)
        return LineStencil(rows, self.m)

    def at(self, ids) -> "LineStencil":
        return LineStencil(self.rows[:, ids], self.m)

    def d2(self, uL, uC, uR):
        return self.aL * uL + self.aC * uC + self.aR * uR

    def upwind(self, v, uL, uR):
        """Godunov upwind gradient max((v-uL)/hL, (v-uR)/hR, 0), the scheme's
        reading of the gradient constraints (centred lagged ones cycle)."""
        return np.maximum(np.maximum((v - uL) / self.hL, (v - uR) / self.hR), 0.0)

    def view(self, x, uL, uC, uR, upwind=False) -> RadialView:
        """The ``jets.RadialView`` of the values uC at the nodes x, with
        neighbours uL and uR; its ``grad_up`` is the centred |du|, or the
        ``upwind`` gradient of the scheme when upwind is set."""
        du = self.wL * uL + self.wC * uC + self.wR * uR
        aa = du * self.ang if self.m > 1 else np.zeros_like(du)
        gu = self.upwind(uC, uL, uR) if upwind else np.abs(du)
        return RadialView(x, uC, du, aa, self.d2(uL, uC, uR), gu, self.m)

    @cached_property
    def fixed(self):
        """The weights (3, 3, n) of r, aa and d2 in the neighbours (L, C,
        R): the rows of ``table`` that do not depend on u, built once."""
        T = np.zeros((3, 3, self.hL.size))
        T[0, 1] = 1.0
        np.multiply(self.ang, self.rows[2:5], out=T[1])
        T[2] = self.rows[5:8]
        return T

    def table(self, v, uL, uR):
        """The weights (4, 3, n) of the entries of ``view`` (r, aa, d2 and
        grad_up, ``RadialView.entries``) in the neighbours (L, C, R): the
        ``fixed`` rows and, at the node values v with neighbours uL and uR,
        those of the active branch of ``upwind``, the left one at a tie, or
        none."""
        pL, pR = (v - uL) / self.hL, (v - uR) / self.hR
        left = (pL >= pR) & (pL >= 0.0)
        iL, iR = left / self.hL, (~left & (pR >= 0.0)) / self.hR
        T = np.empty((4, 3, self.hL.size))
        T[:3], T[3] = self.fixed, (-iL, iL + iR, -iR)
        return T


# ---------------------------------------------------------------------------
# manifolds
# ---------------------------------------------------------------------------


class ModelManifold:
    """Base: a node set with boundary tags and jet assembly."""

    m: int
    n_nodes: int
    stencil: LineStencil | None = None  # set on line grids: radial kinds, 1-D boxes
    # on line grids: the grid whose stencil rows this one's are (itself
    # unless a sub-range), and the root index of node 0
    root: "ModelManifold"
    offset: int

    @property
    def interior_ids(self) -> np.ndarray:
        return np.where(self.interior_mask)[0]

    def boundary_ids(self, tag: str | None = None) -> np.ndarray:
        if tag is None:
            return np.where(~self.interior_mask)[0]
        if tag not in self.boundary_tags:
            raise InputError(f"unknown boundary tag {tag!r}: this grid has "
                             f"{sorted(self.boundary_tags)}")
        return self.boundary_tags[tag]


class _RadialBase(ModelManifold):
    def __init__(self, m: int, warp: Warp, r: np.ndarray):
        r = np.asarray(r, dtype=float)
        if r.ndim != 1 or r.size < 3 or np.any(np.diff(r) <= 0):
            raise InputError("radial grid must be strictly increasing, >= 3 nodes")
        if m < 1:
            raise InputError("dimension must be >= 1")
        with np.errstate(over="ignore", invalid="ignore"):
            gv = warp.g(r)
        if np.any(gv <= 0):
            raise DomainError("warping must be positive on the open range")
        self._nodes(m, warp, r, LineStencil.on(r, m, warp.ratio), self, 0)

    def _nodes(self, m, warp, r, stencil, root, offset):
        self.m = m
        self.warp = warp
        self.r = r
        self.n_nodes = r.size
        self.interior_mask = np.zeros(r.size, dtype=bool)
        self.interior_mask[1:-1] = True
        self.boundary_tags = {"inner": np.array([0]), "outer": np.array([r.size - 1])}
        self.stencil = stencil
        self.root, self.offset = root, offset

    @property
    def coords(self) -> np.ndarray:
        return self.r[:, None]

    def min_spacing(self) -> float:
        return float(np.diff(self.r).min())

    def sub_range(self, r_lo: float | None = None, r_hi: float | None = None):
        """A new radial manifold restricted to grid nodes in [r_lo, r_hi]
        (within 1e-12), and the ids of its nodes in this grid.

        The sub-grid shares this grid's root (the grid that no sub-range
        made) and records the root index of its first node (``offset``).
        Its stencil is the root's rows at its nodes, with the two end
        nodes copying their neighbour's spacing (``LineStencil.sub``):
        the rows ``LineStencil.on`` would build, with no warp read.  So
        nested solves on sub-ranges of one root read one set of rows, and
        their presolves one forward elimination (``solver._try_presolve``).
        """
        mask = np.ones_like(self.r, dtype=bool)
        if r_lo is not None:
            mask &= self.r >= r_lo - 1e-12
        if r_hi is not None:
            mask &= self.r <= r_hi + 1e-12
        ids = np.where(mask)[0]
        if ids.size < 3:
            raise InputError("sub-range keeps fewer than 3 nodes")
        r, offset = self.r[ids], self.offset + int(ids[0])
        sub = object.__new__(type(self))
        sub._nodes(self.m, self.warp, r, self.root.stencil.sub(ids + self.offset),
                   self.root, offset)
        return sub, ids


class RadialModel(_RadialBase):
    """Warped-product model manifold discretized along the radius."""

    def __init__(self, m: int, warp, r_grid):
        super().__init__(m, get_warp(warp), np.asarray(r_grid, dtype=float))

    @staticmethod
    def uniform(m: int, warp, r_lo: float, r_hi: float, n: int) -> "RadialModel":
        return RadialModel(m, warp, np.linspace(r_lo, r_hi, n))


class PuncturedEuclidean(_RadialBase):
    """R^m minus the origin: Euclidean warp, radial grid on [r_min, r_max].

    Meshed logarithmically so the grid refines toward the puncture, where
    the model potentials blow up like |x|^(2-m).
    """

    def __init__(self, m: int, r_min: float, r_max: float, n: int, spacing: str = "log"):
        if not (0 < r_min < r_max):
            raise InputError("need 0 < r_min < r_max")
        if m < 2:
            raise InputError("punctured model needs m >= 2")
        if spacing == "log":
            r = np.geomspace(r_min, r_max, n)
        elif spacing == "uniform":
            r = np.linspace(r_min, r_max, n)
        else:
            raise InputError("spacing must be 'log' or 'uniform'")
        super().__init__(m, WARPS["euclidean"], r)


class FlatBox(ModelManifold):
    """Axis-aligned lattice in R^m with uniform spacing per axis.

    At m >= 2 it states its cross stencil once (``_cross_stencil``): the
    node-id ``shifts`` of the stencil's O nodes, ``sums``, each entry of a
    ``jets.DenseView`` (``DenseView.entries``) as integer multiples of
    node values over a divisor, which ``batch_jets`` adds, and ``table``,
    (E, O, 1), the weight of each node in each entry.
    """

    def __init__(self, m: int, bounds, h):
        if m < 1:
            raise InputError("dimension must be >= 1")
        bounds = [(float(a), float(b)) for a, b in bounds]
        if len(bounds) != m or any(b <= a for a, b in bounds):
            raise InputError("bounds must be m non-empty intervals")
        h = np.broadcast_to(np.asarray(h, dtype=float), (m,)).copy()
        if np.any(h <= 0):
            raise InputError("spacing must be positive")
        self.m = m
        self.bounds = bounds
        self.shape = tuple(
            int(round((b - a) / h[k])) + 1 for k, (a, b) in enumerate(bounds)
        )
        if any(s < 3 for s in self.shape):
            raise InputError("each axis needs >= 3 nodes")
        self.h = np.array([(b - a) / (s - 1) for (a, b), s in zip(bounds, self.shape)])
        axes = [np.linspace(a, b, s) for (a, b), s in zip(bounds, self.shape)]
        mesh = np.meshgrid(*axes, indexing="ij")
        self.coords = np.stack([g.ravel() for g in mesh], axis=1)
        self.n_nodes = self.coords.shape[0]
        self.strides = np.array(
            [int(np.prod(self.shape[k + 1:])) for k in range(m)], dtype=int
        )
        idx = np.stack(np.unravel_index(np.arange(self.n_nodes), self.shape), axis=1)
        self.interior_mask = np.all((idx > 0) & (idx < np.array(self.shape) - 1), axis=1)
        self.boundary_tags = {"side": np.where(~self.interior_mask)[0]}
        if m == 1:
            self.stencil = LineStencil.on(self.coords[:, 0], 1)
            self.root, self.offset = self, 0
            return
        self.shifts, self.sums = _cross_stencil(self.h, self.strides)
        self.table = np.zeros((len(self.sums), self.shifts.size, 1))
        for T, (terms, d) in zip(self.table, self.sums):
            for w, o in terms:
                T[o] = w / d

    def min_spacing(self) -> float:
        return float(self.h.min())


def _cross_stencil(h, strides):
    """``FlatBox.shifts`` and ``sums`` of a box with spacings h and node-id
    strides.  The nodes are x + h_a e_a and x - h_a e_a for each a, then
    x + s h_a e_a + t h_b e_b for each a < b at (s, t) = (+, +), (-, -),
    (+, -), (-, +), and x last.  sums[e] = ([(weight, node), ...], divisor)
    lists the nodes of entry e (r, each p_a, each A_ab with a <= b) in the
    order its formula adds them:

        p_a  = (u(+a) - u(-a)) / (2 h_a)
        A_aa = (u(+a) + u(-a) - 2 u) / h_a^2
        A_ab = (u(++) + u(--) - u(+-) - u(-+)) / (4 h_a h_b)
    """
    m = len(h)
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    shifts = [s * strides[a] for a in range(m) for s in (1, -1)]
    shifts += [s * strides[a] + t * strides[b] for a, b in pairs
               for s, t in ((1, 1), (-1, -1), (1, -1), (-1, 1))] + [0]
    x, k = len(shifts) - 1, 2 * m  # the node x; the node (++) of the first pair
    sums = [([(1.0, x)], 1.0)] + [([(1.0, 2 * a), (-1.0, 2 * a + 1)], 2 * h[a]) for a in range(m)]
    for a in range(m):
        sums.append(([(1.0, 2 * a), (1.0, 2 * a + 1), (-2.0, x)], h[a] ** 2))
        for b in range(a + 1, m):
            sums.append(([(1.0, k), (1.0, k + 1), (-1.0, k + 2), (-1.0, k + 3)],
                         4 * h[a] * h[b]))
            k += 4
    return np.array(shifts), sums


def _grow_mask(M: ModelManifold, mask: np.ndarray) -> np.ndarray:
    """The nodes of ``mask`` plus their neighbours one stencil step away."""
    if isinstance(M, _RadialBase):
        strides = [1]
    elif isinstance(M, FlatBox):
        strides = M.strides
    else:
        raise InputError("unsupported manifold kind")
    out = mask.copy()
    for s in strides:
        out[:-s] |= mask[s:]
        out[s:] |= mask[:-s]
    return out


# ---------------------------------------------------------------------------
# grid functions
# ---------------------------------------------------------------------------


@dataclass
class GridFunction:
    manifold: ModelManifold
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.manifold.n_nodes,):
            raise InputError("grid function length must match the node count")
        if np.any(~np.isfinite(self.values) & self.manifold.interior_mask):
            raise InputError("grid function must be finite on interior nodes")

    @staticmethod
    def from_callable(M: ModelManifold, fn) -> "GridFunction":
        c = M.coords
        vals = fn(c[:, 0]) if c.shape[1] == 1 else fn(c)
        return GridFunction(M, np.asarray(vals, dtype=float))

    @staticmethod
    def constant(M: ModelManifold, c: float) -> "GridFunction":
        return GridFunction(M, np.full(M.n_nodes, float(c)))


# ---------------------------------------------------------------------------
# discrete calculus
# ---------------------------------------------------------------------------


def radial_hessian_eigs(phi1: float, phi2: float, r: float, warp, m: int) -> np.ndarray:
    """Hessian eigenvalues of a radial function: {phi''} + {phi' g'/g} x (m-1)."""
    warp = get_warp(warp)
    with np.errstate(over="ignore", invalid="ignore"):
        gv = warp.g(r)
    if gv <= 0:
        raise DomainError("warping must be positive at r")
    ang = np.array([phi1 * warp.ratio(r)])
    return RadialView(None, None, None, ang, np.array([phi2], dtype=float), None, m).eigs[0]


def batch_jets(u: GridFunction, ids=None):
    """Vectorized centred discrete jets: the grid's jet view J at the
    nodes ids (its ``x``), by default every interior node.

    Line grids take the centred ``LineStencil.view``, a ``RadialView``
    whose ``grad_up`` is |du|; its dense p and A are built only where a
    caller reads them, never to evaluate a defining function.  Boxes
    add the node values of each entry of their cross stencil
    (``FlatBox.sums``) into a ``DenseView``, each node only in the entries
    that read it.
    """
    M = u.manifold
    ids = M.interior_ids if ids is None else np.asarray(ids, dtype=int)
    vals = u.values
    if M.stencil is not None:
        return M.stencil.at(ids).view(ids, vals[ids - 1], vals[ids], vals[ids + 1])
    if not isinstance(M, FlatBox):
        raise InputError(f"unsupported manifold kind {type(M).__name__}")
    V = vals[ids + M.shifts[:, None]]
    X = np.empty((len(M.sums), ids.size))
    for x, (terms, d) in zip(X, M.sums):
        (w, o), *rest = terms
        np.multiply(V[o], w, out=x)
        for w, o in rest:  # only the nodes the entry reads, in order
            x += w * V[o]
        x /= d
    return DenseView.of_entries(ids, X, M.m)


# ---------------------------------------------------------------------------
# volume growth
# ---------------------------------------------------------------------------


def volume_growth_test(warp, m: int, r_max: float) -> tuple:
    """Grigor'yan-type sufficient test: diverges iff r / log vol(B_r) is
    not integrable at infinity, judged from the log-log slope of the
    integrand over the last decade of the partial integrals, sampled at
    r = 0.01, 0.02, ..., r_max.

    Returns (verdict, trace) with verdict in {"Diverges", "Converges"}.
    """
    warp = get_warp(warp)
    step = 1e-2
    r = np.arange(step, r_max + step / 2, step)
    with np.errstate(over="ignore", invalid="ignore"):
        gv = warp.g(r)
    if np.any(~np.isfinite(gv)) or np.any(gv <= 0):
        raise DomainError("warping must be positive and finite on (0, r_max]")
    surf = 2 * np.pi ** (m / 2) / math.gamma(m / 2)
    # log-domain cumulative quadrature: exp(r^3)-type warps overflow linearly
    lw = (m - 1) * np.log(gv)
    logvol = np.logaddexp.accumulate(lw) + math.log(step) + math.log(surf)
    ok = logvol > 0.5  # integrand only meaningful once vol(B_r) > 1
    integrand = np.where(ok, r / np.where(ok, logvol, 1.0), np.nan)
    partial = np.nancumsum(np.where(ok, integrand * step, 0.0))
    tail = r >= r_max / 10.0
    sel = tail & ok
    if sel.sum() < 8:
        raise DomainError("not enough tail samples; increase r_max")
    slope = np.polyfit(np.log(r[sel]), np.log(integrand[sel]), 1)[0]
    verdict = "Diverges" if slope >= -1.0 else "Converges"
    trace = {
        "slope": float(slope),
        "r": r[sel][:: max(1, sel.sum() // 64)],
        "partial_integral": partial[sel][:: max(1, sel.sum() // 64)],
        "integrand": integrand[sel][:: max(1, sel.sum() // 64)],
    }
    return verdict, trace
