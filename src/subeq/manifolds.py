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
first and second differences built once from its spacings; the jets, the
sweep kernels and the presolve all read it, and the jets are assembled by
``jets.RadialView``.  Boxes of dimension m >= 2 use the centred cross
stencil.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError
from .jets import Jet, RadialView, SymMatrix

# ---------------------------------------------------------------------------
# warps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Warp:
    name: str
    g: callable
    dg: callable

    def ratio(self, r):
        """g'(r)/g(r), the angular Hessian factor."""
        r = np.asarray(r, dtype=float)
        gv = self.g(r)
        if np.any(gv <= 0):
            raise DomainError(f"warp {self.name} non-positive on the requested range")
        return self.dg(r) / gv


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
    """The non-uniform 3-point stencil of a line grid, one entry per node.

    With hL = x[i] - x[i-1] and hR = x[i+1] - x[i], the differences

        du = wL u[i-1] + wC u[i] + wR u[i+1]
        d2 = aL u[i-1] + aC u[i] + aR u[i+1]

    are exact on quadratics; a radial function has the angular Hessian
    eigenvalue ang * du (ang = g'/g, zero for m = 1).  The end nodes copy
    their neighbour's spacing.  The nine per-node quantities are the rows
    of one array, so ``at(ids)`` gathers the rows of a node set in one step.
    """

    def __init__(self, rows: np.ndarray):
        self.rows = rows
        (self.hL, self.hR, self.wL, self.wC, self.wR,
         self.aL, self.aC, self.aR, self.ang) = rows

    @staticmethod
    def on(x: np.ndarray, ang: np.ndarray) -> "LineStencil":
        h = np.diff(x)
        hL = np.concatenate([h[:1], h])
        hR = np.concatenate([h, h[-1:]])
        den = hL * hR * (hL + hR)
        return LineStencil(np.stack([
            hL, hR,
            -hR**2 / den, (hR**2 - hL**2) / den, hL**2 / den,
            2.0 * hR / den, -2.0 * (hL + hR) / den, 2.0 * hL / den,
            ang]))

    def at(self, ids) -> "LineStencil":
        return LineStencil(self.rows[:, ids])

    def du(self, uL, uC, uR):
        return self.wL * uL + self.wC * uC + self.wR * uR

    def d2(self, uL, uC, uR):
        return self.aL * uL + self.aC * uC + self.aR * uR


# ---------------------------------------------------------------------------
# manifolds
# ---------------------------------------------------------------------------


class ModelManifold:
    """Base: a node set with boundary tags and jet assembly."""

    m: int
    n_nodes: int
    stencil: LineStencil | None = None  # set on line grids: radial kinds, 1-D boxes

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
    kind = "radial"

    def __init__(self, m: int, warp: Warp, r: np.ndarray):
        r = np.asarray(r, dtype=float)
        if r.ndim != 1 or r.size < 3 or np.any(np.diff(r) <= 0):
            raise InputError("radial grid must be strictly increasing, >= 3 nodes")
        if m < 1:
            raise InputError("dimension must be >= 1")
        gv = warp.g(r)
        if np.any(gv <= 0):
            raise DomainError("warping must be positive on the open range")
        self.m = m
        self.warp = warp
        self.r = r
        self.n_nodes = r.size
        self.interior_mask = np.zeros(r.size, dtype=bool)
        self.interior_mask[1:-1] = True
        self.boundary_tags = {"inner": np.array([0]), "outer": np.array([r.size - 1])}
        # angular factor g'/g at every node (m = 1 has no angular part)
        self.stencil = LineStencil.on(r, warp.ratio(r) if m > 1 else np.zeros_like(r))

    @property
    def coords(self) -> np.ndarray:
        return self.r[:, None]

    def min_spacing(self) -> float:
        return float(np.diff(self.r).min())

    def sub_range(self, r_lo: float | None = None, r_hi: float | None = None):
        """A new radial manifold restricted to grid nodes in [r_lo, r_hi]."""
        mask = np.ones_like(self.r, dtype=bool)
        if r_lo is not None:
            mask &= self.r >= r_lo - 1e-12
        if r_hi is not None:
            mask &= self.r <= r_hi + 1e-12
        ids = np.where(mask)[0]
        if ids.size < 3:
            raise InputError("sub-range keeps fewer than 3 nodes")
        sub = object.__new__(type(self))
        _RadialBase.__init__(sub, self.m, self.warp, self.r[ids])
        return sub, ids


class RadialModel(_RadialBase):
    """Warped-product model manifold discretized along the radius."""

    kind = "radial"

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

    kind = "punctured"

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
        self.kind = "punctured"


class FlatBox(ModelManifold):
    """Axis-aligned lattice in R^m with uniform spacing per axis."""

    kind = "flat_box"

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
            self.stencil = LineStencil.on(self.coords[:, 0], np.zeros(self.n_nodes))

    def min_spacing(self) -> float:
        return float(self.h.min())


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
# grid functions and exhaustions
# ---------------------------------------------------------------------------


@dataclass
class GridFunction:
    manifold: ModelManifold
    values: np.ndarray
    neg_inf_mask: np.ndarray | None = None  # USC convention: -inf allowed if flagged

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.manifold.n_nodes,):
            raise InputError("grid function length must match the node count")
        bad = ~np.isfinite(self.values)
        if self.neg_inf_mask is not None:
            bad &= ~(self.neg_inf_mask & (self.values == -np.inf))
        if np.any(bad & self.manifold.interior_mask):
            raise InputError("grid function must be finite on unflagged interior nodes")

    @staticmethod
    def from_callable(M: ModelManifold, fn) -> "GridFunction":
        c = M.coords
        vals = fn(c[:, 0]) if c.shape[1] == 1 else fn(c)
        return GridFunction(M, np.asarray(vals, dtype=float))

    @staticmethod
    def constant(M: ModelManifold, c: float) -> "GridFunction":
        return GridFunction(M, np.full(M.n_nodes, float(c)))

    def copy(self) -> "GridFunction":
        return GridFunction(self.manifold, self.values.copy(),
                            None if self.neg_inf_mask is None else self.neg_inf_mask.copy())


@dataclass
class Exhaustion:
    """Strictly nested node subsets D_1 c D_2 c ...; the last covers all interior."""

    manifold: ModelManifold
    masks: list  # list of boolean arrays over nodes

    def __post_init__(self):
        interior = self.manifold.interior_mask
        prev = None
        for j, mk in enumerate(self.masks):
            mk = np.asarray(mk, dtype=bool)
            if prev is not None:
                if not np.all(mk[prev]):
                    raise InputError(f"exhaustion member {j} does not contain member {j-1}")
                if not np.any(mk & ~prev):
                    raise InputError(f"exhaustion members {j-1}, {j} are not strictly nested")
            prev = mk
        if not np.all(self.masks[-1][interior]):
            raise InputError("last exhaustion member must cover all interior nodes")

    def __len__(self):
        return len(self.masks)

    def __getitem__(self, j):
        return self.masks[j]


def make_exhaustion(M: ModelManifold, j_max: int, radii=None) -> Exhaustion:
    """Nested metric balls / sub-boxes; see the manifold kinds for the shapes.

    ``radii`` overrides the automatic schedule on radial kinds (outer radii
    for RadialModel, symmetric log-fractions for PuncturedEuclidean).
    """
    if j_max < 2:
        raise InputError("need j_max >= 2")
    if isinstance(M, PuncturedEuclidean):
        # exhaust from both ends: the puncture and infinity are both "divergent"
        lo, hi = math.log(M.r[0]), math.log(M.r[-1])
        masks = []
        for j in range(1, j_max + 1):
            pad = 0.5 * (1.0 - j / j_max) * (hi - lo)
            a, b = lo + pad, hi - pad
            mask = (np.log(M.r) >= a - 1e-12) & (np.log(M.r) <= b + 1e-12)
            mask &= M.interior_mask
            masks.append(mask)
        return Exhaustion(M, _dedup_strict(masks, M))
    if isinstance(M, _RadialBase):
        if radii is None:
            r0, r1 = M.r[0], M.r[-1]
            radii = [r0 + (r1 - r0) * j / j_max for j in range(1, j_max + 1)]
        if len(radii) != j_max or np.any(np.diff(radii) <= 0):
            raise InputError("radii must be strictly increasing, length j_max")
        masks = [(M.r <= rad + 1e-12) & M.interior_mask for rad in radii]
        masks[-1] = M.interior_mask.copy()
        return Exhaustion(M, _dedup_strict(masks, M))
    if isinstance(M, FlatBox):
        spans = np.array([b - a for a, b in M.bounds])
        max_margin = 0.5 * spans.min() - M.h.max()
        if max_margin <= 0:
            raise InputError("box too small to nest an exhaustion")
        masks = []
        for j in range(1, j_max + 1):
            margin = max_margin * (1.0 - j / j_max)
            lo = np.array([a for a, _ in M.bounds]) + margin
            hi = np.array([b for _, b in M.bounds]) - margin
            mask = np.all((M.coords >= lo - 1e-12) & (M.coords <= hi + 1e-12), axis=1)
            mask &= M.interior_mask
            masks.append(mask)
        masks[-1] = M.interior_mask.copy()
        return Exhaustion(M, _dedup_strict(masks, M))
    raise InputError(f"unsupported manifold kind {type(M).__name__}")


def _dedup_strict(masks, M):
    """Drop duplicate members so nesting is strict; fail if too few remain."""
    out = [masks[0]]
    for mk in masks[1:]:
        if np.any(mk & ~out[-1]):
            out.append(mk)
    if len(out) < 2:
        raise InputError("manifold too small to nest the requested exhaustion")
    return out


# ---------------------------------------------------------------------------
# discrete calculus
# ---------------------------------------------------------------------------


def radial_hessian_eigs(phi1: float, phi2: float, r: float, warp, m: int) -> np.ndarray:
    """Hessian eigenvalues of a radial function: {phi''} + {phi' g'/g} x (m-1)."""
    warp = get_warp(warp)
    gv = float(warp.g(r))
    if gv <= 0:
        raise DomainError("warping must be positive at r")
    ang = np.array([phi1 * float(warp.dg(r)) / gv])
    return RadialView(None, None, None, ang, np.array([phi2], dtype=float), None, m).eigs[0]


def batch_jets(u: GridFunction, ids=None):
    """Vectorized centred discrete jets: returns (ids, r, p, A) with p (n,m),
    A (n,m,m), by default at every interior node.

    Line grids read their ``LineStencil`` and take the dense jets of a
    ``RadialView``; boxes use the cross stencil.  Skips nodes flagged -inf
    (USC convention).
    """
    M = u.manifold
    ids = M.interior_ids if ids is None else np.asarray(ids, dtype=int)
    if u.neg_inf_mask is not None:
        ids = ids[~u.neg_inf_mask[ids]]
    vals = u.values
    n, m = ids.size, M.m
    if M.stencil is not None:
        S = M.stencil.at(ids)
        uL, uC, uR = vals[ids - 1], vals[ids], vals[ids + 1]
        du = S.du(uL, uC, uR)
        aa = du * S.ang if m > 1 else None  # m = 1 has no angular direction
        J = RadialView(ids, uC, du, aa, S.d2(uL, uC, uR), None, m)
        return ids, uC, J.p, J.A
    p = np.zeros((n, m))
    A = np.zeros((n, m, m))
    if isinstance(M, FlatBox):
        for k in range(m):
            s = M.strides[k]
            p[:, k] = (vals[ids + s] - vals[ids - s]) / (2 * M.h[k])
            A[:, k, k] = (vals[ids + s] + vals[ids - s] - 2 * vals[ids]) / M.h[k] ** 2
        for k in range(m):
            for l in range(k + 1, m):
                sk, sl = M.strides[k], M.strides[l]
                cross = (
                    vals[ids + sk + sl] + vals[ids - sk - sl]
                    - vals[ids + sk - sl] - vals[ids - sk + sl]
                ) / (4 * M.h[k] * M.h[l])
                A[:, k, l] = cross
                A[:, l, k] = cross
    else:
        raise InputError(f"unsupported manifold kind {type(M).__name__}")
    return ids, vals[ids].copy(), p, A


def discrete_jet(u: GridFunction, node: int) -> Jet:
    """The discrete 2-jet of u at one interior node."""
    if not u.manifold.interior_mask[node]:
        raise DomainError("stencil exits the domain at this node")
    ids, r, p, A = batch_jets(u, np.array([node]))
    return Jet(float(r[0]), p[0], SymMatrix.from_full(A[0]))


# ---------------------------------------------------------------------------
# volume growth
# ---------------------------------------------------------------------------


def volume_growth_test(warp, m: int, r_max: float, step: float = 1e-2) -> tuple:
    """Grigor'yan-type sufficient test: diverges iff r / log vol(B_r) is
    not integrable at infinity, judged from the log-log slope of the
    integrand over the last decade of the partial integrals.

    Returns (verdict, trace) with verdict in {"Diverges", "Converges"}.
    """
    warp = get_warp(warp)
    r = np.arange(step, r_max + step / 2, step)
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
        raise DomainError("not enough tail samples; increase r_max or lower step")
    slope = np.polyfit(np.log(r[sel]), np.log(integrand[sel]), 1)[0]
    verdict = "Diverges" if slope >= -1.0 else "Converges"
    trace = {
        "slope": float(slope),
        "r": r[sel][:: max(1, sel.sum() // 64)],
        "partial_integral": partial[sel][:: max(1, sel.sum() // 64)],
        "integrand": integrand[sel][:: max(1, sel.sum() // 64)],
    }
    return verdict, trace
