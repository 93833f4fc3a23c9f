"""Desk-scale model geometries, grid functions and discrete jets.

Three manifold kinds:

* ``FlatBox``    -- axis-aligned lattice in R^m;
* ``RadialModel``-- warped-product model dr^2 + g(r)^2 dtheta^2, discretized
                    along the radial coordinate only (radial functions);
* ``PuncturedEuclidean`` -- R^m minus the origin, a radial grid on
                    [r_min, r_max] meshed logarithmically near the puncture.

On radial kinds a function of r has Hessian eigenvalues phi'' (radial) and
phi' g'/g with multiplicity m-1 (angular), which is what ``discrete_jet``
assembles from second differences.  On FlatBox the Hessian is assembled
from directional second differences over a sampled direction set by least
squares (``monotone-wide``), or from the classic cross stencil
(``centered``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError
from .jets import Jet, SymMatrix

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
# manifolds
# ---------------------------------------------------------------------------


class ModelManifold:
    """Base: a node set with boundary tags and jet assembly."""

    m: int
    n_nodes: int

    @property
    def interior_ids(self) -> np.ndarray:
        return np.where(self.interior_mask)[0]

    def boundary_ids(self, tag: str | None = None) -> np.ndarray:
        if tag is None:
            return np.where(~self.interior_mask)[0]
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
        self.ang_ratio = warp.ratio(r) if m > 1 else np.zeros_like(r)
        self.hL = np.empty_like(r)
        self.hR = np.empty_like(r)
        self.hL[1:] = np.diff(r)
        self.hR[:-1] = np.diff(r)
        self.hL[0] = self.hL[1]
        self.hR[-1] = self.hR[-2]

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
        self._idx = idx
        self.interior_mask = np.all((idx > 0) & (idx < np.array(self.shape) - 1), axis=1)
        self.boundary_tags = {"side": np.where(~self.interior_mask)[0]}

    def interior_ids_depth(self, depth: int) -> np.ndarray:
        ok = np.all(
            (self._idx >= depth) & (self._idx <= np.array(self.shape) - 1 - depth), axis=1
        )
        return np.where(ok)[0]

    def min_spacing(self) -> float:
        return float(self.h.min())

    def neighbor(self, ids, offset) -> np.ndarray:
        return ids + int(np.dot(offset, self.strides))


def _is_line(M: ModelManifold) -> bool:
    """Radial models and 1-D boxes: one grid axis."""
    return isinstance(M, _RadialBase) or (isinstance(M, FlatBox) and M.m == 1)


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
    grad: np.ndarray | None = None          # optional per-node gradient cache
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
                            None if self.grad is None else self.grad.copy(),
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
    if m == 1:
        return np.array([phi2], dtype=float)
    ang = phi1 * float(warp.dg(r)) / gv
    return np.sort(np.concatenate([[phi2], np.full(m - 1, ang)]))


def _radial_derivs(u: np.ndarray, M: _RadialBase, ids: np.ndarray):
    """Second-order nonuniform 3-point first and second derivatives."""
    hL, hR = M.hL[ids], M.hR[ids]
    uC, uL, uR = u[ids], u[ids - 1], u[ids + 1]
    den = hL * hR * (hL + hR)
    du = (hL**2 * uR - hR**2 * uL + (hR**2 - hL**2) * uC) / den
    d2 = 2.0 * (hL * uR + hR * uL - (hL + hR) * uC) / den
    return du, d2


def batch_jets(u: GridFunction, ids=None, scheme: str = "centered",
               stencil_radius: int = 2, directions: int | None = None):
    """Vectorized discrete jets: returns (ids, r, p, A) with p (n,m), A (n,m,m).

    Skips nodes flagged -inf (USC convention).  Uses the gradient cache on
    ``u`` when present.
    """
    M = u.manifold
    if ids is None:
        if isinstance(M, FlatBox) and scheme == "monotone-wide":
            ids = M.interior_ids_depth(stencil_radius)
        else:
            ids = M.interior_ids
    ids = np.asarray(ids, dtype=int)
    if u.neg_inf_mask is not None:
        ids = ids[~u.neg_inf_mask[ids]]
    vals = u.values
    if isinstance(M, _RadialBase):
        du, d2 = _radial_derivs(vals, M, ids)
        if u.grad is not None:
            du = u.grad[ids, 0] if u.grad.ndim == 2 else u.grad[ids]
        n = ids.size
        p = np.zeros((n, M.m))
        p[:, 0] = du
        A = np.zeros((n, M.m, M.m))
        A[:, 0, 0] = d2
        if M.m > 1:
            ang = du * M.ang_ratio[ids]
            for k in range(1, M.m):
                A[:, k, k] = ang
        return ids, vals[ids].copy(), p, A
    if isinstance(M, FlatBox):
        return _flatbox_jets(u, ids, scheme, stencil_radius, directions)
    raise InputError(f"unsupported manifold kind {type(M).__name__}")


def _line_directions(m: int, radius: int, count: int | None):
    """One integer representative per lattice line through the origin."""
    rng = range(-radius, radius + 1)
    seen, dirs = set(), []
    grids = np.meshgrid(*[list(rng)] * m, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    order = np.argsort(np.einsum("ni,ni->n", pts, pts), kind="stable")
    for e in pts[order]:
        if not e.any():
            continue
        g = math.gcd(*[abs(int(c)) for c in e]) or 1
        e = tuple(int(c) // g for c in e)
        for first in e:
            if first:
                if first < 0:
                    e = tuple(-c for c in e)
                break
        if e in seen:
            continue
        seen.add(e)
        dirs.append(e)
        if count is not None and len(dirs) >= count:
            break
    return np.array(dirs, dtype=int)


def _flatbox_jets(u: GridFunction, ids, scheme, stencil_radius, directions):
    M: FlatBox = u.manifold
    vals = u.values
    n = ids.size
    m = M.m
    # gradient: centered axis differences
    p = np.empty((n, m))
    for k in range(m):
        stride = M.strides[k]
        p[:, k] = (vals[ids + stride] - vals[ids - stride]) / (2 * M.h[k])
    if u.grad is not None:
        p = u.grad[ids]
    A = np.zeros((n, m, m))
    if scheme == "centered" or m == 1:
        for k in range(m):
            s = M.strides[k]
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
        return ids, vals[ids].copy(), p, A
    if scheme != "monotone-wide":
        raise InputError("scheme must be 'centered' or 'monotone-wide'")
    default_count = 8 if m == 2 else 16  # 16 / 32 counting both signs
    dirs = _line_directions(m, stencil_radius, directions or default_count)
    d2, units = _directional_second_differences(vals, M, ids, dirs)
    pinv = _ls_pinv(units, m)
    coef = d2 @ pinv.T
    iu = np.triu_indices(m)
    for row, (i, j) in enumerate(zip(*iu)):
        A[:, i, j] = coef[:, row]
        A[:, j, i] = coef[:, row]
    return ids, vals[ids].copy(), p, A


def _directional_second_differences(vals, M: FlatBox, ids, dirs):
    """D^2_e u estimating ehat^T A ehat, one column per direction line."""
    n = ids.size
    out = np.empty((n, len(dirs)))
    units = np.empty((len(dirs), M.m))
    for c, e in enumerate(dirs):
        step = e * M.h
        L2 = float(np.dot(step, step))
        off = int(np.dot(e, M.strides))
        out[:, c] = (vals[ids + off] + vals[ids - off] - 2 * vals[ids]) / L2
        units[c] = step / math.sqrt(L2)
    return out, units


def _ls_pinv(units, m):
    iu = np.triu_indices(m)
    Mrows = np.empty((units.shape[0], iu[0].size))
    for row, (i, j) in enumerate(zip(*iu)):
        Mrows[:, row] = units[:, i] * units[:, j] * (1.0 if i == j else 2.0)
    return np.linalg.pinv(Mrows)


def discrete_jet(u: GridFunction, node: int, scheme: str = "centered",
                 stencil_radius: int = 2, directions: int | None = None) -> Jet:
    """The discrete 2-jet of u at one interior node."""
    M = u.manifold
    if isinstance(M, FlatBox) and scheme == "monotone-wide":
        ok = np.isin(node, M.interior_ids_depth(stencil_radius))
    else:
        ok = bool(M.interior_mask[node])
    if not ok:
        raise DomainError("stencil exits the domain at this node")
    ids, r, p, A = batch_jets(u, np.array([node]), scheme, stencil_radius, directions)
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
