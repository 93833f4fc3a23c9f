"""Fiberwise subequations, the universal catalog, and Dirichlet duality.

A subequation is represented by a continuous defining function G(x,r,p,A)
with the convention F_x = closure{G > 0}, Int F_x = {G > 0}.  All catalog
members are expression trees over a handful of leaf kinds plus min/max
combinators, which makes the Dirichlet dual a structural rewrite:

    dual G (J) = -G(-J),   dual(min) = max(duals),   dual(max) = min(duals),

with catalog tags remapped (lambda_k -> lambda_{m-k+1}, mu_j -> mu_{k-j+1},
bottom-k sums -> top-k sums, f -> -f(-.)).  Gradient-singular members (the
quasilinear family and the infinity Laplacian) extend to the p = 0 fiber by
the limsup of G along p -> 0.

Evaluation is vectorized: r (n,), p (n,m), A (n,m,m); x is an optional
integer node-id array read only by the members with per-node data (obstacle
caps, the collar-relaxed eikonal and its dual, jet-equivalence fields given
per node), which raise InputError when it is None.  Each member writes its
defining function once, as ``_value(J)`` over a jet-batch view J, and
every defining value reads it, the Newton steps' included: ``value``
passes a ``jets.DenseView``, and on line grids ``LineStencil.view``
writes every ``jets.RadialView`` of the radial differences.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .certificates import Certificate
from .errors import ConstructionError, InputError
from .jets import MAX_DIM, DenseView
from .policy import DEFAULT_POLICY
from .profiles import AProfile, Profile


@dataclass(frozen=True)
class SubeqMeta:
    """What callers read of a member: its tag, which names it in audit
    report keys and certificate names, and the right-hand side f of an
    f-member (for a combination, that of its first f-member), which picks
    the comparison regime."""

    tag: str
    f: Profile | None = None


def _as_batch(r, p, A, m):
    r = np.atleast_1d(np.asarray(r, dtype=float))
    p = np.asarray(p, dtype=float)
    A = np.asarray(A, dtype=float)
    if p.ndim == 1:
        p = p[None, :]
    if A.ndim == 2:
        A = A[None, :, :]
    if p.shape != (r.size, m) or A.shape != (r.size, m, m):
        raise InputError("batch jet shapes disagree")
    return r, p, A


def _rows(vals, x):
    """Per-node data at node ids x; a member that has such data needs x."""
    if x is None:
        raise InputError("per-node subequation needs node ids x")
    try:
        return vals[np.asarray(x, dtype=int)]
    except IndexError:
        raise InputError(f"per-node data has {len(vals)} rows, "
                         f"node ids reach {np.max(x)}") from None


def _by_fiber(J, moving, at_rest):
    """moving(J) at the jets with p != 0, at_rest(J) on the p = 0 fiber."""
    nz = J.grad > 0
    if nz.all():
        return moving(J)
    out = np.empty_like(J.r)
    if nz.any():
        out[nz] = moving(J.take(nz))
    out[~nz] = at_rest(J.take(~nz))
    return out


class Subequation:
    """Base class; concrete members implement `_value(J)` and `dual`, and
    keep their per-node data, read at ``J.x``, in ``rows`` (else None).
    ``reads_grad_up`` tells whether `_value` reads the jet view's
    ``grad_up``, which the scheme of a line grid takes upwind."""

    rows = None
    reads_grad_up = False

    def __init__(self, m: int, meta: SubeqMeta):
        if not (1 <= m <= MAX_DIM):
            raise InputError(f"dimension must be in [1, {MAX_DIM}], got {m}")
        self.m = m
        self.meta = meta

    # -- evaluation ------------------------------------------------------
    def value(self, x, r, p, A) -> np.ndarray:
        """Defining value G at a batch of jets; x is node ids or None."""
        r, p, A = _as_batch(r, p, A, self.m)
        return self._value(DenseView(x, r, p, A))

    def _value(self, J) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- structure ---------------------------------------------------------
    def dual(self) -> "Subequation":
        raise NotImplementedError

    def __repr__(self):
        return f"<Subequation {self.meta.tag} m={self.m}>"


# ---------------------------------------------------------------------------
# leaves
# ---------------------------------------------------------------------------


class _Eikonal(Subequation):
    """E_xi = closure{|p| < xi(r)}; with per-node rows eta >= 0 the
    collar-relaxed E_xi^eta = closure{|p| < xi(r) + eta(x)}."""

    reads_grad_up = True

    def __init__(self, m, xi: Profile, eta_vals=None):
        tag = "eikonal" if eta_vals is None else "eikonal_relaxed"
        super().__init__(m, SubeqMeta(tag=tag))
        self.xi, self.rows = xi, eta_vals

    def _value(self, J):
        xi = self.xi(J.r) if self.rows is None else self.xi(J.r) + _rows(self.rows, J.x)
        return xi - J.grad_up

    def dual(self):
        return _EikonalDual(self.m, self.xi.neg_arg(), self.rows)


class _EikonalDual(Subequation):
    """closure{|p| > eta(r)} with eta(r) = xi(-r), the dual eikonal; with
    per-node rows, closure{|p| > eta(r) + rows(x)}, the dual of E_xi^eta."""

    def __init__(self, m, eta: Profile, eta_vals=None):
        tag = "eikonal_dual" if eta_vals is None else "eikonal_dual_relaxed"
        super().__init__(m, SubeqMeta(tag=tag))
        self.eta, self.rows = eta, eta_vals

    def _value(self, J):
        out = J.grad - self.eta(J.r)
        return out if self.rows is None else out - _rows(self.rows, J.x)

    def dual(self):
        return _Eikonal(self.m, self.eta.neg_arg(), self.rows)


class _Laplace(Subequation):
    """{tr A >= f(r)}."""

    def __init__(self, m, f: Profile):
        super().__init__(m, SubeqMeta(tag="laplace", f=f))
        self.f = f

    def _value(self, J):
        return J.trace - self.f(J.r)

    def dual(self):
        return _Laplace(self.m, self.f.reflect())


class _Hessian(Subequation):
    """{lambda_k(A) >= f(r)} (ascending eigenvalue branches)."""

    def __init__(self, m, k, f: Profile):
        if not (1 <= k <= m):
            raise InputError("hessian branch index out of range")
        super().__init__(m, SubeqMeta(tag=f"hessian_branch[{k}]", f=f))
        self.k, self.f = k, f

    def _value(self, J):
        return J.eigs[:, self.k - 1] - self.f(J.r)

    def dual(self):
        return _Hessian(self.m, self.m - self.k + 1, self.f.reflect())


class _Plurisub(Subequation):
    """{lambda_1 + ... + lambda_k >= f(r)} (k-plurisubharmonicity); with
    ``top``, {lambda_{m-k+1} + ... + lambda_m >= f(r)}, its Dirichlet dual."""

    def __init__(self, m, k, f: Profile, top: bool = False):
        if not (1 <= k <= m):
            raise InputError("plurisub order out of range")
        super().__init__(m, SubeqMeta(tag=f"plurisub{'_top' if top else ''}[{k}]", f=f))
        self.k, self.f, self.top = k, f, top

    def _value(self, J):
        ev = J.eigs
        part = ev[:, self.m - self.k:] if self.top else ev[:, : self.k]
        return part.sum(axis=1) - self.f(J.r)

    def dual(self):
        return _Plurisub(self.m, self.k, self.f.reflect(), not self.top)


class _Sigma(Subequation):
    """{mu_j^(k)(A) >= f(r)}: branches of the k-Hessian equation."""

    def __init__(self, m, j, k, f: Profile):
        if not (1 <= k <= m and 1 <= j <= k):
            raise InputError("sigma branch indices out of range")
        super().__init__(m, SubeqMeta(tag=f"sigma_branch[{j},{k}]", f=f))
        self.j, self.k, self.f = j, k, f

    def _value(self, J):
        return J.garding(self.k)[:, self.j - 1] - self.f(J.r)

    def dual(self):
        return _Sigma(self.m, self.k - self.j + 1, self.k, self.f.reflect())


class _Quasilinear(Subequation):
    """closure{p != 0, tr(T(p) A) > f(r)} for T(p) from an AProfile."""

    def __init__(self, m, aprof: AProfile, f: Profile):
        super().__init__(m, SubeqMeta(tag=f"quasilinear[{aprof.name}]", f=f))
        self.aprof, self.f = aprof, f

    def _value(self, J):
        ap = self.aprof

        def moving(J):
            t, quad = J.grad, J.dir2_unit
            return ap.lam1(t) * quad + ap.lam2(t) * (J.trace - quad)

        def at_rest(J):  # limsup of tr(T(p)A) along p -> 0
            ev, l1, l2 = J.eigs, ap.lam1_0, ap.lam2_0
            return l2 * J.trace + (l1 - l2) * (ev[:, -1] if l1 >= l2 else ev[:, 0])

        return _by_fiber(J, moving, at_rest) - self.f(J.r)

    def dual(self):
        return _Quasilinear(self.m, self.aprof, self.f.reflect())


class _InfLaplacian(Subequation):
    """closure{p != 0, A(p,p)/|p|^2 > f(r)}: the normalized infinity Laplacian."""

    def __init__(self, m, f: Profile):
        super().__init__(m, SubeqMeta(tag="inf_laplacian", f=f))
        self.f = f

    def _value(self, J):
        # at p = 0 the limsup over directions, the top eigenvalue
        return _by_fiber(J, lambda J: J.dir2, lambda J: J.eigs[:, -1]) - self.f(J.r)

    def dual(self):
        return _InfLaplacian(self.m, self.f.reflect())


class _Const(Subequation):
    """Constant defining value: whole jet space (c > 0) or empty set (c < 0)."""

    def __init__(self, m, c: float):
        super().__init__(m, SubeqMeta(tag=f"const[{c:g}]"))
        self.c = float(c)

    def _value(self, J):
        return np.full_like(J.r, self.c)

    def dual(self):
        return _Const(self.m, -self.c)


class _HalfspaceR(Subequation):
    """{r <= s * g(x)}: the value-cap fiber of an obstacle (s = +1) or its dual
    (s = -1); g is a scalar or per-node rows."""

    def __init__(self, m, gvals, sign: int, label: str = "obstacle_cap"):
        super().__init__(m, SubeqMeta(tag=f"{label}[{'+' if sign > 0 else '-'}]"))
        self.gvals = np.asarray(gvals, dtype=float)
        self.rows = self.gvals if self.gvals.ndim else None
        self.sign = int(sign)

    def _value(self, J):
        g = np.full(J.r.size, float(self.gvals)) if self.rows is None else _rows(self.rows, J.x)
        return self.sign * g - J.r

    def dual(self):
        return _HalfspaceR(self.m, self.gvals, -self.sign, label="obstacle_cap")


class _MinMax(Subequation):
    """Intersection (G = min of the parts' G) or, with ``union``, union (max);
    the dual of one is the other over the parts' duals."""

    def __init__(self, parts, union: bool):
        m = parts[0].m
        if any(q.m != m for q in parts):
            kind = "union" if union else "intersection"
            raise InputError(f"{kind} members must share dimension")
        tags = ",".join(q.meta.tag for q in parts)
        super().__init__(m, SubeqMeta(
            tag=f"{'union' if union else 'intersect'}({tags})",
            f=next((q.meta.f for q in parts if q.meta.f is not None), None)))
        self.parts = tuple(parts)
        self.union = union
        self.reads_grad_up = any(q.reads_grad_up for q in parts)
        self.reduce = np.maximum.reduce if union else np.minimum.reduce

    def _value(self, J):
        return self.reduce([q._value(J) for q in self.parts])

    def dual(self):
        return _MinMax([q.dual() for q in self.parts], not self.union)


# ---------------------------------------------------------------------------
# jet-equivalence
# ---------------------------------------------------------------------------


@dataclass
class JetEquivalence:
    """Psi(x,r,p,A) = (x, r, g p, h A h^t + L(p)) [+ J0], with constant or
    per-node fields.

    g, h: (m,m) or (N,m,m); L: (m,m,m) or (N,m,m,m) with L(p) = sum_k p_k L[k];
    J0: optional affine jet part (r0, p0 (m,), A0 (m,m)), constant or per-node.
    """

    m: int
    g: np.ndarray
    h: np.ndarray
    L: np.ndarray | None = None
    J0: tuple | None = None

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=float)
        self.h = np.asarray(self.h, dtype=float)
        if self.L is not None:
            self.L = np.asarray(self.L, dtype=float)
        for name, arr, nd in (("g", self.g, 2), ("h", self.h, 2)):
            if arr.shape[-2:] != (self.m, self.m) or arr.ndim not in (nd, nd + 1):
                raise InputError(f"jet-equivalence field {name} has wrong shape")
        self._check_invertible()

    def _check_invertible(self):
        for name, arr in (("g", self.g), ("h", self.h)):
            mats = arr if arr.ndim == 3 else arr[None]
            dets = np.linalg.det(mats)
            if np.any(np.abs(dets) < 1e-12):
                raise ConstructionError(f"jet-equivalence field {name} is singular at a base point")

    def _field(self, arr, x, n, nd):
        if arr.ndim == nd:
            return np.broadcast_to(arr, (n,) + arr.shape)
        return _rows(arr, x)

    def apply(self, x, r, p, A):
        n = r.size
        g = self._field(self.g, x, n, 2)
        h = self._field(self.h, x, n, 2)
        p2 = np.einsum("nij,nj->ni", g, p)
        A2 = np.einsum("nik,nkl,njl->nij", h, A, h)
        if self.L is not None:
            L = self._field(self.L, x, n, 3)
            A2 = A2 + np.einsum("nk,nkij->nij", p, L)
        r2 = r
        if self.J0 is not None:
            r0, p0, A0 = self.J0
            r2 = r2 + r0
            p2 = p2 + np.asarray(p0, dtype=float)
            A2 = A2 + np.asarray(A0, dtype=float)
        return r2, p2, A2

    def flip_affine(self) -> "JetEquivalence":
        if self.J0 is None:
            return self
        r0, p0, A0 = self.J0
        return JetEquivalence(self.m, self.g, self.h, self.L,
                              (-r0, -np.asarray(p0), -np.asarray(A0)))

class _JetEquiv(Subequation):
    """Membership J in F_x  <=>  Psi(J) in model: defining G_model o Psi."""

    def __init__(self, psi: JetEquivalence, child: Subequation):
        if psi.m != child.m:
            raise InputError("jet-equivalence dimension mismatch")
        super().__init__(child.m, SubeqMeta(tag=f"jetequiv({child.meta.tag})", f=child.meta.f))
        self.psi = psi
        self.child = child

    def _value(self, J):
        return self.child._value(DenseView(J.x, *self.psi.apply(J.x, J.r, J.p, J.A)))

    def dual(self):
        return _JetEquiv(self.psi.flip_affine(), self.child.dual())


# ---------------------------------------------------------------------------
# public constructors
# ---------------------------------------------------------------------------


def eikonal(xi: Profile | float = 1.0, m: int = 2) -> Subequation:
    return eikonal_relaxed(xi, None, m)


def eikonal_relaxed(xi: Profile | float, eta_vals=None, m: int = 2) -> Subequation:
    """E_xi^eta with per-node relaxation eta >= 0; eta None gives plain E_xi."""
    if not isinstance(xi, Profile):
        xi = Profile.constant(float(xi))
    if eta_vals is not None:
        eta_vals = np.asarray(eta_vals, dtype=float)
        if np.any(eta_vals < 0):
            raise InputError("eta must be non-negative")
    return _Eikonal(m, xi.require_xi(), eta_vals)


def laplace(f: Profile, m: int = 2) -> Subequation:
    return _Laplace(m, f.require_f())


def hessian_branch(k: int, f: Profile, m: int = 2) -> Subequation:
    return _Hessian(m, k, f.require_f())


def sigma_branch(j: int, k: int, f: Profile, m: int = 2) -> Subequation:
    return _Sigma(m, j, k, f.require_f())


def plurisub_trace(k: int, f: Profile, m: int = 2) -> Subequation:
    return _Plurisub(m, k, f.require_f())


def quasilinear(aprof: AProfile, f: Profile, m: int = 2) -> Subequation:
    return _Quasilinear(m, aprof.validate(), f.require_f())


def inf_laplacian(f: Profile | float = 0.0, m: int = 2) -> Subequation:
    if not isinstance(f, Profile):
        f = Profile.constant(float(f))
    return _InfLaplacian(m, f.require_f() if f.kind != "constant" else f)


def whole_space(m: int) -> Subequation:
    return _Const(m, 1.0)


def dual(F: Subequation) -> Subequation:
    return F.dual()


def intersect(*parts: Subequation) -> Subequation:
    if len(parts) < 1:
        raise InputError("intersect needs at least one member")
    return _MinMax(parts, union=False) if len(parts) > 1 else parts[0]


def union(*parts: Subequation) -> Subequation:
    if len(parts) < 1:
        raise InputError("union needs at least one member")
    return _MinMax(parts, union=True) if len(parts) > 1 else parts[0]


def obstacle(F: Subequation, g) -> Subequation:
    """F^g = F intersect {r <= g(x)}; g is a GridFunction, array, or scalar."""
    gvals = getattr(g, "values", g)
    return _MinMax([F, _HalfspaceR(F.m, gvals, +1)], union=False)


def below_zero_cap(m: int) -> Subequation:
    """{r <= 0}, the cap used by the Ahlfors set H = F~ union {r <= 0}."""
    return _HalfspaceR(m, 0.0, +1, label="zero_cap")


def apply_jet_equivalence(psi: JetEquivalence, F: Subequation) -> Subequation:
    return _JetEquiv(psi, F)


def linear_jetequiv(T, W=None, B: float = 0.0, b: float = 1.0,
                    f: Profile | None = None, m: int | None = None) -> Subequation:
    """Subequation of the linear operator L u = tr(T ∇du) + <W, du> + B >= b f(u).

    Built as a jet-equivalence onto the laplace model through the square
    root H of the positive-definite coefficient field T:
        Psi(x,r,p,A) = (x, r, p, [H A H^t + W ⊙ p + (B/m) I] / b).
    """
    T = np.asarray(T, dtype=float)
    m = T.shape[0] if m is None else m
    if T.shape != (m, m):
        raise InputError("coefficient field T must be m x m")
    ew, ev = np.linalg.eigh(0.5 * (T + T.T))
    if np.any(ew <= 0):
        raise ConstructionError("coefficient field T must be positive definite")
    if b <= 0:
        raise ConstructionError("normalizer b must be positive")
    H = (ev * np.sqrt(ew)) @ ev.T
    L = None
    if W is not None:
        W = np.asarray(W, dtype=float)
        L = np.zeros((m, m, m))
        for kk in range(m):
            ek = np.zeros(m)
            ek[kk] = 1.0
            L[kk] = 0.5 * (np.outer(W, ek) + np.outer(ek, W))
    J0 = None
    if B != 0.0:
        J0 = (0.0, np.zeros(m), (B / m) * np.eye(m))
    scale = b ** -1.0
    psi = JetEquivalence(m, g=np.eye(m), h=np.sqrt(scale) * H,
                         L=None if L is None else scale * L,
                         J0=None if J0 is None else (0.0, np.zeros(m), scale * J0[2]))
    f = Profile.linear(0.0) if f is None else f
    return apply_jet_equivalence(psi, laplace(f, m=m))


# ---------------------------------------------------------------------------
# fiber distance and (P)(N)(T) audits
# ---------------------------------------------------------------------------


class BoundaryDistance(NamedTuple):
    value: np.ndarray
    found: np.ndarray


@functools.lru_cache(maxsize=MAX_DIM)
def _packing(m):
    """Upper-triangle indices of A and their weights in the fiber coordinates."""
    iu = np.triu_indices(m)
    return iu, np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))


def _jet_coords(r, p, A):
    """Orthonormal flat-fiber (Sasaki) coordinates of one jet or a batch."""
    iu, w = _packing(p.shape[-1])
    r = np.asarray(r, dtype=float)[..., None]
    return np.concatenate([r, p, A[..., iu[0], iu[1]] * w], axis=-1)


def _coords_to_jet(c, m):
    iu, w = _packing(m)
    A = np.zeros(c.shape[:-1] + (m, m))
    A[..., iu[0], iu[1]] = c[..., 1 + m:] / w
    diag = np.diagonal(A, axis1=-2, axis2=-1).copy()
    A = A + np.swapaxes(A, -1, -2)
    A[..., range(m), range(m)] -= diag
    return c[..., 0], c[..., 1:1 + m], A


def _norms(X):
    """Row norms by one dot product per row, as np.linalg.norm of one vector."""
    return np.sqrt((X[:, None, :] @ X[:, :, None])[:, 0, 0])


# |G| at or below this is a jet on the boundary of F (distance 0)
ABS_TOL = 1e-10


def distance_to_boundary(F: Subequation, x, r, p, A) -> BoundaryDistance:
    """Fiber distance from each jet to the boundary of F_x (flat fiber metric).

    Jets come as in `Subequation.value`.  |G| <= ``ABS_TOL`` is 0.
    Else up to five rays towards the other sign of G are searched: steepest
    G-change (central differences), the r-shift, the trace shift and
    +-p/|p|.  Each ray encloses its crossing at t = 1, 2, 4, ... <= 64 and
    halves to t_hi - t_lo <= 1e-9 (1 + t_hi), at most 60 times; the
    nearest crossing wins (+inf, found=False, if none).  One F.value call
    serves the open rays of the whole batch per stage, and a done ray is
    frozen, so no distance depends on its batch.
    """
    r, p, A = _as_batch(r, p, A, F.m)
    m, n = F.m, r.size
    xs = None if x is None else np.broadcast_to(np.asarray(x), (n,))

    def G(c, jets):
        return F.value(None if xs is None else xs[jets], *_coords_to_jet(c, m))

    g0 = F.value(xs, r, p, A)
    dist = np.zeros(n)
    todo = np.flatnonzero(~(np.abs(g0) <= ABS_TOL))
    if todo.size:
        c0 = _jet_coords(r[todo], p[todo], A[todo])
        k, K = c0.shape
        s0 = np.sign(g0[todo])
        eps = 1e-6 * (1.0 + _norms(c0))
        E = eps[:, None, None] * np.eye(K)
        bumps = np.concatenate([c0[:, None, :] + E, c0[:, None, :] - E], axis=1)
        gb = G(bumps.reshape(-1, K), np.repeat(todo, 2 * K)).reshape(k, 2, K)
        grad = (gb[:, 0] - gb[:, 1]) / (2 * eps[:, None])
        gn, pn = _norms(grad), _norms(c0[:, 1:1 + m])
        e_r = _jet_coords(1.0, np.zeros(m), np.zeros((m, m)))
        e_A = _jet_coords(0.0, np.zeros(m), np.eye(m) / np.sqrt(m))
        e_p = np.zeros_like(c0)
        e_p[:, 1:1 + m] = c0[:, 1:1 + m] / np.where(pn > 1e-12, pn, 1.0)[:, None]
        D = np.concatenate([-s0[:, None] * grad / np.where(gn > 1e-12, gn, 1.0)[:, None],
                            -s0[:, None] * e_r, -s0[:, None] * e_A, e_p, -e_p])
        keep = np.concatenate([gn > 1e-12, np.ones(2 * k, bool), pn > 1e-12, pn > 1e-12])
        D, own = D[keep], np.tile(np.arange(k), 5)[keep]

        def crosses(t, rays):
            g = G(c0[own[rays]] + t[:, None] * D[rays], todo[own[rays]])
            return np.sign(g) != s0[own[rays]]

        lo, hi = np.zeros(own.size), np.full(own.size, np.inf)
        live = np.arange(own.size)
        t = 1.0
        while t <= 64.0 and live.size:
            hit = crosses(np.full(live.size, t), live)
            hi[live[hit]] = t
            live = live[~hit]
            lo[live] = t
            t *= 2.0
        live = np.flatnonzero(np.isfinite(hi))
        for _ in range(60):
            if not live.size:
                break
            mid = 0.5 * (lo[live] + hi[live])
            hit = crosses(mid, live)
            hi[live] = np.where(hit, mid, hi[live])
            lo[live] = np.where(hit, lo[live], mid)
            live = live[hi[live] - lo[live] > 1e-9 * (1.0 + hi[live])]
        dist[todo] = np.inf
        np.minimum.at(dist, todo[own], 0.5 * (lo + hi))
    return BoundaryDistance(dist, np.isfinite(dist))


def audit_PNT(F: Subequation, n: int = 100_000,
              seed: int = 0) -> Certificate:
    """Sample-test positivity (P), negativity (N) and interior approximability.

    The sampled jets have r and p normal with standard deviation 2 and
    GOE-like A = B + B^T, B standard normal, with no base point.
    Violations are data, not errors: the certificate lists worst magnitudes
    and counts; `passed` means zero violations beyond membership_tol.
    """
    return _audit_PNT(F, _pnt_views(F.m, n, seed), seed)


def _random_jets(rng, n, m):
    """n jets: r and p normal with standard deviation 2, A = B + B^T with B
    standard normal."""
    r = 2.0 * rng.standard_normal(n)
    p = 2.0 * rng.standard_normal((n, m))
    B = rng.standard_normal((n, m, m))
    return r, p, B + np.transpose(B, (0, 2, 1))


def _pnt_views(m, n, seed):
    """audit_PNT's sample as views: J, J with a random PSD matrix added to A
    (P), and J with r lowered (N), which shares J's spectrum and readings."""
    rng = np.random.default_rng(seed)
    r, p, A = _random_jets(rng, n, m)
    B = rng.standard_normal((n, m, m))
    P = np.einsum("nik,njk->nij", B, B) / m
    dr = np.abs(rng.standard_normal(n)) + 1e-3
    J = DenseView(None, r, p, A)
    JN = DenseView(None, r - dr, p, A)
    JN.levels, JN.readings = J.levels, J.readings
    return J, DenseView(None, r, p, A + P), JN


def _audit_PNT(F, views, seed):
    J, JP, JN = views
    g = F._value(J)
    tol = DEFAULT_POLICY.membership_tol
    # (P): adding a random PSD matrix must not decrease G
    p_viol = g - F._value(JP)
    # (N): decreasing r must not decrease G
    n_viol = g - F._value(JN)

    # (T) proxy: boundary jets must admit interior jets within every radius
    band = np.abs(g) <= 10 * tol
    t_fail = 0
    t_checked = int(band.sum())
    if t_checked:
        delta = 1e-3
        ok = np.zeros(t_checked, dtype=bool)
        for shift in (
            (0.0, 1.0),   # A + delta I
            (-1.0, 0.0),  # r - delta
            (-1.0, 1.0),
        ):
            rr = J.r[band] + shift[0] * delta
            AA = J.A[band] + shift[1] * delta * np.eye(F.m)
            ok |= F._value(DenseView(None, rr, J.p[band], AA)) > 0
        t_fail = int((~ok).sum())

    worst = {
        "P_violation": float(np.max(p_viol, initial=0.0)),
        "N_violation": float(np.max(n_viol, initial=0.0)),
    }
    counts = {
        "P_violations": int((p_viol > tol).sum()),
        "N_violations": int((n_viol > tol).sum()),
        "T_boundary_checked": t_checked,
        "T_unapproximable": t_fail,
    }
    passed = counts["P_violations"] == 0 and counts["N_violations"] == 0 and t_fail == 0
    return Certificate(
        name=f"audit_PNT[{F.meta.tag}]", passed=passed, tolerance=tol,
        worst=worst, counts=counts,
        params={"n": J.r.size, "seed": seed, "m": F.m},
    )
