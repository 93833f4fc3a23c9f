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
integer node-id array consumed only by base-dependent members (obstacles,
jet-equivalence fields given per node).
"""
from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .certificates import Certificate
from .errors import ConstructionError, InputError
from .jets import (
    Jet,
    eigenvalues_sym_batch,
    garding_eigenvalues_batch,
)
from .policy import DEFAULT_POLICY, NumericPolicy
from .profiles import AProfile, Profile


class Region(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


@dataclass(frozen=True)
class SubeqMeta:
    tag: str
    is_universal: bool = True
    depends_on_gradient: bool = False
    base_dependent: bool = False
    f: Profile | None = None
    xi: Profile | None = None


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


class Subequation:
    """Base class; concrete members implement `_value` and `children`."""

    def __init__(self, m: int, meta: SubeqMeta):
        if m < 1:
            raise InputError("dimension must be >= 1")
        self.m = m
        self.meta = meta

    # -- evaluation ------------------------------------------------------
    def value(self, x, r, p, A) -> np.ndarray:
        """Defining value G at a batch of jets; x is node ids or None."""
        r, p, A = _as_batch(r, p, A, self.m)
        return self._value(x, r, p, A)

    def value_jet(self, x, jet: Jet) -> float:
        return float(self.value(x, jet.r, jet.p, jet.A.full)[0])

    def _value(self, x, r, p, A) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def children(self) -> tuple:
        return ()

    # -- structure ---------------------------------------------------------
    def dual(self) -> "Subequation":
        raise NotImplementedError

    def __repr__(self):
        return f"<Subequation {self.meta.tag} m={self.m}>"


def contains(F: Subequation, x, jet: Jet, tol: float | None = None,
             policy: NumericPolicy = DEFAULT_POLICY) -> Region:
    """Classify a jet against F_x: Interior (G > tol), Boundary, Exterior."""
    if jet.m != F.m:
        raise InputError("jet dimension does not match subequation")
    tol = policy.membership_tol if tol is None else tol
    g = F.value_jet(x, jet)
    if g > tol:
        return Region.INTERIOR
    if g < -tol:
        return Region.EXTERIOR
    return Region.BOUNDARY


# ---------------------------------------------------------------------------
# leaves
# ---------------------------------------------------------------------------


class _Eikonal(Subequation):
    """E_xi = closure{|p| < xi(r)}."""

    def __init__(self, m, xi: Profile):
        super().__init__(m, SubeqMeta(tag="eikonal", depends_on_gradient=True, xi=xi))
        self.xi = xi

    def _value(self, x, r, p, A):
        return self.xi(r) - np.linalg.norm(p, axis=1)

    def dual(self):
        return _EikonalDual(self.m, self.xi.neg_arg())


class _EikonalDual(Subequation):
    """closure{|p| > eta(r)} with eta(r) = xi(-r); the dual eikonal."""

    def __init__(self, m, eta: Profile):
        super().__init__(m, SubeqMeta(tag="eikonal_dual", depends_on_gradient=True, xi=eta))
        self.eta = eta

    def _value(self, x, r, p, A):
        return np.linalg.norm(p, axis=1) - self.eta(r)

    def dual(self):
        return _Eikonal(self.m, self.eta.neg_arg())


class _EikonalRelaxed(Subequation):
    """E_xi^eta = closure{|p| < xi(r) + eta(x)}: the collar-relaxed eikonal."""

    def __init__(self, m, xi: Profile, eta_vals):
        super().__init__(m, SubeqMeta(tag="eikonal_relaxed", depends_on_gradient=True,
                                      base_dependent=True, xi=xi))
        self.xi = xi
        self.eta_vals = np.asarray(eta_vals, dtype=float)

    def _eta(self, x, n):
        if x is None:
            raise InputError("relaxed eikonal needs node ids x")
        return self.eta_vals[np.asarray(x, dtype=int)]

    def _value(self, x, r, p, A):
        return self.xi(r) + self._eta(x, r.size) - np.linalg.norm(p, axis=1)

    def dual(self):
        return _EikonalDualRelaxed(self.m, self.xi.neg_arg(), self.eta_vals)


class _EikonalDualRelaxed(Subequation):
    """closure{|p| > eta(x) + xi(-r)}: dual of the relaxed eikonal."""

    def __init__(self, m, eta_prof: Profile, eta_vals):
        super().__init__(m, SubeqMeta(tag="eikonal_dual_relaxed", depends_on_gradient=True,
                                      base_dependent=True, xi=eta_prof))
        self.eta_prof = eta_prof
        self.eta_vals = np.asarray(eta_vals, dtype=float)

    def _value(self, x, r, p, A):
        if x is None:
            raise InputError("relaxed eikonal needs node ids x")
        eta = self.eta_vals[np.asarray(x, dtype=int)]
        return np.linalg.norm(p, axis=1) - self.eta_prof(r) - eta

    def dual(self):
        return _EikonalRelaxed(self.m, self.eta_prof.neg_arg(), self.eta_vals)


class _Laplace(Subequation):
    """{tr A >= f(r)}."""

    def __init__(self, m, f: Profile):
        super().__init__(m, SubeqMeta(tag="laplace", f=f))
        self.f = f

    def _value(self, x, r, p, A):
        return np.trace(A, axis1=1, axis2=2) - self.f(r)

    def dual(self):
        return _Laplace(self.m, self.f.reflect())


class _Hessian(Subequation):
    """{lambda_k(A) >= f(r)} (ascending eigenvalue branches)."""

    def __init__(self, m, k, f: Profile):
        if not (1 <= k <= m):
            raise InputError("hessian branch index out of range")
        super().__init__(m, SubeqMeta(tag=f"hessian_branch[{k}]", f=f))
        self.k, self.f = k, f

    def _value(self, x, r, p, A):
        return eigenvalues_sym_batch(A)[:, self.k - 1] - self.f(r)

    def dual(self):
        return _Hessian(self.m, self.m - self.k + 1, self.f.reflect())


class _PlurisubBottom(Subequation):
    """{lambda_1 + ... + lambda_k >= f(r)} (k-plurisubharmonicity)."""

    def __init__(self, m, k, f: Profile):
        if not (1 <= k <= m):
            raise InputError("plurisub order out of range")
        super().__init__(m, SubeqMeta(tag=f"plurisub[{k}]", f=f))
        self.k, self.f = k, f

    def _value(self, x, r, p, A):
        ev = eigenvalues_sym_batch(A)
        return ev[:, : self.k].sum(axis=1) - self.f(r)

    def dual(self):
        return _PlurisubTop(self.m, self.k, self.f.reflect())


class _PlurisubTop(Subequation):
    """{lambda_{m-k+1} + ... + lambda_m >= f(r)}; the dual of bottom-k."""

    def __init__(self, m, k, f: Profile):
        if not (1 <= k <= m):
            raise InputError("plurisub order out of range")
        super().__init__(m, SubeqMeta(tag=f"plurisub_top[{k}]", f=f))
        self.k, self.f = k, f

    def _value(self, x, r, p, A):
        ev = eigenvalues_sym_batch(A)
        return ev[:, self.m - self.k:].sum(axis=1) - self.f(r)

    def dual(self):
        return _PlurisubBottom(self.m, self.k, self.f.reflect())


class _Sigma(Subequation):
    """{mu_j^(k)(A) >= f(r)}: branches of the k-Hessian equation."""

    def __init__(self, m, j, k, f: Profile):
        if not (1 <= k <= m and 1 <= j <= k):
            raise InputError("sigma branch indices out of range")
        super().__init__(m, SubeqMeta(tag=f"sigma_branch[{j},{k}]", f=f))
        self.j, self.k, self.f = j, k, f

    def _value(self, x, r, p, A):
        mu = garding_eigenvalues_batch(A, self.k)
        return mu[:, self.j - 1] - self.f(r)

    def dual(self):
        return _Sigma(self.m, self.k - self.j + 1, self.k, self.f.reflect())


class _Quasilinear(Subequation):
    """closure{p != 0, tr(T(p) A) > f(r)} for T(p) from an AProfile."""

    def __init__(self, m, aprof: AProfile, f: Profile):
        super().__init__(
            m, SubeqMeta(tag=f"quasilinear[{aprof.name}]", depends_on_gradient=True, f=f)
        )
        self.aprof, self.f = aprof, f

    def _value(self, x, r, p, A):
        t = np.linalg.norm(p, axis=1)
        trA = np.trace(A, axis1=1, axis2=2)
        out = np.empty_like(r)
        nz = t > 0
        if np.any(nz):
            phat = p[nz] / t[nz, None]
            quad = np.einsum("ni,nij,nj->n", phat, A[nz], phat)
            l1 = self.aprof.lam1(t[nz])
            l2 = self.aprof.lam2(t[nz])
            out[nz] = l1 * quad + l2 * (trA[nz] - quad)
        if np.any(~nz):
            # p = 0 fiber: limsup of tr(T(p)A) along p -> 0
            ev = eigenvalues_sym_batch(A[~nz])
            l1, l2 = self.aprof.lam1_0, self.aprof.lam2_0
            extremal = ev[:, -1] if l1 >= l2 else ev[:, 0]
            out[~nz] = l2 * trA[~nz] + (l1 - l2) * extremal
        return out - self.f(r)

    def dual(self):
        return _Quasilinear(self.m, self.aprof, self.f.reflect())


class _InfLaplacian(Subequation):
    """closure{p != 0, A(p,p)/|p|^2 > f(r)}: the normalized infinity Laplacian."""

    def __init__(self, m, f: Profile):
        super().__init__(m, SubeqMeta(tag="inf_laplacian", depends_on_gradient=True, f=f))
        self.f = f

    def _value(self, x, r, p, A):
        t2 = np.einsum("ni,ni->n", p, p)
        out = np.empty_like(r)
        nz = t2 > 0
        if np.any(nz):
            quad = np.einsum("ni,nij,nj->n", p[nz], A[nz], p[nz])
            out[nz] = quad / t2[nz]
        if np.any(~nz):
            out[~nz] = eigenvalues_sym_batch(A[~nz])[:, -1]  # limsup over directions
        return out - self.f(r)

    def dual(self):
        return _InfLaplacian(self.m, self.f.reflect())


class _Const(Subequation):
    """Constant defining value: whole jet space (c > 0) or empty set (c < 0)."""

    def __init__(self, m, c: float):
        super().__init__(m, SubeqMeta(tag=f"const[{c:g}]"))
        self.c = float(c)

    def _value(self, x, r, p, A):
        return np.full_like(r, self.c)

    def dual(self):
        return _Const(self.m, -self.c)


class _HalfspaceR(Subequation):
    """{r <= s * g(x)}: the value-cap fiber of an obstacle (s = +1) or its dual (s = -1)."""

    def __init__(self, m, gvals, sign: int, label: str = "obstacle_cap"):
        gv = np.asarray(gvals, dtype=float)
        super().__init__(
            m, SubeqMeta(tag=f"{label}[{'+' if sign > 0 else '-'}]",
                         is_universal=False, base_dependent=gv.ndim > 0)
        )
        self.gvals = gv
        self.sign = int(sign)

    def _g_at(self, x, n):
        if self.gvals.ndim == 0:
            return np.full(n, float(self.gvals))
        if x is None:
            raise InputError("base-dependent subequation needs node ids x")
        return self.gvals[np.asarray(x, dtype=int)]

    def _value(self, x, r, p, A):
        return self.sign * self._g_at(x, r.size) - r

    def dual(self):
        return _HalfspaceR(self.m, self.gvals, -self.sign, label="obstacle_cap")


class _Min(Subequation):
    def __init__(self, parts):
        m = parts[0].m
        if any(q.m != m for q in parts):
            raise InputError("intersection members must share dimension")
        meta = SubeqMeta(
            tag="intersect(" + ",".join(q.meta.tag for q in parts) + ")",
            is_universal=all(q.meta.is_universal for q in parts),
            depends_on_gradient=any(q.meta.depends_on_gradient for q in parts),
            base_dependent=any(q.meta.base_dependent for q in parts),
            f=next((q.meta.f for q in parts if q.meta.f is not None), None),
            xi=next((q.meta.xi for q in parts if q.meta.xi is not None), None),
        )
        super().__init__(m, meta)
        self.parts = tuple(parts)

    @property
    def children(self):
        return self.parts

    def _value(self, x, r, p, A):
        return np.minimum.reduce([q._value(x, r, p, A) for q in self.parts])

    def dual(self):
        return _Max([q.dual() for q in self.parts])


class _Max(Subequation):
    def __init__(self, parts):
        m = parts[0].m
        if any(q.m != m for q in parts):
            raise InputError("union members must share dimension")
        meta = SubeqMeta(
            tag="union(" + ",".join(q.meta.tag for q in parts) + ")",
            is_universal=all(q.meta.is_universal for q in parts),
            depends_on_gradient=any(q.meta.depends_on_gradient for q in parts),
            base_dependent=any(q.meta.base_dependent for q in parts),
            f=next((q.meta.f for q in parts if q.meta.f is not None), None),
            xi=next((q.meta.xi for q in parts if q.meta.xi is not None), None),
        )
        super().__init__(m, meta)
        self.parts = tuple(parts)

    @property
    def children(self):
        return self.parts

    def _value(self, x, r, p, A):
        return np.maximum.reduce([q._value(x, r, p, A) for q in self.parts])

    def dual(self):
        return _Min([q.dual() for q in self.parts])


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

    @property
    def base_dependent(self) -> bool:
        return self.g.ndim == 3 or self.h.ndim == 3 or (
            self.L is not None and self.L.ndim == 4)

    def _field(self, arr, x, n, nd):
        if arr is None:
            return None
        if arr.ndim == nd:
            return np.broadcast_to(arr, (n,) + arr.shape)
        if x is None:
            raise InputError("per-node jet-equivalence needs node ids x")
        return arr[np.asarray(x, dtype=int)]

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

    def inverse_apply(self, x, r, p, A):
        """Inverse transform, used to audit invertibility by round-trip."""
        n = r.size
        if self.J0 is not None:
            r0, p0, A0 = self.J0
            r = r - r0
            p = p - np.asarray(p0, dtype=float)
            A = A - np.asarray(A0, dtype=float)
        g = self._field(self.g, x, n, 2)
        h = self._field(self.h, x, n, 2)
        ginv = np.linalg.inv(g)
        hinv = np.linalg.inv(h)
        p1 = np.einsum("nij,nj->ni", ginv, p)
        if self.L is not None:
            L = self._field(self.L, x, n, 3)
            A = A - np.einsum("nk,nkij->nij", p1, L)
        A1 = np.einsum("nik,nkl,njl->nij", hinv, A, hinv)
        return r, p1, A1


class _JetEquiv(Subequation):
    """Membership J in F_x  <=>  Psi(J) in model: defining G_model o Psi."""

    def __init__(self, psi: JetEquivalence, child: Subequation):
        if psi.m != child.m:
            raise InputError("jet-equivalence dimension mismatch")
        cm = child.meta
        super().__init__(child.m, SubeqMeta(
            tag=f"jetequiv({cm.tag})", is_universal=False,
            depends_on_gradient=True, base_dependent=psi.base_dependent or cm.base_dependent,
            f=cm.f, xi=cm.xi))
        self.psi = psi
        self.child = child

    @property
    def children(self):
        return (self.child,)

    def _value(self, x, r, p, A):
        r2, p2, A2 = self.psi.apply(x, r, p, A)
        return self.child._value(x, r2, p2, A2)

    def dual(self):
        return _JetEquiv(self.psi.flip_affine(), self.child.dual())


# ---------------------------------------------------------------------------
# public constructors
# ---------------------------------------------------------------------------


def eikonal(xi: Profile | float = 1.0, m: int = 2) -> Subequation:
    if not isinstance(xi, Profile):
        xi = Profile.constant(float(xi))
    return _Eikonal(m, xi.require_xi())


def eikonal_relaxed(xi: Profile | float, eta_vals=None, m: int = 2) -> Subequation:
    """E_xi^eta with per-node relaxation eta >= 0; eta None gives plain E_xi."""
    if not isinstance(xi, Profile):
        xi = Profile.constant(float(xi))
    if eta_vals is None:
        return _Eikonal(m, xi.require_xi())
    eta_vals = np.asarray(eta_vals, dtype=float)
    if np.any(eta_vals < 0):
        raise InputError("eta must be non-negative")
    return _EikonalRelaxed(m, xi.require_xi(), eta_vals)


def laplace(f: Profile, m: int = 2) -> Subequation:
    return _Laplace(m, f.require_f())


def hessian_branch(k: int, f: Profile, m: int = 2) -> Subequation:
    return _Hessian(m, k, f.require_f())


def sigma_branch(j: int, k: int, f: Profile, m: int = 2) -> Subequation:
    return _Sigma(m, j, k, f.require_f())


def plurisub_trace(k: int, f: Profile, m: int = 2) -> Subequation:
    return _PlurisubBottom(m, k, f.require_f())


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
    return _Min(list(parts)) if len(parts) > 1 else parts[0]


def union(*parts: Subequation) -> Subequation:
    if len(parts) < 1:
        raise InputError("union needs at least one member")
    return _Max(list(parts)) if len(parts) > 1 else parts[0]


def obstacle(F: Subequation, g) -> Subequation:
    """F^g = F intersect {r <= g(x)}; g is a GridFunction, array, or scalar."""
    gvals = getattr(g, "values", g)
    return _Min([F, _HalfspaceR(F.m, gvals, +1)])


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
    value: float
    found: bool


def _jet_coords(jet_r, jet_p, jet_A):
    """Orthonormal coordinates of a jet in the flat fiber (Sasaki) metric."""
    m = jet_p.size
    iu = np.triu_indices(m)
    w = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
    return np.concatenate([[jet_r], jet_p, jet_A[iu] * w])


def _coords_to_jet(c, m):
    r = c[0]
    p = c[1:1 + m]
    iu = np.triu_indices(m)
    w = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
    A = np.zeros((m, m))
    A[iu] = c[1 + m:] / w
    A = A + A.T - np.diag(np.diag(A))
    return r, p, A


def distance_to_boundary(F: Subequation, x, jet: Jet,
                         policy: NumericPolicy = DEFAULT_POLICY,
                         search_radius: float = 64.0) -> BoundaryDistance:
    """Fiber distance from a jet to the boundary of F_x (flat fiber metric).

    Bisection along the ray of steepest G-change, with structured probe rays
    as a fallback when the finite-difference gradient vanishes.  Returns
    +inf with found=False when no boundary crossing exists within
    ``search_radius``.
    """
    g0 = F.value_jet(x, jet)
    if abs(g0) <= policy.abs_tol:
        return BoundaryDistance(0.0, True)
    c0 = _jet_coords(jet.r, jet.p, jet.A.full)
    scale = 1.0 + float(np.linalg.norm(c0))
    eps = 1e-6 * scale

    def G(c):
        r, p, A = _coords_to_jet(c, F.m)
        return float(F.value(x, r, p, A)[0])

    grad = np.zeros_like(c0)
    for i in range(c0.size):
        e = np.zeros_like(c0)
        e[i] = eps
        grad[i] = (G(c0 + e) - G(c0 - e)) / (2 * eps)

    rays = []
    gn = np.linalg.norm(grad)
    if gn > 1e-12:
        rays.append(-np.sign(g0) * grad / gn)
    # structured probes: r-shift, gradient shrink, matrix shift
    for probe in _structured_rays(c0, F.m, sign=-np.sign(g0)):
        rays.append(probe)

    best = np.inf
    for d in rays:
        hit = _ray_crossing(G, c0, d, g0, search_radius, policy)
        if hit < best:
            best = hit
    return BoundaryDistance(best, bool(np.isfinite(best)))


def _structured_rays(c0, m, sign):
    out = []
    e_r = np.zeros_like(c0)
    e_r[0] = 1.0
    out.append(sign * e_r)
    iu = np.triu_indices(m)
    diag = np.where(iu[0] == iu[1])[0]
    e_A = np.zeros_like(c0)
    e_A[1 + m + diag] = 1.0 / np.sqrt(m)
    out.append(sign * e_A)
    pnorm = np.linalg.norm(c0[1:1 + m])
    if pnorm > 1e-12:
        e_p = np.zeros_like(c0)
        e_p[1:1 + m] = c0[1:1 + m] / pnorm
        out.append(e_p)
        out.append(-e_p)
    return out


def _ray_crossing(G, c0, d, g0, radius, policy):
    t_lo, t_hi = 0.0, None
    t = min(1.0, radius)
    while t <= radius:
        if np.sign(G(c0 + t * d)) != np.sign(g0):
            t_hi = t
            break
        t_lo = t
        t *= 2.0
    if t_hi is None:
        return np.inf
    for _ in range(60):
        mid = 0.5 * (t_lo + t_hi)
        if np.sign(G(c0 + mid * d)) != np.sign(g0):
            t_hi = mid
        else:
            t_lo = mid
        if t_hi - t_lo <= 1e-9 * (1.0 + t_hi):
            break
    return 0.5 * (t_lo + t_hi)


def default_jet_sampler(m: int, scale: float = 2.0, x_pool=None):
    """Random jet batches for audits: normal r, p and GOE-like A."""

    def sample(n: int, rng: np.random.Generator):
        r = scale * rng.standard_normal(n)
        p = scale * rng.standard_normal((n, m))
        B = rng.standard_normal((n, m, m))
        A = scale * 0.5 * (B + np.transpose(B, (0, 2, 1)))
        x = None if x_pool is None else rng.choice(x_pool, size=n)
        return x, r, p, A

    return sample


def audit_PNT(F: Subequation, sampler=None, n: int = 100_000,
              seed: int = 0, policy: NumericPolicy = DEFAULT_POLICY) -> Certificate:
    """Sample-test positivity (P), negativity (N) and interior approximability.

    Violations are data, not errors: the certificate lists worst magnitudes
    and counts; `passed` means zero violations beyond the policy band.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    sampler = sampler or default_jet_sampler(F.m)
    x, r, p, A = sampler(n, rng)
    g = F.value(x, r, p, A)
    tol = policy.membership_tol

    # (P): adding a random PSD matrix must not decrease G
    B = rng.standard_normal((n, F.m, F.m))
    P = np.einsum("nik,njk->nij", B, B) / F.m
    gP = F.value(x, r, p, A + P)
    p_viol = g - gP
    # (N): decreasing r must not decrease G
    dr = np.abs(rng.standard_normal(n)) + 1e-3
    gN = F.value(x, r - dr, p, A)
    n_viol = g - gN

    # (T) proxy: boundary jets must admit interior jets within every radius
    band = np.abs(g) <= 10 * tol
    t_fail = 0
    t_checked = int(band.sum())
    if t_checked:
        delta = 1e-3
        xb = None if x is None else x[band]
        ok = np.zeros(t_checked, dtype=bool)
        for shift in (
            (0.0, 1.0),   # A + delta I
            (-1.0, 0.0),  # r - delta
            (-1.0, 1.0),
        ):
            rr = r[band] + shift[0] * delta
            AA = A[band] + shift[1] * delta * np.eye(F.m)
            ok |= F.value(xb, rr, p[band], AA) > 0
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
        params={"n": n, "seed": seed, "m": F.m},
        wall_time=time.perf_counter() - t0,
    )
