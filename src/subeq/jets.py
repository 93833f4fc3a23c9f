"""2-jet value model and dense small-dimension spectral kernels.

Jets are triples (r, p, A) of value, gradient covector and symmetric
second-derivative matrix in an orthonormal frame.  Dimensions are capped
at 8: everything downstream is fiberwise low-dimensional, so dense
kernels are used throughout.

Besides ordinary eigenvalues this module computes the branch eigenvalues
mu_j^(k) of the elementary symmetric polynomial sigma_k: the negatives of
the k real roots of t -> sigma_k(lambda(A) + t*(1,...,1)), found by 80
bisection steps on the bracketed intervals that root interlacing of the
derivative polynomial guarantees.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import DomainError, InputError, NumericalError
from .policy import DEFAULT_POLICY, NumericPolicy
from .profiles import AProfile

MAX_DIM = 8


def _check_finite(arr, what: str):
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{what} must be finite")


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymMatrix:
    """Symmetric m x m matrix stored as the packed upper triangle (row-major)."""

    m: int
    packed: np.ndarray

    def __post_init__(self):
        if not (1 <= self.m <= MAX_DIM):
            raise InputError(f"SymMatrix dimension must be in [1, {MAX_DIM}]")
        packed = np.asarray(self.packed, dtype=float)
        if packed.shape != (self.m * (self.m + 1) // 2,):
            raise InputError("packed length must be m(m+1)/2")
        _check_finite(packed, "SymMatrix entries")
        object.__setattr__(self, "packed", packed)

    @staticmethod
    def from_full(mat, sym_tol: float = 1e-9) -> "SymMatrix":
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InputError("from_full expects a square matrix")
        _check_finite(mat, "SymMatrix entries")
        scale = 1.0 + np.abs(mat).max()
        if np.abs(mat - mat.T).max() > sym_tol * scale:
            raise InputError("matrix is not symmetric")
        m = mat.shape[0]
        sym = 0.5 * (mat + mat.T)
        iu = np.triu_indices(m)
        return SymMatrix(m=m, packed=sym[iu])

    @staticmethod
    def from_diag(diag) -> "SymMatrix":
        diag = np.asarray(diag, dtype=float)
        return SymMatrix.from_full(np.diag(diag))

    @staticmethod
    def zero(m: int) -> "SymMatrix":
        return SymMatrix(m=m, packed=np.zeros(m * (m + 1) // 2))

    @staticmethod
    def identity(m: int) -> "SymMatrix":
        return SymMatrix.from_full(np.eye(m))

    @property
    def full(self) -> np.ndarray:
        out = np.zeros((self.m, self.m))
        iu = np.triu_indices(self.m)
        out[iu] = self.packed
        out = out + out.T - np.diag(np.diag(out))
        return out

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        if other.m != self.m:
            raise InputError("dimension mismatch")
        return SymMatrix(self.m, self.packed + other.packed)

    def __neg__(self) -> "SymMatrix":
        return SymMatrix(self.m, -self.packed)

    @property
    def norm(self) -> float:
        """Spectral norm (max |eigenvalue|)."""
        ev = np.linalg.eigvalsh(self.full)
        return float(np.abs(ev).max())


@dataclass(frozen=True)
class Jet:
    """A 2-jet (r, p, A) at a node, in an orthonormal frame."""

    r: float
    p: np.ndarray
    A: SymMatrix

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 1 or p.shape[0] != self.A.m:
            raise InputError("gradient dimension must match matrix dimension")
        if not np.isfinite(self.r):
            raise InputError("jet value must be finite")
        _check_finite(p, "jet gradient")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", float(self.r))

    @property
    def m(self) -> int:
        return self.A.m

    def __neg__(self) -> "Jet":
        return Jet(-self.r, -self.p, -self.A)


# ---------------------------------------------------------------------------
# spectral operations
# ---------------------------------------------------------------------------


def eigenvalues_sym(A: SymMatrix) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix."""
    return np.linalg.eigvalsh(A.full)


def eigenvalues_sym_batch(A: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a (n, m, m) stack of symmetric matrices."""
    return np.linalg.eigvalsh(A)


def sigma_k(lam, k: int) -> float:
    """k-th elementary symmetric polynomial of the values ``lam``.

    Uses the product recurrence e_j <- e_j + x e_{j-1}, which is exact in
    exact arithmetic and well behaved for mixed signs.
    """
    lam = np.asarray(lam, dtype=float)
    m = lam.size
    if not (1 <= k <= m):
        raise InputError(f"sigma_k order k={k} out of range [1, {m}]")
    _check_finite(lam, "sigma_k arguments")
    e = np.zeros(k + 1)
    e[0] = 1.0
    for x in lam:
        for j in range(k, 0, -1):
            e[j] += x * e[j - 1]
    return float(e[k])


def _sigma_shifted_batch(lam: np.ndarray, t: np.ndarray, k: int) -> np.ndarray:
    """sigma_k(lam + t) for a batch: lam (n, m), t (n,) -> (n,)."""
    n, m = lam.shape
    e = np.zeros((n, k + 1))
    e[:, 0] = 1.0
    for i in range(m):
        x = lam[:, i] + t
        for j in range(min(k, i + 1), 0, -1):
            e[:, j] += x * e[:, j - 1]
    return e[:, k]


def garding_eigenvalues(A: SymMatrix, k: int, policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Ascending branch eigenvalues mu_1^(k) <= ... <= mu_k^(k) of sigma_k at A.

    These are the negatives of the k real roots of t -> sigma_k(lambda(A) + t).
    Hyperbolicity in the direction (1,...,1) guarantees the roots are real and
    interlace the roots of the derivative level, which brackets every
    bisection.
    """
    m = A.m
    if not (1 <= k <= m):
        raise InputError(f"garding order k={k} out of range [1, {m}]")
    lam = eigenvalues_sym(A)
    mu = _garding_from_eigs_batch(lam[None, :], k, policy)[0]
    # residual audit against the declared bound
    scale = 1.0 + float(np.abs(lam).max()) ** k
    resid = np.abs(_sigma_shifted_batch(np.repeat(lam[None, :], k, axis=0), -mu, k))
    if np.any(resid > policy.garding_tol * scale * comb(m, k)):
        raise NumericalError(
            "garding root residual above tolerance",
            diagnostics={"eigenvalues": lam.tolist(), "k": k, "residuals": resid.tolist()},
        )
    return mu


def _garding_from_eigs_batch(
    lam: np.ndarray, k: int, policy: NumericPolicy = DEFAULT_POLICY
) -> np.ndarray:
    """Branch eigenvalues for a batch of eigenvalue lists: (n, m) -> (n, k).

    Level-by-level root finder: the single root of the sigma_1 level is
    explicit, and the j roots of level j are bisected inside the brackets
    cut by the j-1 roots of the previous level (derivative interlacing).
    """
    lam = np.sort(np.asarray(lam, dtype=float), axis=1)
    n, m = lam.shape
    if not (1 <= k <= m):
        raise InputError(f"garding order k={k} out of range [1, {m}]")
    _check_finite(lam, "eigenvalues")
    span = np.abs(lam).max(axis=1)
    pad = 1e-6 * (1.0 + span)
    lo0 = -lam[:, -1] - pad
    hi0 = -lam[:, 0] + pad
    roots = (-lam.sum(axis=1) / m)[:, None]  # level 1
    for j in range(2, k + 1):
        brackets = np.concatenate([lo0[:, None], roots, hi0[:, None]], axis=1)
        new = np.empty((n, j))
        for b in range(j):
            a = brackets[:, b].copy()
            c = brackets[:, b + 1].copy()
            fa = _sigma_shifted_batch(lam, a, j)
            fc = _sigma_shifted_batch(lam, c, j)
            # repeated roots sit on bracket endpoints: collapse those lanes
            degenerate = np.sign(fa) == np.sign(fc)
            for _ in range(80):
                mid = 0.5 * (a + c)
                fm = _sigma_shifted_batch(lam, mid, j)
                go_left = np.sign(fm) == np.sign(fa)
                a = np.where(go_left, mid, a)
                fa = np.where(go_left, fm, fa)
                c = np.where(go_left, c, mid)
            mid = 0.5 * (a + c)
            if np.any(degenerate):
                pick_a = np.abs(fa) <= np.abs(fc)
                mid = np.where(degenerate, np.where(pick_a, brackets[:, b], brackets[:, b + 1]), mid)
            new[:, b] = mid
        roots = new
    return -roots[:, ::-1]


def garding_eigenvalues_batch(A: np.ndarray, k: int) -> np.ndarray:
    """Branch eigenvalues for a (n, m, m) stack -> (n, k), ascending."""
    return _garding_from_eigs_batch(eigenvalues_sym_batch(A), k)


def trace_on_frame(A: SymMatrix, V, policy: NumericPolicy = DEFAULT_POLICY) -> float:
    """Sum of A(v_i, v_i) over an orthonormal k-frame V (list of m-vectors)."""
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[1] != A.m:
        raise InputError("frame vectors must be m-vectors")
    _check_finite(V, "frame")
    gram = V @ V.T
    if np.abs(gram - np.eye(V.shape[0])).max() > policy.frame_tol:
        raise InputError("frame is not orthonormal to tolerance")
    return float(np.einsum("ki,ij,kj->", V, A.full, V))


def quasilinear_T(p, profile: AProfile) -> SymMatrix:
    """The coefficient matrix T(p) = lam1(|p|) Pi_p + lam2(|p|) Pi_{p-perp}.

    Callers must resolve the p = 0 fiber through the closure convention of
    the quasilinear subequation; here p = 0 is a domain error.
    """
    p = np.asarray(p, dtype=float)
    _check_finite(p, "gradient")
    t = float(np.linalg.norm(p))
    if t == 0.0:
        raise DomainError("quasilinear_T undefined at p = 0 (use the closure convention)")
    m = p.size
    phat = p / t
    proj = np.outer(phat, phat)
    T = float(profile.lam1(t)) * proj + float(profile.lam2(t)) * (np.eye(m) - proj)
    return SymMatrix.from_full(T)
