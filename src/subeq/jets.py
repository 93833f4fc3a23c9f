"""Jet-batch views and dense small-dimension spectral kernels.

A 2-jet is a triple (r, p, A) of value, gradient covector and symmetric
second-derivative matrix in an orthonormal frame, and every caller reads
jets in batches, through the views below.  Dimensions are capped at 8:
everything downstream is fiberwise low-dimensional, so dense kernels are
used throughout.

Besides ordinary eigenvalues this module computes the branch eigenvalues
mu_j^(k) of the elementary symmetric polynomial sigma_k: the negatives of
the k real roots of t -> sigma_k(lambda(A) + t*(1,...,1)).  They are the
roots of the (m-k)-th derivative of the characteristic polynomial, and the
roots of the derivative of a polynomial with roots d_1..d_j are the
eigenvalues of diag(d) compressed to the complement of (1,...,1), so each
level is one small symmetric eigenvalue problem of the level above; the
quadratic level k = 2 has a closed form in the spectrum.  Spectra of 2 x 2
matrices are a closed form too; LAPACK decomposes every other size.

A jet-batch view owns its spectrum and its readings: ``DenseView``
decomposes its stack on the first read of ``eigs`` and keeps it, with every
Garding level above the mean computed from it so far, in its ``levels``,
and keeps each of |p|, the trace and the second derivatives along p in its
``readings`` once read, so an F, its dual and the members of a suite
evaluated on one view compute each once.  Stored levels and readings are
read-only, and ``take(mask)`` starts a fresh view.  The spectrum of -A is
decomposed, never derived from that of A, so duality checks on spectra
stay real.
"""
from __future__ import annotations

from math import comb

import numpy as np

from .errors import InputError

MAX_DIM = 8


def _check_finite(arr, what: str):
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{what} must be finite")


# ---------------------------------------------------------------------------
# spectral operations
# ---------------------------------------------------------------------------


def eigenvalues_sym_batch(A: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a (n, m, m) stack of symmetric matrices.

    LAPACK (``eigvalsh``) except at m = 2, where the spectrum is the
    symmetric Schur rotation (Golub-Van Loan, Alg. 8.4.2) of [[a, b], [b, d]]:
    with h = (d - a)/2 and t = b / (h + sign(h) hypot(h, b)) (t = 0 where
    h = b = 0), the eigenvalues are a - t b and d + t b.  |t| <= 1, so it
    neither overflows nor divides by zero; a diagonal matrix gives its
    entries exactly and -A gives exactly the reversed negated spectrum.
    Like ``eigvalsh`` it reads the lower triangle.
    """
    if A.shape[-1] != 2:
        return np.linalg.eigvalsh(A)
    a, b, d = (np.asarray(A[..., i, j], dtype=float) for i, j in ((0, 0), (1, 0), (1, 1)))
    h = 0.5 * (d - a)
    tb = np.copysign(np.hypot(h, b), h)  # in place: the denominator, t, t b
    tb += h
    tb[tb == 0.0] = 1.0  # h = b = 0, so t = 0
    np.divide(b, tb, out=tb)
    tb *= b
    lo, hi = a - tb, d + tb
    out = np.empty(lo.shape + (2,))
    np.minimum(lo, hi, out=out[..., 0])
    np.maximum(lo, hi, out=out[..., 1])
    return out


def sigma_k(lam, k: int) -> float:
    """k-th elementary symmetric polynomial of the values ``lam``.

    Uses the product recurrence of ``_sigma_shifted_batch`` with no shift.
    """
    lam = np.asarray(lam, dtype=float)
    m = lam.size
    if not (1 <= k <= m):
        raise InputError(f"sigma_k order k={k} out of range [1, {m}]")
    _check_finite(lam, "sigma_k arguments")
    return float(_sigma_shifted_batch(lam.reshape(1, m), np.zeros(1), k)[0])


def _sigma_shifted_batch(lam: np.ndarray, t: np.ndarray, k: int) -> np.ndarray:
    """sigma_k(lam + t) for a batch: lam (n, m), t (n,) -> (n,).

    Uses the product recurrence e_j <- e_j + x e_{j-1}, which is exact in
    exact arithmetic and well behaved for mixed signs.
    """
    n, m = lam.shape
    e = np.zeros((n, k + 1))
    e[:, 0] = 1.0
    for i in range(m):
        x = lam[:, i] + t
        for j in range(min(k, i + 1), 0, -1):
            e[:, j] += x * e[:, j - 1]
    return e[:, k]


def _helmert(j: int) -> np.ndarray:
    """Orthonormal basis (j, j-1) of the complement of (1,...,1) in R^j."""
    Q = np.zeros((j, j - 1))
    for i in range(1, j):
        Q[:i, i - 1] = 1.0
        Q[i, i - 1] = -i
    return Q / np.sqrt(np.arange(1, j) * np.arange(2, j + 1))


_COMPRESS = {j: _helmert(j) for j in range(2, MAX_DIM + 1)}


def _garding_level(levels: dict, k: int) -> np.ndarray:
    """Level k of the chain whose top level m = max(levels) is sorted:
    the branch eigenvalues, (n, k) ascending, of the spectra in level m.

    Level j-1 holds the zeros of sum_i 1/(t - mu_i) over the j values mu of
    level j: the eigenvalues of Q_j^T diag(mu) Q_j (Cauchy interlacing and
    the secular equation).  Level 2 comes in closed form from level m; a
    level k >= 3 continues the chain from the deepest stored level above
    k.  Every level computed is stored in ``levels``, read-only; level 1,
    the mean of level m, is not stored.
    """
    m = max(levels)
    if not (1 <= k <= m):
        raise InputError(f"garding order k={k} out of range [1, {m}]")
    top = levels[m]
    _check_finite(top, "eigenvalues")
    if k == 1:
        return top.sum(axis=1, keepdims=True) / m
    if k not in levels:
        if k == 2:
            mean = top.sum(axis=1, keepdims=True) / m
            half = np.sqrt(np.square(top - mean).sum(axis=1, keepdims=True) / (m * (m - 1)))
            levels[2] = np.concatenate([mean - half, mean + half], axis=1)
            levels[2].flags.writeable = False
        else:
            for j in range(min(i for i in levels if i > k), k, -1):
                Q = _COMPRESS[j]
                levels[j - 1] = np.linalg.eigvalsh(np.einsum("ia,ni,ib->nab", Q, levels[j], Q))
                levels[j - 1].flags.writeable = False
    return levels[k]


# ---------------------------------------------------------------------------
# jet-batch views: what the defining functions read
# ---------------------------------------------------------------------------


def _reading(compute):
    """A view property computed on first access and kept in the view's
    ``readings``, read-only."""
    name = compute.__name__

    def get(self):
        out = self.readings.get(name)
        if out is None:
            out = self.readings[name] = compute(self)
            out.flags.writeable = False
        return out

    return property(get)


class DenseView:
    """Jets (x, r, p, A): node ids x (or None), r (n,), p (n, m), A (n, m, m).

    Both views give x, r, p, A and m, and on access the ascending spectrum
    ``eigs``, the Garding branches ``garding(k)``, ``trace``, |p| as
    ``grad`` and ``grad_up`` (the gradient constraints' reading) and, where
    p != 0, the second derivative along p as ``dir2`` = A(p, p) / |p|^2 and
    ``dir2_unit`` = A(phat, phat): one quantity in two roundings, so the
    infinity Laplacian and the quasilinear family keep their dense values.
    ``take(mask)`` is the sub-batch at a boolean mask.  A dense view keeps
    its spectrum (level m) and the Garding levels from it in ``levels``,
    and its other readings, read-only, in ``readings``.
    """

    __slots__ = ("x", "r", "p", "A", "m", "levels", "readings")

    def __init__(self, x, r, p, A):
        self.x, self.r, self.p, self.A, self.m = x, r, p, A, A.shape[-1]
        self.levels, self.readings = {}, {}

    @_reading
    def trace(self):
        return np.trace(self.A, axis1=1, axis2=2)

    @_reading
    def grad(self):
        return np.linalg.norm(self.p, axis=1)

    grad_up = grad

    @property
    def eigs(self):
        if not self.levels:
            self.levels[self.m] = eigenvalues_sym_batch(self.A)
            self.levels[self.m].flags.writeable = False
        return self.levels[self.m]

    def garding(self, k):
        self.eigs  # the top level of the chain
        return _garding_level(self.levels, k)

    @_reading
    def dir2(self):
        p = self.p
        return np.einsum("ni,nij,nj->n", p, self.A, p) / np.einsum("ni,ni->n", p, p)

    @_reading
    def dir2_unit(self):
        phat = self.p / self.grad[:, None]
        return np.einsum("ni,nij,nj->n", phat, self.A, phat)

    def take(self, mask):
        x = self.x if self.x is None or np.ndim(self.x) == 0 else self.x[mask]
        return DenseView(x, self.r[mask], self.p[mask], self.A[mask])

    def entries(self):
        """The entries a Newton row weighs, stacked (E, n): r, each p_a, each
        A_ab with a <= b (``upper_pairs`` order); each node's largest |entry|."""
        a, b = upper_pairs(self.m)
        X = np.concatenate([self.r[None], self.p.T, self.A[:, a, b].T])
        return X, np.abs(X).max(axis=0)

    def with_entries(self, X):
        return DenseView.of_entries(self.x, X, self.m)

    @staticmethod
    def of_entries(x, X, m):
        """The view at the nodes x whose ``entries`` are X (A_ab = A_ba)."""
        X, (a, b) = np.asarray(X), upper_pairs(m)
        A = np.empty((X.shape[1], m, m))
        A[:, a, b] = A[:, b, a] = X[1 + m:].T
        return DenseView(x, X[0], X[1:1 + m].T.copy(), A)


def upper_pairs(m):
    """The indices (a, b) of the entries A_ab with a <= b, row by row, as
    ``np.triu_indices(m)`` lists them, without the mask array it builds,
    a cost that a cold solve pays in full."""
    return ([a for a in range(m) for b in range(a, m)],
            [b for a in range(m) for b in range(a, m)])


def _spectrum(a, b, m):
    """Sorted (n, m) spectrum {a} + {b} x (m - 1) of a batch."""
    if m == 1:
        return a[:, None]
    out = np.empty((a.size, m))
    out[:, 0] = np.where(a <= b, a, b)
    out[:, 1:-1] = b[:, None]
    out[:, -1] = np.maximum(a, b)
    return out


class RadialView:
    """Radial jets on a line grid, with the fields of ``DenseView``: node ids
    x, values r, the radial differences du and d2, the angular eigenvalue
    aa = du g'/g, and ``grad_up``: the upwind gradient in the scheme, the
    centred |du| at the grid jets.  ``manifolds.LineStencil.view`` writes
    every one on a grid, the Newton step's included.

    The Hessian is diag(d2, aa, ..., aa) and the gradient (du, 0, ..., 0).
    sigma_k(A + t I) has the root -aa k - 1 times and one linear root.
    The dense jet in the radial frame, ``p`` (n, m) and ``A`` (n, m, m),
    is assembled here only, on access by a caller that reads it (a
    jet-equivalence, ``distance_to_boundary``); no defining value
    decomposes it again.
    """

    __slots__ = ("x", "r", "du", "aa", "d2", "grad_up", "m")

    def __init__(self, x, r, du, aa, d2, grad_up, m):
        self.x, self.r, self.du, self.aa, self.d2 = x, r, du, aa, d2
        self.grad_up, self.m = grad_up, m

    eigs = property(lambda self: _spectrum(self.d2, self.aa, self.m))
    trace = property(lambda self: self.d2 + (self.m - 1) * self.aa)
    dir2 = dir2_unit = property(lambda self: self.d2)
    grad = property(lambda self: np.abs(self.du))

    p = property(lambda self: np.column_stack([self.du] + [np.zeros_like(self.du)] * (self.m - 1)))

    @property
    def A(self):
        A = np.zeros((self.d2.size, self.m, self.m))
        k = np.arange(self.m)
        A[:, k, k] = np.column_stack([self.d2] + [self.aa] * (self.m - 1))
        return A

    def garding(self, k):
        m, aa = self.m, self.aa
        root = (comb(m - 1, k) * aa + comb(m - 1, k - 1) * self.d2) / comb(m, k)
        return _spectrum(root, aa, k)

    def take(self, mask):
        return RadialView(self.x[mask], self.r[mask], self.du[mask], self.aa[mask],
                          self.d2[mask], self.grad_up[mask], self.m)

    def entries(self):
        """The entries a Newton row weighs, stacked (4, n): r, aa, d2 and
        grad_up (du is held: its weight rides on aa, and ``with_entries``
        keeps it), and each node's largest |jet entry|, du's included."""
        X = np.array([self.r, self.aa, self.d2, self.grad_up])
        return X, np.maximum(np.abs(X).max(axis=0), np.abs(self.du))

    def with_entries(self, X):
        return RadialView(self.x, X[0], self.du, *X[1:], self.m)

