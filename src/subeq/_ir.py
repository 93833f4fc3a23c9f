"""Lowering of subequation trees to the line evaluator of the sweep engine.

On radial grids (and 1-D boxes) a discrete jet is determined by the node
value v, the radial first and second differences du and d2, and the
angular Hessian eigenvalue aa = du g'/g, so every catalog member reduces
to a closed-form expression of those scalars and min/max combinators
reduce their parts; quasilinear members read their ``AProfile``'s
eigenvalues, whatever the profile.  Trees containing jet-equivalences,
other non-catalog members, or per-node rows of another grid's length do
not lower; the solver runs the generic vectorized engine on them.
"""
from __future__ import annotations

from math import comb

import numpy as np

from . import subequations as SU


def lower(F: SU.Subequation, n_nodes: int):
    """Vectorized line evaluator ``g(nodes, v, du, aa, d2, gdn)`` for F.

    ``gdn`` is the gradient magnitude seen by the gradient-constraint
    members (the eikonal family); the remaining members read |du|.  Returns
    None when the tree does not lower.
    """
    if isinstance(F, SU._MinMax):
        parts = [lower(q, n_nodes) for q in F.parts]
        if any(q is None for q in parts):
            return None
        reduce = F.reduce
        return lambda *jet: reduce([q(*jet) for q in parts])
    if isinstance(F, SU._Const):
        c = F.c
        return lambda nodes, v, du, aa, d2, gdn: np.full_like(v, c)
    if isinstance(F, (SU._Eikonal, SU._EikonalDual)):
        rows = F.eta_vals
        if rows is not None and rows.shape[0] != n_nodes:
            return None
        if isinstance(F, SU._Eikonal):
            xi = F.xi
            if rows is None:
                return lambda nodes, v, du, aa, d2, gdn: xi(v) - gdn
            return lambda nodes, v, du, aa, d2, gdn: xi(v) + rows[nodes] - gdn
        eta = F.eta
        if rows is None:
            return lambda nodes, v, du, aa, d2, gdn: np.abs(du) - eta(v)
        return lambda nodes, v, du, aa, d2, gdn: np.abs(du) - eta(v) - rows[nodes]
    if isinstance(F, SU._HalfspaceR):
        if F.gvals.ndim > 0 and F.gvals.shape[0] != n_nodes:
            return None
        rows = F.gvals if F.gvals.ndim > 0 else np.full(n_nodes, float(F.gvals))
        sign = float(F.sign)
        return lambda nodes, v, du, aa, d2, gdn: sign * rows[nodes] - v
    radial = _radial(F, F.m)
    if radial is None:
        return None
    f = F.f
    return lambda nodes, v, du, aa, d2, gdn: radial(du, aa, d2) - f(v)


def _radial(F, m):
    """Operator part of an f-member at the radial jet, as ``fn(du, aa, d2)``.

    The Hessian has eigenvalue d2 once and aa with multiplicity m - 1.
    """
    if isinstance(F, SU._Laplace):
        return lambda du, aa, d2: d2 + (m - 1) * aa
    if isinstance(F, SU._Hessian):
        k = F.k
        if m == 1:
            return lambda du, aa, d2: d2
        return lambda du, aa, d2: np.where(d2 <= aa, d2 if k == 1 else aa,
                                           aa if k <= m - 1 else d2)
    if isinstance(F, SU._Plurisub):
        k = F.k
        bottom = not F.top

        def sum_k(du, aa, d2):
            with_d2 = d2 <= aa if bottom else d2 >= aa
            exc = min(k, m - 1) * aa + (d2 if k == m else 0.0)
            return np.where(with_d2, d2 + (k - 1) * aa, exc)

        return sum_k
    if isinstance(F, SU._Sigma):
        j, k = F.j, F.k
        if m == 1:
            return lambda du, aa, d2: d2
        c_aa, c_d2, c = float(comb(m - 1, k)), float(comb(m - 1, k - 1)), float(comb(m, k))

        def branch(du, aa, d2):
            # sigma_k(A + t I) has the root -aa (k - 1 times) and one linear root
            mu_star = (c_aa * aa + c_d2 * d2) / c
            return np.where(mu_star <= aa, mu_star if j == 1 else aa,
                            aa if j <= k - 1 else mu_star)

        return branch
    if isinstance(F, SU._Quasilinear):
        ap = F.aprof
        l1_0, l2_0 = ap.lam1_0, ap.lam2_0
        extremal = np.maximum if l1_0 >= l2_0 else np.minimum

        def trace_T(du, aa, d2):
            t = np.abs(du)
            nz = t > 0
            out = np.empty_like(d2)
            if np.any(nz):
                tt = t[nz]
                out[nz] = ap.lam1(tt) * d2[nz] + ap.lam2(tt) * (m - 1) * aa[nz]
            if not np.all(nz):
                # p = 0 fiber: limsup of tr(T(p)A) along p -> 0
                z = ~nz
                tr = d2[z] + (m - 1) * aa[z]
                ext = extremal(d2[z], aa[z]) if m > 1 else d2[z]
                out[z] = l2_0 * tr + (l1_0 - l2_0) * ext
            return out

        return trace_T
    if isinstance(F, SU._InfLaplacian):
        if m == 1:
            return lambda du, aa, d2: d2
        return lambda du, aa, d2: np.where(np.abs(du) > 0, d2, np.maximum(d2, aa))
    return None
