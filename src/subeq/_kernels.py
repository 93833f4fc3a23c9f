"""Sweep kernels for the Perron iteration.

``vector_node_solve`` solves the scalar node equations of a batch of nodes
at once: one bracket and bisection per node, exploiting the monotonicity
of the defining value in the node value.  The generic engine calls it on
every interior node with the tree evaluator (a Jacobi sweep).  On line
(radial / 1-D) grids ``sweep_line_numpy`` takes one Howard policy step
instead: it freezes the active branches of the lowered line evaluator of
``_ir.lower`` and the contact set, and solves the resulting tridiagonal
system with ``thomas``; rows that the step cannot linearize at the
current iterate are linearized at their node roots from the same batched
node solve.  The line kernels read the grid's ``LineStencil`` rows, which
the solver gathers once per solve for the interior nodes.
"""
from __future__ import annotations

import numpy as np


def vector_node_solve(G, v0, cap, step0, gtol, veps):
    """Largest v <= cap with G(v) >= 0, node-wise.

    ``G`` maps a value array to the defining values at the same nodes.
    Over all interior nodes this is the generic engine's Jacobi sweep;
    the line engine's policy step reads its roots.
    """
    g0 = G(v0)
    feas = g0 >= 0.0
    lo = v0.copy()
    hi = v0.copy()
    step = np.asarray(step0, dtype=float).copy()
    span = 1e9 * (1.0 + np.abs(v0))
    pending_up = feas & (v0 < cap)
    pending_dn = ~feas
    for _ in range(120):
        if not (pending_up.any() or pending_dn.any()):
            break
        hi = np.where(pending_up, np.minimum(np.minimum(hi + step, cap), v0 + span), hi)
        lo = np.where(pending_dn, np.maximum(lo - step, v0 - span), lo)
        step = np.where(pending_up | pending_dn, step * 4.0, step)
        g_hi = G(hi)
        g_lo = G(lo)
        newly_up = pending_up & (g_hi < 0.0)
        at_top = pending_up & ~newly_up & ((hi >= cap) | (hi >= v0 + span))
        lo = np.where(pending_up & ~newly_up, hi, lo)
        pending_up &= ~(newly_up | at_top)
        newly_dn = pending_dn & (g_lo >= 0.0)
        at_bot = pending_dn & ~newly_dn & (lo <= v0 - span)
        hi = np.where(pending_dn & ~newly_dn, lo, hi)
        lo = np.where(at_bot, v0, lo)  # infeasible everywhere: leave unchanged
        hi = np.where(at_bot, v0, hi)
        pending_dn &= ~(newly_dn | at_bot)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        gm = G(mid)
        take_lo = gm >= 0.0
        lo = np.where(take_lo, mid, lo)
        hi = np.where(take_lo, hi, mid)
        width_ok = (hi - lo) <= veps * (1.0 + np.abs(mid))
        if np.all(width_ok | (np.abs(gm) <= gtol)):
            break
    return np.minimum(lo, cap)


def _upwind(v, uL, uR, hl, hr):
    """Godunov upwind gradient max((v-uL)/hl, (v-uR)/hr, 0).

    The gradient-constraint members see it in place of |du|: the monotone
    evaluation for subsolution sweeps (centred lagged gradients cycle).
    Certificates are checked elsewhere against centred jets.
    """
    return np.maximum(np.maximum((v - uL) / hl, (v - uR) / hr), 0.0)


def thomas(lo, di, up, rhs):
    """Solve the tridiagonal system lo x[i-1] + di x[i] + up x[i+1] = rhs.

    The recurrences run over Python floats, which is several times faster
    than indexing numpy arrays element by element; a zero pivot raises
    ZeroDivisionError.
    """
    lo, di, up, rhs = lo.tolist(), di.tolist(), up.tolist(), rhs.tolist()
    n = len(di)
    c = [0.0] * n
    d = [0.0] * n
    c[0] = up[0] / di[0]
    d[0] = rhs[0] / di[0]
    for i in range(1, n):
        denom = di[i] - lo[i] * c[i - 1]
        c[i] = up[i] / denom
        d[i] = (rhs[i] - lo[i] * d[i - 1]) / denom
    for i in range(n - 2, -1, -1):
        d[i] -= c[i] * d[i + 1]
    return np.array(d)


def _slopes(g, jet, bump=1e-4):
    """Central difference quotients of g in v, aa, d2 and gdn at ``jet``.

    The bump is ``bump * (1 + |x|)``.  At a tie of a min or max each tied
    branch gets part of the weight, so the row keeps a pivot.
    """
    out = []
    for k in (1, 3, 4, 5):
        x = jet[k]
        bumped = list(jet)
        bumped[k] = hi = x + bump * (1.0 + np.abs(x))
        g_hi = g(*bumped)
        bumped[k] = lo = x - bump * (1.0 + np.abs(x))
        out.append((g_hi - g(*bumped)) / (hi - lo))
    return out


def sweep_line_numpy(u, order, S, caps, g, steps, res, gtol, veps):
    """One Howard policy step on R(u) = min(G(u), cap - u) at the nodes ``order``.

    ``S`` holds the stencil rows at ``order``.  The step freezes the policy
    at the current u: the contact set, where cap - u < G, and the active
    branch of every min/max of g and of the upwind gradient, read from the
    difference quotients of ``_slopes``.  du is lagged inside g, and
    aa = ang * du moves with the first-difference weights.  One
    tridiagonal solve gives the Newton update, clamped at cap.

    Every node is also solved on its own first: ``vector_node_solve`` finds
    the largest value <= cap with G >= 0 with the neighbours and du frozen
    (bracket widths ``steps``), the generic engine's Jacobi sweep.  A row
    whose active branch does not move with the node value (no weight
    through v, d2 or the upwind gradient, as where the angular branch of a
    min is active and f is constant) is linearized at that root instead,
    where G = 0 puts a branch that does.  A row that has no such weight
    there either is left out of the step.  The batch covers every interior
    node, so perfbench's node-solve counters keep seeing line solves; only
    those rows read its roots.

    ``res`` receives R before the step.  Returns (max |change|, min
    change) and stores 4 |change| as the next bracket widths; raises
    FloatingPointError at a zero or non-finite pivot.
    """
    v = u[order]
    uL, uR = u[order - 1], u[order + 1]
    du = S.du(uL, v, uR)
    aa = du * S.ang
    b0 = S.d2(uL, 0.0, uR)
    cap = caps[order]

    def node_G(x):
        return g(order, x, du, aa, b0 + S.aC * x, _upwind(x, uL, uR, S.hL, S.hR))

    roots = vector_node_solve(node_G, v, cap, steps, gtol, veps)

    def linearize(x):
        d1 = S.du(uL, x, uR)
        pL, pR = (x - uL) / S.hL, (x - uR) / S.hR
        jet = [order, x, d1, d1 * S.ang, S.d2(uL, x, uR), np.maximum(np.maximum(pL, pR), 0.0)]
        g_v, g_aa, g_d2, g_gdn = _slopes(g, jet)
        left = (pL >= pR) & (pL >= 0.0)
        gL = np.where(left, g_gdn / S.hL, 0.0)
        gR = np.where(~left & (pR >= 0.0), g_gdn / S.hR, 0.0)
        g_w = g_aa * S.ang
        own = g_v + g_d2 * S.aC + gL + gR
        lo, up = g_w * S.wL + g_d2 * S.aL - gL, g_w * S.wR + g_d2 * S.aR - gR
        no_own = np.abs(own) <= 1e-9 * (np.abs(lo) + np.abs(up))
        return g(*jet), lo, own + g_w * S.wC, up, no_own

    G, row_lo, row_di, row_up, weak = linearize(v)
    np.minimum(G, cap - v, out=res)
    if weak.any():
        G_r, lo_r, di_r, up_r, weak_r = linearize(roots)
        row_lo = np.where(weak, lo_r, row_lo)
        row_di = np.where(weak, di_r, row_di)
        row_up = np.where(weak, up_r, row_up)
        G = np.where(weak, G_r + di_r * (v - roots), G)  # that row's value at v
        weak &= weak_r
    solved = cap - v >= G
    stepped = solved & ~weak
    n = u.size
    lo, di, up, rhs = np.zeros(n), np.ones(n), np.zeros(n), np.zeros(n)
    lo[order] = np.where(stepped, row_lo, 0.0)
    di[order] = np.where(stepped, row_di, 1.0)
    up[order] = np.where(stepped, row_up, 0.0)
    rhs[order] = np.where(stepped, -G, np.where(solved, 0.0, cap - v))
    try:
        step = thomas(lo, di, up, rhs)[order]
    except ZeroDivisionError:
        raise FloatingPointError("zero pivot") from None
    if not np.all(np.isfinite(step)) or not np.all(np.isfinite(di)):
        raise FloatingPointError("non-finite pivot or step")
    new = np.minimum(v + step, cap)
    ch = new - v
    u[order] = new
    steps[:] = np.maximum(4.0 * np.abs(ch), 1e-9)
    return float(np.abs(ch).max(initial=0.0)), float(ch.min(initial=0.0))


def residual_line_numpy(u, order, S, g):
    """Defining value at every node of ``order`` (stencil rows S) from the current u."""
    uL, uR, v0 = u[order - 1], u[order + 1], u[order]
    du = S.du(uL, v0, uR)
    return g(order, v0, du, du * S.ang, S.d2(uL, v0, uR), _upwind(v0, uL, uR, S.hL, S.hR))
