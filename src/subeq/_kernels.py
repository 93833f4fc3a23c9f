"""Sweep kernels for the Perron iteration.

``vector_node_solve`` solves the scalar node equations of a batch of nodes
at once: one bracket and bisection per node, exploiting the monotonicity
of the defining value in the node value.  The generic engine calls it on
every interior node with the tree evaluator (a Jacobi sweep); on line
(radial / 1-D) grids ``sweep_line_numpy`` calls it per color of a
red-black ordering with the lowered line evaluator of ``_ir.lower``.  The
line kernels read the grid's ``LineStencil`` rows, which the solver
gathers once per solve for each color and for the residual's node order.
"""
from __future__ import annotations

import numpy as np


def vector_node_solve(G, v0, cap, step0, gtol, veps):
    """Largest v <= cap with G(v) >= 0, node-wise.

    ``G`` maps a value array to the defining values at the same nodes.
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


def sweep_line_numpy(u, colors, caps, steps, g, gtol, veps):
    """Red-black sweep: per color, vectorized bracket + bisection node solves.

    ``colors`` holds (ids, stencil rows at ids) pairs.  The second
    difference is affine in the node value, d2 = b0 + aC v, and the first
    difference is lagged.  Returns (max |change|, min change).
    """
    max_ch = 0.0
    min_ch = 0.0
    for ids, S in colors:
        uL, uR, v0 = u[ids - 1], u[ids + 1], u[ids]
        du = S.du(uL, v0, uR)
        aa = du * S.ang
        b0 = S.d2(uL, 0.0, uR)
        cap = caps[ids]

        def G(v):
            return g(ids, v, du, aa, b0 + S.aC * v, _upwind(v, uL, uR, S.hL, S.hR))

        v = vector_node_solve(G, v0, cap, steps[ids], gtol, veps)
        ch = v - v0
        max_ch = max(max_ch, float(np.abs(ch).max(initial=0.0)))
        min_ch = min(min_ch, float(ch.min(initial=0.0)))
        steps[ids] = np.maximum(4.0 * np.abs(ch), 1e-9)
        u[ids] = v
    return max_ch, min_ch


def residual_line_numpy(u, order, S, g):
    """Defining value at every node of ``order`` (stencil rows S) from the current u."""
    uL, uR, v0 = u[order - 1], u[order + 1], u[order]
    du = S.du(uL, v0, uR)
    return g(order, v0, du, du * S.ang, S.d2(uL, v0, uR), _upwind(v0, uL, uR, S.hL, S.hR))
