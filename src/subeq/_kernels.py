"""Newton step kernels for the Perron iteration.

The Newton (Howard) steps linearize R(u) = min(G(u), cap - u) with the
contact set and the active branches frozen.  On line (radial / 1-D) grids
``sweep_line_numpy`` takes the policy step over the line evaluator of
``_ir.lower`` (every subequation tree over ``jets.RadialView``) and the
grid's ``LineStencil`` rows, solved with ``thomas``; rows that the step
cannot linearize at the current iterate are linearized at their node
roots, which ``vector_node_solve`` finds for every node in one batch.  On
boxes ``step_box`` takes the step with the subequation tree through the
cross and diagonal stencil, solved slab by slab with ``block_thomas``,
and halves its update until the worst residual falls.  Both steps build
their rows from the difference quotients of one rule (``_quotient``,
through ``_slopes`` and ``_jet_slopes``) and end in one clamped update
(``_clamp_write``).
"""
from __future__ import annotations

import numpy as np

from .errors import InputError


def vector_node_solve(G, v0, cap, step0, gtol, veps):
    """Largest v <= cap with G(v) >= 0, node-wise.

    ``G`` maps a value array to the defining values at the same nodes.
    Brackets grow up from feasible nodes and down from the others, one G
    call per expansion.  The line engine's policy step reads its roots.
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
        g = G(np.where(pending_up, hi, lo))
        newly_up = pending_up & (g < 0.0)
        at_top = pending_up & ~newly_up & ((hi >= cap) | (hi >= v0 + span))
        lo = np.where(pending_up & ~newly_up, hi, lo)
        pending_up &= ~(newly_up | at_top)
        newly_dn = pending_dn & (g >= 0.0)
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


def block_thomas(lo, di, up, rhs):
    """Solve the block-tridiagonal system lo[i] x[i-1] + di[i] x[i] + up[i] x[i+1] = rhs[i].

    ``lo``, ``di``, ``up`` hold (nb, k, k) blocks and ``rhs`` is (nb, k);
    ``lo[0]`` and ``up[-1]`` are ignored.  Block elimination with one
    ``np.linalg.solve`` per block: partial pivoting inside a block, none
    across blocks, as for the block-diagonally dominant rows of a Newton
    step.  A singular block raises ``np.linalg.LinAlgError``.
    """
    nb, k = rhs.shape
    c = np.empty_like(di)
    d = np.empty_like(rhs)
    for i in range(nb):
        piv, r = di[i], rhs[i]
        if i:
            piv = piv - lo[i] @ c[i - 1]
            r = r - lo[i] @ d[i - 1]
        x = np.linalg.solve(piv, np.column_stack((up[i], r)))
        c[i], d[i] = x[:, :k], x[:, k]
    for i in range(nb - 2, -1, -1):
        d[i] -= c[i] @ d[i + 1]
    return d


def _quotient(value, x, size, bump=1e-7):
    """Central difference quotients of ``value`` in a jet entry, at x.

    ``x`` holds the entry at every node (or several entries stacked) and
    ``size`` the node's largest jet entry, broadcast against x.  The bump
    is ``bump * (1 + |x|)`` rounded up to a power of two, taken about x
    rounded to a multiple of ``unit``, the float spacing at 256 times
    ``size`` (a shift far below the bump).  The float spacing of a sum of
    jet entries with small integer weights then divides the bumped span,
    so both bumped sums round alike and an affine evaluator such as the
    Laplacian gets exact quotients, unless a partial sum crosses a power
    of two between the two bumps (then ~eps |sum| / bump).  With a plain
    bump of 1e-4 a trace A_00 + A_11 with A_00 ~ 0 and A_11 ~ 1e3 left
    ~1e-10 of roundoff in the quotient, and the first Newton step
    overshot the discrete solution by ~2e-12.  The bump is small because
    one that straddles both branches of max(d2, aa), which agree to ~1e-4
    (1 + |d2|) near a line solution, blends their gradients.
    """
    unit = np.spacing(256.0 * (1.0 + size))
    d = np.maximum(np.exp2(np.ceil(np.log2(bump * (1.0 + np.abs(x))))), unit)
    x = np.rint(x / unit) * unit
    hi, lo = x + d, x - d
    return (value(hi) - value(lo)) / (hi - lo)


def _slopes(g, jet):
    """Difference quotients (``_quotient``) of g in v, aa, d2 and gdn at ``jet``.

    At a tie of a min or max each tied branch gets part of the weight, so
    the row keeps a pivot.
    """
    keys = (1, 3, 4, 5)

    def value(X):  # the four bumped entries at once, one row each
        return np.array([g(*jet[:k], x, *jet[k + 1:]) for k, x in zip(keys, X)])

    return _quotient(value, np.array([jet[k] for k in keys]), np.max(np.abs(jet[1:]), axis=0))


def _jet_slopes(value, r, p, A):
    """Difference quotients (``_quotient``) of ``value(r, p, A)`` in r, each
    p_k and each symmetric A_kl (A_kl and A_lk bumped together), the tree
    twin of ``_slopes``.  Returns (g_r, g_p, g_A) shaped like (r, p, A).
    """
    size = np.maximum(np.maximum(np.abs(r), np.abs(p).max(axis=1)), np.abs(A).max(axis=(1, 2)))

    def with_p(k):
        def at(x):
            q = p.copy()
            q[:, k] = x
            return value(r, q, A)
        return at

    def with_A(k, l):
        def at(x):
            B = A.copy()
            B[:, k, l] = B[:, l, k] = x
            return value(r, p, B)
        return at

    g_r = _quotient(lambda x: value(x, p, A), r, size)
    g_p = np.empty_like(p)
    g_A = np.empty_like(A)
    for k in range(p.shape[1]):
        g_p[:, k] = _quotient(with_p(k), p[:, k], size)
        for l in range(k, p.shape[1]):
            g_A[:, k, l] = g_A[:, l, k] = _quotient(with_A(k, l), A[:, k, l], size)
    return g_r, g_p, g_A


def _clamp_write(u, ids, v, step, cap, brackets=None):
    """Write the update min(v + step, cap) of the values v = u[ids] into u.

    Returns (max |change|, min change); ``brackets``, when given, receives
    4 |change| (at least 1e-9) as the next bracket widths of the node solves.
    """
    new = np.minimum(v + step, cap)
    ch = new - v
    u[ids] = new
    if brackets is not None:
        brackets[:] = np.maximum(4.0 * np.abs(ch), 1e-9)
    return float(np.abs(ch).max(initial=0.0)), float(ch.min(initial=0.0))


def sweep_line_numpy(u, order, S, caps, g, steps, res, gtol, veps):
    """One Howard policy step on R(u) = min(G(u), cap - u) at the nodes ``order``.

    ``order`` lists the interior nodes of the line in grid order and ``S``
    holds their stencil rows; the tridiagonal system has one row per
    interior node (the boundary values enter through G).  The step freezes the policy
    at the current u: the contact set, where cap - u < G, and the active
    branch of every min/max of g and of the upwind gradient, read from the
    difference quotients of ``_slopes``.  du is lagged inside g, and
    aa = ang * du moves with the first-difference weights.  One
    tridiagonal solve gives the Newton update, clamped at cap.

    Every node is also solved on its own first: ``vector_node_solve`` finds
    the largest value <= cap with G >= 0 with the neighbours and du frozen
    (bracket widths ``steps``), in one batch whose roots are not written
    to u.  A row whose active branch does not move with the node value (no
    weight through v, d2 or the upwind gradient, as where the angular
    branch of a min is active and f is constant) is linearized at that
    root instead, where G = 0 puts a branch that does.  A row that has no
    such weight there either is left out of the step.  The batch covers every interior
    node, so perfbench's node-solve counters keep seeing line solves; only
    those rows read its roots.

    ``res`` receives R before the step.  Ends in ``_clamp_write``: returns
    (max |change|, min change) and stores 4 |change| as the next bracket
    widths; raises FloatingPointError at a zero or non-finite pivot.
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
    di = np.where(stepped, row_di, 1.0)
    try:
        step = thomas(np.where(stepped, row_lo, 0.0), di, np.where(stepped, row_up, 0.0),
                      np.where(stepped, -G, np.where(solved, 0.0, cap - v)))
    except ZeroDivisionError:
        raise FloatingPointError("zero pivot") from None
    if not np.all(np.isfinite(step)) or not np.all(np.isfinite(di)):
        raise FloatingPointError("non-finite pivot or step")
    return _clamp_write(u, order, v, step, cap, steps)


def residual_line_numpy(u, order, S, g):
    """Defining value at every node of ``order`` (stencil rows S) from the current u."""
    uL, uR, v0 = u[order - 1], u[order + 1], u[order]
    du = S.du(uL, v0, uR)
    return g(order, v0, du, du * S.ang, S.d2(uL, v0, uR), _upwind(v0, uL, uR, S.hL, S.hR))


# Largest number of floats the lo, di and up slab blocks of one box step may
# hold together (64 MiB): the slabs of a 2-D box up to ~140 nodes a side,
# of a 3-D box up to ~19.  A larger box is an input error.
MAX_BLOCK_FLOATS = 2**23

# Halvings of a box step's update before the last, shortest trial is kept.
HALVINGS = 8


def step_box(u, ids, M, caps, value, jets, res, at):
    """One Howard / Newton step on R(u) = min(G(u), cap - u) at the interior
    nodes ``ids`` of the box ``M``.

    ``value(r, p, A)`` gives the defining values at ``ids`` and ``jets()``
    the centred jets of the current u there.  The rows chain the quotients
    of ``_jet_slopes`` through the stencil weights: the cross for p and
    the diagonal of A, the four diagonal neighbours +-g_A[:, a, b] /
    (4 h_a h_b) for a mixed entry.  A contact row, where cap - u < G, reads
    delta = cap - u, as in ``sweep_line_numpy``.  Only the pivot of a row
    is checked: a row whose pivot is not negative (to roundoff), as at a
    triple tie of the eigenvalues under a middle branch, is left out of the
    step (delta = 0), as a weak line row is.  ``block_thomas`` solves
    the system over the slabs of nodes with one index along axis 0; the
    mixed differences couple a slab only to the slabs next to it.  The
    update is halved until max |R| falls below its value before the step,
    at most HALVINGS times; the last trial is kept.

    ``at`` holds [(r, p, A), G] at the current u from one step to the
    next, ``res`` receives R before the step.  Ends in ``_clamp_write``:
    returns (max |change|, min change).  Raises FloatingPointError naming
    a singular block or a non-finite step, with u unchanged, and
    InputError when the blocks exceed MAX_BLOCK_FLOATS.
    """
    inner = [s - 2 for s in M.shape]
    nb, k = inner[0], ids.size // inner[0]
    if 3 * nb * k * k > MAX_BLOCK_FLOATS:
        raise InputError(f"box too large for the Newton step: {nb} slabs of {k} nodes need "
                         f"{3 * nb * k * k} block floats, over MAX_BLOCK_FLOATS = {MAX_BLOCK_FLOATS}")
    if not at:
        jet = jets()
        at[:] = [jet, value(*jet)]
    (r, p, A), G = at
    v, cap = u[ids], caps[ids]
    np.minimum(G, cap - v, out=res)
    g_r, g_p, g_A = _jet_slopes(value, r, p, A)
    h, m = M.h, M.m
    own = g_r - 2.0 * sum(g_A[:, a, a] / h[a] ** 2 for a in range(m))
    # (weight, offset along each axis) of every neighbour
    nbrs = [(g_A[:, a, a] / h[a] ** 2 + s * g_p[:, a] / (2 * h[a]), {a: s})
            for a in range(m) for s in (1, -1)]
    nbrs += [(sa * sb * g_A[:, a, b] / (4 * h[a] * h[b]), {a: sa, b: sb})
             for a in range(m) for b in range(a + 1, m) for sa in (1, -1) for sb in (1, -1)]
    W = np.array([w for w, _ in nbrs])
    solved = cap - v >= G  # not a contact row
    newton = solved & (own < -1e-9 * (np.abs(own) + np.abs(W).sum(axis=0)))
    # row q, column c of block (t, q // k) is entry t N k + q k + c: the
    # diagonal at t = 1, the neighbour in row nq at t = nq // k - q // k + 1
    N, q = ids.size, np.arange(ids.size)
    blocks = np.zeros((3, nb, k, k))  # lo, di, up
    np.put(blocks, N * k + q * k + q % k, np.where(newton, own, 1.0))
    where = np.full(M.n_nodes, -1)  # row of each interior node
    where[ids] = q
    nq = np.array([where[ids + sum(s * M.strides[a] for a, s in e.items())] for _, e in nbrs])
    o, q = np.nonzero((W != 0.0) & newton & (nq >= 0))  # a boundary neighbour enters through G
    nq = nq[o, q]
    np.put(blocks, (nq // k - q // k + 1) * N * k + q * k + nq % k, W[o, q])
    rhs = np.where(newton, -G, np.where(solved, 0.0, cap - v)).reshape(nb, k)
    try:
        step = block_thomas(*blocks, rhs).ravel()
    except np.linalg.LinAlgError:
        raise FloatingPointError("singular block") from None
    if not np.all(np.isfinite(step)):
        raise FloatingPointError("non-finite step")
    worst = float(np.abs(res).max(initial=0.0))
    for t in 0.5 ** np.arange(HALVINGS + 1):
        trial = np.minimum(v + t * step, cap)
        u[ids] = trial
        jet = jets()
        at[:] = [jet, value(*jet)]
        if np.abs(np.minimum(at[1], cap - trial)).max(initial=0.0) < worst:
            break
    return _clamp_write(u, ids, v, t * step, cap)
