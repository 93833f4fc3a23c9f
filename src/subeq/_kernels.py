"""Newton step kernels for the Perron iteration.

The Newton (Howard) steps linearize R(u) = min(G(u), cap - u) with the
contact set and the active branches frozen.  ``_partials`` gives the
partials of ``value(J)`` (a tree's ``F._value``) in the entries of a jet
view J, from one ``_quotient`` call, and ``rows`` chains partials through
the grid's stencil table, the weight of each neighbour in each entry:
``LineStencil.table`` on line grids, ``FlatBox.table`` on boxes.  The
presolves of affine members (``solver._try_presolve``) pass their exact
partials to ``rows``, on line grids in the rows of the table that do not
depend on u (``LineStencil.fixed``).  On line (radial / 1-D) grids
``sweep_line_numpy`` takes the policy step at the radial views that
``LineStencil.view`` writes, solved with ``thomas``; its weak rows are
linearized at the node roots that ``vector_node_solve`` finds for those
rows only.  On boxes ``step_box`` takes the step at the centred
``jets.DenseView``, solved slab by slab with ``block_thomas`` on the
blocks of ``slab_blocks`` (one size limit, MAX_BLOCK_FLOATS).  Both steps
take the loop state ``at`` = [J, G] at the current iterate and end in one
update rule (``_update``), which leaves ``at`` at the iterate it writes
and halves only on boxes: a step is a function of the iterate alone.
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


def eliminate(lo, di, up, rhs, cs, ds):
    """Thomas's forward elimination of the rows lo x[i-1] + di x[i] + up
    x[i+1] = rhs, appended to the coefficient lists cs and ds.

    Empty lists start at the first row, which reads no lo; otherwise the
    rows continue the system whose eliminated rows cs and ds hold.  Row i
    reads only rows up to i, so one elimination serves every leading
    block of its rows.  The recurrence runs over Python floats, which is
    several times faster than indexing numpy arrays element by element.
    A zero pivot raises ZeroDivisionError, with the rows before it kept.
    """
    rows = zip(lo.tolist(), di.tolist(), up.tolist(), rhs.tolist())
    if not cs:
        _, b, a, r = next(rows)
        cs.append(a / b)
        ds.append(r / b)
    c, d = cs[-1], ds[-1]
    for l, b, a, r in rows:
        denom = b - l * c
        c = a / denom
        d = (r - l * d) / denom
        cs.append(c)
        ds.append(d)


def back_substitute(cs, ds):
    """The solution x[i] = d[i] - c[i] x[i+1] of the eliminated rows cs,
    ds, from x[-1] = d[-1] (the last c is not read)."""
    rows = zip(reversed(cs), reversed(ds))
    _, x = next(rows)
    xs = [x]
    for c, d in rows:
        x = d - c * x
        xs.append(x)
    xs.reverse()
    return np.array(xs)


def thomas(lo, di, up, rhs):
    """Solve the tridiagonal system lo x[i-1] + di x[i] + up x[i+1] = rhs:
    ``eliminate``, then ``back_substitute``.

    ``lo[0]`` and ``up[-1]`` are ignored.  A zero pivot raises
    ZeroDivisionError.
    """
    cs, ds = [], []
    eliminate(lo, di, up, rhs, cs, ds)
    return back_substitute(cs, ds)


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


# relative bump of the difference quotients (``_quotient``)
QUOTIENT_BUMP = 1e-7


def _quotient(value, x, size):
    """Central difference quotients of ``value`` in a jet entry, at x.

    ``x`` holds the entry at every node (or several entries stacked) and
    ``size`` the node's largest jet entry, broadcast against x.  The bump
    is ``QUOTIENT_BUMP * (1 + |x|)`` rounded up to a power of two, taken
    about x rounded to a multiple of ``unit``, the float spacing at 256
    times ``size`` (a shift far below the bump).  The float spacing of a sum of
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
    d = np.maximum(np.exp2(np.ceil(np.log2(QUOTIENT_BUMP * (1.0 + np.abs(x))))), unit)
    x = np.rint(x / unit) * unit
    hi, lo = x + d, x - d
    return (value(hi) - value(lo)) / (hi - lo)


def _partials(value, J):
    """The partials of ``value`` in the entries of the jet view J
    (``J.entries()``: r, aa, d2 and grad_up of a radial view, du held; r,
    each p_a and each A_ab, a <= b, of a dense one), stacked (E, n), from
    one ``_quotient`` call.  At a tie of a min or max each tied branch
    gets part of the weight, so the row keeps a pivot."""
    X, size = J.entries()
    f = list(X)  # each value call bumps one entry k to Y[k]
    return _quotient(lambda Y: np.array([value(J.with_entries(f[:k] + [y] + f[k + 1:]))
                                         for k, y in enumerate(Y)]), X, size)


def rows(g, T):
    """sum_e g[e] T[e], added in e order: the weights (O, n) of a row in its
    O stencil nodes, of the partials g, (E, n) or (E,), in the grid's
    table T, (E, O, n) or (E, O, 1)."""
    W = T[0] * g[0]
    for t, ge in zip(T[1:], g[1:]):
        W += t * ge
    return W


def _update(u, ids, step, cap, res, at, value, jets, halvings):
    """The update rule of both steps: write min(v + t step, cap), v = u[ids]
    before the step, and refresh ``at`` from ``jets()``, for t = 1, halved
    at most ``halvings`` times while max |min(G, cap - u)| exceeds max
    |res|, its value before the step.  Returns (max |change|, min change).
    """
    v = u[ids]
    worst = float(np.abs(res).max(initial=0.0))
    for k in range(halvings + 1):
        u[ids] = new = np.minimum(v + 0.5 ** k * step, cap)
        J = jets()
        at[:] = [J, value(J)]
        if k == halvings or np.abs(np.minimum(at[1], cap - new)).max(initial=0.0) <= worst:
            break
    ch = new - v
    return float(np.abs(ch).max(initial=0.0)), float(ch.min(initial=0.0))


def sweep_line_numpy(u, order, S, caps, value, jets, res, at, gtol, veps):
    """One Howard policy step on R(u) = min(G(u), cap - u) at the nodes ``order``.

    ``order`` lists the interior nodes of the line in grid order and ``S``
    holds their stencil rows; ``value(J)`` gives the defining values at a
    radial view J, and the rows read the view that ``S.view`` writes with
    the upwind gradient.  The tridiagonal system has one row per interior
    node (the boundary values enter through G).  The step freezes the
    policy at the current u: the contact set, where cap - u < G, and the
    active branch of every min/max of G and of the upwind gradient: the
    rows are ``rows`` of ``_partials`` at that view in ``S.table``.  du is
    lagged, and aa = ang * du moves with the first-difference weights.

    A weak row, whose active branch does not move with the node value (no
    weight through v, d2 or the upwind gradient, as where the angular
    branch of a min is active and f is constant), is linearized at its
    node root instead, where G = 0 puts a branch that does:
    ``vector_node_solve`` finds, for the weak rows only, the largest value
    <= cap with G >= 0 with the neighbours, du and aa of the step's view
    frozen, from the bracket width 1e-3 (1 + |v|) of each row; the roots
    are not written to u.  A row that has no such weight there either is
    left out of the step.  A step without a weak row runs no node solve.

    ``at`` holds [the scheme's jet view, G] at the current u, which
    ``jets()`` writes; ``res`` receives R before the step.  Ends in
    ``_update``, with no halving: returns (max |change|, min change);
    raises FloatingPointError at a zero or non-finite pivot, u unchanged.
    """
    v, cap, uL, uR = u[order], caps[order], u[order - 1], u[order + 1]

    def linearize(o, x, uL, uR, S):  # the upwind view, rows (lo, di, up) and weak rows at x
        J, T = S.view(o, uL, x, uR, upwind=True), S.table(x, uL, uR)
        g = _partials(value, J)
        W = rows(g, T)
        return J, W, np.abs(W[1] - g[1] * T[1, 1]) <= 1e-9 * (np.abs(W[0]) + np.abs(W[2]))

    J, W, weak = linearize(order, v, uL, uR, S)
    G = at[1]
    np.minimum(G, cap - v, out=res)
    if weak.any():
        w = np.flatnonzero(weak)
        o, x, l, r, s, Jw = order[w], v[w], uL[w], uR[w], S.at(w), J.take(w)
        b0 = s.d2(l, 0.0, r)

        def node_G(y):
            return value(Jw.with_entries([y, Jw.aa, b0 + s.aC * y, s.upwind(y, l, r)]))

        roots = vector_node_solve(node_G, x, cap[w], 1e-3 * (1.0 + np.abs(x)), gtol, veps)
        Jr, W[:, w], weak[w] = linearize(o, roots, l, r, s)
        G = G.copy()
        G[w] = value(Jr) + W[1, w] * (x - roots)  # that row's value at v
    solved = cap - v >= G
    stepped = solved & ~weak
    di = np.where(stepped, W[1], 1.0)
    try:
        step = thomas(np.where(stepped, W[0], 0.0), di, np.where(stepped, W[2], 0.0),
                      np.where(stepped, -G, np.where(solved, 0.0, cap - v)))
    except ZeroDivisionError:
        raise FloatingPointError("zero pivot") from None
    if not np.all(np.isfinite(step)) or not np.all(np.isfinite(di)):
        raise FloatingPointError("non-finite pivot or step")
    return _update(u, order, step, cap, res, at, value, jets, 0)


# Largest number of floats the lo, di and up slab blocks of one box system
# may hold together (64 MiB): the slabs of a 2-D box up to ~140 nodes a
# side, of a 3-D box up to ~19.  A larger box is an input error.
MAX_BLOCK_FLOATS = 2**23

# Halvings of a box step's update before the last, shortest trial is kept.
HALVINGS = 8


def slab_blocks(M, ids, W):
    """The block-tridiagonal form of a linear system with one row per
    interior node ``ids`` of the box M, in grid order: the lo, di and up
    blocks, (3, nb, k, k), over the nb slabs of k nodes with one index
    along axis 0.

    Row q holds the weight ``W[o, q]`` at the node ``ids[q] +
    M.shifts[o]`` (``rows`` of the box table, (O, N), or (O, 1) for rows
    alike; the last o is the node itself); a neighbour on the boundary has
    no column, a caller moves it to its right-hand side.  The cross and
    diagonal neighbours couple a slab only to the slabs next to it.
    Raises InputError, before any block is built, when the blocks exceed
    MAX_BLOCK_FLOATS.
    """
    inner = [s - 2 for s in M.shape]
    nb, k = inner[0], ids.size // inner[0]
    if 3 * nb * k * k > MAX_BLOCK_FLOATS:
        raise InputError(f"box too large for the block solve: {nb} slabs of {k} nodes need "
                         f"{3 * nb * k * k} block floats, over MAX_BLOCK_FLOATS = {MAX_BLOCK_FLOATS}")
    # row q, column c of block (t, q // k) is entry t N k + q k + c: the
    # node in row nq at t = nq // k - q // k + 1
    N = ids.size
    blocks = np.zeros((3, nb, k, k))  # lo, di, up
    where = np.full(M.n_nodes, -1)  # row of each interior node
    where[ids] = np.arange(N)
    live = (W != 0.0).any(axis=1)  # the stencil nodes that some row weighs
    nq = where[ids + M.shifts[live, None]]
    W = np.broadcast_to(W[live], nq.shape)
    o, q = np.nonzero((W != 0.0) & (nq >= 0))
    nq = nq[o, q]
    np.put(blocks, (nq // k - q // k + 1) * N * k + q * k + nq % k, W[o, q])
    return blocks


def step_box(u, ids, M, caps, value, jets, res, at):
    """One Howard / Newton step on R(u) = min(G(u), cap - u) at the interior
    nodes ``ids`` of the box ``M``.

    ``value(J)`` gives the defining values at a jet view and ``jets()``
    the centred jet view of the current u at ``ids``.  The rows are
    ``rows`` of ``_partials`` in the box's ``table``.  A contact row, where
    cap - u < G, reads delta = cap - u, as in ``sweep_line_numpy``.  Only
    the pivot of a row is checked: a row whose pivot is not negative (to
    roundoff), as at a triple tie of the eigenvalues under a middle branch,
    is left out of the step (delta = 0), as a weak line row is.
    ``slab_blocks`` places the rows into the slab blocks that
    ``block_thomas`` solves.  The update
    (``_update``) is halved at most HALVINGS times, until max |R| is at
    most its value before the step; the last trial is kept.  A step at the
    roundoff floor, whose update leaves max |R| where it was, so keeps its
    first trial.

    ``at`` holds [jet view, G] at the current u, filled by the caller
    before the first step and by each step at the trial it keeps; ``res``
    receives R before the step.  Returns (max |change|, min change).
    Raises FloatingPointError naming a singular block or a non-finite
    step, with u unchanged, and (``slab_blocks``) InputError when the
    blocks exceed MAX_BLOCK_FLOATS.
    """
    J, G = at
    v, cap = u[ids], caps[ids]
    np.minimum(G, cap - v, out=res)
    W = rows(_partials(value, J), M.table)
    solved = cap - v >= G  # not a contact row
    newton = solved & (W[-1] < -1e-9 * np.abs(W).sum(axis=0))
    W[:, ~newton] = np.eye(len(W))[:, -1:]  # the other rows read delta alone
    blocks = slab_blocks(M, ids, W)
    rhs = np.where(newton, -G, np.where(solved, 0.0, cap - v)).reshape(blocks.shape[1:3])
    try:
        step = block_thomas(*blocks, rhs).ravel()
    except np.linalg.LinAlgError:
        raise FloatingPointError("singular block") from None
    if not np.all(np.isfinite(step)):
        raise FloatingPointError("non-finite step")
    return _update(u, ids, step, cap, res, at, value, jets, HALVINGS)
