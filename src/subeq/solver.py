"""Perron-style monotone solvers for Dirichlet and obstacle problems.

The discrete scheme: at every interior node, G(x, r, p(u), A(u)) = 0,
with centred jets from ``batch_jets``; obstacle problems solve
min(G, g - u) = 0.  Every defining value, the Newton steps' included,
reads ``F._value(J)`` at a jet view J: a ``jets.RadialView`` on line
grids, never re-decomposed densely, and a ``jets.DenseView`` on boxes.
On line grids the grid's one ``LineStencil`` writes every jet view
(``LineStencil.view``).  On both grids the rows of the Newton steps and
of the presolves are ``_kernels.rows``: partials chained through the
grid's stencil table (``LineStencil.table``, whose u-independent rows
``LineStencil.fixed`` the line presolve reads, and ``FlatBox.table``).

Initialization: for affine members (laplace with linear or constant f
on every grid; on line grids also the infinity-Laplacian, and in 1-D
every eigenvalue member) a direct presolve is admitted as a warm start
after an honest verification that it is a discrete subsolution, as is
the obstacle slack.  On line grids the presolve is tridiagonal.  A
sub-range grid reads its root grid's stencil rows (``sub_range``), and
the root holds one forward elimination of the presolve rows, extended on
demand: the presolves of nested sub-ranges (the capacitors of
``inf_capacity``, the stage solves of ``build_potential``) run one
forward sweep, and each its own outer row and back substitution, with
the bytes of a fresh ``thomas``.  On boxes the presolve solves the
Laplacian's rows in one ``block_thomas`` call, with the slab blocks the
box step assembles (``_kernels.slab_blocks``); the loop
accepts it at its start check, so an affine box solve takes no Newton
step.  A ladder of constants min(boundary) - slack 2^k is offered too,
warmest first, until one verifies; a rung that the verified presolve
lies at or above everywhere ends the ladder unchecked.  The pointwise
max of all verified candidates is used when it verifies itself.  A
solve has no setting of its own: a ``ProblemSpec`` is the problem (F,
grid, boundary data, obstacle) and the run's tolerance.

Solve core: perron_dirichlet and solve_obstacle are one solve (_solve)
that differs only in its caps: +inf, or the obstacle g.  One set-up, one
iteration loop (_iterate) and one certificate (_certificate) of the
returned solution.  The loop's state is the scheme's jet view of the
iterate and its G; the view is the centred one that verified the start,
except on a line grid whose member reads the upwind gradient.  The
certificate reads the residuals that the solve computed: the scheme one
of the loop's last check, which is also the centred one where the view
is centred, else the start's (no step) or one evaluated after the
steps.  Recomputing them from the solution gives the same bytes.  The
Dirichlet certificate is the obstacle one with no contact nodes.
On line (radial / 1-D) grids each step is one Howard policy step with
the subequation tree read at the stencil's radial jet views ("numpy"):
the contact set and the active branches are frozen, and
one tridiagonal solve gives the update (the first difference |du| that
profiles read, and any p that a jet-equivalence maps, is lagged).  On
boxes each step is a Newton (Howard) step with the subequation tree
("generic"): rows from difference quotients of the tree at the centred
jet view, mixed-derivative weights included, one block-tridiagonal
solve, and the update halved until the worst residual does not rise.
Every step takes the loop's state and leaves it.  The loop checks the
scheme residual of the start and after every step whose largest node
change is within convergence_tol -- the only ones that can be accepted --
and accepts within 0.45 membership_tol: a start that already meets it
takes no step.  A failed step, a stall (STALL_STEPS steps without a new minimum
of the worst residual), a step that changes no node and is not
accepted, or MAX_STEPS steps end the solve with ConvergenceError.  No
state rides from one step to the next: a step is a function of u alone,
so one that changes no node would repeat forever.  Iterates started
from a verified discrete subsolution increase monotonically where the
scheme is monotone, mirroring the Perron supremum.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _ir
from . import _kernels as K
from .certificates import Certificate
from .errors import (
    ConvergenceError,
    InitializationError,
    InputError,
    PreconditionError,
)
from .jets import upper_pairs
from .manifolds import (
    GridFunction,
    ModelManifold,
    _grow_mask,
    batch_jets,
)
from .policy import DEFAULT_POLICY, NumericPolicy
from .subequations import Subequation, distance_to_boundary, dual as dual_of
from .subequations import (  # structural presolve detection
    _Hessian,
    _InfLaplacian,
    _Laplace,
    _Plurisub,
    _Sigma,
)


@dataclass
class ProblemSpec:
    F: Subequation
    M: ModelManifold
    boundary: dict                      # tag -> scalar | callable(coords) | array
    obstacle: GridFunction | None = None
    policy: NumericPolicy = DEFAULT_POLICY

    def conv_tol(self):
        return self.policy.convergence_tol

    def membership_tol(self):
        return self.policy.membership_tol


# ---------------------------------------------------------------------------
# boundary data
# ---------------------------------------------------------------------------


def boundary_values(M: ModelManifold, boundary: dict) -> np.ndarray:
    """Full-length array holding boundary data on boundary nodes, NaN inside."""
    out = np.full(M.n_nodes, np.nan)
    for tag, spec in boundary.items():
        ids = M.boundary_ids(tag)
        if callable(spec):
            c = M.coords[ids]
            vals = spec(c[:, 0]) if c.shape[1] == 1 else spec(c)
        else:
            vals = np.asarray(spec, dtype=float)
            if vals.ndim == 0:
                vals = np.full(ids.size, float(vals))
        vals = np.broadcast_to(np.asarray(vals, dtype=float), (ids.size,))
        if not np.all(np.isfinite(vals)):
            raise InputError(f"boundary data on '{tag}' must be finite")
        out[ids] = vals
    missing = ~np.isfinite(out) & ~M.interior_mask
    if np.any(missing):
        raise InputError("boundary data missing on some boundary nodes "
                         f"(tags given: {sorted(boundary)})")
    return out


# ---------------------------------------------------------------------------
# initialization: verified discrete subsolutions
# ---------------------------------------------------------------------------


def _interior_residual(F, u: GridFunction, ids=None):
    """u's centred jet view J (node ids J.x: every interior node by default,
    nodes flagged -inf skipped) and the defining values of F there."""
    _, J = batch_jets(u, ids)
    return J, F._value(J)


def _try_presolve(F, M, bvals):
    """Direct solve of an affine member; None when F is not affine on M.

    F is affine when f is linear or constant and F is the Laplacian, or
    on line grids the infinity-Laplacian, or in 1-D any eigenvalue
    member (each is u'' >= f there).  On line grids the rows are the
    inner boundary row, the rows of d2 + w du = f(u) at the interior nodes
    and the outer boundary row.  The forward
    elimination of all but the last row reads only the root grid's
    stencil rows (``sub_range``) and five scalars: the root index of the
    inner node, the inner value, whether the angular weight is read, the
    slope of f and its constant.  The root holds that elimination for one
    such key, extended on demand to the deepest row asked for, so the
    presolves of nested sub-ranges run one forward sweep; each runs its
    own outer row and back substitution.  The result is ``K.thomas`` on
    the grid's own rows, byte for byte.  On boxes (``_box_presolve``) the
    rows are those of the Laplacian's cross stencil, solved in one
    ``K.block_thomas`` call.
    """
    f = getattr(F, "f", None)
    if f is None or f.kind not in ("linear", "constant"):
        return None
    if isinstance(F, _Laplace):
        use_angular = True
    elif M.stencil is not None and isinstance(F, _InfLaplacian):
        use_angular = False  # affine along a line only
    elif M.m == 1 and isinstance(F, (_Hessian, _Plurisub, _Sigma)):
        use_angular = False  # every eigenvalue member is u'' >= f in 1-D
    else:
        return None
    lam = f.slope if f.kind == "linear" else 0.0
    rhs_c = f.value if f.kind == "constant" else 0.0
    if M.stencil is None:
        return _box_presolve(M, bvals, lam, rhs_c)
    # the bytes of the scalars, so that -0.0 and 0.0 are two keys
    key = (M.offset, use_angular, np.array([bvals[0], lam, rhs_c], dtype=float).tobytes())
    memo = getattr(M.root, "_elimination", None)
    if memo is None or memo[0] != key:
        memo = M.root._elimination = (key, [], [])
    _, cs, ds = memo
    n = M.n_nodes
    if len(cs) < n - 1:  # extend the elimination to this grid's last interior row
        j = np.arange(M.offset + len(cs), M.offset + n - 1)
        # rows of d2 + (m - 1) aa = f(u), with or without aa: partials in r, aa, d2
        g = np.array([-lam, M.m - 1 if use_angular else 0.0, 1.0])
        lo, di, up = K.rows(g, M.root.stencil.at(j).fixed)
        rhs = np.full(j.size, float(rhs_c))
        if not cs:  # the inner boundary row
            lo[0], di[0], up[0], rhs[0] = 0.0, 1.0, 0.0, bvals[0]
        K.eliminate(lo, di, up, rhs, cs, ds)
    cs, ds = cs[:n - 1], ds[:n - 1]
    K.eliminate(np.zeros(1), np.ones(1), np.zeros(1), bvals[-1:], cs, ds)  # the outer row
    return K.back_substitute(cs, ds)


def _box_presolve(M, bvals, lam, rhs_c):
    """The solution of the Laplacian's rows on the box M: at each interior
    node x, sum_a (u(x + h_a e_a) - 2 u(x) + u(x - h_a e_a)) / h_a^2 -
    lam u(x) = rhs_c, with the boundary neighbours on the right-hand side.
    With lam >= 0 (f is non-decreasing) the rows are irreducibly
    diagonally dominant with negative pivots, so every block that
    ``K.block_thomas`` factors is nonsingular.  Boundary nodes keep bvals.
    """
    ids, m = M.interior_ids, M.m
    # the Laplacian's partials in r, p and A (``DenseView.entries``): -lam, 0, I
    w = K.rows(np.concatenate([[-lam], np.zeros(m), np.eye(m)[upper_pairs(m)]]), M.table)
    blocks = K.slab_blocks(M, ids, w)
    outside = np.where(M.interior_mask, 0.0, bvals)
    rhs = rhs_c - sum(c * outside[ids + s] for c, s in zip(w[:, 0], M.shifts) if c)
    u = bvals.copy()
    u[ids] = K.block_thomas(*blocks, rhs.reshape(blocks.shape[1:3])).ravel()
    return u


def _initial_subsolution(spec: ProblemSpec, bvals, caps):
    """Pointwise max of verified discrete-subsolution candidates.

    Verification tolerates the roundoff floor of the assembled operator
    (~eps * 2/h_min^2 * scale): a candidate is a subsolution up to solver
    roundoff, which the monotone iteration absorbs.  Returns (u0, label,
    start), start = [J, G]: the centred jet view of u0 and the centred
    residual that verified it.
    """
    M, F = spec.M, spec.F
    interior = M.interior_mask
    scale = 1.0 + float(np.nanmax(np.abs(bvals)))
    verify_band = max(100 * ROOT_VALUE_TOL,
                      100 * 2.2e-16 * scale * 2.0 / M.min_spacing() ** 2)
    candidates = []

    def admissible(vals):  # [jet view, centred residual] of vals if it verifies, else None
        if np.any(vals[interior] > caps[interior] + 1e-14):
            return None
        J, res = _interior_residual(F, GridFunction(M, vals))  # NaN and inf fail
        return [J, res] if np.all(np.isfinite(res) & (res >= -verify_band)) else None

    def offer(label, vals):
        vals[~interior] = bvals[~interior]
        start = admissible(vals)
        if start is not None:
            candidates.append((vals, label, start))
        return start is not None

    bmin = np.nanmin(bvals)
    slack = 1e-2 * (1.0 + abs(bmin))
    cmax = np.min(caps[interior], initial=np.inf)
    pre = _try_presolve(F, M, bvals)
    presolved = pre is not None and offer("presolve", pre)
    for k in range(8):  # the ladder of constants, warmest first
        c = min(bmin - slack * 2.0**k, cmax)
        if presolved and np.all(pre >= c):
            break  # the verified presolve would be the max with this or any later rung
        if offer("constant", np.full(M.n_nodes, c)):
            candidates.insert(0, candidates.pop())  # labels list the constant first
            break
    if spec.obstacle is not None:
        offer("obstacle-slack",
              np.minimum(spec.obstacle.values - 0.45 * M.min_spacing()**2, caps))
    if not candidates:
        raise InitializationError(
            "no verified discrete subsolution found (boundary data infeasible for F?)")
    if len(candidates) > 1:
        merged = np.maximum.reduce([v for v, _, _ in candidates])
        # a max with the bytes of a verified candidate needs no check of its own
        key = merged.tobytes()
        start = next((s for v, _, s in candidates if v.tobytes() == key), None)
        if start is None:
            start = admissible(merged)
        if start is not None:
            return merged, "max(" + ",".join(c[1] for c in candidates) + ")", start
    # prefer the warmest single verified candidate
    order = ["presolve", "obstacle-slack", "constant"]
    return min(candidates, key=lambda c: order.index(c[1]))


# ---------------------------------------------------------------------------
# the Newton loop
# ---------------------------------------------------------------------------


# Newton steps without a new minimum of the worst residual before a solve
# gives up on them.  Converging solves of the catalog probe (cli._catalog
# and the duals, m = 1..3, on a 41-node sinh grid), of constant-f min
# members and of the committed scenarios never went more than 7 steps
# without one.
STALL_STEPS = 50
# Newton steps one solve may take in all.
MAX_STEPS = 2_000_000
# relative value resolution of node bisection: near machine ulp, so node
# residuals reach the membership band even at Lipschitz ~ 2/h^2
ROOT_VALUE_TOL = 1e-15


def _iterate(spec: ProblemSpec, u, caps, start):
    """Newton steps from the subsolution u, updated in place, to the
    discrete fixed point; returns (u, the scheme residual of the check
    that accepted u, the centred residual at u, facts).

    The loop state ``at`` = [J, G], the scheme's jet view of the current
    u and its defining values, is what the check reads and what every
    step takes and refreshes (``K._update``).  The view is the centred
    one, except on a line grid whose member reads the upwind gradient
    (``F.reads_grad_up``), the one place that picks it.  A centred ``at``
    starts as ``start``, the [view, residual] that verified the start u,
    and its G is the centred residual.  An upwind one is evaluated at the
    start; the centred residual is then ``start``'s after no step, and
    evaluated once after steps.

    The grid picks the step: line grids take the policy steps of
    ``K.sweep_line_numpy`` ("numpy" engine), boxes the Newton steps of
    ``K.step_box`` ("generic"), both with ``_ir.lower(F)``.  The start,
    and every step whose largest node change is within convergence_tol,
    is accepted when the scheme residual is within 0.45 membership_tol;
    each such check adds one trace entry, the start's with sweep 0.  A
    failed step (FloatingPointError), STALL_STEPS steps in a row without a
    new minimum of the worst residual max |min(G, cap - u)| before a step,
    a step that changes no node and is not accepted, or MAX_STEPS steps
    end the solve with ConvergenceError, whose message gives that worst
    residual before the last step.  No state is carried from one step to the next besides
    u (``at`` is a function of u), so a step that changes no node would be
    repeated by every later step; the solve ends right after its
    acceptance check.
    """
    M, F = spec.M, spec.F
    conv_tol = spec.conv_tol()
    band = 0.45 * spec.membership_tol()
    ids = M.interior_ids
    res = np.empty(ids.size)
    value = _ir.lower(F)
    if M.stencil is None:
        engine, upwind, gf = "generic", False, GridFunction(M, u)  # jets follow u in place

        def jets():
            return batch_jets(gf, ids)[1]

        def step():
            return K.step_box(u, ids, M, caps, value, jets, res, at)
    else:
        engine, upwind, S = "numpy", F.reads_grad_up, M.stencil.at(ids)
        gtol, veps = min(band, 1e-9), ROOT_VALUE_TOL

        def jets():
            return S.view(ids, u[ids - 1], u[ids], u[ids + 1], upwind=upwind)

        def step():
            return K.sweep_line_numpy(u, ids, S, caps, value, jets, res, at, gtol, veps)
    J = jets() if upwind else None  # a centred loop starts from the start's view and G
    at = [J, value(J)] if upwind else start

    free_band = 10 * conv_tol
    trace, min_signed = [], 0.0
    steps, best, since, max_ch = 0, np.inf, 0, 0.0
    while True:
        if max_ch <= conv_tol:  # the start, and every step that can be accepted
            r = at[1]
            free = u[ids] < caps[ids] - free_band
            worst = max(float(np.abs(r[free]).max(initial=0.0)),
                        float(np.maximum(-r[~free], 0.0).max(initial=0.0)))
            trace.append({"sweep": steps, "max_change": max_ch, "residual": worst})
            if worst <= band:
                centred = r if not upwind else (
                    _interior_residual(F, GridFunction(M, u))[1] if steps else start[1])
                return u, r, centred, {"sweeps": steps, "engine": engine, "trace": trace,
                                       "min_signed_change": min_signed}
            if steps and max_ch == 0.0:
                why = "a step changed no node"
                break
        if steps >= MAX_STEPS:
            why = f"MAX_STEPS = {MAX_STEPS} steps taken"
            break
        steps += 1
        try:
            max_ch, min_ch = step()
        except FloatingPointError as e:
            why = str(e)
            break
        before = float(np.abs(res).max(initial=0.0))  # max |R| before the step
        best, since = (before, 0) if before < best else (best, since + 1)
        if since >= STALL_STEPS:
            why = f"no new minimum of the worst residual in {STALL_STEPS} steps"
            break
        min_signed = min(min_signed, min_ch)
    raise ConvergenceError(
        f"no convergence: {why} at step {steps} ({engine} engine, "
        f"residual={float(np.abs(res).max(initial=0.0)):.3e})",
        diagnostics={"trace": trace[-20:]},
    )


# ---------------------------------------------------------------------------
# public solver operations
# ---------------------------------------------------------------------------


def _comparison_regime(F: Subequation) -> str:
    f = F.meta.f
    if F.meta.tag.startswith("inf_laplacian"):
        return "inf_laplacian"
    if f is not None:
        if f.kind == "linear" and f.slope > 0:
            return "strict-f"
        if f.kind == "table" and np.all(np.diff(f.ys) > 0):
            return "strict-f"
    return "weak"


def _solve(spec: ProblemSpec, caps):
    """The solve core: boundary data, verified initial subsolution, the
    monotone iteration with node values capped at caps, and the
    certificate of its result.  Returns (u, certificate).
    """
    M = spec.M
    bvals = boundary_values(M, spec.boundary)
    bd = ~M.interior_mask
    if np.any(bvals[bd] > caps[bd] + 1e-12):
        raise PreconditionError("boundary data must satisfy phi <= g on the boundary")
    u0, init_label, start = _initial_subsolution(spec, bvals, caps)
    u, sres, res, facts = _iterate(spec, u0.copy(), caps, start)
    cert = _certificate(spec, u, caps, res, sres, {**facts, "init": init_label})
    return GridFunction(M, u), cert


def _certificate(spec: ProblemSpec, u, caps, res, sres, facts) -> Certificate:
    """A solve's certificate from (spec, u, caps), the residuals of u at
    the interior nodes that the solve computed, and the facts the
    iteration reports of itself: sweeps, engine, init, trace and
    min_signed_change.  ``res`` is the centred residual
    (``_interior_residual``) and ``sres`` the scheme residual of the
    loop's acceptance check; recomputing them from u gives the same
    bytes, so the certificate is a function of (spec, u, caps) and the
    facts.

    It checks F^g = F ∩ {r <= caps} at the scheme and the centred jets
    of u.  Nodes one stencil width from the contact set
    (caps - u <= tol) are exempt from two-sided harmonicity and the dual
    residual: discrete jets straddle the free boundary.  Without a cap
    (caps = +inf) there are no contact nodes, and the same formulas give
    the Dirichlet values; only names and pass rules are per kind.
    """
    M, tol = spec.M, spec.membership_tol()
    ids = M.interior_ids
    gap = caps[ids] - u[ids]
    harmonic = np.minimum(sres, gap)     # defining value of F^g at scheme jets
    contact = gap <= tol
    near_contact = np.zeros(M.n_nodes, dtype=bool)
    near_contact[ids[contact]] = True
    free = ~_grow_mask(M, near_contact)[ids]
    comp = np.minimum(gap, -harmonic)    # -harmonic: dual(F^g) value at jets of -u
    harmonicity = max(float(np.abs(harmonic[free]).max(initial=0.0)),
                      float(np.maximum(-harmonic, 0.0).max(initial=0.0)))
    membership = float(-np.minimum(res, gap).min(initial=0.0))
    dual = float(np.maximum(harmonic[free], 0.0).max(initial=0.0))
    complementarity = float(comp.max(initial=0.0))
    params = {"engine": facts["engine"], "init": facts["init"],
              "comparison_regime": _comparison_regime(spec.F),
              "monotone_iterates": bool(facts["min_signed_change"] >= -1e-12)}
    notes = []
    if spec.obstacle is None:
        name = "perron_dirichlet"
        passed = harmonicity <= tol and membership <= tol
        worst = {"harmonicity": harmonicity, "membership": membership,
                 "dual_membership": dual}
        counts = {"interior_nodes": ids.size, "sweeps": facts["sweeps"]}
        params["conv_tol"] = spec.conv_tol()
        residuals = {"membership": res, "dual": -res}
        if params["comparison_regime"] == "weak":
            notes.append("comparison regime 'weak': uniqueness not guaranteed for this profile")
    else:
        name = "solve_obstacle"
        passed = np.all(u <= caps + 1e-12) and harmonicity <= tol and complementarity <= tol
        worst = {"harmonicity_off_contact": harmonicity, "membership": membership,
                 "dual_off_contact": dual, "complementarity": complementarity,
                 "max_over_obstacle": float((u - caps).max(initial=0.0))}
        counts = {"interior_nodes": ids.size, "contact_nodes": int(contact.sum()),
                  "sweeps": facts["sweeps"]}
        residuals = {"membership": res, "obstacle_gap": gap, "complementarity": comp}
    return Certificate(name=name, passed=bool(passed), tolerance=tol, worst=worst,
                       counts=counts, params=params, residuals=residuals,
                       trace=facts["trace"][-50:], notes=notes)


def perron_dirichlet(spec: ProblemSpec):
    """Solve the Dirichlet problem for F on M; returns (u, certificate).

    A spec with an obstacle goes to ``solve_obstacle``.  The certificate
    (``_certificate``) carries per-node membership residuals and their
    equal-and-opposite dual residuals, the iteration trace, and the
    comparison-regime note.
    """
    if spec.obstacle is not None:
        return solve_obstacle(spec)
    return _solve(spec, np.full(spec.M.n_nodes, np.inf))


def solve_obstacle(spec: ProblemSpec):
    """Obstacle problem: the Dirichlet problem for F^g = F ∩ {r <= g}, the
    iteration with node updates clamped at g.  Certificate
    (``_certificate``): u <= g, off-contact F^g-harmonicity min(G, g - u)
    and complementarity within the band.
    """
    if spec.obstacle is None:
        raise InputError("solve_obstacle needs spec.obstacle")
    return _solve(spec, spec.obstacle.values.copy())


def verify_subharmonic(F: Subequation, u: GridFunction, M: ModelManifold | None = None,
                       tol: float | None = None, region=None) -> Certificate:
    """Discrete F-subharmonicity: jets at interior nodes classify inside F.

    ``tol`` defaults to the default membership_tol.  Nodes flagged -inf
    are skipped (USC convention); ``region`` restricts to a node mask.
    """
    M = M or u.manifold
    tol = DEFAULT_POLICY.membership_tol if tol is None else tol
    ids = None
    if region is not None:
        ids = np.where(np.asarray(region, dtype=bool) & M.interior_mask)[0]
    J, res = _interior_residual(F, u, ids)
    worst = float(-res.min(initial=0.0))
    return Certificate(
        name=f"verify_subharmonic[{F.meta.tag}]",
        passed=bool(worst <= tol),
        tolerance=tol,
        worst={"membership_violation": worst},
        counts={"nodes": J.x.size, "violations": int((res < -tol).sum())},
        residuals={"membership": res},
        params={"node_ids": J.x},
    )


def comparison_check(F: Subequation, u: GridFunction, v: GridFunction,
                     K=None) -> Certificate:
    """Zero maximum principle on K: max_K (u+v) <= max_{boundary K} (u+v)^+ + tol,
    tol the default membership_tol, for u F-subharmonic and v
    dual-F-subharmonic (verified first, within 100 membership_tol).

    On failure the certificate carries the interior max node and a
    doubled-variable diagnostic: the penalized pair maxima of
    u(x)+v(y) - alpha ϱ(x,y)^2 for a ladder of alphas.
    """
    M = u.manifold
    tol = DEFAULT_POLICY.membership_tol
    precheck_tol = 100 * tol
    K = np.ones(M.n_nodes, dtype=bool) if K is None else np.asarray(K, dtype=bool)
    cu = verify_subharmonic(F, u, M, tol=precheck_tol, region=K & M.interior_mask)
    cv = verify_subharmonic(dual_of(F), v, M, tol=precheck_tol, region=K & M.interior_mask)
    if not (cu.passed and cv.passed):
        return Certificate(
            name="comparison_check", passed=False, tolerance=tol,
            worst={"precondition_u": cu.worst["membership_violation"],
                   "precondition_v": cv.worst["membership_violation"]},
            params={"kind": "precondition-fail"},
            notes=["precondition-fail: membership check failed, not a comparison failure"],
        )
    w = u.values + v.values
    inner = K & M.interior_mask
    edge = K & (~M.interior_mask | _grow_mask(M, ~K))
    interior_max = float(w[inner & ~edge].max(initial=-np.inf))
    boundary_plus = float(np.maximum(w[edge], 0.0).max(initial=0.0))
    violation = interior_max - boundary_plus
    passed = bool(violation <= tol)
    cert = Certificate(
        name="comparison_check", passed=passed, tolerance=tol,
        worst={"violation": max(violation, 0.0),
               "interior_max": interior_max, "boundary_max_plus": boundary_plus},
        counts={"K_nodes": int(K.sum())},
        params={"kind": "comparison"},
    )
    if not passed:
        node = int(np.where(inner & ~edge)[0][np.argmax(w[inner & ~edge])])
        cert.params["max_node"] = node
        cert.trace = _doubled_variable_diag(M, u.values, v.values, K)
    return cert


def _doubled_variable_diag(M, uv, vv, K):
    ids = np.where(K)[0]
    if ids.size > 256:
        ids = ids[:: ids.size // 256 + 1]
    c = M.coords[ids]
    d2 = ((c[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
    out = []
    for alpha in (1.0, 10.0, 100.0, 1000.0):
        val = uv[ids][:, None] + vv[ids][None, :] - alpha * d2
        k = np.unravel_index(np.argmax(val), val.shape)
        out.append({
            "alpha": alpha,
            "pair_max": float(val[k]),
            "penalty": float(alpha * d2[k]),
            "x": int(ids[k[0]]),
            "y": int(ids[k[1]]),
        })
    return out


# The fiber distance make_barrier asks of every collar jet by default.
BARRIER_MARGIN = 1e-6
# The collar of a boundary piece: the interior nodes within this many
# smallest grid spacings of it.  ``make_barrier`` certifies its barrier
# there, and ``khasminskii.build_potential`` relaxes the eikonal there.
COLLAR_SPACINGS = 4.0


@dataclass
class BarrierResult:
    ok: bool
    beta: GridFunction | None
    s: float
    t: float
    margin: float
    certificate: Certificate


def make_barrier(F: Subequation, M: ModelManifold, omega_mask, boundary_ids,
                 rho: GridFunction, s_grid=(0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
                 t_grid=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
                 margin: float = BARRIER_MARGIN) -> BarrierResult:
    """Search beta = t (rho + s rho^2) for a strictly F-subharmonic barrier.

    rho must be a defining function: zero on the boundary piece, negative on
    the omega side near it, with non-vanishing discrete gradient there.
    The collar is the interior omega nodes within
    ``COLLAR_SPACINGS * M.min_spacing()`` of the boundary piece.
    Certification asks the fiber distance from each collar jet to the
    boundary of F to stay above ``margin`` -- not only at t but along an
    escalating t-ladder (t, 4t, 16t, 64t), the desk-scale rendering of the
    barrier family {t rho_s : t >= t_0}: members with empty asymptotic
    interior (the eikonal) correctly fail.  A rung is one batched search
    over the collar; its first node (in collar order) with G <= 0 or
    distance < ``margin`` fails it, with the minimum distance up to there.
    The smallest certified (s, t) pair (s first, then t) is returned.
    """
    omega_mask = np.asarray(omega_mask, dtype=bool)
    boundary_ids = np.asarray(boundary_ids, dtype=int)
    rv = rho.values
    scale = 1.0 + float(np.abs(rv).max())
    if np.any(np.abs(rv[boundary_ids]) > 1e-9 * scale):
        raise PreconditionError("rho must vanish on the boundary piece")
    bc = M.coords[boundary_ids]
    dist = np.min(np.linalg.norm(M.coords[:, None, :] - bc[None, :, :], axis=2), axis=1)
    collar_width = COLLAR_SPACINGS * M.min_spacing()
    collar = omega_mask & M.interior_mask & (dist <= collar_width)
    if not np.any(collar):
        raise PreconditionError("empty collar: no interior omega node within "
                                f"{COLLAR_SPACINGS:g} grid spacings of the boundary piece")
    if np.any(rv[collar] >= 0):
        raise PreconditionError("rho must be negative inside omega near the boundary")
    ids = np.where(collar)[0]
    best_margin = -np.inf

    def certify(vals):
        _, J = batch_jets(GridFunction(M, vals), ids)
        if np.any(J.grad < 1e-12):
            return False, 0.0
        k = int(np.argmax(np.append(F._value(J) <= 0, True)))
        d = distance_to_boundary(F, ids[:k], J.r[:k], J.p[:k], J.A[:k]).value
        j = int(np.argmax(np.append(d < margin, True)))
        worst = float(np.min(d[:j + 1], initial=np.inf))
        if j == k < ids.size:
            worst = min(worst, 0.0)
        return j == ids.size, worst

    for s in s_grid:
        rs = rv + s * rv**2
        for t in t_grid:
            ok = True
            worst = np.inf
            for scale in (1.0, 4.0, 16.0, 64.0):
                ok_t, w_t = certify(t * scale * rs)
                worst = min(worst, w_t)
                if not ok_t:
                    ok = False
                    break
            best_margin = max(best_margin, worst if np.isfinite(worst) else margin)
            if ok:
                cert = Certificate(
                    name="make_barrier", passed=True, tolerance=margin,
                    worst={"min_fiber_distance": worst},
                    counts={"collar_nodes": ids.size},
                    params={"s": s, "t": t, "collar_width": collar_width,
                            "t_ladder": [t, 4 * t, 16 * t, 64 * t]},
                )
                return BarrierResult(True, GridFunction(M, t * rs), s, t, worst, cert)
    cert = Certificate(
        name="make_barrier", passed=False, tolerance=margin,
        worst={"best_margin": best_margin},
        counts={"collar_nodes": ids.size},
        params={"s_grid": list(s_grid), "t_grid": list(t_grid)},
        notes=["barrier search exhausted: boundary may not be F-convex at these heights"],
    )
    return BarrierResult(False, None, np.nan, np.nan, best_margin, cert)
