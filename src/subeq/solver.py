"""Perron-style monotone solvers for Dirichlet and obstacle problems.

The discrete scheme: at every interior node, G(x, r, p(u), A(u)) = 0,
with centred jets from ``batch_jets``; obstacle problems solve
min(G, g - u) = 0.  On line grids the jets, the policy-step rows and the
presolve rows all read the grid's one ``LineStencil``.

Initialization: the constant min(boundary) - slack subsolution always
applies; for linear members (laplace / infinity-Laplacian with linear f)
a direct tridiagonal presolve is admitted as a warm start after an honest
verification that it is a discrete subsolution, as are the obstacle slack
and the caller's ``ProblemSpec.warm_starts``.  The pointwise max of all
verified candidates is used when it verifies itself.

Solve core: perron_dirichlet and solve_obstacle are one solve (_solve)
that differs only in its caps: +inf, or the obstacle g.  One set-up, one
iteration loop (_iterate) and one certificate (_certificate), recomputed
from the solution with the loop's scheme residual (_residual): the
Dirichlet certificate is the obstacle one with no contact nodes.  The
grid picks the step of the loop, and the grid's stencil picks the scheme
residual.  On line (radial / 1-D) grids each step is one Howard policy
step over the line evaluator of _ir.lower, the tree read through the
radial jet view ("numpy"): the contact set and the active branches are
frozen, and one tridiagonal solve gives the update (the first difference
|du| that profiles read, and any p that a jet-equivalence maps, is
lagged).  On boxes each step is a Newton (Howard) step with the
subequation tree ("generic"): rows from difference quotients of the tree
at the centred jets, mixed-derivative weights included, one
block-tridiagonal solve, and the update halved until the worst residual
does not rise.  The loop checks the scheme residual after every step
whose largest node change is within the policy's convergence_tol -- the
only ones that can be accepted -- and accepts within 0.45 membership_tol.
A failed step, a stall (STALL_STEPS steps without a new minimum of the
worst residual) or MAX_STEPS steps end the solve with ConvergenceError.
Iterates started from a verified discrete subsolution increase
monotonically where the scheme is monotone, mirroring the Perron
supremum.
"""
from __future__ import annotations

import time
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
    warm_starts: tuple = ()             # extra candidate arrays, verified non-strictly
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
    """Node ids and the defining values of F at u's centred jets there:
    every interior node by default, nodes flagged -inf skipped."""
    ids, r, p, A = batch_jets(u, ids)
    return ids, F.value(ids, r, p, A)


def _try_presolve(F, M, bvals):
    """Direct tridiagonal solve for linear line members; None when inapplicable."""
    if M.stencil is None:
        return None
    core = F
    f = getattr(core, "f", None)
    linear_f = f is not None and f.kind in ("linear", "constant")
    if isinstance(core, _Laplace) and linear_f:
        use_angular = True
    elif isinstance(core, _InfLaplacian) and linear_f:
        use_angular = False
    elif M.m == 1 and linear_f and isinstance(
            core, (_Hessian, _Plurisub, _Sigma)):
        use_angular = False  # every eigenvalue member is u'' >= f in 1-D
    else:
        return None
    lam = core.f.slope if core.f.kind == "linear" else 0.0
    rhs_c = core.f.value if core.f.kind == "constant" else 0.0
    n = M.n_nodes
    lo = np.zeros(n)
    di = np.ones(n)
    up = np.zeros(n)
    rhs = np.zeros(n)
    rhs[0], rhs[-1] = bvals[0], bvals[-1]
    i = np.arange(1, n - 1)
    # rows of d2 + w du = f(u), w the angular weight (m - 1) g'/g
    S = M.stencil.at(i)
    w = (M.m - 1) * S.ang if use_angular else 0.0
    lo[i] = S.aL + w * S.wL
    di[i] = S.aC + w * S.wC - lam
    up[i] = S.aR + w * S.wR
    rhs[i] = rhs_c
    return K.thomas(lo, di, up, rhs)


def _initial_subsolution(spec: ProblemSpec, bvals, caps):
    """Pointwise max of verified discrete-subsolution candidates.

    Verification tolerates the roundoff floor of the assembled operator
    (~eps * 2/h_min^2 * scale): a candidate is a subsolution up to solver
    roundoff, which the monotone iteration absorbs.
    """
    M, F = spec.M, spec.F
    interior = M.interior_mask
    scale = 1.0 + float(np.nanmax(np.abs(bvals)))
    verify_band = max(100 * spec.policy.root_value_tol,
                      100 * 2.2e-16 * scale * 2.0 / M.min_spacing() ** 2)
    candidates = []

    def admissible(vals):
        if np.any(vals[interior] > caps[interior] + 1e-14):
            return False
        _, res = _interior_residual(F, GridFunction(M, vals))
        return not (res.size and res.min() < -verify_band)

    def offer(label, vals):
        vals[~interior] = bvals[~interior]
        if admissible(vals):
            candidates.append((label, vals))
            return True
        return False

    bmin = np.nanmin(bvals)
    slack = 1e-2 * (1.0 + abs(bmin))
    for k in range(8):
        c = min(bmin - slack * 2.0**k, np.min(caps[interior], initial=np.inf))
        if offer("constant", np.full(M.n_nodes, c)):
            break
    pre = _try_presolve(F, M, bvals)
    if pre is not None:
        offer("presolve", pre)
    if spec.obstacle is not None:
        offer("obstacle-slack",
              np.minimum(spec.obstacle.values - 0.45 * M.min_spacing()**2, caps))
    for wi, warm in enumerate(spec.warm_starts):
        offer(f"warm{wi}", np.minimum(np.asarray(warm, dtype=float), caps))
    if not candidates:
        raise InitializationError(
            "no verified discrete subsolution found (boundary data infeasible for F?)")
    if len(candidates) > 1:
        merged = np.maximum.reduce([v for _, v in candidates])
        # a max equal to a verified candidate needs no check of its own
        if (any(np.array_equal(merged, v) for _, v in candidates)
                or admissible(merged)):
            return merged, "max(" + ",".join(lbl for lbl, _ in candidates) + ")"
    # prefer the warmest single verified candidate
    order = ["presolve"] + [f"warm{i}" for i in range(len(spec.warm_starts))]
    order += ["obstacle-slack", "constant"]
    label, vals = min(candidates, key=lambda c: order.index(c[0]))
    return vals, label


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


def _iterate(spec: ProblemSpec, u, caps):
    """Newton steps from the subsolution u, updated in place, to the
    discrete fixed point; returns (u, facts).

    The grid picks the step: line grids take the policy steps of
    ``K.sweep_line_numpy`` over the line evaluator of ``_ir.lower``
    ("numpy" engine), boxes the Newton steps of ``K.step_box`` with the
    subequation tree ("generic").  A step whose largest node change is
    within convergence_tol is accepted when the scheme residual
    (``_residual``) is within 0.45 membership_tol.  A failed step
    (FloatingPointError), STALL_STEPS steps in a row without a new minimum
    of the worst residual max |min(G, cap - u)| before a step, or MAX_STEPS
    steps end the solve with ConvergenceError, whose message gives that
    worst residual before the last step.  ``brackets`` carries the
    bracket widths of the line step's weak-row node solves from one step
    to the next.
    """
    M, F = spec.M, spec.F
    conv_tol = spec.conv_tol()
    band = 0.45 * spec.membership_tol()
    ids = M.interior_ids
    gf = GridFunction(M, u)  # shares the array; jets follow in-place updates
    res = np.empty(ids.size)
    if M.stencil is None:
        engine, at = "generic", []

        def step():
            return K.step_box(u, ids, M, caps, lambda r, p, A: F.value(ids, r, p, A),
                              lambda: batch_jets(gf, ids)[1:], res, at)
    else:
        engine, g, S = "numpy", _ir.lower(F), M.stencil.at(ids)
        brackets = np.full(ids.size, 1e-3 * (1.0 + float(np.abs(u).max())))
        gtol, veps = min(band, 1e-9), spec.policy.root_value_tol

        def step():
            return K.sweep_line_numpy(u, ids, S, caps, g, brackets, res, gtol, veps)

    free_band = 10 * conv_tol
    trace, min_signed = [], 0.0
    steps, best, since = 0, np.inf, 0
    while True:
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
        if max_ch <= conv_tol:  # only such a step can be accepted
            rids, r = _residual(spec, gf)
            free = u[rids] < caps[rids] - free_band
            worst = max(float(np.abs(r[free]).max(initial=0.0)),
                        float(np.maximum(-r[~free], 0.0).max(initial=0.0)))
            trace.append({"sweep": steps, "max_change": max_ch, "residual": worst})
            if worst <= band:
                return u, {"sweeps": steps, "engine": engine, "trace": trace,
                           "min_signed_change": min_signed}
        if steps >= MAX_STEPS:
            why = f"MAX_STEPS = {MAX_STEPS} steps taken"
            break
    raise ConvergenceError(
        f"no convergence: {why} at step {steps} ({engine} engine, "
        f"residual={float(np.abs(res).max(initial=0.0)):.3e})",
        diagnostics={"trace": trace[-20:]},
    )


def _residual(spec: ProblemSpec, u: GridFunction):
    """Interior node ids and the scheme residual of u there: the line
    evaluator of ``_ir.lower`` on grids with a line stencil, the tree at
    centred jets on boxes.  The loop's acceptance check and the
    certificate both read it."""
    M = spec.M
    if M.stencil is None:
        return _interior_residual(spec.F, u)
    ids = M.interior_ids
    return ids, K.residual_line_numpy(u.values, ids, M.stencil.at(ids), _ir.lower(spec.F))


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
    t0 = time.perf_counter()
    M = spec.M
    bvals = boundary_values(M, spec.boundary)
    bd = ~M.interior_mask
    if np.any(bvals[bd] > caps[bd] + 1e-12):
        raise PreconditionError("boundary data must satisfy phi <= g on the boundary")
    u0, init_label = _initial_subsolution(spec, bvals, caps)
    u, facts = _iterate(spec, u0.copy(), caps)
    cert = _certificate(spec, u, caps, {**facts, "init": init_label})
    cert.wall_time = time.perf_counter() - t0
    return GridFunction(M, u), cert


def _certificate(spec: ProblemSpec, u, caps, facts) -> Certificate:
    """A solve's certificate from (spec, u, caps) and the facts the
    iteration reports of itself: sweeps, engine, init, trace and
    min_signed_change.

    It checks F^g = F ∩ {r <= caps} at the scheme (``_residual``) and the
    centred jets of u.  Nodes one stencil width from the contact set
    (caps - u <= tol) are exempt from two-sided harmonicity and the dual
    residual: discrete jets straddle the free boundary.  Without a cap
    (caps = +inf) there are no contact nodes, and the same formulas give
    the Dirichlet values; only names and pass rules are per kind.
    """
    M, tol = spec.M, spec.membership_tol()
    gf = GridFunction(M, u)
    ids, res = _interior_residual(spec.F, gf)
    sres = res if M.stencil is None else _residual(spec, gf)[1]
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
                       tol: float | None = None, region=None,
                       policy: NumericPolicy = DEFAULT_POLICY) -> Certificate:
    """Discrete F-subharmonicity: jets at interior nodes classify inside F.

    Nodes flagged -inf are skipped (USC convention); ``region`` restricts
    to a node mask.
    """
    t0 = time.perf_counter()
    M = M or u.manifold
    tol = policy.membership_tol if tol is None else tol
    ids = None
    if region is not None:
        ids = np.where(np.asarray(region, dtype=bool) & M.interior_mask)[0]
    ids, res = _interior_residual(F, u, ids)
    worst = float(-res.min(initial=0.0))
    return Certificate(
        name=f"verify_subharmonic[{F.meta.tag}]",
        passed=bool(worst <= tol),
        tolerance=tol,
        worst={"membership_violation": worst},
        counts={"nodes": ids.size, "violations": int((res < -tol).sum())},
        residuals={"membership": res},
        params={"node_ids": ids},
        wall_time=time.perf_counter() - t0,
    )


def comparison_check(F: Subequation, u: GridFunction, v: GridFunction,
                     K=None, tol: float | None = None,
                     precheck_tol: float | None = None,
                     policy: NumericPolicy = DEFAULT_POLICY) -> Certificate:
    """Zero maximum principle on K: max_K (u+v) <= max_{boundary K} (u+v)^+ + tol,
    for u F-subharmonic and v dual-F-subharmonic (verified first).

    On failure the certificate carries the interior max node and a
    doubled-variable diagnostic: the penalized pair maxima of
    u(x)+v(y) - alpha ϱ(x,y)^2 for a ladder of alphas.
    """
    t0 = time.perf_counter()
    M = u.manifold
    tol = policy.comparison_tol if tol is None else tol
    precheck_tol = (100 * policy.membership_tol if precheck_tol is None else precheck_tol)
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
            wall_time=time.perf_counter() - t0,
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
        wall_time=time.perf_counter() - t0,
    )
    if not passed:
        node = int(np.where(inner & ~edge)[0][np.argmax(w[inner & ~edge])])
        cert.params["max_node"] = node
        cert.trace = _doubled_variable_diag(M, u.values, v.values, K)
    return cert


def _doubled_variable_diag(M, uv, vv, K, max_nodes=256):
    ids = np.where(K)[0]
    if ids.size > max_nodes:
        ids = ids[:: ids.size // max_nodes + 1]
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
                 collar_width: float | None = None,
                 margin: float | None = None,
                 policy: NumericPolicy = DEFAULT_POLICY) -> BarrierResult:
    """Search beta = t (rho + s rho^2) for a strictly F-subharmonic barrier.

    rho must be a defining function: zero on the boundary piece, negative on
    the omega side near it, with non-vanishing discrete gradient there.
    Certification asks the fiber distance from each collar jet to the
    boundary of F to stay above ``margin`` -- not only at t but along an
    escalating t-ladder (t, 4t, 16t, 64t), the desk-scale rendering of the
    barrier family {t rho_s : t >= t_0}: members with empty asymptotic
    interior (the eikonal) correctly fail.  A rung is one batched search
    over the collar; its first node (in collar order) with G <= 0 or
    distance < ``margin`` fails it, with the minimum distance up to there.
    The smallest certified (s, t) pair (s first, then t) is returned.
    """
    t0 = time.perf_counter()
    margin = policy.barrier_margin if margin is None else margin
    omega_mask = np.asarray(omega_mask, dtype=bool)
    boundary_ids = np.asarray(boundary_ids, dtype=int)
    rv = rho.values
    scale = 1.0 + float(np.abs(rv).max())
    if np.any(np.abs(rv[boundary_ids]) > 1e-9 * scale):
        raise PreconditionError("rho must vanish on the boundary piece")
    bc = M.coords[boundary_ids]
    dist = np.min(np.linalg.norm(M.coords[:, None, :] - bc[None, :, :], axis=2), axis=1)
    if collar_width is None:
        collar_width = 4.0 * M.min_spacing()
    collar = omega_mask & M.interior_mask & (dist <= collar_width)
    if not np.any(collar):
        raise PreconditionError("empty collar: enlarge collar_width")
    if np.any(rv[collar] >= 0):
        raise PreconditionError("rho must be negative inside omega near the boundary")
    ids = np.where(collar)[0]
    best_margin = -np.inf

    def certify(vals):
        beta = GridFunction(M, vals)
        _, r, p, A = batch_jets(beta, ids)
        if np.any(np.linalg.norm(p, axis=1) < 1e-12):
            return False, 0.0
        k = int(np.argmax(np.append(F.value(ids, r, p, A) <= 0, True)))
        d = distance_to_boundary(F, ids[:k], r[:k], p[:k], A[:k], policy=policy).value
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
                    wall_time=time.perf_counter() - t0,
                )
                return BarrierResult(True, GridFunction(M, t * rs), s, t, worst, cert)
    cert = Certificate(
        name="make_barrier", passed=False, tolerance=margin,
        worst={"best_margin": best_margin},
        counts={"collar_nodes": ids.size},
        params={"s_grid": list(s_grid), "t_grid": list(t_grid)},
        notes=["barrier search exhausted: boundary may not be F-convex at these heights"],
        wall_time=time.perf_counter() - t0,
    )
    return BarrierResult(False, None, np.nan, np.nan, best_margin, cert)
