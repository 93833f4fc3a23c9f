"""Perron-style monotone solvers for Dirichlet and obstacle problems.

The discrete scheme: at every interior node, G(x, r, p(u), A(u)) = 0,
with centred jets from ``batch_jets``; obstacle problems solve
min(G, g - u) = 0.  On line grids the jets, the policy-step rows, the
presolve rows and the Jacobi centre sensitivity all read the grid's one
``LineStencil``.

Initialization: the constant min(boundary) - slack subsolution always
applies; for linear members (laplace / infinity-Laplacian with linear f)
a direct tridiagonal presolve is admitted as a warm start after an honest
verification that it is a discrete subsolution.  The pointwise max of all
verified candidates is used when it verifies itself.

Solve core: perron_dirichlet and solve_obstacle share one set-up and one
iteration loop (_solve, _iterate) and differ only in their caps and
certificate.  The grid and the lowering choose the engine.  On line
(radial / 1-D) grids with a subequation that lowers (_ir.lower), each
iteration is one Howard policy step over the closed-form line evaluator
("numpy"): the contact set and the active branches are frozen, and one
tridiagonal solve gives the update (the first difference |du| that
profiles read is lagged).  Otherwise each iteration is a Jacobi sweep of
bisection node solves driven by the subequation tree ("generic"; G is
monotone in the node value through (N) and the negative centre weight of
the second difference, and the first difference is lagged).  The policy
step reads the same batched node solves for rows it cannot linearize at
the current iterate.  Iterates started from a verified discrete
subsolution increase monotonically where the scheme is monotone,
mirroring the Perron supremum.  The loop checks
the scheme residual after every sweep or step whose largest node change
is within the policy's convergence_tol -- the only ones that can be
accepted.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

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
from .jets import Jet, SymMatrix
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
    _PlurisubBottom,
    _PlurisubTop,
    _Sigma,
)


@dataclass(frozen=True)
class SchemeParams:
    max_sweeps: int = 2_000_000
    init: object = "auto"              # "auto" | "constant" | ndarray (strict)
    warm_starts: tuple = ()            # extra candidate arrays, verified non-strictly
    force_engine: str | None = None    # None (automatic) | "numpy" | "generic"


@dataclass
class ProblemSpec:
    F: Subequation
    M: ModelManifold
    boundary: dict                      # tag -> scalar | callable(coords) | array
    obstacle: GridFunction | None = None
    scheme: SchemeParams = field(default_factory=SchemeParams)
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


def _interior_residual(F, M, u_vals):
    ids, r, p, A = batch_jets(GridFunction(M, u_vals))
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
            core, (_Hessian, _PlurisubBottom, _PlurisubTop, _Sigma)):
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

    def admissible(vals, label):
        if np.any(vals[interior] > caps[interior] + 1e-14):
            return None
        _, res = _interior_residual(F, M, vals)
        if res.size and res.min() < -verify_band:
            return None
        return label

    if isinstance(spec.scheme.init, np.ndarray):
        vals = spec.scheme.init.astype(float).copy()
        vals[~interior] = bvals[~interior]
        if admissible(vals, "user") is None:
            raise InitializationError("user initialization is not a discrete subsolution")
        return vals, "user"

    bmin = np.nanmin(bvals)
    slack = 1e-2 * (1.0 + abs(bmin))
    for k in range(8):
        c = min(bmin - slack * 2.0**k, np.min(caps[interior], initial=np.inf))
        vals = np.full(M.n_nodes, c)
        vals[~interior] = bvals[~interior]
        if admissible(vals, "constant") is not None:
            candidates.append(("constant", vals))
            break
    if spec.scheme.init == "auto":
        pre = _try_presolve(F, M, bvals)
        if pre is not None:
            vals = pre.copy()
            vals[~interior] = bvals[~interior]
            if admissible(vals, "presolve") is not None:
                candidates.append(("presolve", vals))
        if spec.obstacle is not None:
            hmin = M.min_spacing()
            vals = spec.obstacle.values - 0.45 * hmin**2
            vals = np.minimum(vals, caps)
            vals[~interior] = bvals[~interior]
            if admissible(vals, "obstacle-slack") is not None:
                candidates.append(("obstacle-slack", vals))
    for wi, warm in enumerate(spec.scheme.warm_starts):
        vals = np.asarray(warm, dtype=float).copy()
        vals = np.minimum(vals, caps)
        vals[~interior] = bvals[~interior]
        if admissible(vals, f"warm{wi}") is not None:
            candidates.append((f"warm{wi}", vals))
    if not candidates:
        raise InitializationError(
            "no verified discrete subsolution found (boundary data infeasible for F?)")
    if len(candidates) > 1:
        merged = np.maximum.reduce([v for _, v in candidates])
        if admissible(merged, "max") is not None:
            return merged, "max(" + ",".join(lbl for lbl, _ in candidates) + ")"
    # prefer the warmest single verified candidate
    order = ["presolve"] + [f"warm{i}" for i in range(len(spec.scheme.warm_starts))]
    order += ["obstacle-slack", "constant", "user"]
    for label in order:
        for lbl, vals in candidates:
            if lbl == label:
                return vals, lbl
    return candidates[0][1], candidates[0][0]


# ---------------------------------------------------------------------------
# iteration engines
# ---------------------------------------------------------------------------


# Policy steps without a new minimum of the worst residual before the line
# engine gives up.  Converging solves of the catalog probe (cli._catalog
# and the duals, m = 1..3, on a 41-node sinh grid), of constant-f min
# members and of the committed scenarios never went more than 7 steps
# without one.
STALL_STEPS = 50


def _pick_engine(spec: ProblemSpec, g):
    """The line engine when the grid is a line and F lowers, else generic."""
    forced = spec.scheme.force_engine
    if forced not in (None, "numpy", "generic"):
        raise InputError(f"unknown engine {forced!r}: use None, 'numpy' or 'generic'")
    line = spec.M.stencil is not None and g is not None
    if forced == "numpy" and not line:
        raise InputError("the numpy engine needs a radial or 1-D grid and a "
                         "subequation that lowers to the line evaluator")
    return forced or ("numpy" if line else "generic")


def _iterate(spec: ProblemSpec, u, caps, engine, g):
    """Sweeps (or policy steps) from the subsolution u to the discrete fixed point.

    The engine supplies one sweep and the scheme residual at its nodes;
    convergence and acceptance are decided here for both engines.
    """
    conv_tol = spec.conv_tol()
    band = 0.45 * spec.membership_tol()
    gtol = min(band, 1e-9)
    veps = spec.policy.root_value_tol
    if engine == "numpy":
        ids, sweep, residual = _line_engine(spec, u, caps, g, gtol, veps)
    else:
        ids, sweep, residual = _generic_engine(spec, u, caps, gtol, veps)
    trace = []
    min_signed = 0.0
    max_ch = np.inf
    sweeps = 0
    free_band = 10 * conv_tol
    zero_streak = 0

    def worst(res):
        free = u[ids] < caps[ids] - free_band
        out = float(np.abs(res[free]).max(initial=0.0))
        return max(out, float(np.maximum(-res[~free], 0.0).max(initial=0.0)))

    while sweeps < spec.scheme.max_sweeps:
        max_ch, min_ch = sweep()
        sweeps += 1
        min_signed = min(min_signed, min_ch)
        zero_streak = zero_streak + 1 if max_ch == 0.0 else 0
        if not max_ch <= conv_tol:
            continue  # no acceptance possible: skip the residual
        res = residual()
        res_worst = worst(res)
        trace.append({"sweep": sweeps, "max_change": max_ch, "residual": res_worst})
        if not res_worst <= band:
            if zero_streak < 3:
                continue
            # exact sweep-invariance: the discrete fixed point at the
            # root-resolution floor; accept within the full band (a NaN
            # residual is not accepted)
            if not res_worst <= spec.membership_tol():
                break
            trace.append({"sweep": sweeps, "note": "fixed point at roundoff floor"})
        return u, {"sweeps": sweeps, "engine": engine, "trace": trace,
                   "min_signed_change": min_signed, "residual_worst": res_worst,
                   "scheme_residuals": (ids, res)}
    raise ConvergenceError(
        f"no convergence in {sweeps} sweeps ({engine} engine, "
        f"last max_change={max_ch:.3e}, residual={worst(residual()):.3e})",
        diagnostics={"trace": trace[-20:]},
    )


def _line_engine(spec: ProblemSpec, u, caps, g, gtol, veps):
    """Howard policy steps over the interior of a line grid, lowered F;
    ``brackets`` carries the bracket widths of the step's node solves
    from one step to the next.

    A step whose tridiagonal solve meets a zero or non-finite pivot, or
    STALL_STEPS steps in a row without a new minimum of the worst residual
    max |min(G, cap - u)|, end the solve with ConvergenceError.
    """
    order = spec.M.interior_ids
    S = spec.M.stencil.at(order)
    res = np.empty(order.size)
    brackets = np.full(order.size, 1e-3 * (1.0 + float(np.abs(u).max())))
    steps = since = 0
    best = np.inf

    def fail(why):
        raise ConvergenceError(
            f"no convergence: {why} at policy step {steps} (numpy engine, "
            f"residual={float(np.abs(res).max(initial=0.0)):.3e})") from None

    def sweep():
        nonlocal steps, best, since
        steps += 1
        try:
            out = K.sweep_line_numpy(u, order, S, caps, g, brackets, res, gtol, veps)
        except FloatingPointError as e:
            fail(e)
        worst = float(np.abs(res).max(initial=0.0))
        best, since = (worst, 0) if worst < best else (best, since + 1)
        if since >= STALL_STEPS:
            fail(f"no new minimum of the worst residual in {STALL_STEPS} steps")
        return out

    def residual():
        return K.residual_line_numpy(u, order, S, g)

    return order, sweep, residual


def _generic_engine(spec: ProblemSpec, u, caps, gtol, veps):
    """Jacobi node solves on any grid, driven by the subequation tree."""
    M, F = spec.M, spec.F
    ids = M.interior_ids
    dA = _center_sensitivity(M, ids)
    gf = GridFunction(M, u)  # shares the array; jets follow in-place updates
    steps = np.full(ids.size, 1e-3 * (1.0 + float(np.abs(u).max())))

    def jets():
        _, r, p, A = batch_jets(gf, ids)
        return r, p, A

    def sweep():
        r0, p0, A0 = jets()

        def G(v):
            return F.value(ids, v, p0, A0 + (v - r0)[:, None, None] * dA)

        v = K.vector_node_solve(G, r0, caps[ids], steps, gtol, veps)
        ch = v - r0
        steps[:] = np.maximum(4.0 * np.abs(ch), 1e-9)
        u[ids] = v
        return float(np.abs(ch).max(initial=0.0)), float(ch.min(initial=0.0))

    def residual():
        return F.value(ids, *jets())

    return ids, sweep, residual


def _center_sensitivity(M, ids):
    """dA/dv: the centre weights of the second differences.

    The first difference, and with it the angular eigenvalue of line grids,
    is lagged, as in the line kernel.
    """
    if M.stencil is None:
        return np.diag(-2.0 / M.h ** 2)[None, :, :]
    dA = np.zeros((ids.size, M.m, M.m))
    dA[:, 0, 0] = M.stencil.aC[ids]
    return dA


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
    """The solve core: boundary data, verified initial subsolution, lowering,
    engine choice and the monotone iteration, with node values capped at caps.

    Returns (u, info, ids, res): the iterate, the iteration summary with the
    init label, and the interior nodes with the defining values at their
    centred discrete jets.
    """
    M = spec.M
    bvals = boundary_values(M, spec.boundary)
    bd = ~M.interior_mask
    if np.any(bvals[bd] > caps[bd] + 1e-12):
        raise PreconditionError("boundary data must satisfy phi <= g on the boundary")
    g = _ir.lower(spec.F, M.n_nodes)
    engine = _pick_engine(spec, g)
    u0, init_label = _initial_subsolution(spec, bvals, caps)
    u, info = _iterate(spec, u0.copy(), caps, engine, g)
    info["init"] = init_label
    ids, res = _interior_residual(spec.F, M, u)
    return u, info, ids, res


def _solve_params(spec: ProblemSpec, info) -> dict:
    return {"engine": info["engine"], "init": info["init"],
            "comparison_regime": _comparison_regime(spec.F),
            "monotone_iterates": bool(info["min_signed_change"] >= -1e-12)}


def perron_dirichlet(spec: ProblemSpec):
    """Solve the Dirichlet problem for F on M; returns (u, certificate).

    The certificate carries per-node membership residuals (the defining
    value at discrete jets, in [-tol, tol] for discrete F-harmonicity),
    the equal-and-opposite dual residuals, the iteration trace, and the
    comparison-regime note.
    """
    t0 = time.perf_counter()
    if spec.obstacle is not None:
        return solve_obstacle(spec)
    u, info, ids, res = _solve(spec, np.full(spec.M.n_nodes, np.inf))
    tol = spec.membership_tol()
    _, sres = info["scheme_residuals"]
    worst = float(np.abs(sres).max(initial=0.0))
    cert = Certificate(
        name="perron_dirichlet",
        passed=bool(worst <= tol and -res.min(initial=0.0) <= tol),
        tolerance=tol,
        worst={"harmonicity": worst,
               "membership": float(-res.min(initial=0.0)),
               "dual_membership": float(np.maximum(sres, 0.0).max(initial=0.0))},
        counts={"interior_nodes": ids.size, "sweeps": info["sweeps"]},
        params={**_solve_params(spec, info), "conv_tol": spec.conv_tol()},
        residuals={"membership": res, "dual": -res},
        trace=info["trace"][-50:],
        wall_time=time.perf_counter() - t0,
    )
    if _comparison_regime(spec.F) == "weak":
        cert.notes.append("comparison regime 'weak': uniqueness not guaranteed for this profile")
    return GridFunction(spec.M, u), cert


def solve_obstacle(spec: ProblemSpec):
    """Obstacle problem: the Dirichlet iteration with node updates clamped at g.

    Certificate: u <= g, F^g-harmonicity residual min(G, g-u) within the
    band, and the dual residual at strictly uncontacted nodes (one stencil
    width away from the contact set is exempt: discrete jets straddle the
    free boundary).
    """
    t0 = time.perf_counter()
    if spec.obstacle is None:
        raise InputError("solve_obstacle needs spec.obstacle")
    g = spec.obstacle.values
    u, info, ids, res = _solve(spec, g.copy())
    tol = spec.membership_tol()
    gap = g[ids] - u[ids]
    _, sres = info["scheme_residuals"]
    harmonic = np.minimum(sres, gap)     # defining value of F^g at scheme jets
    dual_res = -harmonic                 # dual(F^g) value at jets of -u
    contact = gap <= tol
    near_contact = np.zeros(spec.M.n_nodes, dtype=bool)
    near_contact[ids[contact]] = True
    free = ~_grow_mask(spec.M, near_contact)[ids]
    comp = np.minimum(gap, dual_res)
    comp_worst = float(comp.max(initial=0.0))
    worst_harm = float(np.abs(harmonic[free]).max(initial=0.0))
    worst_harm = max(worst_harm, float(np.maximum(-harmonic, 0.0).max(initial=0.0)))
    cert = Certificate(
        name="solve_obstacle",
        passed=bool(
            np.all(u <= g + 1e-12)
            and worst_harm <= tol
            and comp_worst <= tol
        ),
        tolerance=tol,
        worst={
            "harmonicity_off_contact": worst_harm,
            "membership": float(-np.minimum(res, gap).min(initial=0.0)),
            "dual_off_contact": float(max(0.0, -dual_res[free].min(initial=0.0))) if free.any() else 0.0,
            "complementarity": comp_worst,
            "max_over_obstacle": float((u - g).max(initial=0.0)),
        },
        counts={"interior_nodes": ids.size, "contact_nodes": int(contact.sum()),
                "sweeps": info["sweeps"]},
        params=_solve_params(spec, info),
        residuals={"membership": res, "obstacle_gap": gap, "complementarity": comp},
        trace=info["trace"][-50:],
        wall_time=time.perf_counter() - t0,
    )
    return GridFunction(spec.M, u), cert


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
        region = np.asarray(region, dtype=bool)
        ids = np.where(region & M.interior_mask)[0]
    ids, r, p, A = batch_jets(u, ids)
    res = F.value(ids, r, p, A)
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
    interior (the eikonal) correctly fail.  The smallest certified (s, t)
    pair (s first, then t) is returned.
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
        worst = np.inf
        for i in range(ids.size):
            jet = Jet(float(r[i]), p[i], SymMatrix.from_full(A[i]))
            if F.value_jet(int(ids[i]), jet) <= 0:
                return False, min(worst, 0.0)
            d = distance_to_boundary(F, int(ids[i]), jet, policy)
            worst = min(worst, d.value)
            if d.value < margin:
                return False, worst
        return True, worst

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
