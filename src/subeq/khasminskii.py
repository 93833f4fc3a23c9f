"""Khas'minskii potentials: staged obstacle-problem construction, radial
ODE oracles, Ekeland distance potentials and the Hessian-principle log
transform.

The builder runs on radial model manifolds whose inner boundary is the
compact set K: balls in such models have F-convex boundary at height zero,
so a barrier on ∂K replaces the gluing surgery of the general theory (the
barrier precondition is checked, not assumed).  Stages produce a
decreasing sequence w_0 = 0 >= w_1 >= ... by solving obstacle problems
with obstacle min(w_i + lambda_j, 0) (ramp lambda_j: 0 on ∂K, -1 outside
D_{j-1}) and boundary data 0 on ∂K, -i-1 on ∂D_j, advancing j until the
stage conditions hold:

    (monotone)  w_{i+1} <= w_i,
    (pinch)     (1 - 2^{-i-2}) h < w_{i+1},
    (escape)    w_{i+1} = -i-1 outside the chosen D_j,
    (gap)       sup_{D_i \\ K} |w_{i+1} - w_i| <= eps / 2^i.

The paper approximates an upper semicontinuous w_i from above by
continuous obstacles psi_k; on a finite grid every stage output is
already continuous, so w_i is itself the obstacle, and a stage makes one
obstacle solve per exhaustion radius it tries.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import Certificate
from .errors import (
    ConstructionError,
    InputError,
    NumericalError,
    PreconditionError,
    ScheduleError,
)
from .jets import RadialView
from .manifolds import (
    GridFunction,
    PuncturedEuclidean,
    _RadialBase,
    batch_jets,
    get_warp,
)
from .odeint import integrate
from .policy import DEFAULT_POLICY, NumericPolicy
from .profiles import Profile
from .solver import (
    COLLAR_SPACINGS,
    ProblemSpec,
    make_barrier,
    solve_obstacle,
    verify_subharmonic,
)
from .subequations import Subequation, eikonal, eikonal_relaxed, inf_laplacian, intersect, laplace

# how far h must fall from its inner third to its outer end (PairKh)
MIN_DROP = 0.5
# the radial ODE oracle's blow-up threshold: a solution past it passes
ODE_THRESHOLD = 1e6
# the slope cap below 1 of the Ekeland distance potential
SLOPE_CAP = 0.99


@dataclass
class PairKh:
    """A pair (K, h): the inner compact and a negative decay envelope.

    On a radial working grid K is the inner boundary {r <= r_K}; h must be
    strictly negative outside K and drop without return along the radius
    (the desk-scale rendering of h -> -infinity as x diverges).
    """

    M: _RadialBase
    h: GridFunction

    def __post_init__(self):
        if not isinstance(self.M, _RadialBase):
            raise InputError("PairKh needs a radial working manifold")
        hv = self.h.values
        inside = self.M.interior_mask | (np.arange(self.M.n_nodes) == self.M.n_nodes - 1)
        if np.any(hv[inside] >= 0):
            raise ConstructionError("h must be strictly negative outside K")
        # h must keep falling toward the outer end: reject bounded envelopes
        # like h = -eps (no divergence along the exhaustion)
        n = self.M.n_nodes
        near = float(hv[1:max(2, n // 3)].min())
        far = float(hv[-1])
        tail = hv[n // 2:]
        if not (far <= near - MIN_DROP and np.all(np.diff(tail) <= 1e-9)):
            raise ConstructionError(
                "h does not diverge along the exhaustion (outer drop "
                f"{near - far:.3g} < required {MIN_DROP:g})")

    @property
    def r_K(self) -> float:
        return float(self.M.r[0])


@dataclass
class Schedule:
    """Stage budget for the construction."""

    eps: float = 0.5
    i_max: int = 3
    radii: tuple = ()          # exhaustion radii D_1 < D_2 < ... (< r_max)

    def __post_init__(self):
        if self.eps <= 0:
            raise InputError("schedule eps must be positive")
        if self.i_max < 1:
            raise InputError("schedule needs at least one stage")
        if len(self.radii) >= 2 and np.any(np.diff(np.asarray(self.radii)) <= 0):
            raise InputError("exhaustion radii must be strictly increasing")


def build_potential(F: Subequation, pair: PairKh, sched: Schedule,
                    xi: Profile | None = None,
                    policy: NumericPolicy = DEFAULT_POLICY):
    """Construct a Khas'minskii potential for (K, h); returns (w, certificate).

    With ``xi`` given, the construction couples F with the relaxed eikonal
    E_xi^eta (eta supported on a collar of ∂K, sized from the barrier
    gradient) and certifies pure E_xi membership outside the collar.
    Without ``sched.radii`` the exhaustion is ten radii evenly spaced
    strictly inside the grid.
    """
    M = pair.M
    r0, r1 = M.r[0], M.r[-1]
    default = tuple(r0 + (r1 - r0) * j / 11 for j in range(1, 11))
    radii = np.asarray(sched.radii or default, dtype=float)
    if radii[-1] >= M.r[-1] - 1e-12:
        raise InputError("exhaustion radii must stay strictly inside the grid")
    hv = pair.h.values

    # barrier precondition on ∂K (replaces the gluing surgery: metric balls
    # in these models are F-convex at height 0)
    rho = GridFunction(M, M.r[0] - M.r)
    barrier = make_barrier(F, M, np.ones(M.n_nodes, dtype=bool),
                           np.array([0]), rho)
    if not barrier.ok:
        raise PreconditionError(
            "no F-barrier at height 0 on the inner boundary ∂K",
            detail={"best_margin": barrier.margin})
    collar_width = COLLAR_SPACINGS * M.min_spacing()
    eta_vals = None
    xi_solve = xi
    if xi is not None:
        eta_peak = float(batch_jets(barrier.beta)[1].grad.max()) + 1.0  # centred |d beta|
        collar_width = max(collar_width, 0.75)
        eta_vals = eta_peak * np.clip(1.0 - (M.r - M.r[0]) / collar_width, 0.0, 1.0)
        # solve against xi tightened by one grid spacing: the sweeps use the
        # monotone upwind gradient, and the margin absorbs the O(h) gap to
        # the centered-jet certificate run against the true xi; the tiny
        # positive floor keeps the tightened profile in the (xi0) class
        kappa = float(np.diff(M.r).max())
        xs = np.linspace(-12.0, 0.0, 481)
        xi_solve = Profile.table(xs, np.maximum(np.asarray(xi(xs)) - kappa, 1e-7))

    w = np.zeros(M.n_nodes)
    C_radius = radii[0]
    stage_trace = []
    cert = Certificate(name="khasminskii_build", passed=True,
                       tolerance=sched.eps, params={
                           "i_max": sched.i_max, "eps": sched.eps,
                           "radii": radii.tolist(),
                           "coupled_eikonal": xi is not None,
                           "barrier": {"s": barrier.s, "t": barrier.t}})
    if xi is not None:
        cert.params["eta_peak"] = eta_peak

    for i in range(sched.i_max):
        w_next, entry = _run_stage(F, xi_solve, eta_vals, M, pair, sched, radii, w,
                                   C_radius, i, policy)
        stage_trace.append(entry)
        C_radius = entry["C_radius"]
        w = w_next

    wgf = GridFunction(M, w)
    cert.trace = stage_trace
    cert.counts = {"stages": sched.i_max, "nodes": M.n_nodes}
    # final certificates
    tol_final = 1e-6
    sub = verify_subharmonic(F, wgf, M, tol=tol_final)
    cert.merge_child(sub, "subharmonic")
    ok_range = bool(np.all(w >= hv - 1e-12) and np.all(w <= 1e-12))
    cert.worst["min_w_minus_h"] = float((w - hv).min())
    cert.worst["boundary_value"] = float(abs(w[0]))
    cert.passed = cert.passed and ok_range and sub.passed and abs(w[0]) <= 1e-12
    if xi is not None:
        outside_collar = M.r > M.r[0] + collar_width
        pure = verify_subharmonic(eikonal_relaxed(xi, None, m=F.m), wgf, M,
                                  tol=tol_final, region=outside_collar)
        cert.merge_child(pure, "eikonal_exterior")
    return wgf, cert


def _run_stage(F, xi, eta_vals, M, pair, sched, radii, w_i, C_radius, i, policy):
    hv = pair.h.values
    pinch_factor = 1.0 - 2.0 ** (-(i + 2))
    gap_target = sched.eps / 2.0**i
    # j0: C_i compactly inside D_{j0-2}
    j0 = int(np.searchsorted(radii, C_radius + 1e-9)) + 2
    if j0 + 1 >= radii.size:
        raise ScheduleError(f"stage {i}: exhaustion too short for j0={j0}",
                            achieved={"C_radius": C_radius})
    # gap measured on D_i \ K (D_1 for the opening stage)
    gap_radius = radii[min(max(i, 1) - 1, radii.size - 1)]
    gap_mask_full = (M.r <= gap_radius + 1e-12) & M.interior_mask

    entry = {"stage": i, "sweeps": 0}
    gap = np.inf
    pinch_ok = monotone_ok = False
    for jx in range(j0 + 1, radii.size):
        Rj = radii[jx]
        # ramp: 0 from ∂K out to D_{j-2}, piecewise-linear down to -1 at D_{j-1}
        ramp_lo = radii[jx - 2]
        ramp_hi = radii[jx - 1]
        subM, ids = M.sub_range(None, Rj)
        F_sub = F
        if xi is not None:
            F_sub = intersect(F, eikonal_relaxed(xi, eta_vals[ids], m=F.m))
        lam_j = -np.clip((subM.r - ramp_lo) / max(ramp_hi - ramp_lo, 1e-9), 0.0, 1.0)
        spec = ProblemSpec(
            F_sub,
            subM,
            {"inner": 0.0, "outer": -(i + 1.0)},
            obstacle=GridFunction(subM, np.minimum(w_i[ids] + lam_j, 0.0)),
            policy=policy,
        )
        sol, c = solve_obstacle(spec)
        entry["sweeps"] += c.counts["sweeps"]
        u_full = np.full(M.n_nodes, -(i + 1.0))
        u_full[ids] = sol.values
        monotone_ok = bool(np.all(u_full <= w_i + 1e-10))
        pinch_ok = bool(np.all(pinch_factor * hv < u_full + 1e-12))
        gap = float(np.abs((u_full - w_i)[gap_mask_full]).max(initial=0.0))
        if monotone_ok and pinch_ok and gap <= gap_target:
            entry.update({"j_radius": float(Rj), "gap": gap, "gap_target": gap_target,
                          "pinch_margin": float((u_full - pinch_factor * hv).min()),
                          "C_radius": float(Rj), "monotone": True, "escape_level": -(i + 1.0)})
            return u_full, entry
    raise ScheduleError(
        f"stage {i}: exhaustion budget exhausted before the eps/2^i criterion",
        achieved={"gap": gap, "gap_target": gap_target, "pinch_ok": pinch_ok,
                  "monotone_ok": monotone_ok})


# ---------------------------------------------------------------------------
# radial ODE oracle
# ---------------------------------------------------------------------------


def radial_khasminskii_test(warp, m: int, lam: float, r_range):
    """Integrate w'' + (m-1)(g'/g) w' = lam w outward from w=1, w'=0.

    Pass: the solution blows past ``ODE_THRESHOLD`` with increasing trend
    over the last tenth of the range -- w itself is then a Khas'minskii
    function for {tr A >= lam r}.  Fail: the solution stays bounded with
    vanishing derivative trend.  Returns (verdict, r, w, trace) with verdict
    in {"Pass", "Fail", "Inconclusive"}, w resampled on 400 nodes.  A warp
    whose g'/g is not finite on the range (g or g' overflows) is a
    DomainError.
    """
    if lam <= 0:
        raise InputError("need lam > 0")
    warp = get_warp(warp)
    r0, r1 = float(r_range[0]), float(r_range[-1])
    if r0 <= 0:
        raise InputError("start the radial ODE at r0 > 0")

    def rhs(t, y):
        ratio = float(warp.ratio(t)) if m > 1 else 0.0
        return np.array([y[1], lam * y[0] - (m - 1) * ratio * y[1]])

    try:
        ts, ys, status = integrate(rhs, r0, [1.0, 0.0], r1,
                                   stop_above=ODE_THRESHOLD, max_step=(r1 - r0) / 50)
    except NumericalError as e:
        return "Inconclusive", None, None, {"error": str(e), **e.diagnostics}
    w, dw = ys[:, 0], ys[:, 1]
    tail = ts >= ts[-1] - 0.1 * (ts[-1] - r0)
    trend = float(np.mean(dw[tail]))
    wmax = float(np.abs(w).max())
    # projected remaining growth: a saturating solution creeps at a rate whose
    # integral over the whole range is a small fraction of the value itself
    rel_growth = trend * (ts[-1] - r0) / max(abs(w[-1]), 1.0)
    dw_tail = dw[tail]
    dw_falling = dw_tail.size < 2 or dw_tail[-1] <= dw_tail[0] * (1 + 1e-6) + 1e-12
    trace = {"status": status, "w_end": float(w[-1]), "trend": trend,
             "rel_growth": float(rel_growth),
             "r_end": float(ts[-1]), "threshold": ODE_THRESHOLD}
    grid = np.linspace(r0, ts[-1], 400)
    wg = _hermite_resample(ts, w, dw, grid)
    if status == "threshold" and trend > 0 and np.all(np.diff(w) >= -1e-12 * wmax):
        return "Pass", grid, wg, trace
    if (status == "done" and abs(w[-1]) < ODE_THRESHOLD and rel_growth <= 0.05
            and dw_falling):
        return "Fail", grid, wg, trace
    return "Inconclusive", grid, wg, trace


def _hermite_resample(ts, w, dw, grid):
    """Cubic Hermite resampling using the stored derivative: keeps second
    differences of the resampled data meaningful (linear interpolation
    would make them vanish inside segments and spike at the knots)."""
    idx = np.clip(np.searchsorted(ts, grid) - 1, 0, ts.size - 2)
    t0, t1 = ts[idx], ts[idx + 1]
    d = t1 - t0
    s = np.where(d > 0, (grid - t0) / np.where(d > 0, d, 1.0), 0.0)
    h00 = 2 * s**3 - 3 * s**2 + 1
    h10 = s**3 - 2 * s**2 + s
    h01 = -2 * s**3 + 3 * s**2
    h11 = s**3 - s**2
    return (h00 * w[idx] + h10 * d * dw[idx]
            + h01 * w[idx + 1] + h11 * d * dw[idx + 1])


# ---------------------------------------------------------------------------
# Ekeland distance potentials
# ---------------------------------------------------------------------------


def ekeland_potential(pair: PairKh, policy: NumericPolicy = DEFAULT_POLICY):
    """Distance-based potential w = G(-r) with 0 < G' < 1, G'' >= 0, G >= h.

    The slope schedule is the greedy concave envelope below |h| anchored at
    ∂K, capped at ``SLOPE_CAP`` under 1; the result is eikonal- and
    infinity-Laplacian subharmonic by construction, which the certificate
    verifies discretely.
    Refused on incomplete punctured models: the distance to the puncture is
    finite, so no |∇w| <= 1 exhaustion can diverge there.
    """
    M = pair.M
    if isinstance(M, PuncturedEuclidean):
        raise PreconditionError(
            "incomplete model: finite distance to the puncture obstructs "
            "an eikonal Khas'minskii potential")
    hv = pair.h.values
    r = M.r
    n = M.n_nodes
    slopes = np.empty(n)
    C = np.zeros(n)
    prev_slope = SLOPE_CAP
    for idx in range(1, n):
        dr = r[idx] - r[idx - 1]
        room = (-hv[idx]) - C[idx - 1]
        s = min(prev_slope, SLOPE_CAP, max(room, 0.0) / dr)
        C[idx] = C[idx - 1] + s * dr
        slopes[idx] = s
        prev_slope = s
    slopes[0] = slopes[1]
    w = GridFunction(M, -C)
    tol = policy.membership_tol
    cert = Certificate(name="ekeland_potential", passed=True, tolerance=tol,
                       params={"slope_cap": SLOPE_CAP,
                               "final_slope": float(slopes[-1])})
    ce = verify_subharmonic(eikonal(1.0, m=M.m), w, M, tol=tol)
    ci = verify_subharmonic(inf_laplacian(0.0, m=M.m), w, M, tol=tol)
    cert.merge_child(ce, "eikonal")
    cert.merge_child(ci, "inf_laplacian")
    above = bool(np.all(-C >= hv - 1e-12))
    cert.worst["min_w_minus_h"] = float((-C - hv).min())
    cert.passed = cert.passed and above and ce.passed and ci.passed
    if not above:
        cert.notes.append("fitted G dips below h (unexpected: h should admit a majorant)")
    return w, cert


# ---------------------------------------------------------------------------
# Hessian-principle log transform
# ---------------------------------------------------------------------------


def log_transform(gfun: GridFunction, lam: float, mu: float, tol: float = 1e-6):
    """w = -mu log g for 1 <= g with ∇dg <= lam^2 g <,>: returns (w, certificate).

    Verifies the derived bounds |∇w| <= mu lam + tol and
    lambda_min(∇dw) >= -mu lam^2 - tol, plus the intermediate gradient
    bound |∇g| <= lam g + tol that the flow-line comparison argument
    yields.  The Hessian precondition check runs at a discretization-aware
    tolerance (O(h^2) inflation).
    """
    if not (0 < mu < 1):
        raise InputError("mu must lie in (0, 1)")
    if lam <= 0:
        raise InputError("lam must be positive")
    gv = gfun.values
    if np.any(gv < 1.0 - 1e-12):
        raise PreconditionError("need gfun >= 1 everywhere")
    M = gfun.manifold
    ids, G = batch_jets(gfun)
    gmax = float(gv.max())
    precond_tol = max(tol, 0.5 * M.min_spacing()**2 * lam**2 * gmax)
    bad = G.eigs[:, -1] - lam**2 * gv[ids]
    if bad.max(initial=-np.inf) > precond_tol:
        worst_nodes = ids[np.argsort(bad)[-5:]]
        raise PreconditionError(
            "Hessian precondition ∇dg <= lam^2 g <,> fails",
            detail={"worst_excess": float(bad.max()),
                    "tolerance": precond_tol,
                    "worst_nodes": worst_nodes.tolist()})
    w = GridFunction(M, -mu * np.log(gv))
    wid, W = batch_jets(w)
    grad_w = W.grad
    eig_min = W.eigs[:, 0]
    worst = {
        "grad_w_excess": float((grad_w - mu * lam).max(initial=-np.inf)),
        "hessian_w_deficit": float((-mu * lam**2 - eig_min).max(initial=-np.inf)),
        "grad_g_excess": float((G.grad - lam * gv[ids]).max(initial=-np.inf)),
    }
    passed = all(v <= tol for v in worst.values())
    cert = Certificate(
        name="log_transform", passed=bool(passed), tolerance=tol,
        worst=worst,
        counts={"nodes": wid.size},
        params={"lam": lam, "mu": mu, "precond_tol": precond_tol},
        residuals={"grad_w": grad_w, "hess_min_w": eig_min},
    )
    return w, cert


# ---------------------------------------------------------------------------
# the punctured-space explicit potential
# ---------------------------------------------------------------------------


def punctured_example_check(m: int, lam: float, M: PuncturedEuclidean | None = None,
                            r_min: float = 0.05, tol: float = 1e-8):
    """Membership of the explicit punctured-space potential in {tr A >= lam r}.

    w = -|x|^2 - |x|^(2-m) for m >= 3, and -|x|^2 + log|x| for m = 2;
    evaluated with exact radial derivatives, so the residual tr A - lam w
    is roundoff-accurate.  Reports the empirical compact K where
    membership fails, which shrinks as lam grows.  Without ``M`` the check
    runs on 600 nodes over [r_min, 4].
    """
    if m < 2:
        raise InputError("need m >= 2")
    if M is None:
        M = PuncturedEuclidean(m, r_min, 4.0, 600)
    r = M.r
    if m == 2:
        w = -(r**2) + np.log(r)
        w1 = -2 * r + 1.0 / r
        w2 = -2.0 - 1.0 / r**2
    else:
        w = -(r**2) - r ** (2.0 - m)
        w1 = -2 * r - (2.0 - m) * r ** (1.0 - m)
        w2 = -2.0 - (2.0 - m) * (1.0 - m) * r ** (-float(m))
    F = laplace(Profile.linear(lam), m=m)
    n_nodes = r.size
    # diagonal in the radial frame: radial first, then the angular copies w'/r
    res = F._value(RadialView(None, w, w1, w1 / r, w2, None, m))
    member = res >= -tol
    inside = ~member
    if inside.any():
        k_lo, k_hi = float(r[inside].min()), float(r[inside].max())
        idx = np.where(inside)[0]
        contiguous = bool(np.all(np.diff(idx) == 1))
    else:
        k_lo = k_hi = float("nan")
        contiguous = True
    # w must fall toward both the puncture and infinity
    mid = float(w.max())
    decay_ok = bool(w[0] < mid - 1.0 and w[-1] < mid - 1.0)
    cert = Certificate(
        name=f"punctured_example[m={m}]",
        passed=bool(np.all(w <= 0) and contiguous and decay_ok),
        tolerance=tol,
        worst={"min_residual_outside_K": float(res[member].min(initial=np.inf)),
               "max_w": float(w.max())},
        counts={"nodes": n_nodes, "K_nodes": int(inside.sum())},
        params={"lam": lam, "m": m, "K_interval": [k_lo, k_hi],
                "K_contiguous": contiguous,
                "ends": [float(r[0]), float(r[-1])],
                "w_at_ends": [float(w[0]), float(w[-1])]},
        residuals={"membership": res},
    )
    cert.notes.append("membership holds outside the reported K interval")
    return cert
