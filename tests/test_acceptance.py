"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -s` to see one pass/fail line per
criterion.  Runtimes are wall-clock.
"""
import json
import time

import numpy as np

from subeq import (
    FlatBox,
    GridFunction,
    PairKh,
    ProblemSpec,
    PuncturedEuclidean,
    RadialModel,
    Schedule,
    build_potential,
    comparison_check,
    dual,
    eikonal,
    hessian_branch,
    inf_capacity,
    inf_laplacian,
    laplace,
    log_transform,
    perron_dirichlet,
    plurisub_trace,
    punctured_example_check,
    quasilinear,
    sigma_branch,
    solve_obstacle,
    stochastic_completeness,
    verify_subharmonic,
)
from subeq.jets import DenseView
from subeq.khasminskii import radial_khasminskii_test
from subeq.manifolds import volume_growth_test
from subeq.profiles import AProfile, Profile
from subeq.properties import Outcome

LIN = Profile.linear(1.0)
ZERO = Profile.linear(0.0)
XI1 = Profile.table([-1.0, 0.0], [1.0, 0.0])

_RESULTS = []


def report(idx, label, passed, elapsed, detail=""):
    _RESULTS.append(passed)
    state = "PASS" if passed else "FAIL"
    print(f"\n[{state}] criterion {idx:>2}: {label} ({elapsed:.2f} s) {detail}")
    assert passed, f"criterion {idx}: {label}: {detail}"


def catalog(m):
    return [
        eikonal(1.0, m=m),
        eikonal(XI1, m=m),
        laplace(LIN, m=m),
        hessian_branch(1, LIN, m=m),
        hessian_branch(m, LIN, m=m),
        plurisub_trace(max(1, m - 1), LIN, m=m),
        sigma_branch(1, min(2, m), LIN, m=m),
        quasilinear(AProfile.mean_curvature(), LIN, m=m),
        inf_laplacian(0.0, m=m),
    ]


def test_criterion_1_duality_involution():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    ok = True
    worst = 0.0
    for m in (2, 3, 4):
        for F in catalog(m):
            n = 10_000
            r = 2 * rng.standard_normal(n)
            p = 2 * rng.standard_normal((n, m))
            B = rng.standard_normal((n, m, m))
            A = B + np.swapaxes(B, 1, 2)
            g0 = F.value(None, r, p, A)
            g2 = dual(dual(F)).value(None, r, p, A)
            off = np.abs(g0) > 1e-9
            bad = int((np.sign(g0[off]) != np.sign(g2[off])).sum())
            worst = max(worst, float(np.abs(g0 - g2).max()))
            ok &= bad == 0
    dt = time.perf_counter() - t0
    report(1, "duality involution on the catalog", ok and dt < 5.0, dt,
           f"max |G - G**| = {worst:.2e}")


def test_criterion_2_garding_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_dual = worst_mono = 0.0
    for m in range(2, 7):
        B = rng.standard_normal((1000, m, m))
        A = B + np.swapaxes(B, 1, 2)
        C = rng.standard_normal((1000, m, m))
        P = np.einsum("nik,njk->nij", C, C) / m
        for k in range(1, m + 1):
            mu, mu_neg, mu_p = (DenseView(None, None, None, S).garding(k) for S in (A, -A, A + P))
            worst_dual = max(worst_dual, float(np.abs(mu_neg + mu[:, ::-1]).max()))
            worst_mono = max(worst_mono, float((mu - mu_p).max()))
    dt = time.perf_counter() - t0
    report(2, "Garding duality + monotonicity (m<=6, all k, 10^3 samples)",
           worst_dual <= 1e-9 and worst_mono <= 1e-9 and dt < 10.0, dt,
           f"dual {worst_dual:.2e}, mono {worst_mono:.2e}")


def test_criterion_3_dirichlet_oracle():
    t0 = time.perf_counter()
    errs = {}
    for n in (201, 401):
        M = PuncturedEuclidean(3, 1.0, 2.0, n, spacing="log")
        u, cert = perron_dirichlet(ProblemSpec(laplace(ZERO, m=3), M,
                                               {"inner": 1.0, "outer": 0.0}))
        errs[n] = float(np.abs(u.values - (2.0 / M.r - 1.0)).max())
    ratio = errs[201] / errs[401]
    dt = time.perf_counter() - t0
    report(3, "annulus m=3 Dirichlet oracle + refinement",
           errs[201] <= 5e-3 and 3.5 <= ratio <= 4.5 and dt < 10.0, dt,
           f"Linf {errs[201]:.2e}, ratio {ratio:.3f}")


def test_criterion_4_obstacle_oracles():
    t0 = time.perf_counter()
    M = FlatBox(1, [(0.0, 1.0)], 1 / 400)
    x = M.coords[:, 0]
    F = hessian_branch(1, ZERO, m=1)
    uA, cA = solve_obstacle(ProblemSpec(F, M, {"side": lambda t: t**2},
                                        obstacle=GridFunction(M, x**2)))
    uB, cB = solve_obstacle(ProblemSpec(F, M, {"side": -0.25},
                                        obstacle=GridFunction(M, -(x - 0.5) ** 2)))
    errA = float(np.abs(uA.values - x**2).max())
    errB = float(np.abs(uB.values + 0.25).max())
    comp = max(cA.worst["complementarity"], cB.worst["complementarity"])
    dt = time.perf_counter() - t0
    report(4, "1-D obstacle oracles (active / inactive)",
           errA <= 1e-3 and errB <= 1e-3 and comp <= 1e-8 and dt < 5.0, dt,
           f"errs {errA:.2e}/{errB:.2e}, complementarity {comp:.2e}")


def test_criterion_5_comparison_matrix():
    t0 = time.perf_counter()
    matrix = [
        (laplace(LIN, m=2), RadialModel.uniform(2, "sinh", 1.0, 8.0, 201),
         {"inner": 0.0, "outer": -1.0}),
        (laplace(LIN, m=3), PuncturedEuclidean(3, 1.0, 2.0, 201),
         {"inner": 1.0, "outer": 0.0}),
        (laplace(LIN, m=1), FlatBox(1, [(0.0, 1.0)], 1 / 200),
         {"side": lambda t: -t}),
        (inf_laplacian(0.0, m=2), RadialModel.uniform(2, "sinh", 1.0, 8.0, 201),
         {"inner": 0.0, "outer": 1.0}),
        (inf_laplacian(0.0, m=3), RadialModel.uniform(3, "euclidean", 1.0, 3.0, 201),
         {"inner": 0.0, "outer": 1.0}),
    ]
    worst = 0.0
    ok = True
    for F, M, bc in matrix:
        u, _ = perron_dirichlet(ProblemSpec(F, M, bc))
        cert = comparison_check(F, u, GridFunction(M, -u.values))
        ok &= cert.passed
        worst = max(worst, cert.worst.get("violation", 0.0))
        # second dual witness: a solution with uniformly raised boundary data
        bc2 = {k: (lambda t, f=v: f(t) + 0.25) if callable(v) else v + 0.25
               for k, v in bc.items()}
        u2, _ = perron_dirichlet(ProblemSpec(F, M, bc2))
        cert2 = comparison_check(F, u, GridFunction(M, -u2.values))
        ok &= cert2.passed
        worst = max(worst, cert2.worst.get("violation", 0.0))
    # comparison with cones for the infinity Laplacian
    M = RadialModel.uniform(2, "euclidean", 1.0, 3.0, 201)
    F = inf_laplacian(0.0, m=2)
    u, _ = perron_dirichlet(ProblemSpec(F, M, {"inner": 0.0, "outer": 1.0}))
    vertex = 100
    ball = (np.arange(M.n_nodes) >= 50) & (np.arange(M.n_nodes) <= 150)
    dist = np.abs(M.r - M.r[vertex])
    a = (u.values[ball] - dist[ball]).max() + 1e-6
    K = ball.copy()
    K[vertex] = False
    cert3 = comparison_check(F, u, GridFunction(M, -(a + dist)), K=K)
    ok &= cert3.passed
    worst = max(worst, cert3.worst.get("violation", 0.0))
    dt = time.perf_counter() - t0
    report(5, "comparison across the solver matrix + cones",
           ok and worst <= 1e-8, dt, f"worst violation {worst:.2e}")


def test_criterion_6_punctured_certificates():
    t0 = time.perf_counter()
    c3 = punctured_example_check(3, 1.0)
    res3 = c3.residuals["membership"]
    M3 = PuncturedEuclidean(3, 0.05, 4.0, 600)
    zone3 = (M3.r <= 0.16) | (M3.r >= 2.4)
    ok3 = bool(np.all(res3[zone3] >= -1e-8)) and c3.passed
    M2 = PuncturedEuclidean(2, 0.005, 4.0, 600)
    c2 = punctured_example_check(2, 1.0, M=M2)
    res2 = c2.residuals["membership"]
    zone2 = (M2.r <= 0.018) | (M2.r >= 2.19)
    ok2 = bool(np.all(res2[zone2] >= -1e-8)) and c2.passed
    dt = time.perf_counter() - t0
    report(6, "punctured-space explicit potentials (m=3 and m=2)",
           ok3 and ok2, dt,
           f"K3 = {c3.params['K_interval']}, K2 = {c2.params['K_interval']}")


def test_criterion_7_capacity_dichotomy():
    t0 = time.perf_counter()
    M = RadialModel.uniform(2, "sinh", 1.0, 102.0, 2021)
    radii = [2.0 + j for j in range(101)]  # D_100 has outer radius 102
    cap_complete, tr = inf_capacity(1.0, radii, M)
    lips = np.array(tr["lipschitz"])
    mono = bool(np.all(np.diff(lips) <= 1e-10))
    Mt = RadialModel.uniform(3, "euclidean", 1.0, 3.0, 401)
    cap_trunc, _ = inf_capacity(1.0, [1.5, 2.0, 2.5, 3.0], Mt)
    dt = time.perf_counter() - t0
    report(7, "infinity-capacity completeness dichotomy",
           cap_complete <= 1e-2 and cap_trunc >= 0.49 and mono, dt,
           f"sinh cap {cap_complete:.4f} at j={len(lips)}, truncated {cap_trunc:.4f}")


def test_criterion_8_khasminskii_end_to_end():
    t0 = time.perf_counter()
    M = RadialModel.uniform(2, "sinh", 1.0, 40.0, 400)
    F = laplace(LIN, m=2)
    pair = PairKh(M, GridFunction(M, -np.log(1.0 + M.r)))
    sched = Schedule(eps=0.5, i_max=3, radii=tuple(np.arange(3.0, 38.6, 2.5)))
    w, cert = build_potential(F, pair, sched)
    ok = cert.passed
    hv = pair.h.values
    ok &= bool(np.all(w.values >= hv - 1e-12) and np.all(w.values <= 1e-12))
    stage_ok = all(
        e["gap"] <= e["gap_target"] and e["pinch_margin"] > 0 and e["monotone"]
        for e in cert.trace)
    sub = verify_subharmonic(F, w, tol=1e-6)
    dt = time.perf_counter() - t0
    report(8, "Khas'minskii construction end-to-end (sinh, i_max=3)",
           ok and stage_ok and sub.passed and dt < 60.0, dt,
           f"stages {[round(e['gap'], 4) for e in cert.trace]}, "
           f"membership {sub.worst['membership_violation']:.1e}")


def test_criterion_9_stochastic_triple():
    t0 = time.perf_counter()
    v1 = stochastic_completeness("euclidean", 3, 1.0, (0.1, 30.0))
    v2 = stochastic_completeness("sinh", 2, 1.0, (0.1, 30.0))
    v3 = stochastic_completeness("exp_r3", 2, 1.0, (0.1, 8.0))
    ok = (v1.result is Outcome.HOLDS and v2.result is Outcome.HOLDS
          and v3.result is Outcome.FAILS and v3.witness is not None)
    # oracle agreement: volume divergence never pairs with an ODE Fail
    for warp, m, rng_, vmax in [("euclidean", 3, (0.1, 30.0), 8.0),
                                ("sinh", 2, (0.1, 30.0), 8.0),
                                ("exp_r3", 2, (0.1, 8.0), 6.0)]:
        ode, *_ = radial_khasminskii_test(warp, m, 1.0, rng_)
        vol, _ = volume_growth_test(warp, m, vmax)
        ok &= not (vol == "Diverges" and ode == "Fail")
    dt = time.perf_counter() - t0
    report(9, "stochastic-completeness triple with oracle agreement", ok, dt,
           f"{v1.result.value}/{v2.result.value}/{v3.result.value}")


def test_criterion_10_log_transform():
    t0 = time.perf_counter()
    M = RadialModel(2, "sinh", np.linspace(0.0125, 5.0, 400))
    g = GridFunction(M, np.cosh(M.r))
    w, cert = log_transform(g, lam=1.0, mu=0.5)
    ok = (cert.worst["grad_w_excess"] <= 1e-6
          and cert.worst["hessian_w_deficit"] <= 1e-6
          and cert.worst["grad_g_excess"] <= 1e-6)
    dt = time.perf_counter() - t0
    report(10, "log transform bounds (cosh on the hyperbolic model)",
           ok and cert.passed, dt,
           f"|grad w|-mu_lam {cert.worst['grad_w_excess']:.1e}, "
           f"hess deficit {cert.worst['hessian_w_deficit']:.1e}")


def test_criterion_11_determinism(tmp_path):
    t0 = time.perf_counter()
    from subeq.cli import run_audit
    code1 = run_audit(out_dir=str(tmp_path / "a1"), seed=0)
    code2 = run_audit(out_dir=str(tmp_path / "a2"), seed=0)
    r1 = json.loads((tmp_path / "a1" / "report.json").read_text())
    r2 = json.loads((tmp_path / "a2" / "report.json").read_text())
    r1.pop("timestamp")
    r2.pop("timestamp")
    same = json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    dt = time.perf_counter() - t0
    report(11, "audit determinism (identical reports modulo timestamp)",
           code1 == 0 and code2 == 0 and same, dt)


def test_zz_summary():
    total = len(_RESULTS)
    passed = sum(_RESULTS)
    print(f"\n=== acceptance: {passed}/{total} criteria passed ===")
    assert passed == total
