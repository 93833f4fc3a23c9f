"""Perron solver tests: analytic oracles, invariants, obstacle problems,
comparison checks, barriers, and engine equivalence."""
import re

import numpy as np
import pytest

from subeq.errors import ConvergenceError, InitializationError, InputError, PreconditionError
from subeq.manifolds import FlatBox, GridFunction, PuncturedEuclidean, RadialModel
from subeq.profiles import AProfile, Profile
from subeq.solver import (
    ProblemSpec,
    SchemeParams,
    comparison_check,
    STALL_STEPS,
    make_barrier,
    perron_dirichlet,
    solve_obstacle,
    verify_subharmonic,
)
from subeq.subequations import (
    below_zero_cap,
    dual,
    eikonal,
    hessian_branch,
    inf_laplacian,
    intersect,
    laplace,
    linear_jetequiv,
    plurisub_trace,
    quasilinear,
    sigma_branch,
    union,
)

LIN = Profile.linear(1.0)
ZERO = Profile.linear(0.0)


class TestDirichletOracles:
    def test_1d_affine_exact(self):
        M = FlatBox(1, [(0.0, 1.0)], 1 / 100)
        u, cert = perron_dirichlet(ProblemSpec(laplace(ZERO, m=1), M,
                                               {"side": lambda x: x}))
        assert cert.passed
        assert np.abs(u.values - M.coords[:, 0]).max() <= 1e-10

    def test_annulus_m3_radial_harmonic(self):
        M = PuncturedEuclidean(3, 1.0, 2.0, 201, spacing="log")
        u, cert = perron_dirichlet(ProblemSpec(laplace(ZERO, m=3), M,
                                               {"inner": 1.0, "outer": 0.0}))
        assert cert.passed
        assert np.abs(u.values - (2.0 / M.r - 1.0)).max() <= 5e-3

    def test_infinity_laplacian_affine_capacitor(self):
        # radial normalized infinity-harmonic: u'' = 0, affine in r
        M = RadialModel.uniform(2, "sinh", 1.0, 5.0, 161)
        u, cert = perron_dirichlet(ProblemSpec(inf_laplacian(0.0, m=2), M,
                                               {"inner": 0.0, "outer": 1.0}))
        assert cert.passed
        assert np.abs(u.values - (M.r - 1.0) / 4.0).max() <= 1e-8
        # the presolve is exact: the first sweep changes nothing and is accepted
        assert cert.counts["sweeps"] == 1

    @pytest.mark.parametrize("M, bc", [
        (PuncturedEuclidean(3, 1.0, 2.0, 201), {"inner": 1.0, "outer": 0.0}),
        (FlatBox(1, [(0.0, 1.0)], 1 / 100), {"side": lambda x: x}),
        (RadialModel.uniform(2, "sinh", 1.0, 6.0, 101), {"inner": 0.0, "outer": -1.0}),
    ], ids=["punctured-log", "box-1d", "radial-sinh"])
    def test_presolve_exact_on_every_line_grid(self, M, bc):
        # the presolve rows and the sweep read one stencil, so the presolved
        # start is the discrete fixed point on every line-grid kind
        u, cert = perron_dirichlet(ProblemSpec(laplace(LIN, m=M.m), M, bc))
        assert cert.passed
        assert "presolve" in cert.params["init"]
        assert cert.counts["sweeps"] == 1

    def test_monotone_iterates_from_constant(self):
        M = RadialModel.uniform(3, "euclidean", 1.0, 2.0, 81)
        spec = ProblemSpec(laplace(LIN, m=3), M, {"inner": 1.0, "outer": 0.0},
                           scheme=SchemeParams(init="constant"))
        u, cert = perron_dirichlet(spec)
        assert cert.params["monotone_iterates"]
        assert cert.passed

    def test_uniqueness_across_initializations(self):
        # strictly increasing f: two subsolution starts agree within 10*tol
        M = RadialModel.uniform(2, "sinh", 1.0, 6.0, 101)
        F = laplace(LIN, m=2)
        u1, c1 = perron_dirichlet(ProblemSpec(F, M, {"inner": 0.0, "outer": -1.0},
                                              scheme=SchemeParams(init="constant")))
        u2, c2 = perron_dirichlet(ProblemSpec(F, M, {"inner": 0.0, "outer": -1.0}))
        assert np.abs(u1.values - u2.values).max() <= 10 * c1.tolerance

    def test_infeasible_boundary_raises(self):
        # eikonal-coupled member with a jump the gradient bound cannot climb
        M = FlatBox(1, [(0.0, 1.0)], 1 / 20)
        F = intersect(laplace(LIN, m=1), eikonal(Profile.constant(0.01), m=1))
        with pytest.raises(InitializationError):
            perron_dirichlet(ProblemSpec(F, M, {"side": lambda x: 5.0 * x}))

    def test_nan_fixed_point_not_accepted(self, monkeypatch):
        # a line evaluator that returns NaN must end in ConvergenceError,
        # never in a certificate
        import subeq.solver as solver

        def nan_lower(F, n_nodes):
            return lambda nodes, v, du, aa, d2, gdn: np.full_like(v, np.nan)

        monkeypatch.setattr(solver._ir, "lower", nan_lower)
        M = RadialModel.uniform(3, "euclidean", 1.0, 2.0, 11)
        with np.errstate(all="ignore"), pytest.raises(ConvergenceError, match="residual=nan"):
            perron_dirichlet(ProblemSpec(laplace(LIN, m=3), M, {"inner": 1.0, "outer": 0.0}))

    @pytest.mark.parametrize("n", [11, 41])
    def test_lambda_max_branches_certified(self, n):
        # lambda_max = mu_3^(3) on radial grids, where the aa branch of
        # max(d2, aa) is not monotone in the neighbours: certified, and the
        # two forms of the largest eigenvalue agree
        M = RadialModel.uniform(3, "euclidean", 1.0, 2.0, n)
        bc = {"inner": 1.0, "outer": 0.0}
        u1, c1 = perron_dirichlet(ProblemSpec(sigma_branch(3, 3, LIN, m=3), M, bc))
        u2, c2 = perron_dirichlet(ProblemSpec(hessian_branch(3, LIN, m=3), M, bc))
        assert c1.passed and c2.passed
        assert c1.params["engine"] == c2.params["engine"] == "numpy"
        assert np.abs(u1.values - u2.values).max() <= 10 * c1.tolerance

    def test_sweep_budget_error_reports_last_residual(self):
        # the budget runs out before any step comes within conv_tol; the
        # error still reports the residual of the last iterate
        M = RadialModel.uniform(2, "sinh", 1.0, 6.0, 101)
        with pytest.raises(ConvergenceError) as err:
            perron_dirichlet(ProblemSpec(laplace(LIN, m=2), M, {"inner": 0.0, "outer": -1.0},
                                         scheme=SchemeParams(init="constant", max_sweeps=1)))
        residual = float(str(err.value).split("residual=")[1].rstrip(")"))
        assert np.isfinite(residual) and residual > 0.0

    def test_weak_regime_noted(self):
        M = FlatBox(1, [(0.0, 1.0)], 1 / 20)
        _, cert = perron_dirichlet(ProblemSpec(laplace(ZERO, m=1), M, {"side": 0.0}))
        assert cert.params["comparison_regime"] == "weak"
        assert any("weak" in n for n in cert.notes)

    def test_strict_regime_recorded(self):
        M = FlatBox(1, [(0.0, 1.0)], 1 / 20)
        _, cert = perron_dirichlet(ProblemSpec(laplace(LIN, m=1), M, {"side": 0.0}))
        assert cert.params["comparison_regime"] == "strict-f"


class TestEngines:
    def test_line_engine_from_constant_init(self):
        M = RadialModel.uniform(2, "sinh", 1.0, 6.0, 101)
        F = laplace(LIN, m=2)
        u, cert = perron_dirichlet(ProblemSpec(
            F, M, {"inner": 0.0, "outer": -1.0},
            scheme=SchemeParams(init="constant", force_engine="numpy")))
        assert cert.passed
        assert cert.params["engine"] == "numpy"

    def test_generic_engine_matches_line(self):
        M = RadialModel.uniform(2, "sinh", 1.0, 6.0, 61)
        F = laplace(LIN, m=2)
        u1, c1 = perron_dirichlet(ProblemSpec(
            F, M, {"inner": 0.0, "outer": -1.0},
            scheme=SchemeParams(init="constant", force_engine="generic")))
        u2, _ = perron_dirichlet(ProblemSpec(F, M, {"inner": 0.0, "outer": -1.0}))
        assert c1.params["engine"] == "generic"
        assert np.abs(u1.values - u2.values).max() <= 10 * 1e-8

    def test_generic_engine_matches_line_nonuniform(self):
        # log spacing: both engines lag the first difference of one stencil
        M = PuncturedEuclidean(3, 1.0, 2.0, 21)
        F = laplace(LIN, m=3)
        bc = {"inner": 0.0, "outer": -1.0}
        u1, c1 = perron_dirichlet(ProblemSpec(
            F, M, bc, scheme=SchemeParams(init="constant", force_engine="generic")))
        u2, c2 = perron_dirichlet(ProblemSpec(F, M, bc, scheme=SchemeParams(init="constant")))
        assert (c1.params["engine"], c2.params["engine"]) == ("generic", "numpy")
        assert c1.passed and c2.passed
        assert np.abs(u1.values - u2.values).max() <= 10 * 1e-8

    def test_obstacle_matches_generic(self):
        # a Khas'minskii-stage obstacle: zero near the inner sphere, then a
        # ramp down to the outer boundary value; the policy steps and the
        # Jacobi sweeps reach one contact set and one solution
        M = RadialModel.uniform(2, "sinh", 1.0, 4.0, 31)
        g = GridFunction(M, np.minimum(0.0, -np.clip(M.r - 2.0, 0.0, 1.0)))
        bc = {"inner": 0.0, "outer": -1.0}
        sols = [solve_obstacle(ProblemSpec(laplace(LIN, m=2), M, bc, obstacle=g,
                                           scheme=SchemeParams(force_engine=eng)))
                for eng in ("numpy", "generic")]
        (u1, c1), (u2, c2) = sols
        assert c1.passed and c2.passed
        assert c1.counts["contact_nodes"] == c2.counts["contact_nodes"] > 0
        assert np.abs(u1.values - u2.values).max() <= 10 * c1.tolerance

    @pytest.mark.parametrize("outer", [1.0, -1.0])
    def test_mean_curvature_certified(self, outer):
        # the lagged |du| of the mean-curvature profile: a few dozen steps at most
        M = RadialModel.uniform(2, "sinh", 1.0, 3.0, 41)
        F = quasilinear(AProfile.mean_curvature(), LIN, m=2)
        _, cert = perron_dirichlet(ProblemSpec(F, M, {"inner": 0.0, "outer": outer}))
        assert cert.passed
        assert cert.params["engine"] == "numpy"
        assert cert.counts["sweeps"] <= 50

    @pytest.mark.parametrize("F", [
        dual(eikonal(Profile.table([-1.0, 0.0], [1.0, 0.0]), m=2)),
        hessian_branch(2, LIN, m=2),
    ], ids=["dual-eikonal", "lambda_max"])
    def test_policy_failure_is_a_convergence_error(self, F):
        # a zero pivot, steps that stop lowering the residual or steps that
        # change nothing end the solve with a ConvergenceError naming the
        # engine, the step and the residual, long before the budget
        M = RadialModel.uniform(2, "sinh", 1.0, 3.0, 41)
        with pytest.raises(ConvergenceError, match=r"\(numpy engine, .*residual=") as e:
            perron_dirichlet(ProblemSpec(F, M, {"inner": 0.0, "outer": 1.0}))
        step = int(re.search(r"policy step (\d+)|in (\d+) sweeps", str(e.value)).group(1, 2)[
            "policy step" not in str(e.value)])
        assert step < 2 * STALL_STEPS

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("member", ["lambda_min", "plurisub", "sigma_1"])
    def test_constant_f_min_members_certified(self, m, member):
        # min-type members with f' = 0 from the constant start: every row
        # starts at a tie, and rows where the angular branch is active have
        # no weight on the node value.  The solution is the parabola with
        # d2 = -1, which the three-point second difference reproduces.
        f = Profile.constant(-1.0)
        F = {"lambda_min": hessian_branch(1, f, m=m), "plurisub": plurisub_trace(1, f, m=m),
             "sigma_1": sigma_branch(1, m, f, m=m)}[member]
        M = RadialModel.uniform(m, "sinh", 1.0, 3.0, 41)
        u, cert = perron_dirichlet(ProblemSpec(F, M, {"inner": 0.0, "outer": 1.0}))
        assert cert.passed and cert.params["engine"] == "numpy"
        assert np.abs(u.values - (-0.5 * M.r**2 + 2.5 * M.r - 2.0)).max() <= 10 * cert.tolerance

    def test_unknown_engine_rejected(self):
        M = RadialModel.uniform(2, "sinh", 1.0, 6.0, 21)
        scheme = SchemeParams(force_engine="nmupy")
        with pytest.raises(InputError, match="unknown engine"):
            perron_dirichlet(ProblemSpec(laplace(LIN, m=2), M,
                                         {"inner": 0.0, "outer": -1.0}, scheme=scheme))
        with pytest.raises(InputError, match="unknown engine"):
            solve_obstacle(ProblemSpec(laplace(LIN, m=2), M, {"inner": 0.0, "outer": -1.0},
                                       obstacle=GridFunction(M, np.zeros(M.n_nodes)),
                                       scheme=scheme))

    def test_line_engine_needs_a_lowered_tree(self):
        # a jet-equivalence does not lower: automatic choice runs generic,
        # a forced line engine is an input error, not a silent downgrade
        M = RadialModel.uniform(2, "sinh", 1.0, 3.0, 21)
        F = linear_jetequiv(np.eye(2), f=LIN)
        bc = {"inner": 0.0, "outer": -1.0}
        _, cert = perron_dirichlet(ProblemSpec(F, M, bc))
        assert cert.params["engine"] == "generic"
        with pytest.raises(InputError, match="numpy engine"):
            perron_dirichlet(ProblemSpec(F, M, bc, scheme=SchemeParams(force_engine="numpy")))
        with pytest.raises(InputError, match="numpy engine"):
            solve_obstacle(ProblemSpec(F, M, bc, obstacle=GridFunction(M, np.zeros(M.n_nodes)),
                                       scheme=SchemeParams(force_engine="numpy")))

    def test_line_engine_needs_a_line_grid(self):
        M = FlatBox(2, [(0.0, 1.0), (0.0, 1.0)], 1 / 4)
        with pytest.raises(InputError, match="numpy engine"):
            perron_dirichlet(ProblemSpec(laplace(LIN, m=2), M, {"side": 0.0},
                                         scheme=SchemeParams(force_engine="numpy")))

    def test_flatbox_2d_manufactured(self):
        # Delta u = u has solution e^x on any box
        M = FlatBox(2, [(0.0, 1.0), (0.0, 1.0)], 1 / 16)
        F = laplace(LIN, m=2)
        u, cert = perron_dirichlet(ProblemSpec(
            F, M, {"side": lambda c: np.exp(c[:, 0])}))
        assert cert.params["engine"] == "generic"
        exact = np.exp(M.coords[:, 0])
        assert np.abs(u.values - exact).max() <= 5e-3


class TestObstacle:
    def setup_method(self):
        self.M = FlatBox(1, [(0.0, 1.0)], 1 / 400)
        self.x = self.M.coords[:, 0]
        self.F = hessian_branch(1, ZERO, m=1)

    def test_active_everywhere(self):
        # convex below g = x^2 with boundary equality forces u = g
        g = GridFunction(self.M, self.x**2)
        u, cert = solve_obstacle(ProblemSpec(self.F, self.M,
                                             {"side": lambda xx: xx**2}, obstacle=g))
        assert cert.passed
        assert np.abs(u.values - self.x**2).max() <= 1e-3
        assert cert.worst["complementarity"] <= 1e-8

    def test_inactive_interior(self):
        # convex functions lie below chords; the chord is the constant -1/4
        g = GridFunction(self.M, -(self.x - 0.5) ** 2)
        u, cert = solve_obstacle(ProblemSpec(self.F, self.M, {"side": -0.25},
                                             obstacle=g))
        assert cert.passed
        assert np.abs(u.values + 0.25).max() <= 1e-3
        assert cert.worst["complementarity"] <= 1e-8

    def test_huge_obstacle_matches_dirichlet(self):
        M = RadialModel.uniform(3, "euclidean", 1.0, 2.0, 101)
        F = laplace(LIN, m=3)
        bc = {"inner": 1.0, "outer": 0.0}
        g = GridFunction(M, np.full(M.n_nodes, 1e6))
        u1, _ = solve_obstacle(ProblemSpec(F, M, bc, obstacle=g))
        u2, _ = perron_dirichlet(ProblemSpec(F, M, bc))
        assert np.abs(u1.values - u2.values).max() <= 1e-8

    def test_phi_above_g_rejected(self):
        g = GridFunction(self.M, -(self.x - 0.5) ** 2)
        with pytest.raises(PreconditionError):
            solve_obstacle(ProblemSpec(self.F, self.M, {"side": 0.5}, obstacle=g))

    def test_solution_never_exceeds_obstacle(self):
        g = GridFunction(self.M, 0.2 * np.sin(6 * self.x) + 0.1)
        u, cert = solve_obstacle(ProblemSpec(self.F, self.M, {"side": -0.1},
                                             obstacle=g))
        assert np.all(u.values <= g.values + 1e-12)
        assert cert.worst["complementarity"] <= 1e-8


class TestVerifySubharmonic:
    def test_quadratic_pass_and_fail(self):
        M = FlatBox(2, [(-1.0, 1.0), (-1.0, 1.0)], 0.1)
        u = GridFunction.from_callable(M, lambda c: -(c**2).sum(axis=1))
        F_ok = hessian_branch(1, Profile.constant(-3.0), m=2)
        F_bad = hessian_branch(1, Profile.constant(-1.0), m=2)
        assert verify_subharmonic(F_ok, u, M).passed       # lambda_1 = -2 >= -3
        cert = verify_subharmonic(F_bad, u, M)
        assert not cert.passed                              # -2 < -1
        assert cert.counts["violations"] == cert.counts["nodes"]

    def test_truncation_stability(self):
        # v = -u of a solver output is dual-F-subharmonic; max(v - c, 0) stays
        # H-subharmonic on {v > c} away from the free boundary by one stencil
        M = RadialModel.uniform(2, "sinh", 1.0, 8.0, 201)
        F = laplace(LIN, m=2)
        u, _ = perron_dirichlet(ProblemSpec(F, M, {"inner": 0.0, "outer": -1.0}))
        v = -u.values
        c = 0.3
        w = GridFunction(M, np.maximum(v - c, 0.0))
        H = union(dual(F), below_zero_cap(2))
        contact = np.abs(v - c) <= 2 * np.diff(v).max()
        region = ~contact
        region &= np.roll(~contact, 1) & np.roll(~contact, -1)
        cert = verify_subharmonic(H, w, M, region=region)
        assert cert.passed, cert.worst


class TestComparison:
    def test_affine_pair_f0(self):
        M = FlatBox(1, [(0.0, 1.0)], 1 / 50)
        x = M.coords[:, 0]
        cert = comparison_check(laplace(ZERO, m=1), GridFunction(M, x),
                                GridFunction(M, -x))
        assert cert.passed

    def test_precondition_discipline(self):
        # u = x is NOT {tr A >= r}-subharmonic (0 < x on the interior):
        # reported as precondition-fail, not a comparison failure
        M = FlatBox(1, [(0.0, 1.0)], 1 / 50)
        x = M.coords[:, 0]
        cert = comparison_check(laplace(LIN, m=1), GridFunction(M, x),
                                GridFunction(M, -x))
        assert not cert.passed
        assert cert.params["kind"] == "precondition-fail"

    def test_solver_output_against_dual(self):
        # u F-harmonic and v = -u dual-F-subharmonic: u + v == 0
        for F, M, bc in [
            (laplace(LIN, m=2), RadialModel.uniform(2, "sinh", 1.0, 6.0, 101),
             {"inner": 0.0, "outer": -1.0}),
            (laplace(LIN, m=3), PuncturedEuclidean(3, 1.0, 2.0, 101),
             {"inner": 1.0, "outer": 0.0}),
            (inf_laplacian(0.0, m=2), RadialModel.uniform(2, "euclidean", 1.0, 3.0, 101),
             {"inner": 0.0, "outer": 1.0}),
        ]:
            u, _ = perron_dirichlet(ProblemSpec(F, M, bc))
            cert = comparison_check(F, u, GridFunction(M, -u.values))
            assert cert.passed, (F.meta.tag, cert.worst)

    def test_comparison_with_cones(self):
        # infinity-harmonic u vs a metric cone touching from above on a ball
        # minus its vertex (the classical cone-comparison domain)
        M = RadialModel.uniform(2, "euclidean", 1.0, 3.0, 201)
        F = inf_laplacian(0.0, m=2)
        u, _ = perron_dirichlet(ProblemSpec(F, M, {"inner": 0.0, "outer": 1.0}))
        vertex = 100
        ball = (np.arange(M.n_nodes) >= 50) & (np.arange(M.n_nodes) <= 150)
        dist = np.abs(M.r - M.r[vertex])
        edge_vals = u.values[ball] - dist[ball]
        a = edge_vals.max() + 1e-6   # cone a + 1*dist >= u on the ball edge
        cone = a + dist
        K = ball.copy()
        K[vertex] = False
        cert = comparison_check(F, u, GridFunction(M, -cone), K=K)
        assert cert.passed, cert.worst

    def test_violation_reports_doubled_variable_diag(self):
        # an exact-membership violation cannot exist (discrete maximum
        # principle); use a candidate inside the precheck band whose interior
        # bump still exceeds the comparison tolerance
        M = FlatBox(1, [(0.0, 1.0)], 1 / 40)
        x = M.coords[:, 0]
        F = laplace(ZERO, m=1)
        u = GridFunction(M, 1e-7 * (0.25 - (x - 0.5) ** 2))  # Delta u = -2e-7
        v = GridFunction(M, np.zeros(M.n_nodes))
        cert = comparison_check(F, u, v)
        assert not cert.passed
        assert cert.params["kind"] == "comparison"
        assert len(cert.trace) > 0 and "alpha" in cert.trace[0]
        assert "max_node" in cert.params


class TestBarriers:
    def test_euclidean_ball_hessian_branch(self):
        # Prop: Euclidean balls are F-convex at non-positive heights;
        # rho = r^2 - R^2 certifies from inside
        M = RadialModel.uniform(3, "euclidean", 0.2, 2.0, 181)
        rho = GridFunction(M, M.r**2 - 4.0)
        res = make_barrier(hessian_branch(1, LIN, m=3), M,
                           np.ones(M.n_nodes, bool),
                           np.array([M.n_nodes - 1]), rho)
        assert res.ok
        assert res.margin >= res.certificate.tolerance

    def test_eikonal_only_fails(self):
        # empty asymptotic interior: no barrier family exists
        M = RadialModel.uniform(3, "euclidean", 1.0, 3.0, 121)
        rho = GridFunction(M, M.r[0] - M.r)
        res = make_barrier(eikonal(1.0, m=3), M, np.ones(M.n_nodes, bool),
                           np.array([0]), rho)
        assert not res.ok
        assert any("exhausted" in n for n in res.certificate.notes)

    def test_annulus_inner_sphere_s0(self):
        # strictly subharmonic defining function: exp(-kr) type, s = 0 certifies
        M = RadialModel.uniform(3, "euclidean", 1.0, 3.0, 201)
        rho = GridFunction(M, np.exp(-4.0 * M.r) - np.exp(-4.0 * M.r[0]))
        res = make_barrier(laplace(ZERO, m=3), M, np.ones(M.n_nodes, bool),
                           np.array([0]), rho)
        assert res.ok
        assert res.s == 0.0

    def test_rho_validation(self):
        M = RadialModel.uniform(3, "euclidean", 1.0, 3.0, 51)
        bad = GridFunction(M, M.r - M.r[0] + 1.0)  # nonzero at the boundary
        with pytest.raises(PreconditionError):
            make_barrier(laplace(ZERO, m=3), M, np.ones(M.n_nodes, bool),
                         np.array([0]), bad)
