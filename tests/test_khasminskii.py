"""Khas'minskii construction, radial ODE oracle, Ekeland potentials,
the log transform, and the punctured-space explicit potential."""
import numpy as np
import pytest

import subeq.khasminskii as KH
from subeq.errors import (ConstructionError, DomainError, InputError, PreconditionError,
                          ScheduleError)
from subeq.khasminskii import (
    PairKh,
    Schedule,
    build_potential,
    ekeland_potential,
    log_transform,
    punctured_example_check,
    radial_khasminskii_test,
)
from subeq.manifolds import GridFunction, PuncturedEuclidean, RadialModel
from subeq.profiles import Profile
from subeq.solver import solve_obstacle, verify_subharmonic
from subeq.subequations import laplace

LIN = Profile.linear(1.0)
RADII = tuple(np.arange(3.0, 38.6, 2.5))


def sinh_pair(r_max=40.0, n=400):
    M = RadialModel.uniform(2, "sinh", 1.0, r_max, n)
    return M, PairKh(M, GridFunction(M, -np.log(1.0 + M.r)))


class TestBuildPotential:
    def test_sinh_model_full_run(self):
        M, pair = sinh_pair()
        sched = Schedule(eps=0.5, i_max=3, radii=tuple(np.arange(3.0, 38.6, 2.5)))
        w, cert = build_potential(laplace(LIN, m=2), pair, sched)
        assert cert.passed
        hv = pair.h.values
        wv = w.values
        # h <= w <= 0 outside K, w = 0 on the inner boundary
        assert np.all(wv >= hv - 1e-12) and np.all(wv <= 1e-12)
        assert wv[0] == pytest.approx(0.0, abs=1e-12)
        # stage invariants recorded per stage
        for i, entry in enumerate(cert.trace):
            assert entry["gap"] <= entry["gap_target"]
            assert entry["pinch_margin"] > 0
            assert entry["monotone"]
            # escape: the potential reaches -i-1 beyond the chosen compact
            beyond = M.r > entry["C_radius"] + 1e-9
            if i == len(cert.trace) - 1 and beyond.any():
                assert np.all(wv[beyond] <= -(i + 1) + 1e-9)
        # final subharmonicity at 1e-6
        sub = verify_subharmonic(laplace(LIN, m=2), w, tol=1e-6)
        assert sub.passed

    def test_stage_monotone_sequence(self):
        # w_{i+1} <= w_i node-wise across stages (run stage-by-stage)
        M, pair = sinh_pair(30.0, 300)
        radii = tuple(np.arange(3.0, 28.6, 2.5))
        prev = np.zeros(M.n_nodes)
        for i_max in (1, 2):
            w, cert = build_potential(laplace(LIN, m=2), pair,
                                      Schedule(eps=0.5, i_max=i_max, radii=radii))
            assert np.all(w.values <= prev + 1e-9)
            prev = w.values

    def test_degenerate_pair_rejected(self):
        M = RadialModel.uniform(2, "sinh", 1.0, 30.0, 200)
        with pytest.raises(ConstructionError):
            PairKh(M, GridFunction(M, np.full(M.n_nodes, -0.5)))

    def test_nonnegative_h_rejected(self):
        M = RadialModel.uniform(2, "sinh", 1.0, 30.0, 200)
        with pytest.raises(ConstructionError):
            PairKh(M, GridFunction(M, 1.0 - M.r / 10.0))

    def test_barrier_precondition_error_names_boundary(self):
        # eikonal-intersected member admits no barrier on the inner sphere
        from subeq.subequations import eikonal
        M, pair = sinh_pair(20.0, 150)
        F = eikonal(Profile.table([-1.0, 0.0], [1.0, 0.0]), m=2)
        with pytest.raises(PreconditionError, match="∂K|barrier"):
            build_potential(F, pair, Schedule(i_max=1, radii=(3.0, 6.0, 9.0, 12.0)))

    def test_eikonal_coupling(self):
        # coupled run: output additionally passes pure E_xi outside the collar
        M, pair = sinh_pair(30.0, 300)
        xi = Profile.table([-1.0, 0.0], [1.0, 0.0])
        radii = tuple(np.arange(3.0, 28.6, 2.5))
        w, cert = build_potential(laplace(LIN, m=2), pair,
                                  Schedule(eps=0.5, i_max=2, radii=radii), xi=xi)
        assert cert.passed, (cert.worst, cert.notes)
        assert cert.params["coupled_eikonal"]
        assert any(k.startswith("eikonal_exterior") for k in cert.worst)
        # one plus the largest |beta'| by the line stencil at interior nodes
        assert cert.params["eta_peak"] == pytest.approx(57.806, abs=1e-3)

    @pytest.fixture
    def obstacle_solves(self, monkeypatch):
        """The node counts of the domains of every stage obstacle solve."""
        domains = []

        def counting(spec):
            domains.append(spec.M.n_nodes)
            return solve_obstacle(spec)

        monkeypatch.setattr(KH, "solve_obstacle", counting)
        return domains

    @pytest.mark.parametrize("eps,j_radii,solves", [
        (0.5, [13.0, 23.0, 33.0], 3),
        (0.002, [18.0, 28.0, 38.0], 5),   # stage 0 advances twice
    ])
    def test_one_obstacle_solve_per_radius_tried(self, obstacle_solves, eps,
                                                 j_radii, solves):
        M, pair = sinh_pair()
        w, cert = build_potential(laplace(LIN, m=2), pair,
                                  Schedule(eps=eps, i_max=3, radii=RADII))
        assert cert.passed
        assert [e["j_radius"] for e in cert.trace] == j_radii
        # each radius tried is one solve on its own domain D_j
        assert len(obstacle_solves) == solves == len(set(obstacle_solves))

    def test_gap_budget_exhausted(self, obstacle_solves):
        M, pair = sinh_pair()
        sched = Schedule(eps=1e-4, i_max=3, radii=(3.0, 5.5, 8.0, 10.5, 13.0))
        with pytest.raises(ScheduleError, match="stage 0: exhaustion budget exhausted") as e:
            build_potential(laplace(LIN, m=2), pair, sched)
        assert e.value.achieved["gap"] == pytest.approx(0.01045, abs=1e-5)
        assert e.value.achieved["gap_target"] == 1e-4
        assert len(obstacle_solves) == 1   # the one radius past j0

    def test_exhaustion_too_short(self):
        M, pair = sinh_pair()
        with pytest.raises(ScheduleError, match="stage 3: exhaustion too short"):
            build_potential(laplace(LIN, m=2), pair,
                            Schedule(eps=0.5, i_max=5, radii=RADII))

    def test_schedule_validation(self):
        with pytest.raises(InputError):
            Schedule(eps=-1.0)
        with pytest.raises(InputError):
            Schedule(i_max=0)
        with pytest.raises(InputError):
            Schedule(radii=(3.0, 2.0))


class TestRadialODE:
    def test_euclidean_bessel_growth(self):
        v, r, w, tr = radial_khasminskii_test("euclidean", 3, 1.0, (0.1, 30.0))
        assert v == "Pass"
        # oracle: the general solution a sinh(r)/r + b exp(-r)/r fitted to the
        # initial data w(r0) = 1, w'(r0) = 0
        r0 = 0.1
        i0 = lambda t: np.sinh(t) / t
        k0 = lambda t: np.exp(-t) / t
        di0 = lambda t: (np.cosh(t) * t - np.sinh(t)) / t**2
        dk0 = lambda t: -np.exp(-t) * (1 + t) / t**2
        mat = np.array([[i0(r0), k0(r0)], [di0(r0), dk0(r0)]])
        a, b = np.linalg.solve(mat, [1.0, 0.0])
        exact = a * i0(r) + b * k0(r)
        rel = np.abs(w - exact) / np.maximum(np.abs(exact), 1.0)
        # resampled onto a uniform grid from the adaptive steps: interp-level
        assert rel.max() < 1e-4

    def test_sinh_passes(self):
        v, *_ = radial_khasminskii_test("sinh", 2, 1.0, (0.1, 30.0))
        assert v == "Pass"

    def test_exp_r3_fails(self):
        v, r, w, tr = radial_khasminskii_test("exp_r3", 2, 1.0, (0.1, 8.0))
        assert v == "Fail"
        assert tr["status"] == "done" and tr["rel_growth"] <= 0.05

    def test_warp_overflow_is_a_domain_error(self):
        # g'/g of exp(r^3) is not finite past r ~ 8.9, inside the range
        with pytest.raises(DomainError, match="exp_r3: g'/g is not finite"):
            radial_khasminskii_test("exp_r3", 2, 1.0, (0.1, 10.0))

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            radial_khasminskii_test("sinh", 2, -1.0, (0.1, 10.0))
        with pytest.raises(InputError):
            radial_khasminskii_test("sinh", 2, 1.0, (0.0, 10.0))


class TestEkeland:
    def test_linear_h(self):
        M = RadialModel.uniform(2, "sinh", 1.0, 15.0, 300)
        pair = PairKh(M, GridFunction(M, -(M.r - 0.9)))
        w, cert = ekeland_potential(pair)
        assert cert.passed
        assert np.all(np.abs(np.diff(w.values) / np.diff(M.r)) <= 1.0)

    def test_log_h(self):
        M = RadialModel.uniform(2, "sinh", 1.0, 15.0, 300)
        pair = PairKh(M, GridFunction(M, -np.log(1.0 + M.r)))
        w, cert = ekeland_potential(pair)
        assert cert.passed
        assert cert.worst["min_w_minus_h"] >= -1e-12

    def test_punctured_refused(self):
        M = PuncturedEuclidean(3, 0.05, 4.0, 200)
        pair = PairKh(M, GridFunction(M, -(np.log(M.r / 0.05) + M.r + 0.01)))
        with pytest.raises(PreconditionError):
            ekeland_potential(pair)


class TestLogTransform:
    def test_hyperbolic_cosh(self):
        M = RadialModel(2, "sinh", np.linspace(0.0125, 5.0, 400))
        g = GridFunction(M, np.cosh(M.r))
        w, cert = log_transform(g, 1.0, 0.5)
        assert cert.passed
        assert cert.worst["grad_w_excess"] <= 1e-6
        assert cert.worst["hessian_w_deficit"] <= 1e-6
        assert cert.worst["grad_g_excess"] <= 1e-6

    def test_trivial_constant(self):
        M = RadialModel(2, "sinh", np.linspace(0.1, 5.0, 100))
        w, cert = log_transform(GridFunction(M, np.ones(M.n_nodes)), 1.0, 0.5)
        assert cert.passed
        assert np.abs(w.values).max() == 0.0

    def test_exp_r2_precondition_fails(self):
        # Hessian of exp(r^2) grows like 4 r^2 g: violates the lam^2 g bound
        M = RadialModel(2, "euclidean", np.linspace(0.05, 3.0, 200))
        with pytest.raises(PreconditionError) as exc:
            log_transform(GridFunction(M, np.exp(M.r**2)), 1.0, 0.5)
        assert "worst_nodes" in exc.value.detail

    def test_gfun_below_one_rejected(self):
        M = RadialModel(2, "euclidean", np.linspace(0.05, 3.0, 50))
        with pytest.raises(PreconditionError):
            log_transform(GridFunction(M, np.full(M.n_nodes, 0.5)), 1.0, 0.5)


class TestPuncturedExample:
    def test_m3_interval(self):
        cert = punctured_example_check(3, 1.0)
        assert cert.passed
        k_lo, k_hi = cert.params["K_interval"]
        # membership must hold at |x| <= 0.16 and |x| >= 2.4
        assert k_lo > 0.16 and k_hi < 2.4
        # oracle: residual = -6 + r^2 + 1/r, boundary where r^2 + 1/r = 6
        assert abs(k_lo - 0.1675) < 5e-3
        assert abs(k_hi - 2.3811) < 5e-2

    def test_m2_interval(self):
        cert = punctured_example_check(2, 1.0, M=PuncturedEuclidean(2, 0.005, 4.0, 600))
        assert cert.passed
        k_lo, k_hi = cert.params["K_interval"]
        # oracle: residual = -4 + r^2 - log r
        assert abs(k_lo - 0.018322) < 2e-3
        assert abs(k_hi - 2.1868) < 5e-2

    def test_lambda_scaling_monotone(self):
        # doubling lam shrinks K: membership easier where w < 0
        c1 = punctured_example_check(3, 1.0)
        c2 = punctured_example_check(3, 2.0)
        assert c2.params["K_interval"][0] >= c1.params["K_interval"][0]
        assert c2.params["K_interval"][1] <= c1.params["K_interval"][1]
        assert c2.counts["K_nodes"] <= c1.counts["K_nodes"]

    def test_residual_exactness(self):
        # analytic jets: residual equals -2m - lam*w to roundoff (the 1/r^3
        # terms cancel at the eps * r^-3 level near the puncture)
        cert = punctured_example_check(3, 1.0)
        res = cert.residuals["membership"]
        M = PuncturedEuclidean(3, 0.05, 4.0, 600)
        w = -(M.r**2) - 1.0 / M.r
        assert np.abs(res - (-6.0 - w)).max() < 1e-10
