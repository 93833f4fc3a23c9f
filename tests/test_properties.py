"""Ahlfors/Liouville deciders, capacity, stochastic completeness, and the
duality falsification suite."""
import numpy as np
import pytest

import subeq.properties
from subeq.errors import ConvergenceError, DomainError, InputError
from subeq.manifolds import FlatBox, GridFunction, RadialModel
from subeq.profiles import Profile
from subeq.properties import (
    Outcome,
    Verdict,
    _combine_oracles,
    ahlfors_falsification_suite,
    ahlfors_violation_check,
    inf_capacity,
    liouville_check,
    stochastic_completeness,
    truncate_shift,
)
from subeq.solver import ProblemSpec, perron_dirichlet, verify_subharmonic
from subeq.subequations import below_zero_cap, dual, laplace, union

LIN = Profile.linear(1.0)
ZERO = Profile.linear(0.0)


def box_setup():
    M = FlatBox(1, [(0.0, 1.0)], 1 / 100)
    U = np.ones(M.n_nodes, bool)
    U[0] = U[-1] = False
    return M, M.coords[:, 0], U


class TestAhlforsCheck:
    def test_affine_truncation_no_violation(self):
        # parabolic profile: membership of the truncated affine holds where
        # positive, boundary sup equals the interior sup
        M, x, U = box_setup()
        Fd = dual(laplace(ZERO, m=1))
        v = ahlfors_violation_check(Fd, U, GridFunction(M, np.maximum(x - 0.5, 0.0)))
        assert v.result is Outcome.HOLDS
        assert v.certificate.worst["sup_gap"] <= 1e-12

    def test_constant_equality(self):
        M, x, U = box_setup()
        Fd = dual(laplace(ZERO, m=1))
        v = ahlfors_violation_check(Fd, U, GridFunction(M, np.ones(M.n_nodes)))
        assert v.result is Outcome.HOLDS

    def test_membership_fail_discipline(self):
        # an interior bump is not H-subharmonic: membership-fail, never Fails
        M, x, U = box_setup()
        Fd = dual(laplace(ZERO, m=1))
        v = ahlfors_violation_check(Fd, U, GridFunction(M, np.exp(-200 * (x - 0.5) ** 2)))
        assert v.result is Outcome.INCONCLUSIVE
        assert v.provenance == "membership-fail"
        assert v.witness is None

    def test_f_r_profile_membership_honest(self):
        # for f(r) = r, the dual profile is again r: affine truncations fail
        # H-membership (tr A = 0 < u where positive)
        M, x, U = box_setup()
        Fd = dual(laplace(LIN, m=1))
        v = ahlfors_violation_check(Fd, U, GridFunction(M, np.maximum(x - 0.5, 0.0)))
        assert v.result is Outcome.INCONCLUSIVE

    def test_nowhere_positive_out_of_scope(self):
        M, x, U = box_setup()
        Fd = dual(laplace(ZERO, m=1))
        v = ahlfors_violation_check(Fd, U, GridFunction(M, -np.ones(M.n_nodes)))
        assert v.result is Outcome.HOLDS
        assert any("not in scope" in n for n in v.certificate.notes)

    def test_fails_requires_witness_invariant(self):
        with pytest.raises(InputError):
            Verdict("x", Outcome.FAILS, "p")
        with pytest.raises(InputError):
            Verdict("x", Outcome.HOLDS, "p")


class TestLiouville:
    def test_constant_holds(self):
        M, x, _ = box_setup()
        Fd = dual(laplace(ZERO, m=1))
        v = liouville_check(Fd, GridFunction(M, np.full(M.n_nodes, 2.0)), M)
        assert v.result is Outcome.HOLDS

    def test_solver_outputs_constant_on_hyperbolic(self):
        # bounded solutions with constant boundary data are constant (within tol)
        M = RadialModel.uniform(2, "sinh", 1.0, 10.0, 151)
        F = laplace(LIN, m=2)
        u, _ = perron_dirichlet(ProblemSpec(F, M, {"inner": 0.0, "outer": 0.0}))
        assert u.values.max() - u.values.min() <= 1e-8

    def test_exp_r3_witness_from_ode(self):
        v = stochastic_completeness("exp_r3", 2, 1.0, (0.1, 8.0))
        assert v.result is Outcome.FAILS
        w = v.witness
        assert w is not None
        # the witness is a nonconstant, bounded, normalized dual-member
        assert 0 <= w.values.min() and w.values.max() == pytest.approx(1.0)
        assert w.values.max() - w.values.min() > 1e-3
        h = np.diff(w.manifold.r).max()
        check = liouville_check(dual(laplace(LIN, m=2)), w, w.manifold,
                                membership_tol=10 * h**2)
        assert check.result is Outcome.FAILS

    def test_negative_candidate_rejected(self):
        M, x, _ = box_setup()
        with pytest.raises(InputError):
            liouville_check(dual(laplace(ZERO, m=1)), GridFunction(M, -x), M)


class TestCapacity:
    def test_complete_sinh_cap_to_zero(self):
        M = RadialModel.uniform(2, "sinh", 1.0, 102.0, 2021)
        radii = [2.0 + j for j in range(101)]
        cap, tr = inf_capacity(1.0, radii, M)
        lips = np.array(tr["lipschitz"])
        assert np.all(np.diff(lips) <= 1e-10)  # non-increasing trace
        assert cap <= 1e-2
        # oracle: affine capacitors have Lipschitz 1/(R_j - 1)
        expect = 1.0 / (np.array(tr["radii"]) - 1.0)
        assert np.abs(lips - expect).max() < 1e-6

    def test_truncated_ball_cap_positive(self):
        M = RadialModel.uniform(3, "euclidean", 1.0, 3.0, 201)
        cap, tr = inf_capacity(1.0, [1.5, 2.0, 2.5, 3.0], M)
        assert cap >= 0.5 - 1e-2

    @pytest.mark.parametrize("fault", ["failed-certificate", "increasing-trace"])
    def test_capacitor_failures_are_convergence_errors(self, monkeypatch, fault):
        # the second capacitor fails its certificate, or its Lipschitz
        # constant rises above the first one's
        real = subeq.properties.perron_dirichlet
        calls = []

        def faulty(spec):
            u, cert = real(spec)
            calls.append(spec)
            if len(calls) == 2:
                if fault == "failed-certificate":
                    cert.passed = False
                else:
                    u = GridFunction(u.manifold, 3.0 * u.values)
            return u, cert

        monkeypatch.setattr(subeq.properties, "perron_dirichlet", faulty)
        M = RadialModel.uniform(2, "euclidean", 1.0, 3.0, 51)
        match = {"failed-certificate": r"capacitor at R = 3 failed its certificate",
                 "increasing-trace": r"trace increases from R = 2 to R = 3"}[fault]
        with pytest.raises(ConvergenceError, match=match):
            inf_capacity(1.0, [2.0, 3.0], M)

    def test_whole_domain_convention(self):
        M = RadialModel.uniform(2, "euclidean", 1.0, 3.0, 51)
        cap, tr = inf_capacity(3.0, [1.5, 2.0], M)
        assert cap == 0.0
        assert "note" in tr


class TestStochastic:
    def test_triple(self):
        assert stochastic_completeness("euclidean", 3, 1.0, (0.1, 30.0)).result is Outcome.HOLDS
        assert stochastic_completeness("sinh", 2, 1.0, (0.1, 30.0)).result is Outcome.HOLDS
        assert stochastic_completeness("exp_r3", 2, 1.0, (0.1, 8.0)).result is Outcome.FAILS

    def test_oracle_agreement(self):
        # volume divergence may only pair with ODE Pass/Inconclusive
        for warp, m, rng_, vol_max in [("euclidean", 3, (0.1, 30.0), 8.0),
                                       ("sinh", 2, (0.1, 30.0), 8.0),
                                       ("exp_r3", 2, (0.1, 8.0), 6.0)]:
            from subeq.khasminskii import radial_khasminskii_test
            from subeq.manifolds import volume_growth_test
            ode, *_ = radial_khasminskii_test(warp, m, 1.0, rng_)
            vol, _ = volume_growth_test(warp, m, vol_max)
            assert not (vol == "Diverges" and ode == "Fail"), (warp, ode, vol)

    def test_volume_domain_error_leaves_the_ode_verdict(self, monkeypatch):
        def no_volume(*args, **kwargs):
            raise DomainError("warping must be positive and finite on (0, r_max]")

        monkeypatch.setattr(subeq.properties, "volume_growth_test", no_volume)
        v = stochastic_completeness("exp_r3", 2, 1.0, (0.1, 8.0))
        assert (v.result, v.provenance) == (Outcome.FAILS, "radial-ode")
        assert "volume=Inconclusive" in v.notes
        v = stochastic_completeness("sinh", 2, 1.0, (0.1, 30.0))
        assert (v.result, v.provenance) == (Outcome.HOLDS, "radial-ode")
        assert v.certificate.params["volume"]["error"].startswith("warping")

    def test_volume_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            return 1 / 0

        monkeypatch.setattr(subeq.properties, "volume_growth_test", broken)
        with pytest.raises(ZeroDivisionError):
            stochastic_completeness("sinh", 2, 1.0, (0.1, 30.0))

    def test_combine_table(self):
        H, F, I = Outcome.HOLDS, Outcome.FAILS, Outcome.INCONCLUSIVE
        assert _combine_oracles("Pass", "Diverges") == (H, "radial-ode")
        assert _combine_oracles("Pass", "Converges") == (H, "radial-ode")
        assert _combine_oracles("Fail", "Converges") == (F, "radial-ode")
        assert _combine_oracles("Inconclusive", "Diverges") == (H, "volume-growth")
        assert _combine_oracles("Inconclusive", "Converges")[0] is I
        # the should-never-happen cross contradiction is surfaced, not hidden
        out, prov = _combine_oracles("Fail", "Diverges")
        assert out is I and prov == "cross-oracle-contradiction"


class TestTruncateShift:
    def test_trivia(self):
        M, x, _ = box_setup()
        u = GridFunction(M, x)
        assert np.all(truncate_shift(u, 2.0).values == 0.0)
        assert np.allclose(truncate_shift(u, 0.0).values, x)

    def test_membership_transport_across_profiles(self):
        # profile-comparison oracle (the f-independence machinery): if u is
        # dual(F_f)-subharmonic above level c and min g on [c, sup u] dominates
        # max gbar on [0, sup u - c], the truncation is dual(F_fbar)-subharmonic
        # where positive
        M = RadialModel.uniform(2, "sinh", 1.0, 8.0, 201)
        F = laplace(LIN, m=2)           # g(t) = t
        u, _ = perron_dirichlet(ProblemSpec(dual(F), M, {"inner": 0.0, "outer": 1.0}))
        c = 0.4
        u_inf = float(u.values.max())
        # gbar must satisfy min_{[c, u_inf]} g >= max_{[0, u_inf - c]} gbar
        slope_bar = c / (u_inf - c) * 0.9
        Fbar = laplace(Profile.linear(slope_bar), m=2)
        w = truncate_shift(u, c)
        H = union(dual(Fbar), below_zero_cap(2))
        # exclude a stencil width around the free boundary
        off = np.abs(u.values - c) > 3 * np.diff(u.values).max()
        cert = verify_subharmonic(H, w, M, region=off)
        assert cert.passed, cert.worst


class TestFalsificationSuite:
    def test_sinh_model_no_violation(self):
        M = RadialModel.uniform(2, "sinh", 1.0, 10.0, 151)
        F = laplace(LIN, m=2)
        verdicts, summary = ahlfors_falsification_suite(F, M, 1.0, seed=0)
        assert summary["fails"] == 0
        assert summary["holds"] >= 2  # the depressed-boundary solves at least
        # bump candidates exercise the certificate discipline
        assert summary["inconclusive"] >= 1

    def test_ahlfors_implies_liouville_on_witnesses(self):
        # every Liouville witness transforms into an Ahlfors violation on
        # U = X \ K (here: the exp(r^3) ODE witness); the boundary of U is
        # the inner rim only -- the outer grid rim stands for infinity on
        # the complete model
        v = stochastic_completeness("exp_r3", 2, 1.0, (0.1, 8.0))
        w = v.witness
        M = w.manifold
        U = np.ones(M.n_nodes, bool)
        U[0] = False
        bd = np.zeros(M.n_nodes, bool)
        bd[0] = True
        cand = truncate_shift(w, float(w.values[1]))
        h = np.diff(M.r).max()
        verdict = ahlfors_violation_check(dual(laplace(LIN, m=2)), U, cand,
                                          membership_tol=20 * h**2 + 1e-5,
                                          boundary_mask=bd)
        assert verdict.result is Outcome.FAILS
        assert verdict.witness is not None

    def _suite_with_solver(self, monkeypatch, solver):
        monkeypatch.setattr(subeq.properties, "perron_dirichlet", solver)
        M = RadialModel.uniform(2, "sinh", 1.0, 10.0, 51)
        return ahlfors_falsification_suite(laplace(LIN, m=2), M, 1.0, seed=0)

    def test_convergence_error_is_a_solver_error_verdict(self, monkeypatch):
        def stalls(spec):
            raise ConvergenceError("iteration budget exhausted")

        verdicts, summary = self._suite_with_solver(monkeypatch, stalls)
        assert summary == {"fails": 0, "holds": 0, "inconclusive": 2, "candidates": 2}
        for v in verdicts:
            assert (v.result, v.provenance) == (Outcome.INCONCLUSIVE, "solver-error")
            assert "iteration budget exhausted" in v.notes

    def test_programming_error_in_the_solver_propagates(self, monkeypatch):
        def broken(spec):
            return 1 / 0

        with pytest.raises(ZeroDivisionError):
            self._suite_with_solver(monkeypatch, broken)
