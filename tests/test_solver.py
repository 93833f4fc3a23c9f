"""Perron solver tests: analytic oracles, invariants, obstacle problems,
comparison checks, barriers, and engine equivalence."""
import json
import re

import numpy as np
import pytest

from subeq import _kernels as K
from subeq import cli, solver
from subeq.errors import ConvergenceError, InitializationError, InputError, PreconditionError
from subeq.jets import RadialView
from subeq.manifolds import (
    FlatBox,
    GridFunction,
    LineStencil,
    PuncturedEuclidean,
    RadialModel,
    batch_jets,
)
from subeq.profiles import AProfile, Profile
from subeq.solver import (
    ProblemSpec,
    comparison_check,
    STALL_STEPS,
    make_barrier,
    perron_dirichlet,
    solve_obstacle,
    verify_subharmonic,
)
from subeq.subequations import (
    JetEquivalence,
    apply_jet_equivalence,
    below_zero_cap,
    distance_to_boundary,
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
XI1 = Profile.table([-1.0, 0.0], [1.0, 0.0])  # the table xi of cli._catalog
RADIAL_41 = RadialModel.uniform(2, "sinh", 1.0, 3.0, 41)
BOX_8 = FlatBox(2, [(0.0, 1.0), (0.0, 1.0)], 1 / 8)


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
        # the presolve is exact: the verified start is accepted before any step
        assert cert.counts["sweeps"] == 0

    @pytest.mark.parametrize("M, bc", [
        (PuncturedEuclidean(3, 1.0, 2.0, 201), {"inner": 1.0, "outer": 0.0}),
        (FlatBox(1, [(0.0, 1.0)], 1 / 100), {"side": lambda x: x}),
        (RadialModel.uniform(2, "sinh", 1.0, 6.0, 101), {"inner": 0.0, "outer": -1.0}),
    ], ids=["punctured-log", "box-1d", "radial-sinh"])
    def test_presolve_exact_on_every_line_grid(self, M, bc):
        # the presolve rows and the sweep read one stencil, so the presolved
        # start is the discrete fixed point on every line-grid kind, accepted
        # before any step
        u, cert = perron_dirichlet(ProblemSpec(laplace(LIN, m=M.m), M, bc))
        assert cert.passed
        assert "presolve" in cert.params["init"]
        assert cert.counts["sweeps"] == 0

    def test_monotone_iterates_from_constant(self, monkeypatch):
        monkeypatch.setattr(solver, "_try_presolve", lambda *a: None)
        M = RadialModel.uniform(3, "euclidean", 1.0, 2.0, 81)
        spec = ProblemSpec(laplace(LIN, m=3), M, {"inner": 1.0, "outer": 0.0})
        u, cert = perron_dirichlet(spec)
        assert cert.params["init"] == "constant"
        assert cert.params["monotone_iterates"]
        assert cert.passed

    def test_uniqueness_across_initializations(self, monkeypatch):
        # strictly increasing f: two subsolution starts agree within 10*tol
        M = RadialModel.uniform(2, "sinh", 1.0, 6.0, 101)
        spec = ProblemSpec(laplace(LIN, m=2), M, {"inner": 0.0, "outer": -1.0})
        u2, c2 = perron_dirichlet(spec)
        monkeypatch.setattr(solver, "_try_presolve", lambda *a: None)
        u1, c1 = perron_dirichlet(spec)
        assert "presolve" in c2.params["init"] and c1.params["init"] == "constant"
        assert np.abs(u1.values - u2.values).max() <= 10 * c1.tolerance

    def test_infeasible_boundary_raises(self):
        # eikonal-coupled member with a jump the gradient bound cannot climb
        M = FlatBox(1, [(0.0, 1.0)], 1 / 20)
        F = intersect(laplace(LIN, m=1), eikonal(Profile.constant(0.01), m=1))
        with pytest.raises(InitializationError):
            perron_dirichlet(ProblemSpec(F, M, {"side": lambda x: 5.0 * x}))

    def test_nan_fixed_point_not_accepted(self, monkeypatch, tmp_path):
        # a defining function that returns NaN verifies no start: an
        # InitializationError, exit 3 from the CLI and no certificate
        F = laplace(LIN, m=3)
        monkeypatch.setattr(type(F), "_value", lambda self, J: np.full_like(J.r, np.nan))
        M = RadialModel.uniform(3, "euclidean", 1.0, 2.0, 11)
        with np.errstate(all="ignore"), pytest.raises(InitializationError):
            perron_dirichlet(ProblemSpec(F, M, {"inner": 1.0, "outer": 0.0}))
        scenario = tmp_path / "nan.json"
        scenario.write_text(json.dumps({
            "task": "dirichlet", "seed": 0,
            "manifold": {"kind": "radial", "m": 3, "warp": "euclidean", "r_lo": 1.0,
                         "r_hi": 2.0, "n": 11},
            "subequation": {"kind": "laplace", "f": {"kind": "linear", "slope": 1.0}},
            "params": {"boundary": {"inner": 1.0, "outer": 0.0}}}))
        with np.errstate(all="ignore"):
            code = cli.main(["run", str(scenario), "--out", str(tmp_path / "out"), "--no-plots"])
        assert code == 3 and not (tmp_path / "out" / "report.json").exists()

    def test_nan_after_a_finite_start_is_a_convergence_error(self, monkeypatch):
        # the start verifies with finite residuals, then every evaluation
        # in the steps is NaN: the solve ends in ConvergenceError
        F = laplace(LIN, m=3)
        value, calls = type(F)._value, []

        def nan_after_start(self, J):
            calls.append(1)
            return value(self, J) if len(calls) == 1 else np.full_like(J.r, np.nan)

        monkeypatch.setattr(type(F), "_value", nan_after_start)
        monkeypatch.setattr(solver, "_try_presolve", lambda *a: None)
        M = RadialModel.uniform(3, "euclidean", 1.0, 2.0, 11)
        with np.errstate(all="ignore"), pytest.raises(ConvergenceError):
            perron_dirichlet(ProblemSpec(F, M, {"inner": 1.0, "outer": 0.0}))
        assert len(calls) > 1

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

    @pytest.mark.parametrize("n", [401, 10001])
    @pytest.mark.parametrize("member", ["lambda_max", "dual_lambda_min", "dual_plurisub",
                                        "dual_sigma_1", "sigma_2"])
    def test_lambda_max_type_members_at_1e4_nodes(self, member, n):
        # near the solution d2 and aa agree to ~1e-4 (1 + |d2|) at every
        # node: the quotient bump must not straddle both branches of
        # max(d2, aa), or the steps are no longer Newton steps and stall
        F = {"lambda_max": hessian_branch(2, LIN, m=2),
             "dual_lambda_min": dual(hessian_branch(1, LIN, m=2)),
             "dual_plurisub": dual(plurisub_trace(1, LIN, m=2)),
             "dual_sigma_1": dual(sigma_branch(1, 2, LIN, m=2)),
             "sigma_2": sigma_branch(2, 2, LIN, m=2)}[member]
        M = RadialModel.uniform(2, "sinh", 1.0, 40.0, n)
        _, cert = perron_dirichlet(ProblemSpec(F, M, {"inner": 0.0, "outer": -1.0}))
        assert cert.passed and cert.params["engine"] == "numpy"
        assert cert.counts["sweeps"] <= 20

    def test_sweep_budget_error_reports_last_residual(self, monkeypatch):
        # the budget runs out before any step comes within conv_tol; the
        # error still reports the residual before the last step
        monkeypatch.setattr(solver, "_try_presolve", lambda *a: None)
        monkeypatch.setattr(solver, "MAX_STEPS", 1)
        M = RadialModel.uniform(2, "sinh", 1.0, 6.0, 101)
        with pytest.raises(ConvergenceError, match=r"MAX_STEPS = 1 steps taken at step 1 ") as err:
            perron_dirichlet(ProblemSpec(laplace(LIN, m=2), M, {"inner": 0.0, "outer": -1.0}))
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
    def test_line_engine_from_constant_init(self, monkeypatch):
        monkeypatch.setattr(solver, "_try_presolve", lambda *a: None)
        M = RadialModel.uniform(2, "sinh", 1.0, 6.0, 101)
        u, cert = perron_dirichlet(ProblemSpec(laplace(LIN, m=2), M, {"inner": 0.0, "outer": -1.0}))
        assert cert.params["init"] == "constant"
        assert cert.passed
        assert cert.params["engine"] == "numpy"

    @staticmethod
    def _presolve_matches(monkeypatch, M, bc):
        # the tree and its identity jet-equivalence both run the line
        # engine from the constant start; each reaches the tridiagonal
        # presolve's discrete solution
        F = laplace(LIN, m=M.m)
        ref = solver._try_presolve(F, M, solver.boundary_values(M, bc))
        monkeypatch.setattr(solver, "_try_presolve", lambda *a: None)
        for G in (F, _jetequiv(F)):
            u, cert = perron_dirichlet(ProblemSpec(G, M, bc))
            assert cert.params["init"] == "constant", G.meta.tag
            assert cert.passed and cert.params["engine"] == "numpy", G.meta.tag
            assert np.abs(u.values - ref).max() <= 10 * cert.tolerance, G.meta.tag

    def test_generic_engine_matches_line(self, monkeypatch):
        self._presolve_matches(monkeypatch, RadialModel.uniform(2, "sinh", 1.0, 6.0, 61),
                               {"inner": 0.0, "outer": -1.0})

    def test_generic_engine_matches_line_nonuniform(self, monkeypatch):
        # log spacing: the steps lag the first difference of one stencil
        self._presolve_matches(monkeypatch, PuncturedEuclidean(3, 1.0, 2.0, 21),
                               {"inner": 0.0, "outer": -1.0})

    def test_obstacle_matches_generic(self):
        # a Khas'minskii-stage obstacle: zero near the inner sphere, then a
        # ramp down to the outer boundary value; the tree and its identity
        # jet-equivalence reach the contact set and the solution of a dense
        # policy iteration on the same rows
        M = RadialModel.uniform(2, "sinh", 1.0, 4.0, 31)
        g = GridFunction(M, np.minimum(0.0, -np.clip(M.r - 2.0, 0.0, 1.0)))
        bc = {"inner": 0.0, "outer": -1.0}
        F = laplace(LIN, m=2)
        ref, contact = _obstacle_reference(M, 1.0, g.values, solver.boundary_values(M, bc))
        assert contact.any()
        for G in (F, _jetequiv(F)):
            u, cert = solve_obstacle(ProblemSpec(G, M, bc, obstacle=g))
            assert cert.passed and cert.params["engine"] == "numpy", G.meta.tag
            assert cert.counts["contact_nodes"] == contact.sum()
            assert np.abs(u.values - ref).max() <= 10 * cert.tolerance, G.meta.tag

    @pytest.mark.parametrize("outer", [1.0, -1.0])
    def test_mean_curvature_certified(self, outer):
        # the lagged |du| of the mean-curvature profile: a few dozen steps at most
        M = RadialModel.uniform(2, "sinh", 1.0, 3.0, 41)
        F = quasilinear(AProfile.mean_curvature(), LIN, m=2)
        _, cert = perron_dirichlet(ProblemSpec(F, M, {"inner": 0.0, "outer": outer}))
        assert cert.passed
        assert cert.params["engine"] == "numpy"
        assert cert.counts["sweeps"] <= 50

    @pytest.mark.parametrize("F, M, bc, engine", [
        (dual(eikonal(XI1, m=2)), RADIAL_41, {"inner": 0.0, "outer": 1.0}, "numpy"),
        (hessian_branch(2, LIN, m=2), RADIAL_41, {"inner": 0.0, "outer": 1.0}, "numpy"),
        (dual(eikonal(XI1, m=2)), BOX_8, {"side": lambda c: c[:, 0] * c[:, 1]}, "generic"),
    ], ids=["dual-eikonal", "lambda_max", "box-dual-eikonal"])
    def test_policy_failure_is_a_convergence_error(self, F, M, bc, engine):
        # a zero pivot, steps that stop lowering the residual or steps that
        # change nothing end the solve with a ConvergenceError naming the
        # engine, the step and the residual, long before the budget.  On
        # the box no row of the gradient-only member has a pivot at centred
        # jets, so no step changes anything
        with pytest.raises(ConvergenceError) as e:
            perron_dirichlet(ProblemSpec(F, M, bc))
        found = re.fullmatch(r"no convergence: .+ at step (\d+) \((\w+) engine, residual=\S+\)",
                             str(e.value))
        assert found and found.group(2) == engine
        assert int(found.group(1)) < 2 * STALL_STEPS

    @pytest.mark.parametrize("M, bc, kernel, step", [
        (RADIAL_41, {"inner": 0.0, "outer": 1.0}, "sweep_line_numpy", 17),
        (BOX_8, {"side": lambda c: c[:, 0] * c[:, 1]}, "step_box", 1),
    ], ids=["line", "box"])
    def test_unchanged_step_ends_the_solve(self, monkeypatch, M, bc, kernel, step):
        # a step is a function of u alone, so one that changes no node would
        # be repeated by every later step; the stall rule ended these
        # solves at steps 52 and 51
        real, changes = getattr(K, kernel), []

        def logged(*args):
            out = real(*args)
            changes.append(out[0])
            return out

        monkeypatch.setattr(K, kernel, logged)
        with pytest.raises(ConvergenceError,
                           match=rf"a step changed no node at step {step} "):
            perron_dirichlet(ProblemSpec(dual(eikonal(XI1, m=2)), M, bc))
        # the last step changed nothing, and every one before it did
        assert len(changes) == step and changes.index(0.0) == step - 1

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("member", ["lambda_min", "plurisub", "sigma_1"])
    def test_constant_f_min_members_certified(self, m, member):
        # min-type members with f' = 0 from the constant start: every row
        # starts at a tie, and rows where the angular branch is active have
        # no weight on the node value.  The solution is the parabola with
        # d2 = -1, which the three-point second difference reproduces, in
        # the 8 policy steps taken when every step solved every node.
        M = RadialModel.uniform(m, "sinh", 1.0, 3.0, 41)
        u, cert = perron_dirichlet(ProblemSpec(_min_member(m, member), M,
                                               {"inner": 0.0, "outer": 1.0}))
        assert cert.passed and cert.params["engine"] == "numpy"
        assert np.abs(u.values - (-0.5 * M.r**2 + 2.5 * M.r - 2.0)).max() <= 10 * cert.tolerance
        assert cert.counts["sweeps"] <= 8

    def test_line_step_is_a_function_of_u(self, monkeypatch):
        # no bracket widths or other state ride from one step to the next:
        # each policy step of a solve with weak rows, rerun from a copy of
        # the u it read with the loop state rebuilt from that copy, writes
        # the same bytes.  This solve stalls after 52 steps, each with node
        # solves
        real, node_solve, calls, node_solves = K.sweep_line_numpy, K.vector_node_solve, [], []

        def logged(u, *rest):
            u_in = u.copy()
            out = real(u, *rest)
            calls.append((u_in, rest, u.copy(), rest[5].copy(), rest[6][1].copy(), out))
            return out

        def counted(*args):
            node_solves.append(1)
            return node_solve(*args)

        monkeypatch.setattr(K, "sweep_line_numpy", logged)
        monkeypatch.setattr(K, "vector_node_solve", counted)
        M = RadialModel.uniform(2, "sinh", 1.0, 6.0, 401)
        F = dual(eikonal(XI1, m=2))
        assert not F.reads_grad_up  # the loop state holds the centred view
        with pytest.raises(ConvergenceError, match="at step 52 "):
            perron_dirichlet(ProblemSpec(F, M, {"inner": 0.0, "outer": -1.0}))
        assert len(calls) == len(node_solves) == 52
        for u_in, rest, u_out, res_out, G_out, out in calls:
            order, S, caps, value, _, res, _, gtol, veps = rest
            u, res = u_in.copy(), np.empty_like(res)

            def jets():
                return S.view(order, u[order - 1], u[order], u[order + 1])

            J = jets()
            at = [J, value(J)]
            assert real(u, order, S, caps, value, jets, res, at, gtol, veps) == out
            assert u.tobytes() == u_out.tobytes() and res.tobytes() == res_out.tobytes()
            assert at[1].tobytes() == G_out.tobytes()

    def test_line_engine_needs_a_lowered_tree(self):
        # every tree lowers: a jet-equivalence runs the line engine
        M = RadialModel.uniform(2, "sinh", 1.0, 3.0, 21)
        F = linear_jetequiv(np.eye(2), f=LIN)
        _, cert = perron_dirichlet(ProblemSpec(F, M, {"inner": 0.0, "outer": -1.0}))
        assert cert.passed and cert.params["engine"] == "numpy"

    @pytest.mark.parametrize("member", ["jetequiv", "intersect"])
    def test_jet_equivalences_take_policy_steps(self, member):
        # the dense radial-frame jet of a jet-equivalence, read by the
        # infinity Laplacian, in a few policy steps
        m = 3
        F = {"jetequiv": _jetequiv(inf_laplacian(0.0, m=m)),
             "intersect": intersect(inf_laplacian(0.0, m=m), linear_jetequiv(np.eye(m)))}[member]
        M = RadialModel.uniform(m, "sinh", 1.0, 3.0, 41)
        _, cert = perron_dirichlet(ProblemSpec(F, M, {"inner": 0.0, "outer": 1.0}))
        assert cert.passed and cert.params["engine"] == "numpy"
        assert cert.counts["sweeps"] <= 10

    def test_flatbox_2d_manufactured(self):
        # Delta u = u has solution e^x on any box
        M = FlatBox(2, [(0.0, 1.0), (0.0, 1.0)], 1 / 16)
        F = laplace(LIN, m=2)
        u, cert = perron_dirichlet(ProblemSpec(
            F, M, {"side": lambda c: np.exp(c[:, 0])}))
        assert cert.params["engine"] == "generic"
        exact = np.exp(M.coords[:, 0])
        assert np.abs(u.values - exact).max() <= 5e-3


def _trace_keys_documented(cert):
    """Every trace entry of a solver certificate is one residual check."""
    keys = {"sweep", "max_change", "residual"}
    return bool(cert.trace) and all(set(t) == keys for t in cert.trace)


def _jetequiv(F):
    """F's values through the identity jet-equivalence: the dense jets of
    the radial view, the same values."""
    return apply_jet_equivalence(JetEquivalence(F.m, np.eye(F.m), np.eye(F.m)), F)


def _obstacle_reference(M, slope, g, bvals):
    """Discrete obstacle solution of min(d2 + (m - 1) ang du - slope u, g - u) = 0
    on a line grid, by policy iteration with one dense solve per step:
    (u, contact mask)."""
    n, ids = M.n_nodes, M.interior_ids
    S = M.stencil.at(ids)
    w = (M.m - 1) * S.ang
    L = np.zeros((n, n))
    L[ids, ids - 1] = S.aL + w * S.wL
    L[ids, ids] = S.aC + w * S.wC - slope
    L[ids, ids + 1] = S.aR + w * S.wR
    contact = np.zeros(n, dtype=bool)
    for _ in range(n):
        rows = M.interior_mask & ~contact
        u = np.linalg.solve(np.where(rows[:, None], L, np.eye(n)),
                            np.where(rows, 0.0, np.where(contact, g, bvals)))
        new = M.interior_mask & (g - u < L @ u)
        if np.array_equal(new, contact):
            return u, contact
        contact = new
    raise AssertionError("the reference policy iteration did not settle")


def _five_point(M, slope, data, T=None):
    """Dense solve of the centred box rows tr(T A) = slope * u with boundary
    data; T = I (the default) gives the five-point rows, and the mixed
    entries of T the four diagonal neighbours."""
    ids = M.interior_ids
    T = np.eye(M.m) if T is None else T
    L = np.eye(M.n_nodes)
    rhs = data(M.coords)
    rhs[ids] = 0.0
    L[ids, ids] = -slope
    for a, (s, h) in enumerate(zip(M.strides, M.h)):
        L[ids, ids] -= 2.0 * T[a, a] / h**2
        L[ids, ids + s] = L[ids, ids - s] = T[a, a] / h**2
        for b in range(a + 1, M.m):
            w = T[a, b] / (2 * h * M.h[b])
            t = M.strides[b]
            L[ids, ids + s + t] = L[ids, ids - s - t] = w
            L[ids, ids + s - t] = L[ids, ids - s + t] = -w
    return np.linalg.solve(L, rhs)


def _min_member(m, member):
    """A min-type member with constant f = -1."""
    f = Profile.constant(-1.0)
    return {"lambda_min": hessian_branch(1, f, m=m), "plurisub": plurisub_trace(1, f, m=m),
            "sigma_1": sigma_branch(1, m, f, m=m)}[member]


def _exp_cos(c):
    return np.exp(c[:, 0]) * np.cos(c[:, 1])


def _xy(c):
    return c[:, 0] * c[:, 1]


def _bowl(c):
    return c[:, 0] ** 2 + c[:, 1] ** 2 / 2


def _xy_bowl(c):
    return c[:, 0] * c[:, 1] + c[:, 2] ** 2 / 2


class TestNodeSolve:
    def _batch(self):
        # G_i(v) = a (z - v) - c max(v - k, 0) + off: decreasing, with a kink
        # at k; kinds 0 up-pending, 1 down-pending, 2 capped below the root,
        # 3 infeasible everywhere (G = -1)
        rng = np.random.default_rng(8)
        n = 60
        kind = np.concatenate([np.arange(4), rng.integers(0, 4, n - 4)])
        inf = kind == 3
        a = np.where(inf, 0.0, rng.uniform(0.5, 3.0, n))
        c = np.where(inf, 0.0, rng.uniform(0.0, 2.0, n))
        z = rng.uniform(-5.0, 5.0, n)
        k = z + rng.uniform(-1.0, 1.0, n)
        off = np.where(inf, -1.0, 0.0)
        root = np.where(z <= k, z, (a * z + c * k) / np.where(inf, 1.0, a + c))
        gap = rng.uniform(0.1, 20.0, n)
        v0 = np.where(kind == 1, root + gap, root - gap)
        cap = np.where(kind == 2, v0 + rng.uniform(0.1, 0.9, n) * gap,
                       np.maximum(root, v0) + rng.uniform(1.0, 10.0, n))
        return kind, v0, cap, root, lambda v: a * (z - v) - c * np.maximum(v - k, 0.0) + off

    def test_mixed_batch_roots(self):
        kind, v0, cap, root, G = self._batch()
        v = K.vector_node_solve(G, v0, cap, np.full(v0.size, 0.5), 0.0, 1e-13)
        assert np.all(v <= cap)
        assert np.all((G(v) >= 0) | ((kind == 3) & (v == v0)))
        assert np.array_equal(v[kind == 3], v0[kind == 3])
        exact = np.minimum(root, cap)[kind != 3]
        assert np.abs(v[kind != 3] - exact).max() <= 1e-10 * (1 + np.abs(exact).max())

    def test_one_call_per_expansion(self):
        kind, v0, cap, root, G = self._batch()
        step0 = 0.5
        span = 1e9 * (1.0 + np.abs(v0))

        def expansions(i):  # one node on its own: the bracket steps it takes
            g1 = lambda v: G(np.full(v0.size, v))[i]
            up, x, step = g1(v0[i]) >= 0, v0[i], step0
            if up and x >= cap[i]:
                return 0
            for count in range(1, 200):
                if up:
                    x = min(x + step, cap[i], v0[i] + span[i])
                    if g1(x) < 0 or x >= cap[i] or x >= v0[i] + span[i]:
                        return count
                else:
                    x = max(x - step, v0[i] - span[i])
                    if g1(x) >= 0 or x <= v0[i] - span[i]:
                        return count
                step *= 4.0

        iters = [expansions(i) for i in range(v0.size)]
        calls = []

        def counted(v):
            calls.append(1)
            return G(v)

        # an infinite width tolerance ends the bisection after one call
        K.vector_node_solve(counted, v0, cap, np.full(v0.size, step0), 0.0, np.inf)
        assert max(iters) > 10
        assert len(calls) == 1 + max(iters) + 1


class TestWeakRowNodeSolves:
    """The line policy step runs node solves only for its weak rows."""

    def test_no_weak_row_no_node_solve(self, monkeypatch):
        # the Laplacian's rows all weigh the node value through d2
        def refuse(*args):
            raise AssertionError("node solve in a step without a weak row")

        monkeypatch.setattr(K, "vector_node_solve", refuse)
        monkeypatch.setattr(solver, "_try_presolve", lambda *a: None)
        M = RadialModel.uniform(2, "sinh", 1.0, 6.0, 101)
        _, cert = perron_dirichlet(ProblemSpec(laplace(LIN, m=2), M, {"inner": 0.0, "outer": -1.0}))
        assert cert.params["init"] == "constant"
        assert cert.passed and cert.params["engine"] == "numpy"
        assert cert.counts["sweeps"] > 0

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("member", ["lambda_min", "plurisub", "sigma_1"])
    def test_batches_are_the_weak_rows(self, monkeypatch, m, member):
        # with f constant a min member weighs the node value only through
        # d2, so a row is weak where the d2 quotient at the step's jets is 0
        F = _min_member(m, member)
        M = RadialModel.uniform(m, "sinh", 1.0, 3.0, 41)
        weak, batches = [], []
        sweep, node_solve = K.sweep_line_numpy, K.vector_node_solve

        def counted_sweep(u, order, S, caps, value, *rest):
            J = S.view(order, u[order - 1], u[order], u[order + 1], upwind=True)
            g_d2 = K._partials(value, J)[2]
            weak.append(int(np.count_nonzero(g_d2 == 0.0)))
            return sweep(u, order, S, caps, value, *rest)

        def counted_node_solve(G, v0, *rest):
            batches.append(v0.size)
            return node_solve(G, v0, *rest)

        monkeypatch.setattr(K, "sweep_line_numpy", counted_sweep)
        monkeypatch.setattr(K, "vector_node_solve", counted_node_solve)
        _, cert = perron_dirichlet(ProblemSpec(F, M, {"inner": 0.0, "outer": 1.0}))
        assert cert.passed
        assert any(weak) and not all(weak)
        assert batches == [k for k in weak if k]


def _thomas_by_index(lo, di, up, rhs):
    """The indexed recurrences that ``K.thomas`` runs over zipped and reversed lists."""
    lo, di, up, rhs = lo.tolist(), di.tolist(), up.tolist(), rhs.tolist()
    n = len(di)
    c, d = [0.0] * n, [0.0] * n
    c[0], d[0] = up[0] / di[0], rhs[0] / di[0]
    for i in range(1, n):
        denom = di[i] - lo[i] * c[i - 1]
        c[i] = up[i] / denom
        d[i] = (rhs[i] - lo[i] * d[i - 1]) / denom
    for i in range(n - 2, -1, -1):
        d[i] -= c[i] * d[i + 1]
    return np.array(d)


def _tridiagonal(n, seed):
    rng = np.random.default_rng(seed)
    lo, up = rng.uniform(-1.0, 1.0, (2, n))
    return lo, rng.uniform(2.5, 3.0, n), up, rng.normal(size=n)


class TestThomas:
    @pytest.mark.parametrize("n", [1, 2, 3, 200])
    def test_matches_dense_solve(self, n):
        lo, di, up, rhs = _tridiagonal(n, n)
        dense = np.diag(di) + np.diag(lo[1:], -1) + np.diag(up[:-1], 1)
        assert np.abs(K.thomas(lo, di, up, rhs) - np.linalg.solve(dense, rhs)).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 200, 2021])
    def test_matches_the_indexed_recurrences_bitwise(self, n):
        lo, di, up, rhs = _tridiagonal(n, n)
        rhs[::3] = -0.0  # signed zeros pass through the first row as they did
        lo[0] = up[-1] = np.nan
        assert K.thomas(lo, di, up, rhs).tobytes() == _thomas_by_index(lo, di, up, rhs).tobytes()

    def test_ends_of_the_band_are_ignored(self):
        lo, di, up, rhs = _tridiagonal(6, 0)
        x = K.thomas(lo, di, up, rhs)
        lo[0] = up[-1] = np.nan
        assert K.thomas(lo, di, up, rhs).tobytes() == x.tobytes()

    @pytest.mark.parametrize("row", [0, 2])
    def test_zero_pivot_raises(self, row):
        lo, di, up = np.zeros(3), np.ones(3), np.zeros(3)
        if row:  # pivot 1 - lo[2] up[1] / 1 = 0
            lo[2] = up[1] = 1.0
        else:
            di[0] = 0.0
        with pytest.raises(ZeroDivisionError):
            K.thomas(lo, di, up, np.ones(3))

    @pytest.mark.parametrize("cut", [1, 2, 57, 199])
    def test_elimination_continues_across_calls(self, cut):
        lo, di, up, rhs = _tridiagonal(200, cut)
        cs, ds = [], []
        K.eliminate(lo[:cut], di[:cut], up[:cut], rhs[:cut], cs, ds)
        K.eliminate(lo[cut:], di[cut:], up[cut:], rhs[cut:], cs, ds)
        assert K.back_substitute(cs, ds).tobytes() == K.thomas(lo, di, up, rhs).tobytes()


def _own_presolve(F, S, bvals):
    """``K.thomas`` on the presolve rows of F (laplace or inf_laplacian)
    that the stencil S of a grid gives: the rows ``_try_presolve`` solves,
    built on that grid alone."""
    n = S.hL.size
    lo, di, up, rhs = np.zeros(n), np.ones(n), np.zeros(n), np.zeros(n)
    rhs[0], rhs[-1] = bvals[0], bvals[-1]
    w = (S.m - 1) * S.ang[1:-1] if F.meta.tag.startswith("laplace") else 0.0
    lam = F.f.slope if F.f.kind == "linear" else 0.0
    lo[1:-1] = S.aL[1:-1] + w * S.wL[1:-1]
    di[1:-1] = S.aC[1:-1] + w * S.wC[1:-1] - lam
    up[1:-1] = S.aR[1:-1] + w * S.wR[1:-1]
    rhs[1:-1] = F.f.value if F.f.kind == "constant" else 0.0
    return K.thomas(lo, di, up, rhs)


def _line_grid(warp, m):
    if warp == "punctured":  # the log grid
        return PuncturedEuclidean(m, 0.5, 4.0, 301)
    return RadialModel.uniform(m, warp, *{"exp_r3": (0.5, 2.0)}.get(warp, (1.0, 6.0)), 301)


# the punctured model needs m >= 2
LINE_GRIDS = [(w, m) for w in ("sinh", "euclidean", "exp_r3", "punctured") for m in (1, 2, 3)
              if (w, m) != ("punctured", 1)]


class TestSharedPresolve:
    """Nested sub-ranges of one grid read its stencil rows and one forward
    elimination of their presolve; each presolve is ``K.thomas`` on the
    sub-grid's own freshly built rows, byte for byte."""

    @pytest.mark.parametrize("warp,m", LINE_GRIDS)
    @pytest.mark.parametrize("member", ["laplace-linear", "laplace-constant", "inf_laplacian"])
    def test_nested_presolves_match_thomas_on_own_rows(self, member, warp, m):
        M = _line_grid(warp, m)
        F = {"laplace-linear": laplace(Profile.linear(0.5), m=M.m),
             "laplace-constant": laplace(Profile.constant(-1.0), m=M.m),
             "inf_laplacian": inf_laplacian(0.0, m=M.m)}[member]
        rng = np.random.default_rng(M.m)
        r = M.r
        # radii in random order with repeats, the inner rim at the first node
        # and at a later one, and two inner values on one rim
        for lo_id, inner in [(0, 0.25), (0, -0.5), (7, -0.5)]:
            outer = rng.choice(np.arange(lo_id + 3, r.size), 12)
            for R in np.concatenate([outer, outer[:3]]):
                sub, ids = M.sub_range(r[lo_id], r[R])
                assert sub.root is M and sub.offset == lo_id
                own = LineStencil.on(sub.r, sub.m, sub.warp.ratio)
                assert sub.stencil.rows.tobytes() == own.rows.tobytes()
                bvals = solver.boundary_values(sub, {"inner": inner, "outer": 1.0})
                pre = solver._try_presolve(F, sub, bvals)
                assert pre.tobytes() == _own_presolve(F, own, bvals).tobytes()

    @pytest.mark.parametrize("lo_id,hi_id", [(5, 200), (0, 240), (5, 100), (30, 140)])
    def test_sub_range_of_a_sub_range(self, lo_id, hi_id):
        # members that differ in one scalar of the presolve each, in turn on one root
        M = RadialModel.uniform(2, "sinh", 1.0, 6.0, 301)
        mid, _ = M.sub_range(M.r[10], M.r[250])
        for F in (laplace(Profile.linear(0.5), m=2), laplace(Profile.linear(0.25), m=2),
                  laplace(Profile.constant(-1.0), m=2), laplace(Profile.constant(-2.0), m=2),
                  inf_laplacian(-2.0, m=2)):
            sub, ids = mid.sub_range(mid.r[lo_id], mid.r[hi_id])
            assert sub.root is M and sub.offset == 10 + lo_id
            assert np.array_equal(sub.r, mid.r[ids]) and np.array_equal(sub.r, M.r[10 + ids])
            own = LineStencil.on(sub.r, 2, sub.warp.ratio)
            assert sub.stencil.rows.tobytes() == own.rows.tobytes()
            bvals = solver.boundary_values(sub, {"inner": -1.0, "outer": 2.0})
            pre = solver._try_presolve(F, sub, bvals)
            assert pre.tobytes() == _own_presolve(F, own, bvals).tobytes()

    def test_one_forward_sweep_serves_every_sub_range(self, monkeypatch):
        M = RadialModel.uniform(2, "sinh", 1.0, 6.0, 301)
        F = inf_laplacian(0.0, m=2)
        rows = []
        real = K.eliminate

        def counting(lo, di, up, rhs, cs, ds):
            rows.append(di.size)
            return real(lo, di, up, rhs, cs, ds)

        monkeypatch.setattr(K, "eliminate", counting)
        for R in (3.0, 6.0, 2.0, 4.5, 6.0):
            sub, _ = M.sub_range(None, R)
            solver._try_presolve(F, sub, solver.boundary_values(sub, {"inner": 0.0, "outer": 1.0}))
        # the root's rows 0..299 once, and each presolve's own outer row
        assert sum(rows) == 300 + 5

    @pytest.mark.parametrize("fault", ["zero-pivot", "non-finite"])
    def test_faults_pass_through_as_in_thomas(self, fault):
        M = RadialModel.uniform(2, "sinh", 1.0, 3.0, 41)
        F = inf_laplacian(0.0, m=2)
        bc = {"inner": 0.0, "outer": 1.0}
        S = M.stencil
        k = 20  # the faulty root row
        if fault == "zero-pivot":  # aC[k] - aL[k] c[k - 1] = 0
            short, _ = M.sub_range(None, M.r[k])
            cs, ds = [], []
            b = solver.boundary_values(short, bc)
            lo, di, up = S.aL[:k].copy(), S.aC[:k].copy(), S.aR[:k].copy()
            lo[0], di[0], up[0] = 0.0, 1.0, 0.0
            K.eliminate(lo, di, up, np.r_[b[0], np.zeros(k - 1)], cs, ds)
            S.aC[k] = S.aL[k] * cs[-1]
        else:
            S.aL[k] = np.inf
        for R in (M.r[30], M.r[k + 1], M.r[10], M.r[40]):
            sub, _ = M.sub_range(None, R)
            bvals = solver.boundary_values(sub, bc)
            own = sub.stencil  # the faulty rows, sliced from the root
            try:
                want = _own_presolve(F, own, bvals)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    solver._try_presolve(F, sub, bvals)
                continue
            assert solver._try_presolve(F, sub, bvals).tobytes() == want.tobytes()
        if fault == "non-finite":
            assert not np.all(np.isfinite(want))


class TestBlockThomas:
    @pytest.mark.parametrize("k", [1, 3, 31])
    def test_matches_dense_solve(self, k):
        rng = np.random.default_rng(k)
        nb = 7
        lo, di, up = rng.uniform(-1.0, 1.0, (3, nb, k, k))
        di += np.eye(k) * 3 * k  # block rows diagonally dominant
        rhs = rng.normal(size=(nb, k))
        dense = np.zeros((nb * k, nb * k))
        for i in range(nb):
            dense[i * k:(i + 1) * k, i * k:(i + 1) * k] = di[i]
            if i:
                dense[i * k:(i + 1) * k, (i - 1) * k:i * k] = lo[i]
            if i < nb - 1:
                dense[i * k:(i + 1) * k, (i + 1) * k:(i + 2) * k] = up[i]
        x = K.block_thomas(lo, di, up, rhs)
        assert np.abs(x.ravel() - np.linalg.solve(dense, rhs.ravel())).max() <= 1e-12

    def test_scalar_blocks_match_thomas(self):
        rng = np.random.default_rng(0)
        n = 50
        lo, up = rng.uniform(-1.0, 1.0, (2, n))
        di = rng.uniform(2.5, 3.0, n)
        rhs = rng.normal(size=n)
        x = K.block_thomas(lo[:, None, None], di[:, None, None], up[:, None, None],
                           rhs[:, None])
        assert np.allclose(x[:, 0], K.thomas(lo, di, up, rhs), rtol=1e-13, atol=1e-15)


def _table_grids():
    return [RadialModel.uniform(2, "sinh", 1.0, 6.0, 201),
            PuncturedEuclidean(3, 0.01, 2.0, 201, spacing="log"),
            FlatBox(2, [(0.0, 1.0)] * 2, 1 / 8), FlatBox(2, [(0.0, 1.0)] * 2, 1 / 64),
            FlatBox(3, [(0.0, 1.0)] * 3, 1 / 8)]


TABLE_GRID_IDS = ["sinh", "log", "box2d-8", "box2d-64", "box3d-8"]


def _step_jets(M, u):
    """The Newton step's jet view of u on M and the table of its rows:
    the upwind line view and ``LineStencil.table``, or the centred box
    view and ``FlatBox.table``, with the node-id shifts of the table's
    columns."""
    ids = M.interior_ids
    if M.stencil is None:
        return batch_jets(GridFunction(M, u), ids)[1], M.table, M.shifts
    S = M.stencil.at(ids)
    J = S.view(ids, u[ids - 1], u[ids], u[ids + 1], upwind=True)
    return J, S.table(u[ids], u[ids - 1], u[ids + 1]), np.array([-1, 0, 1])


class TestSlopes:
    @pytest.mark.parametrize("M", _table_grids(), ids=TABLE_GRID_IDS)
    @pytest.mark.parametrize("f", [Profile.linear(1.0), Profile.constant(-1.0)],
                             ids=["linear", "constant"])
    def test_lowered_laplace_coefficients(self, M, f):
        # the Laplacian is affine in the jet: its partials in the view's
        # entries, (v, aa, d2, grad_up) on lines and (r, p, A_ab, a <= b) on
        # boxes, are its coefficients, at seeded jets whose second
        # differences reach ~3e7 on the log grid (a plain bump 1e-4 (1 + |x|)
        # was off by ~5e-6 there)
        u = np.random.default_rng(0).uniform(-1.0, 1.0, M.n_nodes)
        J, _, _ = _step_jets(M, u)
        got = K._partials(laplace(f, m=M.m)._value, J)
        slope = f.slope if f.kind == "linear" else 0.0
        a, b = np.triu_indices(M.m)
        want = ([-slope, M.m - 1, 1.0, 0.0] if M.stencil is not None
                else [-slope] + [0.0] * M.m + list(np.where(a == b, 1.0, 0.0)))
        assert got.shape == (len(want), M.interior_ids.size)
        for q, w in zip(got, want):
            assert np.abs(q - w).max() <= 1e-12


class TestStencilTables:
    @pytest.mark.parametrize("M", [g for g, i in zip(_table_grids(), TABLE_GRID_IDS)
                                   if i != "box2d-64"],
                             ids=[i for i in TABLE_GRID_IDS if i != "box2d-64"])
    def test_table_is_the_derivative_of_the_jet_writer(self, M):
        # rows(g, T) weighs each stencil node so that the row applied to u
        # is sum_e g_e entry_e(J): the table and the view state one
        # stencil, the upwind entry at its active branch
        rng = np.random.default_rng(3)
        u = rng.uniform(-1.0, 1.0, M.n_nodes)
        J, T, shifts = _step_jets(M, u)
        X, _ = J.entries()
        g = rng.normal(size=X.shape)
        W = K.rows(g, T)
        nbrs = u[M.interior_ids + shifts[:, None]]
        scale = (np.abs(W) * np.abs(nbrs)).sum(axis=0)
        assert np.all(np.abs((W * nbrs).sum(axis=0) - (g * X).sum(axis=0)) <= 1e-13 * scale)
        if M.stencil is not None:  # every branch of the upwind gradient is reached
            up = T[3]
            assert (up[0] != 0).any() and (up[2] != 0).any() and (up == 0).all(axis=0).any()
        else:  # the mixed entries weigh every diagonal neighbour
            assert (W[2 * M.m:-1] != 0).all()


class TestBoxNewton:
    @pytest.mark.parametrize("slope, data", [(1.0, lambda c: np.exp(c[:, 0])),
                                             (0.0, _exp_cos)], ids=["LIN", "harmonic"])
    def test_laplace_2d_is_the_five_point_solution(self, slope, data):
        M = FlatBox(2, [(0.0, 1.0), (0.0, 1.0)], 1 / 16)
        spec = ProblemSpec(laplace(Profile.linear(slope), m=2), M, {"side": data})
        u, cert = perron_dirichlet(spec)
        assert cert.passed and cert.params["engine"] == "generic"
        assert cert.counts["sweeps"] <= 3
        assert cert.params["monotone_iterates"]
        assert _trace_keys_documented(cert)
        assert np.abs(u.values - _five_point(M, slope, data)).max() <= 10 * spec.conv_tol()

    def test_laplace_3d_slab_blocks(self):
        M = FlatBox(3, [(0.0, 1.0)] * 3, 1 / 8)
        spec = ProblemSpec(laplace(ZERO, m=3), M, {"side": _exp_cos})
        u, cert = perron_dirichlet(spec)
        assert cert.passed and cert.counts["sweeps"] <= 3
        assert np.abs(u.values - _five_point(M, 0.0, _exp_cos)).max() <= 10 * spec.conv_tol()

    @pytest.mark.parametrize("T", [[[1.0, 0.3], [0.3, 0.8]],
                                   [[1.0, 0.2, -0.1], [0.2, 0.9, 0.3], [-0.1, 0.3, 1.2]]],
                             ids=["2d", "3d"])
    def test_mixed_weights_are_the_nine_point_rows(self, T):
        # a linear operator with mixed second derivatives: one Newton step
        # lands on the dense solution of the same rows
        T = np.array(T)
        M = FlatBox(T.shape[0], [(0.0, 1.0)] * T.shape[0], 1 / 8)
        spec = ProblemSpec(linear_jetequiv(T), M, {"side": _exp_cos})
        u, cert = perron_dirichlet(spec)
        assert cert.passed and cert.counts["sweeps"] <= 3
        assert np.abs(u.values - _five_point(M, 0.0, _exp_cos, T)).max() <= 10 * spec.conv_tol()

    def test_obstacle_2d(self):
        # a bowl dipping below the zero harmonic extension: contact near the centre
        M = FlatBox(2, [(0.0, 1.0), (0.0, 1.0)], 1 / 16)
        g = GridFunction.from_callable(M, lambda c: ((c - 0.5) ** 2).sum(axis=1) - 0.2)
        u, cert = solve_obstacle(ProblemSpec(laplace(ZERO, m=2), M, {"side": 0.0}, obstacle=g))
        assert cert.passed and cert.params["engine"] == "generic"
        assert cert.worst["complementarity"] <= 1e-8
        assert np.all(u.values <= g.values + 1e-12)
        assert cert.counts["contact_nodes"] > 0
        assert _trace_keys_documented(cert)

    def test_mixed_derivative_rows_take_newton_steps(self):
        # lambda_max of the Hessian with x*y data: the rows carry the
        # mixed-derivative weights and the Newton steps finish the solve
        M = FlatBox(2, [(0.0, 1.0), (0.0, 1.0)], 1 / 8)
        spec = ProblemSpec(hessian_branch(2, Profile.constant(0.0), m=2), M,
                           {"side": lambda c: c[:, 0] * c[:, 1]})
        u, cert = perron_dirichlet(spec)
        assert cert.passed and cert.params["engine"] == "generic"
        assert cert.counts["sweeps"] <= 10
        assert _trace_keys_documented(cert)

    def test_step_at_the_roundoff_floor_keeps_its_first_trial(self):
        # at the discrete solution the update is at the float spacing of u
        # and max |R| at its roundoff value, which the first trial does not
        # raise: it is kept, one evaluation after the quotients
        M = FlatBox(2, [(0.0, 1.0), (0.0, 1.0)], 1 / 8)
        F = laplace(ZERO, m=2)
        sol, _ = perron_dirichlet(ProblemSpec(F, M, {"side": _exp_cos}))
        ids, gf = M.interior_ids, GridFunction(M, sol.values.copy())
        _, J = batch_jets(gf, ids)
        calls = []

        def value(J):
            calls.append(1)
            return F._value(J)

        K._partials(value, J)
        quotients = len(calls)
        at, res = [J, F._value(J)], np.empty(ids.size)
        calls.clear()
        out = K.step_box(gf.values, ids, M, np.full(M.n_nodes, np.inf), value,
                         lambda: batch_jets(gf, ids)[1], res, at)
        assert 0.0 < np.abs(res).max() <= 1e-12
        assert out[0] <= 1e-15
        assert len(calls) == quotients + 1

    def test_oversized_blocks_are_an_input_error(self, monkeypatch):
        monkeypatch.setattr(K, "MAX_BLOCK_FLOATS", 10)
        M = FlatBox(2, [(0.0, 1.0), (0.0, 1.0)], 1 / 8)
        spec = ProblemSpec(laplace(ZERO, m=2), M, {"side": _exp_cos})
        with pytest.raises(InputError, match=r"slabs of 7 nodes .*MAX_BLOCK_FLOATS = 10"):
            perron_dirichlet(spec)

    @pytest.mark.parametrize("F, data, m, n", [
        (hessian_branch(2, ZERO, m=2), _xy, 2, 16),
        (sigma_branch(2, 2, ZERO, m=2), _xy, 2, 8),
        (sigma_branch(2, 2, ZERO, m=2), _xy, 2, 16),
        (dual(hessian_branch(1, ZERO, m=2)), _xy, 2, 16),
        (inf_laplacian(0.0, m=2), _bowl, 2, 8),
        (inf_laplacian(0.0, m=2), _bowl, 2, 32),
        (hessian_branch(2, ZERO, m=2), _bowl, 2, 32),
        (sigma_branch(2, 3, ZERO, m=3), _xy_bowl, 3, 8),
    ], ids=["lambda_max-xy-16", "sigma_2-xy-8", "sigma_2-xy-16", "dual_lambda_min-xy-16",
            "inf_laplacian-8", "inf_laplacian-32", "lambda_max-quadratic-32", "middle-3d-8"])
    def test_nonlinear_rows_take_newton_steps(self, F, data, m, n):
        # rows with mixed-derivative or gradient-dependent weights: the
        # halving of each update keeps the worst residual falling.  In 3-D
        # the constant start ties all three eigenvalues, the quotients give
        # the middle branch no pivot there, and those rows sit out the step
        # until their neighbours break the tie
        M = FlatBox(m, [(0.0, 1.0)] * m, 1 / n)
        _, cert = perron_dirichlet(ProblemSpec(F, M, {"side": data}))
        assert cert.passed and cert.params["engine"] == "generic"
        assert cert.counts["sweeps"] <= 25
        assert _trace_keys_documented(cert)


class TestBoxPresolve:
    """The Laplacian with linear or constant f on a box is solved directly
    from its cross-stencil rows, verified as the presolve and accepted at
    the loop's start check: the solve takes no Newton step."""

    @staticmethod
    def _both_starts(monkeypatch, spec):
        """The presolved solve and the Newton solve from the constant start."""
        u, cert = perron_dirichlet(spec)
        assert cert.passed and cert.params["engine"] == "generic"
        assert cert.params["init"] == "presolve" and cert.counts["sweeps"] == 0
        assert _trace_keys_documented(cert)
        with monkeypatch.context() as mp:
            mp.setattr(solver, "_try_presolve", lambda *a: None)
            newton, c2 = perron_dirichlet(spec)
        assert c2.passed and c2.params["init"] == "constant" and c2.counts["sweeps"] > 0
        assert np.abs(u.values - newton.values).max() <= 1e-12 * (1.0 + np.abs(u.values).max())
        return u, cert

    @pytest.mark.parametrize("f", [ZERO, LIN, Profile.constant(-1.0)],
                             ids=["slope-0", "slope-1", "constant"])
    @pytest.mark.parametrize("m, n", [(2, 16), (3, 8)], ids=["2d", "3d"])
    def test_affine_members_take_no_step(self, monkeypatch, f, m, n):
        M = FlatBox(m, [(0.0, 1.0)] * m, 1 / n)
        self._both_starts(monkeypatch, ProblemSpec(laplace(f, m=m), M, {"side": _exp_cos}))

    @pytest.mark.parametrize("a", [1.0, 0.8, 1.2])
    def test_harmonic_exponential_on_the_unit_square(self, monkeypatch, a):
        # Laplace with f = 0 on [0, 1]^2 at h = 1/32 with data e^{ax} cos(ay),
        # within the discrete maximum principle's bound of the exact solution
        M = FlatBox(2, [(0.0, 1.0), (0.0, 1.0)], 1 / 32)

        def exact(c):
            return np.exp(a * c[:, 0]) * np.cos(a * c[:, 1])

        spec = ProblemSpec(laplace(ZERO, m=2), M, {"side": exact})
        u, _ = self._both_starts(monkeypatch, spec)
        bound = M.h.max() ** 2 * a**4 * np.exp(a) / 48 + 10 * spec.membership_tol()
        assert np.abs(u.values - exact(M.coords)).max() <= bound

    @pytest.mark.parametrize("F", [hessian_branch(2, ZERO, m=2), inf_laplacian(0.0, m=2),
                                   sigma_branch(2, 2, ZERO, m=2),
                                   laplace(Profile.table([0.0, 1.0], [0.0, 1.0]), m=2)],
                             ids=["lambda_max", "inf_laplacian", "sigma_2", "laplace-table"])
    def test_other_members_get_no_presolve(self, F):
        assert solver._try_presolve(F, BOX_8, solver.boundary_values(BOX_8, {"side": _xy})) is None


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


def _line_dirichlet():
    M = RadialModel.uniform(2, "sinh", 1.0, 6.0, 101)
    return ProblemSpec(laplace(LIN, m=2), M, {"inner": 0.0, "outer": -1.0})


def _line_jetequiv():
    M = RadialModel.uniform(2, "sinh", 1.0, 4.0, 61)
    F = linear_jetequiv([[2.0, 0.3], [0.3, 1.0]], [0.2, -0.1], 0.5, 2.0, f=LIN)
    return ProblemSpec(F, M, {"inner": 0.0, "outer": -1.0})


def _box_newton():
    M = FlatBox(2, [(0.0, 1.0), (0.0, 1.0)], 1 / 16)
    return ProblemSpec(laplace(LIN, m=2), M, {"side": lambda c: np.exp(c[:, 0])})


def _line_obstacle():
    M = RadialModel.uniform(2, "sinh", 1.0, 4.0, 31)
    g = GridFunction(M, np.minimum(0.0, -np.clip(M.r - 2.0, 0.0, 1.0)))
    return ProblemSpec(laplace(LIN, m=2), M, {"inner": 0.0, "outer": -1.0}, obstacle=g)


def _box_obstacle():
    M = FlatBox(1, [(0.0, 1.0)], 1 / 400)
    g = GridFunction(M, 0.2 * np.sin(6 * M.coords[:, 0]) + 0.1)
    return ProblemSpec(hessian_branch(1, ZERO, m=1), M, {"side": -0.1}, obstacle=g)


def _capacitor():
    M = RadialModel.uniform(2, "sinh", 1.0, 5.0, 161)
    return ProblemSpec(inf_laplacian(0.0, m=2), M, {"inner": 0.0, "outer": 1.0})


def _merged_start():
    # u'' = u with data 1/1: the presolve dips to ~0.887, below the
    # warmest constant 1 - 0.02 but above the fourth rung 1 - 0.16
    M = FlatBox(1, [(0.0, 1.0)], 1 / 100)
    return ProblemSpec(laplace(LIN, m=1), M, {"side": 1.0})


# (spec, engine the solve must run)
CERT_CASES = {
    "line-dirichlet": (_line_dirichlet, "numpy"),
    "line-capacitor": (_capacitor, "numpy"),  # accepted at its start
    "line-merged-start": (_merged_start, "numpy"),  # accepted at the presolve
    "line-jetequiv": (_line_jetequiv, "numpy"),
    "box-newton": (_box_newton, "generic"),
    "line-obstacle": (_line_obstacle, "numpy"),
    "box-1d-obstacle": (_box_obstacle, "numpy"),
}


def _residual(spec, u):
    """Interior node ids and the scheme residual of the grid function u
    there, computed afresh: the tree at the upwind stencil views on grids
    with a line stencil, at centred jets on boxes.  The oracle of the
    residual that the loop's acceptance check reads and the certificate
    takes."""
    M = spec.M
    if M.stencil is None:
        J, res = solver._interior_residual(spec.F, u)
        return J.x, res
    ids, v = M.interior_ids, u.values
    J = M.stencil.at(ids).view(ids, v[ids - 1], v[ids], v[ids + 1], upwind=True)
    return ids, spec.F._value(J)


def _recertify(spec, u, cert):
    """The certificate of u alone, both residuals computed afresh, with the
    iteration facts the solve reported."""
    M = spec.M
    caps = np.full(M.n_nodes, np.inf) if spec.obstacle is None else spec.obstacle.values
    facts = {"sweeps": cert.counts["sweeps"], "engine": cert.params["engine"],
             "init": cert.params["init"], "trace": cert.trace,
             "min_signed_change": 0.0 if cert.params["monotone_iterates"] else -1.0}
    gf = GridFunction(M, u)
    return solver._certificate(spec, u, caps, solver._interior_residual(spec.F, gf)[1],
                               _residual(spec, gf)[1], facts)


class TestCertificate:
    @pytest.mark.parametrize("case", CERT_CASES)
    def test_recomputed_from_u(self, case):
        make, engine = CERT_CASES[case]
        spec = make()
        u, cert = perron_dirichlet(spec)
        assert cert.params["engine"] == engine
        assert _trace_keys_documented(cert)
        again = _recertify(spec, u.values.copy(), cert)
        assert again.passed is cert.passed is True
        assert repr(again.worst) == repr(cert.worst)  # bit for bit, -0.0 included
        assert again.counts == cert.counts and again.params == cert.params
        assert list(again.residuals) == list(cert.residuals)
        for key, arr in cert.residuals.items():
            assert again.residuals[key].tobytes() == arr.tobytes(), key

    @pytest.mark.parametrize("case", ["line-dirichlet", "line-obstacle"])
    def test_one_raised_node_fails(self, case):
        spec = CERT_CASES[case][0]()
        u, cert = perron_dirichlet(spec)
        ids = spec.M.interior_ids
        if spec.obstacle is None:
            node = ids[ids.size // 2]
        else:  # the free node farthest below the obstacle
            node = ids[np.argmax(cert.residuals["obstacle_gap"])]
            assert cert.residuals["obstacle_gap"].max() > 1e-3
        bumped = u.values.copy()
        bumped[node] += 1e-6
        assert cert.passed
        assert not _recertify(spec, bumped, cert).passed

    def test_dirichlet_keys(self):
        _, cert = perron_dirichlet(_line_dirichlet())
        assert cert.name == "perron_dirichlet"
        assert list(cert.worst) == ["harmonicity", "membership", "dual_membership"]
        assert list(cert.counts) == ["interior_nodes", "sweeps"]
        assert list(cert.params) == ["engine", "init", "comparison_regime",
                                     "monotone_iterates", "conv_tol"]
        assert list(cert.residuals) == ["membership", "dual"]

    def test_obstacle_keys(self):
        _, cert = solve_obstacle(_line_obstacle())
        assert cert.name == "solve_obstacle"
        assert list(cert.worst) == ["harmonicity_off_contact", "membership",
                                    "dual_off_contact", "complementarity",
                                    "max_over_obstacle"]
        assert list(cert.counts) == ["interior_nodes", "contact_nodes", "sweeps"]
        assert list(cert.params) == ["engine", "init", "comparison_regime",
                                     "monotone_iterates"]
        assert list(cert.residuals) == ["membership", "obstacle_gap", "complementarity"]


class TestVerifiedStart:
    """The loop checks its verified start before any step."""

    def test_zero_step_solve_returns_the_presolve(self):
        spec = _capacitor()
        M = spec.M
        bvals = solver.boundary_values(M, spec.boundary)
        pre = solver._try_presolve(spec.F, M, bvals)
        pre[~M.interior_mask] = bvals[~M.interior_mask]
        u, cert = perron_dirichlet(spec)
        assert u.values.tobytes() == pre.tobytes()
        assert cert.passed and cert.counts["sweeps"] == 0
        assert cert.params["init"] == "presolve"
        assert cert.params["monotone_iterates"] is True
        [entry] = cert.trace
        assert entry["sweep"] == 0 and entry["max_change"] == 0.0
        assert entry["residual"] <= 0.45 * spec.membership_tol()

    @pytest.mark.parametrize("make", [
        lambda: ProblemSpec(laplace(LIN, m=3), RadialModel.uniform(3, "euclidean", 1.0, 2.0, 81),
                            {"inner": 1.0, "outer": 0.0}),
        _box_newton,
    ], ids=["line", "box"])
    def test_start_outside_the_band_then_steps(self, monkeypatch, make):
        # from the constant start both solves take the 2 steps they took
        # when the loop checked only after a step
        monkeypatch.setattr(solver, "_try_presolve", lambda *a: None)
        spec = make()
        _, cert = perron_dirichlet(spec)
        assert cert.passed and cert.params["init"] == "constant"
        assert cert.counts["sweeps"] == 2
        assert [t["sweep"] for t in cert.trace] == [0, 2]
        assert cert.trace[0]["max_change"] == 0.0
        assert cert.trace[0]["residual"] > 0.45 * spec.membership_tol()

    def test_capacitor_start_is_one_admissibility_check(self, monkeypatch):
        spec = _capacitor()
        M = spec.M
        calls = []
        check = solver._interior_residual

        def counted(*args):
            calls.append(1)
            return check(*args)

        monkeypatch.setattr(solver, "_interior_residual", counted)
        caps = np.full(M.n_nodes, np.inf)
        _, label, _ = solver._initial_subsolution(
            spec, solver.boundary_values(M, spec.boundary), caps)
        assert label == "presolve"
        assert len(calls) == 1

    def test_presolve_below_the_warmest_constant_keeps_the_max(self, monkeypatch):
        # the ladder checks the three rungs above the presolve's minimum and
        # ends at the first one below it: the max with that rung, or any
        # later one, is the presolve
        spec = _merged_start()
        M = spec.M
        pre = solver._try_presolve(spec.F, M, solver.boundary_values(M, spec.boundary))
        assert 1.0 - 0.16 <= pre.min() < 1.0 - 0.02
        calls = []
        check = solver._interior_residual

        def counted(*args):
            calls.append(1)
            return check(*args)

        monkeypatch.setattr(solver, "_interior_residual", counted)
        u, cert = perron_dirichlet(spec)
        assert cert.passed
        assert cert.params["init"] == "presolve"
        assert cert.counts["sweeps"] == 0
        assert len(calls) == 4  # the presolve and three failing constants

    def test_box_check_reads_the_scheme_residual(self, monkeypatch):
        # the check reads the G that the box step keeps for the current u:
        # at the start, and at the trial each step keeps; from the constant
        # start, as the presolve would be accepted with no step
        monkeypatch.setattr(solver, "_try_presolve", lambda *a: None)
        spec = _box_newton()
        step_box, steps = K.step_box, []

        def checked(u, ids, M, caps, value, jets, res, at):
            def current():
                S = _residual(spec, GridFunction(M, u.copy()))[1]
                return at[1].tobytes() == S.tobytes()

            assert current()
            out = step_box(u, ids, M, caps, value, jets, res, at)
            assert current()
            steps.append(out)
            return out

        monkeypatch.setattr(K, "step_box", checked)
        _, cert = perron_dirichlet(spec)
        assert cert.passed and cert.params["engine"] == "generic"
        assert len(steps) == cert.counts["sweeps"] > 0


def _value_calls(monkeypatch, spec):
    """Solve spec, counting the evaluations of its defining function (the
    member's ``_value``, the quotients of the steps included).  Returns
    the certificate and the counts: "all"; "start", those made while the
    start is chosen; "between", those made in the loop but in no step
    (its start check and the checks after steps); and "after_loop",
    those made after the last step."""
    n = {"all": 0, "between": 0}
    kind = type(spec.F)
    value, init = kind._value, solver._initial_subsolution

    def counted(self, J):
        n["all"] += 1
        return value(self, J)

    def marked(key, f):
        def call(*args):
            if key == "step":  # made since the start or the last step
                n["between"] += n["all"] - n["mark"]
            out = f(*args)
            n[key] = n["mark"] = n["all"]
            return out
        return call

    monkeypatch.setattr(kind, "_value", counted)
    monkeypatch.setattr(solver, "_initial_subsolution", marked("start", init))
    for name in ("sweep_line_numpy", "step_box"):
        monkeypatch.setattr(K, name, marked("step", getattr(K, name)))
    _, cert = perron_dirichlet(spec)
    assert cert.passed
    n["after_loop"] = n["all"] - n["mark"]
    return cert, n


def _eikonal_union():
    # a member whose scheme reads the upwind gradient, certified in 16 steps
    M = RadialModel.uniform(2, "euclidean", 1.0, 2.0, 41)
    return ProblemSpec(union(laplace(LIN, m=2), eikonal(3.0, m=2)), M,
                       {"inner": 0.0, "outer": 1.0})


class TestResidualEvaluations:
    """One evaluation per iterate: the loop's check reads the G that the
    start's verification or the last step computed, and the certificate
    reads the residuals the solve computed."""

    def test_zero_step_solve_evaluates_once(self, monkeypatch):
        # the admissibility check of the start is the only evaluation
        cert, n = _value_calls(monkeypatch, _capacitor())
        assert cert.counts["sweeps"] == 0
        assert n["all"] == n["start"] == 1

    def test_stepped_line_solve_evaluates_nothing_outside_its_steps(self, monkeypatch):
        # from the constant start: the presolve would be accepted with no step
        monkeypatch.setattr(solver, "_try_presolve", lambda *a: None)
        spec = _line_dirichlet()
        assert not spec.F.reads_grad_up
        cert, n = _value_calls(monkeypatch, spec)
        assert cert.counts["sweeps"] > 0 and len(cert.trace) > 1
        assert n["between"] == n["after_loop"] == 0

    def test_eikonal_line_solve_adds_one_centred_evaluation(self, monkeypatch):
        # the scheme reads the upwind gradient: the loop evaluates its start
        # at the upwind view once, and the centred residual of the returned
        # u once after the loop
        spec = _eikonal_union()
        assert spec.F.reads_grad_up
        cert, n = _value_calls(monkeypatch, spec)
        assert cert.counts["sweeps"] > 0
        assert n["between"] == n["after_loop"] == 1

    def test_box_solve_evaluates_nothing_after_the_loop(self, monkeypatch):
        # from the constant start: the presolve would be accepted with no step
        monkeypatch.setattr(solver, "_try_presolve", lambda *a: None)
        cert, n = _value_calls(monkeypatch, _box_newton())
        assert cert.counts["sweeps"] > 0
        assert n["between"] == n["after_loop"] == 0

    def test_box_loop_takes_the_start_residual(self, monkeypatch):
        # the jets and G that verified the start are the first step's: after
        # the start is chosen, the first jets and tree evaluation are inside
        # a step.  From the constant start: the presolve would be accepted
        # with no step
        monkeypatch.setattr(solver, "_try_presolve", lambda *a: None)
        spec = _box_newton()
        events = []
        kind = type(spec.F)
        value, jets = kind._value, solver.batch_jets
        init, step_box = solver._initial_subsolution, K.step_box

        def called(key, f):
            def call(*args):
                events.append(key)
                return f(*args)
            return call

        def returned(key, f):
            def call(*args):
                out = f(*args)
                events.append(key)
                return out
            return call

        monkeypatch.setattr(kind, "_value", called("value", value))
        monkeypatch.setattr(solver, "batch_jets", called("jets", jets))
        monkeypatch.setattr(solver, "_initial_subsolution", returned("start", init))
        monkeypatch.setattr(K, "step_box", called("step", step_box))
        _, cert = perron_dirichlet(spec)
        assert cert.passed and cert.counts["sweeps"] == 2
        loop = events[events.index("start") + 1:]
        assert loop[0] == "step"
        assert events.count("value") == 33  # 34 when the loop evaluated its start again
        # one jet batch per trial, and each step kept its first trial: 3
        # when the loop built its start's jets again
        assert loop.count("jets") == cert.counts["sweeps"] == 2


class TestCentredResidual:
    """The centred residual reads the grid's jet view; the dense evaluation
    of the same jets, through ``Subequation.value``, is its oracle.  The
    scheme residual reads the same ``LineStencil.view`` with the upwind
    gradient, so the two are one array for every member that does not
    read ``grad_up`` (``Subequation.reads_grad_up``)."""

    @pytest.mark.parametrize("grid, m", [("sinh", m) for m in range(1, 6)] + [("box", 1)])
    def test_view_matches_dense_evaluation(self, grid, m):
        if grid == "sinh":
            M = RadialModel.uniform(m, "sinh", 1.0, 3.0, 41)
        else:
            M = FlatBox(1, [(0.0, 1.0)], 1 / 40)
        u = GridFunction(M, np.random.default_rng(m).standard_normal(M.n_nodes))
        lap, eik = laplace(LIN, m=m), eikonal(XI1, m=m)
        for F in cli._catalog(m) + [intersect(lap, eik), union(lap, eik), _jetequiv(eik)]:
            for G in (F, F.dual()):
                J, res = solver._interior_residual(G, u)
                assert isinstance(J, RadialView)
                assert J.x.tobytes() == M.interior_ids.tobytes()
                dense = G.value(J.x, J.r, J.p, J.A)
                assert np.all(np.abs(res - dense) <= 1e-12 * (1.0 + np.abs(dense))), G
                scheme = _residual(ProblemSpec(G, M, {}), u)[1]
                assert (scheme.tobytes() == res.tobytes()) == (not G.reads_grad_up), G


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


def _collar(M, boundary_ids):
    bc = M.coords[boundary_ids]
    dist = np.min(np.linalg.norm(M.coords[:, None, :] - bc[None, :, :], axis=2), axis=1)
    return np.where(M.interior_mask & (dist <= 4.0 * M.min_spacing()))[0]


def _barrier_reference(F, M, boundary_ids, rho, margin=solver.BARRIER_MARGIN,
                       s_grid=(0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
                       t_grid=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)):
    """make_barrier's search with one-jet calls, node by node along the collar;
    returns (ok, s, t, margin, certificate worst)."""
    ids = _collar(M, boundary_ids)

    def certify(vals):
        _, J = batch_jets(GridFunction(M, vals), ids)
        r, p, A = J.r, J.p, J.A
        if np.any(np.linalg.norm(p, axis=1) < 1e-12):
            return False, 0.0
        worst = np.inf
        for i in range(ids.size):
            jet = (int(ids[i]), r[i], p[i], A[i])
            if F.value(*jet)[0] <= 0:
                return False, min(worst, 0.0)
            d = distance_to_boundary(F, *jet).value[0]
            worst = min(worst, d)
            if d < margin:
                return False, worst
        return True, worst

    rv = rho.values
    best = -np.inf
    for s in s_grid:
        rs = rv + s * rv**2
        for t in t_grid:
            ok, worst = True, np.inf
            for scale in (1.0, 4.0, 16.0, 64.0):
                ok_t, w_t = certify(t * scale * rs)
                worst = min(worst, w_t)
                if not ok_t:
                    ok = False
                    break
            best = max(best, worst if np.isfinite(worst) else margin)
            if ok:
                return True, s, t, worst, worst
    return False, np.nan, np.nan, best, best


def _barrier_summary(res):
    return res.ok, res.s, res.t, res.margin, next(iter(res.certificate.worst.values()))


class TestBarriers:
    def test_batched_certificate_matches_node_loop(self):
        M = RadialModel.uniform(3, "euclidean", 1.0, 3.0, 201)
        rho = GridFunction(M, np.exp(-4.0 * M.r) - np.exp(-4.0 * M.r[0]))
        res = make_barrier(laplace(ZERO, m=3), M, np.ones(M.n_nodes, bool), np.array([0]), rho)
        assert res.ok
        np.testing.assert_equal(_barrier_summary(res),
                                _barrier_reference(laplace(ZERO, m=3), M, np.array([0]), rho))

        M = RadialModel.uniform(3, "euclidean", 1.0, 3.0, 121)
        rho = GridFunction(M, M.r[0] - M.r)
        res = make_barrier(eikonal(1.0, m=3), M, np.ones(M.n_nodes, bool), np.array([0]), rho)
        assert not res.ok
        np.testing.assert_equal(_barrier_summary(res),
                                _barrier_reference(eikonal(1.0, m=3), M, np.array([0]), rho))

    def test_first_failing_node_bounds_the_worst_distance(self):
        # the collar distances fall with r, so a margin between those of the
        # first two collar nodes fails the scan at the second, and the
        # rung's worst is its distance, not the smaller ones beyond it
        F = laplace(ZERO, m=3)
        M = RadialModel.uniform(3, "euclidean", 1.0, 3.0, 201)
        rho = GridFunction(M, np.exp(-4.0 * M.r) - np.exp(-4.0 * M.r[0]))
        ids = _collar(M, np.array([0]))
        _, J = batch_jets(rho, ids)
        d = distance_to_boundary(F, ids, J.r, J.p, J.A).value
        assert ids.size >= 3 and np.all(np.diff(d) < 0)
        margin = 0.5 * (d[0] + d[1])
        res = make_barrier(F, M, np.ones(M.n_nodes, bool), np.array([0]), rho,
                           s_grid=(0.0,), t_grid=(1.0,), margin=margin)
        assert not res.ok and res.margin == d[1] > d[-1]
        np.testing.assert_equal(_barrier_summary(res), _barrier_reference(
            F, M, np.array([0]), rho, margin=margin, s_grid=(0.0,), t_grid=(1.0,)))

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
