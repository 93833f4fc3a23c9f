"""Perron solver tests: analytic oracles, invariants, obstacle problems,
comparison checks, barriers, and engine equivalence."""
import re

import numpy as np
import pytest

from subeq import _ir
from subeq import _kernels as K
from subeq import solver
from subeq.errors import ConvergenceError, InitializationError, InputError, PreconditionError
from subeq.jets import Jet, SymMatrix
from subeq.manifolds import FlatBox, GridFunction, PuncturedEuclidean, RadialModel, batch_jets
from subeq.policy import DEFAULT_POLICY
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

    def test_nan_fixed_point_not_accepted(self, monkeypatch):
        # a line evaluator that returns NaN must end in ConvergenceError,
        # never in a certificate
        import subeq.solver as solver

        def nan_lower(F):
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
        g = _ir.lower(F)
        weak, batches = [], []
        sweep, node_solve = K.sweep_line_numpy, K.vector_node_solve

        def counted_sweep(u, order, S, *rest):
            uL, v, uR = u[order - 1], u[order], u[order + 1]
            du = S.du(uL, v, uR)
            gdn = np.maximum(np.maximum((v - uL) / S.hL, (v - uR) / S.hR), 0.0)
            g_d2 = K._slopes(g, [order, v, du, du * S.ang, S.d2(uL, v, uR), gdn])[2]
            weak.append(int(np.count_nonzero(g_d2 == 0.0)))
            return sweep(u, order, S, *rest)

        def counted_node_solve(G, v0, *rest):
            batches.append(v0.size)
            return node_solve(G, v0, *rest)

        monkeypatch.setattr(K, "sweep_line_numpy", counted_sweep)
        monkeypatch.setattr(K, "vector_node_solve", counted_node_solve)
        _, cert = perron_dirichlet(ProblemSpec(F, M, {"inner": 0.0, "outer": 1.0}))
        assert cert.passed
        assert any(weak) and not all(weak)
        assert batches == [k for k in weak if k]


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


class TestSlopes:
    @pytest.mark.parametrize("M", [
        RadialModel.uniform(2, "sinh", 1.0, 6.0, 201),
        PuncturedEuclidean(3, 0.01, 2.0, 201, spacing="log"),
    ], ids=["sinh", "log"])
    @pytest.mark.parametrize("f", [Profile.linear(1.0), Profile.constant(-1.0)],
                             ids=["linear", "constant"])
    def test_lowered_laplace_coefficients(self, M, f):
        # d2 + (m - 1) aa - f(v) is affine in the jet: the quotients in
        # (v, aa, d2, gdn) are its coefficients, at seeded jets whose second
        # differences reach ~3e7 on the log grid (a plain bump 1e-4 (1 + |x|)
        # was off by ~5e-6 there)
        u = np.random.default_rng(0).uniform(-1.0, 1.0, M.n_nodes)
        ids = M.interior_ids
        S = M.stencil.at(ids)
        uL, v, uR = u[ids - 1], u[ids], u[ids + 1]
        du = S.du(uL, v, uR)
        gdn = np.maximum(np.maximum((v - uL) / S.hL, (v - uR) / S.hR), 0.0)
        g = _ir.lower(laplace(f, m=M.m))
        got = K._slopes(g, [ids, v, du, du * S.ang, S.d2(uL, v, uR), gdn])
        slope = f.slope if f.kind == "linear" else 0.0
        for q, want in zip(got, (-slope, M.m - 1, 1.0, 0.0)):
            assert np.abs(q - want).max() <= 1e-12


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
        jet = batch_jets(gf, ids)[1:]
        calls = []

        def value(r, p, A):
            calls.append(1)
            return F.value(ids, r, p, A)

        K._jet_slopes(value, *jet)
        quotients = len(calls)
        at, res = [jet, F.value(ids, *jet)], np.empty(ids.size)
        calls.clear()
        out = K.step_box(gf.values, ids, M, np.full(M.n_nodes, np.inf), value,
                         lambda: batch_jets(gf, ids)[1:], res, at)
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


# (spec, engine the solve must run)
CERT_CASES = {
    "line-dirichlet": (_line_dirichlet, "numpy"),
    "line-jetequiv": (_line_jetequiv, "numpy"),
    "box-newton": (_box_newton, "generic"),
    "line-obstacle": (_line_obstacle, "numpy"),
    "box-1d-obstacle": (_box_obstacle, "numpy"),
}


def _recertify(spec, u, cert):
    """The certificate of u alone, with the iteration facts the solve reported."""
    M = spec.M
    caps = np.full(M.n_nodes, np.inf) if spec.obstacle is None else spec.obstacle.values
    facts = {"sweeps": cert.counts["sweeps"], "engine": cert.params["engine"],
             "init": cert.params["init"], "trace": cert.trace,
             "min_signed_change": 0.0 if cert.params["monotone_iterates"] else -1.0}
    return solver._certificate(spec, u, caps, facts)


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


def _barrier_reference(F, M, boundary_ids, rho, margin=DEFAULT_POLICY.barrier_margin,
                       s_grid=(0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
                       t_grid=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)):
    """make_barrier's search with one-jet calls, node by node along the collar;
    returns (ok, s, t, margin, certificate worst)."""
    ids = _collar(M, boundary_ids)

    def certify(vals):
        _, r, p, A = batch_jets(GridFunction(M, vals), ids)
        if np.any(np.linalg.norm(p, axis=1) < 1e-12):
            return False, 0.0
        worst = np.inf
        for i in range(ids.size):
            jet = Jet(float(r[i]), p[i], SymMatrix.from_full(A[i]))
            if F.value_jet(int(ids[i]), jet) <= 0:
                return False, min(worst, 0.0)
            d = distance_to_boundary(F, int(ids[i]), jet)
            worst = min(worst, d.value)
            if d.value < margin:
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
        _, r, p, A = batch_jets(rho, ids)
        d = distance_to_boundary(F, ids, r, p, A).value
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
