"""Catalog, duality, set algebra, jet-equivalence and fiber-distance tests."""
import numpy as np
import pytest

from subeq.errors import ConstructionError, InputError
from subeq.jets import MAX_DIM
from subeq.policy import DEFAULT_POLICY
from subeq.profiles import AProfile, Profile
from subeq.subequations import (
    JetEquivalence,
    apply_jet_equivalence,
    audit_PNT,
    below_zero_cap,
    distance_to_boundary,
    dual,
    eikonal,
    eikonal_relaxed,
    hessian_branch,
    inf_laplacian,
    intersect,
    laplace,
    linear_jetequiv,
    obstacle,
    plurisub_trace,
    quasilinear,
    sigma_branch,
    union,
    whole_space,
)

LIN = Profile.linear(1.0)
ZERO = Profile.linear(0.0)
XI1 = Profile.table([-1.0, 0.0], [1.0, 0.0])


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
        quasilinear(AProfile.k_laplacian(3.0), LIN, m=m),
        inf_laplacian(ZERO, m=m),
    ]


def side(F, x, r, p, A):
    """The side of F_x one jet lies on: 1 in the interior (G above the
    membership tolerance), -1 in the exterior, 0 on the boundary."""
    g = F.value(x, r, p, A)[0]
    tol = DEFAULT_POLICY.membership_tol
    return int(g > tol) - int(g < -tol)


def rand_jets(rng, m, n, scale=2.0):
    r = scale * rng.standard_normal(n)
    p = scale * rng.standard_normal((n, m))
    B = rng.standard_normal((n, m, m))
    return r, p, B + np.swapaxes(B, 1, 2)


class TestContains:
    def test_eikonal_regions(self):
        E = eikonal(1.0, m=2)
        assert side(E, None, 0.0, [0.5, 0.0], np.zeros((2, 2))) == 1
        assert side(E, None, 0.0, [1.0, 0.0], np.zeros((2, 2))) == 0
        assert side(E, None, 0.0, [1.5, 0.0], np.zeros((2, 2))) == -1

    def test_laplace_interior(self):
        F = laplace(LIN, m=2)
        assert side(F, None, -2.0, np.zeros(2), np.zeros((2, 2))) == 1  # tr 0 = 0 > -2

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            laplace(LIN, m=2).value(None, 0.0, np.zeros(3), np.zeros((3, 3)))

    def test_dimension_capped_at_max_dim(self):
        # the spectral kernels compress up to MAX_DIM = 8 only
        sigma_branch(1, 2, LIN, m=MAX_DIM)
        with pytest.raises(InputError, match=r"\[1, 8\], got 9"):
            sigma_branch(1, 2, LIN, m=MAX_DIM + 1)


class TestDuality:
    def test_dual_eikonal_table(self):
        # dual(E with xi=1) = {|p| >= 1}
        Ed = dual(eikonal(1.0, m=2))
        assert side(Ed, None, 0.0, [0.5, 0.0], np.zeros((2, 2))) == -1
        assert side(Ed, None, 0.0, [2.0, 0.0], np.zeros((2, 2))) == 1

    def test_dual_hessian_branch_table(self):
        # dual({lambda_k >= f(r)}) = {lambda_{m-k+1} >= -f(-r)}
        rng = np.random.default_rng(0)
        m, k = 4, 2
        F = hessian_branch(k, LIN, m=m)
        Fd = dual(F)
        r, p, A = rand_jets(rng, m, 2000)
        expect = np.linalg.eigvalsh(A)[:, m - k] - (-LIN(-r))
        got = Fd.value(None, r, p, A)
        assert np.abs(got - expect).max() < 1e-12

    def test_dual_value_identity(self):
        # the definition: dual G (J) = -G(-J), exact for every member
        rng = np.random.default_rng(1)
        for m in (2, 3, 4):
            for F in catalog(m):
                r, p, A = rand_jets(rng, m, 500)
                lhs = dual(F).value(None, r, p, A)
                rhs = -F.value(None, -r, -p, -A)
                assert np.abs(lhs - rhs).max() < 1e-12, F.meta.tag

    def test_involution_classification(self):
        rng = np.random.default_rng(2)
        tol = 1e-9
        for m in (2, 3, 4):
            for F in catalog(m):
                r, p, A = rand_jets(rng, m, 2000)
                g0 = F.value(None, r, p, A)
                g2 = dual(dual(F)).value(None, r, p, A)
                off = np.abs(g0) > tol
                assert np.all(np.sign(g0[off]) == np.sign(g2[off])), F.meta.tag

    def test_order_reversal(self):
        # F1 subset F2 (sampled) => dual(F2) subset dual(F1)
        rng = np.random.default_rng(3)
        m = 3
        F1 = hessian_branch(1, ZERO, m=m)   # lambda_1 >= 0
        F2 = laplace(ZERO, m=m)             # tr >= 0 (larger set)
        r, p, A = rand_jets(rng, m, 4000)
        in1 = F1.value(None, r, p, A) > 0
        in2 = F2.value(None, r, p, A) > 0
        assert np.all(in2[in1])
        d2 = dual(F2).value(None, r, p, A) > 1e-12
        d1 = dual(F1).value(None, r, p, A) > -1e-12
        assert np.all(d1[d2])

    def test_inf_laplacian_self_dual_sampled(self):
        rng = np.random.default_rng(4)
        F = inf_laplacian(0.0, m=3)
        r, p, A = rand_jets(rng, 3, 10_000)
        g = F.value(None, r, p, A)
        gd = dual(F).value(None, r, p, A)
        off = np.abs(g) > 1e-9
        assert np.all(np.sign(g[off]) == np.sign(gd[off]))

    def test_demorgan_identity(self):
        # dual(F cap E) classifies as union(dual F, dual E) on 10^4 jets
        rng = np.random.default_rng(5)
        m = 3
        F = laplace(LIN, m=m)
        E = eikonal(1.0, m=m)
        r, p, A = rand_jets(rng, m, 10_000)
        lhs = dual(intersect(F, E)).value(None, r, p, A)
        rhs = union(dual(F), dual(E)).value(None, r, p, A)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_dual_relaxed_eikonal(self):
        m = 2
        eta = np.array([0.0, 0.5, 1.0])
        E = eikonal_relaxed(1.0, eta, m=m)
        rng = np.random.default_rng(6)
        r, p, A = rand_jets(rng, m, 3)
        x = np.arange(3)
        lhs = dual(E).value(x, r, p, A)
        rhs = -E.value(x, -r, -p, -A)
        assert np.abs(lhs - rhs).max() < 1e-12
        assert np.abs(dual(dual(E)).value(x, r, p, A) - E.value(x, r, p, A)).max() < 1e-12


class TestSetAlgebra:
    def test_intersection_identity_element(self):
        rng = np.random.default_rng(7)
        F = laplace(LIN, m=2)
        r, p, A = rand_jets(rng, 2, 1000)
        got = intersect(F, whole_space(2)).value(None, r, p, A)
        expect = np.minimum(F.value(None, r, p, A), 1.0)
        assert np.abs(got - expect).max() < 1e-14
        # classification agrees with F everywhere
        assert np.all((got > 0) == (F.value(None, r, p, A) > 0))

    def test_eikonal_constraint_binds(self):
        # laplace cap E_xi at |p| just above xi(-1): exterior
        F = intersect(laplace(LIN, m=2), eikonal(XI1, m=2))
        pmag = float(XI1(-1.0)) + 0.1
        assert side(F, None, -1.0, [pmag, 0.0], np.zeros((2, 2))) == -1


class TestMergedKinds:
    """One class per kind: the relaxed eikonal, the plurisub sums and the
    min/max combinators keep their tags, duals and values."""

    N = 40  # nodes of the per-node rows

    def jets(self, m=3, n=500):
        rng = np.random.default_rng(23)
        r, p, A = rand_jets(rng, m, n)
        return rng.integers(0, self.N, n), r, p, A

    def eta(self):
        return np.linspace(0.0, 0.8, self.N)

    def test_tags_and_double_dual(self):
        L, E = laplace(LIN, m=3), eikonal(1.0, m=3)
        expect = [
            (eikonal(1.5, m=3), "eikonal", "eikonal_dual"),
            (eikonal_relaxed(1.5, None, m=3), "eikonal", "eikonal_dual"),
            (eikonal_relaxed(1.5, self.eta(), m=3), "eikonal_relaxed", "eikonal_dual_relaxed"),
            (plurisub_trace(2, LIN, m=3), "plurisub[2]", "plurisub_top[2]"),
            (intersect(L, E), "intersect(laplace,eikonal)", "union(laplace,eikonal_dual)"),
            (union(L, E), "union(laplace,eikonal)", "intersect(laplace,eikonal_dual)"),
        ]
        for F, tag, dual_tag in expect:
            assert F.meta.tag == tag
            assert dual(F).meta.tag == dual_tag
            assert dual(dual(F)).meta.tag == tag

    def test_values_match_the_formulas(self):
        x, r, p, A = self.jets()
        eta, f = self.eta(), Profile.linear(0.7)
        pn = np.linalg.norm(p, axis=1)
        ev = np.linalg.eigvalsh(A)
        trA = np.trace(A, axis1=1, axis2=2)
        E = eikonal_relaxed(1.5, eta, m=3)
        P = plurisub_trace(2, f, m=3)
        I = intersect(laplace(LIN, m=3), eikonal(1.0, m=3))
        U = union(laplace(LIN, m=3), eikonal(1.0, m=3))
        cases = [
            (E, 1.5 + eta[x] - pn),
            (dual(E), pn - 1.5 - eta[x]),
            (P, ev[:, :2].sum(axis=1) - 0.7 * r),
            (dual(P), ev[:, 1:].sum(axis=1) - 0.7 * r),
            (I, np.minimum(trA - r, 1.0 - pn)),
            (dual(I), np.maximum(trA - r, pn - 1.0)),
            (U, np.maximum(trA - r, 1.0 - pn)),
            (dual(U), np.minimum(trA - r, pn - 1.0)),
        ]
        for F, want in cases:
            assert np.array_equal(F.value(x, r, p, A), want), F.meta.tag

    def test_per_node_members_need_node_ids(self):
        x, r, p, A = self.jets(m=2)
        E = eikonal_relaxed(1.0, self.eta(), m=2)
        cap = obstacle(laplace(LIN, m=2), self.eta())
        psi = JetEquivalence(2, g=np.broadcast_to(np.eye(2), (self.N, 2, 2)), h=np.eye(2))
        for F in (E, dual(E), cap, dual(cap), apply_jet_equivalence(psi, laplace(LIN, m=2))):
            assert F.value(x, r, p, A).shape == r.shape
            with pytest.raises(InputError):
                F.value(None, r, p, A)


class TestObstacle:
    def test_absent_obstacle_is_identity(self):
        rng = np.random.default_rng(8)
        F = laplace(LIN, m=2)
        Fg = obstacle(F, 1e30)
        r, p, A = rand_jets(rng, 2, 1000)
        assert np.all((Fg.value(None, r, p, A) > 0) == (F.value(None, r, p, A) > 0))

    def test_binding_cap(self):
        F = laplace(LIN, m=2)
        g = np.array([0.5, -0.5])
        Fg = obstacle(F, g)
        A = np.diag([5.0, 5.0])
        assert side(Fg, 0, 0.2, np.zeros(2), A) == 1
        assert side(Fg, 1, 0.2, np.zeros(2), A) == -1  # r > g regardless of (p, A)

    def test_dual_obstacle_identity(self):
        # dual(F^g) = dual(F) union {r <= -g(x)}, sampled
        rng = np.random.default_rng(9)
        F = laplace(LIN, m=2)
        g = rng.standard_normal(50)
        Fg = obstacle(F, g)
        r, p, A = rand_jets(rng, 2, 5000)
        x = rng.integers(0, 50, size=5000)
        lhs = dual(Fg).value(x, r, p, A)
        rhs = np.maximum(dual(F).value(x, r, p, A), -g[x] - r)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_zero_cap(self):
        H = below_zero_cap(2)
        assert side(H, None, -1.0, np.zeros(2), np.zeros((2, 2))) == 1
        assert side(H, None, 1.0, np.zeros(2), np.zeros((2, 2))) == -1


class TestClosureConvention:
    def test_quasilinear_matches_laplace_off_zero(self):
        # a == 1 gives T(p) = I: identical classification to laplace for p != 0
        rng = np.random.default_rng(10)
        m = 3
        Q = quasilinear(AProfile.constant(1.0), LIN, m=m)
        L = laplace(LIN, m=m)
        r, p, A = rand_jets(rng, m, 10_000)
        keep = np.linalg.norm(p, axis=1) > 1e-12
        gq = Q.value(None, r, p, A)[keep]
        gl = L.value(None, r, p, A)[keep]
        assert np.abs(gq - gl).max() < 1e-10

    def test_inf_laplacian_interior_example(self):
        F = inf_laplacian(0.0, m=3)
        A = np.diag([1.0, -5.0, -5.0])
        assert side(F, None, 0.0, [1.0, 0.0, 0.0], A) == 1  # A(p,p) = 1 > 0

    def test_p_zero_limsup(self):
        # at p = 0 the value is the limsup along p -> 0: lambda_max for (E8)
        F = inf_laplacian(0.0, m=2)
        A = np.array([[[2.0, 0.0], [0.0, -7.0]]])
        v0 = F.value(None, np.zeros(1), np.zeros((1, 2)), A)[0]
        assert v0 == pytest.approx(2.0)
        # approachable: small p along the top eigenvector gives values near 2
        v_eps = F.value(None, np.zeros(1), np.array([[1e-9, 0.0]]), A)[0]
        assert v_eps == pytest.approx(2.0)

    def test_duality_away_from_zero_exact(self):
        rng = np.random.default_rng(11)
        F = quasilinear(AProfile.k_laplacian(3.0), LIN, m=2)
        r, p, A = rand_jets(rng, 2, 5000)
        keep = np.linalg.norm(p, axis=1) > 1e-9
        lhs = dual(F).value(None, r, p, A)[keep]
        rhs = (-F.value(None, -r, -p, -A))[keep]
        assert np.abs(lhs - rhs).max() < 1e-12


class TestJetEquivalence:
    def test_identity_unchanged(self):
        rng = np.random.default_rng(12)
        F = laplace(LIN, m=2)
        psi = JetEquivalence(2, np.eye(2), np.eye(2))
        G = apply_jet_equivalence(psi, F)
        r, p, A = rand_jets(rng, 2, 1000)
        assert np.abs(G.value(None, r, p, A) - F.value(None, r, p, A)).max() < 1e-14

    def test_linear_operator_trace_oracle(self):
        # T = diag(4,1), W=0, B=0, b=1, f(r)=r: membership is tr(T A) >= r
        rng = np.random.default_rng(13)
        T = np.diag([4.0, 1.0])
        FL = linear_jetequiv(T, f=LIN)
        r, p, A = rand_jets(rng, 2, 10_000)
        lhs = FL.value(None, r, p, A)
        rhs = np.einsum("ij,nji->n", T, A) - r
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_full_linear_operator(self):
        # tr(T A) + <W, p> + B >= b f(r)
        rng = np.random.default_rng(14)
        T = np.array([[2.0, 0.5], [0.5, 1.0]])
        W = np.array([0.3, -0.7])
        B, b = 0.9, 2.0
        FL = linear_jetequiv(T, W, B, b, f=LIN)
        r, p, A = rand_jets(rng, 2, 5000)
        lhs = FL.value(None, r, p, A)
        rhs = (np.einsum("ij,nji->n", T, A) + p @ W + B) / b - r
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_duality_commutes(self):
        # dual of the transported member = transport of the dual model
        rng = np.random.default_rng(15)
        T = np.diag([4.0, 1.0])
        FL = linear_jetequiv(T, f=LIN)
        r, p, A = rand_jets(rng, 2, 5000)
        lhs = dual(FL).value(None, r, p, A)
        rhs = -FL.value(None, -r, -p, -A)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_invertibility_checked(self):
        with pytest.raises(ConstructionError):
            JetEquivalence(2, np.zeros((2, 2)), np.eye(2))


class TestDistanceToBoundary:
    def test_eikonal_analytic(self):
        E = eikonal(1.0, m=2)
        d = distance_to_boundary(E, None, 0.0, [0.25, 0.0], np.zeros((2, 2)))
        assert d.found[0] and abs(d.value[0] - 0.75) < 1e-6

    def test_laplace_ray_oracle(self):
        # dense-ray oracle: minimum crossing distance over many random fiber
        # rays, all rays bracketed and bisected together, one F.value per stage
        F = laplace(ZERO, m=2)
        d = distance_to_boundary(F, None, 0.0, np.zeros(2), np.eye(2)).value[0]
        rng = np.random.default_rng(17)
        from subeq.subequations import _jet_coords, _coords_to_jet
        c0 = _jet_coords(0.0, np.zeros(2), np.eye(2))
        rays = rng.standard_normal((4000, c0.size))
        rays /= np.linalg.norm(rays, axis=1)[:, None]

        def outside(t, live):
            return F.value(None, *_coords_to_jet(c0 + t[:, None] * rays[live], 2)) < 0

        lo, hi = np.zeros(len(rays)), np.full(len(rays), np.inf)
        live = np.arange(len(rays))
        t = 0.25
        while t < 64 and live.size:
            hit = outside(np.full(live.size, t), live)
            hi[live[hit]] = t
            live = live[~hit]
            lo[live] = t
            t *= 1.5
        live = np.flatnonzero(np.isfinite(hi))
        for _ in range(40):
            mid = 0.5 * (lo[live] + hi[live])
            hit = outside(mid, live)
            hi[live] = np.where(hit, mid, hi[live])
            lo[live] = np.where(hit, lo[live], mid)
        best = hi.min()
        assert abs(d - np.sqrt(2)) < 1e-4
        assert d <= best + 1e-4

    def test_boundary_jet_zero(self):
        E = eikonal(1.0, m=2)
        d = distance_to_boundary(E, None, 0.0, [1.0, 0.0], np.zeros((2, 2)))
        assert d.value[0] == pytest.approx(0.0, abs=1e-9)

    def test_no_boundary_in_radius(self):
        d = distance_to_boundary(whole_space(2), None, 0.0, np.zeros(2), np.zeros((2, 2)))
        assert not d.found[0] and np.isinf(d.value[0])

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_laplace_batch_oracle(self, m):
        # G = tr A is linear in the fiber coordinates with normal of length
        # sqrt(m), so the distance to {tr A = 0} is |tr A| / sqrt(m)
        rng = np.random.default_rng(10 + m)
        r, p, A = rand_jets(rng, m, 40)
        tr = np.trace(A, axis1=1, axis2=2)
        assert (tr > 0).any() and (tr < 0).any()
        d = distance_to_boundary(laplace(ZERO, m=m), None, r, p, A)
        assert d.found.all()
        assert np.abs(d.value - np.abs(tr) / np.sqrt(m)).max() <= 1e-8

    def test_batch_independence(self):
        # a jet's distance is bitwise the same alone and inside a shuffled
        # batch: with p = 0 (no +-p rays), on the eikonal boundary, with no
        # crossing and no gradient ray (whole space), and per node (x ids)
        rng = np.random.default_rng(4)
        r, p, A = rand_jets(rng, 2, 12)
        p[0] = 0.0
        r[1], p[1], A[1] = 0.0, np.array([1.0, 0.0]), np.zeros((2, 2))
        x = rng.integers(0, 5, 12)
        members = catalog(2) + [whole_space(2),
                                obstacle(laplace(ZERO, m=2), rng.standard_normal(5))]
        for F in members:
            perm = rng.permutation(12)
            batch = distance_to_boundary(F, x[perm], r[perm], p[perm], A[perm])
            for j, i in enumerate(perm):
                alone = distance_to_boundary(F, int(x[i]), r[i], p[i], A[i])
                assert (alone.value[0], alone.found[0]) == (batch.value[j], batch.found[j]), F.meta.tag


class TestAuditPNT:
    def test_catalog_clean(self):
        for m in (2, 3):
            for F in catalog(m):
                cert = audit_PNT(F, n=20_000, seed=0)
                assert cert.passed, (F.meta.tag, cert.worst, cert.counts)

    def test_broken_negativity_reported(self):
        from subeq.subequations import Subequation, SubeqMeta

        class BrokenN(Subequation):
            def __init__(self):
                super().__init__(2, SubeqMeta(tag="broken_r"))

            def _value(self, J):
                return J.r.copy()

        cert = audit_PNT(BrokenN(), n=20_000, seed=0)
        assert not cert.passed
        assert cert.counts["N_violations"] > 0

    def test_intersection_clean(self):
        F = intersect(hessian_branch(1, LIN, m=2), eikonal(XI1, m=2))
        cert = audit_PNT(F, n=20_000, seed=1)
        assert cert.counts["P_violations"] == 0
        assert cert.counts["N_violations"] == 0


class TestProfiles:
    def test_flags(self):
        assert Profile.linear(1.0).flags["f1"]
        assert not Profile.linear(1.0).flags["f1_prime"]
        assert Profile.constant(1.0).flags["xi0"]
        assert XI1.flags["xi1"]
        f1p = Profile.table([-2.0, -1.0, 0.0, 1.0], [-1.0, 0.0, 0.0, 1.0])
        assert f1p.flags["f1_prime"] and not f1p.flags["f1"]

    def test_monotone_required(self):
        with pytest.raises(ConstructionError):
            Profile.table([0.0, 1.0, 2.0], [0.0, 1.0, 0.5])

    def test_reflect_involution(self):
        f = Profile.table([-1.0, 0.0, 2.0], [-3.0, 0.0, 1.0])
        g = f.reflect().reflect()
        xs = np.linspace(-3, 3, 50)
        assert np.abs(f(xs) - g(xs)).max() < 1e-14

    def test_flat_extension(self):
        f = Profile.table([0.0, 1.0], [0.0, 2.0])
        assert f(-5.0) == 0.0 and f(7.0) == 2.0

    def test_invalid_profile_flags_raise(self):
        decreasing = Profile.table([0.0, 1.0], [1.0, 0.0])
        with pytest.raises(ConstructionError):
            laplace(decreasing, m=2)
        negative_xi = Profile.linear(1.0)
        with pytest.raises(ConstructionError):
            eikonal(negative_xi, m=2)


class TestLineEvaluator:
    """The defining values at a radial view against the tree evaluator at
    its dense jets p = (du, 0, ...), A = diag(d2, aa, ..., aa), with the
    gradient-constraint reading grad_up = |du| (the centred reading of the
    upwind gradient)."""

    N = 400

    def radial_jets(self, rng, m):
        n = self.N
        v = 2.0 * rng.standard_normal(n)
        du = 2.0 * rng.standard_normal(n)
        du[::7] = 0.0  # the p = 0 fiber of the gradient-singular members
        d2 = 2.0 * rng.standard_normal(n)
        aa = 2.0 * rng.standard_normal(n)
        aa[::5] = d2[::5]  # ties between the radial and angular eigenvalues
        p = np.zeros((n, m))
        p[:, 0] = du
        A = np.zeros((n, m, m))
        A[:, 0, 0] = d2
        for k in range(1, m):
            A[:, k, k] = aa
        return v, du, aa, d2, p, A

    def members(self, m, rng):
        ftab = Profile.table([-2.0, 0.0, 1.0, 3.0], [-4.0, 0.0, 0.5, 2.0])
        out = [whole_space(m), laplace(ftab, m=m)]
        out += catalog(m)
        out += [hessian_branch(k, LIN, m=m) for k in range(1, m + 1)]
        out += [plurisub_trace(k, ftab, m=m) for k in range(1, m + 1)]
        out += [sigma_branch(j, k, LIN, m=m)
                for k in range(1, m + 1) for j in range(1, k + 1)]
        custom = AProfile("custom", a=lambda t: 1.0 + t / (1.0 + t),
                          da=lambda t: 1.0 / (1.0 + t) ** 2)
        out += [quasilinear(AProfile.constant(2.0), LIN, m=m),
                quasilinear(AProfile.k_laplacian(2.0), ZERO, m=m),
                quasilinear(custom, LIN, m=m)]
        g = rng.standard_normal(self.N)
        longer = rng.standard_normal(self.N + 5)  # rows beyond the nodes are not read
        Q = rng.standard_normal((m, m))
        T = Q @ Q.T + m * np.eye(m)
        jeq = linear_jetequiv(T, rng.standard_normal(m), 0.7, 1.5, f=LIN, m=m)
        field = np.eye(m) + 0.1 * rng.standard_normal((self.N, m, m))
        L = 0.1 * rng.standard_normal((self.N, m, m, m))
        per_node = JetEquivalence(m, field, field[::-1], L)
        out += [
            intersect(laplace(LIN, m=m), eikonal(XI1, m=m)),
            union(hessian_branch(1, LIN, m=m), inf_laplacian(ZERO, m=m),
                  below_zero_cap(m)),
            obstacle(sigma_branch(1, min(2, m), LIN, m=m), g),
            obstacle(laplace(LIN, m=m), 0.25),
            eikonal_relaxed(XI1, np.abs(g), m=m),
            intersect(laplace(LIN, m=m), eikonal_relaxed(1.0, np.abs(g), m=m)),
            jeq,
            apply_jet_equivalence(per_node, sigma_branch(1, min(2, m), LIN, m=m)),
            intersect(laplace(LIN, m=m), jeq),
            obstacle(laplace(LIN, m=m), longer),
            eikonal_relaxed(XI1, np.abs(longer), m=m),
        ]
        return out

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_lowered_matches_tree(self, m):
        from subeq.jets import RadialView
        rng = np.random.default_rng(40 + m)
        v, du, aa, d2, p, A = self.radial_jets(rng, m)
        nodes = np.arange(self.N)
        rad = RadialView(nodes, v, du, aa, d2, np.abs(du), m)
        for F in self.members(m, rng):
            for G in (F, dual(F)):
                want = G.value(nodes, v, p, A)
                got = G._value(rad)
                assert np.abs(got - want).max() <= 1e-9, G.meta.tag

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_views_agree(self, m):
        # the radial view's closed forms against the dense view of the same
        # diagonal jets; the picked spectrum and |du| are exact
        from subeq.jets import DenseView, RadialView
        rng = np.random.default_rng(70 + m)
        v, du, aa, d2, p, A = self.radial_jets(rng, m)
        nodes = np.arange(self.N)
        rad = RadialView(nodes, v, du, aa, d2, np.abs(du), m)
        den = DenseView(nodes, v, p, A)
        assert np.array_equal(rad.eigs, den.eigs)
        for k in range(1, m + 1):
            assert np.abs(rad.garding(k) - den.garding(k)).max() <= 1e-9, k
        assert np.abs(rad.trace - den.trace).max() <= 1e-9
        nz = du != 0.0
        assert not nz.all()
        for got, want in ((rad.take(nz).dir2, den.take(nz).dir2),
                          (rad.take(nz).dir2_unit, den.take(nz).dir2_unit)):
            assert np.abs(got - want).max() <= 1e-9
        assert np.array_equal(rad.grad, den.grad)

    @pytest.mark.parametrize("F", [obstacle(laplace(LIN, m=2), np.zeros(7)),
                                   eikonal_relaxed(1.0, np.ones(7), m=2)],
                             ids=["obstacle", "eikonal_relaxed"])
    def test_short_rows_are_an_input_error(self, F):
        # 7 rows of per-node data on a grid of 10 nodes: interior ids reach 8
        from subeq.manifolds import RadialModel
        from subeq.solver import ProblemSpec, perron_dirichlet
        M = RadialModel.uniform(2, "sinh", 1.0, 2.0, 10)
        with pytest.raises(InputError, match=r"has 7 rows, node ids reach 8$"):
            perron_dirichlet(ProblemSpec(F, M, {"inner": 0.0, "outer": -1.0}))
        with pytest.raises(InputError, match="has 7 rows"):
            F.value(np.arange(10), np.zeros(10), np.zeros((10, 2)), np.zeros((10, 2, 2)))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_sigma_branches_exact(self, m):
        # every tree branch mu_j^(k) at radial jets, ties d2 = aa included,
        # against the closed form: the root -aa of sigma_k(A + tI) repeated
        # k - 1 times and one linear root
        from subeq.jets import RadialView
        rng = np.random.default_rng(60 + m)
        v, du, aa, d2, p, A = self.radial_jets(rng, m)
        nodes = np.arange(self.N)
        rad = RadialView(nodes, v, du, aa, d2, np.abs(du), m)
        for k in range(1, m + 1):
            for j in range(1, k + 1):
                F = sigma_branch(j, k, LIN, m=m)
                got = F.value(nodes, v, p, A)
                want = F._value(rad)
                assert np.abs(got - want).max() <= 1e-9, (j, k)

    @pytest.mark.parametrize("m", [3, 4])
    def test_sigma_top_order_is_hessian(self, m):
        # mu_j^(m)(A) = lambda_j(A): the sigma branches of top order at radial views
        # against the tree's symmetric eigenvalues
        from subeq.jets import RadialView
        rng = np.random.default_rng(50 + m)
        v, du, aa, d2, p, A = self.radial_jets(rng, m)
        nodes = np.arange(self.N)
        rad = RadialView(nodes, v, du, aa, d2, np.abs(du), m)
        for j in range(1, m + 1):
            got = sigma_branch(j, m, LIN, m=m)._value(rad)
            want = hessian_branch(j, LIN, m=m).value(nodes, v, p, A)
            assert np.abs(got - want).max() <= 1e-9, j
