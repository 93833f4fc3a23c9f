"""Model geometry, warps, discrete jets and the volume-growth test."""
import numpy as np
import pytest

from subeq.errors import DomainError, InputError
from subeq.manifolds import (
    FlatBox,
    GridFunction,
    PuncturedEuclidean,
    RadialModel,
    batch_jets,
    get_warp,
    radial_hessian_eigs,
    volume_growth_test,
)


class TestRadialHessian:
    def test_euclidean_square(self):
        # phi = r^2 on g = r: Hessian of |x|^2 is 2I
        eigs = radial_hessian_eigs(2.0 * 1.5, 2.0, 1.5, "euclidean", 3)
        assert np.allclose(eigs, [2.0, 2.0, 2.0])

    def test_hyperbolic_cosh(self):
        # phi = cosh on g = sinh: phi'' = cosh, phi' g'/g = sinh coth = cosh
        r = 1.3
        eigs = radial_hessian_eigs(np.sinh(r), np.cosh(r), r, "sinh", 2)
        assert np.allclose(eigs, [np.cosh(r)] * 2)

    def test_distance_function(self):
        # phi = r on g = r: radial 0, angular 1/r
        r = 2.0
        eigs = radial_hessian_eigs(1.0, 0.0, r, "euclidean", 3)
        assert np.allclose(eigs, [0.0, 0.5, 0.5])

    @pytest.mark.parametrize("m", [2, 3])
    def test_punctured_potential_diagonal(self, m):
        # the radial-frame diagonal of punctured_example_check's potential
        # has the eigenvalues radial_hessian_eigs gives, and its trace is
        # the reported membership residual plus lam w
        from subeq.khasminskii import punctured_example_check

        r = PuncturedEuclidean(m, 0.05, 4.0, 600).r
        if m == 2:
            w, w1, w2 = -(r**2) + np.log(r), -2 * r + 1.0 / r, -2.0 - 1.0 / r**2
        else:
            w = -(r**2) - r ** (2.0 - m)
            w1 = -2 * r - (2.0 - m) * r ** (1.0 - m)
            w2 = -2.0 - (2.0 - m) * (1.0 - m) * r ** (-float(m))
        eigs = np.array([radial_hessian_eigs(a, b, c, "euclidean", m)
                         for a, b, c in zip(w1, w2, r)])
        diag = np.column_stack([w2] + [w1 / r] * (m - 1))
        assert np.allclose(np.sort(diag, axis=1), eigs)
        res = punctured_example_check(m, 2.0).residuals["membership"]
        assert np.allclose(res, eigs.sum(axis=1) - 2.0 * w, rtol=1e-12, atol=1e-9)

    def test_nonpositive_warp_rejected(self):
        with pytest.raises(DomainError):
            radial_hessian_eigs(1.0, 0.0, -1.0, "euclidean", 2)

    def test_warp_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError, match="exp_r3: g'/g is not finite"):
            radial_hessian_eigs(1.0, 0.0, 10.0, "exp_r3", 2)


class TestWarp:
    def test_ratio_of_a_scalar(self):
        warp = get_warp("exp_r3")
        assert float(warp.ratio(2.0)) == pytest.approx(12.0)
        with pytest.raises(DomainError, match=r"not finite at r = 10$"):
            warp.ratio(10.0)


class TestDiscreteJet:
    def test_affine_exact(self):
        M = FlatBox(2, [(0.0, 1.0), (0.0, 1.0)], 0.1)
        u = GridFunction.from_callable(M, lambda c: c[:, 0])
        J = batch_jets(u, M.interior_ids[[7]])[1]
        assert np.allclose(J.p[0], [1.0, 0.0])
        assert np.abs(J.A[0]).max() <= 1e-8

    def test_quadratic_exact(self):
        M = FlatBox(2, [(0.0, 1.0), (0.0, 1.0)], 0.05)
        u = GridFunction.from_callable(M, lambda c: 0.5 * (c**2).sum(axis=1))
        J = batch_jets(u, M.interior_ids[[11]])[1]
        assert np.abs(J.A[0] - np.eye(2)).max() < 1e-9

    def test_harmonic_oracle_punctured(self):
        # u = 2/r - 1 on the m=3 punctured annulus: discrete trace = O(h^2)
        M = PuncturedEuclidean(3, 1.0, 2.0, 200)
        u = GridFunction(M, 2.0 / M.r - 1.0)
        _, J = batch_jets(u)
        tr = np.trace(J.A, axis1=1, axis2=2)
        h = np.diff(M.r).max()
        assert np.abs(tr).max() <= 20 * h**2

    def test_second_order_refinement(self):
        # smooth test function: error(h)/error(h/2) in [3.5, 4.5]
        errs = []
        for n in (101, 201):
            M = RadialModel.uniform(2, "euclidean", 1.0, 2.0, n)
            u = GridFunction(M, np.sin(2.0 * M.r))
            ids, J = batch_jets(u)
            exact_d2 = -4.0 * np.sin(2.0 * M.r[ids])
            errs.append(np.abs(J.A[:, 0, 0] - exact_d2).max())
        ratio = errs[0] / errs[1]
        assert 3.5 <= ratio <= 4.5

    def test_usc_flagged_nodes_skipped(self):
        M = FlatBox(1, [(0.0, 1.0)], 0.1)
        vals = np.zeros(M.n_nodes)
        vals[5] = -np.inf
        mask = np.zeros(M.n_nodes, dtype=bool)
        mask[5] = True
        u = GridFunction(M, vals, neg_inf_mask=mask)
        ids, J = batch_jets(u)
        assert 5 not in ids and J.x is ids

    def test_usc_flagged_node_spoils_only_the_entries_that_read_it(self):
        # on a 2-D box a -inf node next to interior nodes: r and every
        # entry whose formula does not read that node stay finite
        M = FlatBox(2, [(0.0, 1.0), (0.0, 1.0)], 1 / 8)
        flagged = M.interior_ids[30]
        vals = np.random.default_rng(5).uniform(-1.0, 1.0, M.n_nodes)
        vals[flagged] = -np.inf
        mask = np.zeros(M.n_nodes, dtype=bool)
        mask[flagged] = True
        ids, J = batch_jets(GridFunction(M, vals, neg_inf_mask=mask))
        assert flagged not in ids
        X, _ = J.entries()
        reads = ((M.table != 0)
                 & (ids + M.shifts[:, None] == flagged)).any(axis=1)  # (E, n)
        assert reads.any(axis=0).sum() == 8  # its eight stencil neighbours
        assert np.isfinite(J.r).all()
        assert np.isfinite(X[~reads]).all() and not np.isfinite(X[reads]).any()

    @pytest.mark.parametrize("m, h", [(2, [1 / 8, 1 / 16]), (3, [1 / 4, 1 / 8, 1 / 6])],
                             ids=["2d", "3d"])
    def test_box_jets_are_the_formulas_byte_for_byte(self, m, h):
        # the cross-stencil table sums in the order and rounding of
        # p_a = (u(+a) - u(-a)) / (2 h_a), A_aa = (u(+a) + u(-a) - 2u) / h_a^2
        # and A_ab = (u(++) + u(--) - u(+-) - u(-+)) / (4 h_a h_b)
        M = FlatBox(m, [(0.0, 1.0)] * m, h)
        u = np.random.default_rng(7).normal(size=M.n_nodes)
        ids, J = batch_jets(GridFunction(M, u))
        s, h = M.strides, M.h
        p = np.empty((ids.size, m))
        A = np.empty((ids.size, m, m))
        for a in range(m):
            p[:, a] = (u[ids + s[a]] - u[ids - s[a]]) / (2 * h[a])
            A[:, a, a] = (u[ids + s[a]] + u[ids - s[a]] - 2 * u[ids]) / h[a] ** 2
            for b in range(a + 1, m):
                A[:, a, b] = A[:, b, a] = (
                    u[ids + s[a] + s[b]] + u[ids - s[a] - s[b]]
                    - u[ids + s[a] - s[b]] - u[ids - s[a] + s[b]]) / (4 * h[a] * h[b])
        assert J.r.tobytes() == u[ids].tobytes()
        assert J.p.tobytes() == p.tobytes() and J.A.tobytes() == A.tobytes()


class TestRadialAgainstDiscrete:
    def test_radial_formula_matches_discrete(self):
        M = RadialModel.uniform(3, "sinh", 0.5, 3.0, 400)
        phi = np.cosh(M.r)
        u = GridFunction(M, phi)
        ids, J = batch_jets(u)
        h = M.min_spacing()
        for k in (10, 200, 380):
            i = ids[k]
            exact = radial_hessian_eigs(np.sinh(M.r[i]), np.cosh(M.r[i]),
                                        M.r[i], "sinh", 3)
            got = np.sort(np.linalg.eigvalsh(J.A[k]))
            assert np.abs(got - exact).max() < 30 * h**2


class TestVolumeGrowth:
    def test_sinh_diverges(self):
        v, tr = volume_growth_test("sinh", 3, 10.0)
        assert v == "Diverges"
        assert abs(tr["slope"]) < 0.5  # integrand tends to a constant

    def test_euclidean_diverges(self):
        v, tr = volume_growth_test("euclidean", 3, 10.0)
        assert v == "Diverges"

    def test_exp_r3_converges(self):
        v, tr = volume_growth_test("exp_r3", 2, 6.0)
        assert v == "Converges"
        assert tr["slope"] < -1.5  # integrand ~ r^-2

    def test_bad_warp_rejected(self):
        with pytest.raises((DomainError, InputError)):
            volume_growth_test({"r": [0.0, 1.0], "g": [1.0, -1.0]}, 2, 10.0)

    def test_warp_overflow_is_a_domain_error(self):
        # exp(r^3) overflows past r ~ 8.9: the check names it, with no warning
        with pytest.raises(DomainError, match="positive and finite"):
            volume_growth_test("exp_r3", 2, 10.0)


class TestGridFunction:
    def test_interior_finiteness_enforced(self):
        M = FlatBox(1, [(0.0, 1.0)], 0.1)
        vals = np.zeros(M.n_nodes)
        vals[3] = np.nan
        with pytest.raises(InputError):
            GridFunction(M, vals)

    def test_neg_inf_requires_flag(self):
        M = FlatBox(1, [(0.0, 1.0)], 0.1)
        vals = np.zeros(M.n_nodes)
        vals[3] = -np.inf
        with pytest.raises(InputError):
            GridFunction(M, vals)
        mask = np.zeros(M.n_nodes, dtype=bool)
        mask[3] = True
        GridFunction(M, vals, neg_inf_mask=mask)  # flagged: accepted

    def test_length_checked(self):
        M = FlatBox(1, [(0.0, 1.0)], 0.1)
        with pytest.raises(InputError):
            GridFunction(M, np.zeros(3))
