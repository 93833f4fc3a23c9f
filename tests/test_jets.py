"""Spectral kernel tests: eigenvalues, sigma_k, Garding branches, jet views.

Derived expectations are computed by independent oracles inside the tests:
characteristic-polynomial roots for spectra, brute-force subset sums for
sigma_k, numpy polynomial roots for the Garding branches.
"""
import itertools
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest

import subeq
from subeq.errors import InputError
from subeq.jets import (
    DenseView,
    eigenvalues_sym_batch,
    sigma_k,
    _garding_level,
)


eigvalsh_plain = np.linalg.eigvalsh


def garding(A, k):
    """Level k of the Garding chain of the (n, m, m) stack A, read from a
    fresh view of it, as every task reads it."""
    return DenseView(None, None, None, A).garding(k)


def rand_sym(rng, m, n=None):
    shape = (m, m) if n is None else (n, m, m)
    B = rng.standard_normal(shape)
    return B + np.swapaxes(B, -1, -2)


class TestEigenvalues:
    def test_identity(self):
        assert np.allclose(eigenvalues_sym_batch(np.eye(3)[None])[0], [1, 1, 1])

    def test_diagonal_sorted(self):
        ev = eigenvalues_sym_batch(np.diag([3.0, 1.0, 2.0])[None])[0]
        assert np.allclose(ev, [1, 2, 3])

    def test_against_charpoly_roots(self):
        # oracle: roots of det(A - t I) via numpy.roots on the characteristic
        # polynomial coefficients
        rng = np.random.default_rng(7)
        for _ in range(25):
            A = rand_sym(rng, 4)
            coeffs = np.poly(A)
            roots = np.sort(np.real(np.roots(coeffs)))
            ev = eigenvalues_sym_batch(A[None])[0]
            assert np.abs(ev - roots).max() < 1e-9

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A = rand_sym(rng, 5)
            w, Q = np.linalg.eigh(A)
            resid = np.abs(A - (Q * w) @ Q.T).max()
            assert resid <= 1e-12 * (1 + np.abs(A).max())

    def test_weyl_monotonicity(self):
        rng = np.random.default_rng(11)
        for m in (2, 3, 5, 8):
            A = rand_sym(rng, m, 64)
            B = rng.standard_normal((64, m, m))
            P = np.einsum("nik,njk->nij", B, B)
            assert np.all(eigenvalues_sym_batch(A + P) >= eigenvalues_sym_batch(A) - 1e-9)


class TestSigmaK:
    def test_basic_123(self):
        assert sigma_k([1, 2, 3], 1) == 6.0
        assert sigma_k([1, 2, 3], 2) == 11.0
        assert sigma_k([1, 2, 3], 3) == 6.0

    def test_against_subset_enumeration(self):
        rng = np.random.default_rng(5)
        for m in (2, 4, 6):
            lam = rng.standard_normal(m) * 3
            for k in range(1, m + 1):
                brute = sum(np.prod([lam[i] for i in c])
                            for c in itertools.combinations(range(m), k))
                assert abs(sigma_k(lam, k) - brute) < 1e-10 * (1 + abs(brute))

    def test_out_of_range(self):
        with pytest.raises(InputError):
            sigma_k([1.0, 2.0], 3)
        with pytest.raises(InputError):
            sigma_k([1.0, 2.0], 0)


class TestGarding:
    def test_k1_is_mean(self):
        # sigma_1(lambda + t) = 6 + 3t: single root at -2
        mu = garding(np.diag([1.0, 2.0, 3.0])[None], 1)[0]
        assert np.allclose(mu, [2.0])

    def test_k2_quadratic_oracle(self):
        # 3t^2 + 12t + 11 = 0 solved exactly
        roots = np.roots([3.0, 12.0, 11.0])
        expect = np.sort(-roots)
        mu = garding(np.diag([1.0, 2.0, 3.0])[None], 2)[0]
        assert np.abs(mu - expect).max() < 1e-12
        assert np.allclose(mu, [2 - 1 / np.sqrt(3), 2 + 1 / np.sqrt(3)])

    def test_k_equals_m_is_spectrum(self):
        rng = np.random.default_rng(1)
        for m in (2, 3, 5):
            A = rand_sym(rng, m)[None]
            assert np.abs(garding(A, m) - eigenvalues_sym_batch(A)).max() < 1e-9

    def test_polyroot_oracle_random(self):
        # oracle: numpy.roots on the coefficients of sigma_k(lambda + t)
        rng = np.random.default_rng(9)
        for m in (3, 4, 6):
            lam = np.sort(rng.standard_normal(m) * 2)
            for k in range(1, m + 1):
                coeffs = np.zeros(k + 1)
                for j in range(k + 1):
                    # coefficient of t^j in sigma_k(lambda + t)
                    s = sigma_k(lam, k - j) if k - j >= 1 else 1.0
                    coeffs[j] = s * comb(m - (k - j), j)
                roots = np.sort(np.real(np.roots(coeffs[::-1])))
                expect = -roots[::-1]
                mu = garding(np.diag(lam)[None], k)[0]
                assert np.abs(mu - expect).max() < 1e-8 * (1 + np.abs(lam).max() ** k)

    def test_duality_identity(self):
        # mu_j(-A) = -mu_{k-j+1}(A), m <= 6, 1000 samples
        rng = np.random.default_rng(2)
        for m in range(2, 7):
            A = rand_sym(rng, m, 200)
            for k in range(1, m + 1):
                mu = garding(A, k)
                mun = garding(-A, k)
                assert np.abs(mun + mu[:, ::-1]).max() <= 1e-9

    def test_psd_monotonicity(self):
        rng = np.random.default_rng(4)
        for m in (2, 4, 6):
            A = rand_sym(rng, m, 200)
            B = rng.standard_normal((200, m, m))
            P = np.einsum("nik,njk->nij", B, B) / m
            for k in range(1, m + 1):
                mu = garding(A, k)
                mup = garding(A + P, k)
                assert np.all(mup >= mu - 1e-9)

    def test_shift_equivariance_and_permutation(self):
        rng = np.random.default_rng(6)
        lam = rng.standard_normal(5)
        for k in (1, 3, 5):
            mu = garding(np.diag(lam)[None], k)[0]
            mu_s = garding(np.diag(lam + 0.7)[None], k)[0]
            assert np.abs(mu_s - (mu + 0.7)).max() < 1e-9
            perm = rng.permutation(5)
            mu_p = garding(np.diag(lam[perm])[None], k)[0]
            assert np.abs(mu_p - mu).max() < 1e-9

    def test_repeated_eigenvalue_branches(self):
        # diag(d2, aa, aa): sigma_k(A + tI) has the root -aa (k - 1 times) and
        # -(C(2,k) aa + C(2,k-1) d2) / C(3,k)
        d2, aa = 2.8509, -2.8626
        A = np.diag([d2, aa, aa])[None]
        expect = {1: [(2 * aa + d2) / 3], 2: [aa, (aa + 2 * d2) / 3], 3: [aa, aa, d2]}
        for k, mu in expect.items():
            assert np.abs(garding(A, k)[0] - mu).max() < 1e-12, k

    def test_two_roots_in_one_gap(self):
        # sigma_2((0, 0, 1, 1) + t) = 6t^2 + 6t + 1: both roots lie in (-1, 0)
        mu = garding(np.diag([0.0, 0.0, 1.0, 1.0])[None], 2)[0]
        expect = [(3 - np.sqrt(3)) / 6, (3 + np.sqrt(3)) / 6]
        assert np.abs(mu - expect).max() < 1e-12

    def test_out_of_range(self):
        with pytest.raises(InputError):
            garding(np.eye(3)[None], 4)


def compression_chain(lam, k):
    """Level k of the Garding chain by repeated compression to 1-perp,
    every level decomposed by LAPACK: the oracle of the closed forms."""
    mu = np.sort(lam, axis=1)
    for j in range(mu.shape[1], k, -1):
        Q = np.linalg.qr(np.eye(j) - 1.0 / j)[0][:, : j - 1]  # spans 1-perp
        mu = eigvalsh_plain(np.einsum("ia,ni,ib->nab", Q, mu, Q))
    return mu


def assert_sigma_residuals(lam, mu):
    """Each Garding root mu[:, j] of level k zeroes sigma_k(lam - mu[:, j])
    within 1e-10 (1 + max |lam|^k) C(m, k)."""
    m, k = lam.shape[1], mu.shape[1]
    scale = (1 + np.abs(lam).max(axis=1) ** k) * comb(m, k)
    for j in range(k):
        resid = np.array([sigma_k(row - t, k) for row, t in zip(lam, mu[:, j])])
        assert np.all(np.abs(resid) <= 1e-10 * scale), (m, k, j)


class TestClosedForms:
    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_two_by_two_near_lapack(self, scale):
        A = scale * rand_sym(np.random.default_rng(30), 2, 10_000)
        bound = 8 * self.EPS * np.abs(A).max(axis=(1, 2))
        assert np.all(np.abs(eigenvalues_sym_batch(A) - eigvalsh_plain(A)).max(axis=1) <= bound)

    def test_two_by_two_exact_on_diagonals_and_negation(self):
        rng = np.random.default_rng(31)
        d = rng.standard_normal((1000, 2))
        d[:100, 1] = d[:100, 0]  # ties
        d[100:200] = 0.0  # zero matrices
        D = np.zeros((1000, 2, 2))
        D[:, [0, 1], [0, 1]] = d
        assert np.array_equal(eigenvalues_sym_batch(D), np.sort(d, axis=1))
        A = np.concatenate([D, rand_sym(rng, 2, 1000)])
        A[-100:, 1, 1] = A[-100:, 0, 0]  # h = 0 with b != 0
        assert np.array_equal(eigenvalues_sym_batch(-A), -eigenvalues_sym_batch(A)[:, ::-1])

    def test_one_by_one_is_the_entry(self):
        A = np.random.default_rng(32).standard_normal((50, 1, 1))
        lam = eigenvalues_sym_batch(A)
        assert lam.shape == (50, 1) and np.array_equal(lam, A[:, 0])
        assert not np.shares_memory(lam, A)

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_level_two_matches_the_chain(self, m):
        A = rand_sym(np.random.default_rng(34 + m), m, 2000)
        lam = eigvalsh_plain(A)
        mu = garding(A, 2)
        ref = compression_chain(lam, 2)
        assert np.all(np.abs(mu - ref) <= 1e-13 * (1 + np.abs(ref)))
        assert_sigma_residuals(lam, mu)

    @pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
    def test_compressed_levels_match_the_chain(self, m):
        A = rand_sym(np.random.default_rng(40 + m), m, 500)
        lam = eigvalsh_plain(A)
        for k in range(3, m):
            mu = garding(A, k)
            ref = compression_chain(lam, k)
            assert np.all(np.abs(mu - ref) <= 1e-13 * (1 + np.abs(ref)))
            assert_sigma_residuals(lam, mu)

    def test_audit_leaves_numpy_ma_unloaded(self, tmp_path):
        # np.unique imports numpy.ma (~13 ms); the audit path avoids it
        env = dict(os.environ, PYTHONPATH=str(Path(subeq.__file__).resolve().parents[1]))
        if subprocess.run([sys.executable, "-c", "import sys, numpy; "
                           "sys.exit('numpy.ma' in sys.modules)"], env=env, timeout=60).returncode:
            pytest.skip("this numpy imports numpy.ma with numpy itself")
        code = ("import sys; from subeq.cli import main; "
                f"code = main(['audit', '--no-plots', '--out', {str(tmp_path / 'a')!r}]); "
                "sys.exit(code or 10 * ('numpy.ma' in sys.modules))")
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                              capture_output=True).returncode == 0


class TestDenseViewSpectrum:
    @pytest.fixture
    def decompositions(self, monkeypatch):
        """The list of shapes np.linalg.eigvalsh is called on."""
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            shapes.append(np.shape(a))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        return shapes

    @staticmethod
    def view(A):
        n, m = A.shape[:2]
        return DenseView(None, np.zeros(n), np.ones((n, m)), A)

    def test_eigs_decomposed_once(self, decompositions):
        A = rand_sym(np.random.default_rng(21), 4, 50)
        J = self.view(A)
        first = J.eigs
        assert J.eigs is first
        assert decompositions == [A.shape]
        assert np.array_equal(first, eigvalsh_plain(A))
        # a sub-batch is a fresh view with its own spectrum
        assert np.array_equal(J.take(np.arange(50) < 20).eigs, first[:20])
        assert decompositions == [A.shape, (20, 4, 4)]

    def test_garding_levels_continue_the_chain(self, decompositions):
        rng = np.random.default_rng(24)
        for m in range(2, 7):
            A = rand_sym(rng, m, 100)
            lam = eigenvalues_sym_batch(A)
            if m >= 3:  # LAPACK's spectrum, as before the 2 x 2 closed form
                assert np.array_equal(lam, eigvalsh_plain(A))
            expect = {k: garding(A, k) for k in range(1, m + 1)}  # a fresh view each
            decompositions.clear()
            J = self.view(A)
            for k in [*range(m, 0, -1), *range(1, m + 1)]:
                assert np.array_equal(J.garding(k), expect[k]), (m, k)
            # LAPACK decomposes the spectrum and each compressed level
            # m-1, ..., 3 once; a 2 x 2 spectrum and level 2 are closed forms
            assert decompositions == [(100, j, j) for j in range(m, 2, -1)]
            assert sorted(J.levels) == list(range(2, m + 1))

    def test_level_two_skips_the_chain(self, decompositions):
        rng = np.random.default_rng(27)
        for m in range(3, 7):
            decompositions.clear()
            J = self.view(rand_sym(rng, m, 50))
            J.garding(2)
            assert decompositions == [(50, m, m)]
            assert sorted(J.levels) == [2, m]

    def test_stored_levels_read_only(self):
        J = self.view(rand_sym(np.random.default_rng(23), 4, 10))
        # the spectrum is checked before a garding call extends the chain
        outs = [J.eigs]
        assert not outs[0].flags.writeable
        outs += [J.garding(k) for k in (2, 4)]
        outs += list(J.levels.values())
        for out in outs:
            with pytest.raises(ValueError):
                out[0, 0] = 1.0

    def test_garding_batch_is_one_chain(self):
        # a fresh view's level k is the chain from the stack's spectrum
        rng = np.random.default_rng(25)
        for m in range(1, 7):
            A = rand_sym(rng, m, 40)
            lam = eigenvalues_sym_batch(A)
            if m >= 3:
                assert np.array_equal(lam, eigvalsh_plain(A))
            for k in range(1, m + 1):
                expect = _garding_level({m: lam}, k)
                assert np.array_equal(garding(A, k), expect), (m, k)


class TestDenseViewReadings:
    READINGS = ("grad", "grad_up", "trace", "dir2", "dir2_unit")

    @staticmethod
    def view(seed=26, n=30, m=3):
        rng = np.random.default_rng(seed)
        return DenseView(None, rng.standard_normal(n), rng.standard_normal((n, m)),
                         rand_sym(rng, m, n))

    def test_each_reading_computed_once(self):
        J = self.view()
        p, A = J.p, J.A
        expect = {
            "grad": np.linalg.norm(p, axis=1),
            "trace": np.trace(A, axis1=1, axis2=2),
            "dir2": np.einsum("ni,nij,nj->n", p, A, p) / np.einsum("ni,ni->n", p, p),
        }
        expect["grad_up"] = expect["grad"]
        for name in self.READINGS:
            first = getattr(J, name)
            assert getattr(J, name) is first, name
            if name in expect:
                assert np.array_equal(first, expect[name]), name
        # |p| is one reading under two names
        assert J.grad_up is J.grad

    def test_readings_read_only(self):
        J = self.view()
        for name in self.READINGS:
            out = getattr(J, name)
            assert not out.flags.writeable, name
            with pytest.raises(ValueError):
                out[0] = 1.0

    def test_take_starts_fresh_readings(self):
        J = self.view()
        mask = np.arange(30) % 3 != 0
        for name in self.READINGS:
            whole, part = getattr(J, name), getattr(J.take(mask), name)
            assert not np.shares_memory(part, whole), name
            assert part.tobytes() == whole[mask].tobytes(), name

    def test_pnt_views_share_readings_with_n(self):
        from subeq.subequations import _pnt_views

        J, JP, JN = _pnt_views(3, 50, seed=2)
        assert JN.readings is J.readings and JN.levels is J.levels
        for name in self.READINGS:
            assert getattr(JN, name) is getattr(J, name), name
        # P adds a matrix to A: its trace is its own
        assert JP.readings is not J.readings
        assert not np.array_equal(JP.trace, J.trace)
