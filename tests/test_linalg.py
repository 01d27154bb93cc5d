import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import condition_ratio, reconstruct, weyl_interval
from privgauss import linalg
from privgauss.errors import (
    DegenerateSpectrum,
    InvalidArgument,
    InvalidMatrix,
    RangeMismatch,
)


def random_symmetric(rng, d, scale=10.0):
    a = rng.uniform(-scale, scale, size=(d, d))
    return 0.5 * (a + a.T)


class TestSymEig:
    def test_diagonal(self):
        spec = linalg.sym_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(spec.eigenvalues, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(spec.eigenvectors), np.eye(2), atol=1e-12)

    def test_identity(self):
        spec = linalg.sym_eig(np.eye(5))
        np.testing.assert_allclose(spec.eigenvalues, np.ones(5))

    def test_two_by_two_hand_solved(self):
        # char. poly of [[2,1],[1,2]] is (2-x)^2 - 1, roots 3 and 1
        spec = linalg.sym_eig([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(spec.eigenvalues, [3.0, 1.0], atol=1e-12)
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        v0 = spec.eigenvectors[:, 0]
        v1 = spec.eigenvectors[:, 1]
        assert abs(abs(v0 @ [inv_sqrt2, inv_sqrt2]) - 1.0) < 1e-12
        assert abs(abs(v1 @ [inv_sqrt2, -inv_sqrt2]) - 1.0) < 1e-12

    def test_negative_eigenvalues_allowed(self):
        spec = linalg.sym_eig(np.diag([1.0, -4.0]))
        np.testing.assert_allclose(spec.eigenvalues, [1.0, -4.0])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidMatrix):
            linalg.sym_eig([[np.nan, 0.0], [0.0, 1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(InvalidMatrix):
            linalg.sym_eig(np.zeros((2, 3)))

    def test_dimension_cap(self):
        with pytest.raises(InvalidMatrix):
            linalg.as_sym_matrix(np.eye(linalg.MAX_DIM + 1))

    def test_reconstruction_and_orthonormality_500_random(self):
        rng = np.random.default_rng(7)
        for trial in range(500):
            d = int(rng.integers(1, 17))
            m = random_symmetric(rng, d)
            spec = linalg.sym_eig(m)
            fro = np.linalg.norm(m)
            recon = reconstruct(spec)
            assert np.linalg.norm(recon - m) <= 1e-10 * max(1.0, fro)
            v = spec.eigenvectors
            assert np.linalg.norm(v.T @ v - np.eye(d)) <= 1e-10
            assert np.all(np.diff(spec.eigenvalues) <= 1e-12)

    def test_matches_lapack_on_random_input(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = int(rng.integers(2, 13))
            m = random_symmetric(rng, d)
            ours = linalg.sym_eig(m).eigenvalues
            lapack = np.linalg.eigh(m)[0][::-1]
            np.testing.assert_allclose(ours, lapack, atol=1e-9 * max(1.0, abs(lapack[0])))

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(3)
        mats = np.stack([random_symmetric(rng, 6) for _ in range(40)])
        vals, vecs = linalg.sym_eig_batch(mats)
        for i in range(40):
            single = linalg.sym_eig(mats[i])
            np.testing.assert_allclose(vals[i], single.eigenvalues, atol=1e-10)
            recon = (vecs[i] * vals[i]) @ vecs[i].T
            assert np.linalg.norm(recon - mats[i]) <= 1e-9

    def test_values_only_match_full_decomposition(self):
        rng = np.random.default_rng(19)
        for d in (1, 2, 3, 8):
            mats = np.stack([random_symmetric(rng, d) for _ in range(200)])
            full, _ = linalg.sym_eig_batch(mats)
            vals, vecs = linalg.sym_eig_batch(mats, vectors=False)
            assert vecs is None
            scale = np.abs(full).max(axis=1, keepdims=True)
            assert np.all(np.abs(vals - full) <= 1e-12 * scale)

    @pytest.mark.parametrize("vectors", [True, False])
    def test_no_convergence_is_invalid_matrix(self, vectors):
        with pytest.raises(InvalidMatrix) as info:
            linalg.sym_eig_batch(np.full((1, 3, 3), np.nan), vectors=vectors)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


class TestPsdProject:
    def test_clips_negative_eigenvalue(self):
        out = linalg.psd_project(np.diag([2.0, -1.0]))
        np.testing.assert_allclose(out, np.diag([2.0, 0.0]), atol=1e-12)

    def test_fixed_point_on_psd(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            b = rng.normal(size=(6, 6))
            m = b @ b.T
            out = linalg.psd_project(m)
            assert np.linalg.norm(out - m) <= 1e-10 * max(1.0, np.linalg.norm(m))

    def test_antidiagonal_keeps_positive_eigenspace(self):
        # eigenvalues of [[0,1],[1,0]] are +1 and -1; keep the +1 space
        out = linalg.psd_project([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(out, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_idempotent_and_nonexpansive_200_random(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            d = int(rng.integers(1, 9))
            m = random_symmetric(rng, d)
            p1 = linalg.psd_project(m)
            p2 = linalg.psd_project(p1)
            assert np.linalg.norm(p2 - p1) <= 1e-9 * max(1.0, np.linalg.norm(p1))
            assert np.linalg.norm(p1 - m) <= np.linalg.norm(m) + 1e-12
            assert linalg.sym_eig(p1).eigenvalues[-1] >= -1e-10 * max(
                1.0, abs(linalg.sym_eig(m).eigenvalues[0])
            )


class TestRelNorms:
    def test_identity_pairs(self):
        assert linalg.rel_cov_norm(np.eye(3), np.eye(3)) == pytest.approx(0.0, abs=1e-12)

    def test_double_identity(self):
        for d in (1, 2, 5):
            got = linalg.rel_cov_norm(2.0 * np.eye(d), np.eye(d))
            assert got == pytest.approx(np.sqrt(d), rel=1e-12)

    def test_diag_two_one(self):
        # whitened difference is diag(1, 0)
        got = linalg.rel_cov_norm(np.diag([2.0, 1.0]), np.eye(2))
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_non_psd_truth_rejected(self):
        with pytest.raises(InvalidMatrix):
            linalg.rel_cov_norm(np.eye(2), np.diag([1.0, -1.0]))

    def test_rank_deficient_truth_in_space(self):
        truth = np.diag([4.0, 0.0])
        est = np.diag([1.0, 0.0])
        # inside the 1-dim column space: |1/4 - 1| = 0.75
        assert linalg.rel_cov_norm(est, truth) == pytest.approx(0.75, rel=1e-12)

    def test_rank_deficient_truth_out_of_space(self):
        truth = np.diag([4.0, 0.0])
        est = np.diag([1.0, 1.0])
        with pytest.raises(RangeMismatch):
            linalg.rel_cov_norm(est, truth)

    def test_zero_truth(self):
        assert linalg.rel_cov_norm(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0
        with pytest.raises(RangeMismatch):
            linalg.rel_cov_norm(np.eye(2), np.zeros((2, 2)))

    def test_mean_norm_examples(self):
        z = np.zeros(2)
        assert linalg.rel_mean_norm(z, z, np.eye(2)) == pytest.approx(0.0, abs=1e-15)
        assert linalg.rel_mean_norm([2.0, 0.0], z, np.eye(2)) == pytest.approx(2.0)
        got = linalg.rel_mean_norm([2.0, 0.0], z, np.diag([4.0, 1.0]))
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_congruence_invariance(self):
        # rel_cov_norm(B E B^T, B T B^T) == rel_cov_norm(E, T) for invertible B;
        # this identity is what makes "revert to the original space" exact.
        rng = np.random.default_rng(17)
        for _ in range(60):
            d = int(rng.integers(1, 9))
            base = rng.normal(size=(d, d))
            truth = base @ base.T + 0.5 * np.eye(d)
            est = truth + 0.1 * random_symmetric(rng, d, scale=1.0)
            b = rng.normal(size=(d, d)) + 2.0 * np.eye(d)
            if abs(np.linalg.det(b)) < 1e-6:
                continue
            lhs = linalg.rel_cov_norm(b @ est @ b.T, b @ truth @ b.T)
            rhs = linalg.rel_cov_norm(est, truth)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, rhs)


class TestProjectors:
    def test_top_one_of_diag(self):
        spec = linalg.sym_eig(np.diag([3.0, 1.0]))
        proj = linalg.top_k_projector(spec, 1)
        np.testing.assert_allclose(proj.matrix, np.diag([1.0, 0.0]), atol=1e-12)
        assert proj.rank == 1

    def test_full_and_zero_rank(self):
        spec = linalg.sym_eig(np.diag([2.0, 1.0, 0.5]))
        np.testing.assert_allclose(linalg.top_k_projector(spec, 3).matrix, np.eye(3), atol=1e-12)
        zero = linalg.top_k_projector(spec, 0)
        np.testing.assert_allclose(zero.matrix, np.zeros((3, 3)), atol=1e-12)
        assert zero.rank == 0

    def test_out_of_range_rank(self):
        spec = linalg.sym_eig(np.eye(2))
        with pytest.raises(InvalidArgument):
            linalg.top_k_projector(spec, 3)

    def test_idempotence_and_trace(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            d = int(rng.integers(2, 10))
            k = int(rng.integers(0, d + 1))
            spec = linalg.sym_eig(random_symmetric(rng, d))
            proj = linalg.top_k_projector(spec, k)
            p = proj.matrix
            assert np.linalg.norm(p @ p - p) <= 1e-9
            assert abs(np.trace(p) - proj.rank) <= 1e-9 * d


class TestConditionRatio:
    def test_identity(self):
        assert condition_ratio(np.eye(4), 1, 4) == pytest.approx(1.0)

    def test_diag_ratio(self):
        assert condition_ratio(np.diag([100.0, 1.0]), 2, 1) == pytest.approx(0.01)
        assert condition_ratio(np.diag([1e12, 1.0]), 1, 2) == pytest.approx(1e12)

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateSpectrum):
            condition_ratio(np.diag([1.0, 0.0]), 1, 2)


class TestWeyl:
    def test_zero_perturbation(self):
        lo, hi = weyl_interval(np.diag([5.0, 1.0]), np.zeros((2, 2)), 1)
        assert (lo, hi) == (5.0, 5.0)

    def test_identity_shift(self):
        lo, hi = weyl_interval(np.diag([5.0, 1.0]), np.eye(2), 1)
        assert (lo, hi) == (6.0, 6.0)

    def test_mixed_perturbation(self):
        lo, hi = weyl_interval(np.diag([5.0, 1.0]), np.diag([0.5, -0.5]), 2)
        assert (lo, hi) == (0.5, 1.5)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgument):
            weyl_interval(np.eye(2), np.eye(3), 1)

    def test_containment_200_random_pairs(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            d = int(rng.integers(1, 9))
            n = random_symmetric(rng, d)
            r = random_symmetric(rng, d)
            lam_sum = linalg.sym_eig(n + r).eigenvalues
            for i in range(1, d + 1):
                lo, hi = weyl_interval(n, r, i)
                assert lo - 1e-9 <= lam_sum[i - 1] <= hi + 1e-9


class TestPolarAndInverse:
    def test_spd_inverse(self):
        rng = np.random.default_rng(31)
        b = rng.normal(size=(5, 5))
        m = b @ b.T + np.eye(5)
        inv = linalg.spd_inverse(m)
        np.testing.assert_allclose(inv @ m, np.eye(5), atol=1e-9)

    def test_spd_inverse_rejects_singular(self):
        with pytest.raises(DegenerateSpectrum):
            linalg.spd_inverse(np.diag([1.0, 0.0]))

    def test_polar_factor_preserves_congruence_spectrum(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            d = 5
            a = rng.normal(size=(d, d)) + 3.0 * np.eye(d)
            sigma = random_symmetric(rng, d)
            sigma = sigma @ sigma.T + np.eye(d)
            s = linalg.symmetric_polar_factor(a)
            # S is SPD and A Sigma A^T shares eigenvalues with S Sigma S
            assert np.linalg.norm(s - s.T) <= 1e-12
            lam_a = np.linalg.eigvalsh(a @ sigma @ a.T)
            lam_s = np.linalg.eigvalsh(s @ sigma @ s)
            np.testing.assert_allclose(lam_a, lam_s, rtol=1e-8)


def random_spd(rng, d, lo, hi):
    """SPD matrix with eigenvalues drawn from [lo, hi] in a random basis."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return (q * rng.uniform(lo, hi, size=d)) @ q.T


def rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestMappedRows:
    # ||a||_2 up to 5 and cond(a) up to 25: the mapped statistic's rounding
    # is a few cond(a)^2 ulps, far below the tolerance
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 6),
        st.integers(60, 400),
        st.sampled_from([(0.2, 1.0), (0.5, 2.0), (1.0, 5.0)]),
        st.booleans(),
    )
    def test_statistics_match_mapped_rows(self, seed, d, n, spread, moment_first):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
        a = random_spd(rng, d, *spread)
        y = x @ a
        layouts = [(n // (2 * d), 2 * d), (7, n // 9)]
        view = linalg.MappedRows.of(x).mapped(a)
        if moment_first:
            assert rel_err(view.moment(), y.T @ y) <= 1e-12
        for t, m in layouts:
            assert rel_err(view.gram_stack(t, m), linalg.gram_stack(y, t, m)) <= 1e-12
        assert rel_err(view.moment(), y.T @ y) <= 1e-12
        assert view.shape == y.shape

    def test_unmapped_statistics_are_the_cached_values(self):
        x = np.random.default_rng(1).normal(size=(500, 3))
        view = linalg.MappedRows.of(x)
        stack = view.gram_stack(40, 12)
        assert np.array_equal(stack, linalg.gram_stack(x, 40, 12))
        assert view.gram_stack(40, 12) is stack
        assert not stack.flags.writeable
        assert view.norm_bound() == np.einsum("ij,ij->i", x, x).max()

    def test_mapped_views_share_one_cache_and_compose(self, monkeypatch):
        calls = []
        original = linalg.gram_stack
        monkeypatch.setattr(linalg, "gram_stack", lambda x, t, m: calls.append((t, m)) or original(x, t, m))
        rng = np.random.default_rng(2)
        x = rng.normal(size=(300, 3))
        a, b = random_spd(rng, 3, 0.5, 2.0), random_spd(rng, 3, 0.5, 2.0)
        base = linalg.MappedRows.of(x)
        base.gram_stack(30, 10)
        composed = base.mapped(a).mapped(b)
        y = x @ a @ b
        assert rel_err(composed.gram_stack(30, 10), original(y, 30, 10)) <= 1e-12
        assert rel_err(composed.moment(), y.T @ y) <= 1e-12
        assert calls == [(30, 10)]

    def test_norm_bound_covers_every_mapped_row(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2000, 4))
        a = random_spd(rng, 4, 0.1, 3.0)
        y = x @ a
        assert np.einsum("ij,ij->i", y, y).max() <= linalg.MappedRows.of(x).mapped(a).norm_bound()

    def test_of_validates_rows_and_keeps_views(self):
        view = linalg.MappedRows.of(np.ones((4, 2), dtype=np.int64))
        assert view.x.dtype == np.float64
        assert linalg.MappedRows.of(view) is view
        with pytest.raises(InvalidArgument):
            linalg.MappedRows.of(np.ones(4))
