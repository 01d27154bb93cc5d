import itertools
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import condition_ratio, gram_stack_reference, reconstruct, weyl_interval
from privgauss import linalg
from privgauss.errors import (
    DegenerateSpectrum,
    InvalidArgument,
    InvalidMatrix,
)
from privgauss.precondition import coarse_map


def random_symmetric(rng, d, scale=10.0):
    a = rng.uniform(-scale, scale, size=(d, d))
    return 0.5 * (a + a.T)


class TestSymEig:
    def test_diagonal(self):
        vals, vecs = linalg.sym_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(vals, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(vecs), np.eye(2), atol=1e-12)

    def test_identity(self):
        vals, _ = linalg.sym_eig(np.eye(5))
        np.testing.assert_allclose(vals, np.ones(5))

    def test_two_by_two_hand_solved(self):
        # char. poly of [[2,1],[1,2]] is (2-x)^2 - 1, roots 3 and 1
        vals, vecs = linalg.sym_eig([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(vals, [3.0, 1.0], atol=1e-12)
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        v0 = vecs[:, 0]
        v1 = vecs[:, 1]
        assert abs(abs(v0 @ [inv_sqrt2, inv_sqrt2]) - 1.0) < 1e-12
        assert abs(abs(v1 @ [inv_sqrt2, -inv_sqrt2]) - 1.0) < 1e-12

    def test_negative_eigenvalues_allowed(self):
        vals, _ = linalg.sym_eig(np.diag([1.0, -4.0]))
        np.testing.assert_allclose(vals, [1.0, -4.0])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidMatrix):
            linalg.sym_eig([[np.nan, 0.0], [0.0, 1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(InvalidMatrix):
            linalg.sym_eig(np.zeros((2, 3)))

    def test_empty_rejected(self):
        # an empty matrix has no smallest eigenvalue to check
        for f in (linalg.sym_eig, linalg.spd_inverse, lambda m: linalg.rel_cov_norm(m, m)):
            with pytest.raises(InvalidMatrix):
                f(np.zeros((0, 0)))

    def test_dimension_cap(self):
        with pytest.raises(InvalidMatrix):
            linalg.as_sym_matrix(np.eye(linalg.MAX_DIM + 1))

    def test_reconstruction_and_orthonormality_500_random(self):
        rng = np.random.default_rng(7)
        for trial in range(500):
            d = int(rng.integers(1, 17))
            m = random_symmetric(rng, d)
            vals, v = linalg.sym_eig(m)
            fro = np.linalg.norm(m)
            recon = reconstruct(vals, v)
            assert np.linalg.norm(recon - m) <= 1e-10 * max(1.0, fro)
            assert np.linalg.norm(v.T @ v - np.eye(d)) <= 1e-10
            assert np.all(np.diff(vals) <= 1e-12)

    def test_matches_lapack_on_random_input(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = int(rng.integers(2, 13))
            m = random_symmetric(rng, d)
            ours, _ = linalg.sym_eig(m)
            lapack = np.linalg.eigh(m)[0][::-1]
            np.testing.assert_allclose(ours, lapack, atol=1e-9 * max(1.0, abs(lapack[0])))

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(3)
        mats = np.stack([random_symmetric(rng, 6) for _ in range(40)])
        vals, vecs = linalg.sym_eig_batch(mats)
        for i in range(40):
            single, _ = linalg.sym_eig(mats[i])
            np.testing.assert_allclose(vals[i], single, atol=1e-10)
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
    @pytest.mark.parametrize("d", [2, 3])
    def test_no_convergence_is_invalid_matrix(self, vectors, d):
        with pytest.raises(InvalidMatrix) as info:
            linalg.sym_eig_batch(np.full((1, d, d), np.nan), vectors=vectors)
        # LAPACK reports the failure at d = 3; the 2 x 2 rotation checks its
        # input before it starts
        if d == 3:
            assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


EPS = np.finfo(np.float64).eps


def assert_matches_lapack(mats):
    """The 2 x 2 path against numpy.linalg.eigh on a (b, 2, 2) stack: values
    within 8 eps ||A||, orthonormal vectors within 8 eps, reconstruction
    within 8 eps ||A||, non-increasing order, and the values-only call
    returning the same values bit for bit."""
    vals, vecs = linalg.sym_eig_batch(mats)
    only, none = linalg.sym_eig_batch(mats, vectors=False)
    assert none is None
    assert np.array_equal(only, vals)
    lapack = np.linalg.eigvalsh(mats)[:, ::-1]
    norm = np.abs(lapack).max(axis=1)  # ||A||_2
    assert np.all(np.abs(vals - lapack).max(axis=1) <= 8 * EPS * norm)
    gram = np.swapaxes(vecs, 1, 2) @ vecs
    assert np.all(np.abs(gram - np.eye(2)).max(axis=(1, 2)) <= 8 * EPS)
    recon = (vecs * vals[:, None, :]) @ np.swapaxes(vecs, 1, 2)
    assert np.all(np.abs(recon - mats).max(axis=(1, 2)) <= 8 * EPS * norm)
    assert np.all(vals[:, 0] >= vals[:, 1])


def two_by_two(p, q, r):
    return np.array([[p, q], [q, r]], dtype=np.float64)


class TestTwoByTwoRotation:
    """The closed-form rotation that every 2 x 2 stack takes, against LAPACK."""

    CASES = {
        "diagonal": [two_by_two(3, 0, 1), two_by_two(1, 0, 3), two_by_two(-2, 0, 5), two_by_two(0, 0, -1e-3)],
        "multiple of I": [two_by_two(0, 0, 0), two_by_two(5, 0, 5), two_by_two(-7.5, 0, -7.5)],
        "rank 1": [np.outer(v, v) for v in ([1.0, 2.0], [3.0, -1.0], [1e-8, 1.0], [1.0, 0.1])],
        "negative definite": [two_by_two(-1, -2, -5), two_by_two(-3, 1, -3), two_by_two(-1e6, 10, -1)],
        "tau^2 overflows": [two_by_two(1, 1e-200, 2), two_by_two(2e100, -1e-100, 1e100), two_by_two(-1, 3e-200, 1)],
        "near 1e307": [
            two_by_two(1e307, -1e307, 1e307),
            two_by_two(-1e307, 1e307, 1e307),
            two_by_two(9e306, 1e307, -1e307),
            two_by_two(-1e307, -9.9e306, -1e307),
        ],
        "near 1e-300": [two_by_two(1e-300, 2e-300, -3e-300), two_by_two(-1e-300, 1e-300, -1e-300)],
        "off-diagonal only": [two_by_two(0, 1, 0), two_by_two(0, -2.5, 0)],
        "signed zeros": [two_by_two(0.0, 5.9e-39, -0.0), two_by_two(-0.0, -1, 0.0), two_by_two(-0.0, 1, -0.0)],
        # halving 3 and 4 times 2^-1074 rounds both to 2^-1073
        "subnormal diagonal": [two_by_two(1.5e-323, 0, 2e-323), two_by_two(2e-323, 0, 1.5e-323)],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_explicit_cases(self, case):
        assert_matches_lapack(np.stack(self.CASES[case]))

    def test_diagonal_input_is_returned_exactly(self):
        mats = np.stack([two_by_two(3, 0, 1), two_by_two(1, 0, 3), two_by_two(5, 0, 5)])
        vals, vecs = linalg.sym_eig_batch(mats)
        assert np.array_equal(vals, [[3, 1], [3, 1], [5, 5]])
        # coordinate axes, in the values' order; either order serves 5 I
        assert np.array_equal(np.abs(vecs[:2]), [np.eye(2), np.eye(2)[::-1]])
        assert set(np.abs(vecs[2]).ravel()) == {0.0, 1.0}

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=3, max_size=3),
        st.integers(-990, 1000),
    )
    def test_matches_lapack(self, entries, exponent):
        # the largest entry is scaled to 2^exponent, so eps ||A|| never
        # falls below the normal range
        p, q, r = np.asarray(entries) / max(max(abs(e) for e in entries), 1e-300)
        assert_matches_lapack(np.ldexp(two_by_two(p, q, r), exponent)[None])

    def test_large_random_stacks(self):
        rng = np.random.default_rng(23)
        for scale in (1e-290, 1.0, 1e290):
            half = rng.standard_normal((20_000, 2, 2))
            assert_matches_lapack(scale * (half + np.swapaxes(half, 1, 2)))
            rows = rng.standard_normal((20_000, 8, 2)) * [1.0, 1e-3]
            assert_matches_lapack(scale * (np.swapaxes(rows, 1, 2) @ rows))

    @pytest.mark.parametrize("vectors", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 1)])
    def test_non_finite_entries_are_invalid(self, vectors, bad, where):
        mats = np.stack([np.eye(2), np.eye(2)])
        mats[1][where] = mats[1][where[::-1]] = bad
        with pytest.raises(InvalidMatrix):
            linalg.sym_eig_batch(mats, vectors=vectors)


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
            assert linalg.sym_eig(p1)[0][-1] >= -1e-10 * max(1.0, abs(linalg.sym_eig(m)[0][0]))


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

    @pytest.mark.parametrize(
        "truth",
        [np.diag([1.0, -1.0]), np.diag([4.0, 0.0]), np.zeros((2, 2))],
        ids=["indefinite", "singular", "zero"],
    )
    def test_truth_that_is_not_positive_definite_is_rejected(self, truth):
        # the whitened norms are defined for a positive-definite truth only
        with pytest.raises(DegenerateSpectrum):
            linalg.rel_cov_norm(np.eye(2), truth)
        with pytest.raises(DegenerateSpectrum):
            linalg.rel_mean_norm(np.ones(2), np.zeros(2), truth)

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
    def test_outer_sym_is_the_symmetrized_product(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((5, 5))
        left = v * rng.standard_normal(5)
        out = linalg.outer_sym(left, v)
        np.testing.assert_array_equal(out, out.T)
        product = left @ v.T
        np.testing.assert_array_equal(out, 0.5 * (product + product.T))

    def test_top_one_of_diag(self):
        _, vecs = linalg.sym_eig(np.diag([3.0, 1.0]))
        p = linalg.top_k_projector(vecs, 1)
        np.testing.assert_allclose(p, np.diag([1.0, 0.0]), atol=1e-12)
        assert abs(np.trace(p) - 1) <= 1e-9 * 2

    def test_full_and_zero_rank(self):
        _, vecs = linalg.sym_eig(np.diag([2.0, 1.0, 0.5]))
        np.testing.assert_allclose(linalg.top_k_projector(vecs, 3), np.eye(3), atol=1e-12)
        zero = linalg.top_k_projector(vecs, 0)
        np.testing.assert_allclose(zero, np.zeros((3, 3)), atol=1e-12)
        assert abs(np.trace(zero)) <= 1e-9 * 3

    def test_out_of_range_rank(self):
        _, vecs = linalg.sym_eig(np.eye(2))
        with pytest.raises(InvalidArgument):
            linalg.top_k_projector(vecs, 3)

    def test_idempotence_and_trace(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            d = int(rng.integers(2, 10))
            k = int(rng.integers(0, d + 1))
            _, vecs = linalg.sym_eig(random_symmetric(rng, d))
            p = linalg.top_k_projector(vecs, k)
            assert np.linalg.norm(p @ p - p) <= 1e-9
            assert abs(np.trace(p) - k) <= 1e-9 * d


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
            lam_sum, _ = linalg.sym_eig(n + r)
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


def matmul_stack(x, t, m):
    """Reference Gram stack: one BLAS product per subsample."""
    c = x[: t * m].reshape(t, m, x.shape[1])
    return np.matmul(c.transpose(0, 2, 1), c)


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
            assert rel_err(view.gram_stack(t, m), matmul_stack(y, t, m)) <= 1e-12
        assert rel_err(view.moment(), y.T @ y) <= 1e-12
        assert view.shape == y.shape

    def test_unmapped_statistics_are_the_cached_values(self):
        x = np.random.default_rng(1).normal(size=(500, 3))
        view = linalg.MappedRows.of(x)
        stack = view.gram_stack(40, 12)
        assert np.array_equal(stack, linalg.gram_stack(x, 12)[0][:40])
        assert view.gram_stack(40, 12).base is stack.base is not None  # the cached stack, not a copy
        assert not stack.flags.writeable
        assert view.max_sq_norm() == linalg.sq_norms(x).max()

    def test_moment_is_the_mapped_sum_of_the_first_cached_stack(self):
        # the cache keeps no moment: each request sums the first raw stack
        # cached, symmetrizes and maps it, so finer stacks cached later
        # leave it bit-identical; a view with no stack forms X^T X
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1003, 3))
        a = random_spd(rng, 3, 0.5, 2.0)
        base = linalg.MappedRows.of(x)
        full = x.T @ x
        assert np.array_equal(base.moment(), 0.5 * (full + full.T))
        view = base.mapped(a)
        base.gram_stack(10, 100)
        full = linalg.gram_stack(x, 100)[0].sum(axis=0)
        raw = 0.5 * (full + full.T)
        want = view._map(raw)
        assert np.array_equal(base.moment(), raw)
        assert np.array_equal(view.moment(), want)
        view.gram_stack(100, 10)
        base.gram_stack(500, 2)
        assert list(base._stats.stacks) == [100, 10, 2]
        assert np.array_equal(base.moment(), raw)
        assert np.array_equal(view.moment(), want)

    def test_mapped_views_share_one_cache_and_compose(self, monkeypatch):
        calls = []
        original = linalg.gram_stack
        monkeypatch.setattr(
            linalg, "gram_stack", lambda x, m, norms=True: calls.append(m) or original(x, m, norms)
        )
        rng = np.random.default_rng(2)
        x = rng.normal(size=(300, 3))
        a, b = random_spd(rng, 3, 0.5, 2.0), random_spd(rng, 3, 0.5, 2.0)
        base = linalg.MappedRows.of(x)
        base.gram_stack(30, 10)
        composed = base.mapped(a).mapped(b)
        y = x @ a @ b
        assert rel_err(composed.gram_stack(30, 10), matmul_stack(y, 30, 10)) <= 1e-12
        assert rel_err(composed.moment(), y.T @ y) <= 1e-12
        assert rel_err(composed.gram_stack(20, 10), matmul_stack(y, 20, 10)) <= 1e-12
        assert calls == [10]

    def test_max_sq_norm_is_the_max_over_mapped_blocks(self):
        # three blocks, the last of 5 rows: the maximum is exactly the one
        # over the blocks x[s:s+B] @ a, and matches the one-shot product's
        b = linalg.BLOCK_ROWS
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2 * b + 5, 4))
        a = random_spd(rng, 4, 0.1, 3.0)
        blocks = [x[s : s + b] @ a for s in range(0, len(x), b)]
        got = linalg.MappedRows.of(x).mapped(a).max_sq_norm()
        assert got == max(linalg.sq_norms(y).max() for y in blocks)
        y = x @ a
        want = linalg.sq_norms(y).max()
        assert abs(got - want) <= 1e-14 * want

    @pytest.mark.parametrize("order", list(itertools.permutations(["max", (40, 12), (7, 60), (100, 5)])))
    def test_one_norm_sweep_over_the_rows_in_any_order(self, monkeypatch, order):
        # only the first raw stack's pass takes the columns' extremes, and no
        # stack computes a row norm; the identity view's exact maximum is
        # one sweep of its blocks, made on request, once per view
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2 * linalg.BLOCK_ROWS + 7, 3))
        x[-1] *= 10.0  # the largest row lies past every layout's t * m rows
        want = linalg.sq_norms(x).max()
        stacks = {step: linalg.gram_stack(x, step[1])[0][: step[0]] for step in order if step != "max"}
        swept, flags = [], []
        sq_norms, gram_stack = linalg.sq_norms, linalg.gram_stack
        monkeypatch.setattr(
            linalg, "gram_stack", lambda x, m, norms=True: flags.append(norms) or gram_stack(x, m, norms)
        )

        def spy(block):
            if np.may_share_memory(block, x):
                swept.append(len(block))
            return sq_norms(block)

        monkeypatch.setattr(linalg, "sq_norms", spy)
        view = linalg.MappedRows.of(x)
        for step in order:
            if step == "max":
                assert view.max_sq_norm() == want
            else:
                assert np.array_equal(view.gram_stack(*step), stacks[step])
        assert view.max_sq_norm() == linalg.MappedRows.of(x).max_sq_norm() == want
        assert sum(swept) == 2 * len(x)  # this view's one sweep, and the fresh view's
        assert flags == [True, False, False]

    def test_without_norms_no_norm_is_computed(self, monkeypatch):
        x = np.random.default_rng(7).normal(size=(300, 2))
        stack, _ = linalg.gram_stack(x, 9)
        monkeypatch.setattr(linalg, "sq_norms", lambda block: pytest.fail("a norm was computed"))
        bare, none = linalg.gram_stack(x, 9, norms=False)
        assert none is None
        assert np.array_equal(bare, stack)

    def test_of_validates_rows_and_keeps_views(self):
        view = linalg.MappedRows.of(np.ones((4, 2), dtype=np.int64))
        assert view.x.dtype == np.float64
        assert linalg.MappedRows.of(view) is view
        with pytest.raises(InvalidArgument):
            linalg.MappedRows.of(np.ones(4))
        with pytest.raises(InvalidArgument):
            linalg.MappedRows.of(np.ones((4, 0)))


def in_layout(x, layout):
    """``x``'s values as an input of the given memory layout or dtype."""
    if layout == "fortran":
        return np.asfortranarray(x)
    if layout == "rows[::2]":
        doubled = np.empty((2 * len(x), x.shape[1]))
        doubled[::2] = x
        return doubled[::2]
    if layout == "cols[::-1]":
        return np.ascontiguousarray(x[:, ::-1])[:, ::-1]
    if layout == "int64":
        return x.astype(np.int64)
    return x


class TestSqNorms:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 300), st.data())
    def test_a_row_norm_depends_only_on_the_row(self, seed, d, n, data):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d)) * rng.uniform(0.1, 1e3, size=d)
        want = linalg.sq_norms(x)
        # the int64 cast truncates x, so it is compared with its own values
        for layout in ["fortran", "rows[::2]", "cols[::-1]", "int64"]:
            got = in_layout(x, layout)
            ref = want if layout != "int64" else linalg.sq_norms(got.astype(np.float64))
            assert np.array_equal(linalg.sq_norms(got), ref)
        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=4)))
        parts = [x[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, n])]
        assert np.array_equal(np.concatenate([linalg.sq_norms(p) for p in parts]), want)
        np.testing.assert_allclose(want, np.sum(x * x, axis=1), rtol=1e-14)
        # the raw pass's maximum is the blocked pass's, whichever runs first
        t = data.draw(st.integers(1, n))
        m = data.draw(st.integers(1, n // t))
        stacked = linalg.MappedRows.of(x)
        stacked.gram_stack(t, m)
        assert stacked.max_sq_norm() == linalg.MappedRows.of(x).max_sq_norm() == want.max()


class TestGramStack:
    B = linalg.BLOCK_ROWS

    # (t, m, tail): t full blocks of m rows and a leftover block of tail
    # rows; several blocks per buffer, m not dividing BLOCK_ROWS, m >
    # BLOCK_ROWS, one block per buffer, and DOT_TERMS < m <= BLOCK_ROWS,
    # blocks that a BLOCK_ROWS-row block holds but one fill does not
    @pytest.mark.parametrize(
        "t, m, tail",
        [
            (3, 5, 0),
            (3, 5, 4),
            (100, 466, 0),
            (100, 466, 465),
            (2, B + 3, 0),
            (2, B + 3, 7),
            (1, 2 * B, B + 1),
            (3, 10_000, 5),
            (2, 16_000, 777),
        ],
    )
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_stack_and_maximum_cover_every_row(self, t, m, tail, d):
        rng = np.random.default_rng(t + m + tail)
        x = rng.normal(size=(t * m + tail, d)) * np.geomspace(0.01, 30.0, d)
        x[-1] *= -100.0  # the largest entries lie in the leftover block when there is one
        stack, col_max = linalg.gram_stack(x, m)
        assert np.array_equal(col_max, np.abs(x).max(axis=0))
        assert len(stack) == t + (tail > 0)
        # each block, the leftover one against its own rows' Gram matrix
        want = np.stack([c.T @ c for c in (x[s : s + m] for s in range(0, len(x), m))])
        assert np.all(np.abs(stack - want).max(axis=(1, 2)) <= 1e-12 * np.abs(want).max(axis=(1, 2)))
        assert np.array_equal(stack, stack.transpose(0, 2, 1))

    # floor-d2's coarse layout (shortened), fine-d3's eigenvalue layout, a
    # subsample longer than a block, d = 1, and at d = 1 and 2 subsamples
    # longer than DOT_TERMS that a block holds
    @pytest.mark.parametrize(
        "t, m, d", [(2_000, 8, 2), (300, 186, 3), (2, B + 3, 4), (50, 40, 1), (3, 10_000, 1), (2, 16_000, 2)]
    )
    def test_rounding_does_not_depend_on_the_rows_address(self, t, m, d):
        # the benchmark requires two estimates at one seed to agree bit for
        # bit, and each reads freshly allocated rows: the stack and column
        # maxima, the leftover block's too, must not change with the rows'
        # offset from a 64-byte boundary
        rng = np.random.default_rng(t + m + d)
        x = rng.normal(size=(t * m + 5, d)) * np.geomspace(0.01, 30.0, d)
        raw = np.empty(x.size + 16)
        aligned = (-raw.ctypes.data % 64) // raw.itemsize
        results = []
        for offset in range(8):
            rows = raw[aligned + offset : aligned + offset + x.size].reshape(x.shape)
            rows[...] = x
            results.append(linalg.gram_stack(rows, m))
        for stack, col_max in results[1:]:
            assert np.array_equal(stack, results[0][0])
            assert np.array_equal(col_max, results[0][1])

    def test_stack_does_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS splits a dot of more than 10,000 terms across threads; the
        # thread count is fixed when NumPy loads, so each count gets its own
        # process, and both must build the same stack bit for bit
        script = (
            "import hashlib, numpy as np; from privgauss import linalg\n"
            "for m in (10_001, 20_000):\n"
            "    x = np.random.default_rng(m).normal(size=(2 * m, 3)) * np.geomspace(0.01, 30.0, 3)\n"
            "    print(hashlib.sha256(linalg.gram_stack(x, m)[0].tobytes()).hexdigest())\n"
        )
        src = str(pathlib.Path(linalg.__file__).resolve().parents[1])
        hashes = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
            hashes.append(run.stdout.split())
        assert len(hashes[0]) == 2
        assert hashes[0] == hashes[1]

    @pytest.mark.parametrize("t, m", [(0, 5), (5, 0), (-1, 5), (4, 26), (101, 1)])
    def test_layout_that_does_not_fit_raises(self, t, m):
        # a view takes the first t blocks of the stack of every block
        with pytest.raises(InvalidArgument):
            linalg.MappedRows.of(np.ones((100, 2))).gram_stack(t, m)

    # floor-d2's coarse layout (shortened), fine-d3's two eigenvalue
    # layouts, and at d = 1 and 2 subsamples longer than DOT_TERMS that a
    # block holds, with 779 rows past each: blocks past the layout, then a
    # leftover block
    @pytest.mark.parametrize(
        "t, m, d", [(2_000, 8, 2), (8364, 466, 3), (1853, 2104, 3), (3, 10_000, 1), (2, 16_000, 2)]
    )
    def test_matches_the_strided_reference(self, t, m, d):
        # both sum each entry's products in chunks of DOT_TERMS, in another
        # order, so each is within gamma_K (|X|^T |X|)_ij of exact, and
        # (|X|^T |X|)_ij <= sqrt(G_ii G_jj) by Cauchy-Schwarz
        rng = np.random.default_rng(t + m)
        x = rng.normal(size=(t * m + 779, d)) * np.geomspace(0.01, 30.0, d)
        stack, _ = linalg.gram_stack(x, m)
        # the rows past the layout, padded with zero rows to whole blocks
        rest = np.zeros((len(stack) * m - t * m, d))
        rest[:779] = x[t * m :]
        want = np.concatenate([gram_stack_reference(x, t, m), gram_stack_reference(rest, len(stack) - t, m)])
        k = min(m, linalg.DOT_TERMS) + -(-m // linalg.DOT_TERMS) - 1
        g = k * 2.0**-53 / (1.0 - k * 2.0**-53)
        diag = np.diagonal(want, axis1=1, axis2=2)
        bound = 2.0 * g / (1.0 - g) * np.sqrt(diag[:, :, None] * diag[:, None, :])
        assert np.all(np.abs(stack - want) <= bound)
        assert np.array_equal(linalg.gram_stack(x, m, norms=False)[0], stack)

    @staticmethod
    def traced_peak(work):
        tracemalloc.start()
        try:
            out = work()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # fine-d3's two subsample lengths
    @pytest.mark.parametrize("m", [466, 2104])
    @pytest.mark.parametrize("norms", [True, False])
    def test_temporaries_scale_with_the_block_not_the_rows(self, m, norms):
        # at d = 3, beyond the stack, no more than the row norms that the
        # transposed buffer replaces: ``sq_norms`` over the whole subsamples
        # of each BLOCK_ROWS-row block
        x = np.random.default_rng(4).normal(size=(1_000_000, 3))
        rows = self.B // m * m
        _, norms_peak = self.traced_peak(
            lambda: max(float(linalg.sq_norms(x[s : s + rows]).max()) for s in range(0, len(x), rows))
        )
        (stack, _), peak = self.traced_peak(lambda: linalg.gram_stack(x, m, norms))
        assert peak - stack.nbytes <= norms_peak
        assert norms_peak < 2 * rows * x.itemsize + 4096

    @pytest.mark.parametrize("m", [10_000, 16_000])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("norms", [True, False])
    def test_a_block_longer_than_a_dot_fills_one_dot_at_a_time(self, m, d, norms):
        # beyond the stack, no more than a buffer of DOT_TERMS transposed
        # rows, whatever share of a BLOCK_ROWS-row block m is
        x = np.random.default_rng(m + d).normal(size=(40 * m + 5, d))
        (stack, _), peak = self.traced_peak(lambda: linalg.gram_stack(x, m, norms))
        assert peak - stack.nbytes <= d * linalg.DOT_TERMS * x.itemsize + 4096


def clip_values(x, a):
    """Each row's squared norm as the clip test computes it: ``sq_norms`` of
    the blocks ``MappedRows.blocks`` forms."""
    return np.concatenate([linalg.sq_norms(block) for block in linalg.MappedRows(x, a).blocks()])


def random_map(rng, d, kind, log_cond):
    """A d x d map of condition number 10^log_cond (the coarse step's shape
    has one eigenvalue gamma and the rest 1, so gamma = 10^-log_cond)."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    if kind == "coarse":
        k = int(rng.integers(0, d + 1))
        return coarse_map(q[:, :k] @ q[:, :k].T, 10.0**-log_cond)
    spectrum = 10.0 ** np.linspace(0.0, -log_cond, d) * 10.0 ** rng.uniform(-3.0, 3.0)
    if kind == "spd":
        return (q * spectrum) @ q.T
    p, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return (q * spectrum) @ p.T


# finite entries of mixed signs and exponents, with signed zeros,
# subnormals, the smallest normal and values whose squares overflow
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1e-310, 2.0**-1022, 1e154, -1.4e154, 1.7976931348623157e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def row_lists(d):
    return st.lists(st.lists(ENTRIES, min_size=d, max_size=d), min_size=1, max_size=40)


class TestSqNormBound:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.one_of(st.integers(2, 12), st.integers(2, 2 * linalg.DOT_TERMS)),
        st.integers(1, 6),
        st.booleans(),
        st.sampled_from(["spd", "coarse", "general"]),
        st.floats(0.0, 8.0),
    )
    def test_every_row_is_within_its_groups_bound(self, seed, d, m, t, single, kind, log_cond):
        # n not divisible by m: t full blocks and a leftover block of one
        # row, or of 1 to m - 1; columns of scales 1e-3 to 1e3 and maps up
        # to cond 1e8.  Each row's clip-test value is at most its block's
        # bound, and the decision at thresholds at and one ulp below each
        # bound never keeps a row the clip test would drop
        rng = np.random.default_rng(seed)
        t = min(t, max(1, 40_000 // m))
        left = 1 if single else int(rng.integers(1, m))
        x = rng.normal(size=(t * m + left, d)) * 10.0 ** rng.uniform(-3.0, 3.0, size=d)
        a = random_map(rng, d, kind, log_cond)
        bounds = linalg.sq_norm_bounds(linalg.gram_stack(x, m)[0], m, a)
        clip = clip_values(x, a)
        padded = np.concatenate([clip, np.zeros(m - left)])  # the leftover block, to m values
        assert np.all(padded.reshape(t + 1, m).max(axis=1) <= bounds)
        view = linalg.MappedRows.of(x).mapped(a)
        view.gram_stack(t, m)
        bound = view.sq_norm_bound()
        assert bound == bounds.max()
        for threshold in [*bounds, *(math.nextafter(b, 0.0) for b in bounds)]:
            if bound <= threshold:
                assert clip.max() <= threshold

    def test_bound_of_the_finest_cached_stack(self, monkeypatch):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1003, 2))
        a = random_spd(rng, 2, 0.5, 2.0)
        view = linalg.MappedRows.of(x).mapped(a)
        assert view.sq_norm_bound() == math.inf  # no cached stack
        view.gram_stack(10, 100)
        view.gram_stack(250, 4)
        view.gram_stack(50, 20)
        want = linalg.sq_norm_bounds(linalg.gram_stack(x, 4)[0], 4, a).max()
        monkeypatch.setattr(linalg.MappedRows, "blocks", lambda view: pytest.fail("rows were read"))
        assert view.sq_norm_bound() == want
        assert want < linalg.sq_norm_bounds(linalg.gram_stack(x, 100)[0], 100, a).max()

    def test_the_mapped_bound_reads_no_row(self):
        # the certificate reads only the cached raw stack, which covers
        # every row: without its rows, the view keeps its bound
        rng = np.random.default_rng(12)
        raw = linalg.MappedRows.of(rng.normal(size=(1003, 3)))
        raw.gram_stack(50, 20)
        view = raw.mapped(random_spd(rng, 3, 0.5, 2.0))
        want = view.sq_norm_bound()
        view.x = None
        assert math.isfinite(want)
        assert view.sq_norm_bound() == want

    def test_unmapped_bound_is_the_column_maxima_row(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(300, 3))
        raw = linalg.MappedRows.of(x)
        assert raw.sq_norm_bound() == math.inf  # no cached stack
        raw.gram_stack(30, 10)
        assert raw.sq_norm_bound() == linalg.sq_norms(np.abs(x).max(axis=0)[None])[0]
        for view in (raw, raw.mapped(random_spd(rng, 3, 0.5, 2.0))):
            assert view.sq_norm_bound() > view.max_sq_norm()
            assert view.sq_norm_bound() >= view.max_sq_norm()
        assert raw.max_sq_norm() == linalg.sq_norms(x).max()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(row_lists), st.data())
    def test_unmapped_bound_covers_every_row(self, rows, data):
        # |x_rj| <= M_j and monotone rounding: each row's sq_norms value is
        # at most sq_norms(M), with no margin; the rows are not read again
        x = np.array(rows)
        n = len(x)
        t = data.draw(st.integers(1, n))
        m = data.draw(st.integers(1, n // t))
        view = linalg.MappedRows.of(x)
        with np.errstate(over="ignore", invalid="ignore"):
            view.gram_stack(t, m)
            values = linalg.sq_norms(x)
            want = linalg.sq_norms(np.abs(x).max(axis=0)[None])[0]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg.MappedRows, "blocks", lambda view: pytest.fail("rows were read"))
            bound = view.sq_norm_bound()
        assert bound == want
        assert np.all(values <= bound)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("row", [0, -1])  # in a full block, or in the leftover one
    def test_a_non_finite_row_leaves_no_finite_unmapped_bound(self, bad, row):
        x = np.random.default_rng(11).normal(size=(23, 2))
        x[row, 1] = bad
        view = linalg.MappedRows.of(x)
        with np.errstate(over="ignore", invalid="ignore"):
            view.gram_stack(5, 4)
        assert not math.isfinite(view.sq_norm_bound())

    def test_eta_is_a_power_of_two_above_twice_the_need(self):
        # the proof takes eta * s as exact, and the surplus over the
        # 9.2e-12 its roundings need covers underflow
        assert math.frexp(linalg.CERT_ETA)[0] == 0.5
        assert linalg.CERT_ETA >= 2 * 9.2e-12

    @pytest.mark.parametrize(
        "case", ["rows", "dim", "zero map", "zero subsample", "zero leftover block", "inf", "nan"]
    )
    def test_outside_the_proofs_range_there_is_no_bound(self, case):
        rng = np.random.default_rng(10)
        d, t, m = 2, 5, 4
        x = rng.normal(size=(t * m + 3, d))
        a = random_spd(rng, d, 0.5, 2.0)
        assert linalg.sq_norm_bounds(linalg.gram_stack(x, m)[0], m, a) is not None
        if case == "rows":
            m = linalg.CERT_MAX_ROWS + 1
        elif case == "dim":
            d = linalg.MAX_DIM + 1
            x, a = rng.normal(size=(t * m, d)), np.eye(d)
        elif case == "zero map":
            a = np.zeros((d, d))
        elif case == "zero subsample":
            x[m : 2 * m] = 0.0
        elif case == "zero leftover block":
            x[t * m :] = 0.0
        elif case == "nan":
            x[0, 0] = math.nan
        stack = linalg.gram_stack(x, min(m, len(x) // t), norms=False)[0]
        if case == "inf":
            stack[1, 0, 1] = stack[1, 1, 0] = math.inf
        assert linalg.sq_norm_bounds(stack, m, a) is None
