import math

import numpy as np
import pytest

from oracles import bucket_of
from privgauss import eigenvalues, precondition
from privgauss.dp_core import Accountant, PrivacyBudget, RandomSource, plan_shares, stable_release_threshold
from privgauss.eigenvalues import estimate_eigenvalues
from privgauss.errors import BottomReleased, InsufficientSamples, InvalidArgument

BUDGET = PrivacyBudget(10.0, 1e-6)
FLOOR_BUDGETS = (PrivacyBudget(0.5, 5e-7), PrivacyBudget(1.0, 1e-6), PrivacyBudget(10.0, 1e-9))


def gaussian_samples(cov_diag, n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, len(cov_diag))) * np.sqrt(cov_diag)


class TestBucketOf:
    def test_zero(self):
        assert bucket_of(0.0) == (0.0, 0.0)

    def test_one(self):
        lo, hi = bucket_of(1.0)
        assert lo == 1.0
        assert hi == pytest.approx(2.0 ** 0.25)

    def test_five(self):
        # k = floor(4 log2 5) = 9
        lo, hi = bucket_of(5.0)
        assert lo == pytest.approx(2.0 ** (9 / 4), rel=1e-12)
        assert hi == pytest.approx(2.0 ** (10 / 4), rel=1e-12)

    def test_half_open(self):
        lo, hi = bucket_of(5.0)
        assert lo <= 5.0 < hi

    def test_negative_rejected(self):
        with pytest.raises(InvalidArgument):
            bucket_of(-1.0)

    def test_ratio_shift_is_one_bucket(self):
        # multiplying a value by the bucket ratio advances the index by
        # exactly one
        rng = np.random.default_rng(0)
        scheme = eigenvalues._SCHEME
        for _ in range(300):
            v = float(10.0 ** rng.uniform(-12.0, 12.0))
            k = scheme.keys([v])[0]
            k_shift = scheme.keys([v * 2.0 ** 0.25])[0]
            assert k_shift == k + 1


class TestEstimateEigenvalues:
    def test_identity_covariance_factor_two(self):
        d = 4
        t = eigenvalues._layout(d, BUDGET, 0.1)[1]
        n = 50 * t * d
        wins = 0
        for seed in range(30):
            x = gaussian_samples(np.ones(d), n, seed)
            est = estimate_eigenvalues(x, BUDGET, 0.1, RandomSource(seed).child("eig"))
            if np.all(est.values >= 0.5) and np.all(est.values <= 2.0):
                wins += 1
        assert wins >= 27

    def test_huge_condition_number(self):
        d = 4
        diag = np.array([1e6, 1e2, 1.0, 1e-4])
        t = eigenvalues._layout(d, BUDGET, 0.1)[1]
        n = 50 * t * d
        wins = 0
        for seed in range(30):
            x = gaussian_samples(diag, n, seed)
            est = estimate_eigenvalues(x, BUDGET, 0.1, RandomSource(seed).child("cond"))
            ok = np.all(est.values >= diag / 2.0) and np.all(est.values <= diag * 2.0)
            wins += ok
        assert wins >= 27

    def test_rank_deficient_zero_bucket(self):
        rng = np.random.default_rng(5)
        n = 50 * eigenvalues._layout(2, BUDGET, 0.1)[1] * 2
        x = np.zeros((n, 2))
        x[:, 0] = rng.normal(size=n)
        est = estimate_eigenvalues(x, BUDGET, 0.1, RandomSource(0).child("rank"))
        assert est.values[1] == 0.0
        assert est.values[0] > 0.0

    def test_sorted_nonnegative_any_seed(self):
        d = 3
        n = 50 * eigenvalues._layout(d, BUDGET, 0.1)[1] * d
        for seed in range(5):
            x = gaussian_samples([5.0, 1.0, 0.2], n, seed)
            est = estimate_eigenvalues(x, BUDGET, 0.1, RandomSource(seed).child("s"))
            assert np.all(np.diff(est.values) <= 0.0)
            assert np.all(est.values >= 0.0)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            estimate_eigenvalues(np.zeros((10, 4)), BUDGET, 0.1, RandomSource(0))

    @pytest.mark.parametrize("d", (2, 3, 4))
    @pytest.mark.parametrize("budget", FLOOR_BUDGETS)
    @pytest.mark.parametrize("beta", (0.05, 0.1))
    def test_published_floor_is_the_smallest_accepted_n(self, d, budget, beta):
        floor = eigenvalues.min_samples(d, budget, beta)
        for n in (floor, int(1.7 * floor)):
            try:
                estimate_eigenvalues(gaussian_samples(np.ones(d), n, n), budget, beta, RandomSource(0))
            except BottomReleased:
                pass  # the floor promises the subsample layout, not a release
        with pytest.raises(InsufficientSamples):
            estimate_eigenvalues(gaussian_samples(np.ones(d), floor - 1, 0), budget, beta, RandomSource(0))

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 13")
    @pytest.mark.parametrize("d", (2, 3))
    def test_published_floor_releases(self, d):
        # at the floor of one eigenvalue estimate in the preconditioner's
        # scan, under the benchmark's half budget (0.5, 5e-7) and beta = 0.05,
        # the estimate must release with probability at least 1 - beta_i;
        # it promises only the subsample layout and releases in 0 of 20
        per_call = plan_shares(PrivacyBudget(0.5, 5e-7), precondition.max_calls(d)).per_call
        beta_i = 0.05 / d
        n = eigenvalues.min_samples(d, per_call, beta_i)
        released = 0
        for seed in range(20):
            try:
                estimate_eigenvalues(gaussian_samples(np.ones(d), n, seed), per_call, beta_i, RandomSource(seed))
                released += 1
            except BottomReleased:
                pass
        assert released >= (1.0 - beta_i) * 20

    def test_bottom_names_its_index_layout_and_share(self):
        # at test_published_floor_releases's floor, d = 2 and seed 0 release
        # nothing; the error names the index, the layout, the histogram's
        # share and its release threshold, all functions of (n, d, budget,
        # beta)
        d = 2
        per_call = plan_shares(PrivacyBudget(0.5, 5e-7), precondition.max_calls(d)).per_call
        beta_i = 0.05 / d
        per_index, t, n = eigenvalues._layout(d, per_call, beta_i)
        with pytest.raises(BottomReleased, match="^no bucket released for eigenvalue index 0: ") as info:
            estimate_eigenvalues(gaussian_samples(np.ones(d), n, 0), per_call, beta_i, RandomSource(0))
        message = str(info.value)
        assert f"{t} subsamples of {n // t} rows at {per_index!r}" in message
        assert message.endswith(f"release threshold {stable_release_threshold(per_index):.6g}")

    def test_ledger_charges(self):
        d = 3
        n = 50 * eigenvalues._layout(d, BUDGET, 0.1)[1] * d
        x = gaussian_samples(np.ones(d), n, 0)
        acc = Accountant()
        estimate_eigenvalues(x, BUDGET, 0.1, RandomSource(0, acc).child("l"))
        assert len(acc.entries) == d
        per_index = plan_shares(BUDGET, d).per_call
        for entry in acc.entries:
            assert entry.budget == per_index
        assert acc.total() == (BUDGET.epsilon, BUDGET.delta)

    def test_determinism(self):
        d = 2
        n = 50 * eigenvalues._layout(d, BUDGET, 0.1)[1] * d
        x = gaussian_samples([2.0, 0.5], n, 3)
        a = estimate_eigenvalues(x, BUDGET, 0.1, RandomSource(11).child("d"))
        b = estimate_eigenvalues(x, BUDGET, 0.1, RandomSource(11).child("d"))
        np.testing.assert_array_equal(a.values, b.values)

    def test_nonprivate_limit_matches_median_bucket(self):
        # with eps so large that noise is negligible, the released edge is
        # the lower edge of the bucket holding the median subsample value
        budget = PrivacyBudget(1e6, 1e-6)
        d = 2
        t = eigenvalues._layout(d, budget, 0.1)[1]
        n = 3200 * t  # large m so subsample values concentrate in one bucket
        # eigenvalues chosen away from bucket boundaries (4.0 is exactly one)
        x = gaussian_samples([5.0, 1.3], n, 9)
        est = estimate_eigenvalues(x, budget, 0.1, RandomSource(2).child("np"))
        m = n // t
        chunks = x[: t * m].reshape(t, m, d)
        seconds = np.matmul(chunks.transpose(0, 2, 1), chunks) / m
        sub_vals = np.sort(np.linalg.eigvalsh(seconds), axis=1)[:, ::-1]
        for i in range(d):
            col = np.sort(sub_vals[:, i])
            median = col[(t - 1) // 2]
            expected_lo = bucket_of(float(median))[0]
            assert est.values[i] == pytest.approx(expected_lo, rel=1e-12)
