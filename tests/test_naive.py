import math
import tracemalloc

import numpy as np
import pytest

from oracles import clipped_second_moment_reference, eigenvalue_band_check
from privgauss import linalg, naive
from privgauss.dp_core import Accountant, PrivacyBudget, RandomSource
from privgauss.errors import InsufficientSamples
from privgauss.naive import clipped_second_moment, naive_config, naive_estimate

BUDGET = PrivacyBudget(1.0, 1e-6)


def gaussian_samples(cov_diag, n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, len(cov_diag))) * np.sqrt(cov_diag)


class TestNaiveEstimate:
    def test_vanishing_noise_limit(self):
        x = gaussian_samples([1.0, 2.0], 5000, 0)
        budget = PrivacyBudget(1e6, 1e-6)
        out = naive_estimate(x, budget, 0.05, RandomSource(1).child("nv"), kappa2=8.0)
        cfg = naive_config(5000, 2, 8.0, budget, 0.05)
        moment, clipped = clipped_second_moment(x, cfg.clip_threshold)
        assert clipped == 0
        np.testing.assert_allclose(out, linalg.psd_project(moment), atol=1e-5)

    def test_output_psd_always(self):
        x = gaussian_samples([1.0, 1e-6], 200, 3)
        for seed in range(10):
            out = naive_estimate(x, BUDGET, 0.05, RandomSource(seed).child("psd"), kappa2=4.0)
            vals = np.linalg.eigvalsh(out)
            assert vals.min() >= -1e-12

    def test_error_decreases_with_n(self):
        d = 8
        medians = []
        for n in (10_000, 20_000, 40_000, 80_000):
            errs = []
            for seed in range(20):
                x = gaussian_samples(np.ones(d), n, 1000 + seed)
                out = naive_estimate(
                    x, BUDGET, 0.05, RandomSource(seed).child("scale", n), kappa2=4.0
                )
                errs.append(linalg.rel_cov_norm(out, np.eye(d)))
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2] > medians[3]

    def test_spectral_error_with_supplied_kappa(self):
        d = 2
        diag = np.array([1.0, 1e-6])
        n = 40_000
        kappa2 = 4.0
        wins = 0
        for seed in range(50):
            x = gaussian_samples(diag, n, seed)
            out = naive_estimate(x, BUDGET, 0.05, RandomSource(seed).child("k"), kappa2=kappa2)
            err = np.abs(np.linalg.eigvalsh(out)[::-1] - diag).max()
            cfg = naive_config(n, d, kappa2, BUDGET, 0.05)
            bound = 4.0 * kappa2 * math.sqrt((d + math.log(20.0)) / n) + 4.0 * cfg.sigma * math.sqrt(d)
            wins += err <= bound
        assert wins >= 45

    def test_sensitivity_invariant_exact(self):
        # swapping one row moves the pre-noise statistic by <= 2 clip / n
        rng = np.random.default_rng(7)
        n, d = 50, 3
        base = rng.normal(size=(n, d))
        threshold = 4.0
        for _ in range(20):
            swapped = base.copy()
            swapped[rng.integers(n)] = rng.normal(size=d) * rng.uniform(0.1, 5.0)
            m1, _ = clipped_second_moment(base, threshold)
            m2, _ = clipped_second_moment(swapped, threshold)
            assert np.linalg.norm(m1 - m2) <= 2.0 * threshold / n + 1e-15

    def test_clipping_idempotent(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(100, 3))
        threshold = naive.clip_threshold(3, 4.0, 100, 0.05)
        m1, clipped = clipped_second_moment(x, threshold)
        assert clipped == 0
        passing = x[np.einsum("ij,ij->i", x, x) <= threshold]
        m2, clipped2 = clipped_second_moment(passing, threshold)
        assert clipped2 == 0
        np.testing.assert_allclose(m1 * 100, m2 * len(passing), atol=1e-12)

    def test_clipped_fraction_below_beta(self):
        d = 4
        beta = 0.05
        n = 5000
        wins = 0
        for seed in range(40):
            x = gaussian_samples(np.ones(d), n, seed)
            threshold = naive.clip_threshold(d, 1.0, n, beta)
            _, clipped = clipped_second_moment(x, threshold)
            wins += clipped / n <= beta
        assert wins >= 38

    def test_kappa_fallback_spends_budget(self):
        d = 2
        x = gaussian_samples(np.ones(d), 60_000, 5)
        acc = Accountant()
        out = naive_estimate(
            x, PrivacyBudget(10.0, 1e-6), 0.05, RandomSource(2).child("fb"), accountant=acc
        )
        assert out.shape == (d, d)
        labels = [e.label for e in acc.entries]
        assert any("kappa" in lbl for lbl in labels)
        eps_total = sum(e.budget.epsilon for e in acc.entries)
        assert eps_total <= 10.0 * (1 + 1e-9)
        # half the budget went to the noise charge
        assert acc.entries[-1].budget.epsilon == pytest.approx(5.0)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            naive_estimate(np.zeros((3, 2)), BUDGET, 0.05, RandomSource(0), kappa2=1.0)

    def test_all_zero_data(self):
        x = np.zeros((60_000, 2))
        out = naive_estimate(x, PrivacyBudget(10.0, 1e-6), 0.05, RandomSource(0).child("z"))
        np.testing.assert_array_equal(out, np.zeros((2, 2)))


B = naive.CLIP_BLOCK_ROWS


def clip_input(n, d, layout, seed):
    """An (n, d) input in the given memory layout or dtype."""
    rng = np.random.default_rng(seed)
    if layout == "int64":
        return rng.integers(-50, 50, size=(n, d))
    if layout == "rows[::2]":
        return rng.normal(size=(2 * n, d))[::2]
    x = rng.normal(size=(n, d)) * np.linspace(1.0, 3.0, d)
    if layout == "fortran":
        return np.asfortranarray(x)
    if layout == "cols[::-1]":
        return x[:, ::-1]
    return x


class TestClippedSecondMomentKernel:
    # n straddles the block edges; the threshold is always the norm of one
    # row as the one-shot test computes it, so that row lies exactly on it
    @pytest.mark.parametrize("n", [1, 7, B - 1, B, B + 1, 5 * B // 2 + 7])
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("layout", ["C", "fortran", "cols[::-1]", "rows[::2]", "int64"])
    @pytest.mark.parametrize("quantile", [0.97, 1.0])
    def test_matches_one_shot_reference(self, n, d, layout, quantile):
        x = clip_input(n, d, layout, seed=n * 10 + d)
        xf = np.asarray(x, dtype=np.float64)
        norms = np.sort(np.einsum("ij,ij->i", xf, xf))
        threshold = norms[int(quantile * (n - 1))]
        moment, dropped = clipped_second_moment(x, threshold)
        ref_moment, ref_dropped = clipped_second_moment_reference(x, threshold)
        assert np.array_equal(moment, ref_moment)
        assert dropped == ref_dropped
        if quantile == 1.0:
            assert dropped == 0

    def test_no_full_size_temporary_when_nothing_clipped(self):
        x = np.random.default_rng(0).normal(size=(1_000_000, 3))
        tracemalloc.start()
        try:
            _, dropped = clipped_second_moment(x, naive.clip_threshold(3, 4.0, len(x), 0.05))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dropped == 0
        assert peak < x.nbytes / 4


def record_clips(monkeypatch):
    """Patch naive.clipped_second_moment to record the dropped count of
    every exact clip test it runs."""
    dropped = []
    original = naive.clipped_second_moment

    def recording(x, threshold, a=None):
        result = original(x, threshold, a)
        dropped.append(result[1])
        return result

    monkeypatch.setattr(naive, "clipped_second_moment", recording)
    return dropped


# A map with ||a||_2 = 2 whose products are exact in floating point, so a
# row can be placed exactly on the clip threshold after mapping.
EXACT_MAP = np.diag([2.0, 0.5, 1.0])


def on_threshold(n, beta):
    """(kappa2, s): kappa2's clip threshold at (n, d = 3, beta) is exactly s * s."""
    for kappa2 in np.linspace(1.0, 2.0, 101):
        threshold = naive.clip_threshold(3, kappa2, n, beta)
        root = math.sqrt(threshold)
        for s in (root, math.nextafter(root, 0.0), math.nextafter(root, math.inf)):
            if s * s == threshold:
                return kappa2, s
    raise AssertionError("no threshold with an exact square root")


class TestMappedRowsProbe:
    """naive_estimate on a MappedRows view makes the clip decisions of the
    row path on x @ a and releases the same estimate up to rounding."""

    N, BETA = 1000, 0.05

    def both_paths(self, x, kappa2, monkeypatch):
        dropped = record_clips(monkeypatch)
        budget = PrivacyBudget(1.0, 1e-6)
        outs = [
            naive_estimate(rows, budget, self.BETA, RandomSource(3).child("probe"), kappa2=kappa2)
            for rows in (linalg.MappedRows.of(x).mapped(EXACT_MAP), x @ EXACT_MAP)
        ]
        assert np.linalg.norm(outs[0] - outs[1]) <= 1e-12 * np.linalg.norm(outs[1])
        return dropped

    def rows(self, first):
        x = np.random.default_rng(5).normal(size=(self.N, 3)) * 0.5
        x[0] = [first / 2.0, 0.0, 0.0]  # maps to (first, 0, 0)
        return x

    def test_row_on_threshold_falls_back_to_exact_test_and_is_kept(self, monkeypatch):
        kappa2, s = on_threshold(self.N, self.BETA)
        assert self.both_paths(self.rows(s), kappa2, monkeypatch) == [0, 0]

    def test_row_past_threshold_is_dropped_by_both(self, monkeypatch):
        kappa2, s = on_threshold(self.N, self.BETA)
        past = math.nextafter(s, math.inf)
        assert past * past > s * s
        assert self.both_paths(self.rows(past), kappa2, monkeypatch) == [1, 1]

    def test_bound_skips_the_row_pass(self, monkeypatch):
        kappa2, s = on_threshold(self.N, self.BETA)
        # ||a||_2^2 max ||x_i||^2 = 4 (s / 4)^2, well inside the threshold
        assert self.both_paths(self.rows(s / 2.0), kappa2, monkeypatch) == []

    @pytest.mark.parametrize("quantile", [0.5, 0.97, 1.0])
    def test_mapped_clip_matches_clip_of_mapped_rows(self, quantile):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(B - 1, 3)) * [1.0, 3.0, 0.2]
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        a = (q * [2.5, 1.0, 0.3]) @ q.T
        y = x @ a
        threshold = np.sort(np.einsum("ij,ij->i", y, y))[int(quantile * (len(y) - 1))]
        moment, dropped = clipped_second_moment(x, threshold, a)
        ref_moment, ref_dropped = clipped_second_moment(y, threshold)
        assert dropped == ref_dropped
        assert np.linalg.norm(moment - ref_moment) <= 1e-12 * np.linalg.norm(ref_moment)


class TestEigenvalueBandCheck:
    def test_exact_match(self):
        truth = linalg.sym_eig(np.diag([4.0, 1.0]))
        assert eigenvalue_band_check(np.diag([4.0, 1.0]), truth, 2)

    def test_triple_fails(self):
        truth = linalg.sym_eig(np.diag([4.0, 1.0]))
        assert not eigenvalue_band_check(3.0 * np.diag([4.0, 1.0]), truth, 2)

    def test_noisy_within_band(self):
        d = 6
        truth_mat = np.diag([8.0, 7.0, 6.0, 5.0, 4.0, 3.0])
        truth = linalg.sym_eig(truth_mat)
        sigma = truth.eigenvalues[-1] / (8.0 * math.sqrt(d))
        wins = 0
        for seed in range(100):
            noise = np.random.default_rng(seed).normal(scale=sigma, size=(d, d))
            noise = np.triu(noise) + np.triu(noise, 1).T
            wins += eigenvalue_band_check(truth_mat + noise, truth, d)
        assert wins >= 95
