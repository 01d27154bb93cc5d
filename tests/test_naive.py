import math

import numpy as np
import pytest

from oracles import eigenvalue_band_check
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
