import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import recover_subspace_reference
from privgauss import ball_finder, linalg, naive, precondition, subspace
from privgauss.dp_core import Accountant, PrivacyBudget, RandomSource, plan_shares
from privgauss.errors import InsufficientSamples, InvalidArgument, PrivGaussError
from privgauss.subspace import (
    feasible_psi,
    n_min,
    recover_subspace,
    sample_reference_points,
    subspace_params,
)

BUDGET = PrivacyBudget(10.0, 1e-6)
BETA = 0.05


def spectral_dist(a, b):
    return float(np.abs(np.linalg.eigvalsh(a - b)).max())


def gapped_samples(d, k, low, n, seed):
    diag = np.array([1.0] * k + [low] * (d - k))
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)) * np.sqrt(diag)


class TestRecoverSubspace:
    def test_two_dim_tiny_tail(self):
        d, k, gamma, psi = 2, 1, 1e-2, 0.5
        n = n_min(d, k, psi, BUDGET, BETA)
        truth = np.diag([1.0, 0.0])
        wins = 0
        for seed in range(40):
            x = gapped_samples(d, k, 1e-8, n, seed)
            p = recover_subspace(x, k, gamma, psi, BUDGET, BETA, RandomSource(seed).child("t"))
            wins += spectral_dist(p, truth) <= psi * gamma
        assert wins >= 28  # single-shot bar is 70%

    def test_exact_rank_data(self):
        d, k = 4, 2
        gamma = 1e-9
        n = n_min(d, k, 0.5, BUDGET, BETA)
        rng = np.random.default_rng(3)
        x = np.zeros((n, d))
        x[:, :2] = rng.normal(size=(n, 2))
        truth = np.diag([1.0, 1.0, 0.0, 0.0])
        p = recover_subspace(x, k, gamma, 0.5, BUDGET, BETA, RandomSource(0).child("ex"))
        assert spectral_dist(p, truth) <= 1e-9

    def test_k_equals_d_minus_one(self):
        d, k, gamma, psi = 4, 3, 1e-2, 0.3
        n = n_min(d, k, psi, BUDGET, BETA)
        truth = np.diag([1.0, 1.0, 1.0, 0.0])
        wins = 0
        for seed in range(30):
            x = gapped_samples(d, k, 1e-10, n, seed)
            p = recover_subspace(x, k, gamma, psi, BUDGET, BETA, RandomSource(seed).child("kd"))
            wins += spectral_dist(p, truth) <= psi * gamma
        assert wins >= 24

    def test_output_is_valid_projector(self):
        d, k = 4, 1
        n = n_min(d, k, 0.5, BUDGET, BETA)
        for seed in range(5):
            x = gapped_samples(d, k, 1e-6, n, seed)
            p = recover_subspace(x, k, 1e-2, 0.5, BUDGET, BETA, RandomSource(seed).child("p"))
            assert p.shape == (d, d)
            assert np.linalg.norm(p @ p - p) <= 1e-9
            assert abs(np.trace(p) - k) <= 1e-9 * d

    def test_invalid_k(self):
        x = np.zeros((100, 3))
        with pytest.raises(InvalidArgument):
            recover_subspace(x, 0, 0.1, 0.5, BUDGET, BETA, RandomSource(0))
        with pytest.raises(InvalidArgument):
            recover_subspace(x, 3, 0.1, 0.5, BUDGET, BETA, RandomSource(0))

    @pytest.mark.parametrize("gamma", [0.0, 1.5])
    def test_invalid_gamma(self, gamma):
        # the one range check on the coarse step's gap ratio
        with pytest.raises(InvalidArgument, match="gamma"):
            recover_subspace(np.zeros((100, 3)), 1, gamma, 0.5, BUDGET, BETA, RandomSource(0))

    def test_insufficient_samples(self):
        d, k = 4, 1
        n = n_min(d, k, 0.5, BUDGET, BETA)
        x = gapped_samples(d, k, 1e-6, n // 10, 0)
        with pytest.raises(InsufficientSamples):
            recover_subspace(x, k, 1e-2, 0.5, BUDGET, BETA, RandomSource(0))

    def test_determinism(self):
        d, k = 2, 1
        n = n_min(d, k, 0.5, BUDGET, BETA)
        x = gapped_samples(d, k, 1e-8, n, 5)
        a = recover_subspace(x, k, 1e-2, 0.5, BUDGET, BETA, RandomSource(7).child("d"))
        b = recover_subspace(x, k, 1e-2, 0.5, BUDGET, BETA, RandomSource(7).child("d"))
        np.testing.assert_array_equal(a, b)

    def test_privacy_ledger(self):
        d, k = 4, 2
        q = subspace.REFS_PER_RANK * k
        n = n_min(d, k, 0.5, BUDGET, BETA)
        x = gapped_samples(d, k, 1e-8, n, 1)
        acc = Accountant()
        recover_subspace(x, k, 1e-2, 0.5, BUDGET, BETA, RandomSource(1, acc).child("l"))
        # per reference point i: d coordinate histograms of the ball
        # finder, then the noisy sum, each under its own stream
        expected = []
        for i in range(q):
            expected += [f"l/center/{i}/hist/{j}" for j in range(d)] + [f"l/sum/{i}"]
        assert [e.label for e in acc.entries] == expected
        sums = [e for e in acc.entries if "sum" in e.label]
        params = subspace_params(n, d, k, 1e-2, 0.5, BUDGET, BETA)
        for e in sums:
            assert e.sensitivity == pytest.approx(2.0 * params.trunc_radius)
        assert acc.total() == (BUDGET.epsilon, BUDGET.delta)

    def test_sigma_formula(self):
        d, k = 4, 2
        n = n_min(d, k, 0.5, BUDGET, BETA)
        params = subspace_params(n, d, k, 1e-2, 0.5, BUDGET, BETA)
        sums_budget = PrivacyBudget(BUDGET.epsilon / 2, BUDGET.delta / 2)
        expected = (
            4.0
            * params.trunc_radius
            * np.sqrt(params.q)
            * np.log(params.q / sums_budget.delta)
            / (sums_budget.epsilon * params.t)
        )
        assert params.sigma == pytest.approx(expected, rel=1e-12)

    def test_rotation_equivariance_distribution(self):
        # error norms of recovery on rotated data match the unrotated law
        d, k, gamma, psi = 4, 1, 1e-2, 0.5
        n = n_min(d, k, psi, BUDGET, BETA)
        rng = np.random.default_rng(0)
        q_mat, _ = np.linalg.qr(rng.normal(size=(d, d)))
        truth = np.diag([1.0, 0.0, 0.0, 0.0])
        truth_rot = q_mat @ truth @ q_mat.T
        errs_plain = []
        errs_rot = []
        for seed in range(200):
            x = gapped_samples(d, k, 1e-8, n, 100 + seed)
            p1 = recover_subspace(x, k, gamma, psi, BUDGET, BETA, RandomSource(seed).child("r0"))
            errs_plain.append(spectral_dist(p1, truth))
            p2 = recover_subspace(
                x @ q_mat.T, k, gamma, psi, BUDGET, BETA, RandomSource(5000 + seed).child("r1")
            )
            errs_rot.append(spectral_dist(p2, truth_rot))
        a = np.sort(errs_plain)
        b = np.sort(errs_rot)
        grid = np.concatenate([a, b])
        ks = np.max(
            np.abs(
                np.searchsorted(a, grid, side="right") / a.size
                - np.searchsorted(b, grid, side="right") / b.size
            )
        )
        assert ks < 0.15


class TestBufferedLoop:
    """One points buffer and one scratch vector serve every reference point."""

    @pytest.mark.parametrize("d, k", [(d, k) for d in (2, 3, 4) for k in range(1, d)])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("mapped", [False, True])
    def test_matches_the_allocating_loop(self, d, k, seed, mapped):
        n = n_min(d, k, 0.5, BUDGET, BETA)
        x = gapped_samples(d, k, 1e-4, n, seed)
        a = np.random.default_rng(seed).normal(size=(d, d)) + 2.0 * np.eye(d)

        def run(recover):
            rows = linalg.MappedRows.of(x).mapped(a) if mapped else x
            acc = Accountant()
            p = recover(rows, k, 1e-2, 0.5, BUDGET, BETA, RandomSource(seed, acc).child("s"))
            return p, acc.entries

        p, entries = run(recover_subspace)
        p_ref, entries_ref = run(recover_subspace_reference)
        assert np.array_equal(p, p_ref)
        assert entries == entries_ref

    def test_temporaries_scale_with_the_points_buffer(self):
        # the coarse step's layout on floor-d2: t = 19,830 subsamples of m = 8
        budget = plan_shares(PrivacyBudget(0.5, 5e-7), precondition.max_calls(2)).per_call
        d, k, beta = 2, 1, 0.025
        t = subspace._layout(d, k, subspace.MAX_PSI, budget, beta)[0]
        assert t == 19_830
        n = 8 * t
        rows = linalg.MappedRows.of(gapped_samples(d, k, 1e-4, n, 0))
        rows.gram_stack(t, n // t)  # cached before the call, as in the scan
        psi = feasible_psi(n, d, k, budget, beta)
        tracemalloc.start()
        try:
            recover_subspace(rows, k, 1e-2, psi, budget, beta, RandomSource(0).child("mem"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # in units of t * d * 8 bytes, at d = 2 and k = 1: the eigenvalues
        # and eigenvectors take 3 while the bases (k, d, t) are copied out;
        # in the loop the bases, the points buffer (d, t) and two (t,)
        # scratch vectors take 3, and find_center's temporaries add under
        # 1.7 (measured peak 4.67); the allocating reference loop, with fresh
        # arrays per reference point, peaks near 11
        assert peak < 5.5 * t * d * 8


class TestReferencePoints:
    def test_reproducible(self):
        a = sample_reference_points(5, 3, RandomSource(1).child("p"))
        b = sample_reference_points(5, 3, RandomSource(1).child("p"))
        np.testing.assert_array_equal(a, b)

    def test_rejects_zero(self):
        with pytest.raises(InvalidArgument):
            sample_reference_points(0, 3, RandomSource(0))

    def test_standard_gaussian_moments(self):
        pts = sample_reference_points(20_000, 5, RandomSource(2).child("m"))
        assert np.abs(pts.mean(axis=0)).max() <= 3.0 / np.sqrt(20_000)
        assert np.abs(pts.var(axis=0) - 1.0).max() <= 0.05



# The preconditioner's coarse step at every dimension it publishes a floor for.
LAYOUTS = st.sampled_from([(d, k) for d in (2, 3, 4) for k in range(1, d)])
BUDGETS = st.sampled_from([PrivacyBudget(0.5, 5e-7), PrivacyBudget(1.0, 1e-6), PrivacyBudget(10.0, 1e-9)])
BETAS = st.sampled_from([0.05, 0.1])


class TestLayoutContract:
    @settings(max_examples=300, deadline=None)
    @given(LAYOUTS, BUDGETS, BETAS, st.floats(min_value=1.0, max_value=3.0))
    def test_published_floor_never_raises(self, layout, budget, beta, multiple):
        d, k = layout
        floor = precondition.min_samples(d, budget, beta)
        n = int(floor * multiple)
        per_call = plan_shares(budget, precondition.max_calls(d)).per_call
        beta_i = beta / d
        psi = feasible_psi(n, d, k, per_call, beta_i)
        subspace_params(n, d, k, 0.01, psi, per_call, beta_i)
        # the post-coarse probe, which estimates its own kappa2
        assert naive.min_samples(d, per_call, beta_i) <= floor

    @settings(max_examples=300, deadline=None)
    @given(LAYOUTS, BUDGETS, BETAS, st.floats(min_value=0.0, max_value=2.0))
    def test_coarse_gate_agrees_with_feasible_psi(self, layout, budget, beta, multiple):
        # the scan's coarse step recovers at MAX_PSI without asking
        # feasible_psi, so its layout must refuse exactly the n that
        # feasible_psi refuses, well below the any-accuracy floor and above it
        d, k = layout
        per_call = plan_shares(budget, precondition.max_calls(d)).per_call
        beta_i = beta / d
        floor = n_min(d, k, subspace.MAX_PSI, per_call, beta_i)

        def refuses(call):
            try:
                call()
            except InsufficientSamples:
                return True
            return False

        for n in (int(floor * multiple), floor - 1, floor):
            gate = refuses(lambda: subspace_params(n, d, k, 0.01, subspace.MAX_PSI, per_call, beta_i))
            assert gate == refuses(lambda: feasible_psi(n, d, k, per_call, beta_i)), n

    @settings(max_examples=300, deadline=None)
    @given(LAYOUTS, BUDGETS, BETAS, st.floats(min_value=1e-4, max_value=subspace.MAX_PSI))
    def test_n_min_is_the_smallest_accepted_n(self, layout, budget, beta, psi):
        d, k = layout
        per_call = plan_shares(budget, precondition.max_calls(d)).per_call
        beta_i = beta / d
        n = n_min(d, k, psi, per_call, beta_i)
        subspace_params(n, d, k, 0.01, psi, per_call, beta_i)
        with pytest.raises(InsufficientSamples):
            subspace_params(n - 1, d, k, 0.01, psi, per_call, beta_i)

    def test_tiny_psi_is_bisected_or_rejected(self):
        # the coarse step's share at d = 2 on the composed estimator's budget;
        # near m = 1e25 rows per subsample _psi_floor is flat in floats over
        # long runs of m, and beyond float range m t q cannot be converted
        budget, beta = PrivacyBudget(0.125, 1.25e-7), 0.025
        t = subspace._layout(2, 1, subspace.MAX_PSI, budget, beta)[0]
        start = time.process_time()
        n = n_min(2, 1, 1e-13, budget, beta)
        assert time.process_time() - start < 1.0
        assert 1e-13 >= subspace._psi_floor(n // t, 2, 1, t)
        assert not 1e-13 >= subspace._psi_floor(n // t - 1, 2, 1, t)
        with pytest.raises(PrivGaussError):
            n_min(2, 1, 1e-200, budget, beta)

    def test_one_split_per_layout_call(self, monkeypatch):
        # feasible_psi and subspace_params at floor-d2's coarse layout, as
        # the benchmark's layout count calls them (the scan calls only
        # subspace_params, at MAX_PSI): each splits the budget into phases,
        # each phase into q calls and each call into d coordinates once,
        # in _layout
        budget = plan_shares(PrivacyBudget(0.5, 5e-7), precondition.max_calls(2)).per_call
        d, k, beta = 2, 1, 0.025
        t, _, phase, per_call = subspace._layout(d, k, subspace.MAX_PSI, budget, beta)
        n = 8 * t
        calls = []

        def spy(budget, count):
            calls.append((budget, count))
            return plan_shares(budget, count)

        for module in (ball_finder, subspace):
            monkeypatch.setattr(module, "plan_shares", spy)
        psi = feasible_psi(n, d, k, budget, beta)
        subspace_params(n, d, k, 0.01, psi, budget, beta)
        assert calls == [(budget, 2), (phase, subspace.REFS_PER_RANK * k), (per_call, d)] * 2

    def test_exact_boundary_psi(self):
        # here m = 10 rows per subsample, and re-deriving the rows that this
        # psi needs evaluates to 10.000000000000002, which rounds up to 11
        budget = PrivacyBudget(1.0, 1e-6)
        d, k = 2, 1
        per_call = plan_shares(budget, precondition.max_calls(d)).per_call
        n = 95_625
        psi = feasible_psi(n, d, k, per_call, 0.1 / d)
        params = subspace_params(n, d, k, 0.01, psi, per_call, 0.1 / d)
        assert params.m == n // params.t == 10
        # n sits on the rounding edge: a closed form for m would overshoot it
        assert (subspace._psi_floor(1, d, k, params.t) / psi) ** 2 > params.m
        assert n_min(d, k, psi, per_call, 0.1 / d) == params.t * params.m
