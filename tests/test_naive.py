import math
import tracemalloc

import numpy as np
import pytest

from oracles import clipped_second_moment_reference
from privgauss import linalg, naive
from privgauss.dp_core import Accountant, PrivacyBudget, RandomSource
from privgauss.errors import BottomReleased, InsufficientSamples, InvalidArgument
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
        passing = x[linalg.sq_norms(x) <= threshold]
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
        out = naive_estimate(x, PrivacyBudget(10.0, 1e-6), 0.05, RandomSource(2, acc).child("fb"))
        assert out.shape == (d, d)
        labels = [e.label for e in acc.entries]
        assert any("kappa" in lbl for lbl in labels)
        assert acc.total() == (10.0, 1e-6)
        # half the budget went to the noise charge
        assert acc.entries[-1].budget.epsilon == pytest.approx(5.0)

    def test_given_ledger_gets_the_streams_entries(self):
        x = gaussian_samples(np.ones(2), 60_000, 5)
        plain = RandomSource(2).child("fb")
        expected = naive_estimate(x, PrivacyBudget(10.0, 1e-6), 0.05, plain)
        acc = Accountant()
        routed = RandomSource(2).child("fb")
        out = naive_estimate(x, PrivacyBudget(10.0, 1e-6), 0.05, routed, accountant=acc)
        np.testing.assert_array_equal(out, expected)
        assert [e.label for e in acc.entries] == ["fb/kappa/hist/0", "fb/kappa/hist/1", "fb/noise"]
        assert acc.entries == plain.ledger.entries
        assert routed.ledger.entries == ()

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            naive_estimate(np.zeros((3, 2)), BUDGET, 0.05, RandomSource(0), kappa2=1.0)

    @pytest.mark.parametrize("d", (2, 3))
    def test_published_floor_is_the_smallest_accepted_n(self, d):
        # without kappa2 the estimate's gate is its eigenvalue estimate's, at
        # half the budget; the floor promises that layout, not a release
        floor = naive.min_samples(d, BUDGET, 0.05)
        try:
            naive_estimate(gaussian_samples(np.ones(d), floor, 0), BUDGET, 0.05, RandomSource(0))
        except BottomReleased:
            pass  # ROADMAP item 13
        with pytest.raises(InsufficientSamples):
            naive_estimate(gaussian_samples(np.ones(d), floor - 1, 0), BUDGET, 0.05, RandomSource(0))

    @pytest.mark.parametrize("rows", [np.zeros((10, 0)), np.zeros(10)])
    def test_rows_without_columns_are_rejected(self, rows):
        with pytest.raises(InvalidArgument):
            clipped_second_moment(rows, 1.0)
        with pytest.raises(InvalidArgument):
            naive_estimate(rows, BUDGET, 0.05, RandomSource(0), kappa2=1.0)

    def test_a_view_is_rejected_by_the_kernel(self):
        with pytest.raises(InvalidArgument):
            clipped_second_moment(linalg.MappedRows(np.ones((10, 2)), 2.0 * np.eye(2)), 1.0)

    def test_all_zero_data(self):
        x = np.zeros((60_000, 2))
        out = naive_estimate(x, PrivacyBudget(10.0, 1e-6), 0.05, RandomSource(0).child("z"))
        np.testing.assert_array_equal(out, np.zeros((2, 2)))


B = linalg.BLOCK_ROWS


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
        norms = np.sort(linalg.sq_norms(xf))
        threshold = norms[int(quantile * (n - 1))]
        moment, dropped = clipped_second_moment(x, threshold)
        ref_moment, ref_dropped = clipped_second_moment_reference(x, threshold)
        assert np.array_equal(moment, ref_moment)
        assert dropped == ref_dropped
        if quantile == 1.0:
            assert dropped == 0


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


def test_no_kernel_call_or_full_size_temporary_when_nothing_clipped(monkeypatch):
    # naive_estimate reads the cached moment when no row is clipped: one
    # blocked norm pass, no gather of the kept rows
    dropped = record_clips(monkeypatch)
    x = np.random.default_rng(0).normal(size=(1_000_000, 3))
    tracemalloc.start()
    try:
        naive_estimate(x, BUDGET, 0.05, RandomSource(0).child("big"), kappa2=4.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dropped == []
    assert peak < x.nbytes / 4


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

    def test_row_on_threshold_is_decided_exactly_and_kept(self, monkeypatch):
        # the largest mapped squared norm is exactly the threshold, so no
        # row is clipped and neither path runs the clip test
        kappa2, s = on_threshold(self.N, self.BETA)
        x = self.rows(s)
        assert linalg.MappedRows.of(x).mapped(EXACT_MAP).max_sq_norm() == s * s
        assert self.both_paths(x, kappa2, monkeypatch) == []

    def test_row_past_threshold_is_dropped_by_both(self, monkeypatch):
        kappa2, s = on_threshold(self.N, self.BETA)
        past = math.nextafter(s, math.inf)
        assert past * past > s * s
        assert self.both_paths(self.rows(past), kappa2, monkeypatch) == [1, 1]

    def test_rows_inside_threshold_skip_the_clip_test(self, monkeypatch):
        kappa2, s = on_threshold(self.N, self.BETA)
        # the first row maps to squared norm (s / 2)^2, well inside the threshold
        assert self.both_paths(self.rows(s / 2.0), kappa2, monkeypatch) == []

    # one block, and three blocks whose mapped norms are stitched into one mask
    @pytest.mark.parametrize("n", [B - 1, 5 * B // 2 + 7])
    @pytest.mark.parametrize("quantile", [0.5, 0.97, 1.0])
    def test_mapped_clip_matches_clip_of_mapped_rows(self, n, quantile):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(n, 3)) * [1.0, 3.0, 0.2]
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        a = (q * [2.5, 1.0, 0.3]) @ q.T
        y = x @ a
        threshold = np.sort(linalg.sq_norms(y))[int(quantile * (len(y) - 1))]
        moment, dropped = clipped_second_moment(x, threshold, a)
        ref_moment, ref_dropped = clipped_second_moment(y, threshold)
        assert dropped == ref_dropped
        assert np.linalg.norm(moment - ref_moment) <= 1e-12 * np.linalg.norm(ref_moment)


class TestNoClipCertificate:
    """A view's "no row is clipped" comes from its cached Gram statistics
    when they suffice, and from one exact blocked pass when they do not."""

    N, D, BETA = 4000, 2, 0.05

    def view(self, t):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(self.N + 3, self.D)) * [1.0, 1e-3]
        view = linalg.MappedRows.of(x).mapped(np.diag([1e-3, 1.0]))
        view.gram_stack(t, (self.N + 3) // t)
        return view

    def kappa2(self, threshold):
        # kappa2 whose clip threshold at (N + 3, D, BETA) is about ``threshold``
        return threshold / (self.D * math.log((self.N + 3) / self.BETA))

    def probe(self, view, kappa2, monkeypatch):
        """naive_estimate on ``view``, with the views whose rows it read and
        the dropped count of every clip test it ran."""
        reads = []
        blocks = linalg.MappedRows.blocks
        monkeypatch.setattr(linalg.MappedRows, "blocks", lambda v: reads.append(v) or blocks(v))
        dropped = record_clips(monkeypatch)
        out = naive_estimate(view, BUDGET, self.BETA, RandomSource(4).child("probe"), kappa2=kappa2)
        monkeypatch.undo()
        return out, reads, dropped

    def test_fine_stack_certifies_without_reading_the_rows(self, monkeypatch):
        view = self.view(t=2000)
        kappa2 = self.kappa2(2.0 * view.sq_norm_bound())
        out, reads, dropped = self.probe(view, kappa2, monkeypatch)
        assert reads == [] and dropped == []
        # the exact decision on the same view releases the same bits
        monkeypatch.setattr(linalg.MappedRows, "sq_norm_bound", lambda v: math.inf)
        exact, reads, dropped = self.probe(view, kappa2, monkeypatch)
        assert len(reads) == 1 and dropped == []
        assert np.array_equal(out, exact)

    def test_coarse_stack_falls_back_to_one_exact_pass(self, monkeypatch):
        # one subsample of all the rows bounds each row by their sum, far
        # above the largest row: the threshold between them is decided by
        # one blocked pass, once per view, and no row is clipped
        view = self.view(t=1)
        top = linalg.MappedRows(view.x, view.a).max_sq_norm()
        kappa2 = self.kappa2(math.sqrt(top * view.sq_norm_bound()))
        threshold = naive_config(self.N + 3, self.D, kappa2, BUDGET, self.BETA).clip_threshold
        assert top < threshold < view.sq_norm_bound()
        _, reads, dropped = self.probe(view, kappa2, monkeypatch)
        assert reads == [view] and dropped == []
        _, reads, dropped = self.probe(view, kappa2, monkeypatch)
        assert reads == [] and dropped == []
        # below the largest row, the clip test runs and drops it
        _, reads, dropped = self.probe(view, self.kappa2(0.999 * top), monkeypatch)
        assert reads and dropped and dropped[0] >= 1

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_raw_row_is_decided_by_the_exact_pass(self, bad, monkeypatch):
        # the column maxima's bound is not finite, so it settles nothing:
        # the exact maximum reads the rows, and the clip test drops the row
        x = np.random.default_rng(13).normal(size=(self.N + 3, self.D)) * 0.1
        x[7, 1] = bad
        view = linalg.MappedRows.of(x)
        with np.errstate(over="ignore", invalid="ignore"):
            view.gram_stack(2000, 2)
        assert not math.isfinite(view.sq_norm_bound())
        out, reads, dropped = self.probe(view, 1.0, monkeypatch)
        assert reads[0] is view and len(reads) == 2  # the exact maximum's pass, then the clip test's
        assert dropped == [1]
        assert np.isfinite(out).all()
