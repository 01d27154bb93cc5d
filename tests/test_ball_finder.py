import numpy as np
import pytest
from oracles import find_center_reference

from privgauss import ball_finder
from privgauss.ball_finder import BallResult, find_center, grid_cell, n_min
from privgauss.dp_core import Accountant, PrivacyBudget, RandomSource, plan_shares, stable_release_threshold
from privgauss.errors import BottomReleased, InsufficientSamples, InvalidArgument

FLOOR_BUDGETS = (PrivacyBudget(0.5, 5e-7), PrivacyBudget(1.0, 1e-6), PrivacyBudget(10.0, 1e-9))


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic."""
    a = np.sort(a)
    b = np.sort(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


class TestFindCenter:
    def test_identical_points(self):
        budget = PrivacyBudget(5.0, 1e-6)
        p = np.array([2.5, -1.0, 7.0])
        pts = np.tile(p, (100, 1))
        assert n_min(3, budget, 0.1) <= 100
        result = find_center(pts, 1.0, budget, 0.1, RandomSource(0).child("bf"))
        cell = grid_cell(1.0, 3)
        # heavy bin contains p, midpoint within one bin of p, snapped to grid
        assert np.all(np.abs(result.center - p) <= 1.0)
        assert np.all(np.linalg.norm(pts - result.center, axis=1) <= result.radius_used)

    def test_cluster_capture_rate(self):
        budget = PrivacyBudget(1.0, 1e-6)
        dim = 8
        rng = np.random.default_rng(1)
        needed = n_min(dim, budget, 0.1)
        n = max(needed, 1100)
        wins = 0
        for seed in range(100):
            raw = rng.normal(size=(n, dim))
            raw /= np.linalg.norm(raw, axis=1, keepdims=True)
            radii = rng.uniform(0.0, 1.0, size=(n, 1)) ** (1.0 / dim)
            pts = 3.0 * raw * radii  # uniform in ball of radius 3
            result = find_center(pts, 3.0, budget, 0.1, RandomSource(seed).child("cap"))
            captured = np.sum(np.linalg.norm(pts - result.center, axis=1) <= result.radius_used)
            wins += captured >= n / 2
        assert wins >= 90

    def test_insufficient_samples(self):
        budget = PrivacyBudget(1.0, 1e-6)
        with pytest.raises(InsufficientSamples):
            find_center(np.zeros((3, 4)), 1.0, budget, 0.1, RandomSource(0))

    @pytest.mark.parametrize("dim", (2, 3, 4))
    @pytest.mark.parametrize("budget", FLOOR_BUDGETS)
    @pytest.mark.parametrize("beta", (0.05, 0.1))
    def test_published_floor_is_the_smallest_accepted_n(self, dim, budget, beta):
        floor = n_min(dim, budget, beta)
        for n in (floor, int(1.7 * floor)):
            pts = np.random.default_rng(n).standard_normal((n, dim))
            try:
                find_center(pts, 1.0, budget, beta, RandomSource(0))
            except BottomReleased:
                pass  # the floor promises enough points to try, not a release
        pts = np.random.default_rng(0).standard_normal((floor - 1, dim))
        with pytest.raises(InsufficientSamples):
            find_center(pts, 1.0, budget, beta, RandomSource(0))

    def test_non_finite_points(self):
        budget = PrivacyBudget(1.0, 1e-6)
        pts = np.zeros((500, 2))
        pts[0, 0] = np.nan
        with pytest.raises(InvalidArgument):
            find_center(pts, 1.0, budget, 0.1, RandomSource(0))

    def test_bin_index_beyond_int64(self):
        # 1e30 / r_opt bins do not fit in int64; the cast would wrap them to
        # -2^63 and release a center of the wrong sign
        acc = Accountant()
        with pytest.raises(InvalidArgument):
            find_center(np.full((5000, 1), 1e30), 1.0, PrivacyBudget(10.0, 1e-3), 0.1, RandomSource(0, acc))
        assert acc.entries == ()

    def test_radius_at_least_r_opt(self):
        budget = PrivacyBudget(5.0, 1e-6)
        pts = np.tile([0.0, 0.0], (200, 1))
        result = find_center(pts, 0.5, budget, 0.1, RandomSource(3).child("r"))
        assert result.radius_used >= 0.5

    def test_one_charge_per_coordinate(self):
        # each coordinate histogram charges its equal share under its own
        # stream, and the shares compose to the budget
        budget = PrivacyBudget(5.0, 1e-6)
        acc = Accountant()
        pts = np.tile([1.0, 2.0], (200, 1))
        find_center(pts, 1.0, budget, 0.1, RandomSource(5, acc).child("a"))
        assert [e.label for e in acc.entries] == ["a/hist/0", "a/hist/1"]
        assert all(e.budget == plan_shares(budget, 2).per_call for e in acc.entries)
        assert all(e.mechanism == "stable_histogram" and e.sensitivity == 2.0 for e in acc.entries)
        assert acc.total() == (budget.epsilon, budget.delta)

    @pytest.mark.parametrize("dim", (1, 2, 3, 4))
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_allocating_bins(self, dim, seed):
        # each coordinate's bin indexes are built in one reused buffer
        budget = PrivacyBudget(1.0, 1e-6)
        rng = np.random.default_rng(seed)
        n = max(n_min(dim, budget, 0.1), 2000)
        pts = rng.normal(size=(n, dim)) + rng.normal(size=dim) * 1e3
        results = []
        for find in (find_center, find_center_reference):
            acc = Accountant()
            result = find(pts, 1.5, budget, 0.1, RandomSource(seed, acc).child("c"))
            results.append((result.center, result.radius_used, acc.entries))
        (center, radius, entries), (center_ref, radius_ref, entries_ref) = results
        assert np.array_equal(center, center_ref)
        assert radius == radius_ref
        assert entries == entries_ref

    def test_charge_precedes_release(self):
        # one point per bin at coordinate 1: its histogram releases nothing,
        # and the ledger holds a charge for exactly the histograms drawn
        budget = PrivacyBudget(1.0, 1e-6)
        n = n_min(3, budget, 0.1)
        pts = np.zeros((n, 3))
        pts[:, 1] = 10.0 * np.arange(n)
        acc = Accountant()
        with pytest.raises(BottomReleased):
            find_center(pts, 1.0, budget, 0.1, RandomSource(0, acc).child("b"))
        assert [e.label for e in acc.entries] == ["b/hist/0", "b/hist/1"]
        assert all(e.budget == plan_shares(budget, 3).per_call for e in acc.entries)

    def test_bottom_names_its_coordinate_count_and_share(self):
        # coordinate 1 releases nothing, as above; the error names it, the
        # point count, the histogram's share and its release threshold
        budget = PrivacyBudget(1.0, 1e-6)
        n = n_min(3, budget, 0.1)
        pts = np.zeros((n, 3))
        pts[:, 1] = 10.0 * np.arange(n)
        share = plan_shares(budget, 3).per_call
        with pytest.raises(BottomReleased, match="^no heavy bin released for coordinate 1: ") as info:
            find_center(pts, 1.0, budget, 0.1, RandomSource(0))
        message = str(info.value)
        assert f"{n} points at {share!r}" in message
        assert message.endswith(f"release threshold {stable_release_threshold(share):.6g}")

    def test_center_on_rounding_grid(self):
        budget = PrivacyBudget(5.0, 1e-6)
        cell = grid_cell(1.0, 2)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            pts = rng.normal(size=(300, 2)) * 0.2 + [4.3, -2.7]
            result = find_center(pts, 1.0, budget, 0.1, RandomSource(seed).child("grid"))
            ratio = result.center / cell
            np.testing.assert_allclose(ratio, np.round(ratio), atol=1e-6)

    def test_translation_equivariance_in_distribution(self):
        # the random bin offset makes the center law shift exactly with the
        # data (up to one grid cell); check with a two-sample KS statistic
        budget = PrivacyBudget(5.0, 1e-6)
        shift = np.array([0.37, -1.73])
        data_rng = np.random.default_rng(7)
        base = data_rng.normal(size=(300, 2)) * 0.1
        centers0 = []
        centers1 = []
        for seed in range(250):
            c0 = find_center(base, 1.0, budget, 0.1, RandomSource(seed).child("t0"))
            c1 = find_center(base + shift, 1.0, budget, 0.1, RandomSource(10_000 + seed).child("t1"))
            centers0.append(c0.center)
            centers1.append(c1.center)
        centers0 = np.array(centers0)
        centers1 = np.array(centers1)
        for j in range(2):
            stat = ks_statistic(centers0[:, j] + shift[j], centers1[:, j])
            assert stat < 0.15
