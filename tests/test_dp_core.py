import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privgauss import ball_finder, dp_core, eigenvalues, precondition, subspace
from privgauss.dp_core import (
    Accountant,
    BucketScheme,
    PrivacyBudget,
    RandomSource,
    bucket_counts,
    gaussian_mechanism,
    gaussian_sigma,
    gue_mechanism,
    heaviest,
    plan_shares,
    stable_counts,
    stable_release_threshold,
)
from privgauss.errors import BottomReleased, InvalidArgument


BUDGET = PrivacyBudget(1.0, 1e-6)
FLOOR_BUDGETS = (PrivacyBudget(0.5, 5e-7), PrivacyBudget(1.0, 1e-6), PrivacyBudget(10.0, 1e-9))
# the composed estimator's half budget, and the scan's per-call budget and
# beta at d = 2 under it, (0.125, 1.25e-7) and 0.025
HALF = PrivacyBudget(0.5, 5e-7)
PER_CALL = plan_shares(HALF, precondition.max_calls(2)).per_call
BETA_I = 0.05 / 2
GEOMETRIC = BucketScheme()
ZERO = BucketScheme.ZERO


def loop_geometric_keys(values):
    """Reference: the definition of a positive value's key, the largest k
    whose lower edge ``bounds(k)[0]`` is at most the value, found by a walk
    over the edges from an estimate."""
    out = []
    for x in np.asarray(values, dtype=np.float64):
        if x == 0.0:
            out.append(ZERO)
            continue
        k = math.floor(4.0 * math.log2(x))
        while GEOMETRIC.bounds(k + 1)[0] <= x:
            k += 1
        while GEOMETRIC.bounds(k)[0] > x:
            k -= 1
        out.append(k)
    return out


def label_words(label):
    """The two 32-bit spawn-key words a stream label hashes to."""
    digest = hashlib.blake2b(repr(label).encode("utf-8"), digest_size=8).digest()
    return [int.from_bytes(digest[:4], "little"), int.from_bytes(digest[4:], "little")]


def gate_rows():
    """400,000 rows of N(0, diag(1, 1e-6)): enough for every gate at d = 2."""
    return np.random.default_rng(0).standard_normal((400_000, 2)) * [1.0, 1e-3]


class TestPrivacyBudget:
    def test_validation(self):
        with pytest.raises(InvalidArgument):
            PrivacyBudget(0.0, 1e-6)
        with pytest.raises(InvalidArgument):
            PrivacyBudget(1.0, 0.0)
        with pytest.raises(InvalidArgument):
            PrivacyBudget(1.0, 1.0)
        with pytest.raises(InvalidArgument):
            PrivacyBudget(math.inf, 1e-6)


class TestRandomSource:
    def test_identical_streams_repeat(self):
        a = RandomSource(123).child("stage", 4)
        b = RandomSource(123).child("stage", 4)
        np.testing.assert_array_equal(a.normal(size=100), b.normal(size=100))
        np.testing.assert_array_equal(a.laplace(2.0, size=50), b.laplace(2.0, size=50))

    def test_distinct_children_decorrelated(self):
        root = RandomSource(7)
        x = root.child("left").standard_normal(100_000)
        y = root.child("right").standard_normal(100_000)
        rho = np.corrcoef(x, y)[0, 1]
        assert abs(rho) < 0.01

    def test_child_path_matters(self):
        root = RandomSource(1)
        a = root.child("a").standard_normal(10)
        b = root.child("b").standard_normal(10)
        assert not np.allclose(a, b)

    def test_nested_child_equivalence(self):
        a = RandomSource(5).child("x", "y").standard_normal(8)
        b = RandomSource(5).child("x").child("y").standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_labels_that_compare_equal_give_different_streams(self):
        # 1, True and 1.0 compare equal but print differently, so the
        # memoized label hash must keep them apart, as the unmemoized one did
        labels = [1, True, 1.0, "1"]
        words = [dp_core._hash_label(label) for label in labels]
        assert words == [tuple(label_words(label)) for label in labels]
        assert len(set(words)) == 4
        assert len({RandomSource(0).child(label).standard_normal() for label in labels}) == 4

    def test_path_and_name(self):
        rng = RandomSource(5).child("x", 0).child("hist", 1)
        assert rng.path == ("x", 0, "hist", 1)
        assert rng.name == "x/0/hist/1"
        assert RandomSource(5).name == ""

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5])
    def test_streams_are_numpys_spawned_sequences(self, seed):
        # a stream's draws must be those of the SeedSequence NumPy spawns
        # from the seed with the path's key words, so a change in how a
        # stream derives its key, or in how NumPy seeds from one, fails here
        paths = np.random.default_rng(seed % 2**32)
        for _ in range(60):
            path = tuple(
                str(paths.integers(0, 10**6)) if paths.random() < 0.5 else int(paths.integers(-(2**40), 2**40))
                for _ in range(paths.integers(0, 11))
            )
            key = [word for label in path for word in label_words(label)]
            want = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))))
            stream = RandomSource(seed).child(*path)
            got = stream.generator
            assert got.integers(0, 2**64, size=4, dtype=np.uint64).tolist() == want.integers(
                0, 2**64, size=4, dtype=np.uint64
            ).tolist()
            assert np.array_equal(stream.standard_normal(3), want.standard_normal(3))

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        # rejected when the stream is built, before any mechanism charges
        with pytest.raises(InvalidArgument):
            RandomSource(seed)


class TestLedger:
    def test_children_share_their_roots_ledger(self):
        root = RandomSource(0)
        assert root.child("a").ledger is root.ledger
        assert root.child("a").child("b", 1).ledger is root.ledger
        assert RandomSource(0).ledger is not root.ledger
        acc = Accountant()
        assert RandomSource(0, acc).child("a").ledger is acc

    def test_mechanisms_charge_their_roots_ledger(self):
        # no caller-supplied ledger: each release still lands in the one
        # its root created, and another root's stays empty
        root = RandomSource(3)
        gaussian_mechanism(np.zeros(2), 1.0, BUDGET, root.child("g"))
        stable_counts({0: 5}, BUDGET, root.child("h"))
        gue_mechanism(np.zeros((2, 2)), 1.0, BUDGET, root.child("n", 0))
        assert [(e.label, e.mechanism) for e in root.ledger.entries] == [
            ("g", "gaussian"),
            ("h", "stable_histogram"),
            ("n/0", "gaussian"),
        ]
        assert RandomSource(3).ledger.entries == ()

    def test_a_root_on_another_ledger_derives_the_same_children(self):
        # accountant= roots a stream at the caller's seed and path on the
        # given ledger: its children draw what the caller's own children
        # draw, bit for bit, and charge that ledger alone
        acc = Accountant()
        root = RandomSource(7, acc, ("s",))
        caller = RandomSource(7).child("s")
        assert (root.seed, root.path, root.ledger) == (caller.seed, caller.path, acc)
        np.testing.assert_array_equal(root.child("a", 1).normal(size=8), caller.child("a", 1).normal(size=8))
        out = gaussian_mechanism(np.zeros(2), 1.0, BUDGET, root.child("g"))
        assert [e.label for e in acc.entries] == ["s/g"]
        assert caller.ledger.entries == ()
        np.testing.assert_array_equal(out, gaussian_mechanism(np.zeros(2), 1.0, BUDGET, caller.child("g")))
        assert acc.entries == caller.ledger.entries


class TestGaussianMechanism:
    def test_sigma_formula(self):
        sigma = gaussian_sigma(1.0, BUDGET)
        assert sigma**2 == pytest.approx(2.0 * math.log(2.0 / 1e-6), rel=1e-12)
        assert sigma**2 == pytest.approx(29.017, rel=1e-4)

    def test_vanishing_noise_limit(self):
        budget = PrivacyBudget(1e9, 1e-6)
        v = np.array([3.0, -2.0, 5.5])
        out = gaussian_mechanism(v, 1.0, budget, RandomSource(0).child("gm"))
        np.testing.assert_allclose(out, v, atol=1e-6)

    def test_monte_carlo_calibration(self):
        sigma = gaussian_sigma(1.0, BUDGET)
        n = 200_000
        out = gaussian_mechanism(np.zeros(n), 1.0, BUDGET, RandomSource(42).child("mc"))
        assert abs(out.mean()) <= 3.0 * sigma / math.sqrt(n)
        assert abs(out.var() / sigma**2 - 1.0) <= 0.01

    def test_determinism(self):
        a = gaussian_mechanism(np.zeros(5), 1.0, BUDGET, RandomSource(9).child("g"))
        b = gaussian_mechanism(np.zeros(5), 1.0, BUDGET, RandomSource(9).child("g"))
        np.testing.assert_array_equal(a, b)

    def test_accountant_charge(self):
        acc = Accountant()
        gaussian_mechanism(np.zeros(3), 2.0, BUDGET, RandomSource(1, acc).child("g", 0))
        assert len(acc.entries) == 1
        assert acc.entries[0].label == "g/0"
        assert acc.entries[0].budget == BUDGET
        assert acc.entries[0].sensitivity == 2.0

    def test_rejects_zero_delta_and_bad_sensitivity(self):
        # a delta = 0 budget cannot be built, so no Gaussian release sees one
        with pytest.raises(InvalidArgument):
            PrivacyBudget(1.0, 0.0)
        with pytest.raises(InvalidArgument):
            gaussian_mechanism(np.zeros(2), 0.0, BUDGET, RandomSource(0))


class TestGueNoise:
    # the noise gue_mechanism adds to a symmetric statistic
    def test_symmetric_for_many_seeds(self):
        m = np.arange(64.0).reshape(8, 8)
        m = m + m.T
        for seed in range(20):
            out = gue_mechanism(m, 1.5, BUDGET, RandomSource(seed).child("gue"))
            np.testing.assert_array_equal(out, out.T)

    def test_entry_distribution(self):
        # upper-triangle entries (incl. diagonal) are iid N(0, sigma^2) at
        # the Gaussian mechanism's scale for the Frobenius sensitivity
        sensitivity = 0.25
        sigma = gaussian_sigma(sensitivity, BUDGET)
        stacked = np.stack(
            [gue_mechanism(np.zeros((6, 6)), sensitivity, BUDGET, RandomSource(s).child("e")) for s in range(800)]
        )
        iu = np.triu_indices(6)
        flat = stacked[:, iu[0], iu[1]].ravel()
        assert abs(flat.mean()) < 3.0 * sigma / math.sqrt(flat.size)
        assert abs(flat.var() / sigma**2 - 1.0) < 0.03

    def test_median_spectral_norm_bracket(self):
        d = 64
        sigma = gaussian_sigma(1.0, BUDGET)
        norms = []
        for seed in range(200):
            m = gue_mechanism(np.zeros((d, d)), 1.0, BUDGET, RandomSource(seed).child("spec"))
            norms.append(np.abs(np.linalg.eigvalsh(m)).max() / sigma)
        med = np.median(norms)
        assert math.sqrt(d) <= med <= 4.0 * math.sqrt(d)


class TestGueMechanism:
    def test_mirrors_the_gaussian_mechanism_and_charges_its_stream(self):
        acc = Accountant()
        m = np.arange(9.0).reshape(3, 3)
        m = m + m.T
        out = gue_mechanism(m, 0.5, BUDGET, RandomSource(2, acc).child("noise"))
        noisy = gaussian_mechanism(m, 0.5, BUDGET, RandomSource(2).child("noise"))
        np.testing.assert_array_equal(out, np.triu(noisy) + np.triu(noisy, 1).T)
        assert [(e.label, e.budget, e.mechanism, e.sensitivity) for e in acc.entries] == [
            ("noise", BUDGET, "gaussian", 0.5)
        ]


def release(values, rng, budget=BUDGET):
    """The histogram path of both callers: keys, counts, stable release."""
    return stable_counts(bucket_counts(GEOMETRIC.keys(values)), budget, rng)


class TestStableHistogram:
    def test_identical_values_single_bucket(self):
        hits = 0
        for seed in range(100):
            out = release(np.full(1000, 3.25), RandomSource(seed).child("h"))
            assert len(out) == 1
            key = heaviest(out, BUDGET, "none released")
            lo, hi = GEOMETRIC.bounds(key)
            assert lo <= 3.25 < hi
            if 940.0 <= out[key] <= 1060.0:
                hits += 1
        assert hits >= 99

    def test_empty_input(self):
        assert bucket_counts(GEOMETRIC.keys([])) == {}
        assert release([], RandomSource(0)) == {}

    def test_singleton_suppression(self):
        releases = 0
        trials = 20_000
        for seed in range(trials):
            out = release([0.5], RandomSource(seed).child("s"))
            releases += bool(out)
        assert releases / trials <= 1e-3

    def test_never_releases_unoccupied_buckets(self):
        # adversarial mix of zeros, bucket edges and values a rounding step
        # below the edge 2 = ratio^4; released buckets must all contain at
        # least one input value
        rng = np.random.default_rng(0)
        below_edge = np.nextafter(2.0, 0.0)
        for seed in range(2000):
            values = np.concatenate(
                [
                    rng.integers(0, 3, size=40).astype(float),
                    np.full(int(rng.integers(0, 60)), below_edge),
                ]
            )
            out = release(values, RandomSource(seed).child("adv"))
            occupied = set(GEOMETRIC.keys(values).tolist())
            assert set(out) <= occupied

    def test_geometric_zero_bucket(self):
        out = release(np.zeros(500), RandomSource(3).child("z"))
        assert list(out) == [ZERO]
        assert GEOMETRIC.bounds(heaviest(out, BUDGET, "none released")) == (0.0, 0.0)

    def test_geometric_rejects_negative(self):
        with pytest.raises(InvalidArgument):
            release([-1.0], RandomSource(0))

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_geometric_rejects_non_finite(self, value):
        with pytest.raises(InvalidArgument):
            GEOMETRIC.keys([1.0, value])

    def test_octave_edges_are_exact_powers_of_two(self):
        # edge 4e is 2^e itself, from the smallest subnormal to the top octave
        octaves = range(-1074, 1024)
        powers = [math.ldexp(1.0, e) for e in octaves]
        assert [GEOMETRIC.bounds(4 * e)[0] for e in octaves] == powers
        # a normal 2^e keys to 4e; below 2^-1022 an inner edge can round down
        # onto 2^e, and 2^e keys to the last edge equal to it
        normal = range(-1022, 1024)
        assert GEOMETRIC.keys([math.ldexp(1.0, e) for e in normal]).tolist() == [4 * e for e in normal]
        assert GEOMETRIC.keys([5e-324]).tolist() == [4 * -1074 + 2]
        assert GEOMETRIC.bounds(4 * -1074 + 2) == (5e-324, 1e-323)

    def test_boundary_belongs_to_upper_bucket(self):
        keys = GEOMETRIC.keys([1.0, np.nextafter(1.0, 0.0), 2.0])
        assert keys.dtype == np.int64
        assert keys.tolist() == [0, -1, 4]
        lo, hi = GEOMETRIC.bounds(0)
        assert lo == 1.0 and hi == pytest.approx(2.0 ** 0.25)

    def test_charges_its_stream_even_when_nothing_is_released(self):
        acc = Accountant()
        assert stable_counts({0: 1}, BUDGET, RandomSource(0, acc).child("h", 2)) == {}
        assert [(e.label, e.budget, e.mechanism, e.sensitivity) for e in acc.entries] == [
            ("h/2", BUDGET, "stable_histogram", 2.0)
        ]

    def test_counts_are_python_ints(self):
        counts = bucket_counts(GEOMETRIC.keys([0.0, 1.0, 1.1, 0.0, 0.0]))
        assert counts == {ZERO: 3, 0: 2}
        assert all(type(k) is int and type(c) is int for k, c in counts.items())

    def test_geometric_keys_match_loop(self):
        rng = np.random.default_rng(41)
        random = 10.0 ** rng.uniform(-300.0, 300.0, size=5000)
        span = range(math.ceil(-300.0 / math.log10(2.0**0.25)), math.floor(300.0 / math.log10(2.0**0.25)))
        edges = np.array([GEOMETRIC.bounds(k)[0] for k in span])
        # (2^{1/4})^k carries the rounding of 2^{1/4} into a value a few ulps
        # from edge k
        powers = np.array([(2.0**0.25) ** k for k in span])
        subnormal = np.array([5e-324, 1e-323, 2e-323, 3e-322, 1e-320, 1e-310, 2.2e-308])
        # finite values whose upper edge overflows
        huge = np.array([np.nextafter(sys.float_info.max, 0.0), sys.float_info.max])
        values = np.concatenate(
            [
                random,
                edges,
                np.nextafter(edges, 0.0),
                np.nextafter(edges, np.inf),
                powers,
                [0.0],
                subnormal,
                np.nextafter(subnormal, 1.0),
                huge,
            ]
        )
        got = GEOMETRIC.keys(values)
        assert got.dtype == np.int64
        assert got.tolist() == loop_geometric_keys(values)
        # one value at a time, so that no other value is keyed alongside
        alone = [*subnormal, *np.nextafter(subnormal, 1.0), *huge]
        assert [GEOMETRIC.keys([v])[0] for v in alone] == loop_geometric_keys(alone)

    @pytest.mark.parametrize("value", [2.0**1023.75, sys.float_info.max])
    def test_an_overflowing_edge_is_infinite(self, value):
        # the lowest and the highest value of the top bucket, [2^1023.75, 2^1024)
        [key] = GEOMETRIC.keys([value]).tolist()
        assert key == loop_geometric_keys([value])[0] == 4 * 1024 - 1
        lo, hi = GEOMETRIC.bounds(key)
        assert lo <= value < hi == math.inf

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False, allow_subnormal=True), min_size=1))
    def test_bounds_contain_every_finite_value(self, values):
        values = np.sort(np.array(values))
        keys = GEOMETRIC.keys(values)
        # keys are non-decreasing in the value, and ZERO keys 0 alone
        assert np.all(keys[:-1] <= keys[1:])
        assert np.array_equal(keys == ZERO, values == 0.0)
        for x, key in zip(values.tolist(), keys.tolist()):
            lo, hi = GEOMETRIC.bounds(key)
            assert lo <= x < hi or lo == x == hi == 0.0


class TestHeaviest:
    def test_nothing_released_raises(self):
        # the message ends with the histogram's share and release threshold
        with pytest.raises(BottomReleased) as info:
            heaviest({}, BUDGET, "no bucket released for index 3")
        assert str(info.value) == (
            f"no bucket released for index 3 at {BUDGET}, release threshold {stable_release_threshold(BUDGET):.6g}"
        )

    def test_largest_noisy_count_wins(self):
        assert heaviest({-4: 12.5, 0: 30.25, 9: 29.0}, BUDGET, "none") == 0

    def test_exact_tie_goes_to_smaller_key(self):
        assert heaviest({7: 1.0, 3: 5.0, -2: 5.0}, BUDGET, "none") == -2

    def test_zero_bucket_can_win(self):
        assert heaviest({ZERO: 10.0, 0: 9.0}, BUDGET, "none") == ZERO
        assert heaviest({5: 10.0, ZERO: 10.0}, BUDGET, "none") == ZERO


class TestPublishedFloors:
    def test_floors_are_pinned(self):
        # release_floor sets the histogram share of every floor below.
        # precondition.min_samples at the composed estimator's half budget,
        # beta = 0.05, d = 2..5:
        assert [precondition.min_samples(d, HALF, 0.05) for d in range(2, 6)] == [
            158_640,
            1_559_580,
            6_562_176,
            18_882_300,
        ]
        # (eigenvalues.min_samples, ball_finder.n_min) at beta = 0.05, one
        # row per budget of FLOOR_BUDGETS, d = 2..5:
        pinned = [
            [(4664, 513), (10716, 787), (19360, 1066), (30600, 1349)],
            [(2248, 248), (5160, 379), (9328, 513), (14740, 649)],
            [(320, 40), (720, 59), (1296, 77), (2040, 97)],
        ]
        for budget, floors in zip(FLOOR_BUDGETS, pinned):
            got = [(eigenvalues.min_samples(d, budget, 0.05), ball_finder.n_min(d, budget, 0.05)) for d in range(2, 6)]
            assert got == floors

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: subspace.n_min(2, 1, -0.5, PER_CALL, BETA_I), id="subspace.n_min-psi=-0.5"),
            pytest.param(lambda: subspace.n_min(2, 1, 0.0, PER_CALL, BETA_I), id="subspace.n_min-psi=0"),
            pytest.param(lambda: subspace.n_min(2, 1, 1.5, PER_CALL, BETA_I), id="subspace.n_min-psi=1.5"),
            pytest.param(lambda: subspace.n_min(2, 0, 0.5, PER_CALL, BETA_I), id="subspace.n_min-k=0"),
            pytest.param(lambda: subspace.n_min(2, 2, 0.5, PER_CALL, BETA_I), id="subspace.n_min-k=d"),
            pytest.param(lambda: subspace.feasible_psi(10**7, 2, 2, PER_CALL, BETA_I), id="feasible_psi-k=d"),
            pytest.param(lambda: subspace.feasible_psi(10**7, 2, 1, PER_CALL, 1.5), id="feasible_psi-beta=1.5"),
            pytest.param(
                lambda: subspace.subspace_params(10**7, 2, 2, 0.01, 0.5, PER_CALL, BETA_I), id="subspace_params-k=d"
            ),
            pytest.param(
                lambda: subspace.subspace_params(10**7, 2, 1, 0.01, 0.5, PER_CALL, 1.5), id="subspace_params-beta=1.5"
            ),
            pytest.param(lambda: eigenvalues.min_samples(2, PER_CALL, 0.0), id="eigenvalues.min_samples-beta=0"),
            pytest.param(lambda: eigenvalues.min_samples(2, PER_CALL, 1.5), id="eigenvalues.min_samples-beta=1.5"),
            pytest.param(
                lambda: eigenvalues.estimate_eigenvalues(gate_rows(), PER_CALL, 0.0, RandomSource(0)),
                id="estimate_eigenvalues-beta=0",
            ),
            pytest.param(
                lambda: eigenvalues.estimate_eigenvalues(gate_rows(), PER_CALL, 1.5, RandomSource(0)),
                id="estimate_eigenvalues-beta=1.5",
            ),
            pytest.param(lambda: precondition.min_samples(2, HALF, -0.1), id="precondition.min_samples-beta=-0.1"),
            pytest.param(lambda: precondition.min_samples(2, HALF, 1.5), id="precondition.min_samples-beta=1.5"),
            pytest.param(
                lambda: precondition.precondition(gate_rows(), HALF, -0.1, RandomSource(0)), id="precondition-beta=-0.1"
            ),
            pytest.param(
                lambda: precondition.precondition(gate_rows(), HALF, 1.5, RandomSource(0)), id="precondition-beta=1.5"
            ),
        ],
    )
    def test_gates_reject_invalid_arguments(self, call):
        # each stage's floor function validates the stage's arguments, and
        # every layout or release function compares n with it first
        with pytest.raises(InvalidArgument):
            call()


class TestCompose:
    def test_basic_sum(self):
        acc = Accountant()
        acc.charge("a", PrivacyBudget(1.0, 1e-6), "gaussian", 1.0)
        acc.charge("b", PrivacyBudget(1.0, 1e-6), "stable_histogram", 2.0)
        assert acc.total() == (2.0, 2e-6)

    def test_basic_empty(self):
        assert Accountant().total() == (0, 0)

    def test_basic_permutation_invariant(self):
        budgets = [PrivacyBudget(0.3, 1e-7), PrivacyBudget(0.5, 2e-7), PrivacyBudget(0.1, 5e-8)]
        acc1 = Accountant()
        acc2 = Accountant()
        for b in budgets:
            acc1.charge("x", b, "gaussian", 1.0)
        for b in reversed(budgets):
            acc2.charge("x", b, "gaussian", 1.0)
        assert acc1.total() == acc2.total()


class TestOneSplitPerCall:
    """Each stage splits its budget once per call and passes the shares on."""

    WIDE = PrivacyBudget(10.0, 1e-6)

    @staticmethod
    def counted_splits(monkeypatch):
        calls = []

        def spy(budget, count):
            calls.append((budget, count))
            return plan_shares(budget, count)

        for module in (ball_finder, eigenvalues, subspace):
            monkeypatch.setattr(module, "plan_shares", spy)
        return calls

    def test_find_center(self, monkeypatch):
        splits = self.counted_splits(monkeypatch)
        ball_finder.find_center(np.tile([2.5, -1.0, 7.0], (100, 1)), 1.0, self.WIDE, 0.1, RandomSource(0))
        assert splits == [(self.WIDE, 3)]

    def test_estimate_eigenvalues(self, monkeypatch):
        x = np.random.default_rng(0).normal(size=(50 * eigenvalues.min_samples(3, self.WIDE, 0.1), 3))
        splits = self.counted_splits(monkeypatch)
        eigenvalues.estimate_eigenvalues(x, self.WIDE, 0.1, RandomSource(0))
        assert splits == [(self.WIDE, 3)]

    def test_recover_subspace(self, monkeypatch):
        # beyond subspace_params's, the only splits are each find_center's
        d, k, gamma, psi, beta = 3, 1, 1e-2, 0.5, 0.05
        n = subspace.n_min(d, k, psi, self.WIDE, beta)
        x = np.random.default_rng(0).normal(size=(n, d)) * [1.0, 1e-4, 1e-4]
        splits = self.counted_splits(monkeypatch)
        params = subspace.subspace_params(n, d, k, gamma, psi, self.WIDE, beta)
        for_params = list(splits)
        splits.clear()
        subspace.recover_subspace(x, k, gamma, psi, self.WIDE, beta, RandomSource(0))
        assert splits == for_params + [(params.per_call, d)] * params.q


class TestPlanShares:
    @pytest.mark.parametrize("eps", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("delta", [1e-6, 1e-9])
    # 112, 130, 256, 1020 (precondition.max_calls(256)) and 1277 (its
    # earlier value) are counts where a share sized by a rule other than the
    # ledger's would overrun the budget
    @pytest.mark.parametrize("calls", [1, 3, 17, 112, 130, 200, 256, 1020, 1277, 5000])
    def test_composed_total_within_budget(self, eps, delta, calls):
        budget = PrivacyBudget(eps, delta)
        plan = plan_shares(budget, calls)
        acc = Accountant()
        for i in range(calls):
            acc.charge(f"c{i}", plan.per_call, "gaussian", 1.0)
        total_eps, total_delta = acc.total()
        assert total_eps <= eps
        assert total_delta <= delta

    @settings(max_examples=300, deadline=None)
    @given(
        eps=st.floats(1e-3, 10.0),
        delta=st.floats(1e-12, 1e-3),
        tree=st.recursive(
            st.none(), lambda inner: st.tuples(st.integers(1, 40), st.lists(inner, max_size=3)), max_leaves=8
        ),
    )
    def test_nested_split_leaves_within_budget(self, eps, delta, tree):
        # a node (calls, subtrees) splits its budget into ``calls`` shares,
        # the first of which are split again by ``subtrees``; every other
        # share is charged as one release
        def fill(acc, budget, node):
            if node is None:
                acc.charge("leaf", budget, "gaussian", 1.0)
                return
            calls, subtrees = node
            share = plan_shares(budget, calls).per_call
            for i in range(calls):
                fill(acc, share, subtrees[i] if i < len(subtrees) else None)

        acc = Accountant()
        fill(acc, PrivacyBudget(eps, delta), tree)
        total_eps, total_delta = acc.total()
        assert total_eps <= eps
        assert total_delta <= delta
