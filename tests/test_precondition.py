import math
import re
import traceback
import tracemalloc

import numpy as np
import pytest

from privgauss import linalg, naive
from privgauss.dp_core import Accountant, PrivacyBudget, RandomSource
from privgauss.errors import DegenerateSpectrum, InsufficientSamples, InvalidArgument
from privgauss.naive import naive_config, naive_estimate
from privgauss.precondition import (
    GAMMA_BAR_SQ,
    coarse_precondition,
    fine_precondition,
    min_samples,
    precondition,
)

BUDGET = PrivacyBudget(1.0, 1e-6)
BETA = 0.1
SEEDS = range(6)


def samples(spectrum, seed, n=None):
    """n rows (min_samples by default) of N(0, diag(spectrum))."""
    d = len(spectrum)
    n = min_samples(d, BUDGET, BETA) if n is None else n
    return np.random.default_rng(seed).standard_normal((n, d)) * np.sqrt(spectrum)


def run(spectrum, seed):
    """precondition on min_samples rows of N(0, diag(spectrum)), on the rng
    stream the composed estimator uses.  Returns (kinds, cond, ledger): the
    step kinds, cond(A Sigma A) of the final map and the ledger filled."""
    acc = Accountant()
    rng = RandomSource(seed).child("precondition")
    trace = precondition(samples(spectrum, seed), BUDGET, BETA, rng, accountant=acc)
    assert_labels_unique(acc)
    a = trace.final_map
    lam = np.linalg.eigvalsh(a @ np.diag(spectrum) @ a)
    return [step.kind for step in trace.steps], lam[-1] / lam[0], acc


def assert_labels_unique(acc):
    """Each release draws from its own stream, whose name is its label."""
    labels = [entry.label for entry in acc.entries]
    assert len(set(labels)) == len(labels)


def assert_within_budget(acc):
    eps, delta = acc.total()
    assert eps <= BUDGET.epsilon
    assert delta <= BUDGET.delta


def assert_probes_consumed(kinds, acc):
    """The scan's naive probes are charged only where a step reads them.

    A fine step at iteration i reads the probe released under
    precondition/naive/{i-1}/noise, charged just before its own
    precondition/fine/{i}/naive/noise; a coarse step at iteration i
    re-probes under precondition/naive_post/{i}.  A skip step probes
    nothing.
    """
    labels = [entry.label for entry in acc.entries]
    probes = [label for label in labels if re.fullmatch(r"precondition/naive\w*/\d+/noise", label)]
    for j, label in enumerate(labels):
        match = re.fullmatch(r"precondition/naive/(\d+)/noise", label)
        if match:
            assert labels[j + 1 : j + 2] == [f"precondition/fine/{int(match.group(1)) + 1}/naive/noise"]
    expected = []
    for i, kind in enumerate(kinds, start=1):
        if kind == "fine":
            expected.append(f"precondition/naive/{i - 1}/noise")
        elif kind.startswith("coarse"):
            expected.append(f"precondition/naive_post/{i}/noise")
    assert probes == expected


class TestPrecondition:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_coarse_branch_conditions(self, seed):
        # measured 1.05-1.13 over seeds 0-5 from cond 1e6
        kinds, cond, acc = run((1.0, 1e-6), seed)
        assert kinds == ["coarse"]
        assert cond <= 2.0
        assert_within_budget(acc)
        assert_probes_consumed(kinds, acc)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_skip_branch_keeps_isotropic_data(self, seed):
        kinds, cond, acc = run((1.0, 1.0), seed)
        assert kinds == ["skip"]
        assert cond <= 1.1
        assert_within_budget(acc)
        assert_probes_consumed(kinds, acc)

    def test_three_dim_coarse_then_skip(self):
        kinds, cond, acc = run((1.0, 1e-6, 1e-6), 0)
        assert kinds == ["coarse", "skip"]
        assert cond <= 2.0
        assert_within_budget(acc)
        assert_probes_consumed(kinds, acc)

    # The fine step does not reach O(1), but with its pivot floored at the
    # probe's noise level it always finishes.  Each case asserts what seeds
    # 0-5 measured: the branches taken, a condition number below the
    # input's, and the ledger within budget.
    @pytest.mark.parametrize(
        "spectrum, paths, max_cond",
        [
            # cond 100 -> 37-57
            ((1.0, 1e-2), [["fine"]], 100.0),
            # cond 333 -> 55-61
            ((1.0, 0.3, 0.003), [["skip", "fine"]], 333.0),
            # cond 1e7 -> 30-38 after coarse+fine (5 seeds), 177 after a
            # coarse step alone (1 seed)
            ((1.0, 1e-3, 1e-7), [["fine", "coarse+fine"], ["fine", "coarse"]], 1e3),
        ],
    )
    def test_fine_paths(self, spectrum, paths, max_cond):
        for seed in SEEDS:
            kinds, cond, acc = run(spectrum, seed)
            assert_within_budget(acc)
            assert_probes_consumed(kinds, acc)
            assert kinds in paths
            assert cond < max_cond

    @pytest.mark.parametrize(
        "spectrum, rows, error, kinds",
        [
            # rank-deficient input: the initial estimate releases the [0, 0]
            # bucket for the bottom eigenvalue, before any step
            ((1.0, 1.0, 0.0), None, DegenerateSpectrum, []),
            # half the floor: the skip step completes, then the coarse step
            # at iteration 2 cannot form its subsample layout
            ((1.0, 1.0, 1e-6), min_samples(3, BUDGET, BETA) // 2, InsufficientSamples, ["skip"]),
        ],
    )
    def test_failure_keeps_partial_trace(self, spectrum, rows, error, kinds):
        acc = Accountant()
        rng = RandomSource(1).child("precondition")
        with pytest.raises(error) as info:
            precondition(samples(spectrum, 1, rows), BUDGET, BETA, rng, accountant=acc)
        trace = info.value.trace
        assert [step.iteration for step in trace.steps] == list(range(1, len(kinds) + 1))
        assert [step.kind for step in trace.steps] == kinds
        assert trace.final_map is None
        assert_within_budget(acc)
        # below precondition's own frame the traceback holds no locals, so
        # keeping the exception does not keep the mapped rows alive
        frames = [frame for frame, _ in traceback.walk_tb(info.value.__traceback__)]
        names = [frame.f_code.co_name for frame in frames]
        below = frames[names.index("precondition") + 1 :]
        assert below
        assert all(not frame.f_locals for frame in below)

    def test_same_seed_same_map(self):
        x = np.random.default_rng(4).standard_normal((min_samples(2, BUDGET, BETA), 2)) * [1.0, 1e-3]
        first = precondition(x, BUDGET, BETA, RandomSource(4)).final_map
        second = precondition(x, BUDGET, BETA, RandomSource(4)).final_map
        np.testing.assert_array_equal(first, second)

    def test_one_dimension_is_identity(self):
        acc = Accountant()
        trace = precondition(np.ones((10, 1)), BUDGET, BETA, RandomSource(0), accountant=acc)
        np.testing.assert_array_equal(trace.final_map, np.eye(1))
        assert acc.total() == (0, 0)


class TestMappedStatistics:
    """The scan maps cached statistics of the raw rows and never forms x @ a."""

    @staticmethod
    def skip_then_fine():
        return samples((1.0, 0.3, 0.003), 0, 1_000_000)

    @staticmethod
    def scan(x):
        trace = precondition(x, BUDGET, BETA, RandomSource(0).child("precondition"))
        assert [step.kind for step in trace.steps] == ["skip", "fine"]

    def test_peak_memory_is_a_fraction_of_the_rows(self):
        x = self.skip_then_fine()
        tracemalloc.start()
        try:
            self.scan(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes / 4

    def test_one_gram_pass_per_layout_and_no_clip_pass(self, monkeypatch):
        layouts = []
        gram_stack = linalg.gram_stack
        monkeypatch.setattr(linalg, "gram_stack", lambda x, t, m: layouts.append((t, m)) or gram_stack(x, t, m))
        clips = []
        monkeypatch.setattr(naive, "clipped_second_moment", lambda *args: clips.append(args))
        self.scan(self.skip_then_fine())
        # three eigenvalue estimates and two probes read one raw stack
        assert len(layouts) == 1
        assert clips == []


class TestCoarseStep:
    def test_closed_form(self):
        # A = gamma_hat P + (I - P) with P onto e1 maps diag(1, g^2) to g^2 I
        gamma_hat = 1e-3
        p = np.diag([1.0, 0.0])
        a = coarse_precondition(
            np.zeros((4, 2)),
            1,
            gamma_hat,
            BUDGET,
            BETA,
            RandomSource(0),
            projector_override=linalg.Projector(p, 1),
        )
        np.testing.assert_array_equal(a, np.diag([gamma_hat, 1.0]))
        mapped = a @ np.diag([1.0, gamma_hat**2]) @ a
        np.testing.assert_allclose(mapped, gamma_hat**2 * np.eye(2), rtol=1e-12)

    def test_no_gap_is_identity(self):
        a = coarse_precondition(np.zeros((4, 3)), 1, 1.0, BUDGET, BETA, RandomSource(0))
        np.testing.assert_array_equal(a, np.eye(3))

    def test_rejects_bad_gamma(self):
        with pytest.raises(InvalidArgument):
            coarse_precondition(np.zeros((4, 2)), 1, 0.0, BUDGET, BETA, RandomSource(0))


class TestFineStep:
    def test_closed_form(self):
        # Z = Q diag(1, 1e-2) Q^T, k = 1: the pivot is 1e-2, the cutoff
        # 1e-2 / (16 gbar^2) keeps only the top direction, whose scale is
        # 1 / (4 gbar sqrt(1 / 1e-2))
        gamma_bar = math.sqrt(GAMMA_BAR_SQ)
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((2, 2)))
        z = (q * [1.0, 1e-2]) @ q.T
        a = fine_precondition(
            np.zeros((4, 2)), 1, gamma_bar, 1.0, BUDGET, BETA, RandomSource(0), probe_override=z
        )
        top = 1.0 / (4.0 * gamma_bar * math.sqrt(1.0 / 1e-2))
        np.testing.assert_allclose(a, (q * [top, 1.0]) @ q.T, atol=1e-12)
        lam = np.linalg.eigvalsh(a @ z @ a)
        np.testing.assert_allclose(sorted(lam), sorted([top**2, 1e-2]), rtol=1e-9)

    def test_pivot_floored_at_probe_noise(self):
        # rank-one rows: lambda_2 of the probe is a rounding zero (-1.7e-21
        # at this seed), and the pivot becomes the probe's noise level
        # sigma sqrt(d), which keeps the top direction's scale finite
        gamma_bar = math.sqrt(GAMMA_BAR_SQ)
        x = np.random.default_rng(0).standard_normal((200_000, 2)) * [1.0, 0.0]
        z = naive_estimate(x, BUDGET, BETA, RandomSource(1).child("naive"), kappa2=4.0)
        lam = np.linalg.eigvalsh(z)
        assert lam[0] <= 0.0
        a = fine_precondition(x, 1, gamma_bar, 4.0, BUDGET, BETA, RandomSource(1))
        pivot = naive_config(len(x), 2, 4.0, BUDGET, BETA).sigma * math.sqrt(2)
        top = 1.0 / (4.0 * gamma_bar * math.sqrt(lam[1] / pivot))
        np.testing.assert_allclose(np.linalg.eigvalsh(a), [top, 1.0], rtol=1e-12)

    def test_non_positive_pivot_raises(self):
        with pytest.raises(DegenerateSpectrum):
            fine_precondition(
                np.zeros((4, 2)),
                1,
                math.sqrt(GAMMA_BAR_SQ),
                1.0,
                BUDGET,
                BETA,
                RandomSource(0),
                probe_override=np.diag([1.0, 0.0]),
            )
