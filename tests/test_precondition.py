import math
import traceback

import numpy as np
import pytest

from privgauss import linalg
from privgauss.dp_core import Accountant, PrivacyBudget, RandomSource
from privgauss.errors import DegenerateSpectrum, InvalidArgument
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


def run(spectrum, seed):
    """precondition on min_samples rows of N(0, diag(spectrum)), on the rng
    stream the composed estimator uses.  Returns (kinds, cond, ledger):
    the step kinds and cond(A Sigma A) of the final map, both None when the
    run raised DegenerateSpectrum, and the ledger it filled either way."""
    d = len(spectrum)
    n = min_samples(d, BUDGET, BETA)
    x = np.random.default_rng(seed).standard_normal((n, d)) * np.sqrt(spectrum)
    acc = Accountant()
    rng = RandomSource(seed).child("precondition")
    try:
        trace = precondition(x, BUDGET, BETA, rng, accountant=acc)
    except DegenerateSpectrum:
        return None, None, acc
    a = trace.final_map
    lam = np.linalg.eigvalsh(a @ np.diag(spectrum) @ a)
    return [step.kind for step in trace.steps], lam[-1] / lam[0], acc


def assert_within_budget(acc):
    eps, delta = acc.total()
    assert eps <= BUDGET.epsilon
    assert delta <= BUDGET.delta


class TestPrecondition:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_coarse_branch_conditions(self, seed):
        # measured 1.05-1.13 over seeds 0-5 from cond 1e6
        kinds, cond, acc = run((1.0, 1e-6), seed)
        assert kinds == ["coarse"]
        assert cond <= 2.0
        assert_within_budget(acc)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_skip_branch_keeps_isotropic_data(self, seed):
        kinds, cond, acc = run((1.0, 1.0), seed)
        assert kinds == ["skip"]
        assert cond <= 1.1
        assert_within_budget(acc)

    def test_three_dim_coarse_then_skip(self):
        kinds, cond, acc = run((1.0, 1e-6, 1e-6), 0)
        assert kinds == ["coarse", "skip"]
        assert cond <= 2.0
        assert_within_budget(acc)

    # The fine step neither reaches O(1) nor always finishes: its probe can
    # report a non-positive eigenvalue, which raises DegenerateSpectrum.
    # Each case asserts only what seeds 0-5 measured: the branches taken,
    # a ceiling on the raises, a condition number below the input's, and
    # the ledger within budget on every run, raised or not.
    @pytest.mark.parametrize(
        "spectrum, paths, max_raises, max_cond",
        [
            # cond 100 -> 8.8-56; 1 of 6 raised
            ((1.0, 1e-2), [["fine"]], 1, 100.0),
            # cond 333 -> 1.4-31; 3 of 6 raised
            ((1.0, 0.3, 0.003), [["skip", "fine"]], 3, 333.0),
            # cond 1e7 -> 9.0-12 after coarse+fine (3 seeds), 177 after a
            # coarse step alone (1 seed); 2 of 6 raised
            ((1.0, 1e-3, 1e-7), [["fine", "coarse+fine"], ["fine", "coarse"]], 2, 1e3),
        ],
    )
    def test_fine_paths(self, spectrum, paths, max_raises, max_cond):
        raises = 0
        for seed in SEEDS:
            kinds, cond, acc = run(spectrum, seed)
            assert_within_budget(acc)
            if kinds is None:
                raises += 1
                continue
            assert kinds in paths
            assert cond < max_cond
        assert raises <= max_raises

    def test_failure_keeps_partial_trace(self):
        # seed 1 takes the skip step, then the fine probe at iteration 2
        # reports a non-positive eigenvalue
        spectrum = (1.0, 0.3, 0.003)
        d = len(spectrum)
        x = np.random.default_rng(1).standard_normal((min_samples(d, BUDGET, BETA), d)) * np.sqrt(spectrum)
        acc = Accountant()
        with pytest.raises(DegenerateSpectrum) as info:
            precondition(x, BUDGET, BETA, RandomSource(1).child("precondition"), accountant=acc)
        trace = info.value.trace
        iterations = [step.iteration for step in trace.steps]
        assert iterations == list(range(1, len(iterations) + 1))
        assert 1 <= len(iterations) < d - 1
        assert trace.steps[0].kind == "skip"
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
