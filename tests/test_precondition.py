import math
import re
import traceback
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privgauss import eigenvalues, linalg, naive, subspace
from privgauss import precondition as precondition_module
from privgauss.dp_core import Accountant, PrivacyBudget, RandomSource, plan_shares
from privgauss.eigenvalues import EigenvalueEstimate
from privgauss.errors import BottomReleased, DegenerateSpectrum, InsufficientSamples, InvalidArgument
from privgauss.naive import naive_config
from privgauss.precondition import (
    GAMMA_BAR_SQ,
    coarse_map,
    fine_map,
    max_calls,
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
    rng = RandomSource(seed, acc).child("precondition")
    trace = precondition(samples(spectrum, seed), BUDGET, BETA, rng)
    assert_labels_unique(acc)
    assert_calls_within_reserve(acc, len(spectrum))
    a = trace.final_map
    lam = np.linalg.eigvalsh(a @ np.diag(spectrum) @ a)
    return [step.kind for step in trace.steps], lam[-1] / lam[0], acc


def assert_labels_unique(acc):
    """Each release draws from its own stream, whose name is its label."""
    labels = [entry.label for entry in acc.entries]
    assert len(set(labels)) == len(labels)


def assert_calls_within_reserve(acc, d, budget=BUDGET):
    """The scan makes at most max_calls(d) budgeted calls, each charging
    under its own prefix precondition/<call>/<i> at most its planned share
    of ``budget`` in epsilon and in delta, and one eigenvalue estimate per
    iteration, the last under precondition/eig/{d - 2}."""
    prefix = re.compile(r"precondition/(eig|coarse|naive_post|naive|fine)/\d+")
    calls = {}
    for entry in acc.entries:
        calls.setdefault(prefix.match(entry.label).group(), []).append(entry.budget)
    assert len(calls) <= max_calls(d)
    assert f"precondition/eig/{d - 1}" not in calls
    share = plan_shares(budget, max_calls(d)).per_call
    for spent in calls.values():
        assert math.fsum(b.epsilon for b in spent) <= share.epsilon
        assert math.fsum(b.delta for b in spent) <= share.delta


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
    def test_rows_without_columns_are_rejected(self):
        acc = Accountant()
        with pytest.raises(InvalidArgument):
            precondition(np.zeros((100, 0)), BUDGET, BETA, RandomSource(0, acc))
        assert acc.entries == ()

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
            # rank-deficient input: the first iteration's estimate releases
            # the [0, 0] bucket for the bottom eigenvalue, before any step
            ((1.0, 1.0, 0.0), None, DegenerateSpectrum, []),
            # half the floor: the skip step completes, then the coarse step
            # at iteration 2 cannot form its subsample layout
            ((1.0, 1.0, 1e-6), min_samples(3, BUDGET, BETA) // 2, InsufficientSamples, ["skip"]),
        ],
    )
    def test_failure_keeps_partial_trace(self, spectrum, rows, error, kinds):
        acc = Accountant()
        rng = RandomSource(1, acc).child("precondition")
        with pytest.raises(error) as info:
            precondition(samples(spectrum, 1, rows), BUDGET, BETA, rng)
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

    def test_failed_estimate_keeps_the_completed_step(self, monkeypatch):
        # iteration 1 completes a coarse+fine step; the estimate that opens
        # iteration 2 releases nothing, and the trace keeps iteration 1
        stub_releases(monkeypatch, np.array([1.0, 1e-6, 1e-12]), fail_eig=1)
        x = np.zeros((min_samples(3, BUDGET, BETA), 3))
        with pytest.raises(BottomReleased) as info:
            precondition(x, BUDGET, BETA, RandomSource(0).child("precondition"))
        trace = info.value.trace
        assert [(step.iteration, step.kind) for step in trace.steps] == [(1, "coarse+fine")]
        assert trace.final_map is None

    def test_same_seed_same_map(self):
        x = np.random.default_rng(4).standard_normal((min_samples(2, BUDGET, BETA), 2)) * [1.0, 1e-3]
        first = precondition(x, BUDGET, BETA, RandomSource(4)).final_map
        second = precondition(x, BUDGET, BETA, RandomSource(4)).final_map
        np.testing.assert_array_equal(first, second)

    def test_one_dimension_is_identity(self):
        acc = Accountant()
        trace = precondition(np.ones((10, 1)), BUDGET, BETA, RandomSource(0, acc))
        np.testing.assert_array_equal(trace.final_map, np.eye(1))
        assert acc.total() == (0, 0)

    def test_one_dimension_floor_is_defined(self):
        # the scan releases nothing at d = 1, but the reserve stays one call
        # so that the floor and its share are defined
        assert max_calls(1) == 1
        floor = min_samples(1, BUDGET, BETA)
        assert floor >= 2
        acc = Accountant()
        trace = precondition(np.ones((floor, 1)), BUDGET, BETA, RandomSource(0, acc))
        np.testing.assert_array_equal(trace.final_map, np.eye(1))
        assert acc.entries == ()


class TestCallCount:
    @pytest.mark.parametrize("d", range(2, 6))
    def test_reserve_is_the_worst_case_scan(self, d):
        # at most 4 calls per iteration (eigenvalue estimate, subspace,
        # post-coarse probe, fine step) over d - 1 iterations
        assert max_calls(d) == 4 * (d - 1)

    @pytest.mark.parametrize("d", [2, 3])
    def test_coarse_fine_at_every_iteration_fills_the_reserve(self, d, monkeypatch):
        # stub releases charge their share and steer every iteration into
        # its costliest branch: a gap of 1e-6 at every index, which the
        # post-coarse probe still reports
        stub_releases(monkeypatch, 1e-6 ** np.arange(d))
        acc = Accountant()
        x = np.zeros((min_samples(d, BUDGET, BETA), d))
        trace = precondition(x, BUDGET, BETA, RandomSource(0, acc).child("precondition"))
        assert [step.kind for step in trace.steps] == ["coarse+fine"] * (d - 1)
        assert len(acc.entries) == max_calls(d)
        assert_calls_within_reserve(acc, d)
        assert_within_budget(acc)


class TestSampleFloor:
    # d 2-8, eps 1e-3-1e5, delta 1e-12-0.1, beta 1e-6-0.99
    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 8), st.floats(-3.0, 5.0), st.floats(-12.0, -1.0), st.floats(1e-6, 0.99))
    def test_floor_covers_every_call_at_its_share(self, d, log_eps, log_delta, beta):
        # every budgeted call of the scan gets plan_shares(budget,
        # max_calls(d)) and beta / d; the floor must admit each call's own
        # gate there, the post-coarse probe's eigenvalue layout included,
        # which the stubs of TestCallCount never reach
        budget = PrivacyBudget(10.0**log_eps, 10.0**log_delta)
        per_call, beta_i = plan_shares(budget, max_calls(d)).per_call, beta / d
        needs = {
            "eigenvalue estimate": eigenvalues.min_samples(d, per_call, beta_i),
            "post-coarse probe": naive.min_samples(d, per_call, beta_i),
            "fine probe": 2 * d,
        }
        for k in range(1, d):
            needs[f"subspace at k = {k}"] = subspace.n_min(d, k, subspace.MAX_PSI, per_call, beta_i)
        floor = min_samples(d, budget, beta)
        assert all(floor >= need for need in needs.values()), (floor, needs)


def stub_releases(monkeypatch, spectrum, probe=None, fail_eig=None):
    """Replace the scan's three releases with data-free ones: each charges
    its share and reports ``spectrum`` (the eigenvalue estimate), ``probe``
    (the naive probe's spectrum, ``spectrum`` by default) or the projector
    onto the first k axes, whatever the rows.  The eigenvalue estimate
    released under precondition/eig/{fail_eig}, if given, raises
    BottomReleased instead."""
    probe = spectrum if probe is None else probe

    def eigenvalue_release(x, budget, beta, rng):
        rng.charge(budget, "stub", 1.0)
        if rng.path[-2:] == ("eig", fail_eig):
            raise BottomReleased(f"stub releases nothing under {rng.name}")
        return EigenvalueEstimate(spectrum, 1)

    def probe_release(x, budget, beta, rng, kappa2=None):
        rng.charge(budget, "stub", 1.0)
        return np.diag(probe)

    def subspace_release(x, k, gamma, psi, budget, beta, rng):
        rng.charge(budget, "stub", 1.0)
        return np.diag(np.arange(len(spectrum)) < k).astype(float)

    monkeypatch.setattr(precondition_module, "estimate_eigenvalues", eigenvalue_release)
    monkeypatch.setattr(precondition_module, "naive_estimate", probe_release)
    monkeypatch.setattr(subspace, "recover_subspace", subspace_release)


class TestPostProcessing:
    def test_map_depends_on_the_rows_only_through_the_releases(self, monkeypatch):
        # with the releases made data-free, two different row arrays of one
        # shape must give the same steps and the same map: every step's map
        # reads its release and public values (n, d, the shares), no row
        spectrum = np.array([1.0, 1e-2, 1e-8])
        stub_releases(monkeypatch, spectrum)
        n = min_samples(3, BUDGET, BETA)
        runs = []
        for seed, scale in [(0, [1.0, 1.0, 1.0]), (1, [1e3, 1e-2, 1e-5])]:
            x = np.random.default_rng(seed).standard_normal((n, 3)) * scale
            acc = Accountant()
            trace = precondition(x, BUDGET, BETA, RandomSource(0, acc).child("precondition"))
            runs.append((trace, acc))
        (first, first_acc), (second, second_acc) = runs
        assert [step.kind for step in first.steps] == ["fine", "coarse+fine"]
        assert first.steps == second.steps
        np.testing.assert_array_equal(first.final_map, second.final_map)
        assert first_acc.entries == second_acc.entries


class TestLedgerRouting:
    @pytest.mark.parametrize("spectrum", [(1.0, 1e-6), (1.0, 0.3, 0.003)])
    def test_given_ledger_gets_the_streams_entries(self, spectrum):
        # accountant= routes every charge of the call, and nothing else
        # changes: the map is bit-identical and the caller's stream's own
        # ledger stays empty
        x = samples(spectrum, 0)
        plain = RandomSource(0).child("precondition")
        expected = precondition(x, BUDGET, BETA, plain).final_map
        acc = Accountant()
        routed = RandomSource(0).child("precondition")
        np.testing.assert_array_equal(precondition(x, BUDGET, BETA, routed, accountant=acc).final_map, expected)
        assert acc.entries
        assert acc.entries == plain.ledger.entries
        assert routed.ledger.entries == ()


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
        monkeypatch.setattr(
            linalg, "gram_stack", lambda x, m, norms=True: layouts.append(m) or gram_stack(x, m, norms)
        )
        reads = []
        blocks = linalg.MappedRows.blocks
        monkeypatch.setattr(linalg.MappedRows, "blocks", lambda view: reads.append(view.a) or blocks(view))
        clips = []
        monkeypatch.setattr(naive, "clipped_second_moment", lambda *args: clips.append(args))
        self.scan(self.skip_then_fine())
        # two eigenvalue estimates and two probes read one raw stack, and
        # the probes' norm test reads the maximum that pass cached
        assert len(layouts) == 1
        assert reads == []
        assert clips == []

    def test_no_raw_norm_sweep_on_the_floor_d2_draw(self, monkeypatch):
        # the benchmark's floor-d2 draw at its floor, preconditioned as the
        # composed estimator does: the pair differences take three raw
        # layouts (the eigenvalue estimate, the coarse step's subspace and
        # the post-coarse probe's eigenvalue estimate); only the first pass
        # takes the columns' extremes, and no row norm of them is computed
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads

        w = workloads.WORKLOADS["floor-d2"]
        raw, _ = workloads.draw_rows(0, w.tag, 0, workloads.floor_rows(w.d), w.lam)
        y = raw[1::2] - raw[0::2]
        layouts, swept = [], []
        gram_stack, sq_norms = linalg.gram_stack, linalg.sq_norms

        def stacked(x, m, norms=True):
            if x is y:
                layouts.append((m, norms))
            return gram_stack(x, m, norms)

        def normed(block):
            if np.may_share_memory(block, y):
                swept.append(len(block))
            return sq_norms(block)

        monkeypatch.setattr(linalg, "gram_stack", stacked)
        monkeypatch.setattr(linalg, "sq_norms", normed)
        trace = precondition(y, workloads.HALF, workloads.HALF_BETA, RandomSource(0).child("precondition"))
        assert [step.kind for step in trace.steps] == ["coarse"]
        assert len({m for m, _ in layouts}) == len(layouts) == 3
        assert [norms for _, norms in layouts] == [True, False, False]
        assert swept == []

    def test_a_skip_reuses_its_views_eigenvalues(self, monkeypatch):
        # a skip leaves the view unchanged, so the next eigenvalue estimate
        # reads the subsample eigenvalues the first one decomposed; the map
        # and ledger are those of decomposing the stack twice
        x = samples((1.0, 0.3, 0.003), 0)
        sym_eig_batch = linalg.sym_eig_batch

        def scan():
            stacks = []

            def spy(mats, vectors=True):
                if len(mats) > 1 and not vectors:
                    stacks.append(mats.shape)
                return sym_eig_batch(mats, vectors)

            monkeypatch.setattr(linalg, "sym_eig_batch", spy)
            acc = Accountant()
            trace = precondition(x, BUDGET, BETA, RandomSource(0, acc).child("precondition"))
            assert [step.kind for step in trace.steps] == ["skip", "fine"]
            return trace.final_map, acc.entries, stacks

        cached_map, cached_ledger, cached = scan()
        monkeypatch.setattr(
            linalg.MappedRows,
            "subsample_eigenvalues",
            lambda view, t, m: linalg.sym_eig_batch(view.gram_stack(t, m) / m, vectors=False)[0],
        )
        fresh_map, fresh_ledger, fresh = scan()
        assert len(cached) == 1
        assert fresh == cached * 2
        assert np.array_equal(cached_map, fresh_map)
        assert cached_ledger == fresh_ledger

    @pytest.mark.parametrize(
        "spectrum, reads",
        [((1.0, 1e-6), []), ((1.0, 1e-3, 1e-7), []), ((1.0, 0.3, 0.003), [])],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_each_view_is_read_once_and_never_clipped(self, monkeypatch, spectrum, reads, seed):
        # no blocked pass over the rows: the unmapped view's maximum comes
        # with its raw stack, and every mapped view the probes read is
        # certified from its finest cached stack; no clip test
        got = []
        blocks = linalg.MappedRows.blocks
        monkeypatch.setattr(linalg.MappedRows, "blocks", lambda view: got.append(view.a is not None) or blocks(view))
        clips = []
        monkeypatch.setattr(naive, "clipped_second_moment", lambda *args: clips.append(args))
        precondition(samples(spectrum, seed), BUDGET, BETA, RandomSource(seed).child("precondition"))
        assert got == reads
        assert clips == []


class TestTwoByTwoEigensystems:
    def test_floor_d2_shaped_scan_never_calls_lapack_on_2x2(self, monkeypatch):
        # the coarse step's subsample stack, the eigenvalue estimates and the
        # single matrices of the maps and checks all take the 2 x 2 rotation
        lapack = {name: getattr(np.linalg, name) for name in ("eigh", "eigvalsh")}

        def guard(name):
            def call(a, *args, **kwargs):
                if np.shape(a)[-2:] == (2, 2):
                    raise AssertionError(f"np.linalg.{name} called on a 2 x 2 matrix")
                return lapack[name](a, *args, **kwargs)

            return call

        for name in lapack:
            monkeypatch.setattr(np.linalg, name, guard(name))
        trace = precondition(samples((1.0, 1e-6), 0), BUDGET, BETA, RandomSource(0).child("precondition"))
        assert [step.kind for step in trace.steps] == ["coarse"]


class TestCoarseStep:
    def test_closed_form(self):
        # A = gamma_hat P + (I - P) with P onto e1 maps diag(1, g^2) to g^2 I
        gamma_hat = 1e-3
        a = coarse_map(np.diag([1.0, 0.0]), gamma_hat)
        np.testing.assert_array_equal(a, np.diag([gamma_hat, 1.0]))
        mapped = a @ np.diag([1.0, gamma_hat**2]) @ a
        np.testing.assert_allclose(mapped, gamma_hat**2 * np.eye(2), rtol=1e-12)

    def test_no_gap_is_identity(self):
        a = coarse_map(np.diag([1.0, 0.0, 0.0]), 1.0)
        np.testing.assert_array_equal(a, np.eye(3))


class TestFineStep:
    def test_closed_form(self):
        # Z = Q diag(1, 1e-2) Q^T, k = 1: the pivot is 1e-2, the cutoff
        # 1e-2 / (16 gbar^2) keeps only the top direction, whose scale is
        # 1 / (4 gbar sqrt(1 / 1e-2))
        gamma_bar = math.sqrt(GAMMA_BAR_SQ)
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((2, 2)))
        z = (q * [1.0, 1e-2]) @ q.T
        a = fine_map(z, 1, noise_level=0.0)
        top = 1.0 / (4.0 * gamma_bar * math.sqrt(1.0 / 1e-2))
        np.testing.assert_allclose(a, (q * [top, 1.0]) @ q.T, atol=1e-12)
        lam = np.linalg.eigvalsh(a @ z @ a)
        np.testing.assert_allclose(sorted(lam), sorted([top**2, 1e-2]), rtol=1e-9)

    def test_pivot_floored_at_probe_noise(self, monkeypatch):
        # the eigenvalue release steers a fine step, and the probe reports
        # lambda_2 = -1.7e-21, the rounding zero of rank-one rows: the scan
        # floors the pivot at the fine probe's noise level sigma sqrt(d),
        # which keeps the top direction's scale finite (a pivot of 0 raises)
        gamma_bar = math.sqrt(GAMMA_BAR_SQ)
        stub_releases(monkeypatch, np.array([1.0, 1e-2]), probe=np.array([1.0, -1.7e-21]))
        n = min_samples(2, BUDGET, BETA)
        trace = precondition(np.zeros((n, 2)), BUDGET, BETA, RandomSource(0).child("precondition"))
        assert [step.kind for step in trace.steps] == ["fine"]
        # the probe's top eigenvalue 1 is the fine step's kappa
        per_call = plan_shares(BUDGET, max_calls(2)).per_call
        pivot = naive_config(n, 2, 1.0, per_call, BETA / 2).sigma * math.sqrt(2)
        top = 1.0 / (4.0 * gamma_bar * math.sqrt(1.0 / pivot))
        np.testing.assert_allclose(np.linalg.eigvalsh(trace.final_map), [top, 1.0], rtol=1e-12)

    def test_non_positive_pivot_raises(self):
        with pytest.raises(DegenerateSpectrum):
            fine_map(np.diag([1.0, 0.0]), 1, noise_level=0.0)
