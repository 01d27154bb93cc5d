"""The library surface the benchmark in ``bench/`` reads.

Imports ``bench/tracer.py`` and ``bench/workloads.py`` (never ``run.py``,
which parses arguments and times whole runs) and checks that every name the
tracer wraps still exists, that one traced estimate fills a ledger within
the benchmark's budget, that the tracer puts the library back, that no
two releases of one estimate share a noise stream, that every noise draw
is charged to the benchmark's ledger, that every Gaussian and Laplace
draw has the scale its charge pays for, and that no clip decision of one
estimate reads its rows.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from privgauss import linalg  # noqa: E402
from privgauss.dp_core import Accountant, RandomSource, gaussian_sigma  # noqa: E402
from test_precondition import assert_calls_within_reserve  # noqa: E402


def test_every_binding_resolves():
    for owner, attr, _, _ in tracer.BINDINGS:
        assert callable(owner.__dict__.get(attr)), f"{owner.__name__}.{attr}"


def test_traced_estimate_within_budget_and_restored():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in tracer.BINDINGS]
    w = workloads.WORKLOADS["floor-d2"]
    n = w.sizes()[0]
    raw, _ = workloads.draw_rows(0, w.tag, 0, n, w.lam)
    acc = Accountant()
    t = tracer.Tracer()
    t.install()
    try:
        sigma_hat = workloads.estimate_covariance(raw, 0, acc)
    finally:
        t.uninstall()
    assert np.all(np.isfinite(sigma_hat))
    eps, delta = acc.total()
    assert eps <= workloads.BUDGET.epsilon
    assert delta <= workloads.BUDGET.delta
    assert t.totals()["precondition.calls"] == 1
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original


def test_published_floor_layout_never_raises():
    assert workloads.layout_raises() == 0


@pytest.mark.parametrize("name, step", [("floor-d2", "/coarse/"), ("fine-d3", "/fine/")])
def test_ledger_labels_are_unique(name, step):
    # each release is charged under the path of the stream it draws from,
    # so a repeated label would mean two releases share their noise; the
    # workload's distribution at its published floor takes its usual step
    w = workloads.WORKLOADS[name]
    raw, _ = workloads.draw_rows(0, w.tag, 0, workloads.floor_rows(w.d), w.lam)
    acc = Accountant()
    workloads.estimate_covariance(raw, 0, acc)
    labels = [e.label for e in acc.entries]
    assert len(set(labels)) == len(labels)
    assert any(step in label for label in labels)


@pytest.mark.parametrize("name", ["floor-d2", "fine-d3"])
def test_no_probe_reads_its_rows(name, monkeypatch):
    # at the published floor, the certificates from the cached Gram stacks
    # settle every clip decision of one composed estimate, so no view
    # sweeps its rows and no clip test runs
    w = workloads.WORKLOADS[name]
    raw, _ = workloads.draw_rows(0, w.tag, 0, workloads.floor_rows(w.d), w.lam)
    reads = []
    blocks = linalg.MappedRows.blocks
    monkeypatch.setattr(linalg.MappedRows, "blocks", lambda view: reads.append(view.shape) or blocks(view))
    workloads.estimate_covariance(raw, 0, Accountant())
    assert reads == []


@pytest.mark.parametrize("name", ["floor-d2", "fine-d3"])
def test_each_preconditioner_call_spends_at_most_its_share(name):
    # the preconditioner gets the estimator's half budget, and each call of
    # its scan charges at most an equal share of it over max_calls(d)
    w = workloads.WORKLOADS[name]
    raw, _ = workloads.draw_rows(0, w.tag, 0, workloads.floor_rows(w.d), w.lam)
    acc = Accountant()
    workloads.estimate_covariance(raw, 0, acc)
    scan = Accountant([e for e in acc.entries if e.label.startswith("precondition/")])
    assert scan.entries
    assert_calls_within_reserve(scan, w.d, workloads.HALF)


@pytest.mark.parametrize("name", ["floor-d2", "fine-d3"])
def test_every_noise_draw_is_charged(name, monkeypatch):
    # a release charges before it draws, so every Gaussian or Laplace draw
    # comes from a stream whose name is already in the benchmark's ledger;
    # reference points and bin offsets are public standard_normal and
    # uniform draws, and exempt
    w = workloads.WORKLOADS[name]
    raw, _ = workloads.draw_rows(0, w.tag, 0, workloads.floor_rows(w.d), w.lam)
    acc = Accountant()
    draws, uncharged = [], []
    for method in ("normal", "laplace"):

        def draw(self, *args, _original=getattr(RandomSource, method), **kwargs):
            draws.append(self.name)
            if self.name not in {e.label for e in acc.entries}:
                uncharged.append(self.name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(RandomSource, method, draw)
    workloads.estimate_covariance(raw, 0, acc)
    assert draws
    assert uncharged == []


@pytest.mark.parametrize(
    "name",
    [
        "fine-d3",
        # the subspace sums draw noise sized for the mean of t points while
        # their charge pays for the sum (sensitivity 2 trunc_radius)
        pytest.param("floor-d2", marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1")),
    ],
)
def test_every_gaussian_draw_has_its_charged_scale(name, monkeypatch):
    # a Gaussian release's noise scale is gaussian_sigma of the sensitivity
    # and budget charged under its stream's name; a smaller scale would
    # release more than the ledger records
    w = workloads.WORKLOADS[name]
    raw, _ = workloads.draw_rows(0, w.tag, 0, workloads.floor_rows(w.d), w.lam)
    acc = Accountant()
    draws = []
    normal = RandomSource.normal

    def draw(self, scale=1.0, size=None):
        draws.append((self.name, scale))
        return normal(self, scale=scale, size=size)

    monkeypatch.setattr(RandomSource, "normal", draw)
    workloads.estimate_covariance(raw, 0, acc)
    charged = {
        e.label: gaussian_sigma(e.sensitivity, e.budget)
        for e in acc.entries
        if e.mechanism == "gaussian"
    }
    assert draws
    wrong = [
        (label, scale, charged[label])
        for label, scale in draws
        if scale != pytest.approx(charged[label], rel=1e-12)
    ]
    assert wrong == []


@pytest.mark.parametrize("name", ["floor-d2", "fine-d3"])
def test_every_laplace_draw_has_its_charged_scale(name, monkeypatch):
    # a stable histogram's Laplace scale is the L1 sensitivity over epsilon
    # of the charge under its stream's name
    w = workloads.WORKLOADS[name]
    raw, _ = workloads.draw_rows(0, w.tag, 0, workloads.floor_rows(w.d), w.lam)
    acc = Accountant()
    draws = []
    laplace = RandomSource.laplace

    def draw(self, scale, size=None):
        draws.append((self.name, scale))
        return laplace(self, scale, size=size)

    monkeypatch.setattr(RandomSource, "laplace", draw)
    workloads.estimate_covariance(raw, 0, acc)
    charged = {
        e.label: e.sensitivity / e.budget.epsilon for e in acc.entries if e.mechanism == "stable_histogram"
    }
    assert draws
    assert [(label, scale, charged[label]) for label, scale in draws if scale != charged[label]] == []


@pytest.mark.parametrize("name", ["floor-d2", "fine-d3"])
def test_every_gaussian_release_is_in_the_calibrations_range(name):
    # gaussian_sigma's calibration is proved for eps < 1 only; each
    # workload's Gaussian releases stay there (the largest is the final
    # naive estimate's noise, at a quarter of the budget)
    w = workloads.WORKLOADS[name]
    raw, _ = workloads.draw_rows(0, w.tag, 0, workloads.floor_rows(w.d), w.lam)
    acc = Accountant()
    workloads.estimate_covariance(raw, 0, acc)
    gaussian = [e for e in acc.entries if e.mechanism == "gaussian"]
    assert gaussian
    assert [(e.label, e.budget.epsilon) for e in gaussian if not e.budget.epsilon < 1.0] == []
