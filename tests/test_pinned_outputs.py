"""The composed estimator's outputs, pinned across commits.

For each benchmark workload, ``workloads.estimate_covariance`` runs at
estimator seed 0 on the workload's first draw at its sample floor.  The
ledger's labels, mechanisms and budgets are pinned exactly and its
sensitivities to a relative 1e-12; ``Sigma_hat`` is pinned to a relative
1e-9, which absorbs LAPACK rounding between hosts but not a change of
draw, branch or budget.  A change that moves these values on purpose
records the new ones here and says why.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402
from privgauss.dp_core import Accountant, PrivacyBudget  # noqa: E402

CORE = (0.0078125, 7.8125e-09)  # the coarse step's per-call share on floor-d2
EIG_D3 = (0.020833333333333332, 2.083333333333333e-08)
KAPPA_D3 = (0.08333333333333333, 8.333333333333333e-08)

PINNED = {
    "floor-d2": (
        317_280,
        [
            ("precondition/eig/0/hist/0", "stable_histogram", (0.0625, 6.25e-08), 2.0),
            ("precondition/eig/0/hist/1", "stable_histogram", (0.0625, 6.25e-08), 2.0),
            *[
                entry
                for i in range(4)
                for entry in (
                    (f"precondition/coarse/1/subspace/center/{i}/hist/0", "stable_histogram", CORE, 2.0),
                    (f"precondition/coarse/1/subspace/center/{i}/hist/1", "stable_histogram", CORE, 2.0),
                    (f"precondition/coarse/1/subspace/sum/{i}", "gaussian", (0.015625, 1.5625e-08), 0.2222007541974657),
                )
            ],
            ("precondition/naive_post/1/kappa/hist/0", "stable_histogram", (0.03125, 3.125e-08), 2.0),
            ("precondition/naive_post/1/kappa/hist/1", "stable_histogram", (0.03125, 3.125e-08), 2.0),
            ("precondition/naive_post/1/noise", "gaussian", (0.0625, 6.25e-08), 0.003757312105909563),
            ("naive/kappa/hist/0", "stable_histogram", (0.125, 1.25e-07), 2.0),
            ("naive/kappa/hist/1", "stable_histogram", (0.125, 1.25e-07), 2.0),
            ("naive/noise", "gaussian", (0.25, 2.5e-07), 0.003019692392687376),
        ],
        [
            [163577.63847698906, -360340.57624851697],
            [-360340.57624851697, 793790.05005151],
        ],
    ),
    "fine-d3": (
        3_119_160,
        [
            *[(f"precondition/eig/{s}/hist/{j}", "stable_histogram", EIG_D3, 2.0) for s in range(2) for j in range(3)],
            ("precondition/naive/1/noise", "gaussian", (0.0625, 6.25e-08), 498.09611029595726),
            ("precondition/fine/2/naive/noise", "gaussian", (0.0625, 6.25e-08), 141.63753028702638),
            *[(f"naive/kappa/hist/{j}", "stable_histogram", KAPPA_D3, 2.0) for j in range(3)],
            ("naive/noise", "gaussian", (0.25, 2.5e-07), 82.78136149747841),
        ],
        [
            [292792.4804973352, -37071.32043257633, 75076.88439481451],
            [-37071.32043257632, 876183.3637453951, -326233.2838871743],
            [75076.8843948145, -326233.2838871743, 138217.1574510253],
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_composed_estimate_is_pinned(name):
    rows, ledger, sigma_hat = PINNED[name]
    w = workloads.WORKLOADS[name]
    assert workloads.floor_rows(w.d) == rows
    raw, _ = workloads.draw_rows(0, w.tag, 0, rows, w.lam)
    acc = Accountant()
    out = workloads.estimate_covariance(raw, 0, acc)
    assert [(e.label, e.mechanism, e.budget) for e in acc.entries] == [
        (label, mechanism, PrivacyBudget(*budget)) for label, mechanism, budget, _ in ledger
    ]
    assert [e.sensitivity for e in acc.entries] == [pytest.approx(s, rel=1e-12) for *_, s in ledger]
    np.testing.assert_allclose(out, sigma_hat, rtol=1e-9, atol=0.0)
