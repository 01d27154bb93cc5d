"""Exact properties of the composed estimator on each benchmark workload's
floor dataset (draw 0 at ``workloads.floor_rows``), at estimator seed 0.

* No single row makes a run raise: each stage takes a row of NaN, inf or
  huge finite values as its docstring states, so raise versus return, which
  an observer sees, never depends on one row.
* No prior bounds: scaling the rows by 2^k is exact in floating point, and
  an estimator with no hidden absolute constant returns exactly 4^k times
  its estimate, drawing the same releases at the same budgets.

Outlier runs ignore the RuntimeWarnings that ``workloads`` itself raises on
non-finite rows (the pair differences and ``y @ a``); a warning from the
package still fails the test.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402
from privgauss.dp_core import Accountant  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)
# whole rows set to these; NaN and inf also in one coordinate
OUTLIERS = [1e154, 1e155, -1e155, 1.7e308, -1.7e308, math.nan, math.inf, -math.inf]
CASES = [pytest.param(value, slice(None), id=f"row-{value}") for value in OUTLIERS] + [
    pytest.param(value, 0, id=f"coord-{value}") for value in (math.nan, math.inf)
]


@pytest.fixture(scope="module")
def floor():
    """name -> (raw rows, read-only, and (Sigma_hat, ledger) at seed 0),
    each drawn and estimated on first use."""
    cache = {}

    def get(name):
        if name not in cache:
            w = workloads.WORKLOADS[name]
            raw, _ = workloads.draw_rows(0, w.tag, 0, workloads.floor_rows(w.d), w.lam)
            raw.flags.writeable = False
            cache[name] = raw, estimate(raw)
        return cache[name]

    return get


def estimate(raw):
    ledger = Accountant()
    return workloads.estimate_covariance(raw, 0, ledger), ledger


def assert_returns_within_budget(raw):
    sigma_hat, ledger = estimate(raw)
    assert np.isfinite(sigma_hat).all()
    eps, delta = ledger.total()
    assert eps <= workloads.BUDGET.epsilon and delta <= workloads.BUDGET.delta


@pytest.mark.filterwarnings("ignore::RuntimeWarning:workloads")
@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("value, cols", CASES)
def test_no_single_row_makes_a_run_raise(floor, name, value, cols):
    # the middle row: in a subsample, and past the first block of every
    # blocked pass over the rows
    raw = floor(name)[0].copy()
    raw[len(raw) // 2, cols] = value
    assert_returns_within_budget(raw)


@pytest.mark.filterwarnings("ignore::RuntimeWarning:workloads")
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_one_row_of_any_floats_never_makes_a_run_raise(floor, data):
    raw = floor("floor-d2")[0].copy()
    n, d = raw.shape
    row = data.draw(st.integers(0, n - 1), label="row")
    raw[row] = data.draw(st.lists(st.floats(), min_size=d, max_size=d), label="values")
    assert_returns_within_budget(raw)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("k", [-200, 200])
def test_scaling_rows_by_a_power_of_two_scales_the_estimate_exactly(floor, name, k):
    raw, (sigma_hat, ledger) = floor(name)
    scaled, scaled_ledger = estimate(np.ldexp(raw, k))
    assert np.array_equal(scaled, np.ldexp(sigma_hat, 2 * k))
    assert [(e.label, e.mechanism, e.budget) for e in scaled_ledger.entries] == [
        (e.label, e.mechanism, e.budget) for e in ledger.entries
    ]
