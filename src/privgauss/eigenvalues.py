"""Private estimation of all covariance eigenvalues to within a factor of 2.

Subsample-and-aggregate: split the rows into t chunks, eigendecompose each
chunk's empirical second-moment matrix, and for each eigenvalue index run a
stability-based histogram over quarter-octave buckets [2^{k/4}, 2^{(k+1)/4})
(``dp_core.BucketScheme``, plus the distinguished [0, 0] bucket, which is
what detects rank deficiency).  Each index releases the lower edge of its
heaviest bucket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .dp_core import (
    BucketScheme,
    PrivacyBudget,
    RandomSource,
    bucket_counts,
    check_beta,
    heaviest,
    plan_shares,
    release_floor,
    stable_counts,
)
from .errors import InsufficientSamples

# Subsample count scale: t ~ C1 log(d / (delta beta)) / eps_hist.
C1 = 8.0
# Empirical eigenvalues below this times the chunk's top eigenvalue are
# floating-point zeros of rank-deficient data; clamp them so they land in
# the [0, 0] bucket.
ZERO_CLAMP = 1e-12

_SCHEME = BucketScheme()


@dataclass(frozen=True)
class EigenvalueEstimate:
    """Noisy eigenvalues sorted non-increasing, with the subsample count."""

    values: np.ndarray
    subsample_count: int


def _layout(d, budget: PrivacyBudget, beta):
    """(per_index, t, floor): the budget's split over the d per-index
    histograms, the subsample count t, enough for each histogram to release
    reliably at its share, and ``min_samples``, t subsamples of
    m = linalg.MIN_ROWS_PER_DIM * d rows."""
    check_beta(beta)
    per_index = plan_shares(budget, d).per_call
    log_term = math.log(d / (budget.delta * beta))
    t_accuracy = math.ceil(C1 * log_term / per_index.epsilon)
    t = max(t_accuracy, release_floor(per_index), 8)
    return per_index, t, t * linalg.MIN_ROWS_PER_DIM * d


def min_samples(d, budget, beta):
    """Smallest n estimate_eigenvalues accepts, the one gate it compares n
    with (both read it from ``_layout``): t subsamples of
    m = linalg.MIN_ROWS_PER_DIM * d rows.

    It promises the layout only, not a release.  With so few rows per
    subsample each eigenvalue spreads over too many buckets for one to
    clear the release threshold: on standard-normal rows at this n,
    BottomReleased was raised in 17 of 18 cases (d = 2..4, three budgets,
    beta 0.05 and 0.1).
    """
    return _layout(d, budget, beta)[2]


def estimate_eigenvalues(x, budget, beta, rng: RandomSource):
    """Estimate all d eigenvalues of the data covariance under (eps, delta)-DP.

    ``x`` is an (n, d) array or a ``linalg.MappedRows`` view, whose cached
    subsample Gram stack is mapped instead of the rows; the view keeps the
    subsamples' eigenvalues, so a second estimate on it decomposes nothing.
    The rows are assumed centered (pair-differenced upstream); each
    subsample uses the raw second-moment matrix X^T X / m.

    The rows may hold any float64 values, NaN and inf included.  A
    subsample whose Gram matrix has a non-finite entry is the zero matrix
    (``linalg.MappedRows.gram_stack``), so its every eigenvalue votes for
    the zero bucket: one row, whatever it holds, still moves one vote per
    index.

    Raises BottomReleased if any index's histogram releases nothing,
    naming the index, the layout, the histogram's share and its release
    threshold, and InsufficientSamples exactly when n < min_samples.
    """
    rows = linalg.MappedRows.of(x)
    n, d = rows.shape
    per_index, t, floor = _layout(d, budget, beta)
    if n < floor:
        raise InsufficientSamples(f"need n >= {floor} for d={d} at this budget, got {n}")
    m = n // t

    vals = np.maximum(rows.subsample_eigenvalues(t, m), 0.0)
    top = vals[:, :1]
    vals[vals < ZERO_CLAMP * top] = 0.0

    released_edges = np.empty(d)
    for i in range(d):
        counts = bucket_counts(_SCHEME.keys(vals[:, i]))
        noisy = stable_counts(counts, per_index, rng.child("hist", i))
        best = heaviest(noisy, per_index, f"no bucket released for eigenvalue index {i}: {t} subsamples of {m} rows")
        released_edges[i] = _SCHEME.bounds(best)[0]

    order = np.argsort(-released_edges, kind="stable")
    return EigenvalueEstimate(values=released_edges[order], subsample_count=t)
