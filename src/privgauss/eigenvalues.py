"""Private estimation of all covariance eigenvalues to within a factor of 2.

Subsample-and-aggregate: split the rows into t chunks, eigendecompose each
chunk's empirical second-moment matrix, and for each eigenvalue index run a
stability-based histogram over geometric buckets of ratio 2^{1/4} (plus the
distinguished [0, 0] bucket, which is what detects rank deficiency).
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
    heaviest,
    plan_shares,
    release_floor,
    stable_counts,
)
from .errors import InsufficientSamples, InvalidArgument

BUCKET_RATIO = 2.0 ** 0.25
# Subsample count scale: t ~ C1 log(d / (delta beta)) / eps_hist.
C1 = 8.0
# Empirical eigenvalues below this times the chunk's top eigenvalue are
# floating-point zeros of rank-deficient data; clamp them so they land in
# the [0, 0] bucket.
ZERO_CLAMP = 1e-12

_SCHEME = BucketScheme(BUCKET_RATIO)


@dataclass(frozen=True)
class EigenvalueEstimate:
    """Noisy eigenvalues sorted non-increasing, with the subsample count."""

    values: np.ndarray
    subsample_count: int


def subsample_count(d, budget: PrivacyBudget, beta):
    """Number of subsamples t: enough for the per-index histograms to
    release reliably at their budget share."""
    per_index = plan_shares(budget, d).per_call
    log_term = math.log(d / (budget.delta * beta))
    t_accuracy = math.ceil(C1 * log_term / per_index.epsilon)
    return max(t_accuracy, release_floor(budget, d), 8)


def min_samples(d, budget, beta):
    """Smallest n whose subsample layout estimate_eigenvalues accepts: t
    subsamples of m = linalg.MIN_ROWS_PER_DIM * d rows.

    It promises the layout only, not a release.  With so few rows per
    subsample each eigenvalue spreads over too many buckets for one to
    clear the release threshold: on standard-normal rows at this n,
    BottomReleased was raised in 17 of 18 cases (d = 2..4, three budgets,
    beta 0.05 and 0.1).
    """
    return subsample_count(d, budget, beta) * linalg.MIN_ROWS_PER_DIM * d


def estimate_eigenvalues(x, budget, beta, rng: RandomSource, accountant=None):
    """Estimate all d eigenvalues of the data covariance under (eps, delta)-DP.

    ``x`` is an (n, d) array or a ``linalg.MappedRows`` view, whose cached
    subsample Gram stack is mapped instead of the rows.  The rows are
    assumed centered (pair-differenced upstream); each subsample uses the
    raw second-moment matrix X^T X / m.  Raises BottomReleased if any
    index's histogram releases nothing, and InsufficientSamples when the
    subsample layout cannot be formed.
    """
    rows = linalg.MappedRows.of(x)
    if not 0.0 < beta < 1.0:
        raise InvalidArgument(f"beta must lie in (0, 1), got {beta}")
    n, d = rows.shape
    t = subsample_count(d, budget, beta)
    m = n // t
    if m < linalg.MIN_ROWS_PER_DIM * d:
        raise InsufficientSamples(
            f"need n >= {min_samples(d, budget, beta)} for d={d} at this budget, got {n}"
        )
    per_index = plan_shares(budget, d).per_call

    seconds = rows.gram_stack(t, m) / m
    vals, _ = linalg.sym_eig_batch(seconds, vectors=False)
    vals = np.maximum(vals, 0.0)
    top = vals[:, :1]
    vals[vals < ZERO_CLAMP * top] = 0.0

    released_edges = np.empty(d)
    for i in range(d):
        counts = bucket_counts(_SCHEME.keys(vals[:, i]))
        noisy = stable_counts(counts, per_index, rng.child("hist", i), accountant)
        best = heaviest(noisy, f"no bucket released for eigenvalue index {i}")
        released_edges[i] = _SCHEME.bounds(best)[0]

    order = np.argsort(-released_edges, kind="stable")
    return EigenvalueEstimate(values=released_edges[order], subsample_count=t)
