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
from .dp_core import BucketScheme, PrivacyBudget, RandomSource, plan_shares, stable_counts, stable_release_threshold
from .errors import BottomReleased, InsufficientSamples, InvalidArgument

BUCKET_RATIO = 2.0 ** 0.25
# Subsample count scale: t ~ C1 log(d / (delta beta)) / eps_hist.
C1 = 8.0
# A filled bucket holds >= t / 2 of the subsample values when they
# concentrate in two adjacent buckets; require that to clear the release
# threshold with margin.
T_RELEASE_MARGIN = 4.0
# m >= MIN_ROWS_PER_DIM * d rows per subsample.
MIN_ROWS_PER_DIM = 4
# Empirical eigenvalues below this times the chunk's top eigenvalue are
# floating-point zeros of rank-deficient data; clamp them so they land in
# the [0, 0] bucket.
ZERO_CLAMP = 1e-12

_SCHEME = BucketScheme("geometric", BUCKET_RATIO)


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
    t_release = math.ceil(T_RELEASE_MARGIN * stable_release_threshold(per_index))
    return max(t_accuracy, t_release, 8)


def min_samples(d, budget, beta):
    return subsample_count(d, budget, beta) * MIN_ROWS_PER_DIM * d


def estimate_eigenvalues(x, budget, beta, rng: RandomSource, accountant=None, label="eigenvalues"):
    """Estimate all d eigenvalues of the data covariance under (eps, delta)-DP.

    The rows of ``x`` are assumed centered (pair-differenced upstream); each
    subsample uses the raw second-moment matrix X^T X / m.  Raises
    BottomReleased if any index's histogram releases nothing, and
    InsufficientSamples when the subsample layout cannot be formed.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise InvalidArgument(f"expected an (n, d) sample matrix, got shape {x.shape}")
    if not 0.0 < beta < 1.0:
        raise InvalidArgument(f"beta must lie in (0, 1), got {beta}")
    n, d = x.shape
    t = subsample_count(d, budget, beta)
    m = n // t
    if m < MIN_ROWS_PER_DIM * d:
        raise InsufficientSamples(
            f"need n >= {min_samples(d, budget, beta)} for d={d} at this budget, got {n}"
        )
    per_index = plan_shares(budget, d).per_call

    seconds = linalg.gram_stack(x, t, m) / m
    vals, _ = linalg.sym_eig_batch(seconds, vectors=False)
    vals = np.maximum(vals, 0.0)
    top = vals[:, :1]
    vals[vals < ZERO_CLAMP * top] = 0.0

    released_edges = np.empty(d)
    for i in range(d):
        keys = _SCHEME.keys(vals[:, i])
        counts = {}
        for k in keys:
            counts[k] = counts.get(k, 0) + 1
        if accountant is not None:
            accountant.charge(f"{label}/index{i}", per_index, mechanism="stable_histogram", sensitivity=1.0)
        noisy = stable_counts(counts, per_index, rng.child("hist", i))
        if not noisy:
            raise BottomReleased(f"no bucket released for eigenvalue index {i}")
        # largest noisy count wins; ties go to the larger lower edge, so scan
        # keys in increasing-edge order and keep >=
        best_key = None
        best_count = -math.inf
        for key in sorted(noisy, key=lambda k: (k is not None, k)):
            if noisy[key] >= best_count:
                best_key, best_count = key, noisy[key]
        released_edges[i] = _SCHEME.bounds(best_key)[0]

    order = np.argsort(-released_edges, kind="stable")
    return EigenvalueEstimate(values=released_edges[order], subsample_count=t)
