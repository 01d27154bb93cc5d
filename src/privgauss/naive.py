"""Clipped, noised, PSD-projected covariance estimator for known-scale data.

Rows with squared norm above a spectral-bound-driven threshold are dropped,
the remaining second-moment matrix gets symmetric Gaussian (GUE) noise
calibrated to the clipped sensitivity, and the result is projected onto the
PSD cone.  Used standalone on preconditioned data and as the probe inside
the fine preconditioner, where the rows are a ``linalg.MappedRows`` view:
the statistic is mapped, not the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .dp_core import PrivacyBudget, RandomSource, gaussian_sigma, gue_mechanism, plan_shares
from .errors import InsufficientSamples, InvalidArgument
from .eigenvalues import estimate_eigenvalues

# clip_threshold = CLIP_SCALE * d * kappa2 * ln(n / beta).  The noise scale
# follows exactly from the Gaussian mechanism at sensitivity 2 clip / n, so
# sigma = 2 * CLIP_SCALE * d * kappa2 * ln(n/beta) * sqrt(2 ln(2/delta)) / (n eps).
CLIP_SCALE = 1.0
# kappa2 <- KAPPA_FACTOR * (estimated top eigenvalue)
KAPPA_FACTOR = 4.0
# Rows per block of the clip's norm test; bounds its temporaries.
CLIP_BLOCK_ROWS = linalg.BLOCK_ROWS
# Relative slack of the no-clip bound ||a||_2^2 max ||x_i||^2 <= threshold.
# It covers the rounding of ||a||_2, of the squared norms and of the mapped
# rows in the exact test: each is a few times d ulps, under 1e-12 for every
# d <= linalg.MAX_DIM.
BOUND_MARGIN = 1e-9


@dataclass(frozen=True)
class NaiveConfig:
    kappa2: float
    clip_threshold: float
    sigma: float


def clip_threshold(d, kappa2, n, beta):
    return CLIP_SCALE * d * kappa2 * math.log(n / beta)


def clipped_second_moment(x, threshold, a=None):
    """Pre-noise statistic: (1/n) sum of y_i y_i^T over the mapped rows
    y_i = x_i a (``a`` None is the identity) whose squared norm passes the
    clip.

    Returns the moment and the number of rows dropped.  Swapping one row
    moves the moment by at most 2 * threshold / n in Frobenius norm, which
    is the sensitivity the noise is calibrated to.  Re-running on
    already-passing rows is a no-op.

    The norm test runs over blocks of CLIP_BLOCK_ROWS rows into one
    preallocated mask, each block mapped by ``a`` on its own, so the (n, d)
    mapped array is never formed; the kept raw rows' moment is mapped after.
    The test reads ``x`` in its own layout: reordering ``x`` first can change
    the summation order and flip a row lying exactly on the threshold.  When
    no row is dropped the product runs on ``x`` itself (a C-ordered copy only
    if ``x`` is not C-ordered), so the common case allocates no full-size
    temporary but the mask.  Unmapped, the result is bit-identical to a
    one-shot norm test and gather of the kept rows on every input: the
    product sees the same values in the same layout.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    keep = np.empty(n, dtype=bool)
    for start in range(0, n, CLIP_BLOCK_ROWS):
        stop = start + CLIP_BLOCK_ROWS
        block = x[start:stop] if a is None else x[start:stop] @ a
        np.less_equal(np.einsum("ij,ij->i", block, block), threshold, out=keep[start:stop])
    dropped = n - int(np.count_nonzero(keep))
    kept = np.ascontiguousarray(x) if dropped == 0 else x[keep]
    return linalg.MappedRows(kept, a).moment() / n, dropped


def naive_config(n, d, kappa2, budget: PrivacyBudget, beta) -> NaiveConfig:
    clip = clip_threshold(d, kappa2, n, beta)
    sigma = gaussian_sigma(2.0 * clip / n, budget) if clip > 0.0 else 0.0
    return NaiveConfig(kappa2=kappa2, clip_threshold=clip, sigma=sigma)


def naive_estimate(
    x,
    budget: PrivacyBudget,
    beta,
    rng: RandomSource,
    kappa2=None,
    accountant=None,
):
    """(eps, delta)-DP PSD estimate of the second-moment matrix of ``x``,
    an (n, d) array or a ``linalg.MappedRows`` view of rows x_i a.

    If ``kappa2`` (a spectral upper bound) is not supplied, half the budget
    is spent estimating eigenvalues privately and kappa2 is set to four
    times the top estimate.

    When ||a||_2^2 max_i ||x_i||^2 (1 + BOUND_MARGIN) <= threshold, no row
    can be clipped, in exact or in floating-point arithmetic, so the
    statistic is a^T (X^T X) a / n from the view's cached second moment and
    no pass over the rows is made; otherwise the exact blocked test of
    ``clipped_second_moment`` runs.  Privacy: each clip decision is exactly
    the one the test on the materialized rows x @ a makes, so the kept set
    and the 2 threshold / n sensitivity are unchanged.  The statistic equals
    the mean of the kept mapped rows' outer products in exact arithmetic;
    only its floating-point rounding differs (see ``linalg.MappedRows``).
    """
    rows = linalg.MappedRows.of(x)
    if not 0.0 < beta < 1.0:
        raise InvalidArgument(f"beta must lie in (0, 1), got {beta}")
    n, d = rows.shape
    if n < 2 * d:
        raise InsufficientSamples(f"need n >= {2 * d}, got {n}")

    if kappa2 is None:
        kappa_budget = noise_budget = plan_shares(budget, 2).per_call
        est = estimate_eigenvalues(rows, kappa_budget, beta, rng.child("kappa"), accountant=accountant)
        kappa2 = KAPPA_FACTOR * float(est.values[0])
    else:
        noise_budget = budget
        if not (math.isfinite(kappa2) and kappa2 >= 0.0):
            raise InvalidArgument(f"kappa2 must be non-negative, got {kappa2}")

    if kappa2 == 0.0:
        # all mass at zero: the zero matrix is a data-independent release
        return np.zeros((d, d))

    config = naive_config(n, d, kappa2, noise_budget, beta)
    if rows.norm_bound() * (1.0 + BOUND_MARGIN) <= config.clip_threshold:
        moment = rows.moment() / n
    else:
        moment, _ = clipped_second_moment(rows.x, config.clip_threshold, rows.a)
    sensitivity = 2.0 * config.clip_threshold / n
    return linalg.psd_project(gue_mechanism(moment, sensitivity, noise_budget, rng.child("noise"), accountant))
