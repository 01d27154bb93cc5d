"""Clipped, noised, PSD-projected covariance estimator for known-scale data.

Rows with squared norm above a spectral-bound-driven threshold are dropped,
the remaining second-moment matrix gets symmetric Gaussian (GUE) noise
calibrated to the clipped sensitivity, and the result is projected onto the
PSD cone.  Used standalone on preconditioned data and as the probe inside
the fine preconditioner, where the rows are a ``linalg.MappedRows`` view:
the statistic is mapped, not the rows.  The clip is decided on the view's
mapped row norms, ``linalg.sq_norms`` of each row, which
``linalg.MappedRows.sq_norm_bound`` bounds without reading the rows; they
are read block by block from ``MappedRows.blocks`` only when that bound
exceeds the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import eigenvalues, linalg
from .dp_core import PrivacyBudget, RandomSource, check_beta, gaussian_sigma, gue_mechanism, plan_shares
from .errors import InsufficientSamples, InvalidArgument
from .eigenvalues import estimate_eigenvalues

# clip_threshold = CLIP_SCALE * d * kappa2 * ln(n / beta).  The noise scale
# follows exactly from the Gaussian mechanism at sensitivity 2 clip / n, so
# sigma = 2 * CLIP_SCALE * d * kappa2 * ln(n/beta) * sqrt(2 ln(2/delta)) / (n eps).
CLIP_SCALE = 1.0
# kappa2 <- KAPPA_FACTOR * (estimated top eigenvalue)
KAPPA_FACTOR = 4.0


@dataclass(frozen=True)
class NaiveConfig:
    clip_threshold: float
    sensitivity: float  # 2 clip_threshold / n, the Frobenius sensitivity
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

    The norm test reads the mapped rows from ``linalg.MappedRows.blocks``,
    in whatever blocks it hands out, into one preallocated mask, so the
    (n, d) mapped array is never formed; the kept raw rows are gathered and
    their moment is mapped after.  A row's norm is ``linalg.sq_norms``,
    which depends on the row alone, so unmapped the result is bit-identical
    to a one-shot norm test and gather of the kept rows on every input, in
    every layout.  Mapped, each block is the BLAS product ``block @ a``,
    whose rounding can depend on ``x``'s layout: reordering ``x`` first can
    flip a mapped row lying exactly on the threshold.  ``x`` must be the
    raw rows, not a view: a view's map would be lost.
    """
    if isinstance(x, linalg.MappedRows):
        raise InvalidArgument("expected raw rows and a map, got a MappedRows view")
    x = linalg.MappedRows.of(x).x
    n = x.shape[0]
    keep = np.empty(n, dtype=bool)
    start = 0
    for block in linalg.MappedRows(x, a).blocks():
        np.less_equal(linalg.sq_norms(block), threshold, out=keep[start : start + len(block)])
        start += len(block)
    return linalg.MappedRows(x[keep], a).moment() / n, n - int(np.count_nonzero(keep))


def naive_config(n, d, kappa2, budget: PrivacyBudget, beta) -> NaiveConfig:
    clip = clip_threshold(d, kappa2, n, beta)
    sensitivity = 2.0 * clip / n
    sigma = gaussian_sigma(sensitivity, budget) if clip > 0.0 else 0.0
    return NaiveConfig(clip_threshold=clip, sensitivity=sensitivity, sigma=sigma)


def _layout(d, budget: PrivacyBudget, beta):
    """(half, floor): the share of ``budget`` that naive_estimate without
    ``kappa2`` spends on each of kappa2 and the noise, and ``min_samples``,
    2d or the floor of the eigenvalue estimate at that share, whichever is
    larger."""
    half = plan_shares(budget, 2).per_call
    return half, max(2 * d, eigenvalues.min_samples(d, half, beta))


def min_samples(d, budget, beta):
    """Smallest n naive_estimate accepts without ``kappa2`` (see
    ``_layout``).  Like ``eigenvalues.min_samples``, it promises the
    layout, not a release."""
    return _layout(d, budget, beta)[1]


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
    times the top estimate.  Every release is charged to ``rng``'s ledger;
    given ``accountant``, the call draws from a root at ``rng``'s seed and
    path on that ledger instead, the same noise charged there alone.

    Privacy: a row is kept iff its mapped squared norm is at most the clip
    threshold.  "No row is clipped" is first tried on the view's
    ``sq_norm_bound``, which is at least every row's value in the clip
    test.  Unmapped, it is ``linalg.sq_norms`` of the row M of the columns'
    absolute maxima, cached by the first Gram stack: |x_rj| <= M_j, and
    correctly rounded * and + are monotone, so the clip test's value for
    each row is at most the bound, with no margin, and a NaN or inf entry
    leaves a bound that settles nothing.  Mapped, it is a bound from the
    finest cached Gram stack, which covers every row, that
    ``linalg.sq_norm_bounds`` proves whatever the rounding of
    ``block @ a``, reading no row.  If the bound is above the threshold,
    the view's ``max_sq_norm`` decides exactly: it is the largest
    ``linalg.sq_norms`` value of the very rows the clip test of
    ``clipped_second_moment`` reads, a mapped view's over the same blocks.
    When either holds, the exact test would keep every row, so the
    statistic is the view's second moment a^T (X^T X) a / n, with X^T X the
    sum of the view's first cached Gram stack (one product of the rows when
    none is cached), and otherwise the clip test runs.  Either way the
    released statistic is the mean of the kept mapped rows' outer products
    up to summation order (see ``linalg.MappedRows``), and its sensitivity
    is 2 threshold / n with no margin to justify.
    """
    rows = linalg.MappedRows.of(x)
    if accountant is not None:
        rng = RandomSource(rng.seed, accountant, rng.path)
    check_beta(beta)
    n, d = rows.shape
    if n < 2 * d:
        raise InsufficientSamples(f"need n >= {2 * d}, got {n}")

    if kappa2 is None:
        kappa_budget = noise_budget = _layout(d, budget, beta)[0]
        est = estimate_eigenvalues(rows, kappa_budget, beta, rng.child("kappa"))
        kappa2 = KAPPA_FACTOR * float(est.values[0])
    else:
        noise_budget = budget
        if not (math.isfinite(kappa2) and kappa2 >= 0.0):
            raise InvalidArgument(f"kappa2 must be non-negative, got {kappa2}")

    if kappa2 == 0.0:
        # all mass at zero: the zero matrix is a data-independent release
        return np.zeros((d, d))

    config = naive_config(n, d, kappa2, noise_budget, beta)
    threshold = config.clip_threshold
    if rows.sq_norm_bound() <= threshold or rows.max_sq_norm() <= threshold:
        moment = rows.moment() / n
    else:
        moment, _ = clipped_second_moment(rows.x, threshold, rows.a)
    return linalg.psd_project(gue_mechanism(moment, config.sensitivity, noise_budget, rng.child("noise")))
