"""Private preconditioning: make the data covariance O(1)-conditioned with
no prior bound on its spectrum.

The scan walks the eigenvalue indexes once and, where the privately
estimated ratios call for it, takes a step.  Each step is one DP release
paired with a pure map of the released matrix, both written in the scan:

* coarse step -- under a large consecutive eigengap at index k, the release
  is the privately recovered top-k projector and ``coarse_map`` rescales
  that subspace by the estimated gap ratio, which crushes the gap;
* fine step -- under a bounded cumulative gap, the release is a naive probe
  of the covariance clipped at a scale kappa and ``fine_map`` rescales each
  large eigendirection individually; kappa is read from an earlier probe,
  which the scan releases only when a fine step fires.

The maps read no rows, so they are post-processing, and a step costs
exactly its release's budget.

The accumulated map is kept symmetric positive definite by replacing the
raw step product A with its SPD polar factor (A^T A)^{1/2}, which preserves
the spectrum of A Sigma A^T exactly.

The mapped rows x @ A are never formed.  The Gram statistics the steps
read -- subsample Gram stacks, the full second moment -- are quadratic in
the rows, so the scan holds one ``linalg.MappedRows`` view of the raw rows:
each stack is computed once from them, the second moment is a cached
stack's sum, and each is mapped as A^T (statistic) A at every later step.
The clip test's row norms are not quadratic, so ``MappedRows.sq_norm_bound``
bounds them from the cached statistics, and a view's rows are read block by
block, once per map, only when its bound does not settle the clip.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass, field

import numpy as np

from . import eigenvalues, linalg, naive, subspace
from .dp_core import PrivacyBudget, RandomSource, check_beta, plan_shares
from .eigenvalues import estimate_eigenvalues
from .errors import DegenerateSpectrum, PrivGaussError
from .naive import KAPPA_FACTOR, naive_config, naive_estimate

# Gap thresholds of the scanning loop.
TAU_SQ = 1.0 / 10000.0
GAMMA_BAR_SQ = 40.0 / 10000.0
# Fine step keeps directions with lambda_i(Z) >= lambda_{k+1}(Z) / (S_DIV gbar^2).
FINE_S_DIVISOR = 16.0


@dataclass(frozen=True)
class PreconditionStep:
    iteration: int
    kind: str  # "coarse" | "fine" | "coarse+fine" | "skip"
    ratios: dict


@dataclass
class PreconditionTrace:
    steps: list = field(default_factory=list)
    final_map: np.ndarray | None = None


def max_calls(d):
    """Worst-case number of budgeted calls the scan makes, 4(d - 1) (see
    ``precondition``); at least 1, so that a share is defined at d = 1."""
    return max(1, 4 * (d - 1))


def _shares(d, budget, beta):
    """(per_call, beta_i): the budget and failure probability of each
    budgeted call the scan makes, an equal share of ``budget`` over
    ``max_calls(d)`` calls and beta / d (see ``precondition``)."""
    check_beta(beta)
    return plan_shares(budget, max_calls(d)).per_call, beta / d


def coarse_map(p, gamma_hat):
    """The coarse step's map of a released top-k projector ``p``:
    A = gamma_hat * P + (I - P), which shrinks the top-k subspace by
    gamma_hat and leaves its complement alone."""
    return gamma_hat * p + (np.eye(p.shape[0]) - p)


def fine_map(z, k, noise_level):
    """The fine step's map of a released covariance probe ``z``: shrink
    every direction with lambda_i(Z) >= pivot / (16 gamma_bar^2) down to
    that level, where gamma_bar^2 is GAMMA_BAR_SQ and the pivot is
    lambda_{k+1}(Z) floored at ``noise_level``, the probe's noise scale
    (0 for a noiseless Z)."""
    lam, v = linalg.sym_eig(z)
    # lambda_{k+1}(Z), 0-indexed, is not resolved below the probe's noise level
    pivot = max(lam[k], noise_level)
    if pivot <= 0.0:
        raise DegenerateSpectrum(f"lambda_{k + 1}(Z) = {pivot} is not positive")
    gamma_bar = math.sqrt(GAMMA_BAR_SQ)
    gbar_sq = gamma_bar * gamma_bar
    cutoff = pivot / (FINE_S_DIVISOR * gbar_sq)
    scales = np.ones_like(lam)
    in_s = lam >= cutoff
    g = np.sqrt(np.maximum(lam, 0.0) / pivot)
    scales[in_s] = 1.0 / (4.0 * g[in_s] * gamma_bar)
    return linalg.outer_sym(v * scales, v)


def min_samples(d, budget, beta):
    """Published sample floor for the scanning loop: the largest floor of a
    budgeted call at its share (see ``_shares``).  Those are the eigenvalue
    estimate; at each k, the subspace recovery at subspace.MAX_PSI; and,
    where a coarse step can fire (d >= 2), the post-coarse probe, whose
    floor without kappa2 is ``naive.min_samples``.  The fine step's probes
    take kappa2 and need only 2d rows, which the probe's floor covers.  At
    d = 1 the scan releases nothing; the floor is then the eigenvalue
    estimate's at a one-call share, which keeps it defined."""
    per_call, beta_i = _shares(d, budget, beta)
    needs = [eigenvalues.min_samples(d, per_call, beta_i)]
    if d > 1:
        needs.append(naive.min_samples(d, per_call, beta_i))
    needs += [subspace.n_min(d, k, subspace.MAX_PSI, per_call, beta_i) for k in range(1, d)]
    return max(needs)


def precondition(x, budget: PrivacyBudget, beta, rng: RandomSource, accountant=None):
    """Scan eigenvalue indexes once, firing coarse/fine steps as the private
    estimates call for, and return the accumulated SPD map with its trace.

    Every subroutine call gets an equal share of the budget sized for the
    worst-case call count, so the ledger total always lands within
    ``budget`` no matter which branches fire.  That count is 4(d - 1)
    (``max_calls``): at most four calls per iteration, an eigenvalue
    estimate, a subspace recovery, a post-coarse probe and a fine step.
    At d = 1 the scan has no iteration and releases nothing.

    Each call fails with probability at most beta / d, and up to 4(d - 1)
    calls run, so the union bound on the scan's failure probability is
    4(d - 1) / d * beta, not beta: 2 beta at d = 2.  A share of
    beta / max_calls(d) would leave the published floors as they are (at d
    = 2, 3, 4, 5 and 8 under (0.5, 5e-7) and beta = 0.05), but it would move
    every output, so the share is kept until the failure probabilities are
    composed like the budget (ROADMAP item 14).

    Every release is charged under its stream's path to ``rng``'s ledger;
    given ``accountant``, the call draws from a root at ``rng``'s seed and
    path on that ledger instead, the same noise charged there alone.
    Either way this call's charges total at most ``budget``.

    A PrivGaussError raised mid-scan carries the trace built so far as its
    ``trace`` attribute: the completed steps, with ``final_map`` None.  The
    trace holds only released ratios, so attaching it is post-processing.
    """
    x = linalg.MappedRows.of(x)
    if accountant is not None:
        rng = RandomSource(rng.seed, accountant, rng.path)
    trace = PreconditionTrace()
    try:
        trace.final_map = _scan(x, budget, beta, rng, trace)
    except PrivGaussError as exc:
        exc.trace = trace
        # the trace is the diagnosis; free the scan's locals (the cached row
        # statistics among them) so that a caller keeping the exception keeps
        # no data
        traceback.clear_frames(exc.__traceback__)
        raise
    return trace


def _scan(x, budget, beta, rng, trace):
    """The scanning loop of ``precondition`` on the view ``x`` of the raw
    rows; appends each completed step to ``trace`` and returns the
    accumulated map."""
    n, d = x.shape
    per_call, beta_i = _shares(d, budget, beta)

    a = np.eye(d)
    xa = x

    for i in range(1, d):
        lam_hat = estimate_eigenvalues(xa, per_call, beta_i, rng.child("eig", i - 1)).values
        if lam_hat[-1] <= 0.0:
            raise DegenerateSpectrum(
                "eigenvalue estimate reports a non-positive bottom eigenvalue; "
                "rank-deficient input must be projected out upstream"
            )
        ratio_consec = lam_hat[i] / lam_hat[i - 1]
        ratio_cumul = lam_hat[i] / lam_hat[0]
        ratios = {"consecutive": ratio_consec, "cumulative": ratio_cumul}
        kind = "skip"
        kappa = None  # set when a fine step fires

        if ratio_consec < 4.0 * TAU_SQ:
            # coarse step at k = i.  Promise: lambda_k / lambda_1 >= gamma_bar^2
            # and the true ratio lambda_{k+1} / lambda_k lies within a factor 4
            # of gamma_hat^2.  The release is the top-k projector P, recovered
            # at subspace.MAX_PSI, the accuracy min_samples publishes the floor
            # at.  psi gates the subsample layout only and enters no
            # computation, and the layout takes MAX_PSI at exactly the n at
            # which feasible_psi is defined.  The map is coarse_map(P, gamma_hat)
            kind = "coarse"
            gamma_hat = math.sqrt(ratio_consec)
            p = subspace.recover_subspace(
                xa, i, gamma_hat, subspace.MAX_PSI, per_call, beta_i, rng.child("coarse", i, "subspace")
            )
            a = linalg.symmetric_polar_factor(coarse_map(p, gamma_hat) @ a)
            xa = x.mapped(a)
            ratios["gamma_hat"] = gamma_hat
            # fresh probe of the transformed data; its own internal scale
            # estimate, since lam_hat is stale after the coarse rescale
            z = naive_estimate(xa, per_call, beta_i, rng.child("naive_post", i))
            lam_z = linalg.sym_eig(z)[0]
            if lam_z[0] > 0.0 and lam_z[i] / lam_z[0] < 4.0 * GAMMA_BAR_SQ:
                kind = "coarse+fine"
                ratios["post_coarse_probe"] = lam_z[i] / lam_z[0]
                kappa = lam_z[0]
        elif ratio_cumul < 4.0 * GAMMA_BAR_SQ:
            kind = "fine"
            kappa2 = KAPPA_FACTOR * lam_hat[0]
            z = naive_estimate(xa, per_call, beta_i, rng.child("naive", i - 1), kappa2=kappa2)
            lam_z = linalg.sym_eig(z)[0]
            kappa = lam_z[0] if lam_z[0] > 0.0 else kappa2

        if kappa is not None:
            # fine step at k = i.  Promise: lambda_{k+1} / lambda_1 >=
            # tau^2 gamma_bar^2.  The release is the naive probe Z clipped at
            # kappa; the map is fine_map of Z with its pivot floored at the
            # probe's noise level sigma sqrt(d), a function of public and
            # released values only
            z = naive_estimate(xa, per_call, beta_i, rng.child("fine", i, "naive"), kappa2=kappa)
            noise_level = naive_config(n, d, kappa, per_call, beta_i).sigma * math.sqrt(d)
            a = linalg.symmetric_polar_factor(fine_map(z, i, noise_level) @ a)
            xa = x.mapped(a)

        linalg.positive_spectrum(a, "accumulated preconditioner")
        trace.steps.append(PreconditionStep(iteration=i, kind=kind, ratios=ratios))

    return a
