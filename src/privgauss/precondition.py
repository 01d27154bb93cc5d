"""Private preconditioning: make the data covariance O(1)-conditioned with
no prior bound on its spectrum.

Three layers:

* coarse step -- under a large consecutive eigengap at index k, recover the
  top-k subspace privately and rescale it by the estimated gap ratio, which
  crushes the gap;
* fine step -- under a bounded cumulative gap, probe the covariance with the
  naive estimator for its scale kappa, probe again clipped at that scale,
  and rescale each large eigendirection individually; the scan runs the
  first probe only when a fine step fires;
* the scanning loop -- walk the eigenvalue indexes once, firing whichever
  step the privately estimated ratios call for, and accumulate the map.

The accumulated map is kept symmetric positive definite by replacing the
raw step product A with its SPD polar factor (A^T A)^{1/2}, which preserves
the spectrum of A Sigma A^T exactly.

The mapped rows x @ A are never formed.  Every statistic the steps read is
quadratic in the rows -- subsample Gram stacks, the full second moment, the
clip test's norms -- so the scan holds one ``linalg.MappedRows`` view of the
raw rows: each statistic is computed once from them and mapped as
A^T (statistic) A at every later step.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass, field

import numpy as np

from . import linalg, subspace
from .dp_core import PrivacyBudget, RandomSource, plan_shares
from .eigenvalues import estimate_eigenvalues
from .errors import DegenerateSpectrum, InvalidArgument, PrivGaussError
from .naive import naive_config, naive_estimate

# Gap thresholds of the scanning loop.
TAU_SQ = 1.0 / 10000.0
GAMMA_BAR_SQ = 40.0 / 10000.0
# Requested subspace accuracy for the coarse step is gamma_bar^2 / this
# (clamped up to what the available sample size supports).
COARSE_PSI_DIVISOR = 100.0
# Fine step keeps directions with lambda_i(Z) >= lambda_{k+1}(Z) / (S_DIV gbar^2).
FINE_S_DIVISOR = 16.0
# Budget shares: one per call, reserved for this many calls.  The scan makes
# at most 4 per iteration (subspace, post-coarse probe, fine step, eigenvalue
# refresh) plus 1 initial eigenvalue estimate, so 5(d - 1) + 2 over-reserves;
# sizing it to 4(d - 1) + 1 would raise every share and lower every
# published floor, which is a floor change of its own.
CALLS_PER_ITERATION = 5
INITIAL_CALLS = 2


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
    return CALLS_PER_ITERATION * (d - 1) + INITIAL_CALLS


def coarse_precondition(
    x,
    k,
    gamma_hat,
    budget: PrivacyBudget,
    beta,
    rng: RandomSource,
    accountant=None,
    projector_override=None,
):
    """One coarse step: A = gamma_hat * P + (I - P) for the privately
    recovered top-k projector P.  ``x`` is an (n, d) array or a
    ``linalg.MappedRows`` view.

    Promise: lambda_k / lambda_1 >= gamma_bar^2 and the true consecutive
    ratio lambda_{k+1} / lambda_k lies within a factor 4 of gamma_hat^2.
    The requested subspace accuracy gamma_bar^2/100 is clamped up to the
    best the sample size supports; the noiseless ``projector_override``
    hook bypasses recovery for closed-form tests.
    """
    x = linalg.MappedRows.of(x)
    n, d = x.shape
    if not 0.0 < gamma_hat <= 1.0:
        raise InvalidArgument(f"gamma_hat must lie in (0, 1], got {gamma_hat}")
    if gamma_hat == 1.0:
        return np.eye(d)
    if projector_override is not None:
        proj = projector_override
    else:
        psi = max(GAMMA_BAR_SQ / COARSE_PSI_DIVISOR, subspace.feasible_psi(n, d, k, budget, beta))
        proj = subspace.recover_subspace(
            x, k, gamma_hat, psi, budget, beta, rng.child("subspace"), accountant=accountant
        )
    p = proj.matrix
    return gamma_hat * p + (np.eye(d) - p)


def fine_precondition(
    x,
    k,
    gamma_bar,
    kappa,
    budget: PrivacyBudget,
    beta,
    rng: RandomSource,
    accountant=None,
    probe_override=None,
):
    """One fine step: probe the covariance and shrink every direction with
    lambda_i(Z) >= pivot / (16 gamma_bar^2) down to that level, where the
    pivot is lambda_{k+1}(Z) floored at the probe's noise level sigma sqrt(d).

    Promise: lambda_{k+1} / lambda_1 >= tau^2 gamma_bar^2.  ``x`` is an
    (n, d) array or a ``linalg.MappedRows`` view.  ``probe_override``
    substitutes a noiseless Z (sigma = 0) for closed-form tests.
    """
    x = linalg.MappedRows.of(x)
    d = x.shape[1]
    if not 0.0 < gamma_bar <= 1.0:
        raise InvalidArgument(f"gamma_bar must lie in (0, 1], got {gamma_bar}")
    if not 1 <= k <= d - 1:
        raise InvalidArgument(f"k={k} out of range [1, {d - 1}]")
    if probe_override is not None:
        z = np.asarray(probe_override, dtype=np.float64)
        sigma = 0.0
    else:
        z = naive_estimate(x, budget, beta, rng.child("naive"), kappa2=kappa, accountant=accountant)
        sigma = naive_config(x.shape[0], d, kappa, budget, beta).sigma
    spec = linalg.sym_eig(z)
    lam = spec.eigenvalues
    # lambda_{k+1}(Z), 0-indexed, is not resolved below the probe's noise
    # level; sigma depends only on released and public values
    pivot = max(lam[k], sigma * math.sqrt(d))
    if pivot <= 0.0:
        raise DegenerateSpectrum(f"lambda_{k + 1}(Z) = {pivot} is not positive")
    gbar_sq = gamma_bar * gamma_bar
    cutoff = pivot / (FINE_S_DIVISOR * gbar_sq)
    scales = np.ones(d)
    in_s = lam >= cutoff
    g = np.sqrt(np.maximum(lam, 0.0) / pivot)
    scales[in_s] = 1.0 / (4.0 * g[in_s] * gamma_bar)
    v = spec.eigenvectors
    a = (v * scales) @ v.T
    return 0.5 * (a + a.T)


def min_samples(d, budget, beta):
    """Published sample floor for the scanning loop (subroutine needs at the
    per-call budget share)."""
    from . import eigenvalues as eig_mod

    per_call = plan_shares(budget, max_calls(d)).per_call
    beta_i = beta / d
    needs = [eig_mod.min_samples(d, per_call, beta_i), 2 * d]
    for k in range(1, d):
        needs.append(subspace.n_min(d, k, subspace.MAX_PSI, per_call, beta_i))
    return max(needs)


def precondition(x, budget: PrivacyBudget, beta, rng: RandomSource, accountant=None):
    """Scan eigenvalue indexes once, firing coarse/fine steps as the private
    estimates call for, and return the accumulated SPD map with its trace.

    Every subroutine call gets an equal share of the budget sized for the
    worst-case call count, so the ledger total always lands within
    ``budget`` no matter which branches fire.

    A PrivGaussError raised mid-scan carries the trace built so far as its
    ``trace`` attribute: the completed steps, with ``final_map`` None.  The
    trace holds only released ratios, so attaching it is post-processing.
    """
    x = linalg.MappedRows.of(x)
    trace = PreconditionTrace()
    if x.shape[1] == 1:
        trace.final_map = np.eye(1)
        return trace
    try:
        trace.final_map = _scan(x, budget, beta, rng, accountant, trace)
    except PrivGaussError as exc:
        exc.trace = trace
        # the trace is the diagnosis; free the scan's locals (the cached row
        # statistics among them) so that a caller keeping the exception keeps
        # no data
        traceback.clear_frames(exc.__traceback__)
        raise
    return trace


def _scan(x, budget, beta, rng, accountant, trace):
    """The scanning loop of ``precondition`` on the view ``x`` of the raw
    rows; appends each completed step to ``trace`` and returns the
    accumulated map."""
    d = x.shape[1]
    per_call = plan_shares(budget, max_calls(d)).per_call
    beta_i = beta / d
    gamma_bar = math.sqrt(GAMMA_BAR_SQ)

    a = np.eye(d)
    xa = x

    def check_positive(values, what):
        if values[-1] <= 0.0:
            raise DegenerateSpectrum(
                f"{what} reports a non-positive bottom eigenvalue; "
                "rank-deficient input must be projected out upstream"
            )

    lam_hat = estimate_eigenvalues(xa, per_call, beta_i, rng.child("eig", 0), accountant=accountant).values
    check_positive(lam_hat, "initial eigenvalue estimate")

    for i in range(1, d):
        ratio_consec = lam_hat[i] / lam_hat[i - 1]
        ratio_cumul = lam_hat[i] / lam_hat[0]
        ratios = {"consecutive": ratio_consec, "cumulative": ratio_cumul}
        kind = "skip"
        kappa = None  # set when a fine step fires

        if ratio_consec < 4.0 * TAU_SQ:
            kind = "coarse"
            gamma_hat = math.sqrt(ratio_consec)
            b = coarse_precondition(
                xa, i, gamma_hat, per_call, beta_i, rng.child("coarse", i), accountant=accountant
            )
            a = linalg.symmetric_polar_factor(b @ a)
            xa = x.mapped(a)
            ratios["gamma_hat"] = gamma_hat
            # fresh probe of the transformed data; its own internal scale
            # estimate, since lam_hat is stale after the coarse rescale
            z = naive_estimate(xa, per_call, beta_i, rng.child("naive_post", i), accountant=accountant)
            lam_z = linalg.sym_eig(z).eigenvalues
            if lam_z[0] > 0.0 and lam_z[i] / lam_z[0] < 4.0 * GAMMA_BAR_SQ:
                kind = "coarse+fine"
                ratios["post_coarse_probe"] = lam_z[i] / lam_z[0]
                kappa = lam_z[0]
        elif ratio_cumul < 4.0 * GAMMA_BAR_SQ:
            kind = "fine"
            z = naive_estimate(
                xa, per_call, beta_i, rng.child("naive", i - 1), kappa2=4.0 * lam_hat[0], accountant=accountant
            )
            lam_z = linalg.sym_eig(z).eigenvalues
            kappa = lam_z[0] if lam_z[0] > 0.0 else 4.0 * lam_hat[0]

        if kappa is not None:
            c = fine_precondition(
                xa, i, gamma_bar, kappa, per_call, beta_i, rng.child("fine", i), accountant=accountant
            )
            a = linalg.symmetric_polar_factor(c @ a)
            xa = x.mapped(a)

        lam_hat = estimate_eigenvalues(xa, per_call, beta_i, rng.child("eig", i), accountant=accountant).values
        check_positive(lam_hat, f"eigenvalue refresh at iteration {i}")

        if linalg.sym_eig(a).eigenvalues[-1] <= 0.0:
            raise DegenerateSpectrum("accumulated preconditioner lost positive definiteness")
        trace.steps.append(PreconditionStep(iteration=i, kind=kind, ratios=ratios))

    return a
