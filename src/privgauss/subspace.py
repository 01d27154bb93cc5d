"""Private recovery of the top-k eigenspace under an eigengap promise.

Subsample-and-aggregate over projectors: each data chunk's empirical top-k
projector is applied to shared standard-Gaussian reference points, the
projected points are aggregated per reference point with a DP ball finder,
truncated to the found ball, summed with Gaussian noise, and the top-k
subspace of the noisy sums is returned.

Requires lambda_{k+1} / lambda_k < gamma^2 (the caller's promise); under
the sample bound the output projector is within psi * gamma of the truth
in spectral norm with constant probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ball_finder, linalg
from .dp_core import PrivacyBudget, RandomSource, plan_shares
from .errors import InsufficientSamples, InvalidArgument

# q = REFS_PER_RANK * k reference points.
REFS_PER_RANK = 4
# t ~ T_SCALE sqrt(dk) ln(dk / (eps delta)) / eps subsamples.
T_SCALE = 8.0
# r = R_SCALE gamma sqrt(d) (sqrt(k) + sqrt(ln(kt))) / sqrt(m): concentration
# radius of the projected reference points.
R_SCALE = 4.0
# Truncation radius R = TRUNC_SCALE * r * sqrt(ln t).
TRUNC_SCALE = 4.0
# Variance-model constant in the m >= ~ d polylog / (psi^2 t q) requirement.
M_MIN_SCALE = 32.0
# Largest accuracy parameter the layout accepts (psi must stay below 1).
MAX_PSI = 0.999


@dataclass(frozen=True)
class SubspaceParams:
    k: int
    gamma: float
    psi: float
    t: int
    m: int
    q: int
    r: float
    trunc_radius: float
    sigma: float


def _validate(d, k, gamma, psi):
    if not 1 <= k <= d - 1:
        raise InvalidArgument(f"k={k} out of range [1, {d - 1}]")
    if not 0.0 < gamma <= 1.0:
        raise InvalidArgument(f"gamma must lie in (0, 1], got {gamma}")
    if not 0.0 < psi < 1.0:
        raise InvalidArgument(f"psi must lie in (0, 1), got {psi}")


def _phase_budgets(budget: PrivacyBudget, q):
    """(phase, per_call): the centers phase and the sums phase each get
    ``phase``, half the budget, and each phase makes q calls at ``per_call``,
    an equal share of ``phase``.  Every subsample adds one point to each of
    the q calls, so one changed row moves one point in every call and the q
    calls compose by the basic rule."""
    phase = plan_shares(budget, 2).per_call
    return phase, plan_shares(phase, q).per_call


def subsample_count(d, k, budget: PrivacyBudget, beta):
    q = REFS_PER_RANK * k
    _, per_center = _phase_budgets(budget, q)
    t_accuracy = math.ceil(
        T_SCALE
        * math.sqrt(d * k)
        * math.log(d * k / (budget.epsilon * budget.delta))
        / budget.epsilon
    )
    t_release = ball_finder.n_min(d, per_center, beta / q)
    return max(t_accuracy, t_release, 2 * k + 2, 8)


def _psi_floor(m, d, k, t):
    """Smallest psi that t subsamples of m rows support."""
    q = REFS_PER_RANK * k
    return math.sqrt(M_MIN_SCALE * d * math.log(math.e * d * k) / (m * t * q))


def _fits(m, d, k, psi, t):
    """The one layout predicate behind n_min, feasible_psi and subspace_params,
    so their answers never contradict each other in floating point."""
    return m >= linalg.MIN_ROWS_PER_DIM * d and psi >= _psi_floor(m, d, k, t)


def n_min(d, k, psi, budget, beta):
    """Smallest n recover_subspace accepts at the requested accuracy."""
    t = subsample_count(d, k, budget, beta)
    # _psi_floor falls as 1/sqrt(m); in floats this closed form can miss the
    # predicate by a row either way
    m = max(linalg.MIN_ROWS_PER_DIM * d, math.ceil((_psi_floor(1, d, k, t) / psi) ** 2))
    while not _fits(m, d, k, psi, t):
        m += 1
    while m > linalg.MIN_ROWS_PER_DIM * d and _fits(m - 1, d, k, psi, t):
        m -= 1
    return t * m


def feasible_psi(n, d, k, budget, beta):
    """Smallest psi the given n supports (callers clamp their request);
    raises below n_min at MAX_PSI, the any-accuracy floor."""
    t = subsample_count(d, k, budget, beta)
    m = n // t
    if not _fits(m, d, k, MAX_PSI, t):
        raise InsufficientSamples(
            f"need n >= {n_min(d, k, MAX_PSI, budget, beta)} for any accuracy, got {n}"
        )
    return _psi_floor(m, d, k, t)


def subspace_params(n, d, k, gamma, psi, budget, beta) -> SubspaceParams:
    _validate(d, k, gamma, psi)
    q = REFS_PER_RANK * k
    t = subsample_count(d, k, budget, beta)
    m = n // t
    if not _fits(m, d, k, psi, t):
        raise InsufficientSamples(
            f"need n >= {n_min(d, k, psi, budget, beta)} at psi={psi}, got {n}"
        )
    r = R_SCALE * gamma * math.sqrt(d) * (math.sqrt(k) + math.sqrt(math.log(k * t))) / math.sqrt(m)
    trunc = TRUNC_SCALE * r * math.sqrt(math.log(t))
    phase, _ = _phase_budgets(budget, q)
    sigma = 4.0 * trunc * math.sqrt(q) * math.log(q / phase.delta) / (phase.epsilon * t)
    return SubspaceParams(k=k, gamma=gamma, psi=psi, t=t, m=m, q=q, r=r, trunc_radius=trunc, sigma=sigma)


def sample_reference_points(q, d, rng: RandomSource):
    """q independent standard Gaussian reference points (public randomness)."""
    if q < 1:
        raise InvalidArgument(f"need q >= 1 reference points, got {q}")
    return rng.child("refs").standard_normal((q, d))


def recover_subspace(
    x,
    k,
    gamma,
    psi,
    budget: PrivacyBudget,
    beta,
    rng: RandomSource,
    accountant=None,
) -> linalg.Projector:
    """Privately recover the projector onto the top-k eigenspace.

    ``x`` is an (n, d) array or a ``linalg.MappedRows`` view, whose cached
    subsample Gram stack is mapped instead of the rows.  The promise is
    lambda_{k+1}(Sigma) / lambda_k(Sigma) < gamma^2.  The two phases
    (ball-finder centers, truncated noisy sums) each spend half the passed
    budget, so the ledger total stays within ``budget``.
    """
    rows = linalg.MappedRows.of(x)
    n, d = rows.shape
    params = subspace_params(n, d, k, gamma, psi, budget, beta)
    t, m, q = params.t, params.m, params.q
    _, per_call = _phase_budgets(budget, q)

    refs = sample_reference_points(q, d, rng)

    _, vecs = linalg.sym_eig_batch(rows.gram_stack(t, m))
    bases = vecs[:, :, :k]  # (t, d, k)
    coords = np.einsum("tdk,qd->tqk", bases, refs)

    sums_matrix = np.empty((d, q))
    for i in range(q):
        # p_i^j = Pi_j p_i for every subsample j, one reference point at a time
        points = np.einsum("tk,tdk->td", coords[:, i, :], bases)
        result = ball_finder.find_center(
            points, params.r, per_call, beta / q, rng.child("center", i), accountant=accountant
        )
        delta_vec = points - result.center
        dist = np.linalg.norm(delta_vec, axis=1)
        scale = np.minimum(1.0, params.trunc_radius / np.maximum(dist, 1e-300))
        truncated = result.center + delta_vec * scale[:, None]
        # the one release charged by hand: params.sigma is sized for the mean
        # of the t truncated points, not for this sum, so routing it through
        # gaussian_mechanism would change the noise (ROADMAP item 1)
        sum_rng = rng.child("sum", i)
        if accountant is not None:
            accountant.charge(sum_rng.name, per_call, mechanism="gaussian", sensitivity=2.0 * params.trunc_radius)
        sums_matrix[:, i] = truncated.sum(axis=0) + sum_rng.normal(scale=params.sigma, size=d)

    gram = sums_matrix @ sums_matrix.T
    spec = linalg.sym_eig(gram)
    return linalg.top_k_projector(spec, k)

