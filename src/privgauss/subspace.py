"""Private recovery of the top-k eigenspace under an eigengap promise.

Subsample-and-aggregate over projectors: each data chunk's empirical top-k
projector is applied to shared standard-Gaussian reference points, the
projected points are aggregated per reference point with a DP ball finder,
truncated to the found ball, summed with Gaussian noise, and the top-k
subspace of the noisy sums is returned.

Requires lambda_{k+1} / lambda_k < gamma^2 (the caller's promise); under
the sample bound the output projector is within psi * gamma of the truth
in spectral norm with constant probability.

psi is the claimed accuracy, not a knob: it gates the subsample layout
(m rows per subsample must support it) and enters no computation, so the
radius, truncation and noise scale are the same at every psi the layout
accepts.  The preconditioner passes MAX_PSI, the accuracy its published
floor is sized for; ``feasible_psi`` reports the best accuracy n supports.
``_layout`` alone validates the arguments, splits the budget and sizes the
layout; ``n_min``, ``feasible_psi`` and ``subspace_params`` each read it once.

Working set of one call, beyond the rows' cached raw Gram stack: the top-k
bases, copied once from the subsamples' (t, d, d) eigenvectors into a
coordinate-major (k, d, t) array, after which the eigenvectors are freed; one
(d, t) buffer of projected points, one contiguous row per coordinate, filled,
truncated and summed in place for each reference point in turn (at k >= 2
each further basis vector's share passes through one (d, t) temporary); two
(t,) scratch vectors for the projection coordinate, one of which then holds
the distances (``linalg.sq_norms``) and truncation scales; and the (d, q)
sums, one column per reference point.  Every pass over the t subsamples reads contiguous rows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import ball_finder, linalg
from .dp_core import PrivacyBudget, RandomSource, check_beta, plan_shares
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
    t: int
    m: int
    q: int
    r: float
    trunc_radius: float
    sigma: float
    per_call: PrivacyBudget  # budget of each of the 2q releases (_layout)


def _psi_floor(m, d, k, t):
    """Smallest psi that t subsamples of m rows support."""
    q = REFS_PER_RANK * k
    return math.sqrt(M_MIN_SCALE * d * math.log(math.e * d * k) / (m * t * q))


def _layout(d, k, psi, budget, beta):
    """(t, m, phase, per_call): the one derivation of a call's budget split
    and subsample layout, after validating the arguments.

    The centers phase and the sums phase each get ``phase``, half the
    budget, and each phase makes q calls at ``per_call``, an equal share of
    ``phase``.  Every subsample adds one point to each of the q calls, so
    one changed row moves one point in every call and the q calls compose
    by the basic rule.  t subsamples are enough for accuracy and for each
    ball finder to release at ``per_call``; m is the least rows per
    subsample that support psi, at least MIN_ROWS_PER_DIM * d.  n rows fit
    exactly when n // t >= m.

    ``_psi_floor`` is non-increasing in m (m t q is an exact integer, and
    the division and the sqrt round monotonically), so one search finds the
    least m with psi >= ``_psi_floor(m)``: m doubles from the least until
    it fits, then bisects.  m t q must convert to a float, which bounds m;
    a psi that no such m supports raises InvalidArgument."""
    if not 1 <= k <= d - 1:
        raise InvalidArgument(f"k={k} out of range [1, {d - 1}]")
    if not 0.0 < psi < 1.0:
        raise InvalidArgument(f"psi must lie in (0, 1), got {psi}")
    check_beta(beta)
    q = REFS_PER_RANK * k
    phase = plan_shares(budget, 2).per_call
    per_call = plan_shares(phase, q).per_call
    t_accuracy = math.ceil(
        T_SCALE * math.sqrt(d * k) * math.log(d * k / (budget.epsilon * budget.delta)) / budget.epsilon
    )
    t = max(t_accuracy, ball_finder._layout(d, per_call, beta / q)[1], 2 * k + 2, 8)
    cap = int(sys.float_info.max) // (t * q)
    # lo does not fit, and hi does once the doubling stops
    hi = linalg.MIN_ROWS_PER_DIM * d
    lo = hi - 1
    while psi < _psi_floor(hi, d, k, t):
        if hi == cap:
            raise InvalidArgument(f"psi={psi} needs more than {float(cap):.3g} rows per subsample")
        lo, hi = hi, min(2 * hi, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if psi >= _psi_floor(mid, d, k, t):
            hi = mid
        else:
            lo = mid
    return t, hi, phase, per_call


def n_min(d, k, psi, budget, beta):
    """Smallest n recover_subspace accepts at accuracy psi: t times the
    least rows per subsample of ``_layout``."""
    t, m, _, _ = _layout(d, k, psi, budget, beta)
    return t * m


def feasible_psi(n, d, k, budget, beta):
    """Smallest psi the given n supports;
    raises below n_min at MAX_PSI, the any-accuracy floor."""
    t, m, _, _ = _layout(d, k, MAX_PSI, budget, beta)
    if n // t < m:
        raise InsufficientSamples(f"need n >= {t * m} for any accuracy, got {n}")
    return _psi_floor(n // t, d, k, t)


def subspace_params(n, d, k, gamma, psi, budget, beta) -> SubspaceParams:
    if not 0.0 < gamma <= 1.0:
        raise InvalidArgument(f"gamma must lie in (0, 1], got {gamma}")
    t, least, phase, per_call = _layout(d, k, psi, budget, beta)
    m = n // t
    if m < least:
        raise InsufficientSamples(f"need n >= {t * least} at psi={psi}, got {n}")
    q = REFS_PER_RANK * k
    r = R_SCALE * gamma * math.sqrt(d) * (math.sqrt(k) + math.sqrt(math.log(k * t))) / math.sqrt(m)
    trunc = TRUNC_SCALE * r * math.sqrt(math.log(t))
    sigma = 4.0 * trunc * math.sqrt(q) * math.log(q / phase.delta) / (phase.epsilon * t)
    return SubspaceParams(t=t, m=m, q=q, r=r, trunc_radius=trunc, sigma=sigma, per_call=per_call)


def sample_reference_points(q, d, rng: RandomSource):
    """q independent standard Gaussian reference points (public randomness)."""
    if q < 1:
        raise InvalidArgument(f"need q >= 1 reference points, got {q}")
    return rng.child("refs").standard_normal((q, d))


def recover_subspace(x, k, gamma, psi, budget: PrivacyBudget, beta, rng: RandomSource):
    """Privately recover the (d, d) projector onto the top-k eigenspace.

    ``x`` is an (n, d) array or a ``linalg.MappedRows`` view, whose cached
    subsample Gram stack is mapped instead of the rows.  The promise is
    lambda_{k+1}(Sigma) / lambda_k(Sigma) < gamma^2.  The two phases
    (ball-finder centers, truncated noisy sums) each spend half the passed
    budget, so the ledger total stays within ``budget``.
    """
    rows = linalg.MappedRows.of(x)
    n, d = rows.shape
    params = subspace_params(n, d, k, gamma, psi, budget, beta)
    t, m, q, per_call = params.t, params.m, params.q, params.per_call

    refs = sample_reference_points(q, d, rng)

    # basis[l, c, j]: coordinate c of subsample j's l-th eigenvector; the
    # copy is the only reference kept, so the eigenvectors are freed here
    basis = np.ascontiguousarray(linalg.sym_eig_batch(rows.gram_stack(t, m))[1][:, :, :k].transpose(2, 1, 0))

    points = np.empty((d, t))
    coord, term = np.empty(t), np.empty(t)
    sums_matrix = np.empty((d, q))
    for i in range(q):
        # p_i^j = Pi_j p_i = sum_l <b_l^j, p_i> b_l^j for every subsample j,
        # one reference point at a time, each sum taken in index order
        for l in range(k):
            np.multiply(basis[l, 0], refs[i, 0], out=coord)
            for c in range(1, d):
                coord += np.multiply(basis[l, c], refs[i, c], out=term)
            if l == 0:
                np.multiply(basis[0], coord, out=points)
            else:
                points += basis[l] * coord
        result = ball_finder.find_center(points.T, params.r, per_call, beta / q, rng.child("center", i))
        # truncate each point to the ball of radius trunc_radius about the
        # center, in place; the coord buffer takes each point's distance and
        # ends as its scale min(1, R / dist)
        center = result.center[:, None]
        points -= center
        scale = np.sqrt(linalg.sq_norms(points.T), out=coord)
        np.maximum(scale, 1e-300, out=scale)
        np.divide(params.trunc_radius, scale, out=scale)
        np.minimum(1.0, scale, out=scale)
        points *= scale
        points += center
        # the last Gaussian release outside gaussian_mechanism, charged by
        # hand: params.sigma is sized for the mean of the t truncated points,
        # not for this sum, so routing it through gaussian_mechanism would
        # change the noise (ROADMAP item 1)
        sum_rng = rng.child("sum", i)
        sum_rng.charge(per_call, "gaussian", 2.0 * params.trunc_radius)
        sums_matrix[:, i] = points.sum(axis=1) + sum_rng.normal(scale=params.sigma, size=d)

    _, vecs = linalg.sym_eig(sums_matrix @ sums_matrix.T)
    return linalg.top_k_projector(vecs, k)

