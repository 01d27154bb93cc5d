"""DP approximate-center finding for clustered point sets.

Given n points that mostly lie in some ball of radius r_opt, return a
center c such that a modestly inflated ball around c captures at least
half the points, under the charged (epsilon, delta) budget.

The aggregation is coordinate-wise: each coordinate runs a stability-based
histogram over bins of width r_opt (with a shared random offset, so the
center distribution is translation equivariant), the heavy bin's midpoint
is taken per coordinate, and the assembled center is snapped to a fixed
grid of cell width r_opt / (100 sqrt(D)).  Relative to an LSH-based center
finder this costs an extra sqrt(D) inside the inflation constant and a
poly(D) sample overhead, which is acceptable at the scales targeted here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dp_core import PrivacyBudget, RandomSource, check_beta, plan_shares
from .dp_core import bucket_counts, heaviest, release_floor, stable_counts  # the stability histogram
from .errors import InsufficientSamples, InvalidArgument

# Radius inflation: radius_used = INFLATION * sqrt(D) * r_opt * sqrt(ln n).
INFLATION = 4.0
# Sample floor constant in n_min.
N_MIN_SCALE = 8.0


@dataclass(frozen=True)
class BallResult:
    center: np.ndarray
    radius_used: float


def grid_cell(r_opt, dim):
    return r_opt / (100.0 * math.sqrt(dim))


def n_min(dim, budget: PrivacyBudget, beta):
    """Smallest point count find_center accepts.

    Combines the sqrt(D) polylog / eps shape with a floor that lets an
    entirely clustered dataset clear the per-coordinate release threshold.
    """
    return _n_min(dim, budget, plan_shares(budget, dim).per_call, beta)


def _n_min(dim, budget, per_coord, beta):
    """``n_min`` given ``per_coord``, the budget's split over the dim
    coordinate histograms."""
    check_beta(beta)
    shape = N_MIN_SCALE * math.sqrt(dim) * math.log(dim / (budget.delta * beta)) / budget.epsilon
    return max(int(math.ceil(shape)), release_floor(per_coord))


def find_center(points, r_opt, budget, beta, rng: RandomSource):
    """Privately locate a center whose inflated ball captures >= n/2 points."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise InvalidArgument(f"points must be an (n, D) array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise InvalidArgument("points contain NaN or Inf")
    if not (math.isfinite(r_opt) and r_opt > 0.0):
        raise InvalidArgument(f"r_opt must be positive, got {r_opt}")
    n, dim = pts.shape
    per_coord = plan_shares(budget, dim).per_call
    needed = _n_min(dim, budget, per_coord, beta)
    if n < needed:
        raise InsufficientSamples(f"need at least {needed} points for D={dim}, got {n}")

    # Shared random bin offset (public randomness): makes the released
    # center distribution shift exactly with the data.
    offsets = rng.child("offset").uniform(0.0, r_opt, size=dim)
    cell = grid_cell(r_opt, dim)

    center = np.empty(dim)
    bins = np.empty(n)
    for j in range(dim):
        np.subtract(pts[:, j], offsets[j], out=bins)
        bins /= r_opt
        np.floor(bins, out=bins)
        if bins.min() < -(2.0**63) or bins.max() >= 2.0**63:
            raise InvalidArgument(f"coordinate {j} has bin indexes outside the int64 range at r_opt = {r_opt}")
        keys = bins.astype(np.int64)
        released = stable_counts(bucket_counts(keys), per_coord, rng.child("hist", j))
        best_key = heaviest(released, f"no heavy bin released for coordinate {j}")
        center[j] = offsets[j] + (best_key + 0.5) * r_opt

    center = np.round(center / cell) * cell

    radius = INFLATION * math.sqrt(dim) * r_opt * math.sqrt(max(math.log(n), 1.0))
    return BallResult(center=center, radius_used=radius)
