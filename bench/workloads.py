"""Workload inputs and the composed covariance estimator the benchmark times.

Each draw of a workload takes raw rows from N(mu, Sigma) with
Sigma = 1e6 Q diag(lam) Q^T for a seeded random rotation Q and a mean of about
1e4 per coordinate, so no prior bound on either holds.  The composed estimator turns the raw rows into
Sigma_hat with the library's public functions; it stands in for
``privgauss.estimate`` until the package provides one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from privgauss import linalg, naive, precondition, subspace
from privgauss.dp_core import PrivacyBudget, RandomSource, plan_shares
from privgauss.errors import InsufficientSamples

BUDGET = PrivacyBudget(1.0, 1e-6)
BETA = 0.1
# Budget split of the composed estimator: half to the preconditioner, half to
# the naive estimate on the preconditioned rows; beta splits the same way.
HALF = BUDGET.scaled(0.5)
HALF_BETA = BETA / 2

SCALE = 1e6
MEAN = 1e4
# Rows transformed per block while drawing, to bound the temporary copy.
BLOCK_ROWS = 1 << 20


def estimate_covariance(raw, seed, accountant):
    """Sigma_hat from raw rows, charging every release to ``accountant``.

    Pair differences X_{2i} - X_{2i-1} have zero mean and covariance
    2 Sigma; the preconditioner's map A whitens them, the naive estimate Z
    of A (2 Sigma) A is taken on the mapped rows, and the map is undone.
    """
    m = raw.shape[0] // 2
    y = raw[1 : 2 * m : 2] - raw[0 : 2 * m : 2]
    rng = RandomSource(seed)
    a = precondition.precondition(
        y, HALF, HALF_BETA, rng.child("precondition"), accountant=accountant
    ).final_map
    z = naive.naive_estimate(y @ a, HALF, HALF_BETA, rng.child("naive"), accountant=accountant)
    a_inv = linalg.spd_inverse(a)
    return 0.5 * (a_inv @ z @ a_inv)


def floor_rows(d):
    """The composed estimator's published sample floor in raw rows."""
    return 2 * precondition.min_samples(d, HALF, HALF_BETA)


# Multiples k/10 of the floor that floor-d2 sweeps, k = 10..20.
FLOOR_TENTHS = range(10, 21)


@dataclass(frozen=True)
class Workload:
    name: str
    tag: int  # keeps the draws of different workloads apart at one seed
    lam: tuple
    rows: tuple | None  # raw row counts; None means the floor grid
    # Nominal CPU seconds of one untraced pass over the datasets, which sizes
    # a run's list of distinct jobs; measured on a 2-CPU x86-64 host.
    pass_cost_s: float = 0.0

    @property
    def d(self):
        return len(self.lam)

    def sizes(self):
        if self.rows is not None:
            return list(self.rows)
        floor = floor_rows(self.d)
        return [-(-k * floor // 10) for k in FLOOR_TENTHS]

    def generate(self, seed, draw=0):
        """(rows, Sigma, sizes): every dataset is a prefix of ``rows``."""
        sizes = self.sizes()
        rows, sigma = draw_rows(seed, self.tag, draw, max(sizes), self.lam)
        return rows, sigma, sizes


WORKLOADS = {
    w.name: w
    for w in (
        # n is fixed at 1.1x the floor published at the seed commit
        Workload("fine-d3", 1, (1.0, 0.3, 0.003), (7_798_982,), 1.8),
        Workload("floor-d2", 3, (1.0, 1e-6), None, 2.4),
    )
}
# Warm-up input: the largest floor-d2 dataset, drawn under its own tag.
WARMUP = Workload("warmup", 0, (1.0, 1e-6), None)


def draw_rows(seed, tag, draw, n, lam):
    """n raw rows of N(mu, Sigma) and the true Sigma, reproducible from
    (seed, tag, draw); each draw picks its own rotation, mean and rows."""
    rng = np.random.default_rng([seed, tag, draw])
    d = len(lam)
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q *= np.sign(np.diag(r))
    spectrum = SCALE * np.asarray(lam, dtype=np.float64)
    sigma = (q * spectrum) @ q.T
    mu = MEAN * (1.0 + 0.1 * rng.standard_normal(d))
    root = (q * np.sqrt(spectrum)).T
    x = rng.standard_normal((n, d))
    for start in range(0, n, BLOCK_ROWS):
        block = x[start : start + BLOCK_ROWS]
        block[...] = block @ root + mu
    return x, sigma


def layout_raises():
    """Grid points at or above the published floor where the coarse step's
    subsample layout raises, for d = 2..5 and every k.

    Mirrors the preconditioner's per-call budget and beta; gamma only sets
    the concentration radius, never whether the layout fits.
    """
    count = 0
    for d in range(2, 6):
        per_call = plan_shares(HALF, precondition.max_calls(d)).per_call
        beta_i = HALF_BETA / d
        floor = precondition.min_samples(d, HALF, HALF_BETA)
        for k in range(1, d):
            for tenths in FLOOR_TENTHS:
                n = -(-tenths * floor // 10)
                try:
                    psi = subspace.feasible_psi(n, d, k, per_call, beta_i)
                    subspace.subspace_params(n, d, k, 0.01, psi, per_call, beta_i)
                except InsufficientSamples:
                    count += 1
    return count


def published_floors():
    """precondition.min_samples at the estimator's half budget, d = 2..5, in pair rows."""
    return {d: precondition.min_samples(d, HALF, HALF_BETA) for d in range(2, 6)}
