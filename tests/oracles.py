"""Deterministic reference computations that the tests check the package against."""

import math

import numpy as np

from privgauss import eigenvalues, linalg
from privgauss.errors import DegenerateSpectrum, InvalidArgument


def reconstruct(spectrum: linalg.Spectrum):
    """V diag(lambda) V^T: the matrix a spectrum decomposes."""
    v = spectrum.eigenvectors
    return (v * spectrum.eigenvalues) @ v.T


def condition_ratio(m, i, j):
    """lambda_i / lambda_j of a symmetric matrix (1-based eigenvalue indices)."""
    spec = linalg.sym_eig(m)
    d = spec.dim
    if not (1 <= i <= d and 1 <= j <= d):
        raise InvalidArgument(f"indices ({i}, {j}) out of range [1, {d}]")
    denom = spec.eigenvalues[j - 1]
    if denom <= 0.0:
        raise DegenerateSpectrum(f"lambda_{j} = {denom} is not positive")
    return float(spec.eigenvalues[i - 1] / denom)


def weyl_interval(n, r, i):
    """Interval [lambda_i(N) + lambda_d(R), lambda_i(N) + lambda_1(R)].

    By Weyl's inequality the i-th eigenvalue of N + R always lies inside;
    used as a deterministic test oracle for perturbation claims.
    """
    a = linalg.as_sym_matrix(n)
    b = linalg.as_sym_matrix(r)
    if a.shape != b.shape:
        raise InvalidArgument(f"dimension mismatch: {a.shape} vs {b.shape}")
    d = a.shape[0]
    if not 1 <= i <= d:
        raise InvalidArgument(f"index {i} out of range [1, {d}]")
    lam_n = linalg.sym_eig(a).eigenvalues
    lam_r = linalg.sym_eig(b).eigenvalues
    return float(lam_n[i - 1] + lam_r[-1]), float(lam_n[i - 1] + lam_r[0])


def eigenvalue_band_check(m, truth_spectrum: linalg.Spectrum, k):
    """True iff the top-k eigenvalues of ``m`` are within a factor 2 of the
    truth's (a deterministic test oracle, not a DP release)."""
    d = truth_spectrum.dim
    if not 0 <= k <= d:
        raise InvalidArgument(f"k={k} out of range [0, {d}]")
    vals = linalg.sym_eig(m).eigenvalues
    truth = truth_spectrum.eigenvalues
    for i in range(k):
        if not (truth[i] / 2.0 <= vals[i] <= 2.0 * truth[i]):
            return False
    return True


def bucket_of(v):
    """Half-open geometric bucket of the eigenvalue estimator containing
    v >= 0; v = 0 maps to [0, 0]."""
    if not (isinstance(v, (int, float, np.floating)) and math.isfinite(v)) or v < 0.0:
        raise InvalidArgument(f"bucket_of needs a finite value >= 0, got {v!r}")
    scheme = eigenvalues._SCHEME
    key = scheme.keys([float(v)])[0]
    return scheme.bounds(key)


def clipped_second_moment_reference(x, threshold):
    """One-shot form of ``naive.clipped_second_moment``: the norm test over
    all rows at once and a gathered copy of the kept rows.  The blocked
    kernel must match it bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    norms = x[:, 0] * x[:, 0]  # the kernel's order, written out independently
    for j in range(1, x.shape[1]):
        norms += x[:, j] * x[:, j]
    keep = norms <= threshold
    kept = x[keep]
    return (kept.T @ kept) / n, int(np.sum(~keep))
