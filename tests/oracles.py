"""Deterministic reference computations that the tests check the package against."""

import math

import numpy as np

from privgauss import ball_finder, dp_core, eigenvalues, linalg, subspace
from privgauss.errors import InvalidArgument


def reconstruct(vals, vecs):
    """V diag(lambda) V^T: the matrix that ``sym_eig``'s (values, vectors)
    decompose."""
    return (vecs * vals) @ vecs.T


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


def gram_stack_reference(x, t, m):
    """Strided form of ``linalg.gram_stack``'s stack: entry (i, j) of each
    m-row subsample is the BLAS dot of its columns i and j read in place,
    strided by d, BLOCK_ROWS rows of whole subsamples at a time, and above
    DOT_TERMS rows the in-order sum of one dot per DOT_TERMS rows.  Its
    entries are as many roundings from exact as the kernel's, in another
    order, so the two agree within twice the kernel's rounding bound."""
    n, d = x.shape
    per_pass = max(1, linalg.BLOCK_ROWS // m)
    step = linalg.DOT_TERMS
    stack = np.empty((t, d, d))
    for lo in range(0, t, per_pass):
        hi = min(lo + per_pass, t)
        sub = x[lo * m : hi * m].reshape(hi - lo, m, d)
        for i in range(d):
            for j in range(i, d):
                entry = stack[lo:hi, i, j]
                np.vecdot(sub[:, :step, i], sub[:, :step, j], out=entry)
                for c in range(step, m, step):
                    entry += np.vecdot(sub[:, c : c + step, i], sub[:, c : c + step, j])
                stack[lo:hi, j, i] = entry
    return stack


def find_center_reference(points, r_opt, budget, beta, rng):
    """Allocating form of ``ball_finder.find_center`` on valid input: fresh
    arrays for each coordinate's bin indexes.  The buffered kernel must match
    it bit for bit, ledger included."""
    pts = np.asarray(points, dtype=np.float64)
    n, dim = pts.shape
    per_coord = dp_core.plan_shares(budget, dim).per_call
    offsets = rng.child("offset").uniform(0.0, r_opt, size=dim)
    cell = ball_finder.grid_cell(r_opt, dim)
    center = np.empty(dim)
    for j in range(dim):
        keys = np.floor((pts[:, j] - offsets[j]) / r_opt).astype(np.int64)
        released = dp_core.stable_counts(dp_core.bucket_counts(keys), per_coord, rng.child("hist", j))
        best_key = dp_core.heaviest(released, per_coord, f"no heavy bin released for coordinate {j}")
        center[j] = offsets[j] + (best_key + 0.5) * r_opt
    center = np.round(center / cell) * cell
    radius = ball_finder.INFLATION * math.sqrt(dim) * r_opt * math.sqrt(max(math.log(n), 1.0))
    return ball_finder.BallResult(center=center, radius_used=radius)


def recover_subspace_reference(x, k, gamma, psi, budget, beta, rng):
    """Allocating form of ``subspace.recover_subspace``: the (k, q, t)
    coordinates of every reference point at once, then fresh (d, t) arrays
    for each reference point's projected, shifted and truncated points, and
    ``find_center_reference`` for the centers.  Every sum is taken in the
    loop's order (coordinates, then basis vectors, in index order), so the
    buffered loop must match it bit for bit, ledger included."""
    rows = linalg.MappedRows.of(x)
    n, d = rows.shape
    params = subspace.subspace_params(n, d, k, gamma, psi, budget, beta)
    t, m, q, per_call = params.t, params.m, params.q, params.per_call

    refs = subspace.sample_reference_points(q, d, rng)

    _, vecs = linalg.sym_eig_batch(rows.gram_stack(t, m))
    basis = vecs[:, :, :k].transpose(2, 1, 0)  # (k, d, t)
    coords = basis[:, None, 0, :] * refs[None, :, 0, None]
    for c in range(1, d):
        coords = coords + basis[:, None, c, :] * refs[None, :, c, None]

    sums_matrix = np.empty((d, q))
    for i in range(q):
        points = coords[0, i] * basis[0]
        for l in range(1, k):
            points = points + coords[l, i] * basis[l]
        result = find_center_reference(points.T, params.r, per_call, beta / q, rng.child("center", i))
        delta = points - result.center[:, None]
        dist = np.linalg.norm(delta, axis=0)
        scale = np.minimum(1.0, params.trunc_radius / np.maximum(dist, 1e-300))
        truncated = result.center[:, None] + delta * scale
        sum_rng = rng.child("sum", i)
        sum_rng.charge(per_call, "gaussian", 2.0 * params.trunc_radius)
        # broadcasting may lay ``truncated`` out column-major; the loop sums
        # each coordinate's contiguous row, pairwise
        sums_matrix[:, i] = np.ascontiguousarray(truncated).sum(axis=1) + sum_rng.normal(scale=params.sigma, size=d)

    _, vecs = linalg.sym_eig(sums_matrix @ sums_matrix.T)
    return linalg.top_k_projector(vecs, k)
