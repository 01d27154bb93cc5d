"""Dense symmetric linear algebra used by every estimation stage.

Everything here is deterministic and privacy-free: LAPACK eigendecomposition
(``numpy.linalg.eigh``), spectral projectors, the PSD-cone projection, and
the whitened (relative) error norms used to score estimates.  Matrices are
plain float64 ``numpy`` arrays; construction helpers symmetrize and validate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSpectrum, InvalidArgument, InvalidMatrix, RangeMismatch

MAX_DIM = 256

# Relative eigenvalue cutoff below which a direction counts as null space.
NULL_SPACE_CUTOFF = 1e-12
# Tolerated out-of-column-space Frobenius mass, relative to the estimate.
RANGE_TOL = 1e-8


def as_sym_matrix(m, dim=None):
    """Validate and symmetrize a square matrix, returning a float64 copy.

    Raises InvalidMatrix for non-square/non-finite input and for dimensions
    above MAX_DIM; symmetrization averages ``m`` with its transpose so the
    result is exactly symmetric.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > MAX_DIM:
        raise InvalidMatrix(f"dimension {a.shape[0]} exceeds the supported cap {MAX_DIM}")
    if dim is not None and a.shape[0] != dim:
        raise InvalidArgument(f"expected dimension {dim}, got {a.shape[0]}")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("matrix contains NaN or Inf entries")
    sym = 0.5 * (a + a.T)
    return sym


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted non-increasing with an aligned orthonormal basis.

    ``eigenvectors[:, i]`` is the unit eigenvector for ``eigenvalues[i]``;
    the source matrix reconstructs as ``V @ diag(vals) @ V.T``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self):
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class Projector:
    """A symmetric idempotent matrix of known rank."""

    matrix: np.ndarray
    rank: int


def sym_eig_batch(mats, vectors=True):
    """Eigendecompose a stack of symmetric matrices with LAPACK.

    Returns (values, vectors) with values sorted non-increasing per matrix
    and vectors as aligned columns; pass ``vectors=False`` to compute the
    values only (vectors is None).  Raises InvalidMatrix when LAPACK does
    not converge (as on NaN input).
    """
    a = np.asarray(mats, dtype=np.float64)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise InvalidMatrix(f"expected a (b, d, d) stack, got shape {a.shape}")
    try:
        if not vectors:
            return np.linalg.eigvalsh(a)[:, ::-1], None
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise InvalidMatrix(f"eigendecomposition failed: {exc}") from exc
    return vals[:, ::-1], vecs[:, :, ::-1]


# Rows per block of the subsample layout never drop below this many times d.
MIN_ROWS_PER_DIM = 4


def gram_stack(x, t, m):
    """Unscaled second-moment matrices X_j^T X_j of the first t blocks of m
    consecutive rows of ``x``, as a (t, d, d) stack; rows past t * m are
    unused.  This is the subsample layout of eigenvalue estimation and
    subspace recovery."""
    chunks = x[: t * m].reshape(t, m, x.shape[1])
    return np.matmul(chunks.transpose(0, 2, 1), chunks)


# Rows per block of a blocked pass over the rows; bounds its temporaries.
BLOCK_ROWS = 1 << 16


@dataclass
class _RowStats:
    """Statistics of one raw row array, each computed on first use."""

    stacks: dict = field(default_factory=dict)  # (t, m) -> gram_stack(x, t, m)
    moment: np.ndarray | None = None  # X^T X over all rows
    max_sq_norm: float | None = None  # largest squared row norm


def _frozen(a):
    a.flags.writeable = False
    return a


class MappedRows:
    """The rows ``x @ a`` of an (n, d) array, held as the raw rows and the
    map (``a`` None means the identity); the product is never formed.

    Every statistic the estimators read of their rows is quadratic, so under
    the map it is a^T (statistic of the raw rows) a: each statistic is
    computed once from the raw rows, cached for the life of the view and of
    every view ``mapped`` derives from it, and transformed per request.
    With ``a`` None the cached values are returned untouched, read-only.

    A mapped statistic equals the statistic of x @ a in exact arithmetic.
    In floating point it carries the rounding of the raw statistic, about
    eps ||a||_2^2 ||X^T X|| in absolute terms, so its relative error grows
    with how far the map flattens the spectrum: for raw rows of condition
    number 1e6 mapped to near 1, about 1e-11, where squaring the mapped rows
    gives about 1e-15.
    """

    def __init__(self, x, a=None, stats=None):
        self.x = x
        self.a = a
        self._stats = _RowStats() if stats is None else stats

    @classmethod
    def of(cls, x):
        """``x`` itself if it is a view, else a view of ``x`` as float64 rows."""
        if isinstance(x, cls):
            return x
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise InvalidArgument(f"expected an (n, d) sample matrix, got shape {x.shape}")
        return cls(x)

    @property
    def shape(self):
        return self.x.shape

    def mapped(self, b):
        """The view of these rows times ``b``, sharing this view's cache."""
        return MappedRows(self.x, b if self.a is None else self.a @ b, self._stats)

    def _map(self, s):
        if self.a is None:
            return s
        out = np.matmul(self.a.T, np.matmul(s, self.a))
        return 0.5 * (out + np.swapaxes(out, -1, -2))

    def gram_stack(self, t, m):
        """``gram_stack`` of the mapped rows; the raw stack is computed once
        per layout."""
        stacks = self._stats.stacks
        if (t, m) not in stacks:
            stacks[(t, m)] = _frozen(gram_stack(self.x, t, m))
        return self._map(stacks[(t, m)])

    def moment(self):
        """Unscaled second moment X^T X of all mapped rows.  From a cached
        stack it costs only the tail rows past the layout."""
        stats = self._stats
        if stats.moment is None:
            if stats.stacks:
                (t, m), stack = next(iter(stats.stacks.items()))
                tail = self.x[t * m :]
                full = stack.sum(axis=0) + tail.T @ tail
            else:
                full = self.x.T @ self.x
            stats.moment = _frozen(0.5 * (full + full.T))
        return self._map(stats.moment)

    def norm_bound(self):
        """Upper bound ||a||_2^2 max_i ||x_i||^2 on every mapped squared row
        norm, up to the rounding of both factors; one blocked pass over the
        raw rows, made once."""
        stats = self._stats
        if stats.max_sq_norm is None:
            stats.max_sq_norm = 0.0
            for start in range(0, self.x.shape[0], BLOCK_ROWS):
                block = self.x[start : start + BLOCK_ROWS]
                stats.max_sq_norm = max(stats.max_sq_norm, float(np.einsum("ij,ij->i", block, block).max()))
        scale = 1.0 if self.a is None else float(np.linalg.norm(self.a, 2)) ** 2
        return scale * stats.max_sq_norm


def sym_eig(m) -> Spectrum:
    """Full eigendecomposition of one symmetric matrix.

    Eigenvalues may be negative and are sorted non-increasing.
    """
    a = as_sym_matrix(m)
    vals, vecs = sym_eig_batch(a[None, :, :])
    return Spectrum(eigenvalues=vals[0], eigenvectors=vecs[0])


def psd_project(m):
    """Frobenius-nearest PSD matrix: clip negative eigenvalues to zero."""
    spec = sym_eig(m)
    clipped = np.maximum(spec.eigenvalues, 0.0)
    v = spec.eigenvectors
    out = (v * clipped) @ v.T
    return 0.5 * (out + out.T)


def _whitening_basis(truth):
    """Column basis and inverse-root eigenvalues of ``truth``'s range.

    Rank-deficient truth is handled by a pseudo-inverse square root with
    eigenvalues below NULL_SPACE_CUTOFF * lambda_1 treated as null space.
    """
    spec = sym_eig(truth)
    lam = spec.eigenvalues
    top = lam[0] if lam.size else 0.0
    if lam.size and lam[-1] < -1e-10 * max(abs(top), 1.0):
        raise InvalidMatrix("truth matrix is not positive semidefinite")
    keep = lam > NULL_SPACE_CUTOFF * max(top, 0.0)
    basis = spec.eigenvectors[:, keep]
    inv_root = 1.0 / np.sqrt(lam[keep])
    return basis, inv_root


def rel_cov_norm(estimate, truth):
    """Whitened covariance error  || T^{-1/2} E T^{-1/2} - I ||_F.

    For singular truth the norm is computed inside truth's column space;
    estimate mass outside that space beyond RANGE_TOL raises RangeMismatch.
    """
    e = as_sym_matrix(estimate)
    basis, inv_root = _whitening_basis(truth)
    if basis.shape[1] == 0:
        if np.linalg.norm(e) > 0.0:
            raise RangeMismatch("estimate is nonzero but truth has rank zero")
        return 0.0
    inside = basis @ (basis.T @ e @ basis) @ basis.T
    e_norm = np.linalg.norm(e)
    if np.linalg.norm(e - inside) > RANGE_TOL * max(e_norm, np.finfo(np.float64).tiny):
        raise RangeMismatch("estimate has mass outside the truth's column space")
    white = (inv_root[:, None] * (basis.T @ e @ basis)) * inv_root[None, :]
    white[np.diag_indices_from(white)] -= 1.0
    return float(np.linalg.norm(white))


def rel_mean_norm(mu_hat, mu, truth):
    """Whitened mean error  || T^{-1/2} (mu_hat - mu) ||_2  (see rel_cov_norm)."""
    x = np.asarray(mu_hat, dtype=np.float64) - np.asarray(mu, dtype=np.float64)
    if x.ndim != 1:
        raise InvalidArgument("means must be vectors")
    if not np.all(np.isfinite(x)):
        raise InvalidArgument("mean difference contains NaN or Inf")
    basis, inv_root = _whitening_basis(truth)
    inside = basis @ (basis.T @ x)
    x_norm = np.linalg.norm(x)
    if np.linalg.norm(x - inside) > RANGE_TOL * max(x_norm, np.finfo(np.float64).tiny):
        raise RangeMismatch("mean difference has mass outside the truth's column space")
    return float(np.linalg.norm(inv_root * (basis.T @ x)))


def top_k_projector(spectrum: Spectrum, k) -> Projector:
    """Projector onto the span of the top-k eigenvectors."""
    d = spectrum.dim
    if not 0 <= k <= d:
        raise InvalidArgument(f"k={k} out of range [0, {d}]")
    b = spectrum.eigenvectors[:, :k]
    p = b @ b.T
    return Projector(0.5 * (p + p.T), rank=k)


def spd_inverse(m):
    """Inverse of a symmetric positive-definite matrix via its spectrum."""
    spec = sym_eig(m)
    if spec.eigenvalues[-1] <= 0.0:
        raise DegenerateSpectrum("matrix is not positive definite")
    v = spec.eigenvectors
    inv = (v / spec.eigenvalues) @ v.T
    return 0.5 * (inv + inv.T)


def symmetric_polar_factor(a):
    """SPD factor S = (A^T A)^{1/2} of an invertible matrix A.

    A = Q S with Q orthogonal, so A M A^T and S M S share eigenvalues for
    symmetric M; the preconditioner uses this to keep its accumulated map
    symmetric positive definite without changing any conditioning claim.
    """
    a = np.asarray(a, dtype=np.float64)
    spec = sym_eig(a.T @ a)
    if spec.eigenvalues[-1] <= 0.0:
        raise DegenerateSpectrum("matrix is singular; no SPD polar factor")
    v = spec.eigenvectors
    s = (v * np.sqrt(spec.eigenvalues)) @ v.T
    return 0.5 * (s + s.T)
