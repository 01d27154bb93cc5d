"""Dense symmetric linear algebra used by every estimation stage.

Everything here is deterministic and privacy-free: the Gram stack of
every block of m rows, the last holding the rows left over (unit-stride
BLAS dots of at most DOT_TERMS terms per block and column pair over a
transposed, 64-byte-aligned copy of the rows, independent of the rows'
base address and of the BLAS thread count, with each column's largest
absolute entry fused into the first stack of a row array and cached by
``MappedRows``), the certificates that bound every row's squared norm
without reading the rows (``sq_norms`` of those column maxima for the raw
rows, ``sq_norm_bounds`` from a cached stack, which covers every row, for
mapped rows, so a view's rows are read only when its certificate fails),
batched eigendecomposition (one closed-form rotation per 2 x 2 matrix,
LAPACK's ``numpy.linalg.eigh`` from d = 3 on), the one positive-definiteness
check (``positive_spectrum``), spectral projectors, the PSD-cone projection,
and the whitened (relative) error norms that score estimates against a
positive-definite truth.  Matrices are plain float64 ``numpy`` arrays;
construction helpers symmetrize and validate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSpectrum, InvalidArgument, InvalidMatrix

MAX_DIM = 256


def as_sym_matrix(m):
    """Validate and symmetrize a square matrix, returning a float64 copy.

    Raises InvalidMatrix for empty/non-square/non-finite input and for
    dimensions above MAX_DIM; symmetrization averages ``m`` with its
    transpose so the result is exactly symmetric.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise InvalidMatrix(f"expected a non-empty square matrix, got shape {a.shape}")
    if a.shape[0] > MAX_DIM:
        raise InvalidMatrix(f"dimension {a.shape[0]} exceeds the supported cap {MAX_DIM}")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("matrix contains NaN or Inf entries")
    return 0.5 * (a + a.T)


def sym_eig_batch(mats, vectors=True):
    """Eigendecompose a stack of symmetric matrices.

    Returns (values, vectors) with values sorted non-increasing per matrix
    and vectors as aligned columns; pass ``vectors=False`` to compute the
    values only (vectors is None).  A (b, 2, 2) stack takes one symmetric
    Schur rotation per matrix (``_schur_2x2``): at d = 2 the coarse step
    decomposes about 20,000 matrices per call, and LAPACK's per-call
    overhead, about 0.4 us a matrix, costs more than the rotation itself.
    From d = 3 on the stack goes to LAPACK (``numpy.linalg.eigh``, or
    ``eigvalsh`` for values only).  Raises InvalidMatrix on non-finite 2 x 2
    input and when LAPACK does not converge (as on NaN input).
    """
    a = np.asarray(mats, dtype=np.float64)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise InvalidMatrix(f"expected a (b, d, d) stack, got shape {a.shape}")
    if a.shape[1] == 2:
        return _schur_2x2(a, vectors)
    try:
        if not vectors:
            return np.linalg.eigvalsh(a)[:, ::-1], None
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise InvalidMatrix(f"eigendecomposition failed: {exc}") from exc
    return vals[:, ::-1], vecs[:, :, ::-1]


def _schur_2x2(a, vectors):
    """``sym_eig_batch`` of a (b, 2, 2) stack by the symmetric Schur
    rotation (Golub & Van Loan, sym.schur2) of each [[p, q], [q, r]]:

        tau = (r - p) / 2q,   t = sign(tau) / (|tau| + sqrt(1 + tau^2)),
        c = 1 / sqrt(1 + t^2),   s = t c,

    so the rotation [[c, s], [-s, c]] takes it to diag(p - t q, r + t q),
    with eigenvectors (c, -s) and (s, c).  q = 0 gives tau = inf and t = 0,
    and tau^2 overflowing to inf gives t = 0 too, where t q is below the
    rounding of p and r.  Each step is one correctly rounded +, -, *, / or
    sqrt on whole columns, written into the output arrays in place; the
    vectors' four columns hold the intermediates until the end.
    """
    if not np.isfinite(a).all():
        raise InvalidMatrix("matrix contains NaN or Inf entries")
    n = a.shape[0]
    p, q, r = a[:, 0, 0], a[:, 0, 1], a[:, 1, 1]
    vals = np.empty((n, 2))
    hi, lo = vals[:, 0], vals[:, 1]
    if vectors:
        vecs = np.empty((n, 2, 2))
        u, w, v, x = vecs.reshape(n, 4).T  # entries (0, 0), (0, 1), (1, 0), (1, 1)
    else:
        vecs = None
        v, x = np.empty((2, n))
    tau, t = v, x
    with np.errstate(over="ignore"):
        # halves first, so that r - p cannot overflow
        np.multiply(r, 0.5, out=hi)
        np.multiply(p, 0.5, out=lo)
        hi -= lo
        tau.fill(np.inf)
        np.divide(hi, q, out=tau, where=q != 0.0)
        np.multiply(tau, tau, out=t)
        t += 1.0
        np.sqrt(t, out=t)
        np.copysign(t, tau, out=t)
        t += tau
        np.divide(1.0, t, out=t)
    if vectors:
        c, s = u, w
        np.multiply(t, t, out=c)
        c += 1.0
        np.sqrt(c, out=c)
        np.divide(1.0, c, out=c)
        np.multiply(t, c, out=s)
    t *= q
    np.add(r, t, out=hi)
    np.subtract(p, t, out=lo)
    # order each pair non-increasing, through the free tau column
    flip = lo > hi
    np.copyto(tau, hi)
    np.copyto(hi, lo, where=flip)
    np.copyto(lo, tau, where=flip)
    if not vectors:
        return vals, None
    # the first eigenvector (u, v) is (s, c), or (c, -s) where flipped; the
    # second is (-v, u)
    np.copyto(v, c)
    np.negative(s, out=v, where=flip)
    np.copyto(u, s, where=~flip)
    np.copyto(x, u)
    np.negative(v, out=w)
    return vals, vecs


def sq_norms(block):
    """Squared norms of the rows of a 2-D block, as float64: the squared
    columns summed in order, b_0 * b_0 + b_1 * b_1 + ...  Each step is one
    correctly rounded elementwise operation, so a row's value depends only
    on its own entries, never on its block or the block's memory layout."""
    b = np.asarray(block, dtype=np.float64)
    out = b[:, 0] * b[:, 0]
    for j in range(1, b.shape[1]):
        out += b[:, j] * b[:, j]
    return out


# Rows per block of a blocked pass over the rows; bounds its temporaries.
BLOCK_ROWS = 1 << 14

# Rows per block of the subsample layout never drop below this many times d.
MIN_ROWS_PER_DIM = 4

# Terms per BLAS dot in gram_stack; OpenBLAS threads a dot only above 10,000.
DOT_TERMS = 1 << 13


def _aligned(d, rows):
    """An uninitialised (d, rows) float64 array whose data starts on a
    64-byte boundary."""
    raw = np.empty(d * rows + 7)
    start = (-raw.ctypes.data % 64) // raw.itemsize
    return raw[start : start + d * rows].reshape(d, rows)


def gram_stack(x, m, norms=True):
    """Unscaled second-moment matrices X_j^T X_j of every block of m
    consecutive rows of the (n, d) float64 array ``x``, m >= 1, as a
    (ceil(n / m), d, d) stack whose last block holds the n mod m rows left
    over, if any, and the largest absolute entry of each column, as a (d,)
    array M, or None when ``norms`` is false and the caller already holds
    it.  The first t blocks are the subsample layout of eigenvalue
    estimation and subspace recovery (see ``MappedRows.gram_stack``).

    One pass copies the rows, transposed, into one reused (d, rows) buffer,
    whole blocks at a time: as many as fit in the values of the two
    row-long temporaries of ``sq_norms`` over the whole blocks a
    BLOCK_ROWS-row block holds.  Where not one fits, it takes one block's
    rows min(m, DOT_TERMS) at a time.  The leftover block's missing rows
    are zeros in the buffer, which add exactly nothing to a dot and move
    neither column extreme.  Entry (i, j) of each block is the unit-stride
    BLAS dot product of buffer rows i and j (``np.vecdot``); above
    DOT_TERMS rows per block it is the in-order sum of one dot per
    DOT_TERMS rows.  So each entry is at most K = min(m, DOT_TERMS) +
    ceil(m / DOT_TERMS) - 1 roundings from exact, within gamma_K (|X_j|^T
    |X_j|)_ij of it (see ``sq_norm_bounds``).  M is each buffer row's
    largest entry and negated smallest, fused into the same pass; with
    ``norms`` false no extreme is taken.

    The result is deterministic.  The buffer starts on a 64-byte boundary
    and every dot's operands start at an offset from it fixed by (d, n, m),
    so a BLAS kernel that splits its loop by alignment splits it the same
    way on every call, whatever the rows' base address.  No dot has more
    than DOT_TERMS terms, too few for BLAS to split across threads, so the
    BLAS thread count does not matter either.
    """
    n, d = x.shape
    t = -(-n // m)
    per_pass = 2 * (BLOCK_ROWS // m) // d  # whole blocks per fill
    if per_pass:
        span = min(per_pass, t) * m
        fills = ((lo, min(lo + per_pass, t), 0, m) for lo in range(0, t, per_pass))
    else:
        span = min(m, DOT_TERMS)
        fills = ((j, j + 1, c, min(c + span, m)) for j in range(t) for c in range(0, m, span))
    buf = _aligned(d, span)
    stack = np.empty((t, d, d))
    top, bottom = np.zeros((2, d))  # each column's largest entry and smallest, or 0
    for lo, hi, c0, c1 in fills:
        # rows c0:c1 of blocks lo:hi, one contiguous range of x
        rows = buf[:, : (hi - lo) * (c1 - c0)]
        src = x[lo * m + c0 : (hi - 1) * m + c1]
        np.copyto(rows[:, : len(src)], src.T)
        rows[:, len(src) :] = 0.0  # the leftover block's missing rows
        part = stack[lo:hi]
        for k in range(0, c1 - c0, DOT_TERMS):
            cols = rows.reshape(d, hi - lo, c1 - c0)[:, :, k : k + DOT_TERMS]
            for i in range(d):
                for j in range(i, d):
                    if c0 + k == 0:  # the block's first chunk
                        np.vecdot(cols[i], cols[j], out=part[:, i, j])
                    else:
                        part[:, i, j] += np.vecdot(cols[i], cols[j])
        for i in range(d):
            for j in range(i + 1, d):
                part[:, j, i] = part[:, i, j]  # one column at a time: no temporary copy
        if norms:
            np.maximum(top, np.maximum.reduce(rows, axis=1), out=top)
            np.minimum(bottom, np.minimum.reduce(rows, axis=1), out=bottom)
    if not norms:
        return stack, None
    return stack, np.maximum(top, np.negative(bottom))


# Range of ``sq_norm_bounds``: blocks of at most CERT_MAX_ROWS rows in at
# most MAX_DIM dimensions, and traces and map scales of at least CERT_FLOOR.
CERT_MAX_ROWS = DOT_TERMS * DOT_TERMS
CERT_FLOOR = 2.0**-500


def _gamma(k):
    """gamma_k = k u / (1 - k u), u = 2^-53: the relative error bound of k
    successive roundings (Higham, Accuracy and Stability, 3.1)."""
    u = 2.0**-53
    return k * u / (1.0 - k * u)


def _cert_eta():
    """The least power of two at least twice the margin that the proof in
    ``sq_norm_bounds`` needs at the largest roundings it covers: K roundings
    per Gram entry at m = CERT_MAX_ROWS, and d = MAX_DIM."""
    u, d = 2.0**-53, MAX_DIM
    k = DOT_TERMS + CERT_MAX_ROWS // DOT_TERMS - 1
    clip = _gamma(d) + (1.0 + _gamma(d)) * (2.0 * _gamma(d) + _gamma(d) ** 2)
    lost = _gamma(k) + (1.0 + _gamma(k)) * _gamma(d + 1) + _gamma(d * d) * (1.0 + _gamma(k)) * (1.0 + _gamma(d + 1))
    kept = (1.0 - _gamma(2 * d)) * (1.0 - _gamma(k)) * (1.0 - u - _gamma(d * d) * (1.0 + u))
    return 2.0 ** math.ceil(math.log2(2.0 * (clip + lost) / kept))


CERT_ETA = _cert_eta()  # 2^-35, about 2.9e-11


def sq_norm_bounds(stack, m, a):
    """Upper bounds on the squared norms ``sq_norms(block @ a)`` that the
    clip test computes for raw rows, from their Gram statistics: one bound
    per block of ``stack``, the raw (t, d, d) ``gram_stack`` of m-row
    blocks, so one for every row it covers.  None where the proof below
    does not hold: m > CERT_MAX_ROWS, d > MAX_DIM, or ||a||_F^2 or a
    block's trace below CERT_FLOOR, or a bound or trace that is not finite.

    A block's bound is <G^, w> = tr(a^T G^ a) + eta ||a||_F^2 tr(G^), with
    G^ its computed Gram matrix, w = a a^T + eta ||a||_F^2 I and
    eta = CERT_ETA: a (2, d^2) @ (d^2, t) product, whose second row is
    tr(G^).  No row is read.

    Soundness.  A row x_r of a block with exact Gram matrix G has
    ||x_r a||^2 <= Q = tr(a^T G a), since G - x_r^T x_r is PSD.  Write
    u = 2^-53, gamma_k = k u / (1 - k u), T = tr(G), A = ||a||_F^2 and |.|
    for entrywise absolute values; the rows' sum of
    (|x_r|^T |x_r|)_ik (|a| |a|^T)_ik over i, k is sum_r || |x_r| |a| ||^2,
    at most T A.  The leftover block of ``gram_stack`` is summed over m
    rows, its own and zero rows, which add nothing to G, |X|^T |X|, T or
    Q, so all that follows holds for it as for a full block.  Without
    underflow:

    * G^: each entry is at most K = min(m, DOT_TERMS) + ceil(m / DOT_TERMS)
      - 1 roundings from exact (BLAS dots, in any order and with or without
      FMA, then the in-order sum of the chunks), so
      |G^ - G| <= gamma_K |X|^T |X| and tr(G^) >= (1 - gamma_K) T, and
      <G^, a a^T> >= Q - gamma_K T A;
    * forming w: fl(a a^T) is within gamma_d |a| |a|^T, its trace s is at
      least (1 - gamma_2d) A, eta s is exact (eta is a power of two), and
      adding it to the diagonal rounds once, so w = a a^T + E + eta s D
      with |E| <= gamma_{d+1} |a| |a|^T and D diagonal within u of I;
    * applying w: the d^2-term dot is within gamma_{d^2} sum |G^| |w|.

    So the computed bound is at least Q + T A (eta (1 - gamma_2d)(1 -
    gamma_K)(1 - u - gamma_{d^2} (1 + u)) - gamma_K - (1 + gamma_K)
    gamma_{d+1} - gamma_{d^2} (1 + gamma_K)(1 + gamma_{d+1})).  On the
    clip test's side, each entry of fl(x_r a) is within
    gamma_d (|x_r| |a|)_l, so its norm is within gamma_d ||x_r|| sqrt(A) of
    ||x_r a||, and ``sq_norms`` adds at most a factor 1 + gamma_d; with
    ||x_r||^2 <= T the computed value is at most Q + e T A,
    e = gamma_d + (1 + gamma_d)(2 gamma_d + gamma_d^2).  CERT_ETA is twice
    the eta at which the first margin reaches e, at m = CERT_MAX_ROWS
    (K = 16,383) and d = MAX_DIM, rounded up to a power of two: 2^-35
    where 9.2e-12 suffices.  The surplus, at least 9.2e-12 T A, covers
    underflow: with T and s at least CERT_FLOOR = 2^-500, every product
    that underflows loses at most 2^-1075, less than 2^-57 T A in all.
    Overflow leaves an inf or NaN, which returns None.  So every row's
    clip-test value is at most its block's bound, whatever BLAS kernel
    forms ``block @ a``.
    """
    t, d, _ = stack.shape
    if m > CERT_MAX_ROWS or d > MAX_DIM:
        return None
    # w and I, one row each
    cols = np.zeros((2, d, d))
    w = cols[0]
    np.matmul(a, np.transpose(a), out=w)
    s = np.trace(w)
    if not s >= CERT_FLOOR:
        return None
    w.flat[:: d + 1] += CERT_ETA * s
    cols[1].flat[:: d + 1] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        groups = cols.reshape(2, d * d) @ stack.reshape(t, d * d).T  # bounds, then traces
    bounds, traces = groups
    if not (np.isfinite(groups).all() and traces.min() >= CERT_FLOOR):
        return None
    return bounds


@dataclass
class _RowStats:
    """Statistics of one raw row array, each computed on first use."""

    stacks: dict = field(default_factory=dict)  # m -> gram_stack(x, m)[0], over every row
    moment: np.ndarray | None = None  # X^T X over all rows
    col_max: np.ndarray | None = None  # largest |entry| per column, from the first raw stack's pass


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

    Row norms are not quadratic statistics of the raw rows, and no view
    computes them until its ``sq_norm_bound`` fails to settle the clip
    decision.  The first raw stack's pass (see ``gram_stack``) takes each
    raw column's largest absolute entry, M, into the cache the views share:
    the identity view's bound is ``sq_norms`` of M, which monotone rounding
    puts at or above every row's value.  A mapped view's bound comes from
    the finest cached raw stack, which covers every row.  Where a bound fails,
    ``max_sq_norm`` reads the view's rows BLOCK_ROWS at a time in
    ``blocks``, once per view.
    Eigenvalues are not quadratic either: ``subsample_eigenvalues``
    decomposes the mapped stack once per view and layout.
    """

    def __init__(self, x, a=None, stats=None):
        self.x = x
        self.a = a
        self._stats = _RowStats() if stats is None else stats
        self._max_sq_norm = None
        self._eigenvalues = {}  # (t, m) -> subsample_eigenvalues(t, m)

    @classmethod
    def of(cls, x):
        """``x`` itself if it is a view, else a view of ``x`` as float64 rows."""
        if isinstance(x, cls):
            return x
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] == 0:
            raise InvalidArgument(f"expected an (n, d) sample matrix with d >= 1, got shape {x.shape}")
        return cls(x)

    @property
    def shape(self):
        return self.x.shape

    def mapped(self, b):
        """The view of these rows times ``b``, sharing this view's cache."""
        return MappedRows(self.x, b if self.a is None else self.a @ b, self._stats)

    def _map(self, s):
        """a^T S a of a symmetric matrix or (t, d, d) stack S, symmetrized,
        as two (t d, d) @ (d, d) BLAS products: the rows of S a, then those
        of (S a)^T = a^T S times a.  Each entry sums the products that
        a^T (S a) sums for its transpose; one batched ``np.matmul`` per
        factor took about twice as long at t = 5,369, d = 2."""
        if self.a is None:
            return s
        d = self.a.shape[0]
        right = (s.reshape(-1, d) @ self.a).reshape(-1, d, d)
        out = (right.swapaxes(-1, -2).reshape(-1, d) @ self.a).reshape(s.shape)
        return 0.5 * (out + np.swapaxes(out, -1, -2))

    def gram_stack(self, t, m):
        """The first t blocks of ``gram_stack`` of the mapped rows, blocks
        of m rows; InvalidArgument unless t, m >= 1 and t * m <= n.  The raw
        stack of every block is computed once per m, and fuses the raw
        columns' absolute maxima only while they are not yet cached."""
        n = self.x.shape[0]
        if t < 1 or m < 1 or t * m > n:
            raise InvalidArgument(f"a layout of {t} blocks of {m} rows does not fit {n} rows")
        stats = self._stats
        if m not in stats.stacks:
            stack, col_max = gram_stack(self.x, m, norms=stats.col_max is None)
            if col_max is not None:
                stats.col_max = _frozen(col_max)
            stats.stacks[m] = _frozen(stack)
        return self._map(stats.stacks[m][:t])

    def subsample_eigenvalues(self, t, m):
        """Eigenvalues of the subsample second moments ``gram_stack(t, m) /
        m`` of the mapped rows, non-increasing, as a read-only (t, d) array.
        They depend on the map, so they are cached per view and layout: a
        second request on the same view decomposes nothing."""
        if (t, m) not in self._eigenvalues:
            vals, _ = sym_eig_batch(self.gram_stack(t, m) / m, vectors=False)
            self._eigenvalues[(t, m)] = _frozen(vals)
        return self._eigenvalues[(t, m)]

    def moment(self):
        """Unscaled second moment X^T X of all mapped rows: the sum of a
        cached raw stack, which covers every row, or one product of the
        rows when none is cached."""
        stats = self._stats
        if stats.moment is None:
            full = next(iter(stats.stacks.values())).sum(axis=0) if stats.stacks else self.x.T @ self.x
            stats.moment = _frozen(0.5 * (full + full.T))
        return self._map(stats.moment)

    def blocks(self):
        """The mapped rows, BLOCK_ROWS at a time, each block ``x``'s own
        rows in its own layout times ``a``; the (n, d) product is never
        formed."""
        for start in range(0, self.x.shape[0], BLOCK_ROWS):
            block = self.x[start : start + BLOCK_ROWS]
            yield block if self.a is None else block @ self.a

    def sq_norm_bound(self):
        """An upper bound on every mapped row's ``sq_norms`` value as
        ``blocks`` computes it, or inf when the view has none at hand.
        Nothing is cached.

        Unmapped, it is ``sq_norms`` of the one row M of the raw columns'
        absolute maxima, which the first raw stack's pass cached; no row is
        read.  |x_rj| <= M_j for every row x_r, and correctly rounded * and
        + are monotone in each operand, so each step of ``sq_norms`` on x_r
        is at most the same step on M: no row's value exceeds the bound,
        with no margin, through underflow and overflow alike.  A NaN in the
        rows makes the bound NaN, which settles nothing.

        Mapped, it is the largest of ``sq_norm_bounds`` over the finest
        cached raw stack (the smallest m, so the most blocks); no row is
        read either."""
        stats = self._stats
        if self.a is None:
            if stats.col_max is None:
                return math.inf
            with np.errstate(over="ignore"):  # an inf bound settles nothing
                return float(sq_norms(stats.col_max[None])[0])
        stacks = stats.stacks
        if not stacks:
            return math.inf
        m = min(stacks)
        bounds = sq_norm_bounds(stacks[m], m, self.a)
        return math.inf if bounds is None else float(bounds.max())

    def max_sq_norm(self):
        """Largest ``sq_norms`` value of a mapped row (0.0 for no rows),
        exactly as it is computed over ``blocks``: one pass, made once per
        view."""
        if self._max_sq_norm is None:
            self._max_sq_norm = max((float(sq_norms(b).max()) for b in self.blocks()), default=0.0)
        return self._max_sq_norm


def sym_eig(m):
    """Full eigendecomposition of one symmetric matrix, as (values,
    vectors): the values, possibly negative, sorted non-increasing, and
    ``vectors[:, i]`` the unit eigenvector of ``values[i]``, so the matrix
    is ``vectors @ diag(values) @ vectors.T``."""
    vals, vecs = sym_eig_batch(as_sym_matrix(m)[None])
    return vals[0], vecs[0]


def outer_sym(left, right):
    """``left @ right.T`` averaged with its transpose, so exactly symmetric:
    the reassembly V diag(f(lambda)) V^T of a spectral function, given
    ``left`` = V * f(lambda) and ``right`` = V."""
    out = left @ right.T
    return 0.5 * (out + out.T)


def psd_project(m):
    """Frobenius-nearest PSD matrix: clip negative eigenvalues to zero."""
    vals, vecs = sym_eig(m)
    return outer_sym(vecs * np.maximum(vals, 0.0), vecs)


def positive_spectrum(m, what):
    """``sym_eig(m)``, (values, vectors), of a matrix that must be positive
    definite; raises DegenerateSpectrum naming ``what`` when its smallest
    eigenvalue is zero or negative."""
    vals, vecs = sym_eig(m)
    if vals[-1] <= 0.0:
        raise DegenerateSpectrum(f"{what} is not positive definite")
    return vals, vecs


def rel_cov_norm(estimate, truth):
    """Whitened covariance error  || T^{-1/2} E T^{-1/2} - I ||_F.

    The truth T must be positive definite (DegenerateSpectrum otherwise);
    it is whitened by its full eigenbasis.
    """
    e = as_sym_matrix(estimate)
    vals, vecs = positive_spectrum(truth, "truth")
    # matmul rounding depends on operand layout: both scorers hold the basis
    # Fortran-ordered, the layout every recorded score was computed with
    basis = np.asfortranarray(vecs)
    inv_root = 1.0 / np.sqrt(vals)
    white = (inv_root[:, None] * (basis.T @ e @ basis)) * inv_root[None, :]
    return float(np.linalg.norm(white - np.eye(len(white))))


def rel_mean_norm(mu_hat, mu, truth):
    """Whitened mean error  || T^{-1/2} (mu_hat - mu) ||_2  against a
    positive-definite truth T (see rel_cov_norm)."""
    x = np.asarray(mu_hat, dtype=np.float64) - np.asarray(mu, dtype=np.float64)
    if x.ndim != 1:
        raise InvalidArgument("means must be vectors")
    if not np.all(np.isfinite(x)):
        raise InvalidArgument("mean difference contains NaN or Inf")
    vals, vecs = positive_spectrum(truth, "truth")
    inv_root = 1.0 / np.sqrt(vals)
    return float(np.linalg.norm(inv_root * (np.asfortranarray(vecs).T @ x)))


def top_k_projector(vectors, k):
    """The (d, d) projector onto the span of the first k columns of the
    (d, d) eigenvectors ``vectors``, as ``sym_eig`` orders them: the top-k
    eigenspace."""
    d = vectors.shape[1]
    if not 0 <= k <= d:
        raise InvalidArgument(f"k={k} out of range [0, {d}]")
    b = vectors[:, :k]
    return outer_sym(b, b)


def spd_inverse(m):
    """Inverse of a symmetric positive-definite matrix via its spectrum."""
    vals, vecs = positive_spectrum(m, "matrix")
    return outer_sym(vecs / vals, vecs)


def symmetric_polar_factor(a):
    """SPD factor S = (A^T A)^{1/2} of an invertible matrix A.

    A = Q S with Q orthogonal, so A M A^T and S M S share eigenvalues for
    symmetric M; the preconditioner uses this to keep its accumulated map
    symmetric positive definite without changing any conditioning claim.
    """
    a = np.asarray(a, dtype=np.float64)
    vals, vecs = positive_spectrum(a.T @ a, "A^T A")
    return outer_sym(vecs * np.sqrt(vals), vecs)
