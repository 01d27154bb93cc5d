"""Randomized privacy primitives with a seedable randomness contract.

Budgets are (epsilon, delta) pairs; every mechanism draws its noise from an
explicit RandomSource so that a fixed (seed, stream path) reproduces outputs
bit for bit.  The stream is the identity of a release and carries the run's
ledger: every mechanism charges the Accountant its stream shares with its
root, in the same call that draws the noise, under the stream's ``name``
(its path joined with "/").  So no release goes uncharged, the ledger's
labels are the call tree's stream paths, and two releases never share a
label.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import BottomReleased, InvalidArgument


@dataclass(frozen=True)
class PrivacyBudget:
    """An (epsilon, delta) differential-privacy budget, with epsilon > 0
    and 0 < delta < 1, so every budget can be spent by either mechanism."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise InvalidArgument(f"epsilon must be positive and finite, got {self.epsilon}")
        if not (0.0 < self.delta < 1.0):
            raise InvalidArgument(f"delta must lie in (0, 1), got {self.delta}")

    def scaled(self, factor):
        return PrivacyBudget(self.epsilon * factor, self.delta * factor)


def check_beta(beta):
    """Raise InvalidArgument unless the failure probability ``beta`` lies in
    (0, 1); every entry point that takes a beta calls this."""
    if not 0.0 < beta < 1.0:
        raise InvalidArgument(f"beta must lie in (0, 1), got {beta}")


@functools.lru_cache(maxsize=1024, typed=True)
def _hash_label(label):
    """Two 32-bit words of a hash of ``repr(label)``.  Memoized: a floor-d2
    estimate hashes 62 labels, nearly all repeats.  ``typed`` keeps labels
    that compare equal but print differently, such as 1, True and 1.0,
    apart."""
    digest = hashlib.blake2b(repr(label).encode("utf-8"), digest_size=8).digest()
    return (
        int.from_bytes(digest[:4], "little"),
        int.from_bytes(digest[4:], "little"),
    )


# Words in SeedSequence's entropy pool; a spawned sequence's run entropy is
# padded with zero words to this length before its spawn key's words.
_POOL_WORDS = np.random.SeedSequence(0).pool_size


def _int_words(n):
    """A non-negative int as little-endian 32-bit words, [0] for 0: the
    words SeedSequence reads an int's entropy as."""
    words = [n & 0xFFFFFFFF]
    n >>= 32
    while n:
        words.append(n & 0xFFFFFFFF)
        n >>= 32
    return words


class RandomSource:
    """A seeded, hierarchically splittable random stream and its run's ledger.

    Identical (seed, stream path) always reproduce the same draw sequence;
    children derived with distinct labels are statistically independent.
    Each instance owns one generator, consumed sequentially.  ``path`` is the
    tuple of labels the stream was derived with and ``name`` that path joined
    with "/" (the root's is "").  A root stream owns ``ledger``, the
    Accountant passed in or a fresh one, and every child shares its
    parent's; mechanisms ``charge`` their releases to it under ``name``.

    A stream's generator is PCG64 seeded by
    ``SeedSequence(entropy=seed, spawn_key=key)``, where the key is two
    32-bit words of a hash of each label on the path (labels are hashable:
    their hashes are memoized).  The path is the stream's only identity:
    the key is read from it when the generator is first built.  The
    generator is built from one uint32 array: the words SeedSequence
    assembles from that pair (the seed's words, padded with zeros to the
    pool size when the path is not empty, then the key's words), passed as
    the entropy.  The pool, and so every draw, is the same.  SeedSequence
    coerces a spawn key one word at a time, even one given as an array,
    which costs twice the rest of the construction; an entropy array it
    copies whole.
    """

    def __init__(self, seed, ledger=None, _path=()):
        # checked here, not at the first draw: mechanisms charge before they
        # draw, so a seed the generator rejects would leave a charge behind
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise InvalidArgument(f"seed must be a non-negative integer, got {seed!r}")
        self.seed = int(seed)
        self.ledger = Accountant() if ledger is None else ledger
        self.path = tuple(_path)
        self._generator = None

    @property
    def name(self):
        return "/".join(map(str, self.path))

    def child(self, *labels) -> "RandomSource":
        return RandomSource(self.seed, self.ledger, self.path + labels)

    def charging_to(self, ledger):
        """This stream continued, with its and its children's releases
        charged to ``ledger``; None keeps this stream's own.  The result
        has the same seed and path and shares the generator, so its draws
        follow this stream's and none repeats."""
        if ledger is None:
            return self
        rebound = RandomSource(self.seed, ledger, self.path)
        rebound._generator = self.generator
        return rebound

    def charge(self, budget, mechanism, sensitivity):
        """Record a release drawn from this stream in the ledger, under ``name``."""
        self.ledger.charge(self.name, budget, mechanism, sensitivity)

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            words = _int_words(self.seed)
            if self.path:
                words += [0] * (_POOL_WORDS - len(words))
                for label in self.path:
                    words += _hash_label(label)
            seq = np.random.SeedSequence(np.array(words, dtype=np.uint32))
            self._generator = np.random.Generator(np.random.PCG64(seq))
        return self._generator

    def normal(self, scale=1.0, size=None):
        return self.generator.normal(0.0, scale, size=size)

    def standard_normal(self, size=None):
        return self.generator.standard_normal(size=size)

    def laplace(self, scale, size=None):
        return self.generator.laplace(0.0, scale, size=size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.generator.uniform(low, high, size=size)


@dataclass(frozen=True)
class LedgerEntry:
    label: str  # name of the stream the release drew its noise from
    budget: PrivacyBudget
    mechanism: str
    sensitivity: float


@dataclass
class Accountant:
    """Append-only ledger of privacy charges, one entry per release.

    A run's ledger rides on its root RandomSource, and every stream derived
    from that root charges it.  Each entry's label is the name of the
    stream the release drew its noise from, e.g.
    ``precondition/coarse/1/subspace/center/0/hist/1``, so the labels mirror
    the call tree and are unique within one run.  Every entry names its
    ``mechanism``, one of two, and its ``sensitivity``, how far one swapped
    row can move the released statistic in that mechanism's norm: L2 for
    ``gaussian`` (Frobenius for a matrix, the L2 norm of its flattened
    entries) and L1 for ``stable_histogram``; the noise scale follows from
    it and the budget.  The charges compose by basic composition only:
    ``total`` is the sum of the epsilons and the sum of the deltas, as
    floats, not a budget.  Every budget in the package is split by
    ``plan_shares``, whose equal basic shares sum to at most the parent
    budget, so the total of a ledger filled by any entry point is at most
    the budget passed to it.
    """

    _entries: list = field(default_factory=list)

    @property
    def entries(self):
        return tuple(self._entries)

    def charge(self, label, budget: PrivacyBudget, mechanism, sensitivity):
        self._entries.append(LedgerEntry(str(label), budget, mechanism, sensitivity))

    def total(self):
        """(sum eps_t, sum delta_t); an empty ledger totals (0, 0).

        fsum is the correctly rounded sum, so the total is exactly invariant
        under ledger permutation.
        """
        return (
            math.fsum(e.budget.epsilon for e in self._entries),
            math.fsum(e.budget.delta for e in self._entries),
        )


@dataclass(frozen=True)
class SharePlan:
    """Per-call budget for a fixed number of calls: the equal basic share
    (eps / calls, delta / calls), rounded down so that the calls compose to
    at most the parent budget."""

    per_call: PrivacyBudget


def _share(total, calls):
    """total / calls, stepped down an ulp at a time until ``calls`` copies
    sum exactly to at most ``total``; the rounded quotient alone can sum
    past it."""
    share = total / calls
    while Fraction(share) * calls > Fraction(total):
        share = math.nextafter(share, 0.0)
    return share


@functools.lru_cache(maxsize=256, typed=True)
def plan_shares(budget: PrivacyBudget, calls) -> SharePlan:
    """The one way a budget is split among ``calls`` subroutine calls.

    A pure function of a frozen budget and a count, so it is memoized: one
    estimate asks for the same few splits dozens of times, and each runs
    ``_share``'s exact-fraction loop.  Both the key and the returned plan
    are immutable, so every caller may share one plan."""
    if calls < 1:
        raise InvalidArgument("need at least one call")
    return SharePlan(PrivacyBudget(_share(budget.epsilon, calls), _share(budget.delta, calls)))


def gaussian_sigma(sensitivity, budget: PrivacyBudget):
    """Noise scale of the Gaussian mechanism: sigma^2 = 2 s^2 ln(2/delta) / eps^2.

    This is the classic calibration, proved for eps < 1 (Dwork and Roth
    2014, Thm A.1).  Beyond it the claim fails eventually: by the exact
    Gaussian privacy profile (Balle and Wang 2018) it holds at delta = 1e-6
    only up to eps of about 9.7, and at eps = 10 the true delta is about
    1.15e-6.  ``PrivacyBudget`` accepts any eps > 0, so a Gaussian release
    at eps >= 1 is outside the proved range."""
    if not (math.isfinite(sensitivity) and sensitivity > 0.0):
        raise InvalidArgument(f"sensitivity must be positive and finite, got {sensitivity}")
    return sensitivity * math.sqrt(2.0 * math.log(2.0 / budget.delta)) / budget.epsilon


def gaussian_mechanism(values, sensitivity, budget, rng: RandomSource):
    """Add calibrated iid Gaussian noise to a statistic with known l2 sensitivity."""
    v = np.asarray(values, dtype=np.float64)
    sigma = gaussian_sigma(sensitivity, budget)
    rng.charge(budget, "gaussian", sensitivity)
    return v + rng.normal(scale=sigma, size=v.shape)


def gue_mechanism(matrix, sensitivity, budget, rng: RandomSource):
    """Add symmetric Gaussian noise calibrated to a d x d statistic's
    Frobenius sensitivity: the Frobenius norm is the L2 norm of the d^2
    entries, so ``gaussian_mechanism`` on the whole matrix is the Gaussian
    mechanism exactly, and mirroring its noisy upper triangle is
    post-processing.  For a symmetric ``matrix`` the noise's entries i <= j
    are iid N(0, sigma^2), mirrored."""
    noisy = gaussian_mechanism(matrix, sensitivity, budget, rng)
    return np.triu(noisy) + np.triu(noisy, 1).T


@dataclass(frozen=True)
class BucketScheme:
    """Quarter-octave buckets [2^{k/4}, 2^{(k+1)/4}) over (0, inf), keyed by
    the int k, plus the distinguished zero bucket [0, 0] keyed by ZERO;
    negative values are rejected.  ZERO sorts below every other key.

    Edge k is ``ldexp(QUARTERS[k % 4], k // 4)``: a correctly rounded
    quarter power of two, scaled exactly (rounded once where the edge is
    subnormal), and +inf where it overflows."""

    ZERO = np.iinfo(np.int64).min  # key of the zero bucket, a Python int
    QUARTERS = (1.0, 2.0**0.25, 2.0**0.5, 2.0**0.75)

    def _edge(self, key):
        try:
            return math.ldexp(self.QUARTERS[key % 4], key // 4)
        except OverflowError:
            return math.inf

    def keys(self, values):
        """int64 bucket key of each value: ZERO for 0, otherwise the k with
        value in [edge k, edge k + 1).  A value x in [2^e, 2^{e+1}), with
        e one less than ``np.frexp``'s exponent, has key 4e plus the number
        of its octave's three inner edges, ``np.ldexp(q, e)``, that it
        reaches.  Those are the very floats ``bounds`` returns, so every
        key's bounds contain its value, subnormals included."""
        v = np.asarray(values, dtype=np.float64).ravel()
        if v.size and not np.all(np.isfinite(v)):
            raise InvalidArgument("histogram values must be finite")
        if v.size and np.any(v < 0.0):
            raise InvalidArgument("geometric scheme covers [0, inf) only")
        pos = v > 0.0
        out = np.full(v.size, self.ZERO, dtype=np.int64)
        x = v[pos]
        e = np.frexp(x)[1] - 1
        k = 4 * e.astype(np.int64)
        for q in self.QUARTERS[1:]:
            k += x >= np.ldexp(q, e)
        out[pos] = k
        return out

    def bounds(self, key):
        key = int(key)
        if key == self.ZERO:
            return 0.0, 0.0
        return self._edge(key), self._edge(key + 1)


def bucket_counts(keys):
    """{key: count} of the occupied buckets among int ``keys``, keyed by
    Python ints."""
    uniq, counts = np.unique(keys, return_counts=True)
    return dict(zip(uniq.tolist(), counts.tolist()))


def stable_release_threshold(budget: PrivacyBudget):
    """Noisy-count release threshold 1 + 2 ln(2/delta) / eps."""
    return 1.0 + 2.0 * math.log(2.0 / budget.delta) / budget.epsilon


def release_floor(per_histogram: PrivacyBudget):
    """Points a histogram released at ``per_histogram``, the share its
    caller already split off, needs so that a dataset split over two
    adjacent buckets still clears the release threshold with margin: four
    times the threshold, rounded up."""
    return math.ceil(4.0 * stable_release_threshold(per_histogram))


def stable_counts(counts, budget: PrivacyBudget, rng: RandomSource):
    """Core stability-based release: Laplace(2/eps) noise on occupied
    buckets, keep those whose noisy count clears the threshold.

    ``counts`` maps int bucket key -> true count (> 0), as ``bucket_counts``
    makes it.  Only occupied buckets are ever candidates, so empty buckets
    can never be released.  Noise is drawn in increasing key order; returns
    {key: noisy_count}, deterministic given the stream.  The release is
    charged to ``rng``'s ledger before any noise is drawn.
    """
    threshold = stable_release_threshold(budget)
    # a swapped row moves one count down and another up: L1 sensitivity 2
    sensitivity = 2.0
    rng.charge(budget, "stable_histogram", sensitivity)
    keys = sorted(counts)
    if not keys:
        return {}
    noise = rng.laplace(sensitivity / budget.epsilon, size=len(keys))
    released = {}
    for key, eta in zip(keys, noise):
        noisy = counts[key] + eta
        if noisy > threshold:
            released[key] = float(noisy)
    return released


def heaviest(released, what):
    """The released key with the largest noisy count, ties toward the
    smaller key; raises BottomReleased(``what``) when nothing was released."""
    if not released:
        raise BottomReleased(what)
    return min(released, key=lambda key: (-released[key], key))
