"""Per-layer spans recorded from outside the library.

The tracer replaces each public function at the name its caller looks it up
by, records a span (name, start, end, parent, counts) per call in memory, and
puts the original functions back on ``uninstall`` so untraced passes run
unwrapped code.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from time import perf_counter

from privgauss import ball_finder, dp_core, eigenvalues, linalg, naive, precondition, subspace


def _eigenvalue_counts(args, result):
    return {"t": result.subsample_count}


def _no_counts(args, result):
    return {}


def _subspace_counts(args, result):
    x = args["x"]
    params = subspace.subspace_params(
        x.shape[0], x.shape[1], args["k"], args["gamma"], args["psi"], args["budget"], args["beta"]
    )
    return {"t": params.t, "q": params.q}


def _ball_counts(args, result):
    return {"points": len(args["points"])}


def _eig_batch_counts(args, result):
    return {"matrices": len(args["mats"])}


def _clip_counts(args, result):
    x = args["x"]
    rows, d = x.shape
    kept = rows - result[1]
    # bytes the clip reads (every row, for its norm) plus the kept rows it
    # gathers into a copy before the product
    return {"rows": rows, "bytes": x.nbytes + kept * d * x.itemsize}


def _stable_counts(args, result):
    return {"buckets": len(args["counts"]), "released": len(result), "bottom": int(not result)}


def _keys_counts(args, result):
    return {"values": len(result)}


def _precondition_counts(args, result):
    counts = {}
    for step in result.steps:
        key = "steps." + step.kind.replace("+", "_")
        counts[key] = counts.get(key, 0) + 1
    return counts


# (owner, attribute, span name, counts of one call).  Each entry is the name
# a caller looks the function up by, so one function can appear twice.
BINDINGS = (
    (precondition, "precondition", "precondition", _precondition_counts),
    (precondition, "estimate_eigenvalues", "eigenvalues", _eigenvalue_counts),
    (naive, "estimate_eigenvalues", "eigenvalues", _eigenvalue_counts),
    (precondition, "naive_estimate", "naive", _no_counts),
    (naive, "naive_estimate", "naive", _no_counts),
    (naive, "clipped_second_moment", "naive.clip", _clip_counts),
    (subspace, "recover_subspace", "subspace", _subspace_counts),
    (ball_finder, "find_center", "ball_finder", _ball_counts),
    (linalg, "sym_eig_batch", "linalg.eig_batch", _eig_batch_counts),
    (linalg, "sym_eig", "linalg.sym_eig", _no_counts),
    (eigenvalues, "stable_counts", "dp_core.stable_counts", _stable_counts),
    (ball_finder, "stable_counts", "dp_core.stable_counts", _stable_counts),
    (dp_core.BucketScheme, "keys", "dp_core.keys", _keys_counts),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.counts = {}


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self._saved = []

    def install(self):
        for owner, attr, name, counts in BINDINGS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counts))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name, counts):
        signature = inspect.signature(original)

        def traced(*args, **kwargs):
            span = Span(name, perf_counter(), self._open[-1] if self._open else None)
            self.spans.append(span)
            self._open.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                self._open.pop()
                span.end = perf_counter()
            span.counts = counts(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def totals(self):
        """Per span name: summed duration (``s``), self time (``self_s``),
        call count (``calls``) and every summed count, keyed ``name.key``."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[id(span.parent)] += span.end - span.start
        out = defaultdict(float)
        for span in self.spans:
            duration = span.end - span.start
            out[f"{span.name}.s"] += duration
            out[f"{span.name}.self_s"] += duration - child_time[id(span)]
            out[f"{span.name}.calls"] += 1
            for key, value in span.counts.items():
                out[f"{span.name}.{key}"] += value
        return out
