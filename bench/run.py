"""Benchmark of the end-to-end covariance estimator on seeded unbounded Gaussians.

Usage, from the repository root:

    python3 bench/run.py --workload fine-d3 --seed 1 --seconds 45 --trace 0

``--trace 0`` times estimates with no tracing and prints the end-to-end
metrics; ``--trace 1`` pairs every untraced estimate with a traced one and
prints the per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See bench/README.md for the workloads and what each metric should move.
"""

import os

# One process on one thread, BLAS included, so that the CPU time of an
# estimate is the time it keeps one CPU busy.  Set before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from privgauss import linalg  # noqa: E402
from privgauss.dp_core import Accountant  # noqa: E402
from privgauss.errors import PrivGaussError  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# CPU time of the process so far: interpreter start-up and imports.
IMPORT_S = time.process_time()

SETUP_REPEATS = 3
DRAWS_PER_RUN = 8
# The fixed list of distinct estimates is sized to fill this share of
# --seconds at the workload's nominal cost; replicates fill the rest.
LIST_SHARE = 0.6
# Relative tolerance of the symmetry and PSD checks on Sigma_hat.
CHECK_TOL = 1e-10
# JSON has no infinity; a median that is +inf is printed as the largest float.
INF_AS = sys.float_info.max


@dataclass
class Outcome:
    job: int
    draw: int
    wall_s: float
    cpu_s: float
    sigma_hat: np.ndarray | None
    error: PrivGaussError | None
    ledger: Accountant


def run_job(data, job, draw=0):
    """One estimate: job j runs on dataset j mod len(sizes) with estimator seed j.

    The estimator seed does not depend on --seed, so every run and every
    commit draws the same privacy noise and only the data vary.
    """
    rows, _, sizes = data
    raw = rows[: sizes[job % len(sizes)]]
    accountant = Accountant()
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        sigma_hat, error = workloads.estimate_covariance(raw, job, accountant), None
    except PrivGaussError as exc:
        sigma_hat, error = None, exc
    cpu = time.process_time() - cpu
    wall = time.perf_counter() - wall
    print(f"job {job}: {cpu:.3f} s CPU, {'ok' if error is None else repr(error)}", file=sys.stderr)
    return Outcome(job, draw, wall, cpu, sigma_hat, error, accountant)


def check(outcome, problems):
    """Ledger within budget on every estimate; Sigma_hat finite, symmetric, PSD."""
    eps, delta = outcome.ledger.total()
    if eps > workloads.BUDGET.epsilon or delta > workloads.BUDGET.delta:
        problems.append(f"job {outcome.job}: ledger total ({eps}, {delta}) exceeds the budget")
    s = outcome.sigma_hat
    if s is None:
        return
    if not np.all(np.isfinite(s)):
        problems.append(f"job {outcome.job}: Sigma_hat is not finite")
        return
    scale = np.linalg.norm(s)
    if np.linalg.norm(s - s.T) > CHECK_TOL * scale:
        problems.append(f"job {outcome.job}: Sigma_hat is not symmetric")
    if np.linalg.eigvalsh(0.5 * (s + s.T))[0] < -CHECK_TOL * scale:
        problems.append(f"job {outcome.job}: Sigma_hat is not PSD")


def check_same(first, second, problems):
    """Two estimates of one job must agree bit for bit, or fail alike."""
    if first.sigma_hat is None or second.sigma_hat is None:
        same = repr(first.error) == repr(second.error)
    else:
        same = np.array_equal(first.sigma_hat, second.sigma_hat)
    if not same:
        problems.append(f"job {first.job}: two estimates at one seed differ")


class Draws:
    """The workload's rows, one draw at a time; only the current draw is held."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.index = None
        self.data = None

    def load(self, index):
        if index != self.index:
            self.data = None  # let the previous draw go before the next one
            self.data = self.workload.generate(self.seed, index)
            self.index = index

    def run(self, job):
        return run_job(self.data, job, self.index)


def setup(draws):
    """Draw the first rows and warm up; repeated, and timed in CPU seconds as setup_s."""
    times = []
    for _ in range(SETUP_REPEATS):
        began = time.process_time()
        draws.index = None  # draw again, so that every repetition is timed in full
        draws.load(0)
        warm = workloads.WARMUP.generate(draws.seed)
        run_job(warm, len(warm[2]) - 1)  # the largest grid point
        del warm
        times.append(time.process_time() - began)
    return IMPORT_S + statistics.median(times)


class Jobs:
    """Every estimate of a run, grouped by job.

    A run attempts a fixed list of distinct jobs: ``passes`` whole passes over
    the workload's datasets, spread evenly over up to DRAWS_PER_RUN draws.
    The list depends only on the workload, --seconds and --trace, so two runs
    at one seed attempt the same jobs and fail on the same ones.  When the
    list has taken less than ``seconds`` of estimating, the jobs of the last
    draw are repeated in turn until it has; a repeat is a timing replicate,
    checked bit for bit against the job's first estimate, and not a new
    attempt.  Drawing is not counted.
    """

    def __init__(self, draws, seconds, trace, problems):
        self.draws = draws
        self.trace = trace
        self.problems = problems
        self.per_pass = len(draws.workload.sizes())
        cost = draws.workload.pass_cost_s * (1 + trace)
        self.passes = max(1, int(LIST_SHARE * seconds / cost))
        self.n_draws = min(DRAWS_PER_RUN, self.passes)
        self.plain = {}  # job -> untraced outcomes, first estimate first
        self.traced = {}  # job -> traced outcomes
        self.totals = []  # tracer totals of each job's first traced estimate
        self.errors = []  # rel_cov_norm of each job's first estimate, inf if it failed
        spent = 0.0
        last = []
        for p in range(self.passes):
            draw = p * self.n_draws // self.passes
            if draw != draws.index:
                draws.load(draw)
                last = []
            for job in range(p * self.per_pass, (p + 1) * self.per_pass):
                spent += self.attempt(job)
                last.append(job)
        turn = 0
        while spent < seconds:
            spent += self.attempt(last[turn % len(last)])
            turn += 1

    def attempt(self, job):
        """One untraced estimate of ``job`` and, when tracing, one traced; returns wall seconds."""
        outcome = self.draws.run(job)
        check(outcome, self.problems)
        seen = self.plain.setdefault(job, [])
        if seen:
            check_same(seen[0], outcome, self.problems)
        else:
            error = math.inf
            if outcome.sigma_hat is not None:
                error = linalg.rel_cov_norm(outcome.sigma_hat, self.draws.data[1])
            self.errors.append(error)
        seen.append(outcome)
        wall = outcome.wall_s
        if self.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = self.draws.run(job)
            finally:
                tracer.uninstall()
            check(traced, self.problems)
            check_same(outcome, traced, self.problems)
            if job not in self.traced:
                self.totals.append(tracer.totals())
            self.traced.setdefault(job, []).append(traced)
            wall += traced.wall_s
        return wall

    def firsts(self):
        return [seen[0] for seen in self.plain.values()]


def fastest(jobs, by_job, field="cpu_s"):
    """Median over the workload's datasets of the fastest successful estimate
    of each dataset in the run, repeats included.

    On a shared host, other work slows whole stretches of a run, in CPU time
    too; the fastest of many estimates of one dataset tracks the estimator's
    own cost.
    """
    best = {}
    for job, seen in by_job.items():
        if seen[0].sigma_hat is not None:
            dataset = job % jobs.per_pass
            best[dataset] = min(best.get(dataset, math.inf), *(getattr(o, field) for o in seen))
    if not best:
        raise SystemExit("no estimate succeeded, so estimate_s is undefined")
    return statistics.median(best.values())


def end_to_end(jobs, setup_s):
    draws = jobs.draws
    estimate_s = fastest(jobs, jobs.plain)

    # Memory pass: a successful job again, neither timed nor traced; one of
    # the current draw when there is one, so that nothing is drawn again.
    successes = [o for o in jobs.firsts() if o.sigma_hat is not None]
    first = next((o for o in successes if o.draw == draws.index), successes[0])
    draws.load(first.draw)
    tracemalloc.start()
    again = draws.run(first.job)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    check_same(first, again, jobs.problems)

    return {
        "estimate_s": (estimate_s, "s"),
        "peak_mb": (peak / 1e6, "MB"),
        "floor_rows": (workloads.floor_rows(draws.workload.d), "rows"),
        "setup_s": (setup_s, "s"),
    }


# Per-layer metrics read straight from Tracer.totals; the rest are derived below.
LAYER_TOTALS = (
    "naive.clip.s",
    "naive.clip.rows",
    "naive.clip.bytes",
    "naive.calls",
    "naive.self_s",
    "dp_core.keys.s",
    "dp_core.keys.values",
    "dp_core.stable_counts.calls",
    "linalg.eig_batch.s",
    "linalg.eig_batch.matrices",
    "linalg.sym_eig.calls",
    "linalg.sym_eig.s",
    "subspace.s",
    "subspace.self_s",
    "subspace.calls",
    "subspace.t",
    "subspace.q",
    "ball_finder.s",
    "ball_finder.calls",
    "ball_finder.points",
    "eigenvalues.s",
    "eigenvalues.self_s",
    "eigenvalues.calls",
    "eigenvalues.t",
    "precondition.self_s",
    "precondition.steps.skip",
    "precondition.steps.fine",
    "precondition.steps.coarse",
    "precondition.steps.coarse_fine",
)


def layer_unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def per_layer(jobs):
    totals = jobs.totals
    count = len(totals)
    metrics = {name: (sum(t[name] for t in totals) / count, layer_unit(name)) for name in LAYER_TOTALS}
    metrics["dp_core.bottom"] = (sum(t["dp_core.stable_counts.bottom"] for t in totals) / count, "count")
    buckets = sum(t["dp_core.stable_counts.buckets"] for t in totals)
    released = sum(t["dp_core.stable_counts.released"] for t in totals)
    metrics["dp_core.released_share"] = (released / buckets if buckets else 0.0, "share")
    firsts = jobs.firsts()
    traced = [seen[0] for seen in jobs.traced.values()]
    charges = sum(e.label.startswith("precondition") for o in traced for e in o.ledger.entries)
    metrics["precondition.charges"] = (charges / count, "count")
    for d, floor in workloads.published_floors().items():
        metrics[f"precondition.min_samples.d{d}"] = (floor, "rows")
    metrics["subspace.layout_raises"] = (workloads.layout_raises(), "count")
    overhead = fastest(jobs, jobs.traced) - fastest(jobs, jobs.plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["estimate.wall_s"] = (fastest(jobs, jobs.plain, "wall_s"), "s")
    # Whitened error, a failed estimate counting as +inf, and the failed
    # share of the distinct untraced estimates.
    error = statistics.median(jobs.errors)
    metrics["rel_cov_err"] = (INF_AS if math.isinf(error) else error, "ratio")
    metrics["fail_share"] = (sum(o.sigma_hat is None for o in firsts) / len(firsts), "share")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    draws = Draws(workloads.WORKLOADS[args.workload], args.seed)
    setup_s = setup(draws)
    problems = []
    jobs = Jobs(draws, args.seconds, args.trace, problems)
    metrics = per_layer(jobs) if args.trace else end_to_end(jobs, setup_s)
    for problem in problems:
        print(problem, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(jobs.firsts()),
        "failed": sum(o.sigma_hat is None for o in jobs.firsts()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
