"""Fingerprint the composed estimator's outputs on the ROADMAP's 63 cases.

    python3 tools/cases.py

The cases are ``floor-d2`` seeds 1-5 x jobs 0-10 and ``fine-d3`` seeds 1-2
x jobs 0-3, each on draw 0 of its workload, with job j on dataset
j mod len(sizes) and estimator seed 1000 seed + j.  Each runs
``bench/workloads.py``'s ``estimate_covariance`` on one BLAS thread and
prints one line: the workload, seed and job, a sha256 of Sigma_hat's bytes
(or of the error's ``repr``) and a sha256 of the ledger's labels,
mechanisms, budgets and sensitivities, floats as ``float.hex``.  The last
line gives the number of cases and a sha256 of the lines before it.

Two trees whose outputs are bit-identical print the same lines; to compare
against another commit, run a copy of this file from that commit's
``tools/``: it reads the ``src/`` and ``bench/`` next to it.
"""

import os

# one BLAS thread, as the benchmark times estimates; set before NumPy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from privgauss.dp_core import Accountant  # noqa: E402
from privgauss.errors import PrivGaussError  # noqa: E402

import workloads  # noqa: E402

# (workload, seeds, jobs)
CASES = (("floor-d2", range(1, 6), range(11)), ("fine-d3", range(1, 3), range(4)))


def sha(data):
    return hashlib.sha256(data).hexdigest()


def ledger_digest(accountant):
    return sha(
        repr(
            [
                (e.label, e.mechanism, e.budget.epsilon.hex(), e.budget.delta.hex(), float(e.sensitivity).hex())
                for e in accountant.entries
            ]
        ).encode()
    )


def case_line(name, seed, job, rows, sizes):
    accountant = Accountant()
    try:
        sigma_hat = workloads.estimate_covariance(rows[: sizes[job % len(sizes)]], 1000 * seed + job, accountant)
        out = sha(sigma_hat.tobytes())
    except PrivGaussError as exc:
        out = sha(repr(exc).encode())
    return f"{name} seed {seed} job {job}: sigma {out} ledger {ledger_digest(accountant)}"


def main():
    lines = []
    for name, seeds, jobs in CASES:
        for seed in seeds:
            rows, _, sizes = workloads.WORKLOADS[name].generate(seed)
            for job in jobs:
                lines.append(case_line(name, seed, job, rows, sizes))
                print(lines[-1], flush=True)
            del rows  # fine-d3's rows are 187 MB: free them before the next draw
    print(f"total {len(lines)} cases: {sha(chr(10).join(lines).encode())}")


if __name__ == "__main__":
    main()
