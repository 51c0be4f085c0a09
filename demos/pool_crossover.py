"""
Where a process pool pays for the chain search
==============================================

Times intersection_search(1, 1e4, trials) run in the caller (workers=1)
against the same search on a pool of --workers processes, forced below its
crossover by setting separation._POOL_MIN_TRIALS to 1.  Every run is a
fresh interpreter with OPENBLAS_NUM_THREADS=1; the two modes alternate
which goes first, and rep k searches seed k in both.  The timed call
includes the pool's start-up and the import of concurrent.futures.process;
a two-trial search before it takes NumPy's first-call costs out of both.

It prints the median seconds of each mode and their ratio per size.
_POOL_MIN_TRIALS is the number of trials per process at which the pool
starts to win.

    PYTHONPATH=src python demos/pool_crossover.py [--reps 5] [--sizes 256 ... 8192]
"""

import argparse
import os
import statistics
import subprocess
import sys

CHILD = """
import sys, time
from heisgeo import separation as sp
trials, seed, workers = map(int, sys.argv[1:])
sp._POOL_MIN_TRIALS = 1
sp.intersection_search(1, 1e4, 2, seed=seed)
t0 = time.perf_counter()
sp.intersection_search(1, 1e4, trials, seed=seed, workers=workers)
print(time.perf_counter() - t0)
"""

parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0].strip())
parser.add_argument("--reps", type=int, default=5)
parser.add_argument("--sizes", type=int, nargs="+", default=[256, 512, 1024, 2048, 4096, 8192])
parser.add_argument("--workers", type=int, default=2)
args = parser.parse_args()
env = dict(os.environ, OPENBLAS_NUM_THREADS="1")


def run(trials: int, seed: int, workers: int) -> float:
    out = subprocess.run([sys.executable, "-c", CHILD, str(trials), str(seed), str(workers)],
                         env=env, capture_output=True, text=True, check=True).stdout
    return float(out)


print(f"{args.reps} fresh processes per cell, pooled on {args.workers} workers")
print(f"{'trials':>7} {'serial_s':>9} {'pooled_s':>9} {'pooled/serial':>14}")
for trials in args.sizes:
    times = {1: [], args.workers: []}
    for rep in range(args.reps):
        for workers in sorted(times, reverse=rep % 2 == 1):
            times[workers].append(run(trials, rep, workers))
    serial, pooled = (statistics.median(times[w]) for w in (1, args.workers))
    print(f"{trials:>7} {serial:>9.3f} {pooled:>9.3f} {pooled / serial:>14.2f}")
