"""
covering_net timed on source trees side by side
===============================================

Times covering_net(n, rho) for each case of --time in fresh interpreters,
one per tree, rep and case, with OPENBLAS_NUM_THREADS=1.  A tree is a
directory holding src/heisgeo (default: the repository this script is in),
and each child imports heisgeo from that tree's src.  Within a rep the
trees alternate which goes first.  A call at rho = 2 before the timed one
takes NumPy's first-call costs out.

It prints the median seconds per case and tree, with each tree's ratio to
the first, and the peak resident set (ru_maxrss) of one fresh process per
tree that makes the single call covering_net(--rss).

    python demos/net_timing.py [--reps 5] [--time 1:0.5 1:0.25 2:1.0] [--rss 2:0.8] [TREE ...]
"""

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

TIME = """
import sys, time
from heisgeo import covering as cv
n, rho = int(sys.argv[1]), float(sys.argv[2])
cv.covering_net(n, 2.0)
t0 = time.perf_counter()
cv.covering_net(n, rho)
print(time.perf_counter() - t0)
"""

RSS = """
import resource, sys
from heisgeo import covering as cv
cv.covering_net(int(sys.argv[1]), float(sys.argv[2]))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def case(text: str) -> tuple[str, str]:
    n, rho = text.split(":")
    return n, rho


parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0].strip())
parser.add_argument("trees", nargs="*", type=Path, default=[Path(__file__).resolve().parents[1]])
parser.add_argument("--reps", type=int, default=5)
parser.add_argument("--time", type=case, nargs="+", default=[("1", "0.5"), ("1", "0.25"), ("2", "1.0")],
                    metavar="N:RHO")
parser.add_argument("--rss", type=case, default=("2", "0.8"), metavar="N:RHO")
args = parser.parse_args()


def run(code: str, tree: Path, n: str, rho: str) -> float:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(tree.resolve() / "src"))
    out = subprocess.run([sys.executable, "-c", code, n, rho], env=env,
                         capture_output=True, text=True, check=True).stdout
    return float(out)


names = [chr(ord("A") + i) for i in range(len(args.trees))]
for name, tree in zip(names, args.trees):
    print(f"{name} = {tree.resolve()}")
print(f"median covering_net seconds over {args.reps} fresh processes per tree and case")
print(f"{'n, rho':>10} " + " ".join(f"{name + '_s':>9}" for name in names)
      + "".join(f" {name + '/A':>6}" for name in names[1:]))
for n, rho in args.time:
    times = {name: [] for name in names}
    for rep in range(args.reps):
        order = list(zip(names, args.trees))
        for name, tree in order[::-1] if rep % 2 else order:
            times[name].append(run(TIME, tree, n, rho))
    med = [statistics.median(times[name]) for name in names]
    print(f"{n + ', ' + rho:>10} " + " ".join(f"{m:>9.4f}" for m in med)
          + "".join(f" {m / med[0]:>6.2f}" for m in med[1:]))
n, rho = args.rss
print(f"ru_maxrss MiB of covering_net({n}, {rho}): "
      + ", ".join(f"{name} {run(RSS, tree, n, rho):.0f}" for name, tree in zip(names, args.trees)))
