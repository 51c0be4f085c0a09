"""Machine-speed gauge for normalizing task times.

The benchmark runs on shared machines whose speed drifts by 20-40% over
minutes as neighbours load the cores.  A pass therefore times a fixed
reference kernel, independent of heisgeo, before its first task and then
about every half second between tasks.  Each task time is divided by the
local speed factor (reference time near the task over REFERENCE_S), so
reported times read as seconds on the machine the benchmark was defined
on, running at its usual speed.  Work done in child processes (the CLI
runs) is gauged instead by starting a Python process that imports NumPy,
since the in-process kernel does not follow process start-up.  The
kernel mixes the kinds of work heisgeo does: dict updates in the
interpreter, Fractions, batched 3x3 eigh, elementwise NumPy on
10^5-element arrays and many one-row NumPy calls; their shares were
fitted so that the scalar minimizer, the batched t-boundary count and
the weighted average all track it.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 0.013    # median kernel time, 2-core Xeon VM, Python 3.11, NumPy 2.4
PROCESS_REFERENCE_S = 0.2  # median time to start Python and import NumPy there
INTERVAL_S = 0.5
NEIGHBOURS = 5


def reference_work():
    counts = {}
    for i in range(6500):
        key = (i % 7, i % 11)
        counts[key] = counts.get(key, 0) + i
    q = Fraction(0)
    for i in range(1, 500):
        q += Fraction(i % 13, i)
    mats = np.random.default_rng(0).standard_normal((750, 3, 3))
    np.linalg.eigh(mats + mats.transpose(0, 2, 1))
    x = np.linspace(0.0, 1.0, 100_000)
    lo, hi = np.zeros_like(x), np.ones_like(x)
    for _ in range(6):
        mid = 0.5 * (lo + hi)
        high = mid * mid > x
        lo, hi = np.where(high, lo, mid), np.where(high, mid, hi)
    # many one-row NumPy calls, as in the scalar minimizer
    lam, vecs = np.linalg.eigh(np.eye(3)[None] * 2.0)
    qt = np.einsum("nij,ni->nj", vecs, np.ones((1, 3)))
    for _ in range(11):
        lo, hi = np.zeros(1), np.ones(1)
        for _ in range(20):
            mid = 0.5 * (lo + hi)
            high = np.sum(qt * qt / (lam + mid[:, None]) ** 2, axis=1) > 1.0
            lo, hi = np.where(high, mid, lo), np.where(high, hi, mid)
    return counts, q, lo


class SpeedGauge:
    """Samples of a fixed reference job over time; `factor` compares them to the reference time."""

    def __init__(self, work=reference_work, reference_s: float = REFERENCE_S):
        self.work = work
        self.reference_s = reference_s
        self.samples = []   # (midpoint, seconds)

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.work()
        t1 = time.perf_counter()
        self.samples.append((0.5 * (t0 + t1), t1 - t0))

    def maybe_sample(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= INTERVAL_S:
            self.sample()

    def factor(self, at: float) -> float:
        """Job time near `at` over the reference time; > 1 means a slow machine."""
        near = sorted(self.samples, key=lambda s: abs(s[0] - at))[:NEIGHBOURS]
        return statistics.median(s[1] for s in near) / self.reference_s


def process_gauge(env: dict) -> SpeedGauge:
    """Gauge for work done in child processes: start Python and import NumPy."""
    def start_python():
        subprocess.run([sys.executable, "-c", "import numpy, fractions, json"],
                       env=env, check=True)

    return SpeedGauge(start_python, PROCESS_REFERENCE_S)
