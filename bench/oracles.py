"""Independent reference computations for the benchmark's output checks.

None of these calls into heisgeo's counting or solver code: ball counts
use the fiber inequality in Python integers, distances use the metric
formula in NumPy, and the sphere gauge is re-solved in mpmath at 50
digits.  They are slow where the program is fast, so checks call them on
small inputs or on samples.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def _parity_count(M: int, p: int) -> int:
    """# integers m in [-M, M] with m = p (mod 2)."""
    if M < 0:
        return 0
    return 2 * (M // 2) + 1 if p == 0 else 2 * ((M + 1) // 2)


def _halfwidth(u: int, v: int, X: int) -> int:
    """Largest |m| with m^2 v^4 <= 4 u^2 (u^2 - v^2 X), or -1 if none."""
    rhs = 4 * u * u * (u * u - v * v * X)
    return math.isqrt(rhs // v ** 4) if rhs >= 0 else -1


def _horizontal_hist(n: int, reach: int) -> dict:
    """{(X, parity): count} over the horizontal grid |a_j|, |b_j| <= reach."""
    axis = np.arange(-reach, reach + 1, dtype=np.int64)
    grid = np.stack(np.meshgrid(*([axis] * (2 * n)), indexing="ij"), -1).reshape(-1, 2 * n)
    X = np.sum(grid * grid, axis=1)
    par = np.sum(grid[:, :n] * grid[:, n:], axis=1) % 2
    keys, counts = np.unique(np.stack([X, par], 1), axis=0, return_counts=True)
    return {(int(x), int(p)): int(c) for (x, p), c in zip(keys, counts)}


def ball_count(n: int, r) -> int:
    """|B_r(0)| in H^n, from the fiber inequality in Python integers."""
    r = Fraction(r)
    u, v = r.numerator, r.denominator
    reach = u // v
    total = 0
    for (X, p), c in _horizontal_hist(n, reach).items():
        if v * v * X <= u * u:
            total += c * _parity_count(_halfwidth(u, v, X), p)
    return total


def ball_points(k: int) -> list[tuple[int, int, int]]:
    """Every (a, b, m) of B_k(0) in H^1, in lexicographic order."""
    out = []
    for a in range(-k, k + 1):
        for b in range(-k, k + 1):
            M = _halfwidth(k, 1, a * a + b * b)
            p = (a * b) % 2
            start = -M + ((-M - p) % 2)
            out.extend((a, b, m) for m in range(start, M + 1, 2))
    return out


def metric_rows(rows: np.ndarray, q: np.ndarray, n: int) -> np.ndarray:
    """d(row, q) for flat rows (Re z | Im z | tau), by the metric's formula."""
    dz = rows[:, : 2 * n] - q[: 2 * n]
    x2 = np.sum(dz * dz, axis=1)
    im = rows[:, :n] @ q[n:2 * n] - rows[:, n:2 * n] @ q[:n]
    delta = rows[:, 2 * n] - q[2 * n] - 0.5 * im
    return np.sqrt(0.5 * (x2 + np.hypot(x2, 2.0 * delta)))


def gauge_min_mp(z_flat, tau, r, t, dps: int = 50):
    """min over the unit sphere of the sphere gauge F_t, in mpmath at `dps` digits.

    Same problem as the program's float solver: F_t(xi) = ||M xi - v||^2,
    minimised through the secular equation, here with every float input
    converted exactly and bisection carried to full precision.
    """
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.dps = dps
    mpf = ctx.mpf
    z = [mpf(float(x)) for x in z_flat]
    tau, r, t = mpf(float(tau)), mpf(float(r)), mpf(float(t))
    n = len(z) // 2
    d = 2 * n + 1
    M = ctx.zeros(d, d)
    v = ctx.zeros(d, 1)
    for i in range(2 * n):
        M[i, i] = r / t
        v[i] = z[i] / t
    M[2 * n, 2 * n] = r * r / (t * t)
    for j in range(n):
        M[2 * n, j] = -(r / (2 * t * t)) * z[n + j]
        M[2 * n, n + j] = (r / (2 * t * t)) * z[j]
    v[2 * n] = tau / (t * t)
    P = M.T * M
    q = -(M.T * v)
    c = (v.T * v)[0]
    E, Q = ctx.eigsy(P)
    order = sorted(range(d), key=lambda i: E[i])
    lam = [E[i] for i in order]
    qt = [ctx.fsum(Q[k, i] * q[k] for k in range(d)) for i in order]
    gap = [x - lam[0] for x in lam]

    def phi(s):
        return ctx.fsum(qt[i] ** 2 / (gap[i] + s) ** 2 for i in range(d))

    lo, hi = mpf(0), ctx.sqrt(ctx.fsum(x * x for x in qt))
    for _ in range(int(dps * 3.5)):
        mid = (lo + hi) / 2
        if phi(mid) > 1:
            lo = mid
        else:
            hi = mid
    xi = [-qt[i] / (gap[i] + hi) for i in range(d)]
    return ctx.fsum(lam[i] * xi[i] ** 2 + 2 * qt[i] * xi[i] for i in range(d)) + c


def ray_point(lam: float, xi: np.ndarray):
    """(z_flat, tau) of the dilation delta_lam of the unit-sphere point xi."""
    n = (xi.shape[0] - 1) // 2
    return lam * xi[: 2 * n], lam * lam * float(xi[-1])


def gauge_crossing(xi: np.ndarray, r: float, t: float, target: float, side: int) -> float:
    """lam on the dilation ray of xi with mpmath gauge value `target`.

    side = +1 searches outside the sphere (r, r + t), -1 inside (r - t, r).
    Secant steps in 30-digit arithmetic; the gauge is smooth along the ray.
    """
    def g(lam):
        zf, tau = ray_point(lam, xi)
        return float(gauge_min_mp(zf, tau, r, t, dps=30)) - target

    a, b = r + side * 0.5 * t, r + side * 0.9 * t
    ga, gb = g(a), g(b)
    for _ in range(12):
        if gb == ga:
            break
        a, b, ga = b, b - gb * (b - a) / (gb - ga), gb
        gb = g(b)
        if abs(gb) < 1e-12:
            break
    return b
