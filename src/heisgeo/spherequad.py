"""Global minimisation of quadratics over the Euclidean unit sphere.

Metric spheres S_r(0) are dilations of the Euclidean unit sphere of
R^(2n+1), so questions like "is y within t of S_r(x)" reduce, after moving
the centre to the identity, to minimising the gauge

    F_t(xi) = |r a - z|^2 / t^2 + (r^2 b - tau - (r/2) Im<a, z>)^2 / t^4

over xi = (a, b) on the unit sphere, with F_t(xi) <= 1 iff the sphere point
(r a, r^2 b) lies within distance t of y = (z, tau).  F_t is a convex
quadratic xi^T P xi + 2 q . xi + c, and its constrained minimum is a
trust-region subproblem solved exactly through the secular equation: in an
eigenbasis of P the multiplier mu < lambda_min solves

    sum_i  qt_i^2 / (lambda_i - mu)^2 = 1,

monotone on that half-line, with the classical hard case (q orthogonal to
the bottom eigenspace) handled by padding along the bottom eigenvector.
The root is found by safeguarded Newton on 1/||xi|| - 1, which is concave
and nearly linear in mu (More & Sorensen 1983), falling back to bisection
whenever a step leaves the bracket.

The gauge needs no eigensolver.  With alpha = r/t, beta = r^2/t^2,
gamma = r|z|/(2t^2) and g = J z/|z| (multiplication by i), P acts as
alpha^2 on z/|z| and on every direction orthogonal to {z, g, e_tau}, and
as the 2x2 block [[alpha^2 + gamma^2, beta gamma], [beta gamma, beta^2]]
on span{g, e_tau}, whose eigenvalues mu_- <= alpha^2 <= mu_+ (product
alpha^2 beta^2) are closed-form.  q lies in span{z, g, e_tau}, so the
secular equation has at most three poles and depends on (|z|^2, tau, r, t)
alone; U(n) rotations and the flip (z, tau) -> (conj z, -tau) leave the
minimum unchanged.  Everything here is float numerics; exact integer
screens live in the ball module and only route the ambiguous band through
this solver.

Each entry takes a batch (one point is a batch of one).  `gauge_min(x, tau,
r)` solves at t = 1, since F_t at (z, tau, r) is F_1 at (z/t, tau/t^2, r/t):
the ball module scales its exact offset by t before its one rounding.
`sphere_distance` probes rows [Re z, Im z, tau] at one t per row and maps
the argmins back to rows (_gauge_argmin).  The Newton iteration of a small
batch, up to _ROW_LOOP_ROWS rows still to solve, runs row by row on Python
floats, where NumPy's fixed cost per call would dominate; a larger batch
iterates as arrays over its unfinished rows.  Both apply the same float
operations in the same order, so a row's value does not depend on its batch.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ContinuousPoint, Point, as_continuous

_NEWTON_STEPS = 100  # cap; the Newton root converges in a handful of steps
_NEWTON_RTOL = 4 * 2.0 ** -52
_ROW_LOOP_ROWS = 48  # live rows solved one by one on floats; arrays win from 64-80 rows
_HARD_EPS = 1e-30
_DIST_RTOL = 1e-12  # sphere_distance bisects to this fraction of max(bracket, 1)


# --- rows --------------------------------------------------------------------
# A row is a point [Re z, Im z, tau], the one float point format of the
# package.  Each kernel repeats the float steps of its `core` counterpart in
# order, so its rows are bit-identical to the object code's points.  Sums
# over j use Python's sum(), which starts from 0 (a lone -0.0 term becomes
# 0.0); float * complex is a complex product (s*re - 0.0*im); math.hypot
# runs per element (NumPy's differs in the last bit); row dot products use
# stacked matmul, the BLAS call of np.dot.


def _row(p: Point) -> np.ndarray:
    cp = as_continuous(p)
    return np.array([w.real for w in cp.z] + [w.imag for w in cp.z] + [cp.tau])


def _point(row: np.ndarray) -> ContinuousPoint:
    return ContinuousPoint(*_parts(row))


def _parts(row, r: float = 1.0) -> tuple:
    """(z, tau) of delta_r of a row or list: the formula of _point and sphere_point."""
    n = (len(row) - 1) // 2
    return tuple(complex(r * row[j], r * row[n + j]) for j in range(n)), r * r * row[-1]


def _hypot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.hypot, a.tolist(), b.tolist()), float, len(a))


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _unit_rows(v: np.ndarray) -> np.ndarray:
    return v / np.sqrt(_dot_rows(v, v))[:, None]


def _mul_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """core.multiply per row."""
    n = (p.shape[1] - 1) // 2
    out = p + q
    out[:, -1] += 0.5 * sum(p[:, j] * q[:, n + j] - p[:, n + j] * q[:, j] for j in range(n))
    return out


def _norm_rows(p: np.ndarray) -> np.ndarray:
    """core.homogeneous_norm per row; its twist with the identity is 0.0."""
    n = (p.shape[1] - 1) // 2
    x2 = sum(p[:, j] * p[:, j] + p[:, n + j] * p[:, n + j] for j in range(n))
    return np.sqrt(0.5 * (x2 + _hypot_rows(x2, 2.0 * p[:, -1])))


def _sphere_rows(r: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """sphere_point per row."""
    out = r[:, None] * xi
    out[:, -1] = (r * r) * xi[:, -1]
    return out


def _secular_root(gap: np.ndarray, qq: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  live: np.ndarray) -> np.ndarray:
    """s in [lo, hi] with sum_i qq_i / (gap_i + s)^2 = 1, for the live rows.

    psi(s) = 1/||xi(s)|| - 1 is increasing and concave on s > 0, so Newton
    started below the root climbs monotonically to it.  The start is the
    best of the lower bounds |q_i| - gap_i and |q| - max gap; a step that
    leaves the shrinking bracket is replaced by its midpoint.  A row stops
    once its step or its bracket is below _NEWTON_RTOL relative, so its
    root does not depend on the other rows of the batch.  Up to
    _ROW_LOOP_ROWS live rows iterate one at a time on Python floats
    (_newton_row), more as arrays over the rows still live; both run the
    same float operations in the same order.
    """
    s = np.clip(np.maximum((np.sqrt(qq) - gap).max(axis=1),
                           np.sqrt(np.add.reduce(qq, axis=1)) - gap.max(axis=1)), lo, hi)
    idx = np.flatnonzero(live)
    if idx.size <= _ROW_LOOP_ROWS and gap.shape[1] < 8:  # see _newton_row
        try:
            s[idx] = [_newton_row(*row) for row in zip(gap[idx].tolist(), qq[idx].tolist(),
                                                       lo[idx].tolist(), hi[idx].tolist(),
                                                       s[idx].tolist())]
            return s
        except ZeroDivisionError:  # NumPy's answer is inf or nan there: iterate as arrays
            pass
    gap, qq, lo, hi, x = gap[idx], qq[idx], lo[idx], hi[idx], s[idx]
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            if not idx.size:
                break
            d = gap + x[:, None]
            w = qq / (d * d)
            phi = np.add.reduce(w, axis=1)
            dphi = np.add.reduce(w / d, axis=1)  # -phi'(s) / 2
            root = np.sqrt(phi)
            below = root > 1.0
            lo = np.where(below, x, lo)
            hi = np.where(below, hi, x)
            # Newton step psi / psi', with psi' = dphi / phi^(3/2)
            step = phi * (root - 1.0) / dphi
            new = x + step
            done = (np.abs(step) <= _NEWTON_RTOL * x) | (hi - lo <= _NEWTON_RTOL * hi)
            new = np.where((lo < new) & (new < hi), new, 0.5 * (lo + hi))
            if done.any():  # a finished row keeps the s at which it stopped
                s[idx[done]] = x[done]
                keep = ~done
                idx, new = idx[keep], new[keep]
                gap, qq, lo, hi = gap[keep], qq[keep], lo[keep], hi[keep]
            x = new
    s[idx] = x
    return s


def _newton_row(gap: list, qq: list, lo: float, hi: float, s: float) -> float:
    """_secular_root's Newton iteration for one live row, on Python floats.

    The float operations are the array loop's, in its order: sums run left
    to right from the first term, as NumPy reduces fewer than 8 terms, and
    a division by zero raises where NumPy would give inf or nan.
    """
    for _ in range(_NEWTON_STEPS):
        phi = dphi = -0.0
        for g, q in zip(gap, qq):
            d = g + s
            w = q / (d * d)
            phi += w
            dphi += w / d
        root = math.sqrt(phi)
        if root > 1.0:
            lo = s
        else:
            hi = s
        step = phi * (root - 1.0) / dphi
        new = s + step
        if abs(step) <= _NEWTON_RTOL * s or hi - lo <= _NEWTON_RTOL * hi:
            return s
        s = new if lo < new < hi else 0.5 * (lo + hi)
    return s


def _secular_batched(lam: np.ndarray, qt: np.ndarray, c: np.ndarray):
    """Minimise xi^T diag(lam) xi + 2 qt . xi + c over ||xi|| = 1, batched.

    lam: (N, d) ascending eigenvalues, qt: (N, d), c: (N,).
    Returns (values (N,), xi (N, d)) in the eigenbasis.
    """
    lam1 = lam[:, 0]
    # shift: phi(s) = sum qt_i^2 / (gap_i + s)^2 with gap_i = lam_i - lam1 >= 0,
    # decreasing in s > 0; want phi(s) = 1, i.e. s = lam1 - mu.
    gap = lam - lam1[:, None]
    qq = qt * qt
    qn = np.sqrt(np.add.reduce(qq, axis=1))
    scale = np.maximum(np.maximum(gap.max(axis=1), qn), 1e-300)
    s_floor = 1e-18 * scale
    hard = np.add.reduce(qq / (gap + s_floor[:, None]) ** 2, axis=1) < 1.0
    s = _secular_root(gap, qq, s_floor, np.maximum(qn, s_floor * 2), ~hard)
    xi = -qt / (gap + s[:, None])
    if hard.any():
        # q has no weight on the bottom eigenspace and the fixed part of xi is
        # short: pad along the bottom eigenvector to reach the sphere.
        gap_h = gap[hard]
        qt_h = qt[hard]
        safe = gap_h > np.maximum(_HARD_EPS, 1e-14 * scale[hard])[:, None]
        fixed = np.where(safe, -qt_h / np.where(safe, gap_h, 1.0), 0.0)
        pad = np.sqrt(np.maximum(0.0, 1.0 - np.add.reduce(fixed * fixed, axis=1)))
        fixed[:, 0] += pad
        xi[hard] = fixed
        s[hard] = 0.0
    mu = lam1 - s
    values = mu + c + np.add.reduce(qt * xi, axis=1)
    return values, xi


def _gauge_secular(x: np.ndarray, tau: np.ndarray, r: float, t: float):
    """Three-pole secular data of the gauge for |z|^2 = x and central tau.

    Returns (lam, qt, c, cs, sn): lam (N, 3) ascending and qt (N, 3) in the
    basis (e_-, z/|z|, e_+), where e_- = cs g + sn e_tau and
    e_+ = -sn g + cs e_tau are the eigenvectors of the 2x2 block.
    """
    zn = np.sqrt(x)
    alpha = r / t
    beta = alpha * alpha
    gamma = (r / (2 * t * t)) * zn
    a = beta + gamma * gamma  # the block [[a, b], [b, d]] on span{g, e_tau}
    b = beta * gamma
    d = beta * beta
    delta = 0.5 * (d - a)
    rad = np.hypot(delta, b)
    mu_hi = 0.5 * (a + d) + rad
    with np.errstate(divide="ignore", invalid="ignore"):
        mu_lo = np.where(mu_hi > 0, (alpha * beta) ** 2 / mu_hi, 0.0)
    # eigenvector of mu_lo from the row of B - mu_lo I that avoids cancellation
    up = delta >= 0
    v1 = np.where(up, delta + rad, b)
    v2 = np.where(up, -b, delta - rad)
    nv = np.hypot(v1, v2)
    flat = nv == 0  # B = alpha^2 I: any basis
    nv[flat] = 1.0
    cs = np.where(flat, 1.0, v1 / nv)
    sn = v2 / nv
    lam = np.empty((zn.size, 3))
    lam[:, 0] = np.minimum(mu_lo, beta)
    lam[:, 1] = beta
    lam[:, 2] = np.maximum(mu_hi, beta)
    u = tau / (t * t)
    q_g = -u * gamma
    q_tau = -u * beta
    qt = np.empty_like(lam)
    qt[:, 0] = cs * q_g + sn * q_tau
    qt[:, 1] = -(alpha / t) * zn
    qt[:, 2] = cs * q_tau - sn * q_g
    c = x / (t * t) + u ** 2
    return lam, qt, c, cs, sn


def gauge_min(x, tau, r: float) -> np.ndarray:
    """min_{||xi||=1} F_1(xi) per row of x = |z|^2 (N,) and tau (N,).

    A value <= 1 certifies dist((z, tau), S_r(0)) <= 1; a thickness t is
    the same question at (z/t, tau/t^2, r/t).  A row's value does not
    depend on the rest of its batch.  A negative |z|^2, a non-finite input
    or value, or gauge terms that overflow raise ValueError.
    """
    if not 0 <= r < math.inf:
        raise ValueError("radius r must be nonnegative and finite")
    x, tau = np.asarray(x, dtype=float), np.asarray(tau, dtype=float)
    if not ((x >= 0) & (x < math.inf) & np.isfinite(tau)).all():
        raise ValueError("gauge input |z|^2 must be nonnegative and finite, and tau finite")
    try:
        values = _secular_batched(*_gauge_secular(x, tau, r, 1.0)[:3])[0]
    except OverflowError:  # (alpha beta)^2 of a float alpha = r beyond about 2e51
        raise ValueError("gauge terms overflow: r is too large") from None
    if not np.isfinite(values).all():
        raise ValueError("gauge value is not finite")
    return values


def _gauge_argmin(z_flat: np.ndarray, tau: np.ndarray, r: float, t):
    """gauge_min's values for rows z_flat (N, 2n) and its argmins (N, 2n+1), unchecked."""
    x = np.sum(z_flat * z_flat, axis=1)
    lam, qt, c, cs, sn = _gauge_secular(x, tau, r, t)
    values, xi = _secular_batched(lam, qt, c)
    n = z_flat.shape[1] // 2
    zn = np.sqrt(x)
    z_hat = np.zeros_like(z_flat)
    z_hat[:, 0] = 1.0  # any unit vector when z = 0
    np.divide(z_flat, zn[:, None], out=z_hat, where=zn[:, None] > 0)
    g_hat = np.concatenate([-z_hat[:, n:], z_hat[:, :n]], axis=1)
    a_g = cs * xi[:, 0] - sn * xi[:, 2]
    a = xi[:, 1:2] * z_hat + a_g[:, None] * g_hat
    b = sn * xi[:, 0] + cs * xi[:, 2]
    return values, np.concatenate([a, b[:, None]], axis=1)


def sphere_point(r: float, xi: np.ndarray) -> ContinuousPoint:
    """Map xi on the unit sphere of R^(2n+1) to delta_r of it on S_r(0)."""
    return ContinuousPoint(*_parts(np.asarray(xi, dtype=float), r))


def sphere_distance(rows, r: float) -> tuple[np.ndarray, np.ndarray]:
    """(dist(y, S_r(0)), a nearest point of S_r(0) as a row) per row y.

    Bisection on the certified membership predicate t -> (min F_t <= 1),
    which is monotone; the bracket is the exact sandwich
    |N(y) - r| <= dist <= sqrt(|N(y)^2 - r^2|), the upper end being the
    distance realised by the dilation witness delta_{r/N(y)}(y).  The rows
    bisect in lockstep, each until its own bracket is tight, so a row's
    result does not depend on its batch.  The nearest point is the argmin
    of the last accepted probe, else the dilation witness.
    """
    if not 0 <= r < math.inf:
        raise ValueError("radius must be nonnegative and finite")
    rows = np.asarray(rows, dtype=float)
    z_flat, tau = rows[:, :-1], rows[:, -1]
    lam = _norm_rows(rows)
    lo = np.abs(lam - r)
    hi = np.maximum(np.sqrt(np.abs(lam * lam - r * r)), lo)
    tol = _DIST_RTOL * np.maximum(hi, 1.0)
    # r = 0 or y = 0: dist = |N(y) - r|, realised by the origin or the pole
    solve = (lam != 0.0) & (r != 0.0)
    hi[~solve] = lo[~solve]
    xi = np.zeros_like(rows)
    xi[:, -1] = 1.0
    accepted = np.zeros(len(rows), dtype=bool)
    live = np.flatnonzero(solve & (hi - lo > tol))
    while live.size:
        mid = 0.5 * (lo[live] + hi[live])
        val, arg = _gauge_argmin(z_flat[live], tau[live], r, mid)
        ok = val <= 1.0
        hi[live[ok]], xi[live[ok]], accepted[live[ok]] = mid[ok], arg[ok], True
        lo[live[~ok]] = mid[~ok]
        live = live[hi[live] - lo[live] > tol[live]]
    # no probe accepted: hi is still the distance of the dilation witness
    miss = solve & ~accepted
    xi[miss, :-1] = z_flat[miss] / lam[miss, None]
    xi[miss, -1] = tau[miss] / lam[miss] / lam[miss]
    return hi, _sphere_rows(np.full(len(rows), float(r)), xi)
