"""Large-scale separation checks, inner-ball witnesses, and chain searches.

Three numerical verifiers for the geometry of thickened spheres:

* ``lss_check`` certifies the hypotheses of the large-scale separation
  bound and evaluates the normalized distance between sphere centers
  against the closed-form threshold.
* ``closeball_witness`` constructs the inner tangent ball witness (pole
  or equator branch after dilating the configuration to radius 1/2) and
  checks the containment on a boundary sample, polished by a Nelder-Mead
  maximizer: its ``verified`` is a sampled verdict, not a certificate.
* ``intersection_search`` hunts for chains of mutually incident
  thickened spheres with a nonempty common intersection.  Nonemptiness
  is certified by an exhibited point; emptiness is only ever reported,
  never asserted.  It runs in three stages: each trial's draws, one
  trial at a time; the bisections and the cyclic dilation projection
  of all trials at once, as arrays along a trial axis; and, per
  candidate chain, a Nelder-Mead polish of near misses and the exact
  ``certify_chain``, which alone decides a chain's length.

Both polishes run ``_nelder_mead``, SciPy's Nelder-Mead step for step on
Python floats, over ``core``'s float product and distance; numpy alone is
needed at run time, and a norm stays ``x.dot(x)`` (BLAS, not a Python sum).

The inner ball's scale gap R and branch constant C are frozen as
defaults.  The test suite's ``closeball_R_estimate`` measures the scale
at which the witness verifies in every sampled direction and checks that
it stays below DEFAULT_CLOSEBALL_R.
"""

import math
import os
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import NamedTuple, Optional

import numpy as np

from .balls import BallSpec, boundary_contains, boundary_table
from .core import (
    ContinuousPoint,
    Point,
    _dist_parts,
    _mul_parts,
    as_continuous,
    dilate,
    homogeneous_norm,
    inverse,
    lattice_identity,
    metric_d,
    multiply,
    point_to_json,
    radius_parts,
)
from .errors import HypothesisViolation
from .spherequad import (_dot_rows, _mul_rows, _norm_rows, _parts, _point, _row,
                         _sphere_rows, _unit_rows, sphere_point)

# a generous margin over the feasibility edge that the tests' estimator
# (closeball_R_estimate in tests/test_separation.py) measures
DEFAULT_CLOSEBALL_R = 8.0
DEFAULT_CLOSEBALL_C = 2.0


def _unit(vec: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ValueError("zero direction")
    return vec / norm


# --- trial-axis kernels ------------------------------------------------------
# Rows and their kernels are spherequad's; like them, _dilate_rows repeats
# its `core` counterpart bit for bit, and math.acos runs per element.


def _dilate_rows(s: np.ndarray, p: np.ndarray) -> np.ndarray:
    """core.dilate per row."""
    n = (p.shape[1] - 1) // 2
    re, im = p[:, :n], p[:, n:-1]
    return np.column_stack([s[:, None] * re - 0.0 * im, s[:, None] * im + 0.0 * re,
                            (s * s) * p[:, -1]])


def _waypoint(rng: np.random.Generator, lo: np.ndarray) -> Optional[np.ndarray]:
    """Random unit vector orthogonal to lo, or None after eight draws."""
    for _ in range(8):
        cand = rng.standard_normal(lo.shape[0])
        cand -= np.dot(cand, lo) * lo
        if np.linalg.norm(cand) > 1e-9:
            return _unit(cand)
    return None


def _bisect_rows(anchor, radius, target, tol, lo, hi, waypoint):
    """Per row, delta_radius(v) * anchor at distance within tol of target.

    v moves along the great circle from lo to hi; the distance to the
    origin is continuous in the angle, so bisection lands within tol of
    the target when the ends bracket it.  Antipodal ends leave the circle
    free: once the bracket holds, waypoint(i) gives row i a unit vector
    orthogonal to lo[i], or None.  radius, target and tol are scalars or
    per row.  Returns (points, values, found).
    """
    m = len(anchor)
    radius, target, tol = (np.broadcast_to(np.asarray(a, dtype=float), (m,))
                           for a in (radius, target, tol))
    f_lo = _norm_rows(_mul_rows(_sphere_rows(radius, lo), anchor))
    f_hi = _norm_rows(_mul_rows(_sphere_rows(radius, hi), anchor))
    live = (np.minimum(f_lo, f_hi) < target) & (target < np.maximum(f_lo, f_hi))
    c = np.clip(_dot_rows(lo, hi), -1.0, 1.0)
    w = hi - c[:, None] * lo
    w_norm = np.sqrt(_dot_rows(w, w))
    anti = c <= -1.0 + 1e-9
    circle = live & ~anti & (w_norm >= 1e-12)
    w /= np.where(circle, w_norm, 1.0)[:, None]
    a_hi = np.full(m, math.pi)
    a_hi[circle] = [math.acos(x) for x in c[circle]]
    for i in np.flatnonzero(live & anti):
        way = waypoint(i)
        live[i] = way is not None
        if live[i]:
            w[i] = way
    live &= anti | circle
    a_lo, rising = np.zeros(m), f_hi > f_lo
    points, values, found = np.zeros_like(anchor), np.zeros(m), np.zeros(m, dtype=bool)
    for _ in range(200):
        if not live.any():
            break
        mid = 0.5 * (a_lo + a_hi)
        v = np.cos(mid)[:, None] * lo + np.sin(mid)[:, None] * w
        y = _mul_rows(_sphere_rows(radius, _unit_rows(v)), anchor)
        f = _norm_rows(y)
        hit = live & (np.abs(f - target) <= tol)
        if hit.any():
            points[hit], values[hit], found[hit] = y[hit], f[hit], True
            live &= ~hit
        up = (f < target) == rising
        a_lo, a_hi = np.where(up, mid, a_lo), np.where(up, a_hi, mid)
    return points, values, found


# --- large scale separation ------------------------------------------------


def lss_bound(eps: float) -> float:
    """Closed-form separation threshold (1 - sqrt(1 - eps^2/4)) / 2."""
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    return 0.5 * (1.0 - math.sqrt(1.0 - 0.25 * eps * eps))


class LssResult(NamedTuple):
    holds: bool
    gap: float


def lss_check(p: Point, q: Point, t: float, t_tilde: float, r: float,
              r_tilde: float, eps: float, R: float) -> LssResult:
    """Certify the separation hypotheses, then test the normalized gap.

    The origin must lie on both thickened spheres and q on the thickened
    sphere of p; radii must be ordered, scale above t * t_tilde * R, and
    r_tilde must be at least eps * r.  Each clause failure raises with
    the clause name.  On success the centers are dilated to the unit
    sphere and holds = d(p_hat, q_hat) >= lss_bound(eps), gap = excess.
    """
    if not (t >= 1 and t_tilde >= 1):
        raise HypothesisViolation("thickness", f"t = {t}, t_tilde = {t_tilde} must be >= 1")
    if not R > 1:
        raise HypothesisViolation("scale", f"R = {R} must exceed 1")
    if not 0 < eps < 1:
        raise HypothesisViolation("eps_range", f"eps = {eps} must lie in (0, 1)")
    if not r >= r_tilde:
        raise HypothesisViolation("radii", f"r = {r} must be >= r_tilde = {r_tilde}")
    if not r_tilde >= t * t_tilde * R:
        raise HypothesisViolation(
            "radii", f"r_tilde = {r_tilde} must be >= t t_tilde R = {t * t_tilde * R}"
        )
    if not r_tilde >= eps * r:
        raise HypothesisViolation("eps_floor", f"r_tilde = {r_tilde} must be >= eps r = {eps * r}")
    lam_p = homogeneous_norm(p)
    lam_q = homogeneous_norm(q)
    if lam_p == 0.0 or lam_q == 0.0:
        raise HypothesisViolation("nonzero", "p and q must differ from the identity")
    shell_p = BallSpec(p, r, t)
    if not boundary_contains(lattice_identity(p.n), shell_p):
        raise HypothesisViolation("origin_shell_p", "origin not within t of the sphere of p")
    if not boundary_contains(lattice_identity(q.n), BallSpec(q, r_tilde, t_tilde)):
        raise HypothesisViolation("origin_shell_q", "origin not within t_tilde of the sphere of q")
    if not boundary_contains(q, shell_p):
        raise HypothesisViolation("q_shell_p", "q not within t of the sphere of p")
    d_hat = metric_d(dilate(1.0 / lam_p, p), dilate(1.0 / lam_q, q))
    gap = d_hat - lss_bound(eps)
    return LssResult(gap >= 0.0, gap)


class LssConfig(NamedTuple):
    p: ContinuousPoint
    q: ContinuousPoint
    t: float
    t_tilde: float
    r: float
    r_tilde: float


def random_lss_config(R: float, eps: float, n: int = 1, *,
                      rng: np.random.Generator) -> LssConfig:
    """Hypothesis-satisfying configuration with certifiable memberships.

    p sits essentially on its own sphere through the origin; q is found
    by bisecting along that sphere to the prescribed distance from the
    origin, then snapped onto the origin-centred sphere of radius
    r_tilde by a dilation.  All three shell memberships then clear the
    dilation-witness screen or land within the minimizer tolerance.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if not R > 1:
        raise ValueError("R must exceed 1")
    dim = 2 * n + 1
    t = 1.0 + float(rng.uniform(0.0, 2.0))
    t_tilde = 1.0 + float(rng.uniform(0.0, 2.0))
    r_tilde = t * t_tilde * R * (1.0 + float(rng.uniform(0.0, 0.5)))
    r = r_tilde * (1.0 + float(rng.uniform(0.0, 1.0)) * (1.0 / eps - 1.0))
    for _ in range(32):
        u = _unit(rng.standard_normal(dim))
        # distance jitter kept inside the certification band of the shell
        d_p = r + float(rng.uniform(-1.0, 1.0)) * t * t / (5.0 * r)
        p = sphere_point(d_p, u)
        y0, f, found = _bisect_rows(_row(p)[None], r, r_tilde,
                                    t * t / (9.0 * r_tilde), -u[None], u[None],
                                    lambda i: _waypoint(rng, -u))
        if not found[0]:
            continue
        q = dilate(r_tilde / float(f[0]), _point(y0[0]))
        cfg = LssConfig(p, q, t, t_tilde, r, r_tilde)
        try:
            lss_check(p, q, t, t_tilde, r, r_tilde, eps, R)
        except HypothesisViolation:
            continue
        return cfg
    raise RuntimeError("configuration sampling failed to certify; widen tolerances")


# --- inner ball witness ------------------------------------------------------


class CloseballResult(NamedTuple):
    q: Point
    verified: bool
    report: dict


def _nelder_mead(f, x0: np.ndarray, xatol: float, fatol: float, maxiter: int):
    """Nelder-Mead minimum of f from x0 as (x, f(x)).

    It repeats SciPy's minimize(f, x0, method="Nelder-Mead") step for step
    for the options used here: no bounds, adaptive=False, the default
    initial simplex and an unlimited maxfev.  The float expressions and
    their order are SciPy's, so the iterates are bit-identical.  f gets a
    float64 array and must not modify it.  The simplex is Python floats, NaN
    acting as in SciPy; the vertex order is np.argsort's, unstable on ties.
    """
    x0 = np.asarray(x0, dtype=float).tolist()
    n = len(x0)
    sim = [x0] + [x0[:k] + [1.05 * x0[k] if x0[k] != 0 else 0.00025] + x0[k + 1:]
                  for k in range(n)]
    fsim = [float(f(np.array(x))) for x in sim]
    # sorted twice before the first step, as SciPy does, then after each step
    for i in range(maxiter + 1):
        ind = np.array(fsim).argsort().tolist()
        sim, fsim = [sim[k] for k in ind], [fsim[k] for k in ind]
        if i == 0:
            continue
        if i == maxiter or (all(abs(a - b) <= xatol for x in sim[1:] for a, b in zip(x, sim[0]))
                            and all(abs(fsim[0] - v) <= fatol for v in fsim[1:])):
            break
        xbar = [reduce(add, c, 0.0) / n for c in zip(*sim[:-1])]  # as np.add.reduce sums
        xr = [2 * b - w for b, w in zip(xbar, sim[-1])]
        fxr = float(f(np.array(xr)))
        if fxr < fsim[0]:
            xe = [3 * b - 2 * w for b, w in zip(xbar, sim[-1])]
            fxe = float(f(np.array(xe)))
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            # outside contraction if the reflection improved on the worst
            outside = fxr < fsim[-1]
            xc = [1.5 * b - 0.5 * w if outside else 0.5 * b + 0.5 * w for b, w in zip(xbar, sim[-1])]
            fxc = float(f(np.array(xc)))
            if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                sim[-1], fsim[-1] = xc, fxc
            else:
                sim[1:] = [[a + 0.5 * (v - a) for a, v in zip(sim[0], x)] for x in sim[1:]]
                fsim[1:] = [float(f(np.array(x))) for x in sim[1:]]
    return np.array(sim[0]), np.min(fsim)


def _boundary_max_distance(q: Point, r: float, p: ContinuousPoint, samples: int,
                           rng: np.random.Generator):
    """max d(., p) over the radius-r sphere around q: sample plus polish."""
    cq = as_continuous(q)
    dim = 2 * cq.n + 1
    axes = np.eye(dim)[:, None, :] * np.array([1.0, -1.0])[:, None]
    xis = np.vstack([axes.reshape(-1, dim), _unit_rows(rng.standard_normal((samples, dim)))])
    # d(y, p) = N(y p^-1) for y = delta_r(xi) q
    ys = _mul_rows(_sphere_rows(np.full(len(xis), r), xis), _row(cq)[None])
    d = _norm_rows(_mul_rows(ys, -_row(p)[None]))
    first = int(np.argmax(d))  # the first maximum, as a strict > scan picks
    best_val, best_xi = float(d[first]), xis[first]

    def neg(x: np.ndarray) -> float:
        nrm = math.sqrt(x.dot(x))
        if nrm < 1e-12:
            return 0.0
        z, tau = _parts((x / nrm).tolist(), r)
        return -_dist_parts(*_mul_parts(z, tau, cq.z, cq.tau), p.z, p.tau)

    x, fun = _nelder_mead(neg, best_xi, xatol=1e-10, fatol=1e-12, maxiter=400)
    if -fun > best_val:
        best_val, best_xi = -fun, _unit(x)
    return best_val, best_xi


def closeball_witness(p: Point, p_prime: Point, r: float, *,
                      R: float = DEFAULT_CLOSEBALL_R,
                      samples: int = 320, seed: int = 11) -> CloseballResult:
    """Center q with d(p_prime, q) <= 2r whose r-ball should sit in B_rho(p),
    rho = d(p, p_prime).

    With p0 = delta_(1/2r)(p p_prime^-1) = (z0, tau0), the configuration
    dilated to inner radius 1/2 with p_prime at the origin, the center is
    q = delta_2r(u) p_prime for a unit u: (z0/|z0|, 0) when the horizontal
    part dominates (equator), (0, sign tau0) otherwise (pole).  verified
    is a sampled verdict, not a certificate: max d(., p) over the r-sphere
    of q is taken over the 2(2n+1) axis directions and `samples` random
    ones (320 by default, 160 in the CLI) plus one Nelder-Mead polish, so
    a maximum between the samples can be missed.  A failure reports its
    worst sampled direction as the violation.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    rho = metric_d(p, p_prime)
    if not rho > 2 * R * r:
        raise HypothesisViolation(
            "scale_gap", f"rho = {rho} must exceed 2 R r = {2 * R * r}"
        )
    p0 = dilate(1.0 / (2.0 * r), multiply(p, inverse(p_prime)))
    rho0 = homogeneous_norm(p0)
    z_norm = math.sqrt(sum(w.real * w.real + w.imag * w.imag for w in p0.z))
    if z_norm >= 2.0 * DEFAULT_CLOSEBALL_C / rho0:
        branch = "equator"
        u = ContinuousPoint(tuple(w / z_norm for w in p0.z), 0.0)
    else:
        branch = "pole"
        u = ContinuousPoint((0j,) * p0.n, -1.0 if p0.tau < 0 else 1.0)
    q = multiply(dilate(2.0 * r, u), as_continuous(p_prime))
    rng = np.random.default_rng(seed)
    max_d, worst_xi = _boundary_max_distance(q, r, as_continuous(p), samples, rng)
    verified = max_d <= rho * (1.0 + 1e-12) + 1e-9
    report = {
        "branch": branch,
        "rho": rho,
        "normalized_rho": rho0,
        "max_boundary_distance": max_d,
        "violation": None if verified else [float(v) for v in worst_xi],
    }
    return CloseballResult(q, verified, report)


# --- intersection chains ------------------------------------------------------


@dataclass(frozen=True)
class ChainConfig:
    """Candidate chain of mutually incident thickened spheres; shells[j] is
    BallSpec(points[j], radii[j], thicks[j]), built and checked here."""

    points: tuple[Point, ...]
    radii: tuple[float, ...]
    thicks: tuple[float, ...]
    R: float
    shells: tuple[BallSpec, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = len(self.points)
        if m < 1 or len(self.radii) != m or len(self.thicks) != m:
            raise ValueError("points, radii and thicks must share a positive length")
        if not 1 < self.R < math.inf:
            raise ValueError("R must be finite and exceed 1")
        object.__setattr__(self, "shells", tuple(map(BallSpec, self.points, self.radii, self.thicks)))


def certify_chain(config: ChainConfig, witness: Optional[Point] = None) -> dict:
    """The chain's clauses, each decided exactly.

    thickness_floor: every t_i >= 1.  radius_scale: r_i >= R t_1 ... t_i for
    every i, cross-multiplied in integers.  memberships: x_i lies in the
    thickened sphere of x_j for every j < i.  witness_in_all, given a
    witness: it lies in every thickened sphere.  The last two read one
    balls.boundary_table over the chain's points and config.shells, which
    decides every pair, so a point that core.offset_exact refuses raises
    even past a failed clause.  No radius or thickness raises here: the
    config refused those that BallSpec refuses when it was built.
    """
    # r_i >= R t_1 ... t_i, cross-multiplied in integers (denominators > 0)
    num, den = radius_parts(config.R)
    scale_ok = True
    for r_i, t_i in zip(config.radii, config.thicks):
        (t_num, t_den), (r_num, r_den) = radius_parts(t_i), radius_parts(r_i)
        num, den = num * t_num, den * t_den
        scale_ok = scale_ok and r_num * den >= num * r_den
    out = {"thickness_floor": all(t >= 1 for t in config.thicks), "radius_scale": scale_ok}
    m, points = len(config.points), config.points
    clauses = {"memberships": [(i, j) for i in range(m) for j in range(i)]}
    if witness is not None:
        points += (witness,)
        clauses["witness_in_all"] = [(m, j) for j in range(m)]
    pairs = [p for ps in clauses.values() for p in ps]
    table = dict(zip(pairs, boundary_table(points, config.shells, pairs)))
    for name, ps in clauses.items():
        out[name] = all(table[p] for p in ps)
    return out


def _certified(config: ChainConfig, witness: Point) -> Optional[tuple]:
    """(config, witness, certify_chain's clauses) when every clause holds, else None."""
    conditions = certify_chain(config, witness)
    return (config, witness, conditions) if all(conditions.values()) else None


def _chain_doc(config: ChainConfig, witness: Point, conditions: dict) -> dict:
    """A certified chain's report entry, built only for the reported ones."""
    return {
        "points": [point_to_json(x) for x in config.points],
        "radii": list(config.radii),
        "thicks": list(config.thicks),
        "R": config.R,
        "conditions": conditions,
        "witness": point_to_json(witness),
    }


def _violation(row, shells) -> float:
    """max over shells (z, tau, r, t) of |d(row, (z, tau))^2 - r^2| - t^2; <= 0 certifies."""
    z, tau = _parts(row)
    worst = -math.inf
    for w, sigma, r_i, t_i in shells:
        d = _dist_parts(z, tau, w, sigma)
        worst = max(worst, abs(d * d - r_i * r_i) - t_i * t_i)
    return worst


_PROJECT_ROUNDS = 48


def _project_rows(y, centers, radii) -> np.ndarray:
    """Cyclic dilation projection: each of _PROJECT_ROUNDS rounds slides
    every row along the dilation path onto each center's sphere in turn
    (onto the sphere's first axis point when the row sits on the center)."""
    pole = np.eye(1, y.shape[1])
    steps = list(zip(centers, [-c for c in centers], radii))
    for _ in range(_PROJECT_ROUNDS):
        for c, c_inv, r in steps:
            off = _mul_rows(y, c_inv)
            lam = _norm_rows(off)
            at_center = lam == 0.0
            y = _dilate_rows(r / np.where(at_center, 1.0, lam), off)
            if at_center.any():
                y[at_center] = _sphere_rows(r[at_center], pole)
            y = _mul_rows(y, c)
    return y


def _polish(row, shells, value: float):
    """Nelder-Mead on the shell violation from a row, in coordinates scaled
    to order one; returns the better of the result and the start."""
    scale = max(1.0, float(np.max(np.abs(row))))

    def unscaled(x: np.ndarray) -> list:
        return [c * scale for c in x[:-1].tolist()] + [float(x[-1]) * scale * scale]

    x, fun = _nelder_mead(lambda x: _violation(unscaled(x), shells),
                          np.append(row[:-1] / scale, row[-1] / (scale * scale)),
                          xatol=1e-12, fatol=1e-12, maxiter=600)
    return (np.array(unscaled(x)), float(fun)) if fun < value else (row, value)


# Trials per process below which a pool costs more than it saves; the
# crossover comes from demos/pool_crossover.py.
_POOL_MIN_TRIALS = 1024


def _run_trials(args) -> list[dict]:
    """Chain trials first..stop-1 in trial order, as intersection_search
    describes; the float stages run over all trials of the block at once."""
    n, R, seed, first, stop, max_chain = args
    dim = 2 * n + 1
    rngs = [np.random.default_rng([seed, trial]) for trial in range(first, stop)]
    outs = [{"trial": trial, "length": 1, "chain": None} for trial in range(first, stop)]
    draws, normals = [], []
    for rng in rngs:
        t1 = 1.0 + float(rng.uniform(0.0, 1.0))
        t2 = 1.0 + float(rng.uniform(0.0, 0.6))
        r1 = t1 * R * (1.0 + float(rng.uniform(0.0, 2.0)))
        r2_floor = max(t1 * t2 * R, 0.3 * r1)
        r2 = float(rng.uniform(r2_floor, max(r2_floor * 1.001, min(1.35 * r1, 2.5 * r2_floor))))
        draws.append((t1, t2, r1, r2))
        normals.append([rng.standard_normal(dim), rng.standard_normal(dim)])
    t1s, _, r1s, r2s = np.array(draws).T
    normals = np.array(normals)
    x1 = _sphere_rows(r1s, _unit_rows(normals[:, 0]))
    v = _unit_rows(normals[:, 1])
    x2 = _mul_rows(_sphere_rows(r1s, v), x1)
    anchor = _mul_rows(x2, -x1)
    tol = (t1s * t1s) / (4.0 * r1s)

    def bisect(rows, hi):
        rel, _, found = _bisect_rows(anchor[rows], r2s[rows], r1s[rows], tol[rows], -v[rows],
                                     hi, lambda i: _waypoint(rngs[rows[i]], -v[rows[i]]))
        return _mul_rows(rel, x1[rows]), found

    # witness on the second sphere at distance ~r1 from the first center:
    # endpoints -v (inside) and a perpendicular (outside) bracket the target;
    # a trial whose bisection fails draws a new perpendicular, six at most
    perp, witness = np.zeros_like(v), np.zeros_like(v)
    pending = np.arange(len(rngs))
    for _ in range(6):
        if not pending.size:
            break
        cand = np.array([rngs[i].standard_normal(dim) for i in pending])
        cand -= _dot_rows(cand, v[pending])[:, None] * v[pending]
        norm = np.sqrt(_dot_rows(cand, cand))
        ok = norm >= 1e-9
        rows = pending[ok]
        perp[rows] = cand[ok] / norm[ok][:, None]
        y, found = bisect(rows, perp[rows])
        witness[rows[found]] = y[found]
        pending = np.setdiff1d(pending, rows[found])
    configs = {}  # the report shows three chains of the longest length: keep three a length
    for i in np.setdiff1d(np.arange(len(rngs)), pending):
        config = ChainConfig((_point(x1[i]), _point(x2[i])), draws[i][2:], draws[i][:2], R)
        chain = _certified(config, _point(witness[i]))
        if chain is not None:
            outs[i].update(length=2, chain=chain if len(configs) < 3 else None)
            configs[i] = config
    if max_chain < 3 or not configs:
        return outs
    # third sphere centered at another certified common point of the first
    # two shells; its own shell must then meet both existing ones
    rows = np.array(sorted(configs))
    x3, found = bisect(rows, -perp[rows])
    rows, x3 = rows[found], x3[found]
    if not rows.size:
        return outs
    third = []
    for i in rows:
        t1, t2 = draws[i][:2]
        t3 = 1.0 + float(rngs[i].uniform(0.0, 0.5))
        r3 = t1 * t2 * t3 * R * (1.0 + float(rngs[i].uniform(0.0, 0.3)))
        third.append((t3, r3, rngs[i].standard_normal(dim)))
    # cyclic projection from two seeds per trial, the length-2 witness and a
    # point of the third sphere: rows k and k + len(rows) belong to rows[k]
    r3s = np.array([r3 for _, r3, _ in third])
    xis = np.array([xi for _, _, xi in third])
    seeds = np.concatenate([witness[rows], _mul_rows(_sphere_rows(r3s, _unit_rows(xis)), x3)])
    projected = _project_rows(seeds, [np.tile(c, (2, 1)) for c in (x1[rows], x2[rows], x3)],
                              [np.tile(r, 2) for r in (r1s[rows], r2s[rows], r3s)])
    kept = 0
    for k, i in enumerate(rows):
        points = configs[i].points + (_point(x3[k]),)
        radii = configs[i].radii + (third[k][1],)
        thicks = configs[i].thicks + (third[k][0],)
        shells = [(x.z, x.tau, r_i, t_i) for x, r_i, t_i in zip(points, radii, thicks)]
        best, best_v = None, math.inf
        for row in (projected[k], projected[k + len(rows)]):
            val = _violation(row.tolist(), shells)
            if val < best_v:
                best, best_v = row, val
        t_min = min(thicks)
        if best is not None and 0.0 < best_v < 9.0 * t_min * t_min:
            best, best_v = _polish(best, shells, best_v)
        outs[i]["violation3"] = best_v
        if best is not None and best_v <= 0.0:
            chain = _certified(ChainConfig(points, radii, thicks, R), _point(best))
            if chain is not None:
                outs[i].update(length=3, chain=chain if kept < 3 else None)
                kept += 1
    return outs


def intersection_search(n: int, R: float, trials: int, max_chain: int = 3,
                        seed: int = 0, workers: int = 1) -> dict:
    """Randomized hunt for incident-sphere chains with common points.

    Trial i draws from default_rng([seed, i]) in a fixed order, one trial
    at a time.  The float work then runs for all trials at once, along a
    trial axis: the witness bisection along the second sphere (a trial
    whose bisection fails redraws its perpendicular, six times at most),
    the bisection for a third center on both shells, and 48 rounds of
    cyclic dilation projection from two seeds per trial.  Per candidate
    chain, the better seed is polished by _nelder_mead when its shell
    violation is positive but below 9 t_min^2, and certify_chain alone
    decides the chain's length.  The arrays repeat the object-level float
    operations bit for bit, so batching never changes the report.
    max_chain is 2 or 3.

    workers is an upper bound: the search forks min(workers, trials //
    _POOL_MIN_TRIALS, os.cpu_count()) processes, each taking one contiguous
    block of trials, and blocks merge in trial order.  With one process it
    runs in the caller and builds no pool.  The report is the same for any
    workers.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    if max_chain not in (2, 3):
        raise ValueError("max_chain must be 2 or 3")
    if not R > 1:
        raise ValueError("R must exceed 1")
    procs = max(1, min(workers, trials // _POOL_MIN_TRIALS, os.cpu_count() or 1))
    block = max(1, -(-trials // procs))
    jobs = [(n, R, seed, a, min(a + block, trials), max_chain)
            for a in range(0, trials, block)]
    if len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # the fork start method launches every worker at the first submit
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            blocks = list(pool.map(_run_trials, jobs))
    else:
        blocks = [_run_trials(j) for j in jobs]
    results = [d for b in blocks for d in b]
    longest = max((d["length"] for d in results), default=0)
    counts: dict[int, int] = {}
    for d in results:
        counts[d["length"]] = counts.get(d["length"], 0) + 1
    chains = [d["chain"] for d in results if d["length"] == longest and d["chain"]]
    near3 = [d["violation3"] for d in results if "violation3" in d]
    return {
        "n": n,
        "R": R,
        "trials": trials,
        "seed": seed,
        "max_chain": max_chain,
        "longest_chain_found": longest,
        "length_counts": counts,
        "certificates": [_chain_doc(*c) for c in chains[:3]],
        "best_violation_length3": min(near3) if near3 else None,
        "attempts_length3": len(near3),
    }
