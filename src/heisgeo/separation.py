"""Large-scale separation checks, inner-ball witnesses, and chain searches.

Three numerical verifiers for the geometry of thickened spheres:

* ``lss_check`` certifies the hypotheses of the large-scale separation
  bound and evaluates the normalized distance between sphere centers
  against the closed-form threshold.
* ``closeball_witness`` constructs the inner tangent ball witness (pole
  or equator branch after dilating the configuration to radius 1/2) and
  verifies the containment on a dense boundary sample.
* ``intersection_search`` hunts for chains of mutually incident
  thickened spheres with a nonempty common intersection.  Nonemptiness
  is certified by an exhibited point; emptiness is only ever reported,
  never asserted.

The unnamed constants of the underlying estimates (the threshold scale
for separation, the branch constant for the inner ball) are measured
empirically by the ``*_estimate`` helpers and frozen as defaults.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .balls import BallSpec, boundary_contains
from .core import (
    ContinuousPoint,
    Point,
    as_continuous,
    continuous_identity,
    dilate,
    homogeneous_norm,
    inverse,
    isometry_flip,
    isometry_rotate,
    lattice_identity,
    metric_d,
    multiply,
    point_to_json,
)
from .errors import HypothesisViolation
from .spherequad import point_to_flat, sphere_point

# measured by closeball_R_estimate / lss_threshold_estimate at desk scale;
# generous margins over the observed feasibility thresholds
DEFAULT_CLOSEBALL_R = 8.0
DEFAULT_CLOSEBALL_C = 2.0


def _unit(vec: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ValueError("zero direction")
    return vec / norm


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
    if not boundary_contains(lattice_identity(p.n), BallSpec(p, r, t)):
        raise HypothesisViolation("origin_shell_p", "origin not within t of the sphere of p")
    if not boundary_contains(lattice_identity(q.n), BallSpec(q, r_tilde, t_tilde)):
        raise HypothesisViolation("origin_shell_q", "origin not within t_tilde of the sphere of q")
    if not boundary_contains(q, BallSpec(p, r, t)):
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


def _bisect_surface_distance(anchor: ContinuousPoint, radius, target: float,
                             tol: float, rng: np.random.Generator,
                             lo_dir: np.ndarray, hi_dir: np.ndarray):
    """Point delta_radius(v) * anchor at distance ~target from the origin.

    v moves along the great circle from lo_dir to hi_dir; the distance to
    the origin is continuous in the angle, so standard bisection lands
    within tol of the target provided the endpoints bracket it.
    """
    base = multiply(sphere_point(radius, lo_dir), anchor)
    f_lo = homogeneous_norm(base)
    f_hi = homogeneous_norm(multiply(sphere_point(radius, hi_dir), anchor))
    if not (min(f_lo, f_hi) < target < max(f_lo, f_hi)):
        return None
    # orthonormalize so v(alpha) sweeps the great circle between the ends;
    # antipodal ends leave the circle free, so draw the waypoint at random
    c = max(-1.0, min(1.0, float(np.dot(lo_dir, hi_dir))))
    if c <= -1.0 + 1e-9:
        w = None
        for _ in range(8):
            cand = rng.standard_normal(lo_dir.shape[0])
            cand -= np.dot(cand, lo_dir) * lo_dir
            if np.linalg.norm(cand) > 1e-9:
                w = _unit(cand)
                break
        if w is None:
            return None
        span = math.pi
    else:
        w = hi_dir - c * lo_dir
        if np.linalg.norm(w) < 1e-12:
            return None
        w = _unit(w)
        span = math.acos(c)
    a_lo, a_hi = 0.0, span
    rising = f_hi > f_lo
    for _ in range(200):
        mid = 0.5 * (a_lo + a_hi)
        v = math.cos(mid) * lo_dir + math.sin(mid) * w
        y = multiply(sphere_point(radius, _unit(v)), anchor)
        f = homogeneous_norm(y)
        if abs(f - target) <= tol:
            return y, f
        if (f < target) == rising:
            a_lo = mid
        else:
            a_hi = mid
    return None


def random_lss_config(R: float, eps: float, n: int = 1,
                      rng: Optional[np.random.Generator] = None,
                      seed: Optional[int] = None) -> LssConfig:
    """Hypothesis-satisfying configuration with certifiable memberships.

    p sits essentially on its own sphere through the origin; q is found
    by bisecting along that sphere to the prescribed distance from the
    origin, then snapped onto the origin-centred sphere of radius
    r_tilde by a dilation.  All three shell memberships then clear the
    dilation-witness screen or land within the minimizer tolerance.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
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
        hit = _bisect_surface_distance(
            p, r, r_tilde, t * t / (9.0 * r_tilde), rng, -u, u
        )
        if hit is None:
            continue
        y0, f = hit
        q = dilate(r_tilde / f, y0)
        cfg = LssConfig(p, q, t, t_tilde, r, r_tilde)
        try:
            lss_check(p, q, t, t_tilde, r, r_tilde, eps, R)
        except HypothesisViolation:
            continue
        return cfg
    raise RuntimeError("configuration sampling failed to certify; widen tolerances")


def lss_threshold_estimate(eps: float, n: int = 1, configs: int = 12,
                           seed: int = 0, r_lo: float = 1.01,
                           r_hi: float = 1e4, iters: int = 30) -> dict:
    """Empirical estimate of the scale above which the bound always held.

    Bisection in log scale on the minimum gap over a fixed family of
    sampled configurations; purely observational, recorded in reports.
    """

    def min_gap(R: float) -> float:
        worst = math.inf
        for i in range(configs):
            cfg = random_lss_config(R, eps, n, seed=seed * 1009 + i)
            res = lss_check(cfg.p, cfg.q, cfg.t, cfg.t_tilde, cfg.r, cfg.r_tilde, eps, R)
            worst = min(worst, res.gap)
        return worst

    gap_hi = min_gap(r_hi)
    gap_lo = min_gap(r_lo)
    lo, hi = r_lo, r_hi
    if gap_lo >= 0.0:
        estimate = r_lo
    else:
        for _ in range(iters):
            mid = math.sqrt(lo * hi)
            if min_gap(mid) >= 0.0:
                hi = mid
            else:
                lo = mid
        estimate = hi
    return {
        "eps": eps,
        "n": n,
        "configs": configs,
        "seed": seed,
        "range": [r_lo, r_hi],
        "estimate": estimate,
        "gap_at_low_end": gap_lo,
        "gap_at_high_end": gap_hi,
    }


# --- inner ball witness ------------------------------------------------------


class CloseballResult(NamedTuple):
    q: Point
    verified: bool
    report: dict


def _boundary_max_distance(q: Point, r: float, p: Point, samples: int,
                           rng: np.random.Generator):
    """max d(., p) over the radius-r sphere around q: sample plus polish."""
    cq = as_continuous(q)
    dim = 2 * cq.n + 1
    xis = [np.eye(dim)[i] * s for i in range(dim) for s in (1.0, -1.0)]
    xis.extend(_unit(rng.standard_normal(dim)) for _ in range(samples))
    best_val, best_xi = -math.inf, xis[0]
    for xi in xis:
        d = metric_d(multiply(sphere_point(r, xi), cq), p)
        if d > best_val:
            best_val, best_xi = d, xi

    def neg(x: np.ndarray) -> float:
        nrm = float(np.linalg.norm(x))
        if nrm < 1e-12:
            return 0.0
        return -metric_d(multiply(sphere_point(r, x / nrm), cq), p)

    import scipy.optimize as opt  # loaded on first polish: costs ~0.5 s at import

    res = opt.minimize(neg, best_xi, method="Nelder-Mead",
                       options=dict(xatol=1e-10, fatol=1e-12, maxiter=400))
    if -res.fun > best_val:
        best_val, best_xi = -res.fun, _unit(res.x)
    return best_val, best_xi


def closeball_witness(p: Point, p_prime: Point, r: float,
                      rho: Optional[float] = None, *,
                      R: float = DEFAULT_CLOSEBALL_R,
                      C: float = DEFAULT_CLOSEBALL_C,
                      samples: int = 320, seed: int = 11) -> CloseballResult:
    """Center q with d(p_prime, q) <= 2r whose r-ball should sit in B_rho(p).

    The configuration is dilated so the inner radius is 1/2 and p_prime
    is the origin, the phases and the sign of tau are normalised away by
    isometries, and q is picked on the unit sphere: along z_p when the
    horizontal part dominates, at the pole otherwise.  Containment is
    then checked on a boundary sample plus a numerical maximizer, and
    reported with the violating point when it fails.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    rho_actual = metric_d(p, p_prime)
    if rho is None:
        rho = rho_actual
    elif abs(rho - rho_actual) > 1e-6 * max(1.0, rho_actual):
        raise ValueError("rho must equal d(p, p_prime)")
    if not rho > 2 * R * r:
        raise HypothesisViolation(
            "scale_gap", f"rho = {rho} must exceed 2 R r = {2 * R * r}"
        )
    p0 = dilate(1.0 / (2.0 * r), multiply(p, inverse(p_prime)))
    rho0 = homogeneous_norm(p0)
    flipped = p0.tau < 0
    p1 = isometry_flip(p0) if flipped else p0
    theta = [-(0.0 if w == 0 else math.atan2(w.imag, w.real)) for w in p1.z]
    p2 = isometry_rotate(theta, p1)
    z_norm = math.sqrt(sum(w.real * w.real + w.imag * w.imag for w in p2.z))
    if z_norm >= 2.0 * C / rho0:
        branch = "equator"
        q_norm = ContinuousPoint(tuple(complex(w.real / z_norm, 0.0) for w in p2.z), 0.0)
    else:
        branch = "pole"
        q_norm = ContinuousPoint((0j,) * p2.n, 1.0)
    q_back = isometry_rotate([-a for a in theta], q_norm)
    if flipped:
        q_back = isometry_flip(q_back)
    q = multiply(dilate(2.0 * r, q_back), as_continuous(p_prime))
    rng = np.random.default_rng(seed)
    max_d, worst_xi = _boundary_max_distance(q, r, as_continuous(p), samples, rng)
    verified = max_d <= rho * (1.0 + 1e-12) + 1e-9
    report = {
        "branch": branch,
        "rho": rho,
        "normalized_rho": rho0,
        "max_boundary_distance": max_d,
        "witness_center_gap": metric_d(p_prime, q),
        "samples": samples,
        "R": R,
        "C": C,
        "violation": None if verified else [float(v) for v in worst_xi],
    }
    return CloseballResult(q, verified, report)


def closeball_R_estimate(r: float = 0.5, n: int = 1, directions: int = 24,
                         seed: int = 3, hi: float = 512.0) -> dict:
    """Smallest scale factor at which the witness verified in every direction.

    Doubling then log-bisection over the ratio rho / (2r); observational,
    like the separation threshold estimate.
    """
    rng = np.random.default_rng(seed)
    dim = 2 * n + 1
    dirs = [_unit(rng.standard_normal(dim)) for _ in range(directions)]
    dirs.extend(np.eye(dim)[i] * s for i in range(dim) for s in (1.0, -1.0))
    origin = continuous_identity(n)

    def feasible(scale: float) -> bool:
        rho = 2.0 * scale * r * 1.0001
        for u in dirs:
            res = closeball_witness(sphere_point(rho, u), origin, r, R=scale,
                                    samples=96)
            if not res.verified:
                return False
        return True

    lo_scale = 1.0
    scale = 2.0
    while not feasible(scale):
        lo_scale, scale = scale, scale * 2.0
        if scale > hi:
            return {"estimate": None, "feasible_at_hi": False, "hi": hi,
                    "directions": len(dirs), "seed": seed, "r": r}
    lo, feas = lo_scale, scale
    for _ in range(18):
        mid = math.sqrt(lo * feas)
        if feasible(mid):
            feas = mid
        else:
            lo = mid
    return {"estimate": feas, "feasible_at_hi": True, "hi": hi,
            "directions": len(dirs), "seed": seed, "r": r}


# --- intersection chains ------------------------------------------------------


@dataclass(frozen=True)
class ChainConfig:
    """Candidate chain of mutually incident thickened spheres."""

    points: tuple[Point, ...]
    radii: tuple[float, ...]
    thicks: tuple[float, ...]
    R: float

    def __post_init__(self) -> None:
        m = len(self.points)
        if m < 1 or len(self.radii) != m or len(self.thicks) != m:
            raise ValueError("points, radii and thicks must share a positive length")
        if any(not r > 0 for r in self.radii):
            raise ValueError("radii must be positive")
        if not self.R > 1:
            raise ValueError("R must exceed 1")

    def __len__(self) -> int:
        return len(self.points)


def certify_chain(config: ChainConfig, witness: Optional[Point] = None) -> dict:
    """Re-check the chain conditions; exact arithmetic on the radii scaling."""
    thick_ok = all(t >= 1 for t in config.thicks)
    scale_ok = True
    acc = Fraction(1)
    for r_i, t_i in zip(config.radii, config.thicks):
        acc *= Fraction(t_i)
        if Fraction(r_i) < acc * Fraction(config.R):
            scale_ok = False
            break
    members_ok = all(
        bool(boundary_contains(config.points[i],
                               BallSpec(config.points[j], config.radii[j], config.thicks[j])))
        for i in range(len(config.points)) for j in range(i)
    )
    out = {
        "thickness_floor": thick_ok,
        "radius_scale": scale_ok,
        "memberships": members_ok,
    }
    if witness is not None:
        out["witness_in_all"] = all(
            bool(boundary_contains(witness, BallSpec(x, r_i, t_i)))
            for x, r_i, t_i in zip(config.points, config.radii, config.thicks)
        )
    return out


def _chain_doc(config: ChainConfig, witness: Optional[Point]) -> dict:
    doc = {
        "points": [point_to_json(x) for x in config.points],
        "radii": list(config.radii),
        "thicks": list(config.thicks),
        "R": config.R,
        "conditions": certify_chain(config, witness),
    }
    if witness is not None:
        doc["witness"] = point_to_json(witness)
    return doc


def _shell_violation(y: Point, points, radii, thicks) -> float:
    """max over shells of the certification-band excess; <= 0 is certifiable."""
    worst = -math.inf
    for x, r_i, t_i in zip(points, radii, thicks):
        d = metric_d(y, x)
        worst = max(worst, abs(d * d - r_i * r_i) - t_i * t_i)
    return worst


def _dilation_step(y: Point, center: Point, r: float) -> ContinuousPoint:
    """Slide y along the dilation path onto the radius-r sphere of center."""
    off = multiply(as_continuous(y), inverse(as_continuous(center)))
    lam = homogeneous_norm(off)
    if lam == 0.0:
        return multiply(sphere_point(r, np.array([1.0] + [0.0] * 2 * off.n)),
                        as_continuous(center))
    return multiply(dilate(r / lam, off), as_continuous(center))


def _common_point_search(points, radii, thicks, seeds, rounds: int = 48):
    """Cyclic dilation projections, then a minimax polish on near misses."""
    best_y, best_v = None, math.inf
    for y in seeds:
        cur = as_continuous(y)
        for _ in range(rounds):
            for x, r_i in zip(points, radii):
                cur = _dilation_step(cur, x, r_i)
        v = _shell_violation(cur, points, radii, thicks)
        if v < best_v:
            best_y, best_v = cur, v
    t_min = min(thicks)
    if best_y is not None and 0.0 < best_v < 9.0 * t_min * t_min:
        z0, tau0 = point_to_flat(best_y)
        x0 = np.concatenate([z0, [tau0]])
        scale = max(1.0, float(np.max(np.abs(x0))))

        def f(x: np.ndarray) -> float:
            n = (x.shape[0] - 1) // 2
            z = tuple(complex(x[j] * scale, x[n + j] * scale) for j in range(n))
            return _shell_violation(ContinuousPoint(z, float(x[-1]) * scale * scale),
                                    points, radii, thicks)

        start = np.concatenate([z0 / scale, [tau0 / (scale * scale)]])
        import scipy.optimize as opt

        res = opt.minimize(f, start, method="Nelder-Mead",
                           options=dict(xatol=1e-12, fatol=1e-12, maxiter=600))
        if res.fun < best_v:
            n = (res.x.shape[0] - 1) // 2
            best_y = ContinuousPoint(
                tuple(complex(res.x[j] * scale, res.x[n + j] * scale) for j in range(n)),
                float(res.x[-1]) * scale * scale,
            )
            best_v = float(res.fun)
    return best_y, best_v


def _run_trial(args) -> dict:
    n, R, seed, trial, max_chain = args
    rng = np.random.default_rng([seed, trial])
    dim = 2 * n + 1
    t1 = 1.0 + float(rng.uniform(0.0, 1.0))
    t2 = 1.0 + float(rng.uniform(0.0, 0.6))
    r1 = t1 * R * (1.0 + float(rng.uniform(0.0, 2.0)))
    r2_floor = max(t1 * t2 * R, 0.3 * r1)
    r2 = float(rng.uniform(r2_floor, max(r2_floor * 1.001, min(1.35 * r1, 2.5 * r2_floor))))
    x1 = sphere_point(r1, _unit(rng.standard_normal(dim)))
    v = _unit(rng.standard_normal(dim))
    x2 = multiply(sphere_point(r1, v), x1)
    out = {"trial": trial, "length": 1, "chain": None}
    # witness on the second sphere at distance ~r1 from the first center:
    # endpoints -v (inside) and a perpendicular (outside) bracket the target
    hit, perp = None, None
    for _ in range(6):
        cand = rng.standard_normal(dim)
        cand -= np.dot(cand, v) * v
        if np.linalg.norm(cand) < 1e-9:
            continue
        perp = _unit(cand)
        hit = _bisect_witness(x1, x2, r1, t1, r2, rng, v, perp)
        if hit is not None:
            break
    if hit is None or perp is None:
        return out
    y = hit
    config = ChainConfig((x1, x2), (r1, r2), (t1, t2), R)
    cert = certify_chain(config, y)
    if not all(cert.values()):
        return out
    out["length"] = 2
    out["chain"] = _chain_doc(config, y)
    if max_chain < 3:
        return out
    # third sphere centered at another certified common point of the first
    # two shells; its own shell must then meet both existing ones
    x3_hit = _bisect_witness(x1, x2, r1, t1, r2, rng, v, -perp)
    if x3_hit is None:
        return out
    x3 = x3_hit
    t3 = 1.0 + float(rng.uniform(0.0, 0.5))
    r3 = t1 * t2 * t3 * R * (1.0 + float(rng.uniform(0.0, 0.3)))
    points, radii, thicks = (x1, x2, x3), (r1, r2, r3), (t1, t2, t3)
    seeds = [y, multiply(sphere_point(r3, _unit(rng.standard_normal(dim))), x3)]
    best_y, best_v = _common_point_search(points, radii, thicks, seeds)
    out["violation3"] = best_v
    if best_y is not None and best_v <= 0.0:
        config3 = ChainConfig(points, radii, thicks, R)
        cert3 = certify_chain(config3, best_y)
        if all(cert3.values()):
            out["length"] = 3
            out["chain"] = _chain_doc(config3, best_y)
    return out


def _bisect_witness(x1, x2, r1, t1, r2, rng, v, perp):
    """Point on the r2-sphere of x2 whose distance to x1 hits the r1 band."""
    res = _bisect_surface_distance(
        multiply(as_continuous(x2), inverse(as_continuous(x1))),
        r2, r1, t1 * t1 / (4.0 * r1), rng, -v, perp,
    )
    if res is None:
        return None
    y_rel, _ = res
    return multiply(y_rel, as_continuous(x1))


def intersection_search(n: int, R: float, trials: int, max_chain: int = 3,
                        seed: int = 0, workers: int = 1) -> dict:
    """Randomized hunt for incident-sphere chains with common points.

    Two-sphere chains are built constructively (bisection along the
    second sphere); longer chains are attempted by cyclic projection and
    minimax polish from certified length-2 witnesses.  Results merge in
    trial order, so worker count never changes the report.
    """
    if not R > 1:
        raise ValueError("R must exceed 1")
    jobs = [(n, R, seed, i, max_chain) for i in range(trials)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_trial, jobs, chunksize=64))
    else:
        results = [_run_trial(j) for j in jobs]
    results.sort(key=lambda d: d["trial"])
    longest = max((d["length"] for d in results), default=0)
    counts: dict[int, int] = {}
    for d in results:
        counts[d["length"]] = counts.get(d["length"], 0) + 1
    certificates = [d["chain"] for d in results if d["length"] == longest and d["chain"]]
    near3 = [d["violation3"] for d in results if "violation3" in d]
    return {
        "n": n,
        "R": R,
        "trials": trials,
        "seed": seed,
        "max_chain": max_chain,
        "longest_chain_found": longest,
        "length_counts": counts,
        "certificates": certificates[:3],
        "best_violation_length3": min(near3) if near3 else None,
        "attempts_length3": len(near3),
    }
