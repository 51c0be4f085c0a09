"""The four benchmark workloads: fixtures, timed tasks and output checks.

Each workload function takes a NumPy generator seeded from (seed, pass) and returns
a list of `Task`s.  Building the list is the fixture phase and is counted
in set-up time; only `Task.call` is timed.  A task's check runs right
after its call, untimed and untraced, and a failed check is counted, never
raised.  Sizes are chosen so that one pass of a workload takes a few
seconds on a 2-core machine; README.md gives the purpose of each.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import oracles

import heisgeo
from heisgeo import balls, covering, ergodic, separation
from heisgeo.core import ContinuousPoint, LatticePoint
from heisgeo.errors import ResourceCapError

HERE = os.path.dirname(os.path.abspath(__file__))


@functools.cache
def reference() -> dict:
    """Values recorded from the seed program by record_reference.py."""
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


@dataclass
class Task:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    refusals: tuple = ()       # exceptions that count as a correct refusal
    meta: dict = field(default_factory=dict)


def _lp(a: int, b: int, m: int) -> LatticePoint:
    return LatticePoint((a,), (b,), m)


def _rand_lattice(rng, span: int, depth: int) -> LatticePoint:
    a = int(rng.integers(-span, span + 1))
    b = int(rng.integers(-span, span + 1))
    return _lp(a, b, a * b + 2 * int(rng.integers(-depth, depth + 1)))


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# --- lattice-exact -----------------------------------------------------------

def lattice_exact(rng, ctx) -> list[Task]:
    """Exact counts, enumeration, Folner ratios and ergodic label aggregation."""
    tasks = []
    ref = reference()["lattice-exact"]
    for n, ks in ((1, range(4, 41, 4)), (2, range(2, 11, 2))):
        sigma = heisgeo.generator(n, 0)
        for k in ks:
            tasks.append(Task("ball_cardinality", lambda n=n, k=k: balls.ball_cardinality(n, k),
                              lambda out, n=n, k=k: out == oracles.ball_count(n, k)))
            want = (Fraction(413642, 10720673) if (n, k) == (1, 40)
                    else Fraction(ref["folner"][f"{n},{k}"]))
            tasks.append(Task("folner_ratio", lambda n=n, k=k, s=sigma: balls.folner_ratio(n, k, s),
                              lambda out, want=want: out == want))
    # rational radii with small denominators; the large numerators that
    # wrap around in int64 are in lattice_defects, outside the timed tasks
    radii = [Fraction(int(rng.integers(v + 1, 12 * v)), v)
             for v in rng.choice([2, 3, 4, 7, 10, 100], size=6)]
    for r in radii:
        tasks.append(Task("ball_cardinality_rational", lambda r=r: balls.ball_cardinality(1, r),
                          lambda out, r=r: out == oracles.ball_count(1, r),
                          refusals=(ResourceCapError, ValueError)))
    for n, k in ((1, 30), (2, 6)):
        tasks.append(Task("enumerate_ball", lambda n=n, k=k: balls.enumerate_ball(n, k),
                          lambda out, n=n, k=k: _check_table(out, n, k, rng)))
    tasks.append(Task("doubling_table", lambda: balls.doubling_table(1, 12),
                      lambda out: [(r.k, r.card, r.card_sq) for r in out]
                      == [tuple(row) for row in ref["doubling"]]
                      and all(r.card == oracles.ball_count(1, r.k) for r in out)))
    uniform = ergodic.make_quotient_action(1, 3)
    skew = ergodic.make_quotient_action(1, 3, [Fraction(i + 1, 378) for i in range(27)])
    for k in (10, 15, 20):
        sigma = _rand_lattice(rng, 2, 3)
        tasks.append(Task("symmetric_difference_coords",
                          lambda k=k, s=sigma: balls.symmetric_difference_coords(1, k, s),
                          lambda out, k=k, s=sigma: _check_symdiff(out, k, s, rng)))
        x = uniform.states[int(rng.integers(27))]
        # uniform masses make every cocycle 1, so the ratio is the Folner ratio
        tasks.append(Task("nsfc_ratio", lambda k=k, s=sigma, x=x: ergodic.nsfc_ratio(uniform, k, s, x),
                          lambda out, k=k, s=sigma: out == balls.folner_ratio(1, k, s)))
    card40 = oracles.ball_count(1, 40)
    for _ in range(120):
        target = uniform.states[int(rng.integers(27))]
        x = uniform.states[int(rng.integers(27))]
        f = (lambda y, tg=target: Fraction(y == tg))
        tasks.append(Task("weighted_average", lambda f=f, x=x: ergodic.weighted_average(uniform, f, 40, x),
                          lambda out: abs(out.value - Fraction(1, 27)) <= Fraction(2, 100)
                          and (out.value * card40).denominator == 1))
    for _ in range(4):
        c = Fraction(int(rng.integers(1, 20)), int(rng.integers(1, 20)))
        x = skew.states[int(rng.integers(27))]
        tasks.append(Task("weighted_average_constant",
                          lambda c=c, x=x: ergodic.weighted_average(skew, lambda y, c=c: c, 40, x),
                          lambda out, c=c: out.value == c))
        tasks.append(Task("ball_label_counts", lambda: ergodic.ball_label_counts(skew, 40),
                          lambda out: sum(out.values()) == card40))
    target = uniform.states[int(rng.integers(27))]
    f = (lambda y: Fraction(y == target))
    tasks.append(Task("convergence_rows", lambda: ergodic.convergence_rows(uniform, f, range(1, 9)),
                      lambda out: len(out) == 8 * 27 and all(
                          (val * oracles.ball_count(1, k)).denominator == 1
                          and err == abs(val - Fraction(1, 27)) for k, _, val, err in out)))
    support = [_lp(*p) for p in oracles.ball_points(10)]
    for _ in range(3):
        idx = rng.choice(len(support), size=50, replace=False)
        a = {support[i]: Fraction(int(rng.integers(0, 12)), 5) for i in idx[:25]}
        b = {support[i]: Fraction(int(rng.integers(1, 12)), 5) for i in idx[25:]}
        tasks.append(Task("discrete_maximal_check",
                          lambda a=a, b=b: ergodic.discrete_maximal_check(a, b, 3, Fraction(1, 2), 12),
                          lambda out, a=a: out.holds and out.lhs == sum(a.values(), Fraction(0))))
    return tasks


def _check_table(table, n, k, rng) -> bool:
    coords = table.coords
    if coords.shape[0] != oracles.ball_count(n, k):
        return False
    if np.any(np.diff(coords, axis=0).any(axis=1) == 0):
        return False  # duplicate rows
    origin = heisgeo.lattice_identity(n)
    for i in rng.choice(coords.shape[0], size=200):
        row = [int(c) for c in coords[i]]
        if not heisgeo.dist_le_exact(LatticePoint(tuple(row[:n]), tuple(row[n:2 * n]), row[2 * n]),
                                     origin, k):
            return False
    return True


def _check_symdiff(coords, k, sigma, rng) -> bool:
    sym, _ = balls.symmetric_difference_cardinality(1, k, sigma)
    if coords.shape[0] != sym:
        return False
    origin, back = heisgeo.lattice_identity(1), heisgeo.inverse(sigma)
    for i in rng.choice(coords.shape[0], size=min(100, coords.shape[0]), replace=False):
        p = _lp(*(int(c) for c in coords[i]))
        in_b = heisgeo.dist_le_exact(p, origin, k)
        in_sb = heisgeo.dist_le_exact(heisgeo.multiply(back, p), origin, k)
        if in_b == in_sb:
            return False
    return True


# --- sphere-band -------------------------------------------------------------

BAND_CASES = ((10, 1), (10, 2), (12, Fraction(3, 2)), (16, Fraction(1, 2)))


def sphere_band(rng, ctx) -> list[Task]:
    """Thickened-sphere counts, exact t = 0 spheres and scalar membership queries."""
    tasks = []
    ref = reference()["sphere-band"]
    members = ctx.setdefault("members", {})

    def keep(out, k, t):
        members[(k, t)] = {tuple(int(c) for c in row) for row in out}
        return out.shape[0] == ref["t_boundary"][f"{k},{t}"]

    for k, t in BAND_CASES:
        tasks.append(Task("t_boundary_coords", lambda k=k, t=t: balls.t_boundary_coords(1, k, t),
                          lambda out, k=k, t=t: keep(out, k, t), meta={"band": True}))
    k, t = BAND_CASES[0]
    tasks.append(Task("t_boundary_count", lambda: balls.t_boundary_count(1, k, t),
                      lambda out: out == ref["t_boundary"][f"{k},{t}"], meta={"band": True}))
    for k in range(1, 31):
        want = ref["sphere"][str(k)]
        tasks.append(Task("sphere_cardinality", lambda k=k: balls.sphere_cardinality(1, k),
                          lambda out, k=k, want=want: out == want
                          and (k > 5 or out == _brute_sphere(k))))
    uniform = ergodic.make_quotient_action(1, 3)
    x = uniform.states[int(rng.integers(27))]
    tasks.append(Task("boundary_weight_ratio", lambda: ergodic.boundary_weight_ratio(uniform, 10, 1, x),
                      lambda out: out == Fraction(ref["t_boundary"]["10,1"],
                                                  oracles.ball_count(1, 10))))
    origin = heisgeo.lattice_identity(1)
    # 30% near the band, 70% off it (half inside, half outside), so that the
    # median task sits inside the cluster of exact-out screen calls rather
    # than on the edge between it and the slower minimizer calls
    for i in range(400):
        k, t = BAND_CASES[int(rng.integers(len(BAND_CASES)))]
        tf = float(t)
        if i % 10 < 3:
            lam = float(rng.uniform(k - tf, k + tf))
        elif i % 2:
            lam = float(rng.uniform(0.5 * k, k - 2 * tf))
        else:
            lam = float(rng.uniform(k + 2 * tf, 1.5 * k))
        y = _lattice_at(rng, lam)
        spec = balls.BallSpec(origin, k, t)
        tasks.append(Task("boundary_contains", lambda y=y, spec=spec: balls.boundary_contains(y, spec),
                          lambda out, y=y, k=k, t=t: out.inside == ((y.a[0], y.b[0], y.m) in members[(k, t)])))
    return tasks


# --- known defects -----------------------------------------------------------
# Inputs on which the program is known to answer wrongly.  They are not
# timed tasks, so a run's `correct` covers the workload alone; the first
# pass of a run checks them after its timed tasks and run.py reports each
# failure and counts it in fail_frac.

def lattice_defects(rng, ctx) -> list[Task]:
    """Rational radii whose fiber products wrap around in int64."""
    return [Task("ball_cardinality_rational_large", lambda r=r: balls.ball_cardinality(1, r),
                 lambda out, r=r: out == oracles.ball_count(1, r),
                 refusals=(ResourceCapError, ValueError))
            for r in (Fraction(50001, 10000), Fraction(500001, 100000), Fraction(40001, 1000))]


def sphere_defects(rng, ctx) -> list[Task]:
    """Scalar queries at r/t = 1000, 1e-5 either side of the exact boundary.

    The float gauge error there (~5e-4) exceeds the 1e-9 acceptance band.
    """
    tasks = []
    r_big, t_big = 1000.0, 1.0
    spec = balls.BallSpec(heisgeo.continuous_identity(1), r_big, t_big)
    for i in range(6):
        xi = rng.standard_normal(3)
        xi /= np.linalg.norm(xi)
        side = 1 if i % 2 else -1
        target = 1.0 + (1e-5 if i % 3 else -1e-5)
        lam = oracles.gauge_crossing(xi, r_big, t_big, target, side)
        zf, tau = oracles.ray_point(lam, xi)
        y = _continuous(zf, tau)
        tasks.append(Task("boundary_contains_large_scale",
                          lambda y=y: balls.boundary_contains(y, spec),
                          lambda out, zf=zf, tau=tau: out.inside
                          == bool(oracles.gauge_min_mp(zf, tau, r_big, t_big) <= 1)))
    return tasks


def _lattice_at(rng, lam: float) -> LatticePoint:
    """A lattice point of homogeneous norm close to lam, random direction."""
    while True:
        a = int(rng.integers(-int(lam), int(lam) + 1))
        b = int(rng.integers(-int(lam), int(lam) + 1))
        X = a * a + b * b
        m_sq = 4 * lam ** 4 - 4 * lam * lam * X
        if m_sq < 0 or (X == 0 and m_sq == 0):
            continue
        m = int(round(m_sq ** 0.5)) * (1 if rng.random() < 0.5 else -1)
        if (m - a * b) % 2:
            m += 1
        return _lp(a, b, m)


def _brute_sphere(k: int) -> int:
    origin = heisgeo.lattice_identity(1)
    return sum(
        heisgeo.dist_eq_exact(_lp(a, b, m), origin, k)
        for a in range(-k, k + 1) for b in range(-k, k + 1)
        for m in range(-2 * k * k - ((a * b) % 2), 2 * k * k + 1, 2)
        if (m - a * b) % 2 == 0
    )


# --- geometric-search --------------------------------------------------------

SEARCH_TRIALS = 128   # two pool chunks of 64, one per worker


def geometric_search(rng, ctx) -> list[Task]:
    """Carpet selections, boundary selection, nets, sphere distances, chain search."""
    tasks = []
    for _ in range(40):
        carpet = _random_carpet(rng, 40)
        centers = [b.center for b in carpet.balls]
        state = {}

        def select(carpet=carpet, state=state):
            state["chosen"] = covering.besicovitch_select(carpet)
            return state["chosen"]

        tasks.append(Task("besicovitch_select", select,
                          lambda out, centers=centers: all(
                              any(heisgeo.dist_le_exact(c, b.center, b.radius) for b in out)
                              for c in centers)))
        tasks.append(Task("selection_multiplicity",
                          lambda state=state, centers=centers:
                          covering.selection_multiplicity(state["chosen"], centers),
                          lambda out, state=state, centers=centers: out == max(
                              sum(heisgeo.dist_le_exact(c, b.center, b.radius) for b in state["chosen"])
                              for c in centers)))

        def colour(state=state):
            state["part"] = covering.colour_partition(state["chosen"], 12)
            return state["part"]

        tasks.append(Task("colour_partition", colour,
                          lambda out, state=state: not out.overflowed
                          and sorted(map(id, sum(out.classes, []))) == sorted(map(id, state["chosen"]))))
        tasks.append(Task("is_well_separated",
                          lambda state=state: [covering.is_well_separated(c) for c in state["part"].classes],
                          lambda out: all(out)))
    for t in (2, 3, 4):
        for height in (2, 3):
            for clusters in (1, 2):
                inst = covering.synthetic_boundgen_instance(3, t, height, clusters,
                                                            int(rng.integers(0, 1000)))
                tasks.append(Task("boundgen_select", lambda inst=inst: covering.boundgen_select(*inst, 4),
                                  lambda out: out.report["postconditions"]["sphere_separated"] is True
                                  and Fraction(out.report["postconditions"]["capture_fraction"])
                                  > Fraction(1, 2)))
    tasks.append(Task("covering_net", lambda: covering.covering_net(1, 0.5),
                      lambda out: out[0] == len(out[1]) and _net_covers(out[1], 0.5)))
    # the sphere pair and the closeball trials are the same in every pass:
    # their cost depends strongly on the input, and they set wall_s and the
    # tail, which would otherwise follow the draw rather than the program
    fixed = np.random.default_rng(29)
    b1 = balls.BallSpec(_rand_lattice(fixed, 2, 2), 5)
    b2 = balls.BallSpec(_near(b1.center, fixed), 5)
    tasks.append(Task("sphere_pair_distance", lambda: covering.sphere_pair_distance(b1, b2, rounds=2),
                      lambda out: _pair_distance_ok(out, b1, b2)))
    for _ in range(30):
        cfg = separation.random_lss_config(1e4, 0.5, 1, rng=rng)
        tasks.append(Task("lss_check", lambda cfg=cfg: separation.lss_check(*cfg, 0.5, 1e4),
                          lambda out: out.holds))
    for trial in range(20):
        rho = 9.0 + float(fixed.uniform(0.0, 20.0))
        xi = fixed.standard_normal(3)
        xi /= float(np.linalg.norm(xi))
        base = ContinuousPoint((complex(*fixed.normal(size=2)),), float(fixed.normal()))
        p = heisgeo.multiply(_continuous(*oracles.ray_point(rho, xi)), base)
        s = 500 + trial
        tasks.append(Task("closeball_witness",
                          lambda p=p, base=base, s=s: separation.closeball_witness(p, base, 0.5, samples=160, seed=s),
                          lambda out: out.verified))
    seed = int(rng.integers(0, 2 ** 31))
    tasks.append(Task("intersection_search",
                      lambda: separation.intersection_search(1, 1e4, SEARCH_TRIALS, seed=seed, workers=2),
                      lambda out: _search_ok(out, seed, ctx), meta={"chain": True}))
    return tasks


def _continuous(z_flat, tau) -> ContinuousPoint:
    return ContinuousPoint((complex(z_flat[0], z_flat[1]),), float(tau))


def _near(center: LatticePoint, rng) -> LatticePoint:
    """A lattice point a few steps from center, so the two 5-spheres are close."""
    return heisgeo.multiply(_rand_lattice(rng, 1, 1), center)


def _random_carpet(rng, count, box=12, rmax=8):
    out, seen = [], set()
    while len(out) < count:
        c = _rand_lattice(rng, box, 3 * box)
        if c in seen:
            continue
        seen.add(c)
        out.append(balls.BallSpec(c, int(rng.integers(1, rmax + 1))))
    return covering.Carpet(tuple(out))


def _net_covers(centers, rho: float) -> bool:
    h = rho / 8.0
    span = int(np.floor(1.0 / h))
    axis = np.arange(-span, span + 1, dtype=float) * h
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    grid = grid[np.sum(grid * grid, axis=1) <= 1.0 + 1e-12]
    rows = np.array([[c.z[0].real, c.z[0].imag, c.tau] for c in centers])
    best = np.full(grid.shape[0], np.inf)
    for q in rows:
        best = np.minimum(best, oracles.metric_rows(grid, q, 1))
    return bool(np.all(best <= rho / 2 + 1e-12))


def _pair_distance_ok(out: float, b1, b2) -> bool:
    d = heisgeo.metric_d(b1.center, b2.center)
    r1, r2 = float(b1.radius), float(b2.radius)
    lower = max(0.0, d - r1 - r2, abs(r1 - r2) - d)
    return bool(np.isfinite(out)) and lower - 1e-9 <= out <= d + r1 + r2


def _search_ok(report: dict, seed: int, ctx) -> bool:
    same = True
    if ctx["pass"] == 0:
        # the workers=1 rerun costs as much as the search itself, so one
        # determinism comparison per run keeps passes short
        t0 = time.perf_counter()
        serial = separation.intersection_search(1, 1e4, SEARCH_TRIALS, seed=seed, workers=1)
        ctx["search_serial_s"] = time.perf_counter() - t0
        same = _digest({k: v for k, v in report.items() if k != "workers"}) == \
            _digest({k: v for k, v in serial.items() if k != "workers"})
    t0 = time.perf_counter()
    certified = True
    for cert in report["certificates"]:
        points = tuple(heisgeo.point_from_json(s) for s in cert["points"])
        cfg = separation.ChainConfig(points, tuple(cert["radii"]), tuple(cert["thicks"]), cert["R"])
        witness = heisgeo.point_from_json(cert["witness"]) if "witness" in cert else None
        certified = certified and all(separation.certify_chain(cfg, witness).values())
    ctx["certify_s"] = ctx.get("certify_s", 0.0) + time.perf_counter() - t0
    return same and certified and report["trials"] == SEARCH_TRIALS


# --- cli-cold ----------------------------------------------------------------

def cli_cold(rng, ctx) -> list[Task]:
    """Fresh `python -m heisgeo.cli` processes, one after another."""
    out_dir = ctx["scratch"]
    tasks = []
    sweep = reference()["cli-cold"]
    for i in rng.permutation(len(sweep)):
        entry = sweep[int(i)]
        out = os.path.join(out_dir, f"cli-{int(i)}.out")
        argv = entry["argv"] + ["--out", out]
        tasks.append(Task("cli." + entry["argv"][0], lambda argv=argv, out=out: ctx["run_cli"](argv, out),
                          lambda res, entry=entry: res["code"] == 0
                          and res["sha256"] == entry["sha256"], meta={"own_process": True}))
    return tasks


def run_cli(argv, out, env, probe=None):
    """Run one CLI process; return its exit code and artifact hash."""
    if os.path.exists(out):
        os.remove(out)
    cmd = [sys.executable, "-m", "heisgeo.cli"] if probe is None else [sys.executable, probe]
    proc = subprocess.run(cmd + argv, env=env, capture_output=True, timeout=120)
    digest = None
    if os.path.exists(out):
        with open(out, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    return {"code": proc.returncode, "sha256": digest}


WORKLOADS = {
    "lattice-exact": lattice_exact,
    "sphere-band": sphere_band,
    "geometric-search": geometric_search,
    "cli-cold": cli_cold,
}

DEFECTS = {
    "lattice-exact": lattice_defects,
    "sphere-band": sphere_defects,
}
