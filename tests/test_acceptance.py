"""Acceptance gate: one test per shipped guarantee, run at full size.

Each test is a self-contained experiment with its stated sample count,
tolerance and, where promised, wall-clock budget.  Measured constants
ride along in the failure messages so a red line says what was seen,
not just that something broke.  The incidence-chain search writes any
length-3 find to artifacts/ before failing; the artifact re-verifies
from a cold start through certify_chain.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import heisgeo.covering as cv
import heisgeo.ergodic as er
import heisgeo.separation as sp
from heisgeo.balls import (
    ball_cardinality,
    doubling_table,
    enumerate_ball,
    folner_ratio,
    symmetric_difference_coords,
    t_boundary_coords,
    BallSpec,
)
from heisgeo.cli import main
from heisgeo.core import (
    ContinuousPoint,
    LatticePoint,
    dilate,
    dist_le_exact,
    generator,
    metric_d,
    multiply,
    point_from_json,
)
from heisgeo.spherequad import sphere_point
from lattice_symmetry import isometry_flip, isometry_rotate

ARTIFACTS = Path(__file__).resolve().parent.parent / "artifacts"


def _random_continuous(rng, n):
    z = tuple(complex(*(8.0 * rng.standard_normal(2))) for _ in range(n))
    return ContinuousPoint(z, float(40.0 * rng.standard_normal()))


def test_criterion_1_metric_axioms_and_isometries():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst_sym = worst_tri = worst_inv = worst_hom = worst_iso = 0.0
    for n in (1, 2):
        for _ in range(5000):
            p, q, r, g = (_random_continuous(rng, n) for _ in range(4))
            d_pq = metric_d(p, q)
            worst_sym = max(worst_sym, abs(d_pq - metric_d(q, p)))
            worst_tri = max(
                worst_tri, metric_d(p, r) - d_pq - metric_d(q, r))
            shifted = metric_d(multiply(p, g), multiply(q, g))
            worst_inv = max(worst_inv,
                            abs(shifted - d_pq) / max(1.0, d_pq))
            lam = float(np.exp(rng.uniform(-1.5, 1.5)))
            scaled = metric_d(dilate(lam, p), dilate(lam, q))
            worst_hom = max(worst_hom,
                            abs(scaled - lam * d_pq) / max(1.0, lam * d_pq))
            flip = metric_d(isometry_flip(p), isometry_flip(q))
            theta = [float(a) for a in rng.uniform(-np.pi, np.pi, size=n)]
            rot = metric_d(isometry_rotate(theta, p), isometry_rotate(theta, q))
            worst_iso = max(worst_iso,
                            abs(flip - d_pq) / max(1.0, d_pq),
                            abs(rot - d_pq) / max(1.0, d_pq))
    elapsed = time.monotonic() - t0
    assert worst_sym <= 1e-9, f"symmetry slack exceeded: {worst_sym}"
    assert worst_tri <= 1e-9, f"triangle slack exceeded: {worst_tri}"
    assert worst_inv <= 1e-10, f"right invariance drift: {worst_inv}"
    assert worst_hom <= 1e-10, f"homogeneity drift: {worst_hom}"
    assert worst_iso <= 1e-12, f"isometry drift: {worst_iso}"
    assert elapsed < 10.0, f"metric axiom sweep took {elapsed:.1f}s"


def _census_count(n, k):
    """Definitional scan: horizontal box, then the vertical fiber by parity.

    Membership of (a, b, m) in B_k at the origin is 4k^2 X + m^2 <= 4k^4
    with X = |z|^2, so the fiber is |m| <= 2k sqrt(k^2 - X) with
    m = <a, b> (mod 2)."""
    axes = [np.arange(-k, k + 1, dtype=np.int64)] * (2 * n)
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 2 * n)
    x = np.sum(grid * grid, axis=1)
    keep = x <= k * k
    grid, x = grid[keep], x[keep]
    lim = 4 * k * k * (k * k - x)
    m_max = np.sqrt(lim.astype(np.float64)).astype(np.int64)
    m_max = np.where((m_max + 1) ** 2 <= lim, m_max + 1, m_max)
    m_max = np.where(m_max * m_max > lim, m_max - 1, m_max)
    par = np.sum(grid[:, :n] * grid[:, n:], axis=1) % 2
    return int(np.sum(np.where(m_max % 2 == par, m_max + 1, m_max)))


def _tiny_oracle_points(n, k):
    """Pure-python triple loop over the bounding box; no shared code paths."""
    from itertools import product

    origin = LatticePoint((0,) * n, (0,) * n, 0)
    out = set()
    for coords in product(range(-k, k + 1), repeat=2 * n):
        a, b = coords[:n], coords[n:]
        par = sum(x * y for x, y in zip(a, b)) % 2
        for m in range(-2 * k * k, 2 * k * k + 1):
            if m % 2 != par:
                continue
            p = LatticePoint(a, b, m)
            if dist_le_exact(p, origin, k):
                out.add((a, b, m))
    return out


def test_criterion_2_exact_ball_oracle():
    t0 = time.monotonic()
    for n, k in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2)):
        table = enumerate_ball(n, k)
        got = {(tuple(p.a), tuple(p.b), p.m) for p in table.points()}
        assert got == _tiny_oracle_points(n, k), f"point set differs at {n=} {k=}"
    for n in (1, 2):
        for k in range(1, 11):
            table = enumerate_ball(n, k)
            coords = table.coords
            # every enumerated row satisfies the definitional inequality
            x = np.sum(coords[:, : 2 * n] ** 2, axis=1)
            m = coords[:, 2 * n]
            assert np.all(4 * k * k * x + m * m <= 4 * k ** 4), f"{n=} {k=}"
            # rows are strictly increasing, hence pairwise distinct
            order = np.lexsort(coords.T[::-1])
            assert np.array_equal(order, np.arange(len(coords)))
            assert np.all(np.any(coords[1:] != coords[:-1], axis=1))
            # cardinalities agree with the independent census
            census = _census_count(n, k)
            assert table.cardinality == census, f"{n=} {k=}"
            assert ball_cardinality(n, k) == census, f"{n=} {k=}"
    assert _census_count(1, 1) == 7
    assert _census_count(1, 2) == 65
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"ball oracle sweep took {elapsed:.1f}s"


def test_criterion_3_product_growth_plateau():
    t0 = time.monotonic()
    rows = doubling_table(1, 25)
    ratios = [row.ratio for row in rows]
    d_emp = max(ratios)
    assert all(r <= d_emp for r in ratios)
    tail = [float(r) for r in ratios[-5:]]
    spread = max(tail) / min(tail) - 1.0
    assert spread < 0.10, f"no plateau: last five {tail}, spread {spread:.3f}"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"product growth table took {elapsed:.1f}s"
    print(f"criterion 3: D_emp = {float(d_emp):.3f}, tail spread {spread:.4f}")


def _rows_subset(sub, sup):
    """Each row of sub appears among the rows of sup (both int64, 2D)."""
    if len(sub) == 0:
        return True
    if len(sup) == 0:
        return False
    # one mixed-radix key per row over the box both sets span; keys keep rows distinct
    low = np.minimum(sub.min(axis=0), sup.min(axis=0))
    radix = np.maximum(sub.max(axis=0), sup.max(axis=0)) - low + 1
    assert np.prod(radix.astype(float)) < 2.0 ** 63

    def keys(rows):
        key = np.zeros(len(rows), dtype=np.int64)
        for j in range(rows.shape[1]):
            key = key * radix[j] + (rows[:, j] - low[j])
        return key

    a, b = keys(sub), np.sort(keys(sup))
    idx = np.minimum(np.searchsorted(b, a), len(b) - 1)
    return bool(np.all(b[idx] == a))


def test_criterion_4_folner_decay_and_boundary_containment():
    sigmas = [generator(1, 0), generator(1, 0, imaginary=True)]
    for sigma in sigmas:
        assert folner_ratio(1, 40, sigma) < folner_ratio(1, 5, sigma)
    masses = [Fraction(i + 1, 378) for i in range(27)]
    action = er.make_quotient_action(1, 3, masses)
    x = action.states[0]
    for sigma in sigmas:
        assert er.nsfc_ratio(action, 40, sigma, x) < er.nsfc_ratio(action, 5, sigma, x)
    # shifting by sigma only moves points within t = d(sigma, 0) = 1 of the sphere
    for k in list(range(1, 11)) + [15, 20, 25, 30, 35, 40]:
        boundary = t_boundary_coords(1, k, 1)
        for sigma in sigmas:
            moved = symmetric_difference_coords(1, k, sigma)
            assert _rows_subset(moved, boundary), f"containment fails at {k=}"


def _random_carpet(rng, count, box=12, rmax=8):
    balls, seen = [], set()
    while len(balls) < count:
        a = int(rng.integers(-box, box + 1))
        b = int(rng.integers(-box, box + 1))
        m = a * b + 2 * int(rng.integers(-3 * box, 3 * box + 1))
        if (a, b, m) in seen:
            continue
        seen.add((a, b, m))
        balls.append(BallSpec(LatticePoint((a,), (b,), m),
                              int(rng.integers(1, rmax + 1))))
    return cv.Carpet(tuple(balls))


def test_criterion_5_covering_suite():
    rng = np.random.default_rng(20260814)
    max_mult = 0
    for _ in range(1000):
        carpet = _random_carpet(rng, 40)
        chosen = cv.besicovitch_select(carpet)
        centers = [b.center for b in carpet.balls]
        uncovered = [
            c for c in centers
            if not any(dist_le_exact(c, b.center, b.radius) for b in chosen)
        ]
        assert not uncovered, f"selection misses {len(uncovered)} centers"
        max_mult = max(max_mult, cv.selection_multiplicity(chosen, centers))
        part = cv.colour_partition(chosen, 12)
        assert not part.overflowed
        assert all(cv.is_well_separated(cls) for cls in part.classes)
    instances = [
        (f, t, height, clusters, seed)
        for seed in (0, 1, 2)
        for t in (2, 3, 4)
        for f in range(3, t + 2)
        for height in (2, 3, 4)
        for clusters in (1, 2)
    ][:100]
    assert len(instances) == 100
    for f, t, height, clusters, seed in instances:
        nu, F, stack, eps, delta, t_out = cv.synthetic_boundgen_instance(
            f, t, height, clusters, seed)
        res = cv.boundgen_select(nu, F, stack, eps, delta, t_out, 4)
        post = res.report["postconditions"]
        assert post["sphere_separated"] is True
        assert Fraction(post["capture_fraction"]) > Fraction(1, 2)
    for kappa, expected in ((1, 8), (2, 136)):
        res = cv.stack_height(cv.HeightParams(
            chi=1, kappa=kappa, eps=Fraction(1, 2), delta=Fraction(1, 2)))
        assert res.q == expected
        assert res.stated_bound_holds
    print(f"criterion 5: max selection multiplicity {max_mult}")


def test_criterion_6_separation_suite():
    for trial in range(1000):
        rng = np.random.default_rng([813, trial])
        cfg = sp.random_lss_config(1e4, 0.5, 1, rng=rng)
        res = sp.lss_check(*cfg, 0.5, 1e4)
        assert res.holds, f"gap {res.gap} at trial {trial}"
    rng = np.random.default_rng(29)
    for trial in range(100):
        rho = 9.0 + float(rng.uniform(0.0, 20.0))
        xi = rng.standard_normal(3)
        xi /= float(np.linalg.norm(xi))
        base = ContinuousPoint((complex(*rng.normal(size=2)),),
                               float(rng.normal()))
        p = multiply(sphere_point(rho, xi), base)
        res = sp.closeball_witness(p, base, 0.5, samples=160, seed=500 + trial)
        assert res.verified, res.report
    report = sp.intersection_search(1, 1e4, trials=10000, seed=20260814)
    longest = report["longest_chain_found"]
    if longest > 2:
        recertified = []
        for cert in report["certificates"]:
            points = tuple(point_from_json(s) for s in cert["points"])
            cfg = sp.ChainConfig(points, tuple(cert["radii"]),
                                 tuple(cert["thicks"]), cert["R"])
            witness = point_from_json(cert["witness"]) if "witness" in cert else None
            recertified.append(sp.certify_chain(cfg, witness))
        ARTIFACTS.mkdir(exist_ok=True)
        path = ARTIFACTS / "length3_certificate.json"
        path.write_text(json.dumps({
            "search": {"n": 1, "R": 1e4, "trials": 10000, "seed": 20260814},
            "length_counts": report["length_counts"],
            "certificates": report["certificates"],
            "cold_start_recertification": recertified,
        }, sort_keys=True, indent=2) + "\n")
        pytest.fail(
            f"incidence chains of length {longest} exist at this scale: "
            f"{report['length_counts'][longest]} of 10000 trials produced "
            f"one, every certificate re-verified ({recertified[0]}), "
            f"evidence preserved at {path}"
        )


def _rand_lattice(rng, span=9):
    a = int(rng.integers(-span, span + 1))
    b = int(rng.integers(-span, span + 1))
    return LatticePoint((a,), (b,), a * b + 2 * int(rng.integers(-30, 31)))


def test_criterion_7_ergodic_suite():
    skew = er.make_quotient_action(1, 3, [Fraction(i + 1, 378) for i in range(27)])
    rng = np.random.default_rng(7)
    for _ in range(10000):
        g, h = _rand_lattice(rng), _rand_lattice(rng)
        x = skew.states[int(rng.integers(27))]
        lhs = er.rn_derivative(skew, multiply(g, h), x)
        rhs = er.rn_derivative(skew, g, skew.act(h, x)) * er.rn_derivative(skew, h, x)
        assert lhs == rhs
    c = Fraction(3, 7)
    for k in range(1, 41):
        for x in (skew.states[0], skew.states[13]):
            out = er.weighted_average(skew, lambda y: c, k, x)
            assert out.value == c
    uniform = er.make_quotient_action(1, 3)
    worst = Fraction(0)
    for target in uniform.states:
        f = lambda y: Fraction(1) if y == target else Fraction(0)
        for x in uniform.states:
            val = er.weighted_average(uniform, f, 40, x).value
            worst = max(worst, abs(val - Fraction(1, 27)))
    assert worst <= Fraction(2, 100), f"equidistribution off by {float(worst)}"
    support = enumerate_ball(1, 10).points()
    for trial in range(300):
        trial_rng = np.random.default_rng([41, trial])
        idx = trial_rng.choice(len(support), size=50, replace=False)
        a = {support[i]: Fraction(int(trial_rng.integers(0, 12)), 5)
             for i in idx[:25]}
        b = {support[i]: Fraction(int(trial_rng.integers(1, 12)), 5)
             for i in idx[25:]}
        chk = er.discrete_maximal_check(a, b, 3, Fraction(1, 2), 12)
        assert chk.holds, f"trial {trial}: {chk}"
    d_seen = None
    for trial in range(25):
        trial_rng = np.random.default_rng([43, trial])
        f = {x: Fraction(int(trial_rng.integers(-6, 7)), 3) for x in skew.states}
        out = er.maximal_inequality_experiment(skew, f, Fraction(1, 4), 6)
        assert out.lhs_measure <= out.bound
        l1 = sum((abs(v) * skew.mass[x] for x, v in f.items()), Fraction(0))
        assert out.bound == out.c_emp * out.d_emp / Fraction(1, 4) * l1
        d_seen = out.d_emp
    print(f"criterion 7: equidistribution gap {float(worst):.2e}, "
          f"D_emp {float(d_seen):.3f}")


def test_criterion_8_cli_runs_are_byte_identical(tmp_path):
    commands = [
        ["bcp", "--trials", "6", "--count", "25", "--seed", "3"],
        ["colour", "--trials", "6", "--count", "25", "--seed", "4"],
        ["lss", "--trials", "3", "--seed", "5"],
        ["closeball", "--trials", "3", "--seed", "6"],
        ["intersect", "--trials", "30", "--seed", "2"],
        ["ergodic", "--m", "3", "--k-max", "3"],
        ["maximal", "--trials", "2", "--k-max", "4", "--seed", "7"],
        ["folner", "--n", "1", "--k-max", "6", "--sigma", "ie1",
         "--format", "json"],
    ]
    for i, argv in enumerate(commands):
        a, b = tmp_path / f"{i}a", tmp_path / f"{i}b"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), f"run differs: {argv}"
