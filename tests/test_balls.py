"""Ball enumeration, product sets, Folner ratios and thickened boundaries.

Every counting routine is checked against an independent brute-force oracle
that works straight from the membership inequality (or from pairwise set
operations), never through the fiber-interval code paths under test.
"""

import hashlib
import importlib.util
import itertools
import math
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heisgeo as hg
from heisgeo import balls, spherequad as sq
from heisgeo.core import _dist_parts
from heisgeo.errors import ResourceCapError
from heisgeo.separation import _nelder_mead
from lattice_symmetry import isometry_flip, lattice_rotate_quarter

E1 = hg.generator(1, 0)
IE1 = hg.generator(1, 0, imaginary=True)


def brute_ball_points(n, k):
    """Direct scan of the candidate box with the raw ball inequality."""
    out = set()
    for ab in itertools.product(range(-k, k + 1), repeat=2 * n):
        x = sum(c * c for c in ab)
        pr = sum(ab[j] * ab[n + j] for j in range(n)) % 2
        for m in range(-2 * k * k, 2 * k * k + 1):
            if (m - pr) % 2 == 0 and 4 * k * k * x + m * m <= 4 * k ** 4:
                out.add(hg.LatticePoint(tuple(ab[:n]), tuple(ab[n:]), m))
    return out


def product_set(A, B):
    """{a * b : a in A, b in B} by pairwise multiplication."""
    return {hg.multiply(a, b) for a in A for b in B}


def bench_oracles():
    """bench/oracles.py, the benchmark's Python-integer reference counts."""
    path = Path(__file__).resolve().parents[1] / "bench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def unreduced_product_count(n, k):
    """|B_k * B_k| merging every fiber of the (2k)-disk, with no symmetry reduction."""
    centers = balls.FiberSet.ball(n, k)
    w, hull = centers.y, centers.hi
    pw = hull % 2
    y_grid, _ = balls._disk(n, 2 * k, 1, balls.DEFAULT_CAP)
    total = 0
    step = max(1, balls._PAIR_BATCH // w.shape[1])
    for start in range(0, y_grid.shape[1], step):
        ys = y_grid[:, start:start + step]
        s2 = sum((w[j][None, :] - ys[j][:, None]) ** 2 for j in range(2 * n))
        im = ys[:n].T @ w[n:] - ys[n:].T @ w[:n]
        iy, iw = np.nonzero(s2 <= k * k)
        W = balls._halfwidth(k * k, 1, s2[iy, iw])
        im = im[iy, iw]
        parity = (np.sum(ys[:n] * ys[n:], axis=0) % 2)[iy]
        keep = (W >= 1) | ((im + pw[iw]) % 2 == parity)
        iy, parity = iy[keep], parity[keep]
        lo = im[keep] - hull[iw[keep]] - W[keep]
        hi = im[keep] + hull[iw[keep]] + W[keep]
        lo += (lo - parity) % 2
        hi -= (hi - parity) % 2
        first, top = balls._merge_runs(iy, lo, hi)
        total += int(np.sum((top - lo[first]) // 2 + 1))
    return total


def symmetry_images(y):
    """Images of horizontal columns y under each generator of G: quarter turns, pair swaps, flip."""
    n = y.shape[0] // 2
    images = []
    for j in range(n):
        counts = [int(i == j) for i in range(n)]
        turned = [lattice_rotate_quarter(hg.LatticePoint(tuple(c[:n]), tuple(c[n:]),
                                                         sum(c[i] * c[n + i] for i in range(n))),
                                         counts)
                  for c in y.T.tolist()]
        images.append(np.array([list(p.a) + list(p.b) for p in turned], dtype=np.int64).T)
    for i in range(n - 1):
        order = list(range(n))
        order[i], order[i + 1] = order[i + 1], order[i]
        images.append(y[order + [n + j for j in order]])
    images.append(np.concatenate([y[n:], y[:n]]))
    return images


def orbit_size(col):
    """Size of the orbit of one horizontal point under G, by closure over the generators."""
    seen, todo = {tuple(col)}, [np.array(col)[:, None]]
    while todo:
        for image in symmetry_images(todo.pop()):
            key = tuple(image[:, 0].tolist())
            if key not in seen:
                seen.add(key)
                todo.append(image)
    return len(seen)


def closed_under_symmetries(table):
    """The flip and each quarter turn map an origin-centred table's sorted rows onto themselves."""
    n, ref = table.n, table.coords
    images = [ref * np.array([1] * n + [-1] * (n + 1))]
    for j in range(n):
        rot = ref.copy()
        rot[:, j], rot[:, n + j] = -ref[:, n + j], ref[:, j]
        images.append(rot)
    want = [tuple(row) for row in ref.tolist()]
    return all(sorted(map(tuple, image.tolist())) == want for image in images)


def candidate_box(center, r):
    """Lattice points p = q * center (or center * q) with |q| <= r lie in this box."""
    R, M = math.floor(r), math.floor(2 * r * r)
    a0, b0, m0 = center.a[0], center.b[0], center.m
    M += R * (abs(a0) + abs(b0))  # the twist Im<z_q, z_center>
    return [hg.LatticePoint((a,), (b,), m)
            for a in range(a0 - R, a0 + R + 1) for b in range(b0 - R, b0 + R + 1)
            for m in range(m0 - M, m0 + M + 1) if (m - a * b) % 2 == 0]


def annulus_rows(n, k, t):
    """Rows of the annulus k - t <= d(y, 0) <= k + t, the t-boundary's superset.

    The open ball d < s = k - t that it leaves out is the closed ball less
    the fiber ends on its sphere, where m^2 = 4 s^2 (s^2 - |y|^2).
    """
    t = Fraction(t)
    outer = balls.FiberSet.ball(n, k + t)
    s = k - t
    if s <= 0:
        return outer.rows()
    ball = balls.FiberSet.ball(n, s)
    u, v = s.as_integer_ratio()
    x = (ball.y.astype(object) ** 2).sum(axis=0).tolist()
    on = np.array([m * m * v ** 4 == 4 * u * u * (u * u - xy * v * v)
                   for xy, m in zip(x, ball.hi.tolist())], dtype=bool)
    lo, hi = ball.lo + 2 * on, ball.hi - 2 * on
    keep = lo <= hi
    return outer.difference(balls.FiberSet(ball.y[:, keep], lo[keep], hi[keep])).rows()


def band_membership(coords, n, k, t):
    """Per row of coords: is it a row of t_boundary_coords(n, k, t)?"""
    band = {tuple(r) for r in balls.t_boundary_coords(n, k, t).tolist()}
    return np.array([tuple(r) in band for r in coords.tolist()], dtype=bool)


def near_band_queries(count=2400):
    """(y, spec) within 1.2 t of S_r(x) about random continuous centers, r/t <= 320, n = 1, 2."""
    rng = np.random.default_rng(20261019)
    out = []
    for i in range(count):
        n = 1 + i % 2
        t = float(rng.uniform(0.05, 2.0))
        r = t * float(rng.uniform(0.5, 320.0))
        center = hg.ContinuousPoint(tuple(complex(*rng.normal(0, 3, 2)) for _ in range(n)),
                                    float(rng.normal(0, 10)))
        xi = rng.standard_normal(2 * n + 1)
        xi /= np.linalg.norm(xi)
        lam = max(float(rng.uniform(r - 1.2 * t, r + 1.2 * t)), 0.0)
        out.append((hg.multiply(sq.sphere_point(lam, xi), center), balls.BallSpec(center, r, t)))
    return out


def oracle_sphere_dist(p, r, rng, starts=6):
    """Multistart downhill minimization of d(p, .) over the dilated sphere.

    The objective is metric_d(p, sphere_point(r, x / |x|)) on bare parts, and
    separation._nelder_mead repeats SciPy's Nelder-Mead bit for bit
    (tests/test_separation.py), so this is SciPy's oracle without its overhead.
    """
    y = hg.as_continuous(p)
    lam = hg.homogeneous_norm(y)

    def f(x):
        return _dist_parts(y.z, y.tau, *sq._parts(x / np.linalg.norm(x), r))

    best = math.inf
    seeds = [rng.standard_normal(2 * y.n + 1) for _ in range(starts)]
    seeds.append(sq._row(y) + 1e-3)  # aim at p's direction
    for x0 in seeds:
        best = min(best, _nelder_mead(f, x0, xatol=1e-10, fatol=1e-12, maxiter=2000)[1])
    return min(best, math.sqrt(abs(lam * lam - r * r)))


class TestCardinality:
    def test_frozen_small_values(self):
        assert balls.ball_cardinality(1, 1) == 7
        assert balls.ball_cardinality(1, 2) == 65

    def test_b1_explicit_points(self):
        pts = set(balls.enumerate_ball(1, 1).points())
        want = {hg.LatticePoint((0,), (0,), m) for m in (-2, 0, 2)}
        want |= {E1, E1.inv(), IE1, IE1.inv()}
        assert pts == want

    @pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (1, 3), (1, 5), (2, 1), (2, 2)])
    def test_matches_brute_scan(self, n, k):
        want = brute_ball_points(n, k)
        table = balls.enumerate_ball(n, k)
        assert table.cardinality == len(want)
        assert set(table.points()) == want

    def test_rational_radius(self):
        # oracle: exact per-point test over the box |a|, |b| <= r, |m| <= 2 r^2;
        # the large numerators overflowed int64 fiber bounds (both count 2547)
        e = hg.lattice_identity(1)
        for r in (Fraction(5, 2), Fraction(50001, 10000), Fraction(500001, 100000)):
            A, M = math.floor(r), math.floor(2 * r * r)
            want = sum(
                1
                for a in range(-A, A + 1) for b in range(-A, A + 1)
                for m in range(-M, M + 1)
                if (m - a * b) % 2 == 0
                and hg.dist_le_exact(hg.LatticePoint((a,), (b,), m), e, r)
            )
            assert balls.ball_cardinality(1, r) == want

    def test_large_numerators_match_python_int_fiber_sum(self):
        def fiber_sum(n, r):
            u, v = r.numerator, r.denominator
            total = 0
            for y in itertools.product(range(-(u // v), u // v + 1), repeat=2 * n):
                x = sum(c * c for c in y)
                if v * v * x > u * u:
                    continue
                w = math.isqrt(4 * u * u * (u * u - v * v * x)) // (v * v)
                p = sum(y[j] * y[n + j] for j in range(n)) % 2
                total += w + 1 if (w - p) % 2 == 0 else w  # m = p mod 2 in [-w, w]
            return total

        for n, r, want in ((2, Fraction(50001, 10000), 82371),
                           (1, Fraction(40001, 1000), 10722409)):
            assert fiber_sum(n, r) == want
            assert balls.ball_cardinality(n, r) == want

    def test_partial_sums_past_int64_bound(self):
        # the partial-sum bound (2r + 1)^8 (2r^2 + 1) of n = 4 passes 2^62 from
        # r = 39, so r = 39 and 40 sum Python ints; the oracle sums the same
        # fibers in Python ints: m = p mod 2 in [-w, w] for w = isqrt(4 r^2 (r^2 - S))
        for r in (38, 39, 40):
            want = 0
            for s, (even, odd) in enumerate(balls._horizontal_hist(4, r, 1).tolist()):
                w = math.isqrt(4 * r * r * (r * r - s))
                want += even * (2 * (w // 2) + 1) + odd * 2 * ((w + 1) // 2)
            assert balls.ball_cardinality(4, r) == want

    @pytest.mark.parametrize("n,r", [(1, 100), (1, 257), (1, 300), (1, Fraction(2999, 10)), (2, 12)])
    def test_matches_bench_oracle(self, n, r):
        # r >= 100 spans several row blocks of the pair histogram
        assert balls.ball_cardinality(n, r) == bench_oracles().ball_count(n, r)

    def test_memory_bounded_at_radius_1000(self):
        # building the whole (2r + 1)^2 grid at once peaked at 113 MiB here
        tracemalloc.start()
        try:
            count = balls.ball_cardinality(1, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 4188787270469
        assert peak <= 113 * 2 ** 20 / 4, f"peak {peak / 2 ** 20:.1f} MiB"

    def test_nesting(self):
        cards = [balls.ball_cardinality(1, k) for k in range(1, 9)]
        assert cards == sorted(cards)
        small = set(balls.enumerate_ball(1, 3).points())
        big = set(balls.enumerate_ball(1, 4).points())
        assert small <= big

    def test_identity_and_center_membership(self):
        t0 = set(balls.enumerate_ball(1, 2).points())
        assert hg.lattice_identity(1) in t0
        c = hg.LatticePoint((3,), (1,), 5)
        tc = set(balls.enumerate_ball(1, 2, center=c).points())
        assert c in tc
        assert hg.lattice_identity(1) not in tc

    def test_translation_is_right_multiplication(self):
        c = hg.LatticePoint((2,), (-1,), 0)
        base = balls.enumerate_ball(1, 2)
        shifted = balls.enumerate_ball(1, 2, center=c)
        want = {hg.multiply(p, c) for p in base.points()}
        assert set(shifted.points()) == want

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_symmetry_closure(self, k):
        assert closed_under_symmetries(balls.enumerate_ball(1, k))

    def test_symmetry_closure_n2(self):
        assert closed_under_symmetries(balls.enumerate_ball(2, 2))

    def test_cap_enforced(self):
        with pytest.raises(ResourceCapError):
            balls.enumerate_ball(1, 40, cap=1000)

    def test_caps_checked_before_histogram_count(self):
        # ball_cardinality allocates floor(k^2) + 1 histogram rows, so a grid or
        # a ball beyond cap is refused without it (|B_5| = 2547 > 200 >= 11^2)
        with mock.patch.object(balls, "ball_cardinality", side_effect=AssertionError("counted")):
            with pytest.raises(ResourceCapError, match="grid"):
                balls.enumerate_ball(1, 10 ** 6, cap=1000)
            with pytest.raises(ResourceCapError, match="points"):
                balls.enumerate_ball(1, 5, cap=200)
        with mock.patch.object(balls, "ball_cardinality", return_value=0):
            with pytest.raises(AssertionError, match="disagrees"):
                balls.enumerate_ball(1, 2)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            balls.enumerate_ball(1, 0)
        for n in (0, -1):
            for call in (lambda: balls.enumerate_ball(n, 1),
                         lambda: balls.ball_cardinality(n, 2),
                         lambda: balls.FiberSet.ball(n, 2),
                         lambda: balls.t_boundary_count(n, 2, 1),
                         lambda: balls.product_ball_cardinality(n, 2),
                         lambda: balls.symmetric_difference_cardinality(n, 2, E1)):
                with pytest.raises(ValueError, match="n must be >= 1"):
                    call()


small_points = st.builds(lambda a, b, j: hg.LatticePoint((a,), (b,), a * b + 2 * j),
                         st.integers(-3, 3), st.integers(-3, 3), st.integers(-5, 5))


class TestFiberSet:
    @staticmethod
    def point_set(coords):
        rows = [tuple(r) for r in coords.tolist()]
        assert all(p < q for p, q in zip(rows, rows[1:]))  # strictly lex-ascending
        return {hg.LatticePoint((a,), (b,), m) for a, b, m in rows}

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 6), j=st.integers(1, 6), center=small_points, sigma=small_points,
           t=st.sampled_from([0, Fraction(1, 2), 1, Fraction(3, 2), 3]))
    def test_operations_match_brute_force(self, k, j, center, sigma, t):
        e = hg.lattice_identity(1)
        back = hg.inverse(sigma)
        A = balls.FiberSet.ball(1, k).translate(center)
        B = balls.FiberSet.ball(1, j).translate(sigma, left=True)
        in_a = {p for p in candidate_box(center, k) if hg.dist_le_exact(p, center, k)}
        in_b = {p for p in candidate_box(sigma, j) if hg.dist_le_exact(hg.multiply(back, p), e, j)}
        for fibers, want in ((A, in_a), (B, in_b), (A.intersect(B), in_a & in_b),
                             (A.difference(B), in_a - in_b), (B.difference(A), in_b - in_a),
                             (A.union(B), in_a | in_b)):
            assert fibers.count() == fibers.rows().shape[0]
            assert self.point_set(fibers.rows()) == want

        inner = k - Fraction(t)
        annulus = {p for p in candidate_box(e, k + Fraction(t))
                   if hg.dist_le_exact(p, e, k + t)
                   and not (inner > 0 and hg.dist_le_exact(p, e, inner)
                            and not hg.dist_eq_exact(p, e, inner))}
        assert self.point_set(annulus_rows(1, k, t)) == annulus

        with mock.patch.object(np, "lexsort", side_effect=AssertionError("lexsort called")):
            table = balls.enumerate_ball(1, k, center)
        assert self.point_set(table.coords) == in_a

    def test_translates_past_int64_match_python_ints(self):
        # the twist and the shifted bounds were int64 sums: they wrapped, or
        # raised a bare OverflowError where m_g left int64
        ball = balls.FiberSet.ball(1, 3)
        points = set(balls.enumerate_ball(1, 3).points())
        # |m| <= 18 in B_3 and m >= 2^63 - 16 in sigma B_3: the balls are disjoint
        far = hg.LatticePoint((0,), (0,), 2 ** 63 + 2)
        assert balls.symmetric_difference_cardinality(1, 3, far) == (678, 339) == (2 * len(points), len(points))
        assert ball.intersect(ball.translate(far, left=True)).count() == 0
        for g in (hg.LatticePoint((0,), (0,), 2 ** 61), hg.LatticePoint((2 ** 60,), (-3,), 2 ** 61)):
            for left in (False, True):
                want = {hg.multiply(g, p) if left else hg.multiply(p, g) for p in points}
                assert self.point_set(ball.translate(g, left).rows()) == want
            # the union of two far sets keys its merge past int64 too
            want = points | {hg.multiply(g, p) for p in points}
            assert self.point_set(balls.symmetric_difference_coords(1, 3, g)) == want

    @pytest.mark.parametrize("center", [
        hg.LatticePoint((2 ** 62,), (3,), 2 ** 62),  # 12 of 65 rows wrapped m to about -2^63
        hg.LatticePoint((0,), (0,), 2 ** 63 + 2),  # m_g outside int64: OverflowError
        hg.LatticePoint((2 ** 63 - 2,), (0,), 0),  # y + z_g wrapped
        hg.LatticePoint((2 ** 63,), (0,), 0),  # z_g outside int64: OverflowError
    ])
    def test_rows_outside_int64_refused(self, center):
        with pytest.raises(ValueError, match="int64"):
            balls.enumerate_ball(1, 2, center)


# SHA-256 of rows().tobytes() as written by the per-column writer these rows replaced
ROWS_SHA256 = {
    "enumerate_ball(1,30)": (
        lambda: balls.enumerate_ball(1, 30).coords,
        "c92c1cf9bce6025e73cc918fec5d7f07115c0807cb7d429144f12f8faf557cf5"),
    "enumerate_ball(2,6)": (
        lambda: balls.enumerate_ball(2, 6).coords,
        "68481095d10a2d061567ce59feab139f748d7e40c9d4f3d89dea9a921abc1bdb"),
    "enumerate_ball(3,2)": (
        lambda: balls.enumerate_ball(3, 2).coords,
        "e52853acaf5dd4e32b48fc25ecb91fabacd75cfe45fa1424e5abe557c4ae2600"),
    "t_boundary_coords(1,10,1)": (
        lambda: balls.t_boundary_coords(1, 10, 1),
        "38baac84d5b2b8220232d568bdb64b2f22c037b69b79c09106a51b58f1efeddc"),
    "t_boundary_coords(1,10,2)": (
        lambda: balls.t_boundary_coords(1, 10, 2),
        "8bcab6e5c1e40e11844e05d46b36f136464a1b1214a6cc2dfde2aecc098bcafd"),
    "t_boundary_coords(1,12,3/2)": (
        lambda: balls.t_boundary_coords(1, 12, Fraction(3, 2)),
        "4c3a73888111cf64d5509b5bf662b3fbe17d5d3e85e83c1eb69a4b963370f28b"),
    "t_boundary_coords(1,16,1/2)": (
        lambda: balls.t_boundary_coords(1, 16, Fraction(1, 2)),
        "7f348cf0042cb01606c495d5c856648bc604b903e7cb34794cca843dad39cc55"),
    "symmetric_difference_coords(1,10)": (
        lambda: balls.symmetric_difference_coords(1, 10, hg.LatticePoint((1,), (-2,), 4)),
        "61df0c26e86df118df16fc88516529643f580f0479bf0da8811e5a5edb62b42d"),
}


class TestRows:
    @pytest.mark.parametrize("name", sorted(ROWS_SHA256))
    def test_bytes_pinned(self, name):
        make, digest = ROWS_SHA256[name]
        coords = make()
        assert coords.dtype == np.int64 and coords.flags.c_contiguous
        assert hashlib.sha256(coords.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_empty_set(self, n):
        empty = balls.FiberSet(np.empty((2 * n, 0), dtype=np.int64),
                               np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert empty.rows().shape == (0, 2 * n + 1)
        ball = balls.FiberSet.ball(n, 1)
        far = hg.LatticePoint((5,) * n, (0,) * n, 0)
        assert ball.intersect(ball.translate(far)).rows().shape == (0, 2 * n + 1)


class TestProductSets:
    def test_identity_absorption(self):
        B = balls.enumerate_ball(1, 2).points()
        assert product_set([hg.lattice_identity(1)], B) == set(B)
        assert set(B) <= product_set(B, B)  # identity is in B

    @pytest.mark.parametrize("k,frozen", [(1, 29), (2, 429), (3, 2581)])
    def test_fiber_count_matches_pairwise_products(self, k, frozen):
        B = balls.enumerate_ball(1, k).points()
        brute = product_set(B, B)
        assert len(brute) == frozen
        assert balls.product_ball_cardinality(1, k) == frozen

    @pytest.mark.parametrize("n,k", [(1, k) for k in range(1, 13)]
                             + [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)])
    def test_orbit_count_matches_unreduced_loop(self, n, k):
        assert balls.product_ball_cardinality(n, k) == unreduced_product_count(n, k)

    @pytest.mark.parametrize("n,k", [(1, 3), (1, 6), (2, 2), (3, 1)])
    def test_orbit_representatives_and_weights(self, n, k):
        grid, _ = balls._disk(n, 2 * k, 1, balls.DEFAULT_CAP)
        canon = balls._canonical(grid)
        reps, weight = np.unique(canon, axis=1, return_counts=True)
        assert weight.sum() == grid.shape[1]
        assert np.array_equal(balls._canonical(reps), reps)
        assert [orbit_size(col) for col in reps.T.tolist()] == weight.tolist()
        for image in symmetry_images(grid):
            assert np.array_equal(balls._canonical(image), canon)

    def test_product_count_n2(self):
        B = balls.enumerate_ball(2, 1).points()
        assert balls.product_ball_cardinality(2, 1) == len(product_set(B, B))

    def test_products_land_in_double_ball(self):
        B1 = balls.enumerate_ball(1, 1).points()
        B2 = set(balls.enumerate_ball(1, 2).points())
        assert product_set(B1, B1) <= B2

    def test_cap_enforced(self):
        with pytest.raises(ResourceCapError):
            balls.product_ball_cardinality(1, 3, cap=10)

    def test_doubling_rows(self):
        rows = balls.doubling_table(1, 3)
        assert [(r.k, r.card, r.card_sq) for r in rows] == [
            (1, 7, 29), (2, 65, 429), (3, 339, 2581)]
        assert rows[1].ratio == Fraction(429, 65)


class TestFolner:
    def brute_symdiff(self, n, k, sigma):
        B = brute_ball_points(n, k)
        sB = {hg.multiply(sigma, p) for p in B}
        return B ^ sB

    def test_identity_sigma_is_zero(self):
        assert balls.folner_ratio(1, 4, hg.lattice_identity(1)) == 0

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("sigma", [E1, IE1,
                                       hg.LatticePoint((1,), (1,), 1),
                                       hg.LatticePoint((0,), (0,), 2)])
    def test_cardinality_matches_brute(self, k, sigma):
        sym, card = balls.symmetric_difference_cardinality(1, k, sigma)
        want = self.brute_symdiff(1, k, sigma)
        assert card == balls.ball_cardinality(1, k)
        assert sym == len(want)

    def test_n2_matches_brute(self):
        sigma = hg.generator(2, 1)
        sym, _ = balls.symmetric_difference_cardinality(2, 2, sigma)
        assert sym == len(self.brute_symdiff(2, 2, sigma))

    def test_coords_match_brute_sets(self):
        sigma = E1
        got = {tuple(r) for r in balls.symmetric_difference_coords(1, 3, sigma).tolist()}
        want = {(p.a[0], p.b[0], p.m) for p in self.brute_symdiff(1, 3, sigma)}
        assert got == want

    def test_coords_cap_bounds_points(self):
        # a far sigma makes the difference 2 |B_10| = 83306 points; they were
        # written with no cap, while the 21^2-cell grid passes any cap here
        far = hg.LatticePoint((0,), (0,), 10 ** 6)
        for cap in (1000, 83305):
            with pytest.raises(ResourceCapError, match="points") as info:
                balls.symmetric_difference_coords(1, 10, far, cap=cap)
            assert (info.value.predicted, info.value.cap) == (83306, cap)
        assert balls.symmetric_difference_coords(1, 10, far, cap=83306).shape == (83306, 3)

    def test_ratio_decays(self):
        for sigma in (E1, IE1):
            assert balls.folner_ratio(1, 40, sigma) < balls.folner_ratio(1, 5, sigma)

    def test_symdiff_inside_thickened_boundary(self):
        # with t = d(sigma, 0) the difference hugs the sphere
        for k in (2, 5, 10):
            coords = balls.symmetric_difference_coords(1, k, E1)
            assert band_membership(coords, 1, k, 1).all()


class TestBoundaryContains:
    def test_on_sphere_always_in(self):
        y = hg.LatticePoint((2,), (0,), 0)
        for t in (0, 1, Fraction(1, 2)):
            res = balls.boundary_contains(y, balls.BallSpec(hg.lattice_identity(1), 2, t))
            assert res.inside

    def test_center_query(self):
        e = hg.lattice_identity(1)
        assert not balls.boundary_contains(e, balls.BallSpec(e, 3, 2)).inside
        assert balls.boundary_contains(e, balls.BallSpec(e, 3, 3)).inside

    def test_dilation_witness_quick_in(self):
        # central point: lam^2 = m/2 = 3, r = 2 -> dist = sqrt|3 - 4| = 1 = t
        y = hg.LatticePoint((0,), (0,), 6)
        res = balls.boundary_contains(y, balls.BallSpec(hg.lattice_identity(1), 2, 1))
        assert res.inside and res.route == "exact-in"
        tight = balls.boundary_contains(y, balls.BallSpec(hg.lattice_identity(1), 2, Fraction(99, 100)))
        assert not tight.inside

    def test_far_point_quick_out(self):
        y = hg.LatticePoint((10,), (0,), 0)
        res = balls.boundary_contains(y, balls.BallSpec(hg.lattice_identity(1), 2, 1))
        assert not res.inside and res.route == "exact-out"

    def test_monotone_in_t(self):
        rng = np.random.default_rng(8)
        center = hg.lattice_identity(1)
        for _ in range(60):
            a, b = int(rng.integers(-6, 7)), int(rng.integers(-6, 7))
            y = hg.LatticePoint((a,), (b,), a * b + 2 * int(rng.integers(-18, 19)))
            spec_small = balls.BallSpec(center, 4, Fraction(1, 2))
            spec_big = balls.BallSpec(center, 4, Fraction(3, 2))
            if balls.boundary_contains(y, spec_small).inside:
                assert balls.boundary_contains(y, spec_big).inside

    def test_translated_center(self):
        c = hg.LatticePoint((5,), (2,), 10)
        y = hg.multiply(hg.LatticePoint((3,), (0,), 0), c)  # distance 3 from c
        assert balls.boundary_contains(y, balls.BallSpec(c, 3, 0)).inside
        assert not balls.boundary_contains(y, balls.BallSpec(c, 5, 1)).inside

    def test_continuous_inputs(self):
        center = hg.continuous_identity(1)
        on = hg.ContinuousPoint((1.2 + 0j,), 0.0)
        assert balls.boundary_contains(on, balls.BallSpec(center, 1.2, 1e-6)).inside
        off = hg.ContinuousPoint((3.0 + 0j,), 0.0)
        assert not balls.boundary_contains(off, balls.BallSpec(center, 1.0, 0.5)).inside

    def test_non_finite_input_refused(self):
        e = hg.lattice_identity(1)
        for r, t in ((math.inf, 1), (math.nan, 1), (2, math.inf), (2, math.nan), (2, -1)):
            with pytest.raises(ValueError):
                balls.BallSpec(e, r, t)
        spec = balls.BallSpec(e, 2, 1)
        for y in (hg.ContinuousPoint((1 + 0j,), math.nan), hg.ContinuousPoint((math.inf,), 0.0)):
            with pytest.raises(ValueError):
                balls.boundary_contains(y, spec)
            with pytest.raises(ValueError):
                hg.dist_le_exact(y, e, 2)
        with pytest.raises(ValueError):
            hg.dist_le_exact(e, e, math.inf)

    def test_gauge_overflow_decided(self):
        # |z|^2 = 1e600 has no float: once a silent minimizer-out from a NaN,
        # then a refusal; the gauge now reads |z|^2/t^2 = 25
        y = hg.ContinuousPoint((1e300 + 0j,), 1.0)
        spec = balls.BallSpec(hg.continuous_identity(1), 9e299, 2e299)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert balls.boundary_contains(y, spec) == balls.BoundaryResult(True, "minimizer-in")
        # its 2^-994 dilation, whose tau of 2^-1988 rounds to 0.0, far below t
        s = 2.0 ** -994
        small = balls.BallSpec(hg.continuous_identity(1), 9e299 * s, 2e299 * s)
        assert balls.boundary_contains(hg.ContinuousPoint((1e300 * s + 0j,), 0.0), small).inside

    def test_dilation_invariant(self):
        # F_t at (z, tau, r) is F_1 at (z/t, tau/t^2, r/t), and the gauge reads
        # those rationals rounded once: dilating query, center, r and t by 2^k
        # decides alike, where a float |z|^2 once overflowed from 2^505 on
        def dilate(p, s):
            return hg.ContinuousPoint(tuple(w * s for w in p.z), p.tau * s * s)

        checked = Counter()
        for y, spec in near_band_queries()[::2]:
            base = balls.boundary_contains(y, spec)
            for k in (-500, -61, 250, 505, 507, 509, 511):
                s = 2.0 ** k
                dy, dc = dilate(y, s), dilate(spec.center, s)
                r, t = spec.radius * s, spec.thickening * s
                if (dilate(dy, 1 / s), dilate(dc, 1 / s), r / s, t / s) != (
                        y, spec.center, spec.radius, spec.thickening):
                    continue  # the dilation itself rounds
                assert balls.boundary_contains(dy, balls.BallSpec(dc, r, t)) == base, (y, spec, k)
                checked[k] += 1
        assert checked[-500] == checked[250] == 1200
        assert checked[509] > 50 and checked[511] > 0

    def test_tiny_scale_decided(self):
        # horizontal points about a horizontal center: the offset's tau is the
        # twist alone, so their 2^-700 dilation is exact, though its tau and
        # t^2 (about 2^-1400) have no float, which the gauge once refused
        rng = np.random.default_rng(1)
        s, checked = 2.0 ** -700, 0
        for _ in range(100):
            zc, zy = (complex(*rng.normal(0, 3, 2)) for _ in range(2))
            c, y = hg.ContinuousPoint((zc,), 0.0), hg.ContinuousPoint((zy,), 0.0)
            t = float(rng.uniform(0.05, 2.0))
            r = hg.metric_d(y, c) + float(rng.uniform(-1.2, 1.2)) * t
            if r <= 0:
                continue
            base = balls.boundary_contains(y, balls.BallSpec(c, r, t))
            small = balls.BallSpec(hg.ContinuousPoint((zc * s,), 0.0), r * s, t * s)
            assert balls.boundary_contains(hg.ContinuousPoint((zy * s,), 0.0), small) == base
            checked += base.route.startswith("minimizer")
        assert checked > 50

    def test_continuous_near_band_decisions_pinned(self):
        # (inside, route) per query, recorded while the gauge input still came
        # from the float product y x^-1 rather than the exact offset
        res = [balls.boundary_contains(y, spec) for y, spec in near_band_queries()]
        blob = "".join(f"{int(b.inside)} {b.route}\n" for b in res)
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "a2b72c663144943649be1b1583f70893610af213b437f7795d8fae4427d4745c")
        assert sum(b.route.startswith("minimizer") for b in res) == 1953

    def test_numpy_scalar_radii(self):
        e = hg.lattice_identity(1)
        for row in annulus_rows(1, 5, Fraction(1, 2)).tolist()[::7]:
            y = hg.LatticePoint((row[0],), (row[1],), row[2])
            want = balls.boundary_contains(y, balls.BallSpec(e, 5, Fraction(1, 2)))
            got = balls.boundary_contains(y, balls.BallSpec(e, np.int64(5), np.float64(0.5)))
            assert got == want

    def test_agrees_with_independent_minimizer(self):
        rng = np.random.default_rng(9)
        center = hg.lattice_identity(1)
        t = 1
        checked = 0
        for ab in itertools.product(range(-4, 5), repeat=2):
            pr = (ab[0] * ab[1]) % 2
            for m in (-8 + pr, -4 + pr, -2 + pr, pr, 2 + pr, 6 + pr):
                y = hg.LatticePoint((ab[0],), (ab[1],), m)
                d = oracle_sphere_dist(y, 3.0, rng)
                if abs(d - t) < 1e-6:
                    continue
                got = balls.boundary_contains(y, balls.BallSpec(center, 3, t)).inside
                assert got == (d < t), (y, d)
                checked += 1
        assert checked > 100

    def test_isometry_invariance(self):
        spec = balls.BallSpec(hg.lattice_identity(1), 3, 1)
        for ab in itertools.product(range(-4, 5), repeat=2):
            m = (ab[0] * ab[1]) % 2 + 4
            y = hg.LatticePoint((ab[0],), (ab[1],), m)
            base = balls.boundary_contains(y, spec).inside
            assert balls.boundary_contains(isometry_flip(y), spec).inside == base
            assert balls.boundary_contains(
                lattice_rotate_quarter(y, (1,)), spec).inside == base


def dyadic_round(p, k):
    """p with every coordinate rounded to the dyadic grid 2^-k (tau to 4^-k)."""
    c = hg.as_continuous(p)
    s = 2.0 ** k
    return hg.ContinuousPoint(tuple(complex(round(w.real * s) / s, round(w.imag * s) / s) for w in c.z),
                              round(c.tau * s * s) / (s * s))


class TestBoundaryTable:
    """boundary_table equals boundary_contains entry by entry, routes included."""

    @staticmethod
    def check(points, specs, pairs=None):
        if pairs is None:
            pairs = [(i, j) for i in range(len(points)) for j in range(len(specs))]
        got = balls.boundary_table(points, specs, pairs)
        assert got == [balls.boundary_contains(points[i], specs[j]) for i, j in pairs]
        return got

    def test_lattice_family(self):
        centers = [hg.lattice_identity(1), hg.LatticePoint((2,), (-1,), 4), hg.LatticePoint((0,), (3,), -6)]
        specs = [balls.BallSpec(c, r, t) for c in centers
                 for r, t in ((3, 1), (4, Fraction(1, 2)), (Fraction(7, 2), Fraction(3, 2)), (2, 0))]
        points = [hg.LatticePoint((a,), (b,), a * b % 2 + 2 * k)
                  for a in range(-5, 6) for b in range(-5, 6) for k in range(-6, 7, 3)]
        routes = Counter(b.route for b in self.check(points + centers, specs))
        assert set(routes) == {"exact-out", "exact-in", "minimizer-in", "minimizer-out"}

    def test_continuous_family(self):
        queries = near_band_queries()[:400]
        points, specs = [y for y, _ in queries], [s for _, s in queries]
        # cross pairs keep the rank: queries alternate n = 1, 2
        pairs = [(k, k) for k in range(400)] + [(k, (k + 2 * (k % 7) + 2) % 400) for k in range(400)]
        routes = Counter(b.route for b in self.check(points, specs, pairs))
        assert routes["minimizer-in"] > 200 and routes["minimizer-out"] > 50

    def test_mixed_scales_and_point_kinds(self):
        # coarse centers and queries rounded to several dyadic grids, so one
        # spec's open pairs sit at several scales e; lattice points against
        # continuous centers and continuous points against lattice centers
        points, specs, pairs = [], [], []
        for y, spec in near_band_queries()[:300:2]:
            j = len(specs)
            specs.append(balls.BallSpec(dyadic_round(spec.center, 8), spec.radius, spec.thickening))
            for k in (6, 10, 24, 40):
                pairs.append((len(points), j))
                points.append(dyadic_round(y, k))
            pairs.append((len(points), j))
            points.append(y)
        lattice = [hg.LatticePoint((a,), (b,), a * b % 2 + 2 * m) for a in range(-3, 4)
                   for b in range(-3, 4) for m in (-9, 0, 9)]
        one = [j for j, s in enumerate(specs) if s.center.n == 1]
        pairs += [(len(points) + i, j) for i in range(len(lattice)) for j in one[:12]]
        points += lattice
        specs.append(balls.BallSpec(hg.lattice_identity(1), 3, Fraction(3, 4)))
        pairs += [(i, len(specs) - 1) for i, p in enumerate(points) if p.n == 1]
        got = self.check(points, specs, pairs)
        opened = {(j, hg.offset_exact(points[i], specs[j].center)[2])
                  for (i, j), b in zip(pairs, got) if b.route.startswith("minimizer")}
        assert len(opened) > len({j for j, _ in opened}) > 20

    def test_past_int64(self):
        # 2^480 dilations make every offset an integer past 2^62 (object
        # arrays in the gauge), beside the small-scale originals of one table
        s = 2.0 ** 480
        points, specs = [], []
        for y, spec in near_band_queries()[:200:4]:
            for f in (1.0, s):
                specs.append(balls.BallSpec(hg.dilate(f, spec.center), spec.radius * f, spec.thickening * f))
                points.append(hg.dilate(f, y))
        big = hg.ContinuousPoint((1e300 + 0j,), 1.0)
        points.append(big)
        specs.append(balls.BallSpec(hg.continuous_identity(1), 9e299, 2e299))
        pairs = [(i, i) for i in range(len(points))]
        pairs += [(i, j) for i in range(len(points)) for j in range(len(specs))
                  if i != j and points[i].n == specs[j].center.n][::5]
        routes = Counter(b.route for b in self.check(points, specs, pairs))
        assert routes["minimizer-in"] and routes["minimizer-out"]

    def test_shared_points_and_empty(self):
        # a center that is also a point, a point read twice, no pairs at all
        c = hg.ContinuousPoint((1.5 - 0.25j,), 0.75)
        y = hg.multiply(sq.sphere_point(4.0, np.array([0.6, 0.0, 0.8])), c)
        specs = [balls.BallSpec(c, 4.0, 0.5), balls.BallSpec(y, 4.0, 0.5)]
        got = self.check([c, y], specs, [(1, 0), (0, 1), (1, 0), (0, 0)])
        assert [b.inside for b in got] == [True, True, True, False]
        assert balls.boundary_table([c], specs, []) == []

    def test_non_finite_point_refused(self):
        spec = balls.BallSpec(hg.lattice_identity(1), 2, 1)
        for y in (hg.ContinuousPoint((1 + 0j,), math.nan), hg.ContinuousPoint((math.inf,), 0.0)):
            with pytest.raises(ValueError, match="finite"):
                balls.boundary_table([y], [spec], [(0, 0)])


class TestTBoundary:
    def test_t_zero_is_exact_sphere(self):
        e = hg.lattice_identity(1)
        for k in (1, 2, 3, 4, 5):
            want = sum(
                1
                for ab in itertools.product(range(-k, k + 1), repeat=2)
                for m in range(-2 * k * k, 2 * k * k + 1)
                if (m - ab[0] * ab[1]) % 2 == 0
                and hg.dist_eq_exact(hg.LatticePoint((ab[0],), (ab[1],), m), e, k)
            )
            assert balls.t_boundary_count(1, k, 0) == want
            assert balls.sphere_cardinality(1, k) == want

    @pytest.mark.parametrize("k,t", [(1, 1), (2, 1), (1, Fraction(1, 2))])
    def test_matches_independent_minimizer(self, k, t):
        rng = np.random.default_rng(10)
        tf = float(t)
        got = {tuple(r) for r in balls.t_boundary_coords(1, k, t).tolist()}
        K = int(math.ceil(k + tf)) + 1
        for ab in itertools.product(range(-K, K + 1), repeat=2):
            pr = (ab[0] * ab[1]) % 2
            for m in range(-2 * K * K + pr, 2 * K * K + 1, 2):
                p = hg.LatticePoint((ab[0],), (ab[1],), m)
                lam = hg.homogeneous_norm(p)
                if not (k - tf - 0.3 <= lam <= k + tf + 0.3):
                    continue  # triangle inequality rules these out exactly
                d = oracle_sphere_dist(p, float(k), rng, starts=4)
                if abs(d - tf) < 1e-6:
                    continue  # exact tie handled by the closed predicate
                assert ((ab[0], ab[1], m) in got) == (d < tf), (p, d)

    def test_members_inside_enlarged_ball(self):
        for k, t in ((3, 1), (5, 2), (4, Fraction(3, 2))):
            coords = balls.t_boundary_coords(1, k, t)
            e = hg.lattice_identity(1)
            r_big = k + Fraction(t)
            for row in coords.tolist():
                assert hg.dist_le_exact(
                    hg.LatticePoint((row[0],), (row[1],), row[2]), e, r_big)

    def test_ratio_decreases(self):
        r5 = Fraction(balls.t_boundary_count(1, 5, 1), balls.ball_cardinality(1, 5))
        r10 = Fraction(balls.t_boundary_count(1, 10, 1), balls.ball_cardinality(1, 10))
        assert r10 < r5

    @pytest.mark.parametrize("k,t", [(1, Fraction(50001, 10000)), (5, Fraction(1, 10 ** 5))])
    def test_screens_beyond_int64_match_scalar(self, k, t):
        # their screen terms exceed int64, which the batched path once refused
        coords = annulus_rows(1, k, t)
        spec = balls.BallSpec(hg.lattice_identity(1), k, t)
        want = sum(balls.boundary_contains(hg.LatticePoint((a,), (b,), m), spec).inside
                   for a, b, m in coords.tolist())
        assert balls.t_boundary_count(1, k, t) == want

    def test_large_denominator_band_at_k5(self):
        # the scalar boundary_contains accepts 21817 of the 41653 annulus rows
        # (a 55 s pass); every 40th row is rechecked here
        t = Fraction(50001, 10000)
        coords = annulus_rows(1, 5, t)
        member = band_membership(coords, 1, 5, t)
        spec = balls.BallSpec(hg.lattice_identity(1), 5, t)
        for (a, b, m), got in zip(coords[::40].tolist(), member[::40].tolist()):
            assert balls.boundary_contains(hg.LatticePoint((a,), (b,), m), spec).inside == got
        assert coords.shape[0] == 41653
        assert balls.t_boundary_count(1, 5, t) == int(member.sum()) == 21817

    @pytest.mark.parametrize("k,t", [(30, Fraction(1, 50)), (20, Fraction(1, 100))])
    def test_small_denominator_band_matches_scalar(self, k, t):
        # these fit the int64 screens once the bound uses the horizontal columns
        coords = annulus_rows(1, k, t)
        spec = balls.BallSpec(hg.lattice_identity(1), k, t)
        want = sum(balls.boundary_contains(hg.LatticePoint((a,), (b,), m), spec).inside
                   for a, b, m in coords.tolist())
        assert balls.t_boundary_count(1, k, t) == want

    @pytest.mark.parametrize("k,t", [(2, 1), (3, Fraction(1, 2))])
    def test_orbit_keys_n2_match_scalar(self, k, t):
        # U(2) moves z within its sphere |z|^2 = x, which n = 1 cannot show
        coords = annulus_rows(2, k, t)
        spec = balls.BallSpec(hg.lattice_identity(2), k, t)
        want = [row for row in coords.tolist() if balls.boundary_contains(
            hg.LatticePoint(tuple(row[:2]), tuple(row[2:4]), row[4]), spec).inside]
        solved, probes = [], []
        # a horizontal point per (|z|^2, parity) of the disk: the screens read only |z|^2 and m
        box = np.indices((9,) * 4).reshape(4, -1).T - 4
        rep = {(int(z @ z), int(z[:2] @ z[2:]) % 2): z.tolist() for z in box}

        tt = float(t) ** 2  # the spy reads |z|^2/t^2 and tau/t^2, exact at t = 1 and 1/2

        def record(x, tau, rho):
            solved.extend(zip(x.tolist(), np.abs(tau).tolist()))
            for s, m in zip((x * tt).tolist(), (2 * tau * tt).round().astype(int).tolist()):
                z = rep[int(s), m % 2]
                probes.append(hg.LatticePoint(tuple(z[:2]), tuple(z[2:]), m))
            return sq.gauge_min(x, tau, rho)

        with mock.patch.object(balls, "gauge_min", record):
            got = balls.t_boundary_coords(2, k, t)
        assert got.tolist() == want
        assert solved and len(set(solved)) == len(solved)  # each (|z|^2, |tau|) at most once
        # the solver sees only points the exact screens leave open
        assert all(balls.boundary_contains(p, spec).route.startswith("minimizer") for p in probes)

    def test_count_at_40(self):
        assert balls.t_boundary_count(1, 40, 1) == 1300646

    def test_cap_bounds_grid_for_count_and_points_for_coords(self):
        # the horizontal grid of B_11 has 23^2 = 529 cells; the band has 20506 points
        assert balls.t_boundary_count(1, 10, 1, cap=529) == 20506
        with pytest.raises(ResourceCapError):
            balls.t_boundary_count(1, 10, 1, cap=528)
        with pytest.raises(ResourceCapError):
            balls.t_boundary_coords(1, 10, 1, cap=20505)
        assert balls.t_boundary_coords(1, 10, 1, cap=20506).shape[0] == 20506

    def test_boundary_share_decays_like_one_over_k(self):
        # Hochman's ratio theorem needs |d_t B_k| / |B_k| -> 0; here it is ~4.86 / k,
        # counted up to k = 200 (an annulus of ~2.7e8 points) without materializing one
        ks = [20, 50, 100, 200]
        with mock.patch.object(balls.FiberSet, "rows", side_effect=AssertionError("rows called")):
            shares = [balls.t_boundary_count(1, k, 1) / balls.ball_cardinality(1, k) for k in ks]
        slope = np.polyfit(np.log(ks), np.log(shares), 1)[0]
        assert -1.05 <= slope <= -0.95

    def test_scalar_and_batched_paths_agree(self):
        k, t = 3, 1
        coords = annulus_rows(1, k, t)
        member = band_membership(coords, 1, k, t)
        spec = balls.BallSpec(hg.lattice_identity(1), k, t)
        spec_c = balls.BallSpec(hg.continuous_identity(1), float(k), float(t))
        for row, got in zip(coords.tolist(), member.tolist()):
            y = hg.LatticePoint((row[0],), (row[1],), row[2])
            res = balls.boundary_contains(y, spec)
            assert res.inside == got
            # the continuous twin takes the same exact screens and gauge input
            assert balls.boundary_contains(hg.as_continuous(y), spec) == res
            assert balls.boundary_contains(hg.as_continuous(y), spec_c) == res
