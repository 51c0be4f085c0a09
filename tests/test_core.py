"""Group axioms, metric identities and exact ball tests for the core module."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heisgeo as hg
from lattice_symmetry import isometry_flip, isometry_rotate, lattice_rotate_quarter


def lattice_points(n=1, coord=20, m_span=60):
    def build(draw_a, draw_b, extra):
        m = sum(x * y for x, y in zip(draw_a, draw_b)) + 2 * extra
        return hg.LatticePoint(tuple(draw_a), tuple(draw_b), m)

    coords = st.lists(st.integers(-coord, coord), min_size=n, max_size=n)
    return st.builds(build, coords, coords, st.integers(-m_span, m_span))


def random_continuous(rng, n=1, scale=3.0):
    z = tuple(complex(rng.gauss(0, scale), rng.gauss(0, scale)) for _ in range(n))
    return hg.ContinuousPoint(z, rng.gauss(0, scale * scale))


class TestGroupAxioms:
    @given(lattice_points(), lattice_points(), lattice_points())
    def test_associativity(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(lattice_points())
    def test_identity_and_inverse(self, p):
        e = hg.lattice_identity(1)
        assert p * e == p
        assert e * p == p
        assert p * p.inv() == e
        assert p.inv() * p == e

    @given(lattice_points(n=2, coord=9), lattice_points(n=2, coord=9))
    def test_parity_closed_under_product(self, p, q):
        pq = p * q
        assert (pq.m - sum(x * y for x, y in zip(pq.a, pq.b))) % 2 == 0

    def test_parity_rejected(self):
        with pytest.raises(ValueError):
            hg.LatticePoint((1,), (1,), 0)

    def test_center_noncommutativity(self):
        # [e1, ie1] generates the centre: the commutator has m = 2.
        x = hg.generator(1, 0)
        y = hg.generator(1, 0, imaginary=True)
        comm = x * y * x.inv() * y.inv()
        assert comm == hg.LatticePoint((0,), (0,), 2)

    def test_lattice_matches_continuous_product(self):
        def rand_point(rng):
            a, b = (rng.randrange(-5, 6),), (rng.randrange(-5, 6),)
            return hg.LatticePoint(a, b, a[0] * b[0] + 2 * rng.randrange(-4, 5))

        rng = random.Random(7)
        for _ in range(50):
            p, q = rand_point(rng), rand_point(rng)
            lat = hg.as_continuous(p * q)
            cont = hg.multiply(hg.as_continuous(p), hg.as_continuous(q))
            assert abs(lat.tau - cont.tau) < 1e-12
            assert all(abs(u - v) < 1e-12 for u, v in zip(lat.z, cont.z))


class TestMetric:
    def test_generators_at_distance_one(self):
        e = hg.lattice_identity(2)
        for j in range(2):
            for im in (False, True):
                g = hg.generator(2, j, imaginary=im)
                assert hg.dist_eq_exact(g, e, 1)
                assert math.isclose(hg.metric_d(g, e), 1.0, abs_tol=1e-12)

    def test_central_generator_norm(self):
        # (0, 1) has |z|=0, 2*Delta = 2, so d^2 = sqrt(4)/2 = 1.
        c = hg.LatticePoint((0,), (0,), 2)
        assert hg.dist_eq_exact(c, hg.lattice_identity(1), 1)

    def test_unit_ball_is_euclidean(self):
        # On the continuous group, d((z,tau),0) <= 1 iff |z|^2+tau^2... no:
        # the closed form gives d<=1 iff |z|^4+4tau^2 <= (2-|z|^2)^2, i.e.
        # |z|^2 + tau^2 <= 1 after expanding.  Spot check both directions.
        rng = random.Random(3)
        for _ in range(300):
            x, y, t = rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)
            p = hg.ContinuousPoint((complex(x, y),), t)
            eucl = x * x + y * y + t * t
            d = hg.metric_d(p, hg.continuous_identity(1))
            if eucl < 0.9999:
                assert d < 1.0
            if eucl > 1.0001:
                assert d > 1.0

    def test_right_invariance(self):
        rng = random.Random(11)
        for _ in range(100):
            p, q, g = (random_continuous(rng, n=2) for _ in range(3))
            assert math.isclose(
                hg.metric_d(hg.multiply(p, g), hg.multiply(q, g)),
                hg.metric_d(p, q),
                rel_tol=0,
                abs_tol=1e-10,
            )

    def test_dilation_homogeneity(self):
        rng = random.Random(13)
        for _ in range(100):
            p = random_continuous(rng)
            lam = rng.uniform(0.1, 5.0)
            assert math.isclose(
                hg.homogeneous_norm(hg.dilate(lam, p)),
                lam * hg.homogeneous_norm(p),
                rel_tol=1e-10,
                abs_tol=1e-12,
            )

    def test_triangle_inequality(self):
        rng = random.Random(17)
        for _ in range(500):
            p, q, r = (random_continuous(rng) for _ in range(3))
            assert hg.metric_d(p, r) <= hg.metric_d(p, q) + hg.metric_d(q, r) + 1e-9

    def test_symmetry(self):
        rng = random.Random(19)
        for _ in range(100):
            p, q = random_continuous(rng), random_continuous(rng)
            assert hg.metric_d(p, q) == pytest.approx(hg.metric_d(q, p), abs=1e-12)

    @given(lattice_points(coord=8, m_span=30), lattice_points(coord=8, m_span=30),
           st.fractions(min_value=Fraction(1, 4), max_value=12, max_denominator=8))
    @settings(max_examples=300)
    def test_exact_ball_agrees_with_float_metric(self, p, q, r):
        d = hg.metric_d(p, q)
        exact = hg.dist_le_exact(p, q, r)
        # only check outside the fp ambiguity band around the sphere
        if d <= float(r) - 1e-9:
            assert exact
        elif d >= float(r) + 1e-9:
            assert not exact

    def test_exact_sphere_membership(self):
        e = hg.lattice_identity(1)
        on = [p for x in range(-3, 4) for y in range(-3, 4)
              for m in range(-10, 11)
              if (m - x * y) % 2 == 0
              and hg.dist_eq_exact(p := hg.LatticePoint((x,), (y,), m), e, 2)]
        # |z|^2 = 4, m = 0 or |z|^2 = 0, m = 8 solve 4X + m'^2 = 4r^4 at r=2... check:
        # condition 4*r^2*X + m'^2 = 4*r^4 -> 16 X + m^2 = 64.
        for p in on:
            x2 = sum(a * a + b * b for a, b in zip(p.a, p.b))
            assert 16 * x2 + p.m * p.m == 64
        assert len(on) > 0


def fraction_offset(p, q):
    """(|z|^2, 2 tau) of p q^-1 in Fraction arithmetic, from the group law."""
    def parts(x):
        if isinstance(x, hg.LatticePoint):
            return [Fraction(c) for c in x.a + x.b], Fraction(x.m, 2)
        return [Fraction(w.real) for w in x.z] + [Fraction(w.imag) for w in x.z], Fraction(x.tau)

    (hp, tp), (hq, tq) = parts(p), parts(q)
    n = len(hp) // 2
    x = sum((s - u) ** 2 for s, u in zip(hp, hq))
    twist = sum(hp[j] * hq[n + j] - hp[n + j] * hq[j] for j in range(n))
    return x, 2 * tp - 2 * tq - twist


def pythagorean_points():
    """(y, p): y = (u^2 - v^2, tau = p q) with p = u^2 + v^2, q = 2uv, so d(y, 0) = p.

    (u^2 - v^2)^4 + 4 p^2 q^2 = (p^2 + q^2)^2, so d(y, 0)^2 = p^2 exactly;
    p q < 2^53 keeps tau an exact float.
    """
    for u in range(12000, 90001, 1950):
        for v in range(1, 41):
            p, q = u * u + v * v, 2 * u * v
            if p * q < 2 ** 53:
                yield hg.ContinuousPoint((complex(u * u - v * v),), float(p * q)), p


class TestExactComparison:
    def test_offset_matches_fraction_arithmetic(self):
        rng = random.Random(41)
        special = [5e-324, 1e300, -0.0, 0.0, -1e300, 2.0 ** -600, 0.1]

        def coord():
            if rng.random() < 0.3:
                return rng.choice(special)
            return rng.uniform(-10, 10) * 10.0 ** rng.randint(-6, 6)

        def point(n):
            if rng.random() < 0.3:
                a = tuple(rng.randint(-9, 9) for _ in range(n))
                b = tuple(rng.randint(-9, 9) for _ in range(n))
                return hg.LatticePoint(a, b, sum(x * y for x, y in zip(a, b)) + 2 * rng.randint(-9, 9))
            return hg.ContinuousPoint(tuple(complex(coord(), coord()) for _ in range(n)), coord())

        for _ in range(600):
            n = rng.choice((1, 2))
            p, q = point(n), point(n)
            x, m, e = hg.offset_exact(p, q)
            assert (Fraction(x, 4 ** e), Fraction(m, 4 ** e)) == fraction_offset(p, q)
            if isinstance(p, hg.LatticePoint) and isinstance(q, hg.LatticePoint):
                assert e == 0
        with pytest.raises(ValueError):
            hg.offset_exact(hg.lattice_identity(1), hg.continuous_identity(2))

    def test_pythagorean_distances_are_exact(self):
        from heisgeo import balls

        origin = hg.continuous_identity(1)
        count = 0
        for y, p in pythagorean_points():
            twin = hg.LatticePoint((int(y.z[0].real),), (0,), 2 * int(y.tau))
            for point in (y, twin):
                assert hg.dist_eq_exact(point, origin, p)
                assert hg.dist_le_exact(point, origin, p)
                assert not hg.dist_le_exact(point, origin, Fraction(2 * p - 1, 2))
                assert hg.core.dist_cmp(point, origin, p) <= 0
                assert not hg.core.dist_cmp(point, origin, p) < 0
                res = balls.boundary_contains(point, balls.BallSpec(origin, p, 0))
                assert res.inside and res.route.startswith("exact-")
            count += 1
        assert count > 1000


def scalar_table(ps, qs, radii):
    """The reference: one dist_cmp per pair; radii[i][j] per pair, or radii[j] per column."""
    def radius(i, j):
        return radii[i][j] if isinstance(radii[0], (list, tuple)) else radii[j]
    return [[hg.core.dist_cmp(p, q, radius(i, j)) for j, q in enumerate(qs)] for i, p in enumerate(ps)]


def table_of(ps, qs, radii):
    """dist_cmp_table over radii given as numbers, put over one denominator."""
    if isinstance(radii[0], (list, tuple)):
        flat, w = hg.core.radii_over(r for row in radii for r in row)
        nums = np.array(flat, dtype=object).reshape(len(ps), len(qs))
    else:
        nums, w = hg.core.radii_over(radii)
    return hg.core.dist_cmp_table(ps, qs, nums, w).tolist()


def table_dtype(ps, qs, radii):
    nums, w = hg.core.radii_over(radii)
    return hg.core._table_terms(ps, qs, nums, w)[0].dtype


def random_lattice(rng, n, span, depth):
    a = tuple(rng.randint(-span, span) for _ in range(n))
    b = tuple(rng.randint(-span, span) for _ in range(n))
    return hg.LatticePoint(a, b, sum(x * y for x, y in zip(a, b)) + 2 * rng.randint(-depth, depth))


def mixed_dyadic(rng, n):
    """A continuous point whose coordinates carry different dyadic exponents."""
    def coord():
        return rng.randint(-400, 400) / 2 ** rng.randint(0, 12)
    return hg.ContinuousPoint(tuple(complex(coord(), coord()) for _ in range(n)), coord())


class TestDistCmpTable:
    def test_lattice_entries_match_scalar(self):
        rng = random.Random(3)
        for n in (1, 2, 3):
            ps = [random_lattice(rng, n, 12, 36) for _ in range(30)]
            qs = ps[:10] + [random_lattice(rng, n, 12, 36) for _ in range(15)]
            radii = [rng.randint(0, 9) for _ in qs]
            assert table_of(ps, qs, radii) == scalar_table(ps, qs, radii)
            assert table_of(qs, qs, radii) == scalar_table(qs, qs, radii)
            assert table_dtype(ps, qs, radii) == np.int64

    def test_continuous_mixed_exponents_and_radius_types(self):
        rng = random.Random(5)
        special = [0, 0.0, 2.0 ** -40, 0.1, Fraction(1, 3), Fraction(50001, 10000), 7, 2.5]
        for n in (1, 2):
            ps = [mixed_dyadic(rng, n) if k % 3 else random_lattice(rng, n, 9, 30)
                  for k in range(24)]
            qs = ps[:6] + [mixed_dyadic(rng, n) for _ in range(12)]

            def radius():
                kind = rng.randrange(4)
                if kind == 0:
                    return rng.choice(special)
                if kind == 1:
                    return rng.randint(0, 40)
                if kind == 2:
                    return Fraction(rng.randint(0, 400), rng.randint(1, 12))
                return rng.uniform(0, 40)

            per_column = [radius() for _ in qs]
            per_pair = [[radius() for _ in qs] for _ in ps]
            assert table_of(ps, qs, per_column) == scalar_table(ps, qs, per_column)
            assert table_of(ps, qs, per_pair) == scalar_table(ps, qs, per_pair)

    def test_zero_entries_on_spheres(self):
        # d(y, 0) = p exactly: the table must read 0 where the float metric cannot tell
        pairs = list(pythagorean_points())[::40]
        ps = [y for y, _ in pairs] + [hg.continuous_identity(1)]
        qs = [hg.continuous_identity(1), hg.lattice_identity(1)]
        radii = [[p, Fraction(2 * p - 1, 2)] for _, p in pairs] + [[0, 0]]
        table = table_of(ps, qs, radii)
        assert table == scalar_table(ps, qs, radii)
        assert [row[0] for row in table] == [0] * len(ps)
        assert [row[1] for row in table[:-1]] == [1] * len(pairs)

    def test_zero_radius_rules(self):
        rng = random.Random(8)
        ps = [random_lattice(rng, 1, 3, 4) for _ in range(12)] + [mixed_dyadic(rng, 1)]
        table = table_of(ps, ps, [0] * len(ps))
        for i, p in enumerate(ps):
            for j, q in enumerate(ps):
                assert (table[i][j] <= 0) == (hg.core.dist_cmp(p, q, 0) <= 0) == (p == q)
                assert (table[i][j] < 0) == (hg.core.dist_cmp(p, q, 0) < 0) is False

    def test_python_int_path_past_int64(self):
        rng = random.Random(13)
        big = 2 ** 40
        far = []
        for _ in range(6):
            a, b = big + rng.randint(-50, 50), rng.randint(-50, 50)
            far.append(hg.LatticePoint((a,), (b,), a * b % 2 + 2 * rng.randint(-10 ** 6, 10 ** 6)))
        near = [random_lattice(rng, 1, 20, 60) for _ in range(8)]
        cases = [
            (far + near, far + near, [rng.randint(0, 2 ** 41) for _ in range(14)]),
            (near, near, [Fraction(50001, 10000)] * 8),
            (near, near, [Fraction(rng.randint(1, 10 ** 9), 10 ** 8) for _ in near]),
            ([mixed_dyadic(rng, 1), hg.ContinuousPoint((complex(5e-324, 1e300),), 0.1)],
             near, [2.5] * 8),
        ]
        for ps, qs, radii in cases:
            assert table_dtype(ps, qs, radii) == object
            assert table_of(ps, qs, radii) == scalar_table(ps, qs, radii)

    def test_int64_path_near_its_bound(self):
        # corners of |a|, |b| <= 2^14, |m| <= 2^29 with radii up to 23000
        h, s = 2 ** 14, 2 ** 29
        corners = [hg.LatticePoint((a,), (b,), m) for a in (-h, h) for b in (-h, h)
                   for m in (-s, s, a * b % 2)]
        radii = [0, 1, 23000, 22999, 17, 2 ** 14, 20000, 1, 3, 5, 7, 23000]
        assert table_dtype(corners, corners, radii) == np.int64
        assert table_of(corners, corners, radii) == scalar_table(corners, corners, radii)

    def test_refusals_and_empty_families(self):
        p1, p2 = hg.lattice_identity(1), hg.lattice_identity(2)
        with pytest.raises(ValueError, match="rank"):
            hg.core.dist_cmp_table([p1], [p2], [1])
        with pytest.raises(ValueError, match="nonnegative"):
            hg.core.dist_cmp_table([p1], [p1], [-1])
        with pytest.raises(ValueError, match="finite"):
            hg.core.dist_cmp_table([hg.ContinuousPoint((0j,), math.inf)], [p1], [1])
        assert hg.core.dist_cmp_table([], [p1], [1]).shape == (0, 1)
        assert hg.core.dist_cmp_table([p1], [], []).shape == (1, 0)
        assert hg.core.radii_over([]) == ([], 1)
        assert hg.core.radii_over([1, 0.5, Fraction(1, 3)]) == ([6, 3, 2], 6)


class TestIsometries:
    def test_flip_is_automorphism_and_isometry(self):
        rng = random.Random(23)
        for _ in range(50):
            p, q = random_continuous(rng), random_continuous(rng)
            fp, fq = isometry_flip(p), isometry_flip(q)
            prod = hg.multiply(fp, fq)
            fprod = isometry_flip(hg.multiply(p, q))
            assert abs(prod.tau - fprod.tau) < 1e-10
            assert hg.metric_d(fp, fq) == pytest.approx(hg.metric_d(p, q), abs=1e-10)

    @given(lattice_points())
    def test_flip_preserves_lattice(self, p):
        fp = isometry_flip(p)
        assert isinstance(fp, hg.LatticePoint)
        assert isometry_flip(fp) == p

    def test_rotation_isometry(self):
        rng = random.Random(29)
        for _ in range(50):
            p, q = random_continuous(rng, n=2), random_continuous(rng, n=2)
            th = [rng.uniform(0, 2 * math.pi) for _ in range(2)]
            assert hg.metric_d(isometry_rotate(th, p), isometry_rotate(th, q)) == pytest.approx(
                hg.metric_d(p, q), abs=1e-10)

    @given(lattice_points(coord=10), st.integers(0, 7))
    def test_quarter_turn_matches_continuous_rotation(self, p, c):
        lat = lattice_rotate_quarter(p, (c,))
        cont = isometry_rotate((c * math.pi / 2,), p)
        lz = hg.as_continuous(lat)
        assert abs(lz.tau - cont.tau) < 1e-9
        assert all(abs(u - v) < 1e-9 for u, v in zip(lz.z, cont.z))

    @given(lattice_points(), st.integers(0, 3))
    def test_quarter_turn_preserves_sphere(self, p, c):
        e = hg.lattice_identity(1)
        for r in (1, 2, Fraction(3, 2)):
            assert hg.dist_le_exact(lattice_rotate_quarter(p, (c,)), e, r) == hg.dist_le_exact(p, e, r)


class TestSerialisation:
    @given(lattice_points(n=2, coord=15))
    def test_lattice_roundtrip(self, p):
        assert hg.point_from_json(hg.point_to_json(p)) == p

    def test_continuous_roundtrip(self):
        p = hg.ContinuousPoint((1.5 - 2.25j, 0.125 + 3j), -7.75)
        q = hg.point_from_json(hg.point_to_json(p))
        assert isinstance(q, hg.ContinuousPoint)
        assert q == p
