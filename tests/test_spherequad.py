"""Secular solver and sphere-gauge reductions against independent oracles."""

import hashlib
import math
import warnings

import numpy as np
import pytest
import scipy.optimize as opt

import heisgeo as hg
from heisgeo import spherequad as sq


def one_point_distance(y, r):
    """sphere_distance of one group point, as a batch of one row."""
    dist, nearest = sq.sphere_distance(sq._row(y)[None], r)
    return float(dist[0]), sq._point(nearest[0])


def multistart_oracle(P, q, c, rng, starts=30):
    # minimising g(x/|x|) unconstrained shares its global min with the sphere
    def h(x):
        x = x / np.linalg.norm(x)
        return x @ P @ x + 2 * q @ x + c

    best = np.inf
    for _ in range(starts):
        res = opt.minimize(h, rng.standard_normal(P.shape[0]), method="BFGS")
        best = min(best, res.fun)
    return best


def generic_min(P, q, c):
    """Min of xi^T P xi + 2 q . xi + c over ||xi|| = 1 and its argmin, for any symmetric P.

    Diagonalises P, hands the rotated problem to the production secular
    root and rotates the argmin back.
    """
    lam, vecs = np.linalg.eigh(P)
    values, xi = sq._secular_batched(lam[None], (vecs.T @ q)[None], np.array([c]))
    return float(values[0]), vecs @ xi[0]


def sq_x(z_flat):
    """|z|^2 per row, the gauge's horizontal input."""
    return np.sum(np.atleast_2d(z_flat) ** 2, axis=1)


def unit_gauge(x, tau, r, t):
    """F_t's minimum per row through gauge_min at unit thickness, F_1 at
    (x/t^2, tau/t^2, r/t), as the ball module calls it; with one t per row,
    one call per row."""
    if np.ndim(t):
        return np.concatenate([unit_gauge(x[i:i + 1], tau[i:i + 1], r, t[i])
                               for i in range(len(t))])
    return sq.gauge_min(x / (t * t), tau / (t * t), r / t)


def gauge_matrix(z_flat, tau, r, t):
    """(M, v) with F_t(xi) = ||M xi - v||^2 for y = (z, tau) against S_r(0).

    z_flat is (Re z_1..n, Im z_1..n).  The first 2n rows match the
    horizontal offset; the last carries the central offset with the twist
    (r/2) Im<a, z>, whose gradient in a is (z_im, -z_re).
    """
    two_n = z_flat.shape[0]
    n = two_n // 2
    M = np.zeros((two_n + 1, two_n + 1))
    M[:two_n, :two_n] = (r / t) * np.eye(two_n)
    M[two_n, two_n] = r * r / (t * t)
    M[two_n, :n] = -(r / (2 * t * t)) * z_flat[n:]
    M[two_n, n:two_n] = (r / (2 * t * t)) * z_flat[:n]
    return M, np.append(z_flat / t, tau / (t * t))


class TestSecularSolver:
    def test_matches_multistart_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            d = int(rng.integers(2, 6))
            A = rng.standard_normal((d, d))
            P = (A + A.T) / 2
            q = rng.standard_normal(d)
            if trial % 5 == 0:
                q = np.zeros(d)  # pure eigenproblem: forced hard case
            if trial % 7 == 0:
                lam, V = np.linalg.eigh(P)
                q = V[:, -1] * 0.1  # orthogonal to bottom eigenvector
            c = float(rng.standard_normal())
            val, xi = generic_min(P, q, c)
            assert np.linalg.norm(xi) == pytest.approx(1.0, abs=1e-8)
            assert xi @ P @ xi + 2 * q @ xi + c == pytest.approx(val, abs=1e-7)
            oracle = multistart_oracle(P, q, c, rng)
            assert val <= oracle + 1e-7
            assert val == pytest.approx(oracle, abs=1e-6)

    def test_pure_eigenvalue_case(self):
        P = np.diag([3.0, -2.0, 5.0])
        val, xi = generic_min(P, np.zeros(3), 0.0)
        assert val == pytest.approx(-2.0, abs=1e-12)
        assert abs(xi[1]) == pytest.approx(1.0, abs=1e-9)

    def test_linear_term_dominates(self):
        # P = 0: minimise 2 q.xi on the sphere -> -2|q|
        q = np.array([3.0, -4.0])
        val, _ = generic_min(np.zeros((2, 2)), q, 1.0)
        assert val == pytest.approx(1.0 - 2 * 5.0, abs=1e-10)

    def test_batched_equals_scalar(self):
        rng = np.random.default_rng(2)
        Ps, qs, cs = [], [], []
        for i in range(40):
            A = rng.standard_normal((3, 3))
            Ps.append((A + A.T) / 2)
            qs.append(np.zeros(3) if i % 6 == 0 else rng.standard_normal(3))
            cs.append(float(rng.standard_normal()))
        Ps, qs, cs = np.stack(Ps), np.stack(qs), np.array(cs)
        lam, vecs = np.linalg.eigh(Ps)
        vb, _ = sq._secular_batched(lam, np.einsum("nij,ni->nj", vecs, qs), cs)
        vs = np.array([generic_min(Ps[i], qs[i], cs[i])[0] for i in range(40)])
        assert np.max(np.abs(vb - vs)) < 1e-12


class TestSphereGauge:
    def test_gauge_threshold_matches_metric(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(1, 3))
            z = rng.standard_normal(2 * n) * 2
            tau = float(rng.standard_normal() * 3)
            r = float(rng.uniform(0.2, 3.0))
            t = float(rng.uniform(0.05, 2.0))
            xi = rng.standard_normal(2 * n + 1)
            xi /= np.linalg.norm(xi)
            M, v = gauge_matrix(z, tau, r, t)
            F = float(np.sum((M @ xi - v) ** 2))
            s = sq.sphere_point(r, xi)
            y = hg.ContinuousPoint(tuple(complex(z[j], z[n + j]) for j in range(n)), tau)
            d = hg.metric_d(y, s)
            if abs(d - t) > 1e-9:
                assert (F <= 1) == (d <= t)

    def test_batched_gauge_matches_scalar(self):
        # a batch equals its one-row calls bit for bit; so does _gauge_argmin's
        # with one t per row, which at t = 1 gives gauge_min's values
        rng = np.random.default_rng(3)
        zs = rng.standard_normal((25, 2)) * 2
        taus = rng.standard_normal(25) * 2
        ts = rng.uniform(0.05, 2.0, 25)
        xs = sq_x(zs)
        vb = unit_gauge(xs, taus, 1.3, 0.4)
        assert vb.tolist() == [unit_gauge(xs[i:i + 1], taus[i:i + 1], 1.3, 0.4)[0]
                               for i in range(25)]
        unit = sq._gauge_argmin(zs, taus, 1.3, 1.0)[0]
        assert unit.tobytes() == sq.gauge_min(xs, taus, 1.3).tobytes()
        vb, xb = sq._gauge_argmin(zs, taus, 1.3, ts)  # sphere_distance's values
        np.testing.assert_allclose(vb, unit_gauge(xs, taus, 1.3, ts), rtol=1e-12, atol=1e-12)
        for i in range(25):
            v, x = sq._gauge_argmin(zs[i:i + 1], taus[i:i + 1], 1.3, ts[i:i + 1])
            assert vb[i:i + 1].tobytes() == v.tobytes() and xb[i:i + 1].tobytes() == x.tobytes()

    def test_sphere_point_lies_on_sphere(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            xi = rng.standard_normal(5)
            xi /= np.linalg.norm(xi)
            s = sq.sphere_point(2.5, xi)
            assert hg.homogeneous_norm(s) == pytest.approx(2.5, abs=1e-10)

    @pytest.mark.parametrize("r, t", [(math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0),
                                      (1.0, math.nan)])
    def test_bad_radius_or_tolerance_refused(self, r, t):
        # once answered nan, nan and 0.2418 instead of refusing; a bad t
        # reaches the gauge as bad inputs
        with pytest.raises(ValueError):
            unit_gauge(np.full(1, 2.0), np.array([0.5]), r, t)
        with pytest.raises(ValueError):
            unit_gauge(np.full(3, 2.0), np.arange(3.0), r, t)

    @pytest.mark.parametrize("x, tau", [(math.inf, 0.5), (math.nan, 0.5), (2.0, math.inf),
                                        (2.0, -math.inf), (2.0, math.nan)])
    def test_non_finite_gauge_input_refused(self, x, tau):
        with pytest.raises(ValueError):
            unit_gauge(np.array([x]), np.array([tau]), 1.0, 0.5)
        with pytest.raises(ValueError):
            unit_gauge(np.array([2.0, x]), np.array([0.5, tau]), 1.0, 0.5)

    @pytest.mark.parametrize("x, tau, r, t, message", [
        (-1.0, 0.5, 1.0, 0.5, r"\|z\|\^2 must be nonnegative"),  # once warned from sqrt first
    ])
    def test_tiny_tolerance_and_negative_norm_refused(self, x, tau, r, t, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                unit_gauge(np.array([x]), np.array([tau]), r, t)
            with pytest.raises(ValueError, match=message):
                unit_gauge(np.array([2.0, x]), np.array([0.5, tau]), r, t)

    def test_overflowing_gauge_terms_refused(self):
        # (alpha beta)^2 of a float r = 1e60 once raised OverflowError
        with pytest.raises(ValueError, match="overflow"):
            sq.gauge_min(np.array([1.0]), np.array([0.0]), 1e60)

    def test_non_finite_gauge_value_refused(self):
        # finite inputs whose gauge terms overflow: gamma^2 = (r |z| / 2)^2
        with np.errstate(all="ignore"), pytest.raises(ValueError):
            sq.gauge_min(np.array([1e300]), np.array([1.0]), 1e20)


def gauge_cases():
    """Random (z, tau, r, t) for n = 1, 2 plus the degenerate z = 0, tau = 0, r < t."""
    rng = np.random.default_rng(11)
    cases = []
    for i in range(200):
        n = 1 + i % 2
        cases.append((rng.standard_normal(2 * n) * 2, float(rng.standard_normal() * 3),
                      float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.5, 2.0))))
    for n in (1, 2):
        z = rng.standard_normal(2 * n)
        zero = np.zeros(2 * n)
        cases += [(zero, 1.5, 2.0, 0.7), (zero, -0.4, 0.5, 1.2), (zero, 0.3, 1.0, 1.0),
                  (zero, 0.0, 1.3, 0.6), (z, 0.0, 1.3, 0.6), (z, 0.0, 0.4, 1.1),
                  (z, 2.0, 0.3, 1.5), (z * 1e-9, 1e-9, 1.0, 0.5)]
    return cases


class TestStructuredGauge:
    def test_matches_generic_solver(self):
        for z, tau, r, t in gauge_cases():
            M, v = gauge_matrix(z, tau, r, t)
            want, _ = generic_min(M.T @ M, -M.T @ v, float(v @ v))
            got, xi = sq._gauge_argmin(z[None], np.array([tau]), r, t)
            got, xi = got[0], xi[0]
            tol = 1e-12 * max(1.0, abs(want))
            assert abs(got - want) <= tol, (z, tau, r, t)
            assert np.linalg.norm(xi) == pytest.approx(1.0, abs=1e-12)
            assert abs(float(np.sum((M @ xi - v) ** 2)) - got) <= tol, (z, tau, r, t)

    def test_batched_rows_match_scalar(self):
        # bit for bit: a row's value does not depend on the rest of its batch
        for n in (1, 2):
            rows = [(z, tau) for z, tau, _, _ in gauge_cases() if z.size == 2 * n]
            zs = np.stack([z for z, _ in rows])
            taus = np.array([tau for _, tau in rows])
            xs = sq_x(zs)
            got = unit_gauge(xs, taus, 1.3, 0.6)
            assert got.tolist() == [unit_gauge(sq_x(z), np.array([tau]), 1.3, 0.6)[0]
                                    for z, tau in rows]

    @pytest.mark.parametrize("steps", [1, 3, sq._NEWTON_STEPS])
    def test_newton_root_stays_in_bracket(self, steps, monkeypatch):
        capped = steps < sq._NEWTON_STEPS
        monkeypatch.setattr(sq, "_NEWTON_STEPS", steps)
        for z, tau, r, t in gauge_cases():
            lam, qt, _, _, _ = sq._gauge_secular(np.array([z @ z]), np.array([tau]), r, t)
            gap = lam - lam[:, :1]
            qq = qt * qt
            qn = np.sqrt(qq.sum(axis=1))
            lo = 1e-18 * np.maximum(np.maximum(gap.max(axis=1), qn), 1e-300)
            hi = np.maximum(qn, 2 * lo)
            if np.sum(qq / (gap + lo[:, None]) ** 2) < 1.0:
                continue  # hard case: no root on the bracket
            s = sq._secular_root(gap, qq, lo, hi, np.ones(1, dtype=bool))
            assert lo[0] <= s[0] <= hi[0]
            if not capped:
                assert np.sum(qq / (gap + s[:, None]) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_no_eigensolver_on_the_gauge_path(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        y = hg.ContinuousPoint((1.3 + 0.4j,), -0.7)
        unit_gauge(np.full(3, 2.0), np.arange(3.0), 1.5, np.array([0.4, 0.5, 0.6]))
        sq.sphere_distance(sq._row(y)[None], 1.5)


def pin_corpus():
    """Seeded gauge batches (z_flat, tau, r, t) of 1-40 rows for the byte pins.

    Six kinds in turn, each with one scalar t or one t per row: generic
    rows; integer rows with zero z and zero tau among them; hard-case rows
    (tau = 0 and z short, or both zero); rows near S_r at r/t up to 1e4;
    tiny rows (scales 1e-150..1e-100, r = 0 every other batch), on which
    the secular loop meets inf or 0/0; and mixed scales with r/t from 1e-3.
    """
    rng = np.random.default_rng(2310)
    batches = []
    for i in range(360):
        size, n = int(rng.integers(1, 41)), int(rng.integers(1, 3))
        kind, per_row = i % 6, i % 12 < 6
        tau = rng.standard_normal(size) * 3
        t = rng.uniform(0.05, 2.0, size) if per_row else float(rng.uniform(0.05, 2.0))
        r = float(rng.uniform(0.2, 3.0))
        z = rng.standard_normal((size, 2 * n)) * 2
        if kind == 1:
            z = rng.integers(-4, 5, (size, 2 * n)).astype(float)
            tau = rng.integers(-20, 21, size).astype(float)
            z[rng.random(size) < 0.3] = 0.0
            tau[rng.random(size) < 0.3] = 0.0
            r = float(rng.integers(1, 6))
            t = rng.integers(1, 3, size).astype(float) if per_row else 0.5
        elif kind == 2:
            z *= rng.uniform(0.0, 0.3, (size, 1))
            tau[:] = 0.0
            z[rng.random(size) < 0.2] = 0.0
        elif kind == 3:
            r = float(np.max(t) * 10 ** rng.uniform(1, 4))
            xi = rng.standard_normal((size, 2 * n + 1))
            xi /= np.linalg.norm(xi, axis=1, keepdims=True)
            z = r * xi[:, :-1] + 0.5 * np.reshape(t, (-1, 1)) * rng.standard_normal((size, 2 * n))
            tau = r * r * xi[:, -1] + 0.5 * (t * t + r * t) * rng.standard_normal(size)
        elif kind == 4:
            scale = 10 ** rng.uniform(-150, -100)
            z *= scale
            tau *= scale * scale
            r = 0.0 if i % 24 < 12 else r * scale
            t = t * scale
        elif kind == 5:
            z *= 10 ** rng.uniform(-3, 3, (size, 1))
            tau *= 10 ** rng.uniform(-3, 3, size)
            r = float(np.max(t) * 10 ** rng.uniform(-3, 4))
        batches.append((z, tau, r, t))
    return batches


def corpus_digests():
    """SHA-256 of gauge_min's values at unit thickness (unit_gauge, or its
    refusal) and of _gauge_argmin's values and argmins over pin_corpus()."""
    h = {key: hashlib.sha256() for key in ("gauge_min", "argmin_values", "argmins")}
    with np.errstate(all="ignore"):
        for z, tau, r, t in pin_corpus():
            try:
                h["gauge_min"].update(unit_gauge(np.sum(z * z, axis=1), tau, r, t).tobytes())
            except ValueError:
                h["gauge_min"].update(b"refused")
            values, xi = sq._gauge_argmin(z, tau, r, t)
            h["argmin_values"].update(values.tobytes())
            h["argmins"].update(xi.tobytes())
    return {key: d.hexdigest() for key, d in h.items()}


# the argmin pins recorded from the solver before its row loop existed; the
# gauge_min pin re-recorded when gauge_min lost t and took unit thickness
CORPUS_SHA256 = {
    "gauge_min": "8d05b711c115c27aa3ac58bea3a3d76c0e1465f8d59ae6b92bb95186005be31e",
    "argmin_values": "2abfef927775b7be1b69aa388168fa4a261e24608d0dc803a399d0e6d7034f81",
    "argmins": "48502a975fd93f3c91ab9cb335be13d31750405588b0a2f6bbc81fbd7393c856",
}


class TestGaugePins:
    @pytest.mark.parametrize("rows", [0, 10 ** 9])  # every batch as arrays, or per row
    def test_corpus_pinned(self, rows, monkeypatch):
        monkeypatch.setattr(sq, "_ROW_LOOP_ROWS", rows)
        assert corpus_digests() == CORPUS_SHA256

    def test_row_loop_matches_array_loop(self, monkeypatch):
        # every batch of the corpus solved per row and as arrays, byte for byte
        outputs = []
        for rows in (0, 10 ** 9):
            monkeypatch.setattr(sq, "_ROW_LOOP_ROWS", rows)
            with np.errstate(all="ignore"):
                outputs.append([b"".join(a.tobytes() for a in sq._gauge_argmin(z, tau, r, t))
                                for z, tau, r, t in pin_corpus()])
        assert outputs[0] == outputs[1]


class TestSphereDistance:
    def brute(self, y, r, n, rng, samples=3000):
        pts = rng.standard_normal((samples, 2 * n + 1))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        best, bxi = np.inf, None
        for xi in pts:
            d = hg.metric_d(y, sq.sphere_point(r, xi))
            if d < best:
                best, bxi = d, xi

        def f(x):
            return hg.metric_d(y, sq.sphere_point(r, x / np.linalg.norm(x)))

        res = opt.minimize(f, bxi, method="Nelder-Mead",
                           options=dict(xatol=1e-12, fatol=1e-14, maxiter=4000))
        return min(best, res.fun)

    def test_against_sampling_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            z = rng.standard_normal(2) * 2
            y = hg.ContinuousPoint((complex(z[0], z[1]),), float(rng.standard_normal() * 3))
            r = float(rng.uniform(0.2, 3.0))
            ds, _ = one_point_distance(y, r)
            assert ds == pytest.approx(self.brute(y, r, 1, rng), abs=1e-6)

    def test_sandwich_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            z = rng.standard_normal(2) * 2
            y = hg.ContinuousPoint((complex(z[0], z[1]),), float(rng.standard_normal() * 3))
            r = float(rng.uniform(0.1, 4.0))
            lam = hg.homogeneous_norm(y)
            ds, _ = one_point_distance(y, r)
            assert abs(lam - r) - 1e-9 <= ds <= math.sqrt(abs(lam * lam - r * r)) + 1e-9

    def test_central_point_hits_upper_bound(self):
        # purely central points realise dist = sqrt(|lam^2 - r^2|)
        y = hg.ContinuousPoint((0j,), 2.0)
        lam = hg.homogeneous_norm(y)
        r = 1.0
        assert one_point_distance(y, r)[0] == pytest.approx(math.sqrt(lam * lam - r * r), abs=1e-9)

    def test_horizontal_point_hits_lower_bound(self):
        # points on the real axis see the sphere at exactly |lam - r|
        y = hg.ContinuousPoint((3.0 + 0j,), 0.0)
        assert one_point_distance(y, 1.25)[0] == pytest.approx(1.75, abs=1e-9)
        assert one_point_distance(y, 5.0)[0] == pytest.approx(2.0, abs=1e-9)

    def test_on_sphere_distance_zero(self):
        y = hg.ContinuousPoint((0.6 + 0.8j,), 0.0)
        assert one_point_distance(y, 1.0)[0] == pytest.approx(0.0, abs=1e-9)

    def test_identity_center_and_zero_radius(self):
        y = hg.ContinuousPoint((1 + 1j,), 0.5)
        lam = hg.homogeneous_norm(y)
        assert one_point_distance(y, 0.0)[0] == pytest.approx(lam, abs=1e-12)
        e = hg.continuous_identity(1)
        assert one_point_distance(e, 2.5)[0] == pytest.approx(2.5, abs=1e-12)

    def test_non_finite_input_refused(self):
        y = hg.ContinuousPoint((1.3 + 0.4j,), -0.7)
        for r in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError):
                sq.sphere_distance(sq._row(y)[None], r)
        with pytest.raises(ValueError):
            sq.gauge_min(np.full(1, 2.0), np.array([0.5]), math.nan)

    def test_witness_is_valid(self):
        # the nearest row lies on the sphere at the reported distance, also
        # where no probe is accepted: a central row, and at r = 1 two rows on
        # the sphere, whose bracket is closed before any probe
        ys = [hg.ContinuousPoint((1.3 + 0.4j,), -0.7), hg.ContinuousPoint((0j,), 2.0),
              hg.ContinuousPoint((1 + 0j,), 0.0), hg.ContinuousPoint((0.6 + 0.8j,), 0.0)]
        for r in (1.0, 1.5):
            dist, nearest = sq.sphere_distance(np.array([sq._row(y) for y in ys]), r)
            for y, d, w in zip(ys, dist, nearest):
                assert hg.homogeneous_norm(sq._point(w)) == pytest.approx(r, abs=1e-9)
                assert hg.metric_d(y, sq._point(w)) == pytest.approx(d, abs=1e-9)

    def test_projection_to_translated_sphere(self):
        # nearest point of S_r(center) by right translation to the origin and back
        y = hg.ContinuousPoint((1.3 + 0.4j,), -0.7)
        center = hg.ContinuousPoint((0.2 - 1j,), 0.3)
        c = sq._row(center)[None]
        red = sq._mul_rows(sq._row(y)[None], -c)
        assert red.tobytes() == sq._row(hg.multiply(y, hg.inverse(center))).tobytes()
        dist, w0 = sq.sphere_distance(red, 0.8)
        w = sq._point(sq._mul_rows(w0, c)[0])
        assert hg.metric_d(w, center) == pytest.approx(0.8, abs=1e-9)
        assert hg.metric_d(y, w) == pytest.approx(dist[0], abs=1e-9)
        # right invariance: distance equals reduced-point distance
        assert dist[0] == pytest.approx(one_point_distance(sq._point(red[0]), 0.8)[0], abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2])
    def test_rows_match_one_row_calls(self, n):
        # bit for bit: a row's distance and nearest point do not depend on its batch
        rng = np.random.default_rng(30 + n)
        e_tau = np.eye(2 * n + 1)[-1]
        e_re = np.eye(2 * n + 1)[0]
        rows = np.vstack([
            np.zeros(2 * n + 1),                  # the origin
            e_re,                                 # on S_1(0)
            3.0 * e_re,                           # horizontal
            2.0 * e_tau,                          # central: no probe accepted
            -0.3 * e_tau,                         # central, below
            rng.standard_normal((6, 2 * n + 1)) * 2,
        ])
        for r in (0.0, 1.0, 1.5):
            dist, nearest = sq.sphere_distance(rows, r)
            for i in range(len(rows)):
                d, w = sq.sphere_distance(rows[i:i + 1], r)
                assert dist[i:i + 1].tobytes() == d.tobytes(), (r, i)
                assert nearest[i:i + 1].tobytes() == w.tobytes(), (r, i)
            lam = sq._norm_rows(rows)
            if r == 1.0:
                assert dist[1] == 0.0 and nearest[1].tolist() == rows[1].tolist()
            if r > 0:
                # the central rows keep the bracket's top: every probe was refused
                top = np.sqrt(np.abs(lam * lam - r * r))
                assert dist[3:5].tolist() == top[3:5].tolist()
                assert dist[0] == r
            else:
                assert dist.tolist() == lam.tolist() and not nearest.any()
