"""Separation-lemma verifiers: LSS gap, closeball witnesses, chain search.

Every numeric claim made by the search code is re-derived here through
an independent route: bisection sphere distances, exact Fraction scale
arithmetic, or direct gauge evaluation, never the screen that produced
the claim in the first place.  scipy is the oracle of the in-house
Nelder-Mead polish, as it is of the gauge solver in test_spherequad.py.
"""

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize as opt

from heisgeo import separation as sp
from heisgeo import spherequad as sq
from heisgeo.balls import BallSpec, boundary_contains
from heisgeo.core import (
    ContinuousPoint,
    as_continuous,
    continuous_identity,
    dilate,
    homogeneous_norm,
    inverse,
    metric_d,
    multiply,
    point_from_json,
    point_to_json,
)
from heisgeo.errors import HypothesisViolation
from heisgeo.spherequad import sphere_point
from lattice_symmetry import isometry_flip, isometry_rotate


def unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class TestLssBound:
    def test_value_at_one(self):
        # 0.5 (1 - sqrt(3)/2), the worst admissible aperture
        assert sp.lss_bound(1.0) == pytest.approx(0.0669872981077807, abs=1e-12)

    def test_algebraic_identity(self):
        # b = (1 - sqrt(1 - eps^2/4))/2  iff  (1 - 2b)^2 = 1 - eps^2/4
        for eps in (0.1, 0.3, 0.5, 0.9, 1.0):
            b = sp.lss_bound(eps)
            assert (1.0 - 2.0 * b) ** 2 == pytest.approx(1.0 - eps * eps / 4.0, abs=1e-14)

    def test_monotone(self):
        grid = [sp.lss_bound(e) for e in np.linspace(0.05, 1.0, 12)]
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_domain(self):
        for bad in (0.0, -0.2, 1.2):
            with pytest.raises(ValueError):
                sp.lss_bound(bad)


class TestLssCheck:
    def test_holds_on_random_family(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            cfg = sp.random_lss_config(1e4, 0.5, n=1, rng=rng)
            res = sp.lss_check(*cfg, eps=0.5, R=1e4)
            assert res.holds
            assert res.gap > 0.0

    def test_holds_in_higher_rank(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            cfg = sp.random_lss_config(1e4, 0.5, n=2, rng=rng)
            assert sp.lss_check(*cfg, eps=0.5, R=1e4).holds

    def test_gap_matches_direct_evaluation(self):
        cfg = sp.random_lss_config(1e4, 0.5, n=1, rng=np.random.default_rng(3))
        res = sp.lss_check(*cfg, eps=0.5, R=1e4)
        p_hat = dilate(1.0 / homogeneous_norm(cfg.p), cfg.p)
        q_hat = dilate(1.0 / homogeneous_norm(cfg.q), cfg.q)
        direct = metric_d(p_hat, q_hat) - sp.lss_bound(0.5)
        assert res.gap == pytest.approx(direct, abs=1e-12)

    def clause(self, exc_info):
        return exc_info.value.clause

    def test_violation_clauses(self):
        cfg = sp.random_lss_config(1e4, 0.5, n=1, rng=np.random.default_rng(1))
        p, q, t, tt, r, rt = cfg
        with pytest.raises(HypothesisViolation) as e:
            sp.lss_check(p, q, 0.5, tt, r, rt, eps=0.5, R=1e4)
        assert self.clause(e) == "thickness"
        with pytest.raises(HypothesisViolation) as e:
            sp.lss_check(p, q, t, tt, r, rt, eps=0.5, R=1.0)
        assert self.clause(e) == "scale"
        with pytest.raises(HypothesisViolation) as e:
            sp.lss_check(p, q, t, tt, r, rt, eps=1.0, R=1e4)
        assert self.clause(e) == "eps_range"
        with pytest.raises(HypothesisViolation) as e:
            sp.lss_check(p, q, t, tt, rt / 2.0, rt, eps=0.5, R=1e4)
        assert self.clause(e) == "radii"
        with pytest.raises(HypothesisViolation) as e:
            # r_tilde below the t t~ R floor
            sp.lss_check(p, q, t, tt, r, 0.9 * t * tt * 1e4, eps=0.5, R=1e4)
        assert self.clause(e) == "radii"
        with pytest.raises(HypothesisViolation) as e:
            # quadruple r: the eps floor dies before any shell test runs
            sp.lss_check(p, q, t, tt, 4.0 * r, rt, eps=0.5, R=1e4)
        assert self.clause(e) == "eps_floor"
        with pytest.raises(HypothesisViolation) as e:
            sp.lss_check(continuous_identity(1), q, t, tt, r, rt, eps=0.5, R=1e4)
        assert self.clause(e) == "nonzero"
        with pytest.raises(HypothesisViolation) as e:
            sp.lss_check(dilate(3.0, p), q, t, tt, r, rt, eps=0.5, R=1e4)
        assert self.clause(e) == "origin_shell_p"
        with pytest.raises(HypothesisViolation) as e:
            sp.lss_check(p, dilate(0.5, q), t, tt, r, rt, eps=0.5, R=1e4)
        assert self.clause(e) == "origin_shell_q"

    def test_q_shell_clause(self):
        # equal radii so both origin shells pass, but q = p^{-2} p sits
        # nowhere near the sphere around p
        R, t = 1e4, 1.5
        r = t * t * R * 1.1
        p = sphere_point(r, np.array([1.0, 0.0, 0.0]))
        q = inverse(p)
        with pytest.raises(HypothesisViolation) as e:
            sp.lss_check(p, q, t, t, r, r, eps=0.5, R=R)
        assert e.value.clause == "q_shell_p"

    def test_isometry_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            cfg = sp.random_lss_config(1e4, 0.5, n=1, rng=rng)
            base = sp.lss_check(*cfg, eps=0.5, R=1e4)
            flipped = sp.lss_check(isometry_flip(cfg.p), isometry_flip(cfg.q),
                                   cfg.t, cfg.t_tilde, cfg.r, cfg.r_tilde,
                                   eps=0.5, R=1e4)
            theta = [float(rng.uniform(0.0, 2.0 * math.pi))]
            rotated = sp.lss_check(isometry_rotate(theta, cfg.p),
                                   isometry_rotate(theta, cfg.q),
                                   cfg.t, cfg.t_tilde, cfg.r, cfg.r_tilde,
                                   eps=0.5, R=1e4)
            assert flipped.holds == base.holds == rotated.holds
            assert flipped.gap == pytest.approx(base.gap, abs=1e-9)
            assert rotated.gap == pytest.approx(base.gap, abs=1e-9)

    @pytest.mark.parametrize("eps, R, match", [
        (1.5, 1e4, "eps"), (-0.2, 1e4, "eps"), (0.0, 1e4, "eps"), (1.0, 1e4, "eps"),
        (0.5, 0.5, "R"), (0.5, 1.0, "R"),
    ])
    def test_config_refuses_out_of_range_arguments(self, eps, R, match):
        # lss_check's eps_range and scale clauses, refused before any draw
        # (once 32 draws and a RuntimeError, or a ZeroDivisionError at eps = 0)
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"drew {name} before refusing")

        with pytest.raises(ValueError, match=match):
            sp.random_lss_config(R, eps, n=1, rng=NoDraws())


class TestCloseball:
    def test_pole_branch(self):
        p = ContinuousPoint((0j,), 400.0)  # purely vertical, rho = 20
        res = sp.closeball_witness(p, continuous_identity(1), 0.5, seed=2)
        assert res.verified
        assert res.report["branch"] == "pole"
        assert res.report["rho"] == pytest.approx(20.0, abs=1e-9)
        assert metric_d(continuous_identity(1), res.q) == pytest.approx(1.0, abs=1e-9)

    def test_equator_branch(self):
        p = ContinuousPoint((30.0 + 0j,), 0.0)
        res = sp.closeball_witness(p, continuous_identity(1), 0.5, seed=2)
        assert res.verified
        assert res.report["branch"] == "equator"
        assert metric_d(continuous_identity(1), res.q) == pytest.approx(1.0, abs=1e-9)

    def test_dilation_invariance(self):
        lam = 3.0
        p = ContinuousPoint((0j,), 400.0)
        base = sp.closeball_witness(p, continuous_identity(1), 0.5, seed=5)
        big = sp.closeball_witness(dilate(lam, p), continuous_identity(1),
                                   0.5 * lam, seed=5)
        assert base.verified and big.verified
        assert big.report["branch"] == base.report["branch"]
        assert big.report["normalized_rho"] == pytest.approx(
            base.report["normalized_rho"], rel=1e-9)

    def test_scale_gap_violation(self):
        p = ContinuousPoint((5.0 + 0j,), 0.0)  # rho = 5 < 2 R r = 8
        with pytest.raises(HypothesisViolation) as e:
            sp.closeball_witness(p, continuous_identity(1), 0.5)
        assert e.value.clause == "scale_gap"

    def test_argument_validation(self):
        p = ContinuousPoint((30.0 + 0j,), 0.0)
        with pytest.raises(ValueError):
            sp.closeball_witness(p, continuous_identity(1), -1.0)

    def test_random_instances_verify(self):
        rng = np.random.default_rng(19)
        for trial in range(8):
            rho = 9.0 + float(rng.uniform(0.0, 20.0))
            off = sphere_point(rho, unit(rng, 3))
            base = ContinuousPoint((complex(*rng.normal(size=2)),),
                                   float(rng.normal()))
            p = multiply(off, base)
            res = sp.closeball_witness(p, base, 0.5, samples=160,
                                       seed=100 + trial)
            assert res.verified, res.report
            assert res.report["max_boundary_distance"] <= rho * (1 + 1e-12) + 1e-9
            assert metric_d(base, res.q) == pytest.approx(1.0, abs=1e-9)

    def test_higher_rank_instance(self):
        rng = np.random.default_rng(23)
        off = sphere_point(25.0, unit(rng, 5))
        res = sp.closeball_witness(off, continuous_identity(2), 0.5,
                                   samples=200, seed=31)
        assert res.verified

    def test_threshold_estimate(self):
        estimate = closeball_R_estimate(r=0.5, n=1, directions=5, seed=3, hi=64.0)
        # measured feasibility edge sits well inside the shipped default
        assert 1.0 < estimate < sp.DEFAULT_CLOSEBALL_R


def closeball_round_trip(p, p_prime, r):
    """(branch, q) by the isometry round trip closeball_witness once made:
    flip tau0 to >= 0, rotate the phases of z0 away, pick the center on the
    real axis or at the pole, then rotate and flip back."""
    p0 = dilate(1.0 / (2.0 * r), multiply(p, inverse(p_prime)))
    rho0 = homogeneous_norm(p0)
    flipped = p0.tau < 0
    p1 = isometry_flip(p0) if flipped else p0
    theta = [-(0.0 if w == 0 else math.atan2(w.imag, w.real)) for w in p1.z]
    p2 = isometry_rotate(theta, p1)
    z_norm = math.sqrt(sum(w.real * w.real + w.imag * w.imag for w in p2.z))
    if z_norm >= 2.0 * sp.DEFAULT_CLOSEBALL_C / rho0:
        branch = "equator"
        q_norm = ContinuousPoint(tuple(complex(w.real / z_norm, 0.0) for w in p2.z), 0.0)
    else:
        branch = "pole"
        q_norm = ContinuousPoint((0j,) * p2.n, 1.0)
    q_back = isometry_rotate([-a for a in theta], q_norm)
    if flipped:
        q_back = isometry_flip(q_back)
    return branch, multiply(dilate(2.0 * r, q_back), as_continuous(p_prime))


@pytest.mark.parametrize("n", [1, 2])
def test_closeball_center_matches_isometry_round_trip(n):
    # the center built in the given frame is the round trip's, up to
    # rounding, on both branches and both signs of tau0; a small horizontal
    # part |z0| < 2C / rho0 steers a trial onto the pole branch
    rng = np.random.default_rng(40 + n)
    dim = 2 * n + 1
    seen = set()
    for trial in range(16):
        pole, negative = trial % 2 == 1, (trial // 2) % 2 == 1
        rho0 = 8.5 + float(rng.uniform(0.0, 11.5))
        xi = unit(rng, dim)
        if pole:
            xi[:-1] *= float(rng.uniform(0.0, 0.005))
        xi[-1] = -abs(xi[-1]) if negative else abs(xi[-1])
        r = float(rng.choice([0.5, 1.0, 3.0]))
        base = ContinuousPoint(tuple(complex(*rng.normal(size=2)) for _ in range(n)),
                               float(rng.normal()))
        p = multiply(dilate(2.0 * r, sphere_point(rho0, xi / np.linalg.norm(xi))), base)
        res = sp.closeball_witness(p, base, r, samples=160, seed=trial)
        branch, q = closeball_round_trip(p, base, r)
        seen.add((branch, dilate(1.0 / (2.0 * r), multiply(p, inverse(base))).tau < 0))
        assert res.report["branch"] == branch == ("pole" if pole else "equator")
        # the round trip's center under the same sample and acceptance rule
        max_d, _ = sp._boundary_max_distance(q, r, as_continuous(p), 160,
                                             np.random.default_rng(trial))
        assert res.verified == (max_d <= res.report["rho"] * (1.0 + 1e-12) + 1e-9)
        new = [c for w in res.q.z for c in (w.real, w.imag)] + [res.q.tau]
        old = [c for w in q.z for c in (w.real, w.imag)] + [q.tau]
        scale = max(abs(c) for c in old)
        assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(new, old)), (new, old)
    assert seen == {(b, s) for b in ("equator", "pole") for s in (False, True)}


def closeball_R_estimate(r, n, directions, seed, hi):
    """Smallest scale factor at which the witness verified in every direction.

    Doubling then log-bisection over the ratio rho / (2r); None when even
    hi fails.
    """
    rng = np.random.default_rng(seed)
    dim = 2 * n + 1
    dirs = [unit(rng, dim) for _ in range(directions)]
    dirs.extend(np.eye(dim)[i] * s for i in range(dim) for s in (1.0, -1.0))
    origin = continuous_identity(n)

    def feasible(scale):
        rho = 2.0 * scale * r * 1.0001
        return all(sp.closeball_witness(sphere_point(rho, u), origin, r, R=scale,
                                        samples=96).verified for u in dirs)

    lo, feas = 1.0, 2.0
    while not feasible(feas):
        lo, feas = feas, feas * 2.0
        if feas > hi:
            return None
    for _ in range(18):
        mid = math.sqrt(lo * feas)
        if feasible(mid):
            feas = mid
        else:
            lo = mid
    return feas


NELDER_MEAD = sp._nelder_mead


def matches_scipy(f, x0, **options):
    """Run both solvers on f from x0; assert equal bits; return scipy's result."""
    x, fun = NELDER_MEAD(f, x0, **options)
    res = opt.minimize(f, x0, method="Nelder-Mead", options=options)
    assert x.tobytes() == res.x.tobytes()
    assert fun == res.fun
    return res


class TestNelderMead:
    """The in-house polish against scipy.optimize.minimize(method="Nelder-Mead")."""

    def polishes(self, monkeypatch, run):
        calls = []

        def record(f, x0, **options):
            calls.append((f, np.array(x0), options))
            return NELDER_MEAD(f, x0, **options)

        monkeypatch.setattr(sp, "_nelder_mead", record)
        run()
        return calls

    def test_closeball_objective(self, monkeypatch):
        calls = self.polishes(monkeypatch, lambda: sp.closeball_witness(
            ContinuousPoint((30.0 + 0j,), 0.0), continuous_identity(1), 0.5, seed=2))
        assert len(calls) == 1
        matches_scipy(*calls[0][:2], **calls[0][2])

    def test_chain_violation(self, monkeypatch):
        # trial 0 of seed 78 reaches the polish of the length-3 search
        calls = self.polishes(monkeypatch, lambda: sp.intersection_search(1, 1e4, trials=1,
                                                                          seed=78))
        assert len(calls) == 1
        matches_scipy(*calls[0][:2], **calls[0][2])

    def test_shrink(self):
        # -(x0 + x1)^2 is constant along the first edge from [2, -2], so
        # both contractions fail and the first step shrinks: each solver
        # makes 3 + 2 + 2 calls, where a step without a shrink makes at most 2
        calls = []

        def f(x):
            calls.append(1)
            return -float(x[0] + x[1]) ** 2

        matches_scipy(f, np.array([2.0, -2.0]), xatol=1e-10, fatol=1e-12, maxiter=2)
        assert len(calls) == 2 * 7
        # (x0 + x1)^2 ties at 0 once the simplex reaches its zero line
        matches_scipy(lambda x: float(x[0] + x[1]) ** 2, np.array([2.0, 2.0]),
                      xatol=1e-10, fatol=1e-12, maxiter=400)

    def test_ties(self):
        # a rounded objective ties often: every < against <= and the order
        # of tied vertices must be scipy's
        c = np.array([1.6, 0.7, -2.3])
        matches_scipy(lambda x: float(np.round(64.0 * np.abs(x - c).sum())),
                      np.array([-5.2, -1.3, 1.0]), xatol=1e-10, fatol=1e-12, maxiter=100)

    def test_zero_coordinate_start(self):
        starts = []

        def f(x):
            starts.append(x.copy())
            return float((x[0] - 1.0) ** 2 + 3.0 * x[1] ** 2 + x[0] * x[2] + x[2] ** 2)

        res = matches_scipy(f, np.array([0.0, 1.0, -2.0]), xatol=1e-12, fatol=1e-12,
                            maxiter=600)
        assert res.status == 0
        assert starts[1].tolist() == [0.00025, 1.0, -2.0]
        assert starts[2].tolist() == [0.0, 1.05, -2.0]

    def test_maxiter(self):
        rosen = lambda x: float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)
        for maxiter in (1, 2, 25):
            res = matches_scipy(rosen, np.array([-1.2, 1.0]), xatol=1e-12, fatol=1e-12,
                                maxiter=maxiter)
            assert res.status == 2 and res.nit == maxiter


def closeball_oracle(x, r, q, p):
    """The closeball objective on objects: -d(delta_r(x / |x|) q, p)."""
    nrm = float(np.linalg.norm(x))
    if nrm < 1e-12:
        return 0.0
    return -metric_d(multiply(sphere_point(r, x / nrm), q), p)


def violation_oracle(y, points, radii, thicks):
    """max over shells of |d(y, x)^2 - r^2| - t^2, through metric_d."""
    worst = -math.inf
    for x, r_i, t_i in zip(points, radii, thicks):
        d = metric_d(y, x)
        worst = max(worst, abs(d * d - r_i * r_i) - t_i * t_i)
    return worst


class TestObjectives:
    """The float objectives of both polishes against their object formulas."""

    def objective(self, monkeypatch, run):
        # the objective _nelder_mead is handed; the polish itself is skipped
        calls = []

        def record(f, x0, **options):
            calls.append(f)
            return np.array(x0), f(np.array(x0))

        monkeypatch.setattr(sp, "_nelder_mead", record)
        run()
        assert len(calls) == 1
        return calls[0]

    @pytest.mark.parametrize("n", [1, 2])
    def test_closeball_objective(self, monkeypatch, n):
        rng = np.random.default_rng(60 + n)
        dim, zero = 2 * n + 1, (0j,) * n
        axis = np.eye(dim)[0]
        xs = [rng.standard_normal(dim) * s for s in (1e-6, 1.0, 1e3) for _ in range(64)]
        xs += [np.zeros(dim), 1e-13 * axis, -0.9e-12 * axis, 2e-12 * axis, 1.1e-12 * unit(rng, dim),
               np.eye(dim)[-1], -np.eye(dim)[-1], np.append(-np.zeros(dim - 1), 0.5)]
        for q, p in [(random_point(rng, n, 1.0), random_point(rng, n, 6.0)),
                     (ContinuousPoint(zero, 1.0), random_point(rng, n, 6.0)),
                     (random_point(rng, n, 1.0), ContinuousPoint(zero, -2.0)),
                     (ContinuousPoint(zero, -0.0), ContinuousPoint(zero, 9.0))]:
            f = self.objective(monkeypatch,
                               lambda: sp._boundary_max_distance(q, 0.5, p, 4, rng))
            for x in xs:
                before = x.copy()
                assert same_bits(f(x), closeball_oracle(x, 0.5, q, p)), (x, q, p)
                assert same_bits(x, before)

    @pytest.mark.parametrize("n", [1, 2])
    def test_chain_violation(self, monkeypatch, n):
        # chain scale: R = 1e4, radii R t_1...t_i and more, |tau| near R^2
        rng = np.random.default_rng(70 + n)
        R, zero = 1e4, (0j,) * n
        points = (random_point(rng, n, R), ContinuousPoint(zero, 0.3 * R * R),
                  random_point(rng, n, R))
        radii = tuple(R * (1.0 + float(rng.uniform(0.0, 3.0))) for _ in points)
        thicks = tuple(1.0 + float(rng.uniform(0.0, 1.0)) for _ in points)
        shells = [(x.z, x.tau, r_i, t_i) for x, r_i, t_i in zip(points, radii, thicks)]
        rows = [sq._row(random_point(rng, n, R)) for _ in range(8)]
        rows += [sq._row(multiply(sphere_point(r_i, unit(rng, 2 * n + 1)), x))
                 for x, r_i in zip(points, radii) for _ in range(8)]
        rows += [sq._row(x) for x in points]
        rows += [np.append(np.zeros(2 * n), R * R), np.append(-np.zeros(2 * n), -0.0)]
        for row in rows:
            assert same_bits(sp._violation(row.tolist(), shells),
                             violation_oracle(sq._point(row), points, radii, thicks)), row
        # the polish runs on coordinates scaled by s = max(1, |row|_inf): (x s, x_tau s^2)
        for row in rows:
            f = self.objective(monkeypatch, lambda: sp._polish(row, shells, math.inf))
            scale = max(1.0, float(np.max(np.abs(row))))
            x0 = np.append(row[:-1] / scale, row[-1] / (scale * scale))
            for x in [x0] + [x0 + 1e-9 * rng.standard_normal(2 * n + 1) for _ in range(8)]:
                y = sq._point(np.append(x[:-1], x[-1] * scale) * scale)
                assert same_bits(f(x), violation_oracle(y, points, radii, thicks)), x


class TestChainConfig:
    def test_validation(self):
        x = sphere_point(10.0, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            sp.ChainConfig((x,), (10.0, 20.0), (1.0,), 2.0)
        with pytest.raises(ValueError):
            sp.ChainConfig((x,), (-3.0,), (1.0,), 2.0)
        with pytest.raises(ValueError):
            sp.ChainConfig((x,), (10.0,), (1.0,), 1.0)
        assert sp.ChainConfig((x,), (10.0,), (1.0,), 2.0).points == (x,)

    def test_refuses_what_a_shell_refuses(self):
        # refused with the config, the last sphere's shell too, although
        # only a witness tests it
        x = sphere_point(10.0, np.array([1.0, 0.0, 0.0]))
        y = sphere_point(10.0, np.array([0.0, 0.0, 1.0]))
        refused = [((10.0, 20.0), (1.0, -1.0), 2.0, "thickening must be nonnegative")]
        refused += [((10.0, 20.0), (1.0, t), 2.0, "thickening must be finite")
                    for t in (math.inf, math.nan)]
        refused += [((10.0, math.inf), (1.0, 1.0), 2.0, "radius must be finite"),
                    ((10.0, 20.0), (1.0, 1.0), math.inf, "R must be finite and exceed 1")]
        for radii, thicks, R, message in refused:
            with pytest.raises(ValueError, match=message):
                sp.ChainConfig((x, y), radii, thicks, R)
        points, radii, thicks = (x, y), (10.0, Fraction(41, 2)), (1, 1.5)
        cfg = sp.ChainConfig(points, radii, thicks, 2.0)
        for j in range(2):
            assert cfg.shells[j] == BallSpec(points[j], radii[j], thicks[j])

    def test_certify_hand_chain(self):
        rng = np.random.default_rng(3)
        r1, t1 = 250.0, 2.0
        x1 = sphere_point(r1, unit(rng, 3))
        x2 = multiply(sphere_point(r1, unit(rng, 3)), x1)
        cfg = sp.ChainConfig((x1, x2), (r1, 400.0), (t1, 1.5), 100.0)
        out = sp.certify_chain(cfg)
        assert out == {"thickness_floor": True, "radius_scale": True,
                       "memberships": True}

    def test_certify_flags_each_failure(self):
        rng = np.random.default_rng(4)
        r1 = 250.0
        x1 = sphere_point(r1, unit(rng, 3))
        x2 = multiply(sphere_point(r1, unit(rng, 3)), x1)
        thin = sp.ChainConfig((x1, x2), (r1, 400.0), (0.5, 1.5), 100.0)
        assert not sp.certify_chain(thin)["thickness_floor"]
        # 350 < t1 t2 R = 2 * 1.5 * 150
        squeezed = sp.ChainConfig((x1, x2), (r1, 350.0), (2.0, 1.5), 150.0)
        assert not sp.certify_chain(squeezed)["radius_scale"]
        adrift = sp.ChainConfig((x1, dilate(0.5, x2)), (r1, 400.0), (2.0, 1.5), 100.0)
        assert not sp.certify_chain(adrift)["memberships"]
        # the scale clause holds with equality: r2 = R t1 t2 exactly
        exact = sp.ChainConfig((x1, x2), (r1, 300.0), (2.0, 1.5), 100.0)
        assert sp.certify_chain(exact)["radius_scale"]
        below = sp.ChainConfig((x1, x2), (r1, math.nextafter(300.0, 0.0)), (2.0, 1.5), 100.0)
        assert not sp.certify_chain(below)["radius_scale"]
        as_fractions = sp.ChainConfig((x1, x2), (Fraction(r1), Fraction(600, 2)),
                                      (2, Fraction(3, 2)), 100)
        assert sp.certify_chain(as_fractions)["radius_scale"]
        off_witness = sp.certify_chain(
            sp.ChainConfig((x1, x2), (r1, 400.0), (2.0, 1.5), 100.0),
            witness=continuous_identity(1))
        assert not off_witness["witness_in_all"]


def scalar_certify(cfg, witness=None):
    """certify_chain as one boundary_contains call per pair, each clause
    walked in order up to its first failure and each shell built when first
    tested: the oracle of its table form."""
    out = {"thickness_floor": all(t >= 1 for t in cfg.thicks), "radius_scale": True}
    acc = Fraction(cfg.R)
    for r, t in zip(cfg.radii, cfg.thicks):
        acc *= Fraction(t)
        if Fraction(r) < acc:
            out["radius_scale"] = False
            break
    shells = {}

    def inside(y, j):
        if j not in shells:
            shells[j] = BallSpec(cfg.points[j], cfg.radii[j], cfg.thicks[j])
        return bool(boundary_contains(y, shells[j]))

    m = len(cfg.points)
    out["memberships"] = all(inside(cfg.points[i], j) for i in range(m) for j in range(i))
    if witness is not None:
        out["witness_in_all"] = all(inside(witness, j) for j in range(m))
    return out


def recertify_certificate(cert):
    """Cold-start verification of a search certificate."""
    points = tuple(point_from_json(s) for s in cert["points"])
    cfg = sp.ChainConfig(points, tuple(cert["radii"]), tuple(cert["thicks"]),
                         cert["R"])
    witness = point_from_json(cert["witness"]) if "witness" in cert else None
    return sp.certify_chain(cfg, witness)


def record_pools(monkeypatch) -> list:
    """Lower the pool minimum to one trial and record the size of every
    process pool the search then builds; the pools are real and run."""
    import concurrent.futures

    sizes = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(sp, "_POOL_MIN_TRIALS", 1)
    monkeypatch.setattr(sp.os, "cpu_count", lambda: 2)  # two workers even on one core
    return sizes


class TestCertifyTable:
    """certify_chain reads one boundary_table per chain; its clauses are
    those of the scalar walk (scalar_certify)."""

    @staticmethod
    def chains():
        out = []
        for seed, max_chain in ((0, 3), (1, 3), (2, 2), (3, 2)):
            for cert in sp.intersection_search(1, 1e4, 8, seed=seed, max_chain=max_chain)["certificates"]:
                points = tuple(point_from_json(x) for x in cert["points"])
                out.append((sp.ChainConfig(points, tuple(cert["radii"]), tuple(cert["thicks"]), cert["R"]),
                            point_from_json(cert["witness"])))
        return out

    def variants(self):
        for cfg, w in self.chains():
            m = len(cfg.points)
            yield cfg, w
            yield cfg, None
            yield cfg, continuous_identity(1)
            for k in range(m):
                # a point adrift and a thickness below one; a negative
                # thickness is refused with the config
                moved = cfg.points[:k] + (dilate(0.5, cfg.points[k]),) + cfg.points[k + 1:]
                yield sp.ChainConfig(moved, cfg.radii, cfg.thicks, cfg.R), w
                thin = cfg.thicks[:k] + (0.5,) + cfg.thicks[k + 1:]
                for witness in (w, None):
                    yield sp.ChainConfig(cfg.points, cfg.radii, thin, cfg.R), witness
                yield sp.ChainConfig(moved, cfg.radii, thin, cfg.R), w
                with pytest.raises(ValueError, match="must be nonnegative"):
                    sp.ChainConfig(cfg.points, cfg.radii, thin[:k] + (-1.0,) + thin[k + 1:], cfg.R)

    def test_matches_scalar_walk(self):
        seen = {"failed": 0, "held": 0}
        for cfg, w in self.variants():
            got = sp.certify_chain(cfg, w)
            assert got == scalar_certify(cfg, w), (cfg, w)
            seen["held" if all(got.values()) else "failed"] += 1
        assert min(seen.values()) > 10, seen


class TestIntersectionSearch:
    def test_rejects_unit_scale(self):
        with pytest.raises(ValueError):
            sp.intersection_search(1, 1.0, trials=1)

    def test_report_and_certificates(self):
        rep = sp.intersection_search(1, 1e4, trials=30, seed=0)
        assert rep["trials"] == 30
        assert sum(rep["length_counts"].values()) == 30
        assert rep["longest_chain_found"] >= 2
        assert rep["certificates"]
        for cert in rep["certificates"]:
            conditions = recertify_certificate(cert)
            assert all(conditions.values()), conditions

    def test_two_chains_are_routine(self):
        rep = sp.intersection_search(1, 1e4, trials=30, seed=1)
        found = sum(v for k, v in rep["length_counts"].items() if k >= 2)
        assert found >= 28

    def test_witness_on_every_sphere_by_bisection(self):
        # re-derive the witness distances without boundary_contains
        rep = sp.intersection_search(1, 1e4, trials=6, seed=2)
        cert = rep["certificates"][0]
        points = [point_from_json(s) for s in cert["points"]]
        y = point_from_json(cert["witness"])
        for x, r, t in zip(points, cert["radii"], cert["thicks"]):
            d, _ = sq.sphere_distance(sq._row(multiply(y, inverse(x)))[None], r)
            assert d[0] <= t + 1e-6

    def test_scale_condition_exact(self):
        rep = sp.intersection_search(1, 1e4, trials=6, seed=3)
        cert = rep["certificates"][0]
        acc = Fraction(1)
        for r, t in zip(cert["radii"], cert["thicks"]):
            acc *= Fraction(t)
            assert Fraction(r) >= acc * Fraction(cert["R"])

    def test_right_translation_invariance(self):
        rep = sp.intersection_search(1, 1e4, trials=6, seed=4)
        cert = rep["certificates"][0]
        g = ContinuousPoint((1.5 - 0.25j,), 0.75)
        points = tuple(multiply(point_from_json(s), g) for s in cert["points"])
        witness = multiply(point_from_json(cert["witness"]), g)
        moved = sp.ChainConfig(points, tuple(cert["radii"]),
                               tuple(cert["thicks"]), cert["R"])
        out = sp.certify_chain(moved, witness)
        assert all(out.values()), out

    def test_worker_pool_merge_is_deterministic(self, monkeypatch):
        serial = sp.intersection_search(1, 1e4, trials=12, seed=5, workers=1)
        pools = record_pools(monkeypatch)
        pooled = sp.intersection_search(1, 1e4, trials=12, seed=5, workers=2)
        assert pools == [2]
        assert serial == pooled

    def test_search_below_the_pool_minimum_builds_no_pool(self, monkeypatch):
        import concurrent.futures

        class Refused:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a pool was built")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Refused)
        # one trial short of two processes' worth, on a lowered minimum
        monkeypatch.setattr(sp, "_POOL_MIN_TRIALS", 4)
        assert sp.intersection_search(1, 1e4, trials=7, seed=5, workers=2) == \
            sp.intersection_search(1, 1e4, trials=7, seed=5, workers=1)
        with pytest.raises(AssertionError, match="a pool was built"):
            sp.intersection_search(1, 1e4, trials=8, seed=5, workers=2)

    @pytest.mark.parametrize("trials, workers, cpus, want", [
        (2, 64, 2, [2]),  # never more processes than blocks
        (0, 2, 2, []),  # nothing to fork for
        (1, 2, 2, []),
        (3, 2, 2, [2]),
        (5, 4, 3, [3]),  # nor than cores
        (5, 4, 1, []),
    ])
    def test_pool_size_is_bounded(self, monkeypatch, trials, workers, cpus, want):
        # a stand-in pool records its size and maps in the caller: no process starts
        import concurrent.futures

        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(sp, "_POOL_MIN_TRIALS", 1)
        monkeypatch.setattr(sp.os, "cpu_count", lambda: cpus)
        report = sp.intersection_search(1, 1e4, trials=trials, seed=5, workers=workers)
        assert sizes == want
        assert sum(report["length_counts"].values()) == trials

    def test_max_chain_two_stops_early(self):
        rep = sp.intersection_search(1, 1e4, trials=10, seed=6, max_chain=2)
        assert rep["longest_chain_found"] == 2
        assert rep["attempts_length3"] == 0

    @pytest.mark.parametrize("max_chain", [0, 1, -2])
    def test_max_chain_below_two_refused(self, max_chain):
        # a chain of two is built before the bound is read, so it cannot go lower
        with pytest.raises(ValueError, match="max_chain must be 2 or 3"):
            sp.intersection_search(1, 1e4, trials=2, max_chain=max_chain)

    @pytest.mark.parametrize("max_chain", [4, 5])
    def test_max_chain_above_three_refused(self, max_chain):
        # the search builds no chain past three, yet once recorded "max_chain": 5
        with pytest.raises(ValueError, match="max_chain must be 2 or 3"):
            sp.intersection_search(1, 1e4, trials=2, max_chain=max_chain)

    def test_negative_trials_refused(self):
        # once a report with "trials": -5 and empty length_counts
        with pytest.raises(ValueError, match="trials must be >= 0"):
            sp.intersection_search(1, 1e4, -5)

    def test_rank_below_one_refused(self):
        # once an AttributeError from the row kernels
        with pytest.raises(ValueError, match="n must be >= 1"):
            sp.intersection_search(0, 1e4, trials=2)
        with pytest.raises(ValueError, match="n must be >= 1"):
            sp.random_lss_config(1e4, 0.5, 0, rng=np.random.default_rng(1))

    def test_preserved_artifact_recertifies(self):
        # evidence written by the acceptance run must stay verifiable
        path = (Path(__file__).resolve().parent.parent
                / "artifacts" / "length3_certificate.json")
        if not path.exists():
            pytest.skip("no preserved certificate in this checkout")
        doc = json.loads(path.read_text())
        assert doc["certificates"], "artifact without certificates"
        for cert in doc["certificates"]:
            conditions = recertify_certificate(cert)
            assert all(conditions.values()), conditions


# --- object-level oracles of the trial-axis kernels ----------------------------


def oracle_dilation_step(y, center, r):
    """Slide y along the dilation path onto the radius-r sphere of center."""
    off = multiply(as_continuous(y), inverse(as_continuous(center)))
    lam = homogeneous_norm(off)
    if lam == 0.0:
        return multiply(sphere_point(r, np.array([1.0] + [0.0] * 2 * off.n)),
                        as_continuous(center))
    return multiply(dilate(r / lam, off), as_continuous(center))


def oracle_projection(y, points, radii, rounds=48):
    cur = as_continuous(y)
    for _ in range(rounds):
        for x, r in zip(points, radii):
            cur = oracle_dilation_step(cur, x, r)
    return cur


def oracle_bisect(anchor, radius, target, tol, rng, lo_dir, hi_dir):
    """Point delta_radius(v) * anchor at distance ~target from the origin,
    v on the great circle from lo_dir to hi_dir, one point at a time."""
    base = multiply(sphere_point(radius, lo_dir), anchor)
    f_lo = homogeneous_norm(base)
    f_hi = homogeneous_norm(multiply(sphere_point(radius, hi_dir), anchor))
    if not (min(f_lo, f_hi) < target < max(f_lo, f_hi)):
        return None
    c = max(-1.0, min(1.0, float(np.dot(lo_dir, hi_dir))))
    if c <= -1.0 + 1e-9:
        w = None
        for _ in range(8):
            cand = rng.standard_normal(lo_dir.shape[0])
            cand -= np.dot(cand, lo_dir) * lo_dir
            if np.linalg.norm(cand) > 1e-9:
                w = sp._unit(cand)
                break
        if w is None:
            return None
        span = math.pi
    else:
        w = hi_dir - c * lo_dir
        if np.linalg.norm(w) < 1e-12:
            return None
        w = sp._unit(w)
        span = math.acos(c)
    a_lo, a_hi = 0.0, span
    rising = f_hi > f_lo
    for _ in range(200):
        mid = 0.5 * (a_lo + a_hi)
        v = math.cos(mid) * lo_dir + math.sin(mid) * w
        y = multiply(sphere_point(radius, sp._unit(v)), anchor)
        f = homogeneous_norm(y)
        if abs(f - target) <= tol:
            return y, f
        if (f < target) == rising:
            a_lo = mid
        else:
            a_hi = mid
    return None


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def random_point(rng, n, scale):
    z = tuple(complex(*(rng.standard_normal(2) * scale)) for _ in range(n))
    return ContinuousPoint(z, float(rng.standard_normal()) * scale * scale)


class TestTrialAxisKernels:
    @pytest.mark.parametrize("n", [1, 2])
    def test_projection_matches_object_loop(self, n):
        rng = np.random.default_rng(40 + n)
        rows, centers, radii = [], [[], [], []], [[], [], []]
        for i in range(12):
            scale = 10.0 ** float(rng.uniform(0, 4))
            pts = [random_point(rng, n, scale) for _ in range(3)]
            rs = [scale * float(rng.uniform(0.5, 2.0)) for _ in range(3)]
            # row 0 starts on the first center: its first step takes the pole branch
            y = pts[0] if i == 0 else random_point(rng, n, scale)
            rows.append(y)
            for k in range(3):
                centers[k].append(sq._row(pts[k]))
                radii[k].append(rs[k])
        got = sp._project_rows(np.array([sq._row(y) for y in rows]),
                               [np.array(c) for c in centers], [np.array(r) for r in radii])
        for i, y in enumerate(rows):
            pts = [sq._point(c[i]) for c in centers]
            want = oracle_projection(y, pts, [r[i] for r in radii])
            assert same_bits(got[i], sq._row(want)), i
        assert homogeneous_norm(multiply(rows[0], inverse(sq._point(centers[0][0])))) == 0.0

    @pytest.mark.parametrize("n", [1, 2])
    def test_bisection_matches_scalar(self, n):
        dim = 2 * n + 1
        rng = np.random.default_rng(50 + n)
        cases = []
        for i in range(64):
            r = 10.0 ** float(rng.uniform(0, 4))
            anchor = random_point(rng, n, r)
            lo = unit(rng, dim)
            if i % 4 == 0:  # antipodal ends: the waypoint comes from the row's rng
                hi = -lo
            else:
                hi = unit(rng, dim)
            f_lo = homogeneous_norm(multiply(sphere_point(r, lo), anchor))
            f_hi = homogeneous_norm(multiply(sphere_point(r, hi), anchor))
            target = 0.5 * (f_lo + f_hi) if i % 4 != 3 else 2.0 * max(f_lo, f_hi)
            cases.append((anchor, r, target, 1e-7 * target, lo, hi, 900 + i))
        want = [oracle_bisect(a, r, tg, tl, np.random.default_rng(s), lo, hi)
                for a, r, tg, tl, lo, hi, s in cases]
        rngs = [np.random.default_rng(c[-1]) for c in cases]
        lo = np.array([c[4] for c in cases])
        points, values, found = sp._bisect_rows(
            np.array([sq._row(c[0]) for c in cases]), np.array([c[1] for c in cases]),
            np.array([c[2] for c in cases]), np.array([c[3] for c in cases]),
            lo, np.array([c[5] for c in cases]), lambda i: sp._waypoint(rngs[i], lo[i]))
        assert [w is not None for w in want] == found.tolist()
        assert sum(w is None for w in want) >= 16  # the unbracketed targets
        assert any(w is not None for w, c in zip(want, cases) if np.all(c[5] == -c[4]))
        for i, w in enumerate(want):
            if w is not None:
                assert same_bits(points[i], sq._row(w[0])), i
                assert same_bits(values[i], w[1]), i


    def test_signed_zeros_follow_core(self):
        # sum() from int 0 and float * complex decide the sign of a zero
        values = (-0.0, 0.0, -1.5, 2.0)
        pts = [ContinuousPoint((complex(a, b),), t) for a in values for b in values
               for t in values]
        rows = np.array([sq._row(q) for q in pts])
        left, right = np.repeat(rows, len(pts), axis=0), np.tile(rows, (len(pts), 1))
        want = [sq._row(multiply(p, q)) for p in pts for q in pts]
        assert same_bits(sq._mul_rows(left, right), want)
        for s in (0.5, 0.0):
            want = [sq._row(dilate(s, q)) for q in pts]
            assert same_bits(sp._dilate_rows(np.full(len(pts), s), rows), want)
        assert same_bits(sq._norm_rows(rows), [homogeneous_norm(q) for q in pts])
        xi = np.array([[a, b, t] for a in values for b in values for t in values])
        assert same_bits(sq._sphere_rows(np.full(len(xi), 3.0), xi),
                         [sq._row(sphere_point(3.0, x)) for x in xi])


# sha256 of json.dumps(report, sort_keys=True), recorded from the
# object-level search before the float stages moved onto a trial axis
PINNED_REPORTS = [
    ({"seed": s, "trials": 30}, h) for s, h in enumerate([
        "a5a232413a62f830e73a4da7afbd605da53b83fb7ee666b698ecaa0b8dad4638",
        "abf7aa35d4fabb063321031b514057489c5a961f1699933ec107a369c223d029",
        "f487353d62b041feeb31899ca2e528a0e15939c4c6293756f793e1f3db9dc3e8",
        "1e216650bf8d51b1cc19cd36ed3a8639677f62d457bb1f2097db69ceaa3ac2ba",
        "c7bd8a372d8ecbbeacc1e99a0277c0c3755c526e8ec27d95309b14ba9fc63f9c",
        "518c67a7781fcb27694f0fa5dcce884c06927ac10e7138355a7ddf4f7e040240",
        "c7510b6e4da66bfec00e9c1bdd9dd42916ab196abfdda40448879b6c569ab94e",
        "f1df400bb278d4e8e53021ce63c3f21a850fe94f08c684d9c76e951098158251",
    ])
] + [
    # trial 0 of seed 78 reaches the Nelder-Mead polish
    ({"seed": 78, "trials": 1},
     "dcabc180612adc5d4225845d6241535299f750abdeef219825111110ee3b1beb"),
    ({"n": 2, "seed": 0, "trials": 20},
     "6e5a5a1f665b069b45aca739d4c892170331f342a5107f9aaf1b54ce7a461ed1"),
    ({"seed": 9, "trials": 30, "max_chain": 2},
     "a89e70cb255f5ffc871926e0b7c342bda5b5bae111a930f58a51c395ec16c9c7"),
    ({"seed": 10, "trials": 30, "workers": 2},
     "c28572490e2f20621709fdbda88979ee28a95e07c0ca4f6d40ed6bcfe23871d8"),
] + [
    # the benchmark's search size; these seeds polish 4, 3 and 3 chains,
    # recorded before the polishes moved onto Python floats
    ({"seed": s, "trials": 128}, h) for s, h in [
        (1, "fd750c1f24840ef1e6b1518cde7fbab7b8fce68dab953f78c042f6963d71b84a"),
        (5, "e6d953dfbe86c89f0f21f473c3761e9eb8ff0dc9238e41fd1fabc18bb334965c"),
        (20261017, "35b1c2fa46547820d79afa8d66c9c09cd9033bb27ae0d5085bbb1e523452ff5d"),
    ]
]


@pytest.mark.parametrize("kwargs, digest", PINNED_REPORTS,
                         ids=[json.dumps(k, sort_keys=True) for k, _ in PINNED_REPORTS])
def test_search_report_is_pinned(monkeypatch, kwargs, digest):
    args = {"n": 1, "R": 1e4, **kwargs}
    pools = record_pools(monkeypatch)
    report = sp.intersection_search(**args)
    assert pools == ([args["workers"]] if args.get("workers", 1) > 1 else [])
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == digest


# sha256 of json.dumps([[q, verified, report], ...], sort_keys=True) over
# the 100 closeball trials of acceptance criterion 6, recorded when the
# center came to be built in the given frame (verdicts and branches as before)
CLOSEBALL_SUITE_HEX = "9aa2032a27675f4b4a20b8ede4663b62b0dabcf114f81fbe95bf85dce8734c5d"


def test_closeball_suite_is_pinned():
    rng = np.random.default_rng(29)
    docs = []
    for trial in range(100):
        rho = 9.0 + float(rng.uniform(0.0, 20.0))
        xi = rng.standard_normal(3)
        xi /= float(np.linalg.norm(xi))
        base = ContinuousPoint((complex(*rng.normal(size=2)),), float(rng.normal()))
        p = multiply(sphere_point(rho, xi), base)
        res = sp.closeball_witness(p, base, 0.5, samples=160, seed=500 + trial)
        docs.append([point_to_json(res.q), bool(res.verified), res.report])
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    assert digest == CLOSEBALL_SUITE_HEX
