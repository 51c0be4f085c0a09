"""Separation-lemma verifiers: LSS gap, closeball witnesses, chain search.

Every numeric claim made by the search code is re-derived here through
an independent route: bisection sphere distances, exact Fraction scale
arithmetic, or direct gauge evaluation, never the screen that produced
the claim in the first place.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from heisgeo import separation as sp
from heisgeo.balls import BallSpec, boundary_contains
from heisgeo.core import (
    ContinuousPoint,
    continuous_identity,
    dilate,
    homogeneous_norm,
    inverse,
    isometry_flip,
    isometry_rotate,
    metric_d,
    multiply,
    point_from_json,
)
from heisgeo.errors import HypothesisViolation
from heisgeo.spherequad import sphere_distance, sphere_point


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
        cfg = sp.random_lss_config(1e4, 0.5, n=1, seed=3)
        res = sp.lss_check(*cfg, eps=0.5, R=1e4)
        p_hat = dilate(1.0 / homogeneous_norm(cfg.p), cfg.p)
        q_hat = dilate(1.0 / homogeneous_norm(cfg.q), cfg.q)
        direct = metric_d(p_hat, q_hat) - sp.lss_bound(0.5)
        assert res.gap == pytest.approx(direct, abs=1e-12)

    def clause(self, exc_info):
        return exc_info.value.clause

    def test_violation_clauses(self):
        cfg = sp.random_lss_config(1e4, 0.5, n=1, seed=1)
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

    def test_threshold_estimate_shape(self):
        rep = sp.lss_threshold_estimate(0.5, n=1, configs=3, seed=0,
                                        r_lo=1.01, r_hi=1e3, iters=8)
        assert rep["eps"] == 0.5
        assert 1.01 <= rep["estimate"] <= 1e3
        assert rep["gap_at_high_end"] > 0.0


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
        with pytest.raises(ValueError):
            sp.closeball_witness(p, continuous_identity(1), 0.5, rho=29.0)

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
        rep = sp.closeball_R_estimate(r=0.5, n=1, directions=5, seed=3, hi=64.0)
        # measured feasibility edge sits well inside the shipped default
        assert 1.0 < rep["estimate"] < sp.DEFAULT_CLOSEBALL_R


class TestChainConfig:
    def test_validation(self):
        x = sphere_point(10.0, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            sp.ChainConfig((x,), (10.0, 20.0), (1.0,), 2.0)
        with pytest.raises(ValueError):
            sp.ChainConfig((x,), (-3.0,), (1.0,), 2.0)
        with pytest.raises(ValueError):
            sp.ChainConfig((x,), (10.0,), (1.0,), 1.0)
        assert len(sp.ChainConfig((x,), (10.0,), (1.0,), 2.0)) == 1

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
        off_witness = sp.certify_chain(
            sp.ChainConfig((x1, x2), (r1, 400.0), (2.0, 1.5), 100.0),
            witness=continuous_identity(1))
        assert not off_witness["witness_in_all"]


def recertify_certificate(cert):
    """Cold-start verification of a search certificate."""
    points = tuple(point_from_json(s) for s in cert["points"])
    cfg = sp.ChainConfig(points, tuple(cert["radii"]), tuple(cert["thicks"]),
                         cert["R"])
    witness = point_from_json(cert["witness"]) if "witness" in cert else None
    return sp.certify_chain(cfg, witness)


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
            d = sphere_distance(multiply(y, inverse(x)), r)
            assert d <= t + 1e-6

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

    def test_worker_pool_merge_is_deterministic(self):
        serial = sp.intersection_search(1, 1e4, trials=12, seed=5, workers=1)
        pooled = sp.intersection_search(1, 1e4, trials=12, seed=5, workers=2)
        assert serial == pooled

    def test_max_chain_two_stops_early(self):
        rep = sp.intersection_search(1, 1e4, trials=10, seed=6, max_chain=2)
        assert rep["longest_chain_found"] == 2
        assert rep["attempts_length3"] == 0

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
