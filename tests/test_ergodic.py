"""Weighted actions, exact cocycles, ball averages and the maximal bound.

The ball aggregation is checked against a brute enumeration histogram
before anything else relies on it; averages, Folner ratios and the
coboundary display are then verified as exact rational identities.
"""

import math
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisgeo import ergodic as er
from heisgeo.balls import (
    DEFAULT_CAP,
    FiberSet,
    _count_congruent,
    ball_cardinality,
    enumerate_ball,
    folner_ratio,
    symmetric_difference_coords,
)
from heisgeo.core import (
    ContinuousPoint,
    LatticePoint,
    dist_cmp,
    dist_le_exact,
    generator,
    inverse,
    lattice_identity,
    multiply,
    offset_exact,
)
from heisgeo.errors import ResourceCapError

E1 = generator(1, 0)


def rand_lat(rng, span=9):
    a = int(rng.integers(-span, span + 1))
    b = int(rng.integers(-span, span + 1))
    return LatticePoint((a,), (b,), a * b + 2 * int(rng.integers(-30, 31)))


def uniform_quotient():
    return er.make_quotient_action(1, 3)


def skewed_quotient():
    # masses proportional to 1..27
    return er.make_quotient_action(1, 3, [Fraction(i + 1, 378) for i in range(27)])


def indicator(target):
    return lambda y: Fraction(1) if y == target else Fraction(0)


class TestCountCongruent:
    def test_against_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            lo = int(rng.integers(-50, 50))
            hi = lo + int(rng.integers(-3, 40))
            mod = int(rng.integers(2, 9))
            r = int(rng.integers(0, mod))
            brute = sum(1 for x in range(lo, hi + 1) if x % mod == r)
            assert _count_congruent(lo, hi, r, mod) == brute


class TestQuotientAction:
    def test_state_count(self):
        # m^{2n+1} points: 27 for n=1, m=3
        assert len(uniform_quotient().states) == 27
        assert len(er.make_quotient_action(1, 2).states) == 8

    def test_state_table_capped(self, monkeypatch):
        # m^(2n+1) = 10^9 state tuples were built with no cap
        with pytest.raises(ResourceCapError) as info:
            er.make_quotient_action(1, 1000)
        assert (info.value.predicted, info.value.cap) == (10 ** 9, er._MAX_STATES)
        monkeypatch.setattr(er, "_MAX_STATES", 27)
        assert len(er.make_quotient_action(1, 3).states) == 27  # at the cap
        with pytest.raises(ResourceCapError):
            er.make_quotient_action(1, 4)

    def test_act_table_capped(self, monkeypatch):
        # the act table has N^2 entries: 8,000 states pass the state cap, and
        # their table (0.48 GiB, with temporaries of its size) had no cap
        monkeypatch.setattr(er, "_MAX_ACT_ENTRIES", 27 ** 2)
        act = er.make_quotient_action(1, 3)  # a fresh action: _tables caches by identity
        assert er.weighted_average(act, indicator(act.states[0]), 2, act.states[0]).value > 0
        monkeypatch.setattr(er, "_MAX_ACT_ENTRIES", 27 ** 2 - 1)
        act = er.make_quotient_action(1, 3)
        with pytest.raises(ResourceCapError):
            er.nsfc_ratio(act, 2, E1, act.states[0])
        monkeypatch.undo()
        big = er.make_quotient_action(1, 20)
        with pytest.raises(ResourceCapError) as info:
            er.weighted_average(big, indicator(big.states[0]), 1, big.states[0])
        assert (info.value.predicted, info.value.cap) == (8000 ** 2, er._MAX_ACT_ENTRIES)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            er.make_quotient_action(1, 1)
        with pytest.raises(ValueError):
            er.make_quotient_action(0, 3)
        with pytest.raises(ValueError):
            er.make_quotient_action(1, 3, [Fraction(1, 27)] * 26)
        with pytest.raises(ValueError):
            er.make_quotient_action(1, 3, [Fraction(1, 26)] * 26 + [Fraction(0)])
        bad = [Fraction(1, 13)] * 26 + [Fraction(-1)]
        with pytest.raises(ValueError):
            er.make_quotient_action(1, 3, bad)

    def test_label_homomorphism(self):
        act = uniform_quotient()
        rng = np.random.default_rng(3)
        for _ in range(300):
            g, h = rand_lat(rng), rand_lat(rng)
            assert act.label_of(multiply(g, h)) == act.label_mul(
                act.label_of(g), act.label_of(h))

    def test_action_axiom(self):
        act = skewed_quotient()
        rng = np.random.default_rng(4)
        x = act.states[7]
        for _ in range(200):
            g, h = rand_lat(rng), rand_lat(rng)
            assert act.act(g, act.act(h, x)) == act.act(multiply(g, h), x)

    def test_translations_are_bijections(self):
        act = uniform_quotient()
        for lab in (act.label_of(E1), act.label_of(rand_lat(np.random.default_rng(5)))):
            image = {act.label_mul(lab, x) for x in act.states}
            assert image == set(act.states)

    def test_uniform_masses_measure_preserving(self):
        act = uniform_quotient()
        rng = np.random.default_rng(6)
        for _ in range(50):
            assert er.rn_derivative(act, rand_lat(rng), act.states[13]) == 1

    def test_identity_derivative(self):
        act = skewed_quotient()
        for x in act.states[:5]:
            assert er.rn_derivative(act, lattice_identity(1), x) == 1

    def test_cocycle_identity_exact(self):
        act = skewed_quotient()
        rng = np.random.default_rng(7)
        for _ in range(2000):
            g, h = rand_lat(rng), rand_lat(rng)
            x = act.states[int(rng.integers(0, 27))]
            lhs = er.rn_derivative(act, multiply(g, h), x)
            rhs = er.rn_derivative(act, g, act.act(h, x)) * er.rn_derivative(act, h, x)
            assert lhs == rhs

    def test_orbit_transitive(self):
        assert er.orbit_transitive(uniform_quotient())


class TestTorusAction:
    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            er.make_torus_action(1, (0.3, 0.4), 1)
        with pytest.raises(ValueError):
            er.make_torus_action(1, (0.3,), 8)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_alpha_refused(self, bad):
        # round(inf * L) raised OverflowError before the check
        with pytest.raises(ValueError, match="finite"):
            er.make_torus_action(1, (bad, 0.5), 8)

    def test_state_table_capped(self):
        # L^(2n) = 10^10 state tuples were built with no cap
        spec = {"type": "torus", "n": 1, "alpha": [0.3, 0.4], "resolution": 100000}
        with pytest.raises(ResourceCapError) as info:
            er.action_from_spec(spec)
        assert (info.value.predicted, info.value.cap) == (10 ** 10, er._MAX_STATES)

    def test_center_acts_trivially(self):
        act = er.make_torus_action(1, (0.375, 0.625), 8)
        center = LatticePoint((0,), (0,), 4)
        for x in act.states[:6]:
            assert act.act(center, x) == x

    def test_composition_matches_group_law(self):
        act = er.make_torus_action(1, (0.375, 0.625), 8)
        rng = np.random.default_rng(8)
        for _ in range(200):
            g, h = rand_lat(rng), rand_lat(rng)
            assert act.label_of(multiply(g, h)) == act.label_mul(
                act.label_of(g), act.label_of(h))

    def test_measure_preserving(self):
        act = er.make_torus_action(1, (0.375, 0.625), 8)
        rng = np.random.default_rng(9)
        for _ in range(30):
            assert er.rn_derivative(act, rand_lat(rng), act.states[3]) == 1

    def test_transitivity_depends_on_shifts(self):
        assert er.orbit_transitive(er.make_torus_action(1, (0.375, 0.625), 8))
        # shifts (4, 4) on an 8-grid only reach a 4-point sub-orbit
        assert not er.orbit_transitive(er.make_torus_action(1, (0.5, 0.5), 8))


class TestBallLabelCounts:
    def test_matches_enumeration_oracle(self):
        act = skewed_quotient()
        for k in range(1, 6):
            counts = er.ball_label_counts(act, k)
            direct: dict = {}
            for p in enumerate_ball(1, k).points():
                lab = act.label_of(p)
                direct[lab] = direct.get(lab, 0) + 1
            assert counts == direct

    def test_torus_counts_match_oracle(self):
        act = er.make_torus_action(1, (0.375, 0.625), 8)
        for k in (2, 4):
            counts = er.ball_label_counts(act, k)
            direct: dict = {}
            for p in enumerate_ball(1, k).points():
                lab = act.label_of(p)
                direct[lab] = direct.get(lab, 0) + 1
            assert counts == direct

    def test_total_is_ball_cardinality_at_40(self):
        act = uniform_quotient()
        assert sum(er.ball_label_counts(act, 40).values()) == ball_cardinality(1, 40)

    def test_cap_and_domain(self):
        act = uniform_quotient()
        with pytest.raises(ResourceCapError):
            er.ball_label_counts(act, 40, cap=1000)
        with pytest.raises(ValueError):
            er.ball_label_counts(act, 0)

    def test_caps_checked_before_histogram_count(self):
        # ball_cardinality allocates floor(k^2) + 1 histogram rows (1.49 GiB of
        # them at k = 10^4), so a grid or a ball beyond cap is refused without
        # it (|B_5| = 2547 > 200 >= 11^2)
        act = er.make_quotient_action(1, 3)
        with mock.patch.object(er, "ball_cardinality", side_effect=AssertionError("counted")):
            with pytest.raises(ResourceCapError, match="grid") as info:
                er.ball_label_counts(act, 10 ** 4)
            assert (info.value.predicted, info.value.cap) == (20001 ** 2, DEFAULT_CAP)
            with pytest.raises(ResourceCapError, match="points") as info:
                er.ball_label_counts(act, 5, cap=200)
            assert (info.value.predicted, info.value.cap) == (2547, 200)
            assert sum(er.ball_label_counts(act, 5, cap=2547).values()) == 2547

    def test_memo_hands_out_fresh_dicts(self):
        for act in (skewed_quotient(), er.make_torus_action(1, (0.375, 0.625), 8)):
            first = er.ball_label_counts(act, 6)
            want = dict(first)
            assert list(want) == [x for x in act.states if x in want]  # state order
            first[next(iter(first))] += 1
            first[("not", "a", "label")] = 7
            assert er.ball_label_counts(act, 6) == want
            fresh = er._ball_counts.__wrapped__(act, 6, 10 ** 8)
            assert {x: c for x, c in zip(act.states, fresh.tolist()) if c} == want
            assert not er._ball_counts(act, 6, DEFAULT_CAP).flags.writeable
            # a smaller cap is its own memo key, so a hit never skips the refusal
            with pytest.raises(ResourceCapError):
                er.ball_label_counts(act, 6, cap=10)


def per_state_sums(action, counts, func, x):
    """The per-state Fraction loop that the all-state integer sums replaced."""
    mx = action.mass[x]
    num = den = Fraction(0)
    for lab, cnt in counts.items():
        y = action.label_mul(lab, x)
        w = action.mass[y] / mx
        den += cnt * w
        if func is not None:
            num += cnt * w * Fraction(func(y))
    return num, den


class TestWeightedAverage:
    def test_act_table_matches_label_mul(self):
        for act in (uniform_quotient(), er.make_quotient_action(2, 2),
                    er.make_torus_action(1, (0.375, 0.625), 8)):
            table, _ = er._tables(act)
            for lab in act.states:
                for x in act.states:
                    y = act.label_mul(lab, x)
                    assert act.states[table[act.states.index(lab), act.states.index(x)]] == y

    def test_all_state_sums_match_per_state_loop(self):
        # masses near 2^80 over their common denominator take the
        # Python-integer path, the others int64
        heavy = er.make_quotient_action(
            1, 2, [Fraction(2 ** 80 + i, 8 * 2 ** 80 + 28) for i in range(8)])
        actions = (uniform_quotient(), skewed_quotient(), heavy,
                   er.make_torus_action(1, (0.375, 0.625), 8))
        rng = np.random.default_rng(13)
        for act in actions:
            f = {x: Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4)))
                 for x in act.states}
            for k in (1, 3, 6):
                counts = er.ball_label_counts(act, k)
                vec = er._ball_counts(act, k, DEFAULT_CAP)
                num, den = er._weighted_sums(act, vec, f.get)
                want = [per_state_sums(act, counts, f.get, x) for x in act.states]
                assert list(zip(num, den)) == want
                assert er._weighted_sums(act, vec)[1] == den

    def test_memo_hit_skips_the_cap_count(self, monkeypatch):
        act = uniform_quotient()
        f, x = indicator(act.states[4]), act.states[11]
        warm = er.weighted_average(act, f, 40, x)

        def refuse(*args):
            raise AssertionError("ball_cardinality called on a memo hit")

        monkeypatch.setattr(er, "ball_cardinality", refuse)
        assert er.weighted_average(act, f, 40, x) == warm

    def test_constant_function_exact(self):
        act = skewed_quotient()
        c = Fraction(3, 7)
        for k in (1, 4, 9):
            for x in (act.states[0], act.states[19]):
                res = er.weighted_average(act, lambda y: c, k, x)
                assert res.value == c
                assert res.denominator > 0
                assert res.value == res.numerator / res.denominator

    def test_equidistribution_at_40(self):
        # calibrated: worst basis-indicator error is ~3e-5, frozen bound 0.02
        act = uniform_quotient()
        counts = er._ball_counts(act, 40, DEFAULT_CAP)
        worst = Fraction(0)
        for target in act.states:
            num, den = er._weighted_sums(act, counts, indicator(target))
            for nu, de in zip(num, den):
                worst = max(worst, abs(nu / de - Fraction(1, 27)))
        assert worst <= Fraction(2, 100)

    def test_monotone_error_decay(self):
        act = uniform_quotient()
        worst = {}
        for k in (5, 40):
            counts = er._ball_counts(act, k, DEFAULT_CAP)
            w = Fraction(0)
            for target in act.states:
                num, den = er._weighted_sums(act, counts, indicator(target))
                for nu, de in zip(num, den):
                    w = max(w, abs(nu / de - Fraction(1, 27)))
            worst[k] = w
        assert worst[40] < worst[5]

    def test_coboundary_identity_exact(self):
        # f = c + h - sigma-hat h makes the average c plus a boundary term
        act = skewed_quotient()
        sigma, k, x0 = E1, 6, act.states[2]
        h_map = {x: Fraction((i * i) % 11, 7) for i, x in enumerate(act.states)}
        om = {x: er.rn_derivative(act, sigma, x) for x in act.states}
        f = lambda y: Fraction(2, 5) + h_map[y] - h_map[act.act(sigma, y)] * om[y]
        res = er.weighted_average(act, f, k, x0)
        delta = symmetric_difference_coords(1, k, sigma)
        pts = [LatticePoint(tuple(r[:1]), tuple(r[1:2]), int(r[2]))
               for r in delta.tolist()]
        ident = lattice_identity(1)
        pos = neg = Fraction(0)
        for p in pts:
            term = h_map[act.act(p, x0)] * er.rn_derivative(act, p, x0)
            if dist_le_exact(p, ident, k):
                pos += term  # g in B_k minus sigma B_k
            else:
                neg += term  # g in sigma B_k minus B_k
        # the denominator is sum_{B_k} w_g(x0)
        assert res.value - Fraction(2, 5) == (pos - neg) / res.denominator


class TestNsfcRatio:
    def test_identity_is_zero(self):
        act = skewed_quotient()
        assert er.nsfc_ratio(act, 6, lattice_identity(1), act.states[5]) == 0

    def test_uniform_equals_folner_ratio(self):
        act = uniform_quotient()
        for k in (4, 8):
            assert er.nsfc_ratio(act, k, E1, act.states[0]) == folner_ratio(1, k, E1)

    def test_far_sigma_past_int64(self):
        # sigma's m = 2^63 + 2 left int64 in the translate (a bare OverflowError
        # once).  The quotient reads the corner m / 2 mod 3 = 2, as for (0, 40),
        # and both shifts move B_3 (|m| <= 18) off itself, so the ratios agree
        far, near = LatticePoint((0,), (0,), 2 ** 63 + 2), LatticePoint((0,), (0,), 40)
        act = uniform_quotient()
        assert er.nsfc_ratio(act, 3, far, act.states[0]) == 2 == folner_ratio(1, 3, far)
        act = skewed_quotient()
        for x in (act.states[0], act.states[11]):
            assert er.nsfc_ratio(act, 3, far, x) == er.nsfc_ratio(act, 3, near, x)

    def test_nonuniform_ratio_decays(self):
        act = skewed_quotient()
        x = act.states[2]
        assert er.nsfc_ratio(act, 40, E1, x) < er.nsfc_ratio(act, 5, E1, x)

    def test_bounded_by_boundary_weight(self):
        # sigma-difference sits inside the t-boundary with t = d(sigma, 0)
        for act in (uniform_quotient(), skewed_quotient()):
            for k in (5, 8):
                for x in (act.states[0], act.states[11]):
                    ns = er.nsfc_ratio(act, k, E1, x)
                    bd = er.boundary_weight_ratio(act, k, 1, x)
                    assert ns <= bd


@lru_cache(maxsize=None)
def shell(n, i):
    """Points of B_i not in B_(i-1) (all of B_1), from the enumeration."""
    inner = set(enumerate_ball(n, i - 1).points()) if i > 1 else set()
    return tuple(g for g in enumerate_ball(n, i).points() if g not in inner)


def shell_loop_check(a, b, k, eps, c_emp, n=1):
    return shell_loop_checks(a, b, k, [eps], c_emp, n)[0]


def shell_loop_checks(a, b, k, eps_list, c_emp, n=1):
    """The shell-by-shell loop of group products that the engine replaced.

    s_i a(h) gains a(s) at h = g^-1 s for each g of the i-th shell; H
    takes every h whose running sums ever satisfy s_i a > eps s_i b.  One
    pass serves every eps of eps_list.
    """
    eps_list, c_emp = [Fraction(e) for e in eps_list], Fraction(c_emp)
    sa, sb, Hs = {}, {}, [set() for _ in eps_list]
    for i in range(1, k + 1):
        for g in shell(n, i):
            ginv = inverse(g)
            for s_pt, val in a.items():
                h = multiply(ginv, s_pt)
                sa[h] = sa.get(h, Fraction(0)) + val
            for s_pt, val in b.items():
                h = multiply(ginv, s_pt)
                sb[h] = sb.get(h, Fraction(0)) + val
        for eps, H in zip(eps_list, Hs):
            for h, val in sa.items():
                if h not in H and val > eps * sb.get(h, Fraction(0)):
                    H.add(h)
    lhs = sum((abs(v) for v in a.values()), Fraction(0))
    out = []
    for eps, H in zip(eps_list, Hs):
        rhs = eps / c_emp * sum((v for h, v in b.items() if h in H), Fraction(0))
        out.append(er.MaximalCheck(lhs, rhs, lhs >= rhs))
    return out


def random_weights(rng, pool, size, overlap):
    """a with signed values, b with some zero values, supports sharing `overlap` atoms."""
    idx = rng.choice(len(pool), size=2 * size - overlap, replace=False)
    a = {pool[i]: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
         for i in idx[:size]}
    b = {pool[i]: Fraction(int(rng.integers(0, 9)), int(rng.integers(1, 5)))
         for i in idx[size - overlap:]}
    return a, b


small_atoms = st.builds(
    lambda x, y, j: LatticePoint((x,), (y,), x * y + 2 * j),
    st.integers(-4, 4), st.integers(-4, 4), st.integers(-8, 8))
small_values = st.fractions(min_value=-5, max_value=5, max_denominator=6)


class TestDiscreteMaximal:
    def test_zero_a_holds(self):
        b = {E1: Fraction(3), lattice_identity(1): Fraction(1)}
        out = er.discrete_maximal_check({}, b, 3, Fraction(1, 2), 12)
        assert out.holds and out.lhs == 0 and out.rhs == 0

    def test_equal_weights_strictness(self):
        # a = b and eps >= 1: strict comparison never fires, H is empty
        w = {lattice_identity(1): Fraction(2), E1: Fraction(1, 3)}
        out = er.discrete_maximal_check(dict(w), dict(w), 3, Fraction(1), 12)
        assert out.holds and out.rhs == 0

    def test_random_trials_hold(self):
        rng = np.random.default_rng(1)
        b10 = enumerate_ball(1, 10).points()
        for _ in range(40):
            idx = rng.choice(len(b10), size=20, replace=False)
            supp = [b10[i] for i in idx]
            a = {p: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
                 for p in supp[:12]}
            b = {p: Fraction(int(rng.integers(0, 9)), int(rng.integers(1, 5)))
                 for p in supp[8:]}
            out = er.discrete_maximal_check(a, b, 3, Fraction(1, 3), 12)
            assert out.holds

    def test_absurd_constant_can_fail(self):
        # the check is not vacuous: C far below the true BCP constant fails
        a = {lattice_identity(1): Fraction(1)}
        b = {lattice_identity(1): Fraction(1)}
        out = er.discrete_maximal_check(a, b, 2, Fraction(1, 2), Fraction(1, 100))
        assert not out.holds

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_matches_shell_loop(self, k):
        rng = np.random.default_rng([5, k])
        pool = enumerate_ball(1, 6).points()
        for size, overlap in ((12, 0), (12, 4), (10, 10)):
            a, b = random_weights(rng, pool, size, overlap)
            epss = (Fraction(1, 10), Fraction(1, 2), Fraction(1), Fraction(3))
            for eps, want in zip(epss, shell_loop_checks(a, b, k, epss, 12)):
                assert er.discrete_maximal_check(a, b, k, eps, 12) == want, (size, overlap, eps)

    def test_matches_shell_loop_edge_supports(self):
        rng = np.random.default_rng(6)
        pool = enumerate_ball(1, 5).points()
        a, b = random_weights(rng, pool, 8, 3)
        zero_b = {h: Fraction(0) for h in b}
        cases = [
            ({}, b), (a, {}), ({}, {}), (a, zero_b),
            ({s: -abs(v) - 1 for s, v in a.items()}, b),  # only negative values
            (a, {**b, **{s: Fraction(1) for s in a}}),    # b covers supp(a)
        ]
        epss = (Fraction(1, 10), Fraction(1))
        for a_case, b_case in cases:
            for k in (1, 3):
                wants = shell_loop_checks(a_case, b_case, k, epss, 12)
                for eps, want in zip(epss, wants):
                    assert er.discrete_maximal_check(a_case, b_case, k, eps, 12) == want

    def test_matches_shell_loop_n2(self):
        rng = np.random.default_rng(8)
        pool = enumerate_ball(2, 3).points()
        for k in (1, 2):
            a, b = random_weights(rng, pool, 8, 3)
            assert er.discrete_maximal_check(a, b, k, Fraction(1, 2), 12, n=2) == \
                shell_loop_check(a, b, k, Fraction(1, 2), 12, n=2)

    @given(st.dictionaries(small_atoms, small_values, max_size=6),
           st.dictionaries(small_atoms, small_values.map(abs), max_size=6),
           st.integers(1, 3),
           st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=8))
    @settings(max_examples=60, deadline=None)
    def test_property_matches_shell_loop(self, a, b, k, eps):
        assert er.discrete_maximal_check(a, b, k, eps, 12) == shell_loop_check(a, b, k, eps, 12)

    def test_right_translation_invariance_past_int64(self):
        # d is right invariant, so moving every atom by one far g keeps H;
        # coordinates near 2^40 and denominators near 2^70 leave int64
        rng = np.random.default_rng(9)
        a, b = random_weights(rng, enumerate_ball(1, 6).points(), 12, 4)
        want = shell_loop_check(a, b, 3, Fraction(1, 2), 12)
        g = LatticePoint((2 ** 40 + 3,), (-(2 ** 41),), 2 ** 63 + 2)
        far_a = {multiply(s, g): v for s, v in a.items()}
        far_b = {multiply(h, g): v for h, v in b.items()}
        assert er.discrete_maximal_check(far_a, far_b, 3, Fraction(1, 2), 12) == want
        tiny = Fraction(1, 2 ** 70)
        a_t = {s: v * tiny for s, v in a.items()}
        b_t = {h: v * tiny for h, v in b.items()}
        assert er.discrete_maximal_check(a_t, b_t, 3, Fraction(1, 2), 12) == \
            shell_loop_check(a_t, b_t, 3, Fraction(1, 2), 12)

    def test_builds_no_ball(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a ball was built")

        rng = np.random.default_rng(10)
        a, b = random_weights(rng, enumerate_ball(1, 6).points(), 12, 4)
        want = shell_loop_check(a, b, 3, Fraction(1, 2), 12)
        monkeypatch.setattr(FiberSet, "ball", refuse)
        monkeypatch.setattr(FiberSet, "rows", refuse)
        assert er.discrete_maximal_check(a, b, 3, Fraction(1, 2), 12) == want

    def test_cap_bounds_pairs(self):
        # 2 centers times 3 atoms: zero values are outside both supports;
        # every pair lies within 2, so k = 40 gives the sums of k = 2
        p = [LatticePoint((i,), (0,), 0) for i in range(4)]
        a = {p[0]: Fraction(1), p[1]: Fraction(2), p[3]: Fraction(0)}
        b = {p[1]: Fraction(1), p[2]: Fraction(3), p[3]: Fraction(0)}
        with pytest.raises(ResourceCapError) as info:
            er.discrete_maximal_check(a, b, 40, Fraction(1, 2), 12, cap=5)
        assert (info.value.predicted, info.value.cap) == (6, 5)
        out = er.discrete_maximal_check(a, b, 40, Fraction(1, 2), 12, cap=6)
        assert out == shell_loop_check(a, b, 2, Fraction(1, 2), 12)

    def test_atoms_must_be_lattice_points_of_rank_n(self):
        p2 = LatticePoint((1, 0), (0, 0), 0)
        with pytest.raises(ValueError):
            er.discrete_maximal_check({p2: Fraction(1)}, {}, 2, Fraction(1), 12)
        with pytest.raises(ValueError):
            er.discrete_maximal_check({}, {E1: Fraction(1)}, 2, Fraction(1), 12, n=2)
        with pytest.raises(ValueError):
            er.discrete_maximal_check({ContinuousPoint((0.5j,), 0.0): Fraction(1)},
                                      {E1: Fraction(1)}, 2, Fraction(1), 12)

    def test_first_radii_exact(self):
        rng = np.random.default_rng(11)
        pts = [rand_lat(rng, span=20) for _ in range(300)]
        pairs = [(pts[i], pts[j]) for i, j in rng.integers(0, 300, size=(2000, 2))]
        # d = 1 (a generator) and d = j (the central element (0, j^2)) exactly
        pairs += [(p, multiply(generator(1, 0), p)) for p in pts[:50]]
        pairs += [(p, multiply(LatticePoint((0,), (0,), 2 * j * j), p))
                  for j in range(1, 6) for p in pts[:20]]
        x, m, _ = np.array([offset_exact(s, h) for s, h in pairs]).T
        for k, dtype in ((1, np.int64), (4, np.int64), (30, np.int64), (4, object)):
            radii = er._first_radii(x.astype(dtype), m.astype(dtype), k).tolist()
            for (s, h), r in zip(pairs, radii):
                assert 1 <= r <= k + 1
                assert r == k + 1 or dist_cmp(s, h, r) <= 0
                assert r == 1 or dist_cmp(s, h, r - 1) > 0

    @pytest.mark.slow
    def test_thousand_atoms_at_k20(self):
        # fixed seeds [97, trial]; 500 atoms in a, 500 in b, drawn from B_20
        support = enumerate_ball(1, 20).points()
        ratios = []
        for trial in range(3):
            rng = np.random.default_rng([97, trial])
            idx = rng.choice(len(support), size=1000, replace=False)
            a = {support[i]: Fraction(int(rng.integers(0, 12)), 5) for i in idx[:500]}
            b = {support[i]: Fraction(int(rng.integers(1, 12)), 5) for i in idx[500:]}
            out = er.discrete_maximal_check(a, b, 20, Fraction(1, 2), 12)
            atoms, centers = list(a) + list(b), list(b)
            picks = rng.integers(0, [len(centers), len(atoms)], size=(2000, 2))
            sampled = [(atoms[j], centers[i]) for i, j in picks]
            x, m, _ = np.array([offset_exact(s, h) for s, h in sampled]).T
            for (s, h), r in zip(sampled, er._first_radii(x, m, 20).tolist()):
                assert r == 21 or dist_cmp(s, h, r) <= 0
                assert r == 1 or dist_cmp(s, h, r - 1) > 0
            assert out.holds, f"trial {trial}: {out}"
            ratios.append(float(out.lhs / out.rhs) if out.rhs else float("inf"))
        print(f"k = 20, 1000 atoms, C = 12: worst lhs/rhs {min(ratios):.2f} of {ratios}")

    def test_validation(self):
        with pytest.raises(ValueError):
            er.discrete_maximal_check({}, {}, 3, Fraction(0), 12)
        with pytest.raises(ValueError):
            er.discrete_maximal_check({}, {}, 0, Fraction(1), 12)
        with pytest.raises(ValueError):
            er.discrete_maximal_check({}, {E1: Fraction(-1)}, 3, Fraction(1), 12)


class TestMaximalExperiment:
    def test_zero_function(self):
        act = skewed_quotient()
        out = er.maximal_inequality_experiment(act, lambda y: Fraction(0),
                                               Fraction(1, 4), 4)
        assert out.lhs_measure == 0

    def test_large_eps_empty_set(self):
        act = uniform_quotient()
        f = {x: Fraction(i % 3, 2) for i, x in enumerate(act.states)}
        out = er.maximal_inequality_experiment(act, f, Fraction(2), 4)
        assert out.lhs_measure == 0

    def test_random_function_bounded(self):
        act = skewed_quotient()
        rng = np.random.default_rng(12)
        for _ in range(3):
            f = {x: Fraction(int(rng.integers(-6, 7)), 3) for x in act.states}
            out = er.maximal_inequality_experiment(act, f, Fraction(1, 4), 6)
            assert out.lhs_measure <= out.bound
            assert out.d_emp >= 1


class TestInterfaces:
    def test_quotient_spec_roundtrip(self):
        act = skewed_quotient()
        clone = er.action_from_spec(act.spec)
        assert clone.mass == act.mass
        assert clone.states == act.states

    def test_torus_spec_roundtrip(self):
        act = er.make_torus_action(1, (0.375, 0.625), 8)
        clone = er.action_from_spec(act.spec)
        assert clone.spec["shifts"] == act.spec["shifts"]

    def test_unknown_spec_type(self):
        with pytest.raises(ValueError):
            er.action_from_spec({"type": "flow"})

    @pytest.mark.parametrize("spec, missing", [
        ({"type": "quotient", "m": 3}, "'n'"),
        ({"type": "quotient", "n": 1}, "'m'"),
        ({"type": "torus", "alpha": [0.5, 0.5], "resolution": 8}, "'n'"),
        ({"type": "torus", "n": 1}, "'alpha', 'resolution'"),
    ])
    def test_missing_spec_key_named(self, spec, missing):
        # the key lookups raised KeyError before the check
        with pytest.raises(ValueError, match=f"lacks {missing}$"):
            er.action_from_spec(spec)

    def test_spec_must_be_an_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            er.action_from_spec([1, 2])

    def test_constant_rows_have_zero_error(self):
        act = skewed_quotient()
        rows = er.convergence_rows(act, lambda y: Fraction(1, 2), [2, 3])
        assert all(err == 0 for *_rest, err in rows)
