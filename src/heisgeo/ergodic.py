"""Non-singular actions with exact Radon-Nikodym cocycles and ball averages.

Every measure here is a finite set of positive rational point masses, so
cocycle identities, weighted averages and maximal-function sums come out
as exact fractions; floats appear only in reports.  The acting group is
the integer Heisenberg lattice, pushed onto either a finite mod-m
quotient or an abelianized torus rotation sampled on a grid, and every
group-dependent quantity factors through that finite image.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .balls import (
    DEFAULT_CAP,
    FiberSet,
    _count_congruent,  # the congruence count behind corner_counts, importable here
    _lattice_points,
    _t_boundary,
    ball_cardinality,
)
from .core import LatticePoint, Radius, generator, inverse, multiply
from .errors import ResourceCapError

Rational = Union[int, Fraction]


@dataclass(frozen=True, eq=False)
class WeightedAction:
    """Finite non-singular action of the lattice with rational masses.

    ``states`` lists the points of X; ``label_of`` is the homomorphism
    onto the acting quotient, and every group-dependent quantity factors
    through it, which is what makes exact ball aggregation possible.
    """

    kind: str
    n: int
    states: tuple
    mass: dict
    spec: dict
    label_of: Callable[[LatticePoint], tuple] = field(repr=False)
    label_mul: Callable[[tuple, tuple], tuple] = field(repr=False)
    act_label: Callable[[tuple, tuple], tuple] = field(repr=False)

    def act(self, g: LatticePoint, x):
        return self.act_label(self.label_of(g), x)


def _validated_masses(states, masses) -> dict:
    if masses is None:
        w = Fraction(1, len(states))
        return {x: w for x in states}
    if isinstance(masses, dict):
        table = {x: Fraction(masses[x]) for x in states}
    else:
        vals = list(masses)
        if len(vals) != len(states):
            raise ValueError(f"need {len(states)} masses, got {len(vals)}")
        table = {x: Fraction(v) for x, v in zip(states, vals)}
    if any(v <= 0 for v in table.values()):
        raise ValueError("masses must be positive")
    if sum(table.values()) != 1:
        raise ValueError("masses must sum to 1 exactly")
    return table


def make_quotient_action(n: int, m: int, masses=None) -> WeightedAction:
    """Left translation on H_n(Z/mZ) via matrix reduction mod m.

    The central coordinate of the quotient is the integer matrix corner
    c = tau + <a,b>/2 = (m_int + <a,b>)/2, which the parity invariant
    keeps integral; reducing (a, b, c) mod m is then a homomorphism.
    Non-uniform masses make the action non-singular without being
    measure-preserving.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    states = tuple(itertools.product(range(m), repeat=2 * n + 1))
    mass = _validated_masses(states, masses)

    def label_of(g: LatticePoint) -> tuple:
        s = sum(x * y for x, y in zip(g.a, g.b))
        c = ((g.m + s) // 2) % m
        return tuple(x % m for x in g.a) + tuple(y % m for y in g.b) + (c,)

    def label_mul(p: tuple, q: tuple) -> tuple:
        corner = p[2 * n] + q[2 * n]
        corner += sum(p[j] * q[n + j] for j in range(n))
        return tuple(
            (p[j] + q[j]) % m for j in range(2 * n)
        ) + (corner % m,)

    spec = {"type": "quotient", "n": n, "m": m,
            "masses": [str(mass[x]) for x in states]}
    return WeightedAction("quotient", n, states, mass, spec,
                          label_of, label_mul, label_mul)


def make_torus_action(n: int, alpha: Sequence[float], resolution: int) -> WeightedAction:
    """Grid-sampled rotation x -> x + (Re z, Im z) alpha on the 2n-torus.

    alpha is quantized to the grid once (shift_j = round(alpha_j L) mod L)
    so that the action law holds exactly; the center acts trivially since
    the map factors through the abelianization.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if len(alpha) != 2 * n:
        raise ValueError("alpha must have 2n entries")
    L = int(resolution)
    shifts = [round(float(a) * L) % L for a in alpha]
    states = tuple(itertools.product(range(L), repeat=2 * n))
    mass = {x: Fraction(1, len(states)) for x in states}

    def label_of(g: LatticePoint) -> tuple:
        flat = g.a + g.b
        return tuple((flat[j] * shifts[j]) % L for j in range(2 * n))

    def label_mul(p: tuple, q: tuple) -> tuple:
        return tuple((p[j] + q[j]) % L for j in range(2 * n))

    spec = {"type": "torus", "n": n, "alpha": [float(a) for a in alpha],
            "resolution": L, "shifts": shifts}
    return WeightedAction("torus", n, states, mass, spec,
                          label_of, label_mul, label_mul)


def action_from_spec(spec: dict) -> WeightedAction:
    """Rebuild an action from its JSON spec document."""
    kind = spec.get("type")
    if kind == "quotient":
        masses = spec.get("masses")
        if masses is not None:
            masses = [Fraction(s) for s in masses]
        return make_quotient_action(spec["n"], spec["m"], masses)
    if kind == "torus":
        return make_torus_action(spec["n"], spec["alpha"], spec["resolution"])
    raise ValueError(f"unknown action type {kind!r}")


def rn_derivative(action: WeightedAction, g: LatticePoint, x) -> Fraction:
    """omega_g(x) = mu(gx)/mu(x), exact and strictly positive."""
    return action.mass[action.act(g, x)] / action.mass[x]


def integral(action: WeightedAction, f) -> Fraction:
    func = _as_function(f)
    return sum((Fraction(func(x)) * action.mass[x] for x in action.states),
               Fraction(0))


def _as_function(f) -> Callable:
    return f if callable(f) else (lambda y, _t=f: _t[y])


# --- exact ball aggregation --------------------------------------------------

def _label_histogram(digits: np.ndarray, counts: np.ndarray, base: int) -> dict:
    """{label: total count}; column i of digits is entry i's label in the given base."""
    width = digits.shape[0]
    idx = np.zeros(digits.shape[1], dtype=np.int64)
    for j in range(width):
        idx = idx * base + digits[j]
    hist = np.zeros(base ** width, dtype=np.int64)
    np.add.at(hist, idx, counts)
    nz = np.flatnonzero(hist)
    labels = np.stack(np.unravel_index(nz, (base,) * width), axis=1)
    return {tuple(lab): c for lab, c in zip(labels.tolist(), hist[nz].tolist())}


def ball_label_counts(action: WeightedAction, k: int, cap: int = DEFAULT_CAP) -> dict:
    """#{g in B_k : label(g) = l} for every acting label l, exactly.

    Fibers over each horizontal point are counted by congruence
    arithmetic, so no ball is ever materialized; k = 40 at n = 1 costs
    a few thousand integer interval counts.  Counts are memoized per
    (action, k, cap) and every call returns a fresh dict.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    card = ball_cardinality(action.n, k)
    if card > cap:
        raise ResourceCapError(
            f"ball of {card} points exceeds cap {cap}", predicted=card, cap=cap
        )
    return dict(_ball_label_counts(action, k, cap))


@lru_cache(maxsize=128)
def _ball_label_counts(action: WeightedAction, k: int, cap: int) -> dict:
    # actions compare by identity (eq=False), so the cache keys on the object
    return _label_counts(action, FiberSet.ball(action.n, k, cap=cap))


def _label_counts(action: WeightedAction, fibers: FiberSet) -> dict:
    """{label: #points of the fiber set with that label}, by congruence counts per entry."""
    if action.kind == "quotient":
        # label (a, b, c) mod m with corner c = (m_int + <a,b>)/2
        m = action.spec["m"]
        counts = fibers.corner_counts(m)
        digits = np.vstack([np.repeat(fibers.y % m, m, axis=1), np.tile(np.arange(m), fibers.lo.size)])
        return _label_histogram(digits, counts.ravel(), m)
    if action.kind == "torus":
        L = action.spec["resolution"]
        shifts = np.array(action.spec["shifts"], dtype=np.int64)
        return _label_histogram((fibers.y * shifts[:, None]) % L, fibers.sizes(), L)
    raise ValueError(f"unknown action kind {action.kind!r}")


def _weighted_sums(action: WeightedAction, counts: dict, func, x):
    """(sum ghat-f, sum ghat-1) over a label histogram, exact."""
    mx = action.mass[x]
    num = Fraction(0)
    den = Fraction(0)
    for lab, cnt in counts.items():
        y = action.act_label(lab, x)
        w = action.mass[y] / mx
        den += cnt * w
        if func is not None:
            num += cnt * w * Fraction(func(y))
    return num, den


class AverageResult(NamedTuple):
    k: int
    value: Fraction
    numerator: Fraction
    denominator: Fraction


def weighted_average(action: WeightedAction, f, k: int, x,
                     cap: int = DEFAULT_CAP) -> AverageResult:
    """Exact (sum_{B_k} f(gx) w_g(x)) / (sum_{B_k} w_g(x))."""
    counts = ball_label_counts(action, k, cap)
    num, den = _weighted_sums(action, counts, _as_function(f), x)
    return AverageResult(k, num / den, num, den)


def nsfc_ratio(action: WeightedAction, k: int, sigma: LatticePoint, x,
               cap: int = DEFAULT_CAP) -> Fraction:
    """Non-singular Folner ratio over B_k triangle sigma B_k, exact."""
    ball = FiberSet.ball(action.n, k, cap=cap)
    delta = ball.symmetric_difference(ball.translate(sigma, left=True))
    _, num = _weighted_sums(action, _label_counts(action, delta), None, x)
    _, den = _weighted_sums(action, ball_label_counts(action, k, cap), None, x)
    return num / den


def boundary_weight_ratio(action: WeightedAction, k: int, t: Radius, x,
                          cap: int = DEFAULT_CAP) -> Fraction:
    """(sum_{t-boundary of B_k} w_g(x)) / (sum_{B_k} w_g(x)), exact."""
    band = _t_boundary(action.n, k, t, cap)
    _, num = _weighted_sums(action, _label_counts(action, band), None, x)
    _, den = _weighted_sums(action, ball_label_counts(action, k, cap), None, x)
    return num / den


def convergence_rows(action: WeightedAction, f, ks: Sequence[int],
                     cap: int = DEFAULT_CAP) -> list:
    """(k, x_id, value, abs_err) for every base point; err against int f."""
    func = _as_function(f)
    ref = integral(action, f)
    rows = []
    for k in ks:
        counts = ball_label_counts(action, k, cap)
        for x_id, x in enumerate(action.states):
            num, den = _weighted_sums(action, counts, func, x)
            val = num / den
            rows.append((k, x_id, val, abs(val - ref)))
    return rows


def experiment_csv(rows) -> str:
    """CSV report `k,x_id,value,abs_err`; floats via repr for determinism."""
    out = ["k,x_id,value,abs_err"]
    for k, x_id, val, err in rows:
        out.append(f"{k},{x_id},{float(val)!r},{float(err)!r}")
    return "\n".join(out) + "\n"


def orbit_transitive(action: WeightedAction) -> bool:
    """BFS reachability under the standard generators; empirical
    ergodicity proxy on the finite state set."""
    gens = [generator(action.n, j, imag)
            for j in range(action.n) for imag in (False, True)]
    labels = [action.label_of(g) for g in gens]
    labels += [action.label_of(inverse(g)) for g in gens]
    start = action.states[0]
    seen = {start}
    frontier = [start]
    while frontier:
        x = frontier.pop()
        for lab in labels:
            y = action.act_label(lab, x)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == len(action.states)


# --- maximal inequality ------------------------------------------------------

@lru_cache(maxsize=64)
def _shell_points(n: int, i: int, cap: int) -> tuple:
    """Points of B_i minus B_{i-1} (all of B_1), cached across repeated checks."""
    shell = FiberSet.ball(n, i, cap=cap)
    if i > 1:
        shell = shell.difference(FiberSet.ball(n, i - 1, cap=cap))
    return tuple(_lattice_points(n, shell.rows(), cap))


class MaximalCheck(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    holds: bool


def discrete_maximal_check(a: dict, b: dict, k: int, eps: Rational,
                           c_emp: Rational, n: int = 1,
                           cap: int = DEFAULT_CAP) -> MaximalCheck:
    """BCP maximal bound ||a||_1 >= eps C^{-1} sum_{h in H} b(h), exact.

    s_i a(h) = sum_{g in B_i} a(gh) accumulates shell by shell; H
    collects every h whose running average ratio exceeds eps at any
    radius i <= k (strict inequality, matching the lemma).
    """
    eps = Fraction(eps)
    c_emp = Fraction(c_emp)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if c_emp <= 0:
        raise ValueError("c_emp must be positive")
    if k < 1:
        raise ValueError("k must be >= 1")
    if any(v < 0 for v in b.values()):
        raise ValueError("b must be nonnegative")
    sa: dict = {}
    sb: dict = {}
    H: set = set()
    for i in range(1, k + 1):
        for g in _shell_points(n, i, cap):
            ginv = inverse(g)
            for s_pt, val in a.items():
                h = multiply(ginv, s_pt)
                sa[h] = sa.get(h, Fraction(0)) + val
            for s_pt, val in b.items():
                h = multiply(ginv, s_pt)
                sb[h] = sb.get(h, Fraction(0)) + val
        for h, val in sa.items():
            if h not in H and val > eps * sb.get(h, Fraction(0)):
                H.add(h)
    lhs = sum((abs(v) for v in a.values()), Fraction(0))
    rhs = eps / c_emp * sum((v for h, v in b.items() if h in H), Fraction(0))
    return MaximalCheck(lhs, rhs, lhs >= rhs)


class MaximalExperiment(NamedTuple):
    lhs_measure: Fraction
    bound: Fraction
    c_emp: Fraction
    d_emp: Fraction


def maximal_inequality_experiment(action: WeightedAction, f, eps: Rational,
                                  k_max: int, c_emp: Rational = 12,
                                  cap: int = DEFAULT_CAP) -> MaximalExperiment:
    """mu(sup_{k <= k_max} |A_k f| > eps) against (C D / eps) ||f||_1.

    D is measured as the largest |B_2k| / |B_k| over the swept range;
    C defaults to the certified colouring bound of the covering module.
    """
    func = _as_function(f)
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    exceeding = Fraction(0)
    counts = {k: ball_label_counts(action, k, cap) for k in range(1, k_max + 1)}
    for x in action.states:
        for k in range(1, k_max + 1):
            num, den = _weighted_sums(action, counts[k], func, x)
            if abs(num / den) > eps:
                exceeding += action.mass[x]
                break
    d_emp = max(
        Fraction(ball_cardinality(action.n, 2 * k), ball_cardinality(action.n, k))
        for k in range(1, k_max + 1)
    )
    l1 = sum((abs(Fraction(func(x))) * action.mass[x] for x in action.states),
             Fraction(0))
    bound = Fraction(c_emp) * d_emp / eps * l1
    return MaximalExperiment(exceeding, bound, Fraction(c_emp), d_emp)
