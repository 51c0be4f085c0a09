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
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .balls import DEFAULT_CAP, FiberSet, _t_boundary, ball_cardinality
from .core import LatticePoint, Radius, _int_dtype, _isqrt_vec, _table_terms, generator, inverse
from .errors import check_cap

Rational = Union[int, Fraction]

# each state costs about 180 bytes (its tuple and Fraction mass): ~0.2 GB here
_MAX_STATES = 10 ** 6
# the act table has one entry per (label, state) pair, and its build and the
# weighted sums hold 24-48 bytes per entry at once (n = 1, 2): 0.1-0.2 GB here
_MAX_ACT_ENTRIES = 4 * 10 ** 6


@dataclass(frozen=True, eq=False)
class WeightedAction:
    """Finite non-singular action of the lattice with rational masses.

    ``states`` lists the points of X; ``label_of`` is the homomorphism
    onto the acting quotient, and every group-dependent quantity factors
    through it, which is what makes exact ball aggregation possible.  The
    acting quotient is X itself (H_n(Z/mZ) acting on itself, a shift of
    the 2n-torus grid), so ``label_mul`` is also the action on states.
    """

    kind: str
    n: int
    states: tuple
    mass: dict
    spec: dict
    label_of: Callable[[LatticePoint], tuple] = field(repr=False)
    label_mul: Callable[[tuple, tuple], tuple] = field(repr=False)

    def act(self, g: LatticePoint, x):
        return self.label_mul(self.label_of(g), x)


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
    check_cap(m ** min(2 * n + 1, 64), _MAX_STATES, "states")  # a lower bound past 64 factors
    states = tuple(itertools.product(range(m), repeat=2 * n + 1))
    mass = _validated_masses(states, masses)

    def label_of(g: LatticePoint) -> tuple:
        s = sum(x * y for x, y in zip(g.a, g.b))
        c = ((g.m + s) // 2) % m
        return tuple(x % m for x in g.a) + tuple(y % m for y in g.b) + (c,)

    def label_mul(p: tuple, q: tuple) -> tuple:
        corner = p[2 * n] + q[2 * n] + sum(p[j] * q[n + j] for j in range(n))
        return tuple((p[j] + q[j]) % m for j in range(2 * n)) + (corner % m,)

    spec = {"type": "quotient", "n": n, "m": m,
            "masses": [str(mass[x]) for x in states]}
    return WeightedAction("quotient", n, states, mass, spec, label_of, label_mul)


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
    if not all(math.isfinite(float(a)) for a in alpha):
        raise ValueError(f"alpha entries must be finite, got {list(alpha)}")
    L = int(resolution)
    check_cap(L ** min(2 * n, 64), _MAX_STATES, "states")  # a lower bound past 64 factors
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
    return WeightedAction("torus", n, states, mass, spec, label_of, label_mul)


def action_from_spec(spec: dict) -> WeightedAction:
    """Rebuild an action from its JSON spec document; a malformed one raises ValueError."""
    if not isinstance(spec, dict):
        raise ValueError("an action spec must be a JSON object")
    kind = spec.get("type")
    if kind not in ("quotient", "torus"):
        raise ValueError(f"unknown action type {kind!r}")
    keys = ("n", "m") if kind == "quotient" else ("n", "alpha", "resolution")
    missing = [key for key in keys if key not in spec]
    if missing:
        raise ValueError(f"{kind} action spec lacks {', '.join(map(repr, missing))}")
    if kind == "quotient":
        masses = spec.get("masses")
        if masses is not None:
            masses = [Fraction(s) for s in masses]
        return make_quotient_action(spec["n"], spec["m"], masses)
    return make_torus_action(spec["n"], spec["alpha"], spec["resolution"])


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

def ball_label_counts(action: WeightedAction, k: int, cap: int = DEFAULT_CAP) -> dict:
    """#{g in B_k : label(g) = l} for every acting label l, exactly.

    Fibers over each horizontal point are counted by congruence
    arithmetic, so no ball is ever materialized; k = 40 at n = 1 costs
    a few thousand integer interval counts.  Counts are memoized per
    (action, k, cap); every call returns a fresh dict of the nonzero
    counts in state order.
    """
    counts = _ball_counts(action, k, cap)
    nz = np.flatnonzero(counts)
    return {action.states[i]: c for i, c in zip(nz.tolist(), counts[nz].tolist())}


@lru_cache(maxsize=128)
def _ball_counts(action: WeightedAction, k: int, cap: int) -> np.ndarray:
    """Read-only _label_counts of B_k; a refusal raises and is never cached."""
    # actions compare by identity (eq=False), so the cache keys on the object
    if k < 1:
        raise ValueError("k must be >= 1")
    fibers = FiberSet.ball(action.n, k, cap=cap)  # the grid is refused first
    check_cap(fibers.count(), cap, "ball points")
    counts = _label_counts(action, fibers)
    counts.flags.writeable = False
    return counts


def _label_counts(action: WeightedAction, fibers: FiberSet) -> np.ndarray:
    """#points of the fiber set per label, by congruence counts per entry, as
    an int64 vector indexed like action.states: labels and states are one
    digit grid in C order, so a label's ravelled digits are its state index."""
    if action.kind == "quotient":
        # label (a, b, c) mod m with corner c = (m_int + <a,b>)/2
        base = action.spec["m"]
        sizes = fibers.corner_counts(base).ravel()
        digits = np.vstack([np.repeat(fibers.y % base, base, axis=1), np.tile(np.arange(base), fibers.lo.size)])
    elif action.kind == "torus":
        base = action.spec["resolution"]
        sizes = fibers.sizes()
        digits = (fibers.y * np.array(action.spec["shifts"], dtype=np.int64)[:, None]) % base
    else:
        raise ValueError(f"unknown action kind {action.kind!r}")
    counts = np.zeros(len(action.states), dtype=np.int64)
    np.add.at(counts, np.ravel_multi_index(tuple(digits), (base,) * len(digits)), sizes)
    return counts


def _common_denominator(vals: list) -> tuple[list, int]:
    """Integer numerators of the Fractions vals over their least common denominator."""
    scale = math.lcm(*(v.denominator for v in vals))
    return [v.numerator * (scale // v.denominator) for v in vals], scale


@lru_cache(maxsize=32)
def _tables(action: WeightedAction) -> tuple[np.ndarray, list]:
    """(act, wt) of an action, built once: the act table act[l, x] = index
    of label_mul(states[l], states[x]), and the masses' numerators over
    their least common denominator.

    The states are the labels' digit grid in C order, and label_mul is
    integer arithmetic on the digits, so one call on broadcast digit
    columns acts with every label on every state, and the images' grid
    positions are their state indices.  More than _MAX_ACT_ENTRIES entries
    raise ResourceCapError before anything is built.
    """
    states = action.states
    check_cap(len(states) ** 2, _MAX_ACT_ENTRIES, "act table entries")
    digits = np.array(states, dtype=np.int64).T
    images = action.label_mul(tuple(digits[:, :, None]), tuple(digits[:, None, :]))
    act = np.ravel_multi_index(images, tuple(digits.max(axis=1) + 1))
    wt, _ = _common_denominator([action.mass[x] for x in states])
    return act, wt


def _weighted_sums(action: WeightedAction, counts: np.ndarray, func=lambda y: 1):
    """(sum_g f(g x) w_g(x), sum_g w_g(x)) for every state x, exact.

    g runs over the label counts (_label_counts).  With masses wt / W
    (_tables) and f = fnum / F over least common denominators, the sums are
    num / (F wt(x)) and den / wt(x) for integers that one pass over the act
    table gives for all states, in core._int_dtype of sum(counts) max(wt)
    max(|fnum|, 1), which bounds every term and partial sum.
    """
    act, wt = _tables(action)
    fnum, scale = _common_denominator([Fraction(func(y)) for y in action.states])
    dtype = _int_dtype(max(int(counts.sum()), 1) * max(wt) * max([1, *map(abs, fnum)]))
    cnt = counts.astype(dtype)
    moved = np.array(wt, dtype=dtype)[act]
    num = (cnt @ (moved * np.array(fnum, dtype=dtype)[act])).tolist()
    den = (cnt @ moved).tolist()
    return ([Fraction(nu, scale * w) for nu, w in zip(num, wt)],
            [Fraction(de, w) for de, w in zip(den, wt)])


class AverageResult(NamedTuple):
    k: int
    value: Fraction
    numerator: Fraction
    denominator: Fraction


def weighted_average(action: WeightedAction, f, k: int, x,
                     cap: int = DEFAULT_CAP) -> AverageResult:
    """Exact (sum_{B_k} f(gx) w_g(x)) / (sum_{B_k} w_g(x))."""
    num, den = _weighted_sums(action, _ball_counts(action, k, cap), _as_function(f))
    i = action.states.index(x)
    return AverageResult(k, num[i] / den[i], num[i], den[i])


def _weight_ratio(action: WeightedAction, fibers: FiberSet, k: int, x, cap: int) -> Fraction:
    """(sum_{g in fibers} w_g(x)) / (sum_{B_k} w_g(x)), exact."""
    _, num = _weighted_sums(action, _label_counts(action, fibers))
    _, den = _weighted_sums(action, _ball_counts(action, k, cap))
    i = action.states.index(x)
    return num[i] / den[i]


def nsfc_ratio(action: WeightedAction, k: int, sigma: LatticePoint, x,
               cap: int = DEFAULT_CAP) -> Fraction:
    """Non-singular Folner ratio over B_k triangle sigma B_k, exact."""
    ball = FiberSet.ball(action.n, k, cap=cap)
    return _weight_ratio(action, ball.symmetric_difference(ball.translate(sigma, left=True)),
                         k, x, cap)


def boundary_weight_ratio(action: WeightedAction, k: int, t: Radius, x,
                          cap: int = DEFAULT_CAP) -> Fraction:
    """(sum_{t-boundary of B_k} w_g(x)) / (sum_{B_k} w_g(x)), exact."""
    return _weight_ratio(action, _t_boundary(action.n, k, t, cap), k, x, cap)


def convergence_rows(action: WeightedAction, f, ks: Sequence[int],
                     cap: int = DEFAULT_CAP) -> list:
    """(k, x_id, value, abs_err) for every base point; err against int f."""
    func = _as_function(f)
    ref = integral(action, f)
    rows = []
    for k in ks:
        num, den = _weighted_sums(action, _ball_counts(action, k, cap), func)
        for x_id, (nu, de) in enumerate(zip(num, den)):
            val = nu / de
            rows.append((k, x_id, val, abs(val - ref)))
    return rows


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
            y = action.label_mul(lab, x)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == len(action.states)


# --- maximal inequality ------------------------------------------------------

class MaximalCheck(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    holds: bool


def _first_radii(x: np.ndarray, m: np.ndarray, k: int) -> np.ndarray:
    """max(1, ceil d) for lattice offsets (X, M) of core.offset_exact; k + 1 where d > k.

    d^2 = (X + sqrt T) / 2 with T = X^2 + M^2, and 2 i^2 - X is an integer,
    so d <= i exactly when i^2 >= V = ceil((X + ceil sqrt T) / 2): the
    first radius is ceil sqrt V, from two exact integer square roots.
    Offsets with X > k^2 or |M| > 2 k^2 have d > k (d^2 >= X and
    d^2 >= |M| / 2); the others keep T <= 5 k^4.
    """
    far = (x > k * k) | (abs(m) > 2 * k * k)
    x, m = np.where(far, 0, x), np.where(far, 0, m)
    v = (x + _isqrt_vec(np.maximum(x * x + m * m - 1, 0)) + 2) // 2
    return np.where(far, k + 1, np.minimum(_isqrt_vec(v - 1) + 1, k + 1))


def discrete_maximal_check(a: dict, b: dict, k: int, eps: Rational,
                           c_emp: Rational, n: int = 1,
                           cap: int = DEFAULT_CAP) -> MaximalCheck:
    """BCP maximal bound ||a||_1 >= eps C^{-1} sum_{h in H} b(h), exact.

    s_i a(h) = sum_{g in B_i} a(gh); H collects every h with
    s_i a(h) > eps s_i b(h) at some radius i <= k (strict inequality,
    matching the lemma).  Only h in supp(b) move the right side, and the
    sums are read off first radii, so no ball is built:

      - an atom s enters s_i a(h) (and s_i b(h)) through g = s h^-1, and
        g lies in B_i exactly when d(s, h) = N(s h^-1) <= i, since d is
        right invariant;
      - so s enters at the first radius i(h, s) = max(1, ceil d(s, h)) and
        stays for every larger i, and never enters when that exceeds k;
        _first_radii finds it from the integer offset (X, M) of
        core._table_terms for h s^-1, the inverse of s h^-1, of equal norm.

    Per h, the atoms sorted by first radius give s_i a(h) and s_i b(h) as
    running sums of integer numerators over one common denominator per
    side (D_a, D_b), read at the last atom of each radius.  With eps = p/q
    the test is q D_b s_i a > p D_a s_i b; the running sums take
    core._int_dtype of these products.

    Atoms are the keys of a and b and must be lattice points of rank n
    (ValueError).  The work is |supp b| * |supp a u supp b| first radii;
    more than cap raises ResourceCapError before anything is allocated.
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
    for s in itertools.chain(a, b):
        if not isinstance(s, LatticePoint) or s.n != n:
            raise ValueError(f"atom {s!r} is not a lattice point of rank {n}")
    centers = [h for h, v in b.items() if v]
    atoms = list(dict.fromkeys([s for s, v in a.items() if v] + centers))
    check_cap(len(centers) * len(atoms), cap, "first radii")
    hit = [False] * len(centers)
    if centers and any(a.values()):
        pa, da = _common_denominator([Fraction(a.get(s, 0)) for s in atoms])
        pb, db = _common_denominator([Fraction(b.get(s, 0)) for s in atoms])
        wa, wb = eps.denominator * db, eps.numerator * da
        # the table's width bound holds 4 U^2 = 4 k^4, so where it picks int64,
        # _first_radii's X^2 + M^2 <= 5 k^4 < 2^63 fits as well
        X, M, _, _ = _table_terms(centers, atoms, [k], 1)
        first = _first_radii(X, M, k)
        order = np.argsort(first, axis=1, kind="stable")
        r = np.take_along_axis(first, order, axis=1)
        dtype = _int_dtype(max(wa * sum(map(abs, pa)), wb * sum(pb)))
        sa = np.cumsum(np.array(pa, dtype=dtype)[order], axis=1)
        sb = np.cumsum(np.array(pb, dtype=dtype)[order], axis=1)
        last = np.ones(r.shape, dtype=bool)  # last atom of its radius
        last[:, :-1] = r[:, 1:] != r[:, :-1]
        hit = np.any(last & (r <= k) & (wa * sa > wb * sb), axis=1).tolist()
    lhs = sum((abs(v) for v in a.values()), Fraction(0))
    rhs = eps / c_emp * sum((b[h] for h, ok in zip(centers, hit) if ok), Fraction(0))
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
    C defaults to 12, the palette size chi of the colouring runs (the
    `colour` command's default); nothing in covering certifies it.
    """
    func = _as_function(f)
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    exceeding = Fraction(0)
    sums = [_weighted_sums(action, _ball_counts(action, k, cap), func)
            for k in range(1, k_max + 1)]
    for i, x in enumerate(action.states):
        if any(abs(num[i] / den[i]) > eps for num, den in sums):
            exceeding += action.mass[x]
    d_emp = max(
        Fraction(ball_cardinality(action.n, 2 * k), ball_cardinality(action.n, k))
        for k in range(1, k_max + 1)
    )
    l1 = integral(action, lambda x: abs(Fraction(func(x))))
    bound = Fraction(c_emp) * d_emp / eps * l1
    return MaximalExperiment(exceeding, bound, Fraction(c_emp), d_emp)
