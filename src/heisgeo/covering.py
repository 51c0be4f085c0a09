"""Carpets, stacks, and selection machinery over balls and thickened spheres.

The pieces fit together in two staged recursions: a single-scale one that
extracts a well-separated sphere family capturing more than half of a
discrete measure, and a multi-scale one that chains such families across
kappa rounds until it either certifies a mass bound or emits a candidate
chain for the intersection-dimension test.  Every distance-against-radius
check is exact, for lattice and continuous points and for int, Fraction and
float radii alike, and so is every threshold built from radii: a sum of
radii is formed over their common denominator, never in floats.  The
carpet machinery (selection, incrementality, multiplicity, colouring,
separation) reads one core.dist_cmp_table per call and runs its greedy
loops over plain booleans; single queries go through core.dist_cmp.  Sphere
separation is decided by triangle bounds and boundary_contains' shell test;
sphere_pair_distance is a float measurement that no verdict reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .balls import DEFAULT_CAP, BallSpec, boundary_contains
from .core import (ContinuousPoint, LatticePoint, Point, _int_dtype, dist_cmp, dist_cmp_table,
                   radii_over)
from .errors import HypothesisViolation, check_cap
from .spherequad import (_mul_rows, _norm_rows, _point, _row, _sphere_rows, _unit_rows,
                         sphere_distance)

if TYPE_CHECKING:  # `heisgeo net` loads covering alone
    from .separation import ChainConfig

Num = Union[int, float, Fraction]


# --- point and number plumbing -----------------------------------------------

def point_key(p: Point):
    """Total order on points used for deterministic tie-breaking."""
    if isinstance(p, LatticePoint):
        return (0, p.a, p.b, p.m)
    return (
        1,
        tuple(z.real for z in p.z),
        tuple(z.imag for z in p.z),
        p.tau,
    )


# --- domain types -------------------------------------------------------------

@dataclass(frozen=True)
class Carpet:
    """One ball per point of a finite base set, centred at that point."""

    balls: tuple[BallSpec, ...]

    def __post_init__(self) -> None:
        if not self.balls:
            raise ValueError("carpet must cover a nonempty base")
        keys = [point_key(b.center) for b in self.balls]
        if len(set(keys)) != len(keys):
            raise ValueError("carpet has two balls at one center")

    @property
    def base(self) -> tuple[Point, ...]:
        return tuple(b.center for b in self.balls)

    @property
    def rmin(self) -> Num:
        return min(b.radius for b in self.balls)

    @property
    def rmax(self) -> Num:
        return max(b.radius for b in self.balls)

    def restrict(self, points: Iterable[Point]) -> "Carpet":
        keys = {point_key(p) for p in points}
        kept = tuple(b for b in self.balls if point_key(b.center) in keys)
        return Carpet(kept)


@dataclass(frozen=True)
class Stack:
    """Ordered carpets U_1..U_p over one shared base."""

    carpets: tuple[Carpet, ...]

    def __post_init__(self) -> None:
        if not self.carpets:
            raise ValueError("stack must have positive height")
        base = {point_key(p) for p in self.carpets[0].base}
        for c in self.carpets[1:]:
            if {point_key(p) for p in c.base} != base:
                raise ValueError("stack carpets must share one base")

    @property
    def height(self) -> int:
        return len(self.carpets)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported measure with exact nonnegative rational weights."""

    weights: Mapping[Point, Fraction]

    def __post_init__(self) -> None:
        cleaned = {}
        for p, v in self.weights.items():
            fv = Fraction(v)
            if fv < 0:
                raise ValueError("weights must be nonnegative")
            if fv:
                cleaned[p] = fv
        object.__setattr__(self, "weights", cleaned)

    @property
    def total(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))

    @property
    def support(self) -> tuple[Point, ...]:
        return tuple(sorted(self.weights, key=point_key))

    def mass(self, points: Iterable[Point]) -> Fraction:
        return sum((self.weights.get(p, Fraction(0)) for p in points), Fraction(0))


@dataclass(frozen=True)
class HeightParams:
    """chi, kappa, eps, delta, R driving the staged selection recursions."""

    chi: int
    kappa: int
    eps: Fraction
    delta: Fraction
    R: float = 2.0

    def __post_init__(self) -> None:
        if not isinstance(self.chi, int) or self.chi < 1:
            raise ValueError("chi must be a positive integer")
        if not isinstance(self.kappa, int) or self.kappa < 0:
            raise ValueError("kappa must be a nonnegative integer")
        eps, delta = Fraction(self.eps), Fraction(self.delta)
        if not 0 < eps < 1 or not 0 < delta < 1:
            raise ValueError("eps and delta must lie in (0, 1)")
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "delta", delta)
        if not self.R > 1:
            raise ValueError("R must exceed 1")


# --- separation predicates -----------------------------------------------------

def _radii_table(balls: Sequence[BallSpec]) -> tuple[np.ndarray, int]:
    """The balls' radii as integers over one denominator w, in core._int_dtype
    of 3 max(nums): no routine forms a threshold above a sum of three."""
    nums, w = radii_over(b.radius for b in balls)
    return np.array(nums, dtype=_int_dtype(3 * max(nums, default=0))), w


def _cmp_centers(balls: Sequence[BallSpec], nums, w: int) -> np.ndarray:
    """sign(d(c_i, c_j) - nums[i, j] / w) over the balls' centers."""
    centers = [b.center for b in balls]
    return dist_cmp_table(centers, centers, nums, w)


def is_well_separated(balls: Sequence[BallSpec]) -> bool:
    """Pairwise ball gaps all reach the smallest radius in the family.

    The gap is the conservative lower bound d(centers) - r1 - r2, so a
    True answer never admits a violating family.  The thresholds
    r_min + r_i + r_j are summed exactly, over the radii's common
    denominator.
    """
    if not balls:
        raise ValueError("empty ball collection")
    if len(balls) == 1:
        return True
    nums, w = _radii_table(balls)
    close = _cmp_centers(balls, np.add.outer(nums + nums.min(), nums), w) < 0
    return int(np.count_nonzero(close)) == len(balls)  # the diagonal is always close


def _sphere_gap_certified(b1: BallSpec, b2: BallSpec, w: Num) -> bool:
    """Triangle-inequality lower bounds alone prove sphere distance >= w."""
    r1, r2, w = Fraction(b1.radius), Fraction(b2.radius), Fraction(w)
    if dist_cmp(b1.center, b2.center, w + r1 + r2) >= 0:
        return True
    # one sphere deep inside the other: d(x, y) >= r_big - D - r_small
    if r1 - r2 - w >= 0 and dist_cmp(b1.center, b2.center, r1 - r2 - w) <= 0:
        return True
    if r2 - r1 - w >= 0 and dist_cmp(b1.center, b2.center, r2 - r1 - w) <= 0:
        return True
    return False


def sphere_pair_distance(b1: BallSpec, b2: BallSpec, rounds: int = 80) -> float:
    """Alternating-projection estimate of dist(S(c1,r1), S(c2,r2)).

    Each iterate projects the current witness onto the opposite sphere, so
    the value decreases monotonically; the result is an upper bound on the
    true distance realized by an explicit witness pair.  Four starts, the
    point of S(c2,r2) nearest c1 and three seeded random ones, iterate as
    one batch of rows, each until its own distance stops moving.
    """
    c1, c2 = _row(b1.center)[None], _row(b2.center)[None]
    r1, r2 = float(b1.radius), float(b2.radius)
    if np.array_equal(c1, c2):
        return abs(r1 - r2)

    def project(y, c, r):  # nearest points of S_r(c), by right translation to the origin
        dist, w = sphere_distance(_mul_rows(y, -c), r)
        return dist, _mul_rows(w, c)

    xi = _unit_rows(np.random.default_rng(7).normal(size=(3, c1.shape[1])))
    y = np.vstack([project(c1, c2, r2)[1], _mul_rows(_sphere_rows(np.full(3, r2), xi), c2)])
    prev, best = np.full(len(y), math.inf), math.inf
    for _ in range(rounds):
        _, x = project(y, c1, r1)
        dy, y = project(x, c2, r2)
        best = min(best, float(_norm_rows(_mul_rows(x, -y)).min()))  # d(x, y) = N(x y^-1)
        moving = ~(np.abs(prev - dy) < 1e-12)
        if not moving.any():
            break
        y, prev = y[moving], dy[moving]
    return best


def is_sphere_separated(balls: Sequence[BallSpec]) -> bool:
    """Pairwise sphere-to-sphere distances all reach the smallest radius.

    A pair passes on _sphere_gap_certified's triangle bounds (which decide
    exact ties and the concentric case), or when one center lies outside the
    other sphere's shell of thickness r + rmin, r its own radius: every point
    of its sphere is then farther than rmin from the other sphere.  So True
    is exact wherever boundary_contains is, that is, up to its gauge band
    (ROADMAP item 2).  False means some pair is left uncertified, not that
    its spheres come closer than rmin.
    """
    if not balls:
        raise ValueError("empty ball collection")
    rmin = Fraction(min(b.radius for b in balls))
    return all(_sphere_gap_certified(a, b, rmin)
               or not boundary_contains(a.center, BallSpec(b.center, b.radius,
                                                           Fraction(a.radius) + rmin))
               or not boundary_contains(b.center, BallSpec(a.center, a.radius,
                                                           Fraction(b.radius) + rmin))
               for i, a in enumerate(balls) for b in balls[i + 1:])


# --- Besicovitch selection and colouring ---------------------------------------

def besicovitch_select(carpet: Carpet) -> list[BallSpec]:
    """Greedy largest-first subcover with pairwise-uncovered centers.

    Ties on the radius break on the center key, so the output is a
    deterministic incremental sequence covering the base.
    """
    order = sorted(carpet.balls, key=lambda b: point_key(b.center))
    order.sort(key=lambda b: b.radius, reverse=True)
    inside = (_cmp_centers(order, *_radii_table(order)) <= 0).tolist()  # [i][j]: c_i in ball j
    chosen: list[int] = []
    for i, row in enumerate(inside):
        if not any(row[j] for j in chosen):
            chosen.append(i)
    return [order[i] for i in chosen]


def is_incremental(seq: Sequence[BallSpec]) -> bool:
    """Radii nonincreasing and no center inside an earlier ball."""
    if len(seq) < 2:
        return True
    if any(a.radius < b.radius for a, b in zip(seq, seq[1:])):
        return False
    return not np.tril(_cmp_centers(seq, *_radii_table(seq)) <= 0, -1).any()


def selection_multiplicity(balls: Sequence[BallSpec], points: Iterable[Point]) -> int:
    """max over the sample of how many balls contain each point."""
    points = list(points)
    if not points or not balls:
        return 0
    inside = dist_cmp_table(points, [b.center for b in balls], *_radii_table(balls)) <= 0
    return int(inside.sum(axis=1).max())


class ColourPartition(NamedTuple):
    classes: list[list[BallSpec]]
    chi_requested: int
    chi_used: int

    @property
    def overflowed(self) -> bool:
        return self.chi_used > self.chi_requested


def colour_partition(seq: Sequence[BallSpec], chi: int) -> ColourPartition:
    """Greedy colouring over the predecessor-radius window.

    Ball i must differ from every earlier ball within gap r(i-1); since the
    radii are nonincreasing, same-coloured pairs end up with gaps strictly
    above the later radius, which makes every class well-separated.  When
    chi colours do not suffice the palette grows and the overflow is
    reported rather than raised.
    """
    if chi < 1:
        raise ValueError("chi must be a positive integer")
    if not is_incremental(seq):
        raise ValueError("colour_partition needs an incremental sequence")
    if len(seq) < 2:
        return ColourPartition([list(seq)] if seq else [], chi, len(seq))
    # ball i clashes with an earlier ball j when d(c_i, c_j) <= r_(i-1) + r_i + r_j
    nums, w = _radii_table(seq)
    window = np.concatenate((nums[:1], nums[:-1]))
    near = (_cmp_centers(seq, np.add.outer(window + nums, nums), w) <= 0).tolist()
    colours: list[int] = []
    for i, row in enumerate(near):
        clash = {colours[j] for j in range(i) if row[j]}
        c = 0
        while c in clash:
            c += 1
        colours.append(c)
    used = (max(colours) + 1) if colours else 0
    classes = [
        [seq[j] for j in range(len(seq)) if colours[j] == c] for c in range(used)
    ]
    return ColourPartition(classes, chi, used)


# --- greedy nets ----------------------------------------------------------------

def _metric_d_rows(rows: np.ndarray, q: np.ndarray, n: int) -> np.ndarray:
    """d(row, q) for flat coordinate rows (Re z | Im z | tau)."""
    dz = rows[:, : 2 * n] - q[: 2 * n]
    x = np.einsum("ij,ij->i", dz, dz)
    twist = rows[:, :n] @ q[n : 2 * n] - rows[:, n : 2 * n] @ q[:n]
    two_delta = 2.0 * (rows[:, 2 * n] - q[2 * n]) - twist
    return np.sqrt(0.5 * (x + np.hypot(x, two_delta)))


def _net_stencil(side: int, h: float, n: int) -> np.ndarray:
    """Flat offsets, in a C-order cube grid of the given side and step h, of
    the cells that can lie within 4h (the net's rho/2) of a center in the
    unit ball.

    With x = |dz|^2, d <= H iff |2 Delta| <= 2 H sqrt(H^2 - x), so |dz| <= H.
    2 Delta = 2 dtau - twist and |twist| = |omega(dz, c_z)| <= |dz| |c_z|
    <= |dz|, so |dtau| <= H sqrt(H^2 - x) + |dz| / 2.  In cells, with e the
    horizontal offset and t the vertical one: |e| <= 4 and
    |t| <= 4 h sqrt(16 - |e|^2) + |e| / 2.  Widening both by 1e-3 of a cell
    absorbs the rounding of the grid and of d.
    """
    r = 4.001
    reach = [min(4, side - 1)] * (2 * n) + [min(int(r * r * h + r / 2 + 1e-3), side - 1)]
    box = np.indices([2 * w + 1 for w in reach]).reshape(2 * n + 1, -1).T - reach
    e2 = np.einsum("ij,ij->i", box[:, :-1], box[:, :-1])
    bound = r * h * np.sqrt(np.maximum(r * r - e2, 0.0)) + np.sqrt(e2) / 2.0 + 1e-3
    return box[(e2 <= r * r) & (np.abs(box[:, -1]) <= bound)] @ side ** np.arange(2 * n, -1, -1)


def _clear_near(padded: np.ndarray, pad: int, flat_grid: np.ndarray, c: int,
                offsets: np.ndarray, half: float, n: int) -> np.ndarray:
    """Clear the set cells c + offsets of the flat mask stored from padded[pad]
    that lie within half of cell c, and return them.  An offset that wraps
    past a grid edge names another cell, decided by its true coordinates.
    """
    near = c + offsets[padded[c + pad + offsets]]
    near = near[_metric_d_rows(flat_grid[near], flat_grid[c], n) <= half]
    padded[pad + near] = False
    return near


def covering_net(n: int, rho: float, cap: int = DEFAULT_CAP) -> tuple[int, list[ContinuousPoint]]:
    """Greedy rho/2-net of the unit ball, sampled on a grid of step rho/8.

    The unit ball of the metric is the Euclidean unit ball, so the sample
    is every grid point of step rho/8 inside it.  The greedy order is the
    origin first, then the grid in C order, which is lexicographic in
    (Re z | Im z | tau); a point becomes a center when it is more than
    rho/2 from every earlier center, so every sample point is covered.

    The sweep keeps a flat mask of the sample points no center covers yet,
    padded at both ends by the largest offset of `_net_stencil`, so the
    stencil's cells around any center never leave the mask.  Each new
    center clears the masked stencil cells within rho/2 of it, its own
    cell among them, and owns the cells it clears; the next center is the
    first masked cell after it: every cell before it is a center or
    covered already.  That picks exactly the centers of the plain greedy
    loop, which keeps a point iff min_j d(c_j, point) > rho/2.
    `_metric_d_rows` with the cell and the center swapped gives
    bit-identical values: dz and 2 Delta are only negated exactly (each
    twist term is the same dot product either way), and neither |dz|^2
    nor the hypot sees the sign.  Coverage is then checked from the owners
    alone: every sample point must be owned by a center, each center by
    itself, and the distances to each center, recomputed as one block of
    its cells, must be within rho/2.

    A grid of more than cap cells raises ResourceCapError before anything
    is allocated.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < rho < math.inf:
        raise ValueError("rho must be positive and finite")
    h = float(rho) / 8.0
    # a subnormal rho makes h = 0 or 1/h = inf: the grid is past the cap
    span = int(math.floor(1.0 / h)) if h * cap >= 1.0 else cap
    dim = 2 * n + 1
    cells = (2 * span + 1) ** dim
    check_cap(cells, cap, "net grid cells")
    axis = np.arange(-span, span + 1, dtype=float) * h
    flat_grid = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    in_ball = np.einsum("ij,ij->i", flat_grid, flat_grid) <= 1.0 + 1e-12
    half = float(rho) / 2.0
    offsets = _net_stencil(2 * span + 1, h, n)
    pad = int(offsets.max())

    padded = np.pad(in_ball, pad)
    flat = padded[pad : pad + cells]
    owner = np.full(cells, -1, dtype=np.intp)
    centers, pos = [cells // 2], 0  # the origin is the middle cell
    while True:
        owner[_clear_near(padded, pad, flat_grid, centers[-1], offsets, half, n)] = len(centers) - 1
        pos += int(np.argmax(flat[pos:]))
        if not flat[pos]:
            break
        centers.append(pos)

    # The recheck runs `_metric_d_rows` on each center's block of owned cells,
    # as the sweep did: for n >= 2 a twist taken over all cells at once (by
    # einsum) rounds differently, and so does a one-row `rows @ q`, which is
    # why each block holds its center's own row (d = 0)
    owned = owner[in_ball]
    covered = (owned.min() >= 0 and owned.max() < len(centers)
               and np.array_equal(owner[centers], np.arange(len(centers))))
    if covered:
        ends = np.cumsum(np.bincount(owned))[:-1]
        blocks = np.split(flat_grid[in_ball][np.argsort(owned, kind="stable")], ends)
        covered = all((_metric_d_rows(rows, flat_grid[c], n) <= half).all()
                      for c, rows in zip(centers, blocks))
    if not covered:
        raise RuntimeError("net left a grid point uncovered; grid resolution bug")
    points = [_point(row) for row in flat_grid[centers]]
    return len(points), points


# --- the selection recursion over thickened spheres -----------------------------

class BoundgenResult(NamedTuple):
    k: int
    selection: list[BallSpec]
    captured: tuple[Point, ...]
    report: dict


def _require_shell_mass(nu: DiscreteMeasure, stack: Stack, eps: Fraction, t: Num) -> None:
    """Hypothesis shell_mass: nu(boundary_t B) > eps * nu(B) for every stack ball."""
    support = nu.support
    for level, carpet in enumerate(stack.carpets, start=1):
        centers = [b.center for b in carpet.balls]
        inside = (dist_cmp_table(support, centers, *_radii_table(carpet.balls)) <= 0).T.tolist()
        for ball, hits in zip(carpet.balls, inside):
            ball_mass = nu.mass(y for y, hit in zip(support, hits) if hit)
            shell = BallSpec(ball.center, ball.radius, t)
            shell_mass = nu.mass(y for y in support if boundary_contains(y, shell))
            if not shell_mass > eps * ball_mass:
                raise HypothesisViolation(
                    "shell_mass",
                    f"level {level} ball at {point_key(ball.center)}: "
                    f"shell mass {shell_mass} <= eps * ball mass {eps * ball_mass}",
                )


def _require_radii_growth(stack: Stack, t: Num) -> None:
    """Hypothesis radii_growth: rmin U_1 > 2t and rmin U_(i+1) > 2 rmax U_i."""
    if not Fraction(stack.carpets[0].rmin) > 2 * Fraction(t):
        raise HypothesisViolation(
            "radii_growth", f"rmin U_1 = {stack.carpets[0].rmin} is not > 2t = {2 * Fraction(t)}"
        )
    for i in range(1, stack.height):
        lo, hi = stack.carpets[i].rmin, stack.carpets[i - 1].rmax
        if not Fraction(lo) > 2 * Fraction(hi):
            raise HypothesisViolation(
                "radii_growth", f"rmin U_{i + 1} = {lo} is not > 2 rmax U_{i} = {hi}"
            )


def boundgen_select(
    nu: DiscreteMeasure,
    F: Sequence[Point],
    stack: Stack,
    eps: Num,
    delta: Num,
    t: Num,
    chi: int,
    _verify: bool = True,
) -> BoundgenResult:
    """Stagewise selection of a well-separated sphere family capturing
    more than half the mass of F.

    Each stage takes the best colour class of a Besicovitch selection over
    the current uncaptured set, working down the stack; the exit check asks
    whether the thickened boundaries of the family collected so far already
    hold a strict majority of nu(F).  Hypotheses (strict mass fraction,
    radii growth, shell mass) are verified exactly, in that order, and the
    first failure raises with its clause; finite measure follows from
    nu(F) > 0.  The report's hypotheses dict records them and the height
    identity p = ceil(2 chi / (eps delta)), which is reported but not
    enforced, since the shell-mass hypothesis caps the usable height of
    any finite instance far below that p (see the package notes).
    maintech_chain's force=True path checks nu(F) > 0 alone and reports
    the three other clauses as None: unchecked, not held.

    postconditions.sphere_separated is is_sphere_separated's verdict: a True
    is exact wherever boundary_contains is, up to its gauge band (ROADMAP
    item 2).  A center chosen at stage l lies outside the 2 r_l shell of
    every earlier sphere, and its radius and rmin are both at most r_l, so
    the shell test certifies those pairs; pairs in one colour class are
    well separated outright.
    """
    eps, delta = Fraction(eps), Fraction(delta)
    if not 0 < eps < 1 or not 0 < delta < 1:
        raise ValueError("eps and delta must lie in (0, 1)")
    if chi < 1:
        raise ValueError("chi must be a positive integer")
    if Fraction(t) < 0:
        raise ValueError("t must be nonnegative")
    F_pts = sorted({point_key(p): p for p in F}.values(), key=point_key)
    p = stack.height
    p_required = math.ceil(Fraction(2 * chi) / (eps * delta))

    nu_F = nu.mass(F_pts)
    if nu_F <= 0:
        raise HypothesisViolation("mass_fraction", "F carries no mass")
    if _verify:
        if not nu_F > delta * nu.total:
            raise HypothesisViolation(
                "mass_fraction", f"nu(F) = {nu_F} is not > delta nu(M) = {delta * nu.total}"
            )
        _require_radii_growth(stack, t)
        _require_shell_mass(nu, stack, eps, t)
    held = True if _verify else None
    hypotheses = {
        "finite_measure": True,
        "mass_fraction": held,
        "radii_growth": held,
        "shell_mass": held,
        "height_matches_p": p == p_required,
    }

    V: list[BallSpec] = []
    stages: list[dict] = []
    for l in range(p):
        r_l = stack.carpets[p - l - 1].rmax
        captured: tuple[Point, ...] = ()
        if l >= 1:
            thick = 2 * Fraction(r_l)
            shells = [BallSpec(B.center, B.radius, thick) for B in V]
            captured = tuple(y for y in F_pts if any(boundary_contains(y, s) for s in shells))
            cap_mass = nu.mass(captured)
            if 2 * cap_mass > nu_F:
                separated = is_sphere_separated(V)
                if not separated:
                    raise RuntimeError(
                        "postcondition (i) failed: selected sphere family "
                        "is not certified well-separated"
                    )
                report = {
                    "hypotheses": hypotheses,
                    "height": p,
                    "p_required": p_required,
                    "stages": stages,
                    "capture_thickening": thick,
                    "postconditions": {
                        "sphere_separated": separated,
                        "capture_fraction": cap_mass / nu_F,
                        "exceeds_half": True,
                    },
                }
                return BoundgenResult(p - l + 1, V, captured, report)
        if l == p - 1:
            raise HypothesisViolation(
                "termination",
                "stack exhausted before any family captured half the mass; "
                "the hypotheses cannot all hold",
            )
        captured_keys = {point_key(y) for y in captured}
        E = [y for y in F_pts if point_key(y) not in captured_keys]
        sub = stack.carpets[p - l - 1].restrict(E)
        chosen = besicovitch_select(sub)
        partition = colour_partition(chosen, chi)
        best_cls, best_mass = None, Fraction(-1)
        for cls in partition.classes:
            mass = nu.mass(
                y for y in E if any(dist_cmp(y, b.center, b.radius) <= 0 for b in cls)
            )
            if mass > best_mass:
                best_cls, best_mass = cls, mass
        e_mass = nu.mass(E)
        if best_mass * partition.chi_used < e_mass:
            raise RuntimeError("pigeonhole failed: no colour class holds nu(E)/chi")
        stages.append(
            {
                "l": l,
                "carpet_level": p - l,
                "selected": len(chosen),
                "classes_used": partition.chi_used,
                "class_mass": best_mass,
                "uncaptured_mass": e_mass,
            }
        )
        V.extend(best_cls)
    raise AssertionError("unreachable: loop exits via capture or termination")


# --- stack heights ---------------------------------------------------------------

class HeightResult(NamedTuple):
    q: int
    q_list: tuple[int, ...]
    p_list: tuple[int, ...]
    stated_bound_holds: bool
    proof_end_bound_holds: bool


def stack_height(params: HeightParams) -> HeightResult:
    """q_i = p_i (1 + q_{i+1}) with p_i = ceil(2^{i+1} chi / (eps delta)).

    Also verifies the stated closed-form bound with exponents kappa and
    kappa^2, and evaluates the proof-end variant with kappa-1 exponents;
    the two disagree, so both flags are reported rather than resolved.
    """
    chi, kappa = params.chi, params.kappa
    ed = params.eps * params.delta
    p_list = tuple(math.ceil(Fraction(2 ** (i + 1) * chi) / ed) for i in range(kappa))
    q = [0] * (kappa + 1)
    for i in range(kappa - 1, -1, -1):
        q[i] = p_list[i] * (1 + q[i + 1])

    def bound_sq(a: int, b: int) -> Fraction:
        # (kappa (2 sqrt2 chi/(eps delta))^a sqrt2^b)^2 is rational
        return Fraction(kappa * kappa) * (Fraction(8 * chi * chi) / (ed * ed)) ** a * 2 ** b

    stated = Fraction(q[0]) ** 2 <= bound_sq(kappa, kappa * kappa)
    if kappa == 0:
        proof_end = True
    else:
        proof_end = Fraction(q[0]) ** 2 <= bound_sq(kappa - 1, (kappa - 1) ** 2)
    return HeightResult(q[0], tuple(q), p_list, bool(stated), bool(proof_end))


# --- the chain construction -------------------------------------------------------

@dataclass(frozen=True)
class MassBound:
    """The theorem's conclusion branch: nu(F) <= delta nu(M)."""

    nu_F: Fraction
    bound: Fraction
    report: dict


@dataclass(frozen=True)
class Chain:
    """Candidate chain for the intersection-dimension test.

    x sits in every thickened sphere; config.points[i] is the i-th sphere's
    center, drawn from F_{i-1}.  conditions is separation.certify_chain's
    record of the intersection-dimension clauses, re-certified with the
    exact boundary test: thickness_floor (a: every t_i >= 1), radius_scale
    (b: r_i >= R t_1 ... t_i), memberships (c: each center lies in every
    earlier thickened sphere) and witness_in_all (x lies in all of them).
    """

    x: Point
    config: ChainConfig
    conditions: dict
    report: dict


def maintech_chain(
    nu: DiscreteMeasure,
    F: Sequence[Point],
    stack: Stack,
    params: HeightParams,
    t: Num,
    force: bool = False,
) -> Union[MassBound, Chain]:
    """Either certify nu(F) <= delta nu(M) or emit a kappa-chain candidate.

    The contradiction path runs kappa staged selections, each over the
    strided substack the height recursion dictates, halving the tracked
    mass fraction per stage; a point of the final set yields the chain.
    force=True skips the hypothesis checks (growth, shell mass, height) so
    the staged machinery can be exercised on instances small enough to
    build; the emitted chain's conditions are still re-certified honestly.
    """
    from .separation import ChainConfig, certify_chain  # `heisgeo net` loads covering alone

    heights = stack_height(params)
    F_pts = sorted({point_key(p): p for p in F}.values(), key=point_key)
    if not force:
        for i in range(1, stack.height):
            lo = Fraction(stack.carpets[i].rmin)
            hi = Fraction(stack.carpets[i - 1].rmax)
            if not lo > 2 * hi * hi:
                raise HypothesisViolation(
                    "radii_growth_squared",
                    f"rmin U_{i + 1} = {lo} is not > 2 (rmax U_{i})^2",
                )
        floor = 7 * max(Fraction(t), Fraction(params.R))
        if not Fraction(stack.carpets[0].rmin) > floor:
            raise HypothesisViolation(
                "radii_floor", f"rmin U_1 = {stack.carpets[0].rmin} is not > 7 max(t, R)"
            )
        _require_shell_mass(nu, stack, params.eps, t)
        if stack.height < heights.q:
            raise HypothesisViolation(
                "height", f"stack height {stack.height} is below q = {heights.q}"
            )

    base_report = {
        "q": heights.q,
        "q_list": list(heights.q_list),
        "p_list": list(heights.p_list),
        "forced": force,
    }
    nu_F = nu.mass(F_pts)
    if nu_F <= params.delta * nu.total:
        report = dict(base_report, outcome="mass_bound")
        return MassBound(nu_F, params.delta * nu.total, report)

    N = 0
    F_i = F_pts
    shells: list[list[BallSpec]] = []  # stage i's selection, thickened by its t_i
    stage_reports: list[dict] = []
    prev_mass = nu_F
    for i in range(params.kappa):
        stride = 1 + heights.q_list[i + 1]
        levels = [N + j * stride for j in range(1, heights.p_list[i] + 1)]
        if levels[-1] > stack.height:
            raise HypothesisViolation(
                "height", f"stage {i + 1} needs stack level {levels[-1]}"
            )
        sub = Stack(tuple(stack.carpets[lv - 1].restrict(F_i) for lv in levels))
        delta_i = params.delta / 2 ** i
        res = boundgen_select(
            nu, F_i, sub, params.eps, delta_i, t, params.chi, _verify=not force
        )
        n_next = res.k - 1
        N = N + n_next * stride
        t_i = 2 * Fraction(stack.carpets[N - 1].rmax)
        new_mass = nu.mass(res.captured)
        if 2 * new_mass <= prev_mass:
            raise RuntimeError(f"stage {i + 1} lost the half-mass invariant")
        stage_reports.append(
            {
                "stage": i + 1,
                "n": n_next,
                "N": N,
                "t": t_i,
                "mass": new_mass,
                "spheres": len(res.selection),
            }
        )
        shells.append([BallSpec(b.center, b.radius, t_i) for b in res.selection])
        F_i = list(res.captured)
        prev_mass = new_mass

    ranked = sorted(F_i, key=lambda y: (-nu.weights.get(y, Fraction(0)), point_key(y)))
    x = ranked[0]
    chosen = [next(s for s in stage if boundary_contains(x, s)) for stage in shells]
    report = dict(base_report, outcome="chain", stages=stage_reports)
    config = ChainConfig(tuple(s.center for s in chosen), tuple(s.radius for s in chosen),
                         tuple(s.thickening for s in chosen), params.R)
    return Chain(x, config, certify_chain(config, x), report)


# --- synthetic instances -----------------------------------------------------------

def _axis_point(j: int) -> LatticePoint:
    return LatticePoint((j,), (0,), 0)


def synthetic_boundgen_instance(
    f: int, t: int, height: int, clusters: int = 1, seed: int = 0
):
    """Axis-cluster instance satisfying every selection hypothesis.

    Each cluster holds f consecutive axis points with near-uniform masses;
    carpet i uses one shared radius R_i with R_1 = 2t+1 and R_{i+1} = 2R_i+1,
    and one shell atom per cluster and level carries doubled mass, which
    keeps nu(boundary_t B) > nu(B)/4 for every stack ball.  The top-level
    shells then capture everything but the selected centers, so the
    recursion exits at its first check with k = height.

    Returns (nu, F, stack, eps, delta, t).
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    if not 3 <= f <= t + 1:
        raise ValueError("need 3 <= f <= t + 1")
    if height < 2:
        raise ValueError("height must be at least 2")
    if clusters not in (1, 2):
        raise ValueError("clusters must be 1 or 2")
    rng = np.random.default_rng(seed)
    radii = []
    r = 2 * t + 1
    for _ in range(height):
        radii.append(r)
        r = 2 * r + 1
    spacing = 4 * radii[-1] + 4 * f
    pts: list[LatticePoint] = []
    weights: dict[Point, Fraction] = {}
    for c in range(clusters):
        for j in range(f):
            p = _axis_point(c * spacing + j)
            pts.append(p)
            weights[p] = 1 + Fraction(int(rng.integers(0, 10)), 100)
    nu_F = sum(weights.values(), Fraction(0))
    shift = (f - 1) // 2  # keeps every atom strictly inside all f shells
    acc = Fraction(0)
    atom_masses = []
    for _ in range(height):
        a = nu_F + acc
        atom_masses.append(a)
        acc += a
    for c in range(clusters):
        for i, R in enumerate(radii):
            weights[_axis_point(c * spacing + R + shift)] = atom_masses[i]
    nu = DiscreteMeasure(weights)
    carpets = tuple(
        Carpet(tuple(BallSpec(p, R) for p in pts)) for R in radii
    )
    delta = Fraction(9, 10) * nu_F / nu.total
    return nu, tuple(pts), Stack(carpets), Fraction(1, 4), delta, t
