"""Exact counting and enumeration of lattice balls B_k and their boundaries.

Every lattice set here is a FiberSet: integer intervals of central values
over horizontal fibers.  Fix the horizontal coordinate y of a lattice point
and the central values of a ball form an interval of integers in a single
parity class (m = <ya, yb> mod 2).  For a ball of radius u/v centred at the
origin the fiber over y with X = |y|^2 is

    { m : v^4 m^2 <= 4 u^2 (u^2 - v^2 X), m in the parity class },

whose bound comes from the one overflow-checked helper _halfwidth.  A
translate g B or B g moves each fiber as a whole, so balls about any center,
shifted balls sigma B, the difference B triangle sigma B and the shells
B_i minus B_(i-1) are all fiber sets built by intersecting, subtracting and
merging intervals fiber by fiber.  Counts never materialize points;
enumeration writes each point once, already lex-sorted.

The t-boundary d_t B_r(x) is the set of points within distance t of the
sphere S_r(x).  Exact integer screens settle most points: a quick-out
(|d(y,x) - r| > t, the triangle inequality) and a quick-in (the dilation
witness gives dist <= sqrt|d^2 - r^2|).  Between them the certified
minimum of the sphere gauge (spherequad) decides, accepted up to the fixed
band _ACCEPT; no other float enters a count.  In boundary_contains the
exact-* routes are integer decisions on the exact offset y x^-1
(core.offset_exact) for every input, the minimizer-* routes the gauge's.
d_t B_k(0) is a FiberSet, since each of its fibers is one band
{lo <= |m| <= hi} of one parity class:

  - d is right-invariant, so y is within t of S_k(0) exactly when y = w s
    with N(w) <= t and N(s) = k.
  - Fix z = z_y and z_w, so z_s = z - z_w.  The fiber of S_k(0) over z_s is
    {+-h_k(|z_s|)}, that of B_t(0) over z_w is [-h_t(|z_w|), h_t(|z_w|)],
    and the product adds the twist (1/2) omega(z_w, z).  So the central
    values over z are the union of +-h_k(|z - z_w|) + (1/2) omega(z_w, z)
    + [-h_t, h_t].
  - For each sign, that union over the convex set {|z_w| <= t,
    |z - z_w| <= k} is an interval: a continuous image of a connected set.
  - The flip composed with a U(n) rotation fixes the origin and S_k(0) and
    maps the fiber over z onto its negative.  A symmetric union of at most
    two intervals is {lo <= |m| <= hi}.

Along a fiber d^2 grows with |m|.  The quick-in run k^2 - t^2 <= d^2 <=
k^2 + t^2 lies in the band, or m = 0 does where there is no such run
(|z|^2 > k^2 + t^2; a horizontal point attains the triangle bound).  So the
band meets the annulus run below it as a top end and the run above as a
bottom end, whether or not the quick-in run holds a lattice point, and the
gauge decides only where those two ends fall, by bisection, once per |z|^2
and parity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .core import (
    LatticePoint,
    Point,
    Radius,
    inverse,
    lattice_identity,
    multiply,
    offset_cmp,
    offset_exact,
    radius_parts,
)
from .errors import ResourceCapError
from .spherequad import _row, gauge_min

DEFAULT_CAP = 10 ** 8
_ACCEPT = 1.0 + 1e-9  # a gauge minimum up to this certifies "within t of the sphere"
_PAIR_BATCH = 1 << 16  # (fiber, center) pairs per batch of the product count


# --- integer helpers --------------------------------------------------------

def _isqrt_vec(x: np.ndarray) -> np.ndarray:
    """Elementwise floor(sqrt(x)) for nonnegative int64, exactly."""
    r = np.floor(np.sqrt(x.astype(np.float64))).astype(np.int64)
    r = np.where((r + 1) * (r + 1) <= x, r + 1, r)
    r = np.where(r * r > x, r - 1, r)
    return r


def _count_congruent(lo, hi, residue, modulus):
    """# integers in [lo, hi] congruent to residue mod modulus, elementwise; 0 when lo > hi."""
    return np.maximum((hi - residue) // modulus - (lo - 1 - residue) // modulus, 0)


def _halfwidth(p: int, q: int, x: np.ndarray, strict: bool = False) -> np.ndarray:
    """Largest |m| with d((y, m), 0)^2 <= p/q (< p/q when strict), -1 if none.

    x holds X = |y|^2 and p >= 0.  As d^2 = (X + sqrt(X^2 + m^2)) / 2, the
    bound is X <= p/q and q^2 m^2 <= 4 p (p - q X), with terms at most
    4 p max(p, q X) (4 u^4 for a ball of radius u/v): int64 while that is at
    most 2^62, Python integers beyond.
    """
    if 4 * p * max(p, q * int(np.max(x, initial=0))) <= 2 ** 62:
        isqrt = _isqrt_vec
    else:
        x = np.asarray(x).astype(object)
        isqrt = np.frompyfunc(math.isqrt, 1, 1)
    t = 4 * p * (p - q * x)
    if strict:
        return np.where(t > 0, isqrt(np.maximum(t - 1, 0)) // q, -1)
    return np.where(p - q * x >= 0, isqrt(np.maximum(t, 0)) // q, -1)


def _disk(n: int, u: int, v: int, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Horizontal points with |y| <= u/v as lex-sorted columns (2n, N), and X = |y|^2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    side = 2 * (u // v) + 1
    cells = side ** (2 * n)
    if cells > cap:
        raise ResourceCapError(
            f"fiber grid of {cells} cells exceeds cap {cap}", predicted=cells, cap=cap
        )
    grid = np.indices((side,) * (2 * n), dtype=np.int64).reshape(2 * n, -1) - u // v
    x = np.sum(grid * grid, axis=0)
    keep = x <= (u * u) // (v * v)
    return np.compress(keep, grid, axis=1), x[keep]


def _merge_runs(group: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Join intervals of one parity class in the same group that overlap or touch.

    Returns (first, top): for each maximal run, in (group, lo) order, the
    index of the entry that opens it and the run's upper bound.  Touching
    means a gap of one parity step (2), since all bounds share the class.
    """
    if lo.size == 0:
        return np.empty(0, dtype=np.int64), hi[:0]
    span = hi.max() - lo.min() + 3
    order = np.argsort(group * span + (lo - lo.min()))
    group, lo, hi = group[order], lo[order], hi[order]
    # a running max of hi restarted per group: each group is offset above the last
    offset = group * span
    run = np.maximum.accumulate(hi + offset) - offset
    start = np.ones(lo.size, dtype=bool)
    start[1:] = (group[1:] != group[:-1]) | (lo[1:] > run[:-1] + 2)
    first = np.flatnonzero(start)
    last = np.r_[first[1:] - 1, lo.size - 1]
    return order[first], run[last]


# --- fiber-interval sets ----------------------------------------------------

@dataclass(frozen=True)
class FiberSet:
    """Lattice points as integer intervals of m over horizontal points y.

    Entry i holds the points (y[:, i], m) with lo[i] <= m <= hi[i] and m in
    the fiber's parity class <a, b> mod 2; lo and hi already lie in that
    class and every entry is nonempty.  Entries are sorted by (y, lo).  A
    fiber has two entries only where a difference splits it, and then they
    are disjoint, so rows() comes out lex-sorted without sorting any points.
    """

    y: np.ndarray   # (2n, N) int64, column i = (a_1..a_n, b_1..b_n) of entry i
    lo: np.ndarray  # (N,) int64, or Python ints for huge radii
    hi: np.ndarray  # (N,)

    @classmethod
    def ball(cls, n: int, r: Radius, cap: int = DEFAULT_CAP, strict: bool = False) -> "FiberSet":
        """Fibers of B_r(0), the open ball when strict; B_r(c) is ball(...).translate(c)."""
        u, v = radius_parts(r)
        y, x = _disk(n, u, v, cap)
        w = _halfwidth(u * u, v * v, x, strict)
        hull = w - (w - np.sum(y[:n] * y[n:], axis=0)) % 2
        keep = hull >= 0
        return cls(np.compress(keep, y, axis=1), -hull[keep], hull[keep])

    def sizes(self) -> np.ndarray:
        """Points per entry."""
        return (self.hi - self.lo) // 2 + 1

    def count(self) -> int:
        return int(np.sum(self.sizes()))

    def rows(self) -> np.ndarray:
        """Every point once as (a_1..a_n, b_1..b_n, m), lex-sorted."""
        sizes = self.sizes().astype(np.int64)
        total = int(sizes.sum())
        d = self.y.shape[0]
        out = np.empty((total, d + 1), dtype=np.int64)
        for j in range(d):
            out[:, j] = np.repeat(self.y[j], sizes)
        m = out[:, d]
        m[:] = np.arange(total)
        m *= 2
        m += np.repeat(self.lo.astype(np.int64) - 2 * (np.cumsum(sizes) - sizes), sizes)
        return out

    def translate(self, g: LatticePoint, left: bool = False) -> "FiberSet":
        """S * g, or g * S when left.

        Points shift by z_g and each fiber's m by m_g +- Im<z_y, z_g>, a
        constant per fiber, so entry order and parity classes are kept.
        """
        n = self.y.shape[0] // 2
        ga = np.array(g.a, dtype=np.int64)
        gb = np.array(g.b, dtype=np.int64)
        twist = gb @ self.y[:n] - ga @ self.y[n:]
        shift = g.m + (-twist if left else twist)
        zg = np.concatenate([ga, gb])[:, None]
        return FiberSet(self.y + zg, self.lo + shift, self.hi + shift)

    def _match(self, other: "FiberSet") -> np.ndarray:
        """Index of other's entry over each entry's fiber, or -1.

        other must have one entry per fiber, as balls and their translates
        do.  Fibers are keyed in mixed radix over the box both sets share,
        which is no larger than either set's grid, so keys fit int64 and
        keep lex order.
        """
        match = np.full(self.lo.size, -1, dtype=np.int64)
        if not (self.lo.size and other.lo.size):
            return match
        low = np.maximum(self.y.min(axis=1), other.y.min(axis=1))
        high = np.minimum(self.y.max(axis=1), other.y.max(axis=1))

        def keyed(y):
            idx = np.flatnonzero(np.all((y >= low[:, None]) & (y <= high[:, None]), axis=0))
            key = np.zeros(idx.size, dtype=np.int64)
            for j in range(y.shape[0]):
                key = key * (high[j] - low[j] + 1) + (y[j, idx] - low[j])
            return idx, key

        ia, ka = keyed(self.y)
        ib, kb = keyed(other.y)
        if kb.size == 0:
            return match
        pos = np.minimum(np.searchsorted(kb, ka), kb.size - 1)
        hit = kb[pos] == ka
        match[ia[hit]] = ib[pos[hit]]
        return match

    def intersect(self, other: "FiberSet") -> "FiberSet":
        """self & other; other has one entry per fiber."""
        j = self._match(other)
        hit = j >= 0
        y, lo, hi = np.compress(hit, self.y, axis=1), self.lo[hit], self.hi[hit]
        lo = np.maximum(lo, other.lo[j[hit]])
        hi = np.minimum(hi, other.hi[j[hit]])
        keep = lo <= hi
        return FiberSet(np.compress(keep, y, axis=1), lo[keep], hi[keep])

    def difference(self, other: "FiberSet") -> "FiberSet":
        """self minus other; other has one entry per fiber, which may split one of self's."""
        if other.lo.size == 0:
            return self
        j = self._match(other)
        hit = j >= 0
        j = np.where(hit, j, 0)
        below = np.where(hit, np.minimum(self.hi, other.lo[j] - 2), self.hi)
        above = np.where(hit, np.maximum(self.lo, other.hi[j] + 2), self.hi + 2)
        lo = np.stack([self.lo, above], axis=1).ravel()
        hi = np.stack([below, self.hi], axis=1).ravel()
        keep = lo <= hi
        return FiberSet(np.compress(keep, np.repeat(self.y, 2, axis=1), axis=1), lo[keep], hi[keep])

    def union(self, other: "FiberSet") -> "FiberSet":
        """self | other, overlapping and touching intervals merged."""
        y = np.concatenate([self.y, other.y], axis=1)
        lo = np.concatenate([self.lo, other.lo])
        order = np.lexsort(y[::-1])
        new_fiber = np.ones(order.size, dtype=bool)
        new_fiber[1:] = np.any(y[:, order[1:]] != y[:, order[:-1]], axis=0)
        fiber = np.empty(order.size, dtype=np.int64)
        fiber[order] = np.cumsum(new_fiber)
        first, top = _merge_runs(fiber, lo, np.concatenate([self.hi, other.hi]))
        return FiberSet(y.take(first, axis=1), lo[first], top)

    def symmetric_difference(self, other: "FiberSet") -> "FiberSet":
        """self ^ other; both have one entry per fiber."""
        return self.difference(other).union(other.difference(self))

    def corner_counts(self, modulus: int) -> np.ndarray:
        """(entries, modulus) counts of points by matrix corner (m + <a,b>)/2 mod modulus."""
        n = self.y.shape[0] // 2
        s = np.sum(self.y[:n] * self.y[n:], axis=0)
        c_lo = (self.lo + s) // 2
        c_hi = (self.hi + s) // 2
        return _count_congruent(c_lo[:, None], c_hi[:, None], np.arange(modulus), modulus)


# --- ball tables ------------------------------------------------------------

@dataclass(frozen=True)
class BallSpec:
    """A metric ball with an optional boundary thickening t."""

    center: Point
    radius: Union[int, float, Fraction]
    thickening: Union[int, float, Fraction] = 0

    def __post_init__(self) -> None:
        if radius_parts(self.radius)[0] == 0:
            raise ValueError("radius must be positive")
        radius_parts(self.thickening)  # ValueError unless finite and nonnegative


def _lattice_points(n: int, coords: np.ndarray, cap: int) -> list[LatticePoint]:
    if coords.shape[0] > cap:
        raise ResourceCapError(
            f"materializing {coords.shape[0]} points exceeds cap {cap}",
            predicted=coords.shape[0], cap=cap,
        )
    return [
        LatticePoint(tuple(row[:n]), tuple(row[n:2 * n]), int(row[2 * n]))
        for row in coords.tolist()
    ]


@dataclass(frozen=True)
class BallTable:
    """Enumerated lattice ball; coords rows are (a_1..a_n, b_1..b_n, m), lex-sorted."""

    n: int
    k: int
    center: LatticePoint
    coords: np.ndarray = field(repr=False)

    @property
    def cardinality(self) -> int:
        return self.coords.shape[0]

    def points(self, cap: int = 10 ** 6) -> list[LatticePoint]:
        return _lattice_points(self.n, self.coords, cap)


def _pair_hist(u: int, v: int) -> np.ndarray:
    """h[s, p] = #{(a, b) in Z^2 : a^2 + b^2 = s <= (u/v)^2, ab = p (mod 2)}."""
    amax = u // v
    xs = np.arange(-amax, amax + 1, dtype=np.int64)
    a = xs[:, None]
    b = xs[None, :]
    s = a * a + b * b
    smax = (u * u) // (v * v)
    mask = s <= smax
    s_flat = s[mask]
    p_flat = (a * b)[mask] % 2
    h = np.zeros((smax + 1, 2), dtype=np.int64)
    np.add.at(h, (s_flat, p_flat), 1)
    return h


def _horizontal_hist(n: int, u: int, v: int) -> np.ndarray:
    """H[S, p] over Z^{2n}: squared norm S and pairing parity sum(a_j b_j) mod 2.

    The (a_j, b_j) pairs are independent, so H is the n-fold convolution of
    the single-pair histogram, truncated at S <= (u/v)^2.
    """
    h = _pair_hist(u, v)
    smax = h.shape[0] - 1
    out = h
    for _ in range(n - 1):
        nxt = np.zeros_like(out)
        for p1 in (0, 1):
            for p2 in (0, 1):
                conv = np.convolve(out[:, p1], h[:, p2])[: smax + 1]
                nxt[:, (p1 + p2) % 2] += conv
        out = nxt
    return out


def ball_cardinality(n: int, r: Radius) -> int:
    """|B_r(0)| in H^n, exactly, without materializing points."""
    if n < 1:
        raise ValueError("n must be >= 1")
    u, v = radius_parts(r)
    if u == 0:
        return 1
    H = _horizontal_hist(n, u, v)
    M = _halfwidth(u * u, v * v, np.arange(H.shape[0], dtype=np.int64))
    total = 0
    for p in (0, 1):
        total += int(np.sum(H[:, p] * _count_congruent(-M, M, p, 2)))
    return total


def enumerate_ball(
    n: int, k: int, center: Optional[LatticePoint] = None, cap: int = DEFAULT_CAP
) -> BallTable:
    """All lattice points within distance k of center, as a sorted table.

    B_k(c) = B_k(0) * c by right invariance, so the fibers of the centred
    ball are translated as a whole and written out already in order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    card = ball_cardinality(n, k)
    if card > cap:
        raise ResourceCapError(
            f"ball of {card} points exceeds cap {cap}", predicted=card, cap=cap
        )
    if center is None:
        center = lattice_identity(n)
    fibers = FiberSet.ball(n, k, cap).translate(center)
    if fibers.count() != card:
        raise AssertionError(
            f"fiber enumeration ({fibers.count()}) disagrees with "
            f"histogram count ({card})"
        )
    return BallTable(n=n, k=k, center=center, coords=fibers.rows())


def product_ball_cardinality(n: int, k: int, cap: int = DEFAULT_CAP) -> int:
    """|B_k * B_k| exactly, fiber by fiber of the product set.

    B_k B_k is the union of balls B_k(q) over centers q in B_k.  Over a fixed
    product fiber y, the centers with horizontal part w contribute central
    values filling the hull interval Im<z_y, z_w> +- (M*_w + W) where W is
    the fiber halfwidth of B_k(q) over y; for W >= 1 consecutive centers'
    intervals overlap, so the hull is fully covered, while W = 0 contributes
    a single parity class that must match the fiber's.  The union per fiber
    is merged in batches of fibers.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    centers = FiberSet.ball(n, k, cap=cap)
    w, hull = centers.y, centers.hi
    pw = hull % 2
    y_grid, _ = _disk(n, 2 * k, 1, cap)
    if y_grid.shape[1] * w.shape[1] > 50 * cap:
        raise ResourceCapError(
            f"{y_grid.shape[1]}x{w.shape[1]} fiber pairs exceed budget",
            predicted=y_grid.shape[1] * w.shape[1], cap=50 * cap,
        )
    total = 0
    step = max(1, _PAIR_BATCH // w.shape[1])
    for start in range(0, y_grid.shape[1], step):
        ys = y_grid[:, start:start + step]
        s2 = sum((w[j][None, :] - ys[j][:, None]) ** 2 for j in range(2 * n))
        im = ys[:n].T @ w[n:] - ys[n:].T @ w[:n]  # Im<z_y, z_w>
        iy, iw = np.nonzero(s2 <= k * k)
        W = _halfwidth(k * k, 1, s2[iy, iw])
        im = im[iy, iw]
        parity = (np.sum(ys[:n] * ys[n:], axis=0) % 2)[iy]
        keep = (W >= 1) | ((im + pw[iw]) % 2 == parity)
        iy, parity = iy[keep], parity[keep]
        lo = im[keep] - hull[iw[keep]] - W[keep]
        hi = im[keep] + hull[iw[keep]] + W[keep]
        lo += (lo - parity) % 2
        hi -= (hi - parity) % 2
        first, top = _merge_runs(iy, lo, hi)
        total += int(np.sum((top - lo[first]) // 2 + 1))
    return total


@dataclass(frozen=True)
class DoublingRow:
    k: int
    card: int
    card_sq: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.card_sq, self.card)


def doubling_table(n: int, k_max: int, cap: int = DEFAULT_CAP) -> list[DoublingRow]:
    """Rows (k, |B_k|, |B_k B_k|, ratio) for k = 1..k_max."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    rows = []
    for k in range(1, k_max + 1):
        rows.append(DoublingRow(k, ball_cardinality(n, k), product_ball_cardinality(n, k, cap)))
    return rows


# --- symmetric differences and Folner ratios --------------------------------

def symmetric_difference_cardinality(
    n: int, k: int, sigma: LatticePoint, cap: int = DEFAULT_CAP
) -> tuple[int, int]:
    """(|B_k triangle sigma B_k|, |B_k|), both exact."""
    ball = FiberSet.ball(n, k, cap=cap)
    card = ball.count()
    inter = ball.intersect(ball.translate(sigma, left=True)).count()
    return 2 * (card - inter), card


def folner_ratio(n: int, k: int, sigma: LatticePoint, cap: int = DEFAULT_CAP) -> Fraction:
    """|B_k triangle sigma B_k| / |B_k| as an exact rational."""
    sym, card = symmetric_difference_cardinality(n, k, sigma, cap)
    return Fraction(sym, card)


def symmetric_difference_coords(
    n: int, k: int, sigma: LatticePoint, cap: int = DEFAULT_CAP
) -> np.ndarray:
    """All points of B_k(0) triangle sigma B_k(0) as lex-sorted coordinate rows."""
    ball = FiberSet.ball(n, k, cap=cap)
    return ball.symmetric_difference(ball.translate(sigma, left=True)).rows()


# --- thickened boundaries ---------------------------------------------------

@dataclass(frozen=True)
class BoundaryResult:
    """Outcome of the three-state boundary test; truthiness is membership."""

    inside: bool
    route: str  # exact-out | exact-in | minimizer-in | minimizer-out

    def __bool__(self) -> bool:
        return self.inside


def boundary_contains(y: Point, spec: BallSpec) -> BoundaryResult:
    """Is y within spec.thickening of the sphere of radius spec.radius?

    Exact integer screens settle almost every query, for every input; only
    points whose distance to the sphere is sandwiched between the triangle
    lower bound and the dilation-witness upper bound go to the certified
    minimizer.
    """
    off = offset_exact(y, spec.center)
    (ru, rv), (tu, tv) = radius_parts(spec.radius), radius_parts(spec.thickening)
    w = math.lcm(rv, tv)
    r, t, w2 = ru * (w // rv), tu * (w // tv), w * w  # radius r/w, thickening t/w
    # quick-out: |lam - r| > t, i.e. lam^2 outside [(r-t)^2, (r+t)^2]
    if offset_cmp(off, (r + t) ** 2, w2) > 0:
        return BoundaryResult(False, "exact-out")
    if r > t and offset_cmp(off, (r - t) ** 2, w2) < 0:
        return BoundaryResult(False, "exact-out")
    # horizontal offsets (M = 0) realize the triangle bound, dist = |lam - r|,
    # so surviving the quick-out screens already certifies membership
    if off[1] == 0:
        return BoundaryResult(True, "exact-in")
    # quick-in: dilation witness sqrt|lam^2 - r^2| <= t
    if offset_cmp(off, r * r - t * t, w2) >= 0 and offset_cmp(off, r * r + t * t, w2) <= 0:
        return BoundaryResult(True, "exact-in")
    row = _row(multiply(y, inverse(spec.center)))
    val = gauge_min(row[None, :-1], row[-1:], float(spec.radius), float(spec.thickening))
    inside = bool(val[0] <= _ACCEPT)
    return BoundaryResult(inside, "minimizer-in" if inside else "minimizer-out")


def _t_boundary(n: int, k: int, t: Radius, cap: int) -> FiberSet:
    """The fibers of d_t B_k(0), each one band lo <= |m| <= hi (module docstring)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    u, v = radius_parts(t)
    V, K = v * v, k * k * v * v
    y, x = _disk(n, *radius_parts(k + Fraction(u, v)), cap)
    par = np.sum(y[:n] * y[n:], axis=0) % 2
    # one group per occurring (|y|^2, parity); any of its fibers stands for it
    group = np.full((int(x.max()) + 1, 2), -1)
    group[x, par] = np.arange(x.size)
    gx, gp = np.nonzero(group >= 0)
    z = np.tile(y[:, group[gx, gp]].T.astype(float), (2, 1))
    group[gx, gp] = np.arange(gx.size)

    def least(p):  # least |m| of the class with lam^2 >= p / V
        b = _halfwidth(p, V, gx, strict=True).astype(np.int64) + 1
        return b + (b - gp) % 2

    def most(p):  # greatest |m| of the class with lam^2 <= p / V
        b = _halfwidth(p, V, gx).astype(np.int64)
        return b - (b - gp) % 2

    a_lo, a_hi = least(max(k * v - u, 0) ** 2), most((k * v + u) ** 2)
    q_lo, q_hi = least(max(K - u * u, 0)), most(K + u * u)
    # the annulus runs below and above the quick-in band, walked away from it, hold
    # their members first: bisect their member counts in lockstep, one call a step
    start = np.concatenate([np.minimum(a_hi, q_lo - 2), np.maximum(a_lo, q_hi + 2)])
    end = np.concatenate([a_lo, a_hi])
    step = np.repeat([-2, 2], gx.size)
    size = np.maximum((end - start) // step + 1, 0)
    # m = 0 is a member without a call (the triangle bound is attained): it
    # settles a run below the band and starts one above it
    found = np.minimum(size, np.where(end == 0, size, start == 0))
    bound = size.copy()
    while True:
        live = np.flatnonzero(found < bound)
        if not live.size:
            break
        mid = (found[live] + bound[live] + 1) // 2
        tau = (start[live] + step[live] * (mid - 1)) / 2.0
        inside = gauge_min(z[live], tau, float(k), u / v) <= _ACCEPT
        found[live] = np.where(inside, mid, found[live])
        bound[live] = np.where(inside, bound[live], mid - 1)
    edge = start + step * found  # the first non-member of each run
    g = group[x, par]
    lo = np.maximum(a_lo, edge[:gx.size] + 2)[g]
    hi = np.minimum(a_hi, edge[gx.size:] - 2)[g]
    keep = lo <= hi
    y, lo, hi = np.compress(keep, y, axis=1), lo[keep], hi[keep]
    return FiberSet(y, -hi, -lo).union(FiberSet(y, lo, hi))


def t_boundary_coords(n: int, k: int, t: Radius, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Coordinate rows of all lattice points within t of the sphere S_k(0), lex-sorted."""
    band = _t_boundary(n, k, t, cap)
    count = band.count()
    if count > cap:
        raise ResourceCapError(
            f"t-boundary of {count} points exceeds cap {cap}", predicted=count, cap=cap
        )
    return band.rows()


def t_boundary_count(n: int, k: int, t: Radius, cap: int = DEFAULT_CAP) -> int:
    """# lattice points within t of the sphere S_k(0), summed over fiber bands.

    Each fiber is one band of |m| (module docstring).  The gauge decides
    only the two ends of each band, by bisection, once per |z|^2 and parity
    for all fibers that share them: U(n) rotations and the flip fix the
    origin and the sphere, and the gauge reads only |z|^2 and |tau|.  No
    point is materialized; cap bounds the horizontal grid of B_(k+t).
    """
    return _t_boundary(n, k, t, cap).count()


def sphere_cardinality(n: int, k: int) -> int:
    """# lattice points with d(p, 0) = k exactly (the t = 0 boundary)."""
    return t_boundary_count(n, k, 0)
