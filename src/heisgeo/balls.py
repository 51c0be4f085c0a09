"""Exact counting and enumeration of lattice balls B_k and their boundaries.

Every lattice set here is a FiberSet: integer intervals of central values
over horizontal fibers.  Fix the horizontal coordinate y of a lattice point
and the central values of a ball form an interval of integers in a single
parity class (m = <ya, yb> mod 2).  For a ball of radius u/v centred at the
origin the fiber over y with X = |y|^2 is

    { m : v^4 m^2 <= 4 u^2 (u^2 - v^2 X), m in the parity class },

whose bound _halfwidth computes in the width core._int_dtype picks.  A
translate g B or B g moves each fiber as a whole, so balls about any center,
shifted balls sigma B, the difference B triangle sigma B and the shells
B_i minus B_(i-1) are all fiber sets built by intersecting, subtracting and
merging intervals fiber by fiber.  Counts never materialize points;
enumeration writes each point once, already lex-sorted.

The group G is generated by the quarter turns z_j -> i z_j of one pair
((a_j, b_j) -> (-b_j, a_j)), the permutations of the pairs (a_j, b_j) and
the flip (a <-> b in every pair, m -> -m).  Each g in G is an automorphism of
H^n(Z): turns and permutations are unitary and keep omega, the product's
twist; the flip negates omega, and m -> -m makes up for it.  g keeps |z|^2
and |m|, all the norm reads, so it fixes B_r(0) and products of such balls,
and keeps <a, b> mod 2; so it maps their fiber over y onto the one over g y,
and fiber counts are constant on G-orbits.

The t-boundary d_t B_r(x) is the set of points within distance t of the
sphere S_r(x).  boundary_contains, its family form boundary_table and the
band bisection of _t_boundary decide it on the exact offset y x^-1
(core.offset_exact).  The bounds of _screens settle most points: a
quick-out (|d(y,x) - r| > t, the triangle inequality) and a quick-in (the
dilation witness gives dist <= sqrt|d^2 - r^2|).  Between them
_gauge_inside alone calls the certified minimum of the sphere gauge
(spherequad) at unit thickness, on |z|^2/t^2, tau/t^2 and r/t rounded once each
from the exact offset and radii, accepted up to the fixed band _ACCEPT; no
other float enters a count.
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
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .core import (LatticePoint, Point, Radius, _dyadic, _int_dtype, _isqrt_vec, _offset_forms,
                   lattice_identity, offset_exact, offset_within, radius_parts)
from .errors import check_cap
from .spherequad import gauge_min

DEFAULT_CAP = 10 ** 8
_ACCEPT = 1.0 + 1e-9  # a gauge minimum up to this certifies "within t of the sphere"
_PAIR_BATCH = 1 << 16  # (fiber, center) pairs per batch of the product count
_HIST_BLOCK = 1 << 16  # grid cells, or |y|^2 values, per block: bounds ball_cardinality's memory


# --- integer helpers --------------------------------------------------------

def _count_congruent(lo, hi, residue, modulus):
    """# integers in [lo, hi] congruent to residue mod modulus, elementwise; 0 when lo > hi."""
    return np.maximum((hi - residue) // modulus - (lo - 1 - residue) // modulus, 0)


def _halfwidth(p: int, q: int, x: np.ndarray, strict: bool = False) -> np.ndarray:
    """Largest |m| with d((y, m), 0)^2 <= p/q (< p/q when strict), -1 if none.

    x holds X = |y|^2 and p >= 0.  As d^2 = (X + sqrt(X^2 + m^2)) / 2, the
    bound is X <= p/q and q^2 m^2 <= 4 p (p - q X), with terms at most
    4 p max(p, q X) (4 u^4 for a ball of radius u/v), the bound passed to
    core._int_dtype.
    """
    bound = 4 * p * max(p, q * int(np.max(x, initial=0)))
    x = np.asarray(x).astype(_int_dtype(bound), copy=False)
    t = 4 * p * (p - q * x)
    if strict:
        return np.where(t > 0, _isqrt_vec(np.maximum(t - 1, 0)) // q, -1)
    return np.where(p - q * x >= 0, _isqrt_vec(np.maximum(t, 0)) // q, -1)


def _disk(n: int, u: int, v: int, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Horizontal points with |y| <= u/v as lex-sorted columns (2n, N), and X = |y|^2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    side = 2 * (u // v) + 1
    check_cap(side ** (2 * n), cap, "horizontal grid cells")
    grid = np.indices((side,) * (2 * n), dtype=np.int64).reshape(2 * n, -1) - u // v
    x = np.sum(grid * grid, axis=0)
    keep = x <= (u * u) // (v * v)
    return np.compress(keep, grid, axis=1), x[keep]


def _fit_int64(x: np.ndarray) -> np.ndarray:
    """x as int64; ValueError where an entry does not fit."""
    try:
        return x.astype(np.int64, copy=False)
    except OverflowError:
        raise ValueError("a lattice coordinate does not fit int64") from None


def _merge_runs(group: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Join intervals of one parity class in the same group that overlap or touch.

    Returns (first, top): for each maximal run, in (group, lo) order, the
    index of the entry that opens it and the run's upper bound.  Touching
    means a gap of one parity step (2), since all bounds share the class.
    """
    if lo.size == 0:
        return np.empty(0, dtype=np.int64), hi[:0]
    low, high = int(lo.min()), int(hi.max())
    span = high - low + 3
    # the keys below reach |bounds| + (groups + 1) span
    wide = _int_dtype(max(-low, high) + (int(group.max()) + 1) * span)
    group, lo, hi = (v.astype(wide, copy=False) for v in (group, lo, hi))
    order = np.argsort(group * span + (lo - low))
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
    are disjoint, so rows() comes out lex-sorted without sorting any points;
    rows() is the one place points are written, and it refuses more than cap.
    """

    y: np.ndarray   # (2n, N) int64, column i = (a_1..a_n, b_1..b_n) of entry i
    lo: np.ndarray  # (N,) int64, or Python ints for huge radii
    hi: np.ndarray  # (N,)

    @classmethod
    def ball(cls, n: int, r: Radius, cap: int = DEFAULT_CAP) -> "FiberSet":
        """Fibers of B_r(0); B_r(c) is ball(...).translate(c)."""
        u, v = radius_parts(r)
        y, x = _disk(n, u, v, cap)
        w = _halfwidth(u * u, v * v, x)
        hull = w - (w - np.sum(y[:n] * y[n:], axis=0)) % 2
        keep = hull >= 0
        return cls(np.compress(keep, y, axis=1), -hull[keep], hull[keep])

    def sizes(self) -> np.ndarray:
        """Points per entry."""
        return (self.hi - self.lo) // 2 + 1

    def count(self) -> int:
        return int(np.sum(self.sizes()))

    def rows(self, cap: int = DEFAULT_CAP) -> np.ndarray:
        """Every point once as (a_1..a_n, b_1..b_n, m), lex-sorted; more than cap
        points raise ResourceCapError, an m outside int64 ValueError."""
        check_cap(self.count(), cap, "points")
        lo, _ = _fit_int64(self.lo), _fit_int64(self.hi)
        sizes = self.sizes().astype(np.int64)
        heads = np.empty((sizes.size, self.y.shape[0] + 1), dtype=np.int64)
        heads[:, :-1] = self.y.T
        heads[:, -1] = lo - 2 * (np.cumsum(sizes) - sizes)
        out = np.repeat(heads, sizes, axis=0)  # head m is lo - 2 * (points before the entry)
        out[:, -1] += np.arange(0, 2 * out.shape[0], 2)
        return out

    def translate(self, g: LatticePoint, left: bool = False) -> "FiberSet":
        """S * g, or g * S when left.

        Points shift by z_g and each fiber's m by m_g +- Im<z_y, z_g>, a
        constant per fiber, so entry order and parity classes are kept.  The
        sums take core._int_dtype of their bound; a shifted y outside int64
        raises ValueError.
        """
        n, zg = self.y.shape[0] // 2, g.a + g.b
        h, ymax = max(map(abs, zg)), int(np.abs(self.y).max(initial=0))
        edge = max(-int(self.lo.min(initial=0)), int(self.hi.max(initial=0)))  # lo <= hi
        wide = _int_dtype(max(ymax + h, edge + abs(g.m) + 2 * n * h * ymax))
        y, zg = self.y.astype(wide, copy=False), np.array(zg, dtype=wide)
        twist = zg[n:] @ y[:n] - zg[:n] @ y[n:]
        shift = g.m + (-twist if left else twist)
        return FiberSet(_fit_int64(y + zg[:, None]), self.lo.astype(wide, copy=False) + shift,
                        self.hi.astype(wide, copy=False) + shift)

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
    screens: tuple = field(init=False, repr=False, compare=False)  # _screens of radius, thickening

    def __post_init__(self) -> None:
        r, t = radius_parts(self.radius), radius_parts(self.thickening, "thickening")
        if r[0] == 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "screens", _screens(r, t))


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
        check_cap(self.cardinality, cap, "points")
        n = self.n
        return [LatticePoint(tuple(row[:n]), tuple(row[n:2 * n]), int(row[2 * n]))
                for row in self.coords.tolist()]


def _pair_hist(u: int, v: int) -> np.ndarray:
    """h[s, p] = #{(a, b) in Z^2 : a^2 + b^2 = s <= (u/v)^2, ab = p (mod 2)}, by blocks of rows of a."""
    amax = u // v
    xs = np.arange(-amax, amax + 1, dtype=np.int64)
    smax = (u * u) // (v * v)
    h = np.zeros((smax + 1, 2), dtype=np.int64)
    step = max(1, _HIST_BLOCK // xs.size)
    for start in range(0, xs.size, step):
        a = xs[start:start + step, None]
        s = a * a + xs * xs
        mask = s <= smax
        np.add.at(h, (s[mask], (a * xs)[mask] % 2), 1)
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
    # every partial sum is at most |disk grid| * (halfwidth at y = 0, plus 1)
    bound = (2 * (u // v) + 1) ** (2 * n) * (2 * u * u // (v * v) + 1)
    H = H.astype(_int_dtype(bound), copy=False)
    total = 0
    for start in range(0, H.shape[0], _HIST_BLOCK):
        block = H[start:start + _HIST_BLOCK]
        M = _halfwidth(u * u, v * v, np.arange(start, start + block.shape[0], dtype=np.int64))
        for p in (0, 1):
            total += int(np.sum(block[:, p] * _count_congruent(-M, M, p, 2)))
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
    if center is None:
        center = lattice_identity(n)
    coords = FiberSet.ball(n, k, cap).translate(center).rows(cap)  # refused before the histogram
    count, card = coords.shape[0], ball_cardinality(n, k)
    if count != card:
        raise AssertionError(f"fiber enumeration ({count}) disagrees with histogram count ({card})")
    return BallTable(n=n, k=k, center=center, coords=coords)


def _canonical(y: np.ndarray) -> np.ndarray:
    """Each column's orbit representative under G: pairs turned into {a > 0, b >= 0}
    or 0 and sorted, then the lex-smaller of that and the same for the flip."""
    n = y.shape[0] // 2
    side = int(np.abs(y).max(initial=0)) + 1

    def turned(a, b):  # pair keys a * side + b, sorted
        swap = ((a <= 0) & (b > 0)) | ((a >= 0) & (b < 0))  # second or fourth quadrant
        a, b = np.abs(a), np.abs(b)
        return np.sort(np.where(swap, b, a) * side + np.where(swap, a, b), axis=0)

    key, flip = turned(y[:n], y[n:]), turned(y[n:], y[:n])
    first = np.argmax(key != flip, axis=0)[None]  # the first pair where they differ
    key = np.where(np.take_along_axis(flip - key, first, 0) < 0, flip, key)
    return np.concatenate([key // side, key % side])


def product_ball_cardinality(n: int, k: int, cap: int = DEFAULT_CAP) -> int:
    """|B_k * B_k| exactly, fiber by fiber of the product set.

    B_k B_k is the union of balls B_k(q) over centers q in B_k.  Over a fixed
    product fiber y, the centers with horizontal part w contribute central
    values filling the hull interval Im<z_y, z_w> +- (M*_w + W) where W is
    the fiber halfwidth of B_k(q) over y; for W >= 1 consecutive centers'
    intervals overlap, so the hull is fully covered, while W = 0 contributes
    a single parity class that must match the fiber's.  The union per fiber
    is merged in batches of fibers, one fiber per G-orbit (module docstring)
    weighted by the orbit's size.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    centers = FiberSet.ball(n, k, cap=cap)
    w, hull = centers.y, centers.hi
    pw = hull % 2
    y_grid, _ = _disk(n, 2 * k, 1, cap)
    check_cap(y_grid.shape[1] * w.shape[1], 50 * cap, "fiber pairs")
    reps, weight = np.unique(_canonical(y_grid), axis=1, return_counts=True)
    total = 0
    step = max(1, _PAIR_BATCH // w.shape[1])
    for start in range(0, reps.shape[1], step):
        ys = reps[:, start:start + step]
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
        total += int(np.sum(((top - lo[first]) // 2 + 1) * weight[start + iy[first]]))
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
    return [DoublingRow(k, ball_cardinality(n, k), product_ball_cardinality(n, k, cap))
            for k in range(1, k_max + 1)]


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
    return ball.symmetric_difference(ball.translate(sigma, left=True)).rows(cap)


# --- thickened boundaries ---------------------------------------------------

@dataclass(frozen=True)
class BoundaryResult:
    """Outcome of the three-state boundary test; truthiness is membership."""

    inside: bool
    route: str  # exact-out | exact-in | minimizer-in | minimizer-out

    def __bool__(self) -> bool:
        return self.inside


def _screens(r: tuple[int, int], t: tuple[int, int]) -> tuple[int, int, int, int, int]:
    """(out_lo, out_hi, in_lo, in_hi, w^2) for r and t as radius_parts: d^2 outside
    [(r-t)^2, (r+t)^2] / w^2 is out, d^2 inside [r^2-t^2, r^2+t^2] / w^2 is in
    (lower ends clipped at 0), with r and t over their least common denominator w."""
    (ru, rv), (tu, tv) = r, t
    w = rv if rv == tv else math.lcm(rv, tv)
    r, t = ru * (w // rv), tu * (w // tv)
    lo, hi, rr, tt = r - t, r + t, r * r, t * t
    return lo * lo if lo > 0 else 0, hi * hi, rr - tt if rr > tt else 0, rr + tt, w * w


def _gauge_width(bound: int, e: int, t: Radius):
    """core._int_dtype of _gauge_inside's terms for offsets at scale e with X + |M| <= bound."""
    tu, tv = radius_parts(t)
    return _int_dtype(max(2 * (tu * tu << 2 * e), tv * tv * bound))


def _gauge_inside(X, M, e: int, r: Radius, t: Radius):
    """Is each offset (X, M, e) (core.offset_exact; ints, or int arrays) within
    t > 0 of S_r(0)?  The gauge, at unit thickness, reads X tv^2/(4^e tu^2),
    M tv^2/(2 4^e tu^2) and ru tv/(rv tu): |z|^2, tau and r over t^2, t^2 and
    t, each one division of integers at the width _gauge_width gives the batch
    (an int64 term past 2^53 rounds once more on its way to a float)."""
    (ru, rv), (tu, tv) = radius_parts(r), radius_parts(t)
    scale, den = tv * tv, tu * tu << 2 * e
    wide = _gauge_width(int(np.max(X + abs(M))), e, t)
    X, M = np.atleast_1d(X).astype(wide) * scale, np.atleast_1d(M).astype(wide) * scale
    try:
        x, tau, rho = X / den, M / (2 * den), ru * tv / (rv * tu)
    except OverflowError:
        raise ValueError("offset too large for the float gauge") from None
    return gauge_min(x, tau, rho) <= _ACCEPT


_EXACT = {False: BoundaryResult(False, "exact-out"), True: BoundaryResult(True, "exact-in")}
_GAUGED = {False: BoundaryResult(False, "minimizer-out"), True: BoundaryResult(True, "minimizer-in")}


def _exact_route(off: tuple[int, int, int], screens: tuple) -> Optional[BoundaryResult]:
    """The exact screens (_screens) on an offset (X, M, e) of core.offset_exact:
    the result they settle, or None where only the gauge can decide."""
    out_lo, out_hi, in_lo, in_hi, w2 = screens
    if not offset_within(off, out_lo, out_hi, w2):
        return _EXACT[False]
    # horizontal offsets (M = 0) realize the triangle bound, dist = |lam - r|,
    # so surviving the quick-out screens already certifies membership
    if off[1] == 0 or offset_within(off, in_lo, in_hi, w2):
        return _EXACT[True]
    return None


def boundary_contains(y: Point, spec: BallSpec) -> BoundaryResult:
    """Is y within spec.thickening of the sphere of radius spec.radius?

    The exact screens (_exact_route) on the offset y x^-1 settle almost every
    query, for every input; only points sandwiched between the triangle bound
    and the dilation-witness bound go to the gauge (_gauge_inside).
    """
    off = offset_exact(y, spec.center)
    settled = _exact_route(off, spec.screens)
    if settled is not None:
        return settled
    return _GAUGED[bool(_gauge_inside(*off, spec.radius, spec.thickening)[0])]


def boundary_table(points: Sequence[Point], specs: Sequence[BallSpec],
                   pairs: Iterable[tuple[int, int]]) -> list[BoundaryResult]:
    """boundary_contains(points[i], specs[j]) for each pair (i, j), in order.

    The family form of boundary_contains: the same screens (_exact_route) and
    gauge, so the same decisions and routes.  Each point's core._dyadic form
    is taken once, shared by a center that is also a point.  The screens run
    pair by pair on Python ints, since array screens lose on families of a
    few balls (core.dist_cmp_table's fixed cost).  The pairs they leave open
    go to _gauge_inside batched by spec, scale and integer width: the rows
    one gauge call can share with every value kept bit for bit.
    """
    forms = {}  # id -> _dyadic form; every point is held by the arguments

    def form(p: Point):
        f = forms.get(id(p))
        if f is None:
            f = forms[id(p)] = _dyadic(p)
        return f

    out, open_rows = [], {}
    for i, j in pairs:
        spec = specs[j]
        off = _offset_forms(form(points[i]), form(spec.center))
        settled = _exact_route(off, spec.screens)
        if settled is None:
            key = (j, off[2], _gauge_width(off[0] + abs(off[1]), off[2], spec.thickening))
            open_rows.setdefault(key, []).append((len(out), off))
        out.append(settled)
    for (j, e, wide), rows in open_rows.items():
        X, M = (np.array([off[c] for _, off in rows], dtype=wide) for c in (0, 1))
        inside = _gauge_inside(X, M, e, specs[j].radius, specs[j].thickening)
        for (k, _), v in zip(rows, inside):
            out[k] = _GAUGED[bool(v)]
    return out


def _t_boundary(n: int, k: int, t: Radius, cap: int) -> FiberSet:
    """The fibers of d_t B_k(0), each one band lo <= |m| <= hi (module docstring)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out_lo, out_hi, in_lo, in_hi, w2 = _screens((k, 1), radius_parts(t))
    y, x = _disk(n, math.isqrt(out_hi), math.isqrt(w2), cap)  # B_(k+t): (k+t)^2 = out_hi / w2
    par = np.sum(y[:n] * y[n:], axis=0) % 2
    # one group per occurring (|y|^2, parity): the screens and the gauge read nothing else
    group = np.full((int(x.max()) + 1, 2), -1)
    group[x, par] = 0
    gx, gp = np.nonzero(group == 0)
    group[gx, gp] = np.arange(gx.size)

    def least(p):  # least |m| of the class with lam^2 >= p / w2
        b = _halfwidth(p, w2, gx, strict=True).astype(np.int64) + 1
        return b + (b - gp) % 2

    def most(p):  # greatest |m| of the class with lam^2 <= p / w2
        b = _halfwidth(p, w2, gx).astype(np.int64)
        return b - (b - gp) % 2

    a_lo, a_hi, q_lo, q_hi = least(out_lo), most(out_hi), least(in_lo), most(in_hi)
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
        inside = _gauge_inside(gx[live % gx.size], start[live] + step[live] * (mid - 1), 0, k, t)
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
    return _t_boundary(n, k, t, cap).rows(cap)


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
