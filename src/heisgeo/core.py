"""Exact arithmetic and metric geometry for discrete Heisenberg groups.

The ambient group is H^n = C^n x R with multiplication

    (z, tau) * (w, sigma) = (z + w, tau + sigma + Im<z, w>/2),

where <z, w> = sum_j conj(z_j) w_j.  The integer lattice consists of the
points with z in Z^n + iZ^n and tau in <Re z, Im z>/2 + Z; a lattice point
is stored as (a, b, m) with z = a + ib and m = 2*tau, so every operation on
lattice points is exact integer arithmetic.  The invariant m = <a, b> (mod 2)
is what makes tau land in the right coset, and it is preserved by products.

The metric is the homogeneous distance whose unit ball centred at the
identity is the Euclidean unit ball of R^(2n+1).  It is right invariant,
one-homogeneous under the dilations delta_lambda(z, tau) = (lambda z,
lambda^2 tau), and satisfies the closed form

    d(p, q)^2 = (|z-w|^2 + sqrt(|z-w|^4 + 4 D^2)) / 2,
    D = tau - sigma - Im<z, w>/2.

Comparing a distance with a radius reduces to an integer comparison for
every point type: a float is a dyadic rational, so offset_exact scales the
offset p q^-1 by a power-of-two dilation to integer coordinates, and
offset_cmp compares its squared distance with a rational (offset_within
with the two ends of an interval).  dist_cmp decides one pair;
dist_cmp_table decides a whole family of pairs with the same integer
formula on arrays.  Counting never touches floating point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence, Union

import numpy as np

Radius = Union[int, Fraction]


@dataclass(frozen=True)
class LatticePoint:
    """Lattice element (a + ib, m/2) with the parity invariant m = <a,b> mod 2."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    m: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", tuple(map(int, self.a)))
        object.__setattr__(self, "b", tuple(map(int, self.b)))
        object.__setattr__(self, "m", int(self.m))
        if len(self.a) != len(self.b):
            raise ValueError("a and b must have the same length")
        if (self.m - sum(x * y for x, y in zip(self.a, self.b))) % 2 != 0:
            raise ValueError(f"parity violated: m={self.m} vs <a,b>={sum(x*y for x, y in zip(self.a, self.b))}")

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def tau(self) -> Fraction:
        return Fraction(self.m, 2)

    def z(self) -> tuple[complex, ...]:
        return tuple(complex(x, y) for x, y in zip(self.a, self.b))

    def __mul__(self, other: "LatticePoint") -> "LatticePoint":
        return multiply(self, other)

    def inv(self) -> "LatticePoint":
        return inverse(self)


@dataclass(frozen=True)
class ContinuousPoint:
    """Point of the ambient group, z in C^n and real central coordinate."""

    z: tuple[complex, ...]
    tau: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", tuple(complex(w) for w in self.z))
        object.__setattr__(self, "tau", float(self.tau))

    @property
    def n(self) -> int:
        return len(self.z)

    def __mul__(self, other: "ContinuousPoint") -> "ContinuousPoint":
        return multiply(self, other)

    def inv(self) -> "ContinuousPoint":
        return inverse(self)


Point = Union[LatticePoint, ContinuousPoint]


def lattice_identity(n: int) -> LatticePoint:
    return LatticePoint((0,) * n, (0,) * n, 0)


def continuous_identity(n: int) -> ContinuousPoint:
    return ContinuousPoint((0j,) * n, 0.0)


def as_continuous(p: Point) -> ContinuousPoint:
    if isinstance(p, ContinuousPoint):
        return p
    return ContinuousPoint(p.z(), float(p.m) / 2.0)


def multiply(p: Point, q: Point) -> Point:
    """Group product; stays on the lattice when both factors do."""
    if isinstance(p, LatticePoint) and isinstance(q, LatticePoint):
        if p.n != q.n:
            raise ValueError("rank mismatch")
        a = tuple(x + u for x, u in zip(p.a, q.a))
        b = tuple(y + v for y, v in zip(p.b, q.b))
        # 2*(tau_p + tau_q + Im<z_p, z_q>/2) keeps the doubled coordinate integral.
        m = p.m + q.m + sum(x * v - y * u for x, y, u, v in zip(p.a, p.b, q.a, q.b))
        return LatticePoint(a, b, m)
    cp, cq = as_continuous(p), as_continuous(q)
    if cp.n != cq.n:
        raise ValueError("rank mismatch")
    return ContinuousPoint(*_mul_parts(cp.z, cp.tau, cq.z, cq.tau))


def inverse(p: Point) -> Point:
    if isinstance(p, LatticePoint):
        return LatticePoint(tuple(-x for x in p.a), tuple(-y for y in p.b), -p.m)
    return ContinuousPoint(tuple(-w for w in p.z), -p.tau)


def dilate(lam: float, p: Point) -> ContinuousPoint:
    """delta_lambda(z, tau) = (lambda z, lambda^2 tau), an automorphism for lam > 0."""
    cp = as_continuous(p)
    return ContinuousPoint(tuple(lam * w for w in cp.z), lam * lam * cp.tau)


def metric_d(p: Point, q: Point) -> float:
    """Homogeneous distance.  Fused evaluation: the inner square root goes
    through hypot so |z-w|^4 + 4D^2 never cancels badly."""
    cp, cq = as_continuous(p), as_continuous(q)
    if cp.n != cq.n:
        raise ValueError("rank mismatch")
    return _dist_parts(cp.z, cp.tau, cq.z, cq.tau)


# the float formulas of multiply and metric_d on bare parts (z, tau), (w, sigma)
def _mul_parts(z, tau, w, sigma):
    return (tuple(a + b for a, b in zip(z, w)),
            tau + sigma + 0.5 * sum((a.conjugate() * b).imag for a, b in zip(z, w)))


def _dist_parts(z, tau, w, sigma) -> float:
    x2 = sum(d.real * d.real + d.imag * d.imag for d in [a - b for a, b in zip(z, w)])
    delta = tau - sigma - 0.5 * sum((a.conjugate() * b).imag for a, b in zip(z, w))
    return math.sqrt(0.5 * (x2 + math.hypot(x2, 2.0 * delta)))


def homogeneous_norm(p: Point) -> float:
    """d(p, 0)."""
    cp = as_continuous(p)
    return metric_d(cp, continuous_identity(cp.n))


def radius_parts(r: Union[Radius, float], what: str = "radius") -> tuple[int, int]:
    """Numerator/denominator of a finite nonnegative radius (int, Fraction or float), named what."""
    if isinstance(r, int):
        num, den = r, 1
    elif isinstance(r, float):  # np.float64 included
        if not math.isfinite(r):
            raise ValueError(f"{what} must be finite")
        num, den = r.as_integer_ratio()
    else:  # a Fraction built from NumPy ints keeps them fixed-width
        frac = r if isinstance(r, Fraction) else Fraction(r)
        num, den = int(frac.numerator), int(frac.denominator)
    if num < 0:
        raise ValueError(f"{what} must be nonnegative")
    return num, den


def _dyadic(p: Point) -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
    """(A, B, T, e): p = delta_(2^-e) of the point (A + iB, T/2) with integer
    coordinates.

    A float is a dyadic rational, so e is the least exponent that clears
    every denominator: 2^e for the horizontal coordinates, 2 * 4^e for tau.
    """
    if isinstance(p, LatticePoint):
        return p.a, p.b, p.m, 0
    try:  # inf raises OverflowError, nan ValueError
        parts = [c.as_integer_ratio() for c in [w.real for w in p.z] + [w.imag for w in p.z] + [p.tau]]
    except (OverflowError, ValueError):
        raise ValueError("point coordinates must be finite") from None
    ks = [den.bit_length() - 1 for _, den in parts]
    tk = ks.pop()
    e = max(max(ks), tk // 2)
    h = [num << (e - k) for (num, _), k in zip(parts, ks)]
    return tuple(h[:p.n]), tuple(h[p.n:]), parts[-1][0] << (2 * e + 1 - tk), e


def offset_exact(p: Point, q: Point) -> tuple[int, int, int]:
    """(X, M, e) for the offset p q^-1, exactly, for any two points.

    The offset scaled by delta_(2^e) has |z|^2 = X and doubled central
    coordinate M, so d(p, q)^2 = (X + sqrt(X^2 + M^2)) / (2 * 4^e); e = 0
    when both points are lattice points.  Non-finite coordinates raise
    ValueError.
    """
    return _offset_forms(_dyadic(p), _dyadic(q))


def _offset_forms(fp, fq) -> tuple[int, int, int]:
    """offset_exact on the _dyadic forms of the two points."""
    ap, bp, tp, ep = fp
    aq, bq, tq, eq = fq
    if len(ap) != len(aq):
        raise ValueError("rank mismatch")
    e = max(ep, eq)
    sp, sq = e - ep, e - eq  # bring both points to the finer scale
    x, m = 0, (tp << 2 * sp) - (tq << 2 * sq)
    for s, t, u, v in zip(ap, bp, aq, bq):
        s, t, u, v = s << sp, t << sp, u << sq, v << sq
        x += (s - u) ** 2 + (t - v) ** 2
        m -= s * v - t * u
    return x, m, e


def offset_cmp(offset: tuple[int, int, int], p: int, q: int) -> int:
    """sign(d^2 - p/q) for an offset (X, M, e) of offset_exact and q > 0.

    With U = p 4^e: d^2 > p/q when U < q X, since d^2 >= |z|^2; otherwise
    the sign is that of q^2 M^2 - 4 U (U - q X).
    """
    x, m, e = offset
    u = p << 2 * e
    if u < q * x:
        return 1
    diff = q * q * m * m - 4 * u * (u - q * x)
    return (diff > 0) - (diff < 0)


def offset_within(offset: tuple[int, int, int], lo: int, hi: int, q: int) -> bool:
    """lo/q <= d^2 <= hi/q for an offset of offset_exact and q > 0: offset_cmp
    at both ends, with q X and q^2 M^2 formed once."""
    x, m, e = offset
    qx = q * x
    u = hi << 2 * e
    if u < qx:
        return False
    qm2 = q * q * m * m
    if qm2 > 4 * u * (u - qx):
        return False
    u = lo << 2 * e
    return u < qx or qm2 >= 4 * u * (u - qx)


def dist_cmp(p: Point, q: Point, r: Union[Radius, float]) -> int:
    """sign(d(p, q) - r), exact for any two points and any finite r >= 0."""
    u, v = radius_parts(r)
    return offset_cmp(offset_exact(p, q), u * u, v * v)


def radii_over(radii: Iterable[Union[Radius, float]]) -> tuple[list[int], int]:
    """(nums, w): radii[k] == nums[k] / w exactly, over the least common denominator w."""
    parts = [radius_parts(r) for r in radii]
    w = math.lcm(*(v for _, v in parts))
    return [u * (w // v) for u, v in parts], w


def _int_dtype(bound: int):
    """Width of exact integer arrays on which the caller forms no term or partial
    sum above its a-priori bound in absolute value: int64 while bound <= 2^62,
    Python-int object arrays beyond.  Every such array in the package asks here."""
    return np.int64 if bound <= 2 ** 62 else object


def _isqrt_vec(x: np.ndarray) -> np.ndarray:
    """Elementwise floor(sqrt(x)) for nonnegative int64 or Python-int object arrays, exactly."""
    if x.dtype == object:
        return np.frompyfunc(math.isqrt, 1, 1)(x)
    r = np.floor(np.sqrt(x.astype(np.float64))).astype(np.int64)
    r = np.where((r + 1) * (r + 1) <= x, r + 1, r)
    return np.where(r * r > x, r - 1, r)


def _table_terms(ps: Sequence[Point], qs: Sequence[Point], nums, w: int):
    """(X, M, U, q) of offset_cmp for every pair (p_i, q_j) at one scale.

    Every point is brought to the finest dilation scale 2^E of the call, so
    the offset p_i q_j^-1 has |z|^2 = X[i, j], doubled central coordinate
    M[i, j], and the radius nums[i, j] / w compares as U = nums^2 4^E
    against q = w^2.  The arrays take _int_dtype of an a-priori bound on
    every term of the formula (|A|, |B| <= h and |T| <= s give X <= 8 n h^2
    and |M| <= 2 s + 2 n h^2).
    """
    forms = [_dyadic(p) for p in ps]
    if qs is not ps:
        forms += [_dyadic(q) for q in qs]
    n = len(forms[0][0])
    big_e = max(f[3] for f in forms)
    rows = []
    for a, b, t, e in forms:
        if len(a) != n:
            raise ValueError("rank mismatch")
        s = big_e - e
        rows.append((*a, *b, t) if s == 0 else (*(x << s for x in a), *(y << s for y in b), t << 2 * s))
    cols = list(zip(*rows))  # A_1..A_n, B_1..B_n, T
    h = max(map(abs, chain.from_iterable(cols[:-1])), default=0)
    s = max(map(abs, cols[-1]))
    if not isinstance(nums, np.ndarray):
        nums = np.array(nums, dtype=object)  # NumPy would guess uint64 or float64 for big ints
    if nums.dtype.kind not in "iuO":
        raise TypeError("radius numerators must be integers")
    if nums.min() < 0:
        raise ValueError("radius must be nonnegative")
    u = int(nums.max())
    xb, mb, ub, q = 8 * n * h * h, 2 * s + 2 * n * h * h, u * u << 2 * big_e, w * w
    dtype = _int_dtype(max(q * max(xb, mb), 4 * ub * max(ub, q * xb), (q * mb) ** 2))
    c = np.array(cols, dtype=dtype)
    cq = c if qs is ps else c[:, len(ps):]
    d = c[:, :len(ps), None] - cq[:, None, :]  # (dA, dB, dT)[k, i, j]
    # Im<z_p, z_q> = dA . B_q - dB . A_q, as Im<z_q, z_q> = 0
    X = (d[:2 * n] * d[:2 * n]).sum(axis=0)
    M = d[2 * n] - (d[:n] * cq[n:2 * n, None, :] - d[n:2 * n] * cq[:n, None, :]).sum(axis=0)
    r = nums.astype(dtype)
    return X, M, r * r * (1 << 2 * big_e), q


def dist_cmp_table(ps: Sequence[Point], qs: Sequence[Point], nums, w: int = 1) -> np.ndarray:
    """sign(d(ps[i], qs[j]) - nums[i, j] / w) for every pair, as an int8 table.

    The family form of dist_cmp, exact for any points: nums holds
    nonnegative integers and broadcasts to (len(ps), len(qs)), one radius
    per column as a vector or one per pair as a matrix (radii_over puts
    radii over one denominator w).  Each point's _dyadic form is taken
    once, and every entry is offset_cmp's integer formula, evaluated on
    arrays (see _table_terms for the int64 / Python-int switch).
    """
    if not ps or not qs:
        return np.zeros((len(ps), len(qs)), dtype=np.int8)
    X, M, U, q = _table_terms(ps, qs, nums, w)
    qX = q * X
    out = np.sign((q * M) ** 2 - 4 * U * np.maximum(U - qX, 0)).astype(np.int8)
    out[U < qX] = 1
    return out


def dist_le_exact(p: Point, q: Point, r: Union[Radius, float]) -> bool:
    """d(p, q) <= r decided in integers, for any two points and finite r > 0."""
    if r == 0:
        raise ValueError("radius must be positive")
    return dist_cmp(p, q, r) <= 0


def dist_eq_exact(p: Point, q: Point, r: Union[Radius, float]) -> bool:
    """d(p, q) == r decided in integers (sphere membership), for any two points."""
    if r == 0:
        raise ValueError("radius must be positive")
    return dist_cmp(p, q, r) == 0


# --- serialisation ---------------------------------------------------------

def point_to_json(p: Point) -> str:
    if isinstance(p, LatticePoint):
        return json.dumps({"a": list(p.a), "b": list(p.b), "m": p.m}, sort_keys=True)
    return json.dumps(
        {"z_re": [w.real for w in p.z], "z_im": [w.imag for w in p.z], "tau": p.tau},
        sort_keys=True,
    )


def point_from_json(s: str) -> Point:
    obj = json.loads(s)
    if "m" in obj:
        return LatticePoint(tuple(obj["a"]), tuple(obj["b"]), obj["m"])
    z = tuple(complex(re, im) for re, im in zip(obj["z_re"], obj["z_im"]))
    return ContinuousPoint(z, obj["tau"])


def generator(n: int, j: int, imaginary: bool = False) -> LatticePoint:
    """Standard generator e_j (or i e_j) with trivial central part."""
    a = [0] * n
    b = [0] * n
    if imaginary:
        b[j] = 1
    else:
        a[j] = 1
    return LatticePoint(tuple(a), tuple(b), 0)
