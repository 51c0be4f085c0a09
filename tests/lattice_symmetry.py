"""Lattice and continuous symmetries of the metric, shared by the tests."""

import cmath
from typing import Sequence

import heisgeo as hg


def lattice_rotate_quarter(p: hg.LatticePoint, counts: Sequence[int]) -> hg.LatticePoint:
    """Quarter-turn rotations z_j -> i^{c_j} z_j, the lattice-preserving case."""
    if len(counts) != p.n:
        raise ValueError("need one count per coordinate")
    a, b = list(p.a), list(p.b)
    for j, c in enumerate(counts):
        for _ in range(c % 4):
            a[j], b[j] = -b[j], a[j]
    return hg.LatticePoint(tuple(a), tuple(b), p.m)


def isometry_flip(p):
    """(z, tau) -> (conj z, -tau); a metric-preserving automorphism."""
    if isinstance(p, hg.LatticePoint):
        return hg.LatticePoint(p.a, tuple(-y for y in p.b), -p.m)
    return hg.ContinuousPoint(tuple(w.conjugate() for w in p.z), -p.tau)


def isometry_rotate(theta: Sequence[float], p) -> hg.ContinuousPoint:
    """Coordinatewise rotation (z_j) -> (e^{i theta_j} z_j), tau fixed."""
    cp = hg.as_continuous(p)
    if len(theta) != cp.n:
        raise ValueError("need one angle per coordinate")
    return hg.ContinuousPoint(tuple(cmath.exp(1j * t) * w for t, w in zip(theta, cp.z)), cp.tau)
