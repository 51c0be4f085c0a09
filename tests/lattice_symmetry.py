"""Lattice symmetries shared by the tests of core and balls."""

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
