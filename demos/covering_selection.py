"""
Covering a carpet with boundedly many balls
===========================================

Build a random family of lattice balls (one per center), run the greedy
incremental selection, and measure how many chosen balls pile on any
single point.  Then push the same machinery through the staged boundary
selection on a synthetic measure, and print the closed-form height of
the recursion stack for small parameters.
"""

from fractions import Fraction

import numpy as np

import heisgeo.covering as cv
from heisgeo.balls import BallSpec
from heisgeo.core import LatticePoint, dist_le_exact

rng = np.random.default_rng(7)

balls, seen = [], set()
while len(balls) < 60:
    a, b = int(rng.integers(-12, 13)), int(rng.integers(-12, 13))
    m = a * b + 2 * int(rng.integers(-36, 37))  # parity constraint on the fiber
    if (a, b, m) in seen:
        continue
    seen.add((a, b, m))
    balls.append(BallSpec(LatticePoint((a,), (b,), m), int(rng.integers(1, 9))))
carpet = cv.Carpet(tuple(balls))

chosen = cv.besicovitch_select(carpet)
centers = [b.center for b in carpet.balls]
covered = sum(
    any(dist_le_exact(c, b.center, b.radius) for b in chosen) for c in centers
)
print(f"carpet of {len(balls)} balls -> {len(chosen)} selected")
print(f"centers covered: {covered}/{len(centers)}")
print(f"worst multiplicity over the centers: "
      f"{cv.selection_multiplicity(chosen, centers)}")

# the selection splits into a bounded number of well-separated classes
part = cv.colour_partition(chosen, 12)
print(f"colour classes used: {part.chi_used}, "
      f"all well separated: {all(cv.is_well_separated(c) for c in part.classes)}")

# staged selection against a measure: half the boundary mass is captured
# after k rounds, and the report carries the hypothesis checklist
nu, F, stack, eps, delta, t = cv.synthetic_boundgen_instance(3, 2, 4, seed=1)
res = cv.boundgen_select(nu, F, stack, eps, delta, t, chi=4)
post = res.report["postconditions"]
print(f"\nboundary selection: k = {res.k}, "
      f"capture fraction = {post['capture_fraction']} "
      f"(> 1/2: {post['exceeds_half']})")

print("\nstack heights q(chi=1, eps=delta=1/2):")
for kappa in (1, 2):
    out = cv.stack_height(cv.HeightParams(chi=1, kappa=kappa,
                                          eps=Fraction(1, 2), delta=Fraction(1, 2)))
    print(f"  kappa = {kappa}: q = {out.q} (stated bound holds: {out.stated_bound_holds})")
