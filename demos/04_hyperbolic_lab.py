"""Displacement functions in the hyperboloid model.

Checks the closed form for the displacement of a translation, the
convexity of displacement along geodesics, the obtuse-angle property for
commuting isometries, and orbit counts against the volume-ratio bound.
"""

import math

import numpy as np

from torsionlab import hyperbolic as hyp
from torsionlab.constants import volume_ratio_bound

d = 3
g = hyp.standard_loxodromic(d, length=0.3)

# displacement at distance r from the axis: sinh(d_g/2) = cosh(r) sinh(l/2)
for r in (0.0, 0.5, 1.0, 2.0):
    v = np.zeros(d + 1)
    v[2] = 1.0
    x = hyp.make_point(hyp.exp_map(hyp.base_point(d), v, r))
    measured = hyp.displacement(g, x)
    closed = 2 * math.asinh(math.cosh(r) * math.sinh(0.15))
    print(f"r={r:3.1f}  displacement {measured:.12f}  closed form {closed:.12f}")

print()

# commuting isometries have sub-level sets meeting at obtuse angles;
# coaxial tubes (powers of one loxodromic) are the cleanest example
report = hyp.obtuse_angle_check(g, g.power(2), eps_a=0.5, eps_b=0.9, samples=300, seed=0)
print(f"loxodromic powers: min gradient inner product {report.min_inner_product:+.2e}"
      f"  (every sign certified >= 0: {report.passed})")

fixed = [1.0, 1.0, 0.0, 0.0]
pa = hyp.parabolic(fixed, [1.0, 0.0])
pb = hyp.parabolic(fixed, [0.3, 0.7])
report = hyp.obtuse_angle_check(pa, pb, eps_a=0.4, eps_b=0.7, samples=300, seed=1)
print(f"parabolic pair:    min gradient inner product {report.min_inner_product:+.2e}"
      f"  (passed: {report.passed})")

print()

# orbit counting: powers of g displacing a point by at most R
g2 = hyp.standard_loxodromic(2, length=0.5)
x = hyp.base_point(2)
report = hyp.orbit_count_check(g2, x, R=2.0)
ratio = volume_ratio_bound(2, 0.5, 2.0)
print(f"on the axis, l=0.5, R=2: {report.count} powers "
      f"(exactly 2*floor(R/l) = 8), bound N = {ratio.value:.1f}")
