"""Every explicit constant in one place.

Ball volumes, the packing ratio N(d, r, R), the unit-vector packing
number b(d), the exact thick-thin epsilons with their commutator chain,
the covering constants, and the figure-eight volume, cross-checked by a
tanh-sinh quadrature from mpmath (installed with the `test` extra).
"""

from fractions import Fraction

import mpmath

from torsionlab.constants import (
    ThickThinParams,
    commutator_inequality_check,
    covering_constants,
    euclidean_ball_volume,
    figure_eight_volume,
    hyperbolic_ball_volume,
    unit_vector_packing_bound,
    volume_ratio_bound,
)

print("ball volumes, radius 1:")
for d in (2, 3, 4, 5):
    print(f"  d={d}:  euclidean {euclidean_ball_volume(d, 1):8.4f}"
          f"   hyperbolic {hyperbolic_ball_volume(d, 1):8.4f}")

n = volume_ratio_bound(2, 1.0, 2.0)
print(f"\nN(2, 1, 2) = {n.value:.4f}   (>= euclidean lower bound {n.euclidean_lower_bound:.1f})")

print("\nunit-vector packing bound b(d):")
for d in (2, 3, 4, 8):
    print(f"  b({d}) <= {unit_vector_packing_bound(d)}")

# thick-thin epsilons are exact rationals in the Margulis epsilon
params = ThickThinParams(d=4, margulis_eps=Fraction(1, 10), margulis_index=2)
print(f"\nd=4, eps(d)=1/10, m=2:")
print(f"  eps0 = {params.eps0}    eps = {params.eps}")
for i in range(4):
    print(f"  rank {i}: eps_gamma = {params.epsilon(i)}")

checks = commutator_inequality_check(10)
print(f"\ncommutator chain 16/(4*17^ia) < 1/(4*17^ic): "
      f"{sum(c.passes for c in checks)}/{len(checks)} pass up to d=10")

consts = covering_constants(d=2, eps=0.01, eps0=0.1, delta=0.01 / 14, b=6)
print(f"\ncovering constants at d=2, eps=0.01, eps0=0.1, b=6:"
      f"  c = {consts.c:.4g}, D = {consts.D:.4g}")

# 6 * integral_0^(pi/3) of -log(2 sin t) dt, independently of the Clausen series
with mpmath.workprec(96):
    quadrature = float(6 * mpmath.quad(lambda t: -mpmath.log(2 * mpmath.sin(t)), [0, mpmath.pi / 3]))
print(f"\nfigure-eight complement volume:")
print(f"  closed form 3·Cl₂(2π/3) {figure_eight_volume():.10f}")
print(f"  tanh-sinh quadrature    {quadrature:.10f}   (both < 2.03)")
