"""Verifying the two torsion bounds on random instances.

First bound: the torsion of the cokernel of an integer matrix is at most
the product of the Euclidean norms of any column subset spanning the
image.  Second bound: a complex with at most V vertices and vertex degree
at most D has log |torsion H_p| <= D^p * V * log(p+1).

Both checks are decided in exact integer arithmetic.
"""

from torsionlab.bounds import (DV_DEGREES, dv_torsion_check, random_dv_pairs, random_matrices,
                               soule_bound)
from torsionlab.complexes import projective_plane_6
from torsionlab.exact import IntegerMatrix
from torsionlab.simplicial import SimplicialPair, empty_complex

# a single instance, spelled out
mat = IntegerMatrix.from_rows([[2, 1, 0], [0, 3, 1], [0, 0, 4]], 3)
rep = soule_bound(mat)
print(f"columns {rep.chosen_columns}: torsion {rep.exact_torsion} <= bound {rep.bound:.3f}"
      f"  -> holds: {rep.holds}")

# equality is attained on positive diagonal matrices
rep = soule_bound(IntegerMatrix.diagonal([2, 3, 7]))
print(f"diag(2,3,7): torsion {rep.exact_torsion} == bound {rep.bound:.0f}")

# a seeded batch of 500 random matrices
reports = [soule_bound(m) for m in random_matrices(500, seed=7)]
print(f"soule batch: {len(reports)} instances, {sum(not r.holds for r in reports)} failures, "
      f"max log-ratio {max(r.ratio() for r in reports):.3f}")

print()

# the (D, V) bound on a known torsion complex
rp2 = projective_plane_6()
pair = SimplicialPair(total=rp2, sub=empty_complex(rp2.vertex_count))
rep = dv_torsion_check(pair, 1)
print(f"RP^2: log|tors H_1| = {rep.log_torsion:.4f} <= D^p*V*log(p+1) = {rep.log_bound:.4f}")

# and on 50 random (D<=6, V<=30, dim<=3) complexes, every other one with a subcomplex
reports = [dv_torsion_check(pair, p)
           for pair in random_dv_pairs(50, seed=3, with_subcomplexes=True) for p in DV_DEGREES]
print(f"dv batch: {len(reports)} checks, {sum(not r.holds for r in reports)} failures, "
      f"max ratio {max(r.ratio() for r in reports):.4f}")
