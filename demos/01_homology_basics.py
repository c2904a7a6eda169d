"""Integer homology of the classic small complexes.

Builds each fixture from its maximal simplices, prints the f-vector and
the (D, V) profile, and computes every homology group exactly, torsion
included.
"""

from torsionlab import complexes
from torsionlab.exact import IntegerMatrix, smith_normal_form
from torsionlab.homology import all_homology
from torsionlab.simplicial import boundary_matrix, complexity_profile

for name, fixture in complexes.FIXTURES.items():
    k = fixture()
    profile = complexity_profile(k)
    groups = all_homology(k)
    print(f"{name:9s} f-vector {str(k.f_vector()):14s} V={profile.V:2d} D={profile.D}  "
          + "  ".join(f"H_{i} = {g}" for i, g in enumerate(groups)))

print()

# Where the torsion comes from: the Smith normal form of the boundary map.
rp2 = complexes.projective_plane_6()
d2 = boundary_matrix(rp2, 2)
snf = smith_normal_form(d2)
print("RP^2 boundary d_2 is", f"{d2.rows}x{d2.cols};",
      f"rank {snf.rank};", "invariant factors above 1:", snf.invariant_factors())
print("the lone factor 2 is the 2-torsion of H_1(RP^2)")

print()

# The same machinery on a bare matrix: diag(2, 3) presents Z/6.
snf = smith_normal_form(IntegerMatrix.diagonal([2, 3]))
print(f"SNF of diag(2,3): rank {snf.rank}; invariant factors above 1:", snf.invariant_factors(),
      "- the cokernel is Z/6")
