"""First homology of Dehn fillings of the figure-eight complement.

Filling along p*mu + q*lambda produces H_1 = Z/p, with volume below the
complement's volume -- unboundedly large torsion at bounded volume.
"""

from torsionlab.dehn import FillingSlope, figure_eight_family, figure_eight_filling

print("slope (p,q) -> H_1, hyperbolic?")
for p, q in [(1, 0), (0, 1), (2, 1), (4, 1), (5, 1), (5, 2), (12, 5), (49, 10)]:
    result = figure_eight_filling(FillingSlope(p, q))
    print(f"  ({p:2d},{q:2d})  {str(result.group):8s}  {result.hyperbolic}")

rows = figure_eight_family(range(1, 51), range(1, 11))
largest = max(row["torsion"][0] for row in rows if row["torsion"])
print(f"\n{len(rows)} primitive slopes with p <= 50, q <= 10;"
      f" torsion up to Z/{largest} at volume < {rows[0]['volume_upper_bound']:.4f}")
