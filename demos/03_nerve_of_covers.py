"""Nerves of ball covers and homological nerve-lemma checks.

A cover by convex balls is a good cover, so its nerve carries the
homology of the union.  The demo builds a circle-shaped cover, a convex
blob, and an annulus pair with a shrunken subfamily.
"""

from torsionlab.exact import AbelianGroupStructure as G
from torsionlab.homology import all_homology
from torsionlab.nerve import (
    BallCover,
    EuclideanSpace,
    annulus_cover,
    circle_cover,
    nerve,
    nerve_lemma_check,
    relative_nerve,
)

# eight balls around the unit circle: the union is an annulus ~ circle
cover = circle_cover(8, 0.9)
k = nerve(cover)
print("circle cover nerve:", k.f_vector(),
      " homology:", [str(g) for g in all_homology(k, up_to=1)])

report = nerve_lemma_check(cover, [G(1), G(1), G(0)])
print("matches the circle:", report.passed)

# any family of balls with a common point has a contractible union
blob = BallCover.of(EuclideanSpace(2), [((0.1 * k, 0.05 * k), 1.0 + 0.1 * k) for k in range(6)])
report = nerve_lemma_check(blob, [G(1), G(0), G(0)])
print("convex blob has point homology:", report.passed)

# relative nerve: shrink the same eight balls until they only hug the
# inner boundary circle of the annulus; the inclusion is a homotopy
# equivalence, so all relative groups vanish
full, subfamily, shrink = annulus_cover()
pair = relative_nerve(full, subfamily, shrink)
rel = all_homology(pair, up_to=2)
print("annulus pair nerve:", pair.total.f_vector(), "sub:", pair.sub.f_vector())
print("relative homology (all trivial):", [str(g) for g in rel])
