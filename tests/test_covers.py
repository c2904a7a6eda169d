"""H_1 of the index-(p + 1) covers of the figure-eight knot complement.

pi_1 = <x, y | XyxYxyXYxY> (capitals are inverses) acts on the projective
line P^1(F_p) through its Riley holonomy x -> (1 1; 0 1), y -> (1 0; -w 1),
w^2 + w + 1 = 0 mod p (Riley, Math. Proc. Camb. Phil. Soc. 77, 1975).  The
covering 2-complex has a vertex per point, an edge per generator and point
and a face per point; d_2 is read off the Fox derivatives of the relator.
These are the first matrices here with real torsion.
"""

import math

import pytest

from torsionlab.exact import IntegerMatrix, rank_mod_p, smith_normal_form
from torsionlab.homology import ORACLE_PRIMES, primes_of

RELATOR = "XyxYxyXYxY"


def projective_action(p):
    """Each generator's permutation of P^1(F_p), the point at infinity as p."""
    w = next(w for w in range(p) if (w * w + w + 1) % p == 0)

    def mobius(a, b, c, d):
        def image(z):
            num, den = (a, c) if z == p else ((a * z + b) % p, (c * z + d) % p)
            return p if den == 0 else num * pow(den, -1, p) % p
        return [image(z) for z in range(p + 1)]

    return {"x": mobius(1, 1, 0, 1), "y": mobius(1, 0, -w % p, 1)}


def cover_boundaries(action):
    """d_1 and d_2 of the cover: edge (g, s) runs from sheet s to g(s).
    From each sheet the relator's letters are walked in turn: a letter adds
    its edge at the sheet it leaves, an inverse letter subtracts the edge
    at the sheet it moves to."""
    n = len(action["x"])
    edge = {(g, s): k * n + s for k, g in enumerate("xy") for s in range(n)}
    back = {g: {t: s for s, t in enumerate(perm)} for g, perm in action.items()}
    d1 = [{s: -1, t: 1} if t != s else {} for g in "xy" for s, t in enumerate(action[g])]
    d2 = []
    for start in range(n):
        col, s = {}, start
        for letter in RELATOR:
            g = letter.lower()
            if letter == g:
                col[edge[g, s]] = col.get(edge[g, s], 0) + 1
                s = action[g][s]
            else:
                s = back[g][s]
                col[edge[g, s]] = col.get(edge[g, s], 0) - 1
        assert s == start  # the relator acts trivially
        d2.append(col)
    return IntegerMatrix(n, 2 * n, d1), IntegerMatrix(2 * n, n, d2)


@pytest.mark.parametrize("p, betti, factors", [
    (7, 2, (3, 3)),
    (13, 2, (6,)),
    (19, 2, (45,)),
    (31, 2, (3, 15)),
    (211, 2, (7, 665, 9897195)),
])
def test_h1_of_the_projective_covers(p, betti, factors):
    d1, d2 = cover_boundaries(projective_action(p))
    snf1, snf2 = smith_normal_form(d1), smith_normal_form(d2)
    n = p + 1
    assert snf1.rank == n - 1 and snf1.factors == ()  # one component, H_0 = Z
    assert (2 * n - snf1.rank - snf2.rank, snf2.factors) == (betti, factors)
    # by universal coefficients, each prime of a factor raises dim H_1(F_q)
    factored = [primes_of(f) for f in factors]
    assert all(rest == 1 for _, rest in factored)
    for q in sorted(set(ORACLE_PRIMES).union(*(primes for primes, _ in factored))):
        assert 2 * n - rank_mod_p(d1, q) - rank_mod_p(d2, q) == betti + sum(f % q == 0 for f in factors)
    if p == 211:
        # log torsion / sheets near vol / (6 pi) = 0.1077 (Bergeron-Venkatesh)
        assert round(math.log(math.prod(factors)) / n, 3) == 0.116
