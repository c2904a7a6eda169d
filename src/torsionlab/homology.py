"""Integer simplicial homology with full torsion, plus a mod-p cross-check.

Homology in degree k is ker(d_k)/im(d_{k+1}).  Since im(d_{k+1}) lies in
ker(d_k) and chain groups are free, the Betti number is
n_k - rank(d_k) - rank(d_{k+1}) and the torsion is read off the invariant
factors of d_{k+1}.  The convention is unreduced homology: H_0 of a
connected complex is Z.  A pair is one more chain complex, the quotient
of the total by the sub, so the same functions give relative homology.

Both boundary matrices go through ``exact.smith_normal_form``, the sparse
elimination that returns the rank and the invariant factors above 1.  On
the boundary matrices of surfaces and nerves nearly every pivot is +-1.
A complex or pair keeps its boundary matrices and each matrix its Smith
form, so ``all_homology`` builds and eliminates every d_k once although
degrees k - 1 and k both ask for it.

d_{k+1} is eliminated before d_k, and the rows of its unit pivots retire
the matching columns of d_k (clearing:
Chen-Kerber, "Persistent homology computation with a twist", EuroCG 2011;
Bauer, "Ripser", J. Appl. Comput. Topol. 5, 2021).  This is sound over Z.
The kernel's column pass does column operations only, so the reduced
pivot columns are in im d_{k+1} and, restricted to their pivot rows, form
a unit triangular matrix (the residual is zero there: d_{k+1} ~ I ⊕ R).
As d_k d_{k+1} = 0, each retired column of d_k is then an integer
combination of the columns that are not retired, and dropping it changes
neither the rank nor the invariant factors of d_k.  The argument holds for
relative boundaries too.  No pivot of the remainder phase is recorded,
not even a unit: a remainder step is a row operation, after which the
columns are images in another basis.
Clearing happens once, at assembly: ``homology`` passes those rows to
``boundary_matrix`` as ``retired``, which leaves the columns empty and
never builds them; the Smith kernel has no notion of retired columns, it
finds them empty.  So ``all_homology`` walks the degrees from the top
down, and every d_k below the top one is assembled and eliminated
cleared, once.  Only these matrices are kept; a caller without
``retired`` gets a whole d_k.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import AbelianGroupStructure, ExactArithmeticError, rank_mod_p, smith_normal_form
from .simplicial import SimplicialComplex, SimplicialPair, boundary_matrix

ORACLE_PRIMES = (2, 3, 5, 7, 11, 13, 2**31 - 1)


def homology(complex_: SimplicialComplex | SimplicialPair, k: int) -> AbelianGroupStructure:
    """H_k of the complex, or of the quotient chain complex of the pair,
    with integer coefficients: the Betti number from the ranks of d_k,
    cleared by the unit rows of d_{k+1}, and of d_{k+1}, and the torsion
    from the invariant factors of d_{k+1}."""
    # retired=(): the d_{k+1} kept, cleared or whole, as only its Smith form is read
    snf_in = smith_normal_form(boundary_matrix(complex_, k + 1, retired=()))
    d_k = boundary_matrix(complex_, k, retired=snf_in.unit_rows)
    betti = d_k.cols - smith_normal_form(d_k).rank - snf_in.rank
    if betti < 0:
        raise ExactArithmeticError("negative Betti number: boundary maps are inconsistent")
    return AbelianGroupStructure(betti=betti, invariant_factors=snf_in.factors)


def all_homology(complex_: SimplicialComplex | SimplicialPair,
                 up_to: int | None = None) -> list[AbelianGroupStructure]:
    """H_0 .. H_up_to as a list (default: up to the complex dimension)."""
    top = complex_.dimension if up_to is None else up_to
    return [homology(complex_, k) for k in reversed(range(max(top, 0) + 1))][::-1]


# perfbench/workloads.py calls the pair path by this name
all_relative_homology = all_homology


def betti_euler_characteristic(complex_: SimplicialComplex) -> int:
    return sum((-1) ** k * g.betti for k, g in enumerate(all_homology(complex_)))


def primes_of(n: int) -> tuple[set[int], int]:
    """The primes of n >= 1 by trial division below 2^16, and the cofactor
    left unfactored: 1, or a number of at least 2^32 with no prime below
    2^16.  A cofactor left below 2^32 is a prime, as a composite one would
    have a prime below 2^16."""
    primes, d = set(), 2
    while d * d <= n and d < 1 << 16:
        while n % d == 0:
            primes.add(d)
            n //= d
        d += 1
    if n > 1 and d * d > n:
        primes.add(n)
        n = 1
    return primes, n


@dataclass(frozen=True)
class OracleReport:
    """H_k as ``all_homology`` reports it, and per prime the dimension of
    H_k(X; F_p) computed from the whole boundary matrices and the one
    predicted from the reported H_k and H_{k-1}.  The primes are those of
    ORACLE_PRIMES and of the reported invariant factors; ``unfactored``
    names each part of a factor that ``primes_of`` left, unchecked."""

    degree: int
    group: AbelianGroupStructure
    computed: dict[int, int]
    predicted: dict[int, int]
    unfactored: tuple[int, ...] = ()

    @property
    def agrees(self) -> bool:
        return self.computed == self.predicted


def homology_oracle_crosscheck(complex_: SimplicialComplex | SimplicialPair, k: int) -> OracleReport:
    """Check H_k of a complex or pair, as ``all_homology`` reports it,
    against ranks mod p of the whole boundary matrices.

    By universal coefficients (Hatcher, *Algebraic Topology*, §3.A),
    dim H_k(X; F_p) = b_k + t_k(p) + t_{k-1}(p), where b_k is the Betti
    number and t_j(p) counts the invariant factors of H_j divisible by p.
    The left side is n_k - rank_p(d_k) - rank_p(d_{k+1}), from
    ``rank_mod_p`` on the whole matrices: no Smith form, no clearing.  At
    the prime 2^31 - 1 the identity checks the Betti number.  It is checked
    at ORACLE_PRIMES and at every prime of a reported invariant factor that
    ``primes_of`` finds; a part it leaves unfactored is named in the report.
    Disagreement raises, since it means the clearing, the Smith kernel or
    the oracle is wrong.  The check cannot tell Z/4 from Z/2, nor see a
    prime missing from a factor when it lies outside ORACLE_PRIMES.
    """
    groups = all_homology(complex_, up_to=max(k, complex_.dimension))
    factors = groups[k].invariant_factors + (groups[k - 1].invariant_factors if k else ())
    primes, unfactored = set(ORACLE_PRIMES), set()
    for found, rest in map(primes_of, set(factors)):
        primes |= found
        unfactored |= {rest} - {1}
    primes = sorted(primes)
    d_k, d_k1 = boundary_matrix(complex_, k), boundary_matrix(complex_, k + 1)
    report = OracleReport(
        degree=k,
        group=groups[k],
        computed={p: d_k.cols - rank_mod_p(d_k, p) - rank_mod_p(d_k1, p) for p in primes},
        predicted={p: groups[k].betti + sum(d % p == 0 for d in factors) for p in primes},
        unfactored=tuple(sorted(unfactored)),
    )
    if not report.agrees:
        raise ExactArithmeticError(f"homology oracle disagreement: {report}")
    return report
