"""Integer simplicial homology with full torsion, plus cross-check oracles.

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

from .exact import (
    AbelianGroupStructure,
    ExactArithmeticError,
    rank_mod_p,
    rational_rank,
    smith_normal_form,
)
from .simplicial import SimplicialComplex, SimplicialPair, boundary_matrix

ORACLE_PRIMES = (2, 3, 5, 7, 11, 13)


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


@dataclass(frozen=True)
class OracleReport:
    """Agreement record between the SNF pipeline and the modular oracle."""

    degree: int
    betti_snf: int
    betti_rational: int
    torsion_primes_snf: tuple[int, ...]
    torsion_primes_modular: tuple[int, ...]
    agrees: bool


def homology_oracle_crosscheck(complex_: SimplicialComplex | SimplicialPair, k: int) -> OracleReport:
    """Check H_k of a complex or pair, as ``all_homology`` reports it,
    against whole boundary matrices reduced by independent means.

    The group is the one ``all_homology`` gives, from the matrices cleared
    at assembly and their Smith forms.  Betti number: rational-rank row
    reduction of the whole d_k and d_{k+1} (no SNF, no clearing).  Torsion
    primes: p divides the torsion of H_k exactly when the rank of the whole
    d_{k+1} drops modulo p; checked for the fixed prime list.  Disagreement
    raises, since it means the clearing, the Smith kernel or the oracle is
    wrong.
    """
    if sum(len(complex_.simplices_of_dim(j)) for j in range(complex_.dimension + 1)) > 500:
        raise ValueError("oracle cross-check is restricted to small complexes (<= 500 simplices)")
    group = all_homology(complex_, up_to=max(k, complex_.dimension))[k]
    d_k = boundary_matrix(complex_, k)
    d_k1 = boundary_matrix(complex_, k + 1)
    rk_q = rational_rank(d_k1)
    betti_rational = d_k.cols - rational_rank(d_k) - rk_q
    modular = tuple(p for p in ORACLE_PRIMES if rank_mod_p(d_k1, p) < rk_q)
    snf_primes = tuple(p for p in ORACLE_PRIMES if group.torsion_order % p == 0)

    report = OracleReport(
        degree=k,
        betti_snf=group.betti,
        betti_rational=betti_rational,
        torsion_primes_snf=snf_primes,
        torsion_primes_modular=modular,
        agrees=(group.betti == betti_rational and snf_primes == modular),
    )
    if not report.agrees:
        raise ExactArithmeticError(f"homology oracle disagreement: {report}")
    return report
