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
the matching columns of d_k, which are then never read (clearing:
Chen-Kerber, "Persistent homology computation with a twist", EuroCG 2011;
Bauer, "Ripser", J. Appl. Comput. Topol. 5, 2021).  This is sound over Z.
Up to each unit-loop pivot the kernel has done column operations only, and
every earlier pivot row is zero in every live column; so the reduced pivot
columns are in im d_{k+1} and, restricted to their pivot rows, form a unit
triangular matrix.  As d_k d_{k+1} = 0, each retired column of d_k is then
an integer combination of the columns that are not retired, and dropping
it changes neither the rank nor the invariant factors of d_k.  The
argument holds for relative boundaries too.  A non-unit pivot is not
recorded, nor is any pivot after the first remainder step: that step is a
row operation, after which the columns are images in another basis.
So ``all_homology`` walks the degrees from the top down, and every d_k
below the top one is eliminated cleared.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import (
    AbelianGroupStructure,
    ExactArithmeticError,
    IntegerMatrix,
    rank_mod_p,
    rational_rank,
    smith_normal_form,
)
from .simplicial import SimplicialComplex, SimplicialPair, boundary_matrix

ORACLE_PRIMES = (2, 3, 5, 7, 11, 13)


def _homology_from_boundaries(d_k: IntegerMatrix, d_k1: IntegerMatrix) -> AbelianGroupStructure:
    snf_in = smith_normal_form(d_k1)
    rank_out = smith_normal_form(d_k, retired=snf_in.unit_rows).rank
    betti = d_k.cols - rank_out - snf_in.rank
    if betti < 0:
        raise ExactArithmeticError("negative Betti number: boundary maps are inconsistent")
    return AbelianGroupStructure(betti=betti, invariant_factors=snf_in.factors)


def homology(complex_: SimplicialComplex | SimplicialPair, k: int) -> AbelianGroupStructure:
    """H_k of the complex, or of the quotient chain complex of the pair,
    with integer coefficients."""
    d_k1 = boundary_matrix(complex_, k + 1)
    d_k = boundary_matrix(complex_, k)
    return _homology_from_boundaries(d_k, d_k1)


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


def homology_oracle_crosscheck(complex_: SimplicialComplex, k: int) -> OracleReport:
    """Recompute H_k by independent means and compare.

    Betti number: rational-rank row reduction (no SNF involved).
    Torsion primes: p divides the torsion of H_k exactly when the rank of
    d_{k+1} drops modulo p; checked for the fixed prime list.  Disagreement
    raises, since it means one of the two pipelines is wrong.
    """
    if len(complex_.simplices) > 500:
        raise ValueError("oracle cross-check is restricted to small complexes (<= 500 simplices)")
    d_k = boundary_matrix(complex_, k)
    d_k1 = boundary_matrix(complex_, k + 1)

    group = _homology_from_boundaries(d_k, d_k1)
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
