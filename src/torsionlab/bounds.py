"""Torsion bounds: the column-norm cokernel bound and the (D, V) bound,
with the seeded random instances that `verify soule` and `verify dv-bound`
check them on.

Both bounds are verified *rigorously*: the decisive comparison is done in
exact integer arithmetic (squared norms, integer powers), so a reported
"holds" never depends on floating-point rounding.  The floating logs in
the reports are for human consumption only.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from dataclasses import dataclass

from .exact import IntegerMatrix, cokernel, independent_columns
from .homology import homology
from .simplicial import (
    SimplicialPair,
    complexity_profile,
    empty_complex,
    random_dv_complex,
    random_subcomplex,
)


def _sqrt_float(n: int) -> float:
    """The double nearest to sqrt(n) for an integer n >= 0; inf past the float range.

    n is scaled by an even power of two into [2^108, 2^110), plus a sticky
    bit for any bits shifted out, so its integer root s has 55 bits and
    sqrt = 2^k (s + f), 0 <= f < 1.  The rounding points of 2s + 2f to 53
    bits are even integers, so 2s + (1 if f else 0) rounds the same.
    """
    k = (n.bit_length() - 109) // 2
    m = n >> 2 * k if k >= 0 else n << -2 * k
    s = math.isqrt(m)
    inexact = s * s != m or (k > 0 and m << 2 * k != n)
    try:
        return math.ldexp(float(2 * s + inexact), k - 1)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class SouleBoundReport:
    """Torsion of the cokernel against the product of selected column norms."""

    chosen_columns: tuple[int, ...]
    bound: float
    bound_squared: int
    exact_torsion: int
    holds: bool

    def ratio(self) -> float:
        """log(torsion) / log(bound); 0 when either side is trivial."""
        if self.exact_torsion <= 1 or self.bound_squared <= 1:
            return 0.0
        return 2.0 * math.log(self.exact_torsion) / math.log(self.bound_squared)


def soule_bound(mat: IntegerMatrix) -> SouleBoundReport:
    """Check |torsion of coker| <= product of norms over a column basis.

    The column subset is picked greedily in column order: every column at
    full column rank, which the cokernel gives, and otherwise the Bareiss
    ``independent_columns``.  The inequality is decided on squared
    integers: torsion^2 <= prod ||col||^2.
    """
    group = cokernel(mat)
    chosen = range(mat.cols) if mat.rows - group.betti == mat.cols else independent_columns(mat)

    bound_sq = 1
    for j in chosen:
        bound_sq *= sum(v * v for v in mat.columns[j].values())
    torsion = group.torsion_order

    return SouleBoundReport(
        chosen_columns=tuple(chosen),
        bound=_sqrt_float(bound_sq),
        bound_squared=bound_sq,
        exact_torsion=torsion,
        holds=torsion * torsion <= bound_sq,
    )


@dataclass(frozen=True)
class DVBoundReport:
    """log torsion of H_p(total, sub) against D^p * V * log(p+1)."""

    D: int
    V: int
    torsion_order: int
    log_torsion: float
    log_bound: float
    holds: bool

    def ratio(self) -> float:
        # torsion above 1 lies in an H_p with p >= 1, which needs a p-simplex:
        # then D, V >= 1 and log(p + 1) > 0, so log_bound is positive
        if self.torsion_order <= 1:
            return 0.0
        return self.log_torsion / self.log_bound


def dv_torsion_check(pair: SimplicialPair, p: int) -> DVBoundReport:
    """Exact check of torsion(H_p(total, sub)) <= (p+1)^(D^p * V).

    D and V come from the profile of the total complex.  The comparison
    is torsion <= (p+1)**(D^p * V) over the integers.  For p >= 1 and an
    exponent of at least torsion's bit length it holds without the power:
    (p+1)^e >= 2^e > torsion.
    """
    profile = complexity_profile(pair.total)
    torsion = homology(pair, p).torsion_order
    exponent = (profile.D ** p) * profile.V
    holds = ((p >= 1 and exponent >= torsion.bit_length())
             or torsion <= (p + 1) ** exponent)
    try:
        log_bound = exponent * math.log(p + 1)
    except OverflowError:  # the exponent is past the float range
        log_bound = math.inf
    return DVBoundReport(
        D=profile.D,
        V=profile.V,
        torsion_order=torsion,
        log_torsion=float(math.log(torsion)) if torsion > 1 else 0.0,
        log_bound=log_bound,
        holds=holds,
    )


# The seeded instance families: matrices up to SOULE_MAX_SIZE square with
# entries in [-SOULE_MAX_ENTRY, SOULE_MAX_ENTRY], and (D, V) complexes
# checked in the degrees DV_DEGREES.
SOULE_MAX_SIZE = 10
SOULE_MAX_ENTRY = 5
DV_MAX_DEGREE = 6
DV_MAX_VERTICES = 30
DV_DIM = 3
DV_DEGREES = (1, 2)


def random_matrices(count: int, seed: int) -> Iterator[IntegerMatrix]:
    """`count` random matrices, all drawn from one `random.Random(seed)`."""
    rng = random.Random(seed)
    for _ in range(count):
        rows = rng.randint(1, SOULE_MAX_SIZE)
        cols = rng.randint(1, SOULE_MAX_SIZE)
        yield IntegerMatrix.from_rows(
            [[rng.randint(-SOULE_MAX_ENTRY, SOULE_MAX_ENTRY) for _ in range(cols)]
             for _ in range(rows)], cols)


def random_dv_pairs(count: int, seed: int, with_subcomplexes: bool = False) -> Iterator[SimplicialPair]:
    """`count` random (D, V) complexes, each seeded by (seed, index) alone.

    With `with_subcomplexes` every other pair is genuine (the full
    subcomplex on a random vertex subset); otherwise the subcomplex is
    empty and the check covers absolute homology.
    """
    for index in range(count):
        total = random_dv_complex(DV_MAX_DEGREE, DV_MAX_VERTICES, DV_DIM, seed=seed * 1_000_003 + index)
        if with_subcomplexes and index % 2 == 1:
            sub = random_subcomplex(total, seed=seed * 1_000_033 + index)
        else:
            sub = empty_complex(total.vertex_count)
        yield SimplicialPair(total=total, sub=sub)
