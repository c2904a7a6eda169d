"""Torsion bounds: the column-norm cokernel bound and the (D, V) bound.

Both bounds are verified *rigorously*: the decisive comparison is done in
exact integer arithmetic (squared norms, integer powers), so a reported
"holds" never depends on floating-point rounding.  The floating logs in
the reports are for human consumption only.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

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


def soule_bound(mat: IntegerMatrix, prefer_small_norms: bool = False) -> SouleBoundReport:
    """Check |torsion of coker| <= product of norms over a column basis.

    The column subset is picked greedily in column order (optionally in
    order of increasing norm, which tightens the reported bound but does
    not affect validity).  The inequality is decided on squared integers:
    torsion^2 <= prod ||col||^2.
    """
    norms_sq = [sum(row[j] ** 2 for row in mat.entries) for j in range(mat.cols)]
    order = None
    if prefer_small_norms:
        order = sorted(range(mat.cols), key=lambda j: (norms_sq[j], j))
    chosen = independent_columns(mat, order=order)

    bound_sq = 1
    for j in chosen:
        bound_sq *= norms_sq[j]
    torsion = cokernel(mat).torsion_order

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
    p: int
    torsion_order: int
    log_torsion: float
    log_bound: float
    holds: bool

    def ratio(self) -> float:
        if self.torsion_order <= 1:
            return 0.0
        if self.log_bound == 0.0:
            return math.inf
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
        p=p,
        torsion_order=torsion,
        log_torsion=float(math.log(torsion)) if torsion > 1 else 0.0,
        log_bound=log_bound,
        holds=holds,
    )


@dataclass(frozen=True)
class BatchSummary:
    """Outcome of a randomized verification batch."""

    suite: str
    count: int
    seed: int
    failures: list[dict] = field(default_factory=list)
    max_ratio: float = 0.0
    records: list[dict] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return not self.failures


def _random_matrix(rng: random.Random, max_size: int = 10, max_entry: int = 5) -> IntegerMatrix:
    rows = rng.randint(1, max_size)
    cols = rng.randint(1, max_size)
    data = [[rng.randint(-max_entry, max_entry) for _ in range(cols)] for _ in range(rows)]
    return IntegerMatrix.from_rows(data, cols)


def batch_verify_soule(count: int, seed: int, max_size: int = 10, max_entry: int = 5) -> BatchSummary:
    """Run the column-norm bound on a deterministic batch of random matrices."""
    if count < 1:
        raise ValueError("count must be positive")
    rng = random.Random(seed)
    failures: list[dict] = []
    records: list[dict] = []
    max_ratio = 0.0
    for index in range(count):
        mat = _random_matrix(rng, max_size, max_entry)
        report = soule_bound(mat)
        record = {
            "index": index,
            "rows": mat.rows,
            "cols": mat.cols,
            "torsion": report.exact_torsion,
            "bound": report.bound,
            "holds": report.holds,
        }
        records.append(record)
        max_ratio = max(max_ratio, report.ratio())
        if not report.holds:
            record["matrix"] = mat.to_lists()
            failures.append(record)
    return BatchSummary("soule", count, seed, failures, max_ratio, records)


def batch_verify_dv(count: int, seed: int, max_degree: int = 6, max_vertices: int = 30,
                    dim: int = 3, degrees: tuple[int, ...] = (1, 2),
                    with_subcomplexes: bool = False) -> BatchSummary:
    """Run the (D, V) bound on a deterministic batch of random complexes.

    With `with_subcomplexes` every other instance is a genuine pair (the
    full subcomplex on a random vertex subset); otherwise the subcomplex
    is empty and the check covers absolute homology.
    """
    if count < 1:
        raise ValueError("count must be positive")
    failures: list[dict] = []
    records: list[dict] = []
    max_ratio = 0.0
    for index in range(count):
        total = random_dv_complex(max_degree, max_vertices, dim, seed=seed * 1_000_003 + index)
        if with_subcomplexes and index % 2 == 1:
            sub = random_subcomplex(total, seed=seed * 1_000_033 + index)
        else:
            sub = empty_complex(total.vertex_count)
        pair = SimplicialPair(total=total, sub=sub)
        for p in degrees:
            report = dv_torsion_check(pair, p)
            record = {
                "index": index,
                "p": p,
                "D": report.D,
                "V": report.V,
                "torsion": report.torsion_order,
                "log_bound": report.log_bound,
                "holds": report.holds,
            }
            records.append(record)
            max_ratio = max(max_ratio, report.ratio())
            if not report.holds:
                record["maximal_simplices"] = [list(s) for s in total.maximal_simplices()]
                record["sub_maximal_simplices"] = [list(s) for s in sub.maximal_simplices()]
                failures.append(record)
    return BatchSummary("dv-bound", count, seed, failures, max_ratio, records)
