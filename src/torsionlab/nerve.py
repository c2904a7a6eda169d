"""Nerves of finite covers by metric balls in Euclidean or hyperbolic space.

Ball covers are good covers, so by the nerve lemma the nerve has the
homology of the union.  By Lagrange duality, closed balls B(c_i, r_i) share
a point iff A is copositive (l^T A l >= 0 for all l >= 0): in E^d,
A_ij = r_i^2 + r_j^2 - |c_i - c_j|^2; on the hyperboloid, where the ball is
the half-space -<x, c_i> <= h_i = cosh(r_i) sqrt(-<c_i, c_i>) of the upper
sheet, A_ij = h_i h_j + <c_i, c_j>.  Floats are dyadic rationals, so a
Euclidean decision is exact.  A grows with h, so rational enclosures of h
certify a hyperbolic one, or raise when they straddle the boundary.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from . import hyperbolic as hyp
from .exact import AbelianGroupStructure, solve_scaled
from .homology import all_homology
from .precision import working_precision
from .simplicial import SimplicialComplex, SimplicialPair, build_complex


class IndeterminateIntersectionError(RuntimeError):
    """A tuple of balls whose common intersection cannot be certified."""

    def __init__(self, indices: tuple[int, ...]):
        self.indices = indices
        super().__init__(f"cannot certify intersection of balls {indices}")


class EuclideanSpace:
    """Flat R^d with the usual metric."""

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self.kind = "E"

    def check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"point must have {self.dimension} coordinates")
        return x


class HyperbolicSpace:
    """Hyperbolic d-space in the hyperboloid model."""

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self.kind = "H"

    def check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension + 1,):
            raise ValueError(f"hyperboloid point must have {self.dimension + 1} coordinates")
        return hyp.make_point(x)


@dataclass(frozen=True)
class BallCover:
    """Finite family of closed balls; the index set is the list position."""

    space: EuclideanSpace | HyperbolicSpace
    elements: tuple[tuple[np.ndarray, float], ...]

    @classmethod
    def of(cls, space, balls: Sequence[tuple[Sequence[float], float]]) -> "BallCover":
        elems = []
        for index, (center, radius) in enumerate(balls):
            center, radius = np.asarray(center, dtype=float), float(radius)
            if not (math.isfinite(radius) and np.isfinite(center).all()):
                raise ValueError(f"ball {index}: centre and radius must be finite")
            if radius <= 0:
                raise ValueError(f"ball {index}: radius must be positive")
            elems.append((space.check_point(center), radius))
        return cls(space=space, elements=tuple(elems))

    def __len__(self) -> int:
        return len(self.elements)


def _dyadic(rows: list[list[float]]) -> list[list[int]]:
    """The rows times the least power of two that makes every entry an integer."""
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    shift = max(d.bit_length() for row in ratios for _, d in row)
    return [[n << (shift - d.bit_length()) for n, d in row] for row in ratios]


def _copositive(a: list[list[int]]) -> bool:
    """Whether l^T a l >= 0 for every l >= 0 (Kaplan, Linear Algebra Appl. 313, 2000).

    A minimiser over the simplex of least support S has a_SS nonsingular
    and a_SS l = m 1, so a fails iff some a_SS^-1 1 < 0.  One fraction-free
    solve a_SS y = d 1 gives x = y / d: a_SS^-1 1 < 0 iff d != 0 and every
    y_i d < 0.  For |S| = 1 that is a negative diagonal entry.
    """
    n = len(a)
    if any(a[i][i] < 0 for i in range(n)):
        return False
    for size in range(2, n + 1):
        for s in combinations(range(n), size):
            d, y = solve_scaled([[a[i][j] for j in s] for i in s], [1] * size)
            if d and all(x * d < 0 for x in y):
                return False
    return True


def _context(bits: int) -> Context:
    # six correctly rounded Decimal operations at bits // 3 + 3 digits stay
    # far below a relative 2**-bits
    return Context(prec=bits // 3 + 3, Emax=MAX_EMAX, Emin=MIN_EMIN)


@functools.lru_cache(maxsize=1024)
def _cosh(r: float, bits: int) -> Decimal:
    """cosh r as (e^r + e^-r) / 2 in the enclosure's context: one per radius."""
    with localcontext(_context(bits)):
        x = Decimal(r).exp()
        return (x + 1 / x) / 2


def _common_point(space, balls: Sequence[tuple[np.ndarray, float]],
                  indices: tuple[int, ...]) -> bool:
    if space.kind == "E":
        rows = _dyadic([[*c, r] for c, r in balls])
        return _copositive([[u[-1] ** 2 + v[-1] ** 2 - sum((x - y) ** 2 for x, y in zip(u[:-1], v[:-1]))
                             for v in rows] for u in rows])
    rows = _dyadic([list(c) for c, _ in balls])
    gram = [[sum(x * y for x, y in zip(u[1:], v[1:])) - u[0] * v[0] for v in rows] for u in rows]
    # A's entries are O(r^2) differences of O(1) terms: 2 more bits per halving of r
    bits = working_precision() + 2 * max(0, -math.frexp(min(r for _, r in balls))[1])
    with localcontext(_context(bits)):
        h = [Fraction(_cosh(r, bits) * Decimal(-gram[i][i]).sqrt()) for i, (_, r) in enumerate(balls)]
    den = math.lcm(*(x.denominator for x in h))
    # h (1 -+ 2**-bits) brackets the exact h and A grows with h: copositive at
    # the lower end certifies a common point, failing at the upper end none
    for sign, meets in ((-1, True), (1, False)):
        b = [x.numerator * (den // x.denominator) * ((1 << bits) + sign) for x in h]
        if _copositive([[x * y + (g * den * den << 2 * bits) for y, g in zip(b, row)]
                        for x, row in zip(b, gram)]) == meets:
            return meets
    raise IndeterminateIntersectionError(indices)


def balls_intersect(space, a: tuple[np.ndarray, float], b: tuple[np.ndarray, float]) -> bool:
    return _common_point(space, (a, b), (0, 1))


def common_point_exists(space, balls: Sequence[tuple[np.ndarray, float]],
                        indices: tuple[int, ...]) -> bool:
    """Whether the closed balls meet: exact in E^d, certified in H^d.

    A hyperbolic tuple whose enclosure of h at working_precision() bits
    straddles the boundary raises IndeterminateIntersectionError(indices).
    """
    return _common_point(space, balls, indices)


def nerve(cover: BallCover, max_dim: int | None = None) -> SimplicialComplex:
    """Nerve complex of the cover, up to the dimension cap.

    A tuple of indices spans a simplex exactly when the closed balls have
    a common point.  The default cap is the space dimension + 1; homology
    below the cap is unaffected by it.
    """
    if max_dim is None:
        max_dim = cover.space.dimension + 1
    if max_dim < 1:
        raise ValueError("dimension cap must be at least 1")
    n = len(cover)
    space = cover.space
    adjacency: dict[int, set[int]] = {i: set() for i in range(n)}
    frontier = []
    for i, j in combinations(range(n), 2):
        try:
            met = balls_intersect(space, cover.elements[i], cover.elements[j])
        except IndeterminateIntersectionError:
            raise IndeterminateIntersectionError((i, j)) from None
        if met:
            frontier.append((i, j))
            adjacency[i].add(j)
            adjacency[j].add(i)
    simplices = {(i,) for i in range(n)} | set(frontier)
    for _ in range(2, max_dim + 1):
        next_frontier = []
        for s in frontier:
            for w in sorted(set.intersection(*(adjacency[v] for v in s))):
                if w > s[-1] and common_point_exists(space, [cover.elements[i] for i in s + (w,)], s + (w,)):
                    next_frontier.append(s + (w,))
        frontier = next_frontier
        simplices.update(frontier)
    return build_complex(simplices, vertex_count=n)


@dataclass(frozen=True)
class NervePair:
    """Nerve of a cover with the embedded nerve of a shrunken subfamily."""

    nerve: SimplicialComplex
    sub_nerve: SimplicialComplex

    def __post_init__(self):
        if not self.sub_nerve.simplices <= self.nerve.simplices:
            raise ValueError("sub-nerve is not a subcomplex of the nerve")

    def as_pair(self) -> SimplicialPair:
        return SimplicialPair(total=self.nerve, sub=self.sub_nerve)


def relative_nerve(cover: BallCover, subfamily: Sequence[int],
                   shrink: Sequence[float], max_dim: int | None = None) -> NervePair:
    """Nerve of the cover plus the nerve of the shrunken subfamily.

    The subfamily keeps its original indices, so its nerve is a genuine
    subcomplex of the full nerve (shrunken balls that meet force the
    originals to meet).
    """
    indices = list(subfamily)
    for k, j in enumerate(indices):
        if not 0 <= j < len(cover):
            raise ValueError(f"subfamily index {j} is not a ball of the cover (0..{len(cover) - 1})")
        if j in indices[:k]:
            raise ValueError(f"subfamily index {j} is repeated")
    if len(shrink) != len(indices):
        raise ValueError("one shrink radius per subfamily index required")
    for j, r in zip(indices, shrink):
        if not 0 < r <= cover.elements[j][1]:
            raise ValueError(f"shrink radius for index {j} must be in (0, original radius]")

    total = nerve(cover, max_dim=max_dim)
    sub_cover = BallCover(
        space=cover.space,
        elements=tuple((cover.elements[j][0], float(r)) for j, r in zip(indices, shrink)),
    )
    local = nerve(sub_cover, max_dim=max_dim)
    relabeled = {tuple(sorted(indices[v] for v in s)) for s in local.simplices}
    sub = SimplicialComplex(vertex_count=len(cover), simplices=frozenset(relabeled))
    return NervePair(nerve=total, sub_nerve=sub)


@dataclass(frozen=True)
class NerveLemmaReport:
    computed: tuple[AbelianGroupStructure, ...]
    reference: tuple[AbelianGroupStructure, ...]
    mismatches: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not self.mismatches


def nerve_lemma_check(cover: BallCover, reference: Sequence[AbelianGroupStructure],
                      max_dim: int | None = None) -> NerveLemmaReport:
    """Compare nerve homology against known homology of the cover's union.

    Degrees checked run over the reference list, which must stay below
    the dimension cap (the cap skeleton distorts homology at the cap
    itself).  Simplices up to dimension len(reference) fix those degrees.
    """
    cap = cover.space.dimension + 1 if max_dim is None else max_dim
    if len(reference) > cap:
        raise ValueError("reference list reaches the dimension cap; raise max_dim")
    complex_ = nerve(cover, max_dim=max(1, len(reference)))
    computed = tuple(all_homology(complex_, up_to=len(reference) - 1))
    mismatches = tuple(k for k, (got, want) in enumerate(zip(computed, reference)) if got != want)
    return NerveLemmaReport(computed=computed, reference=tuple(reference), mismatches=mismatches)


# --- cover file format -------------------------------------------------------
#
#   space E 2        (or: space H 3)
#   ball x1 ... xd r    Euclidean coordinates, or d+1 hyperboloid coordinates


def read_cover(text: str) -> BallCover:
    space = None
    balls: list[tuple[list[float], float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "space":
            if len(parts) != 3 or parts[1] not in ("E", "H"):
                raise ValueError(f"line {lineno}: expected 'space E <d>' or 'space H <d>'")
            try:
                d = int(parts[2])
            except ValueError:
                d = 0
            if d < 1:
                raise ValueError(f"line {lineno}: space dimension must be a positive integer")
            space = EuclideanSpace(d) if parts[1] == "E" else HyperbolicSpace(d)
        elif parts[0] == "ball":
            if space is None:
                raise ValueError(f"line {lineno}: 'space' line must come first")
            try:
                nums = [float(p) for p in parts[1:]]
            except ValueError:
                raise ValueError(f"line {lineno}: non-numeric ball data") from None
            want = space.dimension + (1 if space.kind == "H" else 0)
            if len(nums) != want + 1:
                raise ValueError(f"line {lineno}: expected {want} coordinates plus a radius")
            balls.append((nums[:-1], nums[-1]))
        else:
            raise ValueError(f"line {lineno}: unknown directive {parts[0]!r}")
    if space is None:
        raise ValueError("cover file has no 'space' line")
    return BallCover.of(space, balls)


def write_cover(cover: BallCover) -> str:
    lines = [f"space {cover.space.kind} {cover.space.dimension}"]
    for center, radius in cover.elements:
        coords = " ".join(repr(float(c)) for c in center)
        lines.append(f"ball {coords} {radius!r}")
    return "\n".join(lines) + "\n"


def circle_cover(count: int = 8, radius: float = 0.9) -> BallCover:
    """Balls centered at the count-th roots of unity on the unit circle."""
    angles = [2 * math.pi * k / count for k in range(count)]
    return BallCover.of(EuclideanSpace(2), [((math.cos(a), math.sin(a)), radius) for a in angles])


def annulus_cover(count: int = 8, ball_radius: float = 0.9,
                  inner_radius: float = 0.45) -> tuple[BallCover, list[int], list[float]]:
    """Cover of an annulus with a shrunken subfamily hugging the inner circle.

    Returns the full cover, the subfamily indices, and the shrink radii;
    feed these to relative_nerve.
    """
    cover = circle_cover(count, ball_radius)
    return cover, list(range(count)), [inner_radius] * count
