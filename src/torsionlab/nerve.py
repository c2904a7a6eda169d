"""Nerves of finite covers by metric balls in Euclidean or hyperbolic space.

Ball covers are good covers, so by the nerve lemma the nerve has the
homology of the union.  By Lagrange duality, closed balls B(c_i, r_i) share
a point iff A is copositive (l^T A l >= 0 for all l >= 0): in E^d,
A_ij = r_i^2 + r_j^2 - |c_i - c_j|^2; on the hyperboloid, where the ball is
the half-space -<x, c_i> <= h_i = cosh(r_i) sqrt(-<c_i, c_i>) of the upper
sheet, A_ij = h_i h_j + <c_i, c_j>.  Floats are dyadic rationals, so a
Euclidean decision is exact.  A grows with h, so rational enclosures of h
certify a hyperbolic one; when they straddle the boundary the decision is
rerun at doubled bits, and raises only past MAX_ENCLOSURE_BITS.

A nerve builds A once for the whole cover: in E^d from one dyadic scaling
of every centre and radius; in H^d from one Gram matrix and one enclosure
of each h_i, at ENCLOSURE_BITS plus 2 bits per halving of the cover's
least radius, which gives A at the lower and at the upper h.  Of A it
keeps the diagonal and the entries of the pairs that meet.  A pair meets
iff its 2x2 A is copositive, a closed form.  A float filter first decides
every pair of the cover at once from the float centres, radii and upper h:
a pair whose disjointness it certifies is never built in big integers;
every other pair gets the exact closed form.
A larger tuple is a candidate only when every facet spans a simplex, and
the candidates come from joining the simplices one level down that share
all but their last vertex.  Then each proper principal submatrix of its A
is copositive at the lower h, and so, A growing with h, at the upper h, and
the sign vector of A_SS^-1 1 on the full support decides the tuple at each
end.  Past d + 1 balls Helly's theorem decides a candidate: its facets
meet, so it does.  The nerve gathers each level's candidates and a second
float filter decides them together first, from the signs of det A_SS and
of the Cramer determinants in one float copy of A.  A tuple it cannot
certify, a near-tie, gets one fraction-free solve; the filter and the
solve both need every facet certified at the same lower A, so a straddle
reruns the whole cover, not the one tuple.  Both filters keep a float
sign only where certify.stands() certifies it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations, groupby

import numpy as np

from . import hyperbolic as hyp
from .certify import cosh_roots, float_copy, inverse_sum_negative, inverse_sum_signs, stands
from .exact import AbelianGroupStructure
from .homology import all_homology
from .simplicial import SimplicialComplex, SimplicialPair


# Bits of the first enclosure of h, and the most that refinement doubles them to.
ENCLOSURE_BITS = 96
MAX_ENCLOSURE_BITS = ENCLOSURE_BITS << 6


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


def _dyadic(rows: list[list[float]]) -> tuple[list[list[int]], int]:
    """The rows times 2^e, the least power of two that makes every entry an
    integer, and e."""
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    shift = max((d.bit_length() for row in ratios for _, d in row), default=1)
    return [[n << (shift - d.bit_length()) for n, d in row] for row in ratios], shift - 1


# Float cells the pair filter forms at once: a block of rows against every ball.
_BLOCK = 1 << 16


@np.errstate(over="ignore", invalid="ignore")  # overflow makes stands() abstain
def _apart(points: np.ndarray, sizes: np.ndarray, hyperbolic: bool, rows: slice) -> np.ndarray:
    """(rows, n) mask of the pairs of balls the float filter certifies do not
    meet, as pair_meets() decides it exactly: certify.stands() keeps each
    sign with L + 3 roundings, L coordinates per centre, against per, the
    same sum over absolute values.  Every other pair goes to pair_meets().

    In E^d sizes holds the radii, and the balls are disjoint iff q = |c_i|^2
    + |c_j|^2 - 2 c_i.c_j - (r_i + r_j)^2 > 0.  Every term of q carries at
    most L + 3 roundings (a dot product of L terms, then three additions;
    the sum and square of the radii, then one), and subnormal products add
    at most (4L + 1) 2^-1075 to it.
    In H^d sizes holds the upper h, each the correctly rounded quotient of its
    enclosure, and the filter certifies that the 2x2 A, A_ij = h_i h_j +
    <c_i, c_j>, is not copositive at the upper h: A_ij < 0 and q = A_ij^2 -
    A_ii A_jj > 0.  Then it is not copositive at the lower h either, A growing
    with h, so pair_meets() says no and never raises.  Each entry of A carries
    at most L + 1 roundings (the Lorentz dot product, then one addition; the
    conversion of h, the product and the addition on the other side), so
    |fl(A_ij) - A_ij| <= gamma_(L+1) m_ij, m_ij = h_i h_j + |c_i|.|c_j|, and
    with two products and a subtraction more |fl(q) - q| <= (2 gamma_(L+2)
    + O(2^-104)) per, per = m_ij^2 + m_ii m_jj.  The centres lie on the
    hyperboloid, so every h_i and m is about 1 or more: per, which bounds
    each factor an error of A is multiplied by in q, is never tiny.
    """
    def gram(u, v):
        # einsum's own loop: a BLAS matmul would raise the peak RSS for no gain here
        return np.einsum("ik,jk->ij", u, v)

    def positive(margin, per):
        return stands(margin, per, points.shape[1] + 3) & (margin > 0)

    block = points[rows]
    magnitude = gram(np.abs(block), np.abs(points))
    squares = (points * points).sum(axis=1)
    if not hyperbolic:
        reach = np.square(sizes[rows, None] + sizes)
        near = squares[rows, None] + squares
        return positive(near - 2 * gram(block, points) - reach, near + 2 * magnitude + reach)
    signs = np.ones(points.shape[1])
    signs[0] = -1.0
    products = sizes[rows, None] * sizes
    a, m = products + gram(block * signs, points), products + magnitude
    a_diagonal = sizes * sizes + (points * signs * points).sum(axis=1)
    m_diagonal = sizes * sizes + squares
    return positive(-a, m) & positive(a * a - a_diagonal[rows, None] * a_diagonal,
                                      m * m + m_diagonal[rows, None] * m_diagonal)


def _quotient(num: int, den: int) -> float:
    """num / den correctly rounded, or inf past the float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf


def _copositive_pair(a_ii: int, a_jj: int, a_ij: int) -> bool:
    """The 2x2 case of _copositive in closed form: a_ij >= -sqrt(a_ii a_jj)."""
    return a_ii >= 0 and a_jj >= 0 and (a_ij >= 0 or a_ij * a_ij <= a_ii * a_jj)


def _copositive(a: list[list[int]]) -> bool:
    """Whether l^T a l >= 0 for every l >= 0 (Kaplan, Linear Algebra Appl. 313, 2000).

    A minimiser over the simplex of least support S has a_SS nonsingular
    and a_SS l = m 1, so a fails iff some a_SS^-1 1 < 0.  For |S| = 1 that
    is a negative diagonal entry.
    """
    n = len(a)
    if any(a[i][i] < 0 for i in range(n)):
        return False
    return not any(inverse_sum_negative([[a[i][j] for j in s] for i in s])
                   for size in range(2, n + 1) for s in combinations(range(n), size))


def _certify(copositive, lower, upper, indices: tuple[int, ...]) -> bool:
    """Copositive at the lower A certifies a common point, failing at the
    upper A certifies none; upper is None when A is exact (E^d)."""
    if copositive(lower):
        return True
    if upper is None or not copositive(upper):
        return False
    raise IndeterminateIntersectionError(indices)


class _CoverMatrix:
    """A of a family of balls at one scale, built once from the floats.

    Every entry is the true A times one positive factor, which copositivity
    ignores.  In H^d, the rows lower and upper hold A at the lower and upper
    enclosure of h, made at bits plus 2 per halving of the least radius; in
    E^d there is one exact A, upper is None and bits is unused.  The rows
    keep the diagonal and the entries of the pairs pair_meets() accepts.
    """

    def __init__(self, space, balls: Sequence[tuple[np.ndarray, float]], bits: int):
        self.balls = balls
        if space.kind == "E":
            rows, _ = _dyadic([[*c, r] for c, r in balls])
            self._points = self._duals = [row[:-1] for row in rows]
            # A_ij = o_i + o_j + 2 c_i.c_j with o_i = r_i^2 - |c_i|^2
            self._offsets = [row[-1] ** 2 - sum(x * x for x in row[:-1]) for row in rows]
            self._lower_h = None
        else:
            self._points, exponent = _dyadic([list(c) for c, _ in balls])
            self._duals = [[-p[0], *p[1:]] for p in self._points]  # <u, v> = dual(u) . v
            # A's entries are O(r^2) differences of O(1) terms: 2 more bits per
            # halving of r, so the least radius of the family sets the precision
            least = min((r for _, r in balls), default=1.0)
            bits += 2 * max(0, -math.frexp(least)[1])
            h = cosh_roots([(r, -self._gram(i, i)) for i, (_, r) in enumerate(balls)], bits)
            den = math.lcm(*(x.denominator for x in h))
            # h (1 -+ 2**-bits) brackets the exact h, and A grows with h
            self._scale = den * den << 2 * bits
            self._lower_h, self._upper_h = (
                [x.numerator * (den // x.denominator) * ((1 << bits) + sign) for x in h]
                for sign in (-1, 1))
            # the upper h over this is h for the float centres: A up to a factor
            self._h_unit = (den << bits) << exponent
        diagonal = [self.entries(i, i) for i in range(len(balls))]
        self.lower = [{i: lo} for i, (lo, _) in enumerate(diagonal)]
        self.upper = None if self._lower_h is None else [
            {i: hi} for i, (_, hi) in enumerate(diagonal)]
        self._floats: list[np.ndarray] = []
        self._verdicts: dict[tuple[int, ...], bool] = {}

    def _gram(self, i: int, j: int) -> int:
        return sum(x * y for x, y in zip(self._duals[i], self._points[j]))

    def entries(self, i: int, j: int) -> tuple[int, int | None]:
        """A_ij at the lower and the upper h (None in E^d)."""
        if self._lower_h is None:
            return self._offsets[i] + self._offsets[j] + 2 * self._gram(i, j), None
        g = self._scale * self._gram(i, j)
        return self._lower_h[i] * self._lower_h[j] + g, self._upper_h[i] * self._upper_h[j] + g

    def full(self) -> tuple[list[list[int]], list[list[int]] | None]:
        """Both whole matrices."""
        n = len(self.balls)
        cells = [[self.entries(i, j) for j in range(n)] for i in range(n)]
        lower = [[lo for lo, _ in row] for row in cells]
        return lower, None if self.upper is None else [[hi for _, hi in row] for row in cells]

    def pairs(self) -> list[tuple[int, int]]:
        """The pairs i < j, in lexicographic order, that the float filter
        (_apart) does not certify disjoint: only these need pair_meets()."""
        n = len(self.balls)
        if n < 2:
            return []
        points = np.array([c for c, _ in self.balls])
        if self._lower_h is None:
            sizes = np.array([r for _, r in self.balls])
        else:
            sizes = np.array([_quotient(h, self._h_unit) for h in self._upper_h])
        found: list[tuple[int, int]] = []
        step = max(1, _BLOCK // max(1, n))
        for start in range(0, n, step):
            i, j = np.nonzero(~_apart(points, sizes, self._lower_h is not None,
                                      slice(start, start + step)))
            i += start
            found += zip(i[i < j].tolist(), j[i < j].tolist())
        return found

    def pair_meets(self, i: int, j: int) -> bool:
        """Whether balls i and j meet, from the closed 2x2 form; their entries
        are kept when they do."""
        lo, hi = self.entries(i, j)
        meets = _certify(lambda a: _copositive_pair(*a), (self.lower[i][i], self.lower[j][j], lo),
                         None if hi is None else (self.upper[i][i], self.upper[j][j], hi), (i, j))
        if meets:
            self.lower[i][j] = self.lower[j][i] = lo
            if hi is not None:
                self.upper[i][j] = self.upper[j][i] = hi
        return meets

    def certify(self, tuples: Sequence[tuple[int, ...]]) -> None:
        """Decide by the float filter what it can of one nerve level: tuples
        of one size, each with every facet meeting, gathered after every pair
        is decided.  A certified a_SS^-1 1 not < 0 at the lower A means the
        tuple meets; < 0 at the lower A, and at the upper A or in E^d, means
        it does not.  tuple_meets() reads these verdicts until the next call."""
        self._verdicts = {}
        if not tuples:
            return
        if not self._floats:
            self._floats = [float_copy(rows) for rows in (self.lower, self.upper)
                            if rows is not None]
        level = np.array(tuples)
        known, negative = inverse_sum_signs(self._floats[0], level)
        fails = np.flatnonzero(known & negative)
        if self.upper is not None and fails.size:
            at_upper = inverse_sum_signs(self._floats[1], level[fails])
            known[fails] = at_upper[0] & at_upper[1]
        self._verdicts = {tuples[n]: not negative[n] for n in np.flatnonzero(known).tolist()}

    def tuple_meets(self, s: tuple[int, ...], indices: tuple[int, ...]) -> bool:
        """Whether the balls s meet, given that every facet of s meets at the
        lower A: then, A growing with h, also at the upper A, so one solve on
        the full support decides each.  The verdict of certify() stands when
        it gave one."""
        verdict = self._verdicts.get(s)
        if verdict is not None:
            return verdict

        def principal(rows):
            return [[rows[i][j] for j in s] for i in s]

        return _certify(lambda a: not inverse_sum_negative(a), principal(self.lower),
                        None if self.upper is None else principal(self.upper), indices)


class _CoverTuple(Sequence):
    """The balls of a cover at a tuple of its indices, carrying the cover's
    matrix, whose rows hold every entry among them."""

    __slots__ = ("matrix", "indices")

    def __init__(self, matrix: _CoverMatrix, indices: tuple[int, ...]):
        self.matrix, self.indices = matrix, indices

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, k: int) -> tuple[np.ndarray, float]:
        return self.matrix.balls[self.indices[k]]


def _refined(decide):
    """decide(bits) from ENCLOSURE_BITS on, doubling the bits while its
    enclosures straddle; a straddle past MAX_ENCLOSURE_BITS is raised."""
    bits = ENCLOSURE_BITS
    while True:
        try:
            return decide(bits)
        except IndeterminateIntersectionError:
            if bits >= MAX_ENCLOSURE_BITS:
                raise
            bits *= 2


def _meets(space, balls: Sequence[tuple[np.ndarray, float]], indices: tuple[int, ...]) -> bool:
    def decide(bits):
        lower, upper = _CoverMatrix(space, balls, bits).full()
        return _certify(_copositive, lower, upper, indices)

    return _refined(decide)


def balls_intersect(space, a: tuple[np.ndarray, float], b: tuple[np.ndarray, float]) -> bool:
    return _meets(space, (a, b), (0, 1))


def common_point_exists(space, balls: Sequence[tuple[np.ndarray, float]],
                        indices: tuple[int, ...]) -> bool:
    """Whether the closed balls meet: exact in E^d, certified in H^d.

    A hyperbolic tuple whose enclosure of h straddles the boundary is
    decided again at doubled bits; past MAX_ENCLOSURE_BITS it raises
    IndeterminateIntersectionError(indices).  A tuple that nerve() passes
    is decided at its cover's bits: a straddle there reruns the cover.
    There the float filter's verdict stands when it gave one, each sign
    kept by certify.stands(); an exact solve decides the tuples it
    abstains on.  A plain list of balls is always
    decided exactly, every principal subset by its own solve.
    """
    if isinstance(balls, _CoverTuple):
        return balls.matrix.tuple_meets(balls.indices, indices)
    return _meets(space, balls, indices)


def nerve(cover: BallCover, max_dim: int | None = None) -> SimplicialComplex:
    """Nerve complex of the cover, up to the dimension cap.

    A tuple of indices spans a simplex exactly when the closed balls have
    a common point.  The default cap is the space dimension + 1; homology
    below the cap is unaffected by it.  A straddling enclosure reruns the
    whole cover at doubled bits.
    """
    if max_dim is None:
        max_dim = cover.space.dimension + 1
    if max_dim < 1:
        raise ValueError("dimension cap must be at least 1")
    return _refined(lambda bits: _nerve(cover, max_dim, bits))


def _nerve(cover: BallCover, max_dim: int, bits: int) -> SimplicialComplex:
    n = len(cover)
    matrix = _CoverMatrix(cover.space, cover.elements, bits)
    frontier = [(i, j) for i, j in matrix.pairs() if matrix.pair_meets(i, j)]
    simplices = {(i,) for i in range(n)} | set(frontier)
    for size in range(3, max_dim + 2):
        # s and t, sorted and sharing all but their last vertex, are two facets
        # of s + t[-1:]; the others drop a vertex of the shared prefix
        joined = (s + t[-1:] for _, level in groupby(frontier, key=lambda u: u[:-1])
                  for s, t in combinations(level, 2))
        candidates = [c for c in joined if all(c[:k] + c[k + 1:] in simplices
                                               for k in range(size - 2))]
        if size > cover.space.dimension + 1:
            # Helly: convex sets in E^d or H^d meet when every d + 1 of them
            # do, and every d + 1 of these lie in a facet, which meets
            frontier = candidates
        else:
            matrix.certify(candidates)
            frontier = [t for t in candidates
                        if common_point_exists(cover.space, _CoverTuple(matrix, t), t)]
        simplices.update(frontier)
    return SimplicialComplex._closed(n, frozenset(simplices))


def relative_nerve(cover: BallCover, subfamily: Sequence[int],
                   shrink: Sequence[float], max_dim: int | None = None) -> SimplicialPair:
    """The nerve of the cover over the nerve of the shrunken subfamily.

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
    return SimplicialPair(total=total, sub=sub)


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
