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

A nerve decides from floats first, and reaches big integers only where a
certified float sign abstains (Shewchuk, DCG 18, 1997; Brönnimann–Burnikel–
Pion, DAM 109, 2001).  One numpy pass per block of rows evaluates every
pair's test in floats, with its magnitude, the same sums over absolute
values: in E^d from the float centres and radii; in H^d from the float
centres and float bounds lo_i <= h_i <= hi_i, which give A at the lower
and at the upper h.  Each h_i is enclosed in rationals at ENCLOSURE_BITS
plus 2 bits per halving of the cover's least radius; lo_i and hi_i
contain that enclosure, from cosh r_i rounded outward and -<c_i, c_i>
with its rounding bound, so no big integer is formed (see
certify.cosh_root_bounds).  A pair meets iff its 2x2 A is copositive, a
closed form, and gets one of three verdicts: apart, where the filter
certifies that it is not copositive at the upper h (in E^d, |c_i - c_j| >
r_i + r_j); meets, where it certifies that it is copositive at the lower
h (in E^d, |c_i - c_j| < r_i + r_j); undecided, where the exact closed
form decides.  Each float entry of A carries n_e roundings, L + 3 in E^d
and L + 1 in H^d, L coordinates per centre.
A larger tuple is a candidate only when every facet spans a simplex.  Each
level keeps, for every tuple t one vertex smaller, the bitmask up[t] of the
w > t[-1] with t + (w,) in the level, so the candidates s + (w,) from s
are the w > s[-1] set in up[s minus v] for every vertex v of s.  Then each
proper principal submatrix of its A is copositive at the lower h, and so,
A growing with h, at the upper h, and the sign vector of A_SS^-1 1 on the
full support decides the tuple at each end.  Past d + 1 balls Helly's
theorem decides a candidate: its facets meet, so it does.  Below that a
second float filter signs all the candidates of a level at once, from
det A_SS and the Cramer determinants of float entries formed a chunk of
candidates at a time from the gathered centres and lower h (upper h only
for the candidates it finds negative there), and returns its verdicts; nerve() then decides each candidate through
common_point_exists(), where a verdict stands and a tuple the filter
cannot certify, a near-tie, gets one fraction-free solve.
Exact entries, each the true A times one positive factor, are built only
for such a fallback, and only those among its balls: in E^d from one
dyadic scaling of every centre and radius, in H^d from one dyadic scaling
of every centre and the rational enclosure of h, each made at the first
fallback.  The filters and the solve all need every facet certified at
the same lower A, so a straddle reruns the whole cover, not the one
tuple.  Both filters keep a float sign only where certify.stands()
certifies it.
Given a plain list of balls, common_point_exists() uses neither filter:
the reference the nerve is checked against.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, combinations_with_replacement

import numpy as np

from . import hyperbolic as hyp
from .certify import cosh_root_bounds, cosh_roots, inverse_sum_negative, inverse_sum_signs, stands
from .exact import AbelianGroupStructure, ExactArithmeticError, InputError
from .homology import all_homology
from .simplicial import SimplicialComplex, SimplicialPair, _closure, _content_lines


# Bits of the first enclosure of h, and the most that refinement doubles them to.
ENCLOSURE_BITS = 96
MAX_ENCLOSURE_BITS = ENCLOSURE_BITS << 6


class IndeterminateIntersectionError(ExactArithmeticError):
    """A tuple of balls whose common intersection cannot be certified."""

    def __init__(self, indices: tuple[int, ...]):
        self.indices = indices
        super().__init__(f"cannot certify intersection of balls {indices}")


@dataclass(frozen=True, eq=False)  # identity equality: BallCover compares spaces, not values
class Space:
    """Flat R^d (kind "E") or hyperbolic d-space in the hyperboloid model (kind "H")."""

    kind: str
    dimension: int

    def __post_init__(self):
        if self.kind not in ("E", "H"):
            raise ValueError("space kind must be 'E' or 'H'")
        if self.dimension < 1:
            raise ValueError("dimension must be positive")

    @property
    def coordinates(self) -> int:
        """A point's coordinate count: d in E^d, d + 1 on the hyperboloid."""
        return self.dimension + (self.kind == "H")

    def check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.coordinates,):
            point = "point" if self.kind == "E" else "hyperboloid point"
            raise ValueError(f"{point} must have {self.coordinates} coordinates")
        return x if self.kind == "E" else hyp.make_point(x)


def EuclideanSpace(dimension: int) -> Space:
    """Flat R^d with the usual metric."""
    return Space("E", dimension)


def HyperbolicSpace(dimension: int) -> Space:
    """Hyperbolic d-space in the hyperboloid model."""
    return Space("H", dimension)


@dataclass(frozen=True)
class BallCover:
    """Finite family of closed balls; the index set is the list position."""

    space: Space
    elements: tuple[tuple[np.ndarray, float], ...]

    @classmethod
    def of(cls, space, balls: Sequence[tuple[Sequence[float], float]]) -> "BallCover":
        return cls(space=space, elements=tuple(_checked_ball(space, index, center, radius)
                                               for index, (center, radius) in enumerate(balls)))

    def __len__(self) -> int:
        return len(self.elements)


def _checked_ball(space, index: int, center: Sequence[float], radius: float
                  ) -> tuple[np.ndarray, float]:
    """Ball index of a cover as BallCover keeps it; each error names the index."""
    center, radius = np.asarray(center, dtype=float), float(radius)
    if not (math.isfinite(radius) and np.isfinite(center).all()):
        raise InputError(f"ball {index}: centre and radius must be finite")
    if radius <= 0:
        raise InputError(f"ball {index}: radius must be positive")
    try:
        return space.check_point(center), radius
    except ValueError as exc:  # a GeometryError stays one
        raise type(exc)(f"ball {index}: {exc}") from None


def _dyadic(rows: list[list[float]]) -> list[list[int]]:
    """The rows times the least power of two that makes every entry an integer."""
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    shift = max((d.bit_length() for row in ratios for _, d in row), default=1)
    return [[n << (shift - d.bit_length()) for n, d in row] for row in ratios]


def _dot(u: list[int], v: list[int]) -> int:
    return sum(x * y for x, y in zip(u, v))


def _grams(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u_i . v_j, |u_i| . |v_j|) for each i of the last axis of u and j of
    the last axis of v, one coordinate per row of the first axis: summed in
    coordinate order, so each term carries at most L roundings, L rows."""
    # a numpy operation per coordinate: einsum's loop over a few coordinates
    # is slower, and a BLAS matmul raises the peak RSS
    products = (x[..., :, None] * y[..., None, :] for x, y in zip(u, v))
    gram = next(products)
    magnitude = np.abs(gram)
    for p in products:
        gram += p
        magnitude += np.abs(p, out=p)
    return gram, magnitude


# Float cells one numpy pass forms: the pair filter takes a block of rows
# against every ball, and the tuple filter a chunk of k x k candidates.
_CELLS = 1 << 16


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
    """A of a family of balls at one scale.  The float filters form entries
    of A from the float centres, and the radii (E^d) or the float bounds on
    h (H^d); the exact state, and exact entries from it, are built only for
    the decisions the filters leave.

    In H^d, A is taken at the lower and the upper end of the rational
    enclosure of h, made at bits plus 2 per halving of the least radius,
    and the float bounds on h contain both ends; in E^d there is one A, and
    bits is unused.  An exact entry is the true A times one positive factor,
    which copositivity ignores.
    """

    @np.errstate(over="ignore", invalid="ignore")  # overflow makes stands() abstain
    def __init__(self, space, balls: Sequence[tuple[np.ndarray, float]], bits: int):
        self.balls = balls
        self._euclidean = space.kind == "E"
        n = len(balls)
        # one row per coordinate; <u, v> = dual(u) . v, with dual = c in E^d
        self._coordinates = np.array([c for c, _ in balls], dtype=float).reshape(
            n, space.coordinates).T.copy()
        self._duals = self._coordinates
        self._squares = (self._coordinates * self._coordinates).sum(axis=0)
        width = len(self._coordinates)
        if self._euclidean:
            self._radii = np.array([r for _, r in balls], dtype=float)
            # A_ij = o_i + o_j + 2 c_i.c_j, o_i = r_i^2 - |c_i|^2, and its
            # magnitude, with r_i^2 + |c_i|^2 in place of o_i
            squares = self._radii * self._radii
            self._offsets = squares - self._squares, squares + self._squares
            self._roundings = width + 3
            return
        self._duals = np.concatenate([-self._coordinates[:1], self._coordinates[1:]])
        self._lorentz = (self._duals * self._coordinates).sum(axis=0)
        # A's entries are O(r^2) differences of O(1) terms: 2 more bits per
        # halving of r, so the least radius of the family sets the precision
        least = min((r for _, r in balls), default=1.0)
        self._bits = bits + 2 * max(0, -math.frexp(least)[1])
        # float bounds on each h that contain its enclosure at these bits;
        # -<c, c> carries L roundings, L coordinates per centre
        self._float_h = cosh_root_bounds([r for _, r in balls], -self._lorentz, self._squares,
                                         width, self._bits)
        self._roundings = width + 1

    @cached_property
    def _exact(self) -> tuple:
        """The integer state, built at the first decision a filter leaves:
        (points, duals, scale, ends), with A_ij = scale duals[i] . points[j]
        + e_i + e_j (E^d) or + e_i e_j (H^d) at each end e of ends.  In E^d,
        one dyadic scaling of every centre and radius gives the centres,
        their own duals, scale 2 and the one end, the offsets o_i.  In H^d,
        one dyadic scaling of every centre gives the integer centres and
        their Lorentz duals (<u, v> = dual(u) . v); cosh_roots() encloses
        each h at the cover's bits, and the factor the Gram matrix takes and
        h at the lower and the upper end are over one common denominator."""
        if self._euclidean:
            rows = _dyadic([[*c, r] for c, r in self.balls])
            points = [row[:-1] for row in rows]
            return points, points, 2, [[row[-1] ** 2 - _dot(p, p) for row, p in zip(rows, points)]]
        points = _dyadic([list(c) for c, _ in self.balls])
        h = cosh_roots([(r, p[0] * p[0] - _dot(p[1:], p[1:]))
                        for p, (_, r) in zip(points, self.balls)], self._bits)
        den = math.lcm(*(x.denominator for x in h))
        ends = [[x.numerator * (den // x.denominator) * ((1 << self._bits) + sign) for x in h]
                for sign in (-1, 1)]
        duals = [[-p[0], *p[1:]] for p in points]
        return points, duals, den * den << 2 * self._bits, ends

    def principal(self, s: Sequence[int]) -> tuple[list[list[int]], list[list[int]] | None]:
        """A exactly on the rows and columns s, at the lower and the upper h
        (None in E^d); each cell is built once, for both triangles."""
        points, duals, scale, ends = self._exact
        matrices = [[[0] * len(s) for _ in s] for _ in ends]
        for (a, i), (b, j) in combinations_with_replacement(enumerate(s), 2):
            gram = scale * _dot(duals[i], points[j])
            for matrix, e in zip(matrices, ends):
                matrix[a][b] = matrix[b][a] = gram + (e[i] + e[j] if self._euclidean else e[i] * e[j])
        return matrices[0], matrices[1] if len(matrices) > 1 else None

    @np.errstate(over="ignore", invalid="ignore")  # overflow makes stands() abstain
    def _floats(self, rows: np.ndarray, columns: np.ndarray, ends=(0,)) -> list:
        """[(a, m)]: float A_ij for each i of rows and j of columns, index
        arrays of shapes (..., k) and (..., k'), and its magnitude, the same
        sums over absolute values, each of shape (..., k, k'); one pair in
        E^d, and in H^d one pair per end of h in ends, 0 the lower and 1
        the upper.

        Each term of a_ij carries at most n_e = self._roundings roundings
        along any path, L coordinates per centre.  In E^d, a_ij = o_i + o_j
        + 2 c_i.c_j: o_i takes one for r_i^2, L for |c_i|^2 and one for the
        subtraction, then two additions make L + 3.  In H^d, a_ij = h_i h_j
        + <c_i, c_j>, the h_i floats taken as exact: the Lorentz product
        takes L and the addition one, the product of the h and the addition
        two, so L + 1.  Underflow leaves at most 3L + 2 products of 2^-1075
        in an entry, below the 2^-1060 that inverse_sum_signs() allows for
        L < 10^4.
        """
        gram, magnitude = _grams(self._duals[:, rows], self._coordinates[:, columns])
        if self._euclidean:
            (a_u, a_v), (m_u, m_v) = ((x[rows], x[columns]) for x in self._offsets)
            return [(a_u[..., None] + a_v[..., None, :] + 2 * gram,
                     m_u[..., None] + m_v[..., None, :] + 2 * magnitude)]
        products = (h[rows][..., None] * h[columns][..., None, :]
                    for h in (self._float_h[end] for end in ends))
        return [(p + gram, p + magnitude) for p in products]

    @np.errstate(over="ignore", invalid="ignore")  # overflow makes stands() abstain
    def _pair_verdicts(self, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        """(apart, meets): (rows, n) masks of the pairs of balls the float
        filter certifies to miss and to meet, as pair_meets() decides it
        exactly; certify.stands() keeps each sign.  Every other pair goes to
        pair_meets().

        In E^d the balls are disjoint iff q = |c_i|^2
        + |c_j|^2 - 2 c_i.c_j - (r_i + r_j)^2 > 0, and meet iff q <= 0, which
        is the closed 2x2 form, A_ii = 2 r_i^2 being positive.  Every term of
        q carries at most L + 3 roundings (a dot product of L terms, then
        three additions; the sum and square of the radii, then one), and
        subnormal products add at most (4L + 1) 2^-1075 to it.
        In H^d they miss when the 2x2 A is not copositive at the upper h: A_ij
        < 0 and A_ij^2 - A_ii A_jj > 0.  Then it is not copositive at the
        lower h either, A growing with h, so pair_meets() says no and never
        raises.  They meet when the 2x2 A is copositive at the lower h: A_ii
        > 0, A_jj > 0, and A_ij > 0 or q = A_ii A_jj - A_ij^2 > 0; then
        pair_meets() says yes at once.  Each entry carries at most n_e = L + 1
        roundings (see _floats), so |fl(A_ij) - A_ij| <= gamma_(L+1) m_ij, and q
        two products and a subtraction more: 2 n_e + 2, against per = m_ii m_jj
        + m_ij^2.  The q of a disjoint pair carries as many, 2L + 4, and is
        kept with L + 3: a margin of (2L + 6) 2^-53, which still exceeds
        gamma_(2L+4) and the rounding of per.  The centres lie on the
        hyperboloid, so every magnitude is 1 or more: per is never tiny, and
        underflow, at most L + 1 products of 2^-1075 an entry, stays far
        below the margin.
        """
        def positive(value, per, roundings):
            return stands(value, per, roundings) & (value > 0)

        width, n = self._coordinates.shape
        if self._euclidean:
            gram, magnitude = _grams(self._coordinates[:, rows], self._coordinates)
            sizes = self._radii
            reach = np.square(sizes[rows, None] + sizes)
            near = self._squares[rows, None] + self._squares
            q, per = near - 2 * gram - reach, near + 2 * magnitude + reach
            return positive(q, per, width + 3), positive(-q, per, width + 3)
        index = np.arange(n)

        def closed(a, m, h):
            """A_ii with its magnitude, and q with per, on the block."""
            a_ii, m_ii = h * h + self._lorentz, h * h + self._squares
            return a_ii, m_ii, a_ii[rows, None] * a_ii - a * a, m_ii[rows, None] * m_ii + m * m

        (a_lower, m_lower), (a_upper, m_upper) = self._floats(index[rows], index, ends=(0, 1))
        _, _, q, per = closed(a_upper, m_upper, self._float_h[1])
        apart = positive(-a_upper, m_upper, width + 3) & positive(-q, per, width + 3)
        a_ii, m_ii, q, per = closed(a_lower, m_lower, self._float_h[0])
        diagonal = positive(a_ii, m_ii, self._roundings)
        return apart, diagonal[rows, None] & diagonal & (
            positive(a_lower, m_lower, self._roundings)
            | positive(q, per, 2 * self._roundings + 2))

    def pairs(self) -> list[tuple[int, int, bool | None]]:
        """The pairs i < j, in lexicographic order, that the float filter does
        not certify disjoint, each with its verdict: True where the filter
        certifies that they meet, None where it abstains and pair_meets()
        decides."""
        n = len(self.balls)
        found: list[tuple[int, int, bool | None]] = []
        step = max(1, _CELLS // max(1, n))
        for start in range(0, n, step):
            apart, meets = self._pair_verdicts(slice(start, start + step))
            i, j = np.nonzero(~apart)
            i, j = i[i + start < j], j[i + start < j]
            verdicts = [v or None for v in meets[i, j].tolist()]
            found += zip((i + start).tolist(), j.tolist(), verdicts)
        return found

    def pair_meets(self, i: int, j: int) -> bool:
        """Whether balls i and j meet, from the closed 2x2 form of their exact
        entries.

        tuple_meets((i, j)) gives the same answer by a fraction-free solve,
        which is slow on long entries: on an H^2 cover of a ball of radius
        3e5 at the base point and one of radius 0.3 at distance 1, it took
        2.3-2.7 s against 0.06 s for this (2-CPU VM)."""
        return _certify(lambda a: _copositive_pair(a[0][0], a[1][1], a[0][1]),
                        *self.principal((i, j)), (i, j))

    def certify(self, tuples: Sequence[tuple[int, ...]]) -> list[bool | None]:
        """The float filter's verdict on each tuple of one nerve level, in
        order: tuples of one size, each with every facet meeting, gathered
        after every pair is decided.  A certified a_SS^-1 1 not < 0 at the
        lower A means the tuple meets (True); < 0 at the lower A, and at the
        upper A or in E^d, means it does not (False); None where it abstains.
        The float entries are formed a chunk of tuples at a time, those at
        the upper h only for the tuples certified negative at the lower h."""
        if not tuples:
            return []
        verdicts: list[bool | None] = []
        k = len(tuples[0])
        level = np.fromiter(chain.from_iterable(tuples), np.intp, count=k * len(tuples))
        step = max(1, _CELLS // (k * k))
        for chunk in np.split(level.reshape(-1, k), range(step, len(tuples), step)):
            known, negative = inverse_sum_signs(*self._floats(chunk, chunk)[0], self._roundings)
            fails = np.flatnonzero(known & negative)
            if not self._euclidean and fails.size:
                # fails at the lower A: the upper A decides, formed for these only
                upper, = self._floats(chunk[fails], chunk[fails], ends=(1,))
                at_upper = inverse_sum_signs(*upper, self._roundings)
                known[fails] = at_upper[0] & at_upper[1]
            verdicts += [not below if certified else None
                         for certified, below in zip(known.tolist(), negative.tolist())]
        return verdicts

    def tuple_meets(self, s: tuple[int, ...]) -> bool:
        """Whether the balls s meet, given that every facet of s meets at the
        lower A: then, A growing with h, also at the upper A, so one solve on
        the full support decides each.  Only the entries among s are built."""
        return _certify(lambda a: not inverse_sum_negative(a), *self.principal(s), s)


class _CoverTuple:
    """A tuple of a cover's indices, carrying the cover's matrix, which
    builds the balls' exact entries when asked, and the float filter's
    verdict on them (None where it abstained)."""

    __slots__ = ("matrix", "indices", "verdict")

    def __init__(self, matrix: _CoverMatrix, indices: tuple[int, ...], verdict: bool | None):
        self.matrix, self.indices, self.verdict = matrix, indices, verdict


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


def common_point_exists(space, balls: Sequence[tuple[np.ndarray, float]] | _CoverTuple,
                        indices: tuple[int, ...]) -> bool:
    """Whether the closed balls meet: exact in E^d, certified in H^d.

    nerve() decides each candidate of three or more balls through this
    function, passing them as a _CoverTuple of its cover's matrix with the
    float filter's verdict, each sign kept by certify.stands(): the verdict
    stands when there is one, and an exact solve at the cover's bits
    decides the rest, where a straddle reruns the cover.  A plain list of
    balls is the reference: every principal subset is decided by its own
    solve, with no float filter, and a hyperbolic tuple whose enclosure of
    h straddles the boundary is decided again at doubled bits; past
    MAX_ENCLOSURE_BITS it raises IndeterminateIntersectionError(indices).
    """
    if isinstance(balls, _CoverTuple):
        if balls.verdict is None:
            return balls.matrix.tuple_meets(balls.indices)
        return balls.verdict

    def decide(bits):
        return _certify(_copositive, *_CoverMatrix(space, balls, bits).principal(range(len(balls))),
                        indices)

    return _refined(decide)


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
    frontier = [(i, j) for i, j, verdict in matrix.pairs()
                if verdict or verdict is None and matrix.pair_meets(i, j)]
    # each level in lexicographic order, as pairs() and _extensions() give it
    levels = [[(i,) for i in range(n)], frontier]
    for size in range(3, max_dim + 2):
        if not frontier:
            break  # every level above an empty one is empty
        candidates = _extensions(frontier)
        if size > cover.space.dimension + 1:
            # Helly: convex sets in E^d or H^d meet when every d + 1 of them
            # do, and every d + 1 of these lie in a facet, which meets
            frontier = candidates
        else:
            frontier = [t for t, verdict in zip(candidates, matrix.certify(candidates))
                        if common_point_exists(cover.space, _CoverTuple(matrix, t, verdict), t)]
        levels.append(frontier)
    return SimplicialComplex._closed(n, tuple(tuple(level) for level in levels if level))


def _extensions(level: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The tuples one vertex larger whose facets all lie in level, a list of
    sorted tuples of one size in lexicographic order; in that order too.

    up[t] holds bit w for each t + (w,) in level.  A candidate s + (w,),
    w > s[-1], has the facet s, and its facet without s[k] is in level iff
    bit w is set in up[s minus s[k]]; so its w are the bits above s[-1] of
    the AND of those masks over every k.
    """
    up: dict[tuple[int, ...], int] = {}
    for t in level:
        head = t[:-1]
        up[head] = up.get(head, 0) | 1 << t[-1]
    out = []
    for s in level:
        above = s[-1] + 1
        bits = up[s[:-1]] >> above
        for k in range(len(s) - 1):
            if not bits:
                break
            bits &= up.get(s[:k] + s[k + 1:], 0) >> above
        while bits:
            low = bits & -bits
            out.append(s + (above + low.bit_length() - 1,))
            bits ^= low
    return out


def relative_nerve(cover: BallCover, subfamily: Sequence[int],
                   shrink: Sequence[float]) -> SimplicialPair:
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

    total = nerve(cover)
    sub_cover = BallCover(
        space=cover.space,
        elements=tuple((cover.elements[j][0], float(r)) for j, r in zip(indices, shrink)),
    )
    local = nerve(sub_cover)
    sub = _closure((tuple(sorted(indices[v] for v in s)) for s in local.simplices), len(cover))
    return SimplicialPair(total=total, sub=sub)


@dataclass(frozen=True)
class NerveLemmaReport:
    computed: tuple[AbelianGroupStructure, ...]
    mismatches: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not self.mismatches


def nerve_lemma_check(cover: BallCover, reference: Sequence[AbelianGroupStructure]) -> NerveLemmaReport:
    """Compare nerve homology against known homology of the cover's union.

    Degrees checked run over the reference list, which must stay below
    the dimension cap (the cap skeleton distorts homology at the cap
    itself).  Simplices up to dimension len(reference) fix those degrees.
    """
    if len(reference) > cover.space.dimension + 1:
        raise ValueError("reference list reaches the dimension cap")
    complex_ = nerve(cover, max_dim=max(1, len(reference)))
    computed = tuple(all_homology(complex_, up_to=len(reference) - 1))
    mismatches = tuple(k for k, (got, want) in enumerate(zip(computed, reference)) if got != want)
    return NerveLemmaReport(computed=computed, mismatches=mismatches)


# --- cover file format -------------------------------------------------------
#
#   space E 2        (or: space H 3)
#   ball x1 ... xd r    Euclidean coordinates, or d+1 hyperboloid coordinates


def read_cover(text: str) -> BallCover:
    space = None
    balls: list[tuple[np.ndarray, float]] = []
    for lineno, line in _content_lines(text):
        parts = line.split()
        if parts[0] == "space":
            if space is not None:
                raise InputError(f"line {lineno}: a second 'space' line; a cover lies in one space")
            if len(parts) != 3 or parts[1] not in ("E", "H"):
                raise InputError(f"line {lineno}: expected 'space E <d>' or 'space H <d>'")
            try:
                space = Space(parts[1], int(parts[2]))
            except ValueError:
                raise InputError(f"line {lineno}: space dimension must be a positive integer") from None
        elif parts[0] == "ball":
            if space is None:
                raise InputError(f"line {lineno}: 'space' line must come first")
            try:
                nums = [float(p) for p in parts[1:]]
            except ValueError:
                raise InputError(f"line {lineno}: non-numeric ball data") from None
            if len(nums) != space.coordinates + 1:
                raise InputError(f"line {lineno}: expected {space.coordinates} coordinates plus a radius")
            try:
                balls.append(_checked_ball(space, len(balls), nums[:-1], nums[-1]))
            except ValueError as exc:
                raise InputError(f"line {lineno}: {exc}") from None
        else:
            raise InputError(f"line {lineno}: unknown directive {parts[0]!r}")
    if space is None:
        raise InputError("cover file has no 'space' line")
    return BallCover(space=space, elements=tuple(balls))


def circle_cover(count: int = 8, radius: float = 0.9) -> BallCover:
    """Balls centered at the count-th roots of unity on the unit circle."""
    angles = [2 * math.pi * k / count for k in range(count)]
    return BallCover.of(EuclideanSpace(2), [((math.cos(a), math.sin(a)), radius) for a in angles])


def annulus_cover() -> tuple[BallCover, list[int], list[float]]:
    """Cover of an annulus by 8 balls of radius 0.9 on the unit circle, with
    every ball shrunk to radius 0.45 as the subfamily hugging the inner circle.

    Returns the full cover, the subfamily indices, and the shrink radii;
    feed these to relative_nerve.
    """
    return circle_cover(8, 0.9), list(range(8)), [0.45] * 8
