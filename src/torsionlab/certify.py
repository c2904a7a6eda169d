"""Filtered-exact predicates (Shewchuk, DCG 18, 1997; Brönnimann–Burnikel–Pion,
DAM 109, 2001): stands() is the one rule by which a float sign is kept,
inverse_sum_signs() filters the sign vector of A^-1 1 that
inverse_sum_negative() decides exactly, from float entries that the caller
forms, their magnitudes and the roundings each entry carries,
cosh_roots() encloses cosh r sqrt(n) in rationals, and cosh_root_bounds()
brackets that enclosure in floats.  The standard library and numpy only.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Sequence
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from itertools import combinations

import numpy as np

from .exact import solve_scaled

# The unit of the rounding bound, twice the unit roundoff 2^-53, and the
# least per for which underflow cannot spoil it (see stands).
_UNIT = 2.0 ** -52
_FLOOR = 2.0 ** -960


def stands(value, per, roundings: int):
    """Whether the sign of value, a float evaluation of some v, is v's sign:
    n 2^-52 per < |value| < inf, n = roundings, and per >= 2^-960.

    per is the same evaluation over the absolute values of the terms.  If
    every term meets at most n roundings along any path, |value - v| <=
    gamma_n per, gamma_n ~ n 2^-53: the margin is about twice that, which
    covers the rounding of per and of the product too.  An underflowed
    result is off by up to 2^-1075 absolutely; a caller keeps their sum,
    times what multiplies them later, below 2^-1000, which the margin
    dwarfs once per >= 2^-960.  A finite value above the margin has a
    finite per (every partial result of value is at most per's), so
    overflow abstains, as does a NaN.  Elementwise on numpy arrays and on
    plain floats alike, by comparisons alone.
    """
    size = abs(value)
    return (per >= _FLOOR) & (size < math.inf) & (size > roundings * _UNIT * per)


def inverse_sum_negative(a: list[list[int]]) -> bool:
    """Whether a is nonsingular with a^-1 1 < 0, read off one fraction-free
    solve a y = d 1 (x = y / d): then l = -a^-1 1 > 0 has l^T a l = -sum(l) < 0,
    so a is not copositive, and when every proper principal submatrix of a
    is copositive that is the only way a can fail."""
    d, y = solve_scaled(a, [1] * len(a))
    return bool(d) and all(x * d < 0 for x in y)


@functools.lru_cache(maxsize=None)
def _laplace_plan(k: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Index arrays for the minors of rows 0..j-1 of a k x (k + 1) matrix
    over every j-subset of its columns, for j = 1..k: at level j, subset C
    (in combinations order) is the sum over p of signs[C, p] times entry
    (j - 1, columns[C, p]) times the level j - 1 minor at parents[C, p],
    which drops column p of C (Laplace expansion along the last row)."""
    plan = []
    previous = {(): 0}
    for j in range(1, k + 1):
        subsets = list(combinations(range(k + 1), j))
        plan.append((np.array(subsets),
                     np.array([[previous[c[:p] + c[p + 1:]] for p in range(j)] for c in subsets]),
                     np.array([[(-1.0) ** (j - 1 + p) for p in range(j)] for _ in subsets])))
        previous = {c: n for n, c in enumerate(subsets)}
    return plan


# The largest submatrix the float filter signs: its work grows as (k + 1) 2^k.
_FILTERED = 8


@np.errstate(over="ignore", invalid="ignore")  # a non-finite minor makes stands() abstain
def inverse_sum_signs(entries: np.ndarray, magnitudes: np.ndarray,
                      entry_roundings: int) -> tuple[np.ndarray, np.ndarray]:
    """(certified, negative): for each k x k matrix a of the (m, k, k) float
    array entries, whether the float filter certifies the sign vector of
    a^-1 1, and if so whether a^-1 1 < 0, as inverse_sum_negative decides it
    on the exact matrix that a evaluates.  It certifies nothing past
    k = _FILTERED.

    Each entry is a float evaluation of an exact one whose terms carry at
    most n = entry_roundings roundings along any path; magnitudes holds the
    same evaluations over the absolute values of the terms.  All are first
    scaled by one power of two, 2^-e with e >= 0 the least that brings the
    largest finite magnitude to at most 1: a positive factor, which leaves
    every sign of a^-1 1 alone, and exact but for underflow; a matrix with a
    non-finite entry or magnitude abstains.  With M = [1 | a], the
    k + 1 k x k minors of M give det a (drop column 0) and, up to the sign
    (-1)^i, the Cramer determinant D_i of a with column i set to 1 (drop
    column i + 1); a^-1 1 = D / det, and any positive constant column gives
    the same signs.  Each minor and its permanent over [1 | magnitudes] come
    from one Laplace expansion along the rows.  A term of a k x k minor
    carries k n + k + k (k - 1) / 2 roundings along any path: n in each of
    its k entries, one per product (k) and one per addition (at most j - 1
    at row j); the column of ones is exact, of magnitude 1.  stands()
    decides each sign against the permanent.  Underflow adds absolute
    errors besides: an entry carries those of the products that underflowed
    in forming it and of its scaling, which the caller keeps below 2^-1060
    (about 2^15 products of 2^-1075 each), and which a factor of at most 1
    does not magnify.  Every entry at most 1, they and the products of the
    expansion that underflow add at most (k + 1)! 2^-1060 < 2^-1030 to a
    minor for k <= _FILTERED.  The vector is certified when det and every
    D_i are: negative iff every D_i has the sign opposite to det's.
    Otherwise the caller solves exactly.
    """
    m, k, _ = entries.shape
    if k > _FILTERED:
        return np.zeros(m, dtype=bool), np.zeros(m, dtype=bool)
    scale = math.ldexp(1.0, -max(0, math.frexp(magnitudes[magnitudes < math.inf].max(
        initial=0.0))[1]))
    rows, sizes = np.ones((2, m, k, k + 1))
    rows[:, :, 1:] = entries * scale
    sizes[:, :, 1:] = magnitudes * scale
    minors = permanents = np.ones((m, 1))
    for j, (columns, parents, signs) in enumerate(_laplace_plan(k)):
        minors = (signs * rows[:, j, columns] * minors[:, parents]).sum(axis=2)
        permanents = (sizes[:, j, columns] * permanents[:, parents]).sum(axis=2)
    # combinations order: the last minor drops column 0, the one before it column 1, ...
    minors, permanents = minors[:, ::-1], permanents[:, ::-1]
    known = stands(minors, permanents, k * entry_roundings + k + k * (k - 1) // 2)
    alternating = (-1.0) ** np.arange(k)
    det, cramer = minors[:, :1], minors[:, 1:] * alternating
    return known.all(axis=1), (np.sign(cramer) == -np.sign(det)).all(axis=1)


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


def cosh_roots(terms: Iterable[tuple[float, int]], bits: int) -> list[Fraction]:
    """cosh(r) sqrt(n) for each (r, n), within a relative 2^-bits, as exact
    rationals: times 1 -+ 2^-bits each brackets the true value."""
    with localcontext(_context(bits)):
        return [Fraction(_cosh(r, bits) * Decimal(n).sqrt()) for r, n in terms]


def cosh_root_bounds(radii: Sequence[float], n: np.ndarray, per: np.ndarray, roundings: int,
                     bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Floats (lo, hi) with lo <= x (1 - 2^-bits) and x (1 + 2^-bits) <= hi
    for each x = cosh_roots([(r, n*)], bits), at the same bits, where n* is
    the exact value of the float evaluation n, per the same evaluation over
    absolute values and roundings as for stands(); n* may be scaled by any
    power of 4, which scales x by the power of 2 that its square root is.
    No big integer is formed.

    |n - n*| <= gamma_n per lies well inside n 2^-52 per, the margin of
    stands(), underflow included once per >= 2^-960, so n -+ that margin,
    each stepped outward by np.nextafter, brackets n*; where per is below
    2^-960 or not finite, (0, inf) brackets it.  cosh r is the cached
    _cosh(r, bits), correctly rounded to a float (inf past the float range)
    and stepped outward; IEEE sqrt and products are correctly rounded, and
    one step outward after each keeps the bracket of cosh r sqrt(n*).
    cosh_roots() rounds that product and the square root once each at
    relative u = 10^(-2 - bits // 3) / 2, so (1 + u)^2 (1 + 2^-bits) <
    1 + 2^(2 - bits) and (1 - u)^2 (1 - 2^-bits) > 1 - 2^(2 - bits): one
    widening by 2^(2 - bits), stepped outward, contains the enclosure.
    Where n*'s lower end is not positive lo is 0, and an overflow makes
    hi inf: a filter then abstains on A at that end, and is never wrong.
    """
    def down(x):
        return np.nextafter(x, 0.0)

    def up(x):
        return np.nextafter(x, math.inf)

    cosh = {r: float(_cosh(r, bits)) for r in set(radii)}
    c = np.array([cosh[r] for r in radii])
    margin = roundings * _UNIT * per
    valid = (per >= _FLOOR) & (per < math.inf)
    low = np.nextafter(n - margin, -math.inf)
    low = np.where(valid & (low > 0), low, 0.0)
    high = np.where(valid, up(n + margin), math.inf)
    widen = math.ldexp(1.0, 2 - bits)
    lo = down(down(down(c) * down(np.sqrt(low))) * (1 - widen))
    hi = up(up(up(c) * up(np.sqrt(high))) * (1 + widen))
    return lo, hi
