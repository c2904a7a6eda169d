"""Hyperboloid-model hyperbolic geometry and displacement-function checks.

Points live on the upper sheet of <x, x> = -1 for the Lorentz form
diag(-1, 1, ..., 1) on R^(d+1); isometries are matrices preserving that
form and the upper sheet.  Everything is constant curvature -1: pinched
curvature cannot be realized numerically without choosing a metric, and
hyperbolic space is the extremal witness for all inequalities verified
here.

Displacement sub-level sets are closed forms of what an isometry was
built from: tubes around the axis of a rotation-free loxodromic, whose
endpoints and length loxodromic() keeps, and horoballs for a parabolic,
whose fixed point and translation vector parabolic() keeps.  Orbit counts
and commutation read the same data; none is read back off a matrix, and
an orbit count forms no power of one.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .certify import stands
from .exact import InputError

LORENTZ_FORM_TOL = 1e-9


class GeometryError(InputError):
    """Invalid point, matrix, or configuration in the hyperboloid model."""


class SamplingError(InputError):
    """The requested sample region is (numerically) unreachable."""


@functools.cache
def lorentz_form_matrix(d: int) -> np.ndarray:
    """diag(-1, 1, ..., 1) on R^(d+1): one read-only array per dimension."""
    j = np.eye(d + 1)
    j[0, 0] = -1.0
    j.flags.writeable = False
    return j


def lorentz_inner(x: Sequence[float], y: Sequence[float]) -> float:
    """<x, y> on Python floats in _lorentz's fixed order, which make_point's
    column path shares, and not in whichever order a BLAS dot kernel takes."""
    return _lorentz(np.asarray(x, dtype=float).tolist(), np.asarray(y, dtype=float).tolist(), -1)


def make_point(coords: Sequence[float] | np.ndarray) -> np.ndarray:
    """Normalize coordinates onto the upper hyperboloid sheet.

    coords is one point, or a (d + 1, m) array whose m columns are points,
    each scaled, guarded and normalized by the same rule as one point.
    """
    x = np.asarray(coords, dtype=float)
    if x.ndim not in (1, 2) or x.shape[0] < 2:
        raise GeometryError("a point needs at least 2 coordinates")
    if x.ndim == 2:
        return _make_columns(x)
    # Far from 1 the square of the largest |coordinate|, x_0 for a timelike
    # vector, over- or underflows.  Scaling by a power of two is exact and
    # cancels in x / sqrt(-q).  Near 1 it is skipped, as it would cost more
    # than the rest of the function.
    values = x.tolist()
    mantissa, e = math.frexp(max(map(abs, values)))
    if not mantissa < 1:  # inf (or a leading NaN); inf - inf in the form would warn
        raise GeometryError("coordinates are not finite")
    if abs(e) > 500:
        x = np.ldexp(x, -e)
        values = x.tolist()
    else:
        e = 0
    q = _lorentz(values, values, -1)
    if not -math.inf < q < 0:  # also false for NaN, from non-finite coordinates
        if not np.isfinite(np.asarray(coords, dtype=float)).all():
            raise GeometryError("coordinates are not finite")
        _not_timelike(q, e)
    x = x / math.sqrt(-q)
    if x[0] < 0:
        x = -x
    return x


def _not_timelike(q: float, e: int):
    scaled = f" of the coordinates times 2^{-e}" if e else ""
    raise GeometryError(f"coordinates are not timelike (form value {q}{scaled})")


def _make_columns(x: np.ndarray) -> np.ndarray:
    """make_point for each column of x, in array operations."""
    if not np.isfinite(x).all():
        raise GeometryError("coordinates are not finite")
    e = np.frexp(np.abs(x).max(axis=0))[1]
    e = np.where(np.abs(e) > 500, e, 0)
    x = np.ldexp(x, -e)
    q = _lorentz(x, x, -1)
    bad = np.flatnonzero(~(q < 0))
    if bad.size:
        _not_timelike(q[bad[0]], e[bad[0]])
    x = x / np.sqrt(-q)
    return np.where(x[0] < 0, -x, x)


def base_point(d: int) -> np.ndarray:
    x = np.zeros(d + 1)
    x[0] = 1.0
    return x


def distance(x: np.ndarray, y: np.ndarray) -> float:
    """Hyperbolic distance arccosh(-<x, y>), clamped below at 1.

    Evaluated through sinh(d/2)^2 = <x - y, x - y>/4, which is the same
    function of the clamped inner product but free of cancellation when
    the points nearly coincide (d(x, x) is exactly 0).
    """
    delta = (x - y).tolist()
    s = max(0.0, _lorentz(delta, delta, -1))
    return 2.0 * math.asinh(0.5 * math.sqrt(s))


def tangent_projection(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Component of v tangent to the hyperboloid at x."""
    return v + lorentz_inner(x, v) * x


def tangent_norm(v: np.ndarray) -> float:
    return math.sqrt(max(0.0, lorentz_inner(v, v)))


def exp_map(x: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """Geodesic from x with unit tangent v, evaluated at arclength t."""
    return math.cosh(t) * x + math.sinh(t) * v


@dataclass(frozen=True, eq=False)
class LorentzIsometry:
    """Matrix in O+(d,1).

    data is (fixed, amount), what the constructor built it from: ((a, b), l)
    for loxodromic(), its ideal endpoints and its signed translation length
    from a towards b, and ((n,), v) for parabolic(), its fixed null vector
    and translation vector.  Sub-level sets, orbit counts and commutation
    read the data, never the matrix.  g^k is a translation of k amount at
    the same fixed set, so the inverse keeps (fixed, -amount) and a product
    of powers at one fixed set (_orientation) the sum of k amount, unless
    that sum does not stand as nonzero.  A matrix from outside, the
    identity and a product at two fixed sets have none.  Compared and
    hashed by identity, as its fields are arrays.

    The constructor checks a matrix from outside, and a failed check is a
    GeometryError.  Inverses, products and powers (_derived) take the same
    checks, where a failure is a FloatingPointError, and a matrix the
    program writes down exactly takes none (_unchecked).
    """

    matrix: np.ndarray
    data: tuple | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise GeometryError("isometry matrix must be square")
        if m.shape[0] < 2:  # H^d needs d >= 1
            raise GeometryError(f"isometry matrix must be at least 2 x 2, got {m.shape[0]} x {m.shape[0]}")
        _check_form(m, GeometryError)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _unchecked(cls, matrix: np.ndarray, data: tuple | None = None) -> "LorentzIsometry":
        """The isometry of a float matrix known to be in O+(d,1), such as one
        the program writes down exactly, without the checks: they are for
        matrices from outside."""
        g = object.__new__(cls)
        vars(g).update(matrix=matrix, data=data)
        return g

    @classmethod
    def _derived(cls, matrix: np.ndarray, data: tuple | None) -> "LorentzIsometry":
        """An isometry computed from valid ones.  It takes the same checks,
        but one that fails is the fault of rounding or the float range, not
        of the input: a FloatingPointError."""
        _check_form(matrix, FloatingPointError)
        return cls._unchecked(matrix, data)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0] - 1

    def inverse(self) -> "LorentzIsometry":
        j = lorentz_form_matrix(self.dimension)
        return LorentzIsometry._derived(j @ self.matrix.T @ j, _product_data((self, -1)))

    def __matmul__(self, other: "LorentzIsometry") -> "LorentzIsometry":
        return LorentzIsometry._derived(self.matrix @ other.matrix,
                                        _product_data((self, 1), (other, 1)))

    def power(self, k: int) -> "LorentzIsometry":
        """g^k by repeated squaring of the matrix, or of its inverse for k < 0,
        and g itself for k = 1; FloatingPointError once an entry overflows or
        the result fails its check."""
        if k == 1:
            return self
        base = self if k >= 0 else self.inverse()
        with np.errstate(over="raise"):
            m = np.linalg.matrix_power(base.matrix, abs(k))
        return LorentzIsometry._derived(m, _product_data((self, k)))


def _entry_limit(size: int) -> float:
    """The largest entry of a size x size matrix whose Lorentz form the
    check sums without overflow: size squares, each at most limit^2."""
    return math.sqrt(sys.float_info.max / size)


def _check_form(m: np.ndarray, error: type[Exception]):
    """Raise error unless the square float matrix m is in O+(d,1).  The
    range is checked before any product of the entries is formed."""
    scale = float(np.abs(m).max())
    if not scale < math.inf:  # also false for NaN
        raise error("isometry matrix has non-finite entries")
    if not scale < _entry_limit(m.shape[0]):
        raise error(f"isometry matrix entry {scale} is past the float range of the Lorentz form")
    j = lorentz_form_matrix(m.shape[0] - 1)
    # rounding errors of M^T J M grow with the entries squared
    residual = float(np.abs(m.T @ j @ m - j).max())
    if residual > LORENTZ_FORM_TOL * max(1.0, scale) ** 2:
        raise error("matrix does not preserve the Lorentz form")
    if m[0, 0] <= 0:
        raise error("matrix does not preserve the upper sheet")


def _orientation(fixed: tuple, other: tuple) -> int:
    """1 when other holds the ideal points of fixed up to positive scales,
    -1 when it holds a loxodromic's endpoints in reverse, 0 otherwise.
    Future null vectors x and y are one ideal point when x_i y_0 = y_i x_0
    for every i, compared over the rationals."""
    def one_point(x, y):
        x0, y0 = Fraction(x[0]), Fraction(y[0])
        return len(x) == len(y) and all(Fraction(xi) * y0 == Fraction(yi) * x0
                                        for xi, yi in zip(x, y))

    def same(xs, ys):
        return len(xs) == len(ys) and all(map(one_point, xs, ys))

    if same(fixed, other):
        return 1
    return -1 if len(fixed) == 2 and same(fixed, other[::-1]) else 0


def _product_data(*factors: tuple[LorentzIsometry, int]) -> tuple | None:
    """data of the product of the powers g^k: the first g's fixed set and
    the sum of k amount, an amount negated where its axis runs the other
    way; none when a g has none, a fixed set differs, or no component of
    the sum stands (certify.stands) as nonzero.  Each term k amount is one
    rounded product, and each addition rounds once, so a term meets at
    most len(factors) roundings; lengths that cancel over the reals leave
    a float residue below that margin."""
    data = [g.data for g, _ in factors]
    if None in data:
        return None
    fixed = data[0][0]
    signs = [1] + [_orientation(fixed, other) for other, _ in data[1:]]
    if 0 in signs:
        return None
    terms = [sign * k * a for sign, (_, k), (_, a) in zip(signs, factors, data)]
    amount = sum(terms)
    return (fixed, amount) if np.count_nonzero(stands(amount, sum(map(abs, terms)), len(terms))) else None


def _data(g: LorentzIsometry) -> tuple:
    """g's data, or the one refusal of an isometry that has none."""
    if g.data is None:
        raise GeometryError(
            "this isometry has no axis or fixed point on record: build it with loxodromic(), "
            "standard_loxodromic() or parabolic(), and multiply only at one fixed set")
    return g.data


def identity(d: int) -> LorentzIsometry:
    return LorentzIsometry._unchecked(np.eye(d + 1))


def displacement(g: LorentzIsometry, x: np.ndarray) -> float:
    """d(x, g x), the displacement of g at x."""
    return distance(x, g.matrix @ x)


# --- constructors ------------------------------------------------------------

def _axis(xi_minus: np.ndarray, xi_plus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The midpoint-like point p and the unit tangent u of the axis running
    from xi_minus to xi_plus."""
    prod = lorentz_inner(xi_minus, xi_plus)
    # relative to the scale of the endpoints, which are directions
    if prod >= -1e-12 * float(xi_minus[0] * xi_plus[0]):
        raise GeometryError("axis endpoints must be distinct future null directions")
    scale = math.sqrt(-2.0 * prod)
    return (xi_minus + xi_plus) / scale, (xi_plus - xi_minus) / scale


def _check_null_future(xi: Sequence[float]) -> np.ndarray:
    """xi as a float array, checked as a future null direction: scaled by
    a power of two, as in make_point, where its largest |coordinate| has an
    exponent past +-500, so that the form neither over- nor underflows."""
    v = np.asarray(xi, dtype=float)
    mantissa, e = math.frexp(float(np.abs(v).max()))
    if not mantissa < 1:  # inf or NaN
        raise GeometryError("ideal points must be finite")
    if abs(e) > 500:
        v = np.ldexp(v, -e)
    if abs(lorentz_inner(v, v)) > 1e-9 * float(np.dot(v, v)):
        raise GeometryError("ideal points must be null vectors")
    if v[0] <= 0:
        raise GeometryError("ideal points must be future pointing")
    return v


def _check_length(length: float, d: int):
    """A translation length must be positive, and its boost's entries
    cosh(length) within _entry_limit."""
    if length <= 0:
        raise GeometryError("translation length must be positive")
    limit = math.acosh(_entry_limit(d + 1))
    if not length < limit:  # also true for NaN
        raise GeometryError(f"translation length {length} is not below {limit}, past which "
                            "the boost leaves the float range of the Lorentz form")


def loxodromic(xi_minus: Sequence[float], xi_plus: Sequence[float],
               length: float) -> LorentzIsometry:
    """Rotation-free translation of the given length along an axis.

    The axis is the geodesic with the two ideal endpoints; translation
    moves points from xi_minus towards xi_plus.  Both and the length are
    its data.
    """
    a = _check_null_future(xi_minus)
    b = _check_null_future(xi_plus)
    d = a.shape[0] - 1
    _check_length(length, d)
    p, u = _axis(a, b)
    # boost in the plane of p and u, the identity on its complement.  Unlike
    # frame @ boost @ frame^-1 it does not square the rounding of the frame,
    # whose entries grow as the endpoints approach each other.
    cosh_part = (math.cosh(length) - 1) * (np.outer(u, u) - np.outer(p, p))
    sinh_part = math.sinh(length) * (np.outer(p, u) - np.outer(u, p))
    matrix = np.eye(d + 1) + (cosh_part + sinh_part) @ lorentz_form_matrix(d)
    return LorentzIsometry(matrix, data=((a, b), float(length)))


def standard_loxodromic(d: int, length: float) -> LorentzIsometry:
    """Translation along the first-coordinate axis through the base point:
    the boost with cosh(length) at (0, 0) and (1, 1) and sinh(length) at
    (0, 1) and (1, 0), exact up to the rounding of cosh and sinh, so it
    takes no form check.  It is loxodromic() from (1, -1, 0, ...) to
    (1, 1, 0, ...) bit for bit while cosh(length) < 2^53, where
    1 + (cosh(length) - 1) is cosh(length), and it keeps the same data."""
    _check_length(length, d)
    m = np.eye(d + 1)
    m[0, 0] = m[1, 1] = math.cosh(length)
    m[0, 1] = m[1, 0] = math.sinh(length)
    minus, plus = np.zeros(d + 1), np.zeros(d + 1)
    minus[:2], plus[:2] = (1.0, -1.0), (1.0, 1.0)
    return LorentzIsometry._unchecked(m, ((minus, plus), float(length)))


def parabolic(fixed: Sequence[float], v: Sequence[float]) -> LorentzIsometry:
    """Parabolic translation fixing the given ideal point.

    v is the horospherical translation vector expressed in the d-1
    Euclidean directions transverse to the fixed point; parabolics with
    the same fixed point commute.  They are (0, H e_2), ..., (0, H e_d)
    for the reflection H = I - 2 w w^T / (w^T w) of R^d at
    w = s + sign(s_1) e_1, s = n_spatial / |n_spatial|, sign(0) = 1: an
    orthonormal basis of s's complement, as H e_1 = -sign(s_1) s
    (Householder, J. ACM 5, 1958), and e_2, ..., e_d at n = (1, +-1, 0, ...).
    """
    n = _check_null_future(fixed)
    d = n.shape[0] - 1
    vec = np.asarray(v, dtype=float)
    if vec.shape != (d - 1,):
        raise GeometryError(f"translation vector must have {d - 1} components")
    if not vec.any():
        raise GeometryError("translation vector must be nonzero")
    # the matrix's largest entry is about |v|^2 / 2, and its square must
    # stay within the form check's range; so must every product below
    norm, limit = math.hypot(*vec), math.sqrt(2 * _entry_limit(d + 1))
    if not norm < limit:  # also true for NaN
        raise GeometryError(f"translation vector length {norm} is not below {limit}, past "
                            "which the parabolic leaves the float range of the Lorentz form")
    # m = (1, s) is null, and t = (0, H (0, v)) is orthogonal to it; as
    # |w| >= 1, no step of the reflection cancels
    s = n[1:] / math.hypot(*n[1:])
    w = s.copy()
    w[0] += 1.0 if s[0] >= 0 else -1.0
    t = np.concatenate(([0.0, 0.0], vec))
    t[1:] -= (2 * float(w @ t[1:]) / float(w @ w)) * w
    m = np.concatenate(([1.0], s))
    # the null rotation X x = <x, t> m - <x, m> t has X^3 = 0, and in the
    # coordinates a = -<x, (1, -s)>, b = -<x, m> and y on the basis its
    # exponential is (a, b, y) -> (a + 2 v.y + |v|^2 b, b, y + b v)
    j = lorentz_form_matrix(d)
    x = np.outer(m, j @ t) - np.outer(t, j @ m)
    return LorentzIsometry(np.eye(d + 1) + x + x @ x / 2, data=((n,), vec))


# --- sub-level geometry ------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SublevelSet:
    """The region where the displacement of g stays below epsilon: of(g, epsilon).

    Convex, and closed-form in both cases.  For a loxodromic it is the tube
    of radius reach around the axis, and columns holds the axis columns
    (p, u) of _axis(a, b); for a parabolic it is the horoball
    w(x) = -<x, n> <= reach at the fixed null vector, and columns holds (n,).
    Both come from g's data.  Columns are plain floats, and membership
    reads the products _normal takes for the obtuse check's sign test:
    s = cosh^2 of the axis distance, or s = w, for one point or for
    coordinate columns alike.  Compared and hashed by identity.
    """

    columns: tuple[list[float], ...]
    reach: float

    @classmethod
    def of(cls, g: LorentzIsometry, epsilon: float) -> "SublevelSet":
        if epsilon <= 0:
            raise GeometryError("epsilon must be positive")
        fixed, amount = _data(g)
        if len(fixed) == 1:
            # horoball: cosh(displacement) = 1 + c w^2 with w(x) = -<x, n> and
            # c = |v|^2 / (2 n_0^2): in parabolic()'s basis exp(X) moves y by
            # w v / n_0, as -<x, m> = w / n_0; displacement eps is reached at
            # w = sqrt((cosh(eps) - 1) / c) = 2 n_0 sinh(eps / 2) / |v|
            [n] = fixed
            w_eps = 2.0 * float(n[0]) * math.sinh(epsilon / 2) / math.hypot(*amount)
            return cls((n.tolist(),), w_eps)
        length = abs(amount)
        if epsilon <= length:
            raise GeometryError(
                f"sub-level set is empty: epsilon {epsilon} <= translation length {length}")
        radius = math.acosh(math.sinh(epsilon / 2) / math.sinh(length / 2))
        return cls(tuple(c.tolist() for c in _axis(*fixed)), radius)

    def distance_from(self, x: Sequence[float] | np.ndarray):
        """Distance from x to the set, 0 inside: a float for one point, an
        array for the columns of a (d + 1, m) array, by the same operations
        lane by lane."""
        s = _normal(x, self.columns, -1)[1]
        if len(self.columns) == 2:
            return np.maximum(0.0, np.arccosh(np.sqrt(np.maximum(1.0, s))) - self.reach)
        return np.log(np.maximum(s / self.reach, 1.0))

    def contains(self, x: Sequence[float] | np.ndarray):
        return self.distance_from(x) == 0.0


def _lorentz(x: Sequence, y: Sequence, sign: int):
    """sign * x_0 y_0 + sum_{i>0} x_i y_i: the Lorentz form for sign -1.

    x is one point, or a (d + 1, m) array of columns: then each x_i is a row
    and every lane takes the float operations of one point, in this order.
    """
    total = sign * x[0] * y[0]
    for xi, yi in zip(x[1:], y[1:]):
        total += xi * yi
    return total


def _gram(columns_a: list, columns_b: list, sign: int) -> list[list]:
    return [[_lorentz(ca, cb, sign) for cb in columns_b] for ca in columns_a]


def _normal(x: Sequence, columns: list, sign: int) -> tuple[tuple, object]:
    """Coefficients of N on the set's columns, and s = <x, N>.

    N is a positive multiple of the ambient gradient of the distance to
    the set: for a tube with frame columns (p, u), N = -(a p + b u) with
    a = -<x, p> and b = <x, u>, so s = a^2 - b^2 = cosh^2 of the axis
    distance; for a horoball, N = -n and s = w = -<x, n>.  With sign +1
    and |x|, |columns| this is the sum of the absolute values of the terms.
    """
    if len(columns) == 2:
        q_p, q_u = _lorentz(x, columns[0], sign), _lorentz(x, columns[1], sign)
        return (q_p, sign * q_u), q_p * q_p + sign * q_u * q_u
    return (sign,), sign * _lorentz(x, columns[0], sign)


def _polynomial(normal_a, normal_b, gram) -> object:
    """P = <N_a, N_b> + <x, N_a> <x, N_b>, the Riemannian inner product of
    the tangent projections of N_a and N_b, given <x, x> = -1."""
    (coeffs_a, s_a), (coeffs_b, s_b) = normal_a, normal_b
    total = 0
    for ca, row in zip(coeffs_a, gram):
        for cb, g in zip(coeffs_b, row):
            total += ca * cb * g
    return total + s_a * s_b


def _exact_polynomial(x: Sequence[float], columns_a: list, columns_b: list) -> Fraction:
    """P over the rationals, at the stored floats."""
    x = [Fraction(v) for v in x]
    columns_a = [[Fraction(v) for v in c] for c in columns_a]
    columns_b = [[Fraction(v) for v in c] for c in columns_b]
    return _polynomial(_normal(x, columns_a, -1), _normal(x, columns_b, -1),
                       _gram(columns_a, columns_b, -1))


def _gradient_norm(normal, columns: list):
    """|projection of N| = sqrt(s (s - 1)) for a tube, w for a horoball."""
    s = normal[1]
    return np.sqrt(s * (s - 1.0)) if len(columns) == 2 else s


def _gradient_signs(set_a: SublevelSet, set_b: SublevelSet, columns: np.ndarray):
    """(P >= 0 exactly, the float inner product of the unit gradients) as
    arrays over the columns of a (d + 1, m) array of points outside both
    sets.

    The Riemannian gradient of the distance to a tube is N / (c sqrt(c^2 - 1))
    and to a horoball N / w (see _normal); both scale factors are positive
    outside the sets, so the sign of the inner product is the sign of P.
    Evaluated in floats, P takes at most 4d + 10 roundings along any path
    (d + 1 in each Lorentz product; s_a s_b multiplies two squares of them).
    The float sign stands where certify.stands() certifies it against Pbar,
    P with every term replaced by its absolute value; each lane takes the
    float operations of one point, and only a lane where stands() abstains
    evaluates P over the rationals.
    """
    cols_a, cols_b = set_a.columns, set_b.columns
    abs_a = [[abs(v) for v in c] for c in cols_a]
    abs_b = [[abs(v) for v in c] for c in cols_b]
    normal_a = _normal(columns, cols_a, -1)
    normal_b = _normal(columns, cols_b, -1)
    p = _polynomial(normal_a, normal_b, _gram(cols_a, cols_b, -1))
    abs_x = np.abs(columns)
    bound = _polynomial(_normal(abs_x, abs_a, 1), _normal(abs_x, abs_b, 1),
                        _gram(abs_a, abs_b, 1))
    nonnegative = p > 0
    for i in np.flatnonzero(~stands(p, bound, 4 * (columns.shape[0] - 1) + 10)):
        nonnegative[i] = _exact_polynomial(columns[:, i].tolist(), cols_a, cols_b) >= 0
    ip = p / (_gradient_norm(normal_a, cols_a) * _gradient_norm(normal_b, cols_b))
    return nonnegative, ip


@dataclass(frozen=True)
class ObtuseAngleReport:
    samples: int
    min_inner_product: float
    passed: bool


def obtuse_angle_check(a: LorentzIsometry, b: LorentzIsometry,
                       eps_a: float, eps_b: float,
                       samples: int = 200, seed: int = 0) -> ObtuseAngleReport:
    """Gradients of the distances to two commuting sub-level sets never
    point against each other.

    a and b commute when their data share one axis, in either direction,
    or one fixed point (_orientation), decided exactly on the ideal points.
    Sample points are drawn in batches from one generator: for each, a
    direction (standard normal, normalized) and a radius (uniform in
    [0.05, 3.0]) from the base point, placed as coordinate columns by
    make_point.  The first samples draws, in draw order, that lie outside
    both sets are kept; each batch holds a few times the samples still
    needed, and every draw counts against a cap of 200 per sample.  At
    each kept point, the gradients are taken in closed form:
    -(a p + b u) / (c sqrt(c^2 - 1)) for a tube with axis columns (p, u),
    a = -<x, p>, b = <x, u>, c = sqrt(a^2 - b^2), and -n / w for a horoball
    at the null vector n, w = -<x, n>.  The sign of their Riemannian inner
    product <G_a, G_b> + <x, G_a> <x, G_b> is decided exactly for the stored
    floats, lane by lane: a float evaluation with a rounding bound settles
    it, and rational arithmetic the lanes where that abstains.  Membership
    takes the same float operations for a column as for one point, and
    _gradient_signs takes the kept sample columns at once.  Passes when
    every sign is >= 0.  min_inner_product is the float inner product of
    the unit gradients, for display.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if not _orientation(_data(a)[0], _data(b)[0]):
        raise GeometryError("isometries do not commute: they share no axis or fixed point")
    set_a = SublevelSet.of(a, eps_a)
    set_b = SublevelSet.of(b, eps_b)
    d = a.dimension
    rng = np.random.default_rng(seed)

    kept = []
    collected = 0
    attempts = 0
    max_attempts = 200 * samples
    while collected < samples:
        if attempts >= max_attempts:
            raise SamplingError(
                f"could only place {collected}/{samples} samples outside both sub-level sets")
        m = min(4 * (samples - collected), max_attempts - attempts)
        attempts += m
        directions = rng.standard_normal((m, d)).T
        radii = rng.uniform(0.05, 3.0, m)
        # exp_map(base_point(d), (0, direction), radius) for each column
        coords = np.empty((d + 1, m))
        coords[0] = np.cosh(radii)
        coords[1:] = directions * (np.sinh(radii) / np.sqrt((directions * directions).sum(axis=0)))
        x = make_point(coords)
        outside = ~set_a.contains(x)
        outside[outside] = ~set_b.contains(x[:, outside])
        x = x[:, outside][:, :samples - collected]
        kept.append(x)
        collected += x.shape[1]
    nonnegative, ip = _gradient_signs(set_a, set_b, np.hstack(kept))
    return ObtuseAngleReport(samples=samples, min_inner_product=float(ip.min()),
                             passed=bool(nonnegative.all()))


@dataclass(frozen=True)
class OrbitCountReport:
    count: int
    bound: float
    passed: bool


def orbit_count_check(g: LorentzIsometry, x: np.ndarray, R: float) -> OrbitCountReport:
    """Count the powers g^k (k != 0) displacing x by at most R.

    g's data makes it a rotation-free loxodromic of length l: a power or
    product of loxodromic() or standard_loxodromic() on one axis.  A
    rotating loxodromic has no data and is refused, as is a parabolic,
    whose length is 0.  For a point at distance r from the axis,
    sinh(d(x, g^k x)/2) = cosh(r) sinh(|k| l/2) (Ratcliffe, Foundations of
    Hyperbolic Manifolds, 4.7), which grows with |k|, so the count is
    2 * max{k : cosh(r) sinh(k l/2) <= sinh(R/2)}.  cosh^2(r) is the
    product that SublevelSet membership reads at the axis columns, so the
    count is that of the loxodromic the data describes, and no power of
    the matrix is formed.  k_max is the floor of the inverted closed form,
    checked once against that predicate: one step down if it fails, or
    else one up if k_max + 1 passes, so the check ends for any l.  Where
    math.sinh overflows, past R ~ 1420.4, the predicate is decided on logs,
    log sinh t = t - log 2 + log1p(-e^(-2t)), and k_max, from
    2 asinh(sinh(R/2)/cosh r) = R - 2 log cosh r to rounding, is checked
    once in the same way.  The orbit is l-discrete, so the count must not
    exceed the volume ratio N(d, eps, R) at eps = min(l, R), which is
    below 2R as that bound requires.
    """
    from .constants import volume_ratio_bound

    fixed, amount = _data(g)
    if len(fixed) == 1:
        raise GeometryError("orbit counting requires a loxodromic isometry, not a parabolic")
    length = abs(amount)
    s = _normal(x.tolist(), [c.tolist() for c in _axis(*fixed)], -1)[1]
    cosh_r = math.sqrt(max(s, 1.0))

    def log_sinh(t: float) -> float:
        return t - math.log(2) + math.log1p(-math.exp(-2 * t))

    def within(k: int) -> bool:
        try:
            return cosh_r * math.sinh(k * length / 2) <= math.sinh(R / 2)
        except OverflowError:
            return math.log(cosh_r) + log_sinh(k * length / 2) <= log_sinh(R / 2)

    try:
        k_max = max(0, math.floor(2 * math.asinh(math.sinh(R / 2) / cosh_r) / length))
    except OverflowError:
        k_max = math.floor((R - 2 * math.log(cosh_r)) / length)
    if not within(k_max):
        k_max -= 1
    elif within(k_max + 1):
        k_max += 1
    count = 2 * k_max
    bound = volume_ratio_bound(g.dimension, min(length, R), R).value
    return OrbitCountReport(count=count, bound=bound, passed=count <= bound)
