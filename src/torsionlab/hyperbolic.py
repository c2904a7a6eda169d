"""Hyperboloid-model hyperbolic geometry and displacement-function checks.

Points live on the upper sheet of <x, x> = -1 for the Lorentz form
diag(-1, 1, ..., 1) on R^(d+1); isometries are matrices preserving that
form and the upper sheet.  Everything is constant curvature -1: pinched
curvature cannot be realized numerically without choosing a metric, and
hyperbolic space is the extremal witness for all inequalities verified
here.

Displacement sub-level sets are implemented in closed form: tubes around
the axis of a rotation-free loxodromic, read off its eigenvectors, and
horoballs for a parabolic built by parabolic(), which keeps its fixed
point and translation vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .certify import stands

LORENTZ_FORM_TOL = 1e-9
COMMUTE_TOL = 1e-9


class GeometryError(ValueError):
    """Invalid point, matrix, or configuration in the hyperboloid model."""


class SamplingError(RuntimeError):
    """The requested sample region is (numerically) unreachable."""


def lorentz_form_matrix(d: int) -> np.ndarray:
    j = np.eye(d + 1)
    j[0, 0] = -1.0
    return j


def lorentz_inner(x: np.ndarray, y: np.ndarray) -> float:
    return float(-x[0] * y[0] + np.dot(x[1:], y[1:]))


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
    # x_0 is the largest coordinate of a timelike vector; far from 1 its
    # square over- or underflows.  Scaling by a power of two is exact and
    # cancels in x / sqrt(-q).  Near 1 it is skipped, as it would cost more
    # than the rest of the function.
    mantissa, e = math.frexp(x[0])
    if not abs(mantissa) < 1:  # x_0 is not finite; inf - inf in the form would warn
        raise GeometryError("coordinates are not finite")
    if abs(e) > 500:
        x = np.ldexp(x, -e)
    else:
        e = 0
    q = lorentz_inner(x, x)
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
    e = np.frexp(x[0])[1]
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
    delta = x - y
    s = max(0.0, lorentz_inner(delta, delta))
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

    parabolic_data is (n, v) for a parabolic built by parabolic(): the
    fixed null vector and the translation vector, which its Jordan block
    gives back too unreliably for sub-level geometry.  A loxodromic needs
    no such data, as its axis is read off the eigenvectors.  Compared and
    hashed by identity, as its fields are arrays.
    """

    matrix: np.ndarray
    parabolic_data: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise GeometryError("isometry matrix must be square")
        if not np.isfinite(m).all():
            raise GeometryError("isometry matrix has non-finite entries")
        j = lorentz_form_matrix(m.shape[0] - 1)
        # rounding errors of M^T J M grow with the entries squared
        residual = float(np.max(np.abs(m.T @ j @ m - j)))
        if residual > LORENTZ_FORM_TOL * max(1.0, float(np.max(np.abs(m)))) ** 2:
            raise GeometryError("matrix does not preserve the Lorentz form")
        if m[0, 0] <= 0:
            raise GeometryError("matrix does not preserve the upper sheet")
        object.__setattr__(self, "matrix", m)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0] - 1

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def inverse(self) -> "LorentzIsometry":
        j = lorentz_form_matrix(self.dimension)
        return LorentzIsometry(j @ self.matrix.T @ j)

    def __matmul__(self, other: "LorentzIsometry") -> "LorentzIsometry":
        return LorentzIsometry(self.matrix @ other.matrix)

    def power(self, k: int) -> "LorentzIsometry":
        """g^k by repeated squaring of the matrix, or of its inverse for k < 0."""
        if k == 0:
            return identity(self.dimension)
        base = self if k > 0 else self.inverse()
        return LorentzIsometry(np.linalg.matrix_power(base.matrix, abs(k)))

    def commutes_with(self, other: "LorentzIsometry") -> bool:
        ab = self.matrix @ other.matrix
        ba = other.matrix @ self.matrix
        return float(np.max(np.abs(ab - ba))) <= COMMUTE_TOL


def identity(d: int) -> LorentzIsometry:
    return LorentzIsometry(np.eye(d + 1))


def displacement(g: LorentzIsometry, x: np.ndarray) -> float:
    """d(x, g x), the displacement of g at x."""
    return distance(x, g.apply(x))


# --- constructors ------------------------------------------------------------

def _frame_from_axis(xi_minus: np.ndarray, xi_plus: np.ndarray, d: int) -> np.ndarray:
    """Lorentz frame whose first two columns span the given axis.

    Column 0 is the midpoint-like point p, column 1 the unit tangent u
    with the axis running from xi_minus to xi_plus.
    """
    prod = lorentz_inner(xi_minus, xi_plus)
    if prod >= -1e-12:
        raise GeometryError("axis endpoints must be distinct future null directions")
    scale = math.sqrt(-2.0 * prod)
    p = (xi_minus + xi_plus) / scale
    u = (xi_plus - xi_minus) / scale
    cols = [p, u]
    for i in range(d + 1):
        v = np.zeros(d + 1)
        v[i] = 1.0
        v = v + lorentz_inner(v, p) * p - lorentz_inner(v, u) * u
        for b in cols[2:]:
            v = v - lorentz_inner(v, b) * b
        n = tangent_norm(v)
        if n > 1e-8:
            cols.append(v / n)
        if len(cols) == d + 1:
            break
    if len(cols) != d + 1:
        raise GeometryError("failed to complete an axis frame")
    return np.column_stack(cols)


def _check_null_future(xi: Sequence[float]) -> np.ndarray:
    v = np.asarray(xi, dtype=float)
    if abs(lorentz_inner(v, v)) > 1e-9 * max(1.0, float(np.dot(v, v))):
        raise GeometryError("ideal points must be null vectors")
    if v[0] <= 0:
        raise GeometryError("ideal points must be future pointing")
    return v


def loxodromic(xi_minus: Sequence[float], xi_plus: Sequence[float],
               length: float) -> LorentzIsometry:
    """Rotation-free translation of the given length along an axis.

    The axis is the geodesic with the two ideal endpoints; translation
    moves points from xi_minus towards xi_plus.
    """
    if length <= 0:
        raise GeometryError("translation length must be positive")
    a = _check_null_future(xi_minus)
    b = _check_null_future(xi_plus)
    d = a.shape[0] - 1
    frame = _frame_from_axis(a, b, d)
    p, u = frame[:, 0], frame[:, 1]
    # boost in the plane of p and u, the identity on its complement.  Unlike
    # frame @ boost @ frame^-1 it does not square the rounding of the frame,
    # whose entries grow as the endpoints approach each other.
    cosh_part = (math.cosh(length) - 1) * (np.outer(u, u) - np.outer(p, p))
    sinh_part = math.sinh(length) * (np.outer(p, u) - np.outer(u, p))
    matrix = np.eye(d + 1) + (cosh_part + sinh_part) @ lorentz_form_matrix(d)
    return LorentzIsometry(matrix)


def standard_loxodromic(d: int, length: float) -> LorentzIsometry:
    """Translation along the first-coordinate axis through the base point."""
    minus = np.zeros(d + 1)
    minus[0], minus[1] = 1.0, -1.0
    plus = np.zeros(d + 1)
    plus[0], plus[1] = 1.0, 1.0
    return loxodromic(minus, plus, length)


def _standard_parabolic_matrix(d: int, v: np.ndarray) -> np.ndarray:
    """Parabolic fixing the null direction e0 + e1, translating by v.

    In light-cone coordinates u = x0 + x1, w = x0 - x1, y in R^(d-1) the
    map is (u, w, y) -> (u + 2 v.y + |v|^2 w, w, y + w v).
    """
    m = np.zeros((d + 1, d + 1))
    vsq = float(np.dot(v, v))
    # action on basis vectors, read back from the light-cone formulas
    for col in range(d + 1):
        e = np.zeros(d + 1)
        e[col] = 1.0
        u, w, y = e[0] + e[1], e[0] - e[1], e[2:]
        u2 = u + 2 * float(np.dot(v, y)) + vsq * w
        y2 = y + w * v
        m[0, col] = (u2 + w) / 2
        m[1, col] = (u2 - w) / 2
        m[2:, col] = y2
    return m


def parabolic(fixed: Sequence[float], v: Sequence[float]) -> LorentzIsometry:
    """Parabolic translation fixing the given ideal point.

    v is the horospherical translation vector expressed in the d-1
    Euclidean directions transverse to the fixed point; parabolics with
    the same fixed point commute.
    """
    n = _check_null_future(fixed)
    d = n.shape[0] - 1
    vec = np.asarray(v, dtype=float)
    if vec.shape != (d - 1,):
        raise GeometryError(f"translation vector must have {d - 1} components")
    if np.allclose(vec, 0.0):
        raise GeometryError("translation vector must be nonzero")
    # frame sending e0 + e1 to a multiple of the fixed vector
    mirror = n.copy()
    mirror[1:] = -mirror[1:]
    frame = _frame_from_axis(mirror, n, d)
    j = lorentz_form_matrix(d)
    matrix = frame @ _standard_parabolic_matrix(d, vec) @ (j @ frame.T @ j)
    return LorentzIsometry(matrix, parabolic_data=(n, vec))


# --- classification and sub-level geometry -----------------------------------

def translation_length(g: LorentzIsometry) -> float:
    """Infimum of the displacement: log of the spectral radius."""
    eigvals = np.linalg.eigvals(g.matrix)
    return float(math.log(max(1.0, float(np.max(np.abs(eigvals))))))


def _classify(g: LorentzIsometry) -> tuple[float, list[float], list[float]]:
    """Translation length and axis frame columns (p, u) of a rotation-free
    loxodromic.

    They are read off the eigen-decomposition, whose translation
    eigenvalues are well separated.  Parabolic Jordan blocks are
    numerically fragile, so a parabolic is never classified here: its
    sub-level geometry comes from the parabolic_data of parabolic().
    """
    if float(np.max(np.abs(g.matrix - np.eye(g.dimension + 1)))) < 1e-12:
        raise GeometryError("sub-level set of the identity is the whole space")
    length = translation_length(g)
    # parabolic Jordan blocks smear eigenvalues by ~eps^(1/3), so only a
    # spectral radius clearly above that noise floor means loxodromic
    if length <= 1e-4:
        raise GeometryError(
            "cannot classify this matrix; build parabolic elements with the parabolic() constructor")
    eigvals, eigvecs = np.linalg.eig(g.matrix)
    idx_plus = int(np.argmax(eigvals.real))
    idx_minus = int(np.argmin(np.abs(eigvals - math.exp(-length))))
    plus = np.real(eigvecs[:, idx_plus])
    minus = np.real(eigvecs[:, idx_minus])
    if plus[0] < 0:
        plus = -plus
    if minus[0] < 0:
        minus = -minus
    d = g.dimension
    frame = _frame_from_axis(minus, plus, d)
    # reject rotating loxodromics: the transverse block must be trivial
    j = lorentz_form_matrix(d)
    standard = (j @ frame.T @ j) @ g.matrix @ frame
    if float(np.max(np.abs(standard[2:, 2:] - np.eye(d - 1)))) > 1e-7:
        raise GeometryError("sub-level geometry needs a rotation-free loxodromic")
    return length, frame[:, 0].tolist(), frame[:, 1].tolist()


@dataclass(frozen=True, eq=False)
class SublevelSet:
    """The region where the displacement of gamma stays below epsilon.

    Convex, and closed-form in both cases.  For a loxodromic it is the tube
    of radius reach around the axis, and columns holds the axis frame
    columns (p, u); for a parabolic it is the horoball w(x) = -<x, n> <= reach
    at the fixed null vector, and columns holds (n,).  Columns are plain
    floats, and membership reads the products _normal takes for the obtuse
    check's sign test: s = cosh^2 of the axis distance, or s = w, for one
    point or for coordinate columns alike.  Compared and hashed by identity.
    """

    gamma: LorentzIsometry
    epsilon: float
    columns: tuple[list[float], ...]
    reach: float

    @classmethod
    def of(cls, g: LorentzIsometry, epsilon: float) -> "SublevelSet":
        if epsilon <= 0:
            raise GeometryError("epsilon must be positive")
        if g.parabolic_data is not None:
            # horoball: cosh(displacement) = 1 + c w^2 with w(x) = -<x, n> and
            # c = |v|^2 / (2 n_0^2), read off the standard parabolic in the
            # frame sending e0 + e1 to n / n_0; displacement eps is reached at
            # w = sqrt((cosh(eps) - 1) / c) = 2 n_0 sinh(eps / 2) / |v|
            n, v = g.parabolic_data
            w_eps = 2.0 * float(n[0]) * math.sinh(epsilon / 2) / math.hypot(*v)
            return cls(g, epsilon, (n.tolist(),), w_eps)
        length, p, u = _classify(g)
        if epsilon <= length:
            raise GeometryError(
                f"sub-level set is empty: epsilon {epsilon} <= translation length {length}")
        radius = math.acosh(math.sinh(epsilon / 2) / math.sinh(length / 2))
        return cls(g, epsilon, (p, u), radius)

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


class _GradientPair:
    """Decides the sign of the inner product of the distance gradients of
    two sub-level sets at sample points outside both.

    The Riemannian gradient of the distance to a tube is N / (c sqrt(c^2 - 1))
    and to a horoball N / w (see _normal); both scale factors are positive
    outside the sets, so the sign of the inner product is the sign of P.
    Evaluated in floats, P takes at most 4d + 10 roundings along any path
    (d + 1 in each Lorentz product; s_a s_b multiplies two squares of them).
    The float sign stands where certify.stands() certifies it against Pbar,
    P with every term replaced by its absolute value; elsewhere P is
    evaluated over the rationals.
    """

    def __init__(self, set_a: SublevelSet, set_b: SublevelSet):
        self.columns_a = set_a.columns
        self.columns_b = set_b.columns
        self.gram = _gram(self.columns_a, self.columns_b, -1)
        self.abs_a = [[abs(v) for v in c] for c in self.columns_a]
        self.abs_b = [[abs(v) for v in c] for c in self.columns_b]
        self.abs_gram = _gram(self.abs_a, self.abs_b, 1)
        self.roundings = 4 * set_a.gamma.dimension + 10

    @staticmethod
    def _norm(normal, columns: list):
        """|projection of N| = sqrt(s (s - 1)) for a tube, w for a horoball."""
        s = normal[1]
        return np.sqrt(s * (s - 1.0)) if len(columns) == 2 else s

    def decide(self, x: Sequence[float] | np.ndarray):
        """(P >= 0 exactly, the float inner product of the unit gradients) at
        one point, or as arrays over the columns of a (d + 1, m) array: each
        lane takes the float operations of one point, and goes exact only
        where stands() abstains."""
        x = np.asarray(x, dtype=float)
        lanes = x.reshape(x.shape[0], -1)
        normal_a = _normal(lanes, self.columns_a, -1)
        normal_b = _normal(lanes, self.columns_b, -1)
        p = _polynomial(normal_a, normal_b, self.gram)
        abs_x = np.abs(lanes)
        bound = _polynomial(_normal(abs_x, self.abs_a, 1), _normal(abs_x, self.abs_b, 1),
                            self.abs_gram)
        nonnegative = p > 0
        for i in np.flatnonzero(~stands(p, bound, self.roundings)):
            point = lanes[:, i].tolist()
            nonnegative[i] = _exact_polynomial(point, self.columns_a, self.columns_b) >= 0
        ip = p / (self._norm(normal_a, self.columns_a) * self._norm(normal_b, self.columns_b))
        if x.ndim == 1:
            return bool(nonnegative[0]), float(ip[0])
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

    Sample points are drawn in batches from one generator: for each, a
    direction (standard normal, normalized) and a radius (uniform in
    [0.05, 3.0]) from the base point, placed as coordinate columns by
    make_point.  The first samples draws, in draw order, that lie outside
    both sets are kept; each batch holds a few times the samples still
    needed, and every draw counts against a cap of 200 per sample.  At
    each kept point, the gradients are taken in closed form:
    -(a p + b u) / (c sqrt(c^2 - 1)) for a tube with frame columns (p, u),
    a = -<x, p>, b = <x, u>, c = sqrt(a^2 - b^2), and -n / w for a horoball
    at the null vector n, w = -<x, n>.  The sign of their Riemannian inner
    product <G_a, G_b> + <x, G_a> <x, G_b> is decided exactly for the stored
    floats, lane by lane: a float evaluation with a rounding bound settles
    it, and rational arithmetic the lanes where that abstains.  Membership
    and signs take the same float operations for a column as for one
    point.  Passes when every sign is >= 0.  min_inner_product is the float
    inner product of the unit gradients, for display.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if not a.commutes_with(b):
        raise GeometryError("isometries do not commute within tolerance")
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
    nonnegative, ip = _GradientPair(set_a, set_b).decide(np.hstack(kept))
    return ObtuseAngleReport(samples=samples, min_inner_product=float(ip.min()),
                             passed=bool(nonnegative.all()))


@dataclass(frozen=True)
class OrbitCountReport:
    count: int
    bound: float
    max_power: int
    passed: bool


def orbit_count_check(g: LorentzIsometry, x: np.ndarray, R: float,
                      eps: float | None = None) -> OrbitCountReport:
    """Count the powers g^k (k != 0) displacing x by at most R.

    The displacement of g^k grows monotonically in |k| for a loxodromic,
    so the count is 2 * max{k : d(x, g^k x) <= R}.  The search starts at
    the closed form sinh(d(x, g^k x)/2) = cosh(r) sinh(k l/2) for a point at
    distance r from the axis of a rotation-free loxodromic of length l
    (Ratcliffe, Foundations of Hyperbolic Manifolds, 4.7), with cosh(r)
    read off d(x, g x).  From there k moves one step at a time under the
    matrix rule d(x, g^k x) <= R until d(x, g^k x) <= R < d(x, g^(k+1) x);
    there is no cap on k.  The count must not exceed the volume ratio
    N(d, eps, R) for any eps <= translation length.
    """
    from .constants import volume_ratio_bound

    length = translation_length(g)
    if length <= 0:
        raise GeometryError("orbit counting requires a loxodromic isometry")
    if eps is None:
        eps = length
    if not 0 < eps <= length:
        raise GeometryError("requires 0 < eps <= translation length")

    def disp(k: int) -> float:
        return displacement(g.power(k), x)

    disp_1 = disp(1)
    if disp_1 > R:
        k_max = 0
    else:
        cosh_r = math.sinh(disp_1 / 2) / math.sinh(length / 2)
        k_max = max(1, math.floor(2 * math.asinh(math.sinh(R / 2) / cosh_r) / length))
        while disp(k_max) > R:  # stops at k_max = 1 at the latest
            k_max -= 1
        while disp(k_max + 1) <= R:
            k_max += 1
    count = 2 * k_max
    bound = volume_ratio_bound(g.dimension, eps, R).value
    return OrbitCountReport(count=count, bound=bound, max_power=k_max,
                            passed=count <= bound)

