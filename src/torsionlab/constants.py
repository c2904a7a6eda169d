"""Closed-form evaluation of the geometric constants.

Covers Euclidean and hyperbolic ball volumes, the packing ratio
N(d, r, R) bounding r-discrete sets in R-balls, the unit-vector packing
number b(d), the thick-thin epsilon assignment with its commutator chain,
the covering constants c and D, and the figure-eight knot complement
volume.  The standard library evaluates them in `decimal`, far past the
double each is rounded to: the power integrals behind ball volumes
(d >= 4) and cap areas by their reduction formula (Ratcliffe,
Foundations of Hyperbolic Manifolds), and 3 Cl_2(2 pi/3) = 2 Cl_2(pi/3)
by Clausen's Bernoulli series (Abramowitz-Stegun 27.8).

Thick-thin quantities are exact rationals (fractions of the configured
Margulis epsilon); only genuinely transcendental values are floats.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, Overflow, localcontext
from fractions import Fraction
from typing import NamedTuple

# pi to 60 digits, past every working precision that needs it
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def _sin(x: Decimal) -> Decimal:
    """sin x by its Taylor series, at the context's precision."""
    total, term, k = x, x, 1
    while total + (term := -term * x * x / ((k + 1) * (k + 2))) != total:
        total, k = total + term, k + 2
    return total


def _decimal_power_integral(n: int, x: float, sigma: int) -> Decimal:
    """integral_0^x f(t)^n dt for f = sinh (sigma = 1) or f = sin (sigma = -1).

    Integration by parts gives F_n = sigma (f^(n-1) f' - (n-1) F_(n-2)) / n
    from F_0 = x and F_1 = sigma (f' - 1).  Below x = 1 each step cancels
    about 2 log10(1/x) digits, which the working precision adds back.
    Raises decimal.Overflow where sinh^n leaves decimal's exponent range.
    """
    loss = math.ceil(-2 * math.log10(min(x, 1.0)))
    with localcontext(Context(prec=40 + (n // 2 + 1) * loss)):
        t = Decimal(x)
        if sigma > 0:
            e = t.exp()
            f, df = (e - 1 / e) / 2, (e + 1 / e) / 2
        else:
            f, df = _sin(t), 1 - 2 * _sin(t / 2) ** 2
        integral = t if n % 2 == 0 else sigma * (df - 1)
        for k in range(2 + n % 2, n + 1, 2):
            integral = sigma * (f ** (k - 1) * df - (k - 1) * integral) / k
        return integral


def _power_integral(n: int, x: float, sigma: int) -> float:
    """The float of _decimal_power_integral(n, x, sigma)."""
    try:
        return float(_decimal_power_integral(n, x, sigma))
    except Overflow:  # sinh^n past decimal's exponent range, far past the float range
        return math.inf


# --- ball volumes and the packing ratio -------------------------------------

# Below this radius the 3-ball volume is summed as a series (see
# hyperbolic_ball_volume); above it the closed form loses under 13 ulps.
BALL_SERIES_BELOW = 0.5


def euclidean_ball_volume(d: int, r: float) -> float:
    """Volume of the radius-r ball in R^d: pi^(d/2) r^d / Gamma(d/2 + 1)."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if r <= 0:
        raise ValueError("radius must be positive")
    return math.pi ** (d / 2) * r ** d / math.gamma(d / 2 + 1)


def sphere_surface_area(d: int) -> float:
    """Surface area of the unit sphere S^(d-1) in R^d."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    return 2 * math.pi ** (d / 2) / math.gamma(d / 2)


def hyperbolic_ball_volume(d: int, R: float) -> float:
    """Volume of the radius-R ball in hyperbolic d-space.

    surface(S^(d-1)) * integral_0^R sinh(t)^(d-1) dt: closed forms in
    floats up to d = 3, the reduction formula of _power_integral from d = 4.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if R <= 0:
        raise ValueError("radius must be positive")
    if d == 1:
        return 2.0 * R
    if d == 3 and R < BALL_SERIES_BELOW:
        # sinh x - x cancels for small x; sum its odd series x^(2n+1)/(2n+1)!
        # instead (x = 2R <= 1: nine terms reach double precision)
        x = term = 2 * R
        total = 0.0
        for n in range(1, 10):
            term *= x * x / ((2 * n) * (2 * n + 1))
            total += term
        return math.pi * total
    try:
        if d == 2:
            return 4 * math.pi * math.sinh(R / 2) ** 2
        if d == 3:
            return math.pi * (math.sinh(2 * R) - 2 * R)
    except OverflowError:  # sinh, or its square, past the float range
        return math.inf
    return sphere_surface_area(d) * _power_integral(d - 1, R, 1)


class VolumeRatio(NamedTuple):
    """The ratio N(d, r, R) together with its Euclidean lower bound."""

    value: float
    euclidean_lower_bound: float


def volume_ratio_bound(d: int, r: float, R: float) -> VolumeRatio:
    """N(d, r, R) = vol_H(B(R + r/2)) / vol_E(B(r/2)).

    Any r-discrete subset of an R-ball in a pinched Hadamard manifold has
    at most this many points.  Accepts 0 < r < 2R.  Also reports
    ((2R + r)/r)^d, the Euclidean volume comparison's lower bound.
    Where the Euclidean volume is not a normal float or the hyperbolic one
    is not finite, the unit-sphere area both carry is cancelled first:
    N = d integral_0^(R + r/2) sinh^(d-1) t dt / (r/2)^d, in decimal.
    """
    if r <= 0 or R <= 0:
        raise ValueError("radii must be positive")
    if r >= 2 * R:
        raise ValueError("requires r < 2R")
    try:
        euclidean = euclidean_ball_volume(d, r / 2)
    except OverflowError:  # math.gamma, or r^d, past the float range
        euclidean = math.nan
    # only beside a normal Euclidean volume: then d < 342, and math.gamma in the sphere area is finite
    hyperbolic = hyperbolic_ball_volume(d, R + r / 2) if euclidean >= sys.float_info.min else math.inf
    if math.isfinite(hyperbolic):
        value = hyperbolic / euclidean
    else:
        try:
            integral = _decimal_power_integral(d - 1, R + r / 2, 1)
            with localcontext(Context(prec=40, Emin=MIN_EMIN, Emax=MAX_EMAX)):
                value = float(d * integral / (Decimal(r) / 2) ** d)
        except Overflow:
            value = math.inf
    try:
        lower = ((2 * R + r) / r) ** d
    except OverflowError:  # past the float range
        lower = math.inf
    return VolumeRatio(value=value, euclidean_lower_bound=lower)


# --- unit-vector packing ----------------------------------------------------

def spherical_cap_area(d: int, theta: float) -> float:
    """Area of a spherical cap of angular radius theta on S^(d-1).

    surface(S^(d-2)) * integral_0^theta sin(t)^(d-2) dt.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if not 0 < theta <= math.pi:
        raise ValueError("cap radius must lie in (0, pi]")
    return sphere_surface_area(d - 1) * _power_integral(d - 2, theta, -1)


def unit_vector_packing_bound(d: int) -> int:
    """Upper bound for the number of pairwise 1-discrete unit vectors in R^d.

    Chord >= 1 means angle >= pi/3, so caps of angular radius pi/6 have
    disjoint interiors and the count is at most area(S^(d-1))/area(cap).
    For d = 2 the pigeonhole value 6 is exact (regular hexagon).
    """
    if not 2 <= d <= 24:
        raise ValueError("dimension must be between 2 and 24")
    if d == 2:
        return 6
    return math.floor(sphere_surface_area(d) / spherical_cap_area(d, math.pi / 6))


# --- thick-thin assignment ---------------------------------------------------

@dataclass(frozen=True)
class ThickThinParams:
    """Margulis configuration and every thick-thin constant derived from it.

    eps0 is the configured Margulis epsilon itself and
    eps = eps0 / (4 * m * 17^d); both are exact rationals, so
    eps * (4 * m * 17^d) == eps0 holds with no rounding.  delta itself is
    not constructible (it comes from a compactness argument); only its
    upper bound eps / (2 * (b + 1)) is carried, with b the unit-vector
    packing bound, which is known up to d = 24 and None past it; the
    constructor sets b.
    """

    d: int
    margulis_eps: Fraction
    margulis_index: int

    def __post_init__(self):
        object.__setattr__(self, "margulis_eps", Fraction(self.margulis_eps))
        if self.d < 2:
            raise ValueError("dimension must be at least 2")
        if self.margulis_eps <= 0:
            raise ValueError("Margulis epsilon must be positive")
        if self.margulis_index < 1:
            raise ValueError("Margulis index must be a positive integer")
        object.__setattr__(self, "b", unit_vector_packing_bound(self.d) if self.d <= 24 else None)

    @property
    def eps0(self) -> Fraction:
        return self.margulis_eps

    @property
    def eps(self) -> Fraction:
        return self.margulis_eps / (4 * self.margulis_index * 17 ** self.d)

    def epsilon(self, rank: int) -> Fraction:
        """Weight eps0 / (4 * 17^rank) attached to a centrality rank.

        Rank 0 is the loxodromic case; parabolic ranks run up to d - 1 (the
        nilpotency degree of a cusp group is at most d - 1).
        """
        if not 0 <= rank <= self.d - 1:
            raise ValueError(f"centrality rank must lie in [0, {self.d - 1}]")
        return self.eps0 / (4 * 17 ** rank)

    @property
    def delta_upper_bound(self) -> Fraction | None:
        return None if self.b is None else self.eps / (2 * (self.b + 1))


@dataclass(frozen=True)
class CommutatorCheck:
    rank_a: int
    rank_c: int
    lhs: Fraction
    rhs: Fraction
    passes: bool


def _commutator_pair(rank_a: int, rank_c: int) -> CommutatorCheck:
    lhs = Fraction(16, 4 * 17 ** rank_a)
    rhs = Fraction(1, 4 * 17 ** rank_c)
    return CommutatorCheck(rank_a, rank_c, lhs, rhs, lhs < rhs)


def commutator_inequality_check(d: int) -> list[CommutatorCheck]:
    """Exact check of 16/(4*17^i_a) < 1/(4*17^i_c) for all admissible ranks.

    i_a is the smaller rank of the two commuting elements and i_c <= i_a - 1
    is the rank of their commutator (the rank drops in a nilpotent group).
    Every admissible pair up to rank d - 1 must pass.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    return [_commutator_pair(rank_a, rank_c) for rank_a in range(1, d) for rank_c in range(rank_a)]


def commutator_chain_passes(d: int) -> bool:
    """Whether every pair of ``commutator_inequality_check(d)`` passes.

    1/(4*17^i_c) falls as i_c grows, so for each i_a the pair with
    i_c = i_a - 1 is the tightest: d - 1 comparisons, not d(d-1)/2.  At
    d = 3600, which ``constants --d 3600`` reaches, the full check has about
    6.5 million pairs; 355,000 of them took 25 s, against 0.18 s for this
    shortcut (2-CPU VM).
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    return all(_commutator_pair(rank_a, rank_a - 1).passes for rank_a in range(1, d))


# --- covering constants ------------------------------------------------------

@dataclass(frozen=True)
class CoveringConstants:
    """The two constants controlling the nerve of the thick-part cover."""

    c: float
    D: float
    n_eps: float
    n_delta: float


def covering_constants(d: int, eps: float, eps0: float, delta: float, b: int) -> CoveringConstants:
    """c = (N(d,eps,4*eps0)+1) / vol_E(B(delta/2)), D = (N+1) * N(d,delta,2(b+1)delta)."""
    if min(eps, eps0, delta) <= 0 or b < 1:
        raise ValueError("all parameters must be positive")
    if eps >= eps0:
        raise ValueError("requires eps < eps0")
    if delta > eps / (2 * (b + 1)):
        raise ValueError("delta must satisfy delta <= eps/(2(b+1))")
    n_eps = volume_ratio_bound(d, eps, 4 * eps0).value
    n_delta = volume_ratio_bound(d, delta, 2 * (b + 1) * delta).value
    return CoveringConstants(
        c=(n_eps + 1) / euclidean_ball_volume(d, delta / 2),
        D=(n_eps + 1) * n_delta,
        n_eps=n_eps,
        n_delta=n_delta,
    )


# --- figure-eight volume -----------------------------------------------------

@functools.cache
def figure_eight_volume() -> float:
    """6 * integral_0^(pi/3) of -log(2 sin theta) dtheta = 3 Cl_2(2 pi/3) = 2 Cl_2(pi/3)
    (duplication), from Cl_2(t) = t - t log t + sum_k |B_2k| t^(2k+1) / (2k (2k+1)!)."""
    B = [Fraction(1)]  # Bernoulli numbers: B_m = -sum_(j<m) C(m+1, j) B_j / (m+1)
    with localcontext(Context(prec=40)):
        t = _PI / 3
        total, k = t - t * t.ln(), 1
        while True:
            for m in range(len(B), 2 * k + 1):
                B.append(-sum(math.comb(m + 1, j) * b for j, b in enumerate(B) if b) / (m + 1))
            coeff = abs(B[2 * k]) / (2 * k * math.factorial(2 * k + 1))
            term = t ** (2 * k + 1) * coeff.numerator / coeff.denominator
            if total + term == total:
                return float(2 * total)
            total, k = total + term, k + 1
