import math
import re
from fractions import Fraction

import mpmath
import pytest

from torsionlab.constants import (
    BALL_SERIES_BELOW,
    CommutatorCheck,
    ThickThinParams,
    commutator_chain_passes,
    commutator_inequality_check,
    covering_constants,
    euclidean_ball_volume,
    figure_eight_volume,
    hyperbolic_ball_volume,
    spherical_cap_area,
    sphere_surface_area,
    unit_vector_packing_bound,
    volume_ratio_bound,
)

# --- reference oracles -------------------------------------------------------
# mpmath closed forms and tanh-sinh quadratures at 96 bits, which the package
# values must reproduce: the closed forms bit for bit, the quadratures closely.

MPMATH_BITS = 96
BALL_RADII = (1e-8, 1e-5, 1e-3, 0.05, 0.3125, 0.5, 1.0, 1.05, 2.0, 5.0, 20.0, 100.0)
CAP_RADII = (0.1, math.pi / 6, 0.5, 1.0, 2.0, 3.0, math.pi)


def hyperbolic_ball_volume_closed_form(d: int, R: float) -> float:
    """surface(S^(d-1)) * 2^(d-1) v^a / a * 2F1(1-a, a; a+1; -v), a = d/2, v = sinh(R/2)^2."""
    with mpmath.workprec(MPMATH_BITS):
        a, v = mpmath.mpf(d) / 2, mpmath.sinh(mpmath.mpf(R) / 2) ** 2
        integral = 2 ** (d - 1) * v ** a / a * mpmath.hyp2f1(1 - a, a, a + 1, -v)
    return sphere_surface_area(d) * float(integral)


def spherical_cap_area_closed_form(d: int, theta: float) -> float:
    """surface(S^(d-2)) * 2^(d-2) B(x; (d-1)/2, (d-1)/2), x = sin(theta/2)^2."""
    with mpmath.workprec(MPMATH_BITS):
        half, x = mpmath.mpf(d - 1) / 2, mpmath.sin(mpmath.mpf(theta) / 2) ** 2
        integral = 2 ** (d - 2) * mpmath.betainc(half, half, 0, x)
    return sphere_surface_area(d - 1) * float(integral)


def figure_eight_volume_closed_form() -> float:
    """3 Cl_2(2 pi/3) from mpmath's Clausen function."""
    with mpmath.workprec(MPMATH_BITS):
        return float(3 * mpmath.clsin(2, 2 * mpmath.pi / 3))


def hyperbolic_ball_volume_mp(d: int, R: float) -> float:
    """Independent tanh-sinh quadrature of the same volume (cross-check)."""
    if d == 1:
        return 2.0 * R
    with mpmath.workprec(MPMATH_BITS):
        scale = mpmath.sinh(R)  # the integrand peaks at 1: a relative error test for small R
        integral = mpmath.quad(lambda t: (mpmath.sinh(t) / scale) ** (d - 1), [0, R])
        surface = 2 * mpmath.pi ** (mpmath.mpf(d) / 2) / mpmath.gamma(mpmath.mpf(d) / 2)
        return float(surface * integral * scale ** (d - 1))


def figure_eight_volume_quad() -> float:
    """Independent tanh-sinh quadrature of ``figure_eight_volume`` (cross-check).

    The quadrature absorbs the log singularity of the integrand at 0; the
    two agree to well below 1e-9.
    """
    with mpmath.workprec(MPMATH_BITS):
        value = mpmath.quad(lambda t: -mpmath.log(2 * mpmath.sin(t)), [0, mpmath.pi / 3])
        return float(6 * value)



def test_euclidean_volumes_closed_forms():
    assert euclidean_ball_volume(3, 1) == pytest.approx(4 * math.pi / 3, rel=1e-14)
    assert euclidean_ball_volume(2, 2) == pytest.approx(4 * math.pi, rel=1e-14)
    assert euclidean_ball_volume(4, 1) == pytest.approx(math.pi ** 2 / 2, rel=1e-14)


def test_euclidean_volume_rejects_bad_input():
    with pytest.raises(ValueError):
        euclidean_ball_volume(0, 1)
    with pytest.raises(ValueError):
        euclidean_ball_volume(2, 0)


def test_hyperbolic_volume_d2_closed_form():
    assert hyperbolic_ball_volume(2, 1) == pytest.approx(2 * math.pi * (math.cosh(1) - 1), rel=1e-13)


def test_hyperbolic_volume_d3_closed_form():
    assert hyperbolic_ball_volume(3, 2) == pytest.approx(math.pi * (math.sinh(4) - 4), rel=1e-13)


def test_hyperbolic_volume_quadratures_agree():
    for d in (2, 4, 5, 7, 12, 24):
        for radius in (1e-8, 1e-3, 0.05, 0.5, 1.0, 2.0, 5.0):
            a = hyperbolic_ball_volume(d, radius)
            b = hyperbolic_ball_volume_mp(d, radius)
            assert a == pytest.approx(b, rel=1e-12, abs=0), (d, radius)


@pytest.mark.parametrize("d", range(4, 25))
def test_hyperbolic_volume_matches_closed_form_exactly(d):
    for radius in BALL_RADII:
        assert hyperbolic_ball_volume(d, radius) == hyperbolic_ball_volume_closed_form(d, radius), radius


@pytest.mark.parametrize("d, radius", [(4, 400.0), (24, 100.0),
                                       (2, 1500.0), (3, 400.0), (5, 1e6), (4, 1e300)])
def test_hyperbolic_volume_past_float_range_is_inf(d, radius):
    assert hyperbolic_ball_volume(d, radius) == math.inf


def test_volume_ratio_past_float_range_is_inf():
    # 21^250 and the 250-ball's sinh^249 integral both pass the float range
    ratio = volume_ratio_bound(250, 0.5, 5.0)
    assert ratio.value == ratio.euclidean_lower_bound == math.inf


@pytest.mark.parametrize("radius", [1e-3, 1e-5, 1e-8,
                                    BALL_SERIES_BELOW * (1 - 1e-9), BALL_SERIES_BELOW,
                                    BALL_SERIES_BELOW * (1 + 1e-9), 0.7])
def test_hyperbolic_volume_d3_small_radius(radius):
    # pi (sinh 2R - 2R) cancels for small R; the series below the threshold does not
    with mpmath.workdps(50):
        r = mpmath.mpf(radius)
        exact = float(mpmath.pi * (mpmath.sinh(2 * r) - 2 * r))
    assert hyperbolic_ball_volume(3, radius) == pytest.approx(exact, rel=1e-14, abs=0)


def test_hyperbolic_dominates_euclidean():
    for d in (2, 3, 4, 6):
        for radius in (0.25, 1.0, 3.0):
            assert hyperbolic_ball_volume(d, radius) >= euclidean_ball_volume(d, radius)


def test_small_ball_limit_matches_euclidean():
    for d in (2, 3, 5):
        r = 1e-3
        ratio = hyperbolic_ball_volume(d, r) / euclidean_ball_volume(d, r)
        assert ratio == pytest.approx(1.0, abs=1e-5)


def test_volume_ratio_known_value():
    n = volume_ratio_bound(2, 1, 2)
    assert n.value == pytest.approx(8 * (math.cosh(2.5) - 1), rel=1e-12)
    assert n.euclidean_lower_bound == pytest.approx(25.0)


def test_volume_ratio_dominates_euclidean_bound():
    import random
    rng = random.Random(5)
    for _ in range(50):
        d = rng.randint(2, 6)
        R = rng.uniform(0.2, 3.0)
        r = rng.uniform(0.05, 1.9) * R
        n = volume_ratio_bound(d, r, R)
        assert n.value >= n.euclidean_lower_bound - 1e-9


def test_volume_ratio_monotone_in_R():
    values = [volume_ratio_bound(3, 0.5, R).value for R in (1.0, 1.5, 2.0, 3.0)]
    assert values == sorted(values)


def test_volume_ratio_domain():
    with pytest.raises(ValueError):
        volume_ratio_bound(2, 2.0, 1.0)
    # r in [R, 2R) is accepted
    assert volume_ratio_bound(2, 1.5, 1.0).value > 0


def test_packing_bound_plane_exact():
    assert unit_vector_packing_bound(2) == 6


def test_packing_bound_d3_at_least_icosahedral():
    assert unit_vector_packing_bound(3) >= 12


def test_packing_bound_pinned_values():
    expected = [6, 14, 34, 77, 170, 368, 788, 1673, 3527, 7399, 15455, 32171, 66765,
                138204, 285446, 588408, 1210821, 2487778, 5104370, 10459975, 21410545,
                43780148, 89437026]
    assert [unit_vector_packing_bound(d) for d in range(2, 25)] == expected


def test_packing_bound_domain():
    with pytest.raises(ValueError):
        unit_vector_packing_bound(1)
    with pytest.raises(ValueError):
        unit_vector_packing_bound(25)


def test_cap_area_monotone_in_radius():
    for d in (2, 3, 5):
        areas = [spherical_cap_area(d, t) for t in (0.2, 0.5, 1.0, 2.0)]
        assert areas == sorted(areas)


def test_cap_area_low_dimension_closed_forms():
    for theta in (0.1, math.pi / 6, 1.0, 2.0, 3.0, math.pi):
        assert spherical_cap_area(2, theta) == pytest.approx(2 * theta, rel=1e-13, abs=0)
        assert spherical_cap_area(3, theta) == pytest.approx(
            2 * math.pi * (1 - math.cos(theta)), rel=1e-13, abs=0)


@pytest.mark.parametrize("d", range(2, 25))
def test_cap_area_matches_closed_form_exactly(d):
    for theta in CAP_RADII:
        assert spherical_cap_area(d, theta) == spherical_cap_area_closed_form(d, theta), theta


def test_cap_area_full_sphere():
    for d in (2, 3, 4):
        assert spherical_cap_area(d, math.pi) == pytest.approx(sphere_surface_area(d), rel=1e-10)


def test_thick_thin_exact_rationals():
    params = ThickThinParams(d=4, margulis_eps=Fraction(1), margulis_index=2)
    assert params.eps == Fraction(1, 668168)
    assert params.eps * 4 * 2 * 17 ** 4 == params.eps0
    params = ThickThinParams(d=2, margulis_eps=Fraction(1, 10), margulis_index=1)
    assert params.eps == Fraction(1, 10) / 1156
    assert 0 < params.eps < params.eps0


def test_thick_thin_accepts_decimal_strings():
    params = ThickThinParams(d=3, margulis_eps="0.1", margulis_index=2)
    assert params.eps0 == Fraction(1, 10)


def test_epsilon_assignment_range():
    params = ThickThinParams(d=5, margulis_eps=Fraction(1), margulis_index=3)
    values = [params.epsilon(i) for i in range(5)]
    assert values[0] == Fraction(1, 4)  # loxodromic rank 0
    for v in values:
        assert params.eps <= v <= params.eps0 / 4
    assert values == sorted(values, reverse=True)
    with pytest.raises(ValueError, match=r"centrality rank must lie in \[0, 4\]"):
        params.epsilon(5)
    with pytest.raises(ValueError, match=r"centrality rank must lie in \[0, 4\]"):
        params.epsilon(-1)


def test_thick_thin_constants_delta_constraint():
    params = ThickThinParams(d=3, margulis_eps=Fraction(1, 10), margulis_index=2)
    assert params.b == unit_vector_packing_bound(3)
    assert params.delta_upper_bound == params.eps / (2 * (params.b + 1))
    past = ThickThinParams(d=25, margulis_eps=Fraction(1, 10), margulis_index=2)
    assert past.b is None and past.delta_upper_bound is None


def test_commutator_chain_exhaustive():
    for d in range(2, 11):
        checks = commutator_inequality_check(d)
        assert len(checks) == d * (d - 1) // 2
        assert all(c.passes for c in checks)


def test_commutator_chain_passes_agrees_with_every_pair():
    for d in range(2, 41):
        assert commutator_chain_passes(d) is all(c.passes for c in commutator_inequality_check(d)) is True
    with pytest.raises(ValueError):
        commutator_chain_passes(1)


def test_commutator_first_case():
    checks = commutator_inequality_check(2)
    assert checks == [CommutatorCheck(1, 0, Fraction(16, 68), Fraction(1, 4), True)]


def test_covering_constants_definitions():
    d, eps, eps0, b = 2, 0.01, 0.1, 6
    delta = eps / 14
    consts = covering_constants(d, eps, eps0, delta, b)
    assert consts.c * euclidean_ball_volume(d, delta / 2) == pytest.approx(consts.n_eps + 1, rel=1e-12)
    assert consts.D / (consts.n_eps + 1) == pytest.approx(consts.n_delta, rel=1e-12)
    assert consts.c > 0 and consts.D > 0 and math.isfinite(consts.c) and math.isfinite(consts.D)


def test_covering_constants_delta_guard():
    with pytest.raises(ValueError):
        covering_constants(2, 0.01, 0.1, 0.01, 6)  # delta too large


def test_figure_eight_volume_value_and_agreement():
    a = figure_eight_volume()
    b = figure_eight_volume_quad()
    assert a < 2.03
    assert b < 2.03
    assert a == pytest.approx(2.0298832128, abs=1e-8)
    assert b == pytest.approx(2.0298832128, abs=1e-8)
    assert a == pytest.approx(b, abs=1e-9)


def test_figure_eight_volume_matches_closed_form_exactly():
    assert figure_eight_volume() == figure_eight_volume_closed_form()


def test_figure_eight_finite_despite_singularity():
    assert math.isfinite(figure_eight_volume())


@pytest.mark.parametrize("call, message", [
    (lambda: euclidean_ball_volume(0, 1.0), "dimension must be at least 1"),
    (lambda: euclidean_ball_volume(2, 0.0), "radius must be positive"),
    (lambda: sphere_surface_area(0), "dimension must be at least 1"),
    (lambda: hyperbolic_ball_volume(0, 1.0), "dimension must be at least 1"),
    (lambda: hyperbolic_ball_volume(2, -1.0), "radius must be positive"),
    (lambda: volume_ratio_bound(2, 0.0, 1.0), "radii must be positive"),
    (lambda: volume_ratio_bound(2, 1.0, -1.0), "radii must be positive"),
    (lambda: volume_ratio_bound(2, 2.0, 1.0), "requires r < 2R"),
    (lambda: spherical_cap_area(1, 1.0), "dimension must be at least 2"),
    (lambda: spherical_cap_area(3, 0.0), "cap radius must lie in (0, pi]"),
    (lambda: spherical_cap_area(3, 4.0), "cap radius must lie in (0, pi]"),
    (lambda: ThickThinParams(1, Fraction(1, 10), 2), "dimension must be at least 2"),
    (lambda: ThickThinParams(3, Fraction(0), 2), "Margulis epsilon must be positive"),
    (lambda: ThickThinParams(3, Fraction(1, 10), 0), "Margulis index must be a positive integer"),
    (lambda: commutator_inequality_check(1), "dimension must be at least 2"),
    (lambda: covering_constants(2, 0.01, 0.1, -1.0, 6), "all parameters must be positive"),
    (lambda: covering_constants(2, 0.01, 0.1, 0.0001, 0), "all parameters must be positive"),
    (lambda: covering_constants(2, 0.1, 0.1, 0.0001, 6), "requires eps < eps0"),
    (lambda: covering_constants(2, 0.01, 0.1, 0.01, 6), "delta must satisfy delta <= eps/(2(b+1))"),
], ids=["euclidean-d", "euclidean-r", "sphere-d", "hyperbolic-d", "hyperbolic-R", "ratio-r",
        "ratio-R", "ratio-2R", "cap-d", "cap-zero", "cap-past-pi", "params-d", "params-eps",
        "params-m", "commutator-d", "covering-delta", "covering-b", "covering-eps",
        "covering-delta-cap"])
def test_each_domain_check_raises_a_value_error(call, message):
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        call()
    assert type(info.value) is ValueError


@pytest.mark.parametrize("R", [1e-8, 0.5, 3.0, 1e300])
def test_the_hyperbolic_ball_in_dimension_one_is_an_interval(R):
    assert hyperbolic_ball_volume(1, R) == 2 * R
