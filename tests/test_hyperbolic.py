import math

import numpy as np
import pytest

from torsionlab import hyperbolic as hyp


def random_point(rng, d, spread=2.0):
    v = np.zeros(d + 1)
    v[1:] = rng.standard_normal(d)
    v /= np.linalg.norm(v[1:])
    return hyp.make_point(hyp.exp_map(hyp.base_point(d), v, rng.uniform(0, spread)))


def test_point_normalization():
    x = hyp.make_point([2.0, 1.0, 0.5])
    assert abs(hyp.lorentz_inner(x, x) + 1) < 1e-12
    assert x[0] > 0
    with pytest.raises(hyp.GeometryError):
        hyp.make_point([1.0, 2.0, 0.0])  # spacelike


def test_distance_to_self_zero():
    x = hyp.make_point([1.3, 0.2, 0.7])
    assert hyp.distance(x, x) == 0.0


def test_distance_along_geodesic_is_parameter():
    d = 3
    x = hyp.base_point(d)
    v = np.zeros(d + 1)
    v[1] = 1.0
    y = hyp.make_point(hyp.exp_map(x, v, 1.5))
    assert hyp.distance(x, y) == pytest.approx(1.5, abs=1e-12)


def test_triangle_inequality_random():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        a, b, c = (random_point(rng, 3) for _ in range(3))
        assert hyp.distance(a, c) <= hyp.distance(a, b) + hyp.distance(b, c) + 1e-10


def test_lorentz_form_preserved_by_constructors_and_composition():
    g = hyp.standard_loxodromic(3, 0.4)
    h = hyp.parabolic([1.0, 1.0, 0.0, 0.0], [0.5, 0.2])
    for m in (g, h, g @ h, h @ g, g.inverse(), (g @ h) @ (h @ g)):
        j = hyp.lorentz_form_matrix(3)
        residual = np.max(np.abs(m.matrix.T @ j @ m.matrix - j))
        assert residual < 1e-9


def test_long_loxodromic_keeps_the_lorentz_form():
    # entries near cosh(10) ~ 1.1e4 carry rounding far above an absolute 1e-9
    g = hyp.standard_loxodromic(3, 10.0)
    assert abs(g.matrix[0, 0]) > 1e4
    x = hyp.base_point(3)
    assert hyp.displacement(g, x) == pytest.approx(10.0, rel=1e-8)
    assert hyp.displacement(g.inverse(), x) == pytest.approx(10.0, rel=1e-8)


def test_identity_displacement_zero():
    e = hyp.identity(3)
    rng = np.random.default_rng(1)
    for _ in range(10):
        assert hyp.displacement(e, random_point(rng, 3)) == 0.0


def test_displacement_closed_form_loxodromic():
    # at distance r from the axis: sinh(d/2) = cosh(r) sinh(l/2)
    d = 3
    length, r = 0.3, 1.0
    g = hyp.standard_loxodromic(d, length)
    x = hyp.base_point(d)
    v = np.zeros(d + 1)
    v[2] = 1.0
    p = hyp.make_point(hyp.exp_map(x, v, r))
    expected = 2 * math.asinh(math.cosh(r) * math.sinh(length / 2))
    assert hyp.displacement(g, p) == pytest.approx(expected, abs=1e-9)


def test_displacement_closed_form_random_instances():
    rng = np.random.default_rng(7)
    d = 3
    for _ in range(100):
        length = float(rng.uniform(0.05, 1.5))
        r = float(rng.uniform(0.0, 2.5))
        g = hyp.standard_loxodromic(d, length)
        v = np.zeros(d + 1)
        v[2:] = rng.standard_normal(d - 1)
        v /= np.linalg.norm(v)
        p = hyp.make_point(hyp.exp_map(hyp.base_point(d), v, r))
        expected = 2 * math.asinh(math.cosh(r) * math.sinh(length / 2))
        assert hyp.displacement(g, p) == pytest.approx(expected, abs=1e-9)


def test_displacement_convex_along_geodesics():
    rng = np.random.default_rng(3)
    d = 3
    g = hyp.standard_loxodromic(d, 0.4)
    h = 1e-2
    for _ in range(50):
        base = random_point(rng, d)
        v = np.zeros(d + 1)
        v[1:] = rng.standard_normal(d)
        v = hyp.tangent_projection(base, v)
        v /= hyp.tangent_norm(v)
        f = lambda t: hyp.displacement(g, hyp.make_point(hyp.exp_map(base, v, t)))
        for t in (-0.6, 0.0, 0.8):
            second = (f(t + h) - 2 * f(t) + f(t - h)) / (h * h)
            assert second >= -1e-8


def test_translation_length_recovered():
    for length in (0.1, 0.5, 1.2):
        g = hyp.standard_loxodromic(2, length)
        assert hyp.translation_length(g) == pytest.approx(length, abs=1e-10)
        assert hyp.translation_length(g.power(3)) == pytest.approx(3 * length, abs=1e-9)


def test_loxodromic_from_generic_axis():
    minus = [math.sqrt(2.0), 1.0, 1.0, 0.0]
    plus = [math.sqrt(5.0), -1.0, 0.0, 2.0]
    g = hyp.loxodromic(minus, plus, 0.7)
    assert hyp.translation_length(g) == pytest.approx(0.7, abs=1e-10)


def test_parabolic_translation_lengths_vanish():
    p = hyp.parabolic([1.0, 1.0, 0.0, 0.0], [1.0, 0.0])
    # Jordan-block eigenvalues are only good to ~eps^(1/3)
    assert hyp.translation_length(p) == pytest.approx(0.0, abs=1e-4)
    rng = np.random.default_rng(5)
    assert all(hyp.displacement(p, random_point(rng, 3)) > 0 for _ in range(5))


def test_parabolics_with_common_fixed_point_commute():
    fixed = [1.0, 1.0, 0.0, 0.0]
    a = hyp.parabolic(fixed, [1.0, 0.0])
    b = hyp.parabolic(fixed, [0.3, 0.7])
    assert a.commutes_with(b)


def test_sublevel_set_tube_geometry():
    g = hyp.standard_loxodromic(3, 0.3)
    s = hyp.SublevelSet.of(g, 0.5)
    assert s.geometry == "tube"
    expected_radius = math.acosh(math.sinh(0.25) / math.sinh(0.15))
    assert s.data["radius"] == pytest.approx(expected_radius, abs=1e-12)
    # boundary consistency: a point at exactly the tube radius displaces by epsilon
    v = np.zeros(4)
    v[2] = 1.0
    boundary_pt = hyp.make_point(hyp.exp_map(hyp.base_point(3), v, expected_radius))
    assert hyp.displacement(g, boundary_pt) == pytest.approx(0.5, abs=1e-10)


def test_sublevel_set_empty_when_epsilon_below_length():
    g = hyp.standard_loxodromic(3, 0.6)
    with pytest.raises(hyp.GeometryError):
        hyp.SublevelSet.of(g, 0.5)


def test_sublevel_set_horoball_distance():
    p = hyp.parabolic([1.0, 1.0, 0.0, 0.0], [2.0, 0.0])
    s = hyp.SublevelSet.of(p, 0.4)
    assert s.geometry == "horoball"
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = random_point(rng, 3)
        dist = s.distance_from(x)
        assert dist >= 0.0
        if dist > 0:
            # displacement strictly above epsilon outside the set
            assert hyp.displacement(p, x) > 0.4
        else:
            assert hyp.displacement(p, x) <= 0.4 + 1e-9


def test_obtuse_angle_commuting_loxodromic_powers():
    g = hyp.standard_loxodromic(3, 0.2)
    report = hyp.obtuse_angle_check(g, g.power(2), 0.5, 0.9, samples=100, seed=0)
    assert report.passed
    assert report.min_inner_product >= -1e-6


def test_obtuse_angle_commuting_parabolics():
    fixed = [1.0, 1.0, 0.0, 0.0]
    a = hyp.parabolic(fixed, [1.0, 0.0])
    b = hyp.parabolic(fixed, [0.3, 0.7])
    report = hyp.obtuse_angle_check(a, b, 0.4, 0.7, samples=100, seed=1)
    assert report.passed


def test_obtuse_angle_identical_gradients():
    g = hyp.standard_loxodromic(3, 0.2)
    report = hyp.obtuse_angle_check(g, g, 0.5, 0.5, samples=30, seed=2)
    assert report.min_inner_product == pytest.approx(1.0, abs=1e-6)


def test_obtuse_angle_rejects_noncommuting():
    g = hyp.standard_loxodromic(3, 0.2)
    other = hyp.loxodromic([1.3, 0.5, -1.2, 0.0], [1.3, 0.5, 1.2, 0.0], 0.2)
    assert not g.commutes_with(other)
    with pytest.raises(hyp.GeometryError):
        hyp.obtuse_angle_check(g, other, 0.5, 0.5, samples=10, seed=0)


def test_orbit_count_on_axis():
    g = hyp.standard_loxodromic(2, 0.5)
    report = hyp.orbit_count_check(g, hyp.base_point(2), 2.0)
    assert report.count == 8  # 2 * floor(2 / 0.5)
    assert report.passed


def test_orbit_count_zero_below_length():
    g = hyp.standard_loxodromic(2, 1.0)
    report = hyp.orbit_count_check(g, hyp.base_point(2), 0.5, eps=0.3)
    assert report.count == 0
    assert report.passed


def test_orbit_count_off_axis_closed_form():
    d, length, r, R = 3, 0.3, 1.0, 3.0
    g = hyp.standard_loxodromic(d, length)
    v = np.zeros(d + 1)
    v[2] = 1.0
    x = hyp.make_point(hyp.exp_map(hyp.base_point(d), v, r))
    report = hyp.orbit_count_check(g, x, R)
    # closed form: d_{g^k}(x) = 2 asinh(cosh(r) sinh(k l / 2))
    k_max = 0
    while 2 * math.asinh(math.cosh(r) * math.sinh((k_max + 1) * length / 2)) <= R:
        k_max += 1
    assert report.count == 2 * k_max
    assert report.passed


def test_orbit_count_randomized_suite():
    rng = np.random.default_rng(21)
    for _ in range(25):
        d = int(rng.integers(2, 4))
        length = float(rng.uniform(0.1, 1.0))
        g = hyp.standard_loxodromic(d, length)
        v = np.zeros(d + 1)
        v[2] = 1.0
        x = hyp.make_point(hyp.exp_map(hyp.base_point(d), v, float(rng.uniform(0, 2))))
        report = hyp.orbit_count_check(g, x, float(rng.uniform(length, 4.0)))
        assert report.passed


def test_exp_map_inverse_of_geodesic():
    x = hyp.make_point([1.5, 0.3, -0.8, 0.1])
    y = hyp.make_point([2.0, 1.0, 0.5, -0.3])
    c = hyp.geodesic_through(x, y)
    assert np.allclose(c(0), x, atol=1e-12)
    assert np.allclose(c(hyp.distance(x, y)), y, atol=1e-10)
