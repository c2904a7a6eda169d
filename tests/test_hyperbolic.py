import json
import math
import re
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from torsionlab import hyperbolic as hyp
from torsionlab.constants import volume_ratio_bound


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


def test_a_point_on_the_lower_sheet_is_moved_to_the_upper_one():
    x = hyp.make_point([-2.0, 1.0, 0.5])
    assert np.array_equal(x, hyp.make_point([2.0, -1.0, -0.5]))
    assert x[0] > 0


def test_the_zeroth_power_is_the_identity():
    g = hyp.standard_loxodromic(3, 1.5)
    assert np.array_equal(g.power(0).matrix, np.eye(4))


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_spacelike_points_beyond_the_float_range_of_the_form_are_rejected(scale):
    with pytest.raises(hyp.GeometryError, match="not timelike"):
        hyp.make_point([scale, 2 * scale, 0.0])


@pytest.mark.parametrize("coords", [[1e-200, 1e300, 0.0], [[1e-200], [1e300], [0.0]]])
def test_spacelike_coordinates_far_from_one_are_scaled_without_overflow(coords):
    # scaling by x_0 alone would push 1e300 past the float range
    with pytest.raises(hyp.GeometryError, match="not timelike"):
        hyp.make_point(coords)


@pytest.mark.parametrize("coords", [[math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0],
                                    [2.0, math.nan, 0.0], [math.inf, math.inf, 0.0],
                                    [-math.inf, 1.0, 0.0], [1e-200, math.inf, 0.0],
                                    [[1.0, 2.0], [0.0, math.nan], [0.0, 0.0]]])
def test_non_finite_coordinates_are_rejected(coords):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(hyp.GeometryError, match="not finite"):
            hyp.make_point(coords)


def test_a_column_normalizes_to_the_floats_of_one_point():
    # the seeded batch obtuse_angle_check draws first at d = 3, 200 samples
    d, m = 3, 800
    rng = np.random.default_rng(0)
    directions = rng.standard_normal((m, d)).T
    radii = rng.uniform(0.05, 3.0, m)
    coords = np.empty((d + 1, m))
    coords[0] = np.cosh(radii)
    coords[1:] = directions * (np.sinh(radii) / np.sqrt((directions * directions).sum(axis=0)))
    columns = hyp.make_point(coords)
    assert all(columns[:, k].tolist() == hyp.make_point(coords[:, k]).tolist()
               for k in range(m))


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
    assert hyp.displacement(g, x) == pytest.approx(10.0, rel=1e-12)
    assert hyp.displacement(g.inverse(), x) == pytest.approx(10.0, rel=1e-8)
    # entries near cosh(20) ~ 2.4e8 square to ~6e16 in the form check
    assert np.isfinite(g.power(2).matrix).all()
    assert hyp.displacement(g.power(2), x) == pytest.approx(20.0, rel=1e-8)


def seeded_boost_lengths():
    rng = np.random.default_rng(45)
    for d in range(1, 9):
        for length in rng.uniform(0.0, math.acosh(2.0 ** 53), 6):
            yield d, float(length)


@pytest.mark.parametrize("d, length", list(seeded_boost_lengths()))
def test_the_standard_loxodromic_is_loxodromic_on_the_first_axis_bit_for_bit(d, length):
    # below 2^53, cosh(l) - 1 is exact and 1 + (cosh(l) - 1) is cosh(l)
    minus, plus = np.zeros(d + 1), np.zeros(d + 1)
    minus[:2], plus[:2] = [1.0, -1.0], [1.0, 1.0]
    boost = hyp.standard_loxodromic(d, length).matrix
    general = hyp.loxodromic(minus, plus, length).matrix
    assert np.array_equal(boost, general)
    assert boost.tobytes() == general.tobytes()  # signed zeros too


def test_past_2_53_the_boost_diagonal_is_cosh_itself():
    length = 37.69
    assert math.cosh(length) > 2.0 ** 53
    m = hyp.standard_loxodromic(3, length).matrix
    assert m[0, 0] == m[1, 1] == math.cosh(length)
    assert m[0, 1] == m[1, 0] == math.sinh(length)


@pytest.mark.parametrize("make", [lambda: hyp.standard_loxodromic(3, 0.7),
                                  lambda: hyp.loxodromic([1, .6, .8, 0], [1, -.28, .96, 0], 0.7),
                                  lambda: hyp.parabolic([1, 1, 0, 0], [1, 0])],
                         ids=["standard", "general-axis", "parabolic"])
def test_the_first_power_is_the_isometry_itself(make):
    g = make()
    data = g.data
    assert g.power(1) is g
    assert g.power(1).data is data


@pytest.mark.parametrize("call, message", [
    *[(lambda length=length: hyp.standard_loxodromic(3, length),
       f"translation length {length} is not below 354.89")
      for length in (math.nan, math.inf, 400.0, 800.0)],
    (lambda: hyp.loxodromic([1, .6, .8, 0], [1, -.28, .96, 0], 800.0),
     "translation length 800.0 is not below"),
    (lambda: hyp.parabolic([1, 1, 0, 0], [1e150, 0]), "translation vector length 1e\\+150 is not below"),
    (lambda: hyp.LorentzIsometry(np.full((3, 3), 1e200)), "entry 1e\\+200 is past the float range"),
    # each square is finite, their sum in the form check is not
    (lambda: hyp.LorentzIsometry(np.full((3, 3), 1e154)), "entry 1e\\+154 is past the float range"),
], ids=["nan", "inf", "400", "800", "general-axis-800", "parabolic", "squares", "sum-of-squares"])
def test_isometries_past_the_float_range_are_refused_as_input(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(hyp.GeometryError, match=message) as info:
            call()
    assert type(info.value) is hyp.GeometryError


@pytest.mark.parametrize("d", [1, 3, 8])
def test_the_standard_loxodromic_passes_the_form_check_up_to_its_length_limit(d):
    limit = math.acosh(math.sqrt(sys.float_info.max / (d + 1)))
    g = hyp.standard_loxodromic(d, math.nextafter(limit, 0.0))
    assert np.array_equal(hyp.LorentzIsometry(g.matrix).matrix, g.matrix)
    with pytest.raises(hyp.GeometryError, match="not below"):
        hyp.standard_loxodromic(d, limit)


def times_its_inverse(g):
    return g @ g.inverse()


@pytest.mark.parametrize("make, message", [
    (lambda: times_its_inverse(hyp.standard_loxodromic(3, 10.0)), "does not preserve the Lorentz form"),
    (lambda: times_its_inverse(hyp.standard_loxodromic(3, 25.0)), "does not preserve the upper sheet"),
    (lambda: (lambda h: h.power(3) @ h.power(-3))(
        hyp.loxodromic([1, .6, .8, 0], [1, -.28, .96, 0], 5.0)), "does not preserve the Lorentz form"),
], ids=["standard-10", "standard-25", "general-axis-powers"])
def test_a_product_of_valid_isometries_failing_its_check_is_an_arithmetic_error(make, message):
    with pytest.raises(FloatingPointError, match=f"^matrix {message}$"):
        make()


def test_the_check_on_products_sees_real_rounding():
    # at l = 20 the rounding of g g^-1 is of the order of the identity's entries
    g = hyp.standard_loxodromic(3, 20.0)
    assert np.max(np.abs(g.matrix @ g.inverse().matrix - np.eye(4))) > 1.0


@pytest.mark.parametrize("entry", [math.nan, math.inf])
def test_non_finite_matrix_rejected(entry):
    m = np.eye(4)
    m[0, 1] = entry
    with pytest.raises(hyp.GeometryError, match="non-finite"):
        hyp.LorentzIsometry(m)


@pytest.mark.parametrize("matrix", [np.ones((3, 4)), np.ones(4), np.ones((2, 2, 2))],
                         ids=["3x4", "vector", "3-d"])
def test_non_square_matrix_rejected(matrix):
    with pytest.raises(hyp.GeometryError, match="isometry matrix must be square"):
        hyp.LorentzIsometry(matrix)


@pytest.mark.parametrize("size", [0, 1])
def test_matrix_smaller_than_2x2_rejected(size):
    with pytest.raises(hyp.GeometryError,
                       match=re.escape(f"isometry matrix must be at least 2 x 2, got {size} x {size}")):
        hyp.LorentzIsometry(np.eye(size))


@pytest.mark.parametrize("matrix", [
    np.diag([1.0, 2.0, 1.0, 1.0]),  # stretches a spacelike direction
    np.ones((4, 4)),
    np.eye(4) + 1e-6 * np.eye(4, k=1),  # a shear far above the form tolerance
], ids=["stretch", "ones", "shear"])
def test_matrix_breaking_the_lorentz_form_rejected(matrix):
    with pytest.raises(hyp.GeometryError, match="does not preserve the Lorentz form"):
        hyp.LorentzIsometry(matrix)


@pytest.mark.parametrize("matrix", [-np.eye(4), np.diag([-1.0, 1.0, 1.0, 1.0])],
                         ids=["minus-identity", "time-reversal"])
def test_lower_sheet_matrix_rejected(matrix):
    # both preserve the form but swap the two sheets
    with pytest.raises(hyp.GeometryError, match="does not preserve the upper sheet"):
        hyp.LorentzIsometry(matrix)


@pytest.mark.parametrize("minus, plus, length, message", [
    ([1.0, -1.0, 0.0], [1.0, 1.0, 0.0], 0.0, "translation length must be positive"),
    ([1.0, -1.0, 0.0], [1.0, 1.0, 0.0], -0.5, "translation length must be positive"),
    ([1.0, 0.5, 0.0], [1.0, 1.0, 0.0], 0.5, "ideal points must be null vectors"),
    ([1.0, -1.0, 0.0], [2.0, 0.0, 0.0], 0.5, "ideal points must be null vectors"),
    ([-1.0, 1.0, 0.0], [1.0, 1.0, 0.0], 0.5, "ideal points must be future pointing"),
    ([1.0, -1.0, 0.0], [-1.0, -1.0, 0.0], 0.5, "ideal points must be future pointing"),
    ([1.0, 1.0, 0.0], [1.0, 1.0, 0.0], 0.5, "distinct future null directions"),
    ([1.0, 0.0, 1.0], [3.0, 0.0, 3.0], 0.5, "distinct future null directions"),
], ids=["zero-length", "negative-length", "timelike-minus", "timelike-plus",
        "past-minus", "past-plus", "equal", "same-direction"])
def test_loxodromic_rejects_bad_data(minus, plus, length, message):
    with pytest.raises(hyp.GeometryError, match=message):
        hyp.loxodromic(minus, plus, length)


def loxodromic_from_the_frame(minus, plus, length):
    """The boost along the axis, with p and u read off the full axis frame."""
    a, b = np.asarray(minus, dtype=float), np.asarray(plus, dtype=float)
    d = a.shape[0] - 1
    p, u = hyp._frame_from_axis(a, b, d)[:, :2].T
    j = np.eye(d + 1)
    j[0, 0] = -1.0
    cosh_part = (math.cosh(length) - 1) * (np.outer(u, u) - np.outer(p, p))
    sinh_part = math.sinh(length) * (np.outer(p, u) - np.outer(u, p))
    return np.eye(d + 1) + (cosh_part + sinh_part) @ j


def seeded_axes():
    rng = np.random.default_rng(11)
    for d in range(2, 7):
        for _ in range(8):
            ends = []
            for _ in range(2):
                w = rng.standard_normal(d)
                ends.append([float(np.linalg.norm(w))] + w.tolist())
            yield ends[0], ends[1], float(rng.uniform(0.01, 3.0))
    for angle in (0.003, 0.01, 0.02):
        for phi in (0.3, 1.0, 2.0):
            yield ([1.0, math.cos(phi), math.sin(phi)],
                   [1.0, math.cos(phi + angle), math.sin(phi + angle)], 0.03)


@pytest.mark.parametrize("minus, plus, length", list(seeded_axes()))
def test_loxodromic_from_its_axis_matches_the_frame_bit_for_bit(minus, plus, length):
    ref = loxodromic_from_the_frame(minus, plus, length)
    assert np.array_equal(hyp.loxodromic(minus, plus, length).matrix, ref)


@pytest.mark.parametrize("d", [2, 3, 6])
def test_lorentz_form_matrix_is_read_only(d):
    j = hyp.lorentz_form_matrix(d)
    assert np.array_equal(j, np.diag([-1.0] + [1.0] * d))
    with pytest.raises(ValueError, match="read-only"):
        j[0, 0] = 1.0


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


def spectral_length(g):
    """Log of the spectral radius: the translation length read back off the
    matrix, an oracle for the data."""
    return math.log(max(1.0, float(np.abs(np.linalg.eigvals(g.matrix)).max())))


def test_translation_length_recovered():
    for length in (0.1, 0.5, 1.2):
        g = hyp.standard_loxodromic(2, length)
        fixed = g.data[0]
        assert g.data == (fixed, length)
        assert spectral_length(g) == pytest.approx(length, abs=1e-10)
        for k in (3, -3):
            assert g.power(k).data == (fixed, k * length)
            assert spectral_length(g.power(k)) == pytest.approx(3 * length, abs=1e-9)
        product = g.power(3) @ g.power(-3)
        assert product.data is None
        assert np.allclose(product.matrix, np.eye(3), rtol=0, atol=1e-12)


def test_loxodromic_from_generic_axis():
    minus = [math.sqrt(2.0), 1.0, 1.0, 0.0]
    plus = [math.sqrt(5.0), -1.0, 0.0, 2.0]
    g = hyp.loxodromic(minus, plus, 0.7)
    (a, b), length = g.data
    assert (a.tolist(), b.tolist(), length) == (minus, plus, 0.7)
    assert spectral_length(g) == pytest.approx(0.7, abs=1e-10)


@pytest.mark.parametrize("angle", [0.003, 0.01, 0.02])
@pytest.mark.parametrize("phi", [0.3, 1.0, 2.0])
def test_loxodromic_with_nearby_endpoints(angle, phi):
    # the axis runs far from the base point, so its frame has large entries
    minus = [1.0, math.cos(phi), math.sin(phi)]
    plus = [1.0, math.cos(phi + angle), math.sin(phi + angle)]
    g = hyp.loxodromic(minus, plus, 0.03)
    assert g.data[1] == 0.03
    assert spectral_length(g) == pytest.approx(0.03, rel=1e-5)


def test_ideal_points_are_checked_as_directions():
    # timelike at any scale: -1e-10 + 2.5e-11 is far above 1e-9 * 1.25e-10
    with pytest.raises(hyp.GeometryError, match="ideal points must be null vectors"):
        hyp._check_null_future([1e-5, 5e-6, 0.0, 0.0])
    with pytest.raises(hyp.GeometryError, match="ideal points must be null vectors"):
        hyp.loxodromic([1e-5, 5e-6, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], 1.0)
    with pytest.raises(hyp.GeometryError, match="ideal points must be null vectors"):
        hyp.parabolic([1e-5, 5e-6, 0.0, 0.0], [1.0, 0.0])


def test_small_ideal_points_give_the_isometries_of_their_directions():
    # before, both raised "axis endpoints must be distinct" below unit scale
    minus, plus = np.array([1.0, -1.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0, 0.0])
    lox, par = hyp.loxodromic(minus, plus, 1.0).matrix, hyp.parabolic(plus, [1.0, 0.0]).matrix
    # a power-of-two scale is exact, so the matrices are the same floats
    small = 2.0 ** -30
    assert np.array_equal(hyp.loxodromic(small * minus, small * plus, 1.0).matrix, lox)
    assert np.array_equal(hyp.parabolic(small * plus, [1.0, 0.0]).matrix, par)
    # and 1e-7 rounds the endpoints only
    assert np.abs(hyp.loxodromic(1e-7 * minus, 1e-7 * plus, 1.0).matrix - lox).max() <= 1e-15
    assert np.abs(hyp.parabolic(1e-7 * plus, [1.0, 0.0]).matrix - par).max() <= 1e-15


def test_a_small_translation_is_a_translation():
    # before, np.allclose read 1e-9 as zero
    p = hyp.parabolic([1, 1, 0, 0], [1e-9, 0])
    assert p.data[1].tolist() == [1e-9, 0.0]
    assert not np.array_equal(p.matrix, np.eye(4))
    assert hyp.SublevelSet.of(p, 0.5).reach == 2.0 * math.sinh(0.25) / 1e-9


def test_parabolic_translation_lengths_vanish():
    p = hyp.parabolic([1.0, 1.0, 0.0, 0.0], [1.0, 0.0])
    assert len(p.data[0]) == 1  # a fixed point, no axis
    # Jordan-block eigenvalues are only good to ~eps^(1/3)
    assert spectral_length(p) == pytest.approx(0.0, abs=1e-4)
    rng = np.random.default_rng(5)
    assert all(hyp.displacement(p, random_point(rng, 3)) > 0 for _ in range(5))


def test_parabolics_with_common_fixed_point_commute():
    fixed = [1.0, 1.0, 0.0, 0.0]
    a = hyp.parabolic(fixed, [1.0, 0.0])
    b = hyp.parabolic(fixed, [0.3, 0.7])
    assert hyp._orientation(a.data[0], b.data[0]) == 1
    assert np.allclose(a.matrix @ b.matrix, b.matrix @ a.matrix, rtol=0, atol=1e-12)


def parabolic_from_the_light_cone(fixed, v):
    """The parabolic in light-cone coordinates u = x0 + x1, w = x0 - x1, y,
    (u, w, y) -> (u + 2 v.y + |v|^2 w, w, y + w v), read back column by
    column and conjugated into parabolic()'s frame."""
    n, v = np.asarray(fixed, dtype=float), np.asarray(v, dtype=float)
    d = n.shape[0] - 1
    frame = hyp._frame_from_axis(np.concatenate([n[:1], -n[1:]]), n, d)
    standard = np.zeros((d + 1, d + 1))
    for col, e in enumerate(np.eye(d + 1)):
        u, w, y = e[0] + e[1], e[0] - e[1], e[2:]
        u2 = u + 2 * float(np.dot(v, y)) + float(np.dot(v, v)) * w
        standard[0, col], standard[1, col] = (u2 + w) / 2, (u2 - w) / 2
        standard[2:, col] = y + w * v
    j = np.eye(d + 1)
    j[0, 0] = -1.0
    return frame @ standard @ (j @ frame.T @ j)


def seeded_parabolic_data():
    rng = np.random.default_rng(44)
    for d in range(2, 7):
        for _ in range(12):
            w = rng.standard_normal(d)
            n = float(rng.uniform(0.3, 3.0)) * np.concatenate([[1.0], w / np.linalg.norm(w)])
            v = rng.standard_normal(d - 1)
            yield n.tolist(), (10.0 ** rng.uniform(-3, 2) * v / np.linalg.norm(v)).tolist()


@pytest.mark.parametrize("fixed, v", list(seeded_parabolic_data()))
def test_parabolic_is_the_exponential_of_its_null_rotation(fixed, v):
    n, v = np.asarray(fixed), np.asarray(v)
    d = n.shape[0] - 1
    m = hyp.parabolic(n, v).matrix
    scale = max(1.0, float(np.abs(m).max()))
    # the ideal point n / n_0 is fixed
    assert np.abs(m @ (n / n[0]) - n / n[0]).max() <= 1e-12 * scale
    # M - I = X + X^2 / 2 is nilpotent, as X^3 = 0
    a = m - np.eye(d + 1)
    assert np.abs(a @ a @ a).max() <= 1e-13 * max(1.0, float(np.abs(a).max())) ** 3
    # the horoball's displacement: cosh d(x, Mx) - 1 = <Mx - x, Mx - x> / 2
    rng = np.random.default_rng(d)
    for _ in range(5):
        x = random_point(rng, d)
        w = -hyp.lorentz_inner(x, n)
        delta = a @ x
        assert hyp.lorentz_inner(delta, delta) / 2 == pytest.approx(
            float(v @ v) * w * w / (2 * n[0] ** 2), rel=1e-10)
    # and it is the light-cone map in the frame
    assert np.abs(m - parabolic_from_the_light_cone(n, v)).max() <= 1e-12 * scale


def test_sublevel_set_tube_geometry():
    g = hyp.standard_loxodromic(3, 0.3)
    s = hyp.SublevelSet.of(g, 0.5)
    assert len(s.columns) == 2
    expected_radius = math.acosh(math.sinh(0.25) / math.sinh(0.15))
    assert s.reach == pytest.approx(expected_radius, abs=1e-12)
    # boundary consistency: a point at exactly the tube radius displaces by epsilon
    v = np.zeros(4)
    v[2] = 1.0
    boundary_pt = hyp.make_point(hyp.exp_map(hyp.base_point(3), v, expected_radius))
    assert hyp.displacement(g, boundary_pt) == pytest.approx(0.5, abs=1e-10)


def test_sublevel_set_empty_when_epsilon_below_length():
    g = hyp.standard_loxodromic(3, 0.6)
    with pytest.raises(hyp.GeometryError):
        hyp.SublevelSet.of(g, 0.5)


def rotating_loxodromic():
    rotation = np.eye(4)
    rotation[2:, 2:] = [[math.cos(0.4), -math.sin(0.4)], [math.sin(0.4), math.cos(0.4)]]
    return hyp.standard_loxodromic(3, 0.3) @ hyp.LorentzIsometry(rotation)


REFUSAL = ("no axis or fixed point on record: build it with loxodromic\\(\\), "
           "standard_loxodromic\\(\\) or parabolic\\(\\)")


@pytest.mark.parametrize("make", [
    lambda: hyp.identity(3),
    lambda: hyp.standard_loxodromic(3, 0.3) @ hyp.standard_loxodromic(3, 0.3).inverse(),
    lambda: hyp.LorentzIsometry(hyp.parabolic([1.0, 1.0, 0.0, 0.0], [1.0, 0.0]).matrix),
    rotating_loxodromic,
    lambda: hyp.LorentzIsometry(hyp.standard_loxodromic(3, 0.3).matrix),
], ids=["identity", "product-identity", "bare-parabolic-matrix", "rotating", "bare-loxodromic-matrix"])
def test_sublevel_set_needs_closed_form_geometry(make):
    # one refusal for every isometry without data, whatever its matrix
    with pytest.raises(hyp.GeometryError, match=REFUSAL) as info:
        hyp.SublevelSet.of(make(), 1.0)
    assert type(info.value) is hyp.GeometryError


@pytest.mark.parametrize("length", [10.0, 20.0, 30.0])
def test_a_long_loxodromic_on_a_general_axis_has_its_tube(length):
    # before, the eigenvector read-back refused l >= 20 as rotating
    minus, plus = np.array([1, .6, .8, 0]), np.array([1, -.28, .96, 0])
    g = hyp.loxodromic(minus, plus, length)
    s = hyp.SublevelSet.of(g, length + 1)
    p, u = hyp._axis(minus, plus)
    assert s.columns == (p.tolist(), u.tolist())
    assert s.reach == math.acosh(math.sinh((length + 1) / 2) / math.sinh(length / 2))
    # at distance r from the axis, membership follows the displacement
    w = hyp._frame_from_axis(minus, plus, 3)[:, 2]
    for r in (s.reach - 0.01, s.reach + 0.01):
        x = hyp.make_point(math.cosh(r) * p + math.sinh(r) * w)
        assert s.contains(x) == (r < s.reach) == (hyp.displacement(g, x) < length + 1)


def test_powers_and_products_on_one_axis_sum_the_signed_lengths():
    g = hyp.standard_loxodromic(3, 0.3)
    fixed = g.data[0]
    minus, plus = np.zeros(4), np.zeros(4)
    minus[:2], plus[:2] = (3.0, -3.0), (0.5, 0.5)
    same = hyp.loxodromic(minus, plus, 0.5)  # the same axis, endpoints rescaled
    reverse = hyp.loxodromic(plus, minus, 0.2)  # the same axis, run the other way
    assert [hyp._orientation(fixed, h.data[0]) for h in (same, reverse)] == [1, -1]
    assert g.inverse().data == (fixed, -0.3) and g.power(-2).data == (fixed, -0.6)
    for product, first, length in ((g @ same, g, 0.3 + 0.5), (g @ reverse, g, 0.3 - 0.2),
                                   (reverse @ g, reverse, 0.2 - 0.3)):
        assert product.data == (first.data[0], length)
        # a translation by |length| along the first coordinate axis
        standard = hyp.standard_loxodromic(3, abs(length)).matrix
        assert np.abs(product.matrix - standard).max() <= 1e-14
    assert (g @ hyp.loxodromic(plus, minus, 0.3)).data is None


def test_lengths_that_cancel_leave_no_rounding_residue_as_a_length():
    # 0.1 + 0.2 - 0.3 is 5.6e-17 in floats: before, that was kept as the
    # length of a matrix within 4e-17 of the identity, so the tube had
    # radius 37.4 and the orbit walk started near k = 1e17 and overflowed
    a, b = [1.0, -1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]
    g = hyp.loxodromic(a, b, 0.1) @ hyp.loxodromic(a, b, 0.2) @ hyp.loxodromic(b, a, 0.3)
    assert g.data is None
    with pytest.raises(hyp.GeometryError, match=REFUSAL):
        hyp.SublevelSet.of(g, 0.5)
    with pytest.raises(hyp.GeometryError, match=REFUSAL):
        hyp.orbit_count_check(g, hyp.base_point(3), 2.0)
    # a difference above the rounding margin stands, signed
    assert (hyp.loxodromic(a, b, 0.3) @ hyp.loxodromic(b, a, 0.3 - 1e-12)).data[1] > 0
    assert (hyp.loxodromic(b, a, 0.3) @ hyp.loxodromic(a, b, 0.3 - 1e-12)).data[1] > 0
    # a translation keeps its data while any component stands
    p, q = hyp.parabolic(b, [1.0, 0.0]), hyp.parabolic(b, [-1.0, 0.5])
    assert (p @ q).data[1].tolist() == [0.0, 0.5]
    assert (hyp.parabolic(b, [0.1, 0.0]) @ hyp.parabolic(b, [0.2, 0.0])
            @ hyp.parabolic(b, [-0.3, 0.0])).data is None


def test_ideal_points_are_compared_exactly():
    a, b = np.array([1.0, 0.6, 0.8, 0.0]), np.array([1.0, -0.28, 0.96, 0.0])
    assert hyp._orientation((a,), (4 * a,)) == 1
    assert hyp._orientation((a, b), (0.5 * b, 4 * a)) == -1
    nearby = a.copy()
    nearby[1] = math.nextafter(0.6, 1.0)
    assert hyp._orientation((a,), (nearby,)) == 0
    assert hyp._orientation((a, b), (nearby, b)) == 0
    assert hyp._orientation((a,), (a, b)) == 0


def test_sublevel_set_horoball_distance():
    p = hyp.parabolic([1.0, 1.0, 0.0, 0.0], [2.0, 0.0])
    s = hyp.SublevelSet.of(p, 0.4)
    assert len(s.columns) == 1
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
    assert report.min_inner_product >= 1 - 1e-12


def test_obtuse_angle_commuting_parabolics():
    fixed = [1.0, 1.0, 0.0, 0.0]
    a = hyp.parabolic(fixed, [1.0, 0.0])
    b = hyp.parabolic(fixed, [0.3, 0.7])
    report = hyp.obtuse_angle_check(a, b, 0.4, 0.7, samples=100, seed=1)
    assert report.passed
    assert report.min_inner_product >= 1 - 1e-12


def test_obtuse_angle_identical_gradients():
    g = hyp.standard_loxodromic(3, 0.2)
    report = hyp.obtuse_angle_check(g, g, 0.5, 0.5, samples=30, seed=2)
    assert report.min_inner_product == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("length", [8.0, 10.0, 11.0])
def test_long_loxodromic_commutes_with_its_square(length):
    # entries near e^(2l) round AB - BA far past an absolute 1e-9
    g = hyp.standard_loxodromic(3, length)
    assert hyp._orientation(g.data[0], g.power(2).data[0]) == 1
    other = hyp.loxodromic([1.3, 0.5, -1.2, 0.0], [1.3, 0.5, 1.2, 0.0], length)
    assert hyp._orientation(g.data[0], other.data[0]) == 0
    report = hyp.obtuse_angle_check(g, g.power(2), length + 0.5, 2 * length + 0.9, samples=20, seed=0)
    assert report.passed


def test_obtuse_angle_rejects_noncommuting():
    g = hyp.standard_loxodromic(3, 0.2)
    other = hyp.loxodromic([1.3, 0.5, -1.2, 0.0], [1.3, 0.5, 1.2, 0.0], 0.2)
    assert hyp._orientation(g.data[0], other.data[0]) == 0
    with pytest.raises(hyp.GeometryError, match="do not commute: they share no axis or fixed point"):
        hyp.obtuse_angle_check(g, other, 0.5, 0.5, samples=10, seed=0)


def lorentz(x, y):
    return -x[0] * y[0] + sum(xi * yi for xi, yi in zip(x[1:], y[1:]))


def fd_gradient(f, x, step=1e-5):
    """Riemannian gradient of f at x by central differences along a
    Lorentz-orthonormal tangent basis (the oracle for the closed forms)."""
    d = x.shape[0] - 1
    basis = []
    for i in range(1, d + 1):
        v = np.zeros(d + 1)
        v[i] = 1.0
        v = hyp.tangent_projection(x, v)
        for b in basis:
            v = v - hyp.lorentz_inner(v, b) * b
        basis.append(v / hyp.tangent_norm(v))
    grad = np.zeros(d + 1)
    for v in basis:
        plus = f(hyp.make_point(hyp.exp_map(x, v, step)))
        minus = f(hyp.make_point(hyp.exp_map(x, v, -step)))
        grad += (plus - minus) / (2 * step) * v
    return grad


def closed_form_gradient(s, x):
    columns = s.columns
    normal = hyp._normal(x.tolist(), columns, -1)
    n = sum(c * np.array(col) for c, col in zip(normal[0], columns))
    return hyp.tangent_projection(x, n) / hyp._gradient_norm(normal, columns)


def generic_parabolic(d, v):
    fixed = np.zeros(d + 1)
    fixed[1:] = np.arange(1.0, d + 1)
    fixed[0] = np.linalg.norm(fixed[1:])
    return hyp.parabolic(0.7 * fixed, v)


@pytest.mark.parametrize("kind", ["tube", "horoball", "generic-horoball"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_closed_form_gradient_matches_central_differences(kind, d):
    if kind == "tube":
        s = hyp.SublevelSet.of(hyp.loxodromic([1.0, 0.6, 0.8] + [0.0] * (d - 2),
                                              [1.0, -0.8, 0.6] + [0.0] * (d - 2), 0.3), 0.5)
    elif kind == "horoball":
        s = hyp.SublevelSet.of(hyp.parabolic([1.0, 1.0] + [0.0] * (d - 1),
                                             [1.5] + [0.5] * (d - 2)), 0.4)
    else:
        s = hyp.SublevelSet.of(generic_parabolic(d, [0.8] + [-0.3] * (d - 2)), 0.4)
    assert len(s.columns) == (2 if kind == "tube" else 1)
    rng = np.random.default_rng(d)
    checked = 0
    while checked < 12:
        x = random_point(rng, d, spread=3.0)
        if s.distance_from(x) < 1e-3:
            continue
        grad = closed_form_gradient(s, x)
        assert hyp.tangent_norm(grad) == pytest.approx(1.0, abs=1e-12)
        assert abs(hyp.lorentz_inner(x, grad)) < 1e-12
        oracle = fd_gradient(s.distance_from, x)
        assert hyp.tangent_norm(grad - oracle) < 1e-7
        checked += 1


def exact_p(s_a, s_b, x):
    """<N_a, N_b> + <x, N_a> <x, N_b> over the rationals, straight from the
    gradient formulas: N = -(a p + b u) for a tube, -n for a horoball."""
    x = [Fraction(v) for v in x]

    def normal(s):
        if len(s.columns) == 1:
            return [-Fraction(v) for v in s.columns[0]]
        p, u = ([Fraction(v) for v in c] for c in s.columns)
        a, b = -lorentz(x, p), lorentz(x, u)
        return [-(a * pi + b * ui) for pi, ui in zip(p, u)]

    n_a, n_b = normal(s_a), normal(s_b)
    return lorentz(n_a, n_b) + lorentz(x, n_a) * lorentz(x, n_b)


def skew_tubes():
    """Thin tubes around the e1 axis and around an e2-direction axis at
    distance 2: between them the gradients point against each other."""
    c, s = math.cosh(2.0), math.sinh(2.0)
    g = hyp.standard_loxodromic(3, 0.2)
    h = hyp.loxodromic([c, 0.0, -1.0, s], [c, 0.0, 1.0, s], 0.3)
    assert hyp._orientation(g.data[0], h.data[0]) == 0
    return g, h, hyp.SublevelSet.of(g, 0.25), hyp.SublevelSet.of(h, 0.35)


def outside_both(s_a, s_b, x):
    return not s_a.contains(x) and not s_b.contains(x)


def near_ties(s_a, s_b, points):
    """Points outside both sets on either side of a sign change of P, found
    by bisecting the geodesic between a point with P > 0 and one with P < 0
    down to adjacent float parameters."""
    positive = [x for x in points if exact_p(s_a, s_b, x) > 0]
    negative = [x for x in points if exact_p(s_a, s_b, x) < 0]
    ties = []
    for x_pos, x_neg in zip(positive, negative):
        lo, hi = 0.0, hyp.distance(x_pos, x_neg)
        # the unit tangent at x_pos of the geodesic towards x_neg
        v = (x_neg - math.cosh(hi) * x_pos) / math.sinh(hi)
        while lo < (mid := (lo + hi) / 2) < hi:
            if exact_p(s_a, s_b, hyp.make_point(hyp.exp_map(x_pos, v, mid))) > 0:
                lo = mid
            else:
                hi = mid
        ends = [hyp.make_point(hyp.exp_map(x_pos, v, t)) for t in (lo, hi)]
        if all(outside_both(s_a, s_b, x) for x in ends):
            ties.extend(ends)
    return ties


def test_sign_decision_matches_rational_evaluation_and_goes_exact_only_on_near_ties(
        monkeypatch):
    _, _, s_a, s_b = skew_tubes()

    def decide(x):
        nonnegative, ip = hyp._gradient_signs(s_a, s_b, x.reshape(-1, 1))
        return bool(nonnegative[0]), float(ip[0])

    rng = np.random.default_rng(0)
    points = [x for x in (random_point(rng, 3, spread=3.0) for _ in range(600))
              if outside_both(s_a, s_b, x)]
    exact_calls = []
    exact = hyp._exact_polynomial

    def counting(*args):
        exact_calls.append(args)
        return exact(*args)

    monkeypatch.setattr(hyp, "_exact_polynomial", counting)
    signs = [decide(x)[0] for x in points]
    assert signs == [exact_p(s_a, s_b, x) >= 0 for x in points]
    assert not all(signs) and any(signs)
    assert exact_calls == []

    ties = near_ties(s_a, s_b, points)
    assert len(ties) >= 8
    for x in ties:
        before = len(exact_calls)
        nonnegative, ip = decide(x)
        assert len(exact_calls) == before + 1
        assert nonnegative == (exact_p(s_a, s_b, x) >= 0)
        assert abs(ip) < 1e-12
    assert {decide(x)[0] for x in ties} == {True, False}


@pytest.mark.parametrize("case", ["skew-tubes", "concentric-horoballs"])
def test_columns_take_the_float_operations_of_one_point(case):
    if case == "skew-tubes":
        _, _, s_a, s_b = skew_tubes()
    else:
        s_a = hyp.SublevelSet.of(generic_parabolic(3, [1.0, 0.0]), 0.4)
        s_b = hyp.SublevelSet.of(generic_parabolic(3, [0.3, 0.7]), 0.7)
    rng = np.random.default_rng(4)
    points = [random_point(rng, 3, spread=3.0) for _ in range(300)]
    columns = np.column_stack(points)
    for s in (s_a, s_b):
        assert s.distance_from(columns).tolist() == [s.distance_from(x) for x in points]
    gram = hyp._gram(s_a.columns, s_b.columns, -1)
    # the loop reference: P in Python floats, one point at a time
    want = [hyp._polynomial(hyp._normal(x.tolist(), s_a.columns, -1),
                            hyp._normal(x.tolist(), s_b.columns, -1), gram)
            for x in points]
    got = hyp._polynomial(hyp._normal(columns, s_a.columns, -1),
                          hyp._normal(columns, s_b.columns, -1), gram)
    assert got.tolist() == want
    # a lane decides in a batch as it does alone
    outside = [x for x in points if outside_both(s_a, s_b, x)]
    signs, ips = hyp._gradient_signs(s_a, s_b, np.column_stack(outside))
    alone = [hyp._gradient_signs(s_a, s_b, x.reshape(-1, 1)) for x in outside]
    assert list(zip(signs.tolist(), ips.tolist())) == [(sign[0], ip[0]) for sign, ip in alone]


def test_verdict_is_the_exact_sign(monkeypatch):
    g, h, s_a, s_b = skew_tubes()
    seen = []
    signs = hyp._gradient_signs

    def recording(set_a, set_b, columns):
        seen.append(columns)
        return signs(set_a, set_b, columns)

    monkeypatch.setattr(hyp, "_orientation", lambda fixed, other: 1)
    monkeypatch.setattr(hyp, "_gradient_signs", recording)
    report = hyp.obtuse_angle_check(g, h, 0.25, 0.35, samples=60, seed=0)
    # one batch: the 60 kept samples as coordinate columns
    [batch] = seen
    assert batch.shape == (4, 60)
    assert report.passed == all(exact_p(s_a, s_b, x) >= 0 for x in batch.T)
    assert not report.passed and report.min_inner_product < 0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_coaxial_tubes_and_concentric_horoballs_meet_at_angle_zero(d):
    g = hyp.standard_loxodromic(d, 0.2)
    minus, plus = np.zeros(d + 1), np.zeros(d + 1)
    minus[:2], plus[:2] = (3.0, -3.0), (0.5, 0.5)
    same_axis = hyp.loxodromic(minus, plus, 0.35)  # another point of the axis as frame origin
    for other, eps in ((g.power(2), 0.9), (same_axis, 0.8)):
        report = hyp.obtuse_angle_check(g, other, 0.5, eps, samples=50, seed=d)
        assert report.passed
        assert abs(report.min_inner_product - 1) <= 1e-12
    a = generic_parabolic(d, [1.0] + [0.0] * (d - 2))
    b = generic_parabolic(d, [0.3] + [0.7] * (d - 2))
    report = hyp.obtuse_angle_check(a, b, 0.4, 0.7, samples=50, seed=d)
    assert report.passed
    assert abs(report.min_inner_product - 1) <= 1e-12


def test_obtuse_check_makes_one_point_per_attempt(monkeypatch):
    calls = {"batches": [], "inside": 0, "kept": 0}
    make_point, contains = hyp.make_point, hyp.SublevelSet.contains
    signs = hyp._gradient_signs

    def counting_make_point(coords):
        calls["batches"].append(np.shape(coords)[1])
        return make_point(coords)

    def counting_contains(self, x):
        inside = contains(self, x)
        calls["inside"] += int(np.count_nonzero(inside))
        return inside

    def counting_signs(set_a, set_b, columns):
        calls["kept"] += columns.shape[1]
        return signs(set_a, set_b, columns)

    monkeypatch.setattr(hyp, "make_point", counting_make_point)
    monkeypatch.setattr(hyp.SublevelSet, "contains", counting_contains)
    monkeypatch.setattr(hyp, "_gradient_signs", counting_signs)
    g = hyp.standard_loxodromic(3, 0.2)
    g2 = g.power(2)
    calls["batches"] = []
    hyp.obtuse_angle_check(g, g2, 0.5, 0.9, samples=40, seed=3)
    # every draw makes one point column and is rejected, kept, or outside
    # both sets after the last kept sample of the last batch
    assert calls["inside"] == 105
    assert calls["batches"] == [160]
    assert calls["kept"] == 40
    unused = sum(calls["batches"]) - 40 - calls["inside"]
    assert 0 <= unused < calls["batches"][-1]


def test_obtuse_check_stops_at_the_draw_cap():
    g = hyp.standard_loxodromic(3, 0.2)
    # both tube radii, ~4.8 and ~4.6, lie past the largest sample radius 3.0
    with pytest.raises(hyp.SamplingError, match="could only place 0/20 samples"):
        hyp.obtuse_angle_check(g, g.power(2), 5.0, 6.0, samples=20)


def test_obtuse_check_is_reproducible():
    g = hyp.standard_loxodromic(3, 0.2)
    reports = [hyp.obtuse_angle_check(g, g.power(2), 0.5, 0.9, samples=50, seed=5)
               for _ in range(2)]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_kept_samples_lie_outside_both_sets(monkeypatch, d):
    g = hyp.standard_loxodromic(d, 0.2)
    a = generic_parabolic(d, [1.0] + [0.0] * (d - 2))
    b = generic_parabolic(d, [0.3] + [0.7] * (d - 2))
    seen = []
    signs = hyp._gradient_signs

    def recording(set_a, set_b, columns):
        seen.append((set_a, set_b, columns))
        return signs(set_a, set_b, columns)

    monkeypatch.setattr(hyp, "_gradient_signs", recording)
    hyp.obtuse_angle_check(g, g.power(2), 0.5, 0.9, samples=50, seed=d)
    hyp.obtuse_angle_check(a, b, 0.4, 0.7, samples=50, seed=d)
    cases = [(hyp.SublevelSet.of(g, 0.5), hyp.SublevelSet.of(g.power(2), 0.9)),
             (hyp.SublevelSet.of(a, 0.4), hyp.SublevelSet.of(b, 0.7))]
    for (s_a, s_b), (seen_a, seen_b, batch) in zip(cases, seen):
        assert seen_a.columns == s_a.columns and seen_b.columns == s_b.columns
        assert batch.shape == (d + 1, 50)
        assert all(outside_both(s_a, s_b, x) for x in batch.T)


def test_isometries_and_sublevel_sets_compare_by_identity():
    g = hyp.identity(3)
    assert g == g and g != hyp.identity(3)
    h = hyp.standard_loxodromic(3, 0.2)
    s = hyp.SublevelSet.of(h, 0.5)
    assert hash(s) == hash(s) and s != hyp.SublevelSet.of(h, 0.5)


@pytest.mark.parametrize("samples", [0, -3])
def test_obtuse_check_needs_a_sample(samples):
    g = hyp.standard_loxodromic(3, 0.2)
    with pytest.raises(ValueError, match="at least 1"):
        hyp.obtuse_angle_check(g, g.power(2), 0.5, 0.9, samples=samples)


@pytest.mark.parametrize("d", [2, 3])
def test_horoball_constant_matches_probe_calibration(d):
    rng = np.random.default_rng(d)
    for _ in range(5):
        direction = rng.standard_normal(d)
        fixed = np.concatenate([[1.0], direction / np.linalg.norm(direction)])
        p = hyp.parabolic(rng.uniform(0.3, 3.0) * fixed, rng.standard_normal(d - 1))
        s = hyp.SublevelSet.of(p, 0.4)
        probe = hyp.base_point(d)
        w0 = -hyp.lorentz_inner(probe, s.columns[0])
        cal = (math.cosh(hyp.displacement(p, probe)) - 1.0) / (w0 * w0)
        assert s.reach == pytest.approx(
            math.sqrt((math.cosh(0.4) - 1.0) / cal), rel=1e-12)


@pytest.mark.parametrize("kind", ["tube", "horoball"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_membership_follows_the_displacement(kind, d):
    if kind == "tube":
        g, eps = hyp.loxodromic([1.0, 0.6, 0.8] + [0.0] * (d - 2),
                                [1.0, -0.8, 0.6] + [0.0] * (d - 2), 0.3), 0.5
    else:
        g, eps = generic_parabolic(d, [0.8] + [-0.3] * (d - 2)), 0.4
    s = hyp.SublevelSet.of(g, eps)
    rng = np.random.default_rng(d)
    # aimed at the generic parabolic's fixed point, so both sides are met
    toward = np.zeros(d + 1)
    toward[1:] = np.arange(1.0, d + 1)
    inside = 0
    for _ in range(400):
        v = toward + np.concatenate([[0.0], rng.standard_normal(d)])
        v[1:] /= np.linalg.norm(v[1:])
        x = hyp.make_point(hyp.exp_map(hyp.base_point(d), v, rng.uniform(0, 5.0)))
        gap = hyp.displacement(g, x) - eps
        assert abs(gap) > 1e-8
        assert s.contains(x) == (gap < 0)
        assert (s.distance_from(x) > 0) == (gap > 0)
        inside += s.contains(x)
    assert 40 < inside < 360


def test_orbit_count_on_axis():
    g = hyp.standard_loxodromic(2, 0.5)
    report = hyp.orbit_count_check(g, hyp.base_point(2), 2.0)
    assert report.count == 8  # 2 * floor(2 / 0.5)
    assert report.passed


def test_orbit_count_past_the_float_range_is_an_arithmetic_error():
    # the entries of g^k grow as e^(k l) / 2, and the form check multiplies
    # two of them: at R = 354 every power read still fits in a float
    g = hyp.standard_loxodromic(4, 0.5)
    assert hyp.orbit_count_check(g, hyp.base_point(4), 354.0).count == 1412
    for R in (357.0, 720.0):
        with pytest.raises(FloatingPointError):
            hyp.orbit_count_check(g, hyp.base_point(4), R)


def test_orbit_count_zero_below_length():
    # at R <= l/2 the bound is N(d, R, R): N(d, l, R) needs l < 2R
    g = hyp.standard_loxodromic(2, 1.0)
    for R in (0.4, 0.5, 0.8):
        report = hyp.orbit_count_check(g, hyp.base_point(2), R)
        assert report.count == 0
        assert report.bound == volume_ratio_bound(2, R, R).value
        assert report.passed


@pytest.mark.parametrize("d", [2, 3, 4])
def test_orbit_count_refuses_a_parabolic(d):
    # the spectrum reads Jordan-block noise (~5e-6 at d = 2), not 0, and
    # N(d, eps, R) at that eps would pass any count
    g = generic_parabolic(d, [0.5] + [0.2] * (d - 2))
    assert 0 < spectral_length(g) < 1e-4
    with pytest.raises(hyp.GeometryError, match="not a parabolic"):
        hyp.orbit_count_check(g, hyp.base_point(d), 2.0)


@pytest.mark.parametrize("k", [2, -1, -3, 5])
@pytest.mark.parametrize("make", [lambda: hyp.parabolic([1, 1, 0, 0], [1, 0]),
                                  lambda: generic_parabolic(3, [0.5, 0.2])],
                         ids=["standard", "generic"])
def test_a_parabolic_power_is_the_parabolic_of_the_scaled_translation(make, k):
    # P^k is the standard parabolic of k v in parabolic()'s frame
    p = make()
    fixed, v = p.data
    power, tagged = p.power(k), hyp.parabolic(fixed[0], k * v)
    assert power.data[0] is fixed
    assert power.data[1].tolist() == (k * v).tolist()
    assert np.max(np.abs(power.matrix - tagged.matrix)) <= 1e-14 * np.abs(tagged.matrix).max()
    assert hyp.SublevelSet.of(power, 0.5).reach == hyp.SublevelSet.of(tagged, 0.5).reach
    with pytest.raises(hyp.GeometryError, match="not a parabolic"):
        hyp.orbit_count_check(power, hyp.base_point(3), 2.0)


def test_a_parabolic_inverse_keeps_its_fixed_point_and_negates_the_translation():
    p = hyp.parabolic([1, 1, 0, 0], [1, 0])
    fixed, v = p.data
    inverse = p.inverse()
    assert inverse.data[0] is fixed
    assert inverse.data[1].tolist() == (-v).tolist()
    assert (hyp.SublevelSet.of(inverse, 0.5).reach
            == hyp.SublevelSet.of(hyp.parabolic(fixed[0], -v), 0.5).reach)
    with pytest.raises(hyp.GeometryError, match="not a parabolic"):
        hyp.orbit_count_check(inverse, hyp.base_point(3), 2.0)


def test_the_zeroth_power_of_a_parabolic_is_the_untagged_identity():
    identity = hyp.parabolic([1, 1, 0, 0], [1, 0]).power(0)
    assert identity.data is None
    assert np.array_equal(identity.matrix, np.eye(4))


def test_obtuse_angle_of_a_parabolic_and_its_square():
    p = hyp.parabolic([1, 1, 0, 0], [1, 0])
    report = hyp.obtuse_angle_check(p, p.power(2), 0.4, 0.7, samples=100, seed=1)
    assert report.passed
    assert report.min_inner_product >= 1 - 1e-12


def test_a_product_of_parabolics_at_one_fixed_point_is_the_parabolic_of_the_summed_translation():
    # exp(X_p) exp(X_q) = exp(X_p + X_q), as null rotations at one n commute
    p = hyp.parabolic([1, 1, 0, 0], [1, 0])
    q = hyp.parabolic([1, 1, 0, 0], [0.3, 0.7])
    (fixed, v_p), v_q = p.data, q.data[1]
    for product, v in [(p @ q, v_p + v_q), (p @ p, 2 * v_p),
                       (p.power(3) @ q.inverse(), 3 * v_p - v_q)]:
        tagged = hyp.parabolic(fixed[0], v)
        assert product.data[0] is fixed
        assert product.data[1].tolist() == v.tolist()
        assert np.max(np.abs(product.matrix - tagged.matrix)) <= 1e-14 * np.abs(tagged.matrix).max()
        assert hyp.SublevelSet.of(product, 0.5).reach == hyp.SublevelSet.of(tagged, 0.5).reach
        # before, the count 2 passed against a bound of 1e16 and more
        with pytest.raises(hyp.GeometryError, match="not a parabolic"):
            hyp.orbit_count_check(product, hyp.base_point(3), 2.0)
    report = hyp.obtuse_angle_check(p, p @ q, 0.4, 0.7, samples=100, seed=1)
    assert report.passed


def test_a_parabolic_times_its_inverse_is_the_untagged_identity():
    p = hyp.parabolic([1, 1, 0, 0], [1, 0])
    product = p @ p.inverse()
    assert product.data is None
    with pytest.raises(hyp.GeometryError, match=REFUSAL):
        hyp.SublevelSet.of(product, 0.5)


@pytest.mark.parametrize("other", [
    lambda: hyp.standard_loxodromic(3, 0.5),
    lambda: hyp.parabolic([1, 0, 1, 0], [0.3, 0.7]),
    lambda: hyp.LorentzIsometry(hyp.parabolic([1, 1, 0, 0], [0.3, 0.7]).matrix),
], ids=["loxodromic", "other-fixed-point", "bare-matrix"])
def test_a_product_with_anything_but_a_parabolic_at_its_fixed_vector_is_untagged(other):
    p = hyp.parabolic([1, 1, 0, 0], [1, 0])
    g = other()
    assert (p @ g).data is None
    assert (g @ p).data is None
    with pytest.raises(hyp.GeometryError, match=REFUSAL):
        hyp.obtuse_angle_check(p, p @ g, 0.4, 0.7, samples=10)


def test_a_product_at_a_rescaled_fixed_vector_keeps_the_data():
    # [2, 2, 0, 0] is the ideal point of [1, 1, 0, 0]: the product keeps
    # the first factor's fixed vector and sums the translations
    p = hyp.parabolic([1, 1, 0, 0], [1, 0])
    q = hyp.parabolic([2, 2, 0, 0], [0.3, 0.7])
    assert hyp._orientation(p.data[0], q.data[0]) == 1
    for product, first in ((p @ q, p), (q @ p, q)):
        assert product.data[0] is first.data[0]
        assert product.data[1].tolist() == (p.data[1] + q.data[1]).tolist()
        tagged = hyp.parabolic([1, 1, 0, 0], p.data[1] + q.data[1])
        assert np.max(np.abs(product.matrix - tagged.matrix)) <= 1e-14 * np.abs(tagged.matrix).max()
    assert hyp.obtuse_angle_check(p, q, 0.4, 0.7, samples=50, seed=1).passed


def off_axis_point(d, r):
    v = np.zeros(d + 1)
    v[2] = 1.0
    return hyp.make_point(hyp.exp_map(hyp.base_point(d), v, r))


def closed_form_max_power(length, R, r):
    """Largest k with 2 asinh(cosh(r) sinh(k l / 2)) <= R: floor, then a +-1 walk."""
    def disp(k):
        return 2 * math.asinh(math.cosh(r) * math.sinh(k * length / 2))

    k_max = math.floor(2 * math.asinh(math.sinh(R / 2) / math.cosh(r)) / length)
    while disp(k_max) > R:
        k_max -= 1
    while disp(k_max + 1) <= R:
        k_max += 1
    return k_max


@pytest.mark.parametrize("length, R, r", [
    (0.3, 3.0, 1.0),
    (0.002, 4.9999, 0.0),  # k = 2499, on the axis without a tie k l = R
    (2e-6, 3.0, 0.5),  # k = 1 392 529 powers
], ids=["off-axis", "on-axis", "million-powers"])
def test_orbit_count_off_axis_closed_form(length, R, r):
    g = hyp.standard_loxodromic(3, length)
    report = hyp.orbit_count_check(g, off_axis_point(3, r), R)
    k_max = closed_form_max_power(length, R, r)
    assert report.count == 2 * k_max
    assert report.passed


def misrecorded(g, factor):
    """g with factor times its length on record and its own matrix."""
    fixed, length = g.data
    return hyp.LorentzIsometry._unchecked(g.matrix, (fixed, factor * length))


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_orbit_count_walks_from_a_wrong_start(factor):
    # a wrong length on record puts the closed-form start above (0.5) or
    # below (2.0) the answer; the matrix rule must still reach it
    g = misrecorded(hyp.standard_loxodromic(3, 0.01), factor)
    report = hyp.orbit_count_check(g, off_axis_point(3, 0.5), 2.0)
    assert report.count // 2 == closed_form_max_power(0.01, 2.0, 0.5) == 182


@pytest.mark.parametrize("factor, length, R, r, k_max", [
    (0.5, 0.01, 2.0, 0.5, 182),  # walks down from above, then reads k_max + 1
    (2.0, 0.01, 2.0, 0.5, 182),  # walks up from below
    (1.0, 1.0, 1.5, 0.0, 1),  # starts at k = 1, which the search read first
], ids=["down", "up", "k-max-one"])
def test_orbit_count_asks_for_each_power_once(monkeypatch, factor, length, R, r, k_max):
    g = misrecorded(hyp.standard_loxodromic(3, length), factor)
    real_power_matrix = hyp.LorentzIsometry._power_matrix
    asked = []

    def power_matrix(self, k):
        asked.append(k)
        return real_power_matrix(self, k)

    monkeypatch.setattr(hyp.LorentzIsometry, "_power_matrix", power_matrix)
    report = hyp.orbit_count_check(g, off_axis_point(3, r), R)
    assert report.count // 2 == closed_form_max_power(length, R, r) == k_max
    assert len(asked) == len(set(asked))
    assert k_max in asked and k_max + 1 in asked
    # the wrong length on record is read: the walk starts far from k_max
    assert (len(asked) > 3) == (factor != 1.0)


def test_orbit_walk_displacements_are_those_of_the_powers(monkeypatch):
    # the walk reads each power's matrix alone: at every k it reads, its
    # displacement is displacement(g.power(k), x) bit for bit.  A length on
    # record off by a factor makes the walk take many steps.
    rng = np.random.default_rng(48)
    real_power_matrix, real_distance = hyp.LorentzIsometry._power_matrix, hyp.distance
    asked, read = [], []

    def power_matrix(self, k):
        asked.append(k)
        return real_power_matrix(self, k)

    def distance(x, y):
        read.append(real_distance(x, y))
        return read[-1]

    monkeypatch.setattr(hyp.LorentzIsometry, "_power_matrix", power_matrix)
    monkeypatch.setattr(hyp, "distance", distance)
    walked = 0
    for _ in range(60):
        d, length = int(rng.integers(2, 6)), float(rng.uniform(0.02, 1.0))
        if rng.random() < 0.5:
            g = hyp.standard_loxodromic(d, length)
        else:
            ends = rng.standard_normal((2, d))
            g = hyp.loxodromic(*([1.0, *(e / np.linalg.norm(e))] for e in ends), length)
        g = misrecorded(g, float(rng.choice([1.0, 0.5, 2.0])))
        x, R = random_point(rng, d), float(rng.uniform(length, 6.0))
        asked.clear()
        read.clear()
        hyp.orbit_count_check(g, x, R)
        walk = list(zip(asked, read, strict=True))
        for k, disp in walk:
            assert disp == hyp.displacement(g.power(k), x)
        walked += len(walk)
    assert walked > 200


def test_every_walked_power_takes_the_form_check():
    # g scaled by 1 + 4e-10 passes its own check (residual 8e-10), but the
    # scale compounds in each power, and the walk keeps power()'s check
    lox = hyp.standard_loxodromic(3, 0.01)
    g = hyp.LorentzIsometry(lox.matrix * (1 + 4e-10), data=lox.data)
    with pytest.raises(FloatingPointError, match="^matrix does not preserve the Lorentz form$"):
        hyp.orbit_count_check(g, off_axis_point(3, 0.5), 2.0)


def test_orbit_count_of_a_rotating_loxodromic():
    # cosh d_k = cosh^2(r) cosh(k l) - sinh^2(r) cos(k theta) is not monotone
    # in k, which the walk assumes: before, it stopped at k = 1 and reported
    # count 2 where 156 powers displace x by at most R.  Such a product with
    # a bare rotation has no data, and is refused.
    length, theta, r = 0.01, 2.0, 2.0
    rotation = np.eye(4)
    rotation[2:, 2:] = [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    g = hyp.standard_loxodromic(3, length) @ hyp.LorentzIsometry(rotation)
    x = off_axis_point(3, r)
    d_1, d_2, d_3 = (hyp.displacement(g.power(k), x) for k in (1, 2, 3))
    assert d_3 < 1.0 < d_1 < d_2
    R = (d_1 + d_2) / 2

    def closed_form(k):
        return math.acosh(math.cosh(r) ** 2 * math.cosh(k * length)
                          - math.sinh(r) ** 2 * math.cos(k * theta))

    assert 2 * sum(closed_form(k) <= R for k in range(1, 2000)) == 156
    with pytest.raises(hyp.GeometryError, match=REFUSAL):
        hyp.orbit_count_check(g, x, R)


def test_orbit_count_refuses_a_bare_parabolic_matrix():
    # before, the spectrum's Jordan-block noise read as a translation length
    # of ~1e-5: count 44052 passed against a bound of 6.5e33
    p = hyp.parabolic([1, 1, 0, 0], [1, 0])
    with pytest.raises(hyp.GeometryError, match=REFUSAL):
        hyp.orbit_count_check(hyp.LorentzIsometry(p.matrix), hyp.base_point(3), 20.0)


EXPECTED = Path(__file__).resolve().parent / "expected"


def pinned_orbit_runs():
    for line in (EXPECTED / "pinned.txt").read_text().splitlines():
        name, args = line.split(maxsplit=1)
        if args.startswith("verify orbit"):
            flags = args.split()[2:]
            yield name, int(dict(zip(flags[::2], flags[1::2])).get("--d", 3))


@pytest.mark.parametrize("name, d", list(pinned_orbit_runs()))
def test_each_pinned_orbit_bound_is_the_packing_ratio_of_its_row(name, d):
    # eps is the built length, not one read back off the spectrum
    rows = [json.loads(line) for line in (EXPECTED / f"{name}.out").read_text().splitlines()]
    records = [row for row in rows if "index" in row]
    assert len(records) == rows[-1]["count"]
    for row in records:
        length, radius = row["length"], row["radius"]
        assert row["bound"] == volume_ratio_bound(d, min(length, radius), radius).value, row


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


def pure_rotation():
    rotation = np.eye(4)
    rotation[2:, 2:] = [[math.cos(0.4), -math.sin(0.4)], [math.sin(0.4), math.cos(0.4)]]
    return hyp.LorentzIsometry(rotation)


@pytest.mark.parametrize("call, message", [
    (lambda: hyp.make_point([1.0]), "a point needs at least 2 coordinates"),
    (lambda: hyp.parabolic([1, 1, 0, 0], [1.0]), "translation vector must have 2 components"),
    (lambda: hyp.parabolic([1, 1, 0, 0], [0.0, 0.0]), "translation vector must be nonzero"),
    (lambda: hyp.SublevelSet.of(hyp.standard_loxodromic(3, 0.3), 0), "epsilon must be positive"),
    (lambda: hyp.orbit_count_check(pure_rotation(), hyp.base_point(3), 2.0), REFUSAL),
], ids=["one-coordinate", "translation-length", "zero-translation",
        "epsilon-zero", "pure-rotation"])
def test_bad_geometry_input_raises_a_geometry_error(call, message):
    with pytest.raises(hyp.GeometryError, match=message) as info:
        call()
    assert type(info.value) is hyp.GeometryError
