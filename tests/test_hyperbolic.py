import math
import warnings
from fractions import Fraction

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


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_spacelike_points_beyond_the_float_range_of_the_form_are_rejected(scale):
    with pytest.raises(hyp.GeometryError, match="not timelike"):
        hyp.make_point([scale, 2 * scale, 0.0])


@pytest.mark.parametrize("coords", [[math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0],
                                    [2.0, math.nan, 0.0], [math.inf, math.inf, 0.0],
                                    [-math.inf, 1.0, 0.0], [1e-200, math.inf, 0.0]])
def test_non_finite_coordinates_are_rejected(coords):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(hyp.GeometryError, match="not finite"):
            hyp.make_point(coords)


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


@pytest.mark.parametrize("entry", [math.nan, math.inf])
def test_non_finite_matrix_rejected(entry):
    m = np.eye(4)
    m[0, 1] = entry
    with pytest.raises(hyp.GeometryError, match="non-finite"):
        hyp.LorentzIsometry(m)


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
        assert hyp.translation_length(g.power(-3)) == pytest.approx(3 * length, abs=1e-9)
        product = g.power(3) @ g.power(-3)
        assert np.allclose(product.matrix, np.eye(3), rtol=0, atol=1e-12)


def test_loxodromic_from_generic_axis():
    minus = [math.sqrt(2.0), 1.0, 1.0, 0.0]
    plus = [math.sqrt(5.0), -1.0, 0.0, 2.0]
    g = hyp.loxodromic(minus, plus, 0.7)
    assert hyp.translation_length(g) == pytest.approx(0.7, abs=1e-10)


@pytest.mark.parametrize("angle", [0.003, 0.01, 0.02])
@pytest.mark.parametrize("phi", [0.3, 1.0, 2.0])
def test_loxodromic_with_nearby_endpoints(angle, phi):
    # the axis runs far from the base point, so its frame has large entries
    minus = [1.0, math.cos(phi), math.sin(phi)]
    plus = [1.0, math.cos(phi + angle), math.sin(phi + angle)]
    g = hyp.loxodromic(minus, plus, 0.03)
    assert hyp.translation_length(g) == pytest.approx(0.03, rel=1e-5)


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


@pytest.mark.parametrize("make, message", [
    (lambda: hyp.identity(3), "identity is the whole space"),
    (lambda: hyp.standard_loxodromic(3, 0.3) @ hyp.standard_loxodromic(3, 0.3).inverse(),
     "identity is the whole space"),
    (lambda: hyp.LorentzIsometry(hyp.parabolic([1.0, 1.0, 0.0, 0.0], [1.0, 0.0]).matrix),
     "build parabolic elements with the parabolic\\(\\) constructor"),
    (rotating_loxodromic, "needs a rotation-free loxodromic"),
], ids=["identity", "product-identity", "bare-parabolic-matrix", "rotating"])
def test_sublevel_set_needs_closed_form_geometry(make, message):
    with pytest.raises(hyp.GeometryError, match=message):
        hyp.SublevelSet.of(make(), 1.0)


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


def test_obtuse_angle_rejects_noncommuting():
    g = hyp.standard_loxodromic(3, 0.2)
    other = hyp.loxodromic([1.3, 0.5, -1.2, 0.0], [1.3, 0.5, 1.2, 0.0], 0.2)
    assert not g.commutes_with(other)
    with pytest.raises(hyp.GeometryError):
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
    return hyp.tangent_projection(x, n) / hyp._GradientPair._norm(normal, columns)


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
    assert not g.commutes_with(h)
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
    pair = hyp._GradientPair(s_a, s_b)
    rng = np.random.default_rng(0)
    points = [x for x in (random_point(rng, 3, spread=3.0) for _ in range(600))
              if outside_both(s_a, s_b, x)]
    exact_calls = []
    exact = hyp._exact_polynomial

    def counting(*args):
        exact_calls.append(args)
        return exact(*args)

    monkeypatch.setattr(hyp, "_exact_polynomial", counting)
    signs = [pair.decide(x.tolist())[0] for x in points]
    assert signs == [exact_p(s_a, s_b, x) >= 0 for x in points]
    assert not all(signs) and any(signs)
    assert exact_calls == []

    ties = near_ties(s_a, s_b, points)
    assert len(ties) >= 8
    for x in ties:
        before = len(exact_calls)
        nonnegative, ip = pair.decide(x.tolist())
        assert len(exact_calls) == before + 1
        assert nonnegative == (exact_p(s_a, s_b, x) >= 0)
        assert abs(ip) < 1e-12
    assert {pair.decide(x.tolist())[0] for x in ties} == {True, False}


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
    pair = hyp._GradientPair(s_a, s_b)
    # the loop reference: P in Python floats, one point at a time
    want = [hyp._polynomial(hyp._normal(x.tolist(), s_a.columns, -1),
                            hyp._normal(x.tolist(), s_b.columns, -1), pair.gram)
            for x in points]
    got = hyp._polynomial(hyp._normal(columns, s_a.columns, -1),
                          hyp._normal(columns, s_b.columns, -1), pair.gram)
    assert got.tolist() == want
    outside = [x for x in points if outside_both(s_a, s_b, x)]
    signs, ips = pair.decide(np.column_stack(outside))
    assert list(zip(signs.tolist(), ips.tolist())) == [pair.decide(x) for x in outside]


def test_verdict_is_the_exact_sign(monkeypatch):
    g, h, s_a, s_b = skew_tubes()
    seen = []
    decide = hyp._GradientPair.decide

    def recording(self, x):
        seen.append(x)
        return decide(self, x)

    monkeypatch.setattr(hyp.LorentzIsometry, "commutes_with", lambda self, other: True)
    monkeypatch.setattr(hyp._GradientPair, "decide", recording)
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
    decide = hyp._GradientPair.decide

    def counting_make_point(coords):
        calls["batches"].append(np.shape(coords)[1])
        return make_point(coords)

    def counting_contains(self, x):
        inside = contains(self, x)
        calls["inside"] += int(np.count_nonzero(inside))
        return inside

    def counting_decide(self, x):
        calls["kept"] += x.shape[1]
        return decide(self, x)

    monkeypatch.setattr(hyp, "make_point", counting_make_point)
    monkeypatch.setattr(hyp.SublevelSet, "contains", counting_contains)
    monkeypatch.setattr(hyp._GradientPair, "decide", counting_decide)
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
    decide = hyp._GradientPair.decide

    def recording(self, x):
        seen.append((self, x))
        return decide(self, x)

    monkeypatch.setattr(hyp._GradientPair, "decide", recording)
    hyp.obtuse_angle_check(g, g.power(2), 0.5, 0.9, samples=50, seed=d)
    hyp.obtuse_angle_check(a, b, 0.4, 0.7, samples=50, seed=d)
    cases = [(hyp.SublevelSet.of(g, 0.5), hyp.SublevelSet.of(g.power(2), 0.9)),
             (hyp.SublevelSet.of(a, 0.4), hyp.SublevelSet.of(b, 0.7))]
    for (s_a, s_b), (pair, batch) in zip(cases, seen):
        assert pair.columns_a == s_a.columns and pair.columns_b == s_b.columns
        assert batch.shape == (d + 1, 50)
        assert all(outside_both(s_a, s_b, x) for x in batch.T)


def test_isometries_and_sublevel_sets_compare_by_identity():
    g = hyp.identity(3)
    assert g == g and g != hyp.identity(3)
    s = hyp.SublevelSet.of(hyp.standard_loxodromic(3, 0.2), 0.5)
    assert hash(s) == hash(s) and s != hyp.SublevelSet.of(s.gamma, 0.5)


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


def test_orbit_count_zero_below_length():
    g = hyp.standard_loxodromic(2, 1.0)
    report = hyp.orbit_count_check(g, hyp.base_point(2), 0.5, eps=0.3)
    assert report.count == 0
    assert report.passed


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
    assert report.max_power == k_max
    assert report.count == 2 * k_max
    assert report.passed


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_orbit_count_walks_from_a_wrong_start(monkeypatch, factor):
    # a misread translation length puts the closed-form start above (0.5)
    # or below (2.0) the answer; the matrix rule must still reach it
    g = hyp.standard_loxodromic(3, 0.01)
    real = hyp.translation_length
    monkeypatch.setattr(hyp, "translation_length", lambda h: factor * real(h))
    report = hyp.orbit_count_check(g, off_axis_point(3, 0.5), 2.0)
    assert report.max_power == closed_form_max_power(0.01, 2.0, 0.5) == 182


def test_orbit_count_of_a_rotating_loxodromic():
    # the rotation raises d(x, g x), so the rotation-free start falls short:
    # cosh d_k = cosh^2(r) cosh(k l) - sinh^2(r) cos(k theta), increasing in k here
    length, theta, r, R = 0.3, 0.4, 1.0, 3.0
    rotation = np.eye(4)
    rotation[2:, 2:] = [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    g = hyp.standard_loxodromic(3, length) @ hyp.LorentzIsometry(rotation)
    report = hyp.orbit_count_check(g, off_axis_point(3, r), R)
    k = 1
    while math.acosh(math.cosh(r) ** 2 * math.cosh(k * length)
                     - math.sinh(r) ** 2 * math.cos(k * theta)) <= R:
        k += 1
    assert report.max_power == k - 1 == 6


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

