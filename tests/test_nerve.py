import math
import random
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torsionlab import certify
from torsionlab import nerve as nerve_module
from torsionlab.exact import AbelianGroupStructure as G
from torsionlab.exact import IntegerMatrix, determinant
from torsionlab.homology import all_homology
from torsionlab.nerve import (
    BallCover,
    EuclideanSpace,
    HyperbolicSpace,
    IndeterminateIntersectionError,
    annulus_cover,
    circle_cover,
    common_point_exists,
    nerve,
    nerve_lemma_check,
    read_cover,
    relative_nerve,
)
from torsionlab.simplicial import SimplicialComplex


def test_two_disjoint_balls():
    cover = BallCover.of(EuclideanSpace(2), [((0, 0), 1.0), ((5, 0), 1.0)])
    k = nerve(cover)
    assert k.f_vector() == (2,)


def test_equilateral_triple_full_simplex():
    s3 = math.sqrt(3) / 2
    cover = BallCover.of(EuclideanSpace(2),
                         [((0, 0), 1.0), ((1, 0), 1.0), ((0.5, s3), 1.0)])
    assert nerve(cover).f_vector() == (3, 3, 1)


def test_circle_cover_nerve_homology():
    k = nerve(circle_cover(8, 0.9))
    assert all_homology(k, up_to=1) == [G(1), G(1)]


def test_nerve_stops_at_the_first_empty_level(monkeypatch):
    calls = []
    extensions = nerve_module._extensions

    def counting(level):
        calls.append(len(level))
        return extensions(level)

    monkeypatch.setattr(nerve_module, "_extensions", counting)
    assert nerve(circle_cover(), max_dim=1000).f_vector() == (8, 16, 8)
    # triangles from the edges, then no tetrahedra from the triangles
    assert calls == [16, 8]


def test_circle_cover_structure():
    # radius 0.9 links next-nearest neighbours: 8 vertices, 16 edges, 8 triangles
    k = nerve(circle_cover(8, 0.9))
    assert k.f_vector() == (8, 16, 8)
    # radius 0.45 gives the bare cycle
    k = nerve(circle_cover(8, 0.45))
    assert k.f_vector() == (8, 8)


def test_nerve_monotone_under_added_element():
    cover = circle_cover(8, 0.45)
    bigger = BallCover.of(cover.space,
                          [(c, r) for c, r in cover.elements] + [((0.0, 0.0), 0.7)])
    small = nerve(cover).simplices
    assert small <= nerve(bigger).simplices


def test_nerve_stable_under_small_perturbation():
    cover = circle_cover(8, 0.45)
    rng = np.random.default_rng(0)
    jitter = 1e-4  # far below the incidence slack of this cover
    moved = BallCover.of(cover.space,
                         [(c + rng.uniform(-jitter, jitter, size=2), r)
                          for c, r in cover.elements])
    assert nerve(moved).simplices == nerve(cover).simplices


def test_convex_cover_point_homology():
    cover = BallCover.of(EuclideanSpace(2),
                         [((0.1 * k, 0.05 * k), 1.0 + 0.1 * k) for k in range(6)])
    report = nerve_lemma_check(cover, [G(1), G(0), G(0)])
    assert report.passed


def test_single_ball_point_homology():
    cover = BallCover.of(EuclideanSpace(2), [((0.3, -0.2), 0.5)])
    report = nerve_lemma_check(cover, [G(1)])
    assert report.passed


def test_two_overlapping_balls_point_homology():
    cover = BallCover.of(EuclideanSpace(2), [((0, 0), 1.0), ((0.5, 0), 1.0)])
    report = nerve_lemma_check(cover, [G(1), G(0)])
    assert report.passed


def test_nerve_lemma_mismatch_reported():
    cover = BallCover.of(EuclideanSpace(2), [((0, 0), 1.0), ((5, 0), 1.0)])
    report = nerve_lemma_check(cover, [G(1), G(0)])
    assert not report.passed
    assert report.mismatches == (0,)


def test_nerve_lemma_reference_must_stay_below_cap():
    cover = circle_cover(4, 0.9)
    with pytest.raises(ValueError):
        nerve_lemma_check(cover, [G(1)] * 5)


def test_relative_nerve_empty_subfamily():
    cover = circle_cover(6, 0.9)
    pair = relative_nerve(cover, [], [])
    assert pair.sub.f_vector() == ()


def test_relative_nerve_full_family_original_radii():
    cover = circle_cover(6, 0.9)
    pair = relative_nerve(cover, list(range(6)), [0.9] * 6)
    assert pair.sub.simplices == pair.total.simplices
    rel = all_homology(pair, up_to=2)
    assert all(g.is_trivial() for g in rel)


def test_relative_nerve_annulus_matches_hand_computation():
    # (annulus, inner circle): the inclusion is a homotopy equivalence, so
    # every relative group vanishes; the nerve pair must reproduce that
    cover, subfamily, shrink = annulus_cover()
    pair = relative_nerve(cover, subfamily, shrink)
    assert pair.sub.f_vector() == (8, 8)
    rel = all_homology(pair, up_to=2)
    assert rel == [G(0), G(0), G(0)]


def test_relative_nerve_validates_shrink():
    cover = circle_cover(4, 0.5)
    with pytest.raises(ValueError):
        relative_nerve(cover, [0], [0.6])
    with pytest.raises(ValueError):
        relative_nerve(cover, [0, 1], [0.4])


@pytest.mark.parametrize("subfamily, bad", [([9], "index 9 is not"), ([0, 0], "index 0 is repeated"),
                                             ([-1, 0], "index -1 is not")])
def test_relative_nerve_validates_subfamily(subfamily, bad):
    with pytest.raises(ValueError, match=bad):
        relative_nerve(circle_cover(), subfamily, [0.5] * len(subfamily))


def test_nerve_pair_subcomplex_validated():
    cover = circle_cover(4, 0.45)
    total = nerve(cover)
    from torsionlab.simplicial import SimplicialPair, build_complex
    bogus = build_complex([[0, 2]], vertex_count=4)
    with pytest.raises(ValueError):
        SimplicialPair(total=total, sub=bogus)


def test_hyperbolic_cover_triple():
    space = HyperbolicSpace(2)
    balls = []
    for k in range(3):
        ang = 2 * math.pi * k / 3
        center = [math.cosh(0.5), math.sinh(0.5) * math.cos(ang), math.sinh(0.5) * math.sin(ang)]
        balls.append((center, 0.8))
    cover = BallCover.of(space, balls)
    assert nerve(cover).f_vector() == (3, 3, 1)


def test_hyperbolic_pairwise_distances_drive_edges():
    space = HyperbolicSpace(2)
    near = [math.cosh(0.3), math.sinh(0.3), 0.0]
    far = [math.cosh(3.0), math.sinh(3.0), 0.0]
    cover = BallCover.of(space, [([1.0, 0.0, 0.0], 0.5), (near, 0.5), (far, 0.5)])
    k = nerve(cover)
    assert k.contains([0, 1])
    assert not k.contains([0, 2])


@pytest.mark.parametrize("gap", [1e-9, -1e-9, 1e-13, -1e-13])
def test_near_circumradius_triple_is_decided_exactly(gap):
    # three unit-spaced disks meet iff the radius reaches the circumradius
    # 1/sqrt(3); the float centres move it by far less than 1e-13
    s3 = math.sqrt(3) / 2
    centers = [(0.0, 0.0), (1.0, 0.0), (0.5, s3)]
    cover = BallCover.of(EuclideanSpace(2), [(c, 1 / math.sqrt(3) + gap) for c in centers])
    assert common_point_exists(cover.space, cover.elements, (0, 1, 2)) == (gap > 0)
    assert nerve(cover).f_vector() == ((3, 3, 1) if gap > 0 else (3, 3))


def test_circumradius_13_6_decided_at_every_ulp():
    # (0,0), (4,0), (2,3) is acute with circumradius 13/6: equal disks meet
    # iff r >= 13/6, which no float equals
    r = 2.1666666666666665
    for radius in (math.nextafter(r, 0), r, math.nextafter(r, 3)):
        balls = [(np.array(c), radius) for c in ((0.0, 0.0), (4.0, 0.0), (2.0, 3.0))]
        got = common_point_exists(EuclideanSpace(2), balls, (0, 1, 2))
        assert got == (Fraction(radius) >= Fraction(13, 6))


def _hyperbolic_triple(radius, spread=0.5):
    # centres at distance spread from the base point, 120 degrees apart:
    # the base point is the circumcentre, so the balls meet iff radius >= spread
    space = HyperbolicSpace(2)
    balls = [([math.cosh(spread), math.sinh(spread) * math.cos(a), math.sinh(spread) * math.sin(a)],
              radius) for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)]
    return BallCover.of(space, balls)


@pytest.mark.parametrize("shift, meets", [(1e-12, True), (-1e-12, False)])
def test_hyperbolic_triple_at_its_circumradius(shift, meets):
    cover = _hyperbolic_triple(0.5 * (1 + shift))
    assert common_point_exists(cover.space, cover.elements, (0, 1, 2)) == meets


@pytest.mark.parametrize("shift, meets", [(1e-6, True), (-1e-6, False)])
def test_tiny_hyperbolic_triple_is_decided(shift, meets):
    # radius 1e-20: A is of order 1e-40 against entries of order 1
    cover = _hyperbolic_triple(1e-20 * (1 + shift), spread=1e-20)
    assert common_point_exists(cover.space, cover.elements, (0, 1, 2)) == meets
    assert nerve(cover).f_vector() == ((3, 3, 1) if meets else (3, 3))


def test_duplicate_hyperbolic_balls_meet():
    space = HyperbolicSpace(3)
    ball = ([math.cosh(1.2), math.sinh(1.2), 0.0, 0.0], 0.3)
    cover = BallCover.of(space, [ball] * 4)
    assert common_point_exists(space, cover.elements, (0, 1, 2, 3))
    assert nerve(cover).f_vector() == (4, 6, 4, 1)


def filter_abstains(patch):
    """Send every nerve pair to the exact 2x2 form and every larger tuple to
    the exact solve: both float filters abstain."""
    patch.setattr(nerve_module, "inverse_sum_signs",
                  lambda entries, magnitudes, roundings: (np.zeros(len(entries), dtype=bool),) * 2)
    patch.setattr(nerve_module._CoverMatrix, "pairs",
                  lambda self: [(i, j, None) for i, j in combinations(range(len(self.balls)), 2)])


def count_pair_decisions(patch):
    """The pairs decided exactly from now on."""
    seen = []
    decide = nerve_module._CoverMatrix.pair_meets

    def counting(self, i, j):
        seen.append((i, j))
        return decide(self, i, j)

    patch.setattr(nerve_module._CoverMatrix, "pair_meets", counting)
    return seen


def start_at_eight_bits(patch, cap=False):
    # an 8-bit enclosure of cosh(r) cannot place balls 1e-6 from tangency;
    # with the cap at 8 too there are no bits left to refine to
    patch.setattr(nerve_module, "ENCLOSURE_BITS", 8)
    if cap:
        patch.setattr(nerve_module, "MAX_ENCLOSURE_BITS", 8)


def count_matrices(monkeypatch):
    """The (bits, ball count) of every cover matrix built from now on."""
    built = []

    class Counting(nerve_module._CoverMatrix):
        def __init__(self, space, balls, bits):
            built.append((bits, len(balls)))
            super().__init__(space, balls, bits)

    monkeypatch.setattr(nerve_module, "_CoverMatrix", Counting)
    return built


def assert_refined(built, balls):
    # a straddle at 8 bits, then doubled bits on the same balls until decided
    assert len(built) > 1
    assert built == [(8 << k, balls) for k in range(len(built))]


def straddling_pair_cover():
    d = 1.0 + 1e-6
    far = [math.cosh(5.0), math.sinh(5.0), 0.0]
    tangent = [math.cosh(d), math.sinh(d), 0.0]
    return BallCover.of(HyperbolicSpace(2), [(far, 0.5), ([1.0, 0.0, 0.0], 0.5), (tangent, 0.5)])


def straddling_triangle_cover(shift=1e-6):
    far = ([math.cosh(5.0), math.sinh(5.0), 0.0], 0.5)
    triple = _hyperbolic_triple(0.5 * (1 + shift)).elements
    return BallCover.of(HyperbolicSpace(2), [far, *triple])


def test_straddling_hyperbolic_enclosure_raises_with_names(monkeypatch):
    start_at_eight_bits(monkeypatch, cap=True)
    built = count_matrices(monkeypatch)
    cover = _hyperbolic_triple(0.5 * (1 + 1e-6))
    with pytest.raises(IndeterminateIntersectionError) as err:
        common_point_exists(cover.space, cover.elements, (3, 5, 8))
    assert err.value.indices == (3, 5, 8)
    assert built == [(8, 3)]  # nothing past the cap is tried


@pytest.mark.parametrize("shift, meets", [(1e-6, True), (-1e-6, False)])
def test_straddling_triple_is_refined_to_the_exact_answer(monkeypatch, shift, meets):
    cover = _hyperbolic_triple(0.5 * (1 + shift))
    assert common_point_exists(cover.space, cover.elements, (0, 1, 2)) == meets
    start_at_eight_bits(monkeypatch)
    built = count_matrices(monkeypatch)
    assert common_point_exists(cover.space, cover.elements, (0, 1, 2)) == meets
    assert_refined(built, 3)
    assert nerve(cover).f_vector() == ((3, 3, 1) if meets else (3, 3))


def test_straddling_pair_names_its_cover_indices(monkeypatch):
    start_at_eight_bits(monkeypatch, cap=True)
    with pytest.raises(IndeterminateIntersectionError) as err:
        nerve(straddling_pair_cover())
    assert err.value.indices == (1, 2)


def test_straddling_pair_is_refined_to_the_exact_answer(monkeypatch):
    cover = straddling_pair_cover()
    want = nerve(cover).simplices
    assert (1, 2) not in want
    start_at_eight_bits(monkeypatch)
    assert not common_point_exists(cover.space, cover.elements[1:], (0, 1))
    built = count_matrices(monkeypatch)
    decided = count_pair_decisions(monkeypatch)
    assert nerve(cover).simplices == want
    assert_refined(built, 3)
    # the float filter cannot place the pair at 8 bits, so the exact form straddles
    assert decided.count((1, 2)) >= 2


@pytest.mark.parametrize("shift, meets", [(1e-6, True), (-1e-6, False)])
def test_enclosure_follows_the_enclosure_bits(monkeypatch, shift, meets):
    # cosh r is computed once per (radius, bits): an enclosure made at 8 bits
    # must not stand in for the default bits afterwards, nor the reverse
    cover = _hyperbolic_triple(0.5 * (1 + shift))
    with monkeypatch.context() as patch:
        start_at_eight_bits(patch, cap=True)
        with pytest.raises(IndeterminateIntersectionError):
            common_point_exists(cover.space, cover.elements, (0, 1, 2))
    assert common_point_exists(cover.space, cover.elements, (0, 1, 2)) == meets
    start_at_eight_bits(monkeypatch, cap=True)
    with pytest.raises(IndeterminateIntersectionError):
        common_point_exists(cover.space, cover.elements, (0, 1, 2))


def cramer_certificate(a):
    """Some l = -a_SS^-1 1 > 0 over a nonsingular principal a_SS, by Cramer's rule,
    or None: then a is copositive.  Any such l has l^T a_SS l = -sum(l) < 0."""
    for size in range(1, len(a) + 1):
        for s in combinations(range(len(a)), size):
            sub = [[a[i][j] for j in s] for i in s]
            det = determinant(IntegerMatrix.from_rows(sub))
            if not det:
                continue
            l = [-Fraction(determinant(IntegerMatrix.from_rows(
                [row[:c] + [1] + row[c + 1:] for row in sub])), det) for c in range(size)]
            if all(x > 0 for x in l):
                return s, l
    return None


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(1, 5))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = draw(st.one_of(st.integers(0, 6), st.integers(-6, 6)))
        for j in range(i + 1, n):
            a[i][j] = a[j][i] = draw(st.integers(-6, 6))
    return a


HORN = [[1, -1, 1, 1, -1], [-1, 1, -1, 1, 1], [1, -1, 1, -1, 1], [1, 1, -1, 1, -1], [-1, 1, 1, -1, 1]]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(symmetric_matrices())
@example(HORN)  # copositive, though neither positive semidefinite nor nonnegative
@example([[1, -1, -1], [-1, 1, -1], [-1, -1, 1]])  # only the full set certifies failure
def test_copositivity_agrees_with_cramer_and_certifies_failure(a):
    certificate = cramer_certificate(a)
    assert nerve_module._copositive(a) == (certificate is None)
    if certificate:
        s, l = certificate
        assert sum(x * a[i][j] * y for x, i in zip(l, s) for y, j in zip(l, s)) < 0


def test_seeded_covers_decide_four_and_five_tuples():
    # f-vectors pinned from the Cramer-determinant decision
    rng = random.Random(12)
    flat = BallCover.of(EuclideanSpace(3),
                        [([rng.uniform(-1, 1) for _ in range(3)], 0.8) for _ in range(12)])
    assert nerve(flat, max_dim=4).f_vector() == (12, 49, 109, 151, 135)
    rng = random.Random(12)
    balls = []
    for _ in range(12):
        v = [rng.gauss(0, 1) for _ in range(3)]
        norm = math.sqrt(sum(x * x for x in v))
        t = rng.uniform(0, 1.0)
        balls.append(([math.cosh(t), *(math.sinh(t) * x / norm for x in v)], 0.6))
    curved = BallCover.of(HyperbolicSpace(3), balls)
    assert nerve(curved, max_dim=3).f_vector() == (12, 55, 135, 201)


dyadic = st.integers(-48, 48).map(lambda n: n / 8)
radius = st.integers(1, 40).map(lambda n: n / 8)


@st.composite
def euclidean_tuples(draw):
    d = draw(st.integers(1, 3))
    k = draw(st.integers(2, d + 2))
    return [(tuple(draw(dyadic) for _ in range(d)), draw(radius)) for _ in range(k)], d


@settings(max_examples=200, deadline=None, derandomize=True)
@given(euclidean_tuples(), st.randoms(use_true_random=False))
def test_euclidean_decision_is_exact_and_invariant(case, rng):
    balls, d = case
    space = EuclideanSpace(d)

    def decide(family):
        cover = BallCover.of(space, family)
        return common_point_exists(space, cover.elements, tuple(range(len(family))))

    (c1, r1), (c2, r2) = balls[:2]
    squared = sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(c1, c2))
    pair = BallCover.of(space, balls[:2]).elements
    assert common_point_exists(space, pair, (0, 1)) == (squared <= (Fraction(r1) + Fraction(r2)) ** 2)

    got = decide(balls)
    shuffled = list(balls)
    rng.shuffle(shuffled)
    shift = [rng.randint(-5, 5) for _ in range(d)]
    assert decide(shuffled) == got
    assert decide([(tuple(x + t for x, t in zip(c, shift)), r) for c, r in balls]) == got
    assert decide([(tuple(2 * x for x in c), 2 * r) for c, r in balls]) == got


def test_feasibility_certificates():
    space = EuclideanSpace(2)
    sure_yes = [(np.array([0.0, 0.0]), 1.0), (np.array([1.0, 0.0]), 1.0)]
    assert common_point_exists(space, sure_yes, (0, 1))
    sure_no = [(np.array([0.0, 0.0]), 1.0), (np.array([3.0, 0.0]), 1.0),
               (np.array([1.5, 2.0]), 1.0)]
    assert not common_point_exists(space, sure_no, (0, 1, 2))


def test_cover_file_hyperbolic():
    text = "space H 2\nball 1.0 0.0 0.0 0.5\nball 1.1276259652063807 0.5210953054937474 0.0 0.5\n"
    cover = read_cover(text)
    assert cover.space.kind == "H"
    assert nerve(cover).f_vector() == (2, 1)


@pytest.mark.parametrize("scaled, twin", [("1.25e200 0.75e200 0", "1.25 0.75 0"),
                                           ("1e200 0 0", "1 0 0"),
                                           ("1.25e-200 0.75e-200 0", "1.25 0.75 0")])
def test_extreme_hyperbolic_centres_match_their_unscaled_twins(scaled, twin):
    # the Lorentz form of the raw coordinates over- or underflows
    covers = [read_cover(f"space H 2\nball {c} 0.3\nball 1 0 0 0.3\n") for c in (scaled, twin)]
    np.testing.assert_allclose(covers[0].elements[0][0], covers[1].elements[0][0],
                               rtol=1e-15, atol=0)
    assert nerve(covers[0]).simplices == nerve(covers[1]).simplices


def test_demo_cover_file_reads_the_circle_cover():
    path = Path(__file__).resolve().parent.parent / "demos" / "files" / "circle_cover.cover"
    assert nerve(read_cover(path.read_text())).f_vector() == (8, 16, 8)


def test_nerve_lemma_check_builds_only_the_checked_degrees(monkeypatch):
    # 4-tuples of this E3 cover meet, but two reference degrees need triangles only
    rng = random.Random(3)
    cover = BallCover.of(EuclideanSpace(3),
                         [([rng.uniform(-0.5, 0.5) for _ in range(3)], 1.0) for _ in range(8)])
    assert nerve(cover).f_vector()[3] > 0
    sizes = []
    decide = nerve_module.common_point_exists

    def counting(space, balls, indices):
        sizes.append(len(indices))
        return decide(space, balls, indices)

    monkeypatch.setattr(nerve_module, "common_point_exists", counting)
    report = nerve_lemma_check(cover, [G(1), G(0)])
    assert report.passed
    assert sizes and max(sizes) == 3


def test_cover_file_errors():
    with pytest.raises(ValueError, match="line 1"):
        read_cover("ball 0 0 1\n")
    with pytest.raises(ValueError, match="space"):
        read_cover("# nothing\n")
    with pytest.raises(ValueError, match="line 2"):
        read_cover("space E 2\nball 0 0\n")
    for bad in ("x", "0", "-2"):
        with pytest.raises(ValueError, match="line 2: space dimension"):
            read_cover(f"# dimension {bad}\nspace E {bad}\n")


@pytest.mark.parametrize("text, line", [
    ("space E 2\nball 0 0 1\nspace H 2\nball 1 0 0 1\n", 3),
    ("space E 2\nspace E 2\n", 2),
    ("space H 2\nspace H 2\nball 1 0 0 1\n", 2),
])
def test_cover_file_has_one_space_line(text, line):
    with pytest.raises(ValueError, match=f"line {line}: a second 'space' line"):
        read_cover(text)


@pytest.mark.parametrize("text, message", [
    ("space H 2\nball 1 0 0 0.5\n\nball 0 1 0 0.5\n", "line 4: ball 1: coordinates are not timelike"),
    ("# tiny\nspace E 1\nball 0 0.5\nball 3 0\n", "line 4: ball 1: radius must be positive"),
    ("space E 2\nball 0 0 1\nball nan 0 1\n", "line 3: ball 1: centre and radius must be finite"),
])
def test_cover_file_ball_errors_name_the_line(text, message):
    with pytest.raises(ValueError, match=message):
        read_cover(text)


@pytest.mark.parametrize("ball, index", [("0 0 nan", 1), ("0 0 inf", 1), ("inf 0 1", 1),
                                         ("nan 0 1", 1), ("0 0 -inf", 1)])
def test_cover_file_rejects_non_finite_balls(ball, index):
    with pytest.raises(ValueError, match=f"ball {index}: centre and radius must be finite"):
        read_cover(f"space E 2\nball 0 0 1\nball {ball}\n")


def test_cover_file_rejects_non_finite_hyperbolic_centres():
    with pytest.raises(ValueError, match="ball 0: centre and radius must be finite"):
        read_cover("space H 2\nball nan 0 0 0.5\n")
    with pytest.raises(ValueError, match="ball 0: radius must be positive"):
        read_cover("space H 2\nball 1 0 0 0\n")


RADII = {"equal": lambda rng, k: 0.7, "mixed": lambda rng, k: rng.uniform(0.3, 1.0),
         "tiny": lambda rng, k: 1e-20 if k == 4 else 0.7}


def seeded_cover(kind, seed, radii, count=11):
    # E3: centres uniform in [-1, 1]^3; H3: within distance 1.8 of the base point
    rng = random.Random(seed)
    balls = []
    for k in range(count):
        if kind == "E":
            centre = [rng.uniform(-1, 1) for _ in range(3)]
        else:
            v = [rng.gauss(0, 1) for _ in range(3)]
            norm = math.sqrt(sum(x * x for x in v))
            t = rng.uniform(0, 1.8)
            centre = [math.cosh(t), *(math.sinh(t) * x / norm for x in v)]
        balls.append((centre, RADII[radii](rng, k)))
    return BallCover.of(EuclideanSpace(3) if kind == "E" else HyperbolicSpace(3), balls)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("kind, radii", [("E", "equal"), ("E", "mixed"), ("H", "equal"),
                                         ("H", "mixed"), ("H", "tiny")])
def test_nerve_agrees_with_every_tuple_decided_alone(kind, radii, seed):
    # the nerve decides from one matrix of the whole cover (in H3 at the
    # precision its least radius sets); each plain-list call builds its own
    cover = seeded_cover(kind, seed, radii)
    brute = {t for size in range(1, 5) for t in combinations(range(len(cover)), size)
             if size == 1 or common_point_exists(cover.space, [cover.elements[i] for i in t], t)}
    assert nerve(cover, max_dim=3).simplices == brute


def test_straddling_triangle_names_its_cover_indices(monkeypatch):
    start_at_eight_bits(monkeypatch, cap=True)
    with pytest.raises(IndeterminateIntersectionError) as err:
        nerve(straddling_triangle_cover())
    assert err.value.indices == (1, 2, 3)


@pytest.mark.parametrize("shift", [1e-6, -1e-6])
def test_straddling_triangle_reruns_its_whole_cover(monkeypatch, shift):
    # the triangle's pairs are decided at 8 bits, but its test needs every
    # facet certified at the same lower A: each rerun rebuilds all four balls
    cover = straddling_triangle_cover(shift)
    want = nerve(cover).simplices
    assert ((1, 2, 3) in want) == (shift > 0)
    start_at_eight_bits(monkeypatch)
    built = count_matrices(monkeypatch)
    assert nerve(cover).simplices == want
    assert_refined(built, 4)


def bench_workloads():
    """perfbench/workloads.py, which draws the nerve-cover benchmark's covers."""
    bench = str(Path(__file__).resolve().parent.parent / "perfbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads
    return workloads


@pytest.mark.parametrize("seed", [0, 7919])
def test_covers_that_never_straddle_are_built_once(monkeypatch, seed):
    # six E3 and six H3 covers, each moved by the seed
    workloads = bench_workloads()
    rng = random.Random(seed)
    built = count_matrices(monkeypatch)
    for (kind, centres, radius), f_vector in zip(workloads.cover_family(),
                                                 workloads.NERVE_F_VECTORS):
        space = EuclideanSpace(3) if kind == "E" else HyperbolicSpace(3)
        cover = BallCover.of(space, workloads.moved_copy(kind, centres, radius, rng))
        built.clear()
        assert nerve(cover, max_dim=2).f_vector() == f_vector
        assert built == [(nerve_module.ENCLOSURE_BITS, len(cover))]


@pytest.mark.parametrize("kind, seed", [("E", 3), ("H", 7)])
def test_candidates_with_a_facet_outside_the_nerve_are_never_decided(monkeypatch, kind, seed):
    cover = seeded_cover(kind, seed, "equal")
    seen = []
    decide = nerve_module.common_point_exists

    def counting(space, balls, indices):
        seen.append(indices)
        return decide(space, balls, indices)

    monkeypatch.setattr(nerve_module, "common_point_exists", counting)
    simplices = nerve(cover, max_dim=3).simplices

    def facets(t):
        return [t[:k] + t[k + 1:] for k in range(len(t))]

    # 4-tuples built from a triangle and a vertex joined to each of its
    # vertices, yet with another facet outside the nerve
    pruned = {s + (w,) for s in simplices if len(s) == 3 for w in range(s[-1] + 1, len(cover))
              if all((v, w) in simplices for v in s)
              and not all(f in simplices for f in facets(s + (w,)))}
    assert pruned
    assert not pruned & set(seen)
    assert all(f in simplices for t in seen for f in facets(t))


def count_solves(monkeypatch):
    """The size of every exact solve made from now on."""
    calls = []
    solve = certify.solve_scaled

    def counting(rows, rhs):
        calls.append(len(rows))
        return solve(rows, rhs)

    monkeypatch.setattr(certify, "solve_scaled", counting)
    return calls


@pytest.mark.parametrize("kind", ["E", "H"])
def test_pair_decisions_need_no_solve(monkeypatch, kind):
    calls = count_solves(monkeypatch)
    cover = seeded_cover(kind, 1, "mixed")
    assert nerve(cover, max_dim=1).f_vector()[1] > 0
    assert not calls
    # the exact path, which the float filter leaves to near-ties
    filter_abstains(monkeypatch)
    nerve(cover, max_dim=2)
    assert calls and min(calls) == 3


def test_closed_pair_form_agrees_with_the_solve():
    # every 2x2 integer matrix with diagonal in [0, 6] and off-diagonal in [-8, 8]
    for a_ii in range(7):
        for a_jj in range(7):
            for a_ij in range(-8, 9):
                want = nerve_module._copositive([[a_ii, a_ij], [a_ij, a_jj]])
                assert nerve_module._copositive_pair(a_ii, a_jj, a_ij) == want


def filter_verdict(a):
    """(certified, a^-1 1 < 0) from the float filter on the whole of a, each
    entry a correctly rounded int / 2^top, top the bit length of the largest."""
    scale = 1 << max(abs(x) for row in a for x in row).bit_length()
    floats = np.array([[x / scale for x in row] for row in a])
    certified, negative = certify.inverse_sum_signs(floats[None], np.abs(floats)[None], 1)
    return bool(certified[0]), bool(negative[0])


def near_singular(rng, k):
    """A rank k - 1 matrix of ~60-bit integers, off by 1 in one entry, times 2^300."""
    u = [[rng.randint(-2 ** 30, 2 ** 30) for _ in range(k - 1)] for _ in range(k)]
    v = [[rng.randint(-2 ** 30, 2 ** 30) for _ in range(k)] for _ in range(k - 1)]
    a = [[sum(x * y for x, y in zip(row, col)) for col in zip(*v)] for row in u]
    a[rng.randrange(k)][rng.randrange(k)] += rng.choice((-1, 1))
    return [[x << 300 for x in row] for row in a]


@st.composite
def filter_matrices(draw, kind):
    k = draw(st.integers(2, 6))
    if kind == "near-singular":
        return near_singular(random.Random(draw(st.integers(0, 2 ** 32))), k)
    if kind == "small":
        return [[draw(st.integers(-9, 9)) for _ in range(k)] for _ in range(k)]
    # entries of 1100 to 1150 bits; "mixed" sets one to about 2^-1100 of the largest
    wide = st.integers(2 ** 1100, 2 ** 1150).flatmap(lambda x: st.sampled_from([x, -x]))
    a = [[draw(wide) for _ in range(k)] for _ in range(k)]
    if kind == "mixed":
        a[draw(st.integers(0, k - 1))][draw(st.integers(0, k - 1))] = draw(
            st.integers(-2 ** 50, 2 ** 50))
    return a


@pytest.mark.parametrize("kind", ["small", "near-singular", "wide", "mixed"])
@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_float_filter_agrees_with_the_exact_solve(kind, data):
    a = data.draw(filter_matrices(kind))
    certified, negative = filter_verdict(a)
    if certified:
        assert negative == certify.inverse_sum_negative(a)


def test_float_filter_needs_a_normal_permanent():
    # singular, with a subnormal corner: fl(det) is nonzero, so only the
    # permanent's underflow guard keeps the filter from certifying it
    certified, _ = filter_verdict([[3 ** 691, -3 ** 360], [-3 ** 360, 3 ** 29]])
    assert not certified


def test_float_filter_abstains_near_singular():
    rng = random.Random(0)
    verdicts = [filter_verdict(near_singular(rng, k)) for k in range(2, 7) for _ in range(4)]
    assert not all(certified for certified, _ in verdicts)


def h4_cover():
    """60 balls of radius 0.5 within distance 2.5 of the base point of H^4."""
    rng = random.Random(5)
    balls = []
    for _ in range(60):
        v = [rng.gauss(0, 1) for _ in range(4)]
        norm = math.sqrt(sum(x * x for x in v))
        t = rng.uniform(0, 2.5)
        balls.append(([math.cosh(t), *(math.sinh(t) * x / norm for x in v)], 0.5))
    return BallCover.of(HyperbolicSpace(4), balls)


def tiny_coordinate_cover():
    """The first nerve-cover family cover with one centre coordinate set to 1e-300,
    which widens every integer entry of its A by about 1000 bits."""
    _, centres, radius = bench_workloads().cover_family()[0]
    balls = [(list(c), radius) for c in centres]
    balls[0][0][0] = 1e-300
    return BallCover.of(EuclideanSpace(3), balls)


def circumradius_13_6_cover(ulps):
    # equal disks on (0,0), (4,0), (2,3) meet iff r >= 13/6 (see above)
    radius = 2.1666666666666665
    for _ in range(abs(ulps)):
        radius = math.nextafter(radius, 3 if ulps > 0 else 0)
    return BallCover.of(EuclideanSpace(2), [(c, radius) for c in ((0, 0), (4, 0), (2, 3))])


DIFFERENTIAL_COVERS = {
    "13/6-below": lambda: circumradius_13_6_cover(-1),
    "13/6-at": lambda: circumradius_13_6_cover(0),
    "13/6-above": lambda: circumradius_13_6_cover(1),
    "H-circumradius-above": lambda: _hyperbolic_triple(0.5 * (1 + 1e-12)),
    "H-circumradius-below": lambda: _hyperbolic_triple(0.5 * (1 - 1e-12)),
    "H-tiny-above": lambda: _hyperbolic_triple(1e-20 * (1 + 1e-6), spread=1e-20),
    "H-tiny-below": lambda: _hyperbolic_triple(1e-20 * (1 - 1e-6), spread=1e-20),
    "E3-1e-300": tiny_coordinate_cover,
}


@pytest.mark.parametrize("name", DIFFERENTIAL_COVERS)
def test_float_filter_changes_no_simplex(monkeypatch, name):
    cover = DIFFERENTIAL_COVERS[name]()
    want = nerve(cover, max_dim=2).simplices
    filter_abstains(monkeypatch)
    assert nerve(cover, max_dim=2).simplices == want


@pytest.mark.parametrize("ulps", [-1, 0, 1])
def test_near_tie_reaches_the_exact_solve(monkeypatch, ulps):
    calls = count_solves(monkeypatch)
    nerve(circumradius_13_6_cover(ulps), max_dim=2)
    assert calls == [3]


def test_float_filter_decides_a_generic_cover_alone(monkeypatch):
    # tuples of 3, 4 and 5 balls, every one certified by the filter
    calls = count_solves(monkeypatch)
    want = nerve(h4_cover(), max_dim=4)
    assert want.f_vector() == (60, 123, 235, 306, 250)
    assert not calls
    filter_abstains(monkeypatch)
    assert nerve(h4_cover(), max_dim=4).simplices == want.simplices
    assert calls and max(calls) == 5


def unit(draw, d):
    v = draw(st.lists(st.floats(-1, 1), min_size=d, max_size=d)
             .filter(lambda v: sum(x * x for x in v) > 1e-6))
    norm = math.sqrt(sum(x * x for x in v))
    return [x / norm for x in v]


def nudged(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else 0)
    return x


# the vertices of a regular triangle and tetrahedron around the origin
SIMPLEX_DIRECTIONS = {3: [(1.0, 0.0, 0.0), (-0.5, 0.75 ** 0.5, 0.0), (-0.5, -0.75 ** 0.5, 0.0)],
                      4: [(1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0)]}


@st.composite
def tuple_covers(draw):
    """3 to d + 1 balls in E^d or H^d, d = 2 or 3, about a common point in
    the directions of a regular simplex, a little moved, each at distance
    spread from it with a radius from 0.8 to 1.2 times spread: often every
    facet meets and the tuple does or does not.  Or, in E^d, centres and
    radii on a 1/8 grid, where ties are exact."""
    d = draw(st.integers(2, 3))
    k = draw(st.integers(3, d + 1))
    kind = draw(st.sampled_from(["grid", "E", "H"]))
    if kind == "grid":
        eighths = st.integers(-8, 8).map(lambda n: n / 8)
        return BallCover.of(EuclideanSpace(d), [
            ([draw(eighths) for _ in range(d)], draw(st.integers(3, 12)) / 8) for _ in range(k)])
    spread = draw(st.floats(0.25, 2))
    directions = []
    for vertex in SIMPLEX_DIRECTIONS[k]:
        v = [x + draw(st.floats(-0.2, 0.2)) for x in vertex[:d]]
        norm = math.sqrt(sum(x * x for x in v))
        directions.append([x / norm for x in v])
    radii = [spread * draw(st.floats(0.8, 1.2)) for _ in range(k)]
    if kind == "E":
        shift = [draw(st.floats(-2, 2)) for _ in range(d)]
        return BallCover.of(EuclideanSpace(d), [
            ([a + spread * x for a, x in zip(shift, u)], r) for u, r in zip(directions, radii)])
    return BallCover.of(HyperbolicSpace(d), [
        ([math.cosh(spread), *(math.sinh(spread) * x for x in u)], r)
        for u, r in zip(directions, radii)])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cover=tuple_covers(), bits=st.sampled_from([8, nerve_module.ENCLOSURE_BITS]))
@example(cover=circumradius_13_6_cover(-1), bits=nerve_module.ENCLOSURE_BITS)
@example(cover=circumradius_13_6_cover(0), bits=nerve_module.ENCLOSURE_BITS)
@example(cover=circumradius_13_6_cover(1), bits=nerve_module.ENCLOSURE_BITS)
@example(cover=_hyperbolic_triple(0.5 * (1 + 1e-12)), bits=nerve_module.ENCLOSURE_BITS)
@example(cover=_hyperbolic_triple(0.5 * (1 - 1e-12)), bits=nerve_module.ENCLOSURE_BITS)
@example(cover=_hyperbolic_triple(1e-20 * (1 + 1e-6), spread=1e-20),
         bits=nerve_module.ENCLOSURE_BITS)
def test_tuple_filter_agrees_with_the_plain_list(cover, bits):
    # once every facet meets at the cover's lower A, a verdict the filter
    # certifies from its float-formed entries is the reference's answer; at
    # 8 bits (cf. start_at_eight_bits) the lower and upper A lie far apart
    matrix = nerve_module._CoverMatrix(cover.space, cover.elements, bits)
    t = tuple(range(len(cover)))
    try:
        if not all(matrix.pair_meets(*s) if size == 2 else matrix.tuple_meets(s)
                   for size in range(2, len(t)) for s in combinations(t, size)):
            return
    except IndeterminateIntersectionError:
        return
    verdict, = matrix.certify([t])
    if verdict is not None:
        assert verdict == common_point_exists(cover.space, list(cover.elements), t)


@st.composite
def euclidean_pairs(draw):
    # centres and radii at one scale, from subnormal to where |c_i - c_j|^2 overflows
    d = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([5e-324, 1e-300, 1.0, 1e200, 1e300]))
    coordinate = st.floats(-4, 4).map(lambda x: x * scale)
    size = st.floats(1 / 16, 2).map(lambda r: max(r * scale, scale))
    balls = [([draw(coordinate) for _ in range(d)], draw(size))
             for _ in range(draw(st.integers(2, 4)))]
    if draw(st.booleans()):
        # ball 1 at distance r0 + r1 from ball 0, give or take a few ulps
        (c0, r0), (_, r1) = balls[:2]
        reach = nudged(r0 + r1, draw(st.integers(-3, 3)))
        balls[1] = ([a + reach * x for a, x in zip(c0, unit(draw, d))], r1)
    return EuclideanSpace(d), balls


@st.composite
def hyperbolic_pairs(draw):
    # H3 balls from radius 2^-30 up; centres out to distance 3, or 1e-300 and
    # subnormal distances from the base point
    radius = st.sampled_from([2.0 ** -30, 0.1, 0.5, 1.3])
    distance = st.one_of(st.floats(0, 3), st.sampled_from([1e-300, 5e-324]))

    def point(t, u):
        return [math.cosh(t), *(math.sinh(t) * x for x in u)]

    balls = [(point(draw(distance), unit(draw, 3)), draw(radius))
             for _ in range(draw(st.integers(2, 4)))]
    if draw(st.booleans()):
        # ball 0 at the base point, ball 1 at distance r0 + r1 give or take a few ulps
        r0, r1 = balls[0][1], balls[1][1]
        balls[0] = ([1.0, 0.0, 0.0, 0.0], r0)
        balls[1] = (point(nudged(r0 + r1, draw(st.integers(-3, 3))), unit(draw, 3)), r1)
    return HyperbolicSpace(3), balls


# two disks whose squared distance and squared radius sum are single subnormal
# ulps: they meet, yet fl(|c_0 - c_1|^2) exceeds fl((r_0 + r_1)^2)
SUBNORMAL_TANGENCY = (EuclideanSpace(2), [
    ([0.0, 0.0], math.ldexp(math.sqrt(1.04) / 2, -537)),
    ([math.ldexp(math.sqrt(0.51), -537)] * 2, math.ldexp(math.sqrt(1.04) / 2, -537))])
# cosh 800 overflows a float, so the float h of ball 0 is infinite
RADIUS_800 = (HyperbolicSpace(2), [([1.0, 0.0, 0.0], 800.0),
                                   ([math.cosh(3.0), math.sinh(3.0), 0.0], 0.5),
                                   ([1.0, 0.0, 0.0], 0.5)])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=st.one_of(euclidean_pairs(), hyperbolic_pairs()),
       bits=st.sampled_from([8, nerve_module.ENCLOSURE_BITS]))
@example(case=SUBNORMAL_TANGENCY, bits=8)
def test_pair_filter_certifies_only_pairs_the_exact_form_rejects(case, bits):
    # at 8 bits (cf. start_at_eight_bits) the upper A of a hyperbolic pair is
    # far above the exact one: a pair certified there must still be rejected
    space, balls = case
    matrix = nerve_module._CoverMatrix(space, BallCover.of(space, balls).elements, bits)
    kept = [(i, j) for i, j, _ in matrix.pairs()]
    assert kept == sorted(set(kept))
    for i, j in set(combinations(range(len(balls)), 2)) - set(kept):
        assert not matrix.pair_meets(i, j)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=st.one_of(euclidean_pairs(), hyperbolic_pairs()),
       bits=st.sampled_from([8, nerve_module.ENCLOSURE_BITS]))
@example(case=SUBNORMAL_TANGENCY, bits=8)
@example(case=RADIUS_800, bits=nerve_module.ENCLOSURE_BITS)
def test_pair_filter_certifies_meeting_only_pairs_the_exact_form_accepts(case, bits):
    # a pair certified to meet at the lower h is copositive there: the exact
    # form accepts it, and never raises
    space, balls = case
    matrix = nerve_module._CoverMatrix(space, BallCover.of(space, balls).elements, bits)
    for i, j, verdict in matrix.pairs():
        assert verdict in (True, None)
        if verdict:
            assert matrix.pair_meets(i, j)


@st.composite
def hyperbolic_balls(draw):
    # H2 to H4 balls from radius 2^-30 to past the float range of cosh, with
    # centres out to distance 17, or 1e-300 and subnormal distances from the
    # base point
    d = draw(st.integers(2, 4))
    radius = st.sampled_from([2.0 ** -30, 0.1, 0.7, 1.3, 800.0])
    distance = st.one_of(st.floats(0, 17), st.sampled_from([1e-300, 5e-324]))
    balls = []
    for _ in range(draw(st.integers(1, 4))):
        t = draw(distance)
        balls.append(([math.cosh(t), *(math.sinh(t) * x for x in unit(draw, d))], draw(radius)))
    return HyperbolicSpace(d), balls


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=hyperbolic_balls(), bits=st.sampled_from([8, nerve_module.ENCLOSURE_BITS, 192]))
def test_float_bounds_on_h_contain_its_exact_enclosure(case, bits):
    # the filters take A at the float ends of h, and the exact entries at the
    # ends of the rational enclosure of h made at the same bits: a facet
    # certified at the float lower h must be copositive at the exact lower A
    space, balls = case
    matrix = nerve_module._CoverMatrix(space, BallCover.of(space, balls).elements, bits)
    points, _, scale, lower, upper = matrix._exact
    denominator = math.isqrt(scale)  # the Gram factor is the square of h's denominator
    assert denominator * denominator == scale
    for (c, _), p, lo, hi, x, y in zip(matrix.balls, points, *matrix._float_h, lower, upper):
        power = Fraction(p[0]) / Fraction(c[0])  # the power of two that made p integer
        assert Fraction(lo) <= Fraction(x, denominator) / power
        assert hi == math.inf or Fraction(y, denominator) / power <= Fraction(hi)


def test_pair_filter_needs_a_normal_per():
    space, balls = SUBNORMAL_TANGENCY
    matrix = nerve_module._CoverMatrix(space, BallCover.of(space, balls).elements, 96)
    assert matrix.pair_meets(0, 1)
    assert matrix.pairs() == [(0, 1, None)]


def count_exact_entries(patch):
    """The exact entries A_ij built from now on."""
    seen = []
    entries = nerve_module._CoverMatrix.entries

    def counting(self, i, j):
        seen.append((i, j))
        return entries(self, i, j)

    patch.setattr(nerve_module._CoverMatrix, "entries", counting)
    return seen


def count_calls(patch, name):
    """The arguments of every call of the nerve module's function name from now on."""
    seen = []
    function = getattr(nerve_module, name)

    def counting(*args):
        seen.append(args)
        return function(*args)

    patch.setattr(nerve_module, name, counting)
    return seen


@pytest.mark.parametrize("kind", ["E", "H"])
def test_generic_covers_build_no_exact_entry(monkeypatch, kind):
    # the float filters decide every pair and every tuple, so no big integer
    # is formed: neither an entry, nor the dyadic scaling of the centres, nor
    # in H^d the rational enclosure of h
    _, centres, radius = next(member for member in bench_workloads().cover_family()
                              if member[0] == kind)
    space = EuclideanSpace(3) if kind == "E" else HyperbolicSpace(3)
    family = BallCover.of(space, [(c, radius) for c in centres])
    seeded = seeded_cover(kind, 4, "mixed", count=40)
    built = count_exact_entries(monkeypatch)
    scaled = count_calls(monkeypatch, "_dyadic")
    enclosed = count_calls(monkeypatch, "cosh_roots")
    assert nerve(family, max_dim=2).f_vector()[2] > 0
    assert nerve(seeded, max_dim=3).f_vector()[3] > 0
    assert not built and not scaled and not enclosed


def test_only_the_pairs_the_filter_abstains_on_go_exact(monkeypatch):
    # at 8 bits the enclosure cannot place the near-tangent pair (1, 2): it
    # abstains there, the exact form straddles, and the cover is rerun
    abstained = []
    pairs = nerve_module._CoverMatrix.pairs

    def recording(self):
        found = pairs(self)
        abstained.extend((i, j) for i, j, verdict in found if verdict is None)
        return found

    monkeypatch.setattr(nerve_module._CoverMatrix, "pairs", recording)
    start_at_eight_bits(monkeypatch)
    decided = count_pair_decisions(monkeypatch)
    built = count_exact_entries(monkeypatch)
    assert nerve(straddling_pair_cover()).f_vector() == (3,)
    assert decided == abstained and (1, 2) in decided
    assert {tuple(sorted(p)) for p in built if p[0] != p[1]} == {(1, 2)}


def test_helly_decides_candidates_of_more_than_d_plus_one_balls(monkeypatch):
    # ten unit disks within 0.1 of the origin: every tuple meets, and only
    # triangles are tested
    rng = random.Random(9)
    cover = BallCover.of(EuclideanSpace(2), [([rng.uniform(-0.07, 0.07) for _ in range(2)], 1.0)
                                             for _ in range(10)])
    calls = count_solves(monkeypatch)
    sizes = []
    decide = nerve_module.common_point_exists

    def counting(space, balls, indices):
        sizes.append(len(indices))
        return decide(space, balls, indices)

    monkeypatch.setattr(nerve_module, "common_point_exists", counting)
    got = nerve(cover, max_dim=9)
    assert got.f_vector() == tuple(math.comb(10, k) for k in range(1, 11))
    assert not calls
    assert set(sizes) == {3}


def nerve_without_helly(cover, max_dim):
    """Every candidate decided by the exact 2x2 form or the exact solve."""
    n = len(cover)
    matrix = nerve_module._CoverMatrix(cover.space, cover.elements, nerve_module.ENCLOSURE_BITS)
    simplices = {(i,) for i in range(n)}
    for size in range(2, max_dim + 2):
        for t in combinations(range(n), size):
            if all(t[:k] + t[k + 1:] in simplices for k in range(size)) and (
                    matrix.pair_meets(*t) if size == 2 else matrix.tuple_meets(t)):
                simplices.add(t)
    return simplices


@pytest.mark.parametrize("kind", ["E", "H"])
def test_helly_changes_no_simplex(kind):
    cover = seeded_cover(kind, 6, "equal", count=14)
    got = nerve(cover, max_dim=5)
    assert len(got.f_vector()) == 6  # the 5- and 6-ball levels are reached
    assert got.simplices == nerve_without_helly(cover, 5)
    assert SimplicialComplex(vertex_count=14, simplices=got.simplices) == got


def facet_closed(simplices, n, size):
    """[t for t in combinations(range(n), size) if every facet of t is in
    simplices], in that order.  Such a t has every pair in simplices, so
    its later vertices are neighbours of its first: only those are tried."""
    later = [[w for w in range(v + 1, n) if (v, w) in simplices] for v in range(n)]
    return [t for v in range(n) for rest in combinations(later[v], size - 1)
            for t in [(v, *rest)] if all(f in simplices for f in combinations(t, size - 1))]


def wide_cover(kind, seed):
    """70 balls, more than one machine word of vertex bits, sparse enough
    that every level up to 6 balls stays small."""
    rng = random.Random(seed)
    balls = []
    for _ in range(70):
        if kind == "E":
            balls.append(([rng.uniform(-2, 2) for _ in range(3)], 0.7))
        else:
            v = [rng.gauss(0, 1) for _ in range(3)]
            norm = math.sqrt(sum(x * x for x in v))
            t = rng.uniform(0, 3)
            balls.append(([math.cosh(t), *(math.sinh(t) * x / norm for x in v)], 0.3))
    return BallCover.of(EuclideanSpace(3) if kind == "E" else HyperbolicSpace(3), balls)


@pytest.mark.parametrize("kind", ["E", "H"])
def test_candidates_are_the_tuples_whose_facets_all_lie_in_the_nerve(monkeypatch, kind):
    cover = wide_cover(kind, 1)
    n = len(cover)
    levels = []
    certify = nerve_module._CoverMatrix.certify

    def recording(self, tuples):
        levels.append(list(tuples))
        return certify(self, tuples)

    monkeypatch.setattr(nerve_module._CoverMatrix, "certify", recording)
    simplices = nerve(cover, max_dim=5).simplices
    # sizes 3 and 4 are decided, in the order certify() was given them
    assert [len(level[0]) for level in levels] == [3, 4]
    for level in levels:
        assert level == facet_closed(simplices, n, len(level[0]))
        assert max(t[-1] for t in level) >= 64
    # sizes 5 and 6 are Helly's: each candidate is a simplex, and the exact
    # solve of nerve_without_helly agrees
    matrix = nerve_module._CoverMatrix(cover.space, cover.elements, nerve_module.ENCLOSURE_BITS)
    for size in (5, 6):
        helly = facet_closed(simplices, n, size)
        assert helly and helly == sorted(t for t in simplices if len(t) == size)
        for t in helly:
            assert all(matrix.pair_meets(i, j) for i, j in combinations(t, 2))
            assert matrix.tuple_meets(t)


@pytest.mark.parametrize("kind", ["E", "H"])
@pytest.mark.parametrize("max_dim", [1, 5])
def test_nerve_seeds_the_index_a_regrouping_gives(kind, max_dim):
    got = nerve(wide_cover(kind, 1), max_dim=max_dim)
    regrouped = SimplicialComplex(vertex_count=got.vertex_count, simplices=got.simplices)
    assert got._sorted_by_dim == regrouped._sorted_by_dim


def test_pair_filter_in_blocks_of_rows(monkeypatch):
    cover = seeded_cover("H", 4, "mixed", count=40)
    matrix = nerve_module._CoverMatrix(cover.space, cover.elements, nerve_module.ENCLOSURE_BITS)
    whole = matrix.pairs()
    monkeypatch.setattr(nerve_module, "_BLOCK", 100)  # two rows at a time
    assert matrix.pairs() == whole


def test_radius_past_the_float_range_of_cosh():
    # cosh 800 overflows a float: the pair filter abstains on its pairs, and
    # still certifies the other one
    cover = BallCover.of(*RADIUS_800)
    matrix = nerve_module._CoverMatrix(cover.space, cover.elements, nerve_module.ENCLOSURE_BITS)
    assert matrix.pairs() == [(0, 1, None), (0, 2, None)]
    assert nerve(cover).simplices == {(0,), (1,), (2,), (0, 1), (0, 2)}


@pytest.mark.parametrize("call, message", [
    (lambda: EuclideanSpace(0), "dimension must be positive"),
    (lambda: HyperbolicSpace(0), "dimension must be positive"),
    (lambda: BallCover.of(EuclideanSpace(2), [((0.0, 0.0, 0.0), 1.0)]),
     "ball 0: point must have 2 coordinates"),
    (lambda: BallCover.of(HyperbolicSpace(2), [((1.0, 0.0, 0.0), 1.0), ((1.0, 0.0), 1.0)]),
     "ball 1: hyperboloid point must have 3 coordinates"),
    (lambda: nerve(circle_cover(), max_dim=0), "dimension cap must be at least 1"),
], ids=["euclidean-dimension", "hyperbolic-dimension", "euclidean-centre", "hyperbolic-centre",
        "cap"])
def test_bad_spaces_centres_and_caps_raise_a_value_error(call, message):
    with pytest.raises(ValueError, match=message) as info:
        call()
    assert type(info.value) is ValueError
