"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import math
import random
import time
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from torsionlab import complexes
from torsionlab import hyperbolic as hyp
from torsionlab.bounds import DV_DEGREES, dv_torsion_check, random_dv_pairs, random_matrices, soule_bound
from torsionlab.cli import main
from torsionlab.constants import ThickThinParams, commutator_inequality_check, figure_eight_volume
from torsionlab.dehn import FIGURE_EIGHT, FillingSlope, fill_homology, figure_eight_filling
from torsionlab.exact import AbelianGroupStructure as G
from torsionlab.exact import IntegerMatrix, determinant, rational_rank, smith_normal_form
from torsionlab.homology import all_homology
from torsionlab.nerve import annulus_cover, circle_cover, nerve_lemma_check, relative_nerve
from torsionlab.nerve import BallCover, EuclideanSpace

from test_constants import figure_eight_volume_quad
from test_exact import determinantal_divisors


def report(criterion: int, label: str, passed: bool):
    print(f"{'PASS' if passed else 'FAIL'} criterion {criterion}: {label}")
    assert passed


def test_criterion_1_smith_normal_form():
    # the Smith diagonal d_1 | d_2 | ... must satisfy d_1 ... d_k = D_k (up
    # to 5 x 5) and agree with the Bareiss rank and determinant
    rng = random.Random(1)
    elapsed = 0.0
    ok = True
    for _ in range(200):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        mat = IntegerMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)], cols)
        start = time.perf_counter()
        snf = smith_normal_form(mat)
        elapsed += time.perf_counter() - start
        factors = snf.factors
        diag = [1] * (snf.rank - len(factors)) + list(factors)
        ok &= all(b % a == 0 for a, b in zip(diag, diag[1:]))
        ok &= snf.rank == rational_rank(mat)
        if rows == cols:
            ok &= abs(determinant(mat)) == (math.prod(diag) if snf.rank == rows else 0)
        if rows <= 5 and cols <= 5:
            ok &= determinantal_divisors(mat) == [
                math.prod(diag[:k]) if k <= snf.rank else 0 for k in range(1, min(rows, cols) + 1)]
    ok &= elapsed < 5.0
    report(1, f"SNF exact on 200 random matrices in {elapsed:.2f}s", ok)


def test_criterion_2_known_space_homology():
    expected = {
        "circle": [G(1), G(1)],
        "sphere": [G(1), G(0), G(1)],
        "torus": [G(1), G(2), G(1)],
        "rp2": [G(1), G(0, (2,)), G(0)],
        "klein": [G(1), G(1, (2,)), G(0)],
    }
    ok = True
    for name, groups in expected.items():
        computed = all_homology(complexes.FIXTURES[name](), up_to=len(groups) - 1)
        ok &= computed == groups
    report(2, "S1, S2, T2, RP2, Klein homology exact", ok)


def test_criterion_3_soule_bound():
    reports = [soule_bound(mat) for mat in random_matrices(1000, seed=7)]
    ok = all(rep.holds for rep in reports)
    max_ratio = max(rep.ratio() for rep in reports)
    for diag in ([1], [2, 3], [5, 5, 5], [1, 2, 6, 24]):
        rep = soule_bound(IntegerMatrix.diagonal(diag))
        ok &= rep.holds and rep.bound_squared == rep.exact_torsion ** 2
    report(3, f"column-norm bound holds on 1000 matrices (max ratio {max_ratio:.3f})", ok)


def test_criterion_4_dv_bound():
    start = time.perf_counter()
    reports = [dv_torsion_check(pair, p) for pair in random_dv_pairs(100, seed=11) for p in DV_DEGREES]
    elapsed = time.perf_counter() - start
    ok = all(rep.holds for rep in reports) and elapsed < 60.0
    report(4, f"(D,V) bound holds on 100 complexes, p in {{1,2}}, in {elapsed:.1f}s", ok)


def test_criterion_5_nerve_lemma():
    ok = True
    ok &= nerve_lemma_check(circle_cover(8, 0.9), [G(1), G(1), G(0)]).passed
    convex = BallCover.of(EuclideanSpace(2),
                          [((0.1 * k, 0.05 * k), 1.0 + 0.1 * k) for k in range(6)])
    ok &= nerve_lemma_check(convex, [G(1), G(0), G(0)]).passed
    cover, subfamily, shrink = annulus_cover()
    pair = relative_nerve(cover, subfamily, shrink)
    # (annulus, inner circle): inclusion is a homotopy equivalence, so the
    # hand-computed relative groups are all trivial
    ok &= all_homology(pair, up_to=2) == [G(0), G(0), G(0)]
    report(5, "nerve lemma: circle cover, convex covers, annulus pair", ok)


def test_criterion_6_figure_eight_volume():
    a = figure_eight_volume()
    b = figure_eight_volume_quad()
    ok = a < 2.03 and b < 2.03
    ok &= abs(a - 2.0298832128) <= 1e-8
    ok &= abs(b - 2.0298832128) <= 1e-8
    report(6, f"figure-eight volume {a:.10f} < 2.03, closed form and quadrature agree", ok)


def test_criterion_7_dehn_filling_family():
    ok = True
    sporadic_in_range = {(1, 1), (2, 1), (3, 1), (4, 1)}
    flagged = set()
    for p in range(1, 51):
        for q in range(1, 11):
            if gcd(p, q) != 1:
                continue
            result = figure_eight_filling(FillingSlope(p, q))
            expected = G(0) if p == 1 else G(0, (p,))
            ok &= result.group == expected
            if result.hyperbolic == "excluded":
                flagged.add((p, q))
    ok &= flagged == sporadic_in_range
    report(7, "H1 = Z/p for all slopes p<=50, q<=10; exclusions exact", ok)


def test_criterion_8_thick_thin_arithmetic():
    ok = all(c.passes for d in range(2, 11) for c in commutator_inequality_check(d))
    for d, m in ((2, 1), (4, 2), (7, 3), (10, 2)):
        params = ThickThinParams(d=d, margulis_eps=Fraction(3, 10), margulis_index=m)
        ok &= params.eps * (4 * m * 17 ** d) == params.eps0
        ok &= 0 < params.eps < params.eps0
    report(8, "commutator chain exhaustive to d=10; eps exact rational", ok)


def test_criterion_9_hyperbolic_lab():
    ok = True
    rng = np.random.default_rng(9)
    d = 3
    # displacement closed form on 100 random (length, offset)
    for _ in range(100):
        length = float(rng.uniform(0.05, 1.5))
        r = float(rng.uniform(0.0, 2.5))
        g = hyp.standard_loxodromic(d, length)
        v = np.zeros(d + 1)
        v[2] = 1.0
        x = hyp.make_point(hyp.exp_map(hyp.base_point(d), v, r))
        expected = 2 * math.asinh(math.cosh(r) * math.sinh(length / 2))
        ok &= abs(hyp.displacement(g, x) - expected) <= 1e-9
    # convexity of displacement along random geodesics
    g = hyp.standard_loxodromic(d, 0.4)
    h = 1e-2
    for _ in range(40):
        v = np.zeros(d + 1)
        v[1:] = rng.standard_normal(d)
        base = hyp.make_point(hyp.exp_map(hyp.base_point(d),
                                          v / np.linalg.norm(v[1:]), float(rng.uniform(0, 2))))
        w = np.zeros(d + 1)
        w[1:] = rng.standard_normal(d)
        w = hyp.tangent_projection(base, w)
        w /= hyp.tangent_norm(w)
        f = lambda t: hyp.displacement(g, hyp.make_point(hyp.exp_map(base, w, t)))
        for t in (-0.5, 0.0, 0.6):
            ok &= (f(t + h) - 2 * f(t) + f(t - h)) / (h * h) >= -1e-8
    # obtuse angles, 1000 samples for each commuting pair type
    g = hyp.standard_loxodromic(d, 0.2)
    rep = hyp.obtuse_angle_check(g, g.power(2), 0.5, 0.9, samples=1000, seed=0)
    ok &= rep.passed and rep.min_inner_product >= 1 - 1e-12
    fixed = [1.0, 1.0, 0.0, 0.0]
    pa = hyp.parabolic(fixed, [1.0, 0.0])
    pb = hyp.parabolic(fixed, [0.3, 0.7])
    rep = hyp.obtuse_angle_check(pa, pb, 0.4, 0.7, samples=1000, seed=1)
    ok &= rep.passed and rep.min_inner_product >= 1 - 1e-12
    # orbit counts against the volume ratio across a randomized suite
    for _ in range(30):
        dim = int(rng.integers(2, 4))
        length = float(rng.uniform(0.1, 1.0))
        g = hyp.standard_loxodromic(dim, length)
        v = np.zeros(dim + 1)
        v[2] = 1.0
        x = hyp.make_point(hyp.exp_map(hyp.base_point(dim), v, float(rng.uniform(0, 2))))
        rep = hyp.orbit_count_check(g, x, float(rng.uniform(length, 5.0)))
        ok &= rep.passed
    report(9, "displacement, convexity, obtuse angles, orbit counts", ok)


def test_criterion_10_cli_determinism(capsys, tmp_path):
    from torsionlab.simplicial import write_complex
    fixture = tmp_path / "rp2.cplx"
    fixture.write_text(write_complex(complexes.projective_plane_6()))
    commands = [
        ["homology", str(fixture)],
        ["constants", "--d", "3", "--margulis-eps", "0.1", "--margulis-m", "2", "--m8"],
        ["dehn-fill", "--mu", "1", "--lambda", "0", "--relations", "none", "--p", "5", "--q", "1"],
        ["dehn-table", "--p", "1..12", "--q", "1..4"],
        ["verify", "soule", "--count", "20", "--seed", "0"],
        ["verify", "dv-bound", "--count", "5", "--seed", "0"],
        ["verify", "commutator", "--d", "8"],
        ["verify", "nerve"],
        ["verify", "orbit", "--count", "5", "--seed", "0"],
        ["verify", "obtuse", "--samples", "40", "--seed", "0"],
    ]
    ok = True
    for argv in commands:
        code1 = main(list(argv))
        out1 = capsys.readouterr().out
        code2 = main(list(argv))
        out2 = capsys.readouterr().out
        ok &= code1 == code2 == 0 and out1 == out2 and bool(out1)
    with capsys.disabled():
        report(10, "fixed-seed CLI reruns byte-identical", ok)
