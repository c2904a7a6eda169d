import math
import random
import sys
import time
from fractions import Fraction

import pytest

from torsionlab import complexes
from torsionlab.bounds import (
    _sqrt_float,
    batch_verify_dv,
    batch_verify_soule,
    dv_torsion_check,
    soule_bound,
)
from torsionlab.exact import IntegerMatrix, cokernel
from torsionlab.simplicial import SimplicialPair, boundary_matrix, build_complex, empty_complex


def test_soule_diagonal_equality():
    report = soule_bound(IntegerMatrix.diagonal([2, 3]))
    assert report.chosen_columns == (0, 1)
    assert report.bound == pytest.approx(6.0)
    assert report.exact_torsion == 6
    assert report.holds
    assert report.bound_squared == report.exact_torsion ** 2


def assert_nearest_root(n, x):
    # x is the double nearest to sqrt(n): n lies between the squares of the
    # midpoints from x to its neighbours
    top = Fraction(sys.float_info.max)
    if x == math.inf:
        assert n >= ((top + 2 ** 1024) / 2) ** 2
        return
    below = Fraction(math.nextafter(x, 0.0))
    above = Fraction(2 ** 1024) if x == top else Fraction(math.nextafter(x, math.inf))
    assert ((below + Fraction(x)) / 2) ** 2 <= n <= ((Fraction(x) + above) / 2) ** 2


def test_sqrt_float_of_small_values_and_perfect_squares():
    assert _sqrt_float(0) == 0.0
    assert _sqrt_float(1) == 1.0
    for n in range(2, 5000):
        assert _sqrt_float(n) == math.sqrt(n)
    rng = random.Random(0)
    # (2^54 + 2) << 10 puts the root of k*k + 1 just past a tie, with the
    # only inexact bits among those the scaling shifts out
    for k in [2 ** 53 + 1, 2 ** 54 + 1, (2 ** 54 + 2) << 10, 3 ** 200,
              *(1 + rng.getrandbits(rng.randint(1, 1023)) for _ in range(500))]:
        assert _sqrt_float(k * k) == float(k)  # int -> float rounds correctly
        assert_nearest_root(k * k + 1, _sqrt_float(k * k + 1))
        assert_nearest_root(k * k - 1, _sqrt_float(k * k - 1))


def test_sqrt_float_of_seeded_norm_products():
    rng = random.Random(11)
    for _ in range(2000):
        n = math.prod(rng.randint(1, 250) for _ in range(rng.randint(1, 40)))
        assert_nearest_root(n, _sqrt_float(n))


def test_sqrt_float_past_two_to_the_1024():
    top = int(sys.float_info.max)
    rng = random.Random(5)
    for n in [2 ** 1024, 2 ** 1024 + 1, 2 ** 2047 - 1, top * top,
              (top + 2 ** 970) ** 2 - 1, *(rng.getrandbits(2047) for _ in range(200))]:
        x = _sqrt_float(n)
        assert x < math.inf
        assert_nearest_root(n, x)
    assert _sqrt_float(top * top) == sys.float_info.max
    # the midpoint to 2^1024 rounds to even, past the float range
    for n in [(top + 2 ** 970) ** 2, 2 ** 2048, 7 ** 5000]:
        assert _sqrt_float(n) == math.inf
        assert_nearest_root(n, math.inf)


@pytest.mark.parametrize("diag", [[1, 1], [2, 5, 9], [3], [4, 4, 4, 4]])
def test_soule_equality_on_positive_diagonals(diag):
    report = soule_bound(IntegerMatrix.diagonal(diag))
    product = math.prod(diag)
    assert report.exact_torsion == product
    assert report.bound_squared == product ** 2
    assert report.holds


def test_soule_hollow_triangle_boundary():
    d1 = boundary_matrix(complexes.hollow_triangle(), 1)
    report = soule_bound(d1)
    assert report.exact_torsion == 1
    assert report.holds
    # each selected column has norm sqrt(2)
    assert report.bound == pytest.approx(2 ** (len(report.chosen_columns) / 2))


def test_soule_zero_matrix():
    report = soule_bound(IntegerMatrix.zeros(3, 3))
    assert report.chosen_columns == ()
    assert report.exact_torsion == 1
    assert report.bound == pytest.approx(1.0)
    assert report.holds


def test_soule_verdict_is_column_permutation_invariant():
    rng = random.Random(99)
    for _ in range(30):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        entries = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        mat = IntegerMatrix.from_rows(entries, cols)
        perm = list(range(cols))
        rng.shuffle(perm)
        permuted = IntegerMatrix.from_rows([[row[j] for j in perm] for row in entries], cols)
        assert soule_bound(mat).holds == soule_bound(permuted).holds


def test_soule_small_norm_heuristic_tightens():
    mat = IntegerMatrix.from_rows([[100, 1, 0], [0, 0, 1]], 3)
    default = soule_bound(mat)
    tight = soule_bound(mat, prefer_small_norms=True)
    assert default.holds and tight.holds
    assert tight.bound <= default.bound


def test_soule_batch_holds():
    summary = batch_verify_soule(300, seed=7)
    assert summary.all_hold
    assert summary.max_ratio <= 1.0 + 1e-12


def test_soule_chosen_columns_form_image_basis():
    from torsionlab.exact import rational_rank
    rng = random.Random(41)
    for _ in range(25):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mat = IntegerMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)], cols)
        report = soule_bound(mat)
        assert len(report.chosen_columns) == rational_rank(mat)
        submatrix = IntegerMatrix.from_rows(
            [[row[j] for j in report.chosen_columns] for row in mat.entries],
            len(report.chosen_columns))
        assert rational_rank(submatrix) == len(report.chosen_columns)


def test_dv_check_rp2():
    k = complexes.projective_plane_6()
    pair = SimplicialPair(total=k, sub=empty_complex(k.vertex_count))
    report = dv_torsion_check(pair, 1)
    assert (report.D, report.V) == (5, 6)
    assert report.torsion_order == 2
    assert report.log_bound == pytest.approx(5 * 6 * math.log(2))
    assert report.holds


def test_dv_check_self_pair_trivial():
    k = complexes.torus_7()
    pair = SimplicialPair(total=k, sub=k)
    for p in (1, 2):
        report = dv_torsion_check(pair, p)
        assert report.torsion_order == 1
        assert report.log_torsion == 0.0
        assert report.holds


@pytest.mark.parametrize("leaves, p", [(50, 4), (200, 5), (50, 200)])
def test_dv_check_decides_huge_exponents_at_once(leaves, p):
    # D^p * V is 3.2e8, 6.4e13 and 3.2e341 here: (p+1)^(D^p * V) is never
    # built, and the last exponent is past the float range
    star = build_complex([(0, leaf) for leaf in range(1, leaves + 1)])
    start = time.perf_counter()
    report = dv_torsion_check(SimplicialPair(total=star, sub=empty_complex(star.vertex_count)), p)
    assert time.perf_counter() - start < 2.0
    assert (report.D, report.V) == (leaves, leaves + 1)
    assert report.holds
    exponent = leaves ** p * (leaves + 1)
    if exponent > sys.float_info.max:
        assert report.log_bound == math.inf
        assert report.ratio() == 0.0
    else:
        assert report.log_bound == pytest.approx(exponent * math.log(p + 1))


def test_dv_bound_monotone_in_budget():
    k = complexes.projective_plane_6()
    pair = SimplicialPair(total=k, sub=empty_complex(k.vertex_count))
    report = dv_torsion_check(pair, 1)
    # enlarging D or V only increases the bound
    assert report.log_bound <= (report.D + 1) ** 1 * report.V * math.log(2)
    assert report.log_bound <= report.D ** 1 * (report.V + 1) * math.log(2)


def test_dv_batch_holds_with_pairs():
    summary = batch_verify_dv(30, seed=3, with_subcomplexes=True)
    assert summary.all_hold
    assert summary.max_ratio <= 1.0


def test_batch_rejects_bad_count():
    with pytest.raises(ValueError):
        batch_verify_soule(0, seed=1)
    with pytest.raises(ValueError):
        batch_verify_dv(0, seed=1)


def test_batch_failure_payload_reproduces():
    # sanity-check the reporting path: tamper with a record to ensure the
    # instance payload fully determines the check
    summary = batch_verify_soule(5, seed=1)
    for record in summary.records:
        assert set(record) >= {"index", "rows", "cols", "torsion", "bound", "holds"}


def test_ratio_zero_for_trivial_torsion():
    report = soule_bound(IntegerMatrix.identity(3))
    assert report.ratio() == 0.0
