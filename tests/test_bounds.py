import dataclasses
import json
import math
import random
import sys
import time
from fractions import Fraction

import pytest

from torsionlab import bounds, complexes
from torsionlab.bounds import (
    DV_DEGREES,
    _sqrt_float,
    dv_torsion_check,
    random_dv_pairs,
    random_matrices,
    soule_bound,
)
from torsionlab.cli import main
from torsionlab.exact import IntegerMatrix, cokernel, independent_columns
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


def test_soule_batch_holds():
    reports = [soule_bound(mat) for mat in random_matrices(300, seed=7)]
    assert len(reports) == 300
    assert all(r.holds for r in reports)
    assert max(r.ratio() for r in reports) <= 1.0 + 1e-12


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
            [[row[j] for j in report.chosen_columns] for row in mat.to_lists()],
            len(report.chosen_columns))
        assert rational_rank(submatrix) == len(report.chosen_columns)


def soule_sweep_matrices(count, seed):
    """Seeded matrices up to 10 x 10 of five kinds in turn: entries in
    [-5, 5]; products through a thinner inner dimension, so of lower rank;
    entries in [-5, 5] with some columns zeroed; one row; one column."""
    rng = random.Random(seed)
    for i in range(count):
        kind = i % 5
        rows = 1 if kind == 3 else rng.randint(1, 10)
        cols = 1 if kind == 4 else rng.randint(1, 10)
        if kind == 1:
            inner = rng.randint(1, max(1, min(rows, cols) - 1))
            left = IntegerMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(rows)], inner)
            yield left @ IntegerMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(inner)], cols)
            continue
        data = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        if kind == 2:
            for j in rng.sample(range(cols), rng.randint(1, cols)):
                for row in data:
                    row[j] = 0
        yield IntegerMatrix.from_rows(data, cols)


def test_soule_columns_are_the_greedy_bareiss_basis():
    # at full column rank the basis is read off the cokernel's rank, and
    # otherwise the Bareiss basis is taken: both must be the greedy one
    full = 0
    for mat in soule_sweep_matrices(3000, seed=48):
        report = soule_bound(mat)
        assert report.chosen_columns == tuple(independent_columns(mat))
        full += len(report.chosen_columns) == mat.cols
    assert 600 < full < 2400


def test_dv_check_rp2():
    k = complexes.projective_plane_6()
    pair = SimplicialPair(total=k, sub=empty_complex(k.vertex_count))
    report = dv_torsion_check(pair, 1)
    assert (report.D, report.V) == (5, 6)
    assert report.torsion_order == 2
    assert report.log_bound == pytest.approx(5 * 6 * math.log(2))
    assert report.holds


def test_dv_ratio_divides_the_log_torsion_by_the_log_bound():
    # RP^2 over nothing at p = 1: log 2 / (5 * 6 * log 2)
    k = complexes.projective_plane_6()
    report = dv_torsion_check(SimplicialPair(total=k, sub=empty_complex(k.vertex_count)), 1)
    assert (report.D, report.V, report.torsion_order) == (5, 6, 2)
    assert report.ratio() == pytest.approx(1 / 30)


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
    pairs = list(random_dv_pairs(30, seed=3, with_subcomplexes=True))
    assert len(pairs) == 30
    assert all(bool(pair.sub.simplices) == (index % 2 == 1) for index, pair in enumerate(pairs))
    reports = [dv_torsion_check(pair, p) for pair in pairs for p in DV_DEGREES]
    assert all(r.holds for r in reports)
    assert max(r.ratio() for r in reports) <= 1.0


def test_batch_failure_payload_reproduces(capsys, monkeypatch):
    # the bounds are theorems, so failures are faked; each failing record
    # must then carry the instance that reproduces its check
    soule, dv = bounds.soule_bound, bounds.dv_torsion_check
    monkeypatch.setattr(bounds, "soule_bound", lambda mat: dataclasses.replace(soule(mat), holds=False))
    monkeypatch.setattr(bounds, "dv_torsion_check",
                        lambda pair, p: dataclasses.replace(dv(pair, p), holds=False))

    assert main(["verify", "soule", "--count", "4", "--seed", "1"]) == 1
    *records, summary = map(json.loads, capsys.readouterr().out.splitlines())
    assert summary["failures"] == len(records) == 4
    for record in records:
        assert not record["holds"]
        mat = IntegerMatrix.from_rows(record["matrix"], record["cols"])
        assert (mat.rows, soule(mat).exact_torsion) == (record["rows"], record["torsion"])

    assert main(["verify", "dv-bound", "--count", "3", "--seed", "1"]) == 1
    *records, summary = map(json.loads, capsys.readouterr().out.splitlines())
    assert summary["failures"] == len(records) == 2 * 3
    for record in records:
        assert not record["holds"]
        pair = SimplicialPair(total=build_complex(record["maximal_simplices"]),
                              sub=build_complex(record["sub_maximal_simplices"]))
        report = dv(pair, record["p"])
        assert (report.D, report.V, report.torsion_order) == (record["D"], record["V"], record["torsion"])


def test_ratio_zero_for_trivial_torsion():
    report = soule_bound(IntegerMatrix.diagonal([1] * 3))
    assert report.ratio() == 0.0
