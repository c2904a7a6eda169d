import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionlab.exact import (
    AbelianGroupStructure,
    IntegerMatrix,
    cokernel,
    determinant,
    independent_columns,
    rank_mod_p,
    rational_rank,
    smith_normal_form,
    solve_scaled,
    unit_reduce,
)
from torsionlab.homology import ORACLE_PRIMES


def assert_valid_snf(mat):
    snf = smith_normal_form(mat)
    assert (snf.U @ mat @ snf.V).entries == snf.S.entries
    assert abs(determinant(snf.U)) == 1
    assert abs(determinant(snf.V)) == 1
    diag = snf.S.diagonal_entries()
    for i in range(min(mat.rows, mat.cols)):
        for j in range(mat.cols):
            if i != j and i < snf.S.rows:
                assert snf.S.entries[i][j] == 0 or i == j
    nonzero = [d for d in diag if d != 0]
    assert all(d > 0 for d in nonzero)
    assert len(nonzero) == snf.rank
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # zeros come after the nonzero invariant factors
    assert list(diag) == nonzero + [0] * (len(diag) - len(nonzero))
    return snf


def test_snf_diagonal_2_3():
    snf = assert_valid_snf(IntegerMatrix.diagonal([2, 3]))
    assert snf.S.diagonal_entries() == (1, 6)


def test_snf_zero_matrix():
    snf = assert_valid_snf(IntegerMatrix.zeros(3, 2))
    assert snf.rank == 0
    assert snf.S.is_zero()


def test_snf_empty_shapes():
    for rows, cols in [(0, 0), (0, 3), (3, 0)]:
        snf = smith_normal_form(IntegerMatrix.zeros(rows, cols))
        assert snf.rank == 0
        assert snf.S.rows == rows and snf.S.cols == cols


def test_snf_random_batch_exact():
    rng = random.Random(20240205)
    for _ in range(200):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        mat = IntegerMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)], cols)
        snf = assert_valid_snf(mat)
        assert snf.rank == rational_rank(mat)


@st.composite
def integer_matrices(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    data = [[draw(st.integers(-30, 30)) for _ in range(cols)] for _ in range(rows)]
    return IntegerMatrix.from_rows(data, cols)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(integer_matrices())
def test_snf_properties_hypothesis(mat):
    assert_valid_snf(mat)


@st.composite
def degenerate_matrices(draw):
    """Sparse entries up to +-1000, some zero columns, some rows combinations of others."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.one_of(st.just(rows), st.integers(1, 6)))
    entry = st.one_of(st.just(0), st.integers(-1000, 1000))
    data = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=cols)):
        for row in data:
            row[j] = 0
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=rows)):
        a, b = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        x, y = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        data[i] = [x * u + y * v for u, v in zip(data[a], data[b])]
    return IntegerMatrix.from_rows(data, cols)


def columns_of(mat, cols):
    return IntegerMatrix.from_rows([[row[j] for j in cols] for row in mat.entries], len(cols))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(degenerate_matrices(), st.data())
def test_elimination_agrees_with_snf(mat, data):
    diag = smith_normal_form(mat).S.diagonal_entries()
    assert rational_rank(mat) == sum(1 for d in diag if d)
    for p in ORACLE_PRIMES:
        assert rank_mod_p(mat, p) == sum(1 for d in diag if d % p)
    if mat.rows == mat.cols:
        assert abs(determinant(mat)) == math.prod(diag)

    order = data.draw(st.permutations(range(mat.cols)))
    chosen = independent_columns(mat, order)
    for k, j in enumerate(order):
        before = rational_rank(columns_of(mat, order[:k]))
        raises = rational_rank(columns_of(mat, order[:k + 1])) > before
        assert raises == (j in chosen)


def fraction_solve(rows, rhs):
    """x with rows x = rhs by Gauss-Jordan over the rationals; None if singular."""
    n = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if aug[i][c]), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c] / aug[c][c]
                aug[i] = [u - f * v for u, v in zip(aug[i], aug[c])]
    return [aug[i][n] / aug[i][i] for i in range(n)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(degenerate_matrices(), st.data())
def test_solve_scaled_agrees_with_determinant_and_rationals(mat, data):
    n = min(mat.rows, mat.cols)
    rows = [list(row[:n]) for row in mat.entries[:n]]
    rhs = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    square = IntegerMatrix.from_rows(rows, n)
    d, y = solve_scaled(rows, rhs)
    x = fraction_solve(rows, rhs)
    assert abs(d) == abs(determinant(square))
    if x is None:
        assert (d, y) == (0, [])
    else:
        assert [Fraction(v, d) for v in y] == x


def test_solve_scaled_known():
    assert solve_scaled([[2, 1], [1, 3]], [1, 1]) == (5, [2, 1])
    d, y = solve_scaled([[0, 1], [1, 0]], [3, 4])
    assert [Fraction(v, d) for v in y] == [4, 3]
    assert solve_scaled([[1, 2], [2, 4]], [1, 1]) == (0, [])
    assert solve_scaled([], []) == (1, [])


@st.composite
def sparse_matrices(draw, entries):
    """Matrices up to 7 x 7 with the given entry strategy; empty shapes included."""
    rows = draw(st.integers(0, 7))
    cols = draw(st.integers(0, 7))
    data = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    return IntegerMatrix.from_rows(data, cols)


UNIT_RICH = st.sampled_from([0, 0, 0, 1, -1, 1, -1, 2, -3])
NON_UNIT = st.one_of(st.just(0), st.integers(2, 40), st.integers(-40, -2))


def check_unit_reduce(mat):
    units, residual = unit_reduce(mat)
    snf = smith_normal_form(mat)
    residual_snf = smith_normal_form(residual)
    assert units + residual_snf.rank == snf.rank == rational_rank(mat)
    assert residual_snf.invariant_factors() == snf.invariant_factors()
    assert cokernel(mat) == AbelianGroupStructure(mat.rows - snf.rank, snf.invariant_factors())
    # every unit is eliminated, and no zero row or column survives
    assert all(abs(v) != 1 for row in residual.entries for v in row)
    assert all(any(row) for row in residual.entries)
    assert all(any(col) for col in zip(*residual.entries))
    return units, residual


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(sparse_matrices(UNIT_RICH), degenerate_matrices()))
def test_unit_reduce_agrees_with_snf(mat):
    check_unit_reduce(mat)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sparse_matrices(NON_UNIT))
def test_unit_reduce_without_units_keeps_the_nonzero_part(mat):
    units, residual = check_unit_reduce(mat)
    assert units == 0
    nonzero_rows = [row for row in mat.entries if any(row)]
    nonzero_cols = [j for j in range(mat.cols) if any(row[j] for row in mat.entries)]
    assert residual.entries == tuple(tuple(row[j] for j in nonzero_cols) for row in nonzero_rows)


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 4), (4, 0)])
def test_unit_reduce_empty_shapes(rows, cols):
    units, residual = unit_reduce(IntegerMatrix.zeros(rows, cols))
    assert units == 0
    assert (residual.rows, residual.cols) == (0, 0)
    assert cokernel(IntegerMatrix.zeros(rows, cols)) == AbelianGroupStructure(rows)


def test_cokernel_diag():
    group = cokernel(IntegerMatrix.diagonal([2, 3]))
    assert group == AbelianGroupStructure(0, (6,))


@pytest.mark.parametrize("p,s", [(2, 1), (5, -3), (7, 0)])
def test_cokernel_filling_shape(p, s):
    group = cokernel(IntegerMatrix.from_rows([[0, p], [1, s]], 2))
    assert group.betti == 0
    assert group.torsion_order == p
    if p > 1:
        assert group.invariant_factors == (p,)


def test_cokernel_wide_row():
    group = cokernel(IntegerMatrix.from_rows([[2, 4]], 2))
    assert group == AbelianGroupStructure(0, (2,))


def test_cokernel_free_part():
    group = cokernel(IntegerMatrix.zeros(3, 1))
    assert group == AbelianGroupStructure(3)


def test_group_structure_validation():
    with pytest.raises(ValueError):
        AbelianGroupStructure(0, (3, 2))  # not a divisibility chain
    with pytest.raises(ValueError):
        AbelianGroupStructure(0, (1,))
    assert str(AbelianGroupStructure(2, (2, 4))) == "Z^2 + Z/2 + Z/4"
    assert AbelianGroupStructure(0, (2, 4)).torsion_order == 8


def test_determinant_known():
    assert determinant(IntegerMatrix.identity(4)) == 1
    assert determinant(IntegerMatrix.from_rows([[1, 2], [3, 4]], 2)) == -2
    assert determinant(IntegerMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 5]], 3)) == -5
    assert determinant(IntegerMatrix.zeros(3, 3)) == 0


def test_rank_mod_p_detects_torsion():
    mat = IntegerMatrix.diagonal([1, 2, 6])
    assert rational_rank(mat) == 3
    assert rank_mod_p(mat, 2) == 1
    assert rank_mod_p(mat, 3) == 2
    assert rank_mod_p(mat, 5) == 3


def test_independent_columns_spans():
    mat = IntegerMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]], 3)
    chosen = independent_columns(mat)
    assert chosen == [0, 2]
    assert len(chosen) == rational_rank(mat)


def test_matmul_shape_check():
    with pytest.raises(ValueError):
        IntegerMatrix.zeros(2, 3) @ IntegerMatrix.zeros(2, 3)


def sparse_copy(mat):
    """The same matrix built from row -> value dicts, as a boundary matrix is."""
    columns = [{i: row[j] for i, row in enumerate(mat.entries) if row[j]} for j in range(mat.cols)]
    return IntegerMatrix.from_columns(mat.rows, mat.cols, columns)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(sparse_matrices(UNIT_RICH), degenerate_matrices()))
def test_matrix_from_columns_agrees_with_from_rows(mat):
    sparse = sparse_copy(mat)
    # reduce before anything reads entries: a reduction that edited the
    # columns in place would change the second reduction and the entries
    first = unit_reduce(sparse)
    assert unit_reduce(sparse) == first == unit_reduce(mat)
    assert sparse.entries == mat.entries
    assert sparse == mat and mat == sparse
    assert hash(sparse) == hash(mat)
    assert sparse.columns == mat.columns
    assert cokernel(sparse_copy(mat)) == cokernel(mat)


def test_matrix_from_columns_validates_its_shape():
    with pytest.raises(ValueError):
        IntegerMatrix.from_columns(2, 3, [{0: 1}, {}])
    with pytest.raises(ValueError):
        IntegerMatrix.from_columns(-1, 0, [])
    empty = IntegerMatrix.from_columns(0, 3, [{}, {}, {}])
    assert empty == IntegerMatrix.zeros(0, 3)
    assert IntegerMatrix.zeros(0, 3).columns == ({}, {}, {})
