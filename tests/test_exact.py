import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionlab.exact import (
    AbelianGroupStructure,
    IntegerMatrix,
    _divisibility_chain,
    cokernel,
    determinant,
    independent_columns,
    rank_mod_p,
    rational_rank,
    smith_normal_form,
    solve_scaled,
)
from torsionlab.homology import ORACLE_PRIMES
from torsionlab.simplicial import boundary_matrix, build_complex


def smith_diagonal(snf):
    """The nonzero diagonal of the Smith form: 1s, then the invariant factors."""
    factors = snf.factors
    return [1] * (snf.rank - len(factors)) + list(factors)


def determinantal_divisors(mat):
    """D_k = gcd of all k x k minors for k = 1 .. min(rows, cols)."""
    divisors = []
    for k in range(1, min(mat.rows, mat.cols) + 1):
        g = 0
        for rows in combinations(mat.entries, k):
            for cols in combinations(range(mat.cols), k):
                g = math.gcd(g, determinant(IntegerMatrix.from_rows([[row[j] for j in cols] for row in rows], k)))
        divisors.append(g)
    return divisors


def assert_valid_snf(mat):
    """Check the kernel against the Bareiss ranks and determinant, and up to
    5 x 5 against the determinantal divisors: D_k = d_1 ... d_k."""
    snf = smith_normal_form(mat)
    diag = smith_diagonal(snf)
    assert all(d > 1 for d in snf.factors)
    assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
    assert snf.rank == rational_rank(mat)
    for p in ORACLE_PRIMES:
        assert rank_mod_p(mat, p) == sum(1 for d in diag if d % p)
    if mat.rows == mat.cols:
        assert abs(determinant(mat)) == (math.prod(diag) if snf.rank == mat.rows else 0)
    if mat.rows <= 5 and mat.cols <= 5:
        divisors = determinantal_divisors(mat)
        assert divisors == [math.prod(diag[:k]) if k <= snf.rank else 0
                            for k in range(1, len(divisors) + 1)]
    assert cokernel(mat) == AbelianGroupStructure(mat.rows - snf.rank, snf.factors)
    return snf


def test_snf_diagonal_2_3():
    snf = assert_valid_snf(IntegerMatrix.diagonal([2, 3]))
    assert (snf.rank, snf.factors) == (2, (6,))


@pytest.mark.parametrize("diag, factors", [
    ([4, 6], (2, 12)),
    ([2, 2, 3, 3], (6, 6)),  # each factor must meet every later one, not just the next
    ([2, 3, 5, 7, 4], (2, 420)),
])
def test_snf_of_diagonal_matrices(diag, factors):
    snf = assert_valid_snf(IntegerMatrix.diagonal(diag))
    assert (snf.rank, snf.factors) == (len(diag), factors)


def test_snf_zero_matrix():
    snf = assert_valid_snf(IntegerMatrix.zeros(3, 2))
    assert (snf.rank, snf.factors) == (0, ())


def test_snf_empty_shapes():
    for rows, cols in [(0, 0), (0, 4), (4, 0)]:
        for mat in (IntegerMatrix.zeros(rows, cols), IntegerMatrix.from_columns(rows, cols, [{}] * cols)):
            snf = smith_normal_form(mat)
            assert (snf.rank, snf.factors) == (0, ())
            assert cokernel(mat) == AbelianGroupStructure(rows)


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 4), (4, 0)])
def test_unit_reduce_empty_shapes(rows, cols):
    """The kernel's ±1-pivot phase finds no unit in an empty shape, and every
    rank oracle agrees that nothing is eliminated."""
    mat = IntegerMatrix.zeros(rows, cols)
    snf = smith_normal_form(mat)
    assert (snf.rank, snf.factors) == (0, ())
    assert rational_rank(mat) == 0
    assert all(rank_mod_p(mat, p) == 0 for p in ORACLE_PRIMES)
    assert cokernel(mat) == AbelianGroupStructure(rows)


def test_snf_random_batch_exact():
    rng = random.Random(20240205)
    for _ in range(200):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        mat = IntegerMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)], cols)
        assert_valid_snf(mat)


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
    assert_valid_snf(mat)

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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(sparse_matrices(UNIT_RICH), degenerate_matrices()))
def test_snf_of_sparse_and_degenerate_matrices(mat):
    assert_valid_snf(mat)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sparse_matrices(NON_UNIT))
def test_snf_without_units(mat):
    assert_valid_snf(mat)


def grid_klein_bottle(n):
    """n x n grid with the i = n edge glued back by j -> -j, squares cut diagonally."""
    def vertex(i, j):
        if i == n:
            i, j = 0, -j
        return i * n + j % n

    triangles = []
    for i in range(n):
        for j in range(n):
            a, b, c, d = vertex(i, j), vertex(i + 1, j), vertex(i, j + 1), vertex(i + 1, j + 1)
            triangles += [(a, b, d), (a, c, d)]
    return build_complex(triangles, vertex_count=n * n)


@pytest.mark.parametrize("scale", [2, 6])
def test_snf_of_scaled_klein_bottle_boundaries(scale):
    # no entry is a unit; the Smith form of d_1 is 1 (35 times) and of
    # d_2 is 1 (71 times) then 2, each scaled
    klein = grid_klein_bottle(6)
    for k, factors in [(1, (scale,) * 35), (2, (scale,) * 71 + (2 * scale,))]:
        d = boundary_matrix(klein, k)
        scaled = IntegerMatrix.from_columns(
            d.rows, d.cols, [{i: scale * v for i, v in col.items()} for col in d.columns])
        snf = smith_normal_form(scaled)
        assert (snf.rank, snf.factors) == (len(factors), factors)
        assert snf.rank == rational_rank(scaled)
        assert rank_mod_p(scaled, 3) == (len(factors) if scale == 2 else 0)


def test_snf_of_a_large_scaled_klein_bottle_boundary():
    # 800 non-unit pivots: the pivot search and the chain must not be
    # quadratic in them (this took 0.3 s with a rescan per pivot)
    d = boundary_matrix(grid_klein_bottle(20), 2)
    scaled = IntegerMatrix.from_columns(
        d.rows, d.cols, [{i: 2 * v for i, v in col.items()} for col in d.columns])
    snf = smith_normal_form(scaled)
    assert (d.rows, d.cols) == (1200, 800)
    assert (snf.rank, snf.factors) == (800, (2,) * 799 + (4,))


def test_snf_is_kept_on_the_matrix_and_leaves_its_columns_unchanged():
    columns = [{0: 4, 1: 6}, {0: 6, 2: 9}, {1: 2, 2: -3}, {0: 1}]
    mat = IntegerMatrix.from_columns(3, 4, [dict(col) for col in columns])
    snf = smith_normal_form(mat)
    assert mat.columns == tuple(columns)
    assert smith_normal_form(mat) is snf
    assert snf == smith_normal_form(IntegerMatrix.from_rows(mat.entries, mat.cols))


def all_pairs_chain(d):
    """The former chain: replace every pair by (gcd, lcm), O(k^2) gcds."""
    d = list(d)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = math.gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return tuple(x for x in d if x > 1)


PIVOTS = st.one_of(st.integers(2, 60), st.sampled_from([2, 4, 6, 12, 2 ** 70, 3 ** 40 * 2]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(PIVOTS, max_size=14))
def test_divisibility_chain_agrees_with_all_pairs_gcds(pivots):
    assert _divisibility_chain(pivots) == all_pairs_chain(pivots)


@pytest.mark.parametrize("reverse", [False, True])
def test_snf_of_a_bidiagonal_presentation_of_a_large_cyclic_group(reverse):
    # column i is 2 e_i - e_{i+1}, the last one 2 e_n: e_{i+1} = 2 e_i and
    # 2^n e_1 = 0 present Z/2^n
    n = 200
    columns = [{i: 2, i + 1: -1} for i in range(n - 1)] + [{n - 1: 2}]
    mat = IntegerMatrix.from_columns(n, n, columns[::-1] if reverse else columns)
    snf = smith_normal_form(mat)
    assert (snf.rank, snf.factors) == (n, (2 ** n,))
    assert cokernel(mat) == AbelianGroupStructure(0, (2 ** n,))


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
    first = smith_normal_form(sparse)
    assert smith_normal_form(sparse) == first == smith_normal_form(mat)
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
