import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionlab import exact
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
from torsionlab.homology import ORACLE_PRIMES, primes_of
from torsionlab.simplicial import boundary_matrix

from test_homology import grid_surface


def smith_diagonal(snf):
    """The nonzero diagonal of the Smith form: 1s, then the invariant factors."""
    factors = snf.factors
    return [1] * (snf.rank - len(factors)) + list(factors)


def determinantal_divisors(mat):
    """D_k = gcd of all k x k minors for k = 1 .. min(rows, cols)."""
    divisors = []
    for k in range(1, min(mat.rows, mat.cols) + 1):
        g = 0
        for rows in combinations(mat.to_lists(), k):
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
        for mat in (IntegerMatrix.zeros(rows, cols), IntegerMatrix(rows, cols, [{}] * cols)):
            snf = smith_normal_form(mat)
            assert (snf.rank, snf.factors) == (0, ())
            assert cokernel(mat) == AbelianGroupStructure(rows)


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 4), (4, 0)])
def test_unit_reduce_empty_shapes(rows, cols):
    """The kernel's column pass finds no pivot in an empty shape, and every
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


def seeded_matrices(kind, count, seed):
    """Seeded matrices up to 14 x 14: unit-rich ones (mostly 0 and +-1, some
    2 and -3), dense ones with entries in [-5, 5], and sparse ones that
    store every zero, some of them nothing but zeros."""
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(1, 14), rng.randint(1, 14)
        if kind == "unit-rich":
            data = [[rng.choice((0, 0, 0, 1, -1, 1, -1, 2, -3)) for _ in range(cols)] for _ in range(rows)]
        elif kind == "dense":
            data = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        else:
            density = rng.choice((0.0, 0.1, 0.4))
            data = [[rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(cols)]
                    for _ in range(rows)]
            yield IntegerMatrix(rows, cols, [{i: data[i][j] for i in range(rows)} for j in range(cols)])
            continue
        yield IntegerMatrix.from_rows(data, cols)


@pytest.mark.parametrize("kind", ["unit-rich", "dense", "stored-zeros"])
def test_kernel_rank_and_torsion_primes_agree_with_the_oracles(kind):
    for mat in seeded_matrices(kind, 150, seed=len(kind)):
        snf = smith_normal_form(mat)
        assert snf.rank == rational_rank(mat)
        for p in ORACLE_PRIMES:
            assert rank_mod_p(mat, p) == snf.rank - sum(1 for d in snf.factors if d % p == 0)
        if not any(v for col in mat.columns for v in col.values()):
            assert (snf.rank, snf.factors, snf.unit_rows) == (0, (), frozenset())


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
    return IntegerMatrix.from_rows([[row[j] for j in cols] for row in mat.to_lists()], len(cols))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(degenerate_matrices(), st.data())
def test_elimination_agrees_with_snf(mat, data):
    assert_valid_snf(mat)

    order = data.draw(st.permutations(range(mat.cols)))
    chosen = [order[c] for c in independent_columns(columns_of(mat, order))]
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
    rows = [list(row[:n]) for row in mat.to_lists()[:n]]
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


@pytest.mark.parametrize("scale", [2, 6])
def test_snf_of_scaled_klein_bottle_boundaries(scale):
    # no entry is a unit; the Smith form of d_1 is 1 (35 times) and of
    # d_2 is 1 (71 times) then 2, each scaled
    klein = grid_surface(6, True)
    for k, factors in [(1, (scale,) * 35), (2, (scale,) * 71 + (2 * scale,))]:
        d = boundary_matrix(klein, k)
        scaled = IntegerMatrix(
            d.rows, d.cols, [{i: scale * v for i, v in col.items()} for col in d.columns])
        snf = smith_normal_form(scaled)
        assert (snf.rank, snf.factors) == (len(factors), factors)
        assert snf.rank == rational_rank(scaled)
        assert rank_mod_p(scaled, 3) == (len(factors) if scale == 2 else 0)


def test_snf_of_a_large_scaled_klein_bottle_boundary():
    # 800 non-unit pivots: the pivot search and the chain must not be
    # quadratic in them (this took 0.3 s with a rescan per pivot)
    d = boundary_matrix(grid_surface(20, True), 2)
    scaled = IntegerMatrix(
        d.rows, d.cols, [{i: 2 * v for i, v in col.items()} for col in d.columns])
    snf = smith_normal_form(scaled)
    assert (d.rows, d.cols) == (1200, 800)
    assert (snf.rank, snf.factors) == (800, (2,) * 799 + (4,))


def test_snf_is_kept_on_the_matrix_and_leaves_its_columns_unchanged():
    columns = [{0: 4, 1: 6}, {0: 6, 2: 9}, {1: 2, 2: -3}, {0: 1}]
    mat = IntegerMatrix(3, 4, [dict(col) for col in columns])
    snf = smith_normal_form(mat)
    assert mat.columns == tuple(columns)
    assert smith_normal_form(mat) is snf
    assert snf == smith_normal_form(IntegerMatrix.from_rows(mat.to_lists(), mat.cols))


def test_column_pass_takes_a_unit_low_reached_by_reduction():
    # column 0 is the pivot of row 1.  Column 1's low entry is 2, on row 1,
    # and (7, 2) - 2 (3, 1) = (1, 0) makes it the pivot of row 0.  Column 2
    # is twice column 0 and reduces to zero.
    columns = [{0: 3, 1: 1}, {0: 7, 1: 2}, {0: 6, 1: 2}]
    mat = IntegerMatrix(2, 3, [dict(col) for col in columns])
    snf = assert_valid_snf(mat)
    assert (snf.rank, snf.factors, snf.unit_rows) == (2, (), frozenset({0, 1}))
    assert mat.columns == tuple(columns)


def test_residual_is_cleared_on_pivot_rows_recorded_after_it():
    # column 0's low entry is 3, on row 2, so it goes to the residual before
    # columns 1 and 2 become the pivots of rows 2 and 1.  Clearing row 2 of column 0
    # fills in row 1, another pivot row, and clearing that leaves (14, 0, 0):
    # |det| = 14.  Column 0 as the column pass left it, (2, 0, 3), has
    # content 1, so a residual not cleared on the pivot rows loses Z/14.
    columns = [{0: 2, 2: 3}, {1: 1, 2: 1}, {0: 4, 1: 1}]
    mat = IntegerMatrix(3, 3, [dict(col) for col in columns])
    snf = assert_valid_snf(mat)
    assert (snf.rank, snf.factors, snf.unit_rows) == (3, (14,), frozenset({1, 2}))
    assert mat.columns == tuple(columns)


def one_column_matrices(count, seed):
    """Seeded n x 1 matrices: a common factor times entries drawn from a pool
    of three multipliers and 0, so with signs, zeros and repeats, every entry
    at most 10^6 in magnitude."""
    rng = random.Random(seed)
    for _ in range(count):
        factor = rng.choice((1, 2, 3, 12, 17, 1024, 999_983, 10**6))
        pool = [rng.randint(-10**6 // factor, 10**6 // factor) for _ in range(3)] + [0]
        yield IntegerMatrix.from_rows([[factor * rng.choice(pool)] for _ in range(rng.randint(1, 12))], 1)


def test_a_one_column_residual_is_the_gcd_of_its_entries(monkeypatch):
    # the gcd is D_1, the gcd of the 1 x 1 minors; rank_mod_p checks it at
    # each of its primes, and the remainder phase is never reached
    monkeypatch.setattr(exact, "heapq", None)
    kinds = set()
    for mat in one_column_matrices(600, seed=48):
        g = math.gcd(*mat.columns[0].values())
        snf = exact._smith_kernel(mat)
        assert (snf.rank, snf.factors) == (int(g > 0), (g,) if g > 1 else ())
        primes, rest = primes_of(max(g, 1))  # g = 0: a zero column
        assert rest == 1
        for p in primes | set(ORACLE_PRIMES):
            assert rank_mod_p(mat, p) == int(g % p != 0)
        kinds.add(min(g, 2))
    assert kinds == {0, 1, 2}


@pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
def test_the_klein_grids_one_column_residual_gives_z2(monkeypatch, n):
    # the sizes of the homology-large workload: d_2 has full rank and Z/2
    monkeypatch.setattr(exact, "heapq", None)
    d = boundary_matrix(grid_surface(n, True), 2)
    snf = exact._smith_kernel(d)
    assert (snf.rank, snf.factors) == (d.cols, (2,))


def all_pairs_chain(d):
    """The former chain: replace every pair by (gcd, lcm), O(k^2) gcds."""
    d = list(d)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = math.gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return tuple(x for x in d if x > 1)


PIVOTS = st.one_of(st.integers(2, 60), st.integers(2, 10 ** 30),
                   st.sampled_from([2, 4, 6, 12, 2 ** 70, 3 ** 40 * 2]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(PIVOTS, max_size=40))
def test_divisibility_chain_agrees_with_all_pairs_gcds(pivots):
    assert _divisibility_chain(pivots) == all_pairs_chain(pivots)


def count_gcds(monkeypatch):
    """The gcd calls made through the module's name, counted in a list."""
    calls = []
    monkeypatch.setattr(exact, "gcd", lambda *args: calls.append(args) or math.gcd(*args))
    return calls


@pytest.mark.parametrize("pivots, chain, refined", [
    ([12, 2, 6, 2], (2, 2, 6, 12), False),  # a chain in any order, with repeats
    ([7], (7,), False),
    ([], (), False),
    ([4, 6], (2, 12), True),
    ([6, 4, 2], (2, 2, 12), True),
])
def test_a_diagonal_that_divides_up_is_its_own_chain(monkeypatch, pivots, chain, refined):
    # only a diagonal whose sorted entries do not divide up takes a gcd
    calls = count_gcds(monkeypatch)
    assert _divisibility_chain(pivots) == chain == all_pairs_chain(pivots)
    assert bool(calls) == refined


def seeded_values(count, seed=0):
    rng = random.Random(seed)
    return [rng.randint(2, 10 ** 6) for _ in range(count)]


LONG_DIAGONAL = seeded_values(2000)


def test_a_long_diagonal_costs_at_most_log2_gcds_per_value(monkeypatch):
    # each merge leaves a proper divisor of the value merged, so a value g
    # takes at most floor(log2 g) merges of one gcd each
    calls = count_gcds(monkeypatch)
    _divisibility_chain(LONG_DIAGONAL)
    assert 0 < len(calls) <= sum(v.bit_length() - 1 for v in LONG_DIAGONAL)


def test_snf_of_a_long_diagonal_is_its_chain_and_agrees_mod_p():
    mat = IntegerMatrix.diagonal(LONG_DIAGONAL)
    snf = smith_normal_form(mat)
    assert (snf.rank, snf.factors) == (2000, all_pairs_chain(LONG_DIAGONAL))
    for p in (p for p in range(2, 100) if all(p % q for q in range(2, p))):
        assert rank_mod_p(mat, p) == 2000 - sum(f % p == 0 for f in snf.factors)


@pytest.mark.parametrize("reverse", [False, True])
def test_snf_of_a_bidiagonal_presentation_of_a_large_cyclic_group(reverse):
    # column i is 2 e_i - e_{i+1}, the last one 2 e_n: e_{i+1} = 2 e_i and
    # 2^n e_1 = 0 present Z/2^n
    n = 200
    columns = [{i: 2, i + 1: -1} for i in range(n - 1)] + [{n - 1: 2}]
    mat = IntegerMatrix(n, n, columns[::-1] if reverse else columns)
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


def test_kernel_skips_stored_zeros():
    assert cokernel(IntegerMatrix(1, 1, [{0: 0}])) == AbelianGroupStructure(1)
    assert cokernel(IntegerMatrix(2, 2, [{0: 0, 1: 3}, {0: 2, 1: 0}])) == AbelianGroupStructure(0, (6,))


def test_stored_zeros_are_dropped_at_construction():
    zero = IntegerMatrix(2, 1, [{0: 0}])
    assert zero.is_zero()
    assert zero == IntegerMatrix.zeros(2, 1)
    assert hash(zero) == hash(IntegerMatrix.zeros(2, 1))
    mixed = IntegerMatrix(2, 2, [{0: 0, 1: 3}, {0: 2, 1: 0}])
    assert mixed.columns == ({1: 3}, {0: 2})
    assert not mixed.is_zero()
    assert mixed == IntegerMatrix.from_rows([[0, 2], [3, 0]])
    assert hash(mixed) == hash(IntegerMatrix.from_rows([[0, 2], [3, 0]]))
    # a column without a stored zero is kept, not copied
    col = {0: 1}
    assert IntegerMatrix(1, 2, [col, {0: 0}]).columns[0] is col


@pytest.mark.parametrize("row", [5, 2, -1])
def test_kernel_rejects_rows_outside_the_matrix(row):
    with pytest.raises(ValueError, match=f"row index {row} of column 0 is outside 0..1"):
        smith_normal_form(IntegerMatrix(2, 1, [{row: 1}]))


def test_group_structure_validation():
    with pytest.raises(ValueError):
        AbelianGroupStructure(0, (3, 2))  # not a divisibility chain
    with pytest.raises(ValueError):
        AbelianGroupStructure(0, (1,))
    assert str(AbelianGroupStructure(2, (2, 4))) == "Z^2 + Z/2 + Z/4"
    assert AbelianGroupStructure(0, (2, 4)).torsion_order == 8


def test_determinant_known():
    assert determinant(IntegerMatrix.diagonal([1] * 4)) == 1
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


@settings(max_examples=100, deadline=None, derandomize=True)
@given(integer_matrices(), st.data())
def test_matmul_agrees_with_the_dense_product(a, data):
    b = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                           min_size=a.cols, max_size=a.cols))
    want = [[sum(row[k] * b[k][j] for k in range(a.cols)) for j in range(3)] for row in a.to_lists()]
    assert a @ IntegerMatrix.from_rows(b, 3) == IntegerMatrix.from_rows(want, 3)


def test_matmul_shape_check():
    with pytest.raises(ValueError):
        IntegerMatrix.zeros(2, 3) @ IntegerMatrix.zeros(2, 3)


def sparse_copy(mat):
    """The same matrix built from row -> value dicts, as a boundary matrix is."""
    columns = [{i: row[j] for i, row in enumerate(mat.to_lists()) if row[j]} for j in range(mat.cols)]
    return IntegerMatrix(mat.rows, mat.cols, columns)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(sparse_matrices(UNIT_RICH), degenerate_matrices()))
def test_matrix_from_columns_agrees_with_from_rows(mat):
    sparse = sparse_copy(mat)
    # reduce before anything reads entries: a reduction that edited the
    # columns in place would change the second reduction and the entries
    first = smith_normal_form(sparse)
    assert smith_normal_form(sparse) == first == smith_normal_form(mat)
    assert sparse.to_lists() == mat.to_lists()
    assert sparse == mat and mat == sparse
    assert hash(sparse) == hash(mat)
    assert sparse.columns == mat.columns
    assert cokernel(sparse_copy(mat)) == cokernel(mat)


def test_matrix_from_columns_validates_its_shape():
    with pytest.raises(ValueError):
        IntegerMatrix(2, 3, [{0: 1}, {}])
    with pytest.raises(ValueError):
        IntegerMatrix(-1, 0, [])
    empty = IntegerMatrix(0, 3, [{}, {}, {}])
    assert empty == IntegerMatrix.zeros(0, 3)
    assert IntegerMatrix.zeros(0, 3).columns == ({}, {}, {})


@pytest.mark.parametrize("call, message", [
    (lambda: IntegerMatrix.from_rows([]), "column count required for a matrix with no rows"),
    (lambda: IntegerMatrix.from_rows([[1, 2], [3]]), "ragged rows in matrix entries"),
    (lambda: determinant(IntegerMatrix.from_rows([[1, 2]])), "determinant of a non-square matrix"),
    (lambda: AbelianGroupStructure(-1), "negative free rank"),
    (lambda: rank_mod_p(IntegerMatrix.from_rows([[1]]), 1), "modulus must be a prime >= 2"),
], ids=["no-rows", "ragged", "non-square", "negative-betti", "modulus-one"])
def test_malformed_exact_input_raises_a_value_error(call, message):
    with pytest.raises(ValueError, match=message) as info:
        call()
    assert type(info.value) is ValueError
