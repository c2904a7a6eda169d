"""Exact integer linear algebra: Smith normal form, cokernels, ranks.

Everything here runs on arbitrary-precision Python integers.  Intermediate
entries of a Smith reduction can blow up far beyond 64 bits, so no numpy
integer dtypes are used anywhere in this module.

Cokernels (and, in ``homology``, boundary ranks and torsion) come from two
stages.  ``unit_reduce`` first eliminates every +-1 pivot of a sparse copy
of the matrix.  Such a pivot can be moved to a corner by permutations, and
clearing its row and column by unimodular operations leaves the block sum
(1) + S, with S the Schur complement.  Unimodular operations keep the
Smith form, so the matrix has rank 1 + rank S and the same invariant
factors above 1 as S.  Only the small residual then goes through
``smith_normal_form``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence


class ExactArithmeticError(Exception):
    """Internal inconsistency detected by a cross-check oracle."""


@dataclass(frozen=True)
class IntegerMatrix:
    """Integer matrix, read row-major as nested tuples (``entries``) or as
    sparse columns (``columns``: one row -> value dict per column, without
    zeros).

    A matrix built by ``from_columns`` keeps its columns and builds the
    dense rows x cols tuples the first time something reads ``entries``; a
    matrix built from entries scans its columns from them.  Immutable: all
    operations return new matrices, and the dicts of ``columns`` must not
    be changed.
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entries")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows in matrix entries")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], cols: int | None = None) -> "IntegerMatrix":
        data = tuple(tuple(int(v) for v in row) for row in rows)
        if cols is None:
            if not data:
                raise ValueError("column count required for a matrix with no rows")
            cols = len(data[0])
        return cls(len(data), cols, data)

    @classmethod
    def from_columns(cls, rows: int, cols: int, columns: Sequence[dict[int, int]]) -> "IntegerMatrix":
        """Matrix from sparse columns: row -> value dicts holding no zeros."""
        if rows < 0:
            raise ValueError("negative matrix dimensions")
        if len(columns) != cols:
            raise ValueError("column count does not match columns")
        mat = object.__new__(cls)
        object.__setattr__(mat, "rows", rows)
        object.__setattr__(mat, "cols", cols)
        object.__setattr__(mat, "_columns", tuple(columns))
        return mat

    def __getattr__(self, name: str):
        # reached only for ``entries`` of a matrix built by from_columns,
        # before its first dense read
        if name != "entries":
            raise AttributeError(name)
        entries = tuple(tuple(col.get(i, 0) for col in self._columns) for i in range(self.rows))
        object.__setattr__(self, "entries", entries)
        return entries

    @property
    def columns(self) -> tuple[dict[int, int], ...]:
        """One row -> value dict per column, without zeros; read-only.

        A matrix built dense scans its entries on each read, so one that
        lives long holds no second copy.
        """
        if "_columns" in self.__dict__:
            return self._columns
        row_ids = range(self.rows)
        dense = zip(*self.entries) if self.rows else [()] * self.cols
        return tuple(dict(zip(compress(row_ids, col), compress(col, col))) for col in dense)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def diagonal(cls, diag: Sequence[int], rows: int | None = None, cols: int | None = None) -> "IntegerMatrix":
        n = len(diag)
        rows = n if rows is None else rows
        cols = n if cols is None else cols
        data = [[0] * cols for _ in range(rows)]
        for i, v in enumerate(diag):
            data[i][i] = int(v)
        return cls.from_rows(data, cols)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(self.cols, self.rows,
                             tuple(self.column(j) for j in range(self.cols)))

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ot = other.transpose().entries
        data = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
            for row in self.entries
        )
        return IntegerMatrix(self.rows, other.cols, data)

    def diagonal_entries(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


def _echelon(rows: list[list[int]], cols: int, modulus: int | None = None) -> tuple[list[int], int, int]:
    """Fraction-free (Bareiss) row echelon form of ``rows``, computed in place.

    Returns the pivot columns, the sign of the row permutation and the last
    pivot (1 when there is none).  Over Z each division by the previous
    pivot is exact by Sylvester's identity, so for a square matrix of full
    rank sign * last pivot is the determinant.  With a modulus the entries
    must be reduced already; rows are scaled by the pivot instead of
    divided, which keeps the rank over F_modulus.
    """
    pivots: list[int] = []
    sign = 1
    prev = 1
    r = 0
    m = len(rows)
    for c in range(cols):
        if r == m:
            break
        pr = next((i for i in range(r, m) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            sign = -sign
        top = rows[r][c:]
        p = top[0]
        for i in range(r + 1, m):
            row = rows[i]
            f = row[c]
            # with a zero in column c the row would only be scaled: by
            # p / prev over Z, by the unit p over F_modulus
            if not f and (modulus or p == prev):
                continue
            if modulus:
                row[c:] = [(p * x - f * y) % modulus for x, y in zip(row[c:], top)]
            else:
                row[c:] = [(p * x - f * y) // prev for x, y in zip(row[c:], top)]
        pivots.append(c)
        prev = p
        r += 1
    return pivots, sign, prev


def determinant(mat: IntegerMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if mat.rows != mat.cols:
        raise ValueError("determinant of a non-square matrix")
    pivots, sign, last = _echelon(mat.to_lists(), mat.cols)
    return sign * last if len(pivots) == mat.rows else 0


def solve_scaled(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> tuple[int, list[int]]:
    """Fraction-free solve of the square system rows · x = rhs.

    Returns (d, y) with rows · y = d · rhs, where d = ±det(rows) is the last
    Bareiss pivot, so x = y / d; (0, []) when the matrix is singular.  The
    back-substitution divides exactly, since each d · x_i is a Cramer
    determinant up to the same sign.
    """
    n = len(rows)
    aug = [[*row, b] for row, b in zip(rows, rhs)]
    pivots, _, d = _echelon(aug, n + 1)
    if pivots != list(range(n)):
        return 0, []
    y = [0] * n
    for i in reversed(range(n)):
        row = aug[i]
        y[i] = (d * row[n] - sum(row[j] * y[j] for j in range(i + 1, n))) // row[i]
    return d, y


@dataclass(frozen=True)
class AbelianGroupStructure:
    """A finitely generated abelian group: Z^betti plus a divisibility chain.

    invariant_factors is the chain (d_1 | d_2 | ... | d_k), every d_i > 1.
    """

    betti: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.betti < 0:
            raise ValueError("negative free rank")
        prev = None
        for d in self.invariant_factors:
            if d <= 1:
                raise ValueError("invariant factors must exceed 1")
            if prev is not None and d % prev != 0:
                raise ValueError("invariant factors must form a divisibility chain")
            prev = d

    @property
    def torsion_order(self) -> int:
        order = 1
        for d in self.invariant_factors:
            order *= d
        return order

    def is_trivial(self) -> bool:
        return self.betti == 0 and not self.invariant_factors

    def __str__(self) -> str:
        parts = []
        if self.betti == 1:
            parts.append("Z")
        elif self.betti > 1:
            parts.append(f"Z^{self.betti}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"

    def to_json(self, degree: int | None = None) -> dict:
        doc: dict = {}
        if degree is not None:
            doc["degree"] = degree
        doc["betti"] = self.betti
        doc["torsion"] = list(self.invariant_factors)
        return doc


@dataclass(frozen=True)
class SNFResult:
    """Smith decomposition U @ A @ V == S with U, V unimodular.

    The diagonal of S is nonnegative and forms a divisibility chain
    s_1 | s_2 | ... | s_rank, zeros afterwards.
    """

    S: IntegerMatrix
    U: IntegerMatrix
    V: IntegerMatrix
    rank: int

    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.S.diagonal_entries() if d > 1)


def _swap_rows(m: list[list[int]], i: int, j: int) -> None:
    if i != j:
        m[i], m[j] = m[j], m[i]


def _swap_cols(m: list[list[int]], i: int, j: int) -> None:
    if i != j:
        for row in m:
            row[i], row[j] = row[j], row[i]


def _add_row(m: list[list[int]], dst: int, src: int, factor: int) -> None:
    if factor:
        row_s = m[src]
        row_d = m[dst]
        for k, v in enumerate(row_s):
            if v:
                row_d[k] += factor * v


def _add_col(m: list[list[int]], dst: int, src: int, factor: int) -> None:
    if factor:
        for row in m:
            if row[src]:
                row[dst] += factor * row[src]


def _negate_row(m: list[list[int]], i: int) -> None:
    m[i] = [-v for v in m[i]]


def smith_normal_form(mat: IntegerMatrix) -> SNFResult:
    """Exact Smith normal form with unimodular transforms.

    Pivot choice is the smallest nonzero magnitude in the working
    submatrix, which keeps coefficient growth tolerable; correctness does
    not depend on the choice.  Deterministic for a given input.
    """
    m, n = mat.rows, mat.cols
    a = mat.to_lists()
    u = IntegerMatrix.identity(m).to_lists()
    v = IntegerMatrix.identity(n).to_lists()

    t = 0
    while t < m and t < n:
        # locate smallest-magnitude nonzero pivot in a[t:][t:]
        pivot = None
        best = 0
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                w = row[j]
                if w and (pivot is None or abs(w) < best):
                    pivot = (i, j)
                    best = abs(w)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        _swap_rows(a, t, pivot[0])
        _swap_rows(u, t, pivot[0])
        _swap_cols(a, t, pivot[1])
        _swap_cols(v, t, pivot[1])

        while True:
            if a[t][t] < 0:
                _negate_row(a, t)
                _negate_row(u, t)
            p = a[t][t]
            dirty = False
            for i in range(m):
                if i != t and a[i][t]:
                    q = a[i][t] // p
                    _add_row(a, i, t, -q)
                    _add_row(u, i, t, -q)
                    if a[i][t]:
                        # remainder is a strictly smaller pivot candidate
                        _swap_rows(a, t, i)
                        _swap_rows(u, t, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(n):
                if j != t and a[t][j]:
                    q = a[t][j] // p
                    _add_col(a, j, t, -q)
                    _add_col(v, j, t, -q)
                    if a[t][j]:
                        _swap_cols(a, t, j)
                        _swap_cols(v, t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # row and column are clear; force the divisibility chain
            p = a[t][t]
            offender = None
            for i in range(t + 1, m):
                row = a[i]
                for j in range(t + 1, n):
                    if row[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            _add_row(a, t, offender, 1)
            _add_row(u, t, offender, 1)
        t += 1

    rank = sum(1 for i in range(min(m, n)) if a[i][i] != 0)
    return SNFResult(
        S=IntegerMatrix.from_rows(a, n),
        U=IntegerMatrix.from_rows(u, m),
        V=IntegerMatrix.from_rows(v, n),
        rank=rank,
    )


def unit_reduce(mat: IntegerMatrix) -> tuple[int, IntegerMatrix]:
    """Eliminate every +-1 pivot; return their number and the residual.

    Works on a copy of mat.columns (row -> value dicts) with the set of
    columns met by each row.  Pivots go in Markowitz order: the column
    with the fewest entries that holds a unit, then its unit in the row
    with the fewest entries.  Column operations clear the pivot row, and
    the pivot row and column are deleted.  A column without a unit is
    looked at again whenever an elimination changes it.  The residual
    holds the surviving nonzero rows and columns in their original order;
    mat has rank units + rank(residual), and the invariant factors above 1
    of both agree.
    """
    cols = [dict(col) for col in mat.columns]
    row_cols: list[set[int]] = [set() for _ in range(mat.rows)]
    for j, col in enumerate(cols):
        for i in col:
            row_cols[i].add(j)
    heap = [(len(col), j) for j, col in enumerate(cols) if col]
    heapq.heapify(heap)
    units = 0
    while heap:
        size, c = heapq.heappop(heap)
        pivot_col = cols[c]
        if len(pivot_col) != size:
            continue  # a stale entry: the column changed or was eliminated
        unit_rows = [i for i, v in pivot_col.items() if v == 1 or v == -1]
        if not unit_rows:
            continue
        r = min(unit_rows, key=lambda i: (len(row_cols[i]), i))
        u = pivot_col[r]
        for j in row_cols[r] - {c}:
            col = cols[j]
            f = col[r] * u
            for i, v in pivot_col.items():
                w = col.get(i, 0) - f * v
                if w:
                    if i not in col:
                        row_cols[i].add(j)
                    col[i] = w
                else:
                    del col[i]
                    row_cols[i].discard(j)
            if col:
                heapq.heappush(heap, (len(col), j))
        for i in pivot_col:
            row_cols[i].discard(c)
        cols[c] = {}
        units += 1
    keep_cols = [j for j, col in enumerate(cols) if col]
    keep_rows = [i for i, js in enumerate(row_cols) if js]
    entries = tuple(tuple(cols[j].get(i, 0) for j in keep_cols) for i in keep_rows)
    return units, IntegerMatrix(len(keep_rows), len(keep_cols), entries)


def cokernel(mat: IntegerMatrix) -> AbelianGroupStructure:
    """Structure of Z^rows / (column span of mat).

    Columns are the images of the generators of the source module.  The
    +-1 pivots are eliminated first (``unit_reduce``), and the Smith form
    of the residual gives the rest of the rank and the torsion.
    """
    units, residual = unit_reduce(mat)
    snf = smith_normal_form(residual)
    return AbelianGroupStructure(
        betti=mat.rows - units - snf.rank,
        invariant_factors=snf.invariant_factors(),
    )


def rational_rank(mat: IntegerMatrix) -> int:
    """Rank over Q, by fraction-free Gaussian elimination.

    Deliberately independent of smith_normal_form so the two can be used
    to cross-check each other.
    """
    return len(_echelon(mat.to_lists(), mat.cols)[0])


def rank_mod_p(mat: IntegerMatrix, p: int) -> int:
    """Rank of the matrix over the prime field F_p."""
    if p < 2:
        raise ValueError("modulus must be a prime >= 2")
    return len(_echelon([[x % p for x in row] for row in mat.entries], mat.cols, p)[0])


def independent_columns(mat: IntegerMatrix, order: Sequence[int] | None = None) -> list[int]:
    """Greedy maximal set of Q-linearly-independent columns.

    Columns are examined in the given order (default: left to right); the
    selected set spans the column space over Q.
    """
    order = list(range(mat.cols) if order is None else order)
    rows = [[row[j] for j in order] for row in mat.entries]
    return sorted(order[c] for c in _echelon(rows, len(order))[0])
