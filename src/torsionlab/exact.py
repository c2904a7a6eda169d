"""Exact integer linear algebra: Smith normal form, cokernels, ranks.

Everything here runs on arbitrary-precision Python integers.  Intermediate
entries of a Smith reduction can blow up far beyond 64 bits, so no numpy
integer dtypes are used anywhere in this module.

There are two elimination kernels.  ``smith_normal_form`` reduces sparse
columns to the rank and the invariant factors; cokernels and, in
``homology``, boundary ranks and torsion come from it alone.  ``_echelon``
is a fraction-free (Bareiss) row echelon form behind the rational and
mod-p ranks, the determinant, the greedy column basis and the scaled
solve.  The two share no code, so each is an oracle for the other.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from math import gcd
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
    be changed: ``smith_normal_form`` keeps its result on the matrix.
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
    """Rank and the invariant factors above 1, a chain d_1 | d_2 | ... ;
    the other nonzero entries of the Smith form are 1.

    ``unit_rows`` are the rows of the unit pivots taken before the first
    remainder step; they are a by-product of the elimination that found the
    form, not part of it, so equality ignores them.
    """

    rank: int
    factors: tuple[int, ...]
    unit_rows: frozenset[int] = field(default=frozenset(), compare=False, repr=False)


def _coprime_base(values: Iterable[int]) -> list[int]:
    """Pairwise coprime integers above 1 of which every value is a product.

    Two members with a common factor g are split into g, b / g and x / g;
    each split lowers the sum of the logarithms, so the refinement ends.
    """
    base: list[int] = []
    todo = [v for v in values if v > 1]
    while todo:
        x = todo.pop()
        for i, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                del base[i]
                todo += [y for y in (g, b // g, x // g) if y > 1]
                break
        else:
            base.append(x)
    return base


def _divisibility_chain(d: Sequence[int]) -> tuple[int, ...]:
    """The entries above 1 of the Smith form of diag(d), ascending.

    Over a pairwise coprime base b, each entry is a product of powers
    b^e, and Z/d splits into the Z/b^e (Chinese remainder theorem).  The
    i-th largest invariant factor is then the product over b of b raised
    to the i-th largest exponent of b.  The base is built from the
    distinct entries, so repeated pivots cost no gcds.
    """
    counts = Counter(d)
    exponents: dict[int, list[int]] = {}
    for b in _coprime_base(counts):
        es = exponents[b] = []
        for v, n in counts.items():
            e = 0
            while v % b == 0:
                v //= b
                e += 1
            if e:
                es += [e] * n
    chain = [1] * max(map(len, exponents.values()), default=0)
    for b, es in exponents.items():
        es.sort(reverse=True)
        for i, e in enumerate(es):
            chain[i] *= b ** e
    return tuple(reversed(chain))


def smith_normal_form(mat: IntegerMatrix, retired: Iterable[int] = ()) -> SNFResult:
    """Rank and invariant factors above 1, by elimination on sparse columns.

    The result is kept on ``mat``, so a second call on the same matrix
    returns it without eliminating again, whatever ``retired`` is; this is
    why the matrix and the dicts of its ``columns`` must not be changed.

    ``retired`` names columns that the caller guarantees lie in the Z-span
    of the others, so dropping them changes neither the rank nor the
    invariant factors; the elimination never reads them.  ``homology``
    retires the columns of d_k at the unit rows of d_{k+1}'s result.

    A pivot p at (r, c) is eliminated by column operations that clear row
    r; once the rest of column c is a multiple of p, row r and column c are
    dropped and |p| is split off the diagonal.  Unit pivots go first, in
    Markowitz order: the column with the fewest entries holding a unit,
    then its unit in the row with the fewest entries.  Then the pivot is an
    entry of least magnitude; its row and column are reduced by division
    with remainder, and the least remainder left takes over.  The whole
    row is reduced before a remainder takes over, which keeps the entries
    small; taking over at the first remainder runs for minutes on some
    dense 20 x 20 matrices with entries up to 1000.
    """
    snf = mat.__dict__.get("_snf")
    if snf is None:
        snf = _smith_kernel(mat, retired)
        object.__setattr__(mat, "_snf", snf)
    return snf


def _smith_kernel(mat: IntegerMatrix, retired: Iterable[int] = ()) -> SNFResult:
    retired = frozenset(retired)
    cols = [{} if j in retired else dict(col) for j, col in enumerate(mat.columns)]
    row_cols: list[set[int]] = [set() for _ in range(mat.rows)]
    for j, col in enumerate(cols):
        for i in col:
            row_cols[i].add(j)
    # unit pivots: (column size, column); every change to a column pushes
    # it again, and an entry whose size is out of date is skipped
    heap = [(len(col), j) for j, col in enumerate(cols) if col]
    heapq.heapify(heap)
    # other pivots: (least magnitude, column size, column), the order of a
    # full scan.  A changed column is pushed on ``heap``, and the unit loop
    # moves each live column it passes over into ``changed``; so at each
    # non-unit pivot every live column has its current key in ``least``,
    # and an entry whose key is out of date is skipped.
    least: list[tuple[int, int, int]] = []
    changed = {j for _, j in heap}

    def key(j: int) -> tuple[int, int, int]:
        col = cols[j]
        return min(map(abs, col.values())), len(col), j

    def clear_row(r: int, c: int) -> int | None:
        """Reduce row r by column c; the column of least remainder, if any."""
        pivot_col = cols[c]
        p = pivot_col[r]
        best = None
        for j in row_cols[r] - {c}:
            col = cols[j]
            q = col[r] // p
            if q:
                for i, v in pivot_col.items():
                    w = col.get(i, 0) - q * v
                    if w:
                        if i not in col:
                            row_cols[i].add(j)
                        col[i] = w
                    else:
                        del col[i]
                        row_cols[i].discard(j)
                if col:
                    heapq.heappush(heap, (len(col), j))
            if r in col and (best is None or abs(col[r]) < abs(cols[best][r])):
                best = j
        return best

    def drop(c: int) -> None:
        for i in cols[c]:
            row_cols[i].discard(c)
        cols[c] = {}

    rank = 0
    diagonal: list[int] = []
    # rows of the unit pivots taken before the first remainder step: each is
    # reached by column operations alone and clears its row in every live
    # column, so the reduced pivot columns restricted to these rows form a
    # unit triangular matrix.  A remainder step is a row operation, after
    # which the columns are no longer images in the original row basis.
    unit_rows: list[int] = []
    rows_moved = False
    while True:
        while heap:
            size, c = heapq.heappop(heap)
            pivot_col = cols[c]
            if len(pivot_col) != size:
                continue  # a stale entry: the column changed or was eliminated
            units = [i for i, v in pivot_col.items() if v == 1 or v == -1]
            if not units:
                changed.add(c)
                continue
            r = min(units, key=lambda i: (len(row_cols[i]), i))
            if not rows_moved:
                unit_rows.append(r)
            clear_row(r, c)
            drop(c)
            rank += 1
        for j in changed:
            if cols[j]:
                heapq.heappush(least, key(j))
        changed.clear()
        while least:
            entry = heapq.heappop(least)
            if cols[entry[2]] and key(entry[2]) == entry:
                break
        else:
            break
        smallest, _, c = entry
        r = min((i for i, v in cols[c].items() if abs(v) == smallest),
                key=lambda i: (len(row_cols[i]), i))
        while True:
            j = clear_row(r, c)
            if j is not None:
                c = j
                continue
            # row r is now p e_c: a row operation with it changes column c only
            p = cols[c][r]
            rems = {i: v % p for i, v in cols[c].items() if v % p}
            if not rems:
                break
            cols[c].update(rems)
            rows_moved = True
            r = min(rems, key=lambda i: (abs(rems[i]), i))
        if abs(cols[c][r]) > 1:
            diagonal.append(abs(cols[c][r]))
        drop(c)
        rank += 1
    return SNFResult(rank, _divisibility_chain(diagonal), frozenset(unit_rows))


def cokernel(mat: IntegerMatrix) -> AbelianGroupStructure:
    """Structure of Z^rows / (column span of mat).

    Columns are the images of the generators of the source module; the
    free rank is rows - rank and the torsion is the Smith form's.
    """
    snf = smith_normal_form(mat)
    return AbelianGroupStructure(betti=mat.rows - snf.rank, invariant_factors=snf.factors)


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
