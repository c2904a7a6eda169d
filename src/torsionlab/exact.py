"""Exact integer linear algebra: Smith normal form, cokernels, ranks.

Everything here runs on arbitrary-precision Python integers.  Intermediate
entries of a Smith reduction can blow up far beyond 64 bits, so no numpy
integer dtypes are used anywhere in this module.

There are two elimination kernels.  ``smith_normal_form`` reduces sparse
columns to the rank and the invariant factors; cokernels and, in
``homology``, boundary ranks and torsion come from it alone: a column
reduction takes the ±1 pivots, and division with remainder the rest.
``_echelon`` is a fraction-free (Bareiss) row echelon form behind the
rational rank, the determinant, the greedy column basis and the scaled
solve.  The two share no code, so each is an oracle for the other.  The
rank over F_p is a sparse column reduction of its own, ``rank_mod_p``.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from math import gcd
from typing import Iterable, Sequence


class ExactArithmeticError(Exception):
    """An internal failure: a cross-check oracle found an inconsistency, or
    an exact decision the program owes could not be made."""


class InputError(ValueError):
    """Outside input (a file, an argument, a configuration) at fault."""


@dataclass(frozen=True)
class IntegerMatrix:
    """Integer matrix stored as sparse columns: one row -> value dict per
    column, without zeros.  A column given with a stored zero is replaced
    by a copy without it, so equal matrices have one stored form.

    ``to_lists`` is the one dense form, built fresh on each call.
    Immutable: all operations return new matrices, and the dicts of
    ``columns`` must not be changed: ``smith_normal_form`` keeps its result
    on the matrix.
    """

    rows: int
    cols: int
    columns: tuple[dict[int, int], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        columns = tuple(self.columns)
        if not all(map(all, map(dict.values, columns))):
            columns = tuple(col if all(col.values()) else {i: v for i, v in col.items() if v}
                            for col in columns)
        object.__setattr__(self, "columns", columns)
        if len(self.columns) != self.cols:
            raise ValueError("column count does not match columns")

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, tuple(frozenset(col.items()) for col in self.columns)))

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], cols: int | None = None) -> "IntegerMatrix":
        data = [[int(v) for v in row] for row in rows]
        if cols is None:
            if not data:
                raise ValueError("column count required for a matrix with no rows")
            cols = len(data[0])
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows in matrix entries")
        return cls(len(data), cols, tuple({i: row[j] for i, row in enumerate(data) if row[j]}
                                          for j in range(cols)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, tuple({} for _ in range(cols)))

    @classmethod
    def diagonal(cls, diag: Sequence[int]) -> "IntegerMatrix":
        return cls(len(diag), len(diag), tuple({j: int(d)} if d else {} for j, d in enumerate(diag)))

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        columns = []
        for col in other.columns:
            out: dict[int, int] = {}
            for k, b in col.items():
                for i, a in self.columns[k].items():
                    out[i] = out.get(i, 0) + a * b
            columns.append({i: v for i, v in out.items() if v})
        return IntegerMatrix(self.rows, other.cols, columns)

    def is_zero(self) -> bool:
        return not any(self.columns)

    def to_lists(self) -> list[list[int]]:
        """Fresh dense rows, which the caller may change."""
        data = [[0] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                data[i][j] = v
        return data


def _echelon(rows: list[list[int]], cols: int) -> tuple[list[int], int, int]:
    """Fraction-free (Bareiss) row echelon form of ``rows``, computed in place.

    Returns the pivot columns, the sign of the row permutation and the last
    pivot (1 when there is none).  Each division by the previous pivot is
    exact by Sylvester's identity, so for a square matrix of full rank
    sign * last pivot is the determinant.
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
            # with a zero in column c the row would only be scaled by p / prev
            if not f and p == prev:
                continue
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

    def to_json(self, degree: int) -> dict:
        return {"degree": degree, "betti": self.betti, "torsion": list(self.invariant_factors)}


@dataclass(frozen=True)
class SNFResult:
    """Rank and the invariant factors above 1, a chain d_1 | d_2 | ... ;
    the other nonzero entries of the Smith form are 1.

    ``unit_rows`` are the rows of the column-pass pivots, on which the
    reduced pivot columns form a unit triangular matrix; they are a
    by-product of the elimination that found the form, not part of it, so
    equality ignores them.  ``homology`` clears the columns of d_k at the
    unit rows of d_{k+1}.
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
    """The entries above 1 of the Smith form of diag(d), ascending; each
    entry of d is above 1.

    Over a pairwise coprime base b, each entry is a product of powers
    b^e, and Z/d splits into the Z/b^e (Chinese remainder theorem).  The
    i-th largest invariant factor is then the product over b of b raised
    to the i-th largest exponent of b.  The base is built from the
    distinct entries, so repeated pivots cost no gcds.  Entries that,
    sorted, already divide up are that chain, and need no base.
    """
    ascending = sorted(d)
    if all(b % a == 0 for a, b in zip(ascending, ascending[1:])):
        return tuple(ascending)
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


def smith_normal_form(mat: IntegerMatrix) -> SNFResult:
    """Rank and invariant factors above 1, by elimination on sparse columns.

    The result is kept on ``mat``, so a second call on the same matrix
    returns it without eliminating again; this is why the matrix and the
    dicts of its ``columns`` must not be changed.  Empty columns are
    skipped, so a cleared d_k costs nothing at the columns
    ``boundary_matrix`` left empty.  A row index outside 0..rows-1 raises
    ValueError before any elimination.

    The column pass is the left-to-right reduction of persistent homology,
    run over Z (Edelsbrunner-Harer, *Computational Topology*, ch. VII;
    Bauer, "Ripser", 2021).  While low(c), the largest row of column c, is
    a pivot row, column c takes the multiple of the ±1 pivot's column that
    zeroes it there.  A column left with a ±1 low becomes that row's pivot,
    one left with another low goes to the residual, which is then reduced
    to zero on every pivot row.  These are unimodular column operations and
    the pivot columns are unit triangular on their rows, so the matrix is
    equivalent to I ⊕ R, R the residual on the other rows.

    A one-column R is finished there: its Smith form is the gcd of its
    entries, as for the figure-eight fillings with p > 1.  A wider R
    goes through the remainder phase: the pivot is an entry of least
    magnitude; its row and column are reduced by division with remainder,
    and the least remainder left takes over.  Each column's entry in row r
    gives its quotient and remainder in one ``divmod``; the rest of the
    pivot column is applied without row r.  Among equal remainders the
    first met takes over.  The whole row is reduced before a remainder
    takes over, which keeps the entries small; taking over at the first
    remainder runs for minutes on some dense 20 x 20 matrices with entries
    up to 1000.
    """
    snf = mat.__dict__.get("_snf")
    if snf is None:
        snf = _smith_kernel(mat)
        object.__setattr__(mat, "_snf", snf)
    return snf


def _clear_pivot_row(col: dict[int, int], pivot_col: dict[int, int], r: int) -> None:
    """Subtract from col the multiple of pivot_col, which is ±1 at row r,
    that zeroes col at row r."""
    q = col[r] * pivot_col[r]
    for i, v in pivot_col.items():
        w = col.get(i, 0) - q * v
        if w:
            col[i] = w
        else:
            del col[i]


def _smith_kernel(mat: IntegerMatrix) -> SNFResult:
    last = mat.rows - 1
    columns = [col for col in mat.columns if col]
    lows = list(map(max, columns))
    if columns and (max(lows) > last or min(map(min, columns)) < 0):
        j, i = next((j, i) for j, col in enumerate(mat.columns) for i in col if not 0 <= i <= last)
        raise ValueError(f"row index {i} of column {j} is outside 0..{last}")
    # column pass: pivot row -> its reduced column, which is ±1 there
    pivots: dict[int, dict[int, int]] = {}
    cols: list[dict[int, int]] = []  # the residual
    for own, low in zip(columns, lows):
        col = own
        while low in pivots:
            if col is own:
                col = own.copy()
            _clear_pivot_row(col, pivots[low], low)
            if not col:
                break
            low = max(col)
        if not col:
            continue  # reduced to zero
        if col[low] in (1, -1):
            pivots[low] = col
        else:
            cols.append(own.copy() if col is own else col)
    rank = len(pivots)
    unit_rows = frozenset(pivots)
    if not cols:
        return SNFResult(rank, (), unit_rows)
    # zero the residual on the pivot rows; a pivot column has no entry
    # below its row, so each step lowers the largest pivot row left
    for col in cols:
        while hit := unit_rows.intersection(col):
            r = max(hit)
            _clear_pivot_row(col, pivots[r], r)
    if len(cols) == 1:
        # one column, maybe zeroed above: its Smith form is the gcd of its entries
        g = gcd(*cols[0].values())
        return SNFResult(rank + (g > 0), (g,) if g > 1 else (), unit_rows)

    # The row_cols index and the key heap below are kept for long residuals.
    # A scan of every column per pivot and per row was about 20 % faster on
    # 3000 soule-size matrices and no slower on the figure-eight p + 1 covers
    # at p = 409 and 601, but on a 4000-column residual with 2 on the
    # diagonal and 1 above it the scan took 8.4 s against 0.047 s (2-CPU VM).
    row_cols: dict[int, set[int]] = {}
    for j, col in enumerate(cols):
        for i in col:
            row_cols.setdefault(i, set()).add(j)
    # remainder pivots: (least magnitude, column size, column, stamp), the
    # order of a full scan.  A column's stamp counts its changes and its
    # drop: the keys of the columns a row step changed are pushed with a
    # new stamp before the next pivot is taken, and an entry whose stamp is
    # not its column's is out of date, so no popped key is recomputed.
    changed: set[int] = set()
    stamps = [0] * len(cols)
    least = [(min(map(abs, col.values())), len(col), j, 0) for j, col in enumerate(cols) if col]
    heapq.heapify(least)

    def clear_row(r: int, c: int) -> int | None:
        """Reduce row r by column c; the column of least remainder, if any
        (the first met of least magnitude)."""
        pivot_col = cols[c]
        p = pivot_col.pop(r)  # the rest of the pivot column, put back below
        best, least_rem = None, 0
        # a copy of the row's columns: its order decides ties between equal
        # remainders, so it must not change while the row is walked
        for j in row_cols[r] - {c}:
            col = cols[j]
            q, rem = divmod(col[r], p)
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
                if rem:
                    col[r] = rem
                else:
                    del col[r]
                    row_cols[r].discard(j)
                changed.add(j)
            if rem and (best is None or abs(rem) < least_rem):
                best, least_rem = j, abs(rem)
        pivot_col[r] = p
        return best

    diagonal: list[int] = []
    while True:
        for j in changed:
            stamps[j] += 1
            if col := cols[j]:
                heapq.heappush(least, (min(map(abs, col.values())), len(col), j, stamps[j]))
        changed.clear()
        while least:
            smallest, _, c, stamp = heapq.heappop(least)
            if stamps[c] == stamp:
                break
        else:
            break
        # the pivot row: least magnitude, then fewest columns, then least row
        r, width = -1, 0
        for i, v in cols[c].items():
            if (v == smallest or v == -smallest) and (r < 0 or (len(row_cols[i]), i) < (width, r)):
                r, width = i, len(row_cols[i])
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
            r = min(rems, key=lambda i: (abs(rems[i]), i))
        if abs(cols[c][r]) > 1:
            diagonal.append(abs(cols[c][r]))
        for i in cols[c]:
            row_cols[i].discard(c)
        cols[c] = {}
        stamps[c] += 1
        rank += 1
    return SNFResult(rank, _divisibility_chain(diagonal), unit_rows)


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
    """Rank of the matrix over the prime field F_p, by sparse elimination.

    The columns, reduced mod p, are reduced left to right on their largest
    rows.  A column left nonzero becomes the pivot of its largest row,
    scaled to 1 there.  Shares no code with smith_normal_form or _echelon.
    """
    if p < 2:
        raise ValueError("modulus must be a prime >= 2")
    pivots: dict[int, dict[int, int]] = {}
    for own in mat.columns:
        col = {i: v % p for i, v in own.items() if v % p}
        while col and (low := max(col)) in pivots:
            f = col[low]
            for i, v in pivots[low].items():
                w = (col.get(i, 0) - f * v) % p
                if w:
                    col[i] = w
                else:
                    del col[i]
        if col:
            inverse = pow(col[low], -1, p)
            pivots[low] = {i: v * inverse % p for i, v in col.items()}
    return len(pivots)


def independent_columns(mat: IntegerMatrix) -> list[int]:
    """Greedy maximal set of Q-linearly-independent columns.

    Columns are examined left to right; the selected set spans the column
    space over Q.
    """
    return _echelon(mat.to_lists(), mat.cols)[0]
