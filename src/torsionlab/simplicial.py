"""Finite simplicial complexes, pairs, boundary matrices and generators.

Simplices are tuples of strictly increasing nonnegative vertex ids.  A
complex stores *all* of its simplices explicitly (not only maximal ones):
at desk scale this is affordable and makes boundary-matrix assembly a
straight read-off.  Bases of chain groups are always the lexicographically
sorted simplex lists, so every matrix is bit-reproducible across runs.
Every complex sorts its simplices into these lists by dimension when it
is constructed, and the dimension, f-vector, used vertices and edge
degrees read that index.  The public constructor, for input from
outside, validates the simplex set and groups it in one pass.  The
program's own complexes come from a closure (``build_complex``, the file
reader, the nerve, ``random_dv_complex``, ``relative_nerve``), which
builds the simplices level by level, facets from ``combinations``, and
hands each level over sorted as the index; a random full subcomplex
filters its complex's index instead.  The file reader converts each
simplex line with one sort and checks it there, vertex range included,
so its errors name the line.  Boundary columns take their faces from
``combinations`` too, looked up in one dict.

A pair (total, sub) is the chain complex of the quotient: its k-chains
are spanned by the k-simplices of total that are not in sub.  It builds
the same kind of index when it is constructed, the total's filtered once,
and answers ``dimension`` and ``simplices_of_dim`` from it as a complex
does, so ``boundary_matrix`` (and ``homology``) take either without a
branch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .exact import InputError, IntegerMatrix

Simplex = tuple[int, ...]


class MalformedComplexError(InputError):
    """Raised on invalid simplex input or a broken file."""


def as_simplex(vertices: Sequence[int]) -> Simplex:
    """Canonicalize a vertex sequence into a sorted simplex tuple."""
    vs = tuple(sorted(int(v) for v in vertices))
    if not vs:
        raise MalformedComplexError("empty simplex")
    if vs[0] < 0:
        raise MalformedComplexError(f"negative vertex id in {vertices!r}")
    if len(set(vs)) != len(vs):
        raise MalformedComplexError(f"repeated vertex in simplex {vertices!r}")
    return vs


def _outside_range(s: Simplex, vertex_count: int) -> MalformedComplexError:
    return MalformedComplexError(f"vertex {s[-1]} outside declared range {vertex_count}")


@dataclass(frozen=True)
class SimplicialComplex:
    """Downward-closed set of simplices over vertices 0..vertex_count-1.
    It keeps ``_sorted_by_dim``, the k-simplices sorted at position k, and
    ``_boundaries``, the d_k that ``boundary_matrix`` keeps, by degree."""

    vertex_count: int
    simplices: frozenset[Simplex]

    def __post_init__(self):
        # by induction on dimension, a set holding every facet of each of
        # its simplices holds every face; and as s[:-1] is a facet, every
        # simplex is strictly increasing and nonnegative once each vertex is
        # nonnegative and each simplex ends in an ascent.  Downward closure
        # leaves no size empty below the top, so the sizes are 1..len(groups)
        groups: dict[int, list[Simplex]] = {}
        for s in self.simplices:
            if not s:
                raise MalformedComplexError("empty simplex")
            groups.setdefault(len(s), []).append(s)
            if s[-1] >= self.vertex_count:
                raise _outside_range(s, self.vertex_count)
            if len(s) == 1:
                if s[0] < 0:
                    raise MalformedComplexError(f"negative vertex id in {s!r}")
            else:
                if s[-2] == s[-1]:
                    raise MalformedComplexError(f"repeated vertex in simplex {s!r}")
                if s[-2] > s[-1]:
                    raise MalformedComplexError(f"simplex {s!r} is not strictly increasing")
                for i in range(len(s)):
                    f = s[:i] + s[i + 1:]
                    if f not in self.simplices:
                        raise MalformedComplexError(f"missing face {f} of {s}")
        by_dim = tuple(tuple(sorted(groups[n])) for n in range(1, len(groups) + 1))
        vars(self).update(_sorted_by_dim=by_dim, _boundaries={})

    @classmethod
    def _closed(cls, vertex_count: int, by_dim: tuple[tuple[Simplex, ...], ...]) -> "SimplicialComplex":
        """The complex of a downward closed index, the k-simplices sorted at
        position k, which is kept as ``_sorted_by_dim``.  Of __post_init__'s
        checks only the vertex range can fail, so only it is made; the
        largest vertex is the last 0-simplex, and past the range the error
        is __post_init__'s, over the same iteration."""
        simplices = frozenset().union(*by_dim)
        if by_dim and by_dim[0][-1][0] >= vertex_count:
            for s in simplices:
                if s[-1] >= vertex_count:
                    raise _outside_range(s, vertex_count)
        complex_ = object.__new__(cls)
        vars(complex_).update(vertex_count=vertex_count, simplices=simplices,
                              _sorted_by_dim=by_dim, _boundaries={})
        return complex_

    @property
    def dimension(self) -> int:
        return len(self._sorted_by_dim) - 1

    def simplices_of_dim(self, k: int) -> list[Simplex]:
        """k-simplices in the canonical (lexicographic) order."""
        return list(self._sorted_by_dim[k]) if 0 <= k < len(self._sorted_by_dim) else []

    def used_vertices(self) -> tuple[int, ...]:
        return tuple(s[0] for s in self.simplices_of_dim(0))

    def f_vector(self) -> tuple[int, ...]:
        return tuple(map(len, self._sorted_by_dim))

    def maximal_simplices(self) -> list[Simplex]:
        """Simplices that are no facet of a simplex one dimension up; in a
        downward-closed set these are the ones in no larger simplex."""
        facets = {s[:i] + s[i + 1:] for s in self.simplices if len(s) > 1 for i in range(len(s))}
        return sorted(self.simplices - facets)

    def contains(self, vertices: Sequence[int]) -> bool:
        return as_simplex(vertices) in self.simplices

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * count for k, count in enumerate(self.f_vector()))


@dataclass(frozen=True)
class SimplicialPair:
    """A complex together with a subcomplex, sharing vertex ids.  It keeps
    its own ``_sorted_by_dim`` and ``_boundaries``, as a complex does."""

    total: SimplicialComplex
    sub: SimplicialComplex

    def __post_init__(self):
        sub = self.sub.simplices
        if not sub <= self.total.simplices:
            raise MalformedComplexError("subcomplex is not contained in the total complex")
        # the relative basis by dimension: the total's index without sub
        by_dim = tuple(tuple(s for s in group if s not in sub) for group in self.total._sorted_by_dim)
        vars(self).update(_sorted_by_dim=by_dim, _boundaries={})

    # read the index as a complex does
    dimension = SimplicialComplex.dimension
    simplices_of_dim = SimplicialComplex.simplices_of_dim


@dataclass(frozen=True)
class ComplexityProfile:
    """Size data (V, D) of a complex, D the 1-skeleton degree: the largest
    number of edges at a vertex.  A p-simplex, p >= 1, lies among its least
    vertex v and p of the at most D neighbours of v (its edges at v are
    faces), so there are at most V * C(D, p) <= D^p * V p-simplices.
    """

    V: int
    D: int


def build_complex(maximal_simplices: Iterable[Sequence[int]],
                  vertex_count: int | None = None) -> SimplicialComplex:
    """Downward closure of the given simplices.

    Input sequences need not be sorted, but repeated vertices inside one
    simplex are rejected.
    """
    return _closure((as_simplex(raw) for raw in maximal_simplices), vertex_count)


def _closure(simplices: Iterable[Simplex], vertex_count: int | None) -> SimplicialComplex:
    """Downward closure of simplices that are canonical already, level by
    level from the top: the facets of each level are added to the level
    below, and each level is sorted once into the complex's index."""
    levels: dict[int, set[Simplex]] = {}
    for s in simplices:
        levels.setdefault(len(s), set()).add(s)
    top = max(levels, default=0)
    for size in range(top, 1, -1):
        below = levels.setdefault(size - 1, set())
        for s in levels[size]:
            below.update(combinations(s, size - 1))
    by_dim = tuple(tuple(sorted(levels[n])) for n in range(1, top + 1))
    if vertex_count is None:
        vertex_count = by_dim[0][-1][0] + 1 if by_dim else 0
    return SimplicialComplex._closed(vertex_count, by_dim)


def empty_complex(vertex_count: int = 0) -> SimplicialComplex:
    return SimplicialComplex._closed(vertex_count, ())


def complexity_profile(complex_: SimplicialComplex) -> ComplexityProfile:
    """V = vertices actually used, D = max number of edges at a vertex."""
    degree: dict[int, int] = {v: 0 for v in complex_.used_vertices()}
    for u, v in complex_.simplices_of_dim(1):
        degree[u] += 1
        degree[v] += 1
    return ComplexityProfile(V=len(degree), D=max(degree.values(), default=0))


def _assemble_boundary(k_simplices: list[Simplex], lower: list[Simplex],
                       retired: frozenset[int] = frozenset()) -> IntegerMatrix:
    """Boundary columns of k_simplices in the basis lower; other faces are
    dropped, and the columns at retired are left empty.  combinations()
    gives the faces in lexicographic order, dropping the last vertex
    first, so the signs run (-1)^k, (-1)^(k-1), ..., 1.  A degree with no
    simplices gives no columns, and no index of lower."""
    if not k_simplices:
        return IntegerMatrix(len(lower), 0, ())
    row_of = {s: i for i, s in enumerate(lower)}.get
    k = len(k_simplices[0]) - 1
    first = -1 if k % 2 else 1
    columns = []
    for j, s in enumerate(k_simplices):
        col = {}
        if j not in retired:
            sign = first
            for face in combinations(s, k):
                i = row_of(face)
                if i is not None:
                    col[i] = sign
                sign = -sign
        columns.append(col)
    return IntegerMatrix(len(lower), len(k_simplices), columns)


def boundary_matrix(complex_: SimplicialComplex | SimplicialPair, k: int,
                    retired: Iterable[int] | None = None) -> IntegerMatrix:
    """Matrix of the boundary map from k-chains to (k-1)-chains.

    The bases are ``simplices_of_dim(k)`` and ``simplices_of_dim(k - 1)``,
    so of a pair the faces that fall into the subcomplex are dropped.
    Signs alternate over the sorted vertex order; of a complex, every
    column of a nonempty matrix has exactly k+1 entries equal to +-1.
    Without ``retired`` the whole d_k is assembled anew on every call.

    ``homology`` passes ``retired``, columns in the Z-span of the others,
    and reads only the Smith form.  It gets the d_k kept on the complex or
    pair, or else a new d_k whose columns at retired are left empty ({})
    and never assembled, which is then kept; so it must not be changed.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if retired is None:
        return _assemble_boundary(complex_.simplices_of_dim(k), complex_.simplices_of_dim(k - 1))
    mat = complex_._boundaries.get(k)
    if mat is None:
        mat = complex_._boundaries[k] = _assemble_boundary(
            complex_.simplices_of_dim(k), complex_.simplices_of_dim(k - 1), frozenset(retired))
    return mat


def random_dv_complex(max_degree: int, max_vertices: int, dim: int, seed: int) -> SimplicialComplex:
    """Random complex whose profile respects the (D, V) budget.

    A random graph is grown greedily under the vertex-degree cap, then a
    random subset of its cliques is filled in up to the requested
    dimension.  Filling cliques never changes 1-skeleton degrees, so the
    budget survives by construction.  Deterministic in the seed.
    """
    if max_degree < 1 or max_vertices < 1:
        raise ValueError("degree and vertex budgets must be positive")
    rng = random.Random(seed)
    n = rng.randint(1, max_vertices)
    degree = [0] * n
    edges: set[Simplex] = set()
    candidates = list(combinations(range(n), 2))
    rng.shuffle(candidates)
    for u, v in candidates:
        if degree[u] < max_degree and degree[v] < max_degree and rng.random() < 0.7:
            edges.add((u, v))
            degree[u] += 1
            degree[v] += 1

    adjacency: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)

    simplices: set[Simplex] = {(v,) for v in range(n)} | edges
    frontier = sorted(edges)
    for p in range(2, dim + 1):
        next_frontier = []
        for s in frontier:
            common = set.intersection(*(adjacency[v] for v in s))
            for w in sorted(common):
                if w > s[-1]:
                    candidate = s + (w,)
                    if rng.random() < 0.5:
                        simplices.add(candidate)
                        next_frontier.append(candidate)
        frontier = next_frontier
        if not frontier:
            break
    return _closure(simplices, n)


def random_subcomplex(complex_: SimplicialComplex, seed: int) -> SimplicialComplex:
    """Full subcomplex induced on a random vertex subset.

    Each level of the index is filtered to the kept vertices.  A full
    subcomplex of a closed index is closed and stays sorted, and its
    empty levels are the top ones.
    """
    rng = random.Random(seed)
    keep = {v for v in complex_.used_vertices() if rng.random() < 0.5}
    levels = (tuple(s for s in group if keep.issuperset(s)) for group in complex_._sorted_by_dim)
    return SimplicialComplex._closed(complex_.vertex_count, tuple(level for level in levels if level))


# --- line-based file format ------------------------------------------------
#
#   complex V=<n>
#   s v0 v1 ... vk        (one line per maximal simplex, ascending ids)
#   # comment lines are ignored
#
# Pair files hold two complex blocks separated by a line `pair-sub`; one
# reader, read_complex_or_pair, takes both.


def write_complex(complex_: SimplicialComplex) -> str:
    lines = [f"complex V={complex_.vertex_count}"]
    for s in complex_.maximal_simplices():
        lines.append("s " + " ".join(str(v) for v in s))
    return "\n".join(lines) + "\n"


def write_pair(pair: SimplicialPair) -> str:
    return write_complex(pair.total) + "pair-sub\n" + write_complex(pair.sub)


def _parse_block(lines: list[tuple[int, str]]) -> SimplicialComplex:
    if not lines:
        raise MalformedComplexError("empty complex block")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "complex" or not parts[1].startswith("V="):
        raise MalformedComplexError(f"line {lineno}: expected 'complex V=<n>', got {header!r}")
    try:
        n = int(parts[1][2:])
    except ValueError:
        raise MalformedComplexError(f"line {lineno}: bad vertex count in {header!r}") from None
    if n < 0:
        raise MalformedComplexError(f"line {lineno}: negative vertex count in {header!r}")
    simplices = []
    for lineno, line in lines[1:]:
        parts = line.split()
        if parts[0] != "s":
            raise MalformedComplexError(f"line {lineno}: expected simplex line, got {line!r}")
        try:
            s = tuple(sorted(map(int, parts[1:])))
        except ValueError:
            raise MalformedComplexError(f"line {lineno}: non-integer vertex in {line!r}") from None
        if not s:
            raise MalformedComplexError(f"line {lineno}: simplex line with no vertices")
        if s[0] < 0 or len(set(s)) != len(s):
            # as_simplex's messages, which show the vertices in file order
            what = "negative vertex id in" if s[0] < 0 else "repeated vertex in simplex"
            raise MalformedComplexError(f"line {lineno}: {what} {[int(p) for p in parts[1:]]!r}")
        if s[-1] >= n:
            raise MalformedComplexError(f"line {lineno}: {_outside_range(s, n)}")
        simplices.append(s)
    return _closure(simplices, n)


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            out.append((i, stripped))
    return out


def read_complex_or_pair(text: str) -> SimplicialComplex | SimplicialPair:
    """The complex of a file with one block, the pair of one with two."""
    lines = _content_lines(text)
    split_at = [i for i, (_, line) in enumerate(lines) if line == "pair-sub"]
    if not split_at:
        return _parse_block(lines)
    if len(split_at) != 1:
        raise MalformedComplexError("pair file must contain exactly one 'pair-sub' separator")
    total = _parse_block(lines[:split_at[0]])
    sub = _parse_block(lines[split_at[0] + 1:])
    if sub.vertex_count < total.vertex_count:
        sub = SimplicialComplex._closed(total.vertex_count, sub._sorted_by_dim)
    return SimplicialPair(total=total, sub=sub)
