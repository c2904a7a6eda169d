"""Finite simplicial complexes, pairs, boundary matrices and generators.

Simplices are tuples of strictly increasing nonnegative vertex ids.  A
complex stores *all* of its simplices explicitly (not only maximal ones):
at desk scale this is affordable and makes boundary-matrix assembly a
straight read-off.  Bases of chain groups are always the lexicographically
sorted simplex lists, so every matrix is bit-reproducible across runs.

A pair (total, sub) is the chain complex of the quotient: its k-chains
are spanned by the k-simplices of total that are not in sub.  It answers
``dimension`` and ``simplices_of_dim`` as a complex does, so
``boundary_matrix`` (and ``homology``) take either without a branch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

from .exact import IntegerMatrix

Simplex = tuple[int, ...]


class MalformedComplexError(ValueError):
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


def faces(simplex: Simplex) -> Iterable[Simplex]:
    """All proper nonempty faces."""
    for k in range(1, len(simplex)):
        yield from combinations(simplex, k)


def _outside_range(s: Simplex, vertex_count: int) -> MalformedComplexError:
    return MalformedComplexError(f"vertex {s[-1]} outside declared range {vertex_count}")


@dataclass(frozen=True)
class SimplicialComplex:
    """Downward-closed set of simplices over vertices 0..vertex_count-1."""

    vertex_count: int
    simplices: frozenset[Simplex]

    def __post_init__(self):
        # by induction on dimension, a set holding every facet of each of
        # its simplices holds every face
        for s in self.simplices:
            if s[-1] >= self.vertex_count:
                raise _outside_range(s, self.vertex_count)
            if len(s) > 1:
                for i in range(len(s)):
                    f = s[:i] + s[i + 1:]
                    if f not in self.simplices:
                        raise MalformedComplexError(f"missing face {f} of {s}")

    @classmethod
    def _closed(cls, vertex_count: int, simplices: frozenset[Simplex]) -> "SimplicialComplex":
        """The complex of a set built downward closed: of __post_init__'s
        checks only the vertex range can fail, so only it is made, over the
        same iteration and with the same error."""
        for s in simplices:
            if s[-1] >= vertex_count:
                raise _outside_range(s, vertex_count)
        complex_ = object.__new__(cls)
        object.__setattr__(complex_, "vertex_count", vertex_count)
        object.__setattr__(complex_, "simplices", simplices)
        return complex_

    @property
    def dimension(self) -> int:
        return max((len(s) - 1 for s in self.simplices), default=-1)

    def used_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(s[0] for s in self.simplices if len(s) == 1))

    @cached_property
    def _sorted_by_dim(self) -> tuple[tuple[Simplex, ...], ...]:
        groups: list[list[Simplex]] = [[] for _ in range(self.dimension + 1)]
        for s in self.simplices:
            groups[len(s) - 1].append(s)
        return tuple(tuple(sorted(g)) for g in groups)

    @cached_property
    def _boundaries(self) -> dict[int, IntegerMatrix]:
        """``boundary_matrix`` results by degree."""
        return {}

    def simplices_of_dim(self, k: int) -> list[Simplex]:
        """k-simplices in the canonical (lexicographic) order."""
        return list(self._sorted_by_dim[k]) if 0 <= k < len(self._sorted_by_dim) else []

    def f_vector(self) -> tuple[int, ...]:
        if not self.simplices:
            return ()
        counts = [0] * (self.dimension + 1)
        for s in self.simplices:
            counts[len(s) - 1] += 1
        return tuple(counts)

    def maximal_simplices(self) -> list[Simplex]:
        """Simplices that are no facet of a simplex one dimension up; in a
        downward-closed set these are the ones in no larger simplex."""
        facets = {s[:i] + s[i + 1:] for s in self.simplices if len(s) > 1 for i in range(len(s))}
        return sorted(self.simplices - facets)

    def contains(self, vertices: Sequence[int]) -> bool:
        return as_simplex(vertices) in self.simplices

    def euler_characteristic(self) -> int:
        return sum((-1) ** (len(s) - 1) for s in self.simplices)


@dataclass(frozen=True)
class SimplicialPair:
    """A complex together with a subcomplex, sharing vertex ids."""

    total: SimplicialComplex
    sub: SimplicialComplex

    def __post_init__(self):
        if not self.sub.simplices <= self.total.simplices:
            raise MalformedComplexError("subcomplex is not contained in the total complex")

    @cached_property
    def _boundaries(self) -> dict[int, IntegerMatrix]:
        """``boundary_matrix`` results by degree."""
        return {}

    @property
    def dimension(self) -> int:
        return self.total.dimension

    def simplices_of_dim(self, k: int) -> list[Simplex]:
        """The relative basis: k-simplices of total not in sub, in canonical order."""
        sub = self.sub.simplices
        return [s for s in self.total.simplices_of_dim(k) if s not in sub]


@dataclass(frozen=True)
class ComplexityProfile:
    """Size data (V, D) of a complex plus its per-dimension simplex counts.

    D is the 1-skeleton degree: the number of edges at a vertex.  With that
    reading a complex with profile (D, V) has at most D^p * V p-simplices,
    which is validated here.
    """

    V: int
    D: int
    p_simplex_counts: tuple[int, ...] = field(default=())

    def __post_init__(self):
        for p, count in enumerate(self.p_simplex_counts):
            if p >= 1 and count > (self.D ** p) * self.V:
                raise MalformedComplexError(
                    f"{count} simplices of dimension {p} exceed D^p*V = {(self.D ** p) * self.V}")


def build_complex(maximal_simplices: Iterable[Sequence[int]],
                  vertex_count: int | None = None) -> SimplicialComplex:
    """Downward closure of the given simplices.

    Input sequences need not be sorted, but repeated vertices inside one
    simplex are rejected.
    """
    return _closure((as_simplex(raw) for raw in maximal_simplices), vertex_count)


def _closure(simplices: Iterable[Simplex], vertex_count: int | None) -> SimplicialComplex:
    """Downward closure of simplices that are canonical already."""
    closed: set[Simplex] = set()
    max_vertex = -1
    for s in simplices:
        max_vertex = max(max_vertex, s[-1])
        closed.add(s)
        closed.update(faces(s))
    n = max_vertex + 1 if vertex_count is None else vertex_count
    return SimplicialComplex._closed(n, frozenset(closed))


def empty_complex(vertex_count: int = 0) -> SimplicialComplex:
    return SimplicialComplex(vertex_count=vertex_count, simplices=frozenset())


def complexity_profile(complex_: SimplicialComplex) -> ComplexityProfile:
    """V = vertices actually used, D = max number of edges at a vertex."""
    degree: dict[int, int] = {v: 0 for v in complex_.used_vertices()}
    for s in complex_.simplices:
        if len(s) == 2:
            degree[s[0]] += 1
            degree[s[1]] += 1
    return ComplexityProfile(
        V=len(degree),
        D=max(degree.values(), default=0),
        p_simplex_counts=complex_.f_vector(),
    )


def _assemble_boundary(k_simplices: list[Simplex], lower: list[Simplex]) -> IntegerMatrix:
    """Boundary columns of k_simplices in the basis lower; other faces are dropped."""
    index = {s: i for i, s in enumerate(lower)}
    columns = []
    for s in k_simplices:
        col = {}
        sign = 1
        for drop in range(len(s)):
            i = index.get(s[:drop] + s[drop + 1:])
            if i is not None:
                col[i] = sign
            sign = -sign
        columns.append(col)
    return IntegerMatrix.from_columns(len(lower), len(k_simplices), columns)


def boundary_matrix(complex_: SimplicialComplex | SimplicialPair, k: int) -> IntegerMatrix:
    """Matrix of the boundary map from k-chains to (k-1)-chains.

    The bases are ``simplices_of_dim(k)`` and ``simplices_of_dim(k - 1)``,
    so of a pair the faces that fall into the subcomplex are dropped.
    Signs alternate over the sorted vertex order; of a complex, every
    column of a nonempty matrix has exactly k+1 entries equal to +-1.  The
    matrix is kept on the complex or pair and returned again by later calls
    in degree k, so it must not be changed.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    mat = complex_._boundaries.get(k)
    if mat is None:
        mat = complex_._boundaries[k] = _assemble_boundary(
            complex_.simplices_of_dim(k), complex_.simplices_of_dim(k - 1))
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
            common = set.intersection(*(adjacency[v] for v in s)) if s else set()
            for w in sorted(common):
                if w > s[-1]:
                    candidate = s + (w,)
                    if candidate not in simplices and rng.random() < 0.5:
                        simplices.add(candidate)
                        next_frontier.append(candidate)
        frontier = next_frontier
        if not frontier:
            break
    return build_complex(simplices, vertex_count=n)


def random_subcomplex(complex_: SimplicialComplex, seed: int) -> SimplicialComplex:
    """Full subcomplex induced on a random vertex subset."""
    rng = random.Random(seed)
    used = complex_.used_vertices()
    keep = {v for v in used if rng.random() < 0.5}
    simplices = {s for s in complex_.simplices if set(s) <= keep}
    return SimplicialComplex(vertex_count=complex_.vertex_count, simplices=frozenset(simplices))


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
            vs = [int(p) for p in parts[1:]]
        except ValueError:
            raise MalformedComplexError(f"line {lineno}: non-integer vertex in {line!r}") from None
        if not vs:
            raise MalformedComplexError(f"line {lineno}: simplex line with no vertices")
        try:
            simplices.append(as_simplex(vs))
        except MalformedComplexError as exc:
            raise MalformedComplexError(f"line {lineno}: {exc}") from None
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
        sub = SimplicialComplex(vertex_count=total.vertex_count, simplices=sub.simplices)
    return SimplicialPair(total=total, sub=sub)
