import hashlib
import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionlab import complexes
from torsionlab.exact import IntegerMatrix
from torsionlab.nerve import annulus_cover, relative_nerve
from torsionlab.simplicial import (
    MalformedComplexError,
    SimplicialComplex,
    SimplicialPair,
    _assemble_boundary,
    boundary_matrix,
    build_complex,
    complexity_profile,
    empty_complex,
    random_dv_complex,
    random_subcomplex,
    read_complex_or_pair,
    write_complex,
    write_pair,
)


def test_build_hollow_triangle():
    k = build_complex([[0, 1], [1, 2], [0, 2]])
    assert k.f_vector() == (3, 3)


def test_build_full_triangle():
    k = build_complex([[0, 1, 2]])
    assert k.f_vector() == (3, 3, 1)


def test_build_rp2_f_vector():
    assert complexes.projective_plane_6().f_vector() == (6, 15, 10)


def test_build_rejects_duplicate_vertex():
    with pytest.raises(MalformedComplexError):
        build_complex([[0, 1, 1]])


def test_build_accepts_unsorted_input():
    k = build_complex([[2, 0, 1]])
    assert k.contains([0, 1, 2])


def test_downward_closure_validated():
    with pytest.raises(MalformedComplexError):
        SimplicialComplex(vertex_count=3, simplices=frozenset({(0, 1, 2)}))


@pytest.mark.parametrize("simplices, message", [
    ({(0,), (1,), (0, 1), (1, 0)}, "simplex (1, 0) is not strictly increasing"),
    ({(0,), (0, 0)}, "repeated vertex in simplex (0, 0)"),
    ({(-1,), (0,)}, "negative vertex id in (-1,)"),
    ({()}, "empty simplex"),
], ids=["unsorted-edge", "repeated-vertex", "negative-vertex", "empty"])
def test_malformed_simplices_are_rejected(simplices, message):
    with pytest.raises(MalformedComplexError, match=re.escape(message)):
        SimplicialComplex(vertex_count=2, simplices=frozenset(simplices))


@pytest.mark.parametrize("missing", [(2,), (1, 2)])
def test_closure_check_rejects_a_triangle_missing_a_vertex_or_an_edge(missing):
    full = build_complex([[0, 1, 2]]).simplices
    with pytest.raises(MalformedComplexError, match=re.escape(f"missing face {missing} of")):
        SimplicialComplex(vertex_count=3, simplices=full - {missing})


def test_closure_builds_without_the_face_check(monkeypatch):
    # a closure is downward closed by construction, so the public
    # constructor's facet check is skipped, not weakened
    full = build_complex([[0, 1, 2], [2, 3]])
    monkeypatch.setattr(SimplicialComplex, "__post_init__", lambda self: pytest.fail("checked"))
    assert build_complex([[0, 1, 2], [2, 3]]) == full
    assert read_complex_or_pair(write_complex(full)) == full
    monkeypatch.undo()
    with pytest.raises(MalformedComplexError, match="missing face"):
        SimplicialComplex(vertex_count=4, simplices=full.simplices - {(1, 2)})


def test_closure_reports_the_same_out_of_range_vertex():
    # several vertices past the range: the first met in the set is reported
    maximal = [[0, 5], [1, 7], [2, 6], [3, 9, 11]]
    closed = build_complex(maximal).simplices
    with pytest.raises(MalformedComplexError) as public:
        SimplicialComplex(vertex_count=4, simplices=closed)
    with pytest.raises(MalformedComplexError) as closure:
        build_complex(maximal, vertex_count=4)
    assert str(closure.value) == str(public.value)
    assert str(public.value).startswith("vertex ")


def test_profile_values():
    assert complexity_profile(complexes.hollow_triangle()).V == 3
    assert complexity_profile(complexes.hollow_triangle()).D == 2
    prof = complexity_profile(complexes.projective_plane_6())
    assert (prof.V, prof.D) == (6, 5)
    single = build_complex([[0]])
    prof = complexity_profile(single)
    assert (prof.V, prof.D) == (1, 0)


def test_profile_counts_bound():
    for seed in range(5):
        k = random_dv_complex(6, 30, 3, seed)
        prof = complexity_profile(k)
        for p, count in enumerate(k.f_vector()):
            if p >= 1:
                assert count <= prof.D ** p * prof.V


def test_boundary_hollow_triangle():
    d1 = boundary_matrix(complexes.hollow_triangle(), 1)
    assert (d1.rows, d1.cols) == (3, 3)
    for j in range(3):
        col = [d1.to_lists()[i][j] for i in range(3)]
        assert sorted(abs(v) for v in col) == [0, 1, 1]


def test_boundary_full_triangle_signs():
    d2 = boundary_matrix(complexes.full_triangle(), 2)
    assert [row[0] for row in d2.to_lists()] == [1, -1, 1]


def test_boundary_squared_zero():
    for fixture in complexes.FIXTURES.values():
        k = fixture()
        for deg in range(1, k.dimension + 1):
            product = boundary_matrix(k, deg) @ boundary_matrix(k, deg + 1)
            assert product.is_zero()


def test_the_boundary_above_the_top_degree_has_no_columns_and_reads_no_rows():
    class Unread(list):
        def __iter__(self):
            raise AssertionError("the rows of a degree with no simplices were indexed")

    assert _assemble_boundary([], Unread([(0, 1), (1, 2)])) == IntegerMatrix(2, 0, ())
    pair = complexes.annulus_inner_circle_pair()
    for obj in (pair.total, pair):
        top = obj.dimension
        for retired in (None, ()):
            d = boundary_matrix(obj, top + 1, retired=retired)
            assert d == IntegerMatrix(len(obj.simplices_of_dim(top)), 0, ())


def test_relative_boundary_disk_pair():
    pair = complexes.disk_boundary_pair()
    d2 = boundary_matrix(pair, 2)
    assert (d2.rows, d2.cols) == (0, 1)


def test_relative_boundary_empty_sub_matches_absolute():
    k = complexes.projective_plane_6()
    pair = SimplicialPair(total=k, sub=empty_complex(k.vertex_count))
    for deg in range(3):
        assert boundary_matrix(pair, deg).to_lists() == boundary_matrix(k, deg).to_lists()


def test_relative_boundary_squared_zero():
    pair = complexes.annulus_inner_circle_pair()
    for deg in range(1, 3):
        product = boundary_matrix(pair, deg) @ boundary_matrix(pair, deg + 1)
        assert product.is_zero()


def test_boundary_matrices_are_kept_on_the_complex_and_the_pair():
    pair = complexes.annulus_inner_circle_pair()
    for deg in range(4):
        for obj in (pair.total, pair):
            kept = boundary_matrix(obj, deg, retired=())
            assert boundary_matrix(obj, deg, retired=()) is kept
            # without retired the whole d_k is built anew, equal to the kept one
            assert boundary_matrix(obj, deg) is not kept
            assert boundary_matrix(obj, deg).columns == kept.columns


def test_pair_containment_enforced():
    with pytest.raises(MalformedComplexError):
        SimplicialPair(total=complexes.hollow_triangle(),
                       sub=complexes.full_triangle())


def test_random_dv_complex_budget_and_determinism():
    a = random_dv_complex(6, 30, 3, seed=1)
    b = random_dv_complex(6, 30, 3, seed=1)
    assert a.simplices == b.simplices
    prof = complexity_profile(a)
    assert prof.D <= 6 and prof.V <= 30
    assert a.dimension <= 3


def test_random_dv_small_budget_is_subcomplex_of_triangle():
    triangle = complexes.hollow_triangle()
    for seed in range(10):
        k = random_dv_complex(2, 3, 1, seed=seed)
        prof = complexity_profile(k)
        assert prof.D <= 2 and prof.V <= 3
        assert k.simplices <= triangle.simplices


def test_random_subcomplex_contained():
    k = random_dv_complex(6, 20, 2, seed=2)
    sub = random_subcomplex(k, seed=3)
    assert sub.simplices <= k.simplices
    SimplicialPair(total=k, sub=sub)  # validates


def test_build_complex_idempotent_on_fixtures():
    for fixture in complexes.FIXTURES.values():
        k = fixture()
        again = build_complex(k.maximal_simplices(), vertex_count=k.vertex_count)
        assert again.simplices == k.simplices


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True),
                min_size=1, max_size=6))
def test_build_complex_idempotent_hypothesis(simplices):
    k = build_complex(simplices)
    again = build_complex(k.maximal_simplices(), vertex_count=k.vertex_count)
    assert again.simplices == k.simplices


def test_file_roundtrip_complex():
    k = complexes.torus_7()
    text = write_complex(k)
    back = read_complex_or_pair(text)
    assert back.simplices == k.simplices
    assert back.vertex_count == k.vertex_count


def test_file_roundtrip_pair():
    pair = complexes.annulus_inner_circle_pair()
    back = read_complex_or_pair(write_pair(pair))
    assert back.total.simplices == pair.total.simplices
    assert back.sub.simplices == pair.sub.simplices


def test_file_comments_and_dispatch():
    text = "# a circle\ncomplex V=3\ns 0 1\ns 1 2\ns 0 2\n"
    k = read_complex_or_pair(text)
    assert isinstance(k, SimplicialComplex)
    assert k.f_vector() == (3, 3)


def test_file_errors_carry_line_numbers():
    with pytest.raises(MalformedComplexError, match="line 2"):
        read_complex_or_pair("complex V=3\nnonsense 0 1\n")
    with pytest.raises(MalformedComplexError):
        read_complex_or_pair("")
    with pytest.raises(MalformedComplexError, match="line 2"):
        read_complex_or_pair("complex V=3\ns 1 1\n")
    with pytest.raises(MalformedComplexError, match="line 1: negative vertex count"):
        read_complex_or_pair("complex V=-3\n")
    with pytest.raises(MalformedComplexError, match="line 5: negative vertex count"):
        read_complex_or_pair("complex V=2\ns 0 1\npair-sub\n# sub\ncomplex V=-1\n")


@pytest.mark.parametrize("line, message", [
    ("s", "line 2: simplex line with no vertices"),
    ("s 0 -1", "line 2: negative vertex id in [0, -1]"),
    ("s 2 1 2", "line 2: repeated vertex in simplex [2, 1, 2]"),
    ("s -1 -1", "line 2: negative vertex id in [-1, -1]"),
    ("s 0 x", "line 2: non-integer vertex in 's 0 x'"),
    ("s 0 1.0", "line 2: non-integer vertex in 's 0 1.0'"),
    ("t 0 1", "line 2: expected simplex line, got 't 0 1'"),
    ("s 2 5 0", "line 2: vertex 5 outside declared range 3"),
    ("s 5 5", "line 2: repeated vertex in simplex [5, 5]"),
], ids=["empty", "negative", "repeated", "negative-and-repeated", "word", "float", "tag",
        "out-of-range", "repeated-out-of-range"])
def test_simplex_line_errors_are_pinned(line, message):
    with pytest.raises(MalformedComplexError) as exc:
        read_complex_or_pair(f"complex V=3\n{line}\ns 0 1\n")
    assert str(exc.value) == message


def test_empty_complex_is_legal():
    k = empty_complex()
    assert k.dimension == -1
    assert k.f_vector() == ()
    assert k.euler_characteristic() == 0


def dense_boundary(k_simplices, lower):
    """Reference assembler: a rows x cols grid of zeros, filled face by face."""
    data = [[0] * len(k_simplices) for _ in lower]
    for j, s in enumerate(k_simplices):
        for drop in range(len(s)):
            face = s[:drop] + s[drop + 1:]
            if face in lower:
                data[lower.index(face)][j] = (-1) ** drop
    return IntegerMatrix.from_rows(data, len(k_simplices))


def sorted_of_dim(simplices, k):
    return sorted(s for s in simplices if len(s) == k + 1)


def fixture_pairs():
    for seed, (name, fixture) in enumerate(complexes.FIXTURES.items()):
        k = fixture()
        yield name, SimplicialPair(total=k, sub=random_subcomplex(k, seed=seed))
    yield "annulus-inner", complexes.annulus_inner_circle_pair()
    yield "disk-boundary", complexes.disk_boundary_pair()


@pytest.mark.parametrize("name, pair", list(fixture_pairs()))
def test_boundary_matrices_match_a_dense_reference(name, pair):
    total, sub = pair.total.simplices, pair.sub.simplices
    for deg in range(pair.total.dimension + 2):
        want = dense_boundary(sorted_of_dim(total, deg), sorted_of_dim(total, deg - 1))
        got = boundary_matrix(pair.total, deg)
        assert got == want and got.to_lists() == want.to_lists() and got.columns == want.columns
        want = dense_boundary(sorted_of_dim(total - sub, deg), sorted_of_dim(total - sub, deg - 1))
        got = boundary_matrix(pair, deg)
        assert got == want and got.to_lists() == want.to_lists() and got.columns == want.columns


def test_simplices_of_dim_returns_a_fresh_list():
    k = complexes.torus_7()
    edges = k.simplices_of_dim(1)
    assert edges == sorted_of_dim(k.simplices, 1)
    edges.reverse()
    edges.pop()
    k.simplices_of_dim(1).clear()
    assert k.simplices_of_dim(1) == sorted_of_dim(k.simplices, 1)
    assert k.simplices_of_dim(-1) == [] == k.simplices_of_dim(k.dimension + 1)


def rescan(k):
    """dimension, f-vector, used vertices, Euler characteristic and (V, D)
    by direct scans of the simplex set."""
    dim = max((len(s) - 1 for s in k.simplices), default=-1)
    f = tuple(sum(len(s) == n + 1 for s in k.simplices) for n in range(dim + 1))
    used = tuple(sorted(s[0] for s in k.simplices if len(s) == 1))
    degree = {v: sum(len(s) == 2 and v in s for s in k.simplices) for v in used}
    euler = sum((-1) ** (len(s) - 1) for s in k.simplices)
    return dim, f, used, euler, (len(used), max(degree.values(), default=0))


def indexed(k):
    prof = complexity_profile(k)
    return k.dimension, k.f_vector(), k.used_vertices(), k.euler_characteristic(), (prof.V, prof.D)


def rescan_cases():
    for name, fixture in complexes.FIXTURES.items():
        yield name, fixture()
    yield "empty", empty_complex()
    yield "empty-3", empty_complex(3)
    for seed in range(12):
        yield f"dv-{seed}", random_dv_complex(2 + seed % 5, 6 + 3 * seed, 1 + seed % 4, seed)


@pytest.mark.parametrize("name, k", list(rescan_cases()))
def test_index_matches_a_rescan_of_the_simplices(name, k):
    assert indexed(k) == rescan(k)
    for seed in range(3):
        pair = SimplicialPair(total=k, sub=random_subcomplex(k, seed=seed))
        assert indexed(pair.sub) == rescan(pair.sub)
        assert pair.dimension == rescan(k)[0]
        for deg in range(-1, pair.dimension + 2):
            assert pair.simplices_of_dim(deg) == sorted_of_dim(k.simplices - pair.sub.simplices, deg)


def brute_force_closure(maximal):
    return {face for s in maximal for n in range(1, len(s) + 1) for face in combinations(s, n)}


def regrouped(simplices):
    top = max(map(len, simplices), default=0)
    return tuple(tuple(sorted(s for s in simplices if len(s) == n)) for n in range(1, top + 1))


def assert_seeded_closure(k, maximal, vertex_count):
    assert k.vertex_count == vertex_count
    assert k.simplices == brute_force_closure(maximal)
    assert k._sorted_by_dim == regrouped(k.simplices)


@pytest.mark.parametrize("name, k", list(rescan_cases()))
def test_closure_seeds_the_index_a_regrouping_gives(name, k):
    maximal = k.maximal_simplices()
    assert_seeded_closure(build_complex(maximal, k.vertex_count), maximal, k.vertex_count)
    assert_seeded_closure(read_complex_or_pair(write_complex(k)), maximal, k.vertex_count)
    for seed in range(3):
        sub = random_subcomplex(k, seed=seed)
        parsed = read_complex_or_pair(write_pair(SimplicialPair(total=k, sub=sub)))
        assert_seeded_closure(parsed.total, maximal, k.vertex_count)
        assert_seeded_closure(parsed.sub, sub.maximal_simplices(), k.vertex_count)


def assert_same_complex(got, want):
    assert (got.vertex_count, got.simplices, got._sorted_by_dim) == \
        (want.vertex_count, want.simplices, want._sorted_by_dim)


def test_the_trusted_builders_give_what_the_validating_paths_give():
    # the builders skip as_simplex and the constructor's checks; their
    # complexes must be the ones those checks accept, with the same index
    digest = hashlib.sha256()
    for seed in range(200):
        for max_vertices in (30, 60):
            k = random_dv_complex(6, max_vertices, 3, seed)
            assert_same_complex(k, build_complex(k.simplices, k.vertex_count))
            sub = random_subcomplex(k, seed)
            rng = random.Random(seed)
            keep = {v for v in k.used_vertices() if rng.random() < 0.5}
            assert_same_complex(sub, SimplicialComplex(
                vertex_count=k.vertex_count, simplices=frozenset(s for s in k.simplices if set(s) <= keep)))
            for c in (k, sub):
                digest.update(repr((c.vertex_count, sorted(c.simplices))).encode())
    # the draws of every seed above, unchanged since they were first pinned
    assert digest.hexdigest() == "32bddabbcf60013af41cf63e626fbcde4d9edee7228fa451564d592ff78ccdb1"
    assert_same_complex(empty_complex(5), SimplicialComplex(vertex_count=5, simplices=frozenset()))
    sub = relative_nerve(*annulus_cover()).sub
    assert_same_complex(sub, SimplicialComplex(vertex_count=sub.vertex_count, simplices=sub.simplices))


def test_a_pair_file_widens_a_smaller_sub_with_its_index():
    pair = read_complex_or_pair("complex V=4\ns 0 1 3\npair-sub\ncomplex V=2\ns 0 1\n")
    assert_seeded_closure(pair.sub, [(0, 1)], 4)
    assert pair.sub == SimplicialComplex(vertex_count=4, simplices=frozenset({(0,), (1,), (0, 1)}))


def test_a_pair_filters_its_basis_once(monkeypatch):
    pair = complexes.disk_boundary_pair()
    pair.simplices_of_dim(1)
    monkeypatch.setattr(SimplicialPair, "sub", property(lambda self: pytest.fail("sub read again")),
                        raising=False)
    assert pair.simplices_of_dim(1) == [] and pair.simplices_of_dim(2) == [(0, 1, 2)]


def brute_force_maximal(k):
    return sorted(s for s in k.simplices if not any(set(s) < set(t) for t in k.simplices))


@pytest.mark.parametrize("k", [fixture() for fixture in complexes.FIXTURES.values()]
                         + [random_dv_complex(6, 30, 3, seed=seed) for seed in range(4)]
                         + [empty_complex(3)])
def test_maximal_simplices_match_brute_force(k):
    assert k.maximal_simplices() == brute_force_maximal(k)


@pytest.mark.parametrize("maximal, message", [
    ([[]], "empty simplex"),
    ([[0, -1]], "negative vertex id in [0, -1]"),
], ids=["empty", "negative"])
def test_build_complex_rejects_a_malformed_simplex(maximal, message):
    with pytest.raises(MalformedComplexError, match=re.escape(message)):
        build_complex(maximal)


@pytest.mark.parametrize("call, message", [
    (lambda: boundary_matrix(complexes.hollow_triangle(), -1), "degree must be nonnegative"),
    (lambda: random_dv_complex(0, 5, 2, 0), "degree and vertex budgets must be positive"),
    (lambda: random_dv_complex(3, 0, 2, 0), "degree and vertex budgets must be positive"),
], ids=["negative-degree", "degree-budget", "vertex-budget"])
def test_bad_arguments_raise_a_value_error(call, message):
    with pytest.raises(ValueError, match=message) as info:
        call()
    assert type(info.value) is ValueError
