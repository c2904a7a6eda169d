import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionlab import complexes
from torsionlab.exact import IntegerMatrix
from torsionlab.simplicial import (
    MalformedComplexError,
    SimplicialComplex,
    SimplicialPair,
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
        for p, count in enumerate(prof.p_simplex_counts):
            if p >= 1:
                assert count <= prof.D ** p * prof.V


def test_boundary_hollow_triangle():
    d1 = boundary_matrix(complexes.hollow_triangle(), 1)
    assert (d1.rows, d1.cols) == (3, 3)
    for j in range(3):
        col = [d1.entries[i][j] for i in range(3)]
        assert sorted(abs(v) for v in col) == [0, 1, 1]


def test_boundary_full_triangle_signs():
    d2 = boundary_matrix(complexes.full_triangle(), 2)
    assert d2.column(0) == (1, -1, 1)


def test_boundary_squared_zero():
    for fixture in complexes.FIXTURES.values():
        k = fixture()
        for deg in range(1, k.dimension + 1):
            product = boundary_matrix(k, deg) @ boundary_matrix(k, deg + 1)
            assert product.is_zero()


def test_relative_boundary_disk_pair():
    pair = complexes.disk_boundary_pair()
    d2 = boundary_matrix(pair, 2)
    assert (d2.rows, d2.cols) == (0, 1)


def test_relative_boundary_empty_sub_matches_absolute():
    k = complexes.projective_plane_6()
    pair = SimplicialPair(total=k, sub=empty_complex(k.vertex_count))
    for deg in range(3):
        assert boundary_matrix(pair, deg).entries == boundary_matrix(k, deg).entries


def test_relative_boundary_squared_zero():
    pair = complexes.annulus_inner_circle_pair()
    for deg in range(1, 3):
        product = boundary_matrix(pair, deg) @ boundary_matrix(pair, deg + 1)
        assert product.is_zero()


def test_boundary_matrices_are_kept_on_the_complex_and_the_pair():
    pair = complexes.annulus_inner_circle_pair()
    for deg in range(4):
        assert boundary_matrix(pair.total, deg) is boundary_matrix(pair.total, deg)
        assert boundary_matrix(pair, deg) is boundary_matrix(pair, deg)


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
    return IntegerMatrix(len(lower), len(k_simplices), tuple(map(tuple, data)))


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
        assert got == want and got.entries == want.entries and got.columns == want.columns
        want = dense_boundary(sorted_of_dim(total - sub, deg), sorted_of_dim(total - sub, deg - 1))
        got = boundary_matrix(pair, deg)
        assert got == want and got.entries == want.entries and got.columns == want.columns


def test_simplices_of_dim_returns_a_fresh_list():
    k = complexes.torus_7()
    edges = k.simplices_of_dim(1)
    assert edges == sorted_of_dim(k.simplices, 1)
    edges.reverse()
    edges.pop()
    k.simplices_of_dim(1).clear()
    assert k.simplices_of_dim(1) == sorted_of_dim(k.simplices, 1)
    assert k.simplices_of_dim(-1) == [] == k.simplices_of_dim(k.dimension + 1)


def brute_force_maximal(k):
    return sorted(s for s in k.simplices if not any(set(s) < set(t) for t in k.simplices))


@pytest.mark.parametrize("k", [fixture() for fixture in complexes.FIXTURES.values()]
                         + [random_dv_complex(6, 30, 3, seed=seed) for seed in range(4)]
                         + [empty_complex(3)])
def test_maximal_simplices_match_brute_force(k):
    assert k.maximal_simplices() == brute_force_maximal(k)
