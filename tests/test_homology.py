import inspect
import random

import pytest

from torsionlab import complexes, exact, nerve, simplicial
from torsionlab.exact import AbelianGroupStructure as G
from torsionlab.exact import ExactArithmeticError
from torsionlab.homology import (
    all_homology,
    betti_euler_characteristic,
    homology,
    homology_oracle_crosscheck,
)
from torsionlab.simplicial import (
    SimplicialPair,
    boundary_matrix,
    build_complex,
    empty_complex,
    random_dv_complex,
    random_subcomplex,
)

KNOWN = {
    "circle": [G(1), G(1)],
    "sphere": [G(1), G(0), G(1)],
    "torus": [G(1), G(2), G(1)],
    "rp2": [G(1), G(0, (2,)), G(0)],
    "klein": [G(1), G(1, (2,)), G(0)],
}


def test_homology_submodule_is_not_shadowed():
    import torsionlab
    import torsionlab.homology as homology_module

    assert inspect.ismodule(torsionlab.homology)
    assert inspect.ismodule(homology_module)
    assert homology_module.homology is homology
    assert torsionlab.all_homology is all_homology


@pytest.mark.parametrize("name", sorted(KNOWN))
def test_known_spaces(name):
    k = complexes.FIXTURES[name]()
    expected = KNOWN[name]
    assert all_homology(k, up_to=len(expected) - 1) == expected


def test_h0_counts_components():
    two_points = build_complex([[0], [1]])
    assert homology(two_points, 0) == G(2)


def test_homology_above_dimension_trivial():
    k = complexes.hollow_triangle()
    assert homology(k, 5) == G(0)


def test_empty_complex_trivial_homology():
    assert homology(empty_complex(), 0) == G(0)


def test_relative_disk_boundary():
    pair = complexes.disk_boundary_pair()
    assert homology(pair, 2) == G(1)
    assert homology(pair, 1) == G(0)
    assert homology(pair, 0) == G(0)


def test_relative_empty_sub_equals_absolute():
    k = complexes.projective_plane_6()
    pair = SimplicialPair(total=k, sub=empty_complex(k.vertex_count))
    for deg in range(3):
        assert homology(pair, deg) == homology(k, deg)


OVER_NOTHING_CASES = {
    **complexes.FIXTURES,
    **{f"dv-{seed}": (lambda seed=seed: random_dv_complex(6, 20, 3, seed=seed)) for seed in range(4)},
}


@pytest.mark.parametrize("name", OVER_NOTHING_CASES)
def test_a_complex_and_its_pair_over_nothing_share_boundaries_and_homology(name):
    k = OVER_NOTHING_CASES[name]()
    pair = SimplicialPair(total=k, sub=empty_complex(k.vertex_count))
    assert pair.dimension == k.dimension
    assert all_homology(pair) == all_homology(k)
    for deg in range(k.dimension + 2):
        assert boundary_matrix(pair, deg).columns == boundary_matrix(k, deg).columns


def test_relative_self_pair_trivial():
    k = complexes.torus_7()
    pair = SimplicialPair(total=k, sub=k)
    for deg in range(3):
        assert homology(pair, deg) == G(0)


def test_relative_annulus_inner_circle_all_trivial():
    # the inner circle is a deformation retract of the annulus
    pair = complexes.annulus_inner_circle_pair()
    assert all_homology(pair, up_to=2) == [G(0), G(0), G(0)]


def test_euler_characteristic_consistency():
    for fixture in complexes.FIXTURES.values():
        k = fixture()
        assert k.euler_characteristic() == betti_euler_characteristic(k)


def test_euler_characteristic_pairs_additive():
    for seed in range(4):
        total = random_dv_complex(5, 15, 2, seed=seed)
        sub = random_subcomplex(total, seed=seed + 100)
        pair = SimplicialPair(total=total, sub=sub)
        chi_rel = sum((-1) ** k * g.betti
                      for k, g in enumerate(all_homology(pair, up_to=3)))
        chi_total = betti_euler_characteristic(total)
        chi_sub = betti_euler_characteristic(sub) if sub.simplices else 0
        assert chi_total == chi_sub + chi_rel


def test_oracle_rp2_detects_2_torsion():
    report = homology_oracle_crosscheck(complexes.projective_plane_6(), 1)
    assert report.agrees
    assert report.betti_rational == 0
    assert report.torsion_primes_modular == (2,)


def test_oracle_torus_no_rank_drop():
    report = homology_oracle_crosscheck(complexes.torus_7(), 1)
    assert report.agrees
    assert report.betti_rational == 2
    assert report.torsion_primes_modular == ()


def test_oracle_hollow_triangle():
    report = homology_oracle_crosscheck(complexes.hollow_triangle(), 1)
    assert report.agrees


def test_oracle_random_complexes():
    for seed in range(6):
        k = random_dv_complex(5, 12, 3, seed=seed)
        for deg in range(3):
            assert homology_oracle_crosscheck(k, deg).agrees


def test_oracle_size_guard():
    from itertools import combinations
    big = build_complex(combinations(range(20), 3))  # 20 + 190 + 1140 simplices
    assert len(big.simplices) > 500
    with pytest.raises(ValueError):
        homology_oracle_crosscheck(big, 1)


def test_klein_bottle_is_a_closed_surface():
    # every edge of the fixture lies in exactly two triangles
    k = complexes.klein_bottle_9()
    triangles = k.simplices_of_dim(2)
    for edge in k.simplices_of_dim(1):
        incident = [t for t in triangles if set(edge) <= set(t)]
        assert len(incident) == 2


@pytest.mark.parametrize("build, run, shapes", [
    (complexes.torus_7, all_homology, [(14, 0), (21, 14), (7, 21), (0, 7)]),
    (complexes.disk_boundary_pair, all_homology, [(1, 0), (0, 1), (0, 0), (0, 0)]),
], ids=["torus", "disk-pair"])
def test_each_boundary_matrix_is_assembled_and_eliminated_once(monkeypatch, build, run, shapes):
    assembled, eliminated = [], []
    assemble, kernel = simplicial._assemble_boundary, exact._smith_kernel

    def counting_assemble(k_simplices, lower):
        assembled.append(assemble(k_simplices, lower))
        return assembled[-1]

    def counting_kernel(mat, retired=()):
        eliminated.append(mat)
        return kernel(mat, retired)

    monkeypatch.setattr(simplicial, "_assemble_boundary", counting_assemble)
    monkeypatch.setattr(exact, "_smith_kernel", counting_kernel)
    run(build())
    assert [(m.rows, m.cols) for m in assembled] == shapes  # d_3 .. d_0, once each
    assert sorted(map(id, eliminated)) == sorted(map(id, assembled))


def test_elimination_leaves_the_kept_boundary_matrices_unchanged():
    klein = complexes.klein_bottle_9()
    pair = complexes.annulus_inner_circle_pair()
    all_homology(klein)
    all_homology(pair)
    sub = pair.sub.simplices
    for k in range(4):
        fresh = simplicial._assemble_boundary(klein.simplices_of_dim(k), klein.simplices_of_dim(k - 1))
        assert boundary_matrix(klein, k).columns == fresh.columns
        fresh = simplicial._assemble_boundary(
            [s for s in pair.total.simplices_of_dim(k) if s not in sub],
            [s for s in pair.total.simplices_of_dim(k - 1) if s not in sub])
        assert boundary_matrix(pair, k).columns == fresh.columns


def grid_surface(n, twisted):
    """n x n grid, a torus, or a Klein bottle when the i = n edge is glued back by j -> -j."""
    def vertex(i, j):
        if i == n:
            i, j = 0, -j if twisted else j
        return i * n + j % n

    triangles = []
    for i in range(n):
        for j in range(n):
            a, b, c, d = vertex(i, j), vertex(i + 1, j), vertex(i, j + 1), vertex(i + 1, j + 1)
            triangles += [(a, b, d), (a, c, d)]
    return build_complex(triangles, vertex_count=n * n)


def seeded_e3_nerve(seed, count=24, radius=0.6):
    rng = random.Random(seed)
    balls = [([rng.uniform(-1, 1) for _ in range(3)], radius) for _ in range(count)]
    return nerve.nerve(nerve.BallCover.of(nerve.EuclideanSpace(3), balls), max_dim=3)


def seeded_dv_pair(seed):
    total = random_dv_complex(5, 15, 3, seed=seed)
    return SimplicialPair(total=total, sub=random_subcomplex(total, seed=seed + 100))


CLEARING_CASES = {
    **complexes.FIXTURES,
    "annulus-pair": complexes.annulus_inner_circle_pair,
    "disk-pair": complexes.disk_boundary_pair,
    **{f"torus-{n}": (lambda n=n: grid_surface(n, False)) for n in range(6, 13)},
    **{f"klein-{n}": (lambda n=n: grid_surface(n, True)) for n in range(6, 13)},
    **{f"dv-{seed}": (lambda seed=seed: random_dv_complex(5, 15, 3, seed=seed)) for seed in range(4)},
    **{f"dv-pair-{seed}": (lambda seed=seed: seeded_dv_pair(seed)) for seed in range(4)},
    "e3-nerve": lambda: seeded_e3_nerve(3),
}


@pytest.mark.parametrize("name", CLEARING_CASES)
def test_cleared_smith_forms_match_the_uncleared_kernel(name):
    obj = CLEARING_CASES[name]()
    relative = isinstance(obj, SimplicialPair)
    total, sub = (obj.total, obj.sub.simplices) if relative else (obj, frozenset())
    top = total.dimension
    groups = all_homology(obj)
    cells = [[s for s in total.simplices_of_dim(k) if s not in sub] for k in range(-1, top + 2)]
    reference = []
    for k in range(top + 2):
        fresh = simplicial._assemble_boundary(cells[k + 1], cells[k])
        uncleared = exact._smith_kernel(fresh)
        cleared = exact.smith_normal_form(boundary_matrix(obj, k))  # kept by the top-down walk
        assert (cleared.rank, cleared.factors) == (uncleared.rank, uncleared.factors), k
        assert uncleared.rank == exact.rational_rank(fresh), k
        reference.append(uncleared)
    assert groups == [G(len(cells[k + 1]) - reference[k].rank - reference[k + 1].rank,
                        reference[k + 1].factors) for k in range(top + 1)]


@pytest.mark.parametrize("n", [6, 10])
@pytest.mark.parametrize("twisted", [False, True], ids=["torus", "klein"])
def test_unit_pivots_of_d2_retire_all_but_n2_plus_1_columns_of_d1(monkeypatch, n, twisted):
    # rank d_2 is 2n^2 - 1 on the torus, all unit pivots; on the Klein
    # bottle it is 2n^2, with one pivot 2 that must retire nothing
    calls = {}
    kernel = exact._smith_kernel

    def recording_kernel(mat, retired=()):
        calls[mat.rows, mat.cols] = frozenset(retired)
        return kernel(mat, retired)

    monkeypatch.setattr(exact, "_smith_kernel", recording_kernel)
    all_homology(grid_surface(n, twisted))
    retired = calls[n * n, 3 * n * n]
    assert len(retired) == 2 * n * n - 1
    assert retired <= set(range(3 * n * n))
    assert 3 * n * n - len(retired) == n * n + 1  # the columns d_1 eliminates
    assert calls[3 * n * n, 2 * n * n] == frozenset()  # d_2: d_3 is empty


# d_k . d_k1 = 0, and d_k1 has no unit entry.  In the first pair its pivot 1
# appears only after a remainder step (retiring column 0 of d_k leaves
# [-2], column 1 leaves [3]); in the second the unit loop finds a pivot on
# row 2 after the remainder steps, and retiring column 2 leaves [-3, 0].
@pytest.mark.parametrize("d_k, d_k1", [
    ([[3, -2]], [[2], [3]]),
    ([[-3, 0, -2]], [[6, 6, -10], [10, 6, -17], [-9, -9, 15]]),
], ids=["remainder-pivot", "unit-pivot-after-row-operation"])
def test_pivots_after_a_remainder_step_retire_nothing(d_k, d_k1):
    d_k, d_k1 = exact.IntegerMatrix.from_rows(d_k), exact.IntegerMatrix.from_rows(d_k1)
    assert (d_k @ d_k1).is_zero()
    snf_in = exact.smith_normal_form(d_k1)
    assert (snf_in.factors, snf_in.unit_rows) == ((), frozenset())
    assert exact.smith_normal_form(d_k, retired=snf_in.unit_rows) == exact.SNFResult(1, ())


def random_chain_pair(rng):
    """(d_k, d_k1) with d_k d_k1 = 0: d_k = [X | 0] Q and d_k1 = Q^-1 [0; Z]
    for a unimodular Q made of elementary row operations."""
    n, r, m = rng.randint(2, 5), rng.randint(1, 3), rng.randint(1, 4)
    t = rng.randint(1, n - 1)
    q = [[int(i == j) for j in range(n)] for i in range(n)]
    q_inv = [row[:] for row in q]
    for _ in range(rng.randint(0, 6)):
        i, j = rng.sample(range(n), 2)
        f = rng.choice([-2, -1, 1, 2])
        q[i] = [a + f * b for a, b in zip(q[i], q[j])]
        for row in q_inv:
            row[j] -= f * row[i]
    x = exact.IntegerMatrix.from_rows([[rng.randint(-4, 4) for _ in range(t)] + [0] * (n - t)
                                       for _ in range(r)])
    z = exact.IntegerMatrix.from_rows([[0] * m] * t + [[rng.randint(-6, 6) for _ in range(m)]
                                                       for _ in range(n - t)])
    return x @ exact.IntegerMatrix.from_rows(q), exact.IntegerMatrix.from_rows(q_inv) @ z


def test_clearing_keeps_the_smith_form_of_random_chain_pairs():
    # small dense pairs with few units reach the remainder steps often
    rng = random.Random(17)
    for _ in range(3000):
        d_k, d_k1 = random_chain_pair(rng)
        assert (d_k @ d_k1).is_zero()
        retired = exact.smith_normal_form(d_k1).unit_rows
        assert exact.smith_normal_form(d_k, retired=retired) == exact._smith_kernel(d_k), \
            (d_k.entries, d_k1.entries)


def test_a_kept_smith_form_is_returned_whatever_is_retired():
    d2 = boundary_matrix(complexes.torus_7(), 2)
    first = exact.smith_normal_form(d2)
    assert exact.smith_normal_form(d2, retired=range(d2.cols)) is first
    assert first == exact.SNFResult(first.rank, first.factors)  # unit rows are not compared
    assert len(first.unit_rows) == first.rank == 13
