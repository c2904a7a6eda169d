import inspect

import pytest

from torsionlab import complexes, exact, simplicial
from torsionlab.exact import AbelianGroupStructure as G
from torsionlab.exact import ExactArithmeticError
from torsionlab.homology import (
    all_homology,
    all_relative_homology,
    betti_euler_characteristic,
    homology,
    homology_oracle_crosscheck,
    relative_homology,
)
from torsionlab.simplicial import (
    SimplicialPair,
    boundary_matrix,
    build_complex,
    empty_complex,
    random_dv_complex,
    random_subcomplex,
    relative_boundary_matrix,
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
    assert relative_homology(pair, 2) == G(1)
    assert relative_homology(pair, 1) == G(0)
    assert relative_homology(pair, 0) == G(0)


def test_relative_empty_sub_equals_absolute():
    k = complexes.projective_plane_6()
    pair = SimplicialPair(total=k, sub=empty_complex(k.vertex_count))
    for deg in range(3):
        assert relative_homology(pair, deg) == homology(k, deg)


def test_relative_self_pair_trivial():
    k = complexes.torus_7()
    pair = SimplicialPair(total=k, sub=k)
    for deg in range(3):
        assert relative_homology(pair, deg) == G(0)


def test_relative_annulus_inner_circle_all_trivial():
    # the inner circle is a deformation retract of the annulus
    pair = complexes.annulus_inner_circle_pair()
    assert all_relative_homology(pair, up_to=2) == [G(0), G(0), G(0)]


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
                      for k, g in enumerate(all_relative_homology(pair, up_to=3)))
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
    (complexes.torus_7, all_homology, [(0, 7), (7, 21), (21, 14), (14, 0)]),
    (complexes.disk_boundary_pair, all_relative_homology, [(0, 0), (0, 0), (0, 1), (1, 0)]),
], ids=["torus", "disk-pair"])
def test_each_boundary_matrix_is_assembled_and_eliminated_once(monkeypatch, build, run, shapes):
    assembled, eliminated = [], []
    assemble, kernel = simplicial._assemble_boundary, exact._smith_kernel

    def counting_assemble(k_simplices, lower):
        assembled.append(assemble(k_simplices, lower))
        return assembled[-1]

    def counting_kernel(mat):
        eliminated.append(mat)
        return kernel(mat)

    monkeypatch.setattr(simplicial, "_assemble_boundary", counting_assemble)
    monkeypatch.setattr(exact, "_smith_kernel", counting_kernel)
    run(build())
    assert [(m.rows, m.cols) for m in assembled] == shapes  # d_0 .. d_3, once each
    assert sorted(map(id, eliminated)) == sorted(map(id, assembled))


def test_elimination_leaves_the_kept_boundary_matrices_unchanged():
    klein = complexes.klein_bottle_9()
    pair = complexes.annulus_inner_circle_pair()
    all_homology(klein)
    all_relative_homology(pair)
    sub = pair.sub.simplices
    for k in range(4):
        fresh = simplicial._assemble_boundary(klein.simplices_of_dim(k), klein.simplices_of_dim(k - 1))
        assert boundary_matrix(klein, k).columns == fresh.columns
        fresh = simplicial._assemble_boundary(
            [s for s in pair.total.simplices_of_dim(k) if s not in sub],
            [s for s in pair.total.simplices_of_dim(k - 1) if s not in sub])
        assert relative_boundary_matrix(pair, k).columns == fresh.columns
