import dataclasses
import inspect
import math
import random

import pytest

from torsionlab import complexes, exact, nerve, simplicial
from torsionlab.exact import AbelianGroupStructure as G
from torsionlab.exact import ExactArithmeticError
from torsionlab.homology import (
    ORACLE_PRIMES,
    all_homology,
    betti_euler_characteristic,
    homology,
    homology_oracle_crosscheck,
    primes_of,
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
    assert not hasattr(torsionlab, "all_homology")


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
    assert report.computed == {p: int(p == 2) for p in ORACLE_PRIMES}


def test_oracle_torus_no_rank_drop():
    report = homology_oracle_crosscheck(complexes.torus_7(), 1)
    assert report.agrees
    assert report.computed == dict.fromkeys(ORACLE_PRIMES, 2)


def test_oracle_checks_the_cleared_groups_that_homology_reports(monkeypatch):
    assemble = simplicial._assemble_boundary

    def retire_everything(k_simplices, lower, retired=frozenset()):
        if retired:
            retired = frozenset(range(len(k_simplices)))
        return assemble(k_simplices, lower, retired)

    monkeypatch.setattr(simplicial, "_assemble_boundary", retire_everything)
    # a wrong clearing empties d_1 of the torus: H_1 would come out Z^8
    with pytest.raises(ExactArithmeticError):
        homology_oracle_crosscheck(complexes.torus_7(), 1)


@pytest.mark.parametrize("fault", [
    lambda snf: dataclasses.replace(snf, factors=snf.factors[1:]),
    lambda snf: dataclasses.replace(snf, rank=snf.rank - 1),
    lambda snf: dataclasses.replace(snf, factors=tuple(17 * d for d in snf.factors)),
], ids=["drop-first-factor", "rank-one-low", "factor-times-17"])
def test_oracle_catches_a_wrong_smith_form(monkeypatch, fault):
    # H_1 of the Klein bottle is Z + Z/2: without the 2 it would come out Z,
    # with ranks one low Z^3 + Z/2, and with Z/34 in place of Z/2 only the
    # prime 17 of the reported factor, outside ORACLE_PRIMES, tells
    monkeypatch.setattr("torsionlab.homology.smith_normal_form",
                        lambda mat: fault(exact.smith_normal_form(mat)))
    with pytest.raises(ExactArithmeticError, match="oracle disagreement"):
        homology_oracle_crosscheck(complexes.klein_bottle_9(), 1)


def test_oracle_checks_the_betti_number_at_the_large_prime(monkeypatch):
    # d_2 of the torus read with rank one high and the factor 30030 =
    # 2 * 3 * 5 * 7 * 11 * 13 turns H_1 = Z^2 into Z + Z/30030: each small
    # prime counts both as 2, only 2^31 - 1 sees the free summand lost
    torus = complexes.torus_7()
    triangles = len(torus.simplices_of_dim(2))

    def smith(mat):
        snf = exact.smith_normal_form(mat)
        if mat.cols != triangles:
            return snf
        return dataclasses.replace(snf, rank=snf.rank + 1, factors=(30030,))

    monkeypatch.setattr("torsionlab.homology.smith_normal_form", smith)
    assert homology(torus, 1) == G(1, (30030,))
    with pytest.raises(ExactArithmeticError, match="oracle disagreement"):
        homology_oracle_crosscheck(torus, 1)
    monkeypatch.setattr("torsionlab.homology.ORACLE_PRIMES", ORACLE_PRIMES[:-1])
    assert homology_oracle_crosscheck(torus, 1).agrees


@pytest.mark.parametrize("n, primes, rest", [
    (1, set(), 1),
    (9897195, {3, 5, 7, 11, 19, 41}, 1),  # 3 5 7 11^2 19 41, of the p = 211 cover
    (2 * (2**31 - 1), {2, 2**31 - 1}, 1),  # a cofactor below 2^32 is a prime
    (65521 * 65537, {65521, 65537}, 1),
    (65537**2, set(), 65537**2),  # no prime below 2^16, and not below 2^32
    (6 * (2**61 - 1), {2, 3}, 2**61 - 1),
])
def test_primes_of_factors_by_trial_division_below_two_to_the_16(n, primes, rest):
    assert primes_of(n) == (primes, rest)


def test_oracle_names_a_part_of_a_factor_it_leaves_unfactored(monkeypatch):
    # Z/2 reported as Z/(2 (2^61 - 1)): no prime the oracle can find tells,
    # and the part it could not factor is named
    big = 2**61 - 1

    def smith(mat):
        snf = exact.smith_normal_form(mat)
        return dataclasses.replace(snf, factors=tuple(big * d for d in snf.factors))

    monkeypatch.setattr("torsionlab.homology.smith_normal_form", smith)
    report = homology_oracle_crosscheck(complexes.klein_bottle_9(), 1)
    assert report.agrees and report.group == G(1, (2 * big,))
    assert report.unfactored == (big,)
    assert set(report.computed) == set(ORACLE_PRIMES)


def test_oracle_hollow_triangle():
    report = homology_oracle_crosscheck(complexes.hollow_triangle(), 1)
    assert report.agrees


def test_oracle_random_complexes():
    for seed in range(6):
        k = random_dv_complex(5, 12, 3, seed=seed)
        for deg in range(3):
            assert homology_oracle_crosscheck(k, deg).agrees


@pytest.mark.parametrize("pair", [complexes.disk_boundary_pair(), complexes.annulus_inner_circle_pair()],
                         ids=["disk-boundary", "annulus-inner"])
def test_oracle_cross_checks_relative_homology(pair):
    for k in range(pair.dimension + 1):
        report = homology_oracle_crosscheck(pair, k)
        assert report.agrees
        assert report.group == homology(pair, k)


def test_klein_bottle_is_a_closed_surface():
    # every edge of the fixture lies in exactly two triangles
    k = complexes.klein_bottle_9()
    triangles = k.simplices_of_dim(2)
    for edge in k.simplices_of_dim(1):
        incident = [t for t in triangles if set(edge) <= set(t)]
        assert len(incident) == 2


@pytest.mark.parametrize("build, run, shapes, live", [
    (complexes.torus_7, all_homology, [(14, 0), (21, 14), (7, 21), (0, 7)], [0, 14, 8, 0]),
    (complexes.disk_boundary_pair, all_homology, [(1, 0), (0, 1), (0, 0), (0, 0)], [0, 0, 0, 0]),
], ids=["torus", "disk-pair"])
def test_each_boundary_matrix_is_assembled_and_eliminated_once(monkeypatch, build, run, shapes, live):
    assembled, eliminated = [], []
    assemble, kernel = simplicial._assemble_boundary, exact._smith_kernel

    def counting_assemble(k_simplices, lower, retired=frozenset()):
        assembled.append(assemble(k_simplices, lower, retired))
        return assembled[-1]

    def counting_kernel(mat):
        eliminated.append(mat)
        return kernel(mat)

    monkeypatch.setattr(simplicial, "_assemble_boundary", counting_assemble)
    monkeypatch.setattr(exact, "_smith_kernel", counting_kernel)
    run(build())
    assert [(m.rows, m.cols) for m in assembled] == shapes  # d_3 .. d_0, once each
    # on the torus 13 columns of d_1 are retired by d_2's unit pivots, never built
    assert [sum(map(bool, m.columns)) for m in assembled] == live
    assert sorted(map(id, eliminated)) == sorted(map(id, assembled))


def kept_retired(obj, k):
    """The columns of d_k that the unit pivots of the kept d_{k+1} retire."""
    return exact.smith_normal_form(boundary_matrix(obj, k + 1, retired=())).unit_rows


def emptied(mat, retired):
    """mat with its columns at retired left empty, as ``boundary_matrix`` clears them."""
    return exact.IntegerMatrix(mat.rows, mat.cols,
                               [{} if j in retired else c for j, c in enumerate(mat.columns)])


def test_elimination_leaves_the_kept_boundary_matrices_unchanged():
    klein = complexes.klein_bottle_9()
    pair = complexes.annulus_inner_circle_pair()
    all_homology(klein)
    all_homology(pair)
    sub = pair.sub.simplices
    for k in range(4):
        fresh = simplicial._assemble_boundary(klein.simplices_of_dim(k), klein.simplices_of_dim(k - 1),
                                              kept_retired(klein, k))
        assert boundary_matrix(klein, k, retired=()).columns == fresh.columns
        fresh = simplicial._assemble_boundary(
            [s for s in pair.total.simplices_of_dim(k) if s not in sub],
            [s for s in pair.total.simplices_of_dim(k - 1) if s not in sub], kept_retired(pair, k))
        assert boundary_matrix(pair, k, retired=()).columns == fresh.columns


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


def seeded_nerve(kind, seed, count, radius):
    """Nerve (max_dim=3) of count balls of one radius: E3 centres uniform in
    [-1, 1]^3, H3 centres within distance 2 of the base point."""
    rng = random.Random(seed)
    balls = []
    for _ in range(count):
        if kind == "E":
            centre = [rng.uniform(-1, 1) for _ in range(3)]
        else:
            v = [rng.gauss(0, 1) for _ in range(3)]
            norm = math.sqrt(sum(x * x for x in v))
            t = rng.uniform(0, 2.0)
            centre = [math.cosh(t), *(math.sinh(t) * x / norm for x in v)]
        balls.append((centre, radius))
    space = nerve.EuclideanSpace(3) if kind == "E" else nerve.HyperbolicSpace(3)
    return nerve.nerve(nerve.BallCover.of(space, balls), max_dim=3)


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
    "e3-nerve": lambda: seeded_nerve("E", 3, 24, 0.6),
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
        cleared = exact.smith_normal_form(boundary_matrix(obj, k, retired=()))  # kept by the walk
        assert (cleared.rank, cleared.factors) == (uncleared.rank, uncleared.factors), k
        assert uncleared.rank == exact.rational_rank(fresh), k
        reference.append(uncleared)
    assert groups == [G(len(cells[k + 1]) - reference[k].rank - reference[k + 1].rank,
                        reference[k + 1].factors) for k in range(top + 1)]


@pytest.mark.parametrize("name", CLEARING_CASES)
def test_cleared_boundary_matrices_keep_the_live_columns_of_the_whole(name):
    obj = CLEARING_CASES[name]()
    all_homology(obj)
    retired_any = False
    for k in range(obj.dimension + 2):
        retired = kept_retired(obj, k)
        cleared = boundary_matrix(obj, k, retired=())
        whole = boundary_matrix(obj, k)  # assembled now, and not kept
        fresh = simplicial._assemble_boundary(obj.simplices_of_dim(k), obj.simplices_of_dim(k - 1))
        assert whole.columns == fresh.columns
        assert (cleared.rows, cleared.cols) == (whole.rows, whole.cols)
        assert all(not cleared.columns[j] for j in retired)
        assert [c for j, c in enumerate(cleared.columns) if j not in retired] == \
            [c for j, c in enumerate(whole.columns) if j not in retired]
        # homology keeps reading the cleared d_k; other callers get a new whole one
        assert obj._boundaries[k] is cleared
        assert boundary_matrix(obj, k, retired=retired) is cleared
        assert boundary_matrix(obj, k) is not whole
        retired_any |= bool(retired)
    assert retired_any or name == "disk-pair"


def test_callers_without_retired_get_the_whole_matrix_after_the_walk():
    klein = complexes.klein_bottle_9()
    all_homology(klein)
    assert not all(klein._boundaries[1].columns)  # the walk kept a cleared d_1
    for k in range(1, klein.dimension + 1):
        whole = boundary_matrix(klein, k)
        assert whole.cols == len(klein.simplices_of_dim(k))
        assert all(len(col) == k + 1 for col in whole.columns), k
        snf = exact.smith_normal_form(whole)
        assert snf == exact.smith_normal_form(klein._boundaries[k])  # unit rows are not compared
    for obj in (klein, complexes.disk_boundary_pair()):
        all_homology(obj)
        for k in range(obj.dimension + 1):
            assert homology_oracle_crosscheck(obj, k).agrees


@pytest.mark.parametrize("n", [6, 10])
@pytest.mark.parametrize("twisted", [False, True], ids=["torus", "klein"])
def test_unit_pivots_of_d2_retire_all_but_n2_plus_1_columns_of_d1(monkeypatch, n, twisted):
    # rank d_2 is 2n^2 - 1 on the torus, all unit pivots; on the Klein
    # bottle it is 2n^2, with one pivot 2 that must retire nothing
    calls = {}
    kernel = exact._smith_kernel

    def recording_kernel(mat):
        # every column of a grid's d_1 and d_2 is nonempty until cleared
        calls[mat.rows, mat.cols] = frozenset(j for j, col in enumerate(mat.columns) if not col)
        return kernel(mat)

    monkeypatch.setattr(exact, "_smith_kernel", recording_kernel)
    all_homology(grid_surface(n, twisted))
    retired = calls[n * n, 3 * n * n]
    assert len(retired) == 2 * n * n - 1
    assert retired <= set(range(3 * n * n))
    assert 3 * n * n - len(retired) == n * n + 1  # the columns d_1 eliminates
    assert calls[3 * n * n, 2 * n * n] == frozenset()  # d_2: d_3 is empty


# d_k . d_k1 = 0, and no column of d_k1 has a unit low, so the column pass
# records no pivot.  In the first pair the pivot 1 appears only after a
# remainder step (retiring column 0 of d_k would leave [-2], column 1 [3]);
# in the second a unit appears on row 2 only after remainder steps, and
# retiring column 2 would leave [-3, 0].
@pytest.mark.parametrize("d_k, d_k1", [
    ([[3, -2]], [[2], [3]]),
    ([[-3, 0, -2]], [[6, 6, -10], [10, 6, -17], [-9, -9, 15]]),
], ids=["remainder-pivot", "unit-pivot-after-row-operation"])
def test_pivots_after_a_remainder_step_retire_nothing(d_k, d_k1):
    d_k, d_k1 = exact.IntegerMatrix.from_rows(d_k), exact.IntegerMatrix.from_rows(d_k1)
    assert (d_k @ d_k1).is_zero()
    snf_in = exact.smith_normal_form(d_k1)
    assert (snf_in.factors, snf_in.unit_rows) == ((), frozenset())
    assert exact.smith_normal_form(emptied(d_k, snf_in.unit_rows)) == exact.SNFResult(1, ())


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
        assert exact.smith_normal_form(emptied(d_k, retired)) == exact._smith_kernel(d_k), \
            (d_k.to_lists(), d_k1.to_lists())


def dv_family():
    """The (D, V) complexes and pairs that the homology-large benchmark
    reduces, four of each, drawn as it draws them."""
    rng = random.Random(0)
    members = []
    for _ in range(4):
        members.append(random_dv_complex(6, 60, 3, seed=rng.getrandbits(32)))
        total = random_dv_complex(6, 60, 3, seed=rng.getrandbits(32))
        members.append(SimplicialPair(total=total, sub=random_subcomplex(total, seed=rng.getrandbits(32))))
    return members


@pytest.mark.parametrize("index", range(8), ids=[f"{kind}-{i}" for i in range(4) for kind in ("dv", "pair")])
def test_clearing_keeps_the_smith_form_of_the_dv_family(index):
    obj = dv_family()[index]
    retired_any = False
    for k in range(obj.dimension + 1):
        d_k, d_k1 = boundary_matrix(obj, k), boundary_matrix(obj, k + 1)  # whole, not kept
        assert (d_k @ d_k1).is_zero()
        retired = exact.smith_normal_form(d_k1).unit_rows
        assert exact.smith_normal_form(emptied(d_k, retired)) == exact._smith_kernel(d_k), k
        retired_any |= bool(retired)
    # the last pair's sub is its whole total, which leaves nothing to clear
    assert retired_any or not any(obj.simplices_of_dim(k) for k in range(obj.dimension + 1))


@pytest.mark.parametrize("n", [20, 30])
@pytest.mark.parametrize("twisted", [False, True], ids=["torus", "klein"])
def test_grid_surfaces_at_the_cli_sizes(n, twisted):
    want = KNOWN["klein" if twisted else "torus"]
    assert all_homology(grid_surface(n, twisted)) == want
    # a lone call on a fresh complex: H_0 reduces a whole, uncleared d_1;
    # H_1 reduces a whole d_2 and the d_1 it clears
    assert [homology(grid_surface(n, twisted), k) for k in (0, 1)] == want[:2]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind, count, radius", [("E", 30, 0.45), ("H", 24, 0.5)], ids=["E3", "H3"])
def test_nerve_homology_agrees_with_the_oracle_in_every_degree(kind, count, radius, seed):
    cover_nerve = seeded_nerve(kind, seed, count, radius)
    assert cover_nerve.dimension == 3
    groups = all_homology(cover_nerve)
    for k in range(cover_nerve.dimension + 1):
        report = homology_oracle_crosscheck(cover_nerve, k)
        assert report.agrees
        assert report.group == groups[k]


@pytest.mark.parametrize("build, f_vector", [
    *(pytest.param(lambda n=n, twisted=twisted: grid_surface(n, twisted),
                   (n * n, 3 * n * n, 2 * n * n), id=f"{'klein' if twisted else 'torus'}-{n}")
      for n in (10, 30) for twisted in (False, True)),
    # the same cover as centres uniform in [-2, 2]^3 with radius 0.9
    pytest.param(lambda: seeded_nerve("E", 1, 80, 0.45), (80, 683, 2221, 3986), id="E3-nerve-80"),
])
def test_oracle_agrees_in_every_degree_above_500_simplices(build, f_vector):
    complex_ = build()
    assert tuple(len(complex_.simplices_of_dim(k)) for k in range(complex_.dimension + 1)) == f_vector
    for k in range(complex_.dimension + 1):
        assert homology_oracle_crosscheck(complex_, k).agrees
