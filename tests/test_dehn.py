import random
from math import gcd

import pytest

from torsionlab.dehn import (
    FIGURE_EIGHT,
    FIGURE_EIGHT_EXCLUSIONS,
    FillingError,
    FillingSlope,
    PeripheralData,
    fill_homology,
    figure_eight_family,
    figure_eight_filling,
    knot_complement_data,
)
from torsionlab.exact import AbelianGroupStructure as G
from torsionlab.exact import IntegerMatrix, cokernel


def test_slope_validation():
    with pytest.raises(FillingError):
        FillingSlope(0, 0)
    with pytest.raises(FillingError):
        FillingSlope(2, 4)
    FillingSlope(0, 1)
    FillingSlope(-3, 5)


def test_figure_eight_basic_slopes():
    assert figure_eight_filling(FillingSlope(5, 1)).group == G(0, (5,))
    assert figure_eight_filling(FillingSlope(1, 0)).group == G(0)
    assert figure_eight_filling(FillingSlope(0, 1)).group == G(1)


def test_figure_eight_torsion_order_is_p():
    for p in range(1, 51):
        for q in range(1, 11):
            if gcd(p, q) != 1:
                continue
            group = fill_homology(FIGURE_EIGHT, FillingSlope(p, q)).group
            assert group.torsion_order == p
            assert group.betti == 0


def test_exclusion_flags_match_list():
    for p in range(0, 8):
        for q in range(0, 8):
            if (p, q) == (0, 0) or gcd(p, q) != 1:
                continue
            flag = figure_eight_filling(FillingSlope(p, q)).hyperbolic
            expected = "excluded" if (p, q) in FIGURE_EIGHT_EXCLUSIONS else "yes"
            assert flag == expected


def test_exclusions_up_to_sign():
    assert figure_eight_filling(FillingSlope(-2, -1)).hyperbolic == "excluded"
    assert figure_eight_filling(FillingSlope(-5, 1)).hyperbolic == "yes"


def test_slope_sign_invariance():
    rng = random.Random(17)
    for _ in range(100):
        p = rng.randint(-30, 30)
        q = rng.randint(-30, 30)
        if (p, q) == (0, 0) or gcd(p, q) != 1:
            continue
        a = fill_homology(FIGURE_EIGHT, FillingSlope(p, q)).group
        b = fill_homology(FIGURE_EIGHT, FillingSlope(-p, -q)).group
        assert a == b


def test_solid_torus_cokernel_identity():
    # order of coker([[q, -p], [1, 0]]) is p, for any coprime pair
    rng = random.Random(23)
    checked = 0
    while checked < 500:
        p = rng.randint(1, 200)
        q = rng.randint(-200, 200)
        if gcd(p, q) != 1:
            continue
        group = cokernel(IntegerMatrix.from_rows([[q, -p], [1, 0]], 2))
        assert group.torsion_order == p
        assert group.betti == 0
        checked += 1


def test_lower_bound_with_infinite_order_meridian():
    rng = random.Random(31)
    for _ in range(50):
        # core H_1 = Z^2 + Z/k, meridian hits a free generator
        k = rng.randint(2, 9)
        data = PeripheralData(
            core_presentation=IntegerMatrix.from_rows([[0], [0], [k]], 1),
            mu_image=(1, rng.randint(-3, 3), rng.randint(0, k - 1)),
            lambda_image=(0, 0, rng.randint(0, k - 1)),
        )
        p, q = 7, 3
        group = fill_homology(data, FillingSlope(p, q)).group
        assert group.torsion_order >= p


def row_built_presentation(data, slope):
    """The filling presentation assembled as dense rows: the solid-torus
    row, then one row per core generator."""
    r = data.core_presentation.cols
    rows = [[slope.q, -slope.p] + [0] * r]
    for i in range(data.generators):
        rows.append([data.mu_image[i], data.lambda_image[i]]
                    + list(data.core_presentation.to_lists()[i]))
    return IntegerMatrix.from_rows(rows, 2 + r)


def test_column_built_filling_presentation_matches_the_row_built_one():
    rng = random.Random(19)
    for _ in range(200):
        n, r = rng.randint(1, 4), rng.randint(0, 4)
        relations = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        # k e_t is a relation, so the longitude c e_t is a torsion class
        t, k = rng.randrange(n), rng.randint(2, 6)
        relations.append([k if i == t else 0 for i in range(n)])
        data = PeripheralData(
            core_presentation=IntegerMatrix.from_rows(
                [[rel[i] for rel in relations] for i in range(n)], len(relations)),
            mu_image=tuple(rng.randint(-3, 3) for _ in range(n)),
            lambda_image=tuple(rng.randint(1, 3) if i == t else 0 for i in range(n)),
        )
        while True:
            p, q = rng.randint(-9, 9), rng.randint(0, 9)
            if gcd(p, q) == 1:
                break
        slope = FillingSlope(p, q)
        assert fill_homology(data, slope).group == cokernel(row_built_presentation(data, slope))


def test_lambda_must_be_torsion():
    with pytest.raises(FillingError):
        PeripheralData(
            core_presentation=IntegerMatrix.zeros(1, 0),
            mu_image=(1,),
            lambda_image=(1,),
        )


def test_family_table_contents():
    table = figure_eight_family(range(1, 6), range(1, 3))
    slopes = {(row["p"], row["q"]) for row in table}
    assert (2, 2) not in slopes  # gcd filter
    for row in table:
        assert row["volume_upper_bound"] == pytest.approx(2.0298832128, abs=1e-8)
        if row["p"] >= 2:
            assert row["torsion"] == [row["p"]]


def test_knot_complement_data_shape():
    data = knot_complement_data()
    assert data.generators == 1


@pytest.mark.parametrize("mu, lam", [((1, 0), (0,)), ((1,), (0, 0))], ids=["mu", "lambda"])
def test_peripheral_images_of_the_wrong_length_are_rejected(mu, lam):
    with pytest.raises(FillingError, match="peripheral images must have one entry per core generator"):
        PeripheralData(core_presentation=IntegerMatrix.zeros(1, 0), mu_image=mu, lambda_image=lam)
