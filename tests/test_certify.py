import math

import numpy as np
import pytest

from torsionlab import hyperbolic as hyp
from torsionlab.certify import stands
from torsionlab.cli import main

FLOOR = 2.0 ** -960
UNIT = 2.0 ** -52
# the bound at 4 roundings, as value over per, and the next float above it
AT_BOUND = 4 * UNIT
ABOVE_BOUND = math.nextafter(AT_BOUND, 1.0)

# (value, per) pairs at roundings 4, and whether the sign stands
CASES = [
    (ABOVE_BOUND, 1.0, True),
    (-ABOVE_BOUND, 1.0, True),
    (AT_BOUND, 1.0, False),
    (-AT_BOUND, 1.0, False),
    (0.0, 1.0, False),
    (1.0, 1.0, True),
    (-3.5e300, 1e301, True),
    (0.5 * FLOOR, FLOOR, True),
    (0.5 * FLOOR, math.nextafter(FLOOR, 0.0), False),
    (1.0, 2.0 ** -1000, False),
    (1.0, 5e-324, False),
    (1.0, 0.0, False),
    (1.0, math.inf, False),
    (math.inf, math.inf, False),
    (math.inf, 1.0, False),
    (-math.inf, 1.0, False),
    (1.0, math.nan, False),
    (math.nan, 1.0, False),
    (math.nan, math.nan, False),
]


@pytest.mark.parametrize("value, per, want", CASES)
def test_stands_on_a_plain_float(value, per, want):
    got = stands(value, per, 4)
    assert type(got) is bool  # comparisons alone: no numpy scalar
    assert got == want


def test_stands_gives_the_same_answer_on_an_array():
    values, pers, wants = (np.array(column) for column in zip(*CASES))
    got = stands(values, pers, 4)
    assert got.dtype == bool
    assert got.tolist() == wants.tolist()
    assert got.tolist() == [stands(v, p, 4) for v, p, _ in CASES]
    # and on a two-dimensional array, as the tuple filter passes them
    assert (stands(values.reshape(-1, 1), pers.reshape(-1, 1), 4).ravel() == got).all()


@pytest.mark.parametrize("roundings", [1, 6, 44])
def test_the_bound_grows_with_the_roundings(roundings):
    bound = roundings * UNIT
    assert not stands(bound, 1.0, roundings)
    assert stands(math.nextafter(bound, 1.0), 1.0, roundings)
    assert stands(bound, 1.0, roundings - 1)


def verify_obtuse(capsys, d):
    """stdout of `verify obtuse --d d`: the reports of its two checks."""
    assert main(["verify", "obtuse", "--d", str(d)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("d", [3, 4])
def test_obtuse_check_is_unchanged_when_every_float_sign_abstains(monkeypatch, capsys, d):
    exact_calls = []
    exact = hyp._exact_polynomial

    def counting(*args):
        exact_calls.append(args)
        return exact(*args)

    monkeypatch.setattr(hyp, "_exact_polynomial", counting)
    want = verify_obtuse(capsys, d)
    assert not exact_calls
    monkeypatch.setattr(hyp, "stands",
                        lambda value, per, roundings: np.zeros(np.shape(value), dtype=bool))
    assert verify_obtuse(capsys, d) == want
    # every sample of both checks, 200 each, was decided over the rationals
    assert len(exact_calls) == 400
