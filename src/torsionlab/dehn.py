"""First homology of Dehn fillings and the figure-eight filling family.

Filling a one-cusp manifold along the slope p*mu + q*lambda glues in a
solid torus; the Mayer-Vietoris sequence presents H_1 of the result as
the cokernel of the map from H_1 of the boundary torus into
H_1(solid torus) + H_1(core).  The solid-torus row kills the filling
slope, so it sends (mu, lambda) to (q, -p) (any primitive annihilating
vector gives an isomorphic cokernel).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator, Sequence

from .constants import figure_eight_volume
from .exact import AbelianGroupStructure, InputError, IntegerMatrix, cokernel, rational_rank


class FillingError(InputError):
    """Invalid slope or peripheral data."""


@dataclass(frozen=True)
class PeripheralData:
    """H_1 presentation of a compact core plus the peripheral images.

    core_presentation has one row per generator of H_1(core) and one
    column per relation.  mu_image and lambda_image are the images of the
    meridian/longitude basis of the boundary torus; lambda must be a
    torsion (or zero) class, as it is for any one-cusp manifold.
    """

    core_presentation: IntegerMatrix
    mu_image: tuple[int, ...]
    lambda_image: tuple[int, ...]

    def __post_init__(self):
        core = self.core_presentation
        if len(self.mu_image) != core.rows or len(self.lambda_image) != core.rows:
            raise FillingError("peripheral images must have one entry per core generator")
        if any(self.lambda_image):
            with_lambda = IntegerMatrix(core.rows, core.cols + 1,
                                        core.columns + (dict(enumerate(self.lambda_image)),))
            if rational_rank(with_lambda) != rational_rank(core):
                raise FillingError("longitude image must be a torsion class of the core")

    @property
    def generators(self) -> int:
        return self.core_presentation.rows


def knot_complement_data() -> PeripheralData:
    """Peripheral data of any knot complement in the 3-sphere.

    H_1 of the core is Z generated by the meridian, and the longitude is
    nullhomologous; the figure-eight knot is the case of interest here.
    """
    return PeripheralData(
        core_presentation=IntegerMatrix.zeros(1, 0),
        mu_image=(1,),
        lambda_image=(0,),
    )


FIGURE_EIGHT = knot_complement_data()

# Fillings possibly failing to be hyperbolic, up to sign: the six
# sporadic figure-eight slopes.
FIGURE_EIGHT_EXCLUSIONS = frozenset({(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (4, 1)})


@dataclass(frozen=True)
class FillingSlope:
    """Primitive class p*mu + q*lambda on the boundary torus."""

    p: int
    q: int

    def __post_init__(self):
        if (self.p, self.q) == (0, 0):
            raise FillingError("slope (0, 0) is not a curve")
        if gcd(self.p, self.q) != 1:
            raise FillingError(f"slope ({self.p}, {self.q}) is not primitive")


@dataclass(frozen=True)
class FillingResult:
    group: AbelianGroupStructure
    hyperbolic: str  # "yes" | "excluded" | "unknown"

    def to_json(self, slope: FillingSlope) -> dict:
        return {"p": slope.p, "q": slope.q, "betti": self.group.betti,
                "torsion": list(self.group.invariant_factors), "hyperbolic": self.hyperbolic}


def fill_homology(data: PeripheralData, slope: FillingSlope) -> FillingResult:
    """H_1 of the filled manifold as a cokernel.

    Rows: solid-torus generator plus core generators.  Columns: images of
    mu and lambda, then the core relations padded by zero on the
    solid-torus row.
    """
    columns = [dict(enumerate((slope.q, *data.mu_image))),
               dict(enumerate((-slope.p, *data.lambda_image)))]
    columns += [{i + 1: v for i, v in col.items()} for col in data.core_presentation.columns]
    group = cokernel(IntegerMatrix(data.generators + 1, len(columns), columns))
    return FillingResult(group=group, hyperbolic="unknown")


def figure_eight_filling(slope: FillingSlope) -> FillingResult:
    """Filling of the figure-eight complement, with the hyperbolicity flag."""
    base = fill_homology(FIGURE_EIGHT, slope)
    excluded = (abs(slope.p), abs(slope.q)) in FIGURE_EIGHT_EXCLUSIONS
    return FillingResult(group=base.group, hyperbolic="excluded" if excluded else "yes")


def figure_eight_rows(p_range: Sequence[int], q_range: Sequence[int]) -> Iterator[dict]:
    """Filling table over all primitive slopes in the given ranges, one row
    at a time.

    Every hyperbolic member has volume strictly below the figure-eight
    volume, reported as the shared upper bound.
    """
    volume_bound = figure_eight_volume()
    for p in p_range:
        for q in q_range:
            if (p, q) == (0, 0) or gcd(p, q) != 1:
                continue
            slope = FillingSlope(p, q)
            row = figure_eight_filling(slope).to_json(slope)
            row["volume_upper_bound"] = volume_bound
            yield row


def figure_eight_family(p_range: Sequence[int], q_range: Sequence[int]) -> list[dict]:
    """The rows of figure_eight_rows as one list."""
    return list(figure_eight_rows(p_range, q_range))
