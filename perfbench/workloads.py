"""The benchmark's workloads: seeded inputs, the ops, and answer checks.

Each builder imports only the torsionlab modules its ops call, so the
set-up time of a workload counts the imports its users pay.  An op is one
call into the program; its check runs after the timed phase.  A wrong
answer raises WrongAnswer, which aborts the run; an op that raises is a
failure and is counted, never retried or redrawn.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

ORACLE_LIMIT = 500  # homology_oracle_crosscheck refuses larger complexes


class WrongAnswer(Exception):
    """The program returned a result that contradicts a known answer."""


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]
    input: object  # the seeded input, comparable across builds
    kind: str = ""  # ops of one kind do the same work; op_p50_ms weighs kinds equally

    def __post_init__(self):
        self.kind = self.kind or self.name


@dataclass
class Workload:
    ops: list[Op]
    post_check: Callable[[], None] = lambda: None


@dataclass(frozen=True)
class Spec:
    build: Callable[..., Workload]
    round_s: float  # one round's wall time at the seed commit on a 2-CPU x86-64 VM
    min_rounds: int


def rounds_for(spec: Spec, seconds: float) -> int:
    """Fixed work per run: as many whole rounds as fill the given seconds
    at the nominal round time, so every run of a seed does the same ops."""
    return max(spec.min_rounds, math.ceil(seconds / spec.round_s))


def tl(name: str):
    """The torsionlab submodule of that name.

    ``from torsionlab import homology`` would give the function that the
    package re-exports under the module's name, so look the module up.
    """
    return importlib.import_module(f"torsionlab.{name}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# --- known answers ------------------------------------------------------------

def check_groups(groups, expected: list[tuple[int, tuple[int, ...]]], label: str) -> None:
    """Compare homology groups with (betti, invariant factors) per degree."""
    got = [(g.betti, tuple(g.invariant_factors)) for g in groups]
    if got != expected:
        raise WrongAnswer(f"{label}: homology {got}, expected {expected}")


def check_euler(groups, euler: int, label: str) -> None:
    from_betti = sum((-1) ** k * g.betti for k, g in enumerate(groups))
    if from_betti != euler:
        raise WrongAnswer(f"{label}: Euler characteristic {from_betti} from Betti numbers, "
                          f"{euler} from the f-vector")


def euler_of(complex_) -> int:
    return sum((-1) ** k * count for k, count in enumerate(complex_.f_vector()))


# --- homology-large ---------------------------------------------------------------

TORUS = [(1, ()), (2, ()), (1, ())]
KLEIN = [(1, ()), (1, (2,)), (0, ())]
GRID_SIZES = (6, 7, 8, 9, 10)
FAMILY_SEED = 0  # draws the fixed input families of homology-large and nerve-cover
DV_FAMILY = 4


def grid_surface(n: int, twisted: bool):
    """Triangulated n x n grid: a torus, or a Klein bottle when twisted.

    Vertex (i, j) is i * n + j; crossing i = n re-enters at j -> -j when
    twisted.  Every square is cut along its (i, j)-(i+1, j+1) diagonal.
    """
    simplicial = tl("simplicial")

    def vertex(i: int, j: int) -> int:
        if i == n:
            i, j = 0, (-j) % n if twisted else j
        return i * n + j % n

    triangles = []
    for i in range(n):
        for j in range(n):
            a, b, c, d = vertex(i, j), vertex(i + 1, j), vertex(i, j + 1), vertex(i + 1, j + 1)
            triangles += [(a, b, d), (a, c, d)]
    return simplicial.build_complex(triangles, vertex_count=n * n)


def source_digest() -> str:
    """Digest of the program: every file under src/ whatever its suffix
    (compiled extensions too), the interpreter and numpy versions."""
    import numpy

    digest = hashlib.sha256(f"{sys.version}|{numpy.__version__}".encode())
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


class OracleCache:
    """Crosscheck outcomes keyed by program digest and input text.

    homology_oracle_crosscheck takes 18 s on the 8 x 8 grids and 38 s on
    the 9 x 9 ones, so a checkout runs it once per input and program
    version and keeps the outcome under .bench_build/.  Only agreements
    are stored; a disagreement raises every time.
    """

    def __init__(self):
        self.path = OUT / "oracle.json"
        self.digest = source_digest()
        try:
            self.known = set(json.loads(self.path.read_text()))
        except (OSError, ValueError):
            self.known = set()

    def crosscheck(self, complex_, label: str) -> None:
        exact = tl("exact")
        homology = tl("homology")
        simplicial = tl("simplicial")

        if len(complex_.simplices) > ORACLE_LIMIT:
            return
        text = simplicial.write_complex(complex_)
        key = hashlib.sha256((self.digest + text).encode()).hexdigest()
        if key in self.known:
            return
        for k in range(max(complex_.dimension, 0) + 1):
            try:
                homology.homology_oracle_crosscheck(complex_, k)
            except exact.ExactArithmeticError as exc:
                raise WrongAnswer(f"{label}: {exc}") from None
        self.known.add(key)
        OUT.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(sorted(self.known)))
        os.replace(tmp, self.path)


def dv_family():
    """DV_FAMILY (D, V) complexes and as many pairs, drawn once from FAMILY_SEED.

    Fresh draws cost anywhere from 0.2 to 70 ms to reduce, so each seed
    would make a different workload; the run seed relabels these instead.
    """
    simplicial = tl("simplicial")
    rng = random.Random(FAMILY_SEED)
    complexes, pairs = [], []
    for _ in range(DV_FAMILY):
        complexes.append(simplicial.random_dv_complex(6, 60, 3, seed=rng.getrandbits(32)))
        total = simplicial.random_dv_complex(6, 60, 3, seed=rng.getrandbits(32))
        pairs.append((total, simplicial.random_subcomplex(total, seed=rng.getrandbits(32))))
    return complexes, pairs


def relabel(complex_, perm):
    """The complex with vertex v renamed perm[v]: the same homology."""
    simplices = frozenset(tuple(sorted(perm[v] for v in s)) for s in complex_.simplices)
    return tl("simplicial").SimplicialComplex(vertex_count=complex_.vertex_count,
                                              simplices=simplices)


def prepare_oracle() -> None:
    """Crosscheck the fixed inputs once per checkout (the build step)."""
    cache = OracleCache()
    for n in GRID_SIZES:
        for twisted in (False, True):
            cache.crosscheck(grid_surface(n, twisted), f"grid n={n}")
    complexes, pairs = dv_family()
    for i, complex_ in enumerate(complexes):
        cache.crosscheck(complex_, f"dv-{i}")
    for i, (total, sub) in enumerate(pairs):
        cache.crosscheck(total, f"pair-{i}.total")
        cache.crosscheck(sub, f"pair-{i}.sub")


def build_homology_large(seed: int, rounds: int) -> Workload:
    homology = tl("homology")
    simplicial = tl("simplicial")

    rng = random.Random(seed)
    grids = {}
    for n in GRID_SIZES:
        for twisted in (False, True):
            surface = grid_surface(n, twisted)
            name = f"{'klein' if twisted else 'torus'}-{n}"
            grids[n, twisted] = (surface, simplicial.write_complex(surface), name)
    complexes, pairs = dv_family()
    references: dict[str, list] = {}

    def reference(member: str):
        """Groups of the unrelabelled family member, crosschecked by the oracle."""
        if member not in references:
            cache = OracleCache()
            i = int(member.split("-")[1])
            if member.startswith("dv"):
                cache.crosscheck(complexes[i], member)
                references[member] = homology.all_homology(complexes[i])
            else:
                total, sub = pairs[i]
                cache.crosscheck(total, f"{member}.total")
                cache.crosscheck(sub, f"{member}.sub")
                references[member] = homology.all_relative_homology(
                    simplicial.SimplicialPair(total=total, sub=sub))
        return references[member]

    def grid_op(surface, text, name, expected):
        def call():
            return homology.all_homology(simplicial.read_complex_or_pair(text))

        def check(groups):
            check_groups(groups, expected, name)
            check_euler(groups, euler_of(surface), name)

        return Op(name, call, check, text)

    def family_op(member, text, relative, euler, r):
        name = f"{member}-r{r}"

        def call():
            parsed = simplicial.read_complex_or_pair(text)
            if relative:
                return homology.all_relative_homology(parsed)
            return homology.all_homology(parsed)

        def check(groups):
            want = reference(member)
            check_groups(groups, [(g.betti, tuple(g.invariant_factors)) for g in want], name)
            check_euler(groups, euler, name)

        return Op(name, call, check, text, kind="pair" if relative else "dv")

    # The grids are fixed known answers.  Each round runs all five grid
    # sizes, alternating torus and Klein bottle, then one (D, V) complex and
    # one pair of the family, each relabelled afresh by the seed.
    ops: list[Op] = []
    for r in range(rounds):
        for n in GRID_SIZES:
            twisted = (n + r) % 2 == 1
            surface, text, name = grids[n, twisted]
            ops.append(grid_op(surface, text, name, KLEIN if twisted else TORUS))
        i = r % DV_FAMILY
        perm = list(range(complexes[i].vertex_count))
        rng.shuffle(perm)
        dv = relabel(complexes[i], perm)
        ops.append(family_op(f"dv-{i}", simplicial.write_complex(dv), False, euler_of(dv), r))
        total, sub = pairs[i]
        perm = list(range(total.vertex_count))
        rng.shuffle(perm)
        pair = simplicial.SimplicialPair(total=relabel(total, perm), sub=relabel(sub, perm))
        ops.append(family_op(f"pair-{i}", simplicial.write_pair(pair), True,
                             euler_of(total) - euler_of(sub), r))

    def post_check():
        cache = OracleCache()
        for surface, _, name in grids.values():
            cache.crosscheck(surface, name)

    return Workload(ops, post_check)


# --- nerve-cover ------------------------------------------------------------------

COVER_SIZES = (30, 35, 40)
# f-vectors of the nerves (max_dim=2) of the twelve family covers, in
# cover_family() order.  An isometric copy has the same nerve, so every op
# must reproduce its member's f-vector: this checks the triangles that
# common_point_exists decides and the H3 edges, which have no exact oracle.
NERVE_F_VECTORS = (
    (30, 116, 173), (30, 133, 222), (35, 122, 185), (35, 170, 316),
    (40, 133, 150), (40, 252, 708), (30, 109, 138), (30, 135, 212),
    (35, 157, 322), (35, 179, 375), (40, 145, 176), (40, 252, 606),
)


def _hyperbolic_radius(u: float, limit: float) -> float:
    """Inverse of the volume fraction of a hyperbolic 3-ball of radius limit."""
    def volume(r):
        return math.sinh(2 * r) / 4 - r / 2

    target = u * volume(limit)
    lo, hi = 0.0, limit
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if volume(mid) < target else (lo, mid)
    return lo


def cover_family() -> list[tuple[str, list[tuple[float, ...]], float]]:
    """Twelve fixed covers: E3 and H3, 30/35/40 balls, two of each.

    E3: centres uniform in [-2, 2]^3, r = 0.9.  H3: centres uniform by
    volume within distance 1.5 of the base point (hyperboloid coordinates),
    r = 0.7.  Drawn once from FAMILY_SEED; the run seed moves each copy.
    """
    rng = random.Random(FAMILY_SEED)
    family = []
    for _ in range(2):
        for n in COVER_SIZES:
            family.append(("E", [tuple(rng.uniform(-2, 2) for _ in range(3)) for _ in range(n)], 0.9))
            centres = []
            for _ in range(n):
                direction = [rng.gauss(0, 1) for _ in range(3)]
                norm = math.sqrt(sum(x * x for x in direction))
                t = _hyperbolic_radius(rng.random(), 1.5)
                centres.append((math.cosh(t), *(math.sinh(t) * x / norm for x in direction)))
            family.append(("H", centres, 0.7))
    return family


def _rotation(rng: random.Random) -> list[list[float]]:
    """Uniform random rotation of R^3 from a unit quaternion."""
    q = [rng.gauss(0, 1) for _ in range(4)]
    norm = math.sqrt(sum(x * x for x in q))
    w, x, y, z = (c / norm for c in q)
    return [[1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)]]


def _rotate(m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(3)) for i in range(3))


def moved_copy(kind: str, centres, radius: float, rng: random.Random):
    """An isometric copy with shuffled labels: the nerve's shape is kept,
    while every float coordinate and the tuple order change with the seed."""
    m = _rotation(rng)
    order = list(range(len(centres)))
    rng.shuffle(order)
    if kind == "E":
        shift = [rng.uniform(-1, 1) for _ in range(3)]
        moved = [tuple(a + b for a, b in zip(_rotate(m, centres[i]), shift)) for i in order]
    else:
        moved = [(centres[i][0], *_rotate(m, centres[i][1:])) for i in order]
    return [(c, radius) for c in moved]


def euclidean_edges(balls) -> set[tuple[int, int]]:
    """Pairs of closed balls that meet, decided on exact rationals."""
    exact = [([Fraction(x) for x in c], Fraction(r)) for c, r in balls]
    edges = set()
    for i in range(len(exact)):
        ci, ri = exact[i]
        for j in range(i + 1, len(exact)):
            cj, rj = exact[j]
            if sum((a - b) ** 2 for a, b in zip(ci, cj)) <= (ri + rj) ** 2:
                edges.add((i, j))
    return edges


def build_nerve_cover(seed: int, rounds: int) -> Workload:
    nerve = tl("nerve")

    rng = random.Random(seed)
    family = cover_family()
    ops = []
    for r in range(rounds):
        for index, (kind, centres, radius) in enumerate(family):
            balls = moved_copy(kind, centres, radius, rng)
            space = nerve.EuclideanSpace(3) if kind == "E" else nerve.HyperbolicSpace(3)
            cover = nerve.BallCover.of(space, balls)
            member = f"{kind}{len(balls)}-{index}"
            name = f"{member}-r{r}"

            def call(cover=cover):
                return nerve.nerve(cover, max_dim=2)

            def check(complex_, balls=balls, kind=kind, name=name, index=index):
                if complex_.used_vertices() != tuple(range(len(balls))):
                    raise WrongAnswer(f"{name}: nerve lost a vertex")
                if complex_.f_vector() != NERVE_F_VECTORS[index]:
                    raise WrongAnswer(f"{name}: f-vector {complex_.f_vector()}, expected "
                                      f"{NERVE_F_VECTORS[index]} as for every copy of this cover")
                if kind == "E":
                    edges = {s for s in complex_.simplices if len(s) == 2}
                    want = euclidean_edges(balls)
                    if edges != want:
                        raise WrongAnswer(f"{name}: edges differ from the exact decision "
                                          f"on {sorted(edges ^ want)[:5]}")

            ops.append(Op(name, call, check, (kind, balls), kind=member))
    return Workload(ops)


# --- verify-batches ---------------------------------------------------------------

VOLUME_TOL = 1e-9
# The mix follows the CLI's verify suites at their defaults: `verify soule`,
# `verify dv-bound` (at p = 1 and 2) and `verify orbit` run 100 records each,
# so a round is one record of each, plus one `dehn-table` row.  `verify obtuse`
# runs 2 checks of 200 samples beside those 100 records: one round in
# OBTUSE_EVERY adds one such check.
OBTUSE_EVERY = 50
OBTUSE_SAMPLES = 200
# `verify dv-bound` checks 100 complexes at its default --count; the rounds
# cycle through that many, so set-up time does not grow with the run.
DV_POOL = 100


def build_verify_batches(seed: int, rounds: int) -> Workload:
    import mpmath
    import numpy as np

    bounds = tl("bounds")
    dehn = tl("dehn")
    exact = tl("exact")
    hyperbolic = tl("hyperbolic")
    simplicial = tl("simplicial")

    rng = random.Random(seed)
    orbit_rng = np.random.default_rng(seed)  # the draw order of `verify orbit`
    volume = float(3 * mpmath.clsin(2, 2 * mpmath.pi / 3))
    ops: list[Op] = []

    def soule_op(i):
        rows, cols = rng.randint(1, 10), rng.randint(1, 10)
        mat = exact.IntegerMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)], cols)
        name = f"soule-{i}"

        def check(report):
            if not report.holds:
                raise WrongAnswer(f"{name}: column-norm bound fails on {mat.to_lists()}")

        return Op(name, lambda: bounds.soule_bound(mat), check, mat, kind="soule")

    def dv_pair(i):
        total = simplicial.random_dv_complex(6, 30, 3, seed=rng.getrandbits(32))
        if i % 2:
            sub = simplicial.random_subcomplex(total, seed=rng.getrandbits(32))
        else:
            sub = simplicial.empty_complex(total.vertex_count)
        return simplicial.SimplicialPair(total=total, sub=sub)

    pairs = [dv_pair(i) for i in range(min(rounds, DV_POOL))]

    def dv_ops(i):
        pair = pairs[i % len(pairs)]
        out = []
        for p in (1, 2):
            name = f"dv-{i}-p{p}"

            def check(report, name=name):
                if not report.holds:
                    raise WrongAnswer(f"{name}: D^p V bound fails")

            out.append(Op(name, lambda p=p: bounds.dv_torsion_check(pair, p), check, (pair, p),
                          kind=f"dv-p{p}"))
        return out

    def orbit_op(i):
        length = float(orbit_rng.uniform(0.1, 1.0))
        offset = float(orbit_rng.uniform(0.0, 2.0))
        radius = float(orbit_rng.uniform(length, 5.0))
        name = f"orbit-{i}"

        def call():
            g = hyperbolic.standard_loxodromic(3, length)
            x = hyperbolic.base_point(3)
            if offset > 0:
                v = np.zeros(4)
                v[2] = 1.0
                x = hyperbolic.make_point(hyperbolic.exp_map(x, v, offset))
            return hyperbolic.orbit_count_check(g, x, radius)

        def check(report):
            if not report.passed:
                raise WrongAnswer(f"{name}: orbit count {report.count} above bound {report.bound}")

        return Op(name, call, check, (length, offset, radius), kind="orbit")

    def filling_op(i):
        while True:
            p, q = rng.randint(0, 50), rng.randint(1, 10)
            if gcd(p, q) == 1:
                break
        name = f"filling-{i}-{p}/{q}"

        def check(rows):
            want_torsion = [p] if p > 1 else []
            excluded = (p, q) in dehn.FIGURE_EIGHT_EXCLUSIONS
            if len(rows) != 1:
                raise WrongAnswer(f"{name}: {len(rows)} table rows for one slope")
            row = rows[0]
            if (row["betti"], row["torsion"]) != (int(p == 0), want_torsion):
                raise WrongAnswer(f"{name}: H_1 {row}, expected Z/{p}")
            if row["hyperbolic"] != ("excluded" if excluded else "yes"):
                raise WrongAnswer(f"{name}: hyperbolicity flag {row['hyperbolic']}")
            if abs(row["volume_upper_bound"] - volume) > VOLUME_TOL:
                raise WrongAnswer(f"{name}: volume {row['volume_upper_bound']} != 3 Cl2(2pi/3)")

        return Op(name, lambda: dehn.figure_eight_family(range(p, p + 1), range(q, q + 1)),
                  check, (p, q), kind="filling")

    def obtuse_op(i):
        length = rng.uniform(0.1, 0.25)
        eps_a = length + rng.uniform(0.2, 0.4)
        eps_b = 2 * length + rng.uniform(0.2, 0.4)
        sample_seed = rng.getrandbits(32)
        name = f"obtuse-{i}"

        def call():
            g = hyperbolic.standard_loxodromic(3, length)
            return hyperbolic.obtuse_angle_check(g, g.power(2), eps_a, eps_b,
                                                 samples=OBTUSE_SAMPLES, seed=sample_seed)

        def check(report):
            if not report.passed:
                raise WrongAnswer(f"{name}: gradients meet at an acute angle "
                                  f"({report.min_inner_product})")

        return Op(name, call, check, (length, eps_a, eps_b, sample_seed), kind="obtuse")

    for r in range(rounds):
        ops.append(soule_op(r))
        ops.extend(dv_ops(r))
        ops.append(orbit_op(r))
        ops.append(filling_op(r))
        if r % OBTUSE_EVERY == OBTUSE_EVERY - 1:
            ops.append(obtuse_op(r))
    return Workload(ops)


WORKLOADS = {
    "homology-large": Spec(
        build_homology_large, round_s=2.5, min_rounds=2),
    "nerve-cover": Spec(
        build_nerve_cover, round_s=10.0, min_rounds=2),
    "verify-batches": Spec(
        build_verify_batches, round_s=0.0075, min_rounds=50),
}
