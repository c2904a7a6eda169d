"""Command-line front end.

Exit-code contract: 0 success, 1 verification failure, 2 input error,
3 internal error, 64 usage error.  All randomized suites take a --seed
(default 0) and the same invocation always produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from decimal import Decimal
from fractions import Fraction

from .exact import AbelianGroupStructure, ExactArithmeticError
from .homology import all_homology
from .simplicial import MalformedComplexError, read_complex_or_pair

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route all argparse failures to exit 64
        raise UsageError(message)


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")


def _fraction_text(value: Fraction) -> str:
    # Decimal prints an int of any length; str() refuses past 4300 digits
    return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"


def _fraction_doc(value: Fraction) -> dict:
    return {"fraction": _fraction_text(value), "float": float(value)}


def _parse_range(text: str) -> range:
    lo, dots, hi = text.partition("..")
    try:
        return range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        raise UsageError(f"bad range {text!r}") from None


def _parse_int_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p != "")
    except ValueError:
        raise UsageError(f"bad integer vector {text!r}") from None


def _require_at_least(value: int, least: int, flag: str) -> None:
    if value < least:
        raise UsageError(f"{flag} must be at least {least}")


# --- homology ----------------------------------------------------------------

def cmd_homology(args) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {args.path}: {exc}") from None
    try:
        obj = read_complex_or_pair(text)
    except MalformedComplexError as exc:
        raise InputError(f"{args.path}: {exc}") from None

    groups = all_homology(obj)
    degrees = list(range(len(groups)))
    if args.degrees is not None:
        degrees = [d for d in _parse_int_vector(args.degrees)]
    for k in degrees:
        if 0 <= k < len(groups):
            _emit(groups[k].to_json(degree=k))
        else:
            _emit(AbelianGroupStructure(0).to_json(degree=k))
    return EXIT_OK


# --- constants ----------------------------------------------------------------

def cmd_constants(args) -> int:
    from . import constants

    _require_at_least(args.d, 2, "--d")
    _require_at_least(args.margulis_m, 1, "--margulis-m")
    try:
        eps = Fraction(args.margulis_eps)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad --margulis-eps {args.margulis_eps!r}") from None
    if eps <= 0:
        raise UsageError("--margulis-eps must be positive")
    params = constants.ThickThinParams(d=args.d, margulis_eps=eps, margulis_index=args.margulis_m)
    table = constants.thick_thin_constants(params)

    doc = {
        "d": args.d,
        "margulis_eps": _fraction_doc(params.margulis_eps),
        "margulis_m": args.margulis_m,
        "eps0": _fraction_doc(params.eps0),
        "eps": _fraction_doc(params.eps),
        "epsilon_by_rank": [
            _fraction_doc(constants.EpsilonAssignment(params, i).value)
            for i in range(args.d)
        ],
        "delta": None,
        "delta_note": table["delta_note"],
        "commutator_chain_passes": constants.commutator_chain_passes(args.d),
    }
    if "b" in table:
        doc["b"] = table["b"]
        doc["delta_upper_bound"] = _fraction_doc(table["delta_upper_bound"])
    if args.m8:
        doc["figure_eight_volume"] = constants.figure_eight_volume()
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


# --- dehn filling --------------------------------------------------------------

def _peripheral_from_args(args):
    from . import dehn
    from .exact import IntegerMatrix

    mu = _parse_int_vector(args.mu)
    lam = _parse_int_vector(args.lam)
    if len(mu) != len(lam):
        raise UsageError("--mu and --lambda must have the same length")
    n = len(mu)
    if args.relations == "none":
        columns: list[tuple[int, ...]] = []
    else:
        columns = [_parse_int_vector(part) for part in args.relations.split(";") if part]
        for col in columns:
            if len(col) != n:
                raise UsageError("every relation must have one entry per generator")
    rows = [[col[i] for col in columns] for i in range(n)]
    try:
        return dehn.PeripheralData(
            core_presentation=IntegerMatrix.from_rows(rows, len(columns)),
            mu_image=mu, lambda_image=lam)
    except dehn.FillingError as exc:
        raise InputError(str(exc)) from None


def cmd_dehn_fill(args) -> int:
    from . import dehn

    data = _peripheral_from_args(args)
    try:
        slope = dehn.FillingSlope(args.p, args.q)
    except dehn.FillingError as exc:
        raise InputError(str(exc)) from None
    if data == dehn.FIGURE_EIGHT:
        result = dehn.figure_eight_filling(slope)
    else:
        result = dehn.fill_homology(data, slope)
    _emit(result.to_json(slope))
    return EXIT_OK


def cmd_dehn_table(args) -> int:
    from . import dehn

    p_range = _parse_range(args.p)
    q_range = _parse_range(args.q)
    for row in dehn.figure_eight_family(p_range, q_range):
        _emit(row)
    return EXIT_OK


# --- verification suites --------------------------------------------------------

def _verify_bound(args) -> int:
    from . import bounds

    _require_at_least(args.count, 1, "--count")
    batch = bounds.batch_verify_soule if args.suite == "soule" else bounds.batch_verify_dv
    summary = batch(args.count, args.seed)
    for record in summary.records:
        _emit(record)
    _emit({"suite": args.suite, "count": summary.count, "seed": summary.seed,
           "failures": len(summary.failures), "max_ratio": summary.max_ratio})
    return EXIT_OK if summary.all_hold else EXIT_VERIFICATION


def _verify_nerve(args) -> int:
    from . import nerve

    z = AbelianGroupStructure
    failures = 0

    circle = nerve.circle_cover()
    rep = nerve.nerve_lemma_check(circle, [z(1), z(1), z(0)])
    failures += 0 if rep.passed else 1
    _emit({"check": "circle-cover", "computed": [str(g) for g in rep.computed],
           "passed": rep.passed})

    convex = nerve.BallCover.of(nerve.EuclideanSpace(2),
                                [((0.1 * k, 0.05 * k), 1.0 + 0.1 * k) for k in range(6)])
    rep = nerve.nerve_lemma_check(convex, [z(1), z(0), z(0)])
    failures += 0 if rep.passed else 1
    _emit({"check": "convex-cover", "computed": [str(g) for g in rep.computed],
           "passed": rep.passed})

    cover, subfamily, shrink = nerve.annulus_cover()
    pair = nerve.relative_nerve(cover, subfamily, shrink)
    rel = all_homology(pair, up_to=2)
    ok = all(g.is_trivial() for g in rel)
    failures += 0 if ok else 1
    _emit({"check": "annulus-pair", "computed": [str(g) for g in rel], "passed": ok})

    _emit({"suite": "nerve", "failures": failures})
    return EXIT_OK if failures == 0 else EXIT_VERIFICATION


def _verify_obtuse(args) -> int:
    from . import hyperbolic

    _require_at_least(args.d, 2, "--d")
    _require_at_least(args.samples, 1, "--samples")
    g = hyperbolic.standard_loxodromic(args.d, 0.2)
    fixed = [1.0, 1.0] + [0.0] * (args.d - 1)
    pa = hyperbolic.parabolic(fixed, [1.0] + [0.0] * (args.d - 2))
    pb = hyperbolic.parabolic(fixed, [0.3] + [0.7] * (args.d - 2))
    failures = 0
    cases = [("loxodromic-powers", g, g.power(2), 0.5, 0.9),
             ("parabolic-pair", pa, pb, 0.4, 0.7)]
    for offset, (check, a, b, eps_a, eps_b) in enumerate(cases):
        rep = hyperbolic.obtuse_angle_check(a, b, eps_a, eps_b, samples=args.samples,
                                            seed=args.seed + offset)
        failures += 0 if rep.passed else 1
        _emit({"check": check, "min_inner_product": rep.min_inner_product,
               "samples": rep.samples, "passed": rep.passed})
    _emit({"suite": "obtuse", "failures": failures})
    return EXIT_OK if failures == 0 else EXIT_VERIFICATION


def _verify_orbit(args) -> int:
    import numpy as np

    from . import hyperbolic

    _require_at_least(args.d, 2, "--d")
    _require_at_least(args.count, 1, "--count")
    rng = np.random.default_rng(args.seed)
    failures = 0
    for index in range(args.count):
        length = float(rng.uniform(0.1, 1.0))
        offset = float(rng.uniform(0.0, 2.0))
        radius = float(rng.uniform(length, 5.0))
        g = hyperbolic.standard_loxodromic(args.d, length)
        x = hyperbolic.base_point(args.d)
        if offset > 0:
            v = np.zeros(args.d + 1)
            v[2] = 1.0
            x = hyperbolic.make_point(hyperbolic.exp_map(x, v, offset))
        rep = hyperbolic.orbit_count_check(g, x, radius)
        failures += 0 if rep.passed else 1
        _emit({"index": index, "length": length, "offset": offset, "radius": radius,
               "count": rep.count, "bound": rep.bound, "passed": rep.passed})
    _emit({"suite": "orbit", "count": args.count, "seed": args.seed, "failures": failures})
    return EXIT_OK if failures == 0 else EXIT_VERIFICATION


def _verify_commutator(args) -> int:
    from . import constants

    _require_at_least(args.d, 2, "--d")
    checks = constants.commutator_inequality_check(args.d)
    failures = 0
    for c in checks:
        if not c.passes:
            failures += 1
        _emit({"rank_a": c.rank_a, "rank_c": c.rank_c,
               "lhs": _fraction_text(c.lhs), "rhs": _fraction_text(c.rhs), "passed": c.passes})
    _emit({"suite": "commutator", "d": args.d, "failures": failures})
    return EXIT_OK if failures == 0 else EXIT_VERIFICATION


_SUITES = {
    "soule": _verify_bound,
    "dv-bound": _verify_bound,
    "nerve": _verify_nerve,
    "obtuse": _verify_obtuse,
    "orbit": _verify_orbit,
    "commutator": _verify_commutator,
}


def cmd_verify(args) -> int:
    runner = _SUITES.get(args.suite)
    if runner is None:
        raise UsageError(f"unknown suite {args.suite!r}; choose from {sorted(_SUITES)}")
    return runner(args)


# --- parser -------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="torsionlab",
                     description="Exact homology, torsion bounds, nerves, hyperbolic "
                                 "checks and Dehn-filling homology")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", help="homology of a complex or pair file")
    p.add_argument("path")
    p.add_argument("--degrees", default=None, help="comma-separated degrees (default: all)")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("constants", help="derived thick-thin constants as JSON")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--margulis-eps", default="0.1")
    p.add_argument("--margulis-m", type=int, default=2)
    p.add_argument("--m8", action="store_true", help="include the figure-eight volume")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("dehn-fill", help="first homology of one Dehn filling")
    p.add_argument("--mu", default="1")
    p.add_argument("--lambda", dest="lam", default="0")
    p.add_argument("--relations", default="none")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_dehn_fill)

    p = sub.add_parser("dehn-table", help="figure-eight filling table (JSON lines)")
    p.add_argument("--p", required=True, help="range a..b or single value")
    p.add_argument("--q", required=True, help="range a..b or single value")
    p.set_defaults(func=cmd_dehn_table)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(func=cmd_verify)

    return parser


def _loaded(module: str, *names: str) -> tuple[type[Exception], ...]:
    """The named exception classes of a submodule, if a handler imported it.

    Subcommand modules are imported lazily; one that was never imported
    raised nothing, and an empty tuple catches nothing.
    """
    mod = sys.modules.get(f"{__package__}.{module}")
    return tuple(getattr(mod, name) for name in names) if mod else ()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"torsionlab: usage error: {exc}\n")
        return EXIT_USAGE
    except InputError as exc:
        sys.stderr.write(f"torsionlab: input error: {exc}\n")
        return EXIT_INPUT
    except _loaded("hyperbolic", "GeometryError", "SamplingError") as exc:
        sys.stderr.write(f"torsionlab: input error: {exc}\n")
        return EXIT_INPUT
    except (ExactArithmeticError, *_loaded("nerve", "IndeterminateIntersectionError")) as exc:
        sys.stderr.write(f"torsionlab: internal error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
