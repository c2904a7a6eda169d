"""Command-line front end.

Exit-code contract: 0 success, 1 verification failure, 2 input error,
3 internal error, 64 usage error, 141 (128 + SIGPIPE) a stdout its reader
closed.  The parser converts and bounds every argument, so a bad value is
a usage error before any work starts.  After that an error's class
decides the status: an exact.InputError (outside input at fault) exits 2,
and an ExactArithmeticError, an ArithmeticError or any other exception
(the program at fault) exits 3, so only a failed check exits 1.
Each `verify` suite takes only the flags it reads, listed in
_SUITE_TABLE; any other flag is a usage error.
Each suite runs one library check per instance and builds its JSON
records here; _report emits them, counts the failures and sets the exit
code.  The randomized suites take --seed (default 0), and the same
invocation always produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from decimal import Decimal
from fractions import Fraction

from .exact import AbelianGroupStructure, ExactArithmeticError, InputError
from .homology import all_homology
from .simplicial import read_complex_or_pair

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_USAGE = 64
EXIT_BROKEN_PIPE = 141


class UsageError(Exception):
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
        values = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        raise UsageError(f"bad range {text!r}") from None
    if not values:
        raise UsageError(f"empty range {text!r}")
    return values


def _parse_int_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p != "")
    except ValueError:
        raise UsageError(f"bad integer vector {text!r}") from None


def _parse_relations(text: str) -> list[tuple[int, ...]]:
    return [] if text == "none" else [_parse_int_vector(part) for part in text.split(";") if part]


def _at_least(least: int, flag: str):
    """An argparse type: an int of at least `least`.  argparse passes the
    UsageError through, and names the type "int" for a ValueError of int()."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise UsageError(f"{flag} must be at least {least}")
        return value

    parse.__name__, parse.least = "int", least
    return parse


def _margulis_eps(text: str) -> Fraction:
    try:
        eps = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad --margulis-eps {text!r}") from None
    if eps <= 0:
        raise UsageError("--margulis-eps must be positive")
    if eps > sys.float_info.max:  # every field prints a float beside its fraction
        raise UsageError("--margulis-eps must not exceed the largest float")
    return eps


# --- homology ----------------------------------------------------------------

def _read(path: str, parse):
    """parse(text of the file at path); an InputError names the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        return parse(text)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def cmd_homology(args) -> int:
    groups = all_homology(_read(args.path, read_complex_or_pair))
    for k in range(len(groups)) if args.degrees is None else args.degrees:
        if 0 <= k < len(groups):
            _emit(groups[k].to_json(degree=k))
        else:
            _emit(AbelianGroupStructure(0).to_json(degree=k))
    return EXIT_OK


# --- nerve --------------------------------------------------------------------

def cmd_nerve(args) -> int:
    from . import nerve

    cover = _read(args.path, nerve.read_cover)
    cap = cover.space.dimension + 1 if args.max_dim is None else args.max_dim
    complex_ = nerve.nerve(cover, max_dim=cap)
    doc = {"space": cover.space.kind, "dimension": cover.space.dimension, "max_dim": cap,
           "f_vector": list(complex_.f_vector())}
    if args.homology:
        # the cap's own degree is distorted by the cut, so only the degrees below it
        groups = all_homology(complex_, up_to=cap - 1)
        doc["homology"] = [g.to_json(degree=k) for k, g in enumerate(groups)]
    _emit(doc)
    return EXIT_OK


# --- constants ----------------------------------------------------------------

def cmd_constants(args) -> int:
    from . import constants

    params = constants.ThickThinParams(args.d, args.margulis_eps, args.margulis_m)
    doc = {
        "d": args.d,
        "margulis_eps": _fraction_doc(params.margulis_eps),
        "margulis_m": args.margulis_m,
        "eps0": _fraction_doc(params.eps0),
        "eps": _fraction_doc(params.eps),
        "epsilon_by_rank": [_fraction_doc(params.epsilon(i)) for i in range(args.d)],
        "delta": None,
        "delta_note": "delta is not constructed; it must satisfy delta <= eps/(2(b+1))",
        "commutator_chain_passes": constants.commutator_chain_passes(args.d),
    }
    if params.b is not None:
        doc["b"] = params.b
        doc["delta_upper_bound"] = _fraction_doc(params.delta_upper_bound)
    if args.m8:
        doc["figure_eight_volume"] = constants.figure_eight_volume()
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


# --- dehn filling --------------------------------------------------------------

def _peripheral_from_args(args):
    from . import dehn
    from .exact import IntegerMatrix

    n = len(args.mu)
    if len(args.lam) != n:
        raise UsageError("--mu and --lambda must have the same length")
    if any(len(col) != n for col in args.relations):
        raise UsageError("every relation must have one entry per generator")
    core = IntegerMatrix(n, len(args.relations), [dict(enumerate(col)) for col in args.relations])
    return dehn.PeripheralData(core_presentation=core, mu_image=args.mu, lambda_image=args.lam)


def cmd_dehn_fill(args) -> int:
    from . import dehn

    data = _peripheral_from_args(args)
    slope = dehn.FillingSlope(args.p, args.q)
    if data == dehn.FIGURE_EIGHT:
        result = dehn.figure_eight_filling(slope)
    else:
        result = dehn.fill_homology(data, slope)
    _emit(result.to_json(slope))
    return EXIT_OK


def cmd_dehn_table(args) -> int:
    from . import dehn

    for row in dehn.figure_eight_family(args.p, args.q):
        _emit(row)
    return EXIT_OK


# --- verification suites --------------------------------------------------------

def _report(rows, summary: dict, **tail) -> int:
    """Emit each (record, passed) row as it comes, then the summary with the
    failure count and the tail; exit 1 on any failure."""
    failures = 0
    for record, passed in rows:
        failures += not passed
        _emit(record)
    _emit({**summary, "failures": failures, **tail})
    return EXIT_OK if failures == 0 else EXIT_VERIFICATION


def _report_bound(args, rows) -> int:
    """Report a bound suite's (record, report) rows with the largest ratio.

    The rows are all computed before the first is emitted, so an error
    mid-batch leaves stdout empty.
    """
    rows = list(rows)
    return _report(((record, report.holds) for record, report in rows),
                   {"suite": args.suite, "count": args.count, "seed": args.seed},
                   max_ratio=max(report.ratio() for _, report in rows))


def _verify_soule(args) -> int:
    from . import bounds

    def rows():
        for index, mat in enumerate(bounds.random_matrices(args.count, args.seed)):
            report = bounds.soule_bound(mat)
            record = {"index": index, "rows": mat.rows, "cols": mat.cols,
                      "torsion": report.exact_torsion, "bound": report.bound,
                      "holds": report.holds}
            if not report.holds:
                record["matrix"] = mat.to_lists()
            yield record, report

    return _report_bound(args, rows())


def _verify_dv(args) -> int:
    from . import bounds

    def rows():
        for index, pair in enumerate(bounds.random_dv_pairs(args.count, args.seed)):
            for p in bounds.DV_DEGREES:
                report = bounds.dv_torsion_check(pair, p)
                record = {"index": index, "p": p, "D": report.D, "V": report.V,
                          "torsion": report.torsion_order, "log_bound": report.log_bound,
                          "holds": report.holds}
                if not report.holds:
                    record["maximal_simplices"] = [list(s) for s in pair.total.maximal_simplices()]
                    record["sub_maximal_simplices"] = [list(s) for s in pair.sub.maximal_simplices()]
                yield record, report

    return _report_bound(args, rows())


def _verify_nerve(args) -> int:
    from . import nerve

    z = AbelianGroupStructure

    def rows():
        convex = nerve.BallCover.of(nerve.EuclideanSpace(2),
                                    [((0.1 * k, 0.05 * k), 1.0 + 0.1 * k) for k in range(6)])
        for check, cover, reference in (("circle-cover", nerve.circle_cover(), [z(1), z(1), z(0)]),
                                        ("convex-cover", convex, [z(1), z(0), z(0)])):
            rep = nerve.nerve_lemma_check(cover, reference)
            yield {"check": check, "computed": [str(g) for g in rep.computed],
                   "passed": rep.passed}, rep.passed
        cover, subfamily, shrink = nerve.annulus_cover()
        rel = all_homology(nerve.relative_nerve(cover, subfamily, shrink), up_to=2)
        ok = all(g.is_trivial() for g in rel)
        yield {"check": "annulus-pair", "computed": [str(g) for g in rel], "passed": ok}, ok

    return _report(rows(), {"suite": "nerve"})


def _verify_obtuse(args) -> int:
    from . import hyperbolic

    g = hyperbolic.standard_loxodromic(args.d, 0.2)
    fixed = [1.0, 1.0] + [0.0] * (args.d - 1)
    pa = hyperbolic.parabolic(fixed, [1.0] + [0.0] * (args.d - 2))
    pb = hyperbolic.parabolic(fixed, [0.3] + [0.7] * (args.d - 2))
    cases = [("loxodromic-powers", g, g.power(2), 0.5, 0.9),
             ("parabolic-pair", pa, pb, 0.4, 0.7)]

    def rows():
        for offset, (check, a, b, eps_a, eps_b) in enumerate(cases):
            rep = hyperbolic.obtuse_angle_check(a, b, eps_a, eps_b, samples=args.samples,
                                                seed=args.seed + offset)
            yield {"check": check, "min_inner_product": rep.min_inner_product,
                   "samples": rep.samples, "passed": rep.passed}, rep.passed

    return _report(rows(), {"suite": "obtuse"})


def _verify_orbit(args) -> int:
    import numpy as np

    from . import hyperbolic

    rng = np.random.default_rng(args.seed)

    def rows():
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
            yield {"index": index, "length": length, "offset": offset, "radius": radius,
                   "count": rep.count, "bound": rep.bound, "passed": rep.passed}, rep.passed

    return _report(rows(), {"suite": "orbit", "count": args.count, "seed": args.seed})


def _verify_commutator(args) -> int:
    from . import constants

    return _report((({"rank_a": c.rank_a, "rank_c": c.rank_c, "lhs": _fraction_text(c.lhs),
                      "rhs": _fraction_text(c.rhs), "passed": c.passes}, c.passes)
                    for c in constants.commutator_inequality_check(args.d)),
                   {"suite": "commutator", "d": args.d})


# Each verify flag's parser and default, and each suite's runner and the
# flags it reads; a flag a suite does not read is a usage error.
_FLAGS = {"--count": (_at_least(1, "--count"), 100), "--seed": (_at_least(0, "--seed"), 0),
          "--d": (_at_least(2, "--d"), 3), "--samples": (_at_least(1, "--samples"), 200)}
_SUITE_TABLE = {
    "soule": (_verify_soule, ("--count", "--seed")),
    "dv-bound": (_verify_dv, ("--count", "--seed")),
    "nerve": (_verify_nerve, ()),
    "obtuse": (_verify_obtuse, ("--d", "--samples", "--seed")),
    "orbit": (_verify_orbit, ("--d", "--count", "--seed")),
    "commutator": (_verify_commutator, ("--d",)),
}


# --- parser -------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="torsionlab",
                     description="Exact homology, torsion bounds, nerves, hyperbolic "
                                 "checks and Dehn-filling homology")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", help="homology of a complex or pair file")
    p.add_argument("path")
    p.add_argument("--degrees", type=_parse_int_vector, default=None,
                   help="comma-separated degrees (default: all)")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("nerve", help="f-vector (and homology) of the nerve of a cover file")
    p.add_argument("path")
    p.add_argument("--max-dim", type=_at_least(1, "--max-dim"), default=None,
                   help="dimension cap (default: the space dimension + 1)")
    p.add_argument("--homology", action="store_true", help="add the groups below the cap")
    p.set_defaults(func=cmd_nerve)

    p = sub.add_parser("constants", help="derived thick-thin constants as JSON")
    p.add_argument("--d", type=_at_least(2, "--d"), required=True)
    p.add_argument("--margulis-eps", type=_margulis_eps, default="0.1")
    p.add_argument("--margulis-m", type=_at_least(1, "--margulis-m"), default=2)
    p.add_argument("--m8", action="store_true", help="include the figure-eight volume")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("dehn-fill", help="first homology of one Dehn filling")
    image = "image of the {}: comma-separated integers, one per core generator (default %(default)s)"
    p.add_argument("--mu", type=_parse_int_vector, default="1", help=image.format("meridian"))
    p.add_argument("--lambda", dest="lam", type=_parse_int_vector, default="0",
                   help=image.format("longitude"))
    p.add_argument("--relations", type=_parse_relations, default="none",
                   help="core relations as ;-separated columns, each with one comma-separated entry per "
                        "generator, or none (default)")
    p.add_argument("--p", type=int, required=True, help="meridian coefficient of the slope p*mu + q*lambda")
    p.add_argument("--q", type=int, required=True, help="longitude coefficient of the slope")
    p.set_defaults(func=cmd_dehn_fill)

    p = sub.add_parser("dehn-table", help="figure-eight filling table (JSON lines)")
    p.add_argument("--p", type=_parse_range, required=True, help="range a..b or single value")
    p.add_argument("--q", type=_parse_range, required=True, help="range a..b or single value")
    p.set_defaults(func=cmd_dehn_table)

    suites = sub.add_parser("verify", help="run a verification suite").add_subparsers(
        dest="suite", required=True)
    for name, (runner, flags) in _SUITE_TABLE.items():
        p = suites.add_parser(name)
        for flag in flags:
            parse, default = _FLAGS[flag]
            p.add_argument(flag, type=parse, default=default,
                           help=f"default {default}, at least {parse.least}")
        p.set_defaults(func=runner)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except BrokenPipeError:
        # the reader has gone; with stdout on devnull the exit-time flush
        # cannot raise again, and nothing is written to stderr
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except UsageError as exc:
        sys.stderr.write(f"torsionlab: usage error: {exc}\n")
        return EXIT_USAGE
    except InputError as exc:
        sys.stderr.write(f"torsionlab: input error: {exc}\n")
        return EXIT_INPUT
    except ExactArithmeticError as exc:
        sys.stderr.write(f"torsionlab: internal error: {exc}\n")
        return EXIT_INTERNAL
    except Exception as exc:  # a float or decimal value past its range, or a defect
        sys.stderr.write(f"torsionlab: internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
