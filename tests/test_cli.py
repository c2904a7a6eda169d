import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from torsionlab import cli, complexes, dehn, exact, hyperbolic, nerve, simplicial
from torsionlab.cli import main
from torsionlab.exact import ExactArithmeticError, InputError
from torsionlab.homology import homology, homology_oracle_crosscheck
from torsionlab.simplicial import (
    SimplicialPair,
    empty_complex,
    read_complex_or_pair,
    write_complex,
    write_pair,
)

from test_exact import all_pairs_chain, seeded_values
from test_homology import grid_surface


ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def rp2_file(tmp_path):
    path = tmp_path / "rp2.cplx"
    path.write_text(write_complex(complexes.projective_plane_6()))
    return str(path)


def test_homology_rp2_line_format(capsys, rp2_file):
    code, out, _ = run_cli(capsys, "homology", rp2_file, "--degrees", "1")
    assert code == 0
    assert out == '{"degree": 1, "betti": 0, "torsion": [2]}\n'


def test_homology_past_the_dimension_is_zero(capsys):
    code, out, _ = run_cli(capsys, "homology", str(ROOT / "demos" / "files" / "rp2.cplx"), "--degrees", "0,5")
    assert code == 0
    assert out.splitlines()[1] == '{"degree": 5, "betti": 0, "torsion": []}'


def test_homology_torus_all_degrees(capsys, tmp_path):
    path = tmp_path / "torus.cplx"
    path.write_text(write_complex(complexes.torus_7()))
    code, out, _ = run_cli(capsys, "homology", str(path))
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert [d["betti"] for d in docs] == [1, 2, 1]


def test_homology_pair_file(capsys, tmp_path):
    path = tmp_path / "pair.cplx"
    path.write_text(write_pair(complexes.disk_boundary_pair()))
    code, out, _ = run_cli(capsys, "homology", str(path), "--degrees", "2")
    assert code == 0
    assert json.loads(out) == {"degree": 2, "betti": 1, "torsion": []}


@pytest.mark.parametrize("name", list(complexes.FIXTURES))
def test_homology_of_a_complex_and_of_its_pair_over_nothing_print_alike(capsys, tmp_path, name):
    k = complexes.FIXTURES[name]()
    complex_file, pair_file = tmp_path / "complex.cplx", tmp_path / "pair.cplx"
    complex_file.write_text(write_complex(k))
    pair_file.write_text(write_pair(SimplicialPair(total=k, sub=empty_complex(k.vertex_count))))
    code, out, _ = run_cli(capsys, "homology", str(complex_file))
    assert code == 0
    assert run_cli(capsys, "homology", str(pair_file)) == (0, out, "")


def test_homology_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "homology", "/nonexistent/file.cplx")
    assert code == 2
    assert "input error" in err


def test_homology_non_utf8_file_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "bad.cplx"
    path.write_bytes(b"complex V=3\ns 0 \xff\n")
    code, out, err = run_cli(capsys, "homology", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"torsionlab: input error: cannot read {path}: ")
    assert "0xff" in err


def test_homology_empty_file_exit_2(capsys, tmp_path):
    path = tmp_path / "empty.cplx"
    path.write_text("")
    code, _, err = run_cli(capsys, "homology", str(path))
    assert code == 2


def test_homology_parse_error_carries_line(capsys, tmp_path):
    path = tmp_path / "bad.cplx"
    path.write_text("complex V=3\nwhat 1 2\n")
    code, _, err = run_cli(capsys, "homology", str(path))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("text, message", [
    ("complex V=3\ns 0 5\n", "line 2: vertex 5 outside declared range 3"),
    ("complex V=4\ns 0 1\npair-sub\ncomplex V=2\ns 1 3\n", "line 5: vertex 3 outside declared range 2"),
], ids=["total", "sub"])
def test_homology_vertex_out_of_range_exit_2(capsys, tmp_path, text, message):
    path = tmp_path / "range.cplx"
    path.write_text(text)
    code, out, err = run_cli(capsys, "homology", str(path))
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("text, message", [
    ("complex X=3\ns 0 1\n", "line 1: expected 'complex V=<n>', got 'complex X=3'"),
    ("complex V=three\ns 0 1\n", "line 1: bad vertex count in 'complex V=three'"),
    ("complex V=3\ns 0 1\npair-sub\ncomplex V=3\npair-sub\ncomplex V=3\n",
     "pair file must contain exactly one 'pair-sub' separator"),
], ids=["header", "vertex-count", "two-separators"])
def test_homology_of_a_malformed_file_exit_2(capsys, tmp_path, text, message):
    path = tmp_path / "bad.cplx"
    path.write_text(text)
    code, out, err = run_cli(capsys, "homology", str(path))
    assert (code, out) == (2, "")
    assert err == f"torsionlab: input error: {path}: {message}\n"


def test_homology_bad_degrees_exit_64(capsys, rp2_file):
    assert run_cli(capsys, "homology", rp2_file, "--degrees", "1,x") == (
        64, "", "torsionlab: usage error: bad integer vector '1,x'\n")


@pytest.mark.parametrize("text, line", [
    ("complex V=-3\n", 1),
    ("complex V=3\ns 0 1\npair-sub\ncomplex V=-1\n", 4),
], ids=["total", "sub"])
def test_homology_negative_vertex_count_exit_2(capsys, tmp_path, text, line):
    path = tmp_path / "negative.cplx"
    path.write_text(text)
    code, out, err = run_cli(capsys, "homology", str(path))
    assert (code, out) == (2, "")
    assert f"line {line}: negative vertex count" in err


def test_constants_document(capsys):
    code, out, _ = run_cli(capsys, "constants", "--d", "4",
                           "--margulis-eps", "1", "--margulis-m", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["eps"]["fraction"] == "1/668168"
    assert doc["commutator_chain_passes"] is True
    assert "figure_eight_volume" not in doc


def test_constants_past_the_int_string_limit(capsys):
    # 4 * 17^3599 has 4430 digits, past the 4300 that str(int) accepts;
    # the defaults are --margulis-eps 0.1 --margulis-m 2
    code, out, err = run_cli(capsys, "constants", "--d", "3600")
    assert code == 0, err
    doc = json.loads(out)

    def exact(text):
        num, den = text.split("/")
        return Fraction(int(Decimal(num)), int(Decimal(den)))

    assert exact(doc["eps"]["fraction"]) == Fraction(1, 10 * 4 * 2 * 17 ** 3600)
    assert len(doc["epsilon_by_rank"]) == 3600
    assert exact(doc["epsilon_by_rank"][3599]["fraction"]) == Fraction(1, 10 * 4 * 17 ** 3599)
    assert doc["commutator_chain_passes"] is True


def test_constants_m8_flag_gates_volume(capsys):
    code, out, _ = run_cli(capsys, "constants", "--d", "2", "--m8")
    assert code == 0
    doc = json.loads(out)
    assert doc["figure_eight_volume"] == pytest.approx(2.0298832128, abs=1e-8)


def test_constants_delta_upper_bound_is_exact(capsys):
    for d in range(2, 26):
        code, out, err = run_cli(capsys, "constants", "--d", str(d))
        assert code == 0, err
        doc = json.loads(out)
        if d == 25:  # the first d without a packing bound
            assert "b" not in doc and "delta_upper_bound" not in doc
            continue
        eps = Fraction(doc["eps"]["fraction"])
        assert Fraction(doc["delta_upper_bound"]["fraction"]) == eps / (2 * (doc["b"] + 1)), d


def test_constants_usage_error(capsys):
    code, _, err = run_cli(capsys, "constants", "--d", "1")
    assert code == 64


@pytest.mark.parametrize("flag, value, message", [
    ("--margulis-m", "0", "--margulis-m must be at least 1"),
    ("--margulis-m", "-2", "--margulis-m must be at least 1"),
    ("--margulis-eps", "0", "--margulis-eps must be positive"),
    ("--margulis-eps", "-1", "--margulis-eps must be positive"),
    ("--margulis-eps", "abc", "bad --margulis-eps 'abc'"),
])
def test_constants_bad_margulis_arguments_are_usage_errors(capsys, flag, value, message):
    code, out, err = run_cli(capsys, "constants", "--d", "3", flag, value)
    assert code == 64
    assert out == ""
    assert err == f"torsionlab: usage error: {message}\n"


def test_constants_margulis_eps_past_the_float_range_is_a_usage_error(capsys):
    # each field prints a float beside its fraction; 1e400 has none
    code, out, err = run_cli(capsys, "constants", "--d", "2", "--margulis-eps", "1e400")
    assert (code, out) == (64, "")
    assert err == "torsionlab: usage error: --margulis-eps must not exceed the largest float\n"
    code, out, _ = run_cli(capsys, "constants", "--d", "2", "--margulis-eps", repr(sys.float_info.max))
    assert code == 0
    assert json.loads(out)["margulis_eps"]["float"] == sys.float_info.max


def test_dehn_fill_figure_eight(capsys):
    code, out, _ = run_cli(capsys, "dehn-fill", "--mu", "1", "--lambda", "0",
                           "--relations", "none", "--p", "5", "--q", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["torsion"] == [5]
    assert doc["hyperbolic"] == "yes"


def test_dehn_fill_invalid_slope_exit_2(capsys):
    code, _, err = run_cli(capsys, "dehn-fill", "--p", "4", "--q", "2")
    assert code == 2


@pytest.mark.parametrize("argv, code, message", [
    (("--mu", "1,0", "--lambda", "0"), 64, "usage error: --mu and --lambda must have the same length"),
    (("--mu", "1,0", "--lambda", "0,0", "--relations", "1"), 64,
     "usage error: every relation must have one entry per generator"),
    (("--mu", "1", "--lambda", "1"), 2, "input error: longitude image must be a torsion class of the core"),
], ids=["lengths", "relation", "longitude"])
def test_dehn_fill_bad_presentations_are_reported(capsys, argv, code, message):
    assert run_cli(capsys, "dehn-fill", *argv, "--p", "5", "--q", "1") == (code, "", f"torsionlab: {message}\n")


def test_dehn_fill_with_relations(capsys):
    code, out, _ = run_cli(capsys, "dehn-fill", "--mu", "1,0", "--lambda", "0,0",
                           "--relations", "0,3", "--p", "5", "--q", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["torsion"] == [15] or doc["torsion"] == [3, 5] or doc["torsion"] == [5, 3]


@pytest.mark.parametrize("diagonal", [(2, 6, 4), tuple(seeded_values(60, seed=3))])
def test_dehn_fill_of_a_diagonal_core_is_the_chain_of_the_rest(capsys, diagonal):
    # the slope (1, 0) kills mu = e_1, which leaves Z/d_2 + ... + Z/d_n
    n = len(diagonal)
    relations = ";".join(",".join(str(d if i == j else 0) for i in range(n))
                         for j, d in enumerate(diagonal))
    code, out, _ = run_cli(capsys, "dehn-fill", "--p", "1", "--q", "0",
                           "--mu", ",".join(["1"] + ["0"] * (n - 1)), "--lambda", ",".join(["0"] * n),
                           "--relations", relations)
    assert code == 0
    doc = json.loads(out)
    chain = list(all_pairs_chain(diagonal[1:]))
    assert (doc["betti"], doc["torsion"], doc["hyperbolic"]) == (0, chain, "unknown")
    if n == 3:
        assert doc["torsion"] == [2, 12]


def test_dehn_table(capsys):
    code, out, _ = run_cli(capsys, "dehn-table", "--p", "1..6", "--q", "1..2")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert all(rows[i]["hyperbolic"] in ("yes", "excluded") for i in range(len(rows)))
    flagged = {(r["p"], r["q"]) for r in rows if r["hyperbolic"] == "excluded"}
    assert flagged == {(1, 1), (2, 1), (3, 1), (4, 1)}


def test_verify_soule_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "soule", "--count", "25", "--seed", "7")
    assert code == 0
    summary = json.loads(out.splitlines()[-1])
    assert summary["failures"] == 0


def test_verify_commutator(capsys):
    code, out, _ = run_cli(capsys, "verify", "commutator", "--d", "10")
    assert code == 0


def test_verify_nerve(capsys):
    code, out, _ = run_cli(capsys, "verify", "nerve")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[-1]["failures"] == 0


def test_verify_unknown_suite_exit_64(capsys):
    code, _, err = run_cli(capsys, "verify", "bogus")
    assert code == 64
    assert "'bogus'" in err


# every (suite, flag) pair whose suite does not read the flag
UNREAD_FLAGS = [("soule", "--d"), ("soule", "--samples"), ("dv-bound", "--d"),
                ("dv-bound", "--samples"), ("nerve", "--count"), ("nerve", "--seed"),
                ("nerve", "--d"), ("nerve", "--samples"), ("obtuse", "--count"),
                ("orbit", "--samples"), ("commutator", "--count"), ("commutator", "--seed"),
                ("commutator", "--samples")]


@pytest.mark.parametrize("suite, flag", UNREAD_FLAGS)
def test_verify_rejects_a_flag_its_suite_does_not_read(capsys, suite, flag):
    code, out, err = run_cli(capsys, "verify", suite, flag, "4")
    assert code == 64
    assert out == ""
    assert flag in err


def test_verify_help_names_every_suite(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert "{soule,dv-bound,nerve,obtuse,orbit,commutator}" in out


def test_bad_range_usage_error(capsys):
    code, _, _ = run_cli(capsys, "dehn-table", "--p", "x..y", "--q", "1")
    assert code == 64


@pytest.mark.parametrize("argv", [("--p", "5..3", "--q", "1"), ("--p", "1", "--q", "5..3")],
                         ids=["p", "q"])
def test_reversed_range_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "dehn-table", *argv)
    assert code == 64
    assert out == ""
    assert "empty range '5..3'" in err


@pytest.mark.parametrize("argv", [
    ("constants", "--d", "3", "--margulis-eps", "0.1", "--margulis-m", "2"),
    ("dehn-fill", "--p", "7", "--q", "2"),
    ("dehn-table", "--p", "1..10", "--q", "1..3"),
    ("verify", "soule", "--count", "10", "--seed", "3"),
    ("verify", "dv-bound", "--count", "5", "--seed", "3"),
    ("verify", "commutator", "--d", "6"),
    ("verify", "orbit", "--count", "5", "--seed", "1"),
    ("verify", "obtuse", "--samples", "25", "--seed", "2"),
    ("verify", "nerve",),
])
def test_byte_identical_reruns(capsys, argv):
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1  # nonempty


def test_cli_import_does_not_load_scipy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = "import sys, torsionlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


MODULES = ["torsionlab"] + sorted(f"torsionlab.{path.stem}"
                                  for path in (ROOT / "src" / "torsionlab").glob("*.py")
                                  if path.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_import_does_not_load_mpmath(module):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = f"import sys, {module}; print('mpmath' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_package_root_loads_no_submodule():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = ("import sys, torsionlab.constants; "
             "print(sorted(m for m in sys.modules if m.startswith('torsionlab.')))")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['torsionlab.constants']"


@pytest.mark.parametrize("argv", [["constants", "--d", "4", "--m8"],
                                  ["dehn-table", "--p", "0..12", "--q", "1..3"],
                                  ["verify", "orbit", "--count", "3"]],
                         ids=lambda argv: argv[0])
def test_closed_form_commands_do_not_load_mpmath(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = ("import sys; from torsionlab.cli import main; "
             f"code = main({argv!r}); "
             "print(code, 'mpmath' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("suite", ["soule", "dv-bound"])
def test_bound_suites_do_not_load_mpmath(suite):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = ("import sys; from torsionlab.cli import main; "
             f"code = main(['verify', '{suite}', '--count', '3']); "
             "print(code, 'mpmath' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *_, summary, last = proc.stdout.splitlines()
    assert json.loads(summary)["suite"] == suite
    assert last == "0 False"


def test_homology_loads_neither_numpy_nor_mpmath():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = ("import sys; from torsionlab.cli import main; "
             "code = main(['homology', 'demos/files/torus.cplx']); "
             "print(code, sorted(m for m in ('numpy', 'mpmath') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == '{"degree": 0, "betti": 1, "torsion": []}'
    assert lines[-1] == "0 []"


def test_verify_orbit_defaults_run_every_record(capsys):
    # the default seed reaches translation lengths whose powers have
    # entries near 1e4; the Lorentz check must scale with them
    code, out, err = run_cli(capsys, "verify", "orbit")
    docs = [json.loads(line) for line in out.splitlines()]
    assert code == 0, err
    assert len(docs) == 101
    assert all(d["passed"] for d in docs[:-1])
    assert docs[-1] == {"suite": "orbit", "count": 100, "seed": 0, "failures": 0}


def test_homology_of_a_20x20_klein_bottle(capsys, tmp_path):
    klein = grid_surface(20, True)
    assert klein.f_vector() == (400, 1200, 800)
    path = tmp_path / "klein20.cplx"
    path.write_text(write_complex(klein))
    code, out, err = run_cli(capsys, "homology", str(path))
    assert code == 0, err
    assert out.splitlines() == [
        '{"degree": 0, "betti": 1, "torsion": []}',
        '{"degree": 1, "betti": 1, "torsion": [2]}',
        '{"degree": 2, "betti": 0, "torsion": []}',
    ]


def test_inconsistent_exact_arithmetic_is_an_internal_error(capsys, monkeypatch, rp2_file):
    def broken(*args, **kwargs):
        raise ExactArithmeticError("negative Betti number: boundary maps are inconsistent")

    monkeypatch.setattr(cli, "all_homology", broken)
    code, out, err = run_cli(capsys, "homology", rp2_file)
    assert code == 3
    assert out == ""
    assert "internal error" in err and "negative Betti number" in err


def test_a_smith_rank_one_too_high_is_an_internal_error(capsys, monkeypatch, rp2_file):
    # every rank one high makes b_0 = 6 - 1 - 6 negative on the projective plane
    def smith(mat):
        snf = exact.smith_normal_form(mat)
        return dataclasses.replace(snf, rank=snf.rank + 1)

    monkeypatch.setattr("torsionlab.homology.smith_normal_form", smith)
    with pytest.raises(ExactArithmeticError, match="negative Betti number"):
        homology(complexes.projective_plane_6(), 0)
    code, out, err = run_cli(capsys, "homology", rp2_file)
    assert (code, out) == (3, "")
    assert err == "torsionlab: internal error: negative Betti number: boundary maps are inconsistent\n"


def test_uncertified_intersection_is_an_internal_error(capsys, monkeypatch):
    def straddle(*args, **kwargs):
        raise nerve.IndeterminateIntersectionError((0, 1))

    monkeypatch.setattr(nerve, "nerve_lemma_check", straddle)
    code, out, err = run_cli(capsys, "verify", "nerve")
    assert code == 3
    assert out == ""
    assert "internal error" in err and "(0, 1)" in err


def test_geometry_error_is_an_input_error(capsys, monkeypatch):
    def bad(*args, **kwargs):
        raise hyperbolic.GeometryError("coordinates are not timelike")

    monkeypatch.setattr(hyperbolic, "orbit_count_check", bad)
    code, out, err = run_cli(capsys, "verify", "orbit", "--count", "1")
    assert code == 2
    assert out == ""
    assert "input error" in err and "not timelike" in err


def test_sampling_error_is_an_input_error(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise hyperbolic.SamplingError("could only place 0/200 samples")

    monkeypatch.setattr(hyperbolic, "obtuse_angle_check", unreachable)
    code, out, err = run_cli(capsys, "verify", "obtuse")
    assert code == 2
    assert out == ""
    assert "input error" in err and "0/200 samples" in err


def test_an_unexpected_exception_is_an_internal_error(capsys, monkeypatch, rp2_file):
    def defect(*args, **kwargs):
        raise KeyError((0, 1))

    monkeypatch.setattr(cli, "all_homology", defect)
    assert run_cli(capsys, "homology", rp2_file) == (
        3, "", "torsionlab: internal error: KeyError: (0, 1)\n")


@pytest.mark.parametrize("cls, base", [
    (simplicial.MalformedComplexError, InputError),
    (hyperbolic.GeometryError, InputError),
    (hyperbolic.SamplingError, InputError),
    (dehn.FillingError, InputError),
    (nerve.IndeterminateIntersectionError, ExactArithmeticError),
])
def test_an_error_class_says_whose_fault_it_is(cls, base):
    # the CLI exits 2 on an InputError and 3 on an ExactArithmeticError
    assert issubclass(cls, base)


def test_arithmetic_range_failure_is_an_internal_error():
    # at d = 220 the Euclidean (r/2)-ball volume in volume_ratio_bound underflows to 0.0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "torsionlab.cli", "verify", "orbit",
                           "--d", "220", "--count", "2"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert "internal error" in proc.stderr and "ZeroDivisionError" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_closed_stdout_pipe_exits_141_without_a_word():
    # as `torsionlab verify orbit --count 2000 | head -1`: the rows fill the
    # pipe, and the reader closes it after one line
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "torsionlab.cli", "verify", "orbit",
                             "--count", "2000"],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert json.loads(first)["index"] == 0
    assert err == b""


@pytest.mark.parametrize("suite", ["orbit", "obtuse", "commutator"])
def test_verify_hyperbolic_suites_reject_dimension_one(capsys, suite):
    code, out, err = run_cli(capsys, "verify", suite, "--d", "1")
    assert code == 64
    assert out == ""
    assert "--d must be at least 2" in err


@pytest.mark.parametrize("argv, message", [
    (("obtuse", "--samples", "0"), "--samples must be at least 1"),
    (("obtuse", "--samples", "-3"), "--samples must be at least 1"),
    (("soule", "--count", "0"), "--count must be at least 1"),
    (("dv-bound", "--count", "0"), "--count must be at least 1"),
    (("orbit", "--count", "-2"), "--count must be at least 1"),
    (("soule", "--seed", "-1"), "--seed must be at least 0"),
    (("dv-bound", "--seed", "-1"), "--seed must be at least 0"),
    (("obtuse", "--seed", "-1"), "--seed must be at least 0"),
    (("orbit", "--seed", "-1"), "--seed must be at least 0"),
    (("commutator", "--d", "1"), "--d must be at least 2"),
])
def test_verify_rejects_empty_runs(capsys, argv, message):
    # one line on stderr, so no traceback
    assert run_cli(capsys, "verify", *argv) == (64, "", f"torsionlab: usage error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (("--margulis-m", "0", "--d", "1"), "--margulis-m must be at least 1"),
    (("--d", "1", "--margulis-eps", "0"), "--d must be at least 2"),
])
def test_the_first_bad_flag_on_the_command_line_is_reported(capsys, argv, message):
    assert run_cli(capsys, "constants", *argv) == (64, "", f"torsionlab: usage error: {message}\n")


def test_readme_names_only_code_that_exists():
    # every backticked `<module>.<name>` of a torsionlab module, as `exact._smith_kernel`;
    # a file name such as `nerve.py` names no code
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    modules = {path.stem for path in (ROOT / "src" / "torsionlab").glob("*.py")}
    names = [(module, name) for span in re.findall(r"`([^`\n]+)`", text)
             for module, name in re.findall(r"(?<![\w.])([a-z_]+)\.([A-Za-z_]\w*)", span)
             if module in modules and name != "py"]
    assert len(names) >= 5
    for module, name in names:
        assert hasattr(importlib.import_module(f"torsionlab.{module}"), name), f"{module}.{name}"


def test_readme_suite_table_matches_the_parser():
    # each row: | `suite` | checks | `--flag` (default, ≥ least), ... or none |
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([a-z-]+)` \| .+ \| (.+) \|$", text, re.MULTILINE)
    assert [suite for suite, _ in rows] == list(cli._SUITE_TABLE)
    for suite, cell in rows:
        listed = [(flag, int(default), int(least)) for flag, default, least
                  in re.findall(r"`(--[a-z-]+)` \((\d+), ≥ (\d+)\)", cell)]
        flags = cli._SUITE_TABLE[suite][1]
        assert listed == [(f, cli._FLAGS[f][1], cli._FLAGS[f][0].least) for f in flags], suite
        assert listed or cell == "none", suite


@pytest.mark.parametrize("suite", list(cli._SUITE_TABLE))
def test_verify_help_gives_each_flag_default_and_least(capsys, suite):
    with pytest.raises(SystemExit) as exit_:
        main(["verify", suite, "--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    for flag in cli._SUITE_TABLE[suite][1]:
        parse, default = cli._FLAGS[flag]
        assert re.search(rf"^  {flag} \S+ +default {default}, at least {parse.least}$", out,
                         re.MULTILINE), flag


# stdout checked in under tests/expected/; regenerate a file only for a
# deliberate change of output.  pinned.txt lists the pinned calls, one
# `name args...` line each; CI's bare-runtime step reads it too.
EXPECTED = ROOT / "tests" / "expected"
PINNED = [(tuple(args), name) for name, *args in
          map(str.split, (EXPECTED / "pinned.txt").read_text(encoding="utf-8").splitlines())]


DEMO_FILES = sorted((ROOT / "demos" / "files").glob("*.cplx"))


@pytest.mark.parametrize("path", DEMO_FILES, ids=lambda p: p.name)
def test_homology_of_demo_files_is_byte_identical(capsys, path):
    code, out, _ = run_cli(capsys, "homology", str(path))
    assert code == 0
    assert out == (EXPECTED / f"homology_{path.stem}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("path", DEMO_FILES, ids=lambda p: p.name)
def test_oracle_agrees_on_demo_files_in_every_degree(path):
    complex_ = read_complex_or_pair(path.read_text(encoding="utf-8"))
    for k in range(complex_.dimension + 1):
        assert homology_oracle_crosscheck(complex_, k).agrees


@pytest.mark.parametrize("argv, name", PINNED)
def test_seeded_and_closed_form_output_is_byte_identical(capsys, monkeypatch, argv, name):
    monkeypatch.chdir(ROOT)  # the manifest names demo files from the repo root
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (EXPECTED / f"{name}.out").read_text(encoding="utf-8")


def test_every_expected_file_is_claimed():
    names = [name for _, name in PINNED]
    assert len(set(names)) == len(names)
    demos = {path.stem for path in (ROOT / "demos").glob("0*.py")}
    homology = {f"homology_{path.stem}" for path in (ROOT / "demos" / "files").glob("*.cplx")}
    assert {path.stem for path in EXPECTED.glob("*.out")} <= {*names, *demos, *homology}


def test_tangent_cover_reaches_both_exact_decisions(capsys, monkeypatch):
    # the float filters cannot place tangent balls, so the pinned call runs
    # the exact pair form on the two tangent pairs and the exact solve on
    # the triple through the origin, whose matrix A is singular
    seen = []
    for name in ("pair_meets", "tuple_meets"):
        method = getattr(nerve._CoverMatrix, name)

        def recording(self, *args, method=method, name=name):
            verdict = method(self, *args)
            seen.append((name, args, verdict))
            return verdict

        monkeypatch.setattr(nerve._CoverMatrix, name, recording)
    code, out, _ = run_cli(capsys, "nerve", str(ROOT / "demos" / "files" / "tangent_cover.cover"),
                           "--homology")
    assert code == 0
    assert out == (EXPECTED / "nerve_tangent_cover.out").read_text(encoding="utf-8")
    assert seen == [("pair_meets", (0, 1), True), ("pair_meets", (0, 3), True),
                    ("tuple_meets", ((0, 1, 2),), True)]


def test_nerve_of_a_hyperbolic_cover_file(capsys, tmp_path):
    path = tmp_path / "pair.cover"
    path.write_text("space H 2\nball 1.0 0.0 0.0 0.5\n"
                    "ball 1.1276259652063807 0.5210953054937474 0.0 0.5\n")
    code, out, err = run_cli(capsys, "nerve", str(path), "--max-dim", "1", "--homology")
    assert code == 0, err
    assert json.loads(out) == {"space": "H", "dimension": 2, "max_dim": 1, "f_vector": [2, 1],
                               "homology": [{"degree": 0, "betti": 1, "torsion": []}]}


@pytest.mark.parametrize("text, message", [
    ("space E 2\nball 0 0 1\nspace H 2\nball 1 0 0 1\n", "line 3: a second 'space' line"),
    ("space H 2\nball 1 0 0 1\nball 0 1 0 1\n", "line 3: ball 1: coordinates are not timelike"),
    ("space X 2\nball 0 0 1\n", "line 1: expected 'space E <d>' or 'space H <d>'"),
    ("space E 2\nball 0 x 1\n", "line 2: non-numeric ball data"),
    ("space E 2\nsphere 0 0 1\n", "line 2: unknown directive 'sphere'"),
])
def test_nerve_of_a_malformed_cover_file_is_an_input_error(capsys, tmp_path, text, message):
    path = tmp_path / "bad.cover"
    path.write_text(text)
    code, out, err = run_cli(capsys, "nerve", str(path))
    assert code == 2
    assert out == ""
    assert "input error" in err and message in err


def test_nerve_rejects_a_cap_below_one(capsys):
    code, out, err = run_cli(capsys, "nerve", str(ROOT / "demos" / "files" / "circle_cover.cover"),
                             "--max-dim", "0")
    assert code == 64
    assert out == ""
    assert "--max-dim must be at least 1" in err
