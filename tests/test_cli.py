import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from torsionlab import cli, complexes, hyperbolic, nerve
from torsionlab.cli import main
from torsionlab.exact import ExactArithmeticError
from torsionlab.simplicial import (
    SimplicialPair,
    build_complex,
    empty_complex,
    write_complex,
    write_pair,
)


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


def test_constants_usage_error(capsys):
    code, _, err = run_cli(capsys, "constants", "--d", "1")
    assert code == 64


@pytest.mark.parametrize("flag, value, message", [
    ("--margulis-m", "0", "--margulis-m must be at least 1"),
    ("--margulis-m", "-2", "--margulis-m must be at least 1"),
    ("--margulis-eps", "0", "--margulis-eps must be positive"),
    ("--margulis-eps", "-1", "--margulis-eps must be positive"),
])
def test_constants_bad_margulis_arguments_are_usage_errors(capsys, flag, value, message):
    code, out, err = run_cli(capsys, "constants", "--d", "3", flag, value)
    assert code == 64
    assert out == ""
    assert err == f"torsionlab: usage error: {message}\n"


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


def test_dehn_fill_with_relations(capsys):
    code, out, _ = run_cli(capsys, "dehn-fill", "--mu", "1,0", "--lambda", "0,0",
                           "--relations", "0,3", "--p", "5", "--q", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["torsion"] == [15] or doc["torsion"] == [3, 5] or doc["torsion"] == [5, 3]


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
    assert "unknown suite" in err


def test_bad_range_usage_error(capsys):
    code, _, _ = run_cli(capsys, "dehn-table", "--p", "x..y", "--q", "1")
    assert code == 64


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


@pytest.mark.parametrize("module", ["torsionlab.certify", "torsionlab.hyperbolic",
                                    "torsionlab.nerve"])
def test_import_does_not_load_mpmath(module):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = f"import sys, {module}; print('mpmath' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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


def grid_klein_bottle(n):
    """n x n grid with the i = n edge glued back by j -> -j, squares cut diagonally."""
    def vertex(i, j):
        if i == n:
            i, j = 0, -j
        return i * n + j % n

    triangles = []
    for i in range(n):
        for j in range(n):
            a, b, c, d = vertex(i, j), vertex(i + 1, j), vertex(i, j + 1), vertex(i + 1, j + 1)
            triangles += [(a, b, d), (a, c, d)]
    return build_complex(triangles, vertex_count=n * n)


def test_homology_of_a_20x20_klein_bottle(capsys, tmp_path):
    klein = grid_klein_bottle(20)
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
])
def test_verify_rejects_empty_runs(capsys, argv, message):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 64
    assert out == ""
    assert message in err


# stdout checked in under tests/expected/; regenerate a file only for a
# deliberate change of output
EXPECTED = ROOT / "tests" / "expected"


@pytest.mark.parametrize("path", sorted((ROOT / "demos" / "files").glob("*.cplx")),
                         ids=lambda p: p.name)
def test_homology_of_demo_files_is_byte_identical(capsys, path):
    code, out, _ = run_cli(capsys, "homology", str(path))
    assert code == 0
    assert out == (EXPECTED / f"homology_{path.stem}.out").read_text(encoding="utf-8")


def test_verify_nerve_is_byte_identical(capsys):
    code, out, _ = run_cli(capsys, "verify", "nerve")
    assert code == 0
    assert out == (EXPECTED / "verify_nerve.out").read_text(encoding="utf-8")


def test_verify_dv_bound_is_byte_identical(capsys):
    code, out, _ = run_cli(capsys, "verify", "dv-bound")
    assert code == 0
    assert out == (EXPECTED / "verify_dv_bound.out").read_text(encoding="utf-8")
