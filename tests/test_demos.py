import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
# stdout that a demo must reproduce byte for byte, where a file is checked in
EXPECTED = ROOT / "tests" / "expected"


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    # a RuntimeWarning (overflow, invalid value) fails the demo, as in-process code
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONWARNINGS="error::RuntimeWarning")
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    expected = EXPECTED / f"{script.stem}.out"
    if expected.exists():
        assert proc.stdout == expected.read_text(encoding="utf-8")
