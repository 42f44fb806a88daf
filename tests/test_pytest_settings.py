"""The suite's own pytest settings report every failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
'''


def test_a_failing_property_test_does_not_hide_later_results(tmp_path):
    # hypothesis' failure report imports a module that raises a
    # DeprecationWarning; under filterwarnings = error alone that warning
    # aborted the run with INTERNALERROR after the first failure
    (tmp_path / "test_pair.py").write_text(FAILING_PROPERTY_THEN_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
