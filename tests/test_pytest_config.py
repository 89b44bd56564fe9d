"""The repository's pytest settings, run on a scratch suite in a subprocess."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

SUITE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_leaves_the_rest_of_the_run(tmp_path):
    # Hypothesis's report of a failing example imports libcst, which warns
    # on importing mypy_extensions; with that warning an error the run ended
    # in an INTERNALERROR at the first failing property test
    (tmp_path / "test_scratch.py").write_text(SUITE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_scratch.py"],
        cwd=tmp_path, capture_output=True, text=True, check=False)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
