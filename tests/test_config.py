"""The pytest configuration the suite runs under."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(i):
    assert i < 10


def test_a_passing_test():
    pass
'''


def test_a_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    # Warnings are errors, and reporting a failing example imports a module
    # that warns on import: unfiltered, that ends the run with INTERNALERROR.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1
    assert "1 failed, 1 passed" in done.stdout
