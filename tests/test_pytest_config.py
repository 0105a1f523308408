"""The repository's pytest settings, run on a small suite of their own."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TWO_TESTS = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_failing_property(x):
    assert x < 10


def test_plain():
    pass
"""


def test_a_failing_property_does_not_end_the_session(tmp_path):
    # Warnings are errors here; one raised while Hypothesis reports a failure
    # used to abort the session as INTERNALERROR, so the other test never ran.
    shutil.copy(ROOT / "pyproject.toml", tmp_path / "pyproject.toml")
    (tmp_path / "test_two.py").write_text(TWO_TESTS, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
