"""The pytest configuration keeps a run going past a failing hypothesis test.

`filterwarnings = ["error"]` turns warnings into errors.  Hypothesis's
failure report touches a deprecated name of `mypy_extensions`, and that
warning, raised inside a pytest hook, used to end the whole run in
INTERNALERROR with the remaining tests never run.  A pytest subprocess under
the repository's own configuration runs a failing derandomized hypothesis
test, then a passing one, and both must be reported.
"""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None, max_examples=5)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    (tmp_path / "test_sample.py").write_text(TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(CONFIG), "test_sample.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
