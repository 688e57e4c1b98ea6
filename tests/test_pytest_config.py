"""The test configuration lets a failing property test report and go on.

``filterwarnings = ["error"]`` turns every warning into an error, and the
hypothesis plugin warns while it reports a failing ``@given`` test.  Unless
that one warning is ignored, the session ends with INTERNALERROR and the
tests after the failing one never run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SAMPLE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_given_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_sample.py").write_text(SAMPLE)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT),
            str(tmp_path / "test_sample.py"),
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
