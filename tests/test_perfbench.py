"""The benchmark harness still runs against the package.

`perfbench/selftest.py` builds every workload at tiny size, runs it once
untraced and once traced, and checks each job's output and artifacts; an
API change that breaks the benchmark makes it exit nonzero.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SELFTEST = os.path.join("perfbench", "selftest.py")


@pytest.mark.skipif(
    not os.path.isfile(os.path.join(ROOT, SELFTEST)), reason="no perfbench/ in this checkout"
)
def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, SELFTEST], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stdout + done.stderr
