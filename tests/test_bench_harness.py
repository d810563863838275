"""The benchmark harness's own self-test passes against the current library.

A refactor that renames a function the harness traces, or breaks one of its
workloads, fails here.  Nothing is gated on timings.
"""

import subprocess
import sys
from pathlib import Path

PKG_ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    result = subprocess.run(
        [sys.executable, str(PKG_ROOT / "bench" / "selftest.py")],
        capture_output=True,
        text=True,
        cwd=PKG_ROOT,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "selftest: ok" in result.stdout
