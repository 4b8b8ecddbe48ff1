"""The benchmark harness's own self-test runs against this tree."""

from __future__ import annotations

import os
import subprocess
import sys

from helpers import ROOT


def test_perfbench_selftest_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "selftest passed" in result.stdout
