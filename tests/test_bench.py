"""The benchmark's in-process entry points still work against `src/`."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_bench_selfcheck_passes():
    result = subprocess.run(
        [sys.executable, "bench/selfcheck.py"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
