"""The scripts under `scripts/` run as documented."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_demo_export_runs_every_step():
    result = subprocess.run(
        [sys.executable, "scripts/demo_export.py"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "exported tree (swi only):" in result.stdout
