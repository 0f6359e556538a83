"""The scripts under `scripts/` run as documented."""

from __future__ import annotations

import os
import shutil
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


def test_compare_outputs_reports_a_changed_word_and_nothing_else(tmp_path):
    """Against this tree's own `src/` the differential check finds nothing;
    against a copy with one report word changed it shows that word, exit 1."""
    other = tmp_path / "src"
    shutil.copytree(REPO / "src", other, ignore=shutil.ignore_patterns("__pycache__"))
    export = other / "exlibris" / "export.py"
    text = export.read_text(encoding="utf-8")
    assert text.count('f"rewrite {') == 1
    export.write_text(text.replace('f"rewrite {', 'f"rewrote {'), encoding="utf-8")

    def compare(src: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "scripts/compare_outputs.py", src,
             "--workloads", "targets", "--seeds", "1"],
            cwd=REPO, capture_output=True, text=True, timeout=120,
            env=dict(os.environ, TMPDIR=str(tmp_path)),
        )

    same = compare("src")
    assert same.returncode == 0, same.stdout + same.stderr
    assert same.stdout.endswith(" commands, 0 with differences\n")
    changed = compare(str(other))
    assert changed.returncode == 1, changed.stdout + changed.stderr
    assert "    -rewrote e000.pl\n" in changed.stdout
    assert "    +rewrite e000.pl\n" in changed.stdout
    assert "    +rewrite main.pl\n" in changed.stdout
    # the four exports of HomeLib, one of them with `--copy recursive`, the
    # two of each of its two respelled copies, the two of the hand-written
    # corpus, the two of the relative-load tree, the two of the clause-heavy
    # tree, the three of the discovery tree, one with `--copy recursive`, the
    # eight of the sources tree, two per spelling, and the shadow tree's one
    # without `--strict`
    assert changed.stdout.endswith(" commands, 26 with differences\n")
