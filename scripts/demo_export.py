#!/usr/bin/env python3
"""Build a small development tree and walk it through the whole tool.

Creates a workspace under a temporary directory: a project with one entry
file, a project-local library, a system library, and a home library.  Then
runs mkindex, a per-engine trace, an export, and a target-narrowed export,
printing everything as it goes.  Exits non-zero as soon as a step fails.

    python3 scripts/demo_export.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

# The steps run in the workspace, so a relative PYTHONPATH would not find
# the package; put this checkout's sources first, by absolute path.
SRC = Path(__file__).resolve().parent.parent / "src"
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
)

FILES = {
    "proj/file1.pl": """\
% file1
:- requires( [member/2,maplist/3,flatten/2] ).
""",
    "proj/lib/Index.pl": """\
index( maplist, 3, any, user, 'meta/maplist' ).
""",
    "proj/lib/meta/maplist.pl": """\
:- defines( [maplist/3] ).
maplist(_, [], []).
maplist(G, [X|Xs], [Y|Ys]) :- call(G, X, Y), maplist(G, Xs, Ys).
""",
    "SysLib/Index.pl": """\
index( member, 2, sicstus(_), lists, lists ).
""",
    "SysLib/lists.pl": """\
:- module( lists, [member/2] ).
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
""",
    "HomeLib/list/flatten.pl": """\
:- defines( not(swi(_)), [flatten/2] ).
flatten([], []).
flatten([X|Xs], F) :- flatten(X, F1), flatten(Xs, F2), append(F1, F2, F).
flatten(X, [X]).
""",
    "HomeLib/compat/swi/built_ins.pl": """\
% Predicates this engine ships natively.
:- defines_module( built_in ).
:- defines( swi(_), [flatten/2, member/2] ).
""",
}


def run(workspace: Path, *args: str) -> None:
    print(f"\n$ exlibris {' '.join(args)}")
    result = subprocess.run(
        [sys.executable, "-m", "exlibris.cli", *args],
        cwd=workspace,
        env=CHILD_ENV,
        capture_output=True,
        text=True,
    )
    sys.stdout.write(result.stdout)
    sys.stderr.write(result.stderr)
    if result.returncode != 0:
        raise SystemExit(f"demo step failed with exit {result.returncode}")


def show_tree(root: Path, title: str) -> None:
    print(f"\n{title}")
    for path in sorted(root.rglob("*")):
        if path.is_file():
            print(f"  {path.relative_to(root)}")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="exlibris-demo-") as raw:
        workspace = Path(raw)
        for rel, text in FILES.items():
            target = workspace / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text, encoding="utf-8")
        print(f"workspace: {workspace}")
        show_tree(workspace, "development tree:")

        run(workspace, "mkindex", "HomeLib")
        print((workspace / "HomeLib" / "Index.pl").read_text(encoding="utf-8"), end="")

        run(workspace, "trace", "proj/file1.pl", "--pl", "swi:5.0.7",
            "--syslib", "SysLib", "--homelib", "HomeLib")
        run(workspace, "trace", "proj/file1.pl", "--pl", "sicstus:3.9.0",
            "--syslib", "SysLib", "--homelib", "HomeLib")

        run(workspace, "export", "--dest", "out", "--source", "proj/file1.pl",
            "--syslib", "SysLib", "--homelib", "HomeLib")
        show_tree(workspace / "out", "exported tree (all engines):")
        print("\nout/file1.pl:")
        print((workspace / "out" / "file1.pl").read_text(encoding="utf-8"), end="")
        print("\nout/lib/Index.pl:")
        print((workspace / "out" / "lib" / "Index.pl").read_text(encoding="utf-8"), end="")

        run(workspace, "export", "--dest", "out_swi", "--source", "proj/file1.pl",
            "--syslib", "SysLib", "--homelib", "HomeLib", "--pl", "swi:5.0.7")
        show_tree(workspace / "out_swi", "exported tree (swi only):")

        run(workspace, "graph", "--source", "proj/file1.pl",
            "--syslib", "SysLib", "--homelib", "HomeLib")
    return 0


if __name__ == "__main__":
    sys.exit(main())
