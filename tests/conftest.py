"""Fixtures: the worked-example tree and a CLI runner."""

from __future__ import annotations

from pathlib import Path

import pytest

# The development tree the acceptance suite keeps coming back to: one entry
# file requiring member/2, maplist/3, and flatten/2; a system library
# shipping lists; a project-local library with maplist; and a home library
# where flatten lives for non-Swi engines and Swi's built-ins are declared.
WORKED_EXAMPLE = {
    "proj/file1.pl": (
        "% file1\n"
        ":- requires( [member/2,maplist/3,flatten/2] ).\n"
    ),
    "proj/lib/Index.pl": "index( maplist, 3, any, user, 'meta/maplist' ).\n",
    "proj/lib/meta/maplist.pl": (
        ":- defines( [maplist/3] ).\n"
        "maplist(_, [], []).\n"
        "maplist(G, [X|Xs], [Y|Ys]) :- call(G, X, Y), maplist(G, Xs, Ys).\n"
    ),
    "SysLib/Index.pl": "index( member, 2, sicstus(_), lists, lists ).\n",
    "SysLib/lists.pl": (
        ":- module( lists, [member/2] ).\n"
        "member(X, [X|_]).\n"
        "member(X, [_|T]) :- member(X, T).\n"
    ),
    "HomeLib/Index.pl": (
        "index( flatten, 2, swi(_), built_in, 'compat/swi/built_ins' ).\n"
        "index( flatten, 2, not(swi(_)), user, 'list/flatten' ).\n"
        "index( member, 2, swi(_), built_in, 'compat/swi/built_ins' ).\n"
    ),
    "HomeLib/list/flatten.pl": (
        ":- defines( not(swi(_)), [flatten/2] ).\n"
        "flatten([], []).\n"
        "flatten([X|Xs], F) :- flatten(X, F1), flatten(Xs, F2), append(F1, F2, F).\n"
        "flatten(X, [X]).\n"
    ),
    "HomeLib/compat/swi/built_ins.pl": (
        "% Predicates this engine ships natively.\n"
        ":- defines_module( built_in ).\n"
        ":- defines( swi(_), [flatten/2, member/2] ).\n"
    ),
}


def build_worked_example(root: Path) -> Path:
    for rel, text in WORKED_EXAMPLE.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


@pytest.fixture
def worked_example(tmp_path, monkeypatch):
    build_worked_example(tmp_path)
    monkeypatch.chdir(tmp_path)
    return tmp_path


# Longer than Python's default recursion limit, so a recursive walk fails.
CHAIN_LENGTH = 1500


@pytest.fixture
def load_chain(tmp_path):
    """f0.pl ensure_loads f1.pl, which ensure_loads f2.pl, and so on; returns f0.pl."""
    last = CHAIN_LENGTH - 1
    for i in range(last):
        (tmp_path / f"f{i}.pl").write_text(f":- ensure_loaded(f{i + 1}).\n", encoding="utf-8")
    (tmp_path / f"f{last}.pl").write_text(f"f{last}.\n", encoding="utf-8")
    return tmp_path / "f0.pl"


@pytest.fixture
def run_cli(capsys):
    from exlibris.cli import main

    def run(*args: str):
        code = main(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run
