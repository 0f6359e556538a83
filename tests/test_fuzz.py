"""End to end: no generated input ends in a traceback.

Each example writes a small world: a home library of 1-4 files, with or
without an `Index.pl` (some whose lines only look like the ones `mkindex`
writes), one project entry, and a file two levels above the
library that only a `..` name could reach.  The statements mix deep terms,
malformed directives, bad conditions, load cycles, `..` and absolute library
names and non-UTF-8 bytes.  `graph`, `trace`, `export` and `mkindex` then run
over it through `cli.main`.  Each must end in a documented exit code without
an internal error, and write nothing but what it owns: export its
destination, mkindex the library's `Index.pl`, graph and trace nothing.
No export plan names a destination file twice.  Library files on which a
backtracking statement splitter would not finish end in a located error,
and so do `Index.pl` files on which a backtracking index reader would not.
Library files in which declarations that `read_directives` decodes from its
declaration pattern interleave with ones it parses, with clauses and with
at most one bad statement, give `mkindex` the same `Index.pl`, or the same
exit code and message, as a reader that parses every declaration; and they
give `graph` and `trace` the same exit code and output, an entry file of
such statements included.
"""

from __future__ import annotations

import contextlib
import io
import posixpath
import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import exlibris.index as index_module
import helpers
from exlibris import cli
from exlibris.cli import main

# Past the recursion limit, which Hypothesis raises to 2000 frames above the
# test while it runs.
DEEP = 2500


def nested(opening: str, leaf: str, closing: str) -> str:
    return opening * DEEP + leaf + closing * DEEP


FUNCTORS = st.sampled_from(["p/1", "[p/1, q/2]", "[]", "'it''s'/0", "[q/2, r/0, p/1]"])
TERMS = st.sampled_from([
    "x",
    "X",
    "f(x)",
    "[p/1|T]",
    "-3",
    nested("f(", "x", ")"),
    nested("[", "x", "]"),
    nested("not(", "p/1", ")"),
    "(" + ",".join(["x"] * DEEP) + ")",
])
CONDS = st.sampled_from([
    "any",
    "swi(_)",
    "not(swi(_))",
    "[swi(_), sicstus(3:_:_)]",
    "(sicstus,[(3:9:0,>=)])",
    nested("not(", "swi(_)", ")"),
    nested("[", "swi(_)", "]"),
])
BAD_CONDS = st.sampled_from([
    "foo(bar)",
    "swi(V)",
    "[]",
    "(sicstus,x)",
    "(sicstus,[(3:9:0,like)])",
    nested("not(", "f(x)", ")"),
    f"(sicstus,[({nested('f(', 'x', ')')},>=)])",
])
REFS = st.sampled_from([
    "library('../../evil')",
    "m",  # the entry itself
    "library(m0)",
    "m0",
    "library(a/'..'/'..'/'..'/evil)",
    "sub/m2",
    "'../HomeLib/m1'",
    "library(sub/m2)",
    "library(m3)",
    "library('/evil')",
    "library(" + "/".join(["d"] * DEEP) + ")",
    "[m0, library(m1)]",
    "missing",
])
STATEMENTS = st.one_of(
    st.builds(":- requires({}).".format, FUNCTORS),
    st.builds(":- defines({}, {}).".format, CONDS, FUNCTORS),
    st.builds(":- defines({}).".format, FUNCTORS),
    st.builds(":- ensure_loaded({}).".format, REFS),
    st.builds(":- if_pl({}, ensure_loaded({})).".format, CONDS, REFS),
    st.builds(":- if_pl({}, ensure_loaded({}), {}).".format, CONDS, REFS, TERMS),
    st.builds(":- module(m, {}).".format, FUNCTORS),
    st.sampled_from([
        "p(1).",
        "q(X, Y) :- r(X), s(Y).",
        "q(X) :- Y is X + 1, \\+ Y =.. [_], Z = \"a. b\", C = 0'., D = 1.5.",
        ":- dynamic q/1.",
        ":- library_directory('/elsewhere').",
        ":- defines_module(built_in).",
    ]),
)
# A statement every command that reads its file refuses with a located error;
# at most one per world, so that many runs get past reading the library.
FAULTS = st.one_of(
    st.builds(":- requires({}).".format, TERMS),
    st.builds(":- defines({}, [p/1]).".format, BAD_CONDS),
    st.builds(":- if_pl({}, ensure_loaded(m0)).".format, BAD_CONDS),
    st.sampled_from(
        [":- requires([broken).", ":- if_pl(swi(_)).", "r(", "s('open", "t(\xff).", 'u("open']
    ),
)
SOURCES = st.lists(STATEMENTS, max_size=4).map(lambda lines: "".join(f"{s}\n" for s in lines))
INDEX_LINES = st.builds(
    "index( {}, {}, {}, user, {} ).".format,
    st.sampled_from(["p", "q", "'[]'"]),
    st.sampled_from(["1", "2", "-1"]),
    CONDS,
    st.sampled_from(["m0", "'sub/m2'", "'../../evil'", "'/evil'", "''", "ghost"]),
) | st.sampled_from(["index( p ).", "junk(", "index( p, 1, any, user, m0 )."])
# Whole index files that look like what mkindex writes but are not: facts
# the index reader must leave to the parser or take despite their layout,
# and file fields spelled as mkindex never writes them (`./m0`, `sub//m2`,
# `sub/./m2`).
HOSTILE_INDEXES = st.sampled_from([
    "index( p, 1, any, user, './m0' ).\nindex( q, 2, any, user, m0 ).\n"
    "index( r, 0, any, user, 'sub//m2' ).\nindex( p, 1, swi(_), user, 'sub/./m2' ).\n",
    "index( p, 1, any, user, m0 ).\r\nindex( q, 2, any, user, m0 ).\r\n",
    "/*\nindex( p, 1, any, user, m0 ).\n*/\nindex( q, 2, swi(_), user, 'sub/m2' ).\n",
    "index( p, 1, any, user, m0 ).\n/* open\nindex( q, 2, any, user, m0 ).\n",
    "index( p, 1, any, user, m0 ). % index( q, 2, any, user, m0 ).\n",
    "index( /*, 1, any, user, m0 ).\n",
    f"index( p, 1, {nested('not(', 'swi(_)', ')')}, user, m0 ).\n",
    f"index( p, 1, {nested('[', 'swi(_)', ']')}, user, m0 ).\nindex( q, 02, any, user, m0 ).\n",
])
INDEXES = st.none() | HOSTILE_INDEXES | st.lists(INDEX_LINES, max_size=4).map(
    lambda lines: "".join(f"{line}\n" for line in lines)
)
LIBRARY_NAMES = ("m0.pl", "m1.pl", "sub/m2.pl", "m3.pl")
ENGINES = st.sampled_from([(), ("--pl", "swi:5.0.7"), ("--pl", "sicstus:3.9.0")])


def run(*args: str) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, err.getvalue()


def keeping_plans(plans: list):
    """Patch `cli.plan_export` to append each plan it makes to `plans`."""
    plan_export = cli.plan_export

    def keeping(opts, libs):
        plans.append(plan_export(opts, libs))
        return plans[-1]

    return mock.patch.object(cli, "plan_export", keeping)


def destinations(plan) -> list[str]:
    """Every file a plan writes, once per step that writes it."""
    return [f.dest_rel for f in plan.files]


def snapshot(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()
    }


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    st.lists(SOURCES, min_size=1, max_size=4),
    INDEXES,
    SOURCES,
    st.none() | st.tuples(st.integers(0, 4), FAULTS),
    ENGINES,
    st.booleans(),
)
def test_commands_end_in_a_documented_exit_code(libraries, index, entry, fault, engines, strict):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        world = root / "w"
        sources = [entry, *libraries]
        if fault is not None:
            where, statement = fault
            sources[where % len(sources)] += f"{statement}\n"
        files = {"evil.pl": ":- defines([p/1]).\np(1).\n", "w/proj/m.pl": sources[0]}
        files.update(zip((f"w/HomeLib/{name}" for name in LIBRARY_NAMES), sources[1:]))
        if index is not None:
            files["w/HomeLib/Index.pl"] = index
        for rel, text in files.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_bytes(text.encode("latin-1"))
        libs = ("--homelib", str(world / "HomeLib"))
        entry_path = str(world / "proj" / "m.pl")
        export = ("export", "--dest", str(world / "out"), "--source", entry_path)
        # each command with the paths it may write
        for args, writes in (
            (("graph", "--source", entry_path, *libs, *engines), ()),
            (("trace", entry_path, "--pl", "sicstus:3.9.0", *libs), ()),
            ((*export, *libs, *engines, *(("--strict",) if strict else ())), ("w/out/",)),
            (("mkindex", str(world / "HomeLib")), ("w/HomeLib/Index.pl",)),
        ):
            before = snapshot(root)
            plans = []
            with keeping_plans(plans):
                code, err = run(*args)
            for plan in plans:
                written = [posixpath.normpath(rel) for rel in destinations(plan)]
                assert len(set(written)) == len(written), written
            assert code in (0, 1, 2, 3), (args[0], err)
            assert "internal error" not in err, (args[0], err)
            after = snapshot(root)
            kept = {k: v for k, v in after.items() if not k.startswith(writes)}
            assert kept == {k: v for k, v in before.items() if not k.startswith(writes)}


# Library files on which a splitter that backtracks would not finish: long
# unterminated quotes and comments, many comment openers, and a `0'` with
# nothing after it.
PATHOLOGICAL = {
    "quote": "p :- X = '" + "a" * 100_000,
    "quote_in_directive": ":- x('" + "a" * 100_000,
    "escapes": "p :- X = '" + "\\x41\\\\1\\" * 10_000,
    "string": 'p :- X = "' + "a. " * 30_000,
    "backquote": "p :- X = `" + "a" * 100_000,
    "block_comment": "p :- /*" + "a" * 100_000,
    "comment_openers": "p. " + "/* " * 10_000,
    "code_at_end": "p :- X = 0'",
}


@pytest.mark.parametrize("text", PATHOLOGICAL.values(), ids=PATHOLOGICAL)
def test_pathological_library_file_is_a_located_error(tmp_path, text):
    bad = tmp_path / "HomeLib" / "bad.pl"
    bad.parent.mkdir()
    bad.write_text(text, encoding="utf-8")
    (tmp_path / "HomeLib" / "ok.pl").write_text(":- defines([p/1]).\np(1).\n", encoding="utf-8")
    (tmp_path / "m.pl").write_text(":- requires([p/1]).\n", encoding="utf-8")
    libs = ("--homelib", str(tmp_path / "HomeLib"))
    for args in (
        ("graph", "--source", str(tmp_path / "m.pl"), *libs),
        ("trace", str(tmp_path / "m.pl"), "--pl", "swi:5.0.7", *libs),
        ("export", "--dest", str(tmp_path / "out"), "--source", str(tmp_path / "m.pl"), *libs),
        ("mkindex", str(tmp_path / "HomeLib")),
    ):
        code, err = run(*args)
        assert code == 2, (args[0], err)
        assert err.startswith(f"exlibris: {bad}:1:"), (args[0], err)


# Index files on which a reader that backtracks would not finish: a long
# unterminated quote inside what starts as a fact, many comment openers,
# and a long unterminated block comment after a fact.
PATHOLOGICAL_INDEXES = {
    "quote": "index( '" + "a" * 100_000,
    "string": 'index( p, 1, any, user, "' + "a. " * 30_000,
    "comment_openers": "/* " * 10_000,
    "block_comment": "index( p, 1, any, user, m0 ). /*" + "a" * 100_000,
}


@pytest.mark.parametrize("text", PATHOLOGICAL_INDEXES.values(), ids=PATHOLOGICAL_INDEXES)
def test_pathological_index_file_is_a_located_error(tmp_path, text):
    index = tmp_path / "HomeLib" / "Index.pl"
    index.parent.mkdir()
    index.write_text(text, encoding="utf-8")
    (tmp_path / "HomeLib" / "m0.pl").write_text(":- defines([p/1]).\np(1).\n", encoding="utf-8")
    (tmp_path / "m.pl").write_text(":- requires([p/1]).\n", encoding="utf-8")
    libs = ("--homelib", str(tmp_path / "HomeLib"))
    for args in (
        ("graph", "--source", str(tmp_path / "m.pl"), *libs),
        ("trace", str(tmp_path / "m.pl"), "--pl", "swi:5.0.7", *libs),
        ("export", "--dest", str(tmp_path / "out"), "--source", str(tmp_path / "m.pl"), *libs),
    ):
        code, err = run(*args)
        assert code == 2, (args[0], err)
        assert err.startswith(f"exlibris: {index}:1:"), (args[0], err)


# Library files for the declaration-pattern fuzz case: declarations the
# pattern takes, others it leaves to the parser, and clauses, interleaved.
DECLARATION_FILES = st.lists(
    st.integers(0, 2**32).map(lambda seed: helpers.gen_declarations(random.Random(seed))),
    min_size=1, max_size=3,
)
# A statement `mkindex` refuses with a located error, in a declaration or not.
DECLARATION_FAULTS = FAULTS | st.sampled_from([
    ":- module( m, p/2 ).",
    ":- module(m, [r/1|T]).",
    ":- defines( [p/1 ).",
    ":- defines( swi(, [p/1] ).",
    ":- defines( foo(bar), [p/1] ).",
    ":- defines( swi(_), [Upper/1] ).",
    ":- defines( [p/1] ) % c",
    ":- requires([q]).",
    ":- requires( [p/1 ).",
    ":- requires( [Upper/1] ).",
    ":- requires( swi(, [p/1] ).",
])


def mkindex_outcome(library: Path, fallback: tuple[str, ...]) -> tuple[int, str, bytes | None]:
    """`mkindex`'s exit code, stderr and `Index.pl` bytes, the index then removed."""
    code, err = run("mkindex", str(library), *fallback)
    index = library / "Index.pl"
    written = index.read_bytes() if index.exists() else None
    index.unlink(missing_ok=True)
    return code, err, written


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    DECLARATION_FILES,
    st.none() | st.tuples(st.integers(0, 2), st.integers(0, 8), DECLARATION_FAULTS),
    st.booleans(),
)
def test_mkindex_agrees_with_the_parse_only_reader(files, fault, clause_fallback):
    """Whatever the pattern takes, `mkindex` writes the same `Index.pl`, or
    stops with the same exit code and `file:line:col` message, as with every
    declaration parsed."""
    if fault is not None:
        where, at, statement = fault
        lines = files[where % len(files)].splitlines(keepends=True)
        lines.insert(at % (len(lines) + 1), f"{statement}\n")
        files[where % len(files)] = "".join(lines)
    fallback = ("--clause-fallback",) if clause_fallback else ()
    with tempfile.TemporaryDirectory() as tmp:
        library = Path(tmp)
        for i, text in enumerate(files):
            (library / f"m{i}.pl").write_text(text, encoding="utf-8")
        with mock.patch.object(index_module, "read_directives", helpers.parsed_directives):
            expected = mkindex_outcome(library, fallback)
        assert mkindex_outcome(library, fallback) == expected


def walk_outcomes(root: Path, engines: tuple[str, ...]) -> list[tuple[int, str, str]]:
    """`graph` and `trace` of `proj/e.pl` over `H`: exit code, stdout, stderr."""
    outcomes = []
    libs = ("--homelib", str(root / "H"))
    entry = str(root / "proj" / "e.pl")
    for args in (
        ("graph", "--source", entry, *libs, *engines),
        ("trace", entry, "--pl", "swi:5.0.7", *libs),
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(args))
        outcomes.append((code, out.getvalue(), err.getvalue()))
    return outcomes


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    DECLARATION_FILES,
    st.integers(0, 2**32),
    st.none() | st.tuples(st.integers(0, 3), st.integers(0, 8), DECLARATION_FAULTS),
    st.booleans(),
    ENGINES,
)
def test_walks_agree_with_the_parse_only_reader(files, seed, fault, indexed, engines):
    """Whatever `requires` the pattern takes, in library files and in an
    entry that loads each of them, `graph` and `trace` give the same exit
    code, stdout and stderr as with every directive they read parsed; the
    library has an `Index.pl` from `mkindex` or is indexed on the fly."""
    entry = helpers.gen_declarations(random.Random(seed)) + "".join(
        f":- ensure_loaded(library(m{i})).\n" for i in range(len(files))
    )
    sources = [entry, *files]
    if fault is not None:
        where, at, statement = fault
        lines = sources[where % len(sources)].splitlines(keepends=True)
        lines.insert(at % (len(lines) + 1), f"{statement}\n")
        sources[where % len(sources)] = "".join(lines)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "H").mkdir()
        (root / "proj").mkdir()
        (root / "proj" / "e.pl").write_text(sources[0], encoding="utf-8")
        for i, text in enumerate(sources[1:]):
            (root / "H" / f"m{i}.pl").write_text(text, encoding="utf-8")
        if indexed:
            run("mkindex", str(root / "H"))
        with mock.patch.object(index_module, "read_directives", helpers.parsed_directives):
            expected = walk_outcomes(root, engines)
        assert walk_outcomes(root, engines) == expected
