#!/usr/bin/env python3
"""Compare every command's output under this tree's `src/` and another one.

    git archive HEAD~1 src | tar -x -C /tmp/parent
    python3 scripts/compare_outputs.py /tmp/parent/src --seeds 1,2,3

For each workload and seed, the benchmark's world (`bench/world.py`, with
the shapes of `bench/run.py` and the tiny ones of `bench/selfcheck.py`) is
built in one directory.  There, under this tree's `src/` and then under
OTHER_SRC, one process per side runs `graph` (no targets, and all three),
`trace` of every entry under each target, `export` (no targets, all three,
swi alone, and no targets with `--copy recursive`) and `mkindex`, plain,
with `--clause-fallback` and with `--no-subdirs`, of both libraries and of
a copy of HomeLib where every other file declares nothing:
its `:- defines` and `:- module` lines are dropped, so the fallback parses
that file's clauses, while it parses no clause of a file that declares
something.  Where HomeLib keeps an `Index.pl`, `graph` (no targets, and all
three), `trace` of the first entry under each target and `export` (no
targets, and all three) also run on a copy of HomeLib whose `Index.pl` has
a comment after every fact, which the index reader's fact pattern still
takes, and in every third fact a doubled space or a line break, which it
leaves to the parser.  Its first `any` fact is written with `all`, a
condition the reader parses, and it holds facts the reader skips with a
warning, at its start, middle and end, so the warnings' text and order
are compared too.  The same commands, and the three `mkindex` runs, run
on a copy of HomeLib, `Index.pl` included where HomeLib keeps one (else
they index it on the fly), whose `:- defines(`, `:- module(`,
`:- defines_module(` and `:- requires(` lines are written by turns as they
stand, which the declaration pattern of `mkindex` and of the
dependency walk takes, and in spellings it leaves to the parser:
`:-defines(`, `:- /* c */ defines(` and `:- 'defines'(`, since the walk
picks the directives it leaves unparsed by their first body token, then a
doubled space after `(`, a line break or a `/* c */` after the first `[`,
and `) .`.  The walks run once
more, with `proj/main.pl` as the entry, on the hand-written corpus under
`tests/data/real/`, its `expected/Index.pl` placed in its HomeLib, and so
does `mkindex` of that HomeLib.  The walks run, with `proj/main.pl` as the
entry, on RELATIVE_WORLD too: a hand-made tree whose files load each other
by relative names in every spelling the README's Resolution section gives,
and whose `Index.pl` spells one file three ways, and on CLAUSE_WORLD, whose
library files hold runs of clauses with every hazard a run must step over;
`mkindex` runs on its HomeLib and, with `graph`, on each of its `Bad*`
libraries, which holds a statement a run cannot end.  The walks run on
CONFLICT_WORLD too, whose two home libraries each give an `a.pl` for
`lib/a.pl`, so export's error shows which file it names first.  On
SOURCES_WORLD, `graph` and `export` (plain and `--copy recursive`) take
their sources in each spelling of SOURCE_SPELLINGS, and each of
SOURCE_FAULTS shows which of two faults a run reports; on SHADOW_WORLD,
`export` (plain and `--strict`) meets a vendored file that hides a system
answer.  Every
difference in exit code, standard output, standard error or written files
(export's destination, mkindex's `Index.pl`) is printed.  Exits 1 if there is any, 0
if there is none.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import itertools
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable

REPO = Path(__file__).resolve().parent.parent
RESPELLED = "HomeLibRespelled"  # the copy of HomeLib with a respelled Index.pl
REDECLARED = "HomeLibRedeclared"  # the copy of HomeLib with respelled declarations
UNDECLARED = "HomeLibUndeclared"  # the copy of HomeLib where every other file declares nothing
REAL = REPO / "tests" / "data" / "real"  # the hand-written home library and its entry file


def respell(fact: str, i: int) -> str:
    """The fact on line `i` of an `Index.pl` with ` % respelled` after it;
    on every third line also, by turns, a doubled space after `index(` or a
    line break before `).`."""
    if i % 6 == 0:
        fact = fact.replace("index( ", "index(  ", 1)
    elif i % 6 == 3:
        fact = fact.removesuffix(" ).") + "\n  )."
    return f"{fact} % respelled"


# statements an `Index.pl` reader skips, each with a warning
SKIPPED = (
    "index( outside, 1, any, user, '../x' ).",
    "index( no_cond, 1, sometimes, user, a ).",
    "note( not_an_index_fact ).",
)


def respelled(world) -> dict[str, str]:
    """HomeLib's files under RESPELLED, with every fact of its `Index.pl`
    respelled, its first `any` written `all`, and the SKIPPED statements at
    its start, middle and end; none if HomeLib keeps no `Index.pl`."""
    import world as worlds

    index = world.files.get(f"HomeLib/{worlds.INDEX_NAME}")
    if index is None:
        return {}
    copy = {f"{RESPELLED}/{rel.removeprefix('HomeLib/')}": text
            for rel, text in world.files.items() if rel.startswith("HomeLib/")}
    lines = [respell(line, i) if line.startswith("index(") else line
             for i, line in enumerate(index.replace(", any,", ", all,", 1).splitlines())]
    for at in (len(lines), len(lines) // 2, 1):
        lines[at:at] = SKIPPED
    copy[f"{RESPELLED}/{worlds.INDEX_NAME}"] = "".join(f"{line}\n" for line in lines)
    return copy


# How REDECLARED writes a declaration `:- name(args).`, by turns: as it
# stands, which the declaration pattern takes, then in spellings it leaves
# to the parser.  Of a `defines`, `module` or `defines_module`, the walk
# leaves the first three unparsed as well, since it picks the directives it
# skips by their first body token.
SPELLINGS = (
    ":- {0}({1}).",
    ":-{0}({1}).",
    ":- /* c */ {0}({1}).",
    ":- '{0}'({1}).",  # the walk parses this one
    ":- {0}( {1}).",  # a doubled space after `(`
    ":- {0}({2}).",  # a line break inside the list
    ":- {0}({3}).",  # a comment inside the list
    ":- {0}({1}) .",
)
DECLARATION = re.compile(r"^:- (defines|module|defines_module|requires)\((.*)\)\.$", re.MULTILINE)


def redeclared(world) -> dict[str, str]:
    """HomeLib's files under REDECLARED, its `Index.pl` included if it keeps
    one, with every `:- defines(`, `:- module(`, `:- defines_module(` and
    `:- requires(` line written by turns as SPELLINGS give."""
    turns = itertools.cycle(SPELLINGS)

    def respell(m: re.Match) -> str:
        listed = (m[2].replace("[", "[\n    ", 1), m[2].replace("[", "[/* c */ ", 1))
        return next(turns).format(m[1], m[2], *listed)

    return {f"{REDECLARED}/{rel.removeprefix('HomeLib/')}": DECLARATION.sub(respell, text)
            for rel, text in world.files.items() if rel.startswith("HomeLib/")}


def undeclared(world) -> dict[str, str]:
    """HomeLib's source files under UNDECLARED, without its `Index.pl`; from
    every other one, in sorted order, its `:- defines(` and `:- module(`
    lines are dropped."""
    import world as worlds

    sources = sorted(rel for rel in world.files
                     if rel.startswith("HomeLib/") and not rel.endswith(f"/{worlds.INDEX_NAME}"))
    copy = {}
    for i, rel in enumerate(sources):
        lines = world.files[rel].splitlines(keepends=True)
        if i % 2:
            lines = [line for line in lines if not line.startswith((":- defines(", ":- module("))]
        copy[f"{UNDECLARED}/{rel.removeprefix('HomeLib/')}"] = "".join(lines)
    return copy


def commands(world) -> list[dict]:
    """Each command's argv and the path it may write, relative to the world."""
    import run
    import world as worlds

    libs = list(run.LIBS)
    targets = [arg for flag in worlds.TARGET_FLAGS for arg in ("--pl", flag)]
    swi = ["--pl", worlds.TARGET_FLAGS[0]]
    found = [{"argv": ["graph", "--source", "proj", *libs, *pls], "writes": None}
             for pls in ([], targets)]
    for copy in (RESPELLED, REDECLARED):
        if any(rel.startswith(f"{copy}/") for rel in world.files):
            copy_libs = [copy if arg == "HomeLib" else arg for arg in libs]
            found.extend(walks(f"proj/{world.entries[0].rel}", copy_libs))
    found.extend(
        {"argv": ["trace", f"proj/{entry.rel}", "--pl", flag, *libs], "writes": None}
        for entry in world.entries for flag in worlds.TARGET_FLAGS
    )
    found.extend(
        {"argv": ["export", "--dest", "out", "--source", "proj", *libs, *pls], "writes": "out"}
        for pls in ([], targets, swi, ["--copy", "recursive"])
    )
    found.extend(mkindexes(["SysLib", "HomeLib", UNDECLARED, REDECLARED]))
    return found


def mkindexes(libs: list[str]) -> list[dict]:
    """`mkindex` of each of `libs`: plain, with `--clause-fallback` and with
    `--no-subdirs`."""
    return [{"argv": ["mkindex", lib, *flags], "writes": f"{lib}/Index.pl"}
            for flags in ([], ["--clause-fallback"], ["--no-subdirs"]) for lib in libs]


def walks(entry: str, libs: list[str]) -> list[dict]:
    """`graph` (no targets, and all three), `trace` of `entry` under each
    target and `export` (no targets, and all three) of `proj` with `libs`."""
    import world as worlds

    targets = [arg for flag in worlds.TARGET_FLAGS for arg in ("--pl", flag)]
    return [
        *({"argv": ["graph", "--source", "proj", *libs, *pls], "writes": None}
          for pls in ([], targets)),
        *({"argv": ["trace", entry, "--pl", flag, *libs], "writes": None}
          for flag in worlds.TARGET_FLAGS),
        *({"argv": ["export", "--dest", "out", "--source", "proj", *libs, *pls], "writes": "out"}
          for pls in ([], targets)),
    ]


def real_world(workdir: Path) -> None:
    """The hand-written corpus in `workdir`: its `HomeLib`, with
    `expected/Index.pl` as its `Index.pl`, and its `proj`."""
    for top in ("HomeLib", "proj"):
        shutil.copytree(REAL / top, workdir / top)
    shutil.copyfile(REAL / "expected" / "Index.pl", workdir / "HomeLib" / "Index.pl")


# Relative loads in each spelling the README gives: a plain name, one with
# its extension, `..` and `/` in the directory part, a trailing `/`, `.`, and
# a load into a library root beside a lookalike one (`HomeLib-x`); the
# library files load each other relatively too, and `Index.pl` names the
# file `d/a` as `'d/./a'`, `'d//a'` and `'d/a'`.
RELATIVE_WORLD = {
    "proj/main.pl": (
        ":- ensure_loaded(a).\n"
        ":- ensure_loaded('./b.pl').\n"
        ":- ensure_loaded('sub/../c').\n"
        ":- ensure_loaded('sub/').\n"
        ":- ensure_loaded('.').\n"
        ":- ensure_loaded('../HomeLib/d').\n"
        ":- ensure_loaded('../HomeLib-x/f').\n"
        ":- ensure_loaded(missing).\n"
        ":- requires( [p/0, q/0, r/0] ).\n"
    ),
    "proj/a.pl": ":- ensure_loaded(b).\n:- ensure_loaded('sub/x.txt').\na.\n",
    "proj/b.pl": "b.\n",
    "proj/c.pl": ":- ensure_loaded(library(d/a)).\nc.\n",
    "proj/sub/.pl": ":- ensure_loaded('../a').\n",
    "proj/sub/x.txt": "x.\n",
    "proj/..pl": "dot.\n",
    "HomeLib/Index.pl": (
        "index( d, 0, any, user, d ).\n"
        "index( p, 0, any, user, 'd/./a' ).\n"
        "index( q, 0, swi(_), user, 'd//a' ).\n"
        "index( q, 0, any, user, e ).\n"
        "index( r, 0, any, user, 'd/a' ).\n"
    ),
    "HomeLib/d.pl": ":- defines([d/0]).\n:- ensure_loaded('d/a').\nd.\n",
    "HomeLib/d/a.pl": (
        ":- defines([p/0, q/0, r/0]).\n:- ensure_loaded('../../HomeLib-x/f').\np.\nq.\nr.\n"
    ),
    "HomeLib/e.pl": ":- defines([q/0]).\nq.\n",
    "HomeLib-x/f.pl": ":- defines([f/0]).\n:- ensure_loaded('./f.pl').\nf.\n",
}


# A clause-heavy tree: runs of clauses that hold what a run must not end or
# start a statement inside, `=..`, `0'.`, a quoted `.`, a block comment with
# a `.` and a `'`, a line comment with a `'`, with declarations, a
# `library_directory` clause and one that only starts like it between them,
# and in every third file a byte-order mark.  Each `Bad*` library holds one
# file with a statement that a run cannot end, reported where it stands.
HAZARDS = (
    "p{i}(X, Y) :- X =.. [F|Y], F \\== a.",
    "q{i}(0'., 'x.y', \"s. t\", `u. v`).",
    "/* a.b ' */",
    "% it's {i}",
    "r{i} :- X = 0''', X =.. Y, 'a.b'(Y), Z = 'it''s. ok'.",
    "library_directory( 'lib{i}' ).",
    "library_directory_x({i}).",
    "s{i}([H|T]) :- s{i}(T), H = 0'z. % done.",
)
CONDITIONS = ("swi(_)", "not(swi(_))", "[swi(_),yap(_)]")


def hazards(i: int, count: int) -> str:
    """`count` lines of HAZARDS for file `i`, from its own first one on."""
    return "".join(f"{HAZARDS[(i + k) % len(HAZARDS)].format(i=i)}\n" for k in range(count))


CLAUSE_WORLD = {
    **{
        f"HomeLib/h{i}.pl": ("\ufeff" if i % 3 == 0 else "") + hazards(i, 12)
        + (f":- module( h{i}, [h{i}/1] ).\n" if i % 4 == 0
           else f":- defines( {CONDITIONS[i % 3]}, [h{i}/1] ).\n")
        + f":- requires( [h{(i + 1) % 9}/1] ).\n" + hazards(i, 5) + f"h{i}(0'.).\n"
        for i in range(9)
    },
    "proj/main.pl": ":- requires( [h0/1, h4/1] ).\n:- ensure_loaded(library(h2)).\n"
                    + hazards(99, len(HAZARDS)),
    "BadQuote/a.pl": ":- defines( [a/0] ).\np :- X =.. Y.\nq('abc.\n",
    "BadComment/a.pl": ":- defines( [a/0] ).\np.\n% it's\nq.\n/* r.\n",
    "BadEnd/a.pl": ":- defines( [a/0] ).\np :- X =.. Y, q.\nr :- X =.. Y",
    "BadString/a.pl": "\ufeff:- defines( [a/0] ).\np.\n/* a.b ' */\nq(\"x.\n",
}
BAD_LIBS = ("BadQuote", "BadComment", "BadEnd", "BadString")


# File names that discovery must keep apart, in a library and in the
# project: `a/b.pl` sorts before `a-c.pl` by path parts, though not as a
# string, and both define p/0, so `Index.pl`'s order shows it; `..pl` is a
# source while `.pl` and `x.` are not; a hidden directory is walked; a nested
# `Index.pl` is skipped; and `lib.pl` and `libx/` sit beside the project's
# local library `lib/`.  DISCOVERY_LINKS adds, in both, a linked directory,
# which is not entered, a linked file, which is kept, and a dangling link.
DISCOVERY_NAMES = ("a/b.pl", "a-c.pl", "..pl", ".pl", "x.", ".hidden/h.pl", "sub/Index.pl")
DISCOVERY_WORLD = {
    **{f"HomeLib/{rel}": f":- defines([p/0, f{i}/0]).\n" for i, rel in enumerate(DISCOVERY_NAMES)},
    **{f"proj/{rel}": ":- requires([p/0]).\n:- ensure_loaded(library('a-c')).\n"
       for rel in (*DISCOVERY_NAMES, "lib.pl", "libx/y.pl")},
    "proj/main.pl": ":- requires([p/0, f1/0, f5/0, g/0]).\n"
                    ":- ensure_loaded(library(a/b)).\n:- ensure_loaded(library(l)).\n"
                    ":- ensure_loaded(library(linked/b)).\n:- ensure_loaded('.hidden/h').\n",
    "proj/lib/m.pl": ":- defines([g/0]).\n:- ensure_loaded(library(l)).\n",
    "outside.pl": ":- defines([f9/0]).\n",
}
DISCOVERY_LINKS = {"linked": "a", "l.pl": "../outside.pl", "gone.pl": "missing.pl"}


# Home libraries `H` and `H-x` each hold an `a.pl` that `proj/main.pl`
# reaches: export refuses to put both at `lib/a.pl` and names `H`'s first,
# as path parts sort, though `H-x/a.pl` sorts first as a plain string.
CONFLICT_WORLD = {
    "H/a.pl": ":- defines([p/0]).\n",
    "H-x/a.pl": ":- defines([q/0]).\n",
    "proj/main.pl": ":- requires([p/0, q/0]).\n",
}


# A project with a development local library `lib/`, named as export and
# graph take sources: a file next to `lib/`, the directory holding it, that
# directory with a trailing `/`, and the directory with a file inside it.
# `taken/` is an existing destination for SOURCE_FAULTS.
SOURCES_WORLD = {
    "proj/main.pl": ":- requires([p/0, l/0]).\n:- ensure_loaded('sub/b').\n",
    "proj/sub/b.pl": ":- requires([q/0]).\n",
    "proj/notes.txt": "notes\n",
    "proj/lib/Index.pl": "index( l, 0, any, user, l ).\n",
    "proj/lib/l.pl": ":- defines([l/0]).\nl.\n",
    "HomeLib/p.pl": ":- defines([p/0]).\n:- requires([r/0]).\np.\n",
    "HomeLib/q.pl": ":- defines([q/0, r/0]).\nq.\nr.\n",
    "taken/keep.txt": "kept\n",
}
SOURCE_SPELLINGS = (["proj/main.pl"], ["proj"], ["proj/"], ["proj", "proj/main.pl"])
# Two faults per run, so the order of the checks shows: a usage error before
# a missing source, a missing source before a missing library, a missing
# library before an existing destination, a missing source before it too.
SOURCE_FAULTS = (
    ["--ext", ".p/l", "--source", "nope"],
    ["--source", "nope", "--homelib", "Hx"],
    ["--source", "proj", "--homelib", "Hx", "--dest", "taken"],
    ["--source", "nope", "--dest", "taken"],
)


def sources_commands() -> list[dict]:
    """`graph` and `export` (plain and `--copy recursive`) of each of
    SOURCE_SPELLINGS with HomeLib, then each of SOURCE_FAULTS through
    `export` and, if it names no destination, `graph`."""
    found = []
    for spelling in SOURCE_SPELLINGS:
        sources = [arg for source in spelling for arg in ("--source", source)]
        found.append({"argv": ["graph", *sources, "--homelib", "HomeLib"], "writes": None})
        found.extend(
            {"argv": ["export", "--dest", "out", *sources, "--homelib", "HomeLib", *copy],
             "writes": "out"}
            for copy in ([], ["--copy", "recursive"]))
    for fault in SOURCE_FAULTS:
        if "--dest" in fault:  # `taken` must stay for both sides
            found.append({"argv": ["export", *fault], "writes": None})
        else:
            found.append({"argv": ["export", "--dest", "out", *fault], "writes": "out"})
            found.append({"argv": ["graph", *fault], "writes": None})
    return found


# ROADMAP item 1's example: the vendored `H/h.pl` gives m/0, which `S`
# answers in the source tree, so export warns, and under `--strict` stops.
SHADOW_WORLD = {
    "S/Index.pl": "index( m, 0, any, user, s ).\n",
    "S/s.pl": ":- module(s, [m/0]).\nm.\n",
    "H/Index.pl": "index( m, 0, any, user, h ).\nindex( q, 0, any, user, h ).\n",
    "H/h.pl": ":- module(h, [m/0, q/0]).\nm.\nq.\n",
    "proj/e.pl": ":- requires([m/0, q/0]).\n",
}


def discovery_world(workdir: Path) -> None:
    """DISCOVERY_WORLD's files in `workdir`, and DISCOVERY_LINKS in its
    HomeLib and its project."""
    files(workdir, DISCOVERY_WORLD)
    for top in ("HomeLib", "proj"):
        for name, target in DISCOVERY_LINKS.items():
            (workdir / top / name).symlink_to(target)


def relative_world(workdir: Path) -> None:
    """RELATIVE_WORLD's files in `workdir`."""
    files(workdir, RELATIVE_WORLD)


def files(workdir: Path, tree: dict[str, str]) -> None:
    """`tree`'s files in `workdir`."""
    for rel, text in tree.items():
        (workdir / rel).parent.mkdir(parents=True, exist_ok=True)
        (workdir / rel).write_text(text, encoding="utf-8")


def written(path: Path) -> dict[str, str]:
    """A digest of each file at `path`, a file or a directory tree."""
    files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
    return {
        p.relative_to(path.parent).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in files
    }


def work(src: str) -> int:
    """Run the commands read from stdin in the current directory, under `src`;
    write their results to stdout as JSON, leaving the directory as found."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, src)
    from exlibris import cli

    if Path(cli.__file__).resolve().parent != (Path(src) / "exlibris").resolve():
        print(f"compare_outputs: imported exlibris from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    results = []
    for command in json.load(sys.stdin):
        writes = Path(command["writes"]) if command["writes"] else None
        before = writes.read_bytes() if writes is not None and writes.is_file() else None
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(command["argv"])
        files = written(writes) if writes is not None and writes.exists() else {}
        if writes is not None and writes.is_dir():
            shutil.rmtree(writes)
        elif before is not None:
            writes.write_bytes(before)
        elif writes is not None and writes.exists():
            writes.unlink()
        results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                        "files": files})
    json.dump(results, sys.stdout)
    return 0


def run_side(src: Path, workdir: Path, todo: list[dict]) -> list[dict]:
    result = subprocess.run(
        [sys.executable, __file__, "--worker", str(src)],
        cwd=workdir, input=json.dumps(todo), capture_output=True, text=True, check=False,
    )
    if result.returncode != 0:
        raise SystemExit(f"compare_outputs: worker for {src} failed:\n{result.stderr}")
    return json.loads(result.stdout)


def differences(mine: dict, other: dict) -> list[str]:
    """Readable lines for each way two results of one command differ."""
    found = []
    if mine["code"] != other["code"]:
        found.append(f"exit code: {mine['code']} here, {other['code']} in OTHER_SRC")
    for stream in ("stdout", "stderr"):
        if mine[stream] != other[stream]:
            found.append(f"{stream} differs (- OTHER_SRC, + here):")
            diff = difflib.unified_diff(
                other[stream].splitlines(), mine[stream].splitlines(), lineterm="", n=0
            )
            found.extend(f"  {line}" for line in diff if not line.startswith(("---", "+++", "@@")))
    for rel in sorted(set(mine["files"]) | set(other["files"])):
        here, there = mine["files"].get(rel), other["files"].get(rel)
        if here != there:
            state = "missing here" if here is None else (
                "missing in OTHER_SRC" if there is None else "contents differ")
            found.append(f"written file {rel}: {state}")
    return found


def compare(label: str, build: Callable[[Path], None], todo: list[dict], other: Path) -> int:
    """Run `todo` under this tree's `src/` and under `other`, in a directory
    that `build` fills; print each command's differences and return how many
    commands differ."""
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        build(workdir)
        mine = run_side(REPO / "src", workdir, todo)
        theirs = run_side(other, workdir, todo)
    different = 0
    for command, here, there in zip(todo, mine, theirs):
        found = differences(here, there)
        if found:
            different += 1
            print(f"{label}: exlibris {' '.join(command['argv'])}")
            print("\n".join(f"  {line}" for line in found))
    return different


def main() -> int:
    if sys.argv[1:2] == ["--worker"]:
        return work(sys.argv[2])
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(REPO / "bench"))
    import run
    import selfcheck
    import world as worlds

    shapes = {**run.SHAPES, **selfcheck.TINY}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", metavar="OTHER_SRC",
                        help="a source tree holding the exlibris package")
    parser.add_argument("--workloads", default="dense,sparse,cold",
                        help=f"comma-separated, of: {', '.join(shapes)}")
    parser.add_argument("--seeds", default="1")
    args = parser.parse_args()
    other = Path(args.other_src).resolve()
    if not (other / "exlibris" / "cli.py").is_file():
        parser.error(f"no exlibris package under {other}")
    names = args.workloads.split(",")
    unknown = sorted(set(names) - set(shapes))
    if unknown:
        parser.error(f"unknown workloads: {', '.join(unknown)}")

    total = different = 0
    for name in names:
        for seed in (int(s) for s in args.seeds.split(",")):
            world = worlds.generate(shapes[name], seed)
            world.files.update(respelled(world))
            world.files.update(redeclared(world))
            world.files.update(undeclared(world))
            todo = commands(world)
            total += len(todo)
            different += compare(f"{name} seed {seed}", world.materialize, todo, other)
    todo = walks("proj/main.pl", ["--homelib", "HomeLib"]) + mkindexes(["HomeLib"])
    total += len(todo)
    different += compare("tests/data/real", real_world, todo, other)
    todo = walks("proj/main.pl", ["--homelib", "HomeLib", "--homelib", "HomeLib-x"])
    total += len(todo)
    different += compare("relative loads", relative_world, todo, other)
    todo = walks("proj/main.pl", ["--homelib", "HomeLib"]) + mkindexes(["HomeLib", *BAD_LIBS])
    todo += [{"argv": ["graph", "--source", "proj", "--homelib", lib], "writes": None}
             for lib in BAD_LIBS]
    total += len(todo)
    different += compare("clause runs", lambda workdir: files(workdir, CLAUSE_WORLD), todo, other)
    todo = walks("proj/main.pl", ["--homelib", "HomeLib"]) + mkindexes(["HomeLib", "proj"])
    todo.append({"argv": ["export", "--dest", "out", "--source", "proj", "--homelib", "HomeLib",
                          "--copy", "recursive"], "writes": "out"})
    total += len(todo)
    different += compare("discovery", discovery_world, todo, other)
    todo = walks("proj/main.pl", ["--homelib", "H", "--homelib", "H-x"])
    total += len(todo)
    different += compare("conflict", lambda workdir: files(workdir, CONFLICT_WORLD), todo, other)
    todo = sources_commands()
    total += len(todo)
    different += compare("sources", lambda workdir: files(workdir, SOURCES_WORLD), todo, other)
    todo = [{"argv": ["export", "--dest", "out", "--source", "proj", "--syslib", "S",
                      "--homelib", "H", *strict], "writes": "out"} for strict in ([], ["--strict"])]
    total += len(todo)
    different += compare("shadow", lambda workdir: files(workdir, SHADOW_WORLD), todo, other)
    print(f"{total} commands, {different} with differences")
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main())
