"""Index building, serialization, and parsing."""

from __future__ import annotations

import collections
import contextlib
import itertools
import logging
import os
import random
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import exlibris.directives as directives_module
import exlibris.engines as engines_module
import exlibris.index as index_module
import exlibris.terms as terms_module
import helpers
from helpers import read_index, read_outcome, read_terms
from conftest import WORKED_EXAMPLE, build_worked_example
from exlibris.directives import FunctorRef, read_directives
from exlibris.engines import (
    ALWAYS,
    Constrained,
    Disjunction,
    EngineConditionError,
    Negation,
    parse_if_pls,
    render_cond,
)
from exlibris.errors import ExlibrisError
from exlibris.export import ExportOptions, plan_export, read_sources
from exlibris.index import (
    INDEX_HEADER,
    IndexEntry,
    LibraryIndex,
    mkindex,
    parse_index,
    render_index,
    term_to_row,
    write_index,
)
from exlibris.resolve import Library, LibrarySet
from exlibris.terms import (
    OPERATOR_ATOMS,
    QUOTED_ATOM,
    UNQUOTED_ATOM,
    Atom,
    Compound,
    atom_text,
    canonical_argument,
    read_term,
    render_clause,
    split_statements,
)

SEEDS = st.integers(min_value=0, max_value=2**32)


def write(root: Path, rel: str, text: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


class TestMkindex:
    def test_home_library_regenerates_published_entries(self, tmp_path):
        build_worked_example(tmp_path)
        index = mkindex(tmp_path / "HomeLib")
        assert render_index(index.rows) == (
            "% generated by exlibris mkindex\n"
            "index( flatten, 2, swi(_), built_in, 'compat/swi/built_ins' ).\n"
            "index( flatten, 2, not(swi(_)), user, 'list/flatten' ).\n"
            "index( member, 2, swi(_), built_in, 'compat/swi/built_ins' ).\n"
        )

    def test_module_source(self, tmp_path):
        write(tmp_path, "lists.pl", ":- module(lists, [member/2, append/3]).\n")
        index = mkindex(tmp_path)
        assert index.entries == (
            IndexEntry(FunctorRef("append", 3), ALWAYS, "lists", "lists"),
            IndexEntry(FunctorRef("member", 2), ALWAYS, "lists", "lists"),
        )

    def test_empty_directory(self, tmp_path):
        assert mkindex(tmp_path).entries == ()

    def test_module_beats_defines(self, tmp_path):
        write(
            tmp_path,
            "both.pl",
            ":- module(m, [a/1]).\n:- defines([b/2]).\na(1).\n",
        )
        index = mkindex(tmp_path, clause_fallback=True)
        assert [e.functor for e in index.entries] == [FunctorRef("a", 1)]
        assert index.entries[0].module == "m"

    @pytest.mark.parametrize(
        "text, clause_fallback, facts",
        [
            (":- defines([b/2]).\n:- module(m, [a/1]).\n", False, ["a, 1, any, m"]),
            (":- module(m, [a/1]).\n:- module(n, [b/2]).\n", False, ["a, 1, any, m"]),
            (":- module(M, [a/1]).\n:- module(n, [b/2]).\n", False, ["b, 2, any, n"]),
            (
                ":- defines(swi(_), [b/2]).\n:- defines_module(built_in).\n",
                False,
                ["b, 2, swi(_), built_in"],
            ),
            (
                ":- defines_module(x).\n:- defines([b/2]).\n:- defines_module(y).\n",
                False,
                ["b, 2, any, x"],
            ),
            (":- module(m, []).\n:- defines([b/2]).\na(1).\n", False, []),
            (":- module(m, []).\n:- defines([b/2]).\na(1).\n", True, []),
            (":- defines([]).\na(1).\n", True, []),
            (":- library_directory(x).\na(1).\n", True, ["a, 1, any, user"]),
            (
                "library_directory(x).\nlibrary_directory(Y) :- y(Y).\nlibrary_directory.\n",
                True,
                ["library_directory, 0, any, user", "library_directory, 1, any, user"],
            ),
            (":-(p, q).\na.\n", True, ["a, 0, any, user"]),
            (
                ":- module(m, [digits//1, a/1]).\n:- meta_predicate foldl(3, ?, +, -).\n"
                "digits([D|T]) --> digit(D), digits(T).\n",
                False,
                ["a, 1, any, m", "digits, 3, any, m"],
            ),
        ],
        ids=[
            "defines_before_module",
            "first_module_counts",
            "non_atom_module_skipped",
            "defines_module_after_defines",
            "first_defines_module_counts",
            "empty_module_blocks_defines",
            "empty_module_blocks_clause_fallback",
            "empty_defines_blocks_clause_fallback",
            "library_directory_directive_has_no_head",
            "library_directory_clauses",
            "a_statement_starting_with_the_neck_is_a_directive",
            "grammar_rule_export_and_meta_predicate",
        ],
    )
    def test_what_a_file_provides(self, tmp_path, text, clause_fallback, facts):
        write(tmp_path, "f.pl", text)
        index = mkindex(tmp_path, clause_fallback=clause_fallback)
        assert render_index(index.rows) == "".join(
            f"{line}\n" for line in [INDEX_HEADER, *(f"index( {fact}, f )." for fact in facts)]
        )

    def test_clause_fallback_off_by_default(self, tmp_path):
        write(tmp_path, "plain.pl", "p(1).\np(2).\nq :- p(1).\n")
        assert mkindex(tmp_path).entries == ()

    def test_clause_fallback_when_enabled(self, tmp_path):
        write(tmp_path, "plain.pl", "p(1).\np(2).\nq :- p(1).\n")
        index = mkindex(tmp_path, clause_fallback=True)
        assert index.entries == (
            IndexEntry(FunctorRef("p", 1), ALWAYS, "user", "plain"),
            IndexEntry(FunctorRef("q", 0), ALWAYS, "user", "plain"),
        )

    def test_index_file_itself_skipped(self, tmp_path):
        write(tmp_path, "Index.pl", "index( f, 1, any, user, f ).\n")
        write(tmp_path, "f.pl", ":- defines([f/1]).\n")
        index = mkindex(tmp_path)
        assert [e.functor for e in index.entries] == [FunctorRef("f", 1)]

    def test_no_subdirs(self, tmp_path):
        write(tmp_path, "top.pl", ":- defines([t/0]).\n")
        write(tmp_path, "sub/inner.pl", ":- defines([i/0]).\n")
        index = mkindex(tmp_path, follow_subdirs=False)
        assert [e.functor for e in index.entries] == [FunctorRef("t", 0)]

    def test_sorted_by_name_arity_then_discovery(self, tmp_path):
        write(tmp_path, "a.pl", ":- defines(swi(_), [z/1, m/2]).\n")
        write(tmp_path, "b.pl", ":- defines(yap(_), [m/2, m/1]).\n")
        index = mkindex(tmp_path)
        assert [(e.functor, e.file) for e in index.entries] == [
            (FunctorRef("m", 1), "b"),
            (FunctorRef("m", 2), "a"),
            (FunctorRef("m", 2), "b"),
            (FunctorRef("z", 1), "a"),
        ]

    def test_deterministic_bytes(self, tmp_path):
        build_worked_example(tmp_path)
        first = render_index(mkindex(tmp_path / "HomeLib").rows)
        second = render_index(mkindex(tmp_path / "HomeLib").rows)
        assert first == second

    def test_probes_no_path_beyond_the_scan(self, tmp_path, monkeypatch):
        for i in range(3):
            write(tmp_path, f"f{i}.pl", "".join(f":- defines(p{i}{j}/1).\n" for j in range(4)))
        paths = len(list(tmp_path.rglob("*")))
        probes = []
        is_file = Path.is_file
        monkeypatch.setattr(Path, "is_file", lambda path: probes.append(path) or is_file(path))
        assert len(mkindex(tmp_path).entries) == 12
        assert len(probes) <= paths

    def test_discovery_order_and_file_set(self, tmp_path):
        """Every source defines p/0, so the facts' file fields list the
        sources in discovery order: sorted by path parts (`a/b` before
        `a-c`), suffixes taken as `PurePath.suffix` takes them (`..pl` has
        one, `.pl` and `x.` have none), hidden directories walked, linked
        directories not entered, linked files kept, dangling links, other
        suffixes and a nested `Index.pl` dropped."""
        root = tmp_path / "lib"
        for rel in ("a/b.pl", "a-c.pl", "..pl", ".pl", "x.", ".hidden/h.pl", "real/r.pl",
                    "d.pl/e.pl", "sub/Index.pl", "notes.txt", "Index.pl"):
            write(root, rel, ":- defines([p/0]).\n")
        write(tmp_path, "outside.pl", ":- defines([p/0]).\n")
        (root / "linkdir").symlink_to(root / "real", target_is_directory=True)
        (root / "l.pl").symlink_to(tmp_path / "outside.pl")
        (root / "gone.pl").symlink_to(root / "missing.pl")

        def files(**options) -> list[str]:
            return [row[4] for row in mkindex(root, **options).rows]

        assert files() == [".", ".hidden/h", "a/b", "a-c", "d.pl/e", "l", "real/r"]
        assert files(follow_subdirs=False) == [".", "a-c", "l"]

    def test_an_entry_names_a_file_inside_its_library(self):
        with pytest.raises(ValueError, match="inside the library: '../x'"):
            IndexEntry(FunctorRef("p", 0), ALWAYS, "user", "../x")

    def test_every_entry_names_an_existing_file(self, tmp_path):
        build_worked_example(tmp_path)
        index = mkindex(tmp_path / "HomeLib")
        for entry in index.entries:
            assert (index.root / (entry.file + ".pl")).is_file()


def unreadable(monkeypatch, directory: Path) -> None:
    """`os.scandir` fails on `directory` with PermissionError, as it does
    for a directory its caller may not read."""
    scandir = os.scandir

    def listing(path):
        if os.path.abspath(path) == str(directory):
            raise PermissionError(13, "Permission denied", path)
        return scandir(path)

    monkeypatch.setattr(index_module.os, "scandir", listing)


class TestUnreadableDirectory:
    """A directory discovery may not list: skipped below the top, and an
    error at the top under `--no-subdirs`."""

    def test_mkindex_skips_an_unreadable_subdirectory(self, tmp_path, monkeypatch):
        write(tmp_path, "a.pl", ":- defines([p/0]).\n")
        write(tmp_path, "sub/b.pl", ":- defines([q/0]).\n")
        unreadable(monkeypatch, tmp_path / "sub")
        assert [row[4] for row in mkindex(tmp_path).rows] == ["a"]

    def test_recursive_copy_skips_an_unreadable_subdirectory(self, tmp_path, monkeypatch):
        write(tmp_path, "proj/m.pl", "m.\n")
        write(tmp_path, "proj/notes.txt", "notes\n")
        write(tmp_path, "proj/sub/b.pl", "b.\n")
        write(tmp_path, "proj/sub/c.txt", "c\n")
        unreadable(monkeypatch, tmp_path / "proj" / "sub")
        opts = ExportOptions(
            dest=tmp_path / "out", sources=read_sources([tmp_path / "proj"]), copy="recursive")
        plan = plan_export(opts, LibrarySet.build())
        assert [f.dest_rel for f in plan.files] == ["notes.txt", "m.pl"]

    def test_no_subdirs_of_an_unreadable_directory_is_exit_2(
        self, tmp_path, run_cli, monkeypatch
    ):
        write(tmp_path, "lib/a.pl", ":- defines([p/0]).\n")
        unreadable(monkeypatch, tmp_path / "lib")
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli("mkindex", "lib", "--no-subdirs")
        assert (code, out) == (2, "")
        assert err == "exlibris: [Errno 13] Permission denied: 'lib/'\n"
        assert not (tmp_path / "lib" / "Index.pl").exists()


class TestWriteIndex:
    def test_local_library_single_fact(self, tmp_path):
        index = LibraryIndex(
            tmp_path,
            (IndexEntry(FunctorRef("maplist", 3), ALWAYS, "user", "meta/maplist"),),
        )
        path = write_index(index)
        assert path.read_text(encoding="utf-8") == (
            "% generated by exlibris mkindex\n"
            "index( maplist, 3, any, user, 'meta/maplist' ).\n"
        )

    def test_empty_index_is_header_only(self, tmp_path):
        path = write_index(LibraryIndex(tmp_path, ()))
        assert path.read_text(encoding="utf-8") == "% generated by exlibris mkindex\n"

    def test_write_then_parse_round_trip(self, tmp_path):
        build_worked_example(tmp_path)
        index = mkindex(tmp_path / "HomeLib")
        path = write_index(index)
        assert parse_index(path).entries == index.entries


    def test_each_condition_object_is_rendered_once(self, tmp_path, monkeypatch):
        """A defines group shares one condition: it is written once, and the
        bytes are those of writing it once per entry."""
        deep = "not(" * 600 + "swi(_)" + ")" * 600
        functors = ", ".join(f"p{i}/1" for i in range(1500))
        write(tmp_path, "a.pl", f":- defines({deep}, [{functors}]).\n")
        write(tmp_path, "b.pl", ":- defines(swi(_), [q/1, r/2]).\n:- defines(any, [s/0]).\n")
        index = mkindex(tmp_path)
        entries = index.entries
        expected = "% generated by exlibris mkindex\n" + "".join(
            f"index( {e.functor.name}, {e.functor.arity}, {render_cond(e.cond, 999)}, "
            f"user, {e.file} ).\n"
            for e in entries
        )
        rendered = []
        monkeypatch.setattr(
            index_module, "render_cond",
            lambda cond, max_prec=1200: rendered.append(cond) or render_cond(cond, max_prec),
        )
        assert render_index(index.rows) == expected
        assert len(rendered) == len({id(e.cond) for e in entries}) == 3


class TestParseIndex:
    def test_system_snippet(self, tmp_path):
        path = write(tmp_path, "Index.pl", WORKED_EXAMPLE["SysLib/Index.pl"])
        index = parse_index(path)
        (entry,) = index.entries
        assert entry.functor == FunctorRef("member", 2)
        assert entry.module == "lists"
        assert entry.file == "lists"

    def test_home_snippet_order_preserved(self, tmp_path):
        path = write(tmp_path, "Index.pl", WORKED_EXAMPLE["HomeLib/Index.pl"])
        index = parse_index(path)
        assert [(e.functor.name, e.module, e.file) for e in index.entries] == [
            ("flatten", "built_in", "compat/swi/built_ins"),
            ("flatten", "user", "list/flatten"),
            ("member", "built_in", "compat/swi/built_ins"),
        ]

    def test_comments_only(self, tmp_path):
        path = write(tmp_path, "Index.pl", "% just a comment\n% another\n")
        assert parse_index(path).entries == ()

    def test_non_index_facts_warn_and_skip(self, tmp_path, caplog):
        path = write(
            tmp_path,
            "Index.pl",
            "other(1).\nindex( f, 1, any, user, f ).\n",
        )
        with caplog.at_level(logging.WARNING):
            index = parse_index(path)
        assert [e.functor for e in index.entries] == [FunctorRef("f", 1)]
        assert any("ignoring" in rec.message for rec in caplog.records)

    def test_non_index_term_warning_names_file_and_line(self, tmp_path, caplog):
        path = write(tmp_path, "Index.pl", "% header\nindex( p, x, any, user, a ).\n")
        with caplog.at_level(logging.WARNING, logger="exlibris.index"):
            assert parse_index(path).entries == ()
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}:2: ignoring non-index term"
        ]

    def test_absolute_or_backslash_file_fields_skipped(self, tmp_path, caplog):
        path = write(
            tmp_path,
            "Index.pl",
            "index( f, 1, any, user, '/abs/path' ).\n"
            "index( g, 1, any, user, 'a\\\\b' ).\n"
            "index( h, 1, any, user, ok ).\n",
        )
        with caplog.at_level(logging.WARNING):
            index = parse_index(path)
        assert [e.functor.name for e in index.entries] == ["h"]


def entry_from_seed(seed: int) -> IndexEntry:
    rng = random.Random(seed)
    name = rng.choice(
        ("f", "g", "has space", "x_1", "lists", "-", "it's", "[]", "Up", "/*", "a\\b", "x\ty")
    )
    functor = FunctorRef(name, rng.randrange(0, 6))
    cond = helpers.gen_cond(rng, 2)[1]
    module = rng.choice(("user", "built_in", "lists", "my mod"))
    file = rng.choice(("lists", "meta/maplist", "a/b/c", "plain"))
    return IndexEntry(functor, cond, module, file)


def rendered(entries) -> str:
    """The index text `render_index` writes for `entries`."""
    return render_index(LibraryIndex(Path(), entries).rows)


def entry_of_term(term) -> IndexEntry | None:
    """The entry of the row `term_to_row` decodes a term to, or None."""
    row = term_to_row(term)
    return None if row is None else IndexEntry(FunctorRef(row[0], row[1]), *row[2:])


def general_reader(text: str, path: str | None = None) -> tuple:
    """The reference reader: every statement parsed by `read_terms`, each
    decoded by `term_to_row`, then a warning for each that names no entry.
    Gives the entries and warnings, or the error and no warning."""
    try:
        statements = read_terms(text, path)
    except ExlibrisError as exc:
        return "error", str(exc), []
    entries, warnings = [], []
    for statement in statements:
        line = statement.span.line
        try:
            entry = entry_of_term(statement.term)
        except (EngineConditionError, ValueError) as exc:
            warnings.append(f"{path}:{line}: skipping index fact: {exc}")
            continue
        if entry is None:
            warnings.append(f"{path}:{line}: ignoring non-index term")
            continue
        entries.append(entry)
    return tuple(entries), warnings


def outcome(read) -> tuple:
    """What a call of `read` gives, in `general_reader`'s form: the entries
    and the warnings logged, or the error and the warnings logged."""
    warnings = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: warnings.append(record.getMessage())
    logger = logging.getLogger("exlibris.index")
    logger.addHandler(handler)
    try:
        return read(), warnings
    except ExlibrisError as exc:
        return "error", str(exc), warnings
    finally:
        logger.removeHandler(handler)


@contextlib.contextmanager
def counting_parses():
    """Patch the index reader's statement parser to record the (start, end)
    of each statement it is given."""
    parsed = []
    parse_statements = index_module.parse_statements

    def counting(text, statements, path=None):
        statements = list(statements)
        parsed.extend((start, end) for start, end, _ in statements)
        return parse_statements(text, statements, path)

    with mock.patch.object(index_module, "parse_statements", counting):
        yield parsed


class TestRoundTripProperty:
    @given(st.lists(SEEDS, max_size=50))
    def test_parse_of_render_is_identity(self, seeds):
        entries = tuple(entry_from_seed(seed) for seed in seeds)
        text = rendered(entries)
        assert general_reader(text) == outcome(lambda: read_index(text)) == (entries, [])

    @given(st.lists(SEEDS, max_size=50))
    def test_each_line_is_the_canonical_clause_of_its_term(self, seeds):
        lines = rendered(entry_from_seed(seed) for seed in seeds).splitlines()[1:]
        assert lines == [render_clause(read_term(line)) for line in lines]

    @given(st.lists(SEEDS, max_size=50))
    def test_rendered_index_is_read_without_the_general_reader(self, seeds):
        entries = tuple(entry_from_seed(seed) for seed in seeds)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "Index.pl"
            path.write_text(rendered(entries), encoding="utf-8")
            with counting_parses() as parsed:
                read = parse_index(path).entries
        assert parsed == []
        assert read == entries
        # entries with the same condition text share one condition object
        shared = {}
        for entry in read:
            assert shared.setdefault(render_cond(entry.cond, 999), entry.cond) is entry.cond


def index_line(entry: IndexEntry, **fields: str) -> str:
    """The line `render_index` writes for `entry`, with some fields' text replaced."""
    text = {
        "name": atom_text(entry.functor.name),
        "arity": str(entry.functor.arity),
        "cond": render_cond(entry.cond, 999),
        "module": atom_text(entry.module),
        "file": atom_text(entry.file),
    }
    text.update(fields)
    return "index( {name}, {arity}, {cond}, {module}, {file} ).".format(**text)


# Ways to respell one rendered line: the fact pattern still takes a few (a
# trailing comment, a CR before the line end) and leaves the rest to the
# parser, some only after its match (a condition or name written otherwise).
MUTATIONS = {
    "doubled spaces": lambda e: index_line(e).replace(", ", ",  "),
    "missing spaces": lambda e: index_line(e).replace("( ", "(").replace(" )", ")"),
    "trailing comment": lambda e: index_line(e) + " % c",
    "block comment over lines": lambda e: "/* " + index_line(e) + "\n*/",
    "crlf": lambda e: index_line(e) + "\r",
    "other fact": lambda e: "other(1).\n" + index_line(e),
    "arity with leading zero": lambda e: index_line(e, arity=f"0{e.functor.arity}"),
    "character code arity": lambda e: index_line(e, arity="0'c"),
    "doubled quote in atom": lambda e: index_line(e, name="'0''c'"),
    "hex escape in atom": lambda e: index_line(e, module="'\\x41\\'"),
    "comment opener name": lambda e: index_line(e, name="/*"),
    "absolute file": lambda e: index_line(e, file="'/abs'"),
    "dot-dot file": lambda e: index_line(e, file="'a/../b'"),
    "undecodable condition": lambda e: index_line(e, cond="foo(bar)"),
    "named variable in condition": lambda e: index_line(e, cond="swi(V)"),
    "non-canonical condition": lambda e: index_line(e, cond="all"),
    "quoted plain name": lambda e: index_line(e, name="'f'"),
}


ANY_NAMES = st.text(alphabet="az_AZ09 +-*/\\<>=:.,!;[]'%()\t\n\u00e9\u00b2", min_size=1, max_size=4)
# Pieces of index text: facts as `render_index` writes them, mutated facts,
# comments, quotes, line ends and blanks, joined by layout or by nothing.
PIECES = st.one_of(
    st.builds(lambda seed: index_line(entry_from_seed(seed)), SEEDS),
    st.builds(
        lambda mutation, seed: MUTATIONS[mutation](entry_from_seed(seed)),
        st.sampled_from(sorted(MUTATIONS)),
        SEEDS,
    ),
    st.sampled_from([
        "", " ", "\t", "\r", "\n", "% c", "%", "/* c */", "/*", "*/", "'", '"', "`",
        "'a. b'", "0'a", "0'", ".", "other(1).", "junk(", "index( p ).",
        "index( f, 1, any, user, f )", "index( f, 1, any, user, f ).",
    ]),
)
INDEX_TEXTS = st.lists(
    st.tuples(PIECES, st.sampled_from(["\n", "\r\n", " ", "\t", ""]))
).map(lambda pieces: "".join(piece + sep for piece, sep in pieces))


# A fact spaced as `render_index` writes it, with atoms as the tokenizer reads
# them, an arity of at most 9 digits with no leading zero, and a condition text.
ATOM = f"{UNQUOTED_ATOM}|{QUOTED_ATOM}"
SPACED_FACT = re.compile(
    rf"index\( (?:{ATOM}), (?:0|[1-9][0-9]{{0,8}}), ([^ ]+), (?:{ATOM}), (?:{ATOM}) \)\."
)


def left_to_the_parser(text: str) -> list[tuple[int, int]]:
    """The (start, end) of each statement of a text that reads and is not a
    `SPACED_FACT` whose condition `canonical_argument` reads and
    `parse_if_pls` decodes, and whose file field is a library name."""
    left = []
    for (start, end, _), statement in zip(split_statements(text), read_terms(text)):
        try:
            entry = entry_of_term(statement.term)
        except (EngineConditionError, ValueError):
            entry = None
        fact = SPACED_FACT.fullmatch(text, start, end)
        if entry is None or fact is None or canonical_argument(fact[1]) is None:
            left.append((start, end))
    return left


class TestLineReaderAgreesWithGeneralReader:
    """`read_index` gives the entries, warnings or error that the reference
    reader gives, and parses exactly the statements the fact pattern leaves."""

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_mutated_line(self, mutation, tmp_path):
        path = tmp_path / "Index.pl"
        for seed in range(25):
            rng = random.Random(seed)
            entries = [entry_from_seed(rng.randrange(2**32)) for _ in range(rng.randrange(1, 6))]
            lines = [INDEX_HEADER, *map(index_line, entries)]
            at = rng.randrange(len(entries))
            lines[at + 1] = MUTATIONS[mutation](entries[at])
            text = "\n".join(lines) + "\n"
            path.write_text(text, encoding="utf-8")
            with counting_parses() as parsed:
                read = outcome(lambda: parse_index(path).entries)
            assert read == general_reader(text, str(path))
            if read[0] != "error":
                assert parsed == left_to_the_parser(text)

    @settings(max_examples=300)
    @given(INDEX_TEXTS)
    def test_any_text(self, text):
        with counting_parses() as parsed:
            read = outcome(lambda: read_index(text, "Index.pl"))
        assert read == general_reader(text, "Index.pl")
        if read[0] != "error":
            assert parsed == left_to_the_parser(text)

    @pytest.mark.parametrize(
        "layout",
        [
            lambda lines: "\r\n".join(lines) + "\r\n",
            lambda lines: "".join(f"{line} % c\n" for line in lines),
            lambda lines: "".join(f"  \t{line}\n" for line in lines),
            lambda lines: " ".join(lines) + "\n",
            lambda lines: "".join(f"/* c */{line}%c\n\n" for line in lines),
        ],
        ids=["crlf", "trailing_comment", "indented", "on_one_line", "block_comment_before"],
    )
    def test_respaced_canonical_facts_parse_nothing(self, layout):
        entries = [entry_from_seed(seed) for seed in range(20)]
        text = f"{INDEX_HEADER}\n" + layout([index_line(entry) for entry in entries])
        with counting_parses() as parsed:
            assert read_index(text) == tuple(entries)
        assert parsed == []

    @given(st.lists(st.tuples(ANY_NAMES, ANY_NAMES, SEEDS), max_size=8))
    def test_any_rendered_name_reads_as_the_general_reader_reads_it(self, rows):
        entries = tuple(
            IndexEntry(FunctorRef(name, 1), helpers.gen_cond(random.Random(seed), 2)[1], module, "f")
            for name, module, seed in rows
        )
        text = rendered(entries)
        # every form `atom_text` writes is taken without a parse
        with counting_parses() as parsed:
            assert read_index(text) == general_reader(text)[0] == entries
        assert parsed == []

    def test_comments_and_blank_lines_are_skipped(self):
        entry = entry_from_seed(7)
        text = f"% a\n\n{index_line(entry)}\n%\n{index_line(entry)}"
        assert read_index(text) == (entry, entry)
        assert read_index("") == read_index("% only\n") == ()

    def test_non_ascii_unquoted_names_are_read_line_by_line(self):
        text = "".join(
            f"index( {name}, 1, any, user, a ).\n" for name in ("p\u00e9", "p\u00b2", "a\u00df")
        )
        with counting_parses() as parsed:
            assert read_index(text) == general_reader(text)[0]
        assert parsed == []


# Engine names that are operator atoms, which `render_cond` writes bracketed
OPERATOR_ENGINES = sorted(a for a in OPERATOR_ATOMS if a.isidentifier())
# A pair condition named by one, alone, negated or as a list element
OPERATOR_NAMED = st.builds(
    lambda name, version, op, wrap, seed: wrap(
        Constrained(name, ((version, op),)), helpers.gen_cond(random.Random(seed), 1)[1]
    ),
    st.sampled_from(OPERATOR_ENGINES),
    st.lists(st.integers(0, 99), min_size=1, max_size=3).map(tuple),
    st.sampled_from(("=", "\\=", "<", "=<", ">", ">=")),
    st.sampled_from([
        lambda pair, other: pair,
        lambda pair, other: Negation(pair),
        lambda pair, other: Disjunction((other, pair)),
    ]),
    SEEDS,
)


class TestCanonicalArgument:
    """`canonical_argument` reads every condition `render_cond` writes, so each
    fact `mkindex` writes stays on the fact pattern, and reads no text that
    reads otherwise inside an argument list."""

    @settings(max_examples=500)
    @given(st.one_of(st.builds(lambda seed: helpers.gen_cond(random.Random(seed), 3)[1], SEEDS),
                     OPERATOR_NAMED))
    def test_every_written_condition_is_read_back(self, cond):
        text = render_cond(cond, 999)
        assert render_cond(parse_if_pls(canonical_argument(text)), 999) == text

    @pytest.mark.parametrize("text", ["swi,[(1,(=))]", "a,b"])
    def test_a_text_that_reads_otherwise_as_an_argument_is_not_read(self, text):
        assert canonical_argument(text) is None

    def test_a_bracketed_pair_and_all_are_read(self):
        assert canonical_argument("(a,b)") == Compound(",", (Atom("a"), Atom("b")))
        assert canonical_argument("all") == Atom("all")

    def test_an_unbracketed_pair_condition_is_left_to_the_parser(self):
        text = "index( p, 1, swi,[(1,(=))], user, f ).\n"
        with counting_parses() as parsed:
            assert outcome(lambda: read_index(text, "Index.pl")) == (
                (), ["Index.pl:1: ignoring non-index term"]
            )
        assert parsed == [(0, len(text) - 1)]


def generated_index(facts: int) -> str:
    """An index text of `facts` canonical facts: fact i is for f<i % 3000>,
    of arity i % 2, in file d<i % 7>/m<i % 1300>, so each functor has 3 or
    4 facts and each file several."""
    conds = ("any", "swi(_)", "not(swi(_))", "[sicstus(3:_),yap(_)]")
    return "".join(
        [f"{INDEX_HEADER}\n"]
        + [f"index( f{i % 3000}, {i % 2}, {conds[i % 4]}, user, 'd{i % 7}/m{i % 1300}' ).\n"
           for i in range(facts)]
    )


# A home library's sources, and the index `mkindex` writes for them; the
# facts of s/0 and t/0 name file a as `all` and `'./a'` in `HOME_INDEX`.
HOME_SOURCES = {
    "a.pl": ":- defines([p/1, s/0, t/0]).\n:- defines(swi(_), [q/0]).\np(1).\nq.\ns.\nt.\n",
    "b.pl": ":- defines([r/0]).\nr.\n",
}
HOME_MKINDEX = f"""{INDEX_HEADER}
index( p, 1, any, user, a ).
index( q, 0, swi(_), user, a ).
index( r, 0, any, user, b ).
index( s, 0, any, user, a ).
index( t, 0, any, user, a ).
"""
HOME_INDEX = generated_index(10_000) + (
    "index( p, 1, any, user, a ).\n"
    "index( q, 0, swi(_), user, a ).\n"
    "index( r, 0, any, user, b ).\n"
    "index( s, 0, all, user, a ).\n"
    "index( t, 0, any, user, './a' ).\n"
)


def count_built_entries(monkeypatch) -> list[IndexEntry]:
    """The list every `IndexEntry` built from now on is appended to."""
    built = []
    check = IndexEntry.__post_init__

    def counting(entry):
        built.append(entry)
        check(entry)

    monkeypatch.setattr(IndexEntry, "__post_init__", counting)
    return built


class TestEntriesFollowWhatIsAsked:
    """An index fact is a row from reader to writer: no command builds an
    `IndexEntry`, and every warning and error still comes at load time."""

    @pytest.mark.parametrize("index_text", [HOME_INDEX, None], ids=["index_file", "on_the_fly"])
    def test_no_command_builds_an_entry(self, tmp_path, monkeypatch, run_cli, index_text):
        home = tmp_path / "HomeLib"
        for rel, text in HOME_SOURCES.items():
            write(home, rel, text)
        if index_text is not None:
            write(home, "Index.pl", index_text)
        write(tmp_path, "proj/main.pl", ":- requires( [p/1, q/0, s/0, t/0] ).\n")
        monkeypatch.chdir(tmp_path)
        entries = read_index(index_text or HOME_MKINDEX)
        rows = [(e.functor.name, e.functor.arity, e.cond, e.module, e.file) for e in entries]
        kept = rendered(e for e in entries if e.file in ("a", "./a"))  # the facts of file a
        built = count_built_entries(monkeypatch)

        index = Library.load("home", home).index
        asked = [FunctorRef(*key) for key in (("f7", 1), ("f2998", 0), ("f7", 0), ("s", 0),
                                              ("t", 0), ("q", 0))]
        for functor in asked + asked:
            assert list(index.lookup(functor)) == [
                row for row in rows if row[:2] == (functor.name, functor.arity)
            ]
        home_args = ("--homelib", "HomeLib")
        code, _, err = run_cli("graph", "--source", "proj", *home_args)
        assert (code, err) == (0, "")
        assert run_cli("trace", "proj/main.pl", "--pl", "swi:9", *home_args) == (0, (
            "p/1: load home a\n"
            "q/0: load home a (already loaded)\n"
            "s/0: load home a (already loaded)\n"
            "t/0: load home a (already loaded)\n"
        ), "")
        code, _, err = run_cli("export", "--dest", "out", "--source", "proj", *home_args,
                               "--pl", "swi:9", "--pl", "yap:6", "--pl", "sicstus:4")
        assert (code, err) == (0, "".join(
            f"warning: unresolved q/0 under {pl} (from {tmp_path / 'proj' / 'main.pl'})\n"
            for pl in ("sicstus(4)", "yap(6)")
        ))
        assert (tmp_path / "out" / "lib" / "Index.pl").read_text(encoding="utf-8") == kept
        assert run_cli("mkindex", "HomeLib") == (0, "wrote HomeLib/Index.pl (5 entries)\n", "")
        assert (home / "Index.pl").read_text(encoding="utf-8") == HOME_MKINDEX
        assert built == []

    def test_lookups_build_only_the_asked_functors_entries(self, tmp_path, monkeypatch):
        text = generated_index(10_000)
        everything = read_index(text)
        path = write(tmp_path, "Index.pl", text)
        built = count_built_entries(monkeypatch)
        index = parse_index(path)
        asked = [FunctorRef("f7", 1), FunctorRef("f2998", 0), FunctorRef("f7", 0)]
        for functor in asked + asked:  # a second lookup gives the same rows
            assert list(index.lookup(functor)) == [
                (e.functor.name, e.functor.arity, e.cond, e.module, e.file)
                for e in everything if e.functor == functor
            ]
        assert built == []

    def test_export_builds_only_the_kept_files_entries(self, tmp_path, monkeypatch):
        text = generated_index(10_000) + (
            "index( p, 1, any, user, a ).\n"
            "index( q, 0, swi(_), user, a ).\n"
            "index( r, 0, any, user, b ).\n"
        )
        home = tmp_path / "HomeLib"
        write(home, "Index.pl", text)
        write(home, "a.pl", "p(1).\nq.\n")
        write(home, "b.pl", "r.\n")
        entry = write(tmp_path, "proj/main.pl", ":- requires( [p/1] ).\n")
        kept = rendered(e for e in read_index(text) if e.file == "a")
        built = count_built_entries(monkeypatch)
        opts = ExportOptions(dest=tmp_path / "out", sources=read_sources([entry]))
        plan = plan_export(opts, LibrarySet.build((), (home,)))
        assert {f.dest_rel: f.content for f in plan.files}["lib/Index.pl"] == kept
        assert built == []

    def test_warnings_come_at_load_in_file_order(self, tmp_path, caplog):
        path = write(
            tmp_path,
            "Index.pl",
            "index( f, 1, any, user, '../x' ).\n"
            "index( g, 1, any, user, ok ).\n"
            "note( not_an_index_fact ).\n",
        )
        with caplog.at_level(logging.WARNING, logger="exlibris.index"):
            library = Library.load("home", tmp_path)
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}:1: skipping index fact: index file fields are relative, "
            "/-separated paths inside the library: '../x'",
            f"{path}:3: ignoring non-index term",
        ]
        caplog.clear()
        assert list(library.index.lookup(FunctorRef("g", 1))) == [("g", 1, ALWAYS, "user", "ok")]
        assert caplog.records == []

    def test_unterminated_quote_stops_a_trace_that_looks_nothing_up(self, tmp_path, run_cli):
        write(tmp_path, "HomeLib/Index.pl", "index( f, 1, any, user, 'a ).\n")
        entry = write(tmp_path, "proj/main.pl", "main.\n")
        code, out, err = run_cli(
            "trace", str(entry), "--pl", "swi:9", "--homelib", str(tmp_path / "HomeLib")
        )
        assert (code, out) == (2, "")
        index = tmp_path / "HomeLib" / "Index.pl"
        assert err == f"exlibris: {index}:1:25: unterminated quoted atom\n"

    def test_an_arity_too_long_for_an_integer_is_a_located_error(self, tmp_path, run_cli):
        """The fact pattern takes an arity of at most 9 digits; a longer one
        is left to the parser, which reports it where it stands."""
        index = write(tmp_path, "H/Index.pl", f"index( p, {'1' * 5000}, any, user, a ).\n")
        write(tmp_path, "proj/main.pl", ":- requires( [p/0] ).\n")
        code, out, err = run_cli(
            "graph", "--source", str(tmp_path / "proj"), "--homelib", str(tmp_path / "H")
        )
        assert (code, out) == (2, "")
        assert err == f"exlibris: {index}:1:11: integer of 5000 digits is too long\n"


REAL_HOMELIB = Path(__file__).resolve().parent / "data" / "real" / "HomeLib"
DECLARATION_LINE = re.compile(r"^:- (defines|module|requires)\(", re.MULTILINE)
REQUIRES_LINE = re.compile(r"^:- requires\( (.*) \)\.$", re.MULTILINE)
INDEX_FACT = re.compile(r"^index\( (\w+), (\d+), (.*), \w+, '(.*)' \)\.$", re.MULTILINE)


@contextlib.contextmanager
def counting_taken():
    """Patch the declaration decoder to record each declaration it gives."""
    taken = []
    decode = directives_module._decoded

    def counting(m, conds):
        declared = decode(m, conds)
        taken.append(declared)
        return declared

    with mock.patch.object(directives_module, "_decoded", counting):
        yield taken


class TestDeclarationPattern:
    """`read_directives` decodes a canonical `defines` or `module` declaration
    from its pattern match, with the terms, spans, facts and errors of the
    parse-only reader (`helpers.parsed_directives`)."""

    def agree(self, files: dict[str, str]) -> list:
        """Assert both readers agree on each file; the terms the pattern gave."""
        with counting_taken() as taken:
            for path, text in files.items():
                expected = read_outcome(helpers.parsed_directives, text, path)
                assert read_outcome(read_directives, text, path) == expected, (path, text)
        return [declared for declared in taken if declared is not None]

    def test_the_real_corpus(self):
        """Each of its library files and its entry file: every `defines`,
        `module` and `requires` line is taken by the pattern."""
        paths = sorted(REAL_HOMELIB.rglob("*.pl")) + [REAL_HOMELIB.parent / "proj" / "main.pl"]
        files = {str(p): p.read_text(encoding="utf-8") for p in paths}
        taken = self.agree(files)
        assert len(taken) == sum(len(DECLARATION_LINE.findall(text)) for text in files.values()) == 11

    @pytest.mark.parametrize("respelled", [False, True], ids=["canonical", "respelled"])
    def test_generated_worlds(self, respelled):
        """Each file of a `helpers.gen_world` world, a library file declaring
        each fact its `Index.pl` gives it, as generated libraries spell a
        `defines` or by turns in each of `helpers.DECLARATION_SPELLINGS`,
        which also spell its `requires` lines."""
        spellings = helpers.DECLARATION_SPELLINGS
        turns = itertools.cycle(spellings if respelled else spellings[:1])
        files = {}
        for seed in range(100):
            world = helpers.gen_world(random.Random(seed))
            for rel, text in world.files.items():
                lib = rel.split("/")[0]
                facts = INDEX_FACT.findall(world.files.get(f"{lib}/Index.pl", ""))
                declared = "".join(
                    next(turns).format("defines", f"{cond}, [{name}/{arity}]") + "\n"
                    for name, arity, cond, file in facts if f"{lib}/{file}.pl" == rel
                )
                text = REQUIRES_LINE.sub(lambda m: next(turns).format("requires", m[1]), text)
                files[f"{seed}/{rel}"] = declared + text
        taken = self.agree(files)
        assert sum(declared.name == "requires" for declared in taken) > 100

    def test_generated_declarations(self):
        files = {f"{seed}.pl": helpers.gen_declarations(random.Random(seed)) for seed in range(400)}
        taken = self.agree(files)
        kinds = collections.Counter(declared.name for declared in taken)
        assert min(kinds[name] for name in ("defines", "module", "requires")) > 20  # of each, many

    # Each `requires` spelling, whether the pattern takes it, and what both
    # readers give for it otherwise.
    REQUIRES = {
        "canonical": (":- requires( [p/1, q_1/0, r2/12] ).", True),
        "compact": (":- requires([sum_list/2]).", True),
        "empty": (":- requires( [] ).", True),
        "with_condition": (":- requires( swi(_), [p/1] ).", False),
        "grammar_rule": (":- requires( [p//1] ).", False),
        "quoted": (":- requires( ['q x'/1] ).", False),
        "operator_word": (":- requires( [not/1, dynamic/0] ).", False),
        "malformed": (":- requires([q]).", False),
    }

    @pytest.mark.parametrize("statement, by_pattern", REQUIRES.values(), ids=REQUIRES)
    def test_requires_spellings(self, statement, by_pattern):
        taken = self.agree({"f.pl": f"p.\n{statement}\nq.\n"})
        assert len(taken) == by_pattern

    def test_a_malformed_requires_is_the_parsers_error(self):
        outcome = read_outcome(read_directives, ":- requires( [p/1] ).\n:- requires([q]).\n", "f.pl")
        assert outcome == ("error", "f.pl:2: requires expects name/arity terms, got q")

    CANONICAL = {
        "a.pl": ":- defines( [p0/2] ).\n:- defines( swi(_), [p1/2, p2/2] ).\np0(a, [b]).\n",
        "b.pl": ":- defines( not(swi(_)), [p3/2] ).\n:- defines( swi(_), [p4/2] ).\np3 :- p4.\n",
        "sub/c.pl": ":- module( c, [c/1] ).\n:- defines([ignored/1]).\nc(1).\n",
        "d.pl": ":- module(d, [d/0, e/1]).\n:- defines(not(swi(_)), [f/3]).\n",
    }
    CONDITIONS = ["not(swi(_))", "swi(_)"]

    def test_mkindex_tokenizes_no_declaration(self, tmp_path, monkeypatch):
        for rel, text in self.CANONICAL.items():
            write(tmp_path, rel, text)
        tokenized = []
        tokenizer = terms_module._tokenize

        def tokenizing(text, path, pos=0, endpos=None):
            tokenized.append(text[pos:endpos])
            return tokenizer(text, path, pos, endpos)

        monkeypatch.setattr(terms_module, "_tokenize", tokenizing)
        index = mkindex(tmp_path)
        assert [f"{row[0]}/{row[1]} {row[4]}" for row in index.rows] == [
            "c/1 sub/c", "d/0 d", "e/1 d", "p0/2 a", "p1/2 a", "p2/2 a", "p3/2 b", "p4/2 b",
        ]
        assert tokenized  # each condition text, read once
        assert [s for s in tokenized if re.match(r":-\s*(defines|module)\b", s)] == []

    WALKED = {
        "H/Index.pl": "index( p, 0, any, user, a ).\nindex( q, 0, any, user, b ).\n"
                      "index( r, 1, any, user, b ).\n",
        "H/a.pl": ":- requires( [q/0] ).\n:-requires([r/1]).\np.\n",
        "H/b.pl": ":- defines( [q/0, r/1] ).\n:- requires([]).\nq.\nr(1).\n",
        "proj/e.pl": ":- requires([p/0]).\n",
    }

    @pytest.mark.parametrize("command", [
        ("graph", "--source", "proj", "--homelib", "H"),
        ("trace", "proj/e.pl", "--pl", "swi:5.0.7", "--homelib", "H"),
    ], ids=["graph", "trace"])
    def test_walks_tokenize_no_canonical_requires(self, tmp_path, monkeypatch, run_cli, command):
        """`graph` and `trace` decode each canonical `requires` of a file they
        walk from its pattern match, and still tokenize a respelled one."""
        for rel, text in self.WALKED.items():
            write(tmp_path, rel, text)
        monkeypatch.chdir(tmp_path)
        tokenized = []
        tokenizer = terms_module._tokenize

        def tokenizing(text, path, pos=0, endpos=None):
            tokenized.append(text[pos:endpos])
            return tokenizer(text, path, pos, endpos)

        monkeypatch.setattr(terms_module, "_tokenize", tokenizing)
        code, out, err = run_cli(*command)
        assert (code, err) == (0, "")
        assert "q/0" in out and "r/1" in out
        assert [s for s in tokenized if re.match(r":-\s*requires\b", s)] == [":-requires([r/1])."]

    def test_each_condition_text_is_read_once_per_call(self, tmp_path, monkeypatch):
        for rel, text in self.CANONICAL.items():
            write(tmp_path, rel, text)
        read = []

        def reading(text):
            read.append(text)
            return canonical_argument(text)

        monkeypatch.setattr(engines_module, "canonical_argument", reading)
        first = render_index(mkindex(tmp_path).rows)
        assert sorted(read) == self.CONDITIONS
        # no memo outlives a call: the next one reads each text again
        assert render_index(mkindex(tmp_path).rows) == first
        assert sorted(read) == sorted(self.CONDITIONS * 2)
