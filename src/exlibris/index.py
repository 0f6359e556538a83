"""Index.pl generation, serialization, and parsing.

An index file maps predicates to the library file that defines them, one
`index/5` fact per line: name, arity, engine condition, module, and the
file path relative to the library root without extension.  The module
value `built_in` marks predicates that need no load on matching engines;
the fact's file field still records where that declaration lives.  This
module owns the fact format in both directions: `render_index` writes each
fact as text, and `parse_index` reads an index file, one pattern match per
statement.  A fact spaced as `render_index` writes it is decoded from the
match if `terms.canonical_argument` reads its condition, `parse_if_pls`
decodes it and its file field is a library name; any other statement is
parsed, with the same facts and warnings.
Inside the package a fact is a `Row` from reader to writer; `IndexEntry`
is the value type offered to callers, built only when one asks for it.
`find_sources` lists a library's sources in one `os.scandir` walk, each
named by its path `str` and its library name, with no `Path` per file.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Collection, Iterable, Sequence

from .directives import LIBRARY_DIRECTORY, FileFacts, FunctorRef, clause_head, extract, read_directives
from .engines import ALWAYS, EngineConditionError, IfPls, parse_if_pls, read_cond, render_cond
from .errors import ExlibrisError
from .fsio import read_text, write_text
from .terms import (
    ARGUMENT,
    Atom,
    Compound,
    Integer,
    QUOTED_ATOM,
    Term,
    UNQUOTED_ATOM,
    atom_text,
    matched_statement,
    parse_statements,
    statement_pattern,
    text_start,
    unquote_atom,
)

logger = logging.getLogger(__name__)

INDEX_FILENAME = "Index.pl"
INDEX_HEADER = "% generated by exlibris mkindex"
BUILT_IN_MODULE = "built_in"
DEFAULT_EXTENSIONS = (".pl",)
_BAD_FILE = "index file fields are relative, /-separated paths inside the library: {!r}"


@dataclass(frozen=True)
class IndexEntry:
    functor: FunctorRef
    cond: IfPls
    module: str
    file: str  # '/'-separated, relative to the library root, no extension

    def __post_init__(self):
        if not is_library_name(self.file):
            raise ValueError(_BAD_FILE.format(self.file))


def is_library_name(name: str) -> bool:
    """Whether a library-relative name can name a file under its library root:
    non-empty, /-separated, not absolute, and with no `..` segment."""
    return (
        bool(name) and "\\" not in name and not name.startswith("/")
        and "/../" not in f"/{name}/"
    )


# path -> text and facts of each source file a command has read
SourceStore = dict[str, tuple[str, FileFacts]]


Row = tuple[str, int, IfPls, str, str]  # an index fact: name, arity, condition, module, file


def _entry(row: Row) -> IndexEntry:
    return IndexEntry(FunctorRef(row[0], row[1]), *row[2:])


class LibraryIndex:
    """A library's index facts in index order, held as rows."""

    def __init__(self, root: Path, entries: Iterable[IndexEntry] = (),
                 sources: SourceStore | None = None, *, rows: Sequence[Row] | None = None):
        self.root = root
        self.rows = rows if rows is not None else tuple(
            (e.functor.name, e.functor.arity, e.cond, e.module, e.file) for e in entries
        )
        self.sources = {} if sources is None else sources  # the files indexed on the fly

    @property
    def entries(self) -> tuple[IndexEntry, ...]:
        """The facts as `IndexEntry` values, built on each call."""
        return tuple(map(_entry, self.rows))

    @cached_property
    def _by_functor(self) -> dict[tuple[str, int], list[Row]]:
        table: dict[tuple[str, int], list[Row]] = {}
        for row in self.rows:
            table.setdefault(row[:2], []).append(row)
        return table

    def lookup(self, functor: FunctorRef) -> Sequence[Row]:
        """The functor's rows in index order, from a table built on the first lookup."""
        return self._by_functor.get((functor.name, functor.arity), ())

    def rows_of_files(self, keep: Callable[[str], bool]) -> tuple[Row, ...]:
        """The rows, in index order, of each file field `keep` holds for, asked once."""
        kept = {file: keep(file) for file in dict.fromkeys(row[4] for row in self.rows)}
        return tuple(row for row in self.rows if kept[row[4]])


def suffix(path: str) -> str:
    """The suffix of the path's last segment, by `PurePath.suffix`'s rule."""
    name = path[path.rfind("/") + 1:]
    dot = name.rfind(".")
    return name[dot:] if 0 < dot < len(name) - 1 else ""


def find_sources(
    root: Path | str, extensions: Sequence[str] | None, follow_subdirs: bool = True
) -> list[tuple[str, str]]:
    """Each source under root, sorted by path parts, as `str(root / rel)` and
    its library name, `rel` without its suffix: a file or a link to one, not
    an index, its suffix in extensions; with extensions None, every file.
    Hidden directories are walked, links to directories are not."""
    found, pending = [], [""]  # pending: the directories to list, as `rel/`
    while pending:
        at = pending.pop()
        try:
            listing = os.scandir(os.path.join(root, at))
        except PermissionError:  # as `Path.rglob` skips a directory and `Path.iterdir` raises
            if follow_subdirs:
                continue
            raise
        with listing:
            for entry in listing:
                rel, ext = at + entry.name, suffix(entry.name)
                if entry.is_dir(follow_symlinks=False):
                    if follow_subdirs:
                        pending.append(f"{rel}/")
                elif (extensions is None or ext in extensions and entry.name != INDEX_FILENAME) \
                        and entry.is_file():
                    found.append((rel.split("/"), rel, rel[: len(rel) - len(ext)]))
    prefix = "" if str(root) == "." else os.path.join(root, "")  # as `Path(".") / rel` is `rel`
    return [(prefix + rel, name) for _, rel, name in sorted(found)]


def read_source(
    path: str, skip: Collection[str] = (), conds: dict | None = None, clauses: list | None = None
) -> tuple[str, FileFacts]:
    """A source file's text and its facts, from `read_directives`, which
    leaves the directives `skip` names unparsed, decodes each condition text
    of a declaration it takes by pattern once per `conds` and adds the
    file's clauses, unparsed, to `clauses`."""
    text = read_text(path)
    return text, extract(read_directives(text, path, skip, conds, clauses), path)


def mkindex(
    root: Path | str,
    *,
    follow_subdirs: bool = True,
    clause_fallback: bool = False,
    extensions: Sequence[str] = DEFAULT_EXTENSIONS,
) -> LibraryIndex:
    """Scan a library directory and assemble its index.

    Per file, entries come from what the file provides (`FileFacts.provides`:
    a `module/2`'s exports, else its `defines`), or, when it declares
    neither and `clause_fallback` is on, from its clause heads (condition
    `any`, module `user`).  Only then are a file's clauses parsed, kept
    from the one split its directives were read from and after them, so an
    error in a directive is reported before one in a clause.  Output order
    is a stable sort on (name, arity) over discovery order, so an unchanged
    tree always produces identical bytes.  Two files whose names differ
    only in extension are an error when either provides.
    """
    root = Path(root)
    if not root.is_dir():
        raise ExlibrisError(f"not a library directory: {root}")
    discovered: list[Row] = []
    sources: SourceStore = {}
    named: dict[str, tuple[str, bool]] = {}  # file field -> its first file, whether it provides
    conds: dict[str, IfPls | None] = {}  # condition texts decoded, for this call alone
    for source, rel_file in find_sources(root, extensions, follow_subdirs):
        clauses: list | None = [] if clause_fallback else None
        text, facts = sources[source] = read_source(source, conds=conds, clauses=clauses)
        provides = facts.provides or ()
        if facts.provides is None and clauses is not None:
            # each clause is parsed here unless `extract` has already found it
            # to be a library_directory/1 one
            known = {span.start: LIBRARY_DIRECTORY for span in facts.library_dirs}
            unparsed = [s for s in clauses if s[0] not in known]
            terms = iter(parse_statements(text, unparsed, source))
            heads = dict.fromkeys(known.get(s[0]) or clause_head(next(terms).term) for s in clauses)
            provides = [(f, ALWAYS, "user") for f in heads if f is not None]
        if provides and not is_library_name(rel_file):  # a name an index fact cannot hold
            raise ExlibrisError(f"{source}: {_BAD_FILE.format(rel_file)}")
        first, provided = named.setdefault(rel_file, (source, bool(provides)))
        if first != source and (provided or provides):  # a fact could not tell them apart
            raise ExlibrisError(f"both {first} and {source} would be indexed as {rel_file}")
        discovered.extend((f.name, f.arity, cond, module, rel_file) for f, cond, module in provides)
    return LibraryIndex(root, (), sources, rows=sorted(discovered, key=lambda row: row[:2]))


def term_to_row(term: Term) -> Row | None:
    """The row an `index/5` fact states, or None for any other term.  Raises
    `parse_if_pls`'s errors, then ValueError for a file field that
    `is_library_name` rejects."""
    if not (isinstance(term, Compound) and term.name == "index" and term.arity == 5):
        return None
    name, arity, cond, module, file = term.args
    if not (
        isinstance(name, Atom)
        and isinstance(arity, Integer)
        and arity.value >= 0
        and isinstance(module, Atom)
        and isinstance(file, Atom)
    ):
        return None
    row = name.name, arity.value, parse_if_pls(cond), module.name, file.name
    if not is_library_name(file.name):
        raise ValueError(_BAD_FILE.format(file.name))
    return row


def render_index(rows: Iterable[Row]) -> str:
    """The Index.pl text: the header, then one `index/5` fact per row.

    Each distinct condition object is written once: a `defines` group's
    rows share one.  The memo is keyed by identity, because hashing a
    deep condition walks all of it, and holds the condition so its id stays
    its own."""
    conds: dict[int, tuple[IfPls, str]] = {}
    lines = [INDEX_HEADER]
    for name, arity, cond, module, file in rows:
        if id(cond) not in conds:
            conds[id(cond)] = cond, render_cond(cond, 999)
        lines.append(
            f"index( {atom_text(name)}, {arity}, {conds[id(cond)][1]}, "
            f"{atom_text(module)}, {atom_text(file)} )."
        )
    return "\n".join(lines) + "\n"


# One statement per match: after layout, a fact spaced as `render_index`
# writes it, its atoms as the tokenizer reads them and its arity of at most
# 9 digits, as `terms._ITEM` bounds its own; or else any statement, as the
# splitter finds it.
_ATOM = rf"{UNQUOTED_ATOM}|{QUOTED_ATOM}"
_INDEX_STATEMENT = statement_pattern(
    rf"index\( ({_ATOM}), (0|[1-9][0-9]{{0,8}}), ({ARGUMENT}), ({_ATOM}), ({_ATOM}) \)"
)


def _name(raw: str) -> str:
    """The name of an atom `_ATOM` took."""
    return unquote_atom(raw) if raw[0] == "'" else raw


def _read_rows(text: str, path: str | None) -> list[Row]:
    """The rows of an index text, in file order.  A fact `_INDEX_STATEMENT`
    takes is decoded from its match if `read_cond` decodes its condition text
    and its file field is a library name, each checked once per text, so
    equal condition texts share one object.  Every other statement is parsed
    once the whole text is split, then decoded by `term_to_row`; one that
    states no row is skipped with a warning, logged if the text reads.
    Errors are `split_statements`', then `parse_statements`'."""
    conds: dict[str, IfPls | None] = {}
    files: dict[str, str | None] = {}  # file field -> the library name it writes
    rows: list[Row | None] = []  # None where a parsed statement goes
    parsed = []
    for m in _INDEX_STATEMENT.finditer(text, text_start(text)):
        if m.lastgroup == "fact":
            functor, arity, cond, module, file = m.group(2, 3, 4, 5, 6)
            if cond not in conds:
                conds[cond] = read_cond(cond)
            if file not in files:
                files[file] = _name(file) if is_library_name(_name(file)) else None
            if conds[cond] is not None and files[file] is not None:
                rows.append((_name(functor), int(arity), conds[cond], _name(module), files[file]))
                continue
            statement = m.start("fact"), m.end(), "index"
        else:
            statement = matched_statement(m, text, path)
        if statement:
            rows.append(None)
            parsed.append(statement)
    if not parsed:
        return rows
    read = iter(parse_statements(text, parsed, path))
    out = []
    for row in rows:
        if row is None:
            statement = next(read)
            try:
                row = term_to_row(statement.term)
            except (EngineConditionError, ValueError) as exc:
                logger.warning("%s:%d: skipping index fact: %s", path, statement.span.line, exc)
                continue
            if row is None:
                logger.warning("%s:%d: ignoring non-index term", path, statement.span.line)
                continue
        out.append(row)
    return out


def write_index(index: LibraryIndex) -> Path:
    """Write root/Index.pl and return its path."""
    path = index.root / INDEX_FILENAME
    write_text(path, render_index(index.rows))
    return path


def parse_index(path: Path | str) -> LibraryIndex:
    """Read an Index.pl file's rows by `_read_rows`, warnings and errors included."""
    path = Path(path)
    return LibraryIndex(path.parent, rows=_read_rows(read_text(path), str(path)))
