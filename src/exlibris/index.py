"""Index.pl generation, serialization, and parsing.

An index file maps predicates to the library file that defines them, one
`index/5` fact per line: name, arity, engine condition, module, and the
file path relative to the library root without extension.  The module
value `built_in` marks predicates that need no load on matching engines;
the fact's file field still records where that declaration lives.  This
module owns the line format in both directions: `render_index` writes
each fact as text, and `read_rendered` reads those lines back.

A file made only of the lines `render_index` writes, plus `%` comments and
blank lines, is read line by line: one regex match per line, and each
distinct condition text decoded once, so entries with the same condition
text share one condition object.  Any other file is read by the general
reader (`parse_index_text`, which decodes each term with `term_to_entry`),
with the same entries and warnings, only slower.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from .directives import FileFacts, FunctorRef, extract
from .engines import ALWAYS, EngineConditionError, IfPls, parse_if_pls, render_cond
from .errors import ExlibrisError
from .fsio import read_text, write_text
from .terms import (
    Atom,
    Compound,
    Integer,
    QUOTED_ATOM,
    Term,
    TermSyntaxError,
    UNQUOTED_ATOM,
    atom_text,
    read_directives,
    read_term,
    read_terms,
    unquote_atom,
)

logger = logging.getLogger(__name__)

INDEX_FILENAME = "Index.pl"
INDEX_HEADER = "% generated by exlibris mkindex"
BUILT_IN_MODULE = "built_in"
DEFAULT_EXTENSIONS = (".pl",)


@dataclass(frozen=True)
class IndexEntry:
    functor: FunctorRef
    cond: IfPls
    module: str
    file: str  # '/'-separated, relative to the library root, no extension

    def __post_init__(self):
        if not is_library_name(self.file):
            raise ValueError(
                "index file fields are relative, /-separated paths inside the library: "
                f"{self.file!r}"
            )


def is_library_name(name: str) -> bool:
    """Whether a library-relative name can name a file under its library root:
    non-empty, /-separated, not absolute, and with no `..` segment."""
    return (
        bool(name) and "\\" not in name and not name.startswith("/")
        and ".." not in name.split("/")
    )


# path -> text and facts of each source file a command has read
SourceStore = dict[Path, tuple[str, FileFacts]]


@dataclass(frozen=True)
class LibraryIndex:
    root: Path
    entries: tuple[IndexEntry, ...]
    # the files indexed on the fly, for the command that built the index
    sources: SourceStore = field(default_factory=dict, repr=False, compare=False)

    @cached_property
    def by_functor(self) -> dict[FunctorRef, list[IndexEntry]]:
        """Each functor's entries in index order; built on the first lookup."""
        table: dict[FunctorRef, list[IndexEntry]] = {}
        for entry in self.entries:
            table.setdefault(entry.functor, []).append(entry)
        return table


def find_sources(root: Path, extensions: Sequence[str], follow_subdirs: bool = True) -> list[Path]:
    """The source files under root, sorted: suffix in extensions, not an index."""
    found = root.rglob("*") if follow_subdirs else root.iterdir()
    return sorted(
        p for p in found if p.suffix in extensions and p.name != INDEX_FILENAME and p.is_file()
    )


def read_source(path: Path, clause_heads: bool = False) -> tuple[str, FileFacts]:
    """A source file's text and the facts extracted from its directives; with
    `clause_heads`, every clause is parsed too, for `FileFacts.clause_heads`."""
    text = read_text(path)
    read = read_terms if clause_heads else read_directives
    return text, extract(read(text, str(path)), str(path))


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
    `any`, module `user`).  Output order is a stable sort on (name, arity)
    over discovery order, so an unchanged tree always produces identical
    bytes.
    """
    root = Path(root)
    discovered: list[IndexEntry] = []
    sources: SourceStore = {}
    for source in find_sources(root, extensions, follow_subdirs):
        _, facts = sources[source] = read_source(source, clause_fallback)
        rel_file = source.relative_to(root).with_suffix("").as_posix()
        provides = facts.provides
        if provides is None:
            provides = [(f, ALWAYS, "user") for f in facts.clause_heads] if clause_fallback else ()
        try:
            discovered.extend(IndexEntry(f, cond, module, rel_file) for f, cond, module in provides)
        except ValueError as exc:  # a file name an index fact cannot hold
            raise ExlibrisError(f"{source}: {exc}") from exc
    ordered = sorted(discovered, key=lambda e: (e.functor.name, e.functor.arity))
    return LibraryIndex(root, tuple(ordered), sources)


def term_to_entry(term: Term) -> IndexEntry | None:
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
    return IndexEntry(
        FunctorRef(name.name, arity.value), parse_if_pls(cond), module.name, file.name
    )


def render_index(entries: Iterable[IndexEntry]) -> str:
    """The Index.pl text: the header, then one `index/5` fact per entry.

    Each distinct condition object is written once: a `defines` group's
    entries share one.  The memo is keyed by identity, because hashing a
    deep condition walks all of it, and holds the condition so its id stays
    its own."""
    conds: dict[int, tuple[IfPls, str]] = {}
    lines = [INDEX_HEADER]
    for e in entries:
        if id(e.cond) not in conds:
            conds[id(e.cond)] = e.cond, render_cond(e.cond, 999)
        lines.append(
            f"index( {atom_text(e.functor.name)}, {e.functor.arity}, {conds[id(e.cond)][1]}, "
            f"{atom_text(e.module)}, {atom_text(e.file)} )."
        )
    return "\n".join(lines) + "\n"


# An atom as the tokenizer reads it; `read_rendered` keeps a quoted one only
# if `atom_text` writes it that way.
_ATOM = rf"{UNQUOTED_ATOM}|{QUOTED_ATOM}"
# One fact as `render_index` writes it; the condition holds only characters
# `render_cond` writes, so it has no layout, quote, comment or period.
_INDEX_LINE = re.compile(
    rf"index\( ({_ATOM}), (0|[1-9][0-9]*), ([a-z0-9_:()\[\],=<>\\]+), ({_ATOM}), ({_ATOM}) \)\."
)


def read_rendered(text: str) -> tuple[IndexEntry, ...] | None:
    """The entries of an index text made only of lines `render_index` writes,
    `%` comments and blank lines; None if any other line is present.

    A line counts only if it is exactly the line `render_index` writes for
    the entry read from it, so the general reader would read the same entry
    from it without a warning.  Each distinct quoted atom and condition text
    is decoded once, and entries with the same condition text share one
    condition object.
    """
    conds: dict[str, IfPls] = {}
    quoted: dict[str, str] = {}

    def name(raw: str) -> str:
        if raw[0] != "'":
            return raw
        if raw not in quoted:
            quoted[raw] = unquote_atom(raw)
        return quoted[raw]

    entries = []
    for line in text.split("\n"):
        if not line or line[0] == "%":
            continue
        m = _INDEX_LINE.fullmatch(line)
        if m is None:
            return None
        functor, arity, cond_text, module, file = m.groups()
        try:
            if cond_text not in conds:
                conds[cond_text] = parse_if_pls(read_term(cond_text))
            entries.append(IndexEntry(
                FunctorRef(name(functor), int(arity)), conds[cond_text], name(module), name(file)
            ))
        except (EngineConditionError, TermSyntaxError, ValueError):
            return None
    if any(atom_text(n) != raw for raw, n in quoted.items()) or any(
        render_cond(cond, 999) != raw for raw, cond in conds.items()
    ):
        return None
    return tuple(entries)


def write_index(index: LibraryIndex) -> Path:
    """Write root/Index.pl and return its path."""
    path = index.root / INDEX_FILENAME
    write_text(path, render_index(index.entries))
    return path


def parse_index_text(text: str, root: Path, path: str | None = None) -> LibraryIndex:
    entries = []
    for st in read_terms(text, path):
        try:
            entry = term_to_entry(st.term)
        except (EngineConditionError, ValueError) as exc:
            logger.warning("%s:%d: skipping index fact: %s", path, st.span.line, exc)
            continue
        if entry is None:
            logger.warning("%s:%d: ignoring non-index term", path, st.span.line)
            continue
        entries.append(entry)
    return LibraryIndex(root, tuple(entries))


def parse_index(path: Path | str) -> LibraryIndex:
    """Read an Index.pl file; entry order is preserved verbatim.  A file
    `render_index` could have written is read line by line, any other by
    the general reader."""
    path = Path(path)
    text = read_text(path)
    entries = read_rendered(text)
    if entries is None:
        return parse_index_text(text, path.parent, str(path))
    return LibraryIndex(path.parent, entries)
