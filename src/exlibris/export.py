"""Export planning and application.

An export writes edited entry files and copies what they transitively need into
a fresh destination tree.  Home-library files land inside the destination's
local library directory with their home-relative paths preserved, the local
library's Index.pl is regenerated to cover them, and entry files receive two
edits: their library_directory declarations are dropped and a single
declaration pointing at the local library is inserted on top, while `if_pl`
directives that cannot match any target engine are pruned.  Files are named by
the walk's absolute `str`; a `Path` is built for the destination, library roots
and each planned copy alone.
"""

from __future__ import annotations

import os
import posixpath
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .directives import FileFacts, FunctorRef
from .engines import PlId, can_match
from .errors import ExlibrisError
from .fsio import is_file, write_text
from .index import INDEX_FILENAME, LibraryIndex, find_sources, render_index, suffix
from .resolve import (KIND_LOCAL, KIND_SYSTEM, UNRESOLVED, BuiltIn, Library, LibrarySet,
                      UnresolvedRef, closure, decide)
from .terms import Compound, Span, render_clause, splice, text_start

COPY_SELECTIVE = "selective"
COPY_RECURSIVE = "recursive"


class DestinationExistsError(ExlibrisError):
    pass


class ExportPlanError(ExlibrisError):
    pass


class ExportApplyError(ExlibrisError):
    """An I/O failure mid-apply; the report names the completed steps."""

    def __init__(self, cause: BaseException, report: "ExportReport"):
        self.report = report
        super().__init__(str(cause))


@dataclass(frozen=True)
class ExportOptions:
    dest: Path
    sources: Sequence[tuple[str, str]]  # as `read_sources` gives them
    copy: str = COPY_SELECTIVE
    loclib: str = "lib"
    pls: tuple[PlId, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "dest", Path(self.dest))
        if self.pls is not None:
            object.__setattr__(self, "pls", tuple(self.pls))
        if not self.sources:
            raise ValueError("at least one source is required")
        if self.copy not in (COPY_SELECTIVE, COPY_RECURSIVE):
            raise ValueError(f"copy must be selective or recursive, got {self.copy!r}")
        object.__setattr__(self, "loclib", check_loclib(self.loclib))


def check_loclib(loclib: str) -> str:
    """The normalized loclib option; ValueError unless it names a directory
    below the destination (`.` would put home files over the entry files)."""
    loclib = posixpath.normpath(loclib)
    if posixpath.isabs(loclib) or loclib in (".", "..") or loclib.startswith("../"):
        raise ValueError("loclib must be a relative path inside the destination")
    return loclib


@dataclass(frozen=True)
class PlannedFile:
    """One destination file: a copy of a source `Path`, or `str` text to write."""

    dest_rel: str
    content: Path | str
    line: str  # the report line of its step


@dataclass
class ExportReport:
    lines: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    unresolved: tuple[UnresolvedRef, ...] = ()
    changed: tuple[tuple[FunctorRef, PlId | None], ...] = ()  # keys the export answers otherwise


@dataclass
class ExportPlan:
    dest: Path
    files: tuple[PlannedFile, ...]  # copies, rewrites, then the index, each by destination
    report: ExportReport


def read_sources(sources: Sequence[Path | str]) -> list[tuple[str, str]]:
    """Each source as an absolute (path, base), read once per command: a directory
    source is its base, a file's base is its directory, and a base ends in `/`."""
    pairs = []
    for source in sources:
        path = os.path.abspath(source)
        if os.path.isdir(path):
            pairs.append((os.path.join(path, ""),) * 2)
        elif is_file(path):
            pairs.append((path, os.path.join(os.path.dirname(path), "")))
        else:
            kind = "is neither a file nor a directory" if os.path.exists(path) else "does not exist"
            raise ExportPlanError(f"source {kind}: {source}")
    return pairs


def default_loclib_root(sources: Sequence[tuple[str, str]], loclib: str) -> Path | None:
    """The development-side local library: <source base>/<loclib>, if present.

    The loclib option names a path relative to the destination; during
    development the same relative path inside a source directory (or next
    to a source file) is where local-library files already live.
    """
    for _, base in sources:
        candidate = os.path.normpath(base + loclib)
        if os.path.isdir(candidate):
            return Path(candidate)
    return None


def discover_entries(
    sources: Sequence[tuple[str, str]], loclib: str, extensions: Sequence[str]
) -> list[tuple[str, str]]:
    """Entry files of the given sources, by absolute path, with their
    destination-relative paths.

    Directory sources contribute every source file within, except files of
    the development local library (those are the resolver's input, not
    entries) and index files.
    """
    entries: list[tuple[str, str]] = []
    for path, base in sources:
        if path != base:
            entries.append((path, path[len(base):]))
            continue
        for found, _ in find_sources(path, extensions):
            if not f"{found[len(base):]}/".startswith(f"{loclib}/"):
                entries.append((found, found[len(base):]))
    return entries


def _deletion_span(text: str, span: Span) -> Span:
    """Extend a whole-line directive's span over its trailing newline.

    Deleting the full line keeps repeated exports byte-stable instead of
    accumulating blank lines.  Directives that share their line with other
    text (a trailing comment, say) keep the plain span.
    """
    if span.col != 1:
        return span
    end = span.end
    while end < len(text) and text[end] in " \t":
        end += 1
    if end < len(text) and text[end] == "\r":
        end += 1
    if end < len(text) and text[end] == "\n":
        return Span(span.start, end + 1, span.line, span.col)
    if end >= len(text):
        return Span(span.start, end, span.line, span.col)
    return span


def transform_entry(
    text: str,
    facts: FileFacts,
    rel_to_loclib: str,
    pls: tuple[PlId, ...] | None,
) -> list[tuple[Span, str]]:
    """The entry-file edit list.

    Every library_directory declaration goes; a declaration of the local
    library's relative path is inserted at the top; `if_pl/2` directives
    whose condition matches no target engine are deleted and `if_pl/3`
    ones are replaced by their else call, preserving behaviour for the
    engines that remain.
    """
    top = text_start(text)
    quoted = rel_to_loclib.replace("\\", "\\\\").replace("'", "\\'")
    edits = [(Span(top, top, 1, 1), f":- library_directory( '{quoted}' ).\n")]
    for span in facts.library_dirs:
        edits.append((_deletion_span(text, span), ""))
    for directive in facts.if_pls:
        if can_match(directive.cond, pls):
            continue
        if directive.else_call is None:
            edits.append((_deletion_span(text, directive.span), ""))
        else:
            replacement = render_clause(Compound(":-", (directive.else_call,)))
            edits.append((directive.span, replacement))
    edits.sort(key=lambda e: (e[0].start, e[0].end))
    return edits


def plan_export(opts: ExportOptions, libs: LibrarySet) -> ExportPlan:
    """Compute the files one export run writes.

    Purely a plan: nothing is touched on disk.  Refuses an existing
    destination up front, and warns where the planned tree would answer a
    requirement otherwise.
    """
    dest = Path(os.path.abspath(opts.dest))
    if dest.exists():
        raise DestinationExistsError(f"destination must not exist: {opts.dest}")
    entries = discover_entries(opts.sources, opts.loclib, libs.extensions)
    if not entries:
        raise ExportPlanError("no entry files found in the given sources")

    report = ExportReport()
    clo = closure([path for path, _ in entries], libs, opts.pls)
    report.unresolved = clo.unresolved
    for item in clo.unresolved:
        engine = f" under {item.engine}" if item.engine else ""
        report.warnings.append(f"unresolved {item.subject}{engine} (from {item.source})")

    copy_map: dict[str, str] = {}  # destination-relative path -> source file

    def put(dest_rel: str, src: str):
        existing = copy_map.get(dest_rel)
        if existing is not None and existing != src:
            raise ExportPlanError(f"both {existing} and {src} would be exported as {dest_rel}")
        copy_map[dest_rel] = src

    if opts.copy == COPY_RECURSIVE:
        for source, base in opts.sources:
            if source == base:
                for path, _ in find_sources(source, None):
                    put(path[len(base):], path)
    for path, dest_rel in entries:
        put(dest_rel, path)

    for src, rel in sorted(clo.library_paths.items(), key=lambda item: item[0].split("/")):
        put(f"{opts.loclib}/{rel}{suffix(src)}", src)
    for path in sorted(clo.project_files):
        base = next((base for _, base in opts.sources if path.startswith(base)), None)
        if base is None:
            report.warnings.append(f"referenced file outside the export sources: {path}")
            continue
        put(path[len(base):], path)

    rewrites: dict[str, str] = {}
    for path, dest_rel in entries:
        text, facts = libs.source(path)
        rel_to_loclib = posixpath.relpath(opts.loclib, posixpath.dirname(dest_rel) or ".")
        rewrites[dest_rel] = splice(text, transform_entry(text, facts, rel_to_loclib, opts.pls))
        copy_map.pop(dest_rel, None)  # written by its rewrite alone

    # a field's facts are kept when `<loclib>/<n>` copies `<root>/<n>`, n = normpath(field + ext)
    index_rows = tuple(
        row for lib in (libs.loclib, *libs.homelibs) if lib is not None
        for root in [posixpath.join(str(lib.root), "")]
        for row in lib.index.rows_of_files(lambda field: any(
            copy_map.get(f"{opts.loclib}/{n}") == root + n
            for ext in libs.extensions for n in [posixpath.normpath(field + ext)]))
    )
    index_rel = f"{opts.loclib}/{INDEX_FILENAME}"
    if index_rows:
        copy_map.pop(index_rel, None)  # a mirrored Index.pl is replaced, not copied
    files = (
        *(PlannedFile(rel, Path(src), f"copy {src} -> {rel}")
          for rel, src in sorted(copy_map.items())),
        *(PlannedFile(rel, text, f"rewrite {rel}") for rel, text in sorted(rewrites.items())),
    )
    if index_rows:
        line = f"write {index_rel} ({len(index_rows)} entries)"
        files += (PlannedFile(index_rel, render_index(index_rows), line),)

    # the planned tree's libraries, in memory, each file placed so `find` probes nothing in dest
    out_lib = dest / opts.loclib
    local = Library(KIND_LOCAL, out_lib, LibraryIndex(out_lib, rows=index_rows))
    exported = LibrarySet(libs.syslibs, (), local, libs.extensions)
    planned = {os.path.join(dest, item.dest_rel) for item in files}
    for written in {f"{out_lib}/{row[4]}{ext}" for row in index_rows for ext in libs.extensions}:
        path = os.path.abspath(written)
        exported.found[written] = exported.placed(path) if path in planned else None

    def kept(a):  # a home or local file is copied with its rows, in their order
        return a if a == UNRESOLVED or a.kind == KIND_SYSTEM else type(a)(
            KIND_LOCAL, out_lib, a.file)

    def worded(answers, of: LibrarySet) -> str:  # each as `trace` words it in `of`
        return " or ".join(dict.fromkeys(
            "unresolved" if a == UNRESOLVED else f"built-in ({of.names[a.root]} {a.file})"
            if isinstance(a, BuiltIn) else f"load {of.names[a.root]} {a.file}" for a in answers))

    # as sets: with no target engine, candidates in another order may change no answer
    for (functor, engine), answers in clo.resolution.items():
        if any(kept(a) is a for a in answers):
            got = decide(functor, engine, exported)[1]
            if set(got) != set(map(kept, answers)):
                under = f" under {engine}" if engine else ""
                report.changed += ((functor, engine),)
                report.warnings.append(f"export changes {functor}{under}: {worded(answers, libs)}"
                                       f" becomes {worded(got, exported)}")
    return ExportPlan(dest, files, report)


def apply_plan(plan: ExportPlan) -> ExportReport:
    """Create the destination and write the planned files, in order.

    A failure aborts the remaining files; those written stay on disk and
    are named in the raised error's report.
    """
    if plan.dest.exists():
        raise DestinationExistsError(f"destination must not exist: {plan.dest}")
    try:
        plan.dest.mkdir(parents=True)
        plan.report.lines.append(f"create {plan.dest}")
        made = {""}  # the destination's directories, each created once
        for item in plan.files:
            if (directory := posixpath.dirname(item.dest_rel)) not in made:
                (plan.dest / directory).mkdir(parents=True, exist_ok=True)
                made.add(directory)
            path = plan.dest / item.dest_rel
            if isinstance(item.content, Path):
                shutil.copyfile(item.content, path)
            else:
                write_text(path, item.content)
            plan.report.lines.append(item.line)
    except OSError as exc:
        raise ExportApplyError(exc, plan.report) from exc
    return plan.report
