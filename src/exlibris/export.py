"""Export planning and application.

An export writes edited entry files and copies what they transitively need into
a fresh destination tree.  Home-library files land inside the destination's
local library directory with their home-relative paths preserved, the local
library's Index.pl is regenerated to cover them, and entry files receive two
edits: their library_directory declarations are dropped and a single
declaration pointing at the local library is inserted on top, while `if_pl`
directives that cannot match any target engine are pruned.
"""

from __future__ import annotations

import posixpath
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .directives import FileFacts
from .engines import PlId, can_match
from .errors import ExlibrisError
from .fsio import write_text
from .index import (
    DEFAULT_EXTENSIONS,
    INDEX_FILENAME,
    IndexEntry,
    find_sources,
    render_index,
)
from .resolve import LibrarySet, UnresolvedRef, canon, closure
from .terms import Compound, Span, render_clause, splice

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
    sources: tuple[Path, ...]
    copy: str = COPY_SELECTIVE
    loclib: str = "lib"
    pls: tuple[PlId, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "dest", Path(self.dest))
        object.__setattr__(self, "sources", tuple(Path(s) for s in self.sources))
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
    if posixpath.isabs(loclib) or loclib.startswith("..") or loclib == ".":
        raise ValueError("loclib must be a relative path inside the destination")
    return loclib


@dataclass(frozen=True)
class CopyItem:
    src: Path
    dest_rel: str


@dataclass(frozen=True)
class RewriteItem:
    """An entry file's edited text, spliced from the text the walk parsed."""

    dest_rel: str
    text: str


@dataclass(frozen=True)
class IndexWrite:
    dest_rel: str
    entries: tuple[IndexEntry, ...]


@dataclass
class ExportReport:
    lines: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    unresolved: tuple[UnresolvedRef, ...] = ()


@dataclass
class ExportPlan:
    dest: Path
    copies: tuple[CopyItem, ...]
    rewrites: tuple[RewriteItem, ...]
    index: IndexWrite | None
    report: ExportReport


@dataclass(frozen=True)
class _SourceSpec:
    path: Path
    base: Path
    is_dir: bool


def _source_specs(sources: Sequence[Path]) -> list[_SourceSpec]:
    specs = []
    for source in sources:
        path = canon(source)
        if path.is_dir():
            specs.append(_SourceSpec(path, path, True))
        elif path.is_file():
            specs.append(_SourceSpec(path, path.parent, False))
        else:
            raise ExportPlanError(f"source does not exist: {source}")
    return specs


def default_loclib_root(sources: Sequence[Path], loclib: str) -> Path | None:
    """The development-side local library: <source base>/<loclib>, if present.

    The loclib option names a path relative to the destination; during
    development the same relative path inside a source directory (or next
    to a source file) is where local-library files already live.
    """
    for spec in _source_specs(sources):
        candidate = spec.base / loclib
        if candidate.is_dir():
            return canon(candidate)
    return None


def _discover_entries(
    specs: Sequence[_SourceSpec], loclib: str, extensions
) -> list[tuple[Path, str]]:
    """Entry files with their destination-relative paths.

    Directory sources contribute every source file within, except files of
    the development local library (those are the resolver's input, not
    entries) and index files.
    """
    entries: list[tuple[Path, str]] = []
    for spec in specs:
        if not spec.is_dir:
            entries.append((spec.path, spec.path.name))
            continue
        loclib_root = spec.base / loclib
        for path in find_sources(spec.path, extensions):
            if not path.is_relative_to(loclib_root):
                entries.append((path, path.relative_to(spec.base).as_posix()))
    return entries


def discover_entries(
    sources: Sequence[Path], loclib: str = "lib", extensions=DEFAULT_EXTENSIONS
) -> list[tuple[Path, str]]:
    """Entry files of the given sources with their destination-relative paths."""
    return _discover_entries(_source_specs(sources), loclib, extensions)


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


def _quoted_atom(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


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
    edits: list[tuple[Span, str]] = [
        (Span(0, 0, 1, 1), f":- library_directory( {_quoted_atom(rel_to_loclib)} ).\n")
    ]
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
    """Compute the copies, rewrites, and index write of one export run.

    Purely a plan: nothing is touched on disk.  Refuses an existing
    destination up front.
    """
    dest = canon(opts.dest)
    if dest.exists():
        raise DestinationExistsError(f"destination must not exist: {opts.dest}")
    specs = _source_specs(opts.sources)
    entries = _discover_entries(specs, opts.loclib, libs.extensions)
    if not entries:
        raise ExportPlanError("no entry files found in the given sources")

    report = ExportReport()
    clo = closure([path for path, _ in entries], libs, opts.pls)
    report.unresolved = clo.unresolved
    for item in clo.unresolved:
        engine = f" under {item.engine}" if item.engine else ""
        report.warnings.append(f"unresolved {item.subject}{engine} (from {item.source})")

    copy_map: dict[str, Path] = {}

    def put(dest_rel: str, src: Path):
        existing = copy_map.get(dest_rel)
        if existing is not None and existing != src:
            raise ExportPlanError(
                f"both {existing} and {src} would be exported as {dest_rel}"
            )
        copy_map[dest_rel] = src

    if opts.copy == COPY_RECURSIVE:
        for spec in specs:
            if spec.is_dir:
                for path in sorted(spec.path.rglob("*")):
                    if path.is_file():
                        put(path.relative_to(spec.base).as_posix(), path)
    for path, dest_rel in entries:
        put(dest_rel, path)

    for src, rel in sorted(clo.library_paths.items()):
        put(f"{opts.loclib}/{rel}{src.suffix}", src)
    for raw in sorted(clo.project_files):
        path = Path(raw)
        spec = next((s for s in specs if path.is_relative_to(s.base)), None)
        if spec is None:
            report.warnings.append(f"referenced file outside the export sources: {raw}")
            continue
        put(path.relative_to(spec.base).as_posix(), path)

    rewrites: dict[str, str] = {}
    for path, dest_rel in entries:
        text, facts = libs.source(path)
        rel_to_loclib = posixpath.relpath(opts.loclib, posixpath.dirname(dest_rel) or ".")
        rewrites[dest_rel] = splice(text, transform_entry(text, facts, rel_to_loclib, opts.pls))
        copy_map.pop(dest_rel, None)  # written by its rewrite alone

    # an entry is kept when `<loclib>/<n>` copies its `<root>/<n>`, n = normpath(field + ext)
    copied = {dest_rel: str(src) for dest_rel, src in copy_map.items()}
    index_entries = tuple(
        e for lib in (libs.loclib, *libs.homelibs) if lib is not None
        for root in [posixpath.join(str(lib.root), "")] for e in lib.index.entries
        if any(copied.get(f"{opts.loclib}/{n}") == root + n
               for ext in libs.extensions for n in [posixpath.normpath(e.file + ext)])
    )
    index = None
    if index_entries:
        index = IndexWrite(f"{opts.loclib}/{INDEX_FILENAME}", index_entries)
        copy_map.pop(index.dest_rel, None)  # a mirrored Index.pl is replaced, not copied

    copies = tuple(CopyItem(src, dest_rel) for dest_rel, src in sorted(copy_map.items()))
    rewrite_items = tuple(RewriteItem(*item) for item in sorted(rewrites.items()))
    return ExportPlan(dest, copies, rewrite_items, index, report)


def apply_plan(plan: ExportPlan) -> ExportReport:
    """Create the destination and perform the planned steps, in order.

    Copies first, then rewrites, then the index write; each destination
    file has one of them.  A failure aborts the remaining steps; completed
    ones stay on disk and are named in the raised error's report.
    """
    if plan.dest.exists():
        raise DestinationExistsError(f"destination must not exist: {plan.dest}")
    report = ExportReport(
        warnings=list(plan.report.warnings), unresolved=plan.report.unresolved
    )

    def target(dest_rel: str) -> Path:
        path = plan.dest / dest_rel
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    try:
        plan.dest.mkdir(parents=True)
        report.lines.append(f"create {plan.dest}")
        for item in plan.copies:
            shutil.copyfile(item.src, target(item.dest_rel))
            report.lines.append(f"copy {item.src} -> {item.dest_rel}")
        for item in plan.rewrites:
            write_text(target(item.dest_rel), item.text)
            report.lines.append(f"rewrite {item.dest_rel}")
        if plan.index is not None:
            write_text(target(plan.index.dest_rel), render_index(plan.index.entries))
            report.lines.append(f"write {plan.index.dest_rel} ({len(plan.index.entries)} entries)")
    except OSError as exc:
        raise ExportApplyError(exc, report) from exc
    return report
