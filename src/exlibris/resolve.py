"""Functor resolution and transitive dependency closure.

Required functors resolve against library indexes in a fixed search order:
the local library first, then system libraries, then home libraries; within
a library the first index entry whose condition matches the target engine
wins.  A lookup reads only the asked functor's entries, through each
library's functor table (`LibraryIndex.by_functor`, in index order), so its
cost does not grow with the size of the index.

`trace`, `graph` and `export` share one depth-first walk from the entry
files.  It enters every reached home, local and project file once, never a
system file, and yields its decisions in source order: one per load, and
one per requirement and engine (per candidate when all engines count).
The walks differ in one rule only: `closure` (behind `graph` and `export`)
enters the home or local file that declares a built-in, because that file
is vendored so the exported Index.pl still resolves, while `trace` shows
it as a leaf.  One function decides each (functor, engine) pair, once per
walk, and `resolve_functor` too.  A command's `LibrarySet` probes each
candidate path once, whether an index hit, a `library(...)` reference or
a relative load names it, and holds each file's facts, which on-the-fly
indexing already filled, so a command reads and parses each file once.
"""

from __future__ import annotations

import os
import posixpath
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence, Union

from .directives import FileFacts, FileRef, FunctorRef, Load, Requirement
from .engines import PlId, can_match, matches, render_cond
from .errors import ExlibrisError
from .fsio import is_file
from .index import (
    DEFAULT_EXTENSIONS,
    INDEX_FILENAME,
    BUILT_IN_MODULE,
    LibraryIndex,
    is_library_name,
    mkindex,
    parse_index,
    SourceStore,
    read_source,
)

KIND_SYSTEM = "system"
KIND_LOCAL = "local"
KIND_HOME = "home"
KIND_PROJECT = "project"


def canon(path: Path | str) -> Path:
    """Absolute lexical form; no symlink resolution, so comparisons stay lexical."""
    return Path(os.path.abspath(os.fspath(path)))


@dataclass(frozen=True)
class Library:
    kind: str
    root: Path
    index: LibraryIndex

    @classmethod
    def load(cls, kind: str, root: Path | str, extensions=DEFAULT_EXTENSIONS) -> "Library":
        """Use the on-disk Index.pl when present, otherwise index on the fly."""
        root = canon(root)
        index_path = root / INDEX_FILENAME
        if index_path.is_file():
            index = parse_index(index_path)
        else:
            index = mkindex(root, extensions=extensions)
        return cls(kind, root, index)


@dataclass(frozen=True)
class LibrarySet:
    """One command's libraries, in search order, its source store and its
    probes.  Neither is refreshed: build a new set after source files change."""

    syslibs: tuple[Library, ...] = ()
    homelibs: tuple[Library, ...] = ()
    loclib: Library | None = None
    extensions: tuple[str, ...] = DEFAULT_EXTENSIONS
    # each file is read and parsed once per command
    sources: SourceStore = field(default_factory=dict, init=False, repr=False, compare=False)
    # path -> whether it is a file, probed once per command
    probes: dict[Path, bool] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        roots = sorted(lib.root for lib in self.ordered())  # a root sorts just before its subdirs
        if any(inner.is_relative_to(outer) for outer, inner in zip(roots, roots[1:])):
            raise ExlibrisError("library roots must be disjoint")
        for lib in self.ordered():
            self.sources.update(lib.index.sources)

    def source(self, path: Path) -> tuple[str, FileFacts]:
        """A file's text and facts, read and parsed on the first request."""
        if path not in self.sources:
            self.sources[path] = read_source(path)
        return self.sources[path]

    def is_file(self, path: Path) -> bool:
        """`fsio.is_file`, probed on the first request."""
        if path not in self.probes:
            self.probes[path] = is_file(path)
        return self.probes[path]

    def source_path(self, root: Path, rel_file: str) -> Path | None:
        """The file an extensionless index file field names: the first of
        this set's extensions that is a file, or None."""
        for ext in self.extensions:
            candidate = root / (rel_file + ext)
            if self.is_file(candidate):
                return candidate
        return None

    def ordered(self) -> list[Library]:
        libs = []
        if self.loclib is not None:
            libs.append(self.loclib)
        libs.extend(self.syslibs)
        libs.extend(self.homelibs)
        return libs

    @classmethod
    def build(
        cls,
        syslibs: Sequence[Path | str] = (),
        homelibs: Sequence[Path | str] = (),
        loclib: Path | str | None = None,
        extensions: Sequence[str] = DEFAULT_EXTENSIONS,
    ) -> "LibrarySet":
        extensions = tuple(extensions)
        return cls(
            syslibs=tuple(Library.load(KIND_SYSTEM, p, extensions) for p in syslibs),
            homelibs=tuple(Library.load(KIND_HOME, p, extensions) for p in homelibs),
            loclib=Library.load(KIND_LOCAL, loclib, extensions) if loclib else None,
            extensions=extensions,
        )


@dataclass(frozen=True)
class BuiltIn:
    """No load needed; `file` is where the declaration lives."""

    kind: str
    root: Path
    file: str


@dataclass(frozen=True)
class LoadFile:
    kind: str
    root: Path
    file: str


@dataclass(frozen=True)
class Unresolved:
    pass


ResolvedTarget = Union[BuiltIn, LoadFile, Unresolved]
UNRESOLVED = Unresolved()


@dataclass(frozen=True)
class UnresolvedRef:
    """A functor or file reference nothing could satisfy."""

    source: str
    subject: str
    engine: PlId | None


@dataclass(frozen=True)
class DepEdge:
    src: str
    dst: str
    label: str


@dataclass
class DepClosure:
    resolution: dict[tuple[FunctorRef, PlId | None], tuple[ResolvedTarget, ...]]
    home_files: frozenset[tuple[str, str]]  # (home root, relative file)
    local_files: frozenset[str]
    project_files: frozenset[str]  # absolute paths of reached non-library files
    library_paths: dict[Path, str]  # on-disk home and local file -> relative file
    unresolved: tuple[UnresolvedRef, ...]
    edges: tuple[DepEdge, ...]


class _File(NamedTuple):
    """A file the walk reaches; `lib` and `rel` are None for project files."""

    kind: str
    lib: Library | None
    path: Path
    rel: str | None


def _library_file(lib: Library, path: Path) -> _File:
    """A file of `lib`, named by its path under the root however it was spelled:
    `relative_to(lib.root).with_suffix("")`, without building paths, as each hit pays it."""
    rel = "/".join(path.parts[len(lib.root.parts):])
    return _File(lib.kind, lib, path, rel[: len(rel) - len(path.suffix)])


LOAD, BUILT_IN, SKIP, UNRESOLVED_FUNCTOR, MISSING = (
    "load", "built-in", "skip", "unresolved", "missing"
)


def _decide(
    functor: FunctorRef, engine: PlId | None, libs: LibrarySet
) -> tuple[list[tuple[str, str, _File | None]], tuple[ResolvedTarget, ...]]:
    """A requirement's index hits in search order, as (verdict, label, file
    or None), and their targets; a missing file or no hit is unresolved.

    For a concrete engine only the first matching entry.  For engine None
    every entry that `matches` does not rule out for all engines (extra
    candidates only ever widen an export), up to the first that holds for
    every engine, since nothing later can win for any engine.
    """
    unresolved = (UNRESOLVED_FUNCTOR, str(functor), None)
    hits, resolved = [], []
    for lib in libs.ordered():
        for entry in lib.index.by_functor.get(functor, ()):
            holds = matches(entry.cond, engine)
            if holds is False:
                continue
            path = libs.source_path(lib.root, entry.file)
            if path is None:
                hits.append(unresolved)
                resolved.append(UNRESOLVED)
            else:
                built_in = entry.module == BUILT_IN_MODULE
                label = f"{functor} {render_cond(entry.cond)}" + (" built-in" if built_in else "")
                file = _library_file(lib, path)
                hits.append((BUILT_IN if built_in else LOAD, label, file))
                resolved.append((BuiltIn if built_in else LoadFile)(lib.kind, lib.root, file.rel))
            if holds:
                return hits, tuple(resolved)
    return (hits, tuple(resolved)) if hits else ([unresolved], (UNRESOLVED,))


def resolve_functor(functor: FunctorRef, engine: PlId, libs: LibrarySet) -> ResolvedTarget:
    """First matching index entry in search order, or Unresolved."""
    return _decide(functor, engine, libs)[1][0]


def resolve_file_ref(ref: FileRef, base_dir: Path, libs: LibrarySet) -> _File | None:
    """Locate a file reference on disk.

    Library aliases search the library roots in resolution order; relative
    refs resolve against the referring file's directory and are then
    classified by which library root, if any, contains them.  Returns the
    file found, or None; a library alias that `is_library_name` rejects
    names no file.
    """
    if ref.kind == "library":
        if not is_library_name(ref.path):
            return None
        for lib in libs.ordered():
            path = libs.source_path(lib.root, ref.path)
            if path is not None:
                return _library_file(lib, path)
        return None
    head, name = posixpath.split(ref.path)  # as for an index field, name + ext is not normalised
    head = canon(base_dir / head)
    path = head / name  # as written, only if its last segment has a suffix
    if not (Path(name).suffix and libs.is_file(path)):
        path = libs.source_path(head, name)
    if path is None:
        return None
    for lib in libs.ordered():
        if path.is_relative_to(lib.root):
            return _library_file(lib, path)
    return _File(KIND_PROJECT, None, path, None)


@dataclass(frozen=True)
class _Step:
    """One decision on a directive of `src`; loads have engine None.

    `seen`: the walk entered `file` before.  `resolved`: a requirement's
    whole index-scan outcome.
    """

    depth: int
    src: _File
    subject: FunctorRef | FileRef
    engine: PlId | None
    verdict: str
    label: str
    file: _File | None = None
    seen: bool = False
    resolved: tuple[ResolvedTarget, ...] = ()


def _walk(
    entries: Sequence[Path | str],
    libs: LibrarySet,
    targets: tuple[PlId, ...] | None,
    enter_built_ins: bool,
) -> Iterator[_Step]:
    """Depth-first decisions from the entry files, on an explicit stack.

    Requirements are decided per target engine, or once when targets is
    None; loads are followed when their guard can match a target, may_load
    references always.  Files are entered once each, system files never,
    built-in declaration files only with `enter_built_ins`.  Each
    (functor, engine) pair is looked up once; `seen` is still judged per
    step.
    """
    engines = (None,) if targets is None else targets
    entered: set[Path] = set()
    decided: dict[tuple[FunctorRef, PlId | None], tuple] = {}  # (functor, engine) -> _decide

    def visit(file: _File, depth: int) -> Iterator[_Step]:
        _, facts = libs.source(file.path)
        for directive in facts.deps:
            if isinstance(directive, Requirement):
                functor = directive.functor
                for engine in engines:
                    key = (functor, engine)
                    if key not in decided:
                        decided[key] = _decide(functor, engine, libs)
                    hits, resolved = decided[key]
                    for verdict, label, hit in hits:
                        yield _Step(depth, file, functor, engine, verdict, label, hit,
                                    hit is not None and hit.path in entered, resolved)
                continue
            ref = directive.ref
            label = render_cond(directive.guard) if isinstance(directive, Load) else "may_load"
            if isinstance(directive, Load) and not can_match(directive.guard, targets):
                yield _Step(depth, file, ref, None, SKIP, label)
                continue
            hit = resolve_file_ref(ref, file.path.parent, libs)
            if hit is None:
                yield _Step(depth, file, ref, None, MISSING, str(ref))
            else:
                yield _Step(depth, file, ref, None, LOAD, label, hit, hit.path in entered)

    roots = list(dict.fromkeys(canon(raw) for raw in entries))
    entered.update(roots)
    stack = [visit(_File(KIND_PROJECT, None, path, None), 0) for path in reversed(roots)]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            continue
        yield step
        reached = step.file
        if reached is not None and not step.seen and reached.kind != KIND_SYSTEM and (
            step.verdict == LOAD or enter_built_ins
        ):
            entered.add(reached.path)
            stack.append(visit(reached, step.depth + 1))


def closure(
    entries: Sequence[Path | str],
    libs: LibrarySet,
    targets: Sequence[PlId] | None = None,
) -> DepClosure:
    """Transitive dependency closure from the given entry files.

    With concrete target engines every required functor is resolved per
    engine; with targets=None resolution considers all engines at once.
    Guarded loads are followed when their guard can match a target;
    may_load references are followed unconditionally.  System files are
    recorded but never vendored nor walked; home and local files that
    declare built-ins are vendored and walked.  `library_paths` names the
    file on disk behind each home and local file, the one export copies.
    """
    resolution: dict[tuple[FunctorRef, PlId | None], tuple[ResolvedTarget, ...]] = {}
    reached: dict[Path, _File] = {}
    unresolved: set[UnresolvedRef] = set()
    edges: set[DepEdge] = set()
    # a library file's name in edges and warnings: `kind:rel`, or `home2:rel`... for
    # the second and later library of a kind, so that distinct files stay distinct
    names = {lib.root: lib.kind for lib in libs.ordered()}
    for group in (libs.syslibs, libs.homelibs):
        names.update((lib.root, f"{lib.kind}{n}") for n, lib in enumerate(group[1:], 2))

    def show(file: _File) -> str:
        return f"{names[file.lib.root]}:{file.rel}" if file.lib is not None else str(file.path)

    engines = None if targets is None else tuple(targets)
    for step in _walk(entries, libs, engines, enter_built_ins=True):
        src = show(step.src)
        if step.resolved:
            resolution[(step.subject, step.engine)] = step.resolved
        if step.verdict in (UNRESOLVED_FUNCTOR, MISSING):
            unresolved.add(UnresolvedRef(src, str(step.subject), step.engine))
            edges.add(DepEdge(src, "unresolved", str(step.subject)))
        elif step.file is not None:
            edges.add(DepEdge(src, show(step.file), step.label))
            reached[step.file.path] = step.file

    files = reached.values()
    return DepClosure(
        resolution=resolution,
        home_files=frozenset((str(f.lib.root), f.rel) for f in files if f.kind == KIND_HOME),
        local_files=frozenset(f.rel for f in files if f.kind == KIND_LOCAL),
        project_files=frozenset(str(f.path) for f in files if f.kind == KIND_PROJECT),
        library_paths={f.path: f.rel for f in files if f.kind in (KIND_HOME, KIND_LOCAL)},
        unresolved=tuple(sorted(unresolved, key=lambda u: (u.source, u.subject, str(u.engine)))),
        edges=tuple(sorted(edges, key=lambda e: (e.src, e.dst, e.label))),
    )


def trace(entry: Path | str, engine: PlId, libs: LibrarySet) -> str:
    """Depth-first load report for one entry under one engine.

    One decision per line: load, built-in, skip on a failed guard,
    unresolved, or missing.  Revisited files are noted once and not
    re-entered.  The format is stable for golden comparisons.
    """
    base = canon(entry).parent
    lines: list[str] = []
    for step in _walk([entry], libs, (engine,), enter_built_ins=False):
        head = f"{'  ' * step.depth}{step.subject}:"
        reached = step.file
        if step.verdict == SKIP:
            lines.append(f"{head} skip (guard {step.label} failed)")
        elif reached is None:
            lines.append(f"{head} {step.verdict}")
        elif step.verdict == BUILT_IN:
            lines.append(f"{head} built-in ({reached.kind} {reached.rel})")
        else:
            where = f"{reached.kind} {reached.rel}" if reached.lib else (
                f"file {os.path.relpath(reached.path, base)}"
            )
            lines.append(f"{head} load {where}" + (" (already loaded)" if step.seen else ""))
    return "\n".join(lines) + "\n"
