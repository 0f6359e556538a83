"""Functor resolution and transitive dependency closure.

Required functors resolve against library indexes in a fixed search order:
the local library first, then system libraries, then home libraries; within
a library the first index entry whose condition matches the target engine
wins.

`trace`, `graph` and `export` share one depth-first walk from the entry
files.  It enters every reached home, local and project file once, never a
system file, and yields its decisions in source order: one per load, and
one per requirement and engine (per candidate when all engines count).
The walks differ in one rule only: `closure` (behind `graph` and `export`)
enters the home or local file that declares a built-in, because that file
is vendored so the exported Index.pl still resolves, while `trace` shows
it as a leaf.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence, Union

from .directives import FileRef, FunctorRef, Load, MayLoad, Requirement, extract
from .engines import PlId, always_true, can_match, could_match_any, matches, render_cond
from .errors import ExlibrisError
from .fsio import read_text
from .index import (
    DEFAULT_EXTENSIONS,
    INDEX_FILENAME,
    BUILT_IN_MODULE,
    IndexEntry,
    LibraryIndex,
    mkindex,
    parse_index,
    source_path,
)
from .terms import read_terms

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
    syslibs: tuple[Library, ...] = ()
    homelibs: tuple[Library, ...] = ()
    loclib: Library | None = None
    extensions: tuple[str, ...] = DEFAULT_EXTENSIONS

    def __post_init__(self):
        roots = [lib.root for lib in self.ordered()]
        if len(set(roots)) != len(roots):
            raise ExlibrisError("library roots must be disjoint")

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


def _scan(
    functor: FunctorRef, engine: PlId | None, libs: LibrarySet
) -> Iterator[tuple[Library, IndexEntry]]:
    """Index entries for `functor` in search order.

    For a concrete engine only the first matching entry.  For engine None
    every entry some engine could reach: conditions are judged by
    satisfiability, which over-approximates (extra candidates only ever
    widen an export), and the scan stops after an always-true condition,
    since nothing later can win for any engine.
    """
    for lib in libs.ordered():
        for entry in lib.index.entries:
            if entry.functor != functor:
                continue
            if engine is None:
                if could_match_any(entry.cond):
                    yield lib, entry
                    if always_true(entry.cond):
                        return
            elif matches(entry.cond, engine):
                yield lib, entry
                return


def _hit_target(lib: Library, entry: IndexEntry, extensions) -> tuple[ResolvedTarget, Path]:
    """What an index hit resolves to, and the file it names."""
    path = source_path(lib.root, entry.file, extensions)
    if not path.is_file():
        return UNRESOLVED, path
    if entry.module == BUILT_IN_MODULE:
        return BuiltIn(lib.kind, lib.root, entry.file), path
    return LoadFile(lib.kind, lib.root, entry.file), path


def resolve_functor(functor: FunctorRef, engine: PlId, libs: LibrarySet) -> ResolvedTarget:
    """First matching index entry in search order, or Unresolved."""
    for lib, entry in _scan(functor, engine, libs):
        return _hit_target(lib, entry, libs.extensions)[0]
    return UNRESOLVED


def resolve_file_ref(
    ref: FileRef, base_dir: Path, libs: LibrarySet
) -> tuple[str, Library | None, Path, str | None] | None:
    """Locate a file reference on disk.

    Library aliases search the library roots in resolution order; relative
    refs resolve against the referring file's directory and are then
    classified by which library root, if any, contains them.  Returns
    (kind, library, absolute path, library-relative file) or None.
    """
    if ref.kind == "library":
        for lib in libs.ordered():
            path = source_path(lib.root, ref.path, libs.extensions)
            if path.is_file():
                return lib.kind, lib, path, ref.path
        return None
    raw = canon(base_dir / ref.path)
    candidates = [raw.parent / (raw.name + ext) for ext in libs.extensions]
    if raw.suffix:
        candidates.insert(0, raw)
    for candidate in candidates:
        if not candidate.is_file():
            continue
        for lib in libs.ordered():
            if candidate.is_relative_to(lib.root):
                rel = candidate.relative_to(lib.root).with_suffix("").as_posix()
                return lib.kind, lib, candidate, rel
        return KIND_PROJECT, None, candidate, None
    return None


class _File(NamedTuple):
    """A file the walk reaches; `lib` and `rel` are None for project files."""

    kind: str
    lib: Library | None
    path: Path
    rel: str | None

    @property
    def display(self) -> str:
        return f"{self.kind}:{self.rel}" if self.lib is not None else str(self.path)


LOAD, BUILT_IN, SKIP, UNRESOLVED_FUNCTOR, MISSING = (
    "load", "built-in", "skip", "unresolved", "missing"
)


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


def _directives(path: Path) -> list[Requirement | Load | MayLoad]:
    """A file's requirements, loads and may_loads in source order."""
    text = read_text(path)
    facts = extract(read_terms(text, str(path)), str(path))
    events = [(r.span.start, i, r) for i, r in enumerate(facts.requires)]
    events.extend((l.span.start, i, l) for i, l in enumerate(facts.loads))
    events.extend((m.span.start, i, m) for i, m in enumerate(facts.may_load))
    events.sort(key=lambda e: (e[0], e[1]))
    return [event for _, _, event in events]


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
    built-in declaration files only with `enter_built_ins`.
    """
    engines = (None,) if targets is None else targets
    entered: set[str] = set()

    def decide(file: _File, depth: int) -> Iterator[_Step]:
        for directive in _directives(file.path):
            if isinstance(directive, Requirement):
                functor = directive.functor
                for engine in engines:
                    hits = [
                        (lib, entry, *_hit_target(lib, entry, libs.extensions))
                        for lib, entry in _scan(functor, engine, libs)
                    ]
                    resolved = tuple(hit[2] for hit in hits) or (UNRESOLVED,)
                    if not hits:
                        yield _Step(depth, file, functor, engine, UNRESOLVED_FUNCTOR,
                                    str(functor), resolved=resolved)
                    for lib, entry, target, path in hits:
                        if isinstance(target, Unresolved):
                            yield _Step(depth, file, functor, engine, UNRESOLVED_FUNCTOR,
                                        str(functor), resolved=resolved)
                            continue
                        built_in = isinstance(target, BuiltIn)
                        label = f"{functor} {render_cond(entry.cond)}"
                        yield _Step(depth, file, functor, engine, BUILT_IN if built_in else LOAD,
                                    label + " built-in" if built_in else label,
                                    _File(lib.kind, lib, path, entry.file),
                                    str(path) in entered, resolved)
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
                yield _Step(depth, file, ref, None, LOAD, label, _File(*hit),
                            str(hit[2]) in entered)

    roots = list(dict.fromkeys(canon(raw) for raw in entries))
    entered.update(str(path) for path in roots)
    stack = [decide(_File(KIND_PROJECT, None, path, None), 0) for path in reversed(roots)]
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
            entered.add(str(reached.path))
            stack.append(decide(reached, step.depth + 1))


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
    home_files: set[tuple[str, str]] = set()
    local_files: set[str] = set()
    project_files: set[str] = set()
    library_paths: dict[Path, str] = {}
    unresolved: set[UnresolvedRef] = set()
    edges: set[DepEdge] = set()

    engines = None if targets is None else tuple(targets)
    for step in _walk(entries, libs, engines, enter_built_ins=True):
        src = step.src.display
        if step.resolved:
            resolution[(step.subject, step.engine)] = step.resolved
        if step.verdict in (UNRESOLVED_FUNCTOR, MISSING):
            unresolved.add(UnresolvedRef(src, str(step.subject), step.engine))
            edges.add(DepEdge(src, "unresolved", str(step.subject)))
        elif step.file is not None:
            reached = step.file
            edges.add(DepEdge(src, reached.display, step.label))
            if reached.kind == KIND_HOME:
                home_files.add((str(reached.lib.root), reached.rel))
                library_paths[reached.path] = reached.rel
            elif reached.kind == KIND_LOCAL:
                local_files.add(reached.rel)
                library_paths[reached.path] = reached.rel
            elif reached.kind == KIND_PROJECT:
                project_files.add(str(reached.path))

    ordered_unresolved = tuple(
        sorted(unresolved, key=lambda u: (u.source, u.subject, str(u.engine)))
    )
    ordered_edges = tuple(sorted(edges, key=lambda e: (e.src, e.dst, e.label)))
    return DepClosure(
        resolution=resolution,
        home_files=frozenset(home_files),
        local_files=frozenset(local_files),
        project_files=frozenset(project_files),
        library_paths=library_paths,
        unresolved=ordered_unresolved,
        edges=ordered_edges,
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
