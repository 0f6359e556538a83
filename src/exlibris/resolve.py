"""Functor resolution and transitive dependency closure.

Required functors resolve against library indexes in a fixed search order:
the local library first, then system libraries, then home libraries; within
a library the first index fact whose condition matches the target engine
wins.  A lookup asks each library's index for the functor's rows
(`LibraryIndex.lookup`, in index order) and builds nothing.

`trace`, `graph` and `export` share one depth-first walk from the entry
files.  It enters every reached home, local and project file once, never a
system file, and yields its decisions in source order: one per load, and
one per requirement and engine (per candidate when all engines count).
The walks differ in one rule only: `closure` (behind `graph` and `export`)
enters the home or local file that declares a built-in, because that file
is vendored so the exported Index.pl still resolves, while `trace` shows
it as a leaf.  One function decides each (functor, engine) pair, once per
walk, for `closure`'s resolutions too, and `resolve_functor`.  A file is
named by its absolute path `str` (lexical: no link resolved), which
`LibrarySet.find` gives the file an index hit, a `library(...)` reference
or a relative load reaches, cached per candidate as written, and which keys
the set's store of each file's facts, filled by on-the-fly indexing first,
so a command reads and parses each file once.
The walk reads no file's `provides`, so it leaves the `defines`, `module`
and `defines_module` directives of a file it reads itself unparsed, and
takes a canonical `requires` by pattern, as `mkindex` takes a declaration.
"""

from __future__ import annotations

import os
import posixpath
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence, Union

from .directives import PROVIDES_ONLY, FileFacts, FileRef, FunctorRef, Load, Requirement
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
    suffix,
)

KIND_SYSTEM = "system"
KIND_LOCAL = "local"
KIND_HOME = "home"
KIND_PROJECT = "project"


@dataclass(frozen=True)
class Library:
    kind: str
    root: Path
    index: LibraryIndex

    @classmethod
    def load(cls, kind: str, root: Path | str, extensions=DEFAULT_EXTENSIONS) -> "Library":
        """Use the on-disk Index.pl when present, otherwise index on the fly."""
        root = Path(os.path.abspath(root))  # lexical: no symlink resolved
        index_path = root / INDEX_FILENAME
        return cls(kind, root, parse_index(index_path) if index_path.is_file() else mkindex(
            root, extensions=extensions))


class _File(NamedTuple):
    """A file the walk reaches, by its absolute path, and its name in edges:
    `kind:rel` for a library file, by `LibrarySet.names`, else its path.
    `lib` and `rel` are None for project files."""

    kind: str
    lib: Library | None
    path: str
    rel: str | None
    shown: str


@dataclass(frozen=True)
class LibrarySet:
    """One command's libraries, in search order, its source store and the
    files its names reach.  Neither is refreshed: build a new set after
    source files change."""

    syslibs: tuple[Library, ...] = ()
    homelibs: tuple[Library, ...] = ()
    loclib: Library | None = None
    extensions: tuple[str, ...] = DEFAULT_EXTENSIONS
    # each file is read and parsed once per command
    sources: SourceStore = field(default_factory=dict, init=False, repr=False, compare=False)
    # candidate as written -> the file it names, or None; probed once per command
    found: dict[str, _File | None] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    # root -> name in reports: the kind, then `home2`, `home3`... for a kind's later ones
    names: dict[Path, str] = field(default_factory=dict, init=False, repr=False, compare=False)
    _order: tuple[Library, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        local = (self.loclib,) if self.loclib else ()
        object.__setattr__(self, "_order", (*local, *self.syslibs, *self.homelibs))
        for group in (local, self.syslibs, self.homelibs):
            for n, lib in enumerate(group, 1):
                self.sources.update(lib.index.sources)
                self.names[lib.root] = f"{lib.kind}{n}" if n > 1 else lib.kind

    def source(self, path: str) -> tuple[str, FileFacts]:
        """A file's text and facts: on-the-fly indexing's, or else read on the
        first request without its `PROVIDES_ONLY` directives (`provides` None)."""
        if path not in self.sources:
            self.sources[path] = read_source(path, PROVIDES_ONLY)
        return self.sources[path]

    def find(self, directory: Path | str, name: str, exts: Sequence[str]) -> _File | None:
        """The first `name + ext` in `directory`, over `exts`, that is a file, or None."""
        prefix = os.path.join(directory, "")  # a directory of `/` gives `/name`
        for ext in exts:
            written = f"{prefix}{name}{ext}"
            file = self.found.get(written, False)
            if file is False:
                path = os.path.abspath(written)  # `.`, `..` and `//` normalised, no link resolved
                file = self.found[written] = self.placed(path) if is_file(path) else None
            if file is not None:
                return file
        return None

    def placed(self, path: str) -> _File:
        """The file at an absolute path: of the library whose root holds it, lexically, if any."""
        for lib in self._order:
            root = os.path.join(lib.root, "")
            if path.startswith(root):
                rel = path[len(root):]
                rel = rel[: len(rel) - len(suffix(rel))]
                return _File(lib.kind, lib, path, rel, f"{self.names[lib.root]}:{rel}")
        return _File(KIND_PROJECT, None, path, None, path)

    def ordered(self) -> tuple[Library, ...]:
        """The libraries in search order: local, then system, then home."""
        return self._order

    @classmethod
    def build(cls, syslibs: Sequence[Path | str] = (), homelibs: Sequence[Path | str] = (),
              loclib: Path | str | None = None, extensions: Sequence[str] = DEFAULT_EXTENSIONS,
              ) -> "LibrarySet":
        extensions = tuple(extensions)
        libs = cls(
            syslibs=tuple(Library.load(KIND_SYSTEM, p, extensions) for p in syslibs),
            homelibs=tuple(Library.load(KIND_HOME, p, extensions) for p in homelibs),
            loclib=Library.load(KIND_LOCAL, loclib, extensions) if loclib else None,
            extensions=extensions,
        )
        roots = sorted(lib.root for lib in libs.ordered())  # a root sorts just before its subdirs
        if any(inner.is_relative_to(outer) for outer, inner in zip(roots, roots[1:])):
            raise ExlibrisError("library roots must be disjoint")
        return libs


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
    library_paths: dict[str, str]  # absolute path of a home or local file -> relative file
    unresolved: tuple[UnresolvedRef, ...]
    edges: tuple[DepEdge, ...]


LOAD, BUILT_IN, SKIP, UNRESOLVED_FUNCTOR, MISSING = (
    "load", "built-in", "skip", "unresolved", "missing")


def decide(
    functor: FunctorRef, engine: PlId | None, libs: LibrarySet
) -> tuple[list[tuple[str, str, _File | None]], tuple[ResolvedTarget, ...]]:
    """A requirement's index hits in search order, as (verdict, label, file
    or None), and their targets; a missing file or no hit is unresolved.

    For a concrete engine only the first matching fact.  For engine None
    every fact that `matches` does not rule out for all engines (extra
    candidates only ever widen an export), up to the first that holds for
    every engine, since nothing later can win for any engine.
    """
    unresolved = (UNRESOLVED_FUNCTOR, str(functor), None)
    hits, resolved = [], []
    for lib in libs.ordered():
        for _, _, cond, module, rel_file in lib.index.lookup(functor):
            holds = matches(cond, engine)
            if holds is False:
                continue
            file = libs.find(lib.root, rel_file, libs.extensions)
            if file is None:
                hits.append(unresolved)
                resolved.append(UNRESOLVED)
            else:
                built_in = module == BUILT_IN_MODULE
                label = f"{functor} {render_cond(cond)}" + (" built-in" if built_in else "")
                hits.append((BUILT_IN if built_in else LOAD, label, file))
                resolved.append((BuiltIn if built_in else LoadFile)(lib.kind, lib.root, file.rel))
            if holds:
                return hits, tuple(resolved)
    return (hits, tuple(resolved)) if hits else ([unresolved], (UNRESOLVED,))


def resolve_functor(functor: FunctorRef, engine: PlId, libs: LibrarySet) -> ResolvedTarget:
    """First matching index fact in search order, or Unresolved."""
    return decide(functor, engine, libs)[1][0]


def resolve_file_ref(ref: FileRef, base_dir: str, libs: LibrarySet) -> _File | None:
    """The file a reference names, by `LibrarySet.find`, or None.  A library
    alias searches the library roots in resolution order, unless
    `is_library_name` rejects it; a relative reference is found from the
    referring file's directory, as written first if its last segment has a
    suffix."""
    if ref.kind == "library":
        found = (libs.find(lib.root, ref.path, libs.extensions) for lib in libs.ordered())
        return next(filter(None, found), None) if is_library_name(ref.path) else None
    head, name = posixpath.split(ref.path)  # as for an index field, name + ext is not normalised
    exts = ("", *libs.extensions) if suffix(name) else libs.extensions
    return libs.find(os.path.join(base_dir, head), name, exts)


class _Step(NamedTuple):
    """One decision on a directive of `src`; loads have engine None.
    `seen`: the walk entered `file` before."""

    depth: int
    src: _File
    subject: FunctorRef | FileRef
    engine: PlId | None
    verdict: str
    label: str
    file: _File | None = None
    seen: bool = False


def _walk(entries: Sequence[Path | str], libs: LibrarySet, targets: tuple[PlId, ...] | None,
          enter_built_ins: bool, decided: dict) -> Iterator[_Step]:
    """Depth-first decisions from the entry files, on an explicit stack.

    Requirements are decided per target engine, or once when targets is
    None; loads are followed when their guard can match a target, may_load
    references always.  Files are entered once each, system files never,
    built-in declaration files only with `enter_built_ins`.  Each
    (functor, engine) pair is decided once, into `decided` as `decide`
    returns it; `seen` is still judged per step.
    """
    engines = (None,) if targets is None else targets
    entered: set[str] = set()

    def visit(file: _File, depth: int) -> Iterator[_Step]:
        _, facts = libs.source(file.path)
        directory = os.path.dirname(file.path)
        for directive in facts.deps:
            if isinstance(directive, Requirement):
                functor = directive.functor
                for engine in engines:
                    key = (functor, engine)
                    if key not in decided:
                        decided[key] = decide(functor, engine, libs)
                    for verdict, label, hit in decided[key][0]:
                        yield _Step(depth, file, functor, engine, verdict, label, hit,
                                    hit is not None and hit.path in entered)
                continue
            ref = directive.ref
            label = render_cond(directive.guard) if isinstance(directive, Load) else "may_load"
            if isinstance(directive, Load) and not can_match(directive.guard, targets):
                yield _Step(depth, file, ref, None, SKIP, label)
                continue
            hit = resolve_file_ref(ref, directory, libs)
            if hit is None:
                yield _Step(depth, file, ref, None, MISSING, str(ref))
            else:
                yield _Step(depth, file, ref, None, LOAD, label, hit, hit.path in entered)

    roots = list(dict.fromkeys(os.path.abspath(raw) for raw in entries))
    entered.update(roots)
    stack = [visit(_File(KIND_PROJECT, None, path, None, path), 0) for path in reversed(roots)]
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


def closure(entries: Sequence[Path | str], libs: LibrarySet,
            targets: Sequence[PlId] | None = None) -> DepClosure:
    """Transitive dependency closure from the given entry files.

    With concrete target engines every required functor is resolved per
    engine; with targets=None resolution considers all engines at once.
    Guarded loads are followed when their guard can match a target;
    may_load references are followed unconditionally.  System files are
    recorded but never vendored nor walked; home and local files that
    declare built-ins are vendored and walked.  `library_paths` maps each
    home and local file export copies, by the walk's path `str`, to its name.
    Each distinct edge and unresolved reference becomes one `DepEdge` or
    `UnresolvedRef`.
    """
    decided: dict[tuple[FunctorRef, PlId | None], tuple] = {}
    reached: dict[str, _File] = {}
    unresolved: set[tuple[str, str, PlId | None]] = set()
    edges: set[tuple[str, str, str]] = set()
    engines = None if targets is None else tuple(targets)
    for step in _walk(entries, libs, engines, enter_built_ins=True, decided=decided):
        src = step.src.shown
        if step.verdict in (UNRESOLVED_FUNCTOR, MISSING):
            unresolved.add((src, str(step.subject), step.engine))
            edges.add((src, "unresolved", str(step.subject)))
        elif step.file is not None:
            edges.add((src, step.file.shown, step.label))
            reached[step.file.path] = step.file

    files = reached.values()
    return DepClosure(
        resolution={key: resolved for key, (_, resolved) in decided.items()},
        home_files=frozenset((str(f.lib.root), f.rel) for f in files if f.kind == KIND_HOME),
        local_files=frozenset(f.rel for f in files if f.kind == KIND_LOCAL),
        project_files=frozenset(f.path for f in files if f.kind == KIND_PROJECT),
        library_paths={f.path: f.rel for f in files if f.kind in (KIND_HOME, KIND_LOCAL)},
        unresolved=tuple(UnresolvedRef(*u) for u in sorted(
            unresolved, key=lambda u: (u[0], u[1], str(u[2])))),
        edges=tuple(DepEdge(*e) for e in sorted(edges)),
    )


def trace(entry: Path | str, engine: PlId, libs: LibrarySet) -> str:
    """Depth-first load report for one entry under one engine.

    One decision per line: load, built-in, skip on a failed guard,
    unresolved, or missing.  Revisited files are noted once and not
    re-entered.  The format is stable for golden comparisons.
    """
    base = os.path.dirname(os.path.abspath(entry))
    lines: list[str] = []
    for step in _walk([entry], libs, (engine,), enter_built_ins=False, decided={}):
        head = f"{'  ' * step.depth}{step.subject}:"
        reached = step.file
        if step.verdict == SKIP:
            lines.append(f"{head} skip (guard {step.label} failed)")
        elif reached is None:
            lines.append(f"{head} {step.verdict}")
        elif step.verdict == BUILT_IN:
            lines.append(f"{head} built-in ({libs.names[reached.lib.root]} {reached.rel})")
        else:
            where = f"{libs.names[reached.lib.root]} {reached.rel}" if reached.lib else (
                f"file {os.path.relpath(reached.path, base)}"
            )
            lines.append(f"{head} load {where}" + (" (already loaded)" if step.seen else ""))
    return "\n".join(lines) + "\n"
