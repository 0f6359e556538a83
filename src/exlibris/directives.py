"""Extraction of dependency facts from parsed source files.

One pass over a file's terms collects everything the resolver and exporter
consume: `requires`, `defines`, `may_load`, module and library_directory
declarations, direct loading calls, and loading calls guarded by `if_pl`
directives (recursively deconstructed, with nested guards conjoined).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .engines import ALWAYS, EngineConditionError, IfPls, Negation, conjoin, parse_if_pls
from .errors import ExlibrisError
from .terms import (
    Atom,
    Compound,
    Integer,
    Span,
    SourceTerm,
    Term,
    atom_text,
    is_proper_list,
    list_parts,
    render_term,
)


class MalformedDirectiveError(ExlibrisError):
    def __init__(self, message: str, line: int, path: str | None = None):
        self.line = line
        self.path = path
        where = f"{path}:{line}" if path else f"line {line}"
        super().__init__(f"{where}: {message}")


@dataclass(frozen=True)
class FunctorRef:
    """A name/arity pair naming a predicate."""

    name: str
    arity: int

    def __str__(self) -> str:
        return f"{atom_text(self.name)}/{self.arity}"


@dataclass(frozen=True)
class FileRef:
    """A file named in source: a `library(...)` alias or a relative path."""

    kind: str  # "library" | "relative"
    path: str

    def __str__(self) -> str:
        if self.kind == "library":
            return f"library({self.path})"
        return self.path


@dataclass(frozen=True)
class Requirement:
    functor: FunctorRef
    span: Span


@dataclass(frozen=True)
class DefinesGroup:
    cond: IfPls
    functors: tuple[FunctorRef, ...]
    span: Span


@dataclass(frozen=True)
class MayLoad:
    ref: FileRef
    span: Span


@dataclass(frozen=True)
class Load:
    """One file loaded by a directive, with the guard it runs under."""

    guard: IfPls
    ref: FileRef
    predicate: str
    span: Span


@dataclass(frozen=True)
class ModuleDecl:
    name: str
    exports: tuple[FunctorRef, ...]


@dataclass(frozen=True)
class LibraryDir:
    path: str
    span: Span


@dataclass(frozen=True)
class IfPlDirective:
    """An `if_pl/2,3` directive kept whole for the exporter's pruning pass."""

    cond: IfPls
    else_call: Term | None
    span: Span


@dataclass(frozen=True)
class FileFacts:
    requires: tuple[Requirement, ...] = ()
    defines: tuple[DefinesGroup, ...] = ()
    may_load: tuple[MayLoad, ...] = ()
    loads: tuple[Load, ...] = ()
    module_decl: ModuleDecl | None = None
    library_dirs: tuple[LibraryDir, ...] = ()
    clause_heads: tuple[FunctorRef, ...] = ()
    if_pls: tuple[IfPlDirective, ...] = ()
    defines_module: str | None = None


# Loading predicates recognized inside directives and if_pl branches; the
# file argument is always the first one.
LOADING_PREDICATES: dict[str, tuple[int, ...]] = {
    "consult": (1,),
    "ensure_loaded": (1,),
    "compile": (1,),
    "use_module": (1, 2),
    "load_files": (1, 2),
}


def decode_file_ref(term: Term) -> FileRef | None:
    """A plain atom is a relative path; `library(...)` is an alias ref."""
    if isinstance(term, Atom) and term.name != "[]":
        return FileRef("relative", term.name)
    if isinstance(term, Compound) and term.name == "library" and term.arity == 1:
        path = _decode_alias_path(term.args[0])
        if path is not None:
            return FileRef("library", path)
    return None


def _decode_alias_path(term: Term) -> str | None:
    if isinstance(term, Atom):
        return term.name
    if isinstance(term, Compound) and term.name == "/" and term.arity == 2:
        left = _decode_alias_path(term.args[0])
        right = _decode_alias_path(term.args[1])
        if left is not None and right is not None:
            return f"{left}/{right}"
    return None


def _decode_ref_arg(term: Term) -> list[FileRef]:
    """A file argument may be a single ref or a list; others are skipped."""
    items = list_parts(term)[0] if is_proper_list(term) else [term]
    refs = []
    for item in items:
        ref = decode_file_ref(item)
        if ref is not None:
            refs.append(ref)
    return refs


def recognize_loading_call(goal: Term) -> tuple[tuple[FileRef, ...], str] | None:
    """Identify a goal that loads files, returning its refs and predicate name.

    The bracketed-list goal `[f1, f2]` counts as consult.
    """
    if isinstance(goal, Compound) and goal.name == "." and goal.arity == 2:
        if is_proper_list(goal):
            return tuple(_decode_ref_arg(goal)), "consult"
        return None
    if isinstance(goal, Compound) and goal.name in LOADING_PREDICATES:
        if goal.arity in LOADING_PREDICATES[goal.name]:
            return tuple(_decode_ref_arg(goal.args[0])), goal.name
    return None


def _decode_functor(term: Term) -> FunctorRef | None:
    if (
        isinstance(term, Compound)
        and term.name == "/"
        and term.arity == 2
        and isinstance(term.args[0], Atom)
        and isinstance(term.args[1], Integer)
        and term.args[1].value >= 0
    ):
        return FunctorRef(term.args[0].name, term.args[1].value)
    return None


def _decode_functor_arg(term: Term, directive: str, line: int, path: str | None):
    """Decode a single functor or a list of functors, strictly."""
    items = list_parts(term)[0] if is_proper_list(term) else [term]
    functors = []
    for item in items:
        functor = _decode_functor(item)
        if functor is None:
            raise MalformedDirectiveError(
                f"{directive} expects name/arity terms, got {render_term(item)}",
                line,
                path,
            )
        functors.append(functor)
    return tuple(functors)


def deconstruct_if_pl(directive: Term) -> list[tuple[IfPls, Term]]:
    """Expand an `if_pl/2,3` body into (guard, loading call) pairs.

    The else branch of `if_pl/3` is guarded by the negated condition, and
    nesting conjoins guards.  Conjunctions, disjunctions, and `->` inside a
    branch are walked; anything that is not a loading call is dropped.
    """
    if not (
        isinstance(directive, Compound)
        and directive.name == "if_pl"
        and directive.arity in (2, 3)
    ):
        raise ValueError(f"not an if_pl directive: {render_term(directive)}")
    out: list[tuple[IfPls, Term]] = []
    cond = parse_if_pls(directive.args[0])
    _walk_branch(cond, directive.args[1], out)
    if directive.arity == 3:
        _walk_branch(Negation(cond), directive.args[2], out)
    return out


def _walk_branch(guard: IfPls, goal: Term, out: list[tuple[IfPls, Term]]):
    if isinstance(goal, Compound) and goal.arity == 2 and goal.name in (",", ";", "->"):
        _walk_branch(guard, goal.args[0], out)
        _walk_branch(guard, goal.args[1], out)
        return
    if isinstance(goal, Compound) and goal.name == "if_pl" and goal.arity in (2, 3):
        inner = parse_if_pls(goal.args[0])
        _walk_branch(conjoin(guard, inner), goal.args[1], out)
        if goal.arity == 3:
            _walk_branch(conjoin(guard, Negation(inner)), goal.args[2], out)
        return
    if recognize_loading_call(goal) is not None:
        out.append((guard, goal))


def extract(terms: Sequence[SourceTerm], path: str | None = None) -> FileFacts:
    """Collect the dependency-relevant facts of one parsed file.

    Directives are `:- Body` terms; unknown directives pass through without
    complaint.  Non-directive clauses contribute their head functor, in
    definition order and deduplicated.
    """
    requires: list[Requirement] = []
    defines: list[DefinesGroup] = []
    may_load: list[MayLoad] = []
    loads: list[Load] = []
    module_decl: ModuleDecl | None = None
    library_dirs: list[LibraryDir] = []
    heads: list[FunctorRef] = []
    seen_heads: set[FunctorRef] = set()
    if_pls: list[IfPlDirective] = []
    defines_module: str | None = None

    for st in terms:
        term, span = st.term, st.span
        if isinstance(term, Compound) and term.name == ":-" and term.arity == 1:
            body = term.args[0]
            name = body.name if isinstance(body, Compound) else None
            arity = body.arity if isinstance(body, Compound) else 0
            if name == "requires" and arity == 1:
                for functor in _decode_functor_arg(body.args[0], "requires", span.line, path):
                    requires.append(Requirement(functor, span))
            elif name == "defines" and arity in (1, 2):
                cond = ALWAYS
                functor_arg = body.args[-1]
                if arity == 2:
                    cond = _parse_cond(body.args[0], span.line, path)
                functors = _decode_functor_arg(functor_arg, "defines", span.line, path)
                defines.append(DefinesGroup(cond, functors, span))
            elif name == "may_load" and arity == 1:
                for ref in _decode_ref_arg(body.args[0]):
                    may_load.append(MayLoad(ref, span))
            elif name == "module" and arity == 2:
                if module_decl is None:
                    exports = tuple(
                        f
                        for f in map(_decode_functor, list_parts(body.args[1])[0])
                        if f is not None
                    )
                    if isinstance(body.args[0], Atom):
                        module_decl = ModuleDecl(body.args[0].name, exports)
            elif name == "defines_module" and arity == 1:
                if defines_module is None and isinstance(body.args[0], Atom):
                    defines_module = body.args[0].name
            elif name == "library_directory" and arity == 1:
                library_dirs.append(LibraryDir(render_term(body.args[0]), span))
            elif name == "if_pl" and arity in (2, 3):
                cond = _parse_cond(body.args[0], span.line, path)
                else_call = body.args[2] if arity == 3 else None
                if_pls.append(IfPlDirective(cond, else_call, span))
                for guard, call in deconstruct_if_pl(body):
                    refs, predicate = recognize_loading_call(call)
                    for ref in refs:
                        loads.append(Load(guard, ref, predicate, span))
            else:
                recognized = recognize_loading_call(body)
                if recognized is not None:
                    refs, predicate = recognized
                    for ref in refs:
                        loads.append(Load(ALWAYS, ref, predicate, span))
            continue

        head = term
        if isinstance(term, Compound) and term.name == ":-" and term.arity == 2:
            head = term.args[0]
        if isinstance(head, Compound) and head.name == "library_directory" and head.arity == 1:
            library_dirs.append(LibraryDir(render_term(head.args[0]), span))
        functor = None
        if isinstance(head, Atom):
            functor = FunctorRef(head.name, 0)
        elif isinstance(head, Compound):
            functor = FunctorRef(head.name, head.arity)
        if functor is not None and functor not in seen_heads:
            seen_heads.add(functor)
            heads.append(functor)

    return FileFacts(
        requires=tuple(requires),
        defines=tuple(defines),
        may_load=tuple(may_load),
        loads=tuple(loads),
        module_decl=module_decl,
        library_dirs=tuple(library_dirs),
        clause_heads=tuple(heads),
        if_pls=tuple(if_pls),
        defines_module=defines_module,
    )


def _parse_cond(term: Term, line: int, path: str | None) -> IfPls:
    try:
        return parse_if_pls(term)
    except EngineConditionError as exc:
        raise MalformedDirectiveError(str(exc), line, path) from exc
