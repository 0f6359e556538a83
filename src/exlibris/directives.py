"""Extraction of dependency facts from parsed source files.

One pass over a file's terms collects what the resolver, indexer and exporter
consume: `FileFacts.deps` lists `requires`, `may_load` and loading calls, direct
or guarded by `if_pl` (to any depth, nested guards conjoined), in source order;
`FileFacts.provides` is what the file declares it defines, the one place that
ranks a `module/2` over `defines`; besides them come library_directory spans,
whole `if_pl` directives for export, and clause heads.
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


@dataclass(frozen=True)
class MayLoad:
    ref: FileRef


@dataclass(frozen=True)
class Load:
    """One file loaded by a directive, with the guard it runs under."""

    guard: IfPls
    ref: FileRef


@dataclass(frozen=True)
class IfPlDirective:
    """An `if_pl/2,3` directive kept whole for the exporter's pruning pass."""

    cond: IfPls
    else_call: Term | None
    span: Span


@dataclass(frozen=True)
class FileFacts:
    deps: tuple[Requirement | Load | MayLoad, ...] = ()  # in source order
    provides: tuple[tuple[FunctorRef, IfPls, str], ...] = ()  # (functor, condition, module)
    library_dirs: tuple[Span, ...] = ()  # where each library_directory/1 stands
    clause_heads: tuple[FunctorRef, ...] = ()
    if_pls: tuple[IfPlDirective, ...] = ()


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
    """A plain atom is a relative path; `library(...)` is an alias ref whose
    argument is an atom or atoms joined by `/`."""
    if isinstance(term, Atom) and term.name != "[]":
        return FileRef("relative", term.name)
    if not (isinstance(term, Compound) and term.name == "library" and term.arity == 1):
        return None
    parts, stack = [], [term.args[0]]
    while stack:
        part = stack.pop()
        if isinstance(part, Compound) and part.name == "/" and part.arity == 2:
            stack += reversed(part.args)
        elif isinstance(part, Atom):
            parts.append(part.name)
        else:
            return None
    return FileRef("library", "/".join(parts))


def _decode_ref_arg(term: Term) -> list[FileRef]:
    """A file argument may be a single ref or a list; others are skipped."""
    items = list_parts(term)[0] if is_proper_list(term) else [term]
    refs = []
    for item in items:
        ref = decode_file_ref(item)
        if ref is not None:
            refs.append(ref)
    return refs


def recognize_loading_call(goal: Term) -> tuple[FileRef, ...] | None:
    """The refs of a goal that loads files, or None for any other goal.

    The bracketed-list goal `[f1, f2]` counts as consult.
    """
    if isinstance(goal, Compound) and goal.name == "." and goal.arity == 2:
        return tuple(_decode_ref_arg(goal)) if is_proper_list(goal) else None
    if isinstance(goal, Compound) and goal.name in LOADING_PREDICATES:
        if goal.arity in LOADING_PREDICATES[goal.name]:
            return tuple(_decode_ref_arg(goal.args[0]))
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


def deconstruct_if_pl(directive: Compound, cond: IfPls) -> list[tuple[IfPls, FileRef]]:
    """Expand an `if_pl/2,3` body, whose condition decodes to `cond`, into a
    (guard, file) pair for each file its loading calls name.

    The else branch of `if_pl/3` is guarded by the negated condition, and
    nesting conjoins guards.  Conjunctions, disjunctions, and `->` inside a
    branch are walked; anything that is not a loading call is dropped.
    """
    out: list[tuple[IfPls, FileRef]] = []
    stack: list[tuple[IfPls, Term]] = [(ALWAYS, directive)]  # depth-first, left first
    while stack:
        guard, goal = stack.pop()
        if isinstance(goal, Compound) and goal.arity == 2 and goal.name in (",", ";", "->"):
            stack += (guard, goal.args[1]), (guard, goal.args[0])
        elif isinstance(goal, Compound) and goal.name == "if_pl" and goal.arity in (2, 3):
            inner = cond if goal is directive else parse_if_pls(goal.args[0])
            if goal.arity == 3:
                stack.append((conjoin(guard, Negation(inner)), goal.args[2]))
            stack.append((conjoin(guard, inner), goal.args[1]))
        else:
            out.extend((guard, ref) for ref in recognize_loading_call(goal) or ())
    return out


def extract(terms: Sequence[SourceTerm], path: str | None = None) -> FileFacts:
    """Collect the dependency-relevant facts of one parsed file.

    Directives are `:- Body` terms; unknown directives pass through without
    complaint.  Non-directive clauses contribute their head functor, in
    definition order and deduplicated.

    What the file provides comes from its first `module/2` with an atom name
    (its exports, condition `any`), wherever that stands; a file without one
    provides its `defines` groups, each functor under its group's condition
    object, in the module of its first `defines_module`, else `user`.
    """
    deps: list[Requirement | Load | MayLoad] = []
    provides: list[tuple[FunctorRef, IfPls, str]] | None = None  # set by a module/2
    defines: list[tuple[FunctorRef, IfPls]] = []
    defines_module: str | None = None
    library_dirs: list[Span] = []
    heads: list[FunctorRef] = []
    seen_heads: set[FunctorRef] = set()
    if_pls: list[IfPlDirective] = []

    for st in terms:
        term, span = st.term, st.span
        if isinstance(term, Compound) and term.name == ":-" and term.arity == 1:
            try:
                body = term.args[0]
                name = body.name if isinstance(body, Compound) else None
                arity = body.arity if isinstance(body, Compound) else 0
                if name == "requires" and arity == 1:
                    for functor in _decode_functor_arg(body.args[0], "requires", span.line, path):
                        deps.append(Requirement(functor))
                elif name == "defines" and arity in (1, 2):
                    cond = parse_if_pls(body.args[0]) if arity == 2 else ALWAYS
                    functors = _decode_functor_arg(body.args[-1], "defines", span.line, path)
                    defines.extend((functor, cond) for functor in functors)
                elif name == "may_load" and arity == 1:
                    deps.extend(MayLoad(ref) for ref in _decode_ref_arg(body.args[0]))
                elif name == "module" and arity == 2:
                    if provides is None and isinstance(body.args[0], Atom):
                        provides = [
                            (f, ALWAYS, body.args[0].name)
                            for f in map(_decode_functor, list_parts(body.args[1])[0])
                            if f is not None
                        ]
                elif name == "defines_module" and arity == 1:
                    if defines_module is None and isinstance(body.args[0], Atom):
                        defines_module = body.args[0].name
                elif name == "library_directory" and arity == 1:
                    library_dirs.append(span)
                elif name == "if_pl" and arity in (2, 3):
                    cond = parse_if_pls(body.args[0])
                    else_call = body.args[2] if arity == 3 else None
                    if_pls.append(IfPlDirective(cond, else_call, span))
                    deps.extend(Load(guard, ref) for guard, ref in deconstruct_if_pl(body, cond))
                else:
                    deps.extend(Load(ALWAYS, ref) for ref in recognize_loading_call(body) or ())
            except EngineConditionError as exc:  # from any condition, nested ones too
                raise MalformedDirectiveError(str(exc), span.line, path) from exc
            continue

        head = term
        if isinstance(term, Compound) and term.name == ":-" and term.arity == 2:
            head = term.args[0]
        if isinstance(head, Compound) and head.name == "library_directory" and head.arity == 1:
            library_dirs.append(span)
        functor = None
        if isinstance(head, Atom):
            functor = FunctorRef(head.name, 0)
        elif isinstance(head, Compound):
            functor = FunctorRef(head.name, head.arity)
        if functor is not None and functor not in seen_heads:
            seen_heads.add(functor)
            heads.append(functor)

    if provides is None:
        module = defines_module or "user"
        provides = [(functor, cond, module) for functor, cond in defines]
    return FileFacts(
        deps=tuple(deps),
        provides=tuple(provides),
        library_dirs=tuple(library_dirs),
        clause_heads=tuple(heads),
        if_pls=tuple(if_pls),
    )
