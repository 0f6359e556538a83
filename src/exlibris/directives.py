"""Extraction of dependency facts from the directives read from a file.

A file is read for its directives and `library_directory` clauses only:
`read_directives` gives each, in file order with its span, as its parsed
term, or, for a `defines`, `module` or `requires` written as libraries are
generated, as the `Declaration` decoded from its text.  No other statement
is tokenized past its first token or two, and a run of clauses that start
with a lowercase letter is skipped in one match.  One pass over them
(`extract`) collects what the resolver, indexer and exporter consume:
`FileFacts.deps` lists `requires`, `may_load` and loading calls, direct or
guarded by `if_pl` (to any depth, nested guards conjoined), in source
order; `FileFacts.provides` is what the file declares it defines, the one
place that ranks a `module/2` over `defines`; besides them come
library_directory spans and whole `if_pl` directives for export.  Only
`mkindex` reads `provides`: the dependency walk reads a file without its
`PROVIDES_ONLY` directives, so there it is None.  `clause_head` names the
predicate a clause defines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Collection, NamedTuple, Sequence

from .engines import ALWAYS, EngineConditionError, IfPls, Negation, conjoin, parse_if_pls, read_cond
from .errors import ExlibrisError
from .terms import (
    ARGUMENT,
    EMPTY_LIST,
    LAYOUT,
    OPERATOR_ATOMS,
    Atom,
    Compound,
    Integer,
    Span,
    SourceTerm,
    Term,
    atom_text,
    list_parts,
    parse_statements,
    render_term,
    split_statements,
    statement_pattern,
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


class Declaration(NamedTuple):
    """A `requires/1`, `defines/1,2` or `module/2` directive, decoded."""

    name: str  # requires | defines | module
    arg: IfPls | str | None  # the condition (`any` without one), or the module's name if an atom
    functors: tuple[FunctorRef, ...]


@dataclass(frozen=True)
class FileFacts:
    deps: tuple[Requirement | Load | MayLoad, ...] = ()  # in source order
    # (functor, condition, module); None when the file declares nothing or
    # was read without its PROVIDES_ONLY directives
    provides: tuple[tuple[FunctorRef, IfPls, str], ...] | None = None
    library_dirs: tuple[Span, ...] = ()  # where each library_directory/1 stands
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

LIBRARY_DIRECTORY = FunctorRef("library_directory", 1)

# The atoms a directive body starts with when it adds to `FileFacts.provides`
# alone: `extract` takes nothing else from such a directive, since no infix
# operator is a name it reads, so a reader that needs no `provides` may leave
# these directives unparsed (`read_directives`' `skip`).
PROVIDES_ONLY = frozenset({"defines", "module", "defines_module"})


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


def _arg_items(term: Term) -> list[Term]:
    """The items of an argument that may be a proper list or a single item."""
    items, tail = list_parts(term)
    return items if tail == EMPTY_LIST else [term]


def _decode_refs(items: list[Term]) -> tuple[FileRef, ...]:
    """The file refs among `items`; others are skipped."""
    return tuple(ref for ref in map(decode_file_ref, items) if ref is not None)


def recognize_loading_call(goal: Term) -> tuple[FileRef, ...] | None:
    """The refs of a goal that loads files, or None for any other goal.

    The bracketed-list goal `[f1, f2]` counts as consult.
    """
    if isinstance(goal, Compound) and goal.name == "." and goal.arity == 2:
        items, tail = list_parts(goal)
        return _decode_refs(items) if tail == EMPTY_LIST else None
    if isinstance(goal, Compound) and goal.name in LOADING_PREDICATES:
        if goal.arity in LOADING_PREDICATES[goal.name]:
            return _decode_refs(_arg_items(goal.args[0]))
    return None


def _decode_functor(term: Term) -> FunctorRef | None:
    """`Name/Arity`, or a grammar rule's `Name//Arity`, which is the
    predicate `Name/(Arity+2)`."""
    if (
        isinstance(term, Compound)
        and term.name in ("/", "//")
        and term.arity == 2
        and isinstance(term.args[0], Atom)
        and isinstance(term.args[1], Integer)
        and term.args[1].value >= 0
    ):
        extra = 2 if term.name == "//" else 0
        return FunctorRef(term.args[0].name, term.args[1].value + extra)
    return None


def clause_head(term: Term) -> FunctorRef | None:
    """The predicate a clause defines: its head's name and arity (an atom's is
    0), a rule's (`:-`/2) head being its first argument; None for any other head."""
    if isinstance(term, Compound) and term.name == ":-" and term.arity == 2:
        term = term.args[0]
    if isinstance(term, Atom):
        return FunctorRef(term.name, 0)
    return FunctorRef(term.name, term.arity) if isinstance(term, Compound) else None


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


# `:- defines( [p/2] ).`, `:- module(m, [p/2]).` or `:- requires( [p/2] ).`,
# with items named by words that are no operators, and an `ARGUMENT` condition.
_NAME = re.compile(rf"(?!(?:{'|'.join(a for a in OPERATOR_ATOMS if a.isidentifier())})\b)[a-z]\w*")
_ITEM = re.compile(rf"({_NAME.pattern})/([0-9]{{1,9}})")
_DECLARATION = (
    rf":- (defines|module|requires)\( ?(?:({ARGUMENT}), )?"
    rf"\[((?:{_ITEM.pattern}(?:, {_ITEM.pattern})*)?)\] ?\)"
)
# with `clauses` asked for, and without, when runs of clauses are skipped
_DECLARATIONS = statement_pattern(_DECLARATION), statement_pattern(_DECLARATION, runs=True)
_DECLARATION_FORMS = {("requires", 1), ("defines", 1), ("defines", 2), ("module", 2)}
_DIRECTIVE_WORD = re.compile(rf":-{LAYOUT}(\w*)", re.DOTALL)  # after a `:-`, as a token


def _decoded(m: re.Match, conds: dict[str, IfPls | None]) -> Declaration | None:
    """The declaration a statement `_DECLARATION` took, or None for a
    `module/1`, a `requires/2`, a module name that is no `_NAME`, or a
    condition that `read_cond` does not decode; `conds` keeps each read."""
    name, first, items = m.group(2, 3, 4)
    if name == "module":
        arg = first if first and _NAME.fullmatch(first) else None
    elif first is None or name == "requires":
        arg = None if first else ALWAYS
    else:
        if first not in conds:
            conds[first] = read_cond(first)
        arg = conds[first]
    functors = tuple(FunctorRef(f, int(a)) for f, a in _ITEM.findall(items))
    return None if arg is None else Declaration(name, arg, functors)


def read_directives(
    text: str, path: str | None = None, skip: Collection[str] = (),
    conds: dict[str, IfPls | None] | None = None, clauses: list | None = None,
) -> list[SourceTerm]:
    """Read the directives and `library_directory` clauses of a file, in file
    order: each statement whose first token is `:-` or `library_directory`,
    except a `:-` whose next token is an unquoted atom in `skip`.  Each is
    parsed, but one `_DECLARATION` takes is decoded from its match, each
    condition text once per `conds` (by default, per call).  Each statement
    whose first token is not `:-` is added to `clauses`, if given, as split;
    without `clauses`, a run of clauses is skipped in one match.  No other
    statement is tokenized past its first token or two, so a syntax error
    inside one goes unreported.  Spans and errors are `parse_statements`'.
    """
    conds = {} if conds is None else conds
    kept = []
    for start, end, first in split_statements(text, path, _DECLARATIONS[clauses is None]):
        if not isinstance(first, str):  # the match of a declaration
            if first[2] not in skip:
                kept.append((start, end, _decoded(first, conds) or ":-"))
            continue
        # a `:-` written `':-'` is read as such, but is no prefix operator
        if first == "library_directory" or first == ":-" and not (
            skip and text[start] == ":" and _DIRECTIVE_WORD.match(text, start)[1] in skip
        ):
            kept.append((start, end, first))
        if clauses is not None and first != ":-":
            clauses.append((start, end, first))
    return parse_statements(text, kept, path)


def _declaration(body: Compound, line: int, path: str | None) -> Declaration:
    """The `Declaration` of a parsed `requires/1`, `defines/1,2` or `module/2`
    body.  Each functor of a `requires` or `defines`, a list or a single
    one, must be a name/arity term; a module's items that are not are left out."""
    if body.name == "module":
        exports, tail = list_parts(body.args[1])
        if tail != EMPTY_LIST:  # `module(m, [])` provides nothing
            message = f"module expects a list of name/arity terms, got {render_term(body.args[1])}"
            raise MalformedDirectiveError(message, line, path)
        name = body.args[0].name if isinstance(body.args[0], Atom) else None
        return Declaration("module", name, tuple(f for f in map(_decode_functor, exports) if f))
    cond = parse_if_pls(body.args[0]) if body.arity == 2 else ALWAYS
    items = _arg_items(body.args[-1])
    functors = tuple(map(_decode_functor, items))
    if None in functors:
        got = render_term(items[functors.index(None)])
        message = f"{body.name} expects name/arity terms, got {got}"
        raise MalformedDirectiveError(message, line, path)
    return Declaration(body.name, cond, functors)


def extract(terms: Sequence[SourceTerm], path: str | None = None) -> FileFacts:
    """Collect the dependency-relevant facts of the statements read from one file.

    Directives are `:- Body` terms, or `Declaration`s that `read_directives`
    decoded; a parsed declaration is read as its `Declaration`, and unknown
    directives pass through without complaint.  Of the other terms, a
    `library_directory/1` clause is kept as a library_directory span.

    What the file provides comes from its first `module/2` with an atom name
    (its exports, condition `any`), wherever that stands; a file without one
    provides its `defines` groups, each functor under its group's condition
    object, in the module of its first `defines_module`, else `user`.  A
    file with neither declares nothing: its `provides` is None.
    """
    deps: list[Requirement | Load | MayLoad] = []
    provides: list[tuple[FunctorRef, IfPls, str]] | None = None  # set by a module/2
    defines: list[tuple[FunctorRef, IfPls]] | None = None  # set by a defines
    defines_module: str | None = None
    library_dirs: list[Span] = []
    if_pls: list[IfPlDirective] = []

    for st in terms:
        term, span = st.term, st.span
        if isinstance(term, Compound) and term.name == ":-" and term.arity == 1:
            try:
                body = term.args[0]
                name = body.name if isinstance(body, Compound) else None
                arity = body.arity if isinstance(body, Compound) else 0
                if (name, arity) in _DECLARATION_FORMS:
                    term = _declaration(body, span.line, path)
                elif name == "may_load" and arity == 1:
                    deps.extend(MayLoad(ref) for ref in _decode_refs(_arg_items(body.args[0])))
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
        elif clause_head(term) == LIBRARY_DIRECTORY:
            library_dirs.append(span)
        if not isinstance(term, Declaration):
            continue
        if term.name == "requires":
            deps.extend(map(Requirement, term.functors))
        elif term.name == "defines":
            defines = defines or []
            defines.extend((functor, term.arg) for functor in term.functors)
        elif provides is None and term.arg is not None:
            provides = [(functor, ALWAYS, term.arg) for functor in term.functors]

    if provides is None and defines is not None:
        module = defines_module or "user"
        provides = [(functor, cond, module) for functor, cond in defines]
    return FileFacts(
        deps=tuple(deps),
        provides=None if provides is None else tuple(provides),
        library_dirs=tuple(library_dirs),
        if_pls=tuple(if_pls),
    )
