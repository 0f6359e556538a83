"""Engine identities and the engine-condition language.

An engine is named by a pl-term such as `sicstus(3:9:0)`: functor = engine
name, argument = a `:`-chain version.  Conditions over engines come from
`defines`, `index/5`, and `if_pl` and are one of: the universal `all`/`any`,
a name+version pattern with `_` wildcards, `not(...)`, a list (disjunction),
or the pair form `(Name, [(Version, Op), ...])` whose comparisons are
conjunctive.

`parse_if_pls` decodes a condition term, `render_cond` writes a
condition's canonical text directly, and `matches` is the one judge of a
condition.  Asked of a concrete engine it answers True or False; asked of
all engines at once (engine None) it answers True (every engine matches),
False (none can) or None (it depends on the engine).  All three work on
an explicit stack, so a condition's nesting depth has no limit.
`read_cond` decodes a condition from its canonical text.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Sequence, Union

from .errors import ExlibrisError
from .terms import (
    EMPTY_LIST,
    OPERATOR_ATOMS,
    Atom,
    Compound,
    Integer,
    Term,
    Variable,
    atom_text,
    canonical_argument,
    list_parts,
    render_term,
)


class EngineConditionError(ExlibrisError):
    """A term that does not decode as an engine condition."""


_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


@dataclass(frozen=True)
class PlId:
    """A concrete engine identity: lowercase name plus version components."""

    name: str
    version: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "version", tuple(self.version))
        if not _NAME_RE.match(self.name):
            raise ValueError(f"engine name must be a lowercase atom: {self.name!r}")
        if not self.version or any(v < 0 for v in self.version):
            raise ValueError("engine version needs one or more non-negative components")

    def __str__(self) -> str:
        return f"{self.name}({':'.join(str(v) for v in self.version)})"


@dataclass(frozen=True)
class Always:
    """The universally true condition; surfaces as `all` or `any`."""


@dataclass(frozen=True)
class EnginePattern:
    """Name plus per-component version pattern; None components are wildcards."""

    name: str
    pattern: tuple[int | None, ...]

    def __post_init__(self):
        object.__setattr__(self, "pattern", tuple(self.pattern))


@dataclass(frozen=True)
class Negation:
    inner: "IfPls"


@dataclass(frozen=True)
class Constrained:
    """Name plus conjunctive (version, comparison) constraints.

    Each pair holds when `engine-version OP given-version` does.
    """

    name: str
    conds: tuple[tuple[tuple[int, ...], str], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "conds", tuple((tuple(v), op) for v, op in self.conds)
        )


@dataclass(frozen=True)
class Disjunction:
    items: tuple["IfPls", ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        if not self.items:
            raise ValueError("disjunction lists must be non-empty")


IfPls = Union[Always, EnginePattern, Negation, Constrained, Disjunction]

ALWAYS = Always()

# `engine-version OP given-version`, on version tuples: component-wise,
# with a strict prefix sorting before its extensions
_COMPARISONS = {
    "=": operator.eq, "\\=": operator.ne, "<": operator.lt,
    "=<": operator.le, ">": operator.gt, ">=": operator.ge,
}
# stack markers, of types no caller passes as a condition or a term
_NOT = object()  # negate the value on top
_Count = type("_Count", (int,), {})  # combine this many values on top into one
_Text = type("_Text", (str,), {})  # literal text to write
_OPEN_NOT, _CLOSE, _OPEN_LIST, _CLOSE_LIST, _COMMA = map(_Text, ("not(", ")", "[", "]", ","))


def _decode_chain(term: Term, what: str, wildcards: bool) -> tuple:
    """Decode a right-nested `:`-chain of integers (and `_` if allowed)."""
    components: list[int | None] = []
    while term is not None:
        if isinstance(term, Compound) and term.name == ":" and term.arity == 2:
            part, term = term.args
        else:
            part, term = term, None
        if isinstance(part, Integer) and part.value >= 0:
            components.append(part.value)
        elif isinstance(part, Variable) and wildcards and part.name == "_":
            components.append(None)
        else:
            named = isinstance(part, Variable)
            problem = "named variables have no meaning" if named else "bad version component"
            raise EngineConditionError(f"{problem} in {what}: {render_term(part)}")
    return tuple(components)


def parse_if_pls(term: Term) -> IfPls:
    """Decode a condition term; list elements are disjunctive alternatives.
    Decoded left to right on an explicit stack, so nesting depth has no
    limit and the error raised is the one for the leftmost bad part."""
    stack: list = [term]  # terms to decode, _NOT marks, list lengths to gather
    values: list[IfPls] = []
    while stack:
        item = stack.pop()
        if isinstance(item, Atom) and item.name in ("all", "any"):
            values.append(ALWAYS)
        elif isinstance(item, Compound) and item.arity == 1 and item.name == "not":
            stack += (_NOT, item.args[0])
        elif isinstance(item, Compound) and item.arity == 1 and _NAME_RE.match(item.name):
            pattern = _decode_chain(item.args[0], "a version pattern", wildcards=True)
            values.append(EnginePattern(item.name, pattern))
        elif item is _NOT:
            values[-1] = Negation(values[-1])
        elif isinstance(item, _Count):
            values[-item:] = [Disjunction(values[-item:])]
        elif isinstance(item, Compound) and item.arity == 2 and item.name == ".":
            items, tail = list_parts(item)
            if tail != EMPTY_LIST:
                raise EngineConditionError(
                    f"condition list has a non-list tail: {render_term(item)}"
                )
            stack.append(_Count(len(items)))
            stack += reversed(items)
        elif isinstance(item, Compound) and item.arity == 2 and item.name == ",":
            values.append(_parse_constrained(item))
        elif item == EMPTY_LIST:
            raise EngineConditionError("empty condition list")
        else:
            raise EngineConditionError(f"not an engine condition: {render_term(item)}")
    return values.pop()


def read_cond(text: str) -> IfPls | None:
    """The condition a text decodes to if `canonical_argument` reads it and
    `parse_if_pls` decodes it, else None: the text is then left to the
    parser, which reports what is wrong with it where it stands."""
    term = canonical_argument(text)
    try:
        return None if term is None else parse_if_pls(term)
    except EngineConditionError:
        return None


def _parse_constrained(term: Compound) -> Constrained:
    name_term, conds_term = term.args
    if not (isinstance(name_term, Atom) and _NAME_RE.match(name_term.name)):
        raise EngineConditionError(
            f"pair condition needs an engine name first: {render_term(term)}"
        )
    pairs, tail = list_parts(conds_term)
    if tail != EMPTY_LIST:
        raise EngineConditionError(
            f"pair condition needs a list of (version, op) pairs: {render_term(term)}"
        )
    conds = []
    for pair in pairs:
        if not (isinstance(pair, Compound) and pair.name == "," and pair.arity == 2):
            raise EngineConditionError(f"not a (version, op) pair: {render_term(pair)}")
        version = _decode_chain(pair.args[0], "a version constraint", wildcards=False)
        op = pair.args[1]
        if not (isinstance(op, Atom) and op.name in _COMPARISONS):
            raise EngineConditionError(f"unknown comparison: {render_term(op)}")
        conds.append((version, op.name))
    return Constrained(name_term.name, tuple(conds))


def _chain_text(components: Sequence[int | None]) -> str:
    return ":".join("_" if c is None else str(c) for c in components)


def render_cond(cond: IfPls, max_prec: int = 1200) -> str:
    """A condition's canonical text: what `render_term` writes for its term
    form (Always as `any`) at precedence bound `max_prec`, so a pair
    condition on top is bracketed below 1000, the precedence of `,`.
    Written on an explicit stack, so nesting depth has no limit."""
    out: list[str] = []
    stack: list = [cond]  # conditions to write and literal text, last first
    while stack:
        item = stack.pop()
        if isinstance(item, _Text):
            out.append(item)
        elif isinstance(item, Always):
            out.append("any")
        elif isinstance(item, EnginePattern):
            out.append(f"{atom_text(item.name)}({_chain_text(item.pattern)})")
        elif isinstance(item, Negation):
            stack += (_CLOSE, item.inner, _OPEN_NOT)
        elif isinstance(item, Disjunction):
            parts = [part for inner in reversed(item.items) for part in (_COMMA, inner)]
            stack += (_CLOSE_LIST, *parts[1:], _OPEN_LIST)
        elif isinstance(item, Constrained):
            name = atom_text(item.name)
            if item.name in OPERATOR_ATOMS:
                name = f"({name})"  # an operator atom is bracketed as an operand
            pairs = ",".join(f"({_chain_text(v)},({op}))" for v, op in item.conds)
            bare = item is cond and max_prec >= 1000
            out.append(f"{name},[{pairs}]" if bare else f"({name},[{pairs}])")
        else:
            raise TypeError(f"not a condition: {item!r}")
    return "".join(out)


def matches(cond: IfPls, engine: PlId | None) -> bool | None:
    """Whether the engine satisfies the condition; engine None asks of all engines.

    For a concrete engine the answer is True or False.  Pattern components
    constrain only the positions they name: a wildcard absorbs whatever the
    engine has (or lacks) there, while a concrete component requires the
    engine to have an equal component at that position.

    For engine None the answer is syntactic: True when every engine
    matches, False when none can, None when it depends on the engine.
    `Always` gives True, a pattern or pair condition None, and `not(...)`
    and lists combine these by Kleene logic.  The condition is evaluated
    on an explicit stack, so its nesting depth has no limit.
    """
    stack: list = [cond]  # conditions to judge, _NOT marks, list lengths to combine
    values: list[bool | None] = []
    while stack:
        item = stack.pop()
        if isinstance(item, Negation):
            stack += (_NOT, item.inner)
        elif isinstance(item, Disjunction):
            stack.append(_Count(len(item.items)))
            stack += item.items
        elif item is _NOT:
            values[-1] = None if values[-1] is None else not values[-1]
        elif isinstance(item, _Count):
            items = values[-item:]
            del values[-item:]
            values.append(True if True in items else None if None in items else False)
        elif isinstance(item, Always):
            values.append(True)
        elif engine is None and isinstance(item, (EnginePattern, Constrained)):
            values.append(None)
        elif isinstance(item, EnginePattern):
            version = engine.version
            values.append(item.name == engine.name and all(
                c is None or (i < len(version) and version[i] == c)
                for i, c in enumerate(item.pattern)
            ))
        elif isinstance(item, Constrained):
            values.append(item.name == engine.name and all(
                _COMPARISONS[op](engine.version, version)
                for version, op in item.conds
            ))
        else:
            raise TypeError(f"not a condition: {item!r}")
    return values.pop()


def conjoin(a: IfPls, b: IfPls) -> IfPls:
    """Conjunction expressed inside the condition language itself."""
    if isinstance(a, Always):
        return b
    if isinstance(b, Always):
        return a
    return Negation(Disjunction((Negation(a), Negation(b))))


def can_match(cond: IfPls, engines: Sequence[PlId] | None) -> bool:
    """Whether a guard can hold on one of the engines; engines=None means all."""
    return any(matches(cond, e) is not False for e in ((None,) if engines is None else engines))
