"""Engine identities and the engine-condition language.

An engine is named by a pl-term such as `sicstus(3:9:0)`: functor = engine
name, argument = a `:`-chain version.  Conditions over engines come from
`defines`, `index/5`, and `if_pl` and are one of: the universal `all`/`any`,
a name+version pattern with `_` wildcards, `not(...)`, a list (disjunction),
or the pair form `(Name, [(Version, Op), ...])` whose comparisons are
conjunctive.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence, Union

from .errors import ExlibrisError
from .terms import (
    Atom,
    Compound,
    Integer,
    Term,
    Variable,
    is_proper_list,
    list_parts,
    make_list,
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

COMPARISON_OPS = ("=", "\\=", "<", "=<", ">", ">=")


def compare_versions(a: Sequence[int], b: Sequence[int]) -> int:
    """Component-wise comparison; a strict prefix sorts before its extension.

    Returns -1, 0, or 1.
    """
    at, bt = tuple(a), tuple(b)
    if not at or not bt:
        raise ValueError("versions must have at least one component")
    if at < bt:
        return -1
    if at > bt:
        return 1
    return 0


def _decode_chain(term: Term, what: str, wildcards: bool) -> tuple:
    """Decode a right-nested `:`-chain of integers (and `_` if allowed)."""
    components: list[int | None] = []
    while True:
        if isinstance(term, Compound) and term.name == ":" and term.arity == 2:
            components.append(_decode_component(term.args[0], what, wildcards))
            term = term.args[1]
        else:
            components.append(_decode_component(term, what, wildcards))
            return tuple(components)


def _decode_component(term: Term, what: str, wildcards: bool):
    if isinstance(term, Integer) and term.value >= 0:
        return term.value
    if isinstance(term, Variable):
        if wildcards and term.is_anonymous:
            return None
        raise EngineConditionError(
            f"named variables have no meaning in {what}: {render_term(term)}"
        )
    raise EngineConditionError(f"bad version component in {what}: {render_term(term)}")


def parse_if_pls(term: Term) -> IfPls:
    """Decode a condition term; list elements are disjunctive alternatives."""
    if isinstance(term, Atom):
        if term.name in ("all", "any"):
            return ALWAYS
        if term.name == "[]":
            raise EngineConditionError("empty condition list")
        raise EngineConditionError(f"not an engine condition: {render_term(term)}")
    if isinstance(term, Compound):
        if term.name == "." and term.arity == 2:
            items, tail = list_parts(term)
            if tail != Atom("[]"):
                raise EngineConditionError(
                    f"condition list has a non-list tail: {render_term(term)}"
                )
            return Disjunction(tuple(parse_if_pls(item) for item in items))
        if term.name == "not" and term.arity == 1:
            return Negation(parse_if_pls(term.args[0]))
        if term.name == "," and term.arity == 2:
            return _parse_constrained(term)
        if term.arity == 1 and _NAME_RE.match(term.name):
            pattern = _decode_chain(term.args[0], "a version pattern", wildcards=True)
            return EnginePattern(term.name, pattern)
    raise EngineConditionError(f"not an engine condition: {render_term(term)}")


def _parse_constrained(term: Compound) -> Constrained:
    name_term, conds_term = term.args
    if not (isinstance(name_term, Atom) and _NAME_RE.match(name_term.name)):
        raise EngineConditionError(
            f"pair condition needs an engine name first: {render_term(term)}"
        )
    if not is_proper_list(conds_term):
        raise EngineConditionError(
            f"pair condition needs a list of (version, op) pairs: {render_term(term)}"
        )
    conds = []
    for pair in list_parts(conds_term)[0]:
        if not (isinstance(pair, Compound) and pair.name == "," and pair.arity == 2):
            raise EngineConditionError(f"not a (version, op) pair: {render_term(pair)}")
        version = _decode_chain(pair.args[0], "a version constraint", wildcards=False)
        op = pair.args[1]
        if not (isinstance(op, Atom) and op.name in COMPARISON_OPS):
            raise EngineConditionError(f"unknown comparison: {render_term(op)}")
        conds.append((version, op.name))
    return Constrained(name_term.name, tuple(conds))


def _chain_term(components: Sequence[int | None]) -> Term:
    parts: list[Term] = [
        Variable("_") if c is None else Integer(c) for c in components
    ]
    term = parts[-1]
    for part in reversed(parts[:-1]):
        term = Compound(":", (part, term))
    return term


def cond_to_term(cond: IfPls) -> Term:
    """The canonical term form; Always surfaces as `any`."""
    if isinstance(cond, Always):
        return Atom("any")
    if isinstance(cond, EnginePattern):
        return Compound(cond.name, (_chain_term(cond.pattern),))
    if isinstance(cond, Negation):
        return Compound("not", (cond_to_term(cond.inner),))
    if isinstance(cond, Constrained):
        pairs = [
            Compound(",", (_chain_term(v), Atom(op))) for v, op in cond.conds
        ]
        return Compound(",", (Atom(cond.name), make_list(pairs)))
    if isinstance(cond, Disjunction):
        return make_list([cond_to_term(item) for item in cond.items])
    raise TypeError(f"not a condition: {cond!r}")


def render_cond(cond: IfPls) -> str:
    return render_term(cond_to_term(cond))


def _holds(ordering: int, op: str) -> bool:
    if op == "=":
        return ordering == 0
    if op == "\\=":
        return ordering != 0
    if op == "<":
        return ordering < 0
    if op == "=<":
        return ordering <= 0
    if op == ">":
        return ordering > 0
    return ordering >= 0


def matches(cond: IfPls, engine: PlId) -> bool:
    """Whether the engine satisfies the condition.

    Pattern components constrain only the positions they name: a wildcard
    absorbs whatever the engine has (or lacks) there, while a concrete
    component requires the engine to have an equal component at that
    position.
    """
    if isinstance(cond, Always):
        return True
    if isinstance(cond, EnginePattern):
        if cond.name != engine.name:
            return False
        for i, component in enumerate(cond.pattern):
            if component is None:
                continue
            if i >= len(engine.version) or engine.version[i] != component:
                return False
        return True
    if isinstance(cond, Negation):
        return not matches(cond.inner, engine)
    if isinstance(cond, Constrained):
        if cond.name != engine.name:
            return False
        return all(
            _holds(compare_versions(engine.version, version), op)
            for version, op in cond.conds
        )
    if isinstance(cond, Disjunction):
        return any(matches(item, engine) for item in cond.items)
    raise TypeError(f"not a condition: {cond!r}")


def conjoin(a: IfPls, b: IfPls) -> IfPls:
    """Conjunction expressed inside the condition language itself."""
    if isinstance(a, Always):
        return b
    if isinstance(b, Always):
        return a
    return Negation(Disjunction((Negation(a), Negation(b))))


def always_true(cond: IfPls) -> bool:
    """Syntactic check: true for every conceivable engine."""
    if isinstance(cond, Always):
        return True
    if isinstance(cond, Disjunction):
        return any(always_true(item) for item in cond.items)
    if isinstance(cond, Negation):
        return never_true(cond.inner)
    return False


def never_true(cond: IfPls) -> bool:
    """Syntactic check: false for every conceivable engine."""
    if isinstance(cond, Negation):
        return always_true(cond.inner)
    if isinstance(cond, Disjunction):
        return all(never_true(item) for item in cond.items)
    return False


def could_match_any(cond: IfPls) -> bool:
    """Over-approximate satisfiability, used when targeting all engines."""
    return not never_true(cond)


def can_match(cond: IfPls, engines: Sequence[PlId] | None) -> bool:
    """Whether a guard can hold on one of the engines; engines=None means all."""
    if engines is None:
        return could_match_any(cond)
    return any(matches(cond, engine) for engine in engines)
