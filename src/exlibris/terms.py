"""Reading, rendering, and splicing of logic-program terms.

The term language is the practical subset needed for directive analysis:
plain and quoted atoms, integers, variables, compounds, and list sugar.
A fixed operator table drives both parsing and rendering, so canonical
output always re-reads to a structurally identical term.  Every term read
from a file carries a source span covering its text up to and including
the terminating period, which is what makes comment-preserving rewrites
possible.

Tokens are read by one compiled pattern, one match per token: the match
skips layout and comments, then takes exactly one alternative (quoted atom,
integer, word, end, symbol atom, punctuation), and anything no alternative
takes is a located error.  Lines and columns come from counting newlines
between consecutive tokens.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import ExlibrisError


class TermSyntaxError(ExlibrisError):
    """Unparsable source text, located at the first offending token."""

    def __init__(self, message: str, line: int, col: int, path: str | None = None):
        self.line = line
        self.col = col
        self.path = path
        where = f"{path}:{line}:{col}" if path else f"line {line}, column {col}"
        super().__init__(f"{where}: {message}")


class SpliceError(ExlibrisError):
    """Splice received overlapping or out-of-range edit spans."""


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Integer:
    value: int


@dataclass(frozen=True)
class Variable:
    """A structural placeholder; `_` is anonymous, never bound."""

    name: str

    @property
    def is_anonymous(self) -> bool:
        return self.name == "_"


@dataclass(frozen=True)
class Compound:
    name: str
    args: tuple["Term", ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if not self.args:
            raise ValueError("compound terms need at least one argument; use Atom")

    @property
    def arity(self) -> int:
        return len(self.args)


Term = Union[Atom, Integer, Variable, Compound]

EMPTY_LIST = Atom("[]")


def make_list(items: Iterable[Term], tail: Term = EMPTY_LIST) -> Term:
    """Build the nested `'.'/2` cell chain for a surface list."""
    result = tail
    for item in reversed(list(items)):
        result = Compound(".", (item, result))
    return result


def list_parts(term: Term) -> tuple[list[Term], Term]:
    """Split a cell chain into (items, tail); the tail is `[]` for proper lists."""
    items: list[Term] = []
    while isinstance(term, Compound) and term.name == "." and term.arity == 2:
        items.append(term.args[0])
        term = term.args[1]
    return items, term


def is_proper_list(term: Term) -> bool:
    return list_parts(term)[1] == EMPTY_LIST


@dataclass(frozen=True)
class Span:
    """Character range of one term in its file, including the period.

    `start`/`end` are offsets into the file text; `line`/`col` are the
    1-based position of the first token.  A zero-length span marks an
    insertion point for splice.
    """

    start: int
    end: int
    line: int
    col: int


@dataclass(frozen=True)
class SourceTerm:
    term: Term
    span: Span


# Fixed operator table; immutable for the life of the process.  `:` sits low
# so version chains like 3:9:0 read as :(3, :(9, 0)), and `-` exists only to
# give negative integer literals a reading.
PREFIX_OPERATORS: dict[str, tuple[int, str]] = {
    ":-": (1200, "fx"),
    "not": (900, "fy"),
    "-": (200, "fy"),
}

INFIX_OPERATORS: dict[str, tuple[int, str]] = {
    ":-": (1200, "xfx"),
    ";": (1100, "xfy"),
    "->": (1050, "xfy"),
    ",": (1000, "xfy"),
    "=": (700, "xfx"),
    "\\=": (700, "xfx"),
    "==": (700, "xfx"),
    "\\==": (700, "xfx"),
    "<": (700, "xfx"),
    ">": (700, "xfx"),
    "=<": (700, "xfx"),
    ">=": (700, "xfx"),
    "/": (400, "yfx"),
    ":": (200, "xfy"),
}

_SYMBOL_CHARS = frozenset("+-*/\\^<>=~:?@#&$")


class _Token(NamedTuple):
    kind: str  # atom | qatom | var | int | punct | end
    text: str
    start: int
    end: int
    line: int
    col: int


# An opening quote and the longest run of valid atom text after it.  The
# closing quote of a full atom must not start a doubled one, so `'a''b`
# cannot backtrack into `'a'`.
_QUOTED = r"'(?:[^'\\]|\\[\\'nt]|'')*"

# One match per token: layout and comments first, then exactly one
# alternative.  `comment` is reached only by a block comment the layout could
# not close, and `bad` by anything no other alternative takes.
_TOKEN = re.compile(
    rf"""(?:[ \t\r\n]+|%[^\n]*|/\*.*?\*/)*
    (?:(?P<comment>/\*)
      |(?P<qatom>{_QUOTED}'(?!'))
      |(?P<int>\d+)
      |(?P<word>[^\W\d]\w*)
      |(?P<end>\.(?=[ \t\r\n%]|\Z))
      |(?P<atom>[;!.]|[+\-*/\\^<>=~:?@#&$]+)
      |(?P<punct>[()\[\],|])
      |(?P<bad>.)
    )?""",
    re.VERBOSE | re.DOTALL,
)
_QUOTED_PREFIX = re.compile(_QUOTED)
_ESCAPE = re.compile(r"\\.|''")
_ESCAPES = {"\\\\": "\\", "\\'": "'", "\\n": "\n", "\\t": "\t", "''": "'"}


def _tokenize(text: str, path: str | None) -> list[_Token]:
    tokens: list[_Token] = []
    pos = last = line_start = 0
    line = 1
    while True:
        m = _TOKEN.match(text, pos)
        kind = m.lastgroup
        if kind is None:
            return tokens
        start, pos = m.span(kind)
        newline = text.rfind("\n", last, start)
        if newline >= 0:
            line += text.count("\n", last, newline + 1)
            line_start = newline + 1
        last = start
        col = start - line_start + 1
        value = text[start:pos]
        if kind == "qatom":
            value = _ESCAPE.sub(lambda e: _ESCAPES[e.group()], value[1:-1])
        elif kind == "word":
            first = value[0]
            if first.islower() and first.isalpha():
                kind = "atom"
            elif first == "_" or (first.isupper() and first.isalpha()):
                kind = "var"
            else:
                kind = "bad"
        if kind == "comment":
            raise TermSyntaxError("unterminated block comment", line, col, path)
        if kind == "bad":
            if value == "'":
                stop = _QUOTED_PREFIX.match(text, start).end()
                what = "unterminated" if stop == len(text) else "unknown escape in"
                raise TermSyntaxError(f"{what} quoted atom", line, col, path)
            raise TermSyntaxError(f"unexpected character {value[0]!r}", line, col, path)
        tokens.append(_Token(kind, value, start, pos, line, col))


class _Parser:
    """Operator-precedence parser over the fixed table."""

    def __init__(self, tokens: list[_Token], path: str | None):
        self.tokens = tokens
        self.path = path
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token | None:
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def error(self, message: str, tok: _Token | None = None):
        if tok is None:
            tok = self.peek()
        if tok is None:
            if self.tokens:
                last = self.tokens[-1]
                raise TermSyntaxError(message, last.line, last.col, self.path)
            raise TermSyntaxError(message, 1, 1, self.path)
        raise TermSyntaxError(message, tok.line, tok.col, self.path)

    def parse_clause(self) -> tuple[Term, _Token, _Token]:
        first = self.peek()
        if first is None:
            self.error("expected a term")
        term, _ = self.parse(1200)
        end = self.peek()
        if end is None or end.kind != "end":
            self.error("expected '.' at end of term")
        self.next()
        return term, first, end

    def parse(self, max_prec: int) -> tuple[Term, int]:
        left, left_prec = self.parse_operand(max_prec)
        while True:
            tok = self.peek()
            if tok is None:
                break
            if tok.kind == "punct" and tok.text == ",":
                name = ","
            elif tok.kind == "atom" and tok.text in INFIX_OPERATORS:
                name = tok.text
            else:
                break
            prec, kind = INFIX_OPERATORS[name]
            if prec > max_prec:
                break
            if kind in ("xfx", "xfy") and left_prec >= prec:
                break
            if kind == "yfx" and left_prec > prec:
                break
            self.next()
            right_max = prec if kind == "xfy" else prec - 1
            right, _ = self.parse(right_max)
            left = Compound(name, (left, right))
            left_prec = prec
        return left, left_prec

    def parse_operand(self, max_prec: int) -> tuple[Term, int]:
        tok = self.peek()
        if tok is None:
            self.error("expected a term")
        if tok.kind == "punct":
            if tok.text == "(":
                self.next()
                term, _ = self.parse(1200)
                close = self.next()
                if close is None or close.text != ")":
                    self.error("expected ')'", close)
                return term, 0
            if tok.text == "[":
                return self.parse_list(), 0
            self.error(f"unexpected {tok.text!r}")
        if tok.kind == "int":
            self.next()
            return Integer(int(tok.text)), 0
        if tok.kind == "var":
            self.next()
            return Variable(tok.text), 0
        if tok.kind in ("atom", "qatom"):
            self.next()
            nxt = self.peek()
            if (
                nxt is not None
                and nxt.kind == "punct"
                and nxt.text == "("
                and nxt.start == tok.end
            ):
                self.next()
                args = self.parse_args()
                return Compound(tok.text, tuple(args)), 0
            if tok.kind == "atom" and tok.text in PREFIX_OPERATORS:
                prec, kind = PREFIX_OPERATORS[tok.text]
                if (
                    tok.text == "-"
                    and nxt is not None
                    and nxt.kind == "int"
                    and nxt.start == tok.end
                ):
                    self.next()
                    return Integer(-int(nxt.text)), 0
                # a prefix-operator atom right before an infix operator is an
                # operand, as in `not:x`
                if (
                    prec <= max_prec
                    and self.can_start_term(nxt)
                    and not self.next_is_infix_usage()
                ):
                    operand_max = prec if kind == "fy" else prec - 1
                    operand, _ = self.parse(operand_max)
                    return Compound(tok.text, (operand,)), prec
            return Atom(tok.text), 0
        self.error("expected a term")

    def next_is_infix_usage(self) -> bool:
        """Whether the upcoming token is an infix-only operator used as one:
        not a functor applied to an adjacent argument list, and followed by
        something that can be its right operand."""
        tok = self.peek()
        if (
            tok is None
            or tok.kind != "atom"
            or tok.text not in INFIX_OPERATORS
            or tok.text in PREFIX_OPERATORS
        ):
            return False
        after = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
        if (
            after is not None
            and after.kind == "punct"
            and after.text == "("
            and after.start == tok.end
        ):
            return False
        return self.can_start_term(after)

    def can_start_term(self, tok: _Token | None) -> bool:
        if tok is None or tok.kind == "end":
            return False
        if tok.kind == "punct":
            return tok.text in "(["
        return True

    def parse_args(self) -> list[Term]:
        args = [self.parse(999)[0]]
        while True:
            tok = self.next()
            if tok is not None and tok.kind == "punct" and tok.text == ",":
                args.append(self.parse(999)[0])
            elif tok is not None and tok.kind == "punct" and tok.text == ")":
                return args
            else:
                self.error("expected ',' or ')' in argument list", tok)

    def parse_list(self) -> Term:
        self.next()  # consume '['
        tok = self.peek()
        if tok is not None and tok.kind == "punct" and tok.text == "]":
            self.next()
            return EMPTY_LIST
        items = [self.parse(999)[0]]
        tail: Term = EMPTY_LIST
        while True:
            tok = self.next()
            if tok is None or tok.kind != "punct":
                self.error("expected ',', '|' or ']' in list", tok)
            if tok.text == ",":
                items.append(self.parse(999)[0])
            elif tok.text == "|":
                tail = self.parse(999)[0]
                close = self.next()
                if close is None or close.kind != "punct" or close.text != "]":
                    self.error("expected ']' after list tail", close)
                break
            elif tok.text == "]":
                break
            else:
                self.error("expected ',', '|' or ']' in list", tok)
        return make_list(items, tail)


def read_terms(text: str, path: str | None = None) -> list[SourceTerm]:
    """Read every clause and directive of a file, in file order.

    Comments and layout are skipped but remain addressable through the
    returned spans.  Raises TermSyntaxError at the first offending token;
    unterminated quoted atoms and block comments are reported at their
    opening position.
    """
    parser = _Parser(_tokenize(text, path), path)
    out: list[SourceTerm] = []
    while parser.peek() is not None:
        term, first, end = parser.parse_clause()
        out.append(SourceTerm(term, Span(first.start, end.end, first.line, first.col)))
    return out


def read_term(text: str, path: str | None = None) -> Term:
    """Read exactly one term; the terminating period is optional."""
    stripped = text.rstrip()
    if not stripped.endswith("."):
        text = stripped + " ."
    terms = read_terms(text, path)
    if len(terms) != 1:
        raise TermSyntaxError("expected exactly one term", 1, 1, path)
    return terms[0].term


_UNQUOTED_ALPHA = "abcdefghijklmnopqrstuvwxyz"


def atom_text(name: str) -> str:
    """The written form of an atom, quoted exactly when re-reading needs it."""
    if name and name[0] in _UNQUOTED_ALPHA:
        if all(c.isalnum() or c == "_" for c in name):
            return name
    if name and all(c in _SYMBOL_CHARS for c in name):
        return name
    if name in ("[]", "!", ";"):
        return name
    escaped = name.replace("\\", "\\\\").replace("'", "\\'")
    escaped = escaped.replace("\n", "\\n").replace("\t", "\\t")
    return f"'{escaped}'"


def _emit(buf: list[str], piece: str):
    if buf and piece:
        a, b = buf[-1][-1], piece[0]
        symbolic = a in _SYMBOL_CHARS and b in _SYMBOL_CHARS
        wordy = (a.isalnum() or a == "_") and (b.isalnum() or b == "_")
        if symbolic or wordy:
            buf.append(" ")
    buf.append(piece)


def _render(term: Term, buf: list[str], max_prec: int):
    if isinstance(term, Atom):
        _emit(buf, atom_text(term.name))
        return
    if isinstance(term, Integer):
        _emit(buf, str(term.value))
        return
    if isinstance(term, Variable):
        _emit(buf, term.name)
        return
    if term.name == "." and term.arity == 2:
        _emit(buf, "[")
        items, tail = list_parts(term)
        for i, item in enumerate(items):
            if i:
                buf.append(",")
            _render(item, buf, 999)
        if tail != EMPTY_LIST:
            buf.append("|")
            _render(tail, buf, 999)
        buf.append("]")
        return
    if term.arity == 2 and term.name in INFIX_OPERATORS:
        prec, kind = INFIX_OPERATORS[term.name]
        wrap = prec > max_prec
        if wrap:
            buf.append("(")
        left_max = prec - 1 if kind in ("xfx", "xfy") else prec
        right_max = prec if kind == "xfy" else prec - 1
        _render_operand(term.args[0], buf, left_max)
        _emit(buf, term.name)
        _render_operand(term.args[1], buf, right_max)
        if wrap:
            buf.append(")")
        return
    _emit(buf, atom_text(term.name))
    buf.append("(")
    for i, arg in enumerate(term.args):
        if i:
            buf.append(",")
        _render(arg, buf, 999)
    buf.append(")")


_OPERATOR_ATOMS = frozenset(PREFIX_OPERATORS) | frozenset(INFIX_OPERATORS)


def _render_operand(child: Term, buf: list[str], child_max: int):
    """An atom that is itself an operator is bracketed as an operand, so
    `:-`(not, x) prints as (not):-x and reads back unambiguously."""
    if isinstance(child, Atom) and child.name in _OPERATOR_ATOMS:
        buf.append("(")
        _emit(buf, atom_text(child.name))
        buf.append(")")
        return
    _render(child, buf, child_max)


def render_term(term: Term) -> str:
    """Canonical compact text; reading it back yields an equal term."""
    buf: list[str] = []
    _render(term, buf, 1200)
    return "".join(buf)


def render_clause(term: Term) -> str:
    """One source line in index-file house style, period included.

    Directives render as `:- body.`; a plain compound head gets a single
    space inside its parentheses with `, `-separated arguments, while the
    nested arguments stay compact.
    """
    if isinstance(term, Compound) and term.name == ":-" and term.arity == 1:
        return f":- {_clause_body(term.args[0], 1199)}."
    return f"{_clause_body(term, 1200)}."


def _clause_body(term: Term, max_prec: int) -> str:
    if (
        isinstance(term, Compound)
        and not (term.name == "." and term.arity == 2)
        and not (term.arity == 2 and term.name in INFIX_OPERATORS)
    ):
        args = ", ".join(_arg_text(arg) for arg in term.args)
        return f"{atom_text(term.name)}( {args} )"
    buf: list[str] = []
    _render(term, buf, max_prec)
    return "".join(buf)


def _arg_text(arg: Term) -> str:
    buf: list[str] = []
    _render(arg, buf, 999)
    return "".join(buf)


def splice(text: str, edits: Sequence[tuple[Span, str]]) -> str:
    """Apply replacement edits to file text.

    Spans must be pairwise non-overlapping and in range; bytes outside the
    edit spans are preserved exactly.  Zero-length spans insert.
    """
    ordered = sorted(edits, key=lambda e: (e[0].start, e[0].end))
    out: list[str] = []
    cursor = 0
    for span, replacement in ordered:
        if span.start < 0 or span.end > len(text) or span.start > span.end:
            raise SpliceError(f"edit span {span.start}..{span.end} out of range")
        if span.start < cursor:
            raise SpliceError(f"overlapping edit at offset {span.start}")
        out.append(text[cursor : span.start])
        out.append(replacement)
        cursor = span.end
    out.append(text[cursor:])
    return "".join(out)
