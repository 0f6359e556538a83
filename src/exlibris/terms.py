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
takes is a located error.  Tokens carry offsets only: a line and column are
worked out from the offset where one is read, for a syntax error or for the
first token of a statement.

Clauses are parsed by operator precedence over the token list in one loop.
Each construct still waiting for an operand (an operator, a parenthesis, an
argument list, a list or a list tail) is a frame on an explicit stack, so
nesting depth has no limit other than memory.  Terms are written the same
way: one loop over a stack of subterms, each with its precedence bound, and
the literal text between them.
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

_SYMBOL_CHARS = "+-*/\\^<>=~:?@#&$"
_SYMBOL_RUN = f"[{re.escape(_SYMBOL_CHARS)}]+"
# The atoms written without quotes: a word starting with a lowercase ASCII
# letter, a symbol-char run that does not open a comment, `[]`, `!` and `;`.
UNQUOTED_ATOM = rf"[a-z]\w*|(?!/\*){_SYMBOL_RUN}|\[\]|!|;"
_UNQUOTED = re.compile(UNQUOTED_ATOM)


class _Token(NamedTuple):
    kind: str  # atom | qatom | var | int | punct | end, and eof after the last
    text: str
    start: int
    end: int


# An opening quote and the longest run of valid atom text after it, and a
# full quoted atom.  The closing quote of a full atom must not start a
# doubled one, so `'a''b` cannot backtrack into `'a'`.
_QUOTED = r"'(?:[^'\\]|\\[\\'nt]|'')*"
QUOTED_ATOM = rf"{_QUOTED}'(?!')"

# One match per token: layout and comments first, then exactly one
# alternative.  `comment` is reached only by a block comment the layout could
# not close, and `bad` by anything no other alternative takes.
_TOKEN = re.compile(
    rf"""(?:[ \t\r\n]+|%[^\n]*|/\*.*?\*/)*
    (?:(?P<comment>/\*)
      |(?P<qatom>{QUOTED_ATOM})
      |(?P<int>\d+)
      |(?P<word>[^\W\d]\w*)
      |(?P<end>\.(?=[ \t\r\n%]|\Z))
      |(?P<atom>[;!.]|{_SYMBOL_RUN})
      |(?P<punct>[()\[\],|])
      |(?P<bad>.)
    )?""",
    re.VERBOSE | re.DOTALL,
)
_QUOTED_PREFIX = re.compile(_QUOTED)
_ESCAPE = re.compile(r"\\.|''")
_ESCAPES = {"\\\\": "\\", "\\'": "'", "\\n": "\n", "\\t": "\t", "''": "'"}


def _error(message: str, text: str, offset: int, path: str | None) -> TermSyntaxError:
    """A syntax error located at the 1-based line and column of `offset`."""
    line = text.count("\n", 0, offset) + 1
    return TermSyntaxError(message, line, offset - text.rfind("\n", 0, offset), path)


def _int_value(tok: _Token, text: str, path: str | None) -> int:
    """A decimal literal's value; one too long for `int` is a syntax error."""
    try:
        return int(tok.text)
    except ValueError:
        message = f"integer of {len(tok.text)} digits is too long"
        raise _error(message, text, tok.start, path) from None


def _tokenize(text: str, path: str | None) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while True:
        m = _TOKEN.match(text, pos)
        kind = m.lastgroup
        if kind is None:
            return tokens
        start, pos = m.span(kind)
        value = text[start:pos]
        if kind == "qatom":
            value = unquote_atom(value)
        elif kind == "word":
            first = value[0]
            if first.islower() and first.isalpha():
                kind = "atom"
            elif first == "_" or (first.isupper() and first.isalpha()):
                kind = "var"
            else:
                kind = "bad"
        if kind == "comment":
            raise _error("unterminated block comment", text, start, path)
        if kind == "bad":
            if value == "'":
                stop = _QUOTED_PREFIX.match(text, start).end()
                what = "unterminated" if stop == len(text) else "unknown escape in"
                raise _error(f"{what} quoted atom", text, start, path)
            raise _error(f"unexpected character {value[0]!r}", text, start, path)
        tokens.append(_Token(kind, value, start, pos))


def _starts_term(tok: _Token) -> bool:
    if tok.kind == "punct":
        return tok.text in "(["
    return tok.kind != "end" and tok.kind != "eof"


def _used_as_infix(tokens: list[_Token], i: int) -> bool:
    """Whether `tokens[i]` is an infix-only operator used as one: not a
    functor applied to an adjacent argument list, and followed by something
    that can be its right operand."""
    tok = tokens[i]
    if tok.kind != "atom" or tok.text not in INFIX_OPERATORS or tok.text in PREFIX_OPERATORS:
        return False
    after = tokens[i + 1]
    if after.kind == "punct" and after.text == "(" and after.start == tok.end:
        return False
    return _starts_term(after)


# Per infix operator: its precedence and the highest precedence its left and
# its right operand may have.
_INFIX = {
    name: (prec, prec if kind == "yfx" else prec - 1, prec if kind == "xfy" else prec - 1)
    for name, (prec, kind) in INFIX_OPERATORS.items()
}


def _parse_clause(tokens: list[_Token], i: int, text: str, path: str | None) -> tuple[Term, int]:
    """Read the clause starting at `tokens[i]` by operator precedence over
    the fixed table; return its term and the index after its end token.

    Each operator, parenthesis, argument list, list or list tail still
    waiting for an operand is a frame on an explicit stack, together with
    the precedence bound that was in force where it started, so nesting
    depth is bounded by memory only.  `tokens` ends in an `eof` token at the
    position of the last real one, where errors at end of input are
    reported; `text` is what the tokens were read from, to locate errors.
    """
    stack: list[tuple] = []
    bound = 1200  # the highest precedence the term being read may have
    while True:
        # One primary term; a construct that needs an operand opens a frame.
        tok = tokens[i]
        i += 1
        kind = tok.kind
        if kind == "atom" or kind == "qatom":
            nxt = tokens[i]
            if nxt.kind == "punct" and nxt.text == "(" and nxt.start == tok.end:
                stack.append(("args", bound, tok.text, []))
                bound = 999
                i += 1
                continue
            term = Atom(tok.text)
            if kind == "atom" and tok.text in PREFIX_OPERATORS:
                prec, op_kind = PREFIX_OPERATORS[tok.text]
                if tok.text == "-" and nxt.kind == "int" and nxt.start == tok.end:
                    term = Integer(-_int_value(nxt, text, path))
                    i += 1
                # a prefix-operator atom right before an infix operator is an
                # operand, as in `not:x`
                elif prec <= bound and _starts_term(nxt) and not _used_as_infix(tokens, i):
                    stack.append(("prefix", bound, tok.text, prec))
                    bound = prec if op_kind == "fy" else prec - 1
                    continue
        elif kind == "int":
            term = Integer(_int_value(tok, text, path))
        elif kind == "var":
            term = Variable(tok.text)
        elif kind != "punct":
            raise _error("expected a term", text, tok.start, path)
        elif tok.text == "(":
            stack.append(("paren", bound))
            bound = 1200
            continue
        elif tok.text != "[":
            raise _error(f"unexpected {tok.text!r}", text, tok.start, path)
        elif tokens[i].kind == "punct" and tokens[i].text == "]":
            term = EMPTY_LIST
            i += 1
        else:
            stack.append(("list", bound, []))
            bound = 999
            continue
        prec = 0
        # Extend the term by infix operators while the bound allows, then hand
        # it to the innermost frame; a frame that needs another operand goes
        # back to reading a primary term.
        while True:
            tok = tokens[i]
            if tok.text in _INFIX and tok.kind != "qatom":
                op_prec, left_max, right_max = _INFIX[tok.text]
                if prec <= left_max and op_prec <= bound:
                    stack.append(("infix", bound, tok.text, term, op_prec))
                    bound = right_max
                    i += 1
                    break
            if not stack:
                if tok.kind != "end":
                    raise _error("expected '.' at end of term", text, tok.start, path)
                return term, i + 1
            frame = stack[-1]
            tag = frame[0]
            if tag == "infix":
                term = Compound(frame[2], (frame[3], term))
                prec = frame[4]
            elif tag == "prefix":
                term = Compound(frame[2], (term,))
                prec = frame[3]
            else:
                i += 1
                prec = 0
                punct = tok.kind == "punct"
                if tag == "paren":
                    if not punct or tok.text != ")":
                        raise _error("expected ')'", text, tok.start, path)
                elif tag == "args":
                    frame[3].append(term)
                    if punct and tok.text == ",":
                        bound = 999
                        break
                    if not punct or tok.text != ")":
                        raise _error("expected ',' or ')' in argument list", text, tok.start, path)
                    term = Compound(frame[2], tuple(frame[3]))
                elif tag == "list":
                    frame[2].append(term)
                    if not punct or tok.text not in ",|]":
                        raise _error("expected ',', '|' or ']' in list", text, tok.start, path)
                    if tok.text != "]":
                        if tok.text == "|":
                            stack[-1] = ("tail", frame[1], frame[2])
                        bound = 999
                        break
                    term = make_list(frame[2])
                else:  # list tail
                    if not punct or tok.text != "]":
                        raise _error("expected ']' after list tail", text, tok.start, path)
                    term = make_list(frame[2], term)
            stack.pop()
            bound = frame[1]


def read_terms(text: str, path: str | None = None) -> list[SourceTerm]:
    """Read every clause and directive of a file, in file order.

    Comments and layout are skipped but remain addressable through the
    returned spans.  Raises TermSyntaxError at the first offending token;
    unterminated quoted atoms and block comments are reported at their
    opening position, and a term cut short by the end of input at the last
    token.
    """
    tokens = _tokenize(text, path)
    out: list[SourceTerm] = []
    if not tokens:
        return out
    tokens.append(tokens[-1]._replace(kind="eof", text=""))
    i = 0
    line, line_start = 1, 0  # of the previous statement's first token
    while tokens[i].kind != "eof":
        start = tokens[i].start
        newline = text.rfind("\n", line_start, start)
        if newline >= 0:
            line += text.count("\n", line_start, newline + 1)
            line_start = newline + 1
        term, i = _parse_clause(tokens, i, text, path)
        span = Span(start, tokens[i - 1].end, line, start - line_start + 1)
        out.append(SourceTerm(term, span))
    return out


def read_term(text: str, path: str | None = None) -> Term:
    """Read exactly one term; the terminating period is optional."""
    tokens = _tokenize(text, path)
    if not tokens or tokens[-1].kind != "end":
        text += "\n."  # on a line of its own, out of reach of a trailing % comment
    terms = read_terms(text, path)
    if len(terms) != 1:
        raise TermSyntaxError("expected exactly one term", 1, 1, path)
    return terms[0].term


def atom_text(name: str) -> str:
    """The written form of an atom, quoted exactly when re-reading needs it:
    a symbol-char run is quoted when it starts with `/*`, which would open a
    comment."""
    if _UNQUOTED.fullmatch(name):
        return name
    escaped = name.replace("\\", "\\\\").replace("'", "\\'")
    escaped = escaped.replace("\n", "\\n").replace("\t", "\\t")
    return f"'{escaped}'"


def unquote_atom(text: str) -> str:
    """The name a quoted atom reads as, from its written form with quotes."""
    return _ESCAPE.sub(lambda e: _ESCAPES[e.group()], text[1:-1])


def _emit(buf: list[str], piece: str):
    if buf and piece:
        a, b = buf[-1][-1], piece[0]
        symbolic = a in _SYMBOL_CHARS and b in _SYMBOL_CHARS
        wordy = (a.isalnum() or a == "_") and (b.isalnum() or b == "_")
        if symbolic or wordy:
            buf.append(" ")
    buf.append(piece)


_OPERATOR_ATOMS = frozenset(PREFIX_OPERATORS) | frozenset(INFIX_OPERATORS)


def _render(term: Term, max_prec: int) -> str:
    """Canonical compact text of `term` at precedence bound `max_prec`.

    Written over an explicit stack of (term, bound) pairs and literal text,
    so nesting depth has no limit.  An atom that is itself an operator is
    bracketed as an operand, so `:-`(not, x) prints as (not):-x and reads
    back unambiguously.
    """
    buf: list[str] = []
    stack: list = [(term, max_prec)]  # terms to write and literal text, last first
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            _emit(buf, item)
            continue
        term, bound = item
        if isinstance(term, Atom):
            _emit(buf, atom_text(term.name))
        elif isinstance(term, Integer):
            _emit(buf, str(term.value))
        elif isinstance(term, Variable):
            _emit(buf, term.name)
        elif term.name == "." and term.arity == 2:
            items, tail = list_parts(term)
            parts = [part for elem in reversed(items) for part in (",", (elem, 999))]
            stack.append("]")
            if tail != EMPTY_LIST:
                stack += (tail, 999), "|"
            stack += (*parts[1:], "[")
        elif term.arity == 2 and term.name in INFIX_OPERATORS:
            prec, kind = INFIX_OPERATORS[term.name]
            left_max = prec - 1 if kind in ("xfx", "xfy") else prec
            right_max = prec if kind == "xfy" else prec - 1
            left, right = (
                f"({atom_text(arg.name)})"
                if isinstance(arg, Atom) and arg.name in _OPERATOR_ATOMS
                else (arg, arg_max)
                for arg, arg_max in zip(term.args, (left_max, right_max))
            )
            parts = (right, term.name, left)
            stack += (")", *parts, "(") if prec > bound else parts
        else:
            parts = [part for arg in reversed(term.args) for part in (",", (arg, 999))]
            stack += (")", *parts[1:], "(", atom_text(term.name))
    return "".join(buf)


def render_term(term: Term) -> str:
    """Canonical compact text; reading it back yields an equal term."""
    return _render(term, 1200)


def render_clause(term: Term) -> str:
    """One clause as a source line, period included, as export writes the
    `:- ElseCall.` that replaces a pruned `if_pl/3` directive.

    Directives render as `:- body.`; a plain compound head gets a single
    space inside its parentheses with `, `-separated arguments, while the
    nested arguments stay compact.
    """
    prefix, bound = "", 1200
    if isinstance(term, Compound) and term.name == ":-" and term.arity == 1:
        prefix, bound, term = ":- ", 1199, term.args[0]
    if isinstance(term, Compound) and not (
        term.arity == 2 and (term.name == "." or term.name in INFIX_OPERATORS)
    ):
        args = ", ".join(_render(arg, 999) for arg in term.args)
        return f"{prefix}{atom_text(term.name)}( {args} )."
    return f"{prefix}{_render(term, bound)}."


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
