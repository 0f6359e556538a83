"""Reading, rendering, and splicing of logic-program terms.

The term language is the practical subset needed for directive analysis:
plain and quoted atoms, integers, variables, compounds, and list sugar.
A fixed operator table drives both parsing and rendering, so canonical
output always re-reads to a structurally identical term.  Every term read
from a file carries a source span covering its text up to and including
the terminating period, which is what makes comment-preserving rewrites
possible.

Only `split_statements` finds where statements end, in one lexical pass,
one pattern match per statement: it knows quoted atoms, strings,
back-quoted text, `0'c` codes, comments and symbol-char runs, so a `.`
inside any of them ends nothing, and it reports an unterminated quote or
block comment before any statement is parsed.  The index reader and
`directives.read_directives` add one alternative each (`statement_pattern`),
a fact as `mkindex` writes it and a `defines`, `module` or `requires`
declaration as libraries are generated, each decoded from its match by its
reader, a condition only if `canonical_argument` reads it.  The directive
reader may add a second, which takes a run of clauses in one match, so
none of them is seen at all.
`parse_statements` parses others in place, so every reader gives the same
spans, ends and errors: `read_directives` those whose first token is `:-`
or `library_directory`, less the `:-` ones whose next token is an unquoted
atom its caller names, the index reader those its own alternative leaves,
and `read_term`, with `_parse` alone, each statement of its one text.

Tokens are read inside one statement only, by one compiled pattern, one
match per token: the match skips layout and comments, then takes exactly
one alternative (word, punctuation, quoted atom, character code, integer,
end, symbol atom), and anything no alternative takes is a located error.
The splitter is built from the same comment, code, end and symbol-run
patterns.  Tokens carry offsets only: a line and column are worked out
from the offset where one is read, for a syntax error or for the first
token of a statement.

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
    term: Term  # or what its reader decoded the statement to in place of one
    span: Span


# Fixed operator table; immutable for the life of the process.  `:` sits low
# so version chains like 3:9:0 read as :(3, :(9, 0)), and `-` exists only to
# give negative integer literals a reading.  The declaration prefixes are
# those SWI, SICStus and YAP share, and `//` is ISO's, for `Name//Arity`.
PREFIX_OPERATORS: dict[str, tuple[int, str]] = {
    ":-": (1200, "fx"),
    "dynamic": (1150, "fx"),
    "meta_predicate": (1150, "fx"),
    "multifile": (1150, "fx"),
    "discontiguous": (1150, "fx"),
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
    "//": (400, "yfx"),
    ":": (200, "xfy"),
}

# atoms written bracketed as operands, here and by `engines.render_cond`
OPERATOR_ATOMS = frozenset(PREFIX_OPERATORS) | frozenset(INFIX_OPERATORS)

_SYMBOL_CHARS = "+-*/\\^<>=~:?@#&$"
# A symbol-char run as both lexers read it.  As in ISO, `.` is a symbol char,
# so `=..` is one atom and the `.` of `+.` ends nothing; at the start of a
# token an end `.` and a `/*` are taken before this.
_SYMBOL_RUN = f"[{re.escape(_SYMBOL_CHARS)}.]+"
# The atoms written without quotes: a word starting with a lowercase ASCII
# letter, a run of symbol chars other than `.` that does not open a comment,
# `[]`, `!` and `;`.
UNQUOTED_ATOM = rf"[a-z]\w*|(?!/\*)[{re.escape(_SYMBOL_CHARS)}]+|\[\]|!|;"
_UNQUOTED = re.compile(UNQUOTED_ATOM)


class _Token(NamedTuple):
    kind: str  # atom | qatom | var | int | punct | end, and eof after the last
    text: str
    start: int
    end: int


# A quoted atom with the escapes `unquote_atom` knows.  The closing quote
# must not start a doubled one, so `'a''b` cannot backtrack into `'a'`.
QUOTED_ATOM = r"'(?:[^'\\]|\\[\\'nt]|'')*'(?!')"

_LINE_COMMENT = r"%[^\n]*"
_BLOCK_COMMENT = r"/\*.*?\*/"
LAYOUT = rf"[ \t\r\n]*(?:(?:{_LINE_COMMENT}|{_BLOCK_COMMENT})[ \t\r\n]*)*"
_END = r"\.(?=[ \t\r\n%]|\Z)"


def _atomic(name: str, pattern: str) -> str:
    """`pattern` taken whole or not at all, as `(?>...)`, which Python 3.10
    lacks, takes it: inside a lookahead, which never backtracks, as group
    `name`, then by a backreference to it."""
    return rf"(?=(?P<{name}>{pattern}))(?P={name})"


def _escape(name: str) -> str:
    """A backslash escape as the splitter reads it: `\\x41\\`, `\\101\\` or
    one character, taken atomically, so an unterminated quote is given up
    in one pass."""
    return _atomic(name, r"\\(?:x[0-9a-fA-F]*\\|[0-7]+\\|.)")


def _code(name: str) -> str:
    """A character code as both lexers take it: `0'` and one character, a
    doubled quote or a backslash escape."""
    return rf"0'(?:''|{_escape(name)}|.)"


# One match per token: layout and comments first, then exactly one
# alternative, the most frequent first; `bad` is reached by anything no
# other alternative takes.  Only `code` before `int` and `end` before `atom`
# can overlap.  A block comment or quote that does not end is never seen
# here: the splitter reports it before any statement is tokenized.
_TOKEN = re.compile(
    rf"""{LAYOUT}
    (?:(?P<word>[^\W\d]\w*)
      |(?P<punct>[()\[\],|])
      |(?P<qatom>{QUOTED_ATOM})
      |(?P<code>{_code("c")})
      |(?P<int>\d+)
      |(?P<end>{_END})
      |(?P<atom>[;!]|{_SYMBOL_RUN})
      |(?P<bad>.)
    )?""",
    re.VERBOSE | re.DOTALL,
)


def _quoted_item(quote: str, name: str) -> str:
    """Quoted text up to its closing quote; a doubled quote stands for one."""
    return rf"{quote}(?:[^{quote}\\]|{quote}{quote}|{_escape(name)})*{quote}(?!{quote})"


def _body(tag: str) -> str:
    """A statement up to its end token, its groups named with `tag`.  The
    loop takes whole tokens of the classes that can hold a `.` or a quote
    (quoted atoms, strings, back-quoted text, `0'c`, comments and
    symbol-char runs) and runs of any other characters; it stops only at an
    end token, an unterminated quote or block comment, or the end of the
    text.  A quoted atom that `_TOKEN` reads ends at the same character."""
    return rf"""(?:[^'"`%0{re.escape(_SYMBOL_CHARS)}.]+
      |{_quoted_item("'", f"q{tag}")}|{_quoted_item('"', f"s{tag}")}|{_quoted_item("`", f"b{tag}")}
      |{_LINE_COMMENT}|{_BLOCK_COMMENT}
      |(?<!\w){_code(f"c{tag}")}|0
      |(?!/\*|{_END}){_SYMBOL_RUN}
    )*"""


# One match per statement: everything up to and including its end token, or
# a named group where the text stops it, so the match never fails and never
# backtracks into the loop.
_STATEMENT = re.compile(
    rf"""{_body("")}
    (?:(?P<end>\.)|(?P<quote>')|(?P<string>")|(?P<backquote>`)|(?P<comment>/\*)|(?P<eof>)\Z)""",
    re.VERBOSE | re.DOTALL,
)
# Whole statements that start with a lowercase letter but not with
# `library_directory`, in one match.  Each body, and the layout before it,
# is taken atomically, so the run gives back whole a statement it cannot
# end, such as one with an unterminated quote, for `_STATEMENT` to report.
_RUN = rf"""(?P<run>(?:{_atomic("rl", LAYOUT)}(?!library_directory\b)[a-z]
    {_atomic("rb", _body("r"))}{_END})+)"""
_UNTERMINATED = {
    "quote": "unterminated quoted atom",
    "string": "unterminated string",
    "backquote": "unterminated back-quoted text",
    "comment": "unterminated block comment",
}
_ESCAPE = re.compile(r"\\.|''")
_ESCAPES = {"\\\\": "\\", "\\'": "'", "\\n": "\n", "\\t": "\t", "''": "'"}


def text_start(text: str) -> int:
    """Where reading starts: after a leading byte-order mark, which no token
    takes and no column counts."""
    return 1 if text.startswith("\ufeff") else 0


def _error(message: str, text: str, offset: int, path: str | None) -> TermSyntaxError:
    """A syntax error located at the 1-based line and column of `offset`."""
    line_start = text.rfind("\n", 0, offset) + 1 or text_start(text)
    line = text.count("\n", 0, offset) + 1
    return TermSyntaxError(message, line, offset - line_start + 1, path)


def _int_value(tok: _Token, text: str, path: str | None) -> int:
    """A decimal literal's value; one too long for `int` is a syntax error."""
    try:
        return int(tok.text)
    except ValueError:
        message = f"integer of {len(tok.text)} digits is too long"
        raise _error(message, text, tok.start, path) from None


def _tokenize(
    text: str, path: str | None, pos: int = 0, endpos: int | None = None
) -> list[_Token]:
    """The tokens of `text[pos:endpos]`, read in place, with offsets into `text`."""
    endpos = len(text) if endpos is None else endpos
    tokens: list[_Token] = []
    while True:
        m = _TOKEN.match(text, pos, endpos)
        kind = m.lastgroup
        if kind is None:
            return tokens
        start, pos = m.span(kind)
        value = text[start:pos]
        if kind == "qatom":
            value = unquote_atom(value)
        elif kind == "code":
            char = value[2:]
            if char[0] == "\\" and char not in _ESCAPES:
                raise _error("unknown escape in character code", text, start, path)
            kind, value = "int", str(ord(_ESCAPES.get(char, char)))
        elif kind == "word":
            first = value[0]
            if first.islower() and first.isalpha():
                kind = "atom"
            elif first == "_" or (first.isupper() and first.isalpha()):
                kind = "var"
            else:
                kind = "bad"
        if kind == "bad":
            if value == "'":
                raise _error("unknown escape in quoted atom", text, start, path)
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


def _parse(text: str, start: int, end: int, path: str | None) -> Term:
    """The term of the one statement in `text[start:end]`, read in place."""
    tokens = _tokenize(text, path, start, end)
    tokens.append(tokens[-1]._replace(kind="eof", text=""))
    term, i = _parse_clause(tokens, 0, text, path)
    if i != len(tokens) - 1:  # an end token the splitter did not see as one
        raise _error("expected '.' at end of term", text, tokens[i - 1].start, path)
    return term


def statement_pattern(fact: str, runs: bool = False) -> re.Pattern:
    """`split_statements`' pattern, but first trying, after layout, `fact`
    and an end token as group `fact`, group 1, so `fact`'s own groups count
    from 2, then, if `runs`, a run of clauses (`_RUN`) as group `run`.
    `fact` must match only whole statements; `matched_statement` takes
    every other match."""
    run = f"|(?x:{_RUN})" if runs else ""
    return re.compile(
        rf"{LAYOUT}(?:(?P<fact>{fact}){_END}{run}|(?x:{_STATEMENT.pattern}))", re.DOTALL
    )


def matched_statement(m: re.Match, text: str, path: str | None) -> tuple[int, int, str] | None:
    """The start and end offsets and first token (unquoted) of the statement
    one match took: from its first token to after its end token, as the
    readers' spans; None for the last match, which takes only layout.  An
    unterminated quote or block comment is a TermSyntaxError at its opening,
    and text after the last end token is parsed to report where it goes
    wrong."""
    first = _TOKEN.match(text, m.start())
    kind = first.lastgroup
    stop = m.lastgroup
    if stop in _UNTERMINATED:
        raise _error(_UNTERMINATED[stop], text, m.start(stop), path)
    if kind is None:
        return None
    start = first.start(kind)
    if stop == "eof":
        _parse(text, start, len(text), path)  # raises: the text has no end token
        raise _error("expected '.' at end of term", text, start, path)
    token = first.group(kind)
    return start, m.end(), unquote_atom(token) if kind == "qatom" else token


def split_statements(text: str, path: str | None = None, pattern: re.Pattern = _STATEMENT) -> list:
    """Each statement as `matched_statement` gives it, in file order, found
    in one lexical pass that parses nothing; with a `statement_pattern`, one
    its fact alternative takes has the match in place of its first token,
    and the clauses of a run are left out."""
    out = []
    for m in pattern.finditer(text, text_start(text)):
        if m.lastgroup == "run":
            continue
        fact = m.lastgroup == "fact"
        statement = (m.start("fact"), m.end(), m) if fact else matched_statement(m, text, path)
        if statement is None:
            return out
        out.append(statement)
    return out


def parse_statements(
    text: str, statements: Iterable[tuple[int, int, object]], path: str | None = None
) -> list[SourceTerm]:
    """Parse in place each statement of `text` given as `split_statements`
    gives them, in file order, but for one given with its term, or what its
    reader decoded it to, in place of its first token; raises
    TermSyntaxError at the first offending token of the first one that does
    not parse."""
    out: list[SourceTerm] = []
    line, line_start = 1, text_start(text)  # of the previous statement's first token
    for start, end, first in statements:
        newline = text.rfind("\n", line_start, start)
        if newline >= 0:
            line += text.count("\n", line_start, newline + 1)
            line_start = newline + 1
        term = _parse(text, start, end, path) if isinstance(first, str) else first
        out.append(SourceTerm(term, Span(start, end, line, start - line_start + 1)))
    return out


# The characters of an engine condition as `_render` writes it: no layout,
# quote, comment or period, so a pattern can take it as one field.
ARGUMENT = r"[a-z0-9_:()\[\],=<>\\]+"


def canonical_argument(text: str) -> Term | None:
    """The term `text` reads as, or None unless `_render` writes it back at
    argument precedence as `text`: then it reads so in an argument list too."""
    try:
        term = _parse(text + "\n.", 0, len(text) + 2, None)
    except TermSyntaxError:
        return None
    return term if _render(term, 999) == text else None


def read_term(text: str, path: str | None = None) -> Term:
    """Read exactly one term; the terminating period is optional."""
    # a token after the last end token needs one; an unterminated quote stops first
    stop = next(m for m in _STATEMENT.finditer(text) if m.lastgroup != "end")
    if stop.lastgroup == "eof" and _TOKEN.match(text, stop.start()).lastgroup:
        text += "\n."  # on a line of its own, out of reach of a trailing % comment
    terms = [_parse(text, start, end, path) for start, end, _ in split_statements(text, path)]
    if len(terms) != 1:
        raise TermSyntaxError("expected exactly one term", 1, 1, path)
    return terms[0]


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
                if isinstance(arg, Atom) and arg.name in OPERATOR_ATOMS
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
    text = _render(term, bound)
    # a `.` straight after a symbol char would join its run
    return f"{prefix}{text} ." if text[-1] in _SYMBOL_CHARS else f"{prefix}{text}."


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
