"""Reader, renderer, and splice behaviour."""

from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from helpers import read_terms
from exlibris.directives import read_directives
from exlibris.terms import (
    EMPTY_LIST,
    Atom,
    Compound,
    Integer,
    SourceTerm,
    Span,
    SpliceError,
    TermSyntaxError,
    Variable,
    _tokenize,
    atom_text,
    make_list,
    read_term,
    render_clause,
    render_term,
    splice,
    split_statements,
)


def functor(name, arity):
    return Compound("/", (Atom(name), Integer(arity)))


class TestReadTerms:
    def test_requires_directive(self):
        out = read_terms(":- requires( [member/2,maplist/3,flatten/2] ).")
        assert len(out) == 1
        expected = Compound(
            ":-",
            (
                Compound(
                    "requires",
                    (
                        make_list(
                            [functor("member", 2), functor("maplist", 3), functor("flatten", 2)]
                        ),
                    ),
                ),
            ),
        )
        assert out[0].term == expected

    def test_index_fact_shape(self):
        out = read_terms("index( member, 2, sicstus(_), lists, lists ).")
        term = out[0].term
        assert isinstance(term, Compound) and term.name == "index" and term.arity == 5
        assert term.args[2] == Compound("sicstus", (Variable("_"),))

    def test_empty_file(self):
        assert read_terms("") == []

    def test_comments_only(self):
        assert read_terms("% nothing here\n/* or here */\n") == []

    def test_file_order_and_spans_increase(self):
        text = "a.\nb(1).\n% gap\nc :- d.\n"
        out = read_terms(text)
        assert [st.term for st in out] == [
            Atom("a"),
            Compound("b", (Integer(1),)),
            Compound(":-", (Atom("c"), Atom("d"))),
        ]
        spans = [st.span for st in out]
        for before, after in zip(spans, spans[1:]):
            assert before.end <= after.start

    def test_quoted_atom_text_preserved(self):
        assert read_term("'meta/maplist'") == Atom("meta/maplist")
        assert read_term("'it''s'") == Atom("it's")
        assert read_term("'a\\\\b'") == Atom("a\\b")

    def test_optional_period_after_trailing_comment(self):
        assert read_term("a % c") == Atom("a")
        assert read_term("a. % c") == Atom("a")

    def test_version_chain_is_right_nested(self):
        assert read_term("3:9:0") == Compound(
            ":", (Integer(3), Compound(":", (Integer(9), Integer(0))))
        )

    def test_slash_is_left_associative(self):
        assert read_term("a/b/c") == Compound(
            "/", (Compound("/", (Atom("a"), Atom("b"))), Atom("c"))
        )

    def test_pair_form(self):
        term = read_term("(sicstus,[(3:9:0,>=)])")
        assert isinstance(term, Compound) and term.name == "," and term.arity == 2

    def test_negative_integers(self):
        assert read_term("-5") == Integer(-5)
        assert read_term("- 5") == Compound("-", (Integer(5),))
        assert read_term("f(-5)") == Compound("f", (Integer(-5),))

    def test_list_tail(self):
        assert read_term("[a|T]") == Compound(".", (Atom("a"), Variable("T")))

    def test_operators_as_bare_atoms(self):
        assert read_term("f(>=, not)") == Compound("f", (Atom(">="), Atom("not")))

    def test_conjunction_precedence(self):
        term = read_term("a :- b, c")
        assert term == Compound(
            ":-", (Atom("a"), Compound(",", (Atom("b"), Atom("c"))))
        )

    def test_syntax_error_position(self):
        with pytest.raises(TermSyntaxError) as exc:
            read_terms("p(.\n")
        assert exc.value.line == 1
        assert exc.value.col >= 3

    def test_unterminated_quoted_atom_reported_at_opening(self):
        with pytest.raises(TermSyntaxError) as exc:
            read_terms("x.\n'abc")
        assert (exc.value.line, exc.value.col) == (2, 1)

    def test_unterminated_block_comment_reported_at_opening(self):
        with pytest.raises(TermSyntaxError) as exc:
            read_terms("x.\n  /* oops")
        assert (exc.value.line, exc.value.col) == (2, 3)

    def test_missing_period(self):
        with pytest.raises(TermSyntaxError):
            read_terms("p(a)")

    def test_read_term_takes_exactly_one_term(self):
        with pytest.raises(TermSyntaxError) as exc:
            read_term("a. b.")
        assert str(exc.value) == "line 1, column 1: expected exactly one term"

    # A final "\n." given to every text, not only to one whose last token is
    # no end token, would read `0'` as the code of a newline; and every
    # statement is parsed before they are counted, so a text that does not
    # read is reported where it goes wrong.
    @pytest.mark.parametrize("text, message", [
        ("0'", "line 1, column 2: unterminated quoted atom"),
        (". .", "line 1, column 1: expected a term"),
        ("a.\n.", "line 2, column 1: expected a term"),
    ])
    def test_read_term_reports_what_a_final_period_would_hide(self, text, message):
        with pytest.raises(TermSyntaxError) as exc:
            read_term(text)
        assert str(exc.value) == message

    def test_read_term_reads_a_leading_period_as_an_atom(self):
        assert read_term(".(a, b)") == Compound(".", (Atom("a"), Atom("b")))

    @pytest.mark.parametrize("text, term", [
        ("not:x", Compound(":", (Atom("not"), Atom("x")))),
        ("- = 1", Compound("=", (Atom("-"), Integer(1)))),
    ])
    def test_prefix_operator_as_an_infix_operand(self, text, term):
        assert read_term(text) == term

    def test_parenthesis_closes_only_on_punctuation(self):
        for text in ("(a ')'", "(a ')')"):
            with pytest.raises(TermSyntaxError) as exc:
                read_term(text)
            assert str(exc.value) == "line 1, column 4: expected ')'"


# Each parser error with the position it is reported at; input that ends
# early is reported at its last token.
PARSE_ERRORS = [
    ("p(.", "expected a term", 1, 3),
    ("a :- .", "expected a term", 1, 6),
    (".", "expected a term", 1, 1),
    ("p(", "expected a term", 1, 2),
    ("a =\n", "expected a term", 1, 3),
    ("a b.", "expected '.' at end of term", 1, 3),
    ("a = b = c.", "expected '.' at end of term", 1, 7),
    ("p(a)", "expected '.' at end of term", 1, 4),
    ("a\n% c", "expected '.' at end of term", 1, 1),
    ("(a b).", "expected ')'", 1, 4),
    ("(a].", "expected ')'", 1, 3),
    ("(a", "expected ')'", 1, 2),
    ("f(a b).", "expected ',' or ')' in argument list", 1, 5),
    ("f(a].", "expected ',' or ')' in argument list", 1, 4),
    ("p(a,\n  b", "expected ',' or ')' in argument list", 2, 3),
    ("[a b].", "expected ',', '|' or ']' in list", 1, 4),
    ("[a).", "expected ',', '|' or ']' in list", 1, 3),
    ("[a", "expected ',', '|' or ']' in list", 1, 2),
    ("[a|b c].", "expected ']' after list tail", 1, 6),
    ("[a|b,c].", "expected ']' after list tail", 1, 5),
    ("[a|b", "expected ']' after list tail", 1, 4),
    ("f(,).", "unexpected ','", 1, 3),
    ("[a,,b].", "unexpected ','", 1, 4),
    (", a.", "unexpected ','", 1, 1),
]


class TestParseErrors:
    @pytest.mark.parametrize("text, message, line, col", PARSE_ERRORS)
    def test_message_and_position(self, text, message, line, col):
        with pytest.raises(TermSyntaxError) as exc:
            read_terms(text)
        assert (str(exc.value), exc.value.line, exc.value.col) == (
            f"line {line}, column {col}: {message}", line, col
        )

    @pytest.mark.parametrize("text", [text for text, *_ in PARSE_ERRORS if text[0] not in ".,"])
    def test_directive_is_reported_as_read_terms_reports_it(self, text):
        text = f"a.\n:- {text}"
        errors = []
        for read in (read_terms, read_directives):
            with pytest.raises(TermSyntaxError) as exc:
                read(text)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]


DEEP = 20000


class TestDepth:
    """Nesting is bounded by memory, not by the Python stack.  Shapes are
    checked by loops because dataclass `==` recurses."""

    def read_one(self, text):
        (only,) = read_terms(text)
        return only.term

    def test_deep_compound(self):
        term = self.read_one("f(" * 20000 + "a" + ")" * 20000 + ".")
        for _ in range(20000):
            assert isinstance(term, Compound) and term.name == "f" and term.arity == 1
            term = term.args[0]
        assert term == Atom("a")

    def test_deep_list(self):
        term = self.read_one("[" * 5000 + "a" + "]" * 5000 + ".")
        for _ in range(5000):
            assert isinstance(term, Compound) and term.name == "." and term.arity == 2
            assert term.args[1] == EMPTY_LIST
            term = term.args[0]
        assert term == Atom("a")

    def test_long_prefix_chain(self):
        term = self.read_one("not " * 2500 + "- " * 2500 + "a.")
        for name in ["not"] * 2500 + ["-"] * 2500:
            assert isinstance(term, Compound) and term.name == name and term.arity == 1
            term = term.args[0]
        assert term == Atom("a")

    @pytest.mark.parametrize(
        "wrap, text, clause",
        [
            (lambda t: Compound("f", (t,)), "f(" * DEEP + "a" + ")" * DEEP,
             "f( " + "f(" * (DEEP - 1) + "a" + ")" * (DEEP - 1) + " )."),
            (lambda t: make_list([t]), "[" * DEEP + "a" + "]" * DEEP,
             "[" * DEEP + "a" + "]" * DEEP + "."),
            (lambda t: Compound(",", (Atom("a"), t)), "a," * DEEP + "a", "a," * DEEP + "a."),
            (lambda t: Compound("/", (Atom("a"), t)), "a/(" * (DEEP - 1) + "a/a" + ")" * (DEEP - 1),
             "a/(" * (DEEP - 1) + "a/a" + ")" * (DEEP - 1) + "."),
        ],
        ids=["compound", "list", "conjunction", "bracketed_operand"],
    )
    def test_deep_term_renders_and_reads_back(self, wrap, text, clause):
        term = Atom("a")
        for _ in range(DEEP):
            term = wrap(term)
        assert render_term(term) == text
        assert render_clause(term) == clause
        assert render_clause(Compound(":-", (term,))) == f":- {clause}"
        for written in (text, clause):
            pairs = [(read_term(written), term)]
            while pairs:
                got, want = pairs.pop()
                if isinstance(want, Compound):
                    assert isinstance(got, Compound)
                    assert (got.name, got.arity) == (want.name, want.arity)
                    pairs += zip(got.args, want.args)
                else:
                    assert got == want


class TestTokens:
    """Token boundaries, escapes and positions the reader must keep."""

    def error(self, text):
        with pytest.raises(TermSyntaxError) as exc:
            read_terms(text)
        return str(exc.value), exc.value.line, exc.value.col

    def test_unknown_escape_reported_at_opening(self):
        assert self.error("x.\n  p('a\\qb').") == (
            "line 2, column 5: unknown escape in quoted atom", 2, 5
        )

    def test_backslash_at_end_of_input_leaves_the_atom_unterminated(self):
        assert self.error("p('ab\\") == (
            "line 1, column 3: unterminated quoted atom", 1, 3
        )

    def test_character_codes_read_as_integers(self):
        codes = read_term(r"f(0'a, 0'', 0''', 0'\n, 0'\\, 0'\', 0' , 0'., -0'a)")
        assert codes == Compound("f", tuple(map(Integer, (97, 39, 39, 10, 92, 39, 32, 46, -97))))
        (directive,) = read_directives(":- X = 0'a.\n")
        assert directive.term == Compound(":-", (Compound("=", (Variable("X"), Integer(97))),))

    @pytest.mark.parametrize("code", ["0'\\x41\\", "0'\\101\\", "0'\\e", "0'\\\n"])
    def test_unknown_escape_in_a_character_code_is_located(self, code):
        assert self.error(f"x.\n  p({code}).") == (
            "line 2, column 5: unknown escape in character code", 2, 5
        )

    def test_escapes_and_doubled_quotes(self):
        assert read_term("'it''s'") == Atom("it's")
        assert read_term("''''") == Atom("'")
        assert read_term(r"'a\\b\'c\nd\te'") == Atom("a\\b'c\nd\te")

    def test_quoted_atom_spanning_lines_moves_later_positions(self):
        first, second = read_terms("p('a\nbc').\n  q.")
        assert first.term == Compound("p", (Atom("a\nbc"),))
        assert (first.span.line, first.span.col) == (1, 1)
        assert (second.span.line, second.span.col) == (3, 3)
        assert self.error("x('a\nbc' ]")[1:] == (2, 5)

    def test_unexpected_character_on_line_2(self):
        assert self.error("a.\n\fb.") == (
            "line 2, column 1: unexpected character '\\x0c'", 2, 1
        )

    def test_superscript_digit_is_an_unexpected_character(self):
        assert self.error("p(²).") == ("line 1, column 3: unexpected character '²'", 1, 3)

    def test_symbol_run_takes_a_comment_opener(self):
        assert read_term("+/*") == Atom("+/*")
        assert read_terms("x :- +/* .")[0].term == Compound(":-", (Atom("x"), Atom("+/*")))

    def test_trailing_line_comment_without_newline(self):
        assert [t.term for t in read_terms("a. % done")] == [Atom("a")]
        assert [t.term for t in read_terms("a.% done")] == [Atom("a")]
        assert read_terms("% only") == []


class TestSymbolRuns:
    """As in ISO, `.` is a symbol char: it joins the run before it."""

    def test_dot_joins_a_symbol_run(self):
        assert read_term("=..") == Atom("=..")
        assert [t.term for t in read_terms("p(+.).\nq :- - .\n")] == [
            Compound("p", (Atom("+."),)),
            Compound(":-", (Atom("q"), Atom("-"))),
        ]

    def test_clause_ending_in_a_symbol_char_keeps_its_end(self):
        term = Compound("=", (Atom("a"), Atom("+")))
        assert render_clause(term) == "a= + ."
        assert [t.term for t in read_terms(render_clause(term))] == [term]


class TestSplit:
    """Statements are split without a parse; only directives are parsed."""

    @pytest.mark.parametrize("clause", [
        r"q(X) :- Y is X + 1.",
        r"q(X) :- X =.. [F|_], \+ F == a, X @< 3.",
        r'q("a. b", "it\"s", "x""y").',
        r"q(`a. b`).",
        r"q(0'., 0'a, 0''', 0'\n, 0'\\).",
        r"q(1.5, {a}).",
        r"q --> b, [c], {d}.",
        r"q('\x41\', '\101\', 'a\e. b').",
        "q :- X = \"%\", Y = '/*'.",
        r"q(a0'b', 10'c', " + '"d").',
    ])
    def test_clause_in_everyday_syntax_is_one_statement(self, clause):
        text = f"{clause}\n:- requires([p/1]).\n"
        assert split_statements(text) == [
            (0, len(clause), "q"),
            (len(clause) + 1, len(text) - 1, ":-"),
        ]
        (directive,) = read_directives(text)
        assert directive.span == Span(len(clause) + 1, len(text) - 1, 2, 1)

    def test_statements_kept_by_their_first_token(self):
        text = (
            "library_directory('/a').\n'library_directory'(b).\nlibrary_directory_x(c).\n"
            ":-dynamic(d).\n:-(e, f).\n?- g.\n:-- h.\n"
        )
        assert [text[t.span.start : t.span.end] for t in read_directives(text)] == [
            "library_directory('/a').", "'library_directory'(b).", ":-dynamic(d).", ":-(e, f).",
        ]

    @pytest.mark.parametrize("text, message, col", [
        ("a. 'bc", "unterminated quoted atom", 4),
        ("a. 'b\\", "unterminated quoted atom", 4),
        ('a. "bc', "unterminated string", 4),
        ("a. `bc", "unterminated back-quoted text", 4),
        ("a. /* bc", "unterminated block comment", 4),
        ("x :- 0'", "unterminated quoted atom", 7),
        ("a. b(c", "expected ',' or ')' in argument list", 6),
        ("a. q(X) :- Y is X", "expected '.' at end of term", 14),
        ("a. :- p(", "expected a term", 8),
    ])
    def test_located_errors(self, text, message, col):
        for read in (split_statements, read_directives, read_terms):
            with pytest.raises(TermSyntaxError) as exc:
                read(text, "f.pl")
            assert str(exc.value) == f"f.pl:1:{col}: {message}"

    @pytest.mark.parametrize("text, message", [
        ('f("bc', "unterminated string"),
        ("f('b\\", "unterminated quoted atom"),
        ("f(`bc", "unterminated back-quoted text"),
        ("f /* bc", "unterminated block comment"),
    ])
    def test_read_term_reports_an_unterminated_text_as_the_splitter_does(self, text, message):
        for read in (split_statements, read_term):
            with pytest.raises(TermSyntaxError) as exc:
                read(text, "f.pl")
            assert str(exc.value) == f"f.pl:1:3: {message}"

    def test_syntax_error_inside_a_clause_is_not_reported(self):
        assert read_directives("p(²).\nq :- ) (.\n") == []

    def test_syntax_error_inside_a_directive_is_located(self):
        with pytest.raises(TermSyntaxError) as exc:
            read_directives("p.\n:- q(²).\n", "f.pl")
        assert str(exc.value) == "f.pl:2:6: unexpected character '²'"

    def test_a_skipped_directive_is_not_parsed(self):
        """A `:-` whose next token, after any layout, is an unquoted atom in
        `skip` is left unparsed; a quoted or longer name is not skipped."""
        text = (
            ":- defines(p q).\n:-defines_module(.\n:- /* c */ % d\n module ) ( .\n"
            ":- 'defines'(p/0).\n:- definesx(p/0).\n:- requires([p/0]).\n"
        )
        skip = {"defines", "module", "defines_module"}
        kept = [text[t.span.start : t.span.end] for t in read_directives(text, "f.pl", skip)]
        assert kept == [":- 'defines'(p/0).", ":- definesx(p/0).", ":- requires([p/0])."]
        with pytest.raises(TermSyntaxError):
            read_directives(text, "f.pl")


def split_one_by_one(text, path=None):
    """`read_directives` with a `clauses` list asked for, which splits one
    statement per match, with no run of clauses."""
    return read_directives(text, path, clauses=[])


class TestClauseRuns:
    """Without a `clauses` list, `read_directives` skips a run of clauses in
    one match.  Each case reads as it does one statement per match and with
    every statement parsed; a statement the run cannot end is reported at
    the same `line:col`."""

    CASES = {
        # backtracking into `=..` would end a statement at its `=.`
        "univ": "p :- X =.. Y, q.\nr(X) :- X =.. [a|_].\n:- requires( [s/1] ).\n",
        "univ_no_end": "p :- X =.. Y, q.\nr :- X =.. Y",
        "univ_then_quote": "p :- X =.. Y.\nq('abc.",
        "univ_and_quote": "p :- X =.. Y, q('a. b.\n",
        "code_and_quoted_dot": "p(0'.).\nq('x.y').\n:- requires( [s/1] ).\nr(0'., 'a.b').\n",
        # backtracking into a comment would start a statement inside it
        "comments": "p.\n/* a.b ' */\nq.\n% it's\nr.\n:- requires( [s/1] ).\n",
        "line_comment_then_quote": "p.\n% it's\nq('x.",
        "block_comment_then_string": "p.\n/* a.b ' */\nq(\"x.",
        "library_directory": "p.\nlibrary_directory(d).\nq.\nlibrary_directory_x(1).\nr.\n",
        "bom": "\ufeffp.\nq.\n:- requires( [s/1] ).\n",
        "bom_then_quote": "\ufeffp.\nq('x.",
        "comment_after_run": "p.\nq.\n/* r.",
        "quote_after_run": "p.\nq.\n'r.",
    }
    ERRORS = {
        "univ_no_end": "f.pl:2:8: expected '.' at end of term",
        "univ_then_quote": "f.pl:2:3: unterminated quoted atom",
        "univ_and_quote": "f.pl:1:17: unterminated quoted atom",
        "line_comment_then_quote": "f.pl:3:3: unterminated quoted atom",
        "block_comment_then_string": "f.pl:3:3: unterminated string",
        "bom_then_quote": "f.pl:2:3: unterminated quoted atom",
        "comment_after_run": "f.pl:3:1: unterminated block comment",
        "quote_after_run": "f.pl:3:1: unterminated quoted atom",
    }

    @pytest.mark.parametrize("name", CASES)
    def test_reads_as_one_statement_per_match(self, name):
        text = self.CASES[name]
        outcome = helpers.read_outcome(read_directives, text, "f.pl")
        assert outcome == helpers.read_outcome(split_one_by_one, text, "f.pl")
        assert outcome == helpers.read_outcome(helpers.parsed_directives, text, "f.pl")
        assert (outcome[1] if outcome[0] == "error" else None) == self.ERRORS.get(name)

    # Pieces of clause runs and of what a run must step over or give back.
    PIECES = (
        "p", "q(X)", " :- ", "X =.. Y", "0'.", "0'''", "'x.y'", "'a''b. c'", "\"s. t\"", "`u. v`",
        "'abc", "\"s", "/* a.b ' */", "/* r", "% it's\n", ".\n", ". ", ".", "\n", "ä",
        "library_directory(d)", "library_directory_x(1)", ":- requires( [s/1] )", "\ufeff",
    )

    @given(st.lists(st.sampled_from(PIECES), max_size=12).map("".join))
    def test_any_sequence_of_pieces(self, text):
        outcome = helpers.read_outcome(read_directives, text, "f.pl")
        assert outcome == helpers.read_outcome(split_one_by_one, text, "f.pl")
        assert outcome == helpers.read_outcome(helpers.parsed_directives, text, "f.pl")

    def test_a_library_directory_clause_is_kept_between_runs(self):
        text = self.CASES["library_directory"]
        (kept,) = read_directives(text, "f.pl")
        assert (text[kept.span.start : kept.span.end], kept.span.line) == ("library_directory(d).", 2)

    def test_a_run_takes_whole_clauses_only(self):
        """A run ends at a directive and at a `library_directory` clause, and
        takes the comments between its clauses."""
        from exlibris.directives import _DECLARATIONS

        text = "".join(self.CASES[name] for name in ("univ", "comments", "library_directory"))
        runs = [m["run"] for m in _DECLARATIONS[True].finditer(text) if m.lastgroup == "run"]
        assert runs == [
            "p :- X =.. Y, q.\nr(X) :- X =.. [a|_].",
            "p.\n/* a.b ' */\nq.\n% it's\nr.",
            "p.",
            "q.\nlibrary_directory_x(1).\nr.",
        ]


class TestRender:
    def test_a_compound_has_an_argument(self):
        with pytest.raises(ValueError, match="at least one argument"):
            Compound("f", ())

    def test_functor_notation(self):
        assert render_term(functor("member", 2)) == "member/2"

    def test_index_fact_house_style(self):
        fact = Compound(
            "index",
            (
                Atom("maplist"),
                Integer(3),
                Atom("any"),
                Atom("user"),
                Atom("meta/maplist"),
            ),
        )
        assert render_clause(fact) == "index( maplist, 3, any, user, 'meta/maplist' )."

    def test_atom_quoting_forced_by_slash(self):
        assert render_term(Atom("list/flatten")) == "'list/flatten'"

    def test_comment_opener_atom_is_quoted(self):
        assert [atom_text(name) for name in ("/*", "/*/", "+/*", "/")] == [
            "'/*'", "'/*/'", "+/*", "/",
        ]
        term = Compound("f", (Atom("/*"), Atom("x")))
        assert render_term(term) == "f('/*',x)"
        assert read_term(render_term(term)) == term

    def test_directive_style(self):
        term = read_term(":- requires([member/2]).")
        assert render_clause(term) == ":- requires( [member/2] )."

    def test_not_renders_functionally(self):
        assert render_term(read_term("not(swi(_))")) == "not(swi(_))"

    def test_symbol_adjacent_spacing(self):
        term = Compound("=", (Atom("a"), Integer(-3)))
        text = render_term(term)
        assert read_term(text) == term


TERM_ATOMS = st.one_of(
    st.sampled_from(helpers.ATOM_POOL),
    st.text(alphabet="abz_AZ09 /'\\.", min_size=0, max_size=6),
).map(Atom)
TERM_LEAVES = st.one_of(
    TERM_ATOMS,
    st.integers(min_value=-999, max_value=99999).map(Integer),
    st.sampled_from(helpers.VAR_POOL).map(Variable),
)


def _compounds(children):
    return st.builds(
        lambda name, args: Compound(name, tuple(args)),
        st.sampled_from(helpers.FUNCTOR_POOL),
        st.lists(children, min_size=1, max_size=3),
    )


def _lists(children):
    return st.builds(
        lambda items, tail: make_list(items, tail),
        st.lists(children, max_size=3),
        st.one_of(st.just(EMPTY_LIST), children),
    )


TERMS = st.recursive(TERM_LEAVES, lambda ch: _compounds(ch) | _lists(ch), max_leaves=30)

FILLER = st.lists(
    st.sampled_from(["", " ", "\n", "\t", "\n\n", "% note\n", "/* block */ "]),
    max_size=3,
).map("".join)


# Layout, punctuation, quotes, escapes, comment openers, symbol characters,
# non-ASCII letters of each case and a digit that is not decimal.
PROLOGISH = list("abzXY_09 \t\r\n\f.,;!|()[]'\\%/*+-=<>:éÉßπΣ中²")


# Layout between statements: blank lines, CRLF, and newlines inside comments.
SPAN_LAYOUT = st.lists(
    st.sampled_from(["", " ", "\n", "\r\n", "\n\n", "\t", "% c\n", "% c\r\n", "/* a\nb */ "]),
    max_size=4,
).map("".join)
SPAN_STATEMENTS = st.one_of(
    TERMS.map(render_clause),
    st.text(alphabet="ab \r\n", max_size=6).map(lambda text: f"q('{text}')."),
)


class TestProperties:
    @given(TERMS)
    def test_round_trip(self, term):
        assert read_term(render_term(term)) == term

    @given(TERMS)
    def test_clause_round_trip(self, term):
        out = read_terms(render_clause(term))
        assert len(out) == 1 and out[0].term == term

    @given(st.lists(st.tuples(FILLER, TERMS), max_size=5), FILLER)
    def test_span_fidelity(self, pieces, trailer):
        text = "".join(f"{fill}{render_clause(term)}\n" for fill, term in pieces) + trailer
        out = read_terms(text)
        assert [st.term for st in out] == [term for _, term in pieces]
        for source_term in out:
            snippet = text[source_term.span.start : source_term.span.end]
            again = read_terms(snippet)
            assert len(again) == 1 and again[0].term == source_term.term

    @given(st.lists(st.tuples(SPAN_LAYOUT, SPAN_STATEMENTS), max_size=6), SPAN_LAYOUT)
    def test_span_positions_count_newlines_before_start(self, pieces, trailer):
        text, starts = "", []
        for layout, statement in pieces:
            text += layout
            starts.append(len(text))
            text += statement + " "
        text += trailer
        out = read_terms(text)
        assert [(item.span.start, item.span.end) for item in out] == [
            (start, start + len(statement)) for start, (_, statement) in zip(starts, pieces)
        ]
        for item in out:
            start = item.span.start
            assert item.span.line == text.count("\n", 0, start) + 1
            assert item.span.col == start - text.rfind("\n", 0, start)

    @given(st.lists(st.tuples(FILLER, TERMS), min_size=1, max_size=4))
    def test_splice_identity(self, pieces):
        text = "".join(f"{fill}{render_clause(term)}\n" for fill, term in pieces)
        assert splice(text, []) == text

    @given(st.text(alphabet=st.sampled_from(PROLOGISH), max_size=1000))
    def test_any_text_reads_or_raises_a_syntax_error(self, text):
        try:
            out = read_terms(text)
        except TermSyntaxError as exc:
            assert exc.line >= 1 and exc.col >= 1
        else:
            assert all(isinstance(item, SourceTerm) for item in out)


DECLARATIONS = ["dynamic", "multifile", "discontiguous", "meta_predicate"]


class TestDeclarationOperators:
    @pytest.mark.parametrize("name", DECLARATIONS)
    def test_prefix_declaration_reads(self, name):
        both = Compound(",", (functor("foo", 1), functor("bar", 2)))
        assert read_term(f":- {name} foo/1, bar/2") == Compound(
            ":-", (Compound(name, (both,)),)
        )
        assert read_term(f"{name}(foo/1)") == Compound(name, (functor("foo", 1),))
        assert read_term(name) == Atom(name)
        assert read_term(f"{name} = x") == Compound("=", (Atom(name), Atom("x")))

    @given(st.sampled_from(DECLARATIONS), TERMS)
    def test_round_trip(self, name, term):
        declaration = Compound(name, (term,))
        assert read_term(render_term(declaration)) == declaration
        operand = Compound("=", (Atom(name), term))
        assert read_term(render_term(operand)) == operand
        directive = Compound(":-", (declaration,))
        assert [t.term for t in read_terms(render_clause(directive))] == [directive]

    def test_double_slash_is_left_associative_at_400(self):
        digits = Compound("//", (Atom("digits"), Integer(1)))
        assert read_term("[digits//1, a/1]") == make_list([digits, functor("a", 1)])
        left = Compound("//", (Atom("a"), Atom("b")))
        assert read_term("a//b/c") == Compound("/", (left, Atom("c")))
        assert render_term(Compound("//", (Atom("a"), digits))) == "a//(digits//1)"


# A statement whose first token is `:-` or `library_directory`, the ones
# `read_directives` parses.
KEPT = re.compile(r":-(?![-+*/\\^<>=~:?@#&$.])|library_directory\b|'library_directory'")


def agrees_with_read_terms(text: str) -> bool:
    """Where `read_terms` accepts `text`, each statement the splitter finds
    runs from a first token to an end token of the whole text as the
    tokenizer reads it, and `read_directives` keeps the directives of
    `read_terms`; False if `read_terms` does not accept `text`."""
    try:
        expected = read_terms(text)
    except TermSyntaxError:
        return False
    windows, start = [], None
    for token in _tokenize(text, None):
        start = token.start if start is None else start
        if token.kind == "end":
            windows.append((start, token.end))
            start = None
    assert start is None
    assert [(start, end) for start, end, _ in split_statements(text)] == windows
    assert [(t.span.start, t.span.end) for t in expected] == windows
    kept = [t for t in expected if KEPT.match(text, t.span.start)]
    assert helpers.rebuilt(text, read_directives(text)) == kept
    return True


# Statements `read_terms` reads, of each kind the splitter must tell apart:
# clauses and directives, `library_directory` clauses, and tokens that hold,
# or stand next to, a `.`, a quote or a comment opener.
SPLIT_STATEMENTS = st.one_of(
    TERMS.map(render_clause),
    TERMS.map(lambda term: render_clause(Compound(":-", (term,)))),
    st.sampled_from([
        "library_directory('/srv/lib').",
        "'library_directory'(x) :- y.",
        "library_directory_x(a).",
        ":-(a, b).",
        ":-dynamic(p/1).",
        ":- multifile p/1, q/2.",
        "x :- +/* .",
        "x :- '.' = '%'.",
        "q('a. b', 'c''d.', '/*').",
        "r :- - .",
        "s(.(a, b)).",
        "t :- a = -. .",
        "u(a) /* c. */ .",
        "v :- [a|b] % c.\n.",
        "w :- p(=..), 'a\\\\'.",
        "y(0, '0''.', a0).",
        r"z(0'., 0'a, 0''', 0'', 0'\n, 0'\\, -0'a, 0'%, 0'/, 0'*) :- 0'' = 0' .",
    ]),
)


BENCH = Path(__file__).resolve().parent.parent / "bench"


class TestSplitAgreesWithReadTerms:
    @given(st.lists(st.tuples(SPAN_LAYOUT, SPLIT_STATEMENTS), max_size=6), SPAN_LAYOUT)
    def test_generated_statements(self, pieces, trailer):
        text = "".join(f"{layout}{statement} " for layout, statement in pieces) + trailer
        assert agrees_with_read_terms(text)

    @given(st.text(alphabet=st.sampled_from(PROLOGISH + list("\"`0x")), max_size=300))
    def test_any_text(self, text):
        if not agrees_with_read_terms(text):
            try:
                read_directives(text)
            except TermSyntaxError as exc:
                assert exc.line >= 1 and exc.col >= 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("workload", ["dense", "sparse", "cold"])
    def test_every_file_of_a_bench_world(self, monkeypatch, workload, seed):
        monkeypatch.setattr(sys, "path", [str(BENCH), *sys.path])
        import run
        import world

        files = world.generate(run.SHAPES[workload], seed).files
        assert all(agrees_with_read_terms(text) for text in files.values())


class TestSplice:
    def test_delete_only_directive_keeps_surroundings(self):
        text = "% keep me\n:- requires([f/1]).\n% and me\n"
        (only,) = read_terms(text)
        result = splice(text, [(only.span, "")])
        assert result == "% keep me\n\n% and me\n"

    def test_insert_at_offset_zero(self):
        text = "p.\n"
        result = splice(text, [(Span(0, 0, 1, 1), ":- new.\n")])
        assert result == ":- new.\np.\n"

    def test_replacement_preserves_outside_bytes(self):
        text = "% head\na.\nb.\n% tail\n"
        first, second = read_terms(text)
        result = splice(text, [(first.span, "x."), (second.span, "")])
        assert result == "% head\nx.\n\n% tail\n"

    def test_overlap_rejected(self):
        text = "abcdef"
        with pytest.raises(SpliceError):
            splice(text, [(Span(0, 3, 1, 1), "x"), (Span(2, 5, 1, 3), "y")])

    def test_out_of_range_rejected(self):
        with pytest.raises(SpliceError):
            splice("abc", [(Span(1, 9, 1, 2), "x")])

    def test_touching_edits_allowed(self):
        text = "abcdef"
        assert splice(text, [(Span(0, 2, 1, 1), "X"), (Span(2, 4, 1, 3), "Y")]) == "XYef"
