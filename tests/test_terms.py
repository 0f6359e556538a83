"""Reader, renderer, and splice behaviour."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
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
    make_list,
    read_term,
    read_terms,
    render_clause,
    render_term,
    splice,
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

    def test_backslash_at_end_of_input_is_an_unknown_escape(self):
        assert self.error("p('ab\\") == (
            "line 1, column 3: unknown escape in quoted atom", 1, 3
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


class TestRender:
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

    @given(st.lists(st.tuples(FILLER, TERMS), min_size=1, max_size=4))
    def test_splice_identity(self, pieces):
        text = "".join(f"{fill}{render_clause(term)}\n" for fill, term in pieces)
        assert splice(text, []) == text

    # At most 64 characters, so no nesting reaches the recursion limit.
    @given(st.text(alphabet=st.sampled_from(PROLOGISH), max_size=64))
    def test_any_text_reads_or_raises_a_syntax_error(self, text):
        try:
            out = read_terms(text)
        except TermSyntaxError as exc:
            assert exc.line >= 1 and exc.col >= 1
        else:
            assert all(isinstance(item, SourceTerm) for item in out)


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
