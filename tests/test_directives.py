"""Directive extraction, if_pl deconstruction, loading-call recognition."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import helpers
from helpers import ENGINE_UNIVERSE
from exlibris.directives import (
    FileRef,
    FunctorRef,
    Load,
    MalformedDirectiveError,
    MayLoad,
    Requirement,
    deconstruct_if_pl,
    extract,
    recognize_loading_call,
)
from exlibris.engines import ALWAYS, Negation, matches, parse_if_pls
from exlibris.terms import read_term, read_terms

SEEDS = st.integers(min_value=0, max_value=2**32)


def facts_of(text: str, path: str | None = None):
    return extract(read_terms(text, path), path)


def deps_of(facts, kind) -> list:
    """The records of one kind in `facts.deps`, in their order there."""
    return [dep for dep in facts.deps if isinstance(dep, kind)]


class TestExtract:
    def test_requires_list(self):
        facts = facts_of(":- requires([member/2,maplist/3,flatten/2]).")
        assert [r.functor for r in deps_of(facts, Requirement)] == [
            FunctorRef("member", 2),
            FunctorRef("maplist", 3),
            FunctorRef("flatten", 2),
        ]

    def test_requires_singleton_normalized(self):
        facts = facts_of(":- requires(member/2).")
        assert [r.functor for r in deps_of(facts, Requirement)] == [FunctorRef("member", 2)]

    def test_may_load_relative(self):
        facts = facts_of(":- may_load(f).")
        assert [m.ref for m in deps_of(facts, MayLoad)] == [FileRef("relative", "f")]

    def test_clause_heads_deduplicated_in_order(self):
        facts = facts_of("p(1).\np(2).\nq.\np(3).\n")
        assert facts.clause_heads == (FunctorRef("p", 1), FunctorRef("q", 0))

    def test_rule_head_counts(self):
        facts = facts_of("p(X) :- q(X).")
        assert facts.clause_heads == (FunctorRef("p", 1),)

    def test_defines_both_arities(self):
        facts = facts_of(
            ":- defines([f/1]).\n:- defines(swi(_), [g/2, h/0]).\n"
        )
        swi = parse_if_pls(read_term("swi(_)"))
        assert facts.provides == (
            (FunctorRef("f", 1), ALWAYS, "user"),
            (FunctorRef("g", 2), swi, "user"),
            (FunctorRef("h", 0), swi, "user"),
        )
        assert facts.provides[1][1] is facts.provides[2][1]  # one object per group

    def test_module_declaration(self):
        facts = facts_of(":- module(lists, [member/2, append/3]).")
        assert facts.provides == (
            (FunctorRef("member", 2), ALWAYS, "lists"),
            (FunctorRef("append", 3), ALWAYS, "lists"),
        )

    def test_defines_module_marker(self):
        facts = facts_of(":- defines_module(built_in).\n:- defines(swi(_), [f/1]).\n")
        swi = parse_if_pls(read_term("swi(_)"))
        assert facts.provides == ((FunctorRef("f", 1), swi, "built_in"),)

    def test_library_directory_directive_and_clause(self):
        text = ":- library_directory('/home/me/HomeLib').\nlibrary_directory('/srv/other').\n"
        assert [text[s.start:s.end] for s in facts_of(text).library_dirs] == [
            ":- library_directory('/home/me/HomeLib').",
            "library_directory('/srv/other').",
        ]

    def test_unguarded_load_carries_always(self):
        facts = facts_of(":- ensure_loaded(library(lists)).")
        (load,) = deps_of(facts, Load)
        assert load.guard == ALWAYS
        assert load.ref == FileRef("library", "lists")

    def test_unknown_directives_ignored(self):
        facts = facts_of(":- set_prolog_flag(double_quotes, codes).\n:- dynamic(foo/1).\n")
        assert facts.deps == ()

    def test_malformed_requires_names_file_and_line(self):
        with pytest.raises(MalformedDirectiveError) as exc:
            facts_of("ok.\n:- requires([member]).", path="proj/file1.pl")
        assert "proj/file1.pl" in str(exc.value)
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "directive",
        ["if_pl(foo(bar), ensure_loaded(x))", "if_pl(swi(_), if_pl(foo(bar), ensure_loaded(x)))"],
        ids=["top_level", "nested"],
    )
    def test_condition_error_names_file_and_line(self, directive):
        with pytest.raises(MalformedDirectiveError) as exc:
            facts_of(f":- {directive}.", path="lib/a.pl")
        assert str(exc.value) == "lib/a.pl:1: bad version component in a version pattern: bar"

    def test_if_pl_loads_are_guarded(self):
        facts = facts_of(":- if_pl(swi(_), consult(a), consult(b)).")
        loads = deps_of(facts, Load)
        assert [str(l.ref) for l in loads] == ["a", "b"]
        swi, sicstus = helpers.SWI, helpers.SICSTUS
        assert matches(loads[0].guard, swi) and not matches(loads[0].guard, sicstus)
        assert matches(loads[1].guard, sicstus) and not matches(loads[1].guard, swi)

    def test_if_pl_condition_is_decoded_once(self, monkeypatch):
        calls = []

        def counting(term):
            calls.append(term)
            return parse_if_pls(term)

        monkeypatch.setattr("exlibris.directives.parse_if_pls", counting)
        facts = facts_of(":- if_pl(swi(_), ensure_loaded(x), ensure_loaded(y)).")
        assert calls == [read_term("swi(_)")]
        cond = parse_if_pls(read_term("swi(_)"))
        assert facts.if_pls[0].cond == cond
        assert [l.guard for l in deps_of(facts, Load)] == [cond, Negation(cond)]

    def test_extract_is_deterministic(self):
        text = ":- requires([f/1]).\n:- may_load(x).\np.\n"
        assert facts_of(text) == facts_of(text)


class TestRecognizeLoadingCall:
    def test_ensure_loaded_alias(self):
        refs = recognize_loading_call(read_term("ensure_loaded(library(lists))"))
        assert refs == (FileRef("library", "lists"),)

    def test_use_module_file_in_first_arg(self):
        refs = recognize_loading_call(read_term("use_module(library(lists), [member/2])"))
        assert refs == (FileRef("library", "lists"),)

    def test_non_loading_call(self):
        assert recognize_loading_call(read_term("format('hi')")) is None

    def test_bracketed_list_goal(self):
        refs = recognize_loading_call(read_term("[f1, f2]"))
        assert refs == (FileRef("relative", "f1"), FileRef("relative", "f2"))

    def test_list_argument(self):
        refs = recognize_loading_call(read_term("consult([a, library(b)])"))
        assert refs == (FileRef("relative", "a"), FileRef("library", "b"))

    def test_slash_alias_path(self):
        refs = recognize_loading_call(read_term("ensure_loaded(library(meta/maplist))"))
        assert refs == (FileRef("library", "meta/maplist"),)
        refs = recognize_loading_call(
            read_term("consult([library(a/(b/c)/d), library(a/1), library(b/X/c)])")
        )
        assert refs == (FileRef("library", "a/b/c/d"),)

    def test_undecodable_args_skipped(self):
        refs = recognize_loading_call(read_term("consult(X)"))
        assert refs == ()


def _guards_for(text: str):
    directive = read_term(text)
    body = directive.args[0] if directive.name == ":-" else directive
    return deconstruct_if_pl(body, parse_if_pls(body.args[0]))


def _truth(guard, expected_fn):
    for engine in ENGINE_UNIVERSE:
        assert matches(guard, engine) == expected_fn(engine), engine


class TestDeconstructIfPl:
    """Five cases expanded by hand before the implementation existed;
    guards are checked semantically over the whole engine universe."""

    def test_single_branch(self):
        out = _guards_for("if_pl(swi(_), ensure_loaded(library(a)))")
        assert [ref for _, ref in out] == [FileRef("library", "a")]
        _truth(out[0][0], lambda e: e.name == "swi")

    def test_else_branch_negates(self):
        out = _guards_for("if_pl(swi(_), consult(a), consult(b))")
        assert [str(ref) for _, ref in out] == ["a", "b"]
        _truth(out[0][0], lambda e: e.name == "swi")
        _truth(out[1][0], lambda e: e.name != "swi")

    def test_conjunction_in_branch(self):
        out = _guards_for("if_pl(yap(_), (consult(a), consult(b)))")
        assert [str(ref) for _, ref in out] == ["a", "b"]
        for guard, _ in out:
            _truth(guard, lambda e: e.name == "yap")

    def test_nested_if_pl_conjoins(self):
        out = _guards_for("if_pl(swi(_), if_pl(sicstus(_), consult(a)))")
        assert [str(ref) for _, ref in out] == ["a"]
        _truth(out[0][0], lambda e: e.name == "swi" and e.name == "sicstus")

    def test_disjunctive_guard_with_nested_else(self):
        out = _guards_for(
            "if_pl([swi(_),yap(_)], consult(a),"
            " (consult(b), if_pl(sicstus(3:_:_), ensure_loaded(c))))"
        )
        assert [str(ref) for _, ref in out] == ["a", "b", "c"]
        _truth(out[0][0], lambda e: e.name in ("swi", "yap"))
        _truth(out[1][0], lambda e: e.name not in ("swi", "yap"))
        _truth(
            out[2][0],
            lambda e: e.name not in ("swi", "yap")
            and e.name == "sicstus"
            and e.version[0] == 3,
        )

    def test_semicolon_branches_walked(self):
        out = _guards_for("if_pl(all, (format(x), consult(a) ; consult(b)))")
        assert [str(ref) for _, ref in out] == ["a", "b"]
        for guard, _ in out:
            _truth(guard, lambda e: True)

    @given(SEEDS)
    def test_else_guards_are_exhaustive(self, seed):
        cond_text, _ = helpers.gen_cond(random.Random(seed), 2)
        out = _guards_for(f"if_pl({cond_text}, consult(a), consult(b))")
        then_guard, else_guard = out[0][0], out[1][0]
        for engine in ENGINE_UNIVERSE:
            assert matches(then_guard, engine) != matches(else_guard, engine)


class TestSourceOrder:
    @given(st.lists(st.tuples(st.integers(0, 3), SEEDS), min_size=1, max_size=6))
    @example([(2, 0), (0, 0), (1, 0), (3, 0), (0, 1)])
    def test_deps_follow_the_source_order_of_their_directives(self, directives):
        """Requirements, loads and may_loads interleave as their directives do,
        and the records of one directive keep their order within it."""
        lines, expected = [], []
        for n, (kind, seed) in enumerate(directives):
            rng = random.Random(seed)
            if kind == 0:
                functors = [FunctorRef(f"f{n}_{k}", k) for k in range(rng.randrange(1, 3))]
                lines.append(f":- requires([{', '.join(map(str, functors))}]).")
                expected += [Requirement(functor) for functor in functors]
            elif kind == 1:
                lines.append(f":- may_load('sub/x{n}').")
                expected.append(MayLoad(FileRef("relative", f"sub/x{n}")))
            elif kind == 2:
                lines.append(f":- ensure_loaded([library(a{n}), b{n}]).")
                expected += [
                    Load(ALWAYS, FileRef("library", f"a{n}")),
                    Load(ALWAYS, FileRef("relative", f"b{n}")),
                ]
            else:
                cond_text, cond = helpers.gen_cond(rng, 1)
                lines.append(f":- if_pl({cond_text}, consult(y{n}), consult(z{n})).")
                expected += [
                    Load(cond, FileRef("relative", f"y{n}")),
                    Load(Negation(cond), FileRef("relative", f"z{n}")),
                ]
        text = "% header\np.\n" + "\n".join(lines) + "\n"
        assert list(facts_of(text).deps) == expected
