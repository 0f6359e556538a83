"""Version ordering and condition matching, checked against oracles."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from helpers import (
    ENGINE_UNIVERSE,
    brute_matches,
    lex_compare,
    syntactic_verdict,
    term_order,
    version_chain,
)
from exlibris.engines import (
    ALWAYS,
    Constrained,
    Disjunction,
    EngineConditionError,
    EnginePattern,
    Negation,
    PlId,
    can_match,
    conjoin,
    matches,
    parse_if_pls,
    render_cond,
)
from exlibris.terms import read_term, render_term

VERSIONS = st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=4).map(tuple)
SEEDS = st.integers(min_value=0, max_value=2**32)
UNIVERSE_ENGINE = st.sampled_from(ENGINE_UNIVERSE)


def cond_from_seed(seed: int, depth: int = 3):
    return helpers.gen_cond(random.Random(seed), depth)[1]


# the six comparisons of a pair condition, as a `lex_compare` result against 0
LEX_OPS = {
    "=": lambda c: c == 0, "\\=": lambda c: c != 0, "<": lambda c: c < 0,
    "=<": lambda c: c <= 0, ">": lambda c: c > 0, ">=": lambda c: c >= 0,
}


def holds(a, op, b) -> bool:
    """Whether an engine of version `a` satisfies `(e,[(b,op)])`."""
    return matches(Constrained("e", ((b, op),)), PlId("e", a))


def version_order(a, b) -> int:
    """-1, 0 or 1, read off the pair conditions `<` and `=`."""
    return -1 if holds(a, "<", b) else 0 if holds(a, "=", b) else 1


class TestCompareVersions:
    """Version order as pair conditions judge it."""

    def test_swi_versions(self):
        assert version_order((5, 0, 5), (5, 0, 7)) == -1

    def test_reflexive(self):
        assert version_order((3, 9, 0), (3, 9, 0)) == 0

    def test_prefix_sorts_first(self):
        # Cross-checked against the standard-order comparison of the two
        # decoded `:` chains before freezing.
        assert term_order(version_chain((4, 3)), version_chain((4, 3, 23))) == -1
        assert version_order((4, 3), (4, 3, 23)) == -1
        cond = parse_if_pls(read_term("(sicstus,[(3:9,>)])"))
        assert matches(cond, PlId("sicstus", (3, 9, 0))) is True

    @given(VERSIONS, VERSIONS)
    def test_matches_independent_lexicographic(self, a, b):
        for op, expected in LEX_OPS.items():
            assert holds(a, op, b) == expected(lex_compare(a, b)), op

    @given(VERSIONS, VERSIONS)
    def test_antisymmetric(self, a, b):
        assert version_order(a, b) == -version_order(b, a)

    @given(VERSIONS, VERSIONS, VERSIONS)
    def test_transitive(self, a, b, c):
        triple = sorted([a, b, c])
        assert holds(triple[0], "=<", triple[1])
        assert holds(triple[1], "=<", triple[2])
        assert holds(triple[0], "=<", triple[2])

    @given(VERSIONS, VERSIONS)
    def test_total(self, a, b):
        assert [holds(a, op, b) for op in ("<", "=", ">")].count(True) == 1
        assert holds(a, "=", b) == (a == b)

    @given(VERSIONS, VERSIONS)
    def test_agrees_with_term_order_on_same_length_and_prefix_pairs(self, a, b):
        same_length = len(a) == len(b)
        prefix = a == b[: len(a)] or b == a[: len(b)]
        if same_length or prefix:
            assert version_order(a, b) == term_order(version_chain(a), version_chain(b))


class TestParseIfPls:
    def test_any_is_always(self):
        assert parse_if_pls(read_term("any")) == ALWAYS
        assert parse_if_pls(read_term("all")) == ALWAYS

    def test_negated_pattern(self):
        assert parse_if_pls(read_term("not(swi(_))")) == Negation(
            EnginePattern("swi", (None,))
        )

    def test_list_is_disjunction(self):
        assert parse_if_pls(read_term("[swi(_), yap(_)]")) == Disjunction(
            (EnginePattern("swi", (None,)), EnginePattern("yap", (None,)))
        )

    def test_partial_pattern(self):
        assert parse_if_pls(read_term("sicstus(3:_:_)")) == EnginePattern(
            "sicstus", (3, None, None)
        )

    def test_pair_form(self):
        assert parse_if_pls(read_term("(sicstus,[(3:9:0,>=)])")) == Constrained(
            "sicstus", (((3, 9, 0), ">="),)
        )

    def test_empty_list_rejected(self):
        with pytest.raises(EngineConditionError):
            parse_if_pls(read_term("[]"))

    def test_named_variable_rejected(self):
        with pytest.raises(EngineConditionError):
            parse_if_pls(read_term("swi(V)"))

    def test_malformed_reports_rendering(self):
        with pytest.raises(EngineConditionError) as exc:
            parse_if_pls(read_term("f(a,b,c)"))
        assert "f(a,b,c)" in str(exc.value)

    @given(SEEDS)
    def test_surface_text_decodes_to_expected_ast(self, seed):
        text, cond = helpers.gen_cond(random.Random(seed), 3)
        assert parse_if_pls(read_term(text)) == cond

    @given(SEEDS)
    def test_cond_term_round_trip(self, seed):
        cond = cond_from_seed(seed)
        assert parse_if_pls(read_term(render_cond(cond))) == cond

    @given(SEEDS)
    def test_cond_text_is_the_canonical_text_of_its_term(self, seed):
        text = render_cond(cond_from_seed(seed))
        assert render_term(read_term(text)) == text

    @pytest.mark.parametrize(
        "cond, top, argument",
        [
            (Constrained("sicstus", (((3, 9, 0), ">="),)),
             "sicstus,[(3:9:0,(>=))]", "(sicstus,[(3:9:0,(>=))])"),
            (Constrained("not", (((2,), "\\="), ((3,), "<"))),
             "(not),[(2,(\\=)),(3,(<))]", "((not),[(2,(\\=)),(3,(<))])"),
            (Negation(Constrained("swi", ())), "not((swi,[]))", "not((swi,[]))"),
            (Disjunction((ALWAYS, EnginePattern("yap", (4, None)))), "[any,yap(4:_)]",
             "[any,yap(4:_)]"),
        ],
        ids=["pair", "operator_name", "negated_pair", "list"],
    )
    def test_pair_condition_is_bracketed_below_the_comma(self, cond, top, argument):
        assert (render_cond(cond), render_cond(cond, 999)) == (top, argument)
        assert parse_if_pls(read_term(top)) == cond


class TestMatches:
    def test_swi_wildcard_matches_swi(self):
        assert matches(EnginePattern("swi", (None,)), helpers.SWI)

    def test_negation_selects_home_flatten_for_sicstus(self):
        assert matches(Negation(EnginePattern("swi", (None,))), helpers.SICSTUS)

    def test_always_matches_everything(self):
        for engine in ENGINE_UNIVERSE:
            assert matches(ALWAYS, engine)

    def test_constrained_truth_table(self):
        # Hand-enumerated over the 6-engine universe: version >= 3:9:0 under
        # lexicographic compare, and only for engines named sicstus.
        cond = Constrained("sicstus", (((3, 9, 0), ">="),))
        expected = {
            PlId("swi", (5, 0, 5)): False,
            PlId("swi", (5, 0, 7)): False,
            PlId("sicstus", (3, 8, 5)): False,
            PlId("sicstus", (3, 9, 0)): True,
            PlId("yap", (4, 3, 23)): False,
            PlId("yap", (4, 3)): False,
        }
        for engine, verdict in expected.items():
            assert matches(cond, engine) is verdict

    def test_wildcard_tail_absorbs_missing_components(self):
        assert matches(EnginePattern("yap", (4, 3, None)), PlId("yap", (4, 3)))
        assert not matches(EnginePattern("yap", (4, 3, 23)), PlId("yap", (4, 3)))

    @given(SEEDS, UNIVERSE_ENGINE)
    def test_negation_flips(self, seed, engine):
        cond = cond_from_seed(seed)
        assert matches(Negation(cond), engine) == (not matches(cond, engine))

    @given(st.lists(SEEDS, min_size=1, max_size=4), UNIVERSE_ENGINE)
    def test_disjunction_is_or(self, seeds, engine):
        conds = [cond_from_seed(seed) for seed in seeds]
        disj = Disjunction(tuple(conds))
        assert matches(disj, engine) == any(matches(c, engine) for c in conds)

    @given(st.lists(SEEDS, min_size=1, max_size=4), SEEDS, UNIVERSE_ENGINE)
    def test_disjunction_order_irrelevant(self, seeds, shuffle_seed, engine):
        conds = [cond_from_seed(seed) for seed in seeds]
        shuffled = list(conds)
        random.Random(shuffle_seed).shuffle(shuffled)
        assert matches(Disjunction(tuple(conds)), engine) == matches(
            Disjunction(tuple(shuffled)), engine
        )

    @given(SEEDS)
    def test_agrees_with_brute_force_over_universe(self, seed):
        cond = cond_from_seed(seed)
        for engine in ENGINE_UNIVERSE:
            assert matches(cond, engine) == brute_matches(cond, engine)

    @given(SEEDS, SEEDS, UNIVERSE_ENGINE)
    def test_conjoin_is_and(self, seed_a, seed_b, engine):
        a, b = cond_from_seed(seed_a), cond_from_seed(seed_b)
        assert matches(conjoin(a, b), engine) == (
            matches(a, engine) and matches(b, engine)
        )


class TestAllEngines:
    """`matches(cond, None)`: True for every engine, False for none, None if it depends."""

    @given(SEEDS)
    def test_follows_the_syntactic_rule(self, seed):
        cond = cond_from_seed(seed)
        assert matches(cond, None) is syntactic_verdict(cond)

    @given(SEEDS)
    def test_sound_over_the_universe(self, seed):
        cond = cond_from_seed(seed)
        verdict = matches(cond, None)
        seen = {brute_matches(cond, engine) for engine in ENGINE_UNIVERSE}
        if verdict is not None:
            assert seen == {verdict}

    def test_verdicts(self):
        swi = EnginePattern("swi", (None,))
        assert matches(ALWAYS, None) is True
        assert matches(Negation(ALWAYS), None) is False
        assert matches(swi, None) is None
        assert matches(Disjunction((swi, ALWAYS)), None) is True
        assert matches(Disjunction((swi, Negation(ALWAYS))), None) is None
        assert matches(Negation(Disjunction((swi, ALWAYS))), None) is False

    @given(SEEDS)
    def test_can_match(self, seed):
        cond = cond_from_seed(seed)
        assert can_match(cond, None) is (matches(cond, None) is not False)
        assert can_match(cond, ENGINE_UNIVERSE) is any(
            brute_matches(cond, engine) for engine in ENGINE_UNIVERSE
        )
        assert can_match(cond, ()) is False


class TestRefusals:
    @pytest.mark.parametrize("version", [(), (1, -1)], ids=["empty", "negative"])
    def test_engine_version_without_non_negative_components(self, version):
        with pytest.raises(ValueError, match="one or more non-negative components"):
            PlId("swi", version)

    def test_empty_disjunction(self):
        with pytest.raises(ValueError, match="disjunction lists must be non-empty"):
            Disjunction(())

    @pytest.mark.parametrize("judge", [
        lambda item: render_cond(item, 999), lambda item: matches(item, helpers.SWI),
    ], ids=["render_cond", "matches"])
    def test_something_that_is_not_a_condition(self, judge):
        with pytest.raises(TypeError, match=r"not a condition: PlId\(name='swi'"):
            judge(helpers.SWI)

    def test_an_int_is_not_a_condition_to_matches(self):
        """The type of the stack's list lengths is none a caller passes."""
        with pytest.raises(TypeError, match="not a condition: 3"):
            matches(3, PlId("swi", (5,)))

    def test_a_str_is_not_a_condition_to_render_cond(self):
        """The type of the stack's literal text is none a caller passes."""
        with pytest.raises(TypeError, match="not a condition: 'swi'"):
            render_cond("swi")


class TestDeepNesting:
    """10,000 levels, far past the recursion limit.  The deep values are
    never compared, hashed or printed: dataclass `__eq__`, `__hash__` and
    `__repr__` recurse."""

    DEPTH = 10_000

    def test_negation_chain(self):
        cond = ALWAYS
        for _ in range(self.DEPTH + 1):
            cond = Negation(cond)
        verdicts = (matches(cond, helpers.SWI), matches(cond, None))
        assert verdicts == (False, False)

    def test_nested_disjunction(self):
        cond = EnginePattern("swi", (None,))
        for _ in range(self.DEPTH):
            cond = Disjunction((EnginePattern("yap", (None,)), cond))
        verdicts = (matches(cond, helpers.SWI), matches(cond, helpers.SICSTUS), matches(cond, None))
        assert verdicts == (True, False, None)
