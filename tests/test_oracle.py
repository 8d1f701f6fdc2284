"""Brute-force reference implementations versus the production paths."""

import pytest

from tscls import (CountDecl, Instantiation, RewriteRule, TypeEnv, TypeName,
                   Var, VarKind, match_whole, parse_pattern, parse_rate,
                   parse_term, transitions)
from tscls.catalog import (OsmosisParams, lac_operon_model, osmosis_rules,
                           state_change_rule)
from conftest import abstract_pattern, random_rule, random_term
from oracle import (OracleSizeError, brute_force_matches,
                    brute_force_transitions)

ENV = TypeEnv()


def T(text):
    return parse_term(text)


def P(text):
    return parse_pattern(text)


class TestBruteForceMatches:
    def test_flat_frame(self):
        got = brute_force_matches(P("a | $X"), T("a | a | c"))
        assert got == frozenset(
            [Instantiation({Var(VarKind.TERM, "X"): T("a | c")})])
        assert got == match_whole(P("a | $X"), T("a | a | c"))

    def test_elem_var_and_empty_frame(self):
        got = brute_force_matches(P("?y | $X"), T("a"))
        assert got == frozenset([Instantiation({
            Var(VarKind.ELEM, "y"): "a",
            Var(VarKind.TERM, "X"): T("eps"),
        })])

    def test_seq_var_whole_sequence(self):
        got = brute_force_matches(P("~x"), T("a.b"))
        assert got == frozenset(
            [Instantiation({Var(VarKind.SEQ, "x"): ("a", "b")})])

    def test_no_match(self):
        assert brute_force_matches(P("a"), T("a | b")) == frozenset()

    def test_rotation(self):
        got = brute_force_matches(P("<a.~x>[eps]"), T("<c.a.b>[eps]"))
        assert got == frozenset(
            [Instantiation({Var(VarKind.SEQ, "x"): ("b", "c")})])

    @pytest.mark.parametrize("pattern, term, found", [
        ("2 * <~x>[ $X ] | $Y", "<m>[ a ] | <m>[ b ]", 0),
        ("2 * <~x>[ $X ] | $Y", "2 * <m>[ a ] | <m.n>[ a ]", 1),
        ("2 * ?y | $X", "a | b | 2 * c | 2 * d.e", 1),
        ("2 * ~x | $X", "3 * a | b", 2),
        ("2 * $X | $Y", "3 * a | b", 2),
        ("<~x>[ $X ] | 2 * $X", "<m>[ a ] | 2 * a", 1),
    ])
    def test_repeated_items(self, pattern, term, found):
        # n copies of an item take n copies of one component, the same
        # the oracle finds by matching every copy on its own; each
        # occurrence of a term variable binds the same term
        got = brute_force_matches(P(pattern), T(term))
        assert len(got) == found
        assert got == match_whole(P(pattern), T(term))

    def test_size_guard(self):
        with pytest.raises(OracleSizeError):
            brute_force_matches(P("$X"), T("9 * a"))
        with pytest.raises(OracleSizeError):
            brute_force_matches(P("$X"), T("<m>[ 9 * a ]"))
        assert brute_force_matches(P("$X"), T("8 * a"))

    def test_agrees_with_matcher(self, rng):
        for _ in range(150):
            t = random_term(rng)
            pattern = abstract_pattern(rng, t) if rng.random() < 0.7 \
                else random_rule(rng, "r").lhs
            assert brute_force_matches(pattern, t) == match_whole(pattern, t)


class TestBruteForceTransitions:
    def test_flat_example(self):
        rule = state_change_rule("a", "b", 1.0)
        got = brute_force_transitions(T("a | a | c"), [rule])
        assert got == frozenset(transitions(T("a | a | c"), [rule], ENV, {}))
        (tr,) = got
        assert tr.rate == 2.0 and tr.target == T("a | b | c")

    def test_nested_example(self):
        rule = state_change_rule("a", "b", 1.0)
        state = T("a | <m>[ a | a ]")
        got = brute_force_transitions(state, [rule])
        assert got == frozenset(transitions(state, [rule], ENV, {}))
        assert len(got) == 2

    def test_empty_ruleset(self):
        assert brute_force_transitions(T("a | a"), []) == frozenset()

    def test_size_guard(self):
        with pytest.raises(OracleSizeError):
            brute_force_transitions(T("9 * a"),
                                    [state_change_rule("a", "b", 1.0)])

    def test_agrees_with_transitions(self, rng):
        # R13 and R14 match once per rotation of the membrane, all with one
        # outcome; `show` also copies the rotation into a flat sequence, so
        # its outcomes differ and must not be merged
        lac = lac_operon_model()
        show = RewriteRule("show", P("<~x>[ $X ] | LACT | $Y"),
                           P("~x | <~x>[ $X ] | $Y"), parse_rate("1"))
        rules = [r for r in lac.rules if r.id in ("R13", "R14")] + [show]
        state = T("<m.perm.perm>[ perm | a ] | LACT")
        env = lac.type_env()
        fast = transitions(state, rules, env, lac.constants)
        assert [tr.rule_id for tr in fast] == ["R13", "R14"] + ["show"] * 3
        assert frozenset(fast) == brute_force_transitions(
            state, rules, env, lac.constants)
        # compiled rules: repeated and multi-element ground items, counts
        # that see a loop membrane, and a rule whose $X binds eps
        x = Var(VarKind.TERM, "X")
        grab = RewriteRule("grab", P("a | a | b.c | $X"), P("d | b.c | $X"),
                           parse_rate("(n + 1) * 2"),
                           (CountDecl(x, ((TypeName("t_a"), "n"),)),))
        count = RewriteRule("count", P("a | $X"), P("$X"),
                            parse_rate("n1 + n2 + 1"),
                            (CountDecl(x, ((TypeName("t_m", True), "n1"),
                                           (TypeName("t_a"), "n2"))),))
        for state in (T("a | a | a | b.c | <m.m>[ a ]"), T("a | a | b.c")):
            rules = [grab, count]
            assert all(r.plan is not None for r in rules)
            fast = transitions(state, rules, ENV, {})
            assert fast and frozenset(fast) == brute_force_transitions(
                state, rules)
        # a cells-style osmosis pair: water leaves one kind of cell and
        # enters the other; the repeated cell is one outcome
        params = OsmosisParams(surface=1.0, volume=1.0, va=1.0, vb=2.0,
                               k=10.0)
        rules = list(osmosis_rules("W", "S", params, ids=("W_out", "W_in")))
        assert all(r.plan is not None for r in rules)
        state = T("<m.p>[ 2 * W | S ] | 2 * <aq.m>[ W | 2 * S ] | 2 * W"
                  " | 2 * S")
        fast = transitions(state, rules, ENV, {})
        assert [tr.rule_id for tr in fast] == ["W_out", "W_in"]
        assert frozenset(fast) == brute_force_transitions(state, rules)
        for _ in range(60):
            state = random_term(rng)
            rules = [random_rule(rng, f"r{i}") for i in range(rng.randrange(1, 3))]
            fast = transitions(state, rules, ENV, {})
            assert frozenset(fast) == brute_force_transitions(state, rules)
