"""Typed counting, rate evaluation and the transition relation."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tscls import (LITERAL, POSITIONAL, CountDecl, Instantiation,
                   RateEvalError, RewriteRule, SubstitutionError, Term,
                   Transition, TypeEnv, TypeName, Var, VarKind,
                   WellFormednessError, canonicalize, congruent, count_types,
                   eval_rate, lits, parse_pattern, parse_rate, parse_term,
                   pat, rule_violations, transitions, tvar)
from tscls import semantics
from tscls.catalog import state_change_rule
from tscls.patterns import seq_positioned_elem_vars

from conftest import (general, random_rate, random_rule, random_term,
                      scramble)


def T(text):
    return parse_term(text)


def P(text):
    return parse_pattern(text)


def eq1_rule(k="k", kp="kp"):
    return RewriteRule(
        "eq1", P("a | $X"), P("b | $X"),
        parse_rate(f"(n1 + 1) * {k} / (if n2 == 0 then 1 else n2 * {kp})"),
        (CountDecl(Var(VarKind.TERM, "X"),
                   ((TypeName("t_a"), "n1"), (TypeName("t_c"), "n2"))),))


CONSTS = {"k": 1.0, "kp": 1.0}


class TestCountTypes:
    def test_eq1_binding(self):
        inst = Instantiation({Var(VarKind.TERM, "X"): T("a | c")})
        rule = eq1_rule()
        counts = count_types(inst, rule.counts, TypeEnv())
        assert counts == {"n1": 1, "n2": 1}

    def test_declared_type_absent_gives_zero(self):
        inst = Instantiation({Var(VarKind.TERM, "X"): T("b | b")})
        counts = count_types(inst, eq1_rule().counts, TypeEnv())
        assert counts == {"n1": 0, "n2": 0}

    def test_empty_count_spec(self):
        inst = Instantiation({Var(VarKind.TERM, "X"): T("a")})
        assert count_types(inst, (), TypeEnv()) == {}

    def test_seq_var_counts_seq_types(self):
        decl = (CountDecl(Var(VarKind.SEQ, "x"),
                          ((TypeName("t_perm", True), "n"),)),)
        inst = Instantiation({Var(VarKind.SEQ, "x"): ("perm", "m")})
        assert count_types(inst, decl, TypeEnv()) == {"n": 2 - 1}

    def test_positional_length_one_seq_binding(self):
        # a membrane holding exactly one element still counts seq-typed
        decl = (CountDecl(Var(VarKind.SEQ, "x"),
                          ((TypeName("t_m", True), "n"),
                           (TypeName("t_m"), "b"))),)
        inst = Instantiation({Var(VarKind.SEQ, "x"): ("m",)})
        assert count_types(inst, decl, TypeEnv(), POSITIONAL) \
            == {"n": 1, "b": 0}
        assert count_types(inst, decl, TypeEnv(), LITERAL) \
            == {"n": 0, "b": 1}

    def test_elem_var_positional(self):
        lhs = P("?y | ?z.a | $X")
        seqpos = seq_positioned_elem_vars(lhs)
        decl = (CountDecl(Var(VarKind.ELEM, "y"), ((TypeName("t_q"), "a1"),)),
                CountDecl(Var(VarKind.ELEM, "z"),
                          ((TypeName("t_q", True), "a2"),)))
        inst = Instantiation({Var(VarKind.ELEM, "y"): "q",
                              Var(VarKind.ELEM, "z"): "q",
                              Var(VarKind.TERM, "X"): Term(())})
        counts = count_types(inst, decl, TypeEnv(), POSITIONAL, seqpos)
        assert counts == {"a1": 1, "a2": 1}

    def test_term_binding_loop_counts_membrane(self):
        decl = (CountDecl(Var(VarKind.TERM, "X"),
                          ((TypeName("t_a", True), "n"),
                           (TypeName("t_x"), "m"))),)
        inst = Instantiation({Var(VarKind.TERM, "X"): T("<a.a>[x | x]")})
        assert count_types(inst, decl, TypeEnv()) == {"n": 2, "m": 0}

    def test_same_type_under_two_names(self):
        decl = (CountDecl(Var(VarKind.TERM, "X"),
                          ((TypeName("t_a"), "p"), (TypeName("t_a"), "q"))),)
        inst = Instantiation({Var(VarKind.TERM, "X"): T("a | a | a")})
        assert count_types(inst, decl, TypeEnv()) == {"p": 3, "q": 3}


class TestEvalRate:
    def test_eq1_values(self):
        rule = eq1_rule()
        assert eval_rate(rule, {"n1": 1, "n2": 1}, CONSTS) == 2.0
        assert eval_rate(rule, {"n1": 1, "n2": 0}, CONSTS) == 2.0

    def test_rate_is_compiled_once_per_rule(self):
        rule = eq1_rule()
        assert rule.evaluate is rule.evaluate
        assert rule.evaluate({"n1": 2, "n2": 2}, CONSTS) == 1.5

    def test_division_by_zero_names_rule(self):
        rule = RewriteRule("bad", P("a | $X"), P("a | $X"),
                           parse_rate("1 / n"),
                           (CountDecl(Var(VarKind.TERM, "X"),
                                      ((TypeName("t_a"), "n"),)),))
        with pytest.raises(RateEvalError) as exc:
            eval_rate(rule, {"n": 0}, {})
        assert "bad" in str(exc.value)

    @pytest.mark.parametrize("text", ["k * k - k * k", "k * k", "0 - k * k"])
    def test_non_finite_names_rule_and_compartment(self, text):
        rule = RewriteRule("big", P("a"), P("b"), parse_rate(text))
        with pytest.raises(RateEvalError,
                           match="rule big: rate is not finite"):
            eval_rate(rule, {}, {"k": 1e308})
        with pytest.raises(RateEvalError, match=r"\(compartment /0\)$"):
            transitions(T("<m>[ a ]"), [rule], None, {"k": 1e308})

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=300, deadline=None)
    def test_result_is_finite_or_error(self, seed):
        rng = random.Random(seed)
        names = ["n0", "n1", "k"]
        rule = RewriteRule("r", pat(lits("a")), pat(lits("b")),
                           random_rate(rng, names))
        counts = {"n0": rng.randint(0, 3), "n1": rng.randint(0, 3)}
        consts = {"k": rng.choice([0.0, 2.0, 1e308])}
        try:
            rate = eval_rate(rule, counts, consts)
        except RateEvalError:
            return
        assert math.isfinite(rate)


class TestRuleViolations:
    def test_valid_rule(self):
        assert rule_violations(eq1_rule(), CONSTS) == []

    def test_empty_lhs(self):
        rule = RewriteRule("r", pat(), pat(lits("a")), parse_rate("1"))
        assert any("empty" in v for v in rule_violations(rule, {}))

    def test_rhs_variable_not_in_lhs(self):
        rule = RewriteRule("r", pat(lits("a")), pat(tvar("Z")),
                           parse_rate("1"))
        assert any("$Z" in v for v in rule_violations(rule, {}))

    def test_count_var_not_in_lhs(self):
        rule = RewriteRule(
            "r", pat(lits("a")), pat(lits("b")), parse_rate("n"),
            (CountDecl(Var(VarKind.TERM, "Z"), ((TypeName("t_a"), "n"),)),))
        assert any("count block" in v for v in rule_violations(rule, {}))

    def test_rate_references_unknown_name(self):
        rule = RewriteRule("r", pat(lits("a")), pat(lits("b")),
                           parse_rate("kx"))
        assert any("kx" in v for v in rule_violations(rule, {}))


class TestTransitions:
    def test_flat_example(self):
        trs = transitions(T("a | a | c"), [eq1_rule()], None, CONSTS)
        assert len(trs) == 1
        assert trs[0].rate == 2.0
        assert congruent(trs[0].target, T("a | b | c"))
        assert trs[0].path == ()

    def test_loop_example(self):
        trs = transitions(T("<b.c.c>[a | a | a | c]"), [eq1_rule()],
                          None, CONSTS)
        assert len(trs) == 1
        assert trs[0].rate == 3.0
        assert trs[0].path == (0,)

    def test_chain_rates(self):
        state, seen = T("<b.c.c>[a | a | a | c]"), []
        while True:
            trs = transitions(state, [eq1_rule()], None, CONSTS)
            if not trs:
                break
            assert len(trs) == 1
            seen.append(trs[0].rate)
            state = trs[0].target
        assert seen == [3.0, 2.0, 1.0]
        assert congruent(state, T("<b.c.c>[b | b | b | c]"))

    def test_rates_all_positive(self):
        rule = RewriteRule(
            "neg", P("a | $X"), P("b | $X"), parse_rate("n - 2"),
            (CountDecl(Var(VarKind.TERM, "X"), ((TypeName("t_a"), "n"),)),))
        assert transitions(T("a | a"), [rule], None, {}) == ()
        trs = transitions(T("a | a | a | a"), [rule], None, {})
        assert [t.rate for t in trs] == [1.0]

    def test_same_target_different_rules_kept(self):
        r1 = state_change_rule("a", "b", 1.0, rule_id="one")
        r2 = state_change_rule("a", "b", 2.0, rule_id="two")
        trs = transitions(T("a"), [r1, r2], None, {})
        assert [(t.rule_id, t.rate) for t in trs] == [("one", 1.0),
                                                      ("two", 2.0)]

    @pytest.mark.parametrize("plans", [True, False])
    def test_rules_sharing_an_id_stay_apart(self, plans):
        # one group per rule, not per id: outcomes keep the rule order,
        # and equal outcomes of two rules are not merged
        rules = [state_change_rule("a", "c", 1.0, rule_id="r"),
                 state_change_rule("a", "b", 1.0, rule_id="r"),
                 state_change_rule("a", "b", 1.0, rule_id="r")]
        if not plans:
            rules = [general(r) for r in rules]
        trs = transitions(T("a"), rules, None, {})
        assert [t.target for t in trs] == [T("c"), T("b"), T("b")]

    def test_deterministic_order(self):
        rules = [state_change_rule("a", "b", 1.0),
                 state_change_rule("c", "d", 1.0)]
        state = T("a | c | <m>[ a | c ]")
        trs = transitions(state, rules, None, {})
        keys = [(t.rule_id, t.path) for t in trs]
        assert keys == [("a_to_b", ()), ("a_to_b", (0,)),
                        ("c_to_d", ()), ("c_to_d", (0,))]

    def test_empty_compartment_not_rewritten(self):
        # $X alone would instantiate the lhs to eps inside the empty loop
        rule = RewriteRule("spawn", P("$X"), P("a | $X"), parse_rate("1"))
        trs = transitions(T("<m>[eps]"), [rule], None, {})
        assert [t.path for t in trs] == [()]

    def test_frame_insensitivity_other_compartment(self):
        rule = state_change_rule("a", "b", 1.0)
        base = transitions(T("<m>[a | a]"), [rule], None, {})
        grown = transitions(T("<m>[a | a] | a.a | q"), [rule], None, {})
        inner = [t for t in grown if t.path == (0,)]
        assert base[0].rate == 2.0
        assert [t.rate for t in inner] == [2.0]

    def test_same_compartment_count_sensitivity(self):
        rule = state_change_rule("a", "b", 1.0)
        r1 = transitions(T("a | a"), [rule], None, {})[0].rate
        r2 = transitions(T("a | a | a"), [rule], None, {})[0].rate
        assert r2 - r1 == 1.0

    def test_target_errors_raise_at_enumeration(self):
        # ~x binds eps on `a`, so the rhs wraps b in an empty membrane
        wrap = RewriteRule("wrap", P("a.~x | $X"), P("<~x>[ $X ]"),
                           parse_rate("1"))
        with pytest.raises(WellFormednessError):
            transitions(T("a | b"), [wrap], None, {})
        (tr,) = transitions(T("a.c | b"), [wrap], None, {})
        assert tr.target == T("<c>[ b ]")
        free = RewriteRule("free", P("a | $X"), P("a | $Z"), parse_rate("1"))
        with pytest.raises(SubstitutionError):
            transitions(T("a | b"), [free], None, {})

    def test_rotations_merge_and_target_is_built_on_read(self, monkeypatch):
        # R13 and R14 with a membrane ~x.?y stay on the general path and
        # match once per distinct rotation of m.perm.perm
        y = Var(VarKind.TERM, "Y")
        rules = [
            RewriteRule("R13", P("<~x.?y>[ perm | $X ] | $Y"),
                        P("<perm.~x.?y>[ $X ] | $Y"),
                        parse_rate("(n + 1) * 0.1"),
                        (CountDecl(Var(VarKind.TERM, "X"),
                                   ((TypeName("t_perm"), "n"),)),)),
            RewriteRule("R14", P("<~x.?y>[ $X ] | LACT | $Y"),
                        P("<~x.?y>[ LACT | $X ] | $Y"),
                        parse_rate("(n + 1) * 0.001"),
                        (CountDecl(y, ((TypeName("t_LACT"), "n"),)),)),
        ]
        assert [r.plan for r in rules] == [None, None]
        built = []
        real = semantics.substitute
        monkeypatch.setattr(semantics, "substitute",
                            lambda p, inst: built.append(p) or real(p, inst))
        trs = transitions(T("<m.perm.perm>[ perm | a ] | LACT"), rules,
                          None, {})
        assert [tr.rule_id for tr in trs] == ["R13", "R14"]
        assert built == []
        assert trs[0].target == T("<m.perm.perm.perm>[ a ] | LACT")
        assert trs[0].target is trs[0].target
        assert len(built) == 1

    def test_deferred_transition_is_a_value(self):
        eager = Transition("r", (0,), T("a | b"), 2.0)
        lazy = Transition.deferred("r", (0,), lambda: T("a | b"), 2.0)
        assert lazy == eager and hash(lazy) == hash(eager)
        assert lazy != Transition("r", (0,), T("a"), 2.0)
        assert repr(lazy) == repr(eager)
        with pytest.raises(AttributeError):
            lazy.rate = 3.0

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=100, deadline=None)
    def test_congruence_invariance(self, seed):
        rng = random.Random(seed)
        state = random_term(rng)
        rules = [eq1_rule(), state_change_rule("d", "e", 0.5)]
        assert transitions(state, rules, None, CONSTS) \
            == transitions(scramble(state, rng), rules, None, CONSTS)

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=100, deadline=None)
    def test_purity(self, seed):
        rng = random.Random(seed)
        state = random_term(rng)
        rule = random_rule(rng, "r")
        first = transitions(state, [rule], None, {})
        assert transitions(state, [rule], None, {}) == first


class TestMassAction:
    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=100, deadline=None)
    def test_state_change_rate_counts_bare_elements(self, seed):
        from tscls import Seq
        state = canonicalize(random_term(random.Random(seed)))
        rule = state_change_rule("a", "b", 0.5)
        trs = [t for t in transitions(state, [rule], None, {})
               if t.path == ()]
        bare = sum(1 for c in state.components if c == Seq(("a",)))
        if bare == 0:
            assert trs == []
        else:
            assert len(trs) == 1 and trs[0].rate == bare * 0.5

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=100, deadline=None)
    def test_complexation_rate(self, seed):
        from tscls import Seq
        from tscls.catalog import complexation_rule
        state = canonicalize(random_term(random.Random(seed)))
        rule = complexation_rule("a", "b", "c", 2.0)
        trs = [t for t in transitions(state, [rule], None, {})
               if t.path == ()]
        num_a = sum(1 for c in state.components if c == Seq(("a",)))
        num_b = sum(1 for c in state.components if c == Seq(("b",)))
        if num_a and num_b:
            assert len(trs) == 1 and trs[0].rate == num_a * num_b * 2.0
        else:
            assert trs == []
