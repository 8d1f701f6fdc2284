"""The compiled path for ``ground | $X`` and single-loop rules versus the
general path."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tscls import (LITERAL, POSITIONAL, CountDecl, Loop, RateEvalError,
                   RewriteRule, Seq, Term, TypeEnv, TypeName, Var, VarKind,
                   canonicalize, compartments, count_types, eval_rate,
                   match_whole, parse_model, parse_pattern, parse_rate,
                   parse_term, path_text, simulate, splice, substitute,
                   transitions, type_of)
from tscls import compiled, engine, semantics, terms
from tscls.catalog import lac_operon_model
from tscls.compiled import Plan
from tscls.engine import Pcg64, step
from tscls.patterns import seq_positioned_elem_vars
from tscls.semantics import Enumerator
from tscls.terms import component_counts, type_counts

from conftest import (CELLS, MASS, assert_multisets_canonical, general,
                      osmosis_pair, random_compiled_rule, random_env,
                      random_loop_rule, random_loop_state, random_term)

X = Var(VarKind.TERM, "X")
Y = Var(VarKind.TERM, "Y")
XS = Var(VarKind.SEQ, "x")


def T(text):
    return parse_term(text)


def P(text):
    return parse_pattern(text)


def rule(rid, lhs, rhs, rate, *decls):
    return RewriteRule(rid, P(lhs), P(rhs), parse_rate(rate),
                       tuple(CountDecl(X, tuple(entries))
                             for entries in decls))


def loop_rule(rid, lhs, rhs, rate, *decls):
    """A rule whose count blocks name their variables: (var, entries)."""
    return RewriteRule(rid, P(lhs), P(rhs), parse_rate(rate),
                       tuple(CountDecl(var, tuple(entries))
                             for var, entries in decls))


def reference(state, rules, env, consts, mode):
    """The transition list of the general path, for rules with at most
    one instantiation per compartment: match_whole, count_types,
    eval_rate, then substitute and splice."""
    state = canonicalize(state)
    found = []
    for site in compartments(state):
        if site.content.is_empty():
            continue
        for index, r in enumerate(rules):
            insts = match_whole(r.lhs, site.content)
            assert len(insts) <= 1
            for inst in insts:
                counts = count_types(inst, r.counts, env, mode,
                                     seq_positioned_elem_vars(r.lhs))
                try:
                    rate = eval_rate(r, counts, consts)
                except RateEvalError as exc:
                    raise RateEvalError(
                        f"{exc} (compartment {path_text(site.path)})") \
                        from None
                if rate > 0:
                    target = splice(state, site.path,
                                    substitute(r.rhs, inst))
                    found.append((index, site.path, r.id, rate, target))
    found.sort(key=lambda f: f[:2])
    return [(rid, path, rate, target) for _, path, rid, rate, target in found]


def outcome(fn):
    try:
        return fn()
    except RateEvalError as exc:
        return type(exc), str(exc)


def compiled_outcome(state, rules, env, consts, mode):
    def run():
        return [(tr.rule_id, tr.path, tr.rate, tr.target)
                for tr in transitions(state, rules, env, consts, mode)]
    return outcome(run)


def assert_counters_exact(t):
    """Every cached component counter below ``t`` lists the components,
    in order, with their multiplicities, and is canonical."""
    for site in compartments(t):
        cached = site.content._counter
        if cached is not None:
            assert list(cached.items()) \
                == list(Counter(site.content.components).items())
    assert_multisets_canonical(t)


class TestPlan:
    def test_lac_rules_outside_the_shape(self):
        rules = lac_operon_model().rules
        assert [r.id for r in rules if r.plan is None] == []

    @pytest.mark.parametrize("lhs, rhs, counted", [
        ("a | ~x | $X", "a | $X", X),          # sequence variable
        ("a.?y | $X", "a | $X", X),            # element variable
        ("<m>[ a ] | $X", "$X", X),            # loop
        ("a | $X", "b", X),                    # rhs drops $X
        ("a | $X", "b | $Y", X),               # rhs names another variable
        ("a | $X | $Y", "$X | $Y", X),         # two term variables
        ("a | $X", "$X | $X", X),              # $X twice in the rhs
        ("a | $X", "b | $X", Var(VarKind.TERM, "Y")),  # count elsewhere
        # rules with one loop
        ("<~x.?y>[ a | $X ] | $Y", "<~x.?y>[ $X ] | $Y", X),  # membrane
        ("<a.~x>[ $X ] | $Y", "<a.~x>[ $X ] | $Y", X),     # literal in it
        ("<~x>[ $X ] | $Y", "<~z>[ $X ] | $Y", X),         # other seq var
        ("<~x>[ $X ] | $X", "<~x>[ $X ] | $X", X),         # $X is $Y
        ("<~x>[ $X ] | $Y", "<~x>[ $Y ] | $X", X),         # swapped
        ("<~x>[ $X ] | $Y", "$X | $Y", X),                 # loop dissolves
        ("<~x>[ $X ] | <~z>[ $Z ] | $Y",
         "<~x>[ $X ] | <~z>[ $Z ] | $Y", X),               # two loops
        ("<~x>[ <~z>[ $Z ] | $X ] | $Y",
         "<~x>[ <~z>[ $Z ] | $X ] | $Y", X),               # nested loop
        ("<~x>[ a.?y | $X ] | $Y", "<~x>[ $X ] | $Y", X),  # element var
        ("<~x>[ $X ] | $Y", "<~x>[ $X ] | $Y",
         Var(VarKind.ELEM, "y")),                          # count elsewhere
        ("2 * $X", "2 * $X", X),                           # $X twice
        ("2 * <~x>[ $X ] | $Y", "2 * <~x>[ $X ] | $Y", X),  # loop twice
    ])
    def test_general_shapes(self, lhs, rhs, counted):
        r = RewriteRule("r", P(lhs), P(rhs), parse_rate("n"),
                        (CountDecl(counted, ((TypeName("t_a"), "n"),)),))
        assert r.plan is None

    def test_count_name_bound_twice(self):
        # the general path lets the last count block set the name; the
        # plan counts the frame after the cell
        r = loop_rule("r", "<~x>[ $X ] | a | $Y", "<~x>[ a | $X ] | $Y",
                      "n", (Y, [(TypeName("t_a"), "n")]),
                      (X, [(TypeName("t_a"), "n")]))
        assert r.plan is None

    def test_plan_is_kept_on_the_rule(self):
        r = rule("r", "a | a | b.c | $X", "d | $X", "1")
        assert r.plan is r.plan
        assert r.plan.need == Counter({Seq(("a",)): 2, Seq(("b", "c")): 1})
        assert r.plan.give == Counter({Seq(("d",)): 1})

    def test_general_layers_are_not_called(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("general path taken")
        for name in ("match_whole", "count_types", "substitute", "image"):
            monkeypatch.setattr(semantics, name, fail)
        r = rule("r", "a | $X", "b | $X", "(n + 1) * 0.5",
                 [(TypeName("t_a"), "n")])
        (tr,) = transitions(T("a | a | <m>[ b ]"), [r], None, {})
        assert (tr.rate, tr.target) == (1.0, T("a | b | <m>[ b ]"))

    def test_loop_rules_do_not_call_the_general_layers(self, monkeypatch):
        lac = lac_operon_model()
        lac_rules = [r for r in lac.rules if r.id in ("R13", "R14")]
        lac_state = T("<m.perm.perm>[ perm | a ] | <a.b>[ perm ] | LACT")
        cells_rules = osmosis_pair()
        cells_state = T("<m.p>[ 3 * W | S ] | 2 * <aq.m>[ W | 2 * S ] |"
                        " 5 * W | 3 * S")
        cases = [(lac_state, lac_rules, lac.type_env(), lac.constants),
                 (cells_state, cells_rules, TypeEnv(), {})]
        want = [[(tr.rule_id, tr.path, tr.rate, tr.target)
                 for tr in transitions(state, [general(r) for r in rules],
                                       env, consts)]
                for state, rules, env, consts in cases]

        def fail(*args, **kwargs):
            raise AssertionError("general path taken")
        for name in ("match_whole", "count_types", "substitute", "image"):
            monkeypatch.setattr(semantics, name, fail)
        for (state, rules, env, consts), expected in zip(cases, want):
            assert all(r.plan is not None for r in rules)
            got = [(tr.rule_id, tr.path, tr.rate, tr.target)
                   for tr in transitions(state, rules, env, consts)]
            assert got == expected
        # R13 on m.perm.perm: one outcome; on a.b: perm.a.b and perm.b.a;
        # R14 has no permease to use on a.b
        assert [rid for rid, *_ in want[0]] == ["R13"] * 3 + ["R14"]
        assert {rid for rid, *_ in want[1]} == {"W_out", "W_in"}


class TestAgainstGeneralPath:
    def check(self, state, rules, env=None, consts=None, mode=POSITIONAL):
        env = env if env is not None else TypeEnv()
        consts = consts if consts is not None else {}
        assert all(r.plan is not None for r in rules)
        got = compiled_outcome(state, rules, env, consts, mode)
        want = outcome(lambda: reference(state, rules, env, consts, mode))
        assert got == want
        if isinstance(got, list):
            for _, _, _, target in got:
                assert_counters_exact(target)
        return got

    def test_empty_binding(self):
        r = rule("r", "a | b.c | $X", "d | $X", "(n + 1) * 2",
                 [(TypeName("t_a"), "n")])
        [(_, _, rate, target)] = self.check(T("a | b.c"), [r])
        assert (rate, target) == (2.0, T("d"))

    def test_repeated_ground_items(self):
        r = rule("r", "a | a | $X", "b | $X", "(n + 1) * 1",
                 [(TypeName("t_a"), "n")])
        assert self.check(T("a"), [r]) == []
        [(_, _, rate, target)] = self.check(T("a | a | a | c"), [r])
        assert (rate, target) == (2.0, T("a | b | c"))

    def test_a_multiplicity_too_large_to_list(self):
        # 2^62 copies are consumed with one subtraction, by the plan and
        # by the general path, which is checked with plans off as well
        n = 2 ** 62
        r = rule("r", f"{n} * a | $X", "$X", "1")
        for state, want in ((T(f"{n - 1} * a | c"), []),
                            (T(f"{n} * a | c"), [("r", (), 1.0, T("c"))])):
            assert self.check(state, [r]) == want
            assert compiled_outcome(state, [general(r)], TypeEnv(), {},
                                    POSITIONAL) == want

    def test_multi_element_ground_sequence(self):
        r = rule("r", "b.c | $X", "c.b | b.c | $X", "1")
        assert self.check(T("b | c"), [r]) == []
        [(_, _, _, target)] = self.check(T("b.c | <m>[ b.c ]"), [r])[:1]
        assert target == T("b.c | c.b | <m>[ b.c ]")

    def test_counts_seq_tagged_types(self):
        # membranes and longer sequences in $X count as seq(t)
        r = rule("r", "a | $X", "$X", "n1 + 10 * n2 + 100 * n3",
                 [(TypeName("t_b", True), "n1"), (TypeName("t_b"), "n2")],
                 [(TypeName("t_m", True), "n3")])
        [(_, _, rate, _)] = self.check(
            T("a | b | b.b.c | 2 * <m.b>[ a ] | <m.m>[ eps ]"), [r])
        assert rate == 4 + 10 * 1 + 100 * 4

    def test_literal_typing(self):
        r = rule("r", "a | $X", "$X", "n1 + 10 * n2",
                 [(TypeName("t_b"), "n1"), (TypeName("t_b", True), "n2")])
        for mode in (POSITIONAL, LITERAL):
            [(_, _, rate, _)] = self.check(T("a | b | b.b"), [r], mode=mode)
            assert rate == 21.0

    @pytest.mark.parametrize("rate, paths", [
        ("n", [(0,)]), ("n - 1", []), ("0", []),
        ("1e308 * 1e308", None), ("1e308 * 1e308 - 1e308 * 1e308", None)])
    def test_non_positive_and_non_finite_rates(self, rate, paths):
        # n is 0 at the root and 1 in /0
        r = rule("r", "a | $X", "$X", rate, [(TypeName("t_a"), "n")])
        got = self.check(T("a | <m>[ a | a ]"), [r])
        if paths is None:
            assert got[0] is RateEvalError and "(compartment /)" in got[1]
        else:
            assert [path for _, path, _, _ in got] == paths

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=300, deadline=None)
    def test_random_states_and_rules(self, seed):
        rng = random.Random(seed)
        state = random_term(rng, depth=2, max_comps=5)
        rules = [random_compiled_rule(rng, state, f"r{i}")
                 for i in range(rng.randint(1, 3))]
        self.check(state, rules, random_env(rng), {},
                   rng.choice((POSITIONAL, LITERAL)))


class TestLoopAgainstGeneralPath:
    def check(self, state, rules, env=None, consts=None, mode=POSITIONAL):
        env = env if env is not None else TypeEnv()
        consts = consts if consts is not None else {}
        assert all(r.plan is not None for r in rules)
        got = compiled_outcome(state, rules, env, consts, mode)
        want = compiled_outcome(state, [general(r) for r in rules], env,
                                consts, mode)
        assert got == want
        if isinstance(got, list):
            for _, _, _, target in got:
                assert_counters_exact(target)
        return got

    def test_repeated_identical_cells(self):
        out, _ = osmosis_pair()
        got = self.check(T("2 * <a.b>[ W | W | S ] | <a.b>[ W | S ] | W"),
                         [out])
        # one outcome per distinct cell, the repeated one counted once
        assert [path for _, path, _, _ in got] == [(), ()]
        assert T("<a.b>[ W | S ] | <a.b>[ W | W | S ] | <a.b>[ W | S ]"
                 " | W | W") in [target for *_, target in got]

    @pytest.mark.parametrize("membrane, outcomes", [
        ("m.perm.perm", 1), ("a.b", 2), ("perm", 1), ("a.a", 1)])
    def test_rotations_of_the_rhs_membrane(self, membrane, outcomes):
        r13 = next(r for r in lac_operon_model().rules if r.id == "R13")
        got = self.check(T(f"<{membrane}>[ perm | perm ] | LACT"), [r13])
        assert len(got) == outcomes
        assert {rate for _, _, rate, _ in got} == {0.2}

    def test_empty_bindings(self):
        r = loop_rule("r", "<~x>[ b | $X ] | $Y", "<~x>[ $X ] | b | $Y",
                      "(n1 + 1) * (n2 + 1) * (n3 + 1)",
                      (X, [(TypeName("t_b"), "n1")]),
                      (Y, [(TypeName("t_b"), "n2"), (TypeName("t_a", True),
                                                     "n3")]))
        [(_, path, rate, target)] = self.check(T("<a>[ b ]"), [r])
        assert (path, rate, target) == ((), 1.0, T("<a> | b"))
        got = self.check(T("<a>[ b ] | <a.a>[ b | b ]"), [r])
        assert sorted(rate for _, _, rate, _ in got) == [3.0, 4.0]

    def test_loops_nested_in_the_cell(self):
        r = loop_rule("r", "<~x>[ b | $X ] | c | $Y",
                      "<~x.e>[ c | $X ] | $Y", "(n1 + 1) * (n2 + 1)",
                      (X, [(TypeName("t_a", True), "n1")]),
                      (Y, [(TypeName("t_b"), "n2")]))
        got = self.check(T("c | b | <d>[ b | 2 * <a.a>[ b | c | <a>[ b ] ] ]"
                           " | <d.d>[ a ]"), [r])
        # at the root $X holds two loops of membrane a.a; each of those
        # holds c and a cell <a>[ b ] with an empty $X
        assert [(path, rate) for _, path, rate, _ in got] \
            == [((), 10.0), ((0, 0), 2.0), ((0, 1), 2.0)]

    def test_literal_typing_of_short_membranes(self):
        r = loop_rule("r", "<~x>[ $X ] | b | $Y", "<~x>[ b | $X ] | $Y",
                      "1 + n1 + 10 * n2",
                      (XS, [(TypeName("t_a"), "n1"),
                            (TypeName("t_a", True), "n2")]))
        state = T("b | <a>[ c ] | <a.a>[ c ]")
        for mode, rates in ((POSITIONAL, [11.0, 21.0]),
                            (LITERAL, [2.0, 21.0])):
            got = self.check(state, [r], mode=mode)
            assert sorted(rate for _, _, rate, _ in got) == rates

    def test_cells_recounted_under_another_typing(self):
        # one plan and one state under two environments: the cells counted
        # under the first must be counted again under the second
        r = loop_rule("r", "<~x>[ $X ] | b | $Y", "<~x>[ b | $X ] | $Y",
                      "n + 1", (X, [(TypeName("t_a"), "n")]))
        state = T("b | <m>[ a | c ] | <p>[ c ]")
        rates = [sorted(rate for _, _, rate, _ in self.check(state, [r], env))
                 for env in (TypeEnv(), TypeEnv({"c": "t_a"}))]
        assert rates == [[1.0, 2.0], [2.0, 3.0]]

    def test_cells_in_membrane_order(self):
        # c.e sorts before e by membrane but after it as a component, and
        # its rate raises another error than e's: both paths raise for it
        r = loop_rule("r", "<~x>[ b | $X ] | $Y", "<~x>[ $X ] | b | $Y",
                      "1 / n * 1e308 * 1e308",
                      (XS, [(TypeName("t_c", True), "n")]))
        got = self.check(T("<e>[ b ] | <c.e>[ b ]"), [r])
        assert got[0] is RateEvalError and "not finite" in got[1]

    @pytest.mark.parametrize("inner, frame, rate", [
        ("X", "Y", "division by zero"), ("Y", "X", "not finite")])
    def test_first_error_follows_the_variable_names(self, inner, frame, rate):
        # two cells with equal membranes raise different rate errors; the
        # general path raises for the binding that sorts first by name
        r = loop_rule("r", f"<~x>[ b | ${inner} ] | ${frame}",
                      f"<~x>[ ${inner} ] | b | ${frame}",
                      "1 / (n - 1) * 1e308 * 1e308",
                      (Var(VarKind.TERM, inner), [(TypeName("t_b"), "n")]))
        got = self.check(T("<a>[ b | b ] | <a>[ b | b | b ]"), [r])
        assert got[0] is RateEvalError and rate in got[1]

    @pytest.mark.parametrize("rate, rates", [
        ("n", [1.0, 2.0]), ("n - 1", [1.0]), ("n - 2", []), ("0", []),
        ("1e308 * 1e308", None), ("1e308 * 1e308 - 1e308 * 1e308", None)])
    def test_non_positive_and_non_finite_rates(self, rate, rates):
        # n is 1 for the first cell and 2 for the second
        r = loop_rule("r", "<~x>[ $X ] | a | $Y", "<~x>[ a | $X ] | $Y",
                      rate, (X, [(TypeName("t_a"), "n")]))
        got = self.check(T("a | <b>[ a ] | <c>[ a | a ]"), [r])
        if rates is None:
            assert got[0] is RateEvalError and "(compartment /)" in got[1]
        else:
            assert sorted(rate for _, _, rate, _ in got) == rates

    def test_outcomes_of_repeated_cells_are_ordered(self):
        out, inn = osmosis_pair()
        got = self.check(T("3 * <a.b>[ 4 * W | S ] | 2 * <a>[ 3 * W | S ] |"
                           " <b>[ 2 * W | 2 * S ] | <a.b>[ W | 3 * S ] |"
                           " 2 * W | S"), [out, inn])
        assert [rid for rid, *_ in got].count("W_out") == 2
        assert [rid for rid, *_ in got].count("W_in") == 2

    def test_new_loop_equal_to_another_cell(self):
        # <a>[ b | b ] loses a b and becomes a copy of <a>[ b ]
        r = loop_rule("r", "<~x>[ b | $X ] | $Y", "<~x>[ $X ] | b | $Y",
                      "(n + 1) * 0.5", (X, [(TypeName("t_b"), "n")]))
        got = self.check(T("<a>[ b ] | <a>[ b | b ] | <a>[ 3 * b ] |"
                           " 2 * <c>[ b | b ]"), [r])
        assert sorted(rate for _, _, rate, _ in got) == [0.5, 1.0, 1.0, 1.5]

    @pytest.mark.parametrize("rate, rates", [
        ("1", [1.0]), ("n + 1", [1.0, 2.0, 3.0])])
    def test_loops_left_unchanged(self, rate, rates):
        # every target is the state with c turned into d: one transition
        # per distinct rate, in the order of the rates, though the cells
        # come in membrane order with rates 3, 2, 3, 1
        r = loop_rule("r", "<~x>[ $X ] | c | $Y", "<~x>[ $X ] | d | $Y",
                      rate, (X, [(TypeName("t_b"), "n")]))
        got = self.check(T("c | <a>[ b | b ] | <b>[ b ] | <c>[ b | b ] |"
                           " <d>"), [r])
        assert [rate for _, _, rate, _ in got] == rates
        assert {target for *_, target in got} \
            == {T("d | <a>[ b | b ] | <b>[ b ] | <c>[ b | b ] | <d>")}

    def test_some_loops_left_unchanged(self):
        # the rhs membrane is a literal: cells of membrane a keep theirs
        r = loop_rule("r", "<~x>[ $X ] | c | $Y", "<a>[ $X ] | d | $Y",
                      "n + 1", (X, [(TypeName("t_b"), "n")]))
        got = self.check(T("c | <a>[ b ] | <a>[ b | b ] | <b>[ b ] |"
                           " <a.a> | <c>[ eps ]"), [r])
        assert len(got) == 5

    def test_outcomes_at_a_nested_path(self):
        r = loop_rule("r", "<~x>[ b | $X ] | $Y", "<~x>[ $X ] | b | $Y",
                      "(n + 1) * (m + 1)", (X, [(TypeName("t_b"), "n")]),
                      (Y, [(TypeName("t_b"), "m")]))
        got = self.check(T("<d>[ <a>[ b ] | <a>[ b | b ] | <c>[ 3 * b ] |"
                           " b ] | <e>[ <a>[ b ] ] | b"), [r])
        assert [path for _, path, _, _ in got].count((0,)) == 3

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=300, deadline=None)
    def test_random_groups(self, seed):
        # cells from a small pool, so that cells repeat, new loops equal
        # other cells and rates tie; rules that may keep the loop as it is
        rng = random.Random(seed)
        pool = [Loop(membrane, Term([Seq(("b",))] * n))
                for membrane in (("a",), ("a", "b"), ("c",))
                for n in range(3)]
        state = Term([rng.choice(pool) for _ in range(rng.randint(2, 7))]
                     + [Seq(("b",))] * rng.randint(0, 2))
        if rng.random() < 0.4:
            state = Term([Loop(("d",), state), Seq(("b",))])
        g_in, h_in, g_out, h_out = (rng.choice(("b | ", "")) for _ in "1234")
        membrane = rng.choice(("~x", "~x", "a", "~x.a"))
        rate = rng.choice(("1", "n + 1", "m + 1", "(n + 1) * (m + 1)",
                           "f + 1", "n + m + f"))
        r = loop_rule("r", f"<~x>[ {g_in}$X ] | {g_out}$Y",
                      f"<{membrane}>[ {h_in}$X ] | {h_out}$Y", rate,
                      (X, [(TypeName("t_b"), "n")]),
                      (XS, [(TypeName("t_a", True), "m")]),
                      (Y, [(TypeName("t_b"), "f")]))
        self.check(state, [r])

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=300, deadline=None)
    def test_random_states_and_rules(self, seed):
        rng = random.Random(seed)
        state = random_loop_state(rng)
        rules = [random_loop_rule(rng, state, f"r{i}")
                 for i in range(rng.randint(1, 3))]
        self.check(state, rules, random_env(rng), {},
                   rng.choice((POSITIONAL, LITERAL)))


def test_one_target_is_built_per_step(monkeypatch):
    # 20 cells, each with an osmosis outcome at the root; only the drawn
    # transition's target is built
    calls = []
    build = Plan.build

    def counted(*args):
        calls.append(args)
        return build(*args)
    monkeypatch.setattr(Plan, "build", counted)
    cells = " | ".join(f"<m.p>[ {n} * W | 3 * S ]" for n in range(1, 21))
    state = T(f"{cells} | 30 * W | 10 * S")
    rules = osmosis_pair()
    trs = transitions(state, rules, TypeEnv(), {})
    assert len(trs) >= 20 and not calls
    _, chosen = step(state, rules, TypeEnv(), {}, Pcg64(1))
    chosen.target
    assert len(calls) == 1


@given(st.integers(0, 10 ** 9))
@settings(max_examples=200, deadline=None)
def test_successors_type_as_type_of(seed):
    # a target built by Plan.build shares every compartment the rule left
    # alone, with the type histogram cached on it while counting its
    # parent; each of its compartments must still type as type_of does
    rng = random.Random(seed)
    state = canonicalize(random_loop_state(rng))
    rules = [random_loop_rule(rng, state, "r0"),
             random_compiled_rule(rng, state, "r1")]
    env, mode = random_env(rng), rng.choice((POSITIONAL, LITERAL))
    for r in rules:
        r.__dict__["evaluate"] = lambda counts, consts: 1.0
    for tr in transitions(state, rules, env, {}, mode):
        for site in compartments(tr.target):
            assert type_counts(site.content, env) \
                == type_of(site.content, env)


@given(st.integers(0, 10 ** 9))
@settings(max_examples=200, deadline=None)
def test_target_keys_are_made_without_the_loop(seed):
    # a candidate's target key is made from the key of the cell's content
    # alone; it names the loop the candidate makes
    rng = random.Random(seed)
    state = canonicalize(random_loop_state(rng))
    plan, env = random_loop_rule(rng, state, "r").plan, random_env(rng)
    for site in compartments(state) if plan is not None else ():
        for cell in component_counts(site.content):
            entry = isinstance(cell, Loop) and plan._cell(cell, env, False)
            for membrane in entry.membranes if entry else ():
                key = entry.successor_key(membrane)
                assert key == entry.successor(membrane).key


class TestRateMemo:
    def test_two_constants_mappings(self):
        r = rule("r", "a | $X", "b | $X", "(n + 1) * k",
                 [(TypeName("t_a"), "n")])
        slow, fast = {"k": 1.0}, {"k": 3.0}
        for _ in range(2):
            assert eval_rate(r, {"n": 1}, slow) == 2.0
            assert eval_rate(r, {"n": 1}, fast) == 6.0
            for consts, rate in ((slow, 2.0), (fast, 6.0)):
                (tr,) = transitions(T("a | a"), [r], TypeEnv(), consts)
                assert tr.rate == rate

    def test_constants_changed_in_place(self):
        # each transitions() call is its own run and reads the constants'
        # values as they are then: a caller that changes its dict between
        # calls gets the new rates
        model = parse_model(CELLS)
        env, consts = model.type_env(), model.constants
        for k in (10.0, 3.0, 3.0, 10.0):
            consts["k"] = k
            fresh = parse_model(CELLS.replace("const k = 10.0",
                                              f"const k = {k}"))
            got = transitions(model.init, model.rules, env, consts)
            assert got == transitions(fresh.init, fresh.rules,
                                      fresh.type_env(), fresh.constants)
        r = rule("r", "a | $X", "b | $X", "(n + 1) * k",
                 [(TypeName("t_a"), "n")])
        consts = {"k": 1.0}
        assert eval_rate(r, {"n": 1}, consts) == 2.0
        consts["k"] = 3.0
        assert eval_rate(r, {"n": 1}, consts) == 6.0

    def test_counts_are_the_key(self):
        # a count shadows a constant of the same name
        r = rule("r", "a | $X", "b | $X", "(n + 1) * k",
                 [(TypeName("t_a"), "n")])
        consts = {"k": 3.0}
        assert eval_rate(r, {"n": 1}, consts) == 6.0
        assert eval_rate(r, {"n": 1, "k": 10.0}, consts) == 20.0
        assert eval_rate(r, {"k": 1, "n": 10.0}, consts) == 11.0
        assert eval_rate(r, {"n": 2}, consts) == 9.0
        assert eval_rate(r, {"n": 1}, consts) == 6.0

    @pytest.mark.parametrize("rate, message", [
        ("1 / n", "division by zero at 1:3"),
        ("if n == 0 then 1e308 * 1e308 else n", "rate is not finite (inf)")])
    def test_errors_are_raised_on_every_call(self, rate, message):
        # no error is kept: a call with the counts that raised raises again,
        # before and after a call that succeeded
        r = rule("r", "a | $X", "b | $X", rate, [(TypeName("t_a"), "n")])
        consts = {}
        for n in (0, 0, 1, 0, 0):
            if n:
                assert eval_rate(r, {"n": n}, consts) == 1.0
                continue
            with pytest.raises(RateEvalError) as exc:
                eval_rate(r, {"n": n}, consts)
            assert str(exc.value) == f"rule r: {message}"

    def test_table_is_bounded(self):
        r = rule("r", "a | $X", "b | $X", "(n + 1) * 0.5",
                 [(TypeName("t_a"), "n")])
        enumerator = Enumerator([r], TypeEnv(), {})
        for n in list(range(5000)) + list(range(100)):
            assert enumerator._rates[0]({"n": n}) == (n + 1) * 0.5
        assert len(enumerator._rates[0].table) <= 4096

    def test_constants_are_fixed_when_the_enumerator_is_made(self):
        # an enumerator keeps the rates of its run, so it must not see a
        # later change to the caller's dict: in a state it has not seen,
        # its rates are those of the constants it was made with
        model = parse_model(CELLS)
        env, consts = model.type_env(), model.constants
        old = dict(consts)
        enumerator = Enumerator(model.rules, env, consts)
        first = enumerator.outcomes(model.init).transition(0).target
        consts["k"] = 3.0
        got = enumerator.outcomes(first).all()
        assert got == Enumerator(model.rules, env, old).outcomes(first).all()
        assert got != Enumerator(model.rules, env, consts).outcomes(
            first).all()


def test_a_warm_step_reuses_histograms_and_rates(monkeypatch):
    # 20 cells with distinct membranes and two kinds of content at the
    # root: after an event, a step types the compartments the event
    # changed; each step makes its own enumerator, whose rate table
    # evaluates each count tuple once, and the cells share few of them
    cells = " | ".join(f"<{'m.' * i}p>[ {(2, 4)[i % 2]} * W |"
                       f" {(3, 1)[i % 2]} * S ]" for i in range(1, 21))
    state = T(f"{cells} | 30 * W | 10 * S")
    rules = osmosis_pair()
    env, consts = TypeEnv(), {}
    histograms, rates = [], []
    build = terms.counter_types
    monkeypatch.setattr(terms, "counter_types",
                        lambda *args: histograms.append(args) or build(*args))
    for r in rules:
        monkeypatch.setitem(r.__dict__, "evaluate",
                            lambda c, k, f=r.evaluate: rates.append(c)
                            or f(c, k))
    _, chosen = step(state, rules, env, consts, Pcg64(1))
    assert len(histograms) == 21  # cold: the root and every cell
    del histograms[:], rates[:]
    step(chosen.target, rules, env, consts, Pcg64(2))
    assert len(histograms) <= 3 and len(rates) <= 10


def test_a_step_enumerates_only_what_an_event_changed(monkeypatch):
    # 20 cells; an event changes one compartment and those enclosing it,
    # and the next step of the same enumerator calls Plan.entries there
    # only: around the changed cell for the loop rules, whose outcomes
    # must name the new cell, and inside it for the rules whose outcomes
    # the event can change. AB counts t_A, so an A -> B event in a cell
    # changes AB's outcomes there, and no count the osmosis rules read;
    # an osmosis event changes the cell's count of W, which both osmosis
    # rules read there, and none of AB's
    cells = " | ".join(f"<m.p>[ {n} * W | 3 * S | A ]" for n in range(1, 21))
    state = canonicalize(T(f"{cells} | 30 * W | 10 * S | A"))
    rules = osmosis_pair() + [rule("AB", "A | $X", "B | $X", "(n + 1) * 2",
                                   [(TypeName("t_A"), "n")])]
    w_out, w_in, ab = (r.plan for r in rules)
    enumerator = Enumerator(rules, TypeEnv(), {})
    outcomes = enumerator.outcomes(state)
    seen = []
    entries = Plan.entries
    monkeypatch.setattr(Plan, "entries", lambda self, kept, content, *rest:
                        seen.append((self, id(content)))
                        or entries(self, kept, content, *rest))
    for drawn, at_root, redo in (("AB", False, (ab,)),
                                 ("W_out", True, (w_out, w_in))):
        target = next(tr for tr in outcomes.all() if tr.rule_id == drawn
                      and (tr.path == ()) == at_root).target
        before = {id(site.content) for site in compartments(state)}
        changed = [site.content for site in compartments(target)
                   if id(site.content) not in before]
        [cell] = set(target.components) - set(state.components)
        assert changed == [target, cell.content]
        del seen[:]
        got = enumerator.outcomes(target).all()
        # the root, then the content of the cell the event changed
        assert seen == [(w_out, id(target)), (w_in, id(target))] + [
            (plan, id(cell.content)) for plan in redo]
        del seen[:]
        assert got == transitions(target, rules, TypeEnv(), {})
        assert len(seen) == 21 * len(rules)  # a fresh enumerator keeps nothing
        state, outcomes = target, enumerator.outcomes(target)
    # the Python work of a step is that of the compartments and cells the
    # event replaced: with 20 or 200 cells at the root, the step after a
    # W_out event enumerates the root and the new cell's content, calls
    # Plan.entries, Plan._cell and the rates missing from the rate table
    # as often, and makes target keys for the new cell alone. The cells
    # differ in their membranes only, so that all but the new one share
    # a rate
    monkeypatch.undo()
    work = [step_work(monkeypatch, n) for n in (20, 200)]
    assert work[0] == work[1]
    assert work[0] == {"compartments": 2, "entries": 4, "cells": 2,
                       "missed": 4, "keys": 2}


def step_work(monkeypatch, n):
    """What the step after a W_out event among ``n`` cells does, counted;
    its transitions are those of a fresh enumeration."""
    cells = " | ".join(f"<m{i}.p>[ 4 * W | 3 * S ]" for i in range(n))
    state = canonicalize(T(f"{cells} | 30 * W | 10 * S"))
    rules = osmosis_pair()
    enumerator = Enumerator(rules, TypeEnv(), {})
    outcomes = enumerator.outcomes(state)
    i = next(i for i in range(len(outcomes.rates))
             if outcomes.rule_index(i) == 0)
    target = outcomes.transition(i).target
    calls = Counter()
    with monkeypatch.context() as patch:
        for owner, name, counted in (
                (Enumerator, "_enumerated", "compartments"),
                (Plan, "entries", "entries"), (Plan, "_cell", "cells"),
                (semantics, "eval_rate", "missed"),
                (compiled, "_target_key", "keys")):
            patch.setattr(owner, name, lambda *args, fn=getattr(owner, name),
                          counted=counted: calls.update([counted])
                          or fn(*args))
        got = enumerator.outcomes(target).all()
    assert got == transitions(target, rules, TypeEnv(), {})
    return dict(calls)


@pytest.mark.parametrize("rules, state", [
    # W_out turns <m.p>[ S | 2 * W ] into a cell that sorts before two of
    # its siblings, and W_in moves others by one
    (osmosis_pair(), "<m.p>[ 3 * W ] | <m.p>[ 2 * W | S ] |"
     " <m.p>[ W | 2 * S ] | <m.p>[ 3 * S ] | <m.p>[ 4 * W | S ] |"
     " <p>[ 2 * W | 2 * S ] | 6 * W | 3 * S"),
    # cells two deep, beside cells one deep
    (osmosis_pair() + [rule("AB", "A | $X", "B | $X", "(n + 1) * 2",
                            [(TypeName("t_A"), "n")])],
     "<d>[ <m.p>[ 3 * W | S | A ] | <p>[ 2 * W | A ] | 4 * W | S | A ] |"
     " <e>[ <m>[ W | S ] | W ] | <m.p>[ W | 2 * S ] | 2 * W | 3 * S"),
    # two copies of one cell
    (osmosis_pair() + [rule("AB", "A | $X", "B | $X", "(n + 1) * 2",
                            [(TypeName("t_A"), "n")])],
     "2 * <m.p>[ 3 * W | S | A ] | <m.p>[ 2 * W | S ] |"
     " 2 * <p>[ <q>[ W | A ] | W ] | 5 * W | 2 * S"),
    # the root's only cell, as in the lac operon, holds two cells: an
    # event two levels deep replaces every compartment on its way
    (osmosis_pair() + [rule("AB", "A | $X", "B | $X", "(n + 1) * 2",
                            [(TypeName("t_A"), "n")])],
     "<d>[ <m.p>[ 3 * W | S | A ] | <p>[ 2 * W | A ] | 4 * W | S ] |"
     " 5 * W | 2 * S"),
    # two copies of the root's only cell: the last copy's block goes
    (osmosis_pair() + [rule("AB", "A | $X", "B | $X", "(n + 1) * 2",
                            [(TypeName("t_A"), "n")])],
     "2 * <m.p>[ 3 * W | S | A ] | 5 * W | 2 * S"),
    # no cell, two ground rules: no event replaces a cell
    ([rule("AB", "A | $X", "B | $X", "(n + 1) * 2", [(TypeName("t_A"), "n")]),
      rule("BA", "B | $X", "A | $X", "(n + 1) * 3",
           [(TypeName("t_B"), "n")])],
     "3 * A | 2 * B | C"),
    # an event that empties a cell or the root
    (osmosis_pair() + [rule("A0", "A | $X", "$X", "1")],
     "<m.p>[ A ] | <p>[ W | A ] | W | S"),
    ([rule("A0", "A | $X", "$X", "1")], "A")])
def test_a_step_after_any_event_is_a_fresh_enumeration(rules, state):
    # after each outcome, and after each outcome of its target in turn,
    # the enumerator that drew it gives the transitions a fresh one gives,
    # and enumerating a target drops what its build left on it, which
    # names the compartments of the state before
    state = canonicalize(T(state))
    before = {id(site.content) for site in compartments(state)}
    for i in range(len(transitions(state, rules, TypeEnv(), {}))):
        enumerator = Enumerator(rules, TypeEnv(), {})
        target = enumerator.outcomes(state).transition(i).target
        outcomes = enumerator.outcomes(target)
        assert not any(id(part) in before for site in compartments(target)
                       for part in site.content._outcomes or ())
        assert outcomes.all() == transitions(target, rules, TypeEnv(), {})
        for j in range(len(outcomes.rates)):
            later = outcomes.transition(j).target
            assert enumerator.outcomes(later).all() \
                == transitions(later, rules, TypeEnv(), {})
            outcomes = enumerator.outcomes(target)
    # an enumerator of the rules in another order reads nothing that
    # another one's builds left on the targets
    outcomes = Enumerator(rules, TypeEnv(), {}).outcomes(state)
    targets = [outcomes.transition(i).target
               for i in range(len(outcomes.rates))]
    other, backwards = Enumerator(rules[::-1], TypeEnv(), {}), rules[::-1]
    for target in targets:
        other.outcomes(state)
        assert other.outcomes(target).all() \
            == transitions(target, backwards, TypeEnv(), {})


def steps_after(rules, state, drawn):
    """For each outcome of rule ``drawn`` in ``state``: the transitions of
    its target from the enumerator that drew it, and from a fresh one."""
    out = []
    for i, tr in enumerate(transitions(state, rules, TypeEnv(), {})):
        if tr.rule_id == drawn:
            enumerator = Enumerator(rules, TypeEnv(), {})
            target = enumerator.outcomes(state).transition(i).target
            out.append((enumerator.outcomes(target).all(),
                        transitions(target, rules, TypeEnv(), {})))
    return out


def rated(trs, rule_id):
    return sorted(tr.rate for tr in trs if tr.rule_id == rule_id)


GROW = loop_rule("grow", "<~x>[ $X ] | A | $Y", "<p.~x>[ $X ] | $Y", "1")
COUNT_P = loop_rule("count", "<~x>[ $X ] | $Y", "<~x>[ $X ] | $Y", "n + 1",
                    (X, [(TypeName("t_p", True), "n")]))


@pytest.mark.parametrize("rules, state, drawn, watched", [
    # AS moves no W, which is all W_out needs in a cell, but changes the
    # count of S there, which both osmosis rules read
    (osmosis_pair() + [rule("AS", "A | $X", "S | $X", "1")], cells,
     "AS", "W_out") for cells in (
        "<m.p>[ 3 * W | S | A ] | 5 * W | 2 * S",
        "<m.p>[ 3 * W | S | A ] | <p>[ 2 * W | 4 * S ] | 5 * W | 2 * S",
        "2 * <m.p>[ 3 * W | S | A ] | 5 * W | 2 * S")] + [
    # AC takes the A that "in" needs in the cell, and changes no count
    ([loop_rule("in", "<~x>[ A | $X ] | $Y", "<~x>[ B | $X ] | $Y", "1"),
      rule("AC", "A | $X", "C | $X", "1")], cells, "AC", "in")
    for cells in ("<m>[ A ] | c", "<m>[ A | B ] | <p>[ B ] | c")] + [
    # grow adds p to the membrane of a cell inside <d>, and "count" counts
    # seq(t_p) in <d>
    ([GROW, COUNT_P], "<d>[ <m>[ c ] | A ] | b", "grow", "count")] + [
    # beside the cells: AW adds to the W that the osmosis rules count
    # there, and AC takes the A that "up" needs there
    (osmosis_pair() + [rule("AW", "A | $X", "W | $X", "1")],
     "<m.p>[ 3 * W | S ] | <p>[ W | 2 * S ] | 2 * W | 3 * S | A", "AW",
     "W_out"),
    ([loop_rule("up", "<~x>[ $X ] | A | $Y", "<~x>[ A | $X ] | $Y", "1"),
      rule("AC", "A | $X", "C | $X", "1")], "<m>[ B ] | A", "AC", "up")])
def test_an_event_rates_the_loop_rules_that_read_what_it_changed(
        rules, state, drawn, watched):
    # the event changes what a loop rule reads of its compartment or of
    # a cell there: the next step of the same enumerator must rate that
    # rule again, as a fresh enumeration does
    state = canonicalize(T(state))
    before = rated(transitions(state, rules, TypeEnv(), {}), watched)
    steps = steps_after(rules, state, drawn)
    assert steps
    for got, fresh in steps:
        assert got == fresh
        assert rated(fresh, watched) != before


def test_an_event_that_makes_perm_rates_r13_again():
    # R6 inside lac's cell makes a perm, which R13, the root's permease
    # insertion, needs in the cell and counts there: the next step must
    # give R13 its new rate
    model = lac_operon_model()
    env, consts = model.type_env(), model.constants
    state = canonicalize(T("<m>[ Rna | perm | 5 * repr ] | 3 * LACT"))
    enumerator = Enumerator(model.rules, env, consts)
    before = enumerator.outcomes(state).all()
    [r6] = [tr for tr in before if tr.rule_id == "R6"]
    got = enumerator.outcomes(r6.target).all()
    assert got == transitions(r6.target, model.rules, env, consts)
    assert rated(before, "R13") == [0.1] and rated(got, "R13") == [0.2]


def test_an_event_two_membranes_deep_keeps_the_enclosing_orders(
        monkeypatch):
    # AB inside a cell inside <d>, alone or beside other cells at each
    # level, one of them the cell AB makes: the osmosis rules read
    # nothing AB changes, so the next step carries their orders of
    # outcomes around the event to the cells that replaced the old ones,
    # reading no cell and no frame again, and gives the transitions of a
    # fresh enumeration
    rules = osmosis_pair() + [rule("AB", "A | $X", "B | $X", "(n + 1) * 2",
                                   [(TypeName("t_A"), "n")])]
    for inner, outer in (("", ""), (" | <q>[ 2 * W ]", " | <p>[ W | 2 * S ]"),
                         (" | <m.p>[ 3 * W | S | B ]", "")):
        state = canonicalize(T(
            f"<d>[ <m.p>[ 3 * W | S | A ]{inner} | 4 * W | S ]{outer}"
            " | 2 * W | 3 * S"))
        enumerator = Enumerator(rules, TypeEnv(), {})
        outcomes = enumerator.outcomes(state)
        [tr] = [tr for tr in outcomes.all() if tr.rule_id == "AB"]
        assert len(tr.path) == 2
        read = []
        with monkeypatch.context() as patch:
            for name in ("_cell", "_totals"):
                patch.setattr(Plan, name, lambda *args, fn=getattr(
                    Plan, name): read.append(args) or fn(*args))
            got = enumerator.outcomes(tr.target).all()
        assert not read
        assert got == transitions(tr.target, rules, TypeEnv(), {})


def test_lac_steps_cost_what_their_events_changed(monkeypatch):
    # an event on lac changes a few components of one compartment: the
    # next step enumerates again the rules the event can affect there and
    # the loop rules around it (15 rules in two compartments if it did
    # all), reads the cell again only for a loop rule that reads what the
    # event changed, types no compartment afresh, and the observables
    # follow from the drawn rule
    calls = Counter()

    def counted(name, fn):
        return lambda *args: calls.update([name]) or fn(*args)
    monkeypatch.setattr(Plan, "entries", counted("entries", Plan.entries))
    monkeypatch.setattr(Plan, "_cell", counted("cells", Plan._cell))
    for module in (terms, compiled):
        monkeypatch.setattr(module, "counter_types",
                            counted("types", terms.counter_types))
    monkeypatch.setattr(engine, "_count_all",
                        counted("walks", engine._count_all))
    events = 0
    for seed in (3, 6, 9):
        model = lac_operon_model()
        events += simulate(model, model.sim_config(seed=seed,
                                                   max_steps=150)).steps
    assert events == 450
    assert calls["entries"] <= 9 * events
    assert calls["cells"] <= 0.6 * events
    assert calls["types"] <= 0.5 * events
    assert calls["walks"] == 3


def test_steps_never_list_a_compartment(monkeypatch):
    # a compiled event builds each compartment it changes from its
    # predecessor's component multiset, so the copies of a compartment
    # (1,000 in the mass run, 131 in lac's cell) are never listed; nor are
    # those of the parsed init, which is read into its multiset
    listed = []
    components = Term.components

    def read(t):
        listed.append(t)
        return components.fget(t)
    monkeypatch.setattr(Term, "components", property(read))
    mass = parse_model(MASS.replace("init: 20 * A | 15 * B | 10 * C | 8 * D",
                                    "init: 300 * A | 300 * B | 250 * C"
                                    " | 150 * D"))
    assert sum(component_counts(mass.init).values()) == 1000
    runs = [(lac_operon_model(), seed) for seed in (3, 6, 9)]
    runs += [(mass, seed) for seed in (0, 1)]
    events = 0
    for model, seed in runs:
        events += simulate(model, model.sim_config(seed=seed,
                                                   max_steps=150)).steps
    assert events == 750
    assert listed == []


def test_a_step_after_an_osmosis_event_places_one_cell(monkeypatch):
    # 20 cells at the root: a W_out event replaces one cell by a cell
    # unlike the others and changes the root. The next step of the same
    # enumerator keeps each loop rule's order of outcomes from the step
    # before, with their target keys, and makes keys only for the new
    # cell's outcome, one per loop rule, which it places by bisection;
    # a fresh enumerator makes the keys of all 40 and sorts them
    cells = " | ".join(f"<m.p>[ {2 * n} * W | 3 * S ]" for n in range(1, 21))
    state = canonicalize(T(f"{cells} | 30 * W | 10 * S"))
    rules = osmosis_pair()
    enumerator = Enumerator(rules, TypeEnv(), {})
    outcomes = enumerator.outcomes(state)
    target = next(tr for tr in outcomes.all() if tr.rule_id == "W_out").target
    [cell] = set(target.components) - set(state.components)
    made = []
    target_key = compiled._target_key
    monkeypatch.setattr(compiled, "_target_key", lambda entry, membrane:
                        made.append(entry.cell) or target_key(entry, membrane))
    got = enumerator.outcomes(target).all()
    assert made == [cell, cell]
    del made[:]
    assert got == transitions(target, rules, TypeEnv(), {})
    assert len(made) == 40
