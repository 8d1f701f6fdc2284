"""The compiled path for ``ground | $X`` rules versus the general path."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tscls import (LITERAL, POSITIONAL, CountDecl, RateEvalError,
                   RewriteRule, Seq, TypeEnv, TypeName,
                   UnknownElementType, Var, VarKind, canonicalize,
                   compartments, count_types, eval_rate, lits, match_whole,
                   parse_pattern, parse_rate, parse_term, path_text, pat,
                   splice, substitute, transitions, tvar)
from tscls import semantics
from tscls.catalog import lac_operon_model
from tscls.patterns import seq_positioned_elem_vars

from conftest import ALPHABET, random_rate, random_seq, random_term

X = Var(VarKind.TERM, "X")


def T(text):
    return parse_term(text)


def P(text):
    return parse_pattern(text)


def rule(rid, lhs, rhs, rate, *decls):
    return RewriteRule(rid, P(lhs), P(rhs), parse_rate(rate),
                       tuple(CountDecl(X, tuple(entries))
                             for entries in decls))


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
    except (RateEvalError, UnknownElementType) as exc:
        return type(exc), str(exc)


def compiled_outcome(state, rules, env, consts, mode):
    def run():
        return [(tr.rule_id, tr.path, tr.rate, tr.target)
                for tr in transitions(state, rules, env, consts, mode)]
    return outcome(run)


def assert_counters_exact(t):
    """Every cached component counter below ``t`` lists the components,
    in order, with their multiplicities."""
    for site in compartments(t):
        cached = site.content._counter
        if cached is not None:
            assert list(cached.items()) \
                == list(Counter(site.content.components).items())


def random_compiled_rule(rng, state, rid):
    """A rule of the compiled shape whose ground lhs is often drawn from
    one of the state's compartments, so it often matches."""
    sites = [s.content for s in compartments(canonicalize(state))]
    seqs = [c for c in rng.choice(sites).components if isinstance(c, Seq)]
    if seqs and rng.random() < 0.15:
        ground = list(seqs)  # the whole flat part: $X may bind eps
    else:
        ground = [rng.choice(seqs) if seqs and rng.random() < 0.8
                  else random_seq(rng) for _ in range(rng.randint(0, 3))]
    lhs = [lits(*c.elems) for c in ground] + [tvar("X")]
    rhs = [lits(*random_seq(rng).elems)
           for _ in range(rng.randint(0, 3))] + [tvar("X")]
    rng.shuffle(lhs)
    rng.shuffle(rhs)
    decls, names = [], []
    for _ in range(rng.choice((0, 1, 1, 2))):
        entries = []
        for _ in range(rng.randint(1, 3)):
            name = f"n{len(names)}"
            names.append(name)
            entries.append((TypeName("t_" + rng.choice(ALPHABET),
                                     rng.random() < 0.4), name))
        decls.append(CountDecl(X, tuple(entries)))
    if rng.random() < 0.3:
        expr = random_rate(rng, names)  # extremes: non-finite, negative
    else:
        terms = " * ".join(f"({n} + 1)" for n in names) or "1"
        expr = parse_rate(f"{terms} * {rng.choice((0.5, 2, 0, -1))}"
                          if rng.random() < 0.3 else f"{terms} * 0.5")
    return RewriteRule(rid, pat(*lhs), pat(*rhs), expr, tuple(decls))


def random_env(rng):
    if rng.random() < 0.5:
        return TypeEnv()
    # a partial assignment; some elements share a type, the rest are
    # unknown when defaults are off
    known = rng.sample(ALPHABET, rng.randint(2, len(ALPHABET)))
    return TypeEnv({e: "t_" + rng.choice(known) for e in known},
                   fill_defaults=rng.random() < 0.5)


class TestPlan:
    def test_lac_rules_outside_the_shape(self):
        rules = lac_operon_model().rules
        assert [r.id for r in rules if r.plan is None] == ["R13", "R14"]

    @pytest.mark.parametrize("lhs, rhs, counted", [
        ("a | ~x | $X", "a | $X", X),          # sequence variable
        ("a.?y | $X", "a | $X", X),            # element variable
        ("<m>[ a ] | $X", "$X", X),            # loop
        ("a | $X", "b", X),                    # rhs drops $X
        ("a | $X", "b | $Y", X),               # rhs names another variable
        ("a | $X | $Y", "$X | $Y", X),         # two term variables
        ("a | $X", "$X | $X", X),              # $X twice in the rhs
        ("a | $X", "b | $X", Var(VarKind.TERM, "Y")),  # count elsewhere
    ])
    def test_general_shapes(self, lhs, rhs, counted):
        r = RewriteRule("r", P(lhs), P(rhs), parse_rate("n"),
                        (CountDecl(counted, ((TypeName("t_a"), "n"),)),))
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

    def test_unknown_element_type(self):
        env = TypeEnv({"a": "t_a", "b": "t_b"}, fill_defaults=False)
        counted = rule("r", "a | $X", "$X", "n + 1", [(TypeName("t_b"), "n")])
        plain = rule("r", "a | $X", "$X", "1")
        got = self.check(T("a | b | <c>[ a ]"), [counted], env)
        assert got == (UnknownElementType, str(UnknownElementType("c")))
        # nothing is typed when the rule counts nothing or does not match
        assert len(self.check(T("a | <c>[ a ]"), [plain], env)) == 2
        assert self.check(T("b | c"), [counted], env) == []

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

