"""Whole trajectories on the compiled path versus the general path.

The single-state tests in ``test_compiled.py`` compare one transition
list at a time; here every step of a run must agree, so state carried
from one step to the next (cached counters, rotations, deferred
targets) is checked as well. Each run is written as CSV and NDJSON, and
the bytes must be identical with and without the rules' plans.
"""

import dataclasses
import gc
import io
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tscls.model
import tscls.syntax
from tscls import (LITERAL, POSITIONAL, CountDecl, ElemLit, ModelFile,
                   ObservableSpec, PLoop, PSeq, RateEvalError, RewriteRule,
                   SeqVar, SimConfig, TypeName, Var, VarKind, canonicalize,
                   compartments, compiled, lac_operon_model, lits,
                   parse_model, parse_pattern, parse_rate, pat, pattern_vars,
                   rates, semantics, simulate, terms, transitions, tvar)
from tscls.catalog import lac_operon_source
from tscls.cli import _write_trace
from tscls.compiled import Plan, Typed, compile_rule
from tscls.engine import Pcg64, _count_all, _draw, step
from tscls.semantics import Enumerator
from tscls.terms import Seq, Table, TypeEnv, counter_types

from conftest import (ALPHABET, CELLS, MASS, assert_multisets_canonical,
                      general, load_perfbench, random_compiled_rule,
                      random_env, random_loop_rule, random_loop_state,
                      random_rule)

MAX_STEPS = 100

# a loop rule that moves L into a cell and adds p to its membrane, beside
# a rule whose rate counts the p of the membranes around it
MEMBRANES = """\
rule enter {
  lhs: <~x>[ $X ] | L | $Y
  rhs: <p.~x>[ L | $X ] | $Y
  count $Y { t_L -> n }
  rate: (n + 1) * 0.1
}

rule make {
  lhs: L | $X
  rhs: L | L | $X
  count $X { seq(t_p) -> m }
  rate: (m + 1) * 0.05
}

rule decay {
  lhs: L | $X
  rhs: $X
  count $X { t_L -> n }
  rate: (n + 1) * 0.05
}

init: 20 * L | <m>[ L ] | <q.m>[ 2 * L ] | <m>[ L ]
observe L
"""


def traces(model, seed):
    """The run's CSV and NDJSON text."""
    trace = simulate(model, model.sim_config(seed=seed, max_steps=MAX_STEPS,
                                             tmax=1e9))
    out = []
    for fmt in ("csv", "json"):
        buf = io.StringIO()
        _write_trace(trace, fmt, buf)
        out.append(buf.getvalue())
    return out


@pytest.mark.parametrize("model, seeds", [
    (lac_operon_model(), range(10)),
    (parse_model(MASS), range(2)),
    (parse_model(CELLS), range(2)),
    (parse_model(MEMBRANES), range(2)),
], ids=["lac", "mass", "cells", "membranes"])
def test_plans_give_the_general_path_traces(model, seeds):
    assert all(rule.plan is not None for rule in model.rules)
    reference = dataclasses.replace(
        model, rules=[general(rule) for rule in model.rules])
    for seed in seeds:
        got = traces(model, seed)
        assert got == traces(reference, seed)
        assert got[0].count("\n") > 10  # the run did something


def test_rules_shared_by_runs_under_other_inputs():
    # from a run, a rule keeps only caches of its own content (its plan,
    # its compiled rate); each TypeEnv keeps a plan's histograms under it
    # (``Plan.typed``). Runs of one set of rules under models that differ
    # in typing and constants, and after the constants are changed in
    # place, must each give the traces of freshly parsed rules
    other = CELLS.replace("const k = 10.0", "const k = 3.0") \
        + "type A : t_B\ntype S : t_W\n"
    shared = parse_model(CELLS)
    second = dataclasses.replace(parse_model(other), rules=shared.rules)
    for model, text in ((shared, CELLS), (second, other), (shared, CELLS)):
        assert traces(model, 1) == traces(parse_model(text), 1)
    shared.constants["k"] = 3.0
    changed = CELLS.replace("const k = 10.0", "const k = 3.0")
    assert traces(shared, 1) == traces(parse_model(changed), 1)
    assert traces(shared, 1) != traces(parse_model(CELLS), 1)


# CELLS with a cell of one-element membrane and a count on ~x, which
# typing: literal counts as t_p and typing: positional as seq(t_p)
MODED = CELLS.replace(
    "count $Y { t_W -> n3, t_S -> n4, seq(t_p) -> n5 }",
    "count $Y { t_W -> n3, t_S -> n4, seq(t_p) -> n5 }\n"
    "  count ~x { t_p -> n6 }", 1).replace(
    "k * (n5 + 1)\n}\n\nrule W_in",
    "k * (n5 + n6 + 1)\n}\n\nrule W_in").replace(
    "<aq.m.p>[ 4 * W | 3 * S ]",
    "<aq.m.p>[ 4 * W | 3 * S ] | <p>[ W | 6 * S ]")


def test_one_model_run_under_other_inputs():
    # the compartments of a model's initial state keep the outcomes that
    # the last run enumerated in them; runs of the same parsed model after
    # its constants, type assignments and typing mode are changed in place
    # must each give the traces of a fresh parse
    model = parse_model(MODED)
    assert all(rule.plan is not None for rule in model.rules)
    text = MODED
    changes = [
        (lambda: setattr(model, "typing", LITERAL),
         lambda t: t + "typing: literal\n"),
        (lambda: model.constants.update(k=3.0),
         lambda t: t.replace("const k = 10.0", "const k = 3.0")),
        (lambda: model.type_decls.update(A="t_B", S="t_W"),
         lambda t: t + "type A : t_B\ntype S : t_W\n"),
        (model.type_decls.clear,
         lambda t: t.replace("type A : t_B\ntype S : t_W\n", "")),
    ]
    last = traces(model, 1)
    assert last == traces(parse_model(text), 1)
    for change, edit in changes:
        change()
        text = edit(text)
        got = traces(model, 1)
        assert got == traces(parse_model(text), 1)
        assert got != last  # the change mattered
        last = got


def test_a_second_parse_derives_nothing_again(monkeypatch):
    # a second parse of a text hands out the first parse's rules, with
    # their plans and compiled rates; a plan's type histograms are derived
    # once per environment and the enumerator's dependents once per plans
    # and environment: a second parse of the lac model, and the same run
    # of it, derive none
    text = lac_operon_source()
    first = parse_model(text)
    simulate(first, first.sim_config(seed=1, max_steps=MAX_STEPS))
    derived = Counter()
    for module, name in ((semantics, "compile_rule"),
                         (semantics, "dependents"),
                         (rates, "compile_expr"),
                         (compiled, "Typed")):
        monkeypatch.setattr(module, name, lambda *args, fn=getattr(
            module, name), name=name: derived.update([name]) or fn(*args))
    second = parse_model(text)
    trace = simulate(second, second.sim_config(seed=1, max_steps=MAX_STEPS))
    assert trace.steps == MAX_STEPS
    assert derived == Counter()
    assert all(r.plan is s.plan for r, s in zip(first.rules, second.rules))


def test_two_parses_give_the_same_traces_in_either_order():
    text = lac_operon_source()
    reference = lac_operon_model()
    reference.rules[:] = [general(rule) for rule in reference.rules]
    want = {seed: traces(reference, seed) for seed in (1, 3)}
    first, second = parse_model(text), parse_model(text)
    for order in ((first, second), (second, first)):
        for parsed in order:
            for seed in want:
                assert traces(parsed, seed) == want[seed]


def test_shared_plans_under_other_declarations(monkeypatch):
    # two models share their rules, so their plans, but not their type
    # declarations and constants: stepped in turn, each enumerator gives
    # the transitions of the general path under its own model, and a
    # plan's type histograms are made once per environment
    mine = parse_model(CELLS)
    other = dataclasses.replace(
        parse_model(CELLS), constants={**mine.constants, "k": 3.0},
        type_decls={**mine.type_decls, "A": "t_B", "S": "t_W"})
    models = [mine, other]
    assert all(r is s and r.plan is not None
               for r, s in zip(mine.rules, other.rules, strict=True))
    built = []
    monkeypatch.setattr(compiled, "Typed",
                        lambda *args: built.append(args) or Typed(*args))
    runs = [[Enumerator(m.rules, m.type_env(), m.constants, m.typing),
             ([general(r) for r in m.rules], TypeEnv(m.type_decls),
              dict(m.constants), m.typing), canonicalize(m.init), Pcg64(1)]
            for m in models]
    for _ in range(30):
        for run in runs:
            enumerator, (rules, env, consts, mode), state, rng = run
            outcomes = enumerator.outcomes(state)
            assert outcomes.all() == transitions(state, rules, env, consts,
                                                 mode)
            run[2] = outcomes.transition(_draw(outcomes.rates, rng)[1]).target
    assert len(built) <= len(models) * len(models[0].rules)


def test_tables_past_their_bounds(monkeypatch):
    # a long-lived process runs many models through its per-process
    # tables: under bounds lowered so that every table clears itself again
    # and again, each model gives its traces from fresh tables, no table
    # holds more than its bound, and what a cleared table dropped is freed
    # by reference counting alone
    gen = load_perfbench("gen")
    texts = [lac_operon_source(), CELLS, CELLS + "type A : t_B\n",
             gen.mass_model(0, MAX_STEPS),
             gen.mass_model(1, MAX_STEPS) + "\ntype A : t_D\n",
             gen.cells_model(0, MAX_STEPS),
             gen.cells_model(1, MAX_STEPS) + "\ntype S : t_W\n"]
    shared = {"_MADE": rates._MADE, "_EVALUATORS": rates._EVALUATORS,
              "_SEQS": terms._SEQS, "_ENVS": tscls.model._ENVS,
              "_FILES": tscls.syntax._FILES}
    want = {}
    for text in texts:
        for table in shared.values():
            table.clear()
        want[text] = [traces(parse_model(text), seed) for seed in (1, 3)]
    # the tables of each environment and of each rule's rates are made
    # during the runs: keep them to count their clears
    made = {"TypeEnv._kept": [], "_remembered": []}
    for module, kind in ((terms, "TypeEnv._kept"), (semantics, "_remembered")):
        monkeypatch.setattr(module, "Table", lambda size=1, kept=made[kind]:
                            kept.append(Table(size)) or kept[-1])
    clears = Counter()
    store = Table.__setitem__

    def checked(table, key, value):
        before = len(table)
        store(table, key, value)
        assert len(table) <= table.size * terms._TABLE_UNIT
        clears[id(table)] += len(table) < before

    monkeypatch.setattr(Table, "__setitem__", checked)
    monkeypatch.setattr(terms, "_TABLE_UNIT", 2)
    gc.collect()
    gc.disable()
    try:
        for round in range(3):
            for text in texts:
                # a text is parsed, then comes from the model-text table,
                # which drops it between rounds
                for _ in range(round + 1):
                    model = parse_model(text)
                for rule in model.rules:
                    counts = dict.fromkeys(rule.count_names(), 2)
                    assert rates.evaluate(rule.rate, counts, model.constants) \
                        == rule.evaluate(counts, model.constants)
                assert [traces(model, seed) for seed in (1, 3)] == want[text]
        del model, rule
        assert gc.collect() == 0
    finally:
        gc.enable()
    for name, table in shared.items():
        assert clears[id(table)] >= 3, name
    for kind, tables in made.items():
        assert max(clears[id(table)] for table in tables) >= 3, kind


# three ground rules; with r's lhs "c | $X", an event of r changes what t
# reads, which it does not otherwise
LHS = """\
rule r {
  lhs: a | $X
  rhs: b | $X
  count $X { t_a -> n }
  rate: (n + 1) * 1
}

rule s {
  lhs: b | $X
  rhs: a | $X
  count $X { t_b -> n }
  rate: (n + 1) * 2
}

rule t {
  lhs: c | $X
  rhs: a | $X
  count $X { t_c -> n }
  rate: (n + 1) * 3
}

init: 5 * a | 5 * c
observe a, b, c
"""


def test_rules_that_differ_in_their_lhs_keep_their_own_plans():
    other = LHS.replace("lhs: a | $X", "lhs: c | $X", 1)
    for text in (LHS, other, LHS):
        parsed = parse_model(text)
        reference = dataclasses.replace(
            parsed, rules=[general(rule) for rule in parsed.rules])
        for seed in (1, 2):
            assert traces(parsed, seed) == traces(reference, seed)
    # a copy of a rule with another lhs has a plan of its own
    rule = parse_model(LHS).rules[0]
    copy = dataclasses.replace(rule, lhs=parse_pattern("c | $X"))
    assert copy.plan.need == compile_rule(copy).need != rule.plan.need


def test_a_parse_compiles_no_plan(monkeypatch):
    # `tscls check` parses and validates a model and runs none of it: a
    # rule's plan is compiled when a run first asks for it, once per
    # rule block text
    made = []
    monkeypatch.setattr(semantics, "compile_rule", lambda rule, fn=compile_rule:
                        made.append(rule.id) or fn(rule))
    text = LHS
    for rid in "rst":
        text = text.replace(f"rule {rid} {{", f"rule {rid}_compiled_here {{")
    parse_model(text)
    assert made == []
    for _ in range(2):
        parsed = parse_model(text)
        simulate(parsed, parsed.sim_config(seed=1))
        assert made == [f"{rid}_compiled_here" for rid in "rst"]


def test_simulate_builds_one_target_per_event(monkeypatch):
    built = []
    build = Plan.build
    monkeypatch.setattr(Plan, "build",
                        lambda *args: built.append(args) or build(*args))
    model = parse_model(CELLS)
    trace = simulate(model, model.sim_config(seed=1, max_steps=MAX_STEPS,
                                             tmax=1e9))
    assert len(built) == trace.steps == MAX_STEPS


# a drawn run's steps, and the clock it stops at
DRAWN_STEPS = 30
DRAWN_TMAX = 1e6


def membrane_counter(rule_id):
    """A rule that rewrites nothing, at a rate that counts the elements of
    every seq-tagged type in its compartment, such as those of the
    membranes there: a loop rule's event that adds to a cell's membrane
    changes its rate beside the cell."""
    names = [f"n{i}" for i in range(len(ALPHABET))]
    count = CountDecl(Var(VarKind.TERM, "X"), tuple(
        (TypeName("t_" + e, True), name) for e, name in zip(ALPHABET, names)))
    return RewriteRule(rule_id, pat(tvar("X")), pat(tvar("X")),
                       parse_rate(" + ".join(names) + " + 1"), (count,))


def cell_counter(rule_id):
    """A loop rule that rewrites nothing, at a rate that counts the
    elements of every basic type in a cell's content and beside the cell:
    an event inside the cell or beside it that changes such a count
    changes its rate."""
    counts, names = [], []
    for var in ("X", "Y"):
        entries = tuple((TypeName("t_" + e), f"{var}{e}") for e in ALPHABET)
        counts.append(CountDecl(Var(VarKind.TERM, var), entries))
        names += [name for _, name in entries]
    cell = PLoop(PSeq((SeqVar("x"),)), pat(tvar("X")))
    return RewriteRule(rule_id, pat(cell, tvar("Y")), pat(cell, tvar("Y")),
                       parse_rate(" + ".join(names) + " + 1"), tuple(counts))


def uptake(rule_id, element):
    """A loop rule that moves ``element`` into a cell and adds ``b`` to
    the cell's membrane: its events change the observables inside and
    outside the cell, and the types of the membranes beside it."""
    def cell(membrane, *content):
        return PLoop(PSeq(membrane), pat(*content, tvar("X")))
    x = SeqVar("x")
    return RewriteRule(rule_id, pat(cell((x,)), lits(element), tvar("Y")),
                       pat(cell((ElemLit("b"), x), lits(element)), tvar("Y")),
                       parse_rate("1"))


def random_model(rng):
    """A model drawn from the conftest builders: a state of flat sequences
    and cells, repeated and nested; one to three rules, of the compiled
    loop and ground shapes and of general shapes, counting on the frame,
    on a cell's content and on its membrane, and sometimes a
    :func:`membrane_counter`, a :func:`cell_counter` or an
    :func:`uptake`; a typing and a typing mode; every element of the
    model observed, in a drawn order."""
    init = canonicalize(random_loop_state(rng))

    def general_rule(i):
        # two term variables split a compartment in exponentially many
        # ways, and the runs grow their compartments
        while True:
            rule = random_rule(rng, f"r{i}")
            if sum(var.kind is VarKind.TERM
                   for var in pattern_vars(rule.lhs)) <= 1:
                return rule

    makers = [lambda i: random_loop_rule(rng, init, f"r{i}", doubling=False),
              lambda i: random_compiled_rule(rng, init, f"r{i}"),
              general_rule]
    rules = [rng.choice(makers)(i) for i in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        rules.append(membrane_counter(f"r{len(rules)}"))
    if rng.random() < 0.5:
        rules.append(cell_counter(f"r{len(rules)}"))
    if rng.random() < 0.5:
        bare = sorted({c.elems[0] for c in init.components
                       if isinstance(c, Seq) and len(c.elems) == 1})
        rules.append(uptake(f"r{len(rules)}", rng.choice(bare or ALPHABET)))
    env = random_env(rng)
    model = ModelFile(rules=rules, init=init, type_decls=env.assignment,
                      typing=rng.choice((POSITIONAL, LITERAL)))
    elements = sorted(model.elements())
    model.observables = [ObservableSpec(e) for e in rng.sample(
        elements, len(elements))]
    return model


def run_outcome(run):
    """The run's events and final state, or its rate error."""
    try:
        return run()
    except RateEvalError as exc:
        return str(exc)


def simulated(model, seed):
    """The run's events and final state. At every event, what the run
    carried from the drawn outcome must be what a walk of the state it
    made finds: the observables, and each compartment's cached type
    histogram and component counter, in component order; and each
    counter must be canonical (see :func:`assert_multisets_canonical`)."""
    cfg = SimConfig(seed=seed, tmax=DRAWN_TMAX, max_steps=DRAWN_STEPS)
    states = []
    outcomes = Enumerator.outcomes
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Enumerator, "outcomes", lambda self, state:
                      states.append(state) or outcomes(self, state))
        trace = simulate(model, cfg)
    states = (states + [trace.final_state])[:trace.steps + 1]
    names = trace.observable_names
    assert [e.observables for e in trace.events] \
        == [_count_all(state, names) for state in states[1:]]
    for state in states:
        for site in compartments(state):
            c = site.content
            if c._types is not None:
                env, types = c._types
                assert types == counter_types(Counter(c.components), env)
            if c._counter is not None:
                assert list(c._counter.items()) \
                    == list(Counter(c.components).items())
        assert_multisets_canonical(state)
    return ([(e.time, e.rule_id, e.path, e.rate) for e in trace.events],
            trace.final_state)


def stepped(model, seed):
    """The run as a loop of :func:`step`, which enumerates every state
    with a fresh enumerator."""
    rng, state, clock, events = Pcg64(seed), model.init, 0.0, []
    while len(events) < DRAWN_STEPS:
        got = step(state, model.rules, model.type_env(), model.constants,
                   rng, model.typing)
        if got is None or clock + got[0] > DRAWN_TMAX:
            break
        clock += got[0]
        state = got[1].target
        events.append((clock, got[1].rule_id, got[1].path, got[1].rate))
    return events, state


@given(st.integers(0, 10 ** 9))
@settings(max_examples=100, deadline=None)
def test_drawn_runs_keep_nothing_stale(seed):
    # one enumerator per run carries each compartment's outcomes and each
    # loop rule's order of outcomes from one step to the next, and a
    # compiled rule's event carries the observables, component counters
    # and type histograms from the state before it; a fresh enumerator
    # per step and the general path carry no outcomes. The three share
    # the model's initial terms, so outcomes kept on them by one run must
    # not be taken for another's
    rng = random.Random(seed)
    model = random_model(rng)
    reference = dataclasses.replace(
        model, rules=[general(rule) for rule in model.rules])
    got = run_outcome(lambda: simulated(model, seed))
    assert got == run_outcome(lambda: stepped(model, seed))
    assert got == run_outcome(lambda: simulated(reference, seed))
    assert got == run_outcome(lambda: simulated(model, seed))
