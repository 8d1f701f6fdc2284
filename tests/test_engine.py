"""Stochastic engine: PRNG, stepping, sampling, halting, reproducibility."""

import copy
import dataclasses
import gc
import math
import os
import pickle
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tscls import (HALT_EXHAUSTED, HALT_MAX_STEPS, HALT_TMAX, ModelError,
                   ModelFile, ObservableSpec, Pcg64, RateEvalError, SimConfig,
                   Term, canonicalize, compartments, observe, parse_model,
                   parse_term, simulate, step)
from tscls import engine
from tscls.catalog import lac_operon_model, state_change_rule
from tscls.compiled import Plan, compile_rule
from tscls.engine import _count_all, _sample_grid
from tscls.semantics import Enumerator
from tscls.terms import Loop, Term, TypeEnv, component_counts

from conftest import ALPHABET, CELLS, general, load_perfbench, random_term


def T(text):
    return parse_term(text)


class TestPcg64:
    def test_deterministic(self):
        a, b = Pcg64(42), Pcg64(42)
        assert [a.next_u64() for _ in range(20)] \
            == [b.next_u64() for _ in range(20)]

    def test_seed_sensitivity(self):
        assert [Pcg64(1).next_u64() for _ in range(4)] \
            != [Pcg64(2).next_u64() for _ in range(4)]

    def test_stream_sensitivity(self):
        assert [Pcg64(1, 0).next_u64() for _ in range(4)] \
            != [Pcg64(1, 1).next_u64() for _ in range(4)]

    def test_uniform_range(self):
        rng = Pcg64(7)
        xs = [rng.random() for _ in range(10000)]
        assert all(0.0 <= x < 1.0 for x in xs)
        assert abs(sum(xs) / len(xs) - 0.5) < 0.02

    def test_matches_reference_generator(self):
        # cross-check the 128-bit LCG advance and XSL-RR output against
        # an independent implementation of the same generator
        np = pytest.importorskip("numpy")
        rng = Pcg64(seed=12345, stream=6)
        bg = np.random.PCG64()
        state = bg.state
        state["state"] = {"state": rng._state, "inc": rng._inc}
        bg.state = state
        want = bg.random_raw(64).tolist()
        assert [rng.next_u64() for _ in range(64)] == want


def single_rule_model(init_text, rule, observables=(), **run):
    return ModelFile(name="t", rules=[rule], init=T(init_text),
                     observables=[ObservableSpec(e) for e in observables],
                     run_defaults=dict(run))


class TestStep:
    def test_halt_on_no_transitions(self):
        assert step(T("b"), [state_change_rule("a", "b", 1.0)],
                    TypeEnv(), {}, Pcg64(1)) is None

    def test_single_transition_chosen(self):
        rule = state_change_rule("a", "b", 1.0)
        dt, chosen = step(T("a | a"), [rule], TypeEnv(), {}, Pcg64(1))
        assert chosen.rate == 2.0 and dt > 0

    def test_dt_distribution_mean(self):
        rule = state_change_rule("a", "b", 1.0)
        rng = Pcg64(99)
        state = T("a | a")
        n = 10 ** 4
        total = 0.0
        for _ in range(n):
            dt, _chosen = step(state, [rule], TypeEnv(), {}, rng)
            total += dt
        sigma = 0.5 / math.sqrt(n)
        assert abs(total / n - 0.5) < 3 * sigma


class Uniforms:
    """Stands in for the generator: the given uniforms, in turn."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class TestDraw:
    def test_total_is_the_left_to_right_sum(self):
        # added left to right, 1.0 + 1e16 + 1.0 is 1e16; compensated
        # summation (sum() of floats from Python 3.12 on, math.fsum) gives
        # 1.0000000000000002e16, another clock and another pick
        dt, i, total = engine._draw([1.0, 1e16, 1.0], Uniforms(0.5, 0.75))
        assert total == 1e16
        assert dt == -math.log(0.5) / 1e16
        assert i == 1

    @given(st.lists(st.floats(min_value=1e-300, max_value=1e300),
                    min_size=1, max_size=8), st.integers(0, 2 ** 64 - 1))
    @settings(max_examples=200, deadline=None)
    def test_pick_is_the_first_running_sum_above_it(self, rates, seed):
        total = 0.0
        for rate in rates:
            total += rate
        if not math.isfinite(total):
            with pytest.raises(RateEvalError):
                engine._draw(rates, Pcg64(seed))
            return
        rng = Pcg64(seed)
        dt = -math.log(1.0 - rng.random()) / total
        pick, acc, want = rng.random() * total, 0.0, len(rates) - 1
        for i, rate in enumerate(rates):
            acc += rate
            if pick < acc:
                want = i
                break
        assert engine._draw(rates, Pcg64(seed)) == (dt, want, total)


class TestObserve:
    def test_global_counts_all_compartments(self):
        m = lac_operon_model()
        assert observe(m.init, ObservableSpec("LACT")) == 100
        assert observe(m.init, ObservableSpec("polym")) == 30

    def test_absent_element(self):
        assert observe(T("a"), ObservableSpec("z")) == 0

    def test_sequence_elements_are_not_free(self):
        assert observe(T("a.a | a"), ObservableSpec("a")) == 1
        assert observe(T("<a>[a]"), ObservableSpec("a")) == 1

    def test_repeated_and_nested_loops(self):
        assert observe(T("2 * <m>[ a | a ] | a"), ObservableSpec("a")) == 5
        state = T("3 * <m>[ 2 * <n>[ a | b ] | a ] | <n>[ a ]")
        assert _count_all(state, ("a", "b", "m")) == (3 * (2 + 1) + 1, 6, 0)

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_a_walk_over_every_component(self, seed):
        rng = random.Random(seed)
        # repeat components, loops included, so multiplicities exceed 1
        comps = list(random_term(rng).components)
        state = Term(comps + [rng.choice(comps) for _ in comps])

        def walk(t):
            out = dict.fromkeys(ALPHABET, 0)
            for comp in t.components:
                if isinstance(comp, Loop):
                    for name, n in walk(comp.content).items():
                        out[name] += n
                elif len(comp.elems) == 1:
                    out[comp.elems[0]] += 1
            return out

        assert _count_all(state, ALPHABET) == tuple(walk(state).values())


class TestSampleGrid:
    def test_inclusive_endpoints(self):
        assert _sample_grid(10.0, 4) == [0.0, 2.5, 5.0, 7.5, 10.0]

    def test_tmax_zero_collapses(self):
        assert _sample_grid(0.0, 100) == [0.0]


class TestSimulate:
    def test_chain_exhausts(self):
        model = single_rule_model("a | a", state_change_rule("a", "b", 1.0))
        trace = simulate(model, SimConfig(seed=3, tmax=1e9))
        assert trace.steps == 2
        assert trace.halt_reason == HALT_EXHAUSTED
        assert [e.rate for e in trace.events] == [2.0, 1.0]
        assert trace.final_state == T("b | b")

    def test_event_times_increase(self):
        model = single_rule_model("8 * a", state_change_rule("a", "b", 1.0))
        trace = simulate(model, SimConfig(seed=5, tmax=1e9))
        times = [e.time for e in trace.events]
        assert times == sorted(times) and len(set(times)) == len(times)

    def test_rate_bounded_by_exit_rate(self):
        model = single_rule_model("8 * a", state_change_rule("a", "b", 1.0))
        trace = simulate(model, SimConfig(seed=5, tmax=1e9))
        for ev in trace.events:
            assert 0 < ev.rate <= ev.total_exit_rate

    def test_tmax_zero(self):
        model = single_rule_model("a", state_change_rule("a", "b", 1.0),
                                  observables=("a", "b"))
        trace = simulate(model, SimConfig(seed=1, tmax=0.0))
        assert trace.steps == 0
        assert trace.halt_reason == HALT_TMAX
        assert len(trace.samples) == 1
        assert trace.samples[0].time == 0.0
        assert trace.samples[0].observables == (1, 0)

    def test_max_steps(self):
        model = single_rule_model(
            "a", state_change_rule("a", "a", 1.0, rule_id="loop"))
        trace = simulate(model, SimConfig(seed=1, tmax=1e12, max_steps=17))
        assert trace.steps == 17
        assert trace.halt_reason == HALT_MAX_STEPS

    def test_reproducible(self):
        model = lac_operon_model()
        cfg = SimConfig(seed=11, tmax=300.0)
        t1, t2 = simulate(model, cfg), simulate(model, cfg)
        assert t1.events == t2.events
        assert t1.samples == t2.samples
        assert t1.final_state == t2.final_state

    def test_sampling_piecewise_constant(self):
        # one deterministic-ish event; samples before it must show the
        # initial state, samples after it the successor
        model = single_rule_model("a", state_change_rule("a", "b", 1.0),
                                  observables=("a", "b"))
        trace = simulate(model, SimConfig(seed=2, tmax=100.0, samples=10))
        (event,) = trace.events
        for sample in trace.samples:
            want = (1, 0) if sample.time < event.time else (0, 1)
            assert sample.observables == want

    def test_each_state_is_observed_once(self, monkeypatch):
        calls = []

        def counting(term, names):
            calls.append(term)
            return _count_all(term, names)

        # a compiled rule's event adds its change to the counts, so only
        # the initial state is walked; an event of a rule on the general
        # path is observed by a walk of the state it made
        monkeypatch.setattr(engine, "_count_all", counting)
        rule = state_change_rule("a", "b", 1.0)
        for r, walks in ((rule, 1), (general(rule), 6)):
            model = single_rule_model("5 * a", r, observables=("a", "b"))
            trace = simulate(model, SimConfig(seed=2, tmax=10.0,
                                              samples=100))
            assert trace.steps == 5 and len(trace.samples) == 101
            assert len(calls) == walks
            assert [e.observables for e in trace.events] \
                == [(4, 1), (3, 2), (2, 3), (1, 4), (0, 5)]
            del calls[:]

    def test_first_lac_event_is_enabled_rule(self):
        model = lac_operon_model()
        for seed in range(5):
            trace = simulate(model, SimConfig(seed=seed, tmax=50.0))
            if trace.events:
                assert trace.events[0].rule_id in {"R1", "R3", "R7"}

    def test_run_defaults_used(self):
        model = lac_operon_model()
        cfg = model.sim_config()
        assert cfg == SimConfig(seed=1, tmax=1000.0, max_steps=1_000_000,
                                samples=100)
        assert model.sim_config(tmax=5.0).tmax == 5.0

    def test_rules_are_freed_with_their_model(self):
        # what the per-process tables keep of a rule block's text (its
        # plan, what its static checks read, the enumerator's dependents)
        # and the type environments may outlive the model; a rule, a
        # pattern, a rate or a term may not. The element names occur in
        # no other test, so no table holds anything of another test
        model = parse_model("""
            model freed
            rule enter {
              lhs: <~x>[ $X ] | fz | $Y
              rhs: <~x>[ fz | $X ] | $Y
              rate: 1
            }
            rule flip {
              lhs: fz | $X
              rhs: fy | $X
              count $X { t_fz -> n }
              rate: (n + 1) * 1
            }
            rule leave {
              lhs: <?y.~x>[ fz | $X ] | $Y
              rhs: <?y.~x>[ $X ] | fz | $Y
              rate: 1
            }
            init: 4 * fz | <fm>[ fy ]
        """)
        trace = simulate(model, SimConfig(seed=1, tmax=1e9))
        assert {e.rule_id for e in trace.events} == {"enter", "flip", "leave"}
        assert [r.plan is None for r in model.rules] == [False, False, True]
        refs = [weakref.ref(r) for r in model.rules]
        refs += [weakref.ref(r.lhs) for r in model.rules]
        refs += [weakref.ref(r.rhs) for r in model.rules]
        refs += [weakref.ref(r.rate) for r in model.rules]
        del model, trace
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == []

    def test_runs_hold_no_cycle_through_their_rules(self):
        # what a run keeps on the terms it visited must not refer back to
        # its rules, or every rule, plan and rate table of a finished run
        # would stay in memory until the cycle collector ran
        gc.collect()
        gc.disable()
        try:
            for make in (lambda: parse_model(CELLS), lac_operon_model):
                model = make()
                trace = simulate(model, model.sim_config(seed=3,
                                                         max_steps=150))
                assert trace.steps > 10
                refs = [weakref.ref(r) for r in model.rules]
                del model, trace
                assert [ref for ref in refs if ref() is not None] == []
        finally:
            gc.enable()

    def test_a_visited_state_copies_without_what_a_run_cached(self):
        # a run caches type histograms and outcome records on the terms it
        # visits; a pickled or copied state carries its multiset alone
        def compartments_of(term):
            stack = [term]
            while stack:
                t = stack.pop()
                yield t
                stack += [c.content for c in component_counts(t)
                          if isinstance(c, Loop)]

        model = lac_operon_model()
        state = simulate(model, model.sim_config(seed=3,
                                                 max_steps=20)).final_state
        assert any(t._types is not None for t in compartments_of(state))
        for copied in (pickle.loads(pickle.dumps(state)),
                       copy.deepcopy(state)):
            assert copied == state and copied._canonical
            assert [(t._types, t._outcomes) for t in compartments_of(copied)
                    ] == [(None, None)] * len(list(compartments_of(state)))

    def test_a_run_leaves_its_rules_as_it_found_them(self):
        # a rule may keep what its own fields determine, never anything
        # of a run: the enumerator owns the rates, and the environment
        # keeps the plan's type histograms under it (Plan.typed)
        derived = {"plan", "evaluate", "seq_positioned"}
        for model in (lac_operon_model(), parse_model(CELLS)):
            trace = simulate(model, model.sim_config(seed=3, max_steps=150))
            assert trace.steps > 10
            for rule in model.rules:
                fields = {f.name for f in dataclasses.fields(rule)}
                assert set(vars(rule)) <= fields | derived, rule.id
                fresh = compile_rule(rule)
                for name in Plan.__slots__:
                    assert getattr(rule.plan, name) \
                        == getattr(fresh, name), (rule.id, name)

    def test_two_parses_of_one_model_share_no_cell(self):
        # what a run leaves on a compartment it visited belongs to that
        # run's terms: a second parse of the same text must not hold them
        def loops(term):
            for comp in term.components:
                if isinstance(comp, Loop):
                    yield comp
                    yield from loops(comp.content)

        first, second = parse_model(CELLS), parse_model(CELLS)
        mine = canonicalize(first.init)
        theirs = canonicalize(second.init)
        assert {id(loop) for loop in loops(mine)}.isdisjoint(
            id(loop) for loop in loops(theirs))
        trace = simulate(first, first.sim_config(seed=3, max_steps=40))
        assert trace.steps > 10
        for site in compartments(theirs):
            assert site.content._outcomes is None
            assert site.content._types is None

    def test_runs_leave_no_reference_cycles(self):
        # parsing, matching and observing free what they make by reference
        # counting alone: a cycle, such as a self-recursive nested
        # function, would wait for the cycle collector
        with open(os.path.join(os.path.dirname(__file__), os.pardir,
                               "models", "lac_operon.tscls"),
                  encoding="utf-8") as fh:
            lac = fh.read()
        gc.collect()
        gc.disable()
        try:
            for text in (lac, CELLS):
                model = parse_model(text)
                for rules in (model.rules,
                              [general(r) for r in model.rules]):
                    run = dataclasses.replace(model, rules=rules)
                    trace = simulate(run, run.sim_config(seed=3,
                                                         max_steps=40))
                    assert trace.steps > 10
            del model, run, trace
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_trace_keeps_no_earlier_state(self, monkeypatch):
        # a build leaves on each compartment it made a hint naming the one
        # it replaced, and enumerating the compartment replaces the hint
        # with its record: a finished run holds its final state and at
        # most what the last build left on it, not the states before
        model = parse_model(load_perfbench("gen").cells_model(3, 25))

        def live(steps):
            trace = simulate(model, model.sim_config(seed=1,
                                                     max_steps=steps))
            assert trace.steps == steps
            gc.collect()
            return sum(isinstance(o, Term) for o in gc.get_objects())
        few, many = live(10), live(200)
        assert many <= few + 40
        # the run halted at max_steps: no step enumerated its final state,
        # yet none of its compartments keeps what the build that made it
        # left there, which names the compartments of the state before
        seen = []
        outcomes = Enumerator.outcomes
        monkeypatch.setattr(Enumerator, "outcomes", lambda self, state:
                            seen.append(state) or outcomes(self, state))
        trace = simulate(model, model.sim_config(seed=1, max_steps=10))
        assert trace.halt_reason == HALT_MAX_STEPS and len(seen) == 10
        before = {id(site.content) for state in seen
                  for site in compartments(state)}
        assert not any(id(part) in before
                       for site in compartments(trace.final_state)
                       for part in site.content._outcomes or ())

    @pytest.mark.parametrize("twice, message", [
        ("rule", "duplicate rule id 'a_to_b'"),
        ("observable", "duplicate observable 'a'")])
    def test_names_used_twice_rejected(self, twice, message):
        # a trace names rules and observables: two of one name would be
        # two CSV columns but one NDJSON key
        model = single_rule_model("a", state_change_rule("a", "b", 1.0),
                                  observables=("a", "b"))
        if twice == "rule":
            model.rules.append(state_change_rule("b", "a", 1.0,
                                                 rule_id="a_to_b"))
        else:
            model.observables.append(ObservableSpec("a"))
        with pytest.raises(ModelError) as exc:
            simulate(model, SimConfig(seed=1, tmax=1.0))
        assert exc.value.diagnostics == [message]

    def test_invalid_config_rejected(self):
        model = single_rule_model("a", state_change_rule("a", "b", 1.0))
        with pytest.raises(ValueError):
            simulate(model, SimConfig(seed=1, tmax=-1.0))

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 1, -2 ** 64])
    def test_seeds_outside_64_bits_rejected(self, seed):
        # the generator reads 64 bits of the seed, so these would alias
        # the seeds 2^64 - 1, 0, 1 and 0
        model = single_rule_model("a", state_change_rule("a", "b", 1.0))
        assert SimConfig(seed=seed).violations() \
            == ["seed must be an integer in [0, 2^64)"]
        with pytest.raises(ValueError, match="seed must be"):
            simulate(model, SimConfig(seed=seed, tmax=1.0))
        for valid in (0, 2 ** 64 - 1):
            assert SimConfig(seed=valid).violations() == []
            simulate(model, SimConfig(seed=valid, tmax=1.0))
