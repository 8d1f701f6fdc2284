"""End-to-end acceptance checks.

Each test covers one headline behavior of the package and finishes by
printing a single PASS line, so a verbose run doubles as a checklist.
Statistical checks use fixed seeds and three-sigma tolerances.
"""

import hashlib
import math
import os
import random
import time

from tscls import (CountDecl, ObservableSpec, Pcg64, RewriteRule, TypeEnv,
                   TypeName, Var, VarKind, congruent, evaluate, match_whole,
                   parse_pattern, parse_rate, parse_term, simulate, step,
                   transitions)
from tscls.catalog import (OsmosisParams, lac_operon_model, osmosis_rules,
                           state_change_rule)
from tscls.cli import main
from conftest import abstract_pattern, random_rule, random_term, scramble
from oracle import brute_force_matches, brute_force_transitions

ENV = TypeEnv()


def T(text):
    return parse_term(text)


def _report(n, text):
    print(f"[acceptance {n:02d}] {text}: PASS")


def eq1_rule():
    """a | $X -> b | $X at rate (n1+1)*k / (if n2 == 0 then 1 else n2*kp),
    counting a's and c's inside X."""
    return RewriteRule(
        "change",
        parse_pattern("a | $X"),
        parse_pattern("b | $X"),
        parse_rate("(n1 + 1) * k / (if n2 == 0 then 1 else n2 * kp)"),
        (CountDecl(Var(VarKind.TERM, "X"),
                   ((TypeName("t_a"), "n1"), (TypeName("t_c"), "n2"))),))


EQ1_CONSTS = {"k": 1.0, "kp": 1.0}


def exhaust(state, rules, consts):
    """Apply the unique enabled transition until none is left."""
    rates = []
    while True:
        trs = transitions(state, rules, ENV, consts)
        if not trs:
            return rates, state
        assert len(trs) == 1
        rates.append(trs[0].rate)
        state = trs[0].target


def test_01_typed_rates_exact():
    t0 = time.perf_counter()
    rule = eq1_rule()
    rates, final = exhaust(T("a | a | c"), [rule], EQ1_CONSTS)
    assert rates == [2.0, 1.0]
    assert final == T("b | b | c")
    rates, final = exhaust(T("<b.c.c>[ a | a | a | c ]"), [rule], EQ1_CONSTS)
    assert rates == [3.0, 2.0, 1.0]
    assert final == T("<b.c.c>[ b | b | b | c ]")
    assert time.perf_counter() - t0 < 1.0
    _report(1, "typed occurrence counting gives the exact rate chain")


def test_02_counting_beats_naive_matching():
    (tr,) = transitions(T("a | a | c"), [eq1_rule()], ENV, EQ1_CONSTS)
    assert tr.rate == 2.0
    assert tr.rate != 1.0
    _report(2, "symmetric matches merge but their multiplicity is counted")


def test_03_lac_operon_forced_trace():
    model = lac_operon_model()
    env, consts = model.type_env(), model.constants

    def force(state, rule_id):
        picked = [tr for tr in transitions(state, model.rules, env, consts)
                  if tr.rule_id == rule_id]
        assert len(picked) == 1, f"{rule_id} not uniquely enabled"
        return picked[0]

    operon = "lacI.lacP.lacO.lacZ.lacY.lacA"
    expected = [
        ("R3", 3.0,
         "100 * LACT | <m>[ 29 * polym | 100 * repr"
         " | lacI.PP.lacO.lacZ.lacY.lacA ]"),
        ("R5", 20.0,
         f"100 * LACT | <m>[ Rna | 30 * polym | 100 * repr | {operon} ]"),
        ("R6", 0.1,
         f"100 * LACT | <m>[ Rna | betagal | perm | 30 * polym | 100 * repr"
         f" | transac | {operon} ]"),
        ("R13", 0.1,
         f"100 * LACT | <m.perm>[ Rna | betagal | 30 * polym | 100 * repr"
         f" | transac | {operon} ]"),
        ("R14", 0.1,
         f"99 * LACT | <m.perm>[ LACT | Rna | betagal | 30 * polym"
         f" | 100 * repr | transac | {operon} ]"),
        ("R15", 0.001,
         f"99 * LACT | <m.perm>[ GAL | GLU | Rna | betagal | 30 * polym"
         f" | 100 * repr | transac | {operon} ]"),
    ]
    state = model.init
    for rule_id, rate, want in expected:
        tr = force(state, rule_id)
        assert tr.rate == rate, (rule_id, tr.rate)
        state = tr.target
        assert congruent(state, T(want)), rule_id
    _report(3, "forced lac operon trace hits the expected rates and states")


def test_04_lac_operon_initial_transitions():
    model = lac_operon_model()
    trs = transitions(model.init, model.rules, model.type_env(),
                      model.constants)
    assert {(tr.rule_id, tr.rate) for tr in trs} \
        == {("R1", 0.02), ("R3", 3.0), ("R7", 100.0)}
    assert len(trs) == 3
    _report(4, "exactly R1/R3/R7 are enabled initially, at 0.02/3.0/100.0")


def test_05_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(501)
    for _ in range(500):
        t = random_term(rng)
        pattern = abstract_pattern(rng, t) if rng.random() < 0.7 \
            else random_rule(rng, "r").lhs
        assert match_whole(pattern, t) == brute_force_matches(pattern, t)
    for _ in range(200):
        state = random_term(rng)
        rules = [random_rule(rng, f"r{i}")
                 for i in range(rng.randint(1, 2))]
        fast = transitions(state, rules, ENV, {})
        assert frozenset(fast) == brute_force_transitions(state, rules)
    assert time.perf_counter() - t0 < 60.0
    _report(5, "matcher and transition relation agree with brute force"
               " on 500 + 200 random cases")


def test_06_congruence_invariance():
    t0 = time.perf_counter()
    rng = random.Random(601)
    fixed = [state_change_rule("a", "b", 1.0)]
    for i in range(500):
        t = random_term(rng)
        s = scramble(t, rng)
        assert congruent(t, s)
        rules = fixed + [random_rule(rng, "r")]
        assert transitions(t, rules, ENV, {}) \
            == transitions(s, rules, ENV, {})
    assert time.perf_counter() - t0 < 30.0
    _report(6, "transitions are invariant under 500 congruent rewrites"
               " of the state")


def test_07_stochastic_calibration():
    t0 = time.perf_counter()
    n = 10 ** 4

    # waiting time: total exit rate 2.0 => dt ~ Exp(2), mean 0.5
    state = T("a | a")
    rules = [state_change_rule("a", "b", 1.0)]
    rng = Pcg64(7001)
    total = 0.0
    for _ in range(n):
        dt, _tr = step(state, rules, ENV, {}, rng)
        total += dt
    sigma = 0.5 / math.sqrt(n)
    assert abs(total / n - 0.5) < 3 * sigma

    # selection: rates 1.0 vs 3.0 => slow branch picked with p = 0.25
    state = T("a | c")
    rules = [state_change_rule("a", "b", 1.0),
             state_change_rule("c", "d", 3.0)]
    rng = Pcg64(7002)
    slow = 0
    for _ in range(n):
        _dt, tr = step(state, rules, ENV, {}, rng)
        slow += tr.rule_id == "a_to_b"
    sigma = math.sqrt(0.25 * 0.75 / n)
    assert abs(slow / n - 0.25) < 3 * sigma
    assert time.perf_counter() - t0 < 10.0
    _report(7, "waiting times and selection frequencies match the SSA law"
               " within 3 sigma")


def test_08_lac_operon_conservation():
    t0 = time.perf_counter()
    model = lac_operon_model()
    model.observables.append(ObservableSpec("RLACT"))
    names = tuple(o.element for o in model.observables)
    i_lact, i_glu, i_gal = (names.index(e) for e in ("LACT", "GLU", "GAL"))
    i_rlact = names.index("RLACT")
    for seed in range(10):
        trace = simulate(model, model.sim_config(seed=seed))
        glu_prev = 0
        for sample in trace.samples:
            obs = sample.observables
            assert obs[i_lact] + obs[i_rlact] + obs[i_glu] == 100
            assert obs[i_glu] == obs[i_gal]
            assert obs[i_glu] >= glu_prev
            glu_prev = obs[i_glu]
    assert time.perf_counter() - t0 < 60.0
    _report(8, "lactose mass balance and glucose monotonicity hold on"
               " 10 seeds")


# SHA-256 of the seed-42 lac traces; refactors must leave them unchanged
LAC_SEED42_CSV_SHA256 = \
    "2137b64c8a37ebf2a9e7e1e0cbf12fc5a908504bbc06821a19135b07df10972f"
LAC_SEED42_JSON_SHA256 = \
    "54d7e01e54f7500d8e0b55675767d9059d0db7d1b2ef0e4cc21e2b23cc063baf"


def test_09_byte_identical_reruns(tmp_path):
    t0 = time.perf_counter()
    lac = os.path.join(os.path.dirname(__file__), os.pardir, "models",
                       "lac_operon.tscls")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    j = tmp_path / "a.ndjson"
    assert main(["run", lac, "--seed", "42", "--out", str(a)]) == 0
    assert main(["run", lac, "--seed", "42", "--out", str(b)]) == 0
    assert main(["run", lac, "--seed", "42", "--format", "json",
                 "--out", str(j)]) == 0
    data = a.read_bytes()
    assert data == b.read_bytes()
    assert data.startswith(b"time,step,rule,path,rate,")
    assert hashlib.sha256(data).hexdigest() == LAC_SEED42_CSV_SHA256
    assert hashlib.sha256(j.read_bytes()).hexdigest() \
        == LAC_SEED42_JSON_SHA256
    assert time.perf_counter() - t0 < 10.0
    _report(9, "seed-42 trace files are byte-identical across runs and"
               " match the pinned digests")


def test_10_osmosis_antisymmetry(rng):
    t0 = time.perf_counter()
    for _ in range(1000):
        params = OsmosisParams(
            surface=rng.uniform(0.1, 10), volume=rng.uniform(0.1, 10),
            va=rng.uniform(0.1, 5), vb=rng.uniform(0.1, 5),
            k=rng.uniform(0.1, 5), kc=rng.uniform(0.1, 5))
        out, inn = osmosis_rules("a", "b", params)
        counts = {name: rng.randint(0, 40)
                  for name in ("n1", "n2", "n3", "n4")}
        fwd = evaluate(out.rate, counts, {})
        bwd = evaluate(inn.rate, counts, {})
        assert fwd == -bwd
        assert abs(fwd + bwd) <= 1e-12 * max(1.0, abs(fwd))

        cat_out, _cat_in = osmosis_rules("a", "b", params, catalyst="c")
        assert evaluate(cat_out.rate, dict(counts, nc=0), {}) == fwd

    unit = OsmosisParams(1.0, 1.0, 1.0, 1.0, 1.0)
    rules = list(osmosis_rules("a", "b", unit))
    assert transitions(T("a | <s>[ a ]"), rules, ENV, {}) == ()
    assert transitions(T("2 * b | <s>[ a | 2 * b ]"), rules, ENV, {}) == ()
    assert time.perf_counter() - t0 < 10.0
    _report(10, "osmosis rates are antisymmetric, vanish at equilibrium,"
                " and a zero catalyst count is neutral")
