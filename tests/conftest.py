"""Shared random-structure builders for the test suite.

Most properties here use plain ``random.Random`` driven by a seed (either
a loop index or a hypothesis-chosen integer) so cases are reproducible
and stay inside the oracle size guard by construction.
"""

from __future__ import annotations

import importlib.util
import os
import random

import pytest

from tscls import (CountDecl, ElemLit, ElemVar, Loop, Pattern, PLoop, PSeq,
                   PTermVar, RewriteRule, Seq, SeqVar, Term, TypeEnv,
                   TypeName, Var, VarKind, canonicalize, compartments, lits,
                   parse_rate, pat, pattern_vars, tvar)
from tscls.catalog import OsmosisParams, osmosis_rules
from tscls.rates import BinOp, IfZero, Name, Num
from tscls.terms import component_counts

ALPHABET = ("a", "b", "c", "d", "e", "f")


def random_seq(rng: random.Random, max_len: int = 3) -> Seq:
    return Seq(tuple(rng.choice(ALPHABET)
                     for _ in range(rng.randint(1, max_len))))


def random_term(rng: random.Random, depth: int = 2,
                max_comps: int = 4) -> Term:
    """A raw (possibly non-canonical) term, <= 8 components per level."""
    comps = []
    for _ in range(rng.randint(0, max_comps)):
        if depth > 0 and rng.random() < 0.35:
            membrane = tuple(rng.choice(ALPHABET)
                             for _ in range(rng.randint(1, 3)))
            comps.append(Loop(membrane,
                              random_term(rng, depth - 1, max_comps - 1)))
        else:
            comps.append(random_seq(rng))
    return Term(comps)


def scramble(t: Term, rng: random.Random) -> Term:
    """A syntactic variant congruent to ``t``: shuffled component order,
    rotated membranes, stray empty sequences."""
    comps = []
    for comp in t.components:
        if isinstance(comp, Loop):
            names = comp.membrane
            cut = rng.randrange(len(names))
            comps.append(Loop(names[cut:] + names[:cut],
                              scramble(comp.content, rng)))
        else:
            comps.append(comp)
    if rng.random() < 0.4:
        comps.append(Seq(()))
    rng.shuffle(comps)
    return Term(comps)


# ---------------------------------------------------------------------------
# pattern abstraction: build a pattern that matches a given term


class _NameGen:
    def __init__(self):
        self.n = 0

    def fresh(self, prefix: str) -> str:
        self.n += 1
        return f"{prefix}{self.n}"


def _abstract_seq(rng: random.Random, elems: tuple[str, ...],
                  names: _NameGen) -> PSeq:
    atoms = []
    i = 0
    while i < len(elems):
        roll = rng.random()
        if roll < 0.15:
            run = rng.randint(0, len(elems) - i)
            atoms.append(SeqVar(names.fresh("s")))
            i += run
        elif roll < 0.3:
            atoms.append(ElemVar(names.fresh("e")))
            i += 1
        else:
            atoms.append(ElemLit(elems[i]))
            i += 1
    if not atoms or (rng.random() < 0.1):
        atoms.append(SeqVar(names.fresh("s")))
    return PSeq(tuple(atoms))


def abstract_pattern(rng: random.Random, t: Term,
                     names: _NameGen = None) -> Pattern:
    """A pattern guaranteed to match ``t`` (via the identity-shaped
    binding), with concrete positions randomly abstracted to variables.
    If ``t`` holds a component twice, a term variable sometimes occurs
    twice and binds one copy in each place."""
    names = names or _NameGen()
    items = []
    comps = list(t.components)
    rng.shuffle(comps)
    twice = [comp for comp, n in component_counts(t).items() if n > 1]
    if twice and rng.random() < 0.5:
        comp = rng.choice(twice)
        comps.remove(comp)
        comps.remove(comp)
        items += [PTermVar(names.fresh("X"))] * 2
    absorbed = 0
    for comp in comps:
        if rng.random() < 0.35:
            absorbed += 1
            continue
        if isinstance(comp, Seq):
            items.append(_abstract_seq(rng, comp.elems, names))
        else:
            items.append(PLoop(_abstract_seq(rng, comp.membrane, names),
                               abstract_pattern(rng, comp.content, names)))
    n_tvars = rng.randint(1, 2) if absorbed else rng.randint(0, 1)
    for _ in range(n_tvars):
        items.append(PTermVar(names.fresh("X")))
    rng.shuffle(items)
    return Pattern(tuple(items))


def random_rule(rng: random.Random, rule_id: str) -> RewriteRule:
    """A validated random rule whose lhs matches at least one small term.
    That term sometimes holds a component twice, so the lhs may repeat a
    term variable (see :func:`abstract_pattern`)."""
    base = random_term(rng, depth=1, max_comps=3)
    if base.components and rng.random() < 0.3:
        base = Term(base.components + (rng.choice(base.components),))
    lhs = abstract_pattern(rng, base)
    vars_ = list(pattern_vars(lhs))

    rhs_items = []
    for item in lhs.items:
        roll = rng.random()
        if roll < 0.3:
            continue
        if roll < 0.5:
            rhs_items.append(PSeq((ElemLit(rng.choice(ALPHABET)),)))
        else:
            rhs_items.append(item)
    rhs = Pattern(tuple(rhs_items))

    decls = []
    used = set()
    for var in vars_:
        if rng.random() < 0.5:
            continue
        entries = []
        for _ in range(rng.randint(1, 2)):
            tn = TypeName("t_" + rng.choice(ALPHABET), rng.random() < 0.5)
            name = f"n{len(used)}"
            used.add(name)
            entries.append((tn, name))
        decls.append(CountDecl(var, tuple(entries)))

    count_names = [n for d in decls for _, n in d.entries]
    if count_names:
        expr = BinOp("+", Name(rng.choice(count_names)), Num(1))
        for name in count_names[1:]:
            if rng.random() < 0.5:
                expr = BinOp("*", expr, BinOp("+", Name(name), Num(1)))
        if rng.random() < 0.25:
            expr = BinOp("-", expr, Num(rng.randint(0, 3)))
        if rng.random() < 0.2:
            expr = IfZero(rng.choice(count_names), Num(rng.randint(0, 2)),
                          expr)
    else:
        expr = Num(rng.choice([0.5, 1.0, 2.0, -1.0]))
    return RewriteRule(rule_id, lhs, rhs, expr, tuple(decls))


def random_env(rng: random.Random) -> TypeEnv:
    if rng.random() < 0.5:
        return TypeEnv()
    # a partial assignment; some elements share a type, the rest take
    # their default
    known = rng.sample(ALPHABET, rng.randint(2, len(ALPHABET)))
    return TypeEnv({e: "t_" + rng.choice(known) for e in known})


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
        decls.append(CountDecl(Var(VarKind.TERM, "X"), tuple(entries)))
    if rng.random() < 0.3:
        expr = random_rate(rng, names)  # extremes: non-finite, negative
    else:
        terms = " * ".join(f"({n} + 1)" for n in names) or "1"
        expr = parse_rate(f"{terms} * {rng.choice((0.5, 2, 0, -1))}"
                          if rng.random() < 0.3 else f"{terms} * 0.5")
    return RewriteRule(rid, pat(*lhs), pat(*rhs), expr, tuple(decls))


def osmosis_pair():
    params = OsmosisParams(surface=1.0, volume=1.0, va=1.0, vb=2.0, k=10.0)
    return list(osmosis_rules("W", "S", params, ids=("W_out", "W_in")))


def random_loop_state(rng):
    """A compartment of flat sequences and loops: repeated cells, membranes
    of one to three elements (some rotation-symmetric) or of nine to
    twelve, contents that hold loops of their own; sometimes wrapped in an
    outer loop."""
    comps = [random_seq(rng) for _ in range(rng.randint(0, 3))]
    for _ in range(rng.randint(0, 4)):
        membrane = rng.choice((("a", "b", "b"), ("a", "c"), ("b", "b"), ("a",),
                               ("a",) + ("b",) * rng.randint(8, 11),
                               tuple(rng.choice(ALPHABET) for _ in range(
                                   rng.choice((1, 2, 3, 9, 12))))))
        cell = Loop(membrane, random_term(rng, depth=1, max_comps=3))
        comps += [cell] * rng.choice((1, 1, 2))
    rng.shuffle(comps)
    state = Term(comps)
    if rng.random() < 0.3:
        state = Term([Loop(("d",), state), random_seq(rng)])
    return state


def random_loop_rule(rng, state, rid, doubling=True):
    """A rule of the loop shape whose ground parts are often drawn from
    the state, so it often matches. Unless ``doubling``, the rhs membrane
    holds ``~x`` at most once, so a run of the rule cannot double a
    membrane's length at every step."""
    inner, frame = rng.choice((("X", "Y"), ("Y", "X"), ("X", "Z")))
    sites = [s.content for s in compartments(canonicalize(state))]
    site = rng.choice(sites)
    cells = [c for c in site.components if isinstance(c, Loop)]

    def ground(term):
        seqs = [c for c in term.components if isinstance(c, Seq)]
        return [lits(*(rng.choice(seqs) if seqs and rng.random() < 0.8
                       else random_seq(rng)).elems)
                for _ in range(rng.choice((0, 0, 1, 2)))]

    g_in = ground(rng.choice(cells).content if cells else Term())
    g_out = ground(site)
    h_in = [lits(*random_seq(rng).elems) for _ in range(rng.randint(0, 2))]
    h_out = [lits(*random_seq(rng).elems) for _ in range(rng.randint(0, 2))]
    templates = [["~x"], ["b", "~x"], ["~x", "b"], ["a", "~x", "c"],
                 ["~x", "~x"], ["d"]]
    if not doubling:
        templates.remove(["~x", "~x"])
    template = rng.choice(templates)
    membrane = PSeq(tuple(SeqVar("x") if atom == "~x" else ElemLit(atom)
                          for atom in template))
    lhs = [PLoop(PSeq((SeqVar("x"),)), pat(*g_in, tvar(inner))), *g_out,
           tvar(frame)]
    rhs = [PLoop(membrane, pat(*h_in, tvar(inner))), *h_out, tvar(frame)]
    rng.shuffle(lhs)
    rng.shuffle(rhs)
    # count mostly what the ground parts consume, so leaving them out of
    # a binding changes the counts
    consumed = [atom.name for item in g_in + g_out for atom in item.atoms]
    decls, names = [], []
    for var in (Var(VarKind.TERM, inner), Var(VarKind.TERM, frame),
                Var(VarKind.SEQ, "x")):
        if rng.random() < 0.5:
            continue
        entries = []
        for _ in range(rng.randint(1, 2)):
            name = f"n{len(names)}"
            names.append(name)
            elem = rng.choice(consumed if consumed and rng.random() < 0.6
                              else ALPHABET)
            entries.append((TypeName("t_" + elem, rng.random() < 0.4),
                            name))
        decls.append(CountDecl(var, tuple(entries)))
    rng.shuffle(decls)
    if rng.random() < 0.3:
        expr = random_rate(rng, names)  # extremes: non-finite, negative
    else:
        terms = " * ".join(f"({n} + 1)" for n in names) or "1"
        expr = parse_rate(f"{terms} * {rng.choice((0.5, 2, 0, -1))}"
                          if rng.random() < 0.3 else f"{terms} * 0.5")
    return RewriteRule(rid, pat(*lhs), pat(*rhs), expr, tuple(decls))


# one rule whose rate is placeholder; its count is n
RATE_MODEL = """\
rule r {
  lhs: a | $X
  rhs: b | $X
  count $X { t_a -> n }
  rate: %s
}
init: 3 * a
"""

# rates as high as a rate may be, 200 operators or guards
LONG_RATES = [
    " + ".join(["1"] * 200), " - ".join(["n"] * 100 + ["1"] * 100),
    " * ".join(["(n + 1)"] * 100), "(" * 199 + "n" + ")" * 199,
    "(" * 150 + " + ".join(["1"] * 200) + ")" * 150,
    "((n" + " + 1" * 99 + ")" + " + 1" * 100 + ")",
    "if n == 0 then 1 else " * 200 + "2"]


# water crosses membranes by the osmosis pair, faster with more p on the
# other cells' membranes; A and B interconvert in every compartment;
# repeated cells and rotation-symmetric membranes
CELLS = """\
const va = 1.0
const vb = 2.0
const k = 10.0
const ka = 1.0
const kb = 0.8

rule W_out {
  lhs: <~x>[ W | $X ] | $Y
  rhs: <~x>[ $X ] | W | $Y
  count $X { t_W -> n1, t_S -> n2 }
  count $Y { t_W -> n3, t_S -> n4, seq(t_p) -> n5 }
  rate: (n2 / ((n1 + 1) * va + n2 * vb) - n4 / ((n3 + 1) * va + n4 * vb)) * k * (n5 + 1)
}

rule W_in {
  lhs: <~x>[ $X ] | W | $Y
  rhs: <~x>[ W | $X ] | $Y
  count $X { t_W -> n1, t_S -> n2 }
  count $Y { t_W -> n3, t_S -> n4, seq(t_p) -> n5 }
  rate: (n4 / ((n3 + 1) * va + n4 * vb) - n2 / ((n1 + 1) * va + n2 * vb)) * k * (n5 + 1)
}

rule A_to_B {
  lhs: A | $X
  rhs: B | $X
  count $X { t_A -> n }
  rate: (n + 1) * ka
}

rule B_to_A {
  lhs: B | $X
  rhs: A | $X
  count $X { t_B -> n }
  rate: (n + 1) * kb
}

init: 12 * W | 6 * S | 2 * A | 2 * <m.p>[ 3 * W | 2 * S | A ] \
| <p.m>[ 2 * W | 4 * S ] | <m.m>[ 5 * W | S | 2 * A ] | <aq.m.p>[ 4 * W | 3 * S ]
observe W, S, A, B
"""


# ground | $X rules on one well-mixed compartment
MASS = """\
const kb = 0.01
const ku = 0.2
const kf = 0.1
const kr = 0.15

rule bind {
  lhs: A | B | $X
  rhs: C | $X
  count $X { t_A -> n1, t_B -> n2 }
  rate: (n1 + 1) * (n2 + 1) * kb
}

rule unbind {
  lhs: C | $X
  rhs: A | B | $X
  count $X { t_C -> n }
  rate: (n + 1) * ku
}

rule convert {
  lhs: A | $X
  rhs: D | $X
  count $X { t_A -> n }
  rate: (n + 1) * kf
}

rule revert {
  lhs: D | $X
  rhs: A | $X
  count $X { t_D -> n }
  rate: (n + 1) * kr
}

init: 20 * A | 15 * B | 10 * C | 8 * D
observe A, B, C, D
"""


def assert_multisets_canonical(state):
    """Every compartment of ``state`` that keeps its component multiset
    keeps it canonical: positive counts, keys in increasing order. Every
    compartment's key, which a counted term builds from its multiset, is
    the key of its components listed and canonicalized afresh."""
    for site in compartments(state):
        c = site.content
        if c._counter is not None:
            assert all(n > 0 for n in c._counter.values())
            keys = [comp.key for comp in c._counter]
            assert all(a < b for a, b in zip(keys, keys[1:]))
        assert c.key == canonicalize(Term(list(c.components))).key


# literals at the edges of the float range, so sums and products overflow
EXTREME_NUMBERS = (0.0, 1.0, -1.0, 0.5, 1e-308, 1e308, -1e308, 5e-324)


def general(r: RewriteRule) -> RewriteRule:
    """A copy of the rule that takes the general path."""
    copy = RewriteRule(r.id, r.lhs, r.rhs, r.rate, r.counts)
    copy.__dict__["plan"] = None
    return copy


def random_rate(rng: random.Random, names: list[str], depth: int = 3):
    """A random rate AST over ``names`` using every operator and the
    zero guard; literals include extreme magnitudes."""
    roll = rng.random()
    if depth == 0 or roll < 0.2:
        if names and rng.random() < 0.5:
            return Name(rng.choice(names))
        return Num(rng.choice(EXTREME_NUMBERS))
    if names and roll < 0.3:
        return IfZero(rng.choice(names), random_rate(rng, names, depth - 1),
                      random_rate(rng, names, depth - 1))
    return BinOp(rng.choice("+-*/"), random_rate(rng, names, depth - 1),
                 random_rate(rng, names, depth - 1))


ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def load_perfbench(name: str):
    """``perfbench/<name>.py``, loaded by path; the modules loaded this
    way (the tracer and the model generators) import only the standard
    library."""
    path = os.path.join(ROOT, "perfbench", name + ".py")
    spec = importlib.util.spec_from_file_location("perfbench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260816)
