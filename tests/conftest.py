"""Shared random-structure builders for the test suite.

Most properties here use plain ``random.Random`` driven by a seed (either
a loop index or a hypothesis-chosen integer) so cases are reproducible
and stay inside the oracle size guard by construction.
"""

from __future__ import annotations

import random

import pytest

from tscls import (CountDecl, ElemLit, ElemVar, Loop, Pattern, PLoop, PSeq,
                   PTermVar, RewriteRule, Seq, SeqVar, Term, TypeName, Var,
                   VarKind, pattern_vars)
from tscls.rates import BinOp, IfZero, Name, Num

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
    binding), with concrete positions randomly abstracted to variables."""
    names = names or _NameGen()
    items = []
    comps = list(t.components)
    rng.shuffle(comps)
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
    """A validated random rule whose lhs matches at least one small term."""
    base = random_term(rng, depth=1, max_comps=3)
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


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260816)
