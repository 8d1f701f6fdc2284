"""Typed rewrite rules, occurrence counting and the transition relation.

A rule rewrites one whole compartment. Its rate is computed by counting
typed element occurrences inside the variable bindings of the match, as
declared by the rule's count blocks, and feeding those counts to the rate
expression. Transitions with non-positive rates are dropped; congruent
outcomes of one rule at one site are merged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Mapping, Optional, Sequence

from . import rates
from .compiled import Plan, compile_rule
from .errors import RateEvalError
from .matching import (Instantiation, compartments, image, match_whole,
                       path_text, splice, substitute)
from .patterns import (Pattern, Var, VarKind, pattern_vars,
                       seq_positioned_elem_vars)
from .rates import RateExpr
from .terms import (Term, TypeEnv, TypeName, canonicalize, read_counts,
                    seq_types, type_counts)

POSITIONAL = "positional"
LITERAL = "literal"


@dataclass(frozen=True)
class CountDecl:
    """Count block for one lhs variable: ordered (type, count-name) pairs."""
    var: Var
    entries: tuple[tuple[TypeName, str], ...]


CountSpec = tuple[CountDecl, ...]


@dataclass(frozen=True)
class RewriteRule:
    id: str
    lhs: Pattern
    rhs: Pattern
    rate: RateExpr
    counts: CountSpec = ()

    def count_names(self) -> tuple[str, ...]:
        return tuple(name for decl in self.counts for _, name in decl.entries)

    # derived once per rule and kept on it, so they live as long as the rule

    @cached_property
    def plan(self) -> Optional[Plan]:
        """The compiled plan (see :mod:`tscls.compiled`), or None when the
        rule takes the general path."""
        return compile_rule(self)

    @cached_property
    def evaluate(self) -> rates.Evaluator:
        """The rate expression, compiled (see :func:`rates.compile_expr`)."""
        return rates.compile_expr(self.rate)

    @cached_property
    def seq_positioned(self) -> frozenset[str]:
        return seq_positioned_elem_vars(self.lhs)

    @cached_property
    def rate_memo(self) -> list:
        """``[consts, table]``: the rates :func:`eval_rate` computed under
        a copy ``consts`` of the constants, keyed by their counts."""
        return [None, {}]


def rule_violations(rule: RewriteRule,
                    consts: Mapping[str, float] = ()) -> list[str]:
    """Static checks; returns one message per violation."""
    out: list[str] = []
    lhs_vars = set(pattern_vars(rule.lhs))
    if not rule.lhs.items:
        out.append(f"rule {rule.id}: lhs is the empty term")
    for var in pattern_vars(rule.rhs):
        if var not in lhs_vars:
            out.append(f"rule {rule.id}: rhs variable {var} does not occur in lhs")
    seen_names: set[str] = set()
    for decl in rule.counts:
        if decl.var not in lhs_vars:
            out.append(f"rule {rule.id}: count block names {decl.var}"
                       " which does not occur in lhs")
        for _, name in decl.entries:
            if name in seen_names:
                out.append(f"rule {rule.id}: duplicate count variable '{name}'")
            seen_names.add(name)
            if name in consts:
                out.append(f"rule {rule.id}: count variable '{name}'"
                           " shadows a declared constant")
    known = seen_names | set(consts)
    for ident in sorted(rates.expr_names(rule.rate)):
        if ident not in known:
            out.append(f"rule {rule.id}: rate references undeclared name '{ident}'")
    return out


# ---------------------------------------------------------------------------
# typed occurrence counting


def count_types(inst: Instantiation, counts: CountSpec, env: TypeEnv,
                mode: str = POSITIONAL,
                seq_positioned: frozenset[str] = frozenset()
                ) -> dict[str, int]:
    """Evaluate every count declaration against the instantiation.

    Positional mode types a binding by the position its variable occupies:
    term bindings by their parallel typing, sequence bindings always with
    seq-tagged types, element bindings as basic types unless the variable
    sits inside a longer sequence or a membrane (``seq_positioned``).
    Literal mode types the bound value itself, so a length-1 sequence
    binding counts as a basic type and an element binding always does.
    A term binding's type histogram is cached on the term.
    """
    literal = mode != POSITIONAL
    out: dict[str, int] = {}
    for decl in counts:
        binding = inst[decl.var]
        kind = decl.var.kind
        if kind is VarKind.TERM:
            types = type_counts(binding, env)
        elif kind is VarKind.SEQ:
            types = seq_types(binding, env, literal)
        else:
            types = seq_types((binding,), env, literal
                              or decl.var.name not in seq_positioned)
        out.update(read_counts(decl.entries, types))
    return out


def eval_rate(rule: RewriteRule, counts: Mapping[str, int],
              consts: Mapping[str, float]) -> float:
    """Evaluate the rule's rate expression; errors carry the rule id.

    A NaN or infinite result raises :class:`RateEvalError`: it would
    corrupt the clock and the selection of every later step.

    The rule keeps each rate it computed, keyed by the counts' names and
    values in their order (the :meth:`RewriteRule.count_names` order when
    counting made them), until the constants' values change or the table
    reaches 4096 entries. Errors are not kept: every call raises again."""
    memo = rule.rate_memo
    if memo[0] != consts:
        memo[:] = dict(consts), {}
    table = memo[1]
    key = tuple(counts.items())
    rate = table.get(key)
    if rate is not None:
        return rate
    try:
        rate = float(rule.evaluate(counts, consts))
    except RateEvalError as exc:
        raise RateEvalError(f"rule {rule.id}: {exc}") from None
    if not math.isfinite(rate):
        raise RateEvalError(f"rule {rule.id}: rate is not finite ({rate!r})")
    if len(table) >= 4096:
        table.clear()
    table[key] = rate
    return rate


# ---------------------------------------------------------------------------
# transitions


class Transition:
    """One enabled rewrite: rule applied at a compartment, with its rate.

    An immutable value that compares and hashes by (rule_id, path, target,
    rate). :func:`transitions` may defer the target: it is then built on
    the first read of ``target``, so a step that does not pick the
    transition never builds it.
    """

    __slots__ = ("rule_id", "path", "rate", "_target", "_build")

    def __init__(self, rule_id: str, path: tuple[int, ...], target: Term,
                 rate: float):
        for name, value in (("rule_id", rule_id), ("path", path),
                            ("rate", rate), ("_target", target),
                            ("_build", None)):
            object.__setattr__(self, name, value)

    @classmethod
    def deferred(cls, rule_id: str, path: tuple[int, ...],
                 build: Callable[[], Term], rate: float) -> "Transition":
        """A transition whose target ``build()`` makes on first read."""
        tr = cls(rule_id, path, None, rate)
        object.__setattr__(tr, "_build", build)
        return tr

    @property
    def target(self) -> Term:
        if self._build is not None:
            object.__setattr__(self, "_target", self._build())
            object.__setattr__(self, "_build", None)
        return self._target

    def _key(self) -> tuple:
        return (self.rule_id, self.path, self.target, self.rate)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Transition):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, *_) -> None:
        raise AttributeError("Transition is immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return (f"Transition(rule_id={self.rule_id!r}, path={self.path!r},"
                f" target={self.target!r}, rate={self.rate!r})")


def _build_target(state: Term, path: tuple[int, ...], rhs: Pattern,
                  inst: Instantiation) -> Term:
    return splice(state, path, substitute(rhs, inst))


def _rate(rule: RewriteRule, counts: Mapping[str, int],
          consts: Mapping[str, float], path: tuple[int, ...]) -> float:
    try:
        return eval_rate(rule, counts, consts)
    except RateEvalError as exc:
        raise RateEvalError(f"{exc} (compartment {path_text(path)})") from None


def transitions(state: Term, rules: Sequence[RewriteRule],
                env: Optional[TypeEnv] = None,
                consts: Optional[Mapping[str, float]] = None,
                mode: str = POSITIONAL) -> tuple[Transition, ...]:
    """Enumerate every enabled transition of the state.

    Matching is whole-compartment per rewriting site; rates come from
    typed counting; non-positive rates are dropped; duplicates by
    (rule, path, target, rate) are merged so symmetric matches appear
    once. The result is deterministically ordered (rule order in
    ``rules``, then path, then target).

    Rules with a compiled plan (:mod:`tscls.compiled`) match, count and
    build by component multiplicity, with one outcome per distinct loop
    and rhs membrane, and the same results; their outcomes at one path
    are merged and ordered without building a target (see
    :meth:`~tscls.compiled.Plan.ordered`), so every target is deferred.
    For the others, instantiations of one (rule, path) whose rhs images
    (see :func:`~tscls.matching.image`) and rates are equal are merged
    before any target is built. A (rule, path) left with one survivor
    gets a deferred target; the others are built here and merged by
    target, and errors in building them are raised here.
    """
    env = env if env is not None else TypeEnv()
    consts = consts if consts is not None else {}
    state = canonicalize(state)
    # (rule index, path) -> (image, rate) -> builds the target; a compiled
    # rule keys its outcomes by its plan's own keys instead of images
    groups: dict[tuple, dict[tuple, Callable[[], Term]]] = {}
    for comp in compartments(state):
        content, path = comp.content, comp.path
        if content.is_empty():
            continue  # an instantiated lhs is never the empty term
        for index, rule in enumerate(rules):
            plan = rule.plan
            if plan is not None:
                for key, counts, build in plan.entries(
                        state, path, content, env, mode != POSITIONAL):
                    rate = _rate(rule, counts, consts, path)
                    if rate > 0:
                        groups.setdefault((index, path), {})[key, rate] = \
                            build
                continue
            insts = match_whole(rule.lhs, content)
            if not insts:
                continue
            for inst in sorted(insts, key=Instantiation.sort_key):
                counts = count_types(inst, rule.counts, env, mode,
                                     rule.seq_positioned)
                rate = _rate(rule, counts, consts, path)
                if rate <= 0:
                    continue
                survivors = groups.setdefault((index, path), {})
                key = (image(rule.rhs, inst), rate)
                if key not in survivors:
                    survivors[key] = partial(_build_target, state, path,
                                             rule.rhs, inst)
    out: list[Transition] = []
    for index, path in sorted(groups):
        rule, survivors = rules[index], groups[index, path]
        if len(survivors) == 1:
            [((_, rate), build)] = survivors.items()
            out.append(Transition.deferred(rule.id, path, build, rate))
        elif rule.plan is not None:
            out.extend(Transition.deferred(rule.id, path, build, rate)
                       for rate, build in rule.plan.ordered(survivors))
        else:
            found: dict[tuple, Transition] = {}
            for (_, rate), build in survivors.items():
                target = build()
                if (target, rate) not in found:
                    found[target, rate] = Transition(rule.id, path, target,
                                                     rate)
            out.extend(sorted(found.values(),
                              key=lambda tr: (tr.target.key, tr.rate)))
    return tuple(out)
