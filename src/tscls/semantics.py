"""Typed rewrite rules, occurrence counting and the transition relation.

A rule rewrites one whole compartment. Its rate is computed by counting
typed element occurrences inside the variable bindings of the match, as
declared by the rule's count blocks, and feeding those counts to the rate
expression. Transitions with non-positive rates are dropped; congruent
outcomes of one rule at one site are merged.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import accumulate, chain
from operator import itemgetter
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from . import rates
from .compiled import Plan, compile_rule, dependents
from .errors import RateEvalError
from .matching import (_KEY, _LOOP, Instantiation, Path, Position, image,
                       match_whole, path_of, path_text, splice, substitute)
from .patterns import (Pattern, Var, VarKind, pattern_elements,
                       pattern_vars, seq_positioned_elem_vars)
from .rates import RateExpr
from .terms import (Term, TypeEnv, TypeName, canonicalize, component_counts,
                    read_counts, seq_types, type_counts)

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
    """A rewrite rule. It keeps only what its own fields determine (its
    plan, compiled rate and seq-positioned variables), never anything of
    a run: an :class:`Enumerator` keeps the rates it computes.

    ``source`` is the text of the rule block the rule was parsed from, or
    empty; what that text determines is derived once per process (see
    :func:`parsed_rule`). A copy made by :func:`dataclasses.replace` has
    none.
    """
    id: str
    lhs: Pattern
    rhs: Pattern
    rate: RateExpr
    counts: CountSpec = ()
    source: str = field(default="", init=False, repr=False, compare=False)

    def count_names(self) -> tuple[str, ...]:
        return tuple(name for decl in self.counts for _, name in decl.entries)

    # derived once per rule and kept on it, so they live as long as the rule

    @cached_property
    def plan(self) -> Optional[Plan]:
        """The compiled plan (see :mod:`tscls.compiled`), or None when the
        rule takes the general path."""
        kept = _BLOCKS.get(self.source)
        if kept is None:
            return compile_rule(self)
        if kept[0] is _UNSET:
            kept[0] = compile_rule(self)
        return kept[0]

    @cached_property
    def evaluate(self) -> rates.Evaluator:
        """The rate expression, compiled (see :func:`rates.compile_expr`)."""
        return rates.compile_expr(self.rate)

    @cached_property
    def seq_positioned(self) -> frozenset[str]:
        return seq_positioned_elem_vars(self.lhs)


class RuleFacts(NamedTuple):
    """What the static checks read of a rule's patterns and rate: the
    variables of its lhs, those of its rhs in order of first occurrence,
    the names its rate reads, sorted, the names its guards test, and the
    elements its patterns name."""
    lhs_vars: frozenset[Var]
    rhs_vars: tuple[Var, ...]
    names: tuple[str, ...]
    guards: frozenset[str]
    elements: frozenset[str]


def _derive_facts(rule: RewriteRule) -> RuleFacts:
    """Walk the rule's patterns and rate for its :class:`RuleFacts`."""
    return RuleFacts(frozenset(pattern_vars(rule.lhs)),
                     pattern_vars(rule.rhs),
                     tuple(sorted(rates.expr_names(rule.rate))),
                     frozenset(rates.guard_names(rule.rate)),
                     frozenset(pattern_elements(rule.lhs)
                               | pattern_elements(rule.rhs)))


def rule_facts(rule: RewriteRule) -> RuleFacts:
    """The rule's :class:`RuleFacts`, derived once per rule block text."""
    kept = _BLOCKS.get(rule.source)
    return _derive_facts(rule) if kept is None else kept[1]


_UNSET = object()

# per rule block text, the plan of the rules parsed from it, or _UNSET
# until one of them is asked for it, and their facts: a block's text
# determines both, wherever it stands. Holds no rule, pattern or term; up
# to 1,024 texts, cleared when full
_BLOCKS: dict[str, list] = {}


def parsed_rule(rule: RewriteRule, text: str) -> None:
    """Tie ``rule`` to the text of the rule block it was parsed from: it
    gets the facts derived for that text and, once a rule of that text
    was compiled, its plan."""
    object.__setattr__(rule, "source", text)
    kept = _BLOCKS.get(text)
    if kept is None:
        if len(_BLOCKS) >= 1024:
            _BLOCKS.clear()
        _BLOCKS[text] = [_UNSET, _derive_facts(rule)]
    elif kept[0] is not _UNSET:
        rule.__dict__["plan"] = kept[0]  # as the cached property keeps it


def rule_violations(rule: RewriteRule,
                    consts: Mapping[str, float] = ()) -> list[str]:
    """Static checks; returns one message per violation."""
    facts = rule_facts(rule)
    out: list[str] = []
    lhs_vars = facts.lhs_vars
    if not rule.lhs.items:
        out.append(f"rule {rule.id}: lhs is the empty term")
    for var in facts.rhs_vars:
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
    for ident in facts.names:
        if ident not in seen_names and ident not in consts:
            out.append(f"rule {rule.id}: rate references undeclared name '{ident}'")
    for ident in sorted(facts.guards.intersection(consts) - seen_names):
        out.append(f"rule {rule.id}: guard names constant '{ident}',"
                   " not a count variable")
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
    corrupt the clock and the selection of every later step. So does an
    integer too large for a float, as the result or as an operand of a
    division or of an operation with a float. Nothing is kept: each
    :class:`Enumerator` keeps the rates of its run."""
    try:
        rate = float(rule.evaluate(counts, consts))
    except RateEvalError as exc:
        raise RateEvalError(f"rule {rule.id}: {exc}") from None
    except OverflowError as exc:
        raise RateEvalError(f"rule {rule.id}: rate overflows a float ({exc})"
                            ) from None
    if not math.isfinite(rate):
        raise RateEvalError(f"rule {rule.id}: rate is not finite ({rate!r})")
    return rate


def _remembered(rule: RewriteRule, consts: Mapping[str, float]
                ) -> Callable[..., float]:
    """The rule's rate as a function of its counts. Each rate
    :func:`eval_rate` computes is kept in the function's ``table`` under
    ``key``, if given, else the counts' names and values in their order,
    until it reaches 4096 entries. Errors are not kept: every call raises
    again."""
    table: dict = {}

    def rate(counts: Mapping[str, int], key: Optional[tuple] = None
             ) -> float:
        if key is None:
            key = tuple(counts.items())
        value = table.get(key)
        if value is None:
            value = eval_rate(rule, counts, consts)
            if len(table) >= 4096:
                table.clear()
            table[key] = value
        return value
    rate.table = table
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
        object.__setattr__(self, "rule_id", rule_id)
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_build", None)

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


def _located(exc: RateEvalError, path: tuple[int, ...]) -> RateEvalError:
    """The rate error, naming the compartment it was raised in."""
    return RateEvalError(f"{exc} (compartment {path_text(path)})")


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
    :meth:`~tscls.compiled.Plan.entries`), so every target is deferred.
    For the others, instantiations of one (rule, path) whose rhs images
    (see :func:`~tscls.matching.image`) and rates are equal are merged
    before any target is built. A (rule, path) left with one survivor
    gets a deferred target; the others are built here and merged by
    target, and errors in building them are raised here.

    Each call enumerates afresh: it makes its own :class:`Enumerator`.
    """
    return Enumerator(rules, env, consts, mode).outcomes(state).all()


class Enumerator:
    """The enabled transitions of states under one set of rules, typing,
    constants and typing mode, such as the states of one run.

    A rule rewrites one whole compartment and counts inside it, so all
    the enumerator knows of a compartment depends on its content alone.
    It keeps that on the content's :class:`~tscls.terms.Term` as the
    compartment's record, tied to this enumerator: a dict from the index
    of each compiled rule with outcomes there, or with an order of
    outcomes, to its keys, rates and, for a loop rule, its order (see
    :meth:`~tscls.compiled.Plan.entries`). An empty compartment has no
    transitions, so nothing is built from it, and it keeps no record.

    A target built from a compiled outcome leaves a hint, tied to this
    enumerator too, on each compartment it made: the compartment it
    replaced, the rules to enumerate again, the cells that left and
    came, and the cell whose copy was replaced and the loop that
    replaced it. Enumerating the compartment replaces the hint with its
    record, which copies its predecessor's and makes again only the
    rules to enumerate again (see :func:`~tscls.compiled.dependents`). In
    the compartment the drawn rule rewrote and in the content of the
    cell it rewrote, a compiled rule is kept unless the drawn rule can
    change its outcomes. In an enclosing compartment, a rule without a
    loop is kept, and each loop rule updates its order by the cells that
    changed: the new cell takes the loop rule's reading of the old one,
    except where the drawn rule rewrote that cell's content and can
    change what the loop rule reads of it. Any other compartment without
    a record is enumerated afresh.

    Beside its rules and their rates, the enumerator keeps the last
    state's groups of outcomes, one per rule and compartment, per rule in
    the order of the compartment's position (see
    :func:`~tscls.matching.path_of`), the only name it keeps for a
    compartment: one after another, they are in :func:`transitions`
    order. A first state's compartments are visited once, in pre-order,
    and one with a record costs an identity check. If the next state is
    a target built from the last state, only the groups of the root and
    of the cell the event replaced there, with the compartments inside
    it, are replaced (see :meth:`_patched`): the step costs no Python
    work for a compartment the event left alone. Any other state is
    visited as a first state is. Either way, a path is worked out only
    for the transitions asked for. Rules without a plan are matched
    afresh in every state: that path is the reference, and with one of
    them every state is visited.

    Each rule's rates are kept per tuple of counts, under the constants
    as they were when the enumerator was made: it keeps its own copy.
    """

    def __init__(self, rules: Sequence[RewriteRule],
                 env: Optional[TypeEnv] = None,
                 consts: Optional[Mapping[str, float]] = None,
                 mode: str = POSITIONAL):
        self.rules = tuple(rules)
        self.env = env if env is not None else TypeEnv()
        self.consts = dict(consts) if consts is not None else {}
        self.mode = mode
        self._literal = mode != POSITIONAL
        self._plans = tuple(rule.plan for rule in self.rules)
        self._general = tuple((index, rule) for index, rule
                              in enumerate(self.rules) if rule.plan is None)
        # per rule, its rate as a function of its counts, which keeps
        # its rates in its table
        self._rates = [_remembered(rule, self.consts) for rule in self.rules]
        self._every = tuple(range(len(self.rules)))
        # the rules enumerated again in every compartment an event made:
        # those without a plan
        self._always = frozenset(index for index, _ in self._general)
        self._loops = frozenset(
            index for index, rule in enumerate(self.rules)
            if rule.plan is not None and rule.plan.membrane is not None)
        # per compiled rule, once one of its outcomes is built: per role
        # in the build's trail (DRAWN, INSIDE, AROUND, OUTER in matching),
        # the rules to enumerate again in a compartment the build made, in
        # order, and the loop rules among them that read the cell the
        # event was in as they read the one it replaced; the last is the
        # same for every rule. All of it follows from the plans and the
        # environment, so the environment keeps it for the plans
        self._outer = (sorted(self._always | self._loops), self._loops)
        self._redo = self.env._kept.get(self._plans)
        if self._redo is None:
            self._redo = self.env.keep(self._plans, [None] * len(self.rules))
        # what a record and a hint on a term are tied to; not the
        # enumerator itself, which would keep its rules alive as long as
        # any term it visited. Each has its own, so that telling a record
        # of this enumerator costs one identity check
        self._token, self._hinted = object(), object()
        # the last state enumerated and its groups per rule, if every
        # rule has a plan
        self._kept: tuple = (None, None)
        # the last build's trail (see compiled.Plan.build)
        self._trail: list = []

    def outcomes(self, state: Term) -> "Outcomes":
        """The state's enabled transitions, in :func:`transitions` order.

        Each rule's groups are in the order of their compartments'
        positions, whether the state was visited or patched, so the
        groups of one rule after another are in that order. Compartments
        are enumerated in pre-order and, in each one without a record,
        rules in order, so the first rate error is the one the general
        path raises; multi-outcome groups of rules without a plan build
        their targets afterwards, in the order of the result."""
        state = canonicalize(state)
        (old, segs), self._kept = self._kept, (None, None)
        hint = state._outcomes
        if (hint is not None and hint[0] is self._hinted and hint[1] is old
                and old._outcomes[0] is self._token):
            for index, (keys, _, _) in old._outcomes[1].items():
                if keys:
                    del segs[index][0]  # every event replaces the root
            record = self._enumerated(state, (), state, segs)
            if hint[4] is not None:
                self._patched(state, old, hint[4], segs)
            # after the block: _patched then bisects no rule's groups
            # that are the root's alone
            for index, (keys, rates, _) in record.items():
                if keys:
                    segs[index].insert(0, (index, (), state, rates, keys))
        else:
            # per rule, its groups by position: (rule index, position,
            # content, rates, keys); for a rule without a plan, (rule
            # index, position, None, None, resolve)
            segs = [[] for _ in self.rules]
            self._visit(state, (), state, segs)
        outcomes = Outcomes(self, state, list(chain.from_iterable(segs)))
        if not self._general:
            self._kept = (state, segs)
        return outcomes

    def _patched(self, state: Term, old: Term, swap: tuple,
                 segs: list[list[tuple]]) -> None:
        """Make ``segs``, the groups per rule of ``old`` but the root's,
        those of ``state`` but the root's: ``state`` is a target built
        from ``old``, in which one copy of the cell ``swap[0]`` was
        replaced by the loop ``swap[1]``.

        In each rule's groups, the block of groups of the copy of the cell
        and of the compartments inside it is replaced by the block of the
        loop, whose compartments are visited. Copies of a cell have equal
        blocks, so the last copy's is dropped, and the new loop's goes
        after those of its other copies, if it has any. Blocks are found
        and placed by bisection on position."""
        cell, loop = swap
        copy = component_counts(old)[cell] - 1
        gone, end = (cell.key, copy), (cell.key, copy + 1)
        for seg in filter(None, segs):
            del seg[bisect_left(seg, gone, key=_POS):
                    bisect_left(seg, end, key=_POS)]
        self._visit(state, (loop.key, component_counts(state)[loop] - 1),
                    loop.content, segs)

    def _visit(self, state: Term, pos: Position, content: Term,
               segs: list[list[tuple]]) -> None:
        """Enumerate the compartment at position ``pos`` and, in
        pre-order, the ones inside it, and place each group in its rule's
        groups ``segs[rule index]`` by position."""
        for index, (keys, rates, _) in self._enumerated(
                state, pos, content, segs).items():
            if keys:
                insort(segs[index], (index, pos, content, rates, keys),
                       key=_POS)
        have = component_counts(content)
        comps = list(have)
        # loops sort last, after _LOOP
        for cell in comps[bisect_left(comps, _LOOP, key=_KEY):]:
            for copy in range(have[cell]):
                self._visit(state, pos + (cell.key, copy), cell.content,
                            segs)

    def _enumerated(self, state: Term, pos: Position, content: Term,
                    segs: list[list[tuple]]) -> dict:
        """The record of ``content``, the compartment at position ``pos``
        of ``state``, made from its hint if it has one and its
        predecessor has a record, else afresh, and kept on the content in
        place of the hint. The group of each rule without a plan is
        appended to its groups in ``segs``, and every rule is enumerated
        in rule order."""
        kept = content._outcomes
        if kept is not None and kept[0] is self._token:
            for index, rule in self._general:
                self._match(state, pos, content, index, rule, segs)
            return kept[1]
        if content.is_empty():  # an instantiated lhs is never the empty term
            content._outcomes = None
            return {}
        record = None
        if kept is not None and kept[0] is self._hinted:
            _, old, (redo, carry), change, swap = kept
            base = old._outcomes
            if base is not None and base[0] is self._token:
                record = base[1].copy()
        if record is None:
            redo, carry, change, swap, record = self._every, (), None, None, {}
        plans = self._plans
        for index in redo:
            plan = plans[index]
            if plan is None:
                self._match(state, pos, content, index, self.rules[index],
                            segs)
                continue
            try:
                entry = plan.entries(record.pop(index, None), content,
                                     self.env, self._literal,
                                     self._rates[index], change,
                                     swap[0] if index in carry else None)
            except RateEvalError as exc:
                raise _located(exc, path_of(state, pos)) from None
            if entry is not None:
                record[index] = entry
        content._outcomes = (self._token, record)
        return record

    def _build(self, state: Term, index: int, path: Path, content: Term,
               key: object) -> Term:
        """The target of rule ``index``'s outcome ``key`` in ``content``,
        the compartment at ``path`` of ``state``. Each compartment the
        build made gets its hint, for the next :meth:`outcomes`."""
        trail: list[tuple] = []
        target = self.rules[index].plan.build(state, path, content, key,
                                              trail)
        redo = self._redo[index]
        if redo is None:
            drawn, inside, around = dependents(self._plans, index, self.env)
            always, loops = self._always, self._loops
            redo = self._redo[index] = (
                (sorted(always | drawn), ()), (sorted(always | inside), ()),
                (sorted(always | loops), loops - around), self._outer)
        hinted = self._hinted
        for role, new, old, change, swap in trail:
            new._outcomes = (hinted, old, redo[role], change, swap)
        self._trail = trail
        return target

    def drop_hints(self) -> None:
        """Drop the hints that the last build left on the compartments it
        made and no enumeration has replaced, as on a run's final state:
        each hint holds the compartment it replaced."""
        hinted = self._hinted
        for _, new, _, _, _ in self._trail:
            if new._outcomes is not None and new._outcomes[0] is hinted:
                new._outcomes = None
        self._trail = ()

    def _match(self, state: Term, pos: Position, content: Term, index: int,
               rule: RewriteRule, segs: list[list[tuple]]) -> None:
        """The general path: a rule's instantiations in the compartment,
        merged by rhs image and rate, each with its deferred target."""
        insts = match_whole(rule.lhs, content)
        if not insts:
            return
        path = path_of(state, pos)
        survivors: dict[tuple, Callable[[], Term]] = {}
        for inst in sorted(insts, key=Instantiation.sort_key):
            counts = count_types(inst, rule.counts, self.env, self.mode,
                                 rule.seq_positioned)
            try:
                rate = self._rates[index](counts)
            except RateEvalError as exc:
                raise _located(exc, path) from None
            if rate <= 0:
                continue
            key = (image(rule.rhs, inst), rate)
            if key not in survivors:
                survivors[key] = partial(_build_target, state, path,
                                         rule.rhs, inst)
        if survivors:
            segs[index].append((index, pos, None, None,
                                partial(_resolved, rule, path, survivors)))


# a group's position and rates
_POS, _RATES = itemgetter(1), itemgetter(3)


def _resolved(rule: RewriteRule, path: tuple[int, ...],
              survivors: Mapping[tuple, Callable[[], Term]]
              ) -> tuple[tuple, tuple]:
    """A general group's ``(rates, transitions)``: one survivor keeps its
    target deferred; more are built, merged by target and sorted."""
    if len(survivors) == 1:
        [((_, rate), build)] = survivors.items()
        return (rate,), (Transition.deferred(rule.id, path, build, rate),)
    found: dict[tuple, Transition] = {}
    for (_, rate), build in survivors.items():
        target = build()
        if (target, rate) not in found:
            found[target, rate] = Transition(rule.id, path, target, rate)
    trs = sorted(found.values(), key=lambda tr: (tr.target.key, tr.rate))
    return tuple(tr.rate for tr in trs), tuple(trs)


class Outcomes:
    """A state's enabled transitions, in :func:`transitions` order:
    ``rates`` lists their rates, :meth:`transition` makes the one drawn,
    with a deferred target and the path worked out from its
    compartment's position, and :meth:`rule_index` gives its rule."""

    __slots__ = ("rates", "_enumerator", "_state", "_groups", "_ends")

    def __init__(self, enumerator: Enumerator, state: Term,
                 groups: list[tuple]):
        """``groups`` as :meth:`Enumerator.outcomes` orders them; the
        survivors of a rule without a plan become its transitions here."""
        self._enumerator = enumerator
        self._state = state
        self._groups = groups
        if enumerator._general:
            for g, (index, pos, content, rates, keys) in enumerate(groups):
                if rates is None:
                    groups[g] = (index, pos, content, *keys())
        # where each group's transitions end
        self._ends = list(accumulate(map(len, map(_RATES, groups))))
        self.rates = list(chain.from_iterable(map(_RATES, groups)))

    def rule_index(self, i: int) -> int:
        """The index of the rule of the ``i``-th transition."""
        return self._groups[bisect_right(self._ends, i)][0]

    def transition(self, i: int) -> Transition:
        """The ``i``-th transition. Building the target of a compiled
        rule's outcome leaves the enumerator what it changed."""
        g = bisect_right(self._ends, i)
        index, pos, content, rates, keys = self._groups[g]
        j = i - self._ends[g - 1] if g else i
        if content is None:
            return keys[j]  # a rule without a plan: its transitions
        path = path_of(self._state, pos)
        enumerator = self._enumerator
        return Transition.deferred(
            enumerator.rules[index].id, path,
            partial(enumerator._build, self._state, index, path, content,
                    keys[j]),
            rates[j])

    def all(self) -> tuple[Transition, ...]:
        return tuple(self.transition(i) for i in range(len(self.rates)))
