"""Brute-force reference implementations for the test suite.

Everything here trades speed for obviousness: matching enumerates raw
assignments of labeled components instead of walking distinct component
classes, counting builds complete type multisets instead of targeted
tallies, and substitution/splicing are re-implemented from the term
constructors. Inputs are size-guarded; these functions are test support
and are not part of the package.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping, Optional

from tscls.errors import TsclsError
from tscls.matching import Binding, Instantiation
from tscls.patterns import (ElemLit, ElemVar, Pattern, PLoop, PSeq, PTermVar,
                            SeqAtom, SeqVar, Var, VarKind)
from tscls.rates import evaluate
from tscls.semantics import (POSITIONAL, LITERAL, CountSpec, RewriteRule,
                             Transition)
from tscls.terms import (Loop, Seq, Term, TypeEnv, canonicalize, stype_of,
                         type_of)

MAX_COMPONENTS = 8


class OracleSizeError(TsclsError):
    """Brute-force oracle refused an instance above its size guard."""


BindingMap = dict[Var, Binding]


def _guard(t: Term) -> None:
    if len(t.components) > MAX_COMPONENTS:
        raise OracleSizeError(
            f"term has {len(t.components)} parallel components at one level,"
            f" oracle limit is {MAX_COMPONENTS}")
    for comp in t.components:
        if isinstance(comp, Loop):
            _guard(comp.content)


def _merge(left: BindingMap, right: BindingMap) -> Optional[BindingMap]:
    out = dict(left)
    for var, val in right.items():
        if var in out:
            if out[var] != val:
                return None
        else:
            out[var] = val
    return out


def _match_atoms(atoms: tuple[SeqAtom, ...],
                 names: tuple[str, ...]) -> Iterator[BindingMap]:
    if not atoms:
        if not names:
            yield {}
        return
    head, rest = atoms[0], atoms[1:]
    if isinstance(head, ElemLit):
        if names and names[0] == head.name:
            yield from _match_atoms(rest, names[1:])
    elif isinstance(head, ElemVar):
        if names:
            bound = {Var(VarKind.ELEM, head.name): names[0]}
            for tail in _match_atoms(rest, names[1:]):
                merged = _merge(bound, tail)
                if merged is not None:
                    yield merged
    else:
        assert isinstance(head, SeqVar)
        for cut in range(len(names) + 1):
            bound = {Var(VarKind.SEQ, head.name): names[:cut]}
            for tail in _match_atoms(rest, names[cut:]):
                merged = _merge(bound, tail)
                if merged is not None:
                    yield merged


def _match_component(item, comp) -> Iterator[BindingMap]:
    if isinstance(item, PSeq):
        if isinstance(comp, Seq):
            yield from _match_atoms(item.atoms, comp.elems)
        return
    assert isinstance(item, PLoop)
    if not isinstance(comp, Loop):
        return
    mem = comp.membrane
    rotations = [mem[i:] + mem[:i] for i in range(len(mem))] or [mem]
    for rotated in rotations:
        for mb in _match_atoms(item.membrane.atoms, rotated):
            for cb in _match_term(item.content, comp.content):
                merged = _merge(mb, cb)
                if merged is not None:
                    yield merged


def _listed(pattern: Pattern) -> list:
    """The pattern's items, each listed as often as its count says."""
    return [item for item, n in zip(pattern.items, pattern.counts)
            for _ in range(n)]


def _match_term(pattern: Pattern, t: Term) -> Iterator[BindingMap]:
    comps = list(t.components)
    concrete = [i for i in _listed(pattern) if not isinstance(i, PTermVar)]
    tvars = [i.name for i in _listed(pattern) if isinstance(i, PTermVar)]

    def choices(item) -> list[Optional[int]]:
        if isinstance(item, PSeq):
            # a sequence pattern may also match the neutral empty sequence
            return [None] + [i for i, c in enumerate(comps)
                             if isinstance(c, Seq)]
        return [i for i, c in enumerate(comps) if isinstance(c, Loop)]

    for picks in itertools.product(*(choices(i) for i in concrete)):
        used = [p for p in picks if p is not None]
        if len(used) != len(set(used)):
            continue
        partials: list[BindingMap] = [{}]
        for item, pick in zip(concrete, picks):
            comp = comps[pick] if pick is not None else Seq(())
            branches = list(_match_component(item, comp))
            partials = [m for p in partials for b in branches
                        if (m := _merge(p, b)) is not None]
            if not partials:
                break
        if not partials:
            continue
        leftover = [c for i, c in enumerate(comps) if i not in set(used)]
        if not tvars:
            if leftover:
                continue
            yield from partials
            continue
        # each occurrence of a term variable takes its own group of the
        # leftover, and a variable binds the term all its groups make
        for split in itertools.product(range(len(tvars)),
                                       repeat=len(leftover)):
            groups: list[list] = [[] for _ in tvars]
            for comp, slot in zip(leftover, split):
                groups[slot].append(comp)
            bound: BindingMap = {}
            for name, group in zip(tvars, groups):
                term = canonicalize(Term(group))
                if bound.setdefault(Var(VarKind.TERM, name), term) != term:
                    break
            else:
                for partial in partials:
                    merged = _merge(partial, bound)
                    if merged is not None:
                        yield merged


def _subst_seq(atoms: tuple[SeqAtom, ...], b: BindingMap) -> tuple[str, ...]:
    out: list[str] = []
    for atom in atoms:
        if isinstance(atom, ElemLit):
            out.append(atom.name)
        elif isinstance(atom, ElemVar):
            out.append(b[Var(VarKind.ELEM, atom.name)])
        else:
            out.extend(b[Var(VarKind.SEQ, atom.name)])
    return tuple(out)


def _subst(pattern: Pattern, b: BindingMap) -> Term:
    comps = []
    for item in _listed(pattern):
        if isinstance(item, PTermVar):
            comps.extend(b[Var(VarKind.TERM, item.name)].components)
        elif isinstance(item, PSeq):
            comps.append(Seq(_subst_seq(item.atoms, b)))
        else:
            comps.append(Loop(_subst_seq(item.membrane.atoms, b),
                              _subst(item.content, b)))
    return canonicalize(Term(comps))


def brute_force_matches(lhs: Pattern, content: Term) -> frozenset[Instantiation]:
    """Every whole-compartment match of ``lhs`` against ``content``,
    found by exhaustive enumeration and verified by substitution."""
    content = canonicalize(content)
    _guard(content)
    found = set()
    for binding in _match_term(lhs, content):
        if _subst(lhs, binding) == content:
            found.add(Instantiation(binding))
    return frozenset(found)


# ---------------------------------------------------------------------------
# transitions


def _walk(t: Term, path: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], Term]]:
    yield path, t
    index = 0
    for comp in t.components:
        if isinstance(comp, Loop):
            yield from _walk(comp.content, path + (index,))
            index += 1


def _rebuild(t: Term, path: tuple[int, ...], new_content: Term) -> Term:
    if not path:
        return new_content
    comps = []
    index = 0
    for comp in t.components:
        if isinstance(comp, Loop):
            if index == path[0]:
                comp = Loop(comp.membrane,
                            _rebuild(comp.content, path[1:], new_content))
            index += 1
        comps.append(comp)
    return Term(comps)


def _seq_positioned(pattern: Pattern, inside_seq: bool = False) -> set[str]:
    """Element variables occurring inside a membrane or a longer sequence."""
    out: set[str] = set()
    for item in pattern.items:
        if isinstance(item, PTermVar):
            continue
        if isinstance(item, PSeq):
            if len(item.atoms) > 1 or inside_seq:
                out.update(a.name for a in item.atoms
                           if isinstance(a, ElemVar))
        else:
            out.update(a.name for a in item.membrane.atoms
                       if isinstance(a, ElemVar))
            out |= _seq_positioned(item.content)
    return out


def _oracle_counts(inst: Instantiation, counts: CountSpec, env: TypeEnv,
                   mode: str, seq_positioned: set[str]) -> dict[str, int]:
    out: dict[str, int] = {}
    for decl in counts:
        binding = inst[decl.var]
        if decl.var.kind is VarKind.TERM:
            multiset = type_of(binding, env)
        elif decl.var.kind is VarKind.SEQ:
            if mode == LITERAL and len(binding) == 1:
                multiset = {env.basic(binding[0]): 1}
            else:
                multiset = stype_of(binding, env)
        else:
            if mode == POSITIONAL and decl.var.name in seq_positioned:
                multiset = {env.seq(binding): 1}
            else:
                multiset = {env.basic(binding): 1}
        for tn, name in decl.entries:
            out[name] = multiset.get(tn, 0)
    return out


def brute_force_transitions(state: Term, rules: list[RewriteRule],
                            env: Optional[TypeEnv] = None,
                            consts: Optional[Mapping[str, float]] = None,
                            mode: str = POSITIONAL) -> frozenset[Transition]:
    """The full transition set of ``state``, assembled from brute-force
    matching, whole-multiset counting and a from-scratch splice."""
    env = env if env is not None else TypeEnv()
    consts = dict(consts or {})
    state = canonicalize(state)
    _guard(state)
    found: dict[tuple, Transition] = {}
    for path, content in _walk(state, ()):
        if content.is_empty():
            continue
        for rule in rules:
            positioned = _seq_positioned(rule.lhs)
            for inst in brute_force_matches(rule.lhs, content):
                counts = _oracle_counts(inst, rule.counts, env, mode,
                                        positioned)
                rate = float(evaluate(rule.rate, counts, consts))
                if rate <= 0:
                    continue
                target = canonicalize(
                    _rebuild(state, path, _subst(rule.rhs,
                                                 dict(inst.items()))))
                key = (rule.id, path, target, rate)
                if key not in found:
                    found[key] = Transition(rule.id, path, target, rate)
    return frozenset(found.values())
