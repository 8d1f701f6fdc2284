"""Whole-compartment pattern matching, substitution and compartment paths.

A stochastic context hole covers one entire compartment, so a rule's
left-hand side must account for the complete content of the compartment
it fires in (term variables absorb the remainder explicitly). Matching
enumerates instantiations up to congruence: bindings are stored in
canonical form and symmetric choices among identical components collapse.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from collections import Counter
from itertools import islice
from operator import attrgetter
from typing import Iterator, Mapping, Optional, Sequence, Union

from .errors import SubstitutionError, WellFormednessError
from .patterns import (ElemLit, ElemVar, Pattern, PLoop, PSeq, PTermVar, Var,
                       VarKind, pattern_vars)
from .terms import (Component, Loop, Seq, Term, canonicalize,
                    component_counts, counted, min_rotation)

Path = tuple[int, ...]

# the key and the copy number of each loop on the way from the root to a
# compartment (see :func:`path_of`)
Position = tuple

# the distinct cells a compartment lost and gained against the one it
# replaced: (gone, came)
Change = tuple[tuple[Loop, ...], tuple[Loop, ...]]

# what a compartment that building a target made is, in an entry
# (role, new, old, change, swap) of the build's trail: the compartment a
# rule rewrote, the content of the cell it rewrote, the compartment that
# holds the first in a cell, or one enclosing that
DRAWN, INSIDE, AROUND, OUTER = range(4)

Binding = Union[Term, tuple[str, ...], str]


@dataclass(frozen=True)
class Compartment:
    """One rewriting site: the root term or the content of some loop.

    ``path`` selects the loop chain leading here; each step is the index
    of a Loop among that level's Loop components in canonical order.
    """
    path: Path
    content: Term


class Instantiation:
    """Immutable variable assignment.

    Term variables bind canonical terms, sequence variables bind element
    name tuples (possibly empty), element variables bind single names.
    """

    __slots__ = ("_map", "_items", "_hash")

    def __init__(self, mapping: Mapping[Var, Binding]):
        items = tuple(sorted(mapping.items(),
                             key=lambda kv: (kv[0].kind.value, kv[0].name)))
        self._map = dict(items)
        self._items = items
        self._hash = hash(items)

    def __getitem__(self, var: Var) -> Binding:
        return self._map[var]

    def get(self, var: Var, default: Optional[Binding] = None):
        return self._map.get(var, default)

    def __contains__(self, var: Var) -> bool:
        return var in self._map

    def __len__(self) -> int:
        return len(self._map)

    def items(self) -> tuple[tuple[Var, Binding], ...]:
        return self._items

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Instantiation) and self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self):
        out = []
        for var, binding in self._items:
            if isinstance(binding, Term):
                bkey = ("T", binding.key)
            elif isinstance(binding, tuple):
                bkey = ("S", binding)
            else:
                bkey = ("E", binding)
            out.append((var.kind.value, var.name, bkey))
        return tuple(out)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}={b!r}" for v, b in self._items)
        return f"Instantiation({inner})"


# ---------------------------------------------------------------------------
# compartments and splicing


def compartments(state: Term) -> list[Compartment]:
    """All rewriting sites of a canonical state, in pre-order."""
    state = canonicalize(state)
    out: list[Compartment] = []
    stack: list[tuple[Path, Term]] = [((), state)]
    while stack:
        path, term = stack.pop()
        out.append(Compartment(path, term))
        # one visit per distinct component: equal loops are adjacent in
        # canonical order, so n copies of a loop take the next n indices
        inner = []
        for comp, n in component_counts(term).items():
            if isinstance(comp, Loop):
                for _ in range(n):
                    inner.append((path + (len(inner),), comp.content))
        stack.extend(reversed(inner))
    return out


def path_of(state: Term, pos: Position) -> Path:
    """The path of the compartment at position ``pos`` of the canonical
    ``state``, as :func:`compartments` numbers it. Positions sort in
    pre-order, and unlike a path a position does not change when a cell
    moves among its siblings. At each level, the path's step is the
    number of copies of the loops before the position's loop, plus its
    copy number."""
    path = []
    for at in range(0, len(pos), 2):
        have = component_counts(state)
        comps = list(have)
        i = bisect_left(comps, pos[at], key=_KEY)
        first = bisect_left(comps, _LOOP, 0, i, key=_KEY)
        path.append(sum(islice(have.values(), first, i)) + pos[at + 1])
        state = comps[i].content
    return tuple(path)


_KEY = attrgetter("key")

# less than the key of every loop, and more than that of every sequence
_LOOP = (1,)


def splice(state: Term, path: Path, new_content: Term,
           trail: Optional[list] = None) -> Term:
    """Replace the compartment at ``path`` of the canonical form of
    ``state``; the result is canonical.

    Only the loops on the path change, each keeping its membrane, so each
    enclosing compartment is built from its predecessor's component
    multiset with one copy of the loop replaced (by :func:`replace_copy`),
    the new loop placed among the components around it (by
    :func:`placed`), and its predecessor's type histogram. If ``trail`` is
    a list, ``(role, new, old, change, swap)`` is appended to it for each
    enclosing compartment rebuilt, innermost first: ``role`` is AROUND
    for the compartment that holds the replaced one in a cell and OUTER
    for the others, ``change`` is what ``replace_copy`` gives, and
    ``swap`` is the loop replaced and the loop that replaced it."""
    if not path:
        return canonicalize(new_content)
    state = canonicalize(state)
    target, rest = path[0], path[1:]
    # the multiset finds the loop without a walk over every copy
    counts = dict(component_counts(state))
    for comp, n in counts.items():
        if isinstance(comp, Loop):
            if target < n:
                break
            target -= n
    else:
        raise ValueError(f"no loop at path step {path[0]}")
    new = Loop(comp.membrane, splice(comp.content, rest, new_content, trail))
    change = replace_copy(counts, comp, new)
    out = counted(placed(counts, change[1]))
    out._types = state._types  # the loop keeps its membrane
    if trail is not None:
        trail.append((OUTER if rest else AROUND, out, state, change,
                      (comp, new)))
    return out


def replace_copy(counts: dict, old: Loop, new: Loop) -> Change:
    """Replace one copy of ``old`` by ``new`` in the component multiset
    ``counts``, in place, a new key going last, and give the cells that
    changed: ``gone`` holds ``old`` if no copy of it is left, ``came``
    holds ``new`` if no copy of it was there."""
    counts[old] -= 1
    came: tuple[Loop, ...] = ()
    if new in counts:
        counts[new] += 1
    else:
        counts[new] = 1
        came = (new,)
    gone: tuple[Loop, ...] = ()
    if not counts[old]:
        del counts[old]
        gone = (old,)
    return gone, came


def placed(counts: dict, came: Sequence[Component]) -> dict:
    """``counts``, a component multiset keyed in canonical order but for
    ``came``, components it did not hold before, which went last, with
    each of those moved to its place by bisection: ``counts`` itself if
    they are in place, else a new dict."""
    if not came:
        return counts
    items = list(counts.items())
    del items[-len(came):]
    if len(came) == 1 and (not items or items[-1][0].key < came[0].key):
        return counts
    for comp in came:
        items.insert(bisect_left(items, comp.key, key=_item_key),
                     (comp, counts[comp]))
    return dict(items)


def _item_key(item: tuple[Component, int]) -> tuple:
    return item[0].key


def path_text(path: Path) -> str:
    """Human-readable path: '/' for the root, '/0/1' for nested loops."""
    return "/" + "/".join(str(i) for i in path) if path else "/"


# ---------------------------------------------------------------------------
# substitution


def substitute(p: Pattern, inst: Instantiation) -> Term:
    """Apply an instantiation to a pattern; the result is canonical.

    Sequence bindings splice into their enclosing sequences, term bindings
    add their multisets to the parallel one, and an item of count n adds
    n of its value. Raises :class:`SubstitutionError` if the pattern uses
    a variable the instantiation does not bind.
    """
    if p.counts == (1,) and isinstance(p.items[0], PTermVar):
        # a bare term variable passes its binding through unchanged
        return canonicalize(_lookup(inst, Var(VarKind.TERM, p.items[0].name)))
    counts: Counter = Counter()
    for item, n in zip(p.items, p.counts):
        if isinstance(item, PTermVar):
            t = _lookup(inst, Var(VarKind.TERM, item.name))
            for comp, k in component_counts(t).items():
                counts[comp] += k * n
        elif isinstance(item, PSeq):
            names = _seq_names(item, inst)
            if names:
                counts[Seq(names)] += n
        else:
            membrane = _seq_names(item.membrane, inst)
            counts[Loop(membrane, substitute(item.content, inst))] += n
    return canonicalize(Term(counts))


def image(p: Pattern, inst: Instantiation) -> frozenset:
    """What ``substitute(p, inst)`` is made of, without building it.

    The image is the multiset of the pattern's non-empty items, an item
    of count n given n times: a term variable gives its canonical
    binding, a sequence its element names, a loop its least-rotation
    membrane and the image of its content.
    Equal images give congruent substitutes, so instantiations can be
    merged before any term is built. Raises the errors ``substitute``
    would raise, in the same order.
    """
    counts: dict = {}
    for item, n in zip(p.items, p.counts):
        if isinstance(item, PTermVar):
            key = canonicalize(_lookup(inst, Var(VarKind.TERM, item.name)))
            if key.is_empty():
                continue
        elif isinstance(item, PSeq):
            key = _seq_names(item, inst)
            if not key:
                continue
        else:
            membrane = _seq_names(item.membrane, inst)
            content = image(item.content, inst)
            if not membrane:
                if content:
                    raise WellFormednessError(
                        "loop with empty membrane and non-empty content")
                continue
            key = (min_rotation(membrane), content)
        counts[key] = counts.get(key, 0) + n
    return frozenset(counts.items())


def _lookup(inst: Instantiation, var: Var) -> Binding:
    try:
        return inst[var]
    except KeyError:
        raise SubstitutionError(f"unbound variable {var}") from None


def _seq_names(ps: PSeq, inst: Instantiation) -> tuple[str, ...]:
    names: list[str] = []
    for atom in ps.atoms:
        if isinstance(atom, ElemLit):
            names.append(atom.name)
        elif isinstance(atom, ElemVar):
            names.append(_lookup(inst, Var(VarKind.ELEM, atom.name)))
        else:
            names.extend(_lookup(inst, Var(VarKind.SEQ, atom.name)))
    return tuple(names)


# ---------------------------------------------------------------------------
# matching


def match_whole(lhs: Pattern, content: Term) -> frozenset[Instantiation]:
    """All instantiations making the pattern congruent to the whole content.

    The result set is deduplicated up to congruence of bindings.
    """
    content = canonicalize(content)
    return frozenset(Instantiation(sigma)
                     for sigma in _match_pattern(lhs, content, {}, {}))


def _match_pattern(p: Pattern, content: Term, sigma: dict[Var, Binding],
                   memo: dict) -> Iterator[dict[Var, Binding]]:
    slots: list[tuple[Union[PSeq, PLoop], int]] = []
    occurrences: dict[str, int] = {}
    for item, n in zip(p.items, p.counts):
        if isinstance(item, PTermVar):
            occurrences[item.name] = n
        else:
            slots.append((item, n))
    # sequence slots before loop slots: they fail fast without descending
    # into loop contents, and the explored assignment set is order-free
    slots.sort(key=lambda slot: isinstance(slot[0], PLoop))
    # each match mutates a private copy of the term's multiset
    remaining = dict(component_counts(content))
    yield from _match_slots(slots, 0, remaining, occurrences, sigma, memo)


def _match_slots(slots: list[tuple[Union[PSeq, PLoop], int]], i: int,
                 remaining: dict, occurrences: dict[str, int],
                 sig: dict[Var, Binding],
                 memo: dict) -> Iterator[dict[Var, Binding]]:
    """Match ``slots[i:]``, each an item and its count, against components
    of ``remaining``, then give the leftover to the term variables.

    The first copy of an item is matched as a single item is; the other
    copies take the same component, one subtraction for all of them, or
    none if the first vanished. That is exact: a variable denotes one
    value in all its occurrences, and once the first copy has bound the
    item's variables, each copy is congruent to one canonical component.
    """
    if i == len(slots):
        yield from _assign_term_vars(occurrences, remaining, sig, memo)
        return
    item, n = slots[i]
    if isinstance(item, PLoop):
        for comp in [c for c in remaining if isinstance(c, Loop)]:
            if remaining[comp] < n:
                continue
            remaining[comp] -= n
            for s2 in _match_loop(item, comp, sig, memo):
                yield from _match_slots(slots, i + 1, remaining,
                                        occurrences, s2, memo)
            remaining[comp] += n
    else:
        # a sequence pattern may vanish entirely (every atom binds eps)
        for s2 in _match_atoms(item.atoms, (), sig):
            yield from _match_slots(slots, i + 1, remaining, occurrences,
                                    s2, memo)
        for comp in [c for c in remaining if isinstance(c, Seq)]:
            if remaining[comp] < n:
                continue
            remaining[comp] -= n
            for s2 in _match_atoms(item.atoms, comp.elems, sig):
                yield from _match_slots(slots, i + 1, remaining,
                                        occurrences, s2, memo)
            remaining[comp] += n


def _match_loop(item: PLoop, comp: Loop, sigma: dict[Var, Binding],
                memo: dict) -> Iterator[dict[Var, Binding]]:
    seen: set[tuple[str, ...]] = set()
    mem = comp.membrane
    # the content match depends only on the bindings of variables the
    # content pattern mentions, so rotations that agree on those replay
    # one cached set of content-side extensions
    inner_vars = pattern_vars(item.content)
    cache: dict[frozenset, list[dict[Var, Binding]]] = {}
    for shift in range(len(mem)):
        rot = mem[shift:] + mem[:shift]
        if rot in seen:
            continue
        seen.add(rot)
        for s1 in _match_atoms(item.membrane.atoms, rot, sigma):
            ck = frozenset((v, s1[v]) for v in inner_vars if v in s1)
            exts = cache.get(ck)
            if exts is None:
                exts = [{k: v for k, v in s2.items() if k not in s1}
                        for s2 in _match_pattern(item.content, comp.content,
                                                 s1, memo)]
                cache[ck] = exts
            for ext in exts:
                yield {**s1, **ext} if ext else s1


def _match_atoms(atoms: tuple, names: tuple[str, ...],
                 sigma: dict[Var, Binding]) -> Iterator[dict[Var, Binding]]:
    if not atoms:
        if not names:
            yield sigma
        return
    head, rest = atoms[0], atoms[1:]
    if isinstance(head, ElemLit):
        if names and names[0] == head.name:
            yield from _match_atoms(rest, names[1:], sigma)
    elif isinstance(head, ElemVar):
        var = Var(VarKind.ELEM, head.name)
        if var in sigma:
            if names and names[0] == sigma[var]:
                yield from _match_atoms(rest, names[1:], sigma)
        elif names:
            yield from _match_atoms(rest, names[1:], {**sigma, var: names[0]})
    else:
        var = Var(VarKind.SEQ, head.name)
        if var in sigma:
            bound = sigma[var]
            if names[:len(bound)] == bound:
                yield from _match_atoms(rest, names[len(bound):], sigma)
        elif not rest:
            # a trailing sequence variable must absorb the remainder
            yield {**sigma, var: names}
        else:
            for cut in range(len(names) + 1):
                yield from _match_atoms(rest, names[cut:],
                                        {**sigma, var: names[:cut]})


def _assign_term_vars(occurrences: dict[str, int], remaining: dict,
                      sigma: dict[Var, Binding],
                      memo: dict) -> Iterator[dict[Var, Binding]]:
    """Distribute the leftover component multiset among term variables,
    each occurring as often as ``occurrences`` says.

    Pre-bound variables consume their binding times their occurrence
    count; the rest is split across unbound variables in every way that
    respects occurrence multiplicities. Bindings are built from counts
    and come out canonical by construction: the leftover keeps the
    canonical order of the compartment's multiset, so no re-sort is
    needed, and ``memo`` (scoped to one whole-compartment match) reuses
    the binding term when symmetric slot choices leave the same leftover
    behind.
    """
    leftover = {c: n for c, n in remaining.items() if n > 0}
    unbound: list[str] = []
    for name, k in occurrences.items():
        var = Var(VarKind.TERM, name)
        if var in sigma:
            for comp, n in component_counts(sigma[var]).items():
                left = leftover.get(comp, 0) - n * k
                if left < 0:
                    return
                leftover[comp] = left
        else:
            unbound.append(name)
    leftover = {c: n for c, n in leftover.items() if n > 0}
    if not unbound:
        if not leftover:
            yield sigma
        return

    if len(unbound) == 1 and occurrences[unbound[0]] == 1:
        # the whole leftover goes to the one variable, in one way
        key = tuple((id(c), n) for c, n in leftover.items())
        t = memo.get(key)
        if t is None:
            t = memo[key] = counted(leftover)
        sig2 = dict(sigma)
        sig2[Var(VarKind.TERM, unbound[0])] = t
        yield sig2
        return

    mults = [occurrences[name] for name in unbound]
    comps = list(leftover)
    # chosen[j] accumulates the counts assigned to unbound[j]
    chosen: list[dict] = [{} for _ in unbound]
    for _ in _splits(comps, leftover, mults, chosen, 0, 0, 0):
        sig2 = dict(sigma)
        for j, name in enumerate(unbound):
            sig2[Var(VarKind.TERM, name)] = counted(dict(chosen[j]))
        yield sig2


def _splits(comps: list, leftover: dict, mults: list[int],
            chosen: list[dict], ci: int, j: int,
            left: int) -> Iterator[None]:
    """Yield once per way of splitting the ``leftover`` copies of each of
    ``comps[ci:]`` among the ``chosen`` count dicts, setting counts in
    them: dict ``j`` given ``take`` copies uses ``take * mults[j]`` of
    them, and every copy is used. Within ``comps[ci]`` the dicts before
    ``j`` have taken theirs and ``left`` copies remain; at ``j == 0`` all
    remain."""
    if ci == len(comps):
        yield None
        return
    comp = comps[ci]
    if j == 0:
        left = leftover[comp]
    if j == len(mults) - 1:
        if left % mults[j] == 0:
            take = left // mults[j]
            if take:
                chosen[j][comp] = take
            yield from _splits(comps, leftover, mults, chosen, ci + 1, 0, 0)
            chosen[j].pop(comp, None)
        return
    for take in range(left // mults[j] + 1):
        if take:
            chosen[j][comp] = take
        yield from _splits(comps, leftover, mults, chosen, ci, j + 1,
                           left - take * mults[j])
    chosen[j].pop(comp, None)
