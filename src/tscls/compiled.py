"""Compiled rules: ground flat sequences around at most one loop.

Two rule shapes compile, each ``g``/``h`` a ground flat sequence:

* ``g1 | ... | gk | $X -> h1 | ... | hm | $X``, every count block on
  ``$X``. The variable binds exactly the compartment minus its ground
  part, so matching is a multiset-containment test against the
  compartment's component counter, the counts type the leftover distinct
  components times their multiplicities, and the target is the counter
  ``content - need + give``. There is at most one instantiation per
  compartment.
* ``<~x>[ g_in | $X ] | g_out | $Y -> <m>[ h_in | $X ] | h_out | $Y``,
  ``m`` made of literals and ``~x``, every count block on ``$X``, ``$Y``
  or ``~x``. The general matcher gives one instantiation per loop
  component ``L`` and distinct rotation of its membrane; here each
  distinct ``L`` is walked once. ``$X`` is ``L.content - g_in``, ``$Y``
  is ``content - L - g_out`` and the counts of ``~x`` do not depend on
  the rotation, so one rate serves every rotation, and the rotations
  collapse to the distinct least rotations of ``m[~x := rotation]``.

The results (matches, counts, errors and targets) are those of the
general path: ``match_whole``, ``count_types``, ``substitute`` and
``splice``. Errors are raised for the same instantiation: the general
path counts in ``Instantiation.sort_key`` order, which for these shapes
is the order of the loops' membranes, ties broken by the binding of the
term variable whose name sorts first.
"""

from __future__ import annotations

from collections import Counter
from functools import cmp_to_key
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from .matching import Path, splice
from .patterns import (ElemLit, Pattern, PLoop, PSeq, PTermVar, SeqVar, Var,
                       VarKind)
from .terms import (Loop, Seq, Term, TypeEnv, TypeName, Types,
                    component_counts, counter_types, min_rotation,
                    read_counts, seq_types, type_counts)

if TYPE_CHECKING:
    from .semantics import RewriteRule

# what a count block's variable binds: the compartment minus the lhs (the
# frame), the matched loop's content minus its ground part, or its membrane
FRAME, INNER, MEMBRANE = "frame", "inner", "membrane"

# per count block: what it counts and its (type, count name) entries
Decl = tuple[str, tuple[tuple[TypeName, str], ...]]

# an outcome's key and its counts; the key is what :meth:`Plan.build`
# needs beside the state, the path and the content
Entry = tuple[object, dict[str, int]]


class Plan:
    """What a compiled rule consumes, produces and counts.

    ``need`` and ``give`` are the ground parts outside the loop. A loop
    rule also has ``inner_need`` and ``inner_give`` inside it, and
    ``membrane``, the rhs membrane with None for each ``~x``; without a
    loop, ``membrane`` is None. ``frame_first`` says whether the frame
    variable's name sorts before the inner one's.

    Every term binding's counts are read from its compartment's type
    histogram (:func:`~tscls.terms.type_counts`, cached on the term) less
    the type histogram of ``need`` or ``inner_need``, which the plan
    keeps for the last environment.

    A loop rule keeps a :class:`_Cell` per cell component of the state it
    was last called on and of the state before, keyed by the cell's
    value, so a cell that an event left alone costs a lookup. Both are
    dropped when the ``(env, literal)`` pair changes.
    """

    __slots__ = ("need", "give", "decls", "inner_need", "inner_give",
                 "membrane", "frame_first", "_rotated", "_cells",
                 "_less")

    def __init__(self, need: Counter, give: Counter, decls: tuple[Decl, ...],
                 inner_need: Optional[Counter] = None,
                 inner_give: Optional[Counter] = None,
                 membrane: Optional[tuple[Optional[str], ...]] = None,
                 frame_first: bool = False):
        self.need = need
        self.give = give
        self.decls = decls
        self.inner_need = inner_need
        self.inner_give = inner_give
        self.membrane = membrane
        self.frame_first = frame_first
        self._rotated: dict[tuple[str, ...], tuple[tuple[str, ...], ...]] = {}
        # ((env, literal), state, its cells, the last state's cells),
        # replaced as one value
        self._cells: tuple = (None, None, {}, {})
        # (env, types of need, types of inner_need)
        self._less: tuple = (None, None, None)

    def entries(self, state: Term, content: Term, env: TypeEnv,
                literal: bool) -> Iterable[Entry]:
        """One ``(key, counts)`` per distinct outcome of the rule in
        ``content``, a compartment of ``state``; ``build(state, path,
        content, key)`` makes the outcome's successor. ``literal`` types a
        length-1 ``~x`` by its basic type. Loops come in the order the
        general path counts its instantiations, so a caller that evaluates
        each rate as it goes raises the same error. A loop rule's key is
        ``(entry, membrane)``: the :class:`_Cell` of the loop it rewrites
        and the membrane it gives it; the other rule's key is None."""
        have = component_counts(content)
        if not _contains(have, self.need):
            return ()
        if self.membrane is None:
            types, less = type_counts(content, env), self._types_less(env)[0]
            counts: dict[str, int] = {}
            for _, entries in self.decls:
                counts.update(read_counts(entries, types, less))
            return ((None, counts),)
        return self._loops(state, content, env, literal, have)

    def _types_less(self, env: TypeEnv) -> tuple[Types, Types]:
        """The type histograms of ``need`` and ``inner_need``."""
        less = self._less
        if less[0] is not env:
            less = self._less = (env, counter_types(self.need, env),
                                 counter_types(self.inner_need or {}, env))
        return less[1:]

    def _loops(self, state: Term, content: Term, env: TypeEnv,
               literal: bool, have: Counter) -> Iterator[Entry]:
        ctx, seen, memo, last = self._cells
        if ctx != (env, literal):
            memo, last = {}, {}
        elif seen is not state:
            memo, last = {}, memo
        self._cells = ((env, literal), state, memo, last)
        cells = [comp for comp in have if isinstance(comp, Loop)]
        if self.frame_first:
            cells.reverse()
        cells.sort(key=attrgetter("membrane"))
        totals: dict[int, dict[str, int]] = {}
        for cell in cells:
            entry = memo.get(cell)
            if entry is None:
                entry = last.get(cell)
                if entry is None:
                    entry = self._cell(cell, env, literal)
                memo[cell] = entry
            if not entry:
                continue
            counts = entry.counts
            if entry.shares:
                # the frame is the compartment's totals, counted once per
                # compartment, less the cell's membrane
                counts = dict(counts)
                for i, share in entry.shares:
                    total = totals.get(i)
                    if total is None:
                        total = totals[i] = read_counts(
                            self.decls[i][1], type_counts(content, env),
                            self._types_less(env)[0])
                    for name, n in share.items():
                        counts[name] = total[name] - n
            for membrane in self._membranes(cell.membrane):
                yield (entry, membrane), counts

    def _cell(self, cell: Loop, env: TypeEnv, literal: bool):
        """The cell's :class:`_Cell`, or False if the rule cannot rewrite
        it."""
        inner = component_counts(cell.content)
        if not _contains(inner, self.inner_need):
            return False
        counts: dict[str, int] = {}
        shares = []
        for i, (what, entries) in enumerate(self.decls):
            if what is INNER:
                counts.update(read_counts(entries,
                                          type_counts(cell.content, env),
                                          self._types_less(env)[1]))
            elif what is MEMBRANE:
                counts.update(read_counts(entries, seq_types(
                    cell.membrane, env, literal)))
            else:
                shares.append((i, read_counts(entries, seq_types(
                    cell.membrane, env, False))))
        return _Cell(cell, counts, tuple(shares))

    def _membranes(self, mem: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
        """The distinct least rotations of the rhs membrane over the
        rotations of ``mem``, cached per membrane."""
        if self.membrane == (None,):
            return (mem,)  # mem is a least rotation already
        out = self._rotated.get(mem)
        if out is None:
            found: dict[tuple[str, ...], None] = {}
            for shift in range(len(mem)):
                rot = mem[shift:] + mem[:shift]
                names: list[str] = []
                for atom in self.membrane:
                    if atom is None:
                        names.extend(rot)
                    else:
                        names.append(atom)
                found[min_rotation(tuple(names))] = None
            if len(self._rotated) >= 4096:
                self._rotated.clear()
            out = self._rotated[mem] = tuple(found)
        return out

    def _successor(self, entry: _Cell, membrane: tuple[str, ...]) -> Loop:
        """The loop that replaces the entry's cell when it takes
        ``membrane``, kept on the entry."""
        out = entry.successors.get(membrane)
        if out is None:
            inner = _term(_rebuilt(component_counts(entry.cell.content),
                                   self.inner_need, self.inner_give))
            out = entry.successors[membrane] = Loop(membrane, inner)
        return out

    def ordered(self, outcomes: Iterable[tuple[tuple, float]]
                ) -> list[tuple[tuple, float]]:
        """A loop rule's ``(key, rate)`` outcomes in one compartment, keyed
        by :meth:`entries`, merged and ordered as their targets and rates
        would be (see :func:`_by_target`), without building a target."""
        found = []
        unchanged: set[float] = set()
        for key, rate in outcomes:
            entry, membrane = key
            cell, new = entry.cell, self._successor(entry, membrane)
            if new == cell:
                # every outcome that keeps its cell has the same target
                if rate in unchanged:
                    continue
                unchanged.add(rate)
            found.append((cell.key, new.key, rate, key))
        found.sort(key=cmp_to_key(_by_target))
        return [(key, rate) for _, _, rate, key in found]

    def build(self, state: Term, path: Path, content: Term,
              key: Optional[tuple]) -> Term:
        """The successor of ``state`` for the outcome ``key`` of
        :meth:`entries` in ``content``, the compartment at ``path``."""
        counter = _rebuilt(component_counts(content), self.need, self.give)
        if key is not None:
            entry, membrane = key
            counter[entry.cell] -= 1
            counter[self._successor(entry, membrane)] += 1
        return splice(state, path, _term(counter))


class _Cell:
    """What a loop rule derives from one cell component: the counts that
    depend on the cell alone; per frame count block, its index and the
    cell membrane's share of the frame; and, as they are asked for, the
    loops the cell becomes, per rhs membrane."""

    __slots__ = ("cell", "counts", "shares", "successors")

    def __init__(self, cell: Loop, counts: dict[str, int],
                 shares: tuple[tuple[int, dict[str, int]], ...]):
        self.cell = cell
        self.counts = counts
        self.shares = shares
        self.successors: dict[tuple[str, ...], Loop] = {}


def _by_target(a: tuple, b: tuple) -> int:
    """Compare two outcomes of one group, ``(cell key, new key, rate,
    key)``, by their targets' keys, then by rate: -1, 0 or 1.

    Both targets are the content less the cell plus the new loop, spliced
    at one path, so a's has more of a's new loop and b's cell, and b's
    has more of a's cell and b's new loop, less what cancels. Two
    canonical terms with the same number of components first differ at
    the least component they hold in different numbers, and the term with
    more of it sorts first. At a nested path that holds for the changed
    compartment and, in turn, for each enclosing one, whose loops compare
    by their contents."""
    more_a, more_b = [a[1], b[0]], [a[0], b[1]]
    for key in (a[1], b[0]):
        if key in more_b:
            more_a.remove(key)
            more_b.remove(key)
    if not more_a:
        return (a[2] > b[2]) - (a[2] < b[2])
    return -1 if min(more_a) < min(more_b) else 1


def _contains(have: Counter, need: Counter) -> bool:
    for comp, n in need.items():
        if have.get(comp, 0) < n:
            return False
    return True


def _rebuilt(have: Counter, need: Counter, give: Counter) -> Counter:
    counter = have.copy()
    counter.subtract(need)
    counter.update(give)
    return counter


def _term(counter: Counter) -> Term:
    """The canonical term of a counter of canonical components."""
    comps = sorted((c for c, n in counter.items() if n > 0),
                   key=attrgetter("key"))
    parts: list = []
    for comp in comps:
        parts += [comp] * counter[comp]
    t = Term(parts)
    t._canonical = True
    t._counter = Counter({comp: counter[comp] for comp in comps})
    return t


def compile_rule(rule: RewriteRule) -> Optional[Plan]:
    """The rule's plan, or None if it is not of a compiled shape."""
    lhs, rhs = _split(rule.lhs), _split(rule.rhs)
    if lhs is None or rhs is None:
        return None
    (need, frame, lhs_loop), (give, rhs_frame, rhs_loop) = lhs, rhs
    if frame != rhs_frame or (lhs_loop is None) != (rhs_loop is None):
        return None
    where = {Var(VarKind.TERM, frame): FRAME}
    loop: dict = {}
    if lhs_loop is not None:
        atoms = lhs_loop.membrane.atoms
        inner = _split(lhs_loop.content, loops=False)
        rhs_inner = _split(rhs_loop.content, loops=False)
        if (len(atoms) != 1 or not isinstance(atoms[0], SeqVar)
                or inner is None or rhs_inner is None
                or inner[1] != rhs_inner[1] or inner[1] == frame
                or not rhs_loop.membrane.atoms):
            return None
        seq = atoms[0].name
        membrane: list[Optional[str]] = []
        for atom in rhs_loop.membrane.atoms:
            if isinstance(atom, ElemLit):
                membrane.append(atom.name)
            elif isinstance(atom, SeqVar) and atom.name == seq:
                membrane.append(None)
            else:
                return None
        where[Var(VarKind.TERM, inner[1])] = INNER
        where[Var(VarKind.SEQ, seq)] = MEMBRANE
        loop = dict(inner_need=inner[0], inner_give=rhs_inner[0],
                    membrane=tuple(membrane), frame_first=frame < inner[1])
    names = rule.count_names()
    if len(set(names)) != len(names):
        return None  # a count name bound twice: the last block sets it
    decls = []
    for decl in rule.counts:
        what = where.get(decl.var)
        if what is None:
            return None
        decls.append((what, decl.entries))
    return Plan(need, give, tuple(decls), **loop)


def _split(p: Pattern, loops: bool = True
           ) -> Optional[tuple[Counter, str, Optional[PLoop]]]:
    """Ground sequences as a component counter, the one term variable and
    the loop, if any; None unless the rest of the pattern is exactly one
    term variable and (when ``loops``) at most one loop."""
    ground: Counter = Counter()
    tvars, found = [], []
    for item in p.items:
        if isinstance(item, PTermVar):
            tvars.append(item.name)
        elif isinstance(item, PSeq) and all(isinstance(a, ElemLit)
                                            for a in item.atoms):
            if item.atoms:  # an empty sequence consumes and gives nothing
                ground[Seq(a.name for a in item.atoms)] += 1
        elif isinstance(item, PLoop) and loops:
            found.append(item)
        else:
            return None
    if len(tvars) != 1 or len(found) > 1:
        return None
    return ground, tvars[0], found[0] if found else None
