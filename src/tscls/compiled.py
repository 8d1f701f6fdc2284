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

A loop rule's outcomes in a compartment are ordered by their targets
without building one (see :func:`_by_target`). Two outcomes compare by
the cell each rewrites and the loop it becomes alone, so that order is
kept from one compartment to the compartment that replaces it: the
outcomes of cells that left are dropped and those of cells that came
are placed by bisection.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from functools import cmp_to_key
from operator import attrgetter
from typing import (TYPE_CHECKING, Callable, Mapping, NamedTuple, Optional,
                    Sequence)

from .errors import RateEvalError
from .matching import (DRAWN, INSIDE, Change, Path, placed, replace_copy,
                       splice)
from .patterns import (ElemLit, Pattern, PLoop, PSeq, PTermVar, SeqVar, Var,
                       VarKind)
from .terms import (Loop, Seq, Term, TypeEnv, TypeName, Types,
                    _NO_TYPES, component_counts, counted, counter_types,
                    min_rotation, read_counts, seq_types, type_counts)

if TYPE_CHECKING:
    from .semantics import RewriteRule

# what a count block's variable binds: the compartment minus the lhs (the
# frame), the matched loop's content minus its ground part, or its membrane
FRAME, INNER, MEMBRANE = "frame", "inner", "membrane"

# per count block: what it counts and its (type, count name) entries
Decl = tuple[str, tuple[tuple[TypeName, str], ...]]

# an outcome's key and its rate; the key is what :meth:`Plan.build` needs
# beside the state, the path and the content
Entry = tuple[object, float]

# a loop rule's outcome before it is rated, and its key: the _Cell of the
# loop it rewrites and the rhs membrane it gives it
Candidate = tuple["_Cell", tuple[str, ...]]


class Typed(NamedTuple):
    """A plan's type histograms under one environment: those of ``need``
    and ``inner_need``, and the change an outcome makes to the histogram
    of its compartment, outside the cell, and of the cell's content."""
    need: Types
    inner_need: Types
    change: Types
    inner_change: Types


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
    keeps for the last environment. ``net`` maps each element to the
    change an outcome makes in its bare occurrences, over the compartment
    and the cell it rewrites.
    """

    __slots__ = ("need", "give", "decls", "inner_need", "inner_give",
                 "membrane", "frame_first", "net", "_same_inner",
                 "_rotated", "_typed")

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
        net: dict[str, int] = {}
        for part, sign in ((need, -1), (give, 1), (inner_need, -1),
                           (inner_give, 1)):
            for comp, n in (part or {}).items():
                if len(comp.elems) == 1:
                    name = comp.elems[0]
                    net[name] = net.get(name, 0) + sign * n
        self.net = {name: n for name, n in net.items() if n}
        # whether the rule leaves a loop's content as it is
        self._same_inner = inner_need == inner_give
        self._rotated: dict[tuple[str, ...], tuple[tuple[str, ...], ...]] = {}
        # (env, Typed under it)
        self._typed: tuple = (None, None)

    def entries(self, kept: dict, content: Term, env: TypeEnv,
                literal: bool, rate: Callable[[dict[str, int]], float],
                change: Optional[Change] = None,
                loop: Optional[Loop] = None) -> list[Entry]:
        """The rule's enabled outcomes in ``content``, a compartment: one
        ``(key, rate)`` per distinct outcome of positive rate, merged and
        ordered as their targets and rates would be, so ``build(state,
        path, content, key)`` makes the outcome's successor. ``rate``
        rates an outcome's counts; ``literal`` types a length-1 ``~x`` by
        its basic type. The key of a loop rule's outcome is ``(entry,
        membrane)``: the :class:`_Cell` of the loop it rewrites and the
        membrane it gives it; the other rule's key is None.

        A loop rule keeps its :class:`Order` for ``content`` in
        ``kept[self]``, or removes it if it has none. If ``change`` gives
        the cells ``content`` lost and gained against the compartment it
        replaced, ``kept[self]`` holds on entry that compartment's order,
        if any, made under the same ``env``, ``literal`` and ``rate``: it
        is brought up to date by those cells, and its rates are kept if
        the frame totals are the same. Otherwise the order is made
        afresh. If ``loop`` is given too, ``content`` holds the compartment
        an event rewrote in the cell that replaced ``loop``, and the plan
        reads that cell as it read ``loop`` (see :func:`dependents`): the
        cell takes ``loop``'s :class:`_Cell` and rates. If a rate raises,
        the rates are evaluated again in the order of the general path,
        which raises its first error."""
        have = component_counts(content)
        if not _contains(have, self.need):
            kept.pop(self, None)
            return []
        if self.membrane is None:
            types, less = type_counts(content, env), self.typed(env).need
            counts: dict[str, int] = {}
            for _, entries in self.decls:
                counts.update(read_counts(entries, types, less))
            found = rate(counts)
            return [(None, found)] if found > 0 else []
        base = kept.get(self) if change is not None else None
        try:
            order = self._order(base, content, have, env, literal, rate,
                                change, loop)
        except RateEvalError:
            totals = self._totals(content, env)
            for cell in self._in_general_order(have):
                entry = self._cell(cell, env, literal)
                if entry:
                    rate(_counts(entry, totals))
            raise
        if order is None:
            kept.pop(self, None)
            return []
        kept[self] = order
        return order.entries

    def _totals(self, content: Term, env: TypeEnv) -> tuple:
        """Per count block, the counts of the frame, the compartment less
        ``need``, if the block counts the frame, else None."""
        types, less = type_counts(content, env), self.typed(env).need
        return tuple([read_counts(entries, types, less) if what is FRAME
                      else None for what, entries in self.decls])

    def typed(self, env: TypeEnv) -> Typed:
        """The plan's type histograms under ``env``, kept for the last
        environment asked."""
        typed = self._typed
        if typed[0] is not env:
            need = counter_types(self.need, env)
            inner_need, inner_change = _NO_TYPES, _NO_TYPES
            if self.inner_need is not None:
                inner_need = counter_types(self.inner_need, env)
                inner_change = _shifted(counter_types(self.inner_give, env),
                                        less=inner_need)
            typed = self._typed = (env, Typed(
                need, inner_need,
                _shifted(counter_types(self.give, env), less=need),
                inner_change))
        return typed[1]

    def _order(self, base: Optional[Order], content: Term, have: Mapping,
               env: TypeEnv, literal: bool,
               rate: Callable[[dict[str, int]], float],
               change: Optional[Change],
               loop: Optional[Loop] = None) -> Optional[Order]:
        """The order of ``content``, a canonical compartment of component
        counter ``have``, made from ``base``, the order of the compartment
        it replaced, and ``change``, the cells it lost and gained against
        that one: the candidates of the cells lost are dropped, and those
        of the cells gained are placed by bisection. Only the added
        candidates are rated if the frame totals are the same. Without a
        base, every cell's candidates are sorted. None if ``content``
        holds no cell.

        With ``loop``, the one cell gained, if any, replaced ``loop`` and
        takes its :class:`_Cell`, and the frame is the base's: an event
        inside a cell leaves the types of the compartment around it as
        they were. If that cell is the compartment's only one, the base's
        candidates and rates are kept in place for it."""
        if base is None:
            if not isinstance(next(reversed(have), None), Loop):
                return None  # loops sort last
            base = _NO_ORDER
            change = ((), [comp for comp in have if isinstance(comp, Loop)])
        cells, cands, rates = base.cells, base.cands, base.rates
        gone, came = change
        if loop is None:
            if not came and len(gone) == len(cells):
                return None
            totals = self._totals(content, env)
        else:
            was, totals = cells[loop], base.totals
            if gone and came and len(cells) == 1:
                entry = was and was.carried(came[0])
                return Order({came[0]: entry}, [
                    (entry, membrane) for _, membrane in cands], rates, totals)
        if base.totals != totals:
            rates = None
        elif not gone and not came:
            return base
        cells, cands = dict(cells), cands.copy()
        if rates is not None:
            rates = rates.copy()
        if gone:
            dead = [cells.pop(cell) for cell in gone]
            for j in reversed([j for j, cand in enumerate(cands)
                               if cand[0] in dead]):
                del cands[j]
                if rates is not None:
                    del rates[j]
        new = []
        for cell in came:
            if loop is None:
                entry = self._cell(cell, env, literal)
            else:
                entry = was and was.carried(cell)
            cells[cell] = entry
            if entry:
                new += [(entry, membrane) for membrane in entry.membranes]
        if cands:
            for cand in new:
                j = bisect_right(cands, _TARGET_ORDER(cand),
                                 key=_TARGET_ORDER)
                cands.insert(j, cand)
                if rates is not None:
                    rates.insert(j, rate(_counts(cand[0], totals)))
        else:
            cands = sorted(new, key=_TARGET_ORDER)
            rates = None
        if rates is None:
            rates = [rate(_counts(cand[0], totals)) for cand in cands]
        return Order(cells, cands, rates, totals)

    def _in_general_order(self, have: Mapping) -> list[Loop]:
        """The cells of a compartment in the order the general path counts
        them."""
        cells = [comp for comp in have if isinstance(comp, Loop)]
        if self.frame_first:
            cells.reverse()
        cells.sort(key=attrgetter("membrane"))
        return cells

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
                                          self.typed(env).inner_need))
            elif what is MEMBRANE:
                counts.update(read_counts(entries, seq_types(
                    cell.membrane, env, literal)))
            else:
                shares.append((i, read_counts(entries, seq_types(
                    cell.membrane, env, False))))
        membranes = self._membranes(cell.membrane)
        same = None
        if self._same_inner and cell.membrane in membranes:
            same = membranes[membranes.index(cell.membrane)]
        return _Cell(self, cell, counts, tuple(shares), membranes, same)

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

    def build(self, state: Term, path: Path, content: Term,
              key: Optional[tuple], trail: Optional[list] = None) -> Term:
        """The successor of ``state`` for the outcome ``key`` of
        :meth:`entries` in ``content``, the compartment at ``path``.

        Each compartment the build makes gets its component multiset and
        type histogram from the one it replaces, changed by the outcome.
        If ``trail`` is a list, ``(role, new, old, change, None)`` is
        appended to it for each, as :func:`~tscls.matching.splice` does
        for the enclosing ones: the ``DRAWN`` one for ``content``, with the
        cells it lost and gained, and, for a loop rule that changed the
        cell's content, the ``INSIDE`` one for that content, with no cell
        changed."""
        counter, came = _rebuilt(component_counts(content), self.need,
                                 self.give)
        typed = content._types
        if typed is not None:
            typed = (typed[0], _shifted(typed[1],
                                        self.typed(typed[0]).change))
        change: Change = ((), ())
        inner = None
        if key is not None:
            entry, membrane = key
            cell, new = entry.cell, entry.successor(membrane)
            change = replace_copy(counter, cell, new)
            came += change[1]
            if typed is not None and membrane != cell.membrane:
                env = typed[0]
                typed = (env, _shifted(
                    typed[1], seq_types(membrane, env, False),
                    seq_types(cell.membrane, env, False)))
            if new.content is not cell.content:
                inner = (INSIDE, new.content, cell.content, ((), ()), None)
                was = cell.content._types
                if new.content._types is None and was is not None:
                    new.content._types = (was[0], _shifted(
                        was[1], self.typed(was[0]).inner_change))
        out = counted(placed(counter, came))
        out._types = typed
        if trail is not None:
            trail.append((DRAWN, out, content, change, None))
            if inner is not None:
                trail.append(inner)
        return splice(state, path, out, trail)


class _Cell:
    """What a loop rule derives from one cell component: the counts that
    depend on the cell alone; per frame count block, its index and the
    cell membrane's share of the frame; the rhs membranes it can take,
    and the one that leaves it as it is, if any; and, as they are asked
    for, the loops it becomes."""

    __slots__ = ("plan", "cell", "counts", "shares", "membranes", "same",
                 "_inner", "_successors")

    def __init__(self, plan: Plan, cell: Loop, counts: dict[str, int],
                 shares: tuple[tuple[int, dict[str, int]], ...],
                 membranes: tuple[tuple[str, ...], ...],
                 same: Optional[tuple[str, ...]]):
        self.plan = plan
        self.cell = cell
        self.counts = counts
        self.shares = shares
        self.membranes = membranes
        self.same = same
        self._inner: Optional[Term] = None
        self._successors: dict[tuple[str, ...], Loop] = {}

    def carried(self, cell: Loop) -> "_Cell":
        """The :class:`_Cell` of ``cell``, which the rule reads as it reads
        this one's cell: the same counts, shares and membranes."""
        return _Cell(self.plan, cell, self.counts, self.shares,
                     self.membranes, self.same)

    def successor(self, membrane: tuple[str, ...]) -> Loop:
        """The loop that replaces the cell when it takes ``membrane``. Its
        content is the cell's if the rule leaves that as it is."""
        out = self._successors.get(membrane)
        if out is None:
            if self._inner is None:
                plan, content = self.plan, self.cell.content
                self._inner = content if plan._same_inner else counted(
                    placed(*_rebuilt(component_counts(content),
                                     plan.inner_need, plan.inner_give)))
            out = self._successors[membrane] = Loop(membrane, self._inner)
        return out


class Order:
    """A loop rule's outcomes in one compartment: ``cells`` maps each
    distinct cell to its :class:`_Cell`, or False if the rule cannot
    rewrite it; ``cands`` holds the candidates in target order, and
    ``rates`` their rates under the frame totals ``totals``; ``entries``
    are the outcomes :meth:`Plan.entries` gives. Never changed once made.
    """

    __slots__ = ("cells", "cands", "rates", "totals", "entries")

    def __init__(self, cells: dict, cands: list[Candidate],
                 rates: list[float], totals: Optional[tuple]):
        self.cells = cells
        self.cands = cands
        self.rates = rates
        self.totals = totals
        # the candidates of positive rate; those that keep their loop
        # form one block of equal targets, which gives one outcome per
        # distinct rate, in rate order
        out: list[Entry] = []
        same: dict[float, tuple] = {}
        at = 0
        for cand, rate in zip(cands, rates):
            if rate <= 0:
                continue
            if cand[1] is cand[0].same:
                at = len(out)
                same.setdefault(rate, cand)
            else:
                out.append((cand, rate))
        if same:
            out[at:at] = [(key, rate) for rate, key in sorted(same.items())]
        self.entries = out


_NO_ORDER = Order({}, [], [], None)


def _counts(entry: _Cell, totals: tuple) -> dict[str, int]:
    """The counts of the entry's cell in a compartment of frame totals
    ``totals``: the frame is the totals less the cell membrane's share."""
    counts = entry.counts
    if entry.shares:
        counts = dict(counts)
        for i, share in entry.shares:
            total = totals[i]
            for name, n in share.items():
                counts[name] = total[name] - n
    return counts


def _by_target(a: Candidate, b: Candidate) -> int:
    """Compare two candidates of one loop rule in one compartment by
    their targets' keys: -1, 0 or 1. Only candidates that keep their loop
    have equal targets.

    Both targets are the content less the cell plus the new loop, spliced
    at one path, so a's has more of a's new loop and b's cell, and b's
    has more of a's cell and b's new loop, less what cancels. Two
    canonical terms with the same number of components first differ at
    the least component they hold in different numbers, and the term with
    more of it sorts first. At a nested path that holds for the changed
    compartment and, in turn, for each enclosing one, whose loops compare
    by their contents."""
    a_cell, a_new = a[0].cell.key, a[0].successor(a[1]).key
    b_cell, b_new = b[0].cell.key, b[0].successor(b[1]).key
    more_a, more_b = [a_new, b_cell], [a_cell, b_new]
    for key in (a_new, b_cell):
        if key in more_b:
            more_a.remove(key)
            more_b.remove(key)
    if not more_a:
        return 0
    return -1 if min(more_a) < min(more_b) else 1


_TARGET_ORDER = cmp_to_key(_by_target)


def _shifted(types: Types, more: Types = _NO_TYPES,
             less: Types = _NO_TYPES) -> dict:
    """``types + more - less``, type histograms whose counts may be
    negative, without zero counts."""
    out = dict(types)
    for sign, part in ((1, more), (-1, less)):
        for tn, n in part.items():
            n = out.get(tn, 0) + sign * n
            if n:
                out[tn] = n
            else:
                del out[tn]
    return out


def _contains(have: Mapping, need: Counter) -> bool:
    for comp, n in need.items():
        if have.get(comp, 0) < n:
            return False
    return True


def _rebuilt(have: Mapping, need: Counter, give: Counter
             ) -> tuple[dict, tuple[Seq, ...]]:
    """``have - need + give``, for ``need`` contained in ``have``, without
    zero counts, and the components it holds that ``have`` did not. Those
    go last; the others keep their order."""
    counter = dict(have)
    came = []
    for comp, n in give.items():
        if comp in counter:
            counter[comp] += n
        else:
            counter[comp] = n
            came.append(comp)
    for comp, n in need.items():
        n = counter[comp] - n
        if n:
            counter[comp] = n
        else:
            del counter[comp]
    return counter, tuple(came)


def dependents(plans: Sequence[Optional[Plan]], r: int, env: TypeEnv
               ) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """The indexes of the plans whose outcomes an outcome of ``plans[r]``
    can change, in the compartment it rewrites and in the content of the
    cell it rewrites; and of the loop plans whose reading of a cell an
    outcome of ``plans[r]`` inside that cell can change. None in
    ``plans`` stands for a rule without a plan.

    A plan's outcomes in a compartment depend on whether it holds
    ``need``, on the counts of the types its frame count blocks count
    and, for a loop plan, on the compartment's cells. A loop plan reads
    of a cell whether its content holds ``inner_need``, the counts of the
    types its INNER count blocks count, and the membrane, which an event
    inside the cell leaves as it is. An outcome changes the number of the
    components whose count ``give`` and ``need`` differ in, and of the
    types of its histogram change. A loop plan's outcome changes a cell
    too, and, if its rhs membrane is more than its ``~x``, the types of
    the cell's membrane, so it can change all a plan reads of the
    compartment."""
    plan, typed = plans[r], plans[r].typed(env)
    loops = frozenset(q for q, other in enumerate(plans)
                      if other is not None and other.membrane is not None)

    def hit(need: Counter, give: Counter, change: Types, what: str = FRAME
            ) -> frozenset[int]:
        """The plans that read a moved component or a changed type of a
        compartment: as their frame, or, if ``what`` is INNER, as the
        content of a cell."""
        moved = {comp for comp in need.keys() | give.keys()
                 if need.get(comp, 0) != give.get(comp, 0)}
        return frozenset(
            q for q, other in enumerate(plans) if other is not None
            and (not moved.isdisjoint(
                (other.need if what is FRAME else other.inner_need) or ())
                 or any(tn in change for kind, entries in other.decls
                        if kind is what for tn, _ in entries)))

    if plan.membrane is None:
        return (hit(plan.need, plan.give, typed.change), frozenset(),
                hit(plan.need, plan.give, typed.change, INNER))
    if plan.membrane == (None,):
        outer = hit(plan.need, plan.give, typed.change) | loops
        around = hit(plan.need, plan.give, typed.change, INNER)
    else:
        outer = frozenset(q for q, other in enumerate(plans)
                          if other is not None)
        around = loops
    return (outer, hit(plan.inner_need, plan.inner_give, typed.inner_change),
            around)


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
    tvars, found = {}, {}
    for item, n in zip(p.items, p.counts):
        if isinstance(item, PTermVar):
            tvars[item.name] = n
        elif isinstance(item, PSeq) and all(isinstance(a, ElemLit)
                                            for a in item.atoms):
            if item.atoms:  # an empty sequence consumes and gives nothing
                ground[Seq(a.name for a in item.atoms)] += n
        elif isinstance(item, PLoop) and loops:
            found[item] = n
        else:
            return None
    if list(tvars.values()) != [1] or sum(found.values()) > 1:
        return None
    return ground, next(iter(tvars)), next(iter(found), None)
