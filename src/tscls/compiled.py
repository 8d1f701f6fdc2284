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
without building one: each has a target key (see :func:`_target_key`)
made from the cell it rewrites and the loop it becomes alone, so that
order is kept from one compartment to the compartment that replaces it,
with the keys beside it: the outcomes of cells that left are found and
dropped by bisection on their keys, and those of cells that came are
placed by bisection.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import compress, repeat
from operator import attrgetter, gt, itemgetter
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

# a compartment's outcomes of one rule: their keys and their rates; a key
# is what :meth:`Plan.build` needs beside the state, the path and the
# content
Entries = tuple[tuple[object, ...], tuple[float, ...]]

# a rule's outcomes in a compartment, as a compartment's record keeps
# them: their keys, their rates, and for a loop rule its Order, else None
Outcome = tuple[tuple[object, ...], tuple[float, ...], Optional["Order"]]

# a loop rule's outcome before it is rated, and its key: the _Cell of the
# loop it rewrites and the rhs membrane it gives it
Candidate = tuple["_Cell", tuple[str, ...]]

# a rule's rate as a function of its counts, kept in its ``table`` under
# the key given, or under the counts' names and values in their order
Rate = Callable[..., float]


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
    the type histogram of ``need`` or ``inner_need``, which the
    environment keeps per plan. ``net`` maps each element to the change
    an outcome makes in its bare occurrences, over the compartment and
    the cell it rewrites. A plan is never changed once made, so the
    rules parsed from one text share it (see
    :class:`~tscls.semantics.RewriteRule`).
    """

    __slots__ = ("need", "give", "decls", "inner_need", "inner_give",
                 "membrane", "frame_first", "net", "_same_inner",
                 "_inner_moves")

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
        # whether the rule leaves a loop's content as it is, and the key
        # and the change in count of each component it changes there
        self._same_inner = inner_need == inner_give
        moves: dict = {}
        for part, sign in ((inner_need, -1), (inner_give, 1)):
            for comp, n in (part or {}).items():
                moves[comp] = moves.get(comp, 0) + sign * n
        self._inner_moves = tuple((comp.key, n) for comp, n in moves.items()
                                  if n)

    def entries(self, prev: Optional[Outcome], content: Term, env: TypeEnv,
                literal: bool, rate: Rate,
                change: Optional[Change] = None,
                loop: Optional[Loop] = None) -> Optional[Outcome]:
        """The rule's outcomes in ``content``, a compartment, or None if it
        has none and, for a loop rule, no order: the keys and the rates of
        its distinct outcomes of positive rate, merged and ordered as
        their targets and rates would be, so ``build(state, path, content,
        key)`` makes an outcome's successor, and for a loop rule its
        :class:`Order`. ``rate`` rates an outcome's counts; ``literal``
        types a length-1 ``~x`` by its basic type. The key of a loop
        rule's outcome is ``(entry, membrane)``: the :class:`_Cell` of the
        loop it rewrites and the membrane it gives it; the other rule's
        key is None.

        ``prev`` is None unless ``change`` gives the cells ``content``
        lost and gained against the compartment it replaced: it is then
        the rule's outcomes there, if any, made under the same ``env``,
        ``literal`` and ``rate``. A loop rule's order is brought up to
        date by those cells, and its rates are kept if the frame totals
        are the same; without ``prev``, the order is made afresh. If
        ``loop`` is given too, ``content`` holds the compartment an event
        rewrote in the cell that replaced ``loop``, and the plan reads
        that cell as it read ``loop`` (see :func:`dependents`): the cell
        takes ``loop``'s :class:`_Cell` and rates. If a rate raises, the
        rates are evaluated again in the order of the general path,
        which raises its first error."""
        have = component_counts(content)
        if not _contains(have, self.need):
            return None
        if self.membrane is None:
            types, less = type_counts(content, env), self.typed(env).need
            counts: dict[str, int] = {}
            for _, entries in self.decls:
                counts.update(read_counts(entries, types, less))
            found = rate(counts)
            return ((None,), (found,), None) if found > 0 else None
        try:
            order = self._order(prev and prev[2], content, have, env, literal,
                                rate, change, loop)
        except RateEvalError:
            totals = self._totals(content, env)
            for cell in self._in_general_order(have):
                entry = self._cell(cell, env, literal)
                if entry:
                    rate(_counts(entry, totals))
            raise
        if order is None:
            return None
        keys, rates = order.entries
        return keys, rates, order

    def _totals(self, content: Term, env: TypeEnv) -> tuple:
        """Per count block, the counts of the frame, the compartment less
        ``need``, if the block counts the frame, else None."""
        types, less = type_counts(content, env), self.typed(env).need
        return tuple([read_counts(entries, types, less) if what is FRAME
                      else None for what, entries in self.decls])

    def typed(self, env: TypeEnv) -> Typed:
        """The plan's type histograms under ``env``, made once and kept in
        the environment's table (see :class:`~tscls.terms.TypeEnv`)."""
        typed = env._kept.get(self)
        if typed is None:
            need = counter_types(self.need, env)
            inner_need, inner_change = _NO_TYPES, _NO_TYPES
            if self.inner_need is not None:
                inner_need = counter_types(self.inner_need, env)
                inner_change = _shifted(counter_types(self.inner_give, env),
                                        less=inner_need)
            typed = env._kept[self] = Typed(
                need, inner_need,
                _shifted(counter_types(self.give, env), less=need),
                inner_change)
        return typed

    def _order(self, base: Optional[Order], content: Term, have: Mapping,
               env: TypeEnv, literal: bool, rate: Rate,
               change: Optional[Change],
               loop: Optional[Loop] = None) -> Optional[Order]:
        """The order of ``content``, a canonical compartment of component
        counter ``have``, made from ``base``, the order of the compartment
        it replaced, and ``change``, the cells it lost and gained against
        that one: the candidates of the cells lost are found by bisection
        on their target keys and dropped, and those of the cells gained
        are placed by bisection on theirs, which are made for them alone.
        Only the added candidates are rated if the frame totals are the
        same; otherwise all are (see :func:`_rate_all`). Without a base,
        every cell's candidates are sorted by their target keys, and one
        cell's by their membranes, which needs no key. None if ``content``
        holds no cell.

        With ``loop``, the one cell gained, if any, replaced ``loop`` and
        takes its :class:`_Cell`, and the frame is the base's: an event
        inside a cell leaves the types of the compartment around it as
        they were. If that cell is the compartment's only one, the base's
        candidates and rates are kept in place for it, and their keys,
        made from the cell replaced, are not: the candidates of one cell
        all put the same content in a loop, so they are in the order of
        their membranes, whatever the cell holds. Its keys are made when
        another cell comes."""
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
                outs, rated = base.entries
                return Order({came[0]: entry}, [
                    (entry, membrane) for _, membrane in cands], None,
                    rates, totals, (tuple([(entry, membrane)
                                           for _, membrane in outs]), rated))
        if base.totals != totals:
            rates = None
        elif not gone and not came:
            return base
        if len(gone) == len(cells):
            cells, cands, keys = {}, [], []
        else:
            cells, cands, keys = dict(cells), cands.copy(), base.keys
            # without keys, the candidates are one cell's, in key order
            keys = keys.copy() if keys is not None else sorted(
                cands[0][0].keys()) if cands else []
            if rates is not None:
                rates = rates.copy()
            for cell in gone:
                entry = cells.pop(cell)
                for key in entry.keys() if entry else ():
                    j = bisect_left(keys, key)
                    if key is _SAME:  # the one key several candidates share
                        j += list(map(itemgetter(0), cands[
                            j:bisect_right(keys, key, j)])).index(entry)
                    del cands[j], keys[j]
                    if rates is not None:
                        del rates[j]
        # a cell that came alone replaced the cell that went
        before = base.cells[gone[0]] if len(gone) == len(came) == 1 else None
        entries = []
        for cell in came:
            if loop is None:
                entry = self._cell(cell, env, literal, before)
            else:
                entry = was and was.carried(cell)
            cells[cell] = entry
            if entry:
                entries.append(entry)
        new = [(entry, membrane) for entry in entries
               for membrane in entry.membranes]
        if cands:
            added = None if rates is None else _rate_all(new, totals, rate)
            made = [key for entry in entries for key in entry.keys()]
            for i, (cand, key) in enumerate(zip(new, made)):
                j = bisect_right(keys, key)
                cands.insert(j, cand)
                keys.insert(j, key)
                if added is not None:
                    rates.insert(j, added[i])
        elif len(entries) == 1:
            # one cell's candidates all put one content in a loop, so
            # they are in the order of the loops' membranes
            cands, keys, rates = sorted(new, key=_membrane_order), None, None
        else:
            made = [key for entry in entries for key in entry.keys()]
            at = sorted(range(len(new)), key=made.__getitem__)
            cands, keys = [new[j] for j in at], [made[j] for j in at]
            rates = None
        if rates is None:
            rates = _rate_all(cands, totals, rate)
        return Order(cells, cands, keys, rates, totals)

    def _in_general_order(self, have: Mapping) -> list[Loop]:
        """The cells of a compartment in the order the general path counts
        them."""
        cells = [comp for comp in have if isinstance(comp, Loop)]
        if self.frame_first:
            cells.reverse()
        cells.sort(key=attrgetter("membrane"))
        return cells

    def _cell(self, cell: Loop, env: TypeEnv, literal: bool,
              before: Optional[_Cell] = None):
        """The cell's :class:`_Cell`, or False if the rule cannot rewrite
        it. If ``before``, the :class:`_Cell` of the cell this one
        replaced, has the same membrane, all it read of the membrane is
        kept."""
        inner = component_counts(cell.content)
        if not _contains(inner, self.inner_need):
            return False
        keep = before and before.cell.membrane == cell.membrane
        counts: dict[str, int] = dict(before.counts) if keep else {}
        shares = []
        for i, (what, entries) in enumerate(self.decls):
            if what is INNER:
                counts.update(read_counts(entries,
                                          type_counts(cell.content, env),
                                          self.typed(env).inner_need))
            elif keep:
                continue
            elif what is MEMBRANE:
                counts.update(read_counts(entries, seq_types(
                    cell.membrane, env, literal)))
            else:
                shares.append((i, read_counts(entries, seq_types(
                    cell.membrane, env, False))))
        if keep:
            return _Cell(self, cell, counts, before.shares, before.membranes,
                         before.same, tuple(counts.values())
                         + before.values[len(counts):])
        membranes = self._membranes(cell.membrane)
        same = None
        if self._same_inner and cell.membrane in membranes:
            same = membranes[membranes.index(cell.membrane)]
        return _Cell(self, cell, counts, tuple(shares), membranes, same,
                     tuple(counts.values()) + tuple(
                         [n for _, share in shares for n in share.values()]))

    def _membranes(self, mem: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
        """The distinct least rotations of the rhs membrane over the
        rotations of ``mem``."""
        if self.membrane == (None,):
            return (mem,)  # mem is a least rotation already
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
        return tuple(found)

    def build(self, state: Term, path: Path, content: Term,
              key: Optional[tuple], trail: Optional[list] = None) -> Term:
        """The successor of ``state`` for the outcome ``key`` of
        :meth:`entries` in ``content``, the compartment at ``path``.

        Each compartment the build makes gets its component multiset and
        type histogram from the one it replaces, changed by the outcome.
        If ``trail`` is a list, ``(role, new, old, change, swap)`` is
        appended to it for each, as :func:`~tscls.matching.splice` does
        for the enclosing ones: the ``DRAWN`` one for ``content``, with the
        cells it lost and gained and, for a loop rule, the cell and the
        loop that replaced one copy of it, and, for a loop rule that
        changed the cell's content, the ``INSIDE`` one for that content,
        with no cell changed and ``swap`` None."""
        counter, came = _rebuilt(component_counts(content), self.need,
                                 self.give)
        typed = content._types
        if typed is not None:
            typed = (typed[0], _shifted(typed[1],
                                        self.typed(typed[0]).change))
        change: Change = ((), ())
        inner = swap = None
        if key is not None:
            entry, membrane = key
            cell, new = entry.cell, entry.successor(membrane)
            change, swap = replace_copy(counter, cell, new), (cell, new)
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
            trail.append((DRAWN, out, content, change, swap))
            if inner is not None:
                trail.append(inner)
        return splice(state, path, out, trail)


class _Cell:
    """What a loop rule derives from one cell component: the counts that
    depend on the cell alone; per frame count block, its index and the
    cell membrane's share of the frame; the rhs membranes it can take,
    and the one that leaves it as it is, if any; the values of its counts
    and shares, which with the frame totals give a candidate's counts;
    and, once asked for, the target keys of its candidates."""

    __slots__ = ("plan", "cell", "counts", "shares", "membranes", "same",
                 "values", "_keys")

    def __init__(self, plan: Plan, cell: Loop, counts: dict[str, int],
                 shares: tuple[tuple[int, dict[str, int]], ...],
                 membranes: tuple[tuple[str, ...], ...],
                 same: Optional[tuple[str, ...]], values: tuple[int, ...]):
        self.plan = plan
        self.cell = cell
        self.counts = counts
        self.shares = shares
        self.membranes = membranes
        self.same = same
        self.values = values
        self._keys: Optional[tuple[tuple, ...]] = None

    def carried(self, cell: Loop) -> "_Cell":
        """The :class:`_Cell` of ``cell``, which the rule reads as it reads
        this one's cell: the same counts, shares and membranes."""
        return _Cell(self.plan, cell, self.counts, self.shares,
                     self.membranes, self.same, self.values)

    def successor(self, membrane: tuple[str, ...]) -> Loop:
        """The loop that replaces the cell when it takes ``membrane``. Its
        content is the cell's if the rule leaves that as it is."""
        plan, content = self.plan, self.cell.content
        if not plan._same_inner:
            content = counted(placed(*_rebuilt(
                component_counts(content), plan.inner_need, plan.inner_give)))
        return Loop(membrane, content)

    def successor_key(self, membrane: tuple[str, ...]) -> tuple:
        """The key of :meth:`successor`, made from the cell's content
        key without making the loop."""
        return (1, (len(membrane), membrane), _rebuilt_key(
            self.cell.content.key, self.plan._inner_moves))

    def keys(self) -> tuple[tuple, ...]:
        """The target keys of the cell's candidates, one per membrane in
        ``membranes``, made once (see :func:`_target_key`)."""
        keys = self._keys
        if keys is None:
            keys = self._keys = tuple([_target_key(self, membrane)
                                       for membrane in self.membranes])
        return keys


class _Reversed(tuple):
    """A tuple that sorts after the tuples that sort before it as tuples:
    the tuple order, reversed. Its comparisons are the tuple's own, in C,
    swapped."""

    __slots__ = ()
    __lt__, __gt__ = tuple.__gt__, tuple.__lt__
    __le__, __ge__ = tuple.__ge__, tuple.__le__


# the target key of every candidate that leaves its cell as it is
_SAME = (1,)


def _target_key(entry: _Cell, membrane: tuple[str, ...]) -> tuple:
    """The key of the target of the candidate ``(entry, membrane)``, by
    which the candidates of one loop rule in one compartment sort as
    their targets do: with ``x`` the key of the loop the cell becomes and
    ``y`` the cell's, ``(0, x, R(y))`` if ``x < y``, :data:`_SAME` if they
    are equal, else ``(2, R(y), x)``, where ``R`` reverses the order.

    Both targets of two candidates are the compartment less the cell
    plus the new loop, so the first has more of its new loop and of the
    second's cell, and the second more of its own new loop and of the
    first's cell, less what cancels. Two canonical terms with the same
    number of components first differ at the least component they hold
    in different numbers, and the term with more of it sorts first. So a
    target that adds a loop less than the cell it removes sorts before
    the compartment as it was, the earlier the less that loop is and,
    for the same loop, the greater the cell it removes; one that adds a
    greater loop sorts after it, the earlier the greater the cell it
    removes and, for the same cell, the less the loop. At a nested path
    that holds for the changed compartment and, in turn, for each
    enclosing one, whose loops compare by their contents. Only
    candidates that keep their loop have equal targets."""
    x, y = entry.successor_key(membrane), entry.cell.key
    if x < y:
        return (0, x, _Reversed(y))
    if x == y:
        return _SAME
    return (2, _Reversed(y), x)


class Order:
    """A loop rule's outcomes in one compartment: ``cells`` maps each
    distinct cell to its :class:`_Cell`, or False if the rule cannot
    rewrite it; ``cands`` holds the candidates in target order, ``keys``
    their target keys, or None if the candidates are one cell's and their
    keys are not made, and ``rates`` their rates under the frame totals
    ``totals``; ``entries`` are the outcomes :meth:`Plan.entries` gives,
    made from the others unless given. Never changed once made.
    """

    __slots__ = ("cells", "cands", "keys", "rates", "totals", "entries")

    def __init__(self, cells: dict, cands: list[Candidate],
                 keys: Optional[list[tuple]], rates: list[float],
                 totals: Optional[tuple], entries: Optional[Entries] = None):
        self.cells = cells
        self.cands = cands
        self.keys = keys
        self.rates = rates
        self.totals = totals
        if entries is not None:
            self.entries = entries
            return
        # the candidates of positive rate; those that keep their loop
        # form one block of equal targets, which gives one outcome per
        # distinct rate, in rate order
        if keys is None:  # one cell's: at most one keeps its loop
            same = [j for j, (entry, membrane) in enumerate(cands)
                    if membrane is entry.same]
            lo, hi = (same[0], same[0] + 1) if same else (0, 0)
        else:
            lo = hi = bisect_left(keys, _SAME)
            if lo < len(keys) and keys[lo] is _SAME:
                hi = bisect_right(keys, _SAME, lo)
        positive = list(map(gt, rates, repeat(0)))
        if lo == hi:
            self.entries = (tuple(compress(cands, positive)),
                            tuple(compress(rates, positive)))
            return
        out, rated = list(compress(cands, positive)), list(
            compress(rates, positive))
        at = sum(positive[:lo])
        to = at + sum(positive[lo:hi])
        same = {}
        for cand, rate in zip(out[at:to], rated[at:to]):
            same.setdefault(rate, cand)
        merged = sorted(same.items())
        out[at:to] = map(itemgetter(1), merged)
        rated[at:to] = map(itemgetter(0), merged)
        self.entries = (tuple(out), tuple(rated))


_NO_ORDER = Order({}, [], [], [], None)


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


def _membrane_order(cand: Candidate) -> tuple:
    """The order of one cell's candidates: the shortlex order of the
    membranes they give it."""
    return (len(cand[1]), cand[1])


def _rate_all(cands: list[Candidate], totals: tuple, rate: Rate
              ) -> list[float]:
    """The rates of the candidates in a compartment of frame totals
    ``totals``, in order. Each is looked up in ``rate.table`` by its
    :class:`_Cell`'s count values and the totals' values; one not there
    gets its counts made and is rated."""
    frame = tuple([n for total in totals if total is not None
                   for n in total.values()])
    table = rate.table
    found = []
    for entry, _ in cands:
        key = entry.values + frame
        value = table.get(key)
        found.append(value if value is not None
                     else rate(_counts(entry, totals), key))
    return found


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


def _rebuilt_key(key: tuple, moves: tuple[tuple[tuple, int], ...]
                 ) -> tuple:
    """The key of the canonical term of key ``key`` with the count of each
    component of key ``comp`` changed by ``more``, for each ``(comp,
    more)`` in ``moves``, none below 0: its pairs, one per distinct
    component in order, with the counts changed."""
    if not moves:
        return key
    _, n, pairs = key
    pairs = list(pairs)
    for comp, more in moves:
        n += more
        at = bisect_left(pairs, (comp,))
        if at < len(pairs) and pairs[at][0] == comp:
            more -= pairs[at][1]
            if more:
                pairs[at] = (comp, -more)
            else:
                del pairs[at]
        else:
            pairs.insert(at, (comp, -more))
    return (2, n, tuple(pairs))


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
