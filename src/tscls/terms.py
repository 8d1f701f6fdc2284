"""Term algebra: element sequences, looping sequences and parallel multisets.

A term is a multiset of components; a component is either a flat element
sequence or a loop (a circular membrane sequence wrapping an inner term).
Parallel composition is associative and commutative and ``n * t`` is n
copies of ``t``, so a term is stored as its component multiset alone: one
count per distinct component. Listing the copies is only one way to read
it (:attr:`Term.components`), and nothing on the path of a step does.

Structural congruence -- commutativity of parallel composition, neutrality
of the empty term, rotation of loop membranes -- is decided by reduction
to a canonical form: empty sequences are erased, membranes are stored in
their least rotation, and the distinct components are kept in a total
order (Seq before Loop, then shortlex on element-name lists, loops further
by membrane then content). A term's key has one ``(component key,
-count)`` pair per distinct component (see :attr:`Term.key`), so reading
or comparing a term costs its distinct components, not its copies.

All values are immutable; each node caches its sort key and hash
(a term on first use, sequences and loops at construction) so
canonicalization and multiset operations stay cheap on large states. A
term also caches its type histogram and, as a compartment, the compiled
outcomes of a run's rules in it; a successor shares every compartment an
event left alone, and with it these caches. The compartments an event
rebuilds (``compiled.Plan.build``, ``matching.splice``) get their
multiset and histogram from their predecessors', so they are counted
afresh only when no predecessor had them.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter, itemgetter, neg
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Union

from .errors import WellFormednessError

_KEY = attrgetter("key")
_TABLE_UNIT = 1024


class Table(dict):
    """A table a process keeps to save work, holding no state of a model:
    it holds up to ``size`` times ``_TABLE_UNIT`` (1,024) entries, and
    storing one more clears it first. Only a store runs this class's
    code; a lookup is the dict's own."""

    __slots__ = ("size",)

    def __init__(self, size: int = 1):
        self.size = size

    def __setitem__(self, key, value) -> None:
        if len(self) >= self.size * _TABLE_UNIT:
            self.clear()
        return dict.__setitem__(self, key, value)


# the sequences made last, by their element names, so that equal
# sequences are mostly one object and a dict lookup matches them by
# identity, without a call of Seq.__eq__
_SEQS = Table(4)


class Seq:
    """A flat, non-rotating element sequence used as a parallel component.

    ``elems`` is a tuple of element names; the empty tuple is the neutral
    sequence and is erased by canonicalization. ``Seq(elems)`` gives the
    sequence already made with those names while ``_SEQS`` holds it.
    """

    __slots__ = ("elems", "key", "_hash")

    def __new__(cls, elems: Iterable[str] = ()) -> "Seq":
        elems = tuple(elems)
        seq = _SEQS.get(elems)
        if seq is None:
            seq = super().__new__(cls)
            seq.elems = elems
            # shortlex component order: kind tag, length, then names
            seq.key = (0, len(elems), elems)
            seq._hash = hash(seq.key)
            _SEQS[elems] = seq
        return seq

    def __getnewargs__(self) -> tuple[tuple[str, ...]]:
        # copy and pickle make the copy through Seq.__new__ and the table
        return (self.elems,)

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, Seq)
                                 and self.elems == other.elems)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Seq({'.'.join(self.elems) or 'eps'})"


class Loop:
    """A looping sequence: membrane (rotation-invariant) wrapping a term."""

    __slots__ = ("membrane", "content", "key", "_hash")

    def __init__(self, membrane: Iterable[str], content: "Term"):
        membrane = tuple(membrane)
        if not membrane and not content.is_empty():
            raise WellFormednessError(
                "loop with empty membrane and non-empty content")
        self.membrane = membrane
        self.content = content
        self.key = (1, (len(membrane), membrane), content.key)
        self._hash = hash(self.key)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (isinstance(other, Loop)
                and self.membrane == other.membrane
                and self.content == other.content)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Loop(<{'.'.join(self.membrane)}>{self.content!r})"


Component = Union[Seq, Loop]


class Term:
    """A parallel multiset of components: one count per distinct component.

    ``Term(components)`` counts its argument, an iterable of components
    or a mapping of components to positive counts, and does not
    normalize; use :func:`canonicalize` to obtain the congruence-class
    representative, or :func:`counted` to make a canonical term from its
    component multiset. ``components`` lists the copies, afresh on each
    read.

    The key is ``(2, n, pairs)``: the number of components and, per
    distinct component, ``(component key, -count)``. Equality and
    hashing compare keys, so two canonical terms compare equal exactly
    when they are congruent. On canonical terms, whose distinct
    components are in order, keys order as the tuples of every copy's
    key would: at the first pair two keys differ in, either the
    component keys differ, or the larger count sorts first, since its
    next copy is less than the next component in the other term. Raw
    terms order differently, but nothing orders raw terms: what is
    sorted is components, or canonical terms.
    """

    __slots__ = ("_counter", "_key", "_hash", "_canonical", "_types",
                 "_outcomes")

    def __init__(self, components: Iterable[Component] = ()):
        self._counter = Counter(components) if components else {}
        self._key = None
        self._hash = None
        self._canonical = False
        self._types = None  # (env, type histogram), see type_counts
        # what a run knows of the compartment, tied to its enumerator (see
        # semantics.Enumerator): its record of outcomes per rule, or the
        # hint the build that made it left until it is enumerated
        self._outcomes = None

    def __reduce__(self):
        # a copy or a pickle carries the multiset and the canonical flag,
        # never what a run cached on the term
        return (counted if self._canonical else Term), (self._counter,)

    @property
    def components(self) -> tuple[Component, ...]:
        listed: list[Component] = []
        for comp, n in self._counter.items():
            # one allocation per distinct component: a count of copies too
            # large to list fails at once with MemoryError, where a growing
            # tuple would take memory until none is left
            listed += [comp] * n
        return tuple(listed)

    @property
    def key(self) -> tuple:
        # built on first use: a successor state is often never compared
        key = self._key
        if key is None:
            counter = self._counter
            key = self._key = (2, sum(counter.values()), tuple(zip(
                map(_KEY, counter), map(neg, counter.values()))))
        return key

    def is_empty(self) -> bool:
        return not self._counter

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, Term)
                                 and self.key == other.key)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(self.key)
        return h

    def __iter__(self) -> Iterator[Component]:
        return iter(self.components)

    def __repr__(self) -> str:
        if self.is_empty():
            return "Term(eps)"
        return "Term(%s)" % " | ".join(
            f"{n} * {c!r}" if n > 1 else repr(c)
            for c, n in self._counter.items())


def counted(counter: dict) -> Term:
    """The canonical term of a component multiset: canonical components,
    keyed in canonical order, each with a positive count. The term keeps
    the dict as its multiset; callers must not mutate it afterwards."""
    t = Term()
    t._counter = counter
    t._canonical = True
    return t


EMPTY = Term()


def component_counts(t: Term) -> Mapping[Component, int]:
    """The term's component multiset; on a canonical term, keyed in
    canonical order. Callers must not mutate it."""
    return t._counter


def par(*terms: Term) -> Term:
    """Parallel composition: the sum of the arguments' multisets."""
    counts: Counter = Counter()
    for t in terms:
        counts.update(t._counter)
    return Term(counts)


def min_rotation(names: tuple[str, ...]) -> tuple[str, ...]:
    """Least rotation of a membrane under tuple comparison."""
    if len(names) < 2:
        return names
    # only rotations starting at a minimal element can win
    low = min(names)
    best = None
    for i, name in enumerate(names):
        if name == low:
            cand = names[i:] + names[:i]
            if best is None or cand < best:
                best = cand
    return names if best == names else best


def canonicalize(t: Term) -> Term:
    """Reduce to the canonical congruence-class representative.

    Count the components, erasing empty sequences and `<eps>[eps]` loops,
    rotate each membrane to its least rotation (canonicalizing contents
    recursively) and order the distinct components by the total order.
    Idempotent; shares unchanged sub-structure with the input. Terms
    known to be canonical are flagged, so repeated calls cost nothing.
    """
    if t._canonical:
        return t
    counts: dict[Component, int] = {}
    changed = False
    for comp, n in t._counter.items():
        if isinstance(comp, Seq):
            if not comp.elems:
                changed = True
                continue
        elif not comp.membrane:
            # constructor guarantees the content is empty here
            changed = True
            continue
        else:
            content = canonicalize(comp.content)
            mem = min_rotation(comp.membrane)
            if mem != comp.membrane or content is not comp.content:
                comp = Loop(mem, content)
                changed = True
        counts[comp] = counts.get(comp, 0) + n
    ordered = sorted(counts, key=_KEY)
    if not changed and ordered == list(counts):
        t._canonical = True
        return t
    return counted({comp: counts[comp] for comp in ordered})


def congruent(t1: Term, t2: Term) -> bool:
    """Structural congruence, decided on canonical forms."""
    return canonicalize(t1) == canonicalize(t2)


# ---------------------------------------------------------------------------
# typing


class TypeName(tuple):
    """A basic type `t` or the sequence-position tag `seq(t)`. A
    ``(base, is_seq)`` tuple, so the hashing and equality of every typed
    lookup run in C."""

    __slots__ = ()

    def __new__(cls, base: str, is_seq: bool = False) -> "TypeName":
        return tuple.__new__(cls, (base, is_seq))

    def __getnewargs__(self) -> tuple[str, bool]:
        return tuple(self)

    base = property(itemgetter(0))
    is_seq = property(itemgetter(1))

    def as_seq(self) -> "TypeName":
        return TypeName(self.base, True)

    def __str__(self) -> str:
        return f"seq({self.base})" if self.is_seq else self.base

    def __repr__(self) -> str:
        return f"TypeName(base={self.base!r}, is_seq={self.is_seq!r})"


class TypeEnv:
    """Typing environment: element name -> base type identifier.

    Elements without an explicit assignment default to ``t_<name>``. The
    assignment is treated as immutable; resolved type names are cached
    per element. What compiled plans derive under the environment is kept
    in its ``_kept`` :class:`Table`: per plan, its type histograms
    (:meth:`~tscls.compiled.Plan.typed`), and per tuple of plans, the
    rules to enumerate again after an event of each
    (:class:`~tscls.semantics.Enumerator`).
    """

    def __init__(self, assignment: Optional[Mapping[str, str]] = None):
        self.assignment = dict(assignment or {})
        self._basic: dict[str, TypeName] = {}
        self._seq: dict[str, TypeName] = {}
        self._kept = Table()

    def base(self, element: str) -> str:
        return self.assignment.get(element, "t_" + element)

    def basic(self, element: str) -> TypeName:
        tn = self._basic.get(element)
        if tn is None:
            tn = self._basic[element] = TypeName(self.base(element))
        return tn

    def seq(self, element: str) -> TypeName:
        tn = self._seq.get(element)
        if tn is None:
            tn = self._seq[element] = TypeName(self.base(element), True)
        return tn

    def __repr__(self) -> str:
        return f"TypeEnv({self.assignment!r})"


TypeMultiset = Counter  # Counter[TypeName] with positive counts


def stype_of(elems: Iterable[str], env: TypeEnv) -> TypeMultiset:
    """Sequence typing: one seq-tagged type occurrence per element."""
    return Counter(seq_types(tuple(elems), env, False))


def type_of(t: Term, env: TypeEnv) -> TypeMultiset:
    """Multiset of typed element occurrences at the outermost level.

    A length-1 sequence contributes the basic type of its element; longer
    sequences contribute seq-tagged types; a loop contributes the sequence
    typing of its membrane (its content is a separate compartment and does
    not show through).
    """
    return Counter(counter_types(component_counts(t), env))


# a type histogram: type -> positive count
Types = Mapping[TypeName, int]

_NO_TYPES: Types = MappingProxyType({})


def type_counts(t: Term, env: TypeEnv) -> Types:
    """:func:`type_of` of the term, cached on it for the last environment
    asked. Callers must not mutate it."""
    cached = t._types
    if cached is not None and cached[0] is env:
        return cached[1]
    types = counter_types(component_counts(t), env)
    t._types = (env, types)
    return types


def counter_types(counter: Mapping[Component, int], env: TypeEnv) -> Types:
    """The type histogram of a component multiset: each distinct component
    typed once, as :func:`type_of` types it, times its multiplicity."""
    out: dict[TypeName, int] = {}
    for comp, n in counter.items():
        if isinstance(comp, Seq):
            elems = comp.elems
            if len(elems) == 1:
                tn = env.basic(elems[0])
                out[tn] = out.get(tn, 0) + n
                continue
        else:
            elems = comp.membrane
        for name in elems:
            tn = env.seq(name)
            out[tn] = out.get(tn, 0) + n
    return out


def seq_types(elems: tuple[str, ...], env: TypeEnv, literal: bool) -> Types:
    """The type histogram of a sequence binding: seq-tagged types, as
    :func:`stype_of` gives them, except that ``literal`` typing counts a
    length-1 sequence by its basic type."""
    if literal and len(elems) == 1:
        return {env.basic(elems[0]): 1}
    out: dict[TypeName, int] = {}
    for name in elems:
        tn = env.seq(name)
        out[tn] = out.get(tn, 0) + 1
    return out


def read_counts(entries: Iterable[tuple[TypeName, str]], have: Types,
                less: Types = _NO_TYPES) -> dict[str, int]:
    """A count block's counts, one per ``(type, name)`` entry, read from
    the histogram ``have - less``; a name given twice gets the sum."""
    snap: dict[str, int] = {}
    for tn, name in entries:
        snap[name] = snap.get(name, 0) + have.get(tn, 0) - less.get(tn, 0)
    return snap


def term_elements(t: Term) -> set[str]:
    """Every element name occurring anywhere in the term."""
    out: set[str] = set()
    stack = [t]
    while stack:
        cur = stack.pop()
        for comp in component_counts(cur):
            if isinstance(comp, Seq):
                out.update(comp.elems)
            else:
                out.update(comp.membrane)
                stack.append(comp.content)
    return out
