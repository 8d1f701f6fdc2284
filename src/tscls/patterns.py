"""Pattern layer: terms extended with three kinds of variables.

Term variables (written ``$X``) stand for whole parallel sub-multisets,
sequence variables (``~x``) for element sub-sequences, element variables
(``?x``) for single elements. Term and sequence variables may bind the
empty value; element variables may not.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import itemgetter
from typing import Union


class VarKind(enum.Enum):
    TERM = "term"
    SEQ = "seq"
    ELEM = "elem"

    # members are singletons: hash by identity, in C, not by name in Python
    __hash__ = object.__hash__


_SIGIL = {VarKind.TERM: "$", VarKind.SEQ: "~", VarKind.ELEM: "?"}


class Var(tuple):
    """A variable: its kind and name. A ``(kind, name)`` tuple, so the
    hashing and equality that binding lookups do all day run in C."""

    __slots__ = ()

    def __new__(cls, kind: VarKind, name: str) -> "Var":
        return tuple.__new__(cls, (kind, name))

    def __getnewargs__(self) -> tuple[VarKind, str]:
        return tuple(self)

    kind = property(itemgetter(0))
    name = property(itemgetter(1))

    def __str__(self) -> str:
        return _SIGIL[self.kind] + self.name

    def __repr__(self) -> str:
        return f"Var(kind={self.kind!r}, name={self.name!r})"


@dataclass(frozen=True)
class ElemLit:
    """A concrete element inside a sequence pattern."""
    name: str


@dataclass(frozen=True)
class ElemVar:
    """Element variable occurrence inside a sequence pattern."""
    name: str


@dataclass(frozen=True)
class SeqVar:
    """Sequence variable occurrence inside a sequence pattern."""
    name: str


SeqAtom = Union[ElemLit, ElemVar, SeqVar]


@dataclass(frozen=True)
class PSeq:
    """Sequence pattern: a non-empty run of atoms."""
    atoms: tuple[SeqAtom, ...]


@dataclass(frozen=True)
class PLoop:
    """Loop pattern: membrane sequence pattern wrapping an inner pattern."""
    membrane: PSeq
    content: "Pattern"


@dataclass(frozen=True)
class PTermVar:
    """Term variable occurring as a parallel item."""
    name: str


PatternItem = Union[PSeq, PLoop, PTermVar]


@dataclass(frozen=True)
class Pattern:
    """A parallel multiset of pattern items: each distinct item once, in
    order of first occurrence, with its count. ``Pattern(items)`` counts
    its items; ``Pattern(items, counts)`` gives each item a count, adds
    up those of equal items and drops an item of count 0. Ground terms
    are the special case with no variables."""
    items: tuple[PatternItem, ...]
    counts: tuple[int, ...] = ()

    def __post_init__(self):
        items = tuple(self.items)
        counts = tuple(self.counts) or (1,) * len(items)
        # items of distinct classes are distinct, as many patterns' are.
        # Otherwise a list search by equality finds equal items: a pattern
        # has a few, and hashing nested dataclasses costs more
        if (len(set(map(type, items))) < len(items) or 0 in counts
                or len(counts) != len(items)):
            merged: list[PatternItem] = []
            added: list[int] = []
            for item, n in zip(items, counts):
                if item in merged:
                    added[merged.index(item)] += n
                elif n:
                    merged.append(item)
                    added.append(n)
            items, counts = tuple(merged), tuple(added)
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "counts", counts)


# -- construction helpers ---------------------------------------------------

def lits(*names: str) -> PSeq:
    return PSeq(tuple(ElemLit(n) for n in names))


def tvar(name: str) -> PTermVar:
    return PTermVar(name)


def svar(name: str) -> SeqVar:
    return SeqVar(name)


def pat(*items: PatternItem) -> Pattern:
    return Pattern(tuple(items))


# -- variable inventory -----------------------------------------------------

def pattern_vars(p: Pattern) -> tuple[Var, ...]:
    """Variables of the pattern in first-occurrence order."""
    seen: dict[Var, None] = {}
    _add_vars(p, seen)
    return tuple(seen)


def _add_vars(p: Pattern, seen: dict[Var, None]) -> None:
    for item in p.items:
        if isinstance(item, PTermVar):
            seen.setdefault(Var(VarKind.TERM, item.name))
            continue
        for atom in (item if isinstance(item, PSeq) else item.membrane).atoms:
            if isinstance(atom, ElemVar):
                seen.setdefault(Var(VarKind.ELEM, atom.name))
            elif isinstance(atom, SeqVar):
                seen.setdefault(Var(VarKind.SEQ, atom.name))
        if isinstance(item, PLoop):
            _add_vars(item.content, seen)


def seq_positioned_elem_vars(p: Pattern) -> frozenset[str]:
    """Element variables that sit inside a longer sequence or a membrane.

    Position-aware counting tags such occurrences seq(t); an element
    variable standing alone as a parallel item counts as a basic type.
    """
    out: set[str] = set()
    stack = [p]
    while stack:
        for item in stack.pop().items:
            if isinstance(item, PLoop):
                atoms = item.membrane.atoms
                stack.append(item.content)
            elif isinstance(item, PSeq) and len(item.atoms) > 1:
                atoms = item.atoms
            else:
                continue
            out.update(a.name for a in atoms if isinstance(a, ElemVar))
    return frozenset(out)


def pattern_elements(p: Pattern) -> set[str]:
    """Concrete element names occurring anywhere in the pattern."""
    out: set[str] = set()
    stack = [p]
    while stack:
        for item in stack.pop().items:
            if isinstance(item, PLoop):
                atoms = item.membrane.atoms
                stack.append(item.content)
            elif isinstance(item, PSeq):
                atoms = item.atoms
            else:
                continue
            out.update(a.name for a in atoms if isinstance(a, ElemLit))
    return out
