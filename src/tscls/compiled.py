"""Compiled rules of the shape ``g1 | ... | gk | $X -> h1 | ... | hm | $X``.

When both sides are ground flat sequences plus one shared top-level term
variable, and every count block is on that variable, the variable binds
exactly the compartment minus its ground part. Matching is then a
multiset-containment test against the compartment's component counter,
the counts come from typing the leftover distinct components times their
multiplicities, and the target is the counter ``content - need + give``.
The rule has at most one instantiation per compartment, so it yields at
most one transition per (rule, path), as the general enumerator does.

The results (match, counts, errors and target) are those of the general
path: ``match_whole``, ``count_types``, ``substitute`` and ``splice``.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter
from typing import TYPE_CHECKING, Optional

from .matching import Path, splice
from .patterns import ElemLit, Pattern, PSeq, PTermVar, Var, VarKind
from .terms import Seq, Term, TypeEnv, TypeName, component_counts

if TYPE_CHECKING:
    from .semantics import RewriteRule

# per count block: type -> the count names it feeds, and every name
Decl = tuple[dict[TypeName, list[str]], tuple[str, ...]]


class Plan:
    """What a compiled rule consumes, produces and counts."""

    __slots__ = ("need", "give", "decls")

    def __init__(self, need: Counter, give: Counter, decls: tuple[Decl, ...]):
        self.need = need
        self.give = give
        self.decls = decls

    def match(self, content: Term, env: TypeEnv) -> Optional[dict[str, int]]:
        """The rule's counts in ``content``, or None if it does not match."""
        have = component_counts(content)
        need = self.need
        for comp, n in need.items():
            if have.get(comp, 0) < n:
                return None
        out: dict[str, int] = {}
        for wanted, names in self.decls:
            snap = dict.fromkeys(names, 0)
            # components in canonical order, so an unknown element is
            # raised for the same component as the general path's walk
            for comp, n in have.items():
                n -= need.get(comp, 0)
                if not n:
                    continue
                if isinstance(comp, Seq):
                    if len(comp.elems) == 1:
                        for name in wanted.get(env.basic(comp.elems[0]), ()):
                            snap[name] += n
                        continue
                    elems = comp.elems
                else:
                    elems = comp.membrane
                for elem in elems:
                    for name in wanted.get(env.seq(elem), ()):
                        snap[name] += n
            out.update(snap)
        return out

    def build(self, state: Term, path: Path, content: Term) -> Term:
        """The successor of ``state`` after firing at ``path``."""
        counter = component_counts(content).copy()
        counter.subtract(self.need)
        counter.update(self.give)
        comps = sorted((c for c, n in counter.items() if n > 0),
                       key=attrgetter("key"))
        parts: list = []
        for comp in comps:
            parts += [comp] * counter[comp]
        new = Term(parts)
        new._canonical = True
        new._counter = Counter({comp: counter[comp] for comp in comps})
        return splice(state, path, new)


def compile_rule(rule: RewriteRule) -> Optional[Plan]:
    """The rule's plan, or None if it is not of the compiled shape."""
    lhs_ground, lhs_var = _split(rule.lhs)
    rhs_ground, rhs_var = _split(rule.rhs)
    if lhs_var is None or lhs_var != rhs_var:
        return None
    var = Var(VarKind.TERM, lhs_var)
    decls = []
    for decl in rule.counts:
        if decl.var != var:
            return None
        wanted: dict[TypeName, list[str]] = {}
        for tn, name in decl.entries:
            wanted.setdefault(tn, []).append(name)
        decls.append((wanted, tuple(name for _, name in decl.entries)))
    return Plan(lhs_ground, rhs_ground, tuple(decls))


def _split(p: Pattern) -> tuple[Counter, Optional[str]]:
    """Ground sequences as a component counter, and the one term variable
    (None unless the rest of the pattern is exactly one)."""
    ground: Counter = Counter()
    tvars = []
    for item in p.items:
        if isinstance(item, PTermVar):
            tvars.append(item.name)
        elif isinstance(item, PSeq) and all(isinstance(a, ElemLit)
                                            for a in item.atoms):
            if item.atoms:  # an empty sequence consumes and gives nothing
                ground[Seq(a.name for a in item.atoms)] += 1
        else:
            return ground, None
    return ground, tvars[0] if len(tvars) == 1 else None
