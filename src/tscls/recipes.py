"""Recipes: the rule of a rule block the process knows, made without its
text, in place of tokenizing and parsing it (see
:func:`tscls.syntax.parse_model` and :func:`tscls.semantics.parsed_rule`).
"""

from __future__ import annotations

from typing import Callable

from .patterns import (ElemLit, ElemVar, Pattern, PLoop, PSeq, PTermVar,
                       SeqVar, Var, VarKind)
from .rates import BinOp, IfZero, Name, Num, RateExpr
from .semantics import CountDecl, RewriteRule
from .terms import TypeName

# the names a recipe's source reads
_SCOPE = {cls.__name__: cls for cls in (
    BinOp, CountDecl, ElemLit, ElemVar, IfZero, Name, Num, Pattern, PLoop,
    PSeq, PTermVar, RewriteRule, SeqVar, TypeName, Var, VarKind)}


def recipe(rule: RewriteRule, first: int) -> Callable[[int], RewriteRule]:
    """A function of a line that makes ``rule`` again, as parsed from its
    block had that block begun at that line instead of at ``first``: its
    rate nodes are placed on the lines of the block there. The source is
    straight-line, one assignment per distinct value, so no Python limit
    on nesting is reached, and equal parts of a rule are one object, as
    frozen values may be. Names and numbers are literals in it, so the
    function holds no rule, pattern or rate."""
    made: dict[str, str] = {}
    lhs = _pattern_source(rule.lhs, made)
    rhs = _pattern_source(rule.rhs, made)
    rate = _rate_source(rule.rate, made, first)
    counts = "".join(
        f"CountDecl(Var(VarKind.{decl.var.kind.name}, {decl.var.name!r}), ("
        + "".join(f"(TypeName({tname.base!r}, {tname.is_seq}), {name!r}), "
                  for tname, name in decl.entries) + ")), "
        for decl in rule.counts)
    text = "".join(["def make(line):\n",
                    *[f"    {out} = {value}\n" for value, out in made.items()],
                    f"    return RewriteRule({rule.id!r}, {lhs}, {rhs},"
                    f" {rate}, ({counts}))\n"])
    scope = dict(_SCOPE)
    exec(compile(text, "<rule recipe>", "exec"), scope)
    # popped: in its own globals, it would be a cycle once _BLOCKS drops it
    return scope.pop("make")


def _assigned(value: str, made: dict[str, str]) -> str:
    """The variable that holds ``value`` in a recipe's source; ``made``
    maps the value of each of its assignments, in order, to the variable
    assigned."""
    out = made.get(value)
    if out is None:
        out = made[value] = f"v{len(made)}"
    return out


def _pattern_source(p: Pattern, made: dict[str, str]) -> str:
    items = []
    for item in p.items:
        if isinstance(item, PTermVar):
            items.append(_assigned(f"PTermVar({item.name!r})", made))
        elif isinstance(item, PSeq):
            items.append(_pseq_source(item, made))
        else:
            membrane = _pseq_source(item.membrane, made)
            content = _pattern_source(item.content, made)
            items.append(_assigned(f"PLoop({membrane}, {content})", made))
    return _assigned(f"Pattern(({''.join(i + ', ' for i in items)}),"
                     f" {p.counts!r})", made)


def _pseq_source(ps: PSeq, made: dict[str, str]) -> str:
    return _assigned("PSeq((" + "".join(
        _assigned(f"{type(atom).__name__}({atom.name!r})", made) + ", "
        for atom in ps.atoms) + "))", made)


def _rate_source(expr: RateExpr, made: dict[str, str], first: int) -> str:
    line, col = expr.pos
    pos = f"(line + {line - first}, {col})"
    if isinstance(expr, Num):
        return f"Num({expr.value!r}, {pos})"
    if isinstance(expr, Name):
        return f"Name({expr.ident!r}, {pos})"
    if isinstance(expr, BinOp):
        left = _rate_source(expr.left, made, first)
        right = _rate_source(expr.right, made, first)
        return _assigned(f"BinOp({expr.op!r}, {left}, {right}, {pos})", made)
    then = _rate_source(expr.then, made, first)
    orelse = _rate_source(expr.orelse, made, first)
    return _assigned(f"IfZero({expr.count!r}, {then}, {orelse}, {pos})",
                     made)
