"""Recipes: the model of a text the process knows, made without the text,
in place of tokenizing, parsing and validating it (see
:func:`tscls.syntax.parse_model`). A process imports this module only
once it parses a text a second time.
"""

from __future__ import annotations

from typing import Callable

from .model import ModelFile, ObservableSpec
from .patterns import (ElemLit, ElemVar, Pattern, PLoop, PSeq, PTermVar,
                       SeqVar, Var, VarKind)
from .rates import BinOp, IfZero, Name, Num, RateExpr
from .semantics import CountDecl, RewriteRule
from .terms import (Component, Loop, Seq, Term, TypeName, component_counts,
                    counted)

# the names a recipe's source reads
_SCOPE = {f.__name__: f for f in (
    BinOp, CountDecl, ElemLit, ElemVar, IfZero, Loop, ModelFile, Name, Num,
    ObservableSpec, Pattern, PLoop, PSeq, PTermVar, RewriteRule, Seq, SeqVar,
    TypeName, Var, VarKind, counted)}


def recipe(mf: ModelFile) -> Callable[[], ModelFile]:
    """A function that makes ``mf`` again, as it was parsed: each call
    makes a new model, with its own rules, init term, dicts and lists.
    The source is straight-line, one assignment per distinct value of a
    pattern, a rate node or a term, so no Python limit on nesting is
    reached, and equal parts are one object, as frozen values and terms
    may be. Names, numbers and rate positions are literals in it, so the
    function holds no part of the model."""
    made: dict[str, str] = {}
    rules = "".join(_rule_source(rule, made) + ", " for rule in mf.rules)
    init = _term_source(mf.init, made)
    observables = "".join(f"ObservableSpec({o.element!r}), "
                          for o in mf.observables)
    text = "".join([
        "def make():\n",
        *[f"    {out} = {value}\n" for value, out in made.items()],
        f"    return ModelFile({mf.name!r}, {mf.constants!r},"
        f" {mf.type_decls!r}, [{rules}], {init}, [{observables}],"
        f" {mf.run_defaults!r}, {mf.typing!r})\n"])
    scope = dict(_SCOPE)
    exec(compile(text, "<model recipe>", "exec"), scope)
    # popped: in its own globals, it would be a cycle once its table
    # drops it
    return scope.pop("make")


def _assigned(value: str, made: dict[str, str]) -> str:
    """The variable that holds ``value`` in a recipe's source; ``made``
    maps the value of each of its assignments, in order, to the variable
    assigned."""
    out = made.get(value)
    if out is None:
        out = made[value] = f"v{len(made)}"
    return out


def _rule_source(rule: RewriteRule, made: dict[str, str]) -> str:
    lhs = _pattern_source(rule.lhs, made)
    rhs = _pattern_source(rule.rhs, made)
    rate = _rate_source(rule.rate, made)
    counts = "".join(
        f"CountDecl(Var(VarKind.{decl.var.kind.name}, {decl.var.name!r}), ("
        + "".join(f"(TypeName({tname.base!r}, {tname.is_seq}), {name!r}), "
                  for tname, name in decl.entries) + ")), "
        for decl in rule.counts)
    return f"RewriteRule({rule.id!r}, {lhs}, {rhs}, {rate}, ({counts}))"


def _term_source(t: Term, made: dict[str, str]) -> str:
    return _assigned("counted({" + "".join(
        f"{_component_source(comp, made)}: {n}, "
        for comp, n in component_counts(t).items()) + "})", made)


def _component_source(comp: Component, made: dict[str, str]) -> str:
    if isinstance(comp, Seq):
        return _assigned(f"Seq({comp.elems!r})", made)
    content = _term_source(comp.content, made)
    return _assigned(f"Loop({comp.membrane!r}, {content})", made)


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


def _rate_source(expr: RateExpr, made: dict[str, str]) -> str:
    if isinstance(expr, Num):
        return f"Num({expr.value!r}, {expr.pos})"
    if isinstance(expr, Name):
        return f"Name({expr.ident!r}, {expr.pos})"
    if isinstance(expr, BinOp):
        left = _rate_source(expr.left, made)
        right = _rate_source(expr.right, made)
        return _assigned(f"BinOp({expr.op!r}, {left}, {right}, {expr.pos})",
                         made)
    then = _rate_source(expr.then, made)
    orelse = _rate_source(expr.orelse, made)
    return _assigned(f"IfZero({expr.count!r}, {then}, {orelse}, {expr.pos})",
                     made)
