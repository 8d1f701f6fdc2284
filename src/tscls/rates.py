"""Rate expression AST and evaluator.

Expressions combine real literals, named constants, count variables, the
four arithmetic operators and the guarded zero test
``if n == 0 then e1 else e2`` (the idiom that keeps inhibition factors
well-defined when the inhibitor count is zero).

:func:`compile_expr` turns an expression into one Python function of the
counts and the constants. Its source is straight-line: one assignment
per operator, and a function of its own for each branch of a guard. The
source holds names only as string literals and takes numbers and error
positions as data, so it depends only on the expression's shape and is
compiled once per shape per process (a table keeps up to 1,024); parsing
a model again, or changing only its numbers, compiles nothing. Counts
are integers, so a value may be an integer too large for a float: then
converting or dividing it raises :class:`OverflowError`, which
:func:`~tscls.semantics.eval_rate` reports as a rate error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional, Union

from .errors import RateEvalError
from .terms import Table

Pos = Optional[tuple[int, int]]  # (line, col) when the expression was parsed


@dataclass(frozen=True)
class Num:
    value: float
    pos: Pos = field(default=None, compare=False)


@dataclass(frozen=True)
class Name:
    ident: str
    pos: Pos = field(default=None, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "RateExpr"
    right: "RateExpr"
    pos: Pos = field(default=None, compare=False)


@dataclass(frozen=True)
class IfZero:
    """``if <count> == 0 then <then> else <orelse>``."""
    count: str
    then: "RateExpr"
    orelse: "RateExpr"
    pos: Pos = field(default=None, compare=False)


RateExpr = Union[Num, Name, BinOp, IfZero]


def expr_names(expr: RateExpr) -> set[str]:
    """Free names: count variables and constants referenced."""
    if isinstance(expr, Num):
        return set()
    if isinstance(expr, Name):
        return {expr.ident}
    if isinstance(expr, BinOp):
        return expr_names(expr.left) | expr_names(expr.right)
    return {expr.count} | expr_names(expr.then) | expr_names(expr.orelse)


def guard_names(expr: RateExpr) -> set[str]:
    """The names guards test, which must be count variables."""
    if isinstance(expr, (Num, Name)):
        return set()
    if isinstance(expr, BinOp):
        return guard_names(expr.left) | guard_names(expr.right)
    return {expr.count} | guard_names(expr.then) | guard_names(expr.orelse)


def _where(pos: Pos) -> str:
    return f" at {pos[0]}:{pos[1]}" if pos else ""


# a compiled rate expression: (counts, consts) -> value
Evaluator = Callable[[Mapping[str, int], Mapping[str, float]], float]

# per expression shape (see _shape), the function that makes an evaluator
# of that shape from its data
_MADE = Table()


def compile_expr(expr: RateExpr) -> Evaluator:
    """The expression as one Python function, made from straight-line
    source: one assignment per operator, and a function of its own for
    each branch of a guard, so no Python limit on nesting is reached.
    Names appear in the source only as string literals; numbers, and the
    nodes whose errors give a position, are passed in as data, so the
    source depends only on the expression's shape, and it is made and
    compiled once per shape per process. Each operator evaluates its
    left operand before its right one, a name is looked up in the counts
    before the constants, and errors are raised as :func:`evaluate`
    documents."""
    data: list = []
    shape = _shape(expr, data)
    make = _MADE.get(shape)
    if make is None:
        functions: list[list[str]] = []
        _function(shape, functions, iter(range(len(data))))
        params = ", ".join([f"a{i}" for i in range(len(data))])
        text = "".join([f"def make({params}):\n",
                        *[line for body in functions for line in body],
                        "    return f0\n"])
        scope = {"_raise": _raise}
        exec(compile(text, "<rate expression>", "exec"), scope)
        # popped: in its own globals, it would be a cycle once _MADE drops it
        make = _MADE[shape] = scope.pop("make")
    return make(*data)


def _shape(expr: RateExpr, data: list) -> object:
    """The expression's shape: None for a number, the name for a name,
    ``(op, left, right)`` for an operator and ``(None, count, then,
    orelse)`` for a guard. What the evaluator reads as data, in the order
    it reads it, is appended to ``data``: a number's value, and each node
    whose error gives a position (a name, a guard, a division or an
    unknown operator)."""
    if isinstance(expr, Num):
        data.append(expr.value)
        return None
    if isinstance(expr, Name):
        data.append(expr)
        return expr.ident
    if isinstance(expr, IfZero):
        data.append(expr)
        return (None, expr.count, _shape(expr.then, data),
                _shape(expr.orelse, data))
    shape = (expr.op, _shape(expr.left, data), _shape(expr.right, data))
    if expr.op not in ("+", "-", "*"):
        data.append(expr)
    return shape


def _function(shape: object, functions: list[list[str]],
              params: Iterator[int]) -> str:
    """The name of a new function, ``f0`` for the first and ``f1`` on
    after it, whose source lines are appended to ``functions`` and return
    the value of an expression of ``shape``; ``params`` gives the index
    of each datum in turn."""
    name = f"f{len(functions)}"
    body = [f"    def {name}(counts, consts):\n"]
    functions.append(body)
    out = _value(shape, body, functions, params, {})
    body.append(f"        return {out}\n")
    return name


def _value(shape: object, body: list[str], functions: list[list[str]],
           params: Iterator[int], names: dict[str, str]) -> str:
    """The variable or parameter that holds the value of an expression of
    ``shape`` once the lines appended to ``body`` have run; ``names``
    holds the variables of the names those lines have looked up
    already."""
    if shape is None:
        return f"a{next(params)}"
    if isinstance(shape, str):
        error = f"_raise(a{next(params)})"
        out = names.get(shape)
        if out is None:
            out = names[shape] = f"x{len(body)}"
            ident = repr(shape)
            body.append(f"        {out} = counts[{ident}] if {ident} in counts"
                        f" else consts[{ident}] if {ident} in consts"
                        f" else {error}\n")
        return out
    if shape[0] is None:
        _, count, then, orelse = shape
        count, out = repr(count), f"x{len(body)}"
        body.append(f"        if {count} not in counts:"
                    f" _raise(a{next(params)})\n")
        then = _function(then, functions, params)
        orelse = _function(orelse, functions, params)
        body.append(f"        {out} = {then}(counts, consts) if"
                    f" counts[{count}] == 0 else {orelse}(counts, consts)\n")
        return out
    op, left, right = shape
    left = _value(left, body, functions, params, names)
    right = _value(right, body, functions, params, names)
    out = f"x{len(body)}"
    if op in ("+", "-", "*"):
        body.append(f"        {out} = {left} {op} {right}\n")
    elif op == "/":
        body.append(f"        {out} = _raise(a{next(params)})"
                    f" if {right} == 0 else {left} / {right}\n")
    else:
        body.append(f"        {out} = _raise(a{next(params)})\n")
    return out


def _raise(node: RateExpr) -> None:
    """Raise the error of ``node``: an undeclared name, a guard on an
    unknown count, a division by zero or an unknown operator."""
    where = _where(node.pos)
    if isinstance(node, Name):
        raise RateEvalError(f"undeclared name '{node.ident}'{where}")
    if isinstance(node, IfZero):
        raise RateEvalError(f"guard names unknown count '{node.count}'{where}")
    if node.op == "/":
        raise RateEvalError(f"division by zero{where}")
    raise RateEvalError(f"unknown operator {node.op!r}")


# per expression object, by its id, the object and its evaluator; an
# object is matched by identity, never by equality: equal expressions
# parsed at different places raise their errors at different positions.
# Holding the object keeps its id from being taken
_EVALUATORS = Table()


def evaluate(expr: RateExpr, counts: Mapping[str, int],
             consts: Mapping[str, float]) -> float:
    """Evaluate to a real. Count variables shadow constants; division by
    zero outside the guarded idiom raises :class:`RateEvalError`. The
    evaluator :func:`compile_expr` makes is kept for the expression
    object."""
    kept = _EVALUATORS.get(id(expr))
    if kept is None:
        kept = _EVALUATORS[id(expr)] = (expr, compile_expr(expr))
    return kept[1](counts, consts)


# binary operator precedence, read by the parser and by expr_text
PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def format_number(x: float) -> str:
    """Shortest decimal that round-trips the 64-bit float exactly."""
    if isinstance(x, int):
        return str(x)
    return repr(x)


def expr_text(expr: RateExpr, parent_prec: int = 0, right_side: bool = False) -> str:
    """Render with minimal parentheses."""
    if isinstance(expr, Num):
        return format_number(expr.value)
    if isinstance(expr, Name):
        return expr.ident
    if isinstance(expr, IfZero):
        body = (f"if {expr.count} == 0 then {expr_text(expr.then)} "
                f"else {expr_text(expr.orelse)}")
        return f"({body})" if parent_prec > 0 else body
    prec = PREC[expr.op]
    text = (f"{expr_text(expr.left, prec, False)} {expr.op} "
            f"{expr_text(expr.right, prec, True)}")
    if prec < parent_prec or (prec == parent_prec and right_side):
        return f"({text})"
    return text
