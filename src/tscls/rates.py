"""Rate expression AST and evaluator.

Expressions combine real literals, named constants, count variables, the
four arithmetic operators and the guarded zero test
``if n == 0 then e1 else e2`` (the idiom that keeps inhibition factors
well-defined when the inhibitor count is zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Union

from .errors import RateEvalError

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


def _where(pos: Pos) -> str:
    return f" at {pos[0]}:{pos[1]}" if pos else ""


# a compiled rate expression: (counts, consts) -> value
Evaluator = Callable[[Mapping[str, int], Mapping[str, float]], float]


def compile_expr(expr: RateExpr) -> Evaluator:
    """The expression as nested closures, built once: each node evaluates
    its left operand before its right one, looks a name up in the counts
    before the constants, and raises :class:`RateEvalError` as
    :func:`evaluate` documents."""
    if isinstance(expr, Num):
        value = expr.value
        return lambda counts, consts: value
    where = _where(expr.pos)
    if isinstance(expr, Name):
        ident = expr.ident

        def name(counts, consts):
            if ident in counts:
                return counts[ident]
            if ident in consts:
                return consts[ident]
            raise RateEvalError(f"undeclared name '{ident}'{where}")
        return name
    if isinstance(expr, IfZero):
        count = expr.count
        then, orelse = compile_expr(expr.then), compile_expr(expr.orelse)

        def if_zero(counts, consts):
            if count not in counts:
                raise RateEvalError(
                    f"guard names unknown count '{count}'{where}")
            if counts[count] == 0:
                return then(counts, consts)
            return orelse(counts, consts)
        return if_zero
    left, right, op = compile_expr(expr.left), compile_expr(expr.right), \
        expr.op
    if op == "+":
        return lambda c, k: left(c, k) + right(c, k)
    if op == "-":
        return lambda c, k: left(c, k) - right(c, k)
    if op == "*":
        return lambda c, k: left(c, k) * right(c, k)
    if op == "/":
        def divide(counts, consts):
            num, den = left(counts, consts), right(counts, consts)
            if den == 0:
                raise RateEvalError(f"division by zero{where}")
            return num / den
        return divide

    def unknown(counts, consts):
        left(counts, consts)
        right(counts, consts)
        raise RateEvalError(f"unknown operator {op!r}")
    return unknown


def evaluate(expr: RateExpr, counts: Mapping[str, int],
             consts: Mapping[str, float]) -> float:
    """Evaluate to a real. Count variables shadow constants; division by
    zero outside the guarded idiom raises :class:`RateEvalError`."""
    return compile_expr(expr)(counts, consts)


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
