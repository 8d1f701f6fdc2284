"""Rate expressions compiled to Python functions, against the recursive
interpreter of the oracle."""

import random

import pytest

from tscls import rates
from tscls.cli import main
from tscls.errors import RateEvalError
from tscls.rates import BinOp, IfZero, Name, Num, compile_expr, evaluate
from tscls.syntax import parse_rate

from conftest import EXTREME_NUMBERS, random_rate
from oracle import interpret
from test_cli import LAC

# names that the counts and the constants may or may not hold, some of
# them Python keywords and builtins
NAMES = ["n", "m", "k", "lambda", "None", "def"]

# count values: zero for the guards and the divisions, and integers too
# large for a float
COUNT_VALUES = (0, 0, 1, 2, -3, 10 ** 400, -(10 ** 400))


def _placed(expr, at):
    """The expression with a position for every node, numbered in the
    order of ``at``, an iterator."""
    pos = (1, next(at))
    if isinstance(expr, Num):
        return Num(expr.value, pos)
    if isinstance(expr, Name):
        return Name(expr.ident, pos)
    if isinstance(expr, IfZero):
        return IfZero(expr.count, _placed(expr.then, at),
                      _placed(expr.orelse, at), pos)
    return BinOp(expr.op, _placed(expr.left, at), _placed(expr.right, at),
                 pos)


def _outcome(evaluator, expr, counts, consts):
    """The value's repr, or the type and message of what was raised."""
    try:
        return repr(evaluator(expr, counts, consts))
    except Exception as exc:  # a wrong evaluator may raise anything
        return type(exc), str(exc)


def test_compiled_expressions_agree_with_the_interpreter():
    rng = random.Random(20261019)
    raised = 0
    for _ in range(3000):
        expr = random_rate(rng, NAMES, depth=rng.randint(0, 6))
        if rng.random() < 0.5:
            expr = _placed(expr, iter(range(1, 10 ** 6)))
        counts = {name: rng.choice(COUNT_VALUES) for name in NAMES
                  if rng.random() < 0.5}
        consts = {name: rng.choice(EXTREME_NUMBERS) for name in NAMES
                  if rng.random() < 0.5}
        want = _outcome(interpret, expr, counts, consts)
        assert _outcome(evaluate, expr, counts, consts) == want, expr
        raised += isinstance(want, tuple)
    assert 300 < raised < 2700  # both values and errors are drawn


@pytest.mark.parametrize("expr, message", [
    (BinOp("^", Num(1), Num(2)), "unknown operator '^'"),
    (BinOp("^", Name("kz"), Num(2)), "undeclared name 'kz'"),
    (BinOp("^", Num(1), BinOp("/", Num(1), Num(0))), "division by zero")])
def test_an_unknown_operator_raises_after_its_operands(expr, message):
    want = (RateEvalError, message)
    assert _outcome(interpret, expr, {}, {}) == want
    assert _outcome(evaluate, expr, {}, {}) == want


@pytest.mark.parametrize("counts, want", [({"n": 0}, 1), ({"n": 3}, 2)])
def test_a_chain_of_guards_as_high_as_the_grammar_allows(counts, want):
    expr = parse_rate("if n == 0 then 1 else " * 200 + "2")
    assert evaluate(expr, counts, {}) == want
    with pytest.raises(RateEvalError, match="unknown count 'n' at"):
        evaluate(expr, {}, {"n": 0})


def test_every_name_is_a_string_literal():
    ident = "x'] + 1 if True else counts['\"\\\n"
    assert evaluate(Name(ident), {ident: 4}, {}) == 4
    assert evaluate(parse_rate("lambda * (def + None)"), {"def": 3},
                    {"lambda": 2.5, "None": 3}) == 15.0


def test_an_expression_shape_is_compiled_once():
    # numbers and positions are data: a second parse, or other numbers,
    # make no new source; another name does
    rates._MADE.clear()
    first = compile_expr(parse_rate("(n + 1) * 0.5"))
    assert len(rates._MADE) == 1
    again = compile_expr(parse_rate("  (n + 2) * 7"))
    assert len(rates._MADE) == 1
    assert (first({"n": 3}, {}), again({"n": 3}, {})) == (2.0, 35)
    compile_expr(parse_rate("(m + 1) * 0.5"))
    assert len(rates._MADE) == 2
    for i in range(1100):
        compile_expr(Name(f"n{i}"))
    assert len(rates._MADE) <= 1024


def test_evaluate_keeps_an_evaluator_per_expression_object(monkeypatch):
    # equal expressions parsed at different places are distinct objects,
    # each with its own evaluator and the position of its own division
    made = []
    compile_expr = rates.compile_expr
    monkeypatch.setattr(rates, "compile_expr",
                        lambda expr: made.append(expr) or compile_expr(expr))
    first, second = parse_rate("x / y"), parse_rate("  x / y")
    assert first == second and first is not second
    for _ in range(3):
        for expr in (first, second):
            assert evaluate(expr, {"x": 6, "y": 3}, {}) == 2
    assert made == [first, second]
    for expr, where in ((first, "1:3"), (second, "1:5"), (first, "1:3")):
        with pytest.raises(RateEvalError) as exc:
            evaluate(expr, {"x": 1, "y": 0}, {})
        assert str(exc.value) == f"division by zero at {where}"
    assert made == [first, second]


def test_check_compiles_no_rate(monkeypatch, capsys):
    def no_compile(expr):
        raise AssertionError("a rate was compiled")
    monkeypatch.setattr(rates, "compile_expr", no_compile)
    assert main(["check", LAC]) == 0
