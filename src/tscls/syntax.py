"""Concrete syntax: parsing and printing of terms, patterns, rate
expressions and model files.

Terms:      ``a.b.c | 30 * polym | <m>[ inner ]``; ``eps`` is the empty
            term; ``<S>`` alone abbreviates a loop with empty content.
Patterns:   add ``$X`` (term variable) as a parallel item and ``~x``
            (sequence variable) / ``?x`` (element variable) inside
            sequences.
Rates:      reals, names, ``+ - * /``, parentheses and the guard
            ``if n == 0 then e1 else e2``.
Model files are newline-structured directives; ``#`` starts a comment.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

from . import rates
from .errors import ModelError, ParseError
from .model import ModelFile, ObservableSpec, validate_model
from .patterns import (ElemLit, ElemVar, Pattern, PLoop, PSeq, PTermVar,
                       SeqVar, Var, VarKind)
from .rates import BinOp, IfZero, Name, Num, RateExpr
from .semantics import LITERAL, POSITIONAL, CountDecl, RewriteRule
from .terms import (Loop, Seq, Term, TypeName, canonicalize,
                    component_counts)

# ---------------------------------------------------------------------------
# tokenizer

# Each match is one token after any blanks, or the blanks that end the
# text. A line end takes the comment before it, so it is placed at the '#';
# a comment that ends the text is skipped. IDENT also matches a leading
# non-decimal digit such as '²', which tokenize rejects with any BAD
# character. The commonest kinds come first.
_TOKEN = re.compile(
    r"[ \t\r]*(?:"
    r"(?P<IDENT>[^\W\d_]\w*)"
    r"|(?P<SYM>->|==|[|.*<>\[\]{}(),:=$~?/+-])"
    r"|(?P<NUMBER>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<NEWLINE>(?:#[^\n]*)?\n)"
    r"|(?P<COMMENT>#[^\n]*)"
    r"|(?P<BAD>.)|\Z)")

# nested constructs (parentheses, signs, guards, loops) the parser
# follows, and the height of a rate expression's tree
MAX_DEPTH = 200


@dataclass(slots=True)
class Token:
    kind: str  # IDENT NUMBER SYM NEWLINE EOF
    text: str
    line: int
    col: int


def tokenize(text: str, newlines: bool = False) -> list[Token]:
    """Lex the input. With ``newlines`` set, line breaks become tokens
    (model files are newline-structured); otherwise they are whitespace.
    Numbers are decimal digits; an identifier starts with a letter."""
    toks: list[Token] = []
    line, line_start, end = 1, 0, len(text)
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        start = m.start(kind)
        if kind == "NEWLINE":
            if newlines and toks and toks[-1].kind != "NEWLINE":
                toks.append(Token(kind, "\n", line, start - line_start + 1))
            line, line_start = line + 1, m.end()
        elif kind == "COMMENT":
            end = start
        elif kind == "BAD" or kind == "IDENT" and not text[start].isalpha():
            raise ParseError(f"unexpected character {text[start]!r}",
                             line, start - line_start + 1)
        else:
            toks.append(Token(kind, m.group(kind), line,
                              start - line_start + 1))
    col = end - line_start + 1
    if newlines and toks and toks[-1].kind != "NEWLINE":
        toks.append(Token("NEWLINE", "\n", line, col))
    toks.append(Token("EOF", "", line, col))
    return toks


class _Cursor:
    """Token stream with one-token lookahead helpers."""

    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.i = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind != "EOF":
            self.i += 1
        return tok

    def at_sym(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "SYM" and tok.text == text

    def take_sym(self, text: str) -> bool:
        if self.at_sym(text):
            self.next()
            return True
        return False

    def expect_sym(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind == "SYM" and tok.text == text:
            return self.next()
        raise ParseError(f"expected {text!r}, found {tok.text!r}",
                         tok.line, tok.col)

    def expect_ident(self, what: str) -> Token:
        tok = self.peek()
        if tok.kind == "IDENT":
            return self.next()
        raise ParseError(f"expected {what}, found {tok.text!r}",
                         tok.line, tok.col)

    def descend(self) -> Token:
        """Take the token that opens a nested construct; the caller
        decrements ``depth`` when the construct ends."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.fail(f"nesting deeper than {MAX_DEPTH} levels")
        return self.next()

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)


def _expect_end(cur: _Cursor) -> None:
    """Take the line end, or check that the input ends here."""
    tok = cur.next()
    if tok.kind not in ("NEWLINE", "EOF"):
        raise ParseError(f"unexpected trailing input {tok.text!r}",
                         tok.line, tok.col)


def _expect_keyword(cur: _Cursor, word: str) -> None:
    tok = cur.expect_ident(f"'{word}'")
    if tok.text != word:
        raise ParseError(f"expected '{word}'", tok.line, tok.col)


def _number(cur: _Cursor, signed: bool = False) -> Union[int, float]:
    """Read a number literal. A signed one, after an optional '-', is a
    float. An unsigned one is an int when written as digits alone, which
    must then be finite as a float, and a float otherwise."""
    negative = signed and cur.take_sym("-")
    tok = cur.next()
    if tok.kind != "NUMBER":
        raise ParseError("expected a number", tok.line, tok.col)
    value = float(tok.text)
    if signed:
        return -value if negative else value
    if not tok.text.isdecimal():
        return value
    if math.isinf(value):
        raise ParseError("number out of range", tok.line, tok.col)
    return int(tok.text)


def _separated(cur: _Cursor, sep: str, parse, *args) -> list:
    """One or more ``parse(cur, *args)``, separated by the symbol ``sep``."""
    items = [parse(cur, *args)]
    while cur.take_sym(sep):
        items.append(parse(cur, *args))
    return items


def _parse_whole(text: str, parse, *args):
    cur = _Cursor(tokenize(text))
    result = parse(cur, *args)
    _expect_end(cur)
    return result


# ---------------------------------------------------------------------------
# terms and patterns

_ATOM_SIGILS = {ElemLit: "", ElemVar: "?", SeqVar: "~"}
_ATOM_VARS = {sigil: cls for cls, sigil in _ATOM_SIGILS.items() if sigil}


def _parse_par(cur: _Cursor, allow_vars: bool) -> Pattern:
    items = _parse_item(cur, allow_vars)
    while cur.take_sym("|"):
        items += _parse_item(cur, allow_vars)
    return Pattern(tuple(items))


def _parse_item(cur: _Cursor, allow_vars: bool) -> list:
    mult = 1
    tok = cur.peek()
    if tok.kind == "NUMBER":
        mult = _number(cur)
        if isinstance(mult, float):
            raise ParseError("multiplicity must be an integer",
                             tok.line, tok.col)
        if mult < 1:
            raise ParseError("multiplicity must be positive",
                             tok.line, tok.col)
        cur.expect_sym("*")
        tok = cur.peek()
    if tok.kind == "IDENT" and tok.text == "eps":
        cur.next()  # the empty term contributes no components
        return []
    if tok.text == "$":
        if not allow_vars:
            cur.fail("variables are not allowed in a ground term")
        cur.next()
        item = PTermVar(cur.expect_ident("variable name").text)
    elif tok.text == "<":
        item = _parse_loop(cur, allow_vars)
    else:
        item = _parse_seq(cur, allow_vars, membrane=False)
    return [item] * mult


def _parse_loop(cur: _Cursor, allow_vars: bool) -> PLoop:
    open_tok = cur.descend()
    if cur.at_sym(">"):
        raise ParseError("loop membrane must be a non-empty sequence",
                         open_tok.line, open_tok.col)
    membrane = _parse_seq(cur, allow_vars, membrane=True)
    cur.expect_sym(">")
    content = Pattern(())  # <S> abbreviates <S>[eps]
    if cur.take_sym("["):
        content = _parse_par(cur, allow_vars)
        cur.expect_sym("]")
    cur.depth -= 1
    return PLoop(membrane, content)


def _parse_seq(cur: _Cursor, allow_vars: bool, membrane: bool) -> PSeq:
    return PSeq(tuple(_separated(cur, ".", _parse_atom, allow_vars,
                                 membrane)))


def _parse_atom(cur: _Cursor, allow_vars: bool, membrane: bool):
    tok = cur.next()
    var = _ATOM_VARS.get(tok.text)
    if var is not None:
        if not allow_vars:
            raise ParseError("variables are not allowed in a ground term",
                             tok.line, tok.col)
        return var(cur.expect_ident("variable name").text)
    if tok.kind == "IDENT":
        if tok.text == "eps":
            where = "a membrane" if membrane else "a sequence"
            raise ParseError(f"'eps' cannot occur inside {where}",
                             tok.line, tok.col)
        return ElemLit(tok.text)
    if tok.text == "$":
        raise ParseError("term variable '$' cannot occur inside a sequence",
                         tok.line, tok.col)
    raise ParseError(f"expected an element, found {tok.text!r}",
                     tok.line, tok.col)


def parse_pattern(text: str) -> Pattern:
    """Parse a rewrite-rule pattern."""
    return _parse_whole(text, _parse_par, True)


def parse_term(text: str) -> Term:
    """Parse a ground term; the result is canonical."""
    return _parse_whole(text, _parse_ground)


def _parse_ground(cur: _Cursor) -> Term:
    return canonicalize(_pattern_term(_parse_par(cur, allow_vars=False)))


def _pattern_term(p: Pattern) -> Term:
    comps: list[Union[Seq, Loop]] = []
    prev = comp = None
    for item in p.items:
        if item is not prev:  # ``N * ITEM`` repeats one item object
            prev = item
            if isinstance(item, PSeq):
                comp = Seq(tuple(a.name for a in item.atoms))
            else:
                comp = Loop(tuple(a.name for a in item.membrane.atoms),
                            _pattern_term(item.content))
        comps.append(comp)
    return Term(comps)


# ---------------------------------------------------------------------------
# rate expressions

_RATE_KEYWORDS = {"if", "then", "else"}


def _parse_expr(cur: _Cursor) -> RateExpr:
    return _parse_chain(cur, 1)[0]


def _parse_chain(cur: _Cursor, min_prec: int) -> tuple[RateExpr, int]:
    """Precedence climbing over ``rates.PREC``; operators associate to the
    left. Returns the expression and its height (see :func:`_node`)."""
    left, height = _parse_factor(cur)
    while (prec := rates.PREC.get(cur.peek().text, 0)) >= min_prec:
        tok = cur.next()
        right, right_height = _parse_chain(cur, prec + 1)
        height = _node(tok, height, right_height)
        left = BinOp(tok.text, left, right, (tok.line, tok.col))
    return left, height


def _node(tok: Token, *heights: int) -> int:
    """The height of an operator or guard node over subtrees of the given
    heights, a leaf's being 0. The tree is walked recursively (names,
    compilation, printing, evaluation), so its height is held to
    ``MAX_DEPTH`` even where the parser reads it in a loop, as in a chain
    ``1 + 1 + 1`` that reads as ``(1 + 1) + 1``."""
    height = 1 + max(heights)
    if height > MAX_DEPTH:
        raise ParseError(f"nesting deeper than {MAX_DEPTH} levels",
                         tok.line, tok.col)
    return height


def _parse_factor(cur: _Cursor) -> tuple[RateExpr, int]:
    tok = cur.peek()
    pos = (tok.line, tok.col)
    if tok.text in ("-", "("):
        cur.descend()
        if tok.text == "-":
            operand, height = _parse_factor(cur)
            expr = BinOp("-", Num(0, pos), operand, pos)
            height = _node(tok, height)
        else:
            expr, height = _parse_chain(cur, 1)
            cur.expect_sym(")")
        cur.depth -= 1
        return expr, height
    if tok.kind == "NUMBER":
        return Num(_number(cur), pos), 0
    if tok.kind != "IDENT":
        raise ParseError(f"expected a rate expression, found {tok.text!r}",
                         *pos)
    if tok.text == "if":
        return _parse_guard(cur)
    if tok.text in _RATE_KEYWORDS:
        raise ParseError(f"misplaced keyword '{tok.text}'", *pos)
    cur.next()
    return Name(tok.text, pos), 0


def _parse_guard(cur: _Cursor) -> tuple[RateExpr, int]:
    tok = cur.descend()  # 'if'
    count = cur.expect_ident("count variable").text
    cur.expect_sym("==")
    zero = cur.peek()
    if zero.kind != "NUMBER" or _number(cur) != 0:
        raise ParseError("guard must compare against 0", zero.line, zero.col)
    _expect_keyword(cur, "then")
    then, then_height = _parse_chain(cur, 1)
    _expect_keyword(cur, "else")
    orelse, else_height = _parse_chain(cur, 1)
    cur.depth -= 1
    return (IfZero(count, then, orelse, (tok.line, tok.col)),
            _node(tok, then_height, else_height))


def parse_rate(text: str) -> RateExpr:
    """Parse a standalone rate expression."""
    return _parse_whole(text, _parse_expr)


# ---------------------------------------------------------------------------
# printers

def print_term(t: Term) -> str:
    """Canonical printed form; parses back to ``canonicalize(t)``."""
    t = canonicalize(t)
    if t.is_empty():
        return "eps"
    return " | ".join(f"{n} * {_component_text(comp)}" if n > 1
                      else _component_text(comp)
                      for comp, n in component_counts(t).items())


def _component_text(comp: Union[Seq, Loop]) -> str:
    if isinstance(comp, Seq):
        return ".".join(comp.elems)
    return _loop_text(".".join(comp.membrane),
                      not comp.content.is_empty()
                      and print_term(comp.content))


def _loop_text(membrane: str, inner) -> str:
    """``inner`` is the printed content, or falsy when it is empty."""
    return f"<{membrane}>[ {inner} ]" if inner else f"<{membrane}>[eps]"


def print_pattern(p: Pattern) -> str:
    """Printed form of a pattern, preserving item order."""
    if not p.items:
        return "eps"
    return " | ".join(_item_text(item) for item in p.items)


def _item_text(item) -> str:
    if isinstance(item, PTermVar):
        return f"${item.name}"
    if isinstance(item, PSeq):
        return _pseq_text(item)
    return _loop_text(_pseq_text(item.membrane),
                      item.content.items and print_pattern(item.content))


def _pseq_text(ps: PSeq) -> str:
    return ".".join(_ATOM_SIGILS[type(atom)] + atom.name for atom in ps.atoms)


def print_rate(expr: RateExpr) -> str:
    return rates.expr_text(expr)


# ---------------------------------------------------------------------------
# model files

_VAR_SIGILS = {"$": VarKind.TERM, "~": VarKind.SEQ, "?": VarKind.ELEM}


def parse_model(text: str) -> ModelFile:
    """Parse and validate a model file.

    Raises :class:`ParseError` on the first syntax error and
    :class:`ModelError` carrying every validation diagnostic otherwise.
    """
    cur = _Cursor(tokenize(text, newlines=True))
    mf = ModelFile()
    seen_init = False
    duplicates: list[str] = []
    while True:
        _skip_newlines(cur)
        tok = cur.next()
        if tok.kind == "EOF":
            break
        if tok.kind != "IDENT":
            raise ParseError(f"expected a directive, found {tok.text!r}",
                             tok.line, tok.col)
        if tok.text == "model":
            mf.name = cur.expect_ident("model name").text
        elif tok.text == "typing":
            cur.expect_sym(":")
            mode = cur.expect_ident("typing mode").text
            if mode not in (POSITIONAL, LITERAL):
                raise ParseError(f"unknown typing mode '{mode}'",
                                 tok.line, tok.col)
            mf.typing = mode
        elif tok.text == "const":
            name = cur.expect_ident("constant name").text
            if name in mf.constants:
                duplicates.append(f"duplicate constant '{name}'")
            cur.expect_sym("=")
            mf.constants[name] = _number(cur, signed=True)
        elif tok.text == "type":
            elem = cur.expect_ident("element name").text
            if elem in mf.type_decls:
                duplicates.append(f"duplicate type declaration for '{elem}'")
            cur.expect_sym(":")
            mf.type_decls[elem] = cur.expect_ident("type name").text
        elif tok.text == "rule":
            mf.rules.append(_parse_rule(cur, tok))
        elif tok.text == "init":
            if seen_init:
                duplicates.append("duplicate init directive")
            cur.expect_sym(":")
            mf.init = _parse_ground(cur)
            seen_init = True
        elif tok.text == "observe":
            mf.observables += [
                ObservableSpec(name.text) for name in
                _separated(cur, ",", _Cursor.expect_ident, "element name")]
        elif tok.text == "run":
            _parse_run_block(cur, mf)
        else:
            raise ParseError(f"unknown directive '{tok.text}'",
                             tok.line, tok.col)
        _expect_end(cur)
    diagnostics = duplicates + validate_model(mf)
    if not seen_init:
        diagnostics.insert(0, "model has no init directive")
    if diagnostics:
        raise ModelError(diagnostics)
    return mf


def _skip_newlines(cur: _Cursor) -> None:
    while cur.peek().kind == "NEWLINE":
        cur.next()


# the fields a rule must have, in the order a missing one is reported
_RULE_FIELDS = {"lhs": lambda cur: _parse_par(cur, True),
                "rhs": lambda cur: _parse_par(cur, True),
                "rate": _parse_expr}


def _parse_rule(cur: _Cursor, rule_tok: Token) -> RewriteRule:
    rid = cur.expect_ident("rule id").text
    cur.expect_sym("{")
    fields = {}
    counts: list[CountDecl] = []
    while True:
        _skip_newlines(cur)
        if cur.take_sym("}"):
            break
        field_tok = cur.expect_ident("rule field (lhs, rhs, count, rate)")
        if field_tok.text == "count":
            counts.append(_parse_count_block(cur))
        elif field_tok.text in _RULE_FIELDS:
            cur.expect_sym(":")
            fields[field_tok.text] = _RULE_FIELDS[field_tok.text](cur)
        else:
            raise ParseError(f"unknown rule field '{field_tok.text}'",
                             field_tok.line, field_tok.col)
        _expect_end(cur)
    missing = [name for name in _RULE_FIELDS if name not in fields]
    if missing:
        raise ParseError(f"rule {rid} is missing {', '.join(missing)}",
                         rule_tok.line, rule_tok.col)
    return RewriteRule(rid, fields["lhs"], fields["rhs"], fields["rate"],
                       tuple(counts))


def _parse_count_block(cur: _Cursor) -> CountDecl:
    tok = cur.next()
    if tok.text not in _VAR_SIGILS:
        raise ParseError("expected a variable after 'count'",
                         tok.line, tok.col)
    var = Var(_VAR_SIGILS[tok.text], cur.expect_ident("variable name").text)
    cur.expect_sym("{")
    entries = ([] if cur.at_sym("}")
               else _separated(cur, ",", _parse_count_entry))
    cur.expect_sym("}")
    return CountDecl(var, tuple(entries))


def _parse_count_entry(cur: _Cursor) -> tuple[TypeName, str]:
    tok = cur.expect_ident("type name")
    tname = TypeName(tok.text)
    if tok.text == "seq" and cur.take_sym("("):
        tname = TypeName(cur.expect_ident("type name").text, True)
        cur.expect_sym(")")
    cur.expect_sym("->")
    return tname, cur.expect_ident("count variable name").text


_RUN_FIELDS = {"seed": int, "tmax": float, "max_steps": int, "samples": int}


def _parse_run_block(cur: _Cursor, mf: ModelFile) -> None:
    cur.expect_sym("{")
    _skip_newlines(cur)
    if not cur.at_sym("}"):
        _separated(cur, ",", _parse_run_field, mf)
    cur.expect_sym("}")


def _parse_run_field(cur: _Cursor, mf: ModelFile) -> None:
    """One ``name: value`` field; line breaks may surround it."""
    _skip_newlines(cur)
    tok = cur.expect_ident("run field")
    if tok.text not in _RUN_FIELDS:
        raise ParseError(f"unknown run field '{tok.text}'", tok.line, tok.col)
    cur.expect_sym(":")
    value = _number(cur, signed=True)
    if _RUN_FIELDS[tok.text] is int:
        if not value.is_integer():
            raise ParseError(f"run field '{tok.text}' must be an integer",
                             tok.line, tok.col)
        value = int(value)
    mf.run_defaults[tok.text] = value
    _skip_newlines(cur)


def print_model(mf: ModelFile) -> str:
    """Render a model file; parsing it back yields an equivalent model."""
    lines: list[str] = []
    if mf.name:
        lines.append(f"model {mf.name}")
        lines.append("")
    if mf.typing != POSITIONAL:
        lines.append(f"typing: {mf.typing}")
        lines.append("")
    for name, value in mf.constants.items():
        lines.append(f"const {name} = {rates.format_number(value)}")
    if mf.constants:
        lines.append("")
    for elem, tname in mf.type_decls.items():
        lines.append(f"type {elem} : {tname}")
    if mf.type_decls:
        lines.append("")
    for rule in mf.rules:
        lines.append(f"rule {rule.id} {{")
        lines.append(f"  lhs: {print_pattern(rule.lhs)}")
        lines.append(f"  rhs: {print_pattern(rule.rhs)}")
        for decl in rule.counts:
            entries = ", ".join(f"{tn} -> {name}" for tn, name in decl.entries)
            lines.append(f"  count {decl.var} {{ {entries} }}")
        lines.append(f"  rate: {print_rate(rule.rate)}")
        lines.append("}")
        lines.append("")
    lines.append(f"init: {print_term(mf.init)}")
    if mf.observables:
        lines.append("observe " + ", ".join(o.element for o in mf.observables))
    if mf.run_defaults:
        fields = ", ".join(f"{k}: {rates.format_number(v)}"
                           for k, v in mf.run_defaults.items())
        lines.append(f"run {{ {fields} }}")
    return "\n".join(lines) + "\n"
