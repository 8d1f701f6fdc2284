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

from dataclasses import dataclass
from typing import Optional, Union

from . import rates
from .errors import ModelError, ParseError
from .model import ModelFile, ObservableSpec
from .patterns import (ElemLit, ElemVar, Pattern, PLoop, PSeq, PTermVar,
                       SeqVar, Var, VarKind)
from .rates import BinOp, IfZero, Name, Num, RateExpr
from .semantics import LITERAL, POSITIONAL, CountDecl, RewriteRule
from .terms import Loop, Seq, Term, TypeName, canonicalize
from .model import validate_model

# ---------------------------------------------------------------------------
# tokenizer

_TWO_CHAR = ("->", "==")
_ONE_CHAR = set("|.*<>[]{}(),:=$~?/+-")


@dataclass
class Token:
    kind: str  # IDENT NUMBER SYM NEWLINE EOF
    text: str
    line: int
    col: int


def tokenize(text: str, newlines: bool = False) -> list[Token]:
    """Lex the input. With ``newlines`` set, line breaks become tokens
    (model files are newline-structured); otherwise they are whitespace."""
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            if newlines and toks and toks[-1].kind != "NEWLINE":
                toks.append(Token("NEWLINE", "\n", line, col))
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text[i:i + 2] in _TWO_CHAR:
            toks.append(Token("SYM", text[i:i + 2], line, col))
            i += 2
            col += 2
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            toks.append(Token("NUMBER", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _ONE_CHAR:
            toks.append(Token("SYM", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    if newlines and toks and toks[-1].kind != "NEWLINE":
        toks.append(Token("NEWLINE", "\n", line, col))
    toks.append(Token("EOF", "", line, col))
    return toks


class _Cursor:
    """Token stream with one-token lookahead helpers."""

    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.i = 0

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

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind == "IDENT":
            return self.next()
        raise ParseError(f"expected {what}, found {tok.text!r}",
                         tok.line, tok.col)

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)


# ---------------------------------------------------------------------------
# terms and patterns

_TERM_STOP = {"NEWLINE", "EOF"}


def _parse_par(cur: _Cursor, allow_vars: bool) -> Pattern:
    items: list = []
    items.extend(_parse_item(cur, allow_vars))
    while cur.take_sym("|"):
        items.extend(_parse_item(cur, allow_vars))
    return Pattern(tuple(items))


def _parse_item(cur: _Cursor, allow_vars: bool) -> list:
    mult = 1
    tok = cur.peek()
    if tok.kind == "NUMBER":
        cur.next()
        if "." in tok.text or "e" in tok.text or "E" in tok.text:
            raise ParseError("multiplicity must be an integer",
                             tok.line, tok.col)
        mult = int(tok.text)
        if mult < 1:
            raise ParseError("multiplicity must be positive",
                             tok.line, tok.col)
        cur.expect_sym("*")
        tok = cur.peek()
    if tok.kind == "IDENT" and tok.text == "eps":
        cur.next()  # the empty term contributes no components
        return []
    if cur.at_sym("$"):
        if not allow_vars:
            cur.fail("variables are not allowed in a ground term")
        cur.next()
        name = cur.expect_ident("variable name").text
        return [PTermVar(name)] * mult
    if cur.at_sym("<"):
        item = _parse_loop(cur, allow_vars)
    else:
        item = _parse_seq(cur, allow_vars, membrane=False)
    return [item] * mult


def _parse_loop(cur: _Cursor, allow_vars: bool) -> PLoop:
    open_tok = cur.expect_sym("<")
    if cur.at_sym(">"):
        raise ParseError("loop membrane must be a non-empty sequence",
                         open_tok.line, open_tok.col)
    membrane = _parse_seq(cur, allow_vars, membrane=True)
    cur.expect_sym(">")
    if cur.take_sym("["):
        content = _parse_par(cur, allow_vars)
        cur.expect_sym("]")
    else:
        content = Pattern(())  # <S> abbreviates <S>[eps]
    return PLoop(membrane, content)


def _parse_seq(cur: _Cursor, allow_vars: bool, membrane: bool) -> PSeq:
    atoms = [_parse_atom(cur, allow_vars, membrane)]
    while cur.take_sym("."):
        atoms.append(_parse_atom(cur, allow_vars, membrane))
    return PSeq(tuple(atoms))


def _parse_atom(cur: _Cursor, allow_vars: bool, membrane: bool):
    tok = cur.peek()
    if cur.take_sym("~"):
        if not allow_vars:
            raise ParseError("variables are not allowed in a ground term",
                             tok.line, tok.col)
        return SeqVar(cur.expect_ident("variable name").text)
    if cur.take_sym("?"):
        if not allow_vars:
            raise ParseError("variables are not allowed in a ground term",
                             tok.line, tok.col)
        return ElemVar(cur.expect_ident("variable name").text)
    if tok.kind == "IDENT":
        if tok.text == "eps":
            where = "a membrane" if membrane else "a sequence"
            raise ParseError(f"'eps' cannot occur inside {where}",
                             tok.line, tok.col)
        cur.next()
        return ElemLit(tok.text)
    if cur.at_sym("$"):
        raise ParseError("term variable '$' cannot occur inside a sequence",
                         tok.line, tok.col)
    raise ParseError(f"expected an element, found {tok.text!r}",
                     tok.line, tok.col)


def _parse_whole(text: str, allow_vars: bool) -> Pattern:
    cur = _Cursor(tokenize(text))
    p = _parse_par(cur, allow_vars)
    tok = cur.peek()
    if tok.kind != "EOF":
        raise ParseError(f"unexpected trailing input {tok.text!r}",
                         tok.line, tok.col)
    return p


def parse_pattern(text: str) -> Pattern:
    """Parse a rewrite-rule pattern."""
    return _parse_whole(text, allow_vars=True)


def parse_term(text: str) -> Term:
    """Parse a ground term; the result is canonical."""
    p = _parse_whole(text, allow_vars=False)
    return canonicalize(_pattern_term(p))


def _pattern_term(p: Pattern) -> Term:
    comps: list[Union[Seq, Loop]] = []
    for item in p.items:
        if isinstance(item, PSeq):
            comps.append(Seq(tuple(a.name for a in item.atoms)))
        else:
            content = _pattern_term(item.content)
            comps.append(Loop(tuple(a.name for a in item.membrane.atoms),
                              content))
    return Term(comps)


# ---------------------------------------------------------------------------
# rate expressions

_RATE_KEYWORDS = {"if", "then", "else"}


def _parse_rate_expr(cur: _Cursor) -> RateExpr:
    left = _parse_rate_product(cur)
    while True:
        tok = cur.peek()
        if tok.kind == "SYM" and tok.text in "+-":
            cur.next()
            right = _parse_rate_product(cur)
            left = BinOp(tok.text, left, right, (tok.line, tok.col))
        else:
            return left


def _parse_rate_product(cur: _Cursor) -> RateExpr:
    left = _parse_rate_factor(cur)
    while True:
        tok = cur.peek()
        if tok.kind == "SYM" and tok.text in "*/":
            cur.next()
            right = _parse_rate_factor(cur)
            left = BinOp(tok.text, left, right, (tok.line, tok.col))
        else:
            return left


def _parse_rate_factor(cur: _Cursor) -> RateExpr:
    tok = cur.peek()
    if tok.kind == "SYM" and tok.text == "-":
        cur.next()
        inner = _parse_rate_factor(cur)
        return BinOp("-", Num(0, (tok.line, tok.col)), inner,
                     (tok.line, tok.col))
    if tok.kind == "SYM" and tok.text == "(":
        cur.next()
        expr = _parse_rate_expr(cur)
        cur.expect_sym(")")
        return expr
    if tok.kind == "NUMBER":
        cur.next()
        return Num(_number_value(tok), (tok.line, tok.col))
    if tok.kind == "IDENT":
        if tok.text == "if":
            return _parse_rate_guard(cur)
        if tok.text in _RATE_KEYWORDS:
            raise ParseError(f"misplaced keyword '{tok.text}'",
                             tok.line, tok.col)
        cur.next()
        return Name(tok.text, (tok.line, tok.col))
    raise ParseError(f"expected a rate expression, found {tok.text!r}",
                     tok.line, tok.col)


def _parse_rate_guard(cur: _Cursor) -> RateExpr:
    tok = cur.next()  # 'if'
    count = cur.expect_ident("count variable").text
    cur.expect_sym("==")
    zero = cur.peek()
    if zero.kind != "NUMBER" or _number_value(zero) != 0:
        raise ParseError("guard must compare against 0", zero.line, zero.col)
    cur.next()
    kw = cur.expect_ident("'then'")
    if kw.text != "then":
        raise ParseError("expected 'then'", kw.line, kw.col)
    then = _parse_rate_expr(cur)
    kw = cur.expect_ident("'else'")
    if kw.text != "else":
        raise ParseError("expected 'else'", kw.line, kw.col)
    orelse = _parse_rate_expr(cur)
    return IfZero(count, then, orelse, (tok.line, tok.col))


def _number_value(tok: Token) -> float:
    if "." in tok.text or "e" in tok.text or "E" in tok.text:
        return float(tok.text)
    return int(tok.text)


def parse_rate(text: str) -> RateExpr:
    """Parse a standalone rate expression."""
    cur = _Cursor(tokenize(text))
    expr = _parse_rate_expr(cur)
    tok = cur.peek()
    if tok.kind != "EOF":
        raise ParseError(f"unexpected trailing input {tok.text!r}",
                         tok.line, tok.col)
    return expr


# ---------------------------------------------------------------------------
# printers

def print_term(t: Term) -> str:
    """Canonical printed form; parses back to ``canonicalize(t)``."""
    t = canonicalize(t)
    if not t.components:
        return "eps"
    parts: list[str] = []
    run: Optional[object] = None
    count = 0
    for comp in list(t.components) + [None]:
        if comp == run:
            count += 1
            continue
        if run is not None:
            text = _component_text(run)
            parts.append(f"{count} * {text}" if count > 1 else text)
        run, count = comp, 1
    return " | ".join(parts)


def _component_text(comp: Union[Seq, Loop]) -> str:
    if isinstance(comp, Seq):
        return ".".join(comp.elems)
    inner = print_term(comp.content)
    membrane = ".".join(comp.membrane)
    if comp.content.is_empty():
        return f"<{membrane}>[eps]"
    return f"<{membrane}>[ {inner} ]"


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
    inner = print_pattern(item.content)
    membrane = _pseq_text(item.membrane)
    if not item.content.items:
        return f"<{membrane}>[eps]"
    return f"<{membrane}>[ {inner} ]"


def _pseq_text(ps: PSeq) -> str:
    out = []
    for atom in ps.atoms:
        if isinstance(atom, ElemLit):
            out.append(atom.name)
        elif isinstance(atom, ElemVar):
            out.append(f"?{atom.name}")
        else:
            out.append(f"~{atom.name}")
    return ".".join(out)


def print_rate(expr: RateExpr) -> str:
    return rates.expr_text(expr)


def print_type(tn: TypeName) -> str:
    return str(tn)


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
        while cur.peek().kind == "NEWLINE":
            cur.next()
        tok = cur.peek()
        if tok.kind == "EOF":
            break
        if tok.kind != "IDENT":
            cur.fail(f"expected a directive, found {tok.text!r}")
        if tok.text == "model":
            cur.next()
            mf.name = cur.expect_ident("model name").text
        elif tok.text == "typing":
            cur.next()
            cur.expect_sym(":")
            mode = cur.expect_ident("typing mode").text
            if mode not in (POSITIONAL, LITERAL):
                raise ParseError(f"unknown typing mode '{mode}'",
                                 tok.line, tok.col)
            mf.typing = mode
        elif tok.text == "const":
            cur.next()
            name = cur.expect_ident("constant name").text
            if name in mf.constants:
                duplicates.append(f"duplicate constant '{name}'")
            cur.expect_sym("=")
            mf.constants[name] = _parse_signed_number(cur)
        elif tok.text == "type":
            cur.next()
            elem = cur.expect_ident("element name").text
            if elem in mf.type_decls:
                duplicates.append(f"duplicate type declaration for '{elem}'")
            cur.expect_sym(":")
            mf.type_decls[elem] = cur.expect_ident("type name").text
        elif tok.text == "rule":
            mf.rules.append(_parse_rule(cur))
            continue  # closing brace consumed its newline
        elif tok.text == "init":
            if seen_init:
                duplicates.append("duplicate init directive")
            cur.next()
            cur.expect_sym(":")
            init = _parse_par(cur, allow_vars=False)
            mf.init = canonicalize(_pattern_term(init))
            seen_init = True
        elif tok.text == "observe":
            cur.next()
            mf.observables.append(
                ObservableSpec(cur.expect_ident("element name").text))
            while cur.take_sym(","):
                mf.observables.append(
                    ObservableSpec(cur.expect_ident("element name").text))
        elif tok.text == "run":
            cur.next()
            _parse_run_block(cur, mf)
        else:
            cur.fail(f"unknown directive '{tok.text}'")
        _expect_line_end(cur)
    diagnostics = duplicates + validate_model(mf)
    if not seen_init:
        diagnostics.insert(0, "model has no init directive")
    if diagnostics:
        raise ModelError(diagnostics)
    return mf


def _expect_line_end(cur: _Cursor) -> None:
    tok = cur.peek()
    if tok.kind in ("NEWLINE", "EOF"):
        if tok.kind == "NEWLINE":
            cur.next()
        return
    raise ParseError(f"unexpected trailing input {tok.text!r}",
                     tok.line, tok.col)


def _parse_signed_number(cur: _Cursor) -> float:
    sign = -1.0 if cur.take_sym("-") else 1.0
    tok = cur.peek()
    if tok.kind != "NUMBER":
        cur.fail("expected a number")
    cur.next()
    return sign * float(tok.text)


def _skip_newlines(cur: _Cursor) -> None:
    while cur.peek().kind == "NEWLINE":
        cur.next()


def _parse_rule(cur: _Cursor) -> RewriteRule:
    rule_tok = cur.next()  # 'rule'
    rid = cur.expect_ident("rule id").text
    cur.expect_sym("{")
    lhs = rhs = None
    rate: Optional[RateExpr] = None
    counts: list[CountDecl] = []
    while True:
        _skip_newlines(cur)
        if cur.take_sym("}"):
            break
        field_tok = cur.expect_ident("rule field (lhs, rhs, count, rate)")
        if field_tok.text == "lhs":
            cur.expect_sym(":")
            lhs = _parse_par(cur, allow_vars=True)
        elif field_tok.text == "rhs":
            cur.expect_sym(":")
            rhs = _parse_par(cur, allow_vars=True)
        elif field_tok.text == "count":
            counts.append(_parse_count_block(cur))
        elif field_tok.text == "rate":
            cur.expect_sym(":")
            rate = _parse_rate_expr(cur)
        else:
            raise ParseError(f"unknown rule field '{field_tok.text}'",
                             field_tok.line, field_tok.col)
        _expect_line_end(cur)
    missing = [name for name, value in
               (("lhs", lhs), ("rhs", rhs), ("rate", rate)) if value is None]
    if missing:
        raise ParseError(f"rule {rid} is missing {', '.join(missing)}",
                         rule_tok.line, rule_tok.col)
    _expect_line_end(cur)
    return RewriteRule(rid, lhs, rhs, rate, tuple(counts))


def _parse_count_block(cur: _Cursor) -> CountDecl:
    tok = cur.peek()
    if tok.kind != "SYM" or tok.text not in _VAR_SIGILS:
        cur.fail("expected a variable after 'count'")
    cur.next()
    kind = _VAR_SIGILS[tok.text]
    var = Var(kind, cur.expect_ident("variable name").text)
    cur.expect_sym("{")
    entries: list[tuple[TypeName, str]] = []
    if not cur.at_sym("}"):
        entries.append(_parse_count_entry(cur))
        while cur.take_sym(","):
            entries.append(_parse_count_entry(cur))
    cur.expect_sym("}")
    return CountDecl(var, tuple(entries))


def _parse_count_entry(cur: _Cursor) -> tuple[TypeName, str]:
    tname = _parse_type_name(cur)
    cur.expect_sym("->")
    count_name = cur.expect_ident("count variable name").text
    return tname, count_name


def _parse_type_name(cur: _Cursor) -> TypeName:
    tok = cur.expect_ident("type name")
    if tok.text == "seq" and cur.take_sym("("):
        base = cur.expect_ident("type name").text
        cur.expect_sym(")")
        return TypeName(base, True)
    return TypeName(tok.text)


_RUN_FIELDS = {"seed": int, "tmax": float, "max_steps": int, "samples": int}


def _parse_run_block(cur: _Cursor, mf: ModelFile) -> None:
    cur.expect_sym("{")
    _skip_newlines(cur)
    if not cur.at_sym("}"):
        _parse_run_field(cur, mf)
        while True:
            _skip_newlines(cur)
            if not cur.take_sym(","):
                break
            _skip_newlines(cur)
            _parse_run_field(cur, mf)
        _skip_newlines(cur)
    cur.expect_sym("}")


def _parse_run_field(cur: _Cursor, mf: ModelFile) -> None:
    tok = cur.expect_ident("run field")
    if tok.text not in _RUN_FIELDS:
        raise ParseError(f"unknown run field '{tok.text}'", tok.line, tok.col)
    cur.expect_sym(":")
    value = _parse_signed_number(cur)
    caster = _RUN_FIELDS[tok.text]
    if caster is int:
        if value != int(value):
            raise ParseError(f"run field '{tok.text}' must be an integer",
                             tok.line, tok.col)
        value = int(value)
    mf.run_defaults[tok.text] = value


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
