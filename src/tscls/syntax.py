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
from operator import attrgetter
from typing import Union

from . import rates
from .errors import ModelError, ParseError
from .model import ModelFile, ObservableSpec, validate_model
from .patterns import (ElemLit, ElemVar, Pattern, PLoop, PSeq, PTermVar,
                       SeqVar, Var, VarKind)
from .rates import BinOp, IfZero, Name, Num, RateExpr
from .semantics import LITERAL, POSITIONAL, CountDecl, RewriteRule
from .terms import (Component, Loop, Seq, Table, Term, TypeName,
                    canonicalize, component_counts, counted, min_rotation)

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

# multiplicities are below this, as a count of copies must fit in a signed
# 64-bit index
MULT_LIMIT = 1 << 63

# (kind, text, line, col); kind is IDENT NUMBER SYM NEWLINE or EOF. Only
# a SYM token's text is a symbol, so a symbol is tested by its text alone.
Token = tuple[str, str, int, int]


def tokenize(text: str, newlines: bool = False) -> list[Token]:
    """Lex the input. With ``newlines`` set, line breaks become tokens
    (model files are newline-structured); otherwise they are whitespace.
    Numbers are decimal digits; an identifier starts with a letter."""
    toks: list[Token] = []
    append = toks.append
    line, line_start, end = 1, 0, len(text)
    # in ASCII text the IDENT pattern matches letters first and nothing else
    letters = text.isascii()
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "IDENT" or kind == "SYM" or kind == "NUMBER":
            start = m.start(kind)
            if letters or kind != "IDENT" or text[start].isalpha():
                append((kind, m.group(kind), line, start - line_start + 1))
                continue
        elif kind == "NEWLINE":
            if newlines and toks and toks[-1][0] != "NEWLINE":
                append((kind, "\n", line, m.start(kind) - line_start + 1))
            line, line_start = line + 1, m.end()
            continue
        elif kind == "COMMENT":
            end = m.start(kind)
            continue
        elif kind is None:
            continue
        else:
            start = m.start(kind)
        # a BAD character, or an IDENT that starts with a digit such as '²'
        raise ParseError(f"unexpected character {text[start]!r}",
                         line, start - line_start + 1)
    col = end - line_start + 1
    if newlines and toks and toks[-1][0] != "NEWLINE":
        append(("NEWLINE", "\n", line, col))
    append(("EOF", "", line, col))
    return toks


class _Cursor:
    """Token stream with one-token lookahead helpers."""

    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.i = 0
        self.depth = 0

    def next(self) -> Token:
        tok = self.toks[self.i]
        if tok[0] != "EOF":
            self.i += 1
        return tok

    def at_sym(self, text: str) -> bool:
        return self.toks[self.i][1] == text

    def take_sym(self, text: str) -> bool:
        if self.toks[self.i][1] == text:
            self.i += 1
            return True
        return False

    def expect_sym(self, text: str) -> Token:
        tok = self.toks[self.i]
        if tok[1] == text:
            self.i += 1
            return tok
        _, found, line, col = tok
        raise ParseError(f"expected {text!r}, found {found!r}", line, col)

    def expect_ident(self, what: str) -> Token:
        tok = self.toks[self.i]
        if tok[0] == "IDENT":
            self.i += 1
            return tok
        _, found, line, col = tok
        raise ParseError(f"expected {what}, found {found!r}", line, col)

    def descend(self) -> Token:
        """Take the token that opens a nested construct; the caller
        decrements ``depth`` when the construct ends."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.fail(f"nesting deeper than {MAX_DEPTH} levels")
        return self.next()

    def fail(self, message: str):
        _, _, line, col = self.toks[self.i]
        raise ParseError(message, line, col)


def _expect_end(cur: _Cursor) -> None:
    """Take the line end, or check that the input ends here."""
    kind, text, line, col = cur.next()
    if kind != "NEWLINE" and kind != "EOF":
        raise ParseError(f"unexpected trailing input {text!r}", line, col)


def _expect_keyword(cur: _Cursor, word: str) -> None:
    _, text, line, col = cur.expect_ident(f"'{word}'")
    if text != word:
        raise ParseError(f"expected '{word}'", line, col)


def _number(cur: _Cursor, signed: bool = False, finite: bool = False
            ) -> Union[int, float]:
    """Read a number literal. A signed one, after an optional '-', is a
    float. An unsigned one is an int when written as digits alone, and a
    float otherwise. That int, and with ``finite`` (as for a rate or a
    constant) every literal, must be finite as a float."""
    negative = signed and cur.take_sym("-")
    kind, text, line, col = cur.next()
    if kind != "NUMBER":
        raise ParseError("expected a number", line, col)
    value = float(text)
    whole = not signed and text.isdecimal()
    if math.isinf(value) and (finite or whole):
        raise ParseError("number out of range", line, col)
    if signed:
        return -value if negative else value
    return int(text) if whole else value


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
#
# One grammar reads both, and a parallel composition is read into its
# distinct items and their counts: a pattern (``allow_vars``) of pattern
# items, a ground term of components. In a ground term each sequence is
# its element names, each membrane is taken at its least rotation, and
# the composition is the canonical term of its multiset, so the size of
# a term or a pattern does not change the cost of reading it.

_ATOM_SIGILS = {ElemLit: "", ElemVar: "?", SeqVar: "~"}
_ATOM_VARS = {sigil: cls for cls, sigil in _ATOM_SIGILS.items() if sigil}
_KEY = attrgetter("key")


def _parse_par(cur: _Cursor, allow_vars: bool) -> Union[Pattern, Term]:
    items = [_parse_item(cur, allow_vars)]
    while cur.take_sym("|"):
        items.append(_parse_item(cur, allow_vars))
    if allow_vars:
        return Pattern(*zip(*items))
    counts: dict[Component, int] = {}
    for comp, n in items:
        if n:
            counts[comp] = counts.get(comp, 0) + n
    return counted({comp: counts[comp] for comp in sorted(counts, key=_KEY)})


def _parse_item(cur: _Cursor, allow_vars: bool) -> tuple:
    """One parallel item and its multiplicity; ``eps`` is ``(None, 0)``."""
    mult = 1
    kind, text, line, col = cur.toks[cur.i]
    if kind == "NUMBER":
        mult = _number(cur)
        if isinstance(mult, float):
            raise ParseError("multiplicity must be an integer", line, col)
        if mult < 1:
            raise ParseError("multiplicity must be positive", line, col)
        if mult >= MULT_LIMIT:
            raise ParseError("multiplicity must be below 2^63", line, col)
        cur.expect_sym("*")
        text = cur.toks[cur.i][1]
    if text == "eps":
        cur.i += 1  # the empty term contributes no components
        return None, 0
    if text == "$":
        if not allow_vars:
            cur.fail("variables are not allowed in a ground term")
        cur.i += 1
        return PTermVar(cur.expect_ident("variable name")[1]), mult
    if text == "<":
        return _parse_loop(cur, allow_vars), mult
    atoms = _parse_seq(cur, allow_vars, membrane=False)
    return (PSeq(atoms) if allow_vars else Seq(atoms)), mult


def _parse_loop(cur: _Cursor, allow_vars: bool) -> Union[PLoop, Loop]:
    _, _, line, col = cur.descend()
    if cur.at_sym(">"):
        raise ParseError("loop membrane must be a non-empty sequence",
                         line, col)
    membrane = _parse_seq(cur, allow_vars, membrane=True)
    cur.expect_sym(">")
    if cur.take_sym("["):
        content = _parse_par(cur, allow_vars)
        cur.expect_sym("]")
    else:  # <S> abbreviates <S>[eps]
        content = Pattern(()) if allow_vars else counted({})
    cur.depth -= 1
    if allow_vars:
        return PLoop(PSeq(membrane), content)
    return Loop(min_rotation(membrane), content)


def _parse_seq(cur: _Cursor, allow_vars: bool, membrane: bool) -> tuple:
    """The atoms of a sequence: pattern atoms, or element names."""
    return tuple(_separated(cur, ".", _parse_atom, allow_vars, membrane))


def _parse_atom(cur: _Cursor, allow_vars: bool, membrane: bool):
    kind, text, line, col = cur.next()
    if kind == "IDENT":
        if text == "eps":
            where = "a membrane" if membrane else "a sequence"
            raise ParseError(f"'eps' cannot occur inside {where}", line, col)
        return ElemLit(text) if allow_vars else text
    var = _ATOM_VARS.get(text)
    if var is not None:
        if not allow_vars:
            raise ParseError("variables are not allowed in a ground term",
                             line, col)
        return var(cur.expect_ident("variable name")[1])
    if text == "$":
        raise ParseError("term variable '$' cannot occur inside a sequence",
                         line, col)
    raise ParseError(f"expected an element, found {text!r}", line, col)


def parse_pattern(text: str) -> Pattern:
    """Parse a rewrite-rule pattern."""
    return _parse_whole(text, _parse_par, True)


def parse_term(text: str) -> Term:
    """Parse a ground term; the result is canonical."""
    return _parse_whole(text, _parse_par, False)


# ---------------------------------------------------------------------------
# rate expressions

_RATE_KEYWORDS = {"if", "then", "else"}


def _parse_expr(cur: _Cursor) -> RateExpr:
    return _parse_chain(cur, 1)[0]


def _parse_chain(cur: _Cursor, min_prec: int) -> tuple[RateExpr, int]:
    """Precedence climbing over ``rates.PREC``; operators associate to the
    left. Returns the expression and its height (see :func:`_node`)."""
    left, height = _parse_factor(cur)
    while (prec := rates.PREC.get(cur.toks[cur.i][1], 0)) >= min_prec:
        _, op, line, col = cur.next()
        right, right_height = _parse_chain(cur, prec + 1)
        height = _node((line, col), height, right_height)
        left = BinOp(op, left, right, (line, col))
    return left, height


def _node(pos: tuple[int, int], *heights: int) -> int:
    """The height of an operator or guard node at ``pos`` over subtrees
    of the given heights, a leaf's being 0. The tree is walked recursively
    (names, compilation, printing, evaluation), so its height is held to
    ``MAX_DEPTH`` even where the parser reads it in a loop, as in a chain
    ``1 + 1 + 1`` that reads as ``(1 + 1) + 1``."""
    height = 1 + max(heights)
    if height > MAX_DEPTH:
        raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", *pos)
    return height


def _parse_factor(cur: _Cursor) -> tuple[RateExpr, int]:
    kind, text, line, col = cur.toks[cur.i]
    pos = (line, col)
    if text == "-" or text == "(":
        cur.descend()
        if text == "-":
            operand, height = _parse_factor(cur)
            expr = BinOp("-", Num(0, pos), operand, pos)
            height = _node(pos, height)
        else:
            expr, height = _parse_chain(cur, 1)
            cur.expect_sym(")")
        cur.depth -= 1
        return expr, height
    if kind == "NUMBER":
        return Num(_number(cur, finite=True), pos), 0
    if kind != "IDENT":
        raise ParseError(f"expected a rate expression, found {text!r}", *pos)
    if text == "if":
        return _parse_guard(cur)
    if text in _RATE_KEYWORDS:
        raise ParseError(f"misplaced keyword '{text}'", *pos)
    cur.i += 1
    return Name(text, pos), 0


def _parse_guard(cur: _Cursor) -> tuple[RateExpr, int]:
    _, _, line, col = cur.descend()  # 'if'
    count = cur.expect_ident("count variable")[1]
    cur.expect_sym("==")
    kind, _, zero_line, zero_col = cur.toks[cur.i]
    if kind != "NUMBER" or _number(cur) != 0:
        raise ParseError("guard must compare against 0", zero_line, zero_col)
    _expect_keyword(cur, "then")
    then, then_height = _parse_chain(cur, 1)
    _expect_keyword(cur, "else")
    orelse, else_height = _parse_chain(cur, 1)
    cur.depth -= 1
    return (IfZero(count, then, orelse, (line, col)),
            _node((line, col), then_height, else_height))


def parse_rate(text: str) -> RateExpr:
    """Parse a standalone rate expression."""
    return _parse_whole(text, _parse_expr)


# ---------------------------------------------------------------------------
# printers

def print_term(t: Term) -> str:
    """Canonical printed form; parses back to ``canonicalize(t)``."""
    return _par_text(component_counts(canonicalize(t)).items(),
                     _component_text)


def _par_text(counted_items, text) -> str:
    """A parallel composition of ``(item, count)`` pairs, each item
    printed by ``text`` and prefixed ``n *`` when its count n is above 1."""
    return " | ".join(f"{n} * {text(item)}" if n > 1 else text(item)
                      for item, n in counted_items) or "eps"


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
    return _par_text(zip(p.items, p.counts), _item_text)


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


# per model text parsed without error, its model as first parsed, whose
# rules every later parse of the text hands out
_FILES = Table()


def parse_model(text: str) -> ModelFile:
    """Parse and validate a model file.

    Every parse returns a new model, which its caller may change. A text
    the process parsed before without error is neither tokenized, parsed
    nor validated: its model has the rules of the text's first parse,
    which are frozen, so each rule's plan and compiled rate are made once
    while the text is kept, and an initial term of its own (see
    :func:`_fresh_term`).

    Raises :class:`ParseError` on the first syntax error and
    :class:`ModelError` carrying every validation diagnostic otherwise.
    """
    kept = _FILES.get(text)
    if kept is not None:
        return _copied(kept, _fresh_term(kept.init))
    source = text  # below, text is that of each directive's first token
    cur = _Cursor(tokenize(text, newlines=True))
    mf = ModelFile()
    seen_init = False
    duplicates: list[str] = []
    while True:
        _skip_newlines(cur)
        kind, text, line, col = cur.next()
        if kind == "EOF":
            break
        if kind != "IDENT":
            raise ParseError(f"expected a directive, found {text!r}",
                             line, col)
        if text == "model":
            mf.name = cur.expect_ident("model name")[1]
        elif text == "typing":
            cur.expect_sym(":")
            mode = cur.expect_ident("typing mode")[1]
            if mode not in (POSITIONAL, LITERAL):
                raise ParseError(f"unknown typing mode '{mode}'", line, col)
            mf.typing = mode
        elif text == "const":
            name = cur.expect_ident("constant name")[1]
            if name in mf.constants:
                duplicates.append(f"duplicate constant '{name}'")
            cur.expect_sym("=")
            mf.constants[name] = _number(cur, signed=True, finite=True)
        elif text == "type":
            elem = cur.expect_ident("element name")[1]
            if elem in mf.type_decls:
                duplicates.append(f"duplicate type declaration for '{elem}'")
            cur.expect_sym(":")
            mf.type_decls[elem] = cur.expect_ident("type name")[1]
        elif text == "rule":
            mf.rules.append(_parse_rule(cur, line, col))
        elif text == "init":
            if seen_init:
                duplicates.append("duplicate init directive")
            cur.expect_sym(":")
            mf.init = _parse_par(cur, allow_vars=False)
            seen_init = True
        elif text == "observe":
            mf.observables += [
                ObservableSpec(name[1]) for name in
                _separated(cur, ",", _Cursor.expect_ident, "element name")]
        elif text == "run":
            _parse_run_block(cur, mf)
        else:
            raise ParseError(f"unknown directive '{text}'", line, col)
        _expect_end(cur)
    diagnostics = duplicates + validate_model(mf)
    if not seen_init:
        diagnostics.insert(0, "model has no init directive")
    if diagnostics:
        raise ModelError(diagnostics)
    # the caller's own init is kept: later parses copy it, so a single
    # check or run copies none
    _FILES[source] = _copied(mf, mf.init)
    return mf


def _copied(mf: ModelFile, init: Term) -> ModelFile:
    """``mf`` with its own dicts and lists, the same rules, and ``init``."""
    return ModelFile(mf.name, dict(mf.constants), dict(mf.type_decls),
                     list(mf.rules), init, list(mf.observables),
                     dict(mf.run_defaults), mf.typing)


def _fresh_term(t: Term) -> Term:
    """A term equal to ``t`` whose terms and loops are new, so what a run
    leaves on the compartments of one is not on the other's. Sequences,
    which hold nothing of a run, are shared."""
    return counted({
        comp if isinstance(comp, Seq)
        else Loop(comp.membrane, _fresh_term(comp.content)): n
        for comp, n in component_counts(t).items()})


def _skip_newlines(cur: _Cursor) -> None:
    toks = cur.toks
    while toks[cur.i][0] == "NEWLINE":
        cur.i += 1


# the fields a rule must have, in the order a missing one is reported
_RULE_FIELDS = {"lhs": lambda cur: _parse_par(cur, True),
                "rhs": lambda cur: _parse_par(cur, True),
                "rate": _parse_expr}


def _parse_rule(cur: _Cursor, line: int, col: int) -> RewriteRule:
    """A rule block, after the 'rule' keyword at ``line``:``col``."""
    rid = cur.expect_ident("rule id")[1]
    cur.expect_sym("{")
    fields = {}
    counts: list[CountDecl] = []
    while True:
        _skip_newlines(cur)
        if cur.take_sym("}"):
            break
        _, field, field_line, field_col = cur.expect_ident(
            "rule field (lhs, rhs, count, rate)")
        if field == "count":
            counts.append(_parse_count_block(cur))
        elif field in _RULE_FIELDS:
            cur.expect_sym(":")
            fields[field] = _RULE_FIELDS[field](cur)
        else:
            raise ParseError(f"unknown rule field '{field}'",
                             field_line, field_col)
        _expect_end(cur)
    missing = [name for name in _RULE_FIELDS if name not in fields]
    if missing:
        raise ParseError(f"rule {rid} is missing {', '.join(missing)}",
                         line, col)
    return RewriteRule(rid, fields["lhs"], fields["rhs"], fields["rate"],
                       tuple(counts))


def _parse_count_block(cur: _Cursor) -> CountDecl:
    _, sigil, line, col = cur.next()
    if sigil not in _VAR_SIGILS:
        raise ParseError("expected a variable after 'count'", line, col)
    var = Var(_VAR_SIGILS[sigil], cur.expect_ident("variable name")[1])
    cur.expect_sym("{")
    entries = ([] if cur.at_sym("}")
               else _separated(cur, ",", _parse_count_entry))
    cur.expect_sym("}")
    return CountDecl(var, tuple(entries))


def _parse_count_entry(cur: _Cursor) -> tuple[TypeName, str]:
    name = cur.expect_ident("type name")[1]
    tname = TypeName(name)
    if name == "seq" and cur.take_sym("("):
        tname = TypeName(cur.expect_ident("type name")[1], True)
        cur.expect_sym(")")
    cur.expect_sym("->")
    return tname, cur.expect_ident("count variable name")[1]


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
    _, name, line, col = cur.expect_ident("run field")
    if name not in _RUN_FIELDS:
        raise ParseError(f"unknown run field '{name}'", line, col)
    cur.expect_sym(":")
    value = _number(cur, signed=True)
    if _RUN_FIELDS[name] is int:
        if not value.is_integer():
            raise ParseError(f"run field '{name}' must be an integer",
                             line, col)
        value = int(value)
    mf.run_defaults[name] = value
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
