"""Concrete syntax: parsing and printing of terms, patterns, rates, models."""

import contextlib
import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tscls import (Loop, ModelError, ParseError, Pattern, PLoop, PSeq,
                   PTermVar, RateEvalError, Seq, SeqVar, SimConfig, Term,
                   canonicalize, congruent, evaluate, lac_operon_source,
                   lits, parse_model, parse_pattern, parse_rate, parse_term,
                   print_model, print_pattern, print_rate, print_term, pat,
                   simulate, svar, tvar, validate_model)
from tscls import semantics, syntax
from tscls.rates import BinOp, IfZero, Name, Num
from tscls.terms import Table, component_counts

from conftest import (CELLS, LONG_RATES, RATE_MODEL, ROOT, load_perfbench,
                      random_term)


class TestParseTerm:
    def test_figure_nested(self):
        t = parse_term("<a.b.c>[ <d.e>[eps] | f.g ]")
        want = Term((Loop(("a", "b", "c"),
                          Term((Loop(("d", "e"), Term(())), Seq(("f", "g"))))),))
        assert t == canonicalize(want)

    def test_eps(self):
        assert parse_term("eps") == Term(())

    def test_multiplicity_sugar(self):
        t = parse_term("100 * LACT | <m>[ lacI ]")
        bare = [c for c in t.components if c == Seq(("LACT",))]
        assert len(bare) == 100

    def test_result_is_canonical(self):
        t = parse_term("b | a")
        assert print_term(t) == "a | b"

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(ParseError):
            parse_term("0 * a")

    def test_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_term("a |")
        assert "1:" in str(exc.value)

    def test_empty_membrane_rejected(self):
        with pytest.raises(ParseError):
            parse_term("<>[a]")

    def test_variables_rejected_in_terms(self):
        with pytest.raises(ParseError):
            parse_term("a | $X")

    def test_multiplicities_cost_nothing_to_read(self):
        # a ground term is read into its component multiset: its copies
        # are never listed, so two million of them take no memory
        text = "init: 1000000 * a | <m>[ 1000000 * b ]\nobserve a\n"
        tracemalloc.start()
        try:
            mf = parse_model(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert print_term(mf.init) == "1000000 * a | <m>[ 1000000 * b ]"
        cell, = (c for c in component_counts(mf.init) if isinstance(c, Loop))
        assert component_counts(mf.init) == {Seq(("a",)): 1000000, cell: 1}
        assert component_counts(cell.content) == {Seq(("b",)): 1000000}
        # the largest multiplicity there is, read as cheaply
        assert component_counts(parse_term(f"{2 ** 63 - 1} * a")) \
            == {Seq(("a",)): 2 ** 63 - 1}


class TestParsePattern:
    def test_eq1_lhs(self):
        assert parse_pattern("a | $X") == pat(lits("a"), tvar("X"))

    def test_sequence_pattern(self):
        assert parse_pattern("a.~x") == pat(PSeq((lits("a").atoms[0],
                                                  svar("x"))))

    def test_r13_lhs(self):
        p = parse_pattern("<~x>[ perm | $X ] | $Y")
        want = Pattern((PLoop(PSeq((SeqVar("x"),)),
                              Pattern((lits("perm"), PTermVar("X")))),
                        PTermVar("Y")))
        assert p == want

    def test_term_var_inside_sequence_rejected(self):
        with pytest.raises(ParseError):
            parse_pattern("a.$X")

    def test_loop_shortcut_is_empty_content(self):
        assert parse_pattern("<a.b>") == parse_pattern("<a.b>[eps]")


class TestPrintTerm:
    def test_empty(self):
        assert print_term(Term(())) == "eps"

    def test_multiplicity(self):
        assert print_term(parse_term("a|a|a")) == "3 * a"

    def test_figure_loop_in_loop(self):
        assert print_term(parse_term("<a.b.c>[<d.e>[eps]]")) \
            == "<a.b.c>[ <d.e>[eps] ]"

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, seed):
        t = random_term(random.Random(seed))
        assert parse_term(print_term(t)) == canonicalize(t)


class TestPatternPrinting:
    ROUND_TRIP = [
        "a | $X",
        "<~x>[ perm | $X ] | $Y",
        "a.?y.~x | $X",
        "3 * a.b | <m>[eps]",
        "a | b | a | <~x>[ 2 * c | $X ] | $Y | $Y",
        f"{2 ** 62} * a | $X",
    ]

    @pytest.mark.parametrize("text", ROUND_TRIP)
    def test_round_trip(self, text):
        p = parse_pattern(text)
        assert parse_pattern(print_pattern(p)) == p

    def test_multiplicity(self):
        assert print_pattern(parse_pattern("a | $X | a | a")) \
            == "3 * a | $X"


class TestRates:
    def test_eq1_shape(self):
        e = parse_rate("(n1 + 1) * k / (if n2 == 0 then 1 else n2 * kp)")
        assert isinstance(e, BinOp) and e.op == "/"
        assert isinstance(e.right, IfZero)

    def test_eval(self):
        e = parse_rate("(n1 + 1) * k / (if n2 == 0 then 1 else n2 * kp)")
        env = {"k": 1.0, "kp": 1.0}
        assert evaluate(e, {"n1": 1, "n2": 1}, env) == 2.0
        assert evaluate(e, {"n1": 1, "n2": 0}, env) == 2.0
        assert evaluate(e, {"n1": 2, "n2": 2}, env) == 1.5

    def test_precedence(self):
        assert evaluate(parse_rate("1 + 2 * 3"), {}, {}) == 7
        assert evaluate(parse_rate("(1 + 2) * 3"), {}, {}) == 9
        assert evaluate(parse_rate("2 - 1 - 1"), {}, {}) == 0
        assert evaluate(parse_rate("8 / 4 / 2"), {}, {}) == 1

    def test_unary_minus(self):
        assert evaluate(parse_rate("-3 + 5"), {}, {}) == 2

    ROUND_TRIP = [
        "(n1 + 1) * k / (if n2 == 0 then 1 else n2 * kp)",
        "n1 * (n2 + 1) * 0.001",
        "1.0 / 1.0 * (n2 / ((n1 + 1) * 1.0 + n2 * 1.0) - n4 / ((n3 + 1) * 1.0 + n4 * 1.0)) * 1.0",
        "a - (b - c)",
        "a - b - c",
        "(nc * 3.0 + 1) * (k / v)",
    ]

    @pytest.mark.parametrize("text", ROUND_TRIP)
    def test_round_trip(self, text):
        e = parse_rate(text)
        assert parse_rate(print_rate(e)) == _strip_pos(e)

    def test_counts_shadow_consts(self):
        assert evaluate(Name("n"), {"n": 3}, {"n": 99.0}) == 3

    @pytest.mark.parametrize("text, message", [
        ("2 * (1 / (n - 1))", "division by zero at 1:8"),
        ("1 + (if m == 0 then 1 else 2)",
         "guard names unknown count 'm' at 1:6"),
        ("k + (1 + kz)", "undeclared name 'kz' at 1:10"),
        # the left operand is evaluated first
        ("1 / 0 + kz", "division by zero at 1:3"),
        ("kz + 1 / 0", "undeclared name 'kz' at 1:1"),
    ])
    def test_errors_give_their_position(self, text, message):
        with pytest.raises(RateEvalError) as exc:
            evaluate(parse_rate(text), {"n": 1}, {"k": 1.0})
        assert str(exc.value) == message


def _strip_pos(e):
    if isinstance(e, BinOp):
        return BinOp(e.op, _strip_pos(e.left), _strip_pos(e.right))
    if isinstance(e, IfZero):
        return IfZero(e.count, _strip_pos(e.then), _strip_pos(e.orelse))
    if isinstance(e, Num):
        return Num(e.value)
    return Name(e.ident)


MINIMAL_MODEL = """\
# tiny two-rule model
model tiny
const k = 1.0
const kp = 1.0

rule change {
  lhs: a | $X
  rhs: b | $X
  count $X { t_a -> n1, t_c -> n2 }
  rate: (n1 + 1) * k / (if n2 == 0 then 1 else n2 * kp)
}

init: a | a | c
observe a, b
run { seed: 7, tmax: 10.0, max_steps: 100, samples: 5 }
"""


class TestParseModel:
    def test_minimal(self):
        mf = parse_model(MINIMAL_MODEL)
        assert mf.name == "tiny"
        assert mf.constants == {"k": 1.0, "kp": 1.0}
        assert [r.id for r in mf.rules] == ["change"]
        assert congruent(mf.init, parse_term("a | a | c"))
        assert [o.element for o in mf.observables] == ["a", "b"]
        assert mf.run_defaults == {"seed": 7, "tmax": 10.0,
                                   "max_steps": 100, "samples": 5}

    def test_rhs_only_variable_rejected(self):
        bad = MINIMAL_MODEL.replace("rhs: b | $X", "rhs: b | $Z")
        with pytest.raises(ModelError) as exc:
            parse_model(bad)
        assert any("$Z" in d and "lhs" in d for d in exc.value.diagnostics)

    def test_undeclared_constant_rejected(self):
        bad = MINIMAL_MODEL.replace("* kp)", "* kx)")
        with pytest.raises(ModelError) as exc:
            parse_model(bad)
        assert any("kx" in d for d in exc.value.diagnostics)

    def test_missing_init_rejected(self):
        bad = MINIMAL_MODEL.replace("init: a | a | c\n", "")
        with pytest.raises(ModelError) as exc:
            parse_model(bad)
        assert any("init" in d for d in exc.value.diagnostics)

    def test_empty_lhs_rejected(self):
        bad = MINIMAL_MODEL.replace("lhs: a | $X", "lhs: eps")
        with pytest.raises(ModelError):
            parse_model(bad)

    def test_duplicate_rule_ids_rejected(self):
        rule_block = MINIMAL_MODEL[MINIMAL_MODEL.index("rule change"):
                                   MINIMAL_MODEL.index("init:")]
        bad = MINIMAL_MODEL.replace("init:", rule_block + "init:")
        with pytest.raises(ModelError) as exc:
            parse_model(bad)
        assert any("duplicate" in d for d in exc.value.diagnostics)

    @pytest.mark.parametrize("old, new, message", [
        ("const kp = 1.0", "const kp = 1.0\nconst k = 2.0",
         "duplicate constant 'k'"),
        ("const kp = 1.0", "const kp = 1.0\ntype a : t_x\ntype a : t_y",
         "duplicate type declaration for 'a'"),
        ("observe a, b", "init: a\nobserve a, b", "duplicate init directive"),
        ("observe a, b", "observe a, b, a", "duplicate observable 'a'"),
    ], ids=["const", "type", "init", "observe"])
    def test_duplicate_declarations_rejected(self, old, new, message):
        with pytest.raises(ModelError) as exc:
            parse_model(MINIMAL_MODEL.replace(old, new))
        assert message in exc.value.diagnostics

    def test_duplicate_observables_rejected_in_built_models(self):
        mf = parse_model(MINIMAL_MODEL)
        mf.observables.append(mf.observables[0])
        assert validate_model(mf) == ["duplicate observable 'a'"]

    def test_count_type_seq_tag(self):
        src = MINIMAL_MODEL.replace("t_a -> n1", "seq(t_a) -> n1")
        mf = parse_model(src)
        (decl,) = mf.rules[0].counts
        assert decl.entries[0][0].is_seq

    def test_comments_and_blank_lines(self):
        src = "# leading\n\n" + MINIMAL_MODEL.replace(
            "init:", "# mid comment\ninit:")
        assert parse_model(src).name == "tiny"

    def test_print_parse_round_trip(self):
        mf = parse_model(MINIMAL_MODEL)
        mf2 = parse_model(print_model(mf))
        assert print_model(mf2) == print_model(mf)
        assert mf2.init == mf.init
        assert mf2.rules == mf.rules

    def test_names_beyond_ascii(self):
        # an identifier starts with a letter and goes on with letters,
        # digits of any kind and '_'
        text = ("type \u00e9 : t\n"
                "rule r {\n  lhs: \u00e9 | a\u00b2 | $X\n"
                "  rhs: a\u00b2.\u00e9 | $X\n  count $X { t -> n }\n"
                "  rate: (n + 1) * 2\n}\n"
                "init: 2 * \u00e9 | <\u00e9.a\u00b2>[ a\u00b2 ]\n"
                "observe \u00e9, a\u00b2\n")
        mf = parse_model(text)
        assert mf.type_decls == {"\u00e9": "t"}
        assert print_term(mf.init) == \
            "2 * \u00e9 | <a\u00b2.\u00e9>[ a\u00b2 ]"
        assert print_pattern(mf.rules[0].lhs) == "\u00e9 | a\u00b2 | $X"
        assert [o.element for o in mf.observables] == ["\u00e9", "a\u00b2"]

    # SHA-256 of print_model(parse_model(text)): for the lac model, and of
    # the 16 digests of the generated models g0-g15 of each benchmark
    # workload, at the step counts the benchmark gives them
    PRINTED = {
        "lac":
            "32d49ffb027f010a1ca76588ba04c96cd40144b3a659890177fbfb59f19e9936",
        "mass":
            "0afa183fb174fcb448a3e11e26a53cb5e748aae4fe44ad2534dc6a1009d62358",
        "cells":
            "a8291597deb58f2f6505787d11dc1e35dd38c140f6ad9df818220b6d0ee9a91c",
    }

    def test_benchmark_models_read_as_pinned(self):
        def digest(text):
            return hashlib.sha256(
                print_model(parse_model(text)).encode()).hexdigest()
        with open(os.path.join(ROOT, "models", "lac_operon.tscls"),
                  encoding="utf-8") as fh:
            got = {"lac": digest(fh.read())}
        gen = load_perfbench("gen")
        for name, make, steps in (("mass", gen.mass_model, 120),
                                  ("cells", gen.cells_model, 25)):
            got[name] = hashlib.sha256("".join(
                digest(make(g, steps)) for g in range(16)).encode()
            ).hexdigest()
        assert got == self.PRINTED


RATE_RULE = "rule r {\n  lhs: a | $X\n  rhs: b | $X\n  rate: %s\n}\ninit: a\n"

PARSERS = {"model": parse_model, "rate": parse_rate, "term": parse_term,
           "pattern": parse_pattern}

# one row per ParseError message: (parser, input, str(exc))
DIAGNOSTICS = [
    ("model", "init: a & b", "1:9: unexpected character '&'"),
    # a line end after a comment is placed at the '#'
    ("model", "init # comment", "1:6: expected ':', found '\\n'"),
    ("term", "a | # c", "1:5: expected an element, found ''"),
    ("model", "model 5", "1:7: expected model name, found '5'"),
    ("model", ": a", "1:1: expected a directive, found ':'"),
    ("model", "frob x", "1:1: unknown directive 'frob'"),
    ("model", "typing: sideways", "1:1: unknown typing mode 'sideways'"),
    ("model", "const k = x", "1:11: expected a number"),
    ("model", "init: $X", "1:7: variables are not allowed in a ground term"),
    ("model", "init: a.~x",
     "1:9: variables are not allowed in a ground term"),
    ("model", "init: <m.?y>",
     "1:10: variables are not allowed in a ground term"),
    ("model", "init: 1.5 * a", "1:7: multiplicity must be an integer"),
    ("model", "init: 0 * a", "1:7: multiplicity must be positive"),
    ("model", "init: 99999999999999999999 * a",
     "1:7: multiplicity must be below 2^63"),
    ("model", "rule r {\n  lhs: 99999999999999999999 * a | $X\n}\n",
     "2:8: multiplicity must be below 2^63"),
    ("term", f"{2 ** 63} * a", "1:1: multiplicity must be below 2^63"),
    ("model", "init: <>[a]",
     "1:7: loop membrane must be a non-empty sequence"),
    ("model", "init: a.eps", "1:9: 'eps' cannot occur inside a sequence"),
    ("model", "init: <m.eps>", "1:10: 'eps' cannot occur inside a membrane"),
    ("model", "init: a | | b", "1:11: expected an element, found '|'"),
    ("model", "init: a b", "1:9: unexpected trailing input 'b'"),
    ("model", "init: <m>[ a", "1:13: expected ']', found '\\n'"),
    ("model", "rule r {\n  lhs: a.$X\n}\n",
     "2:10: term variable '$' cannot occur inside a sequence"),
    ("model", "rule r {\n  lhs: a b\n}\n",
     "2:10: unexpected trailing input 'b'"),
    ("model", "rule r {\n  lhs: a\n  rhs: b\n}\ninit: a\n",
     "1:1: rule r is missing rate"),
    ("model", (RATE_RULE % "1").replace("}", "} x"),
     "5:3: unexpected trailing input 'x'"),
    ("model", "rule r {\n  size: 1\n}\n", "2:3: unknown rule field 'size'"),
    ("model", "rule r {\n  count X { t -> n }\n}\n",
     "2:9: expected a variable after 'count'"),
    ("model", "rule r {\n  count $X { t n }\n}\n",
     "2:16: expected '->', found 'n'"),
    ("model", RATE_RULE % "then", "4:9: misplaced keyword 'then'"),
    ("model", RATE_RULE % ")", "4:9: expected a rate expression, found ')'"),
    ("model", RATE_RULE % "(1 + 2", "4:15: expected ')', found '\\n'"),
    ("model", RATE_RULE % "if n == 1 then 1 else 2",
     "4:17: guard must compare against 0"),
    ("model", RATE_RULE % "if 0 == n then 1 else 2",
     "4:12: expected count variable, found '0'"),
    ("model", RATE_RULE % "if n == 0 1 else 2",
     "4:19: expected 'then', found '1'"),
    ("model", RATE_RULE % "if n == 0 than 1 else 2",
     "4:19: expected 'then'"),
    ("model", RATE_RULE % "if n == 0 then 1 elsa 2",
     "4:26: expected 'else'"),
    ("model", "run { speed: 1 }", "1:7: unknown run field 'speed'"),
    ("model", "run { seed: 1.5 }", "1:7: run field 'seed' must be an integer"),
    ("model", "run { seed: x }", "1:13: expected a number"),
    ("model", "run { seed: 1 seed: 2 }", "1:15: expected '}', found 'seed'"),
    ("model", "observe a,", "1:11: expected element name, found '\\n'"),
    ("rate", "1 2", "1:3: unexpected trailing input '2'"),
    ("term", "a b", "1:3: unexpected trailing input 'b'"),
    ("pattern", "a | $", "1:6: expected variable name, found ''"),
    # bad numbers and deep nesting
    ("model", "const k = \u00b2", "1:11: unexpected character '\u00b2'"),
    ("model", "init: \u00b2 * a", "1:7: unexpected character '\u00b2'"),
    ("model", RATE_RULE % "\u00b2", "4:9: unexpected character '\u00b2'"),
    # identifiers are checked for a leading letter in non-ASCII text only
    ("model", "model m\n# \u00e9 \u00fc\ninit: \u00b2",
     "3:7: unexpected character '\u00b2'"),
    ("model", "init: a | \u2460", "1:11: unexpected character '\u2460'"),
    ("model", "run { seed: 1e400 }", "1:7: run field 'seed' must be an integer"),
    ("model", "run { samples: 1e400 }",
     "1:7: run field 'samples' must be an integer"),
    ("model", "run { max_steps: -1e400 }",
     "1:7: run field 'max_steps' must be an integer"),
    ("model", "init: " + "1" * 400 + " * a", "1:7: number out of range"),
    ("model", RATE_RULE % ("1" * 5000), "4:9: number out of range"),
    # a literal that overflows a float, in a constant or a rate
    ("model", "const k = 1e400\n" + RATE_RULE % "k * 0",
     "1:11: number out of range"),
    ("model", "const k = 1.0\n" + RATE_RULE % "1e400 * 0",
     "5:9: number out of range"),
    ("model", RATE_RULE % ("(" * 400 + "1" + ")" * 400),
     "4:209: nesting deeper than 200 levels"),
    ("model", RATE_RULE % ("-" * 1000 + "1"),
     "4:209: nesting deeper than 200 levels"),
    ("model", "init: " + "<m>[ " * 400 + "a" + " ]" * 400,
     "1:1007: nesting deeper than 200 levels"),
    # a rate's tree is at most 200 operators high: in a chain, which reads
    # as ((1 + 1) + 1) + ..., the 201st operator is one too many, also
    # where parentheses end runs of the chain
    ("model", RATE_RULE % " + ".join(["1"] * 1000),
     "4:811: nesting deeper than 200 levels"),
    ("model", RATE_RULE % " * ".join(["1"] * 10000),
     "4:811: nesting deeper than 200 levels"),
    ("rate", " - ".join(["1"] * 202), "1:803: nesting deeper than 200 levels"),
    ("rate", "(" * 100 + "1" + " + 1" * 201 + ")" * 100,
     "1:903: nesting deeper than 200 levels"),
    ("rate", "(" * 6 + "1" + "".join(" + 1" * k + ")" for k in range(194, 200))
     + " + 1" * 200, "1:810: nesting deeper than 200 levels"),
]


@pytest.mark.parametrize("parser, text, message", DIAGNOSTICS,
                         ids=[row[2] for row in DIAGNOSTICS])
def test_parse_error_messages(parser, text, message):
    with pytest.raises(ParseError) as exc:
        PARSERS[parser](text)
    assert str(exc.value) == message


FUZZ_PIECES = [
    "model", "typing", "positional", "literal", "const", "type", "rule",
    "lhs", "rhs", "count", "rate", "init", "observe", "run", "seed",
    "tmax", "samples", "if", "then", "else", "seq", "eps", "a", "b", "m",
    "n", "k", "t_a", "X", "e", "_", "0", "1", "2", "1.5", "2e3",
    "1e400", "->", "==", *"|.*<>[]{}(),:=$~?/+-#",
    " ", "\t", "\r", "\n", "\u00b2", "\u2460", "\u00e9", "\f", "\xa0",
]

# directive heads, so that pieces land where values are read
FUZZ_HEADS = ["", "model ", "const k = ", "type a : ", "init: ", "observe ",
              "run { seed: ", RATE_RULE.split("rate: ")[0] + "rate: "]

fuzz_lines = st.builds(
    str.__add__, st.sampled_from(FUZZ_HEADS),
    st.lists(st.sampled_from(FUZZ_PIECES), max_size=12).map("".join))


@given(st.lists(fuzz_lines, max_size=4).map("\n".join))
@settings(max_examples=500, deadline=None)
def test_bad_text_gives_a_diagnostic(text):
    try:
        parse_model(text)
    except (ParseError, ModelError):
        pass


# ---------------------------------------------------------------------------
# a model text the process parsed twice is made by its recipe


@contextlib.contextmanager
def fresh_blocks():
    """Empty the rule-block and model-text tables while the block runs."""
    with mock.patch.object(semantics, "_BLOCKS", Table()), \
            mock.patch.object(syntax, "_FILES", Table()):
        yield


def rate_nodes(expr) -> list[tuple]:
    """Every node of a rate in preorder with its position, which rate
    equality does not compare, and a number's type besides its value."""
    out, stack = [], [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Num):
            out.append(("Num", node.value, type(node.value), node.pos))
        elif isinstance(node, Name):
            out.append(("Name", node.ident, node.pos))
        elif isinstance(node, BinOp):
            out.append(("BinOp", node.op, node.pos))
            stack += [node.right, node.left]
        else:
            out.append(("IfZero", node.count, node.pos))
            stack += [node.orelse, node.then]
    return out


def pattern_nodes(p: Pattern) -> list[tuple]:
    """Every node of a pattern in preorder, with its counts or names; a
    walk, where equality recurses through every level."""
    out, stack = [], [p]
    while stack:
        node = stack.pop()
        if isinstance(node, Pattern):
            out.append(("Pattern", node.counts))
            stack += reversed(node.items)
        elif isinstance(node, PLoop):
            out.append(("PLoop",))
            stack += [node.content, node.membrane]
        elif isinstance(node, PSeq):
            out.append(("PSeq", [(type(a), a.name) for a in node.atoms]))
        else:
            out.append((type(node), node.name))
    return out


def parsed(text: str):
    """What ``parse_model`` makes of the text: each rule field by field,
    its rate node by node, the type of each constant and run default,
    which equality does not compare, and the rest of the model; or the
    error it raises, with its message and position."""
    try:
        mf = parse_model(text)
    except ParseError as exc:
        return "ParseError", exc.message, exc.line, exc.col
    except ModelError as exc:
        return "ModelError", exc.diagnostics
    rules = [(r.id, pattern_nodes(r.lhs), pattern_nodes(r.rhs),
              repr(r.counts), r.source, rate_nodes(r.rate)) for r in mf.rules]
    types = [type(v) for v in (*mf.constants.values(),
                               *mf.run_defaults.values())]
    return rules, types, {k: v for k, v in vars(mf).items() if k != "rules"}


def warm_as_fresh(text: str, *primers: str):
    """Assert that the text parses, once it and ``primers`` were each
    parsed twice, as it does with fresh tables, and that a model it
    parses to is made by its recipe, which parses no rule; returns the
    outcome."""
    with fresh_blocks():
        fresh = parsed(text)
    parses = []
    with fresh_blocks(), mock.patch.object(
            syntax, "_parse_rule", lambda *args, parse=syntax._parse_rule:
            parses.append(args) or parse(*args)):
        for _ in range(2):
            for primer in (*primers, text):
                parsed(primer)
        parses.clear()
        assert parsed(text) == fresh
    if fresh[0] not in ("ParseError", "ModelError"):
        assert parses == []
    return fresh


BLOCK = "rule r {\n  lhs: a | $X\n  rhs: b | $X\n  rate: 1\n}\n"


def indented(text: str, blanks: str = "    ") -> str:
    return "".join(blanks + line if line.strip() else line
                   for line in text.splitlines(True))


def test_a_known_block_is_neither_tokenized_nor_parsed():
    # nor is the rest of a known model text
    text = lac_operon_source()
    calls = []
    with fresh_blocks(), mock.patch.object(
            syntax, "tokenize", lambda *args, lex=syntax.tokenize, **kw:
            calls.append("tokenize") or lex(*args, **kw)), mock.patch.object(
            syntax, "_parse_rule", lambda *args, parse=syntax._parse_rule:
            calls.append("rule") or parse(*args)):
        rules = []
        for _ in range(3):
            calls.clear()
            rules.append(parse_model(text).rules)
    assert len(rules[0]) == 15 and calls == []
    assert rules[2] == rules[0]


def test_a_known_model_is_the_callers_to_change():
    # every parse returns a new model, a recipe's too
    text = lac_operon_source()
    with fresh_blocks():
        first = parse_model(text)
        parse_model(text)
        third = parse_model(text)
        third.constants["k"] = 1.0
        third.type_decls["lacI"] = "t_x"
        third.rules.pop()
        third.observables.clear()
        third.run_defaults["seed"] = 5
        assert parse_model(text) == first


def test_one_parse_makes_no_recipe():
    # a single check never compiles the recipe module; a second parse of
    # the text makes its recipe
    src = os.path.dirname(os.path.dirname(os.path.abspath(syntax.__file__)))
    code = (
        "import sys\n"
        "from tscls import cli, syntax\n"
        f"lac = {os.path.join(ROOT, 'models', 'lac_operon.tscls')!r}\n"
        "assert cli.main(['check', lac]) == 0\n"
        "assert 'tscls.recipes' not in sys.modules\n"
        "text = open(lac, encoding='utf-8').read()\n"
        "assert syntax._FILES[text][1] is None\n"
        "syntax.parse_model(text)\n"
        "assert syntax._FILES[text][1] is not None\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr


def test_known_blocks_make_the_rules_parsed():
    gen = load_perfbench("gen")
    lac = lac_operon_source()
    texts = [lac, CELLS, MINIMAL_MODEL,
             print_model(parse_model(MINIMAL_MODEL)),
             "# leading\n\n" + MINIMAL_MODEL.replace(
                 "init:", "# mid comment\ninit:"),
             MINIMAL_MODEL.replace("t_a -> n1", "seq(t_a) -> n1"),
             indented(lac), indented(CELLS, "\t"),
             MINIMAL_MODEL.replace("\n", "\r\n"),
             lac.rstrip("\n"), lac.replace("\n}\n", "\n} # end\n"),
             lac + BLOCK.replace("rule r", "rule R1"),
             MINIMAL_MODEL.replace("run { seed: 7,", "run {\n  seed: 7,")
             .replace("samples: 5 }", "samples: 5\n}"),
             "rule r { lhs: a | $X\n  rhs: b | $X\n  rate: 1\n}\ninit: a\n",
             "rule r {\n  lhs: \u00e9 | a\u00b2 | $X\n"
             "  rhs: a\u00b2.\u00e9 | $X\n  count $X { t -> n }\n"
             "  rate: (n + 1) * 2\n}\ninit: \u00e9\n",
             *[gen.mass_model(g, 120) for g in range(2)],
             *[gen.cells_model(g, 25) for g in range(2)],
             *[RATE_MODEL % rate for rate in LONG_RATES],
             *[RATE_MODEL % rate for rate in TestRates.ROUND_TRIP],
             *[(RATE_MODEL % "1").replace("a | $X", text, 1)
               for text in TestPatternPrinting.ROUND_TRIP],
             # nested as deep as the grammar allows
             MINIMAL_MODEL.replace("init: a | a | c", "init: " + "<m>[ " * 199
                                   + "a | a | c" + " ]" * 199),
             (RATE_MODEL % "1").replace("a | $X", "<m>[ " * 199 + "a | $X"
                                        + " ]" * 199, 1)]
    for text in texts:
        warm_as_fresh(text)


@pytest.mark.parametrize(
    "text", [text for parser, text, _ in DIAGNOSTICS if parser == "model"])
def test_known_blocks_give_the_errors_parsed(text):
    warm_as_fresh(text, BLOCK + "init: a\n")


@pytest.mark.parametrize("text, error", [
    # a bad character after known blocks is found before any parsing
    (BLOCK + "init: & | a\n", (6, 7)),
    (BLOCK + BLOCK + "&\n", (11, 1)),
    (BLOCK + "rule s {\n  rate: \u00b2\n}\n", (7, 9)),
    # a known block where no directive may stand
    ("run { seed: 1,\n" + BLOCK + "}\ninit: a\n", (2, 1)),
    ("run {\n" + BLOCK + "}\ninit: a\n", (2, 1)),
    ("run { seed: 1\n" + BLOCK + "}\ninit: a\n", (2, 1)),
    ("rule q {\n  lhs: a | $X\n" + BLOCK + "init: a\n", (3, 1)),
    # text after a known block's '}', and a block ending the text
    (BLOCK.replace("}", "} x") + "init: a\n", (5, 3)),
    (BLOCK.replace("}", "}}") + "init: a\n", (5, 2)),
    (BLOCK + "init: a\n" + BLOCK.rstrip("\n") + " x", (11, 3)),
    ("init: a\n" + BLOCK.rstrip("\n"), None),
    (indented(BLOCK) + "init: a\n", None),
    (BLOCK + BLOCK + "init: a\n", None),
])
def test_known_blocks_in_other_places(text, error):
    outcome = warm_as_fresh(text, BLOCK + "init: a\n",
                            indented(BLOCK) + "init: a\n")
    if error is None:
        assert outcome[0] != "ParseError"
    else:
        assert outcome[0] == "ParseError" and outcome[2:] == error


@given(st.lists(fuzz_lines, max_size=4).map("\n".join))
@settings(max_examples=200, deadline=None)
def test_known_blocks_in_bad_text(text):
    warm_as_fresh(text, RATE_RULE % "1")


def test_rate_positions_are_those_of_each_file():
    # one rule block at other lines in two files: each file's rate error
    # gives the block's line there, whichever file made its recipe
    text = RATE_MODEL % "2 / (n - 2)"
    lines = {5: text, 9: "model m\n\nconst k = 1.0\n\n" + text}
    parses = []
    with fresh_blocks(), mock.patch.object(
            syntax, "_parse_rule", lambda *args, parse=syntax._parse_rule:
            parses.append(args) or parse(*args)):
        for round in range(3):
            for line, text in (lines.items() if round % 2
                               else reversed(lines.items())):
                model = parse_model(text)
                with pytest.raises(RateEvalError) as exc:
                    simulate(model, SimConfig(seed=1, tmax=1.0))
                assert str(exc.value) == \
                    f"rule r: division by zero at {line}:11 (compartment /)"
    # each file is parsed twice before it has a recipe
    assert len(parses) == 4
