"""Ready-made rule constructors and the lac operon example model.

The constructors encode the standard biomolecular event schemata (state
change, complexation, decomplexation, membrane osmosis) with their typed
mass-action rates, plus transformers that graft catalyst or inhibitor
dependencies onto an existing rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .model import ModelFile, ObservableSpec
from .patterns import (ElemLit, Pattern, PLoop, PSeq, PTermVar, SeqVar, Var,
                       VarKind, lits, pattern_vars, tvar)
from .rates import BinOp, IfZero, Name, Num, RateExpr
from .semantics import CountDecl, RewriteRule
from .terms import Loop, Seq, Term, TypeEnv, TypeName, canonicalize


def _default_env(env: Optional[TypeEnv]) -> TypeEnv:
    return env if env is not None else TypeEnv()


def _times(left: RateExpr, right: RateExpr) -> RateExpr:
    return BinOp("*", left, right)


def _n_plus_1(name: str) -> RateExpr:
    return BinOp("+", Name(name), Num(1))


def state_change_rule(a: str, b: str, k: float, rule_id: str = "",
                      env: Optional[TypeEnv] = None) -> RewriteRule:
    """``a | $X -> b | $X`` at rate (n+1)k, n the count of a's type in X."""
    env = _default_env(env)
    return RewriteRule(
        rule_id or f"{a}_to_{b}",
        Pattern((lits(a), tvar("X"))),
        Pattern((lits(b), tvar("X"))),
        _times(_n_plus_1("n"), Num(k)),
        (CountDecl(Var(VarKind.TERM, "X"), ((env.basic(a), "n"),)),))


def complexation_rule(a: str, b: str, c: str, k: float, rule_id: str = "",
                      env: Optional[TypeEnv] = None) -> RewriteRule:
    """``a | b | $X -> c | $X`` at rate (n1+1)(n2+1)k."""
    env = _default_env(env)
    return RewriteRule(
        rule_id or f"{a}_{b}_to_{c}",
        Pattern((lits(a), lits(b), tvar("X"))),
        Pattern((lits(c), tvar("X"))),
        _times(_times(_n_plus_1("n1"), _n_plus_1("n2")), Num(k)),
        (CountDecl(Var(VarKind.TERM, "X"),
                   ((env.basic(a), "n1"), (env.basic(b), "n2"))),))


def decomplexation_rule(c: str, a: str, b: str, k: float, rule_id: str = "",
                        env: Optional[TypeEnv] = None) -> RewriteRule:
    """``c | $X -> a | b | $X`` at rate (n+1)k, n the count of c's type."""
    env = _default_env(env)
    return RewriteRule(
        rule_id or f"{c}_to_{a}_{b}",
        Pattern((lits(c), tvar("X"))),
        Pattern((lits(a), lits(b), tvar("X"))),
        _times(_n_plus_1("n"), Num(k)),
        (CountDecl(Var(VarKind.TERM, "X"), ((env.basic(c), "n"),)),))


@dataclass(frozen=True)
class OsmosisParams:
    """Osmosis rate parameters: membrane surface, compartment volume, the
    molecular volumes of the two species, the flow constant, and an
    optional catalyst/inhibitor factor."""
    surface: float
    volume: float
    va: float
    vb: float
    k: float
    kc: Optional[float] = None

    def __post_init__(self):
        for name in ("surface", "volume", "va", "vb", "k"):
            if getattr(self, name) <= 0:
                raise ValueError(f"osmosis parameter {name} must be positive")
        if self.kc is not None and self.kc <= 0:
            raise ValueError("osmosis parameter kc must be positive")


def _concentration(n_a: str, n_b: str, p: OsmosisParams) -> RateExpr:
    # n_b / ((n_a + 1) * va + n_b * vb)
    return BinOp("/", Name(n_b),
                 BinOp("+", _times(_n_plus_1(n_a), Num(p.va)),
                       _times(Name(n_b), Num(p.vb))))


def osmosis_rules(a: str, b: str, params: OsmosisParams,
                  catalyst: Optional[str] = None,
                  inhibitor: Optional[str] = None,
                  env: Optional[TypeEnv] = None,
                  ids: Optional[tuple[str, str]] = None,
                  ) -> tuple[RewriteRule, RewriteRule]:
    """Outward/inward transport of ``a`` across a membrane, driven by the
    concentration difference of ``b``.

    The outward rate is S/V * (in - out) * k where in and out are the
    concentrations of b inside and outside; the inward rule carries the
    negated expression, so at most one direction is enabled at a time.
    A catalyst element multiplies both rates by (nc*kc + 1), counting
    seq-typed occurrences on the membrane; an inhibitor divides by the
    guarded count instead. The two are mutually exclusive and both need
    ``params.kc``.
    """
    if catalyst and inhibitor:
        raise ValueError("osmosis rule is catalysed or inhibited, not both")
    if (catalyst or inhibitor) and params.kc is None:
        raise ValueError("catalysed/inhibited osmosis needs params.kc")
    env = _default_env(env)
    big_y = tvar("Y")
    membrane = PSeq((SeqVar("x"),))
    inside_with_a = Pattern((lits(a), PTermVar("X")))
    inside_plain = Pattern((PTermVar("X"),))

    lhs_out = Pattern((PLoop(membrane, inside_with_a), big_y))
    rhs_out = Pattern((PLoop(membrane, inside_plain), lits(a), big_y))
    lhs_in = rhs_out
    rhs_in = lhs_out

    counts: list[CountDecl] = [
        CountDecl(Var(VarKind.TERM, "X"),
                  ((env.basic(a), "n1"), (env.basic(b), "n2"))),
        CountDecl(Var(VarKind.TERM, "Y"),
                  ((env.basic(a), "n3"), (env.basic(b), "n4"))),
    ]
    inner = _concentration("n1", "n2", params)
    outer = _concentration("n3", "n4", params)
    sv = BinOp("/", Num(params.surface), Num(params.volume))
    rate_out = _times(_times(sv, BinOp("-", inner, outer)), Num(params.k))
    rate_in = _times(_times(sv, BinOp("-", outer, inner)), Num(params.k))

    if catalyst or inhibitor:
        elem = catalyst or inhibitor
        counts.insert(0, CountDecl(Var(VarKind.SEQ, "x"),
                                   ((env.seq(elem), "nc"),)))
        if catalyst:
            factor = BinOp("+", _times(Name("nc"), Num(params.kc)), Num(1))
            rate_out = _times(factor, rate_out)
            rate_in = _times(factor, rate_in)
        else:
            guard = IfZero("nc", Num(1), _times(Name("nc"), Num(params.kc)))
            rate_out = BinOp("/", rate_out, guard)
            rate_in = BinOp("/", rate_in, guard)

    out_id, in_id = ids or (f"{a}_out", f"{a}_in")
    spec = tuple(counts)
    return (RewriteRule(out_id, lhs_out, rhs_out, rate_out, spec),
            RewriteRule(in_id, lhs_in, rhs_in, rate_in, spec))


# ---------------------------------------------------------------------------
# catalyst / inhibitor transformers


def _frame_var(rule: RewriteRule) -> Optional[str]:
    """The term variable absorbing the compartment remainder: by the
    construction convention, the last term-variable item of the lhs."""
    name = None
    for item in rule.lhs.items:
        if isinstance(item, PTermVar):
            name = item.name
    return name


def _fresh(base: str, taken: set[str]) -> str:
    if base not in taken:
        return base
    i = 1
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def _graft(rule: RewriteRule, prepend: list[tuple[TypeName, str]],
           wrap) -> RewriteRule:
    """Shared machinery: ensure a frame variable exists, prepend count
    entries to its declaration, wrap the rate expression."""
    lhs, rhs = rule.lhs, rule.rhs
    frame = _frame_var(rule)
    if frame is None:
        taken = {v.name for v in pattern_vars(rule.lhs)}
        frame = _fresh("X_f", taken)
        lhs = Pattern(lhs.items + (PTermVar(frame),), lhs.counts + (1,))
        rhs = Pattern(rhs.items + (PTermVar(frame),), rhs.counts + (1,))
    fvar = Var(VarKind.TERM, frame)
    counts = list(rule.counts)
    for i, decl in enumerate(counts):
        if decl.var == fvar:
            counts[i] = CountDecl(fvar, tuple(prepend) + decl.entries)
            break
    else:
        counts.insert(0, CountDecl(fvar, tuple(prepend)))
    return RewriteRule(rule.id, lhs, rhs, wrap(rule.rate), tuple(counts))


def add_catalyst(rule: RewriteRule, c: str, k: float,
                 env: Optional[TypeEnv] = None) -> RewriteRule:
    """Make the rate grow with the catalyst count: rate * (nc*k + 1)."""
    env = _default_env(env)
    nc = _fresh("nc", set(rule.count_names()))
    factor = BinOp("+", _times(Name(nc), Num(k)), Num(1))
    return _graft(rule, [(env.basic(c), nc)],
                  lambda rate: _times(rate, factor))


def add_inhibitor(rule: RewriteRule, c: str, k: float,
                  env: Optional[TypeEnv] = None) -> RewriteRule:
    """Damp the rate by the inhibitor count: rate / (if nd == 0 then 1
    else nd*k)."""
    env = _default_env(env)
    nd = _fresh("nd", set(rule.count_names()))
    guard = IfZero(nd, Num(1), _times(Name(nd), Num(k)))
    return _graft(rule, [(env.basic(c), nd)],
                  lambda rate: BinOp("/", rate, guard))


def add_both(rule: RewriteRule, c: str, d: str, kc: float, kd: float,
             env: Optional[TypeEnv] = None) -> RewriteRule:
    """Catalyst and inhibitor together, counts declared catalyst first."""
    env = _default_env(env)
    taken = set(rule.count_names())
    nc = _fresh("nc", taken)
    nd = _fresh("nd", taken | {nc})
    factor = BinOp("+", _times(Name(nc), Num(kc)), Num(1))
    guard = IfZero(nd, Num(1), _times(Name(nd), Num(kd)))
    return _graft(rule, [(env.basic(c), nc), (env.basic(d), nd)],
                  lambda rate: BinOp("/", _times(rate, factor), guard))


# ---------------------------------------------------------------------------
# the lac operon model


_OPERON = ("lacI", "lacP", "lacO", "lacZ", "lacY", "lacA")


def _operon_with(**subs: str) -> PSeq:
    return lits(*(subs.get(name, name) for name in _OPERON))


def _plain_rule(rid: str, lhs_elems, rhs_elems, rate: RateExpr,
                counted: tuple[tuple[str, str], ...] = ()) -> RewriteRule:
    """Rule of shape ``e1 | ... | $X -> e1' | ... | $X`` with counts on X.

    ``lhs_elems``/``rhs_elems`` mix PSeq items and element names;
    ``counted`` lists (type name, count variable) pairs for X.
    """
    def items(spec):
        out = [item if isinstance(item, PSeq) else lits(item)
               for item in spec]
        out.append(tvar("X"))
        return Pattern(tuple(out))

    counts = ()
    if counted:
        counts = (CountDecl(
            Var(VarKind.TERM, "X"),
            tuple((TypeName(tn), name) for tn, name in counted)),)
    return RewriteRule(rid, items(lhs_elems), items(rhs_elems), rate, counts)


def lac_operon_model() -> ModelFile:
    """Membrane model of lactose uptake and digestion in E. coli.

    A cell membrane ``m`` wraps the lac operon sequence together with RNA
    polymerase and repressor pools; lactose initially sits outside. The
    rules cover repressor production (R1-R2), transcription with
    polymerase binding and repressor (un)binding on the operator square
    (R3-R10), repressor-lactose complexation (R11-R12), incorporation of
    the permease into the membrane (R13), permease-driven lactose uptake
    (R14) and beta-galactosidase digestion (R15).
    """
    operon = lits(*_OPERON)
    pp = _operon_with(lacP="PP")
    ro = _operon_with(lacO="RO")
    ppro = _operon_with(lacP="PP", lacO="RO")

    k_1 = _times(_n_plus_1("n"), Num(0.1))
    rules = [
        _plain_rule("R1", [operon], [operon, "Irna"], Num(0.02)),
        _plain_rule("R2", ["Irna"], ["Irna", "repr"], k_1,
                    (("t_Irna", "n"),)),
        _plain_rule("R3", [operon, "polym"], [pp], k_1,
                    (("t_polym", "n"),)),
        _plain_rule("R4", [pp], [operon, "polym"], Num(0.01)),
        _plain_rule("R5", [pp], [operon, "polym", "Rna"], Num(20)),
        _plain_rule("R6", ["Rna"], ["Rna", "betagal", "perm", "transac"],
                    k_1, (("t_Rna", "n"),)),
        _plain_rule("R7", [operon, "repr"], [ro],
                    _times(_n_plus_1("n"), Num(1)), (("t_repr", "n"),)),
        _plain_rule("R8", [pp, "repr"], [ppro],
                    _times(_n_plus_1("n"), Num(1)), (("t_repr", "n"),)),
        _plain_rule("R9", [ro], [operon, "repr"], Num(0.01)),
        _plain_rule("R10", [ppro], [pp, "repr"], Num(0.01)),
        complexation_rule("repr", "LACT", "RLACT", 0.005, rule_id="R11"),
        decomplexation_rule("RLACT", "repr", "LACT", 0.1, rule_id="R12"),
        _permease_insertion(),
        _lactose_uptake(),
        _plain_rule("R15", ["LACT"], ["GLU", "GAL"],
                    _times(_times(_n_plus_1("n1"), Name("n2")), Num(0.001)),
                    (("t_LACT", "n1"), ("t_betagal", "n2"))),
    ]

    ecoli = Loop(("m",), canonicalize(Term(
        {Seq(_OPERON): 1, Seq(("polym",)): 30, Seq(("repr",)): 100})))
    init = canonicalize(Term({ecoli: 1, Seq(("LACT",)): 100}))

    return ModelFile(
        name="lac_operon",
        rules=rules,
        init=init,
        observables=[ObservableSpec(e)
                     for e in ("LACT", "GLU", "GAL", "repr", "Rna")],
        run_defaults={"seed": 1, "tmax": 1000.0,
                      "max_steps": 1_000_000, "samples": 100},
    )


def _permease_insertion() -> RewriteRule:
    # R13: <~x>[ perm | $X ] | $Y  ->  <perm.~x>[ $X ] | $Y
    lhs = Pattern((PLoop(PSeq((SeqVar("x"),)),
                         Pattern((lits("perm"), tvar("X")))),
                   tvar("Y")))
    rhs = Pattern((PLoop(PSeq((ElemLit("perm"), SeqVar("x"))),
                         Pattern((tvar("X"),))),
                   tvar("Y")))
    counts = (CountDecl(Var(VarKind.TERM, "X"),
                        ((TypeName("t_perm"), "n"),)),)
    return RewriteRule("R13", lhs, rhs, _times(_n_plus_1("n"), Num(0.1)),
                       counts)


def _lactose_uptake() -> RewriteRule:
    # R14: <~x>[ $X ] | LACT | $Y  ->  <~x>[ LACT | $X ] | $Y
    membrane = PSeq((SeqVar("x"),))
    lhs = Pattern((PLoop(membrane, Pattern((tvar("X"),))),
                   lits("LACT"), tvar("Y")))
    rhs = Pattern((PLoop(membrane, Pattern((lits("LACT"), tvar("X")))),
                   tvar("Y")))
    counts = (CountDecl(Var(VarKind.SEQ, "x"),
                        ((TypeName("t_perm", True), "n1"),)),
              CountDecl(Var(VarKind.TERM, "Y"),
                        ((TypeName("t_LACT"), "n2"),)))
    rate = _times(_times(Name("n1"), _n_plus_1("n2")), Num(0.001))
    return RewriteRule("R14", lhs, rhs, rate, counts)


def lac_operon_source() -> str:
    """The lac operon model rendered in the model-file syntax; the shipped
    fixture ``models/lac_operon.tscls`` holds exactly this text."""
    from .syntax import print_model
    return print_model(lac_operon_model())
