"""Typed stochastic calculus of looping sequences.

A small rewriting calculus for membrane biology: terms are multisets of
element sequences and looping sequences (membranes with contents), rules
rewrite whole compartments, and each enabled rewrite carries a rate
computed from typed occurrence counts inside the matched variables. The
engine samples exact stochastic trajectories Gillespie-style.
"""

from .catalog import (OsmosisParams, add_both, add_catalyst, add_inhibitor,
                      complexation_rule, decomplexation_rule,
                      lac_operon_model, lac_operon_source, osmosis_rules,
                      state_change_rule)
from .engine import (HALT_EXHAUSTED, HALT_MAX_STEPS, HALT_TMAX, Pcg64,
                     Sample, Trace, TraceEvent, observe, simulate, step)
from .errors import (ModelError, ParseError, RateEvalError, SubstitutionError,
                     TsclsError, WellFormednessError)
from .matching import (Binding, Compartment, Instantiation, Path,
                       compartments, match_whole, path_text, splice,
                       substitute)
from .model import (ModelFile, ObservableSpec, SimConfig, validate_model)
from .patterns import (ElemLit, ElemVar, Pattern, PLoop, PSeq, PTermVar,
                       SeqVar, Var, VarKind, lits, pat, pattern_vars, svar,
                       tvar)
from .rates import BinOp, IfZero, Name, Num, RateExpr, evaluate
from .semantics import (LITERAL, POSITIONAL, CountDecl, CountSpec,
                        RewriteRule, Transition, count_types, eval_rate,
                        rule_violations, transitions)
from .syntax import (parse_model, parse_pattern, parse_rate, parse_term,
                     print_model, print_pattern, print_rate, print_term)
from .terms import (EMPTY, Loop, Seq, Term, TypeEnv, TypeName, canonicalize,
                    congruent, par, term_elements, type_of, stype_of)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
