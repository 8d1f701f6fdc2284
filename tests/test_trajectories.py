"""Whole trajectories on the compiled path versus the general path.

The single-state tests in ``test_compiled.py`` compare one transition
list at a time; here every step of a run must agree, so state carried
from one step to the next (cached counters, rotations, deferred
targets) is checked as well. Each run is written as CSV and NDJSON, and
the bytes must be identical with and without the rules' plans.
"""

import dataclasses
import io

import pytest

from tscls import lac_operon_model, parse_model, simulate
from tscls.cli import _write_trace

from conftest import CELLS, general

MAX_STEPS = 100

# ground | $X rules on one well-mixed compartment
MASS = """\
const kb = 0.01
const ku = 0.2
const kf = 0.1
const kr = 0.15

rule bind {
  lhs: A | B | $X
  rhs: C | $X
  count $X { t_A -> n1, t_B -> n2 }
  rate: (n1 + 1) * (n2 + 1) * kb
}

rule unbind {
  lhs: C | $X
  rhs: A | B | $X
  count $X { t_C -> n }
  rate: (n + 1) * ku
}

rule convert {
  lhs: A | $X
  rhs: D | $X
  count $X { t_A -> n }
  rate: (n + 1) * kf
}

rule revert {
  lhs: D | $X
  rhs: A | $X
  count $X { t_D -> n }
  rate: (n + 1) * kr
}

init: 20 * A | 15 * B | 10 * C | 8 * D
observe A, B, C, D
"""

def traces(model, seed):
    """The run's CSV and NDJSON text."""
    trace = simulate(model, model.sim_config(seed=seed, max_steps=MAX_STEPS,
                                             tmax=1e9))
    out = []
    for fmt in ("csv", "json"):
        buf = io.StringIO()
        _write_trace(trace, fmt, buf)
        out.append(buf.getvalue())
    return out


@pytest.mark.parametrize("model, seeds", [
    (lac_operon_model(), range(10)),
    (parse_model(MASS), range(2)),
    (parse_model(CELLS), range(2)),
], ids=["lac", "mass", "cells"])
def test_plans_give_the_general_path_traces(model, seeds):
    assert all(rule.plan is not None for rule in model.rules)
    reference = dataclasses.replace(
        model, rules=[general(rule) for rule in model.rules])
    for seed in seeds:
        got = traces(model, seed)
        assert got == traces(reference, seed)
        assert got[0].count("\n") > 10  # the run did something


def test_rules_shared_by_runs_under_other_inputs():
    # a rule keeps what it derives from a run's typing and constants (its
    # plan's cell entries and histograms, its rates); runs of one set of
    # rules under models that differ in both, and after the constants are
    # changed in place, must each give the traces of freshly parsed rules
    other = CELLS.replace("const k = 10.0", "const k = 3.0") \
        + "type A : t_B\ntype S : t_W\n"
    shared = parse_model(CELLS)
    second = dataclasses.replace(parse_model(other), rules=shared.rules)
    for model, text in ((shared, CELLS), (second, other), (shared, CELLS)):
        assert traces(model, 1) == traces(parse_model(text), 1)
    shared.constants["k"] = 3.0
    changed = CELLS.replace("const k = 10.0", "const k = 3.0")
    assert traces(shared, 1) == traces(parse_model(changed), 1)
    assert traces(shared, 1) != traces(parse_model(CELLS), 1)
