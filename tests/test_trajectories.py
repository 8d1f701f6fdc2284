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

from conftest import general

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

# water crosses membranes by the osmosis pair, faster with more p on the
# other cells' membranes; A and B interconvert in every compartment;
# repeated cells and rotation-symmetric membranes
CELLS = """\
const va = 1.0
const vb = 2.0
const k = 10.0
const ka = 1.0
const kb = 0.8

rule W_out {
  lhs: <~x>[ W | $X ] | $Y
  rhs: <~x>[ $X ] | W | $Y
  count $X { t_W -> n1, t_S -> n2 }
  count $Y { t_W -> n3, t_S -> n4, seq(t_p) -> n5 }
  rate: (n2 / ((n1 + 1) * va + n2 * vb) - n4 / ((n3 + 1) * va + n4 * vb)) * k * (n5 + 1)
}

rule W_in {
  lhs: <~x>[ $X ] | W | $Y
  rhs: <~x>[ W | $X ] | $Y
  count $X { t_W -> n1, t_S -> n2 }
  count $Y { t_W -> n3, t_S -> n4, seq(t_p) -> n5 }
  rate: (n4 / ((n3 + 1) * va + n4 * vb) - n2 / ((n1 + 1) * va + n2 * vb)) * k * (n5 + 1)
}

rule A_to_B {
  lhs: A | $X
  rhs: B | $X
  count $X { t_A -> n }
  rate: (n + 1) * ka
}

rule B_to_A {
  lhs: B | $X
  rhs: A | $X
  count $X { t_B -> n }
  rate: (n + 1) * kb
}

init: 12 * W | 6 * S | 2 * A | 2 * <m.p>[ 3 * W | 2 * S | A ] \
| <p.m>[ 2 * W | 4 * S ] | <m.m>[ 5 * W | S | 2 * A ] | <aq.m.p>[ 4 * W | 3 * S ]
observe W, S, A, B
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
