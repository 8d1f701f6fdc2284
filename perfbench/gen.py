"""Model-text generators for the generated workloads.

Each generator takes a generator seed and returns the text of a model
file; the simulator sees only that text, through ``tscls check`` and
``tscls run``. The generators build strings by hand and import nothing
from ``tscls``, so a change to the program cannot change its inputs.
"""

from __future__ import annotations

import random


def _const(name: str, value: float) -> str:
    return f"const {name} = {value!r}"


def mass_model(seed: int, max_steps: int) -> str:
    """One well-mixed compartment of about 1,000 components.

    Four species: A binds B into C, C unbinds, and A converts to D and
    back. Every rule has the ``ground | $X`` shape with its counts on
    ``$X``, so matching is a lookup over four distinct components while
    typed counting and observation walk the whole compartment. The rate
    constants put the initial state near equilibrium, so the compartment
    stays near its initial size, and no rule is ever disabled for long.
    """
    rng = random.Random(f"mass/{seed}")
    n_a = rng.randint(260, 340)
    n_b = rng.randint(260, 340)
    n_d = rng.randint(120, 180)
    n_c = 1000 - n_a - n_b - n_d
    kb = round(rng.uniform(0.8e-3, 1.2e-3), 6)
    kf = round(rng.uniform(0.05, 0.15), 4)
    # detailed balance at the initial counts: kb*A*B = ku*C, kf*A = kr*D
    ku = round(kb * n_a * n_b / n_c, 6)
    kr = round(kf * n_a / n_d, 6)
    return "\n".join([
        f"model mass_{seed}",
        "",
        _const("kb", kb), _const("ku", ku), _const("kf", kf),
        _const("kr", kr),
        "",
        "rule bind {",
        "  lhs: A | B | $X",
        "  rhs: C | $X",
        "  count $X { t_A -> n1, t_B -> n2 }",
        "  rate: (n1 + 1) * (n2 + 1) * kb",
        "}",
        "",
        "rule unbind {",
        "  lhs: C | $X",
        "  rhs: A | B | $X",
        "  count $X { t_C -> n }",
        "  rate: (n + 1) * ku",
        "}",
        "",
        "rule convert {",
        "  lhs: A | $X",
        "  rhs: D | $X",
        "  count $X { t_A -> n }",
        "  rate: (n + 1) * kf",
        "}",
        "",
        "rule revert {",
        "  lhs: D | $X",
        "  rhs: A | $X",
        "  count $X { t_D -> n }",
        "  rate: (n + 1) * kr",
        "}",
        "",
        f"init: {n_a} * A | {n_b} * B | {n_c} * C | {n_d} * D",
        "observe A, B, C, D",
        f"run {{ seed: 1, tmax: 1e9, max_steps: {max_steps}, samples: 100 }}",
        "",
    ])


# membrane element pool; rotations of mixed membranes are distinct
_MEMBRANE = ("m", "p", "aq")


def _conc(n_w: str, n_s: str) -> str:
    # concentration law of catalog.osmosis_rules: n_s / ((n_w+1)*va + n_s*vb)
    return f"{n_s} / (({n_w} + 1) * va + {n_s} * vb)"


def cells_model(seed: int, max_steps: int) -> str:
    """A tissue of about 20 cells in one outer compartment.

    Water ``W`` crosses each membrane by the paired, mutually negated
    osmosis laws of ``catalog.osmosis_rules`` (solute ``S``), written as
    ``<~x>[ W | $X ] | $Y`` rules, so at most one direction is enabled
    per cell. Inside every compartment ``A`` and ``B`` interconvert by
    ``ground | $X`` rules. Membranes of two to four elements make
    matching enumerate every loop and membrane rotation.
    """
    rng = random.Random(f"cells/{seed}")
    n_cells = rng.randint(18, 22)
    cells: list[str] = []
    for _ in range(n_cells):
        length = rng.randint(2, 4)
        membrane = ".".join(rng.choice(_MEMBRANE) for _ in range(length))
        parts = [f"{rng.randint(2, 6)} * W", f"{rng.randint(1, 5)} * S"]
        n_a = rng.randint(0, 3)
        if n_a:
            parts.append(f"{n_a} * A")
        cells.append(f"<{membrane}>[ {' | '.join(parts)} ]")
    outer = [f"{rng.randint(15, 25)} * W", f"{rng.randint(6, 12)} * S",
             "2 * A"]
    consts = {
        "sv": round(rng.uniform(0.5, 1.5), 4),
        "va": 1.0,
        "vb": round(rng.uniform(1.5, 2.5), 4),
        "k": round(rng.uniform(5.0, 15.0), 4),
        "ka": round(rng.uniform(0.5, 1.5), 4),
        "kb": round(rng.uniform(0.5, 1.5), 4),
    }
    inner, outer_c = _conc("n1", "n2"), _conc("n3", "n4")
    counts = ["  count $X { t_W -> n1, t_S -> n2 }",
              "  count $Y { t_W -> n3, t_S -> n4 }"]
    lines = [f"model cells_{seed}", ""]
    lines += [_const(name, value) for name, value in consts.items()]
    lines += [
        "",
        "rule W_out {",
        "  lhs: <~x>[ W | $X ] | $Y",
        "  rhs: <~x>[ $X ] | W | $Y",
        *counts,
        f"  rate: sv * ({inner} - {outer_c}) * k",
        "}",
        "",
        "rule W_in {",
        "  lhs: <~x>[ $X ] | W | $Y",
        "  rhs: <~x>[ W | $X ] | $Y",
        *counts,
        f"  rate: sv * ({outer_c} - {inner}) * k",
        "}",
        "",
        "rule A_to_B {",
        "  lhs: A | $X",
        "  rhs: B | $X",
        "  count $X { t_A -> n }",
        "  rate: (n + 1) * ka",
        "}",
        "",
        "rule B_to_A {",
        "  lhs: B | $X",
        "  rhs: A | $X",
        "  count $X { t_B -> n }",
        "  rate: (n + 1) * kb",
        "}",
        "",
        "init: " + " | ".join(outer + cells),
        "observe W, S, A, B",
        f"run {{ seed: 1, tmax: 1e9, max_steps: {max_steps}, samples: 100 }}",
        "",
    ]
    return "\n".join(lines)
