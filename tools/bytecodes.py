"""Bytecodes per event of ``engine.simulate``, counted by ``sys.settrace``.

Every bytecode executed inside ``simulate`` is counted through the
tracer's opcode events; parsing and model generation stay outside the
count. The count does not depend on the host's speed, so it shows small
changes to the work of a step that wall time cannot tell from noise.

Workloads, each model parsed once per run shown:

* ``lac``: ``models/lac_operon.tscls``, parsed once per seed, seeds
  0-11 at ``--max-steps 150``;
* ``mass`` and ``cells``: ``perfbench/gen.py``'s ``mass_model(g, 120)``
  and ``cells_model(g, 25)``, parsed once per ``g`` for ``g`` = 0-11, each
  run with simulation seeds 0 and 1.

Run from the repository root::

    python3 tools/bytecodes.py [lac] [mass] [cells]

It prints one line per workload: its name, events, and bytecodes per
event.
"""

from __future__ import annotations

import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from tscls.engine import simulate  # noqa: E402
from tscls.syntax import parse_model  # noqa: E402

# perfbench/gen.py, loaded by path: perfbench is not a package
_spec = importlib.util.spec_from_file_location(
    "perfbench_gen", os.path.join(ROOT, "perfbench", "gen.py"))
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


def counted(model, cfg) -> tuple[int, int]:
    """The events of ``simulate(model, cfg)`` and the bytecodes it ran."""
    ran = 0

    def opcode(frame, event, arg):
        nonlocal ran
        if event == "opcode":
            ran += 1
        return opcode

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return opcode

    before = sys.gettrace()
    sys.settrace(call)
    try:
        trace = simulate(model, cfg)
    finally:
        sys.settrace(before)
    return trace.steps, ran


def runs(workload: str, count: int = 12):
    """``(model, config)`` of each run of the workload, its first
    ``count`` models."""
    if workload == "lac":
        with open(os.path.join(ROOT, "models", "lac_operon.tscls"),
                  encoding="utf-8") as fh:
            text = fh.read()
        for seed in range(count):
            model = parse_model(text)
            yield model, model.sim_config(seed=seed, max_steps=150)
        return
    make, steps = {"mass": (gen.mass_model, 120),
                   "cells": (gen.cells_model, 25)}[workload]
    for g in range(count):
        model = parse_model(make(g, steps))
        for seed in (0, 1):
            yield model, model.sim_config(seed=seed)


def per_event(workload: str, count: int = 12) -> tuple[int, float]:
    """The workload's events and bytecodes per event."""
    events = ran = 0
    for model, cfg in runs(workload, count):
        steps, n = counted(model, cfg)
        events += steps
        ran += n
    return events, ran / events


def main(argv: list[str]) -> None:
    for workload in argv or ["lac", "mass", "cells"]:
        events, each = per_event(workload)
        print(f"{workload}: {events} events, {each:,.0f} bytecodes per event")


if __name__ == "__main__":
    main(sys.argv[1:])
