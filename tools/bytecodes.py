"""Bytecodes of tscls runs, counted by ``sys.settrace``.

Every bytecode executed in the counted call is counted through the
tracer's opcode events. The count does not depend on the host's speed,
so it shows small changes to the work of a step or of a trajectory that
wall time cannot tell from noise.

Per event, the count covers ``engine.simulate`` alone; parsing and model
generation stay outside it. Workloads, each model parsed once per run
shown:

* ``lac``: ``models/lac_operon.tscls``, parsed once per seed, seeds
  0-11 at ``--max-steps 150``;
* ``mass`` and ``cells``: ``perfbench/gen.py``'s ``mass_model(g, 120)``
  and ``cells_model(g, 25)``, parsed once per ``g`` for ``g`` = 0-11, each
  run with simulation seeds 0 and 1.

Per trajectory, the count covers one perfbench lac trajectory as a user
runs it, ``cli.main(["run", MODEL, "--seed", S, "--out", FILE,
"--max-steps", "150"])``: parsing, the run and the trace writing, where a
quiet trajectory spends most of its time. The trajectories are those of
one stratum (``quiet`` or ``induced``, by the halt reason recorded in
``perfbench/expected.json``) in the order perfbench's ``--seed 7`` gives
them, 40 of them counted after 8 uncounted ones, so what a process keeps
from one trajectory to the next is in place. The bytecodes run inside
``parse_model`` and ``Enumerator.__init__``, callees included, are
reported too.

Run from the repository root::

    python3 tools/bytecodes.py [lac] [mass] [cells] [quiet] [induced]

It prints one line per workload: its name, events, and bytecodes per
event; or, for a stratum, its trajectories, bytecodes per trajectory and
those inside ``parse_model`` and ``Enumerator.__init__``.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from tscls import cli  # noqa: E402
from tscls.engine import simulate  # noqa: E402
from tscls.semantics import Enumerator  # noqa: E402
from tscls.syntax import parse_model  # noqa: E402

LAC = os.path.join(ROOT, "models", "lac_operon.tscls")

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


def stratum(name: str, seed: int = 7):
    """The lac seeds of perfbench's stratum ``name``, ``quiet`` or
    ``induced``, cycled in the order its ``--seed`` gives them: each
    stratum is shuffled by one generator, the induced one first."""
    with open(os.path.join(ROOT, "perfbench", "expected.json"),
              encoding="utf-8") as fh:
        records = json.load(fh)["lac"]["trajectories"]
    seeds = {"induced": [], "quiet": []}
    for s in range(len(records)):
        induced = records[f"s{s}"]["halt"] == "max_steps"
        seeds["induced" if induced else "quiet"].append(s)
    rng = random.Random(seed)
    for key in ("induced", "quiet"):
        rng.shuffle(seeds[key])
    while True:
        yield from seeds[name]


def per_trajectory(name: str, count: int = 40, warm: int = 8
                   ) -> tuple[int, float, float]:
    """The trajectories counted of lac's stratum ``name``, their bytecodes
    per trajectory through ``cli.main``, and those run inside
    ``parse_model`` and ``Enumerator.__init__``, after ``warm``
    trajectories not counted."""
    inside = {parse_model.__code__, Enumerator.__init__.__code__}
    ran = within = depth = 0

    def opcode(frame, event, arg):
        nonlocal ran, within, depth
        if event == "opcode":
            ran += 1
            within += depth > 0
        elif event == "return" and frame.f_code in inside:
            depth -= 1
        return opcode

    def call(frame, event, arg):
        nonlocal depth
        frame.f_trace_opcodes = True
        if frame.f_code in inside:
            depth += 1
        return opcode

    seeds = stratum(name)
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "trace.csv")
        for i in range(warm + count):
            argv = ["run", LAC, "--seed", str(next(seeds)), "--out", out,
                    "--max-steps", "150"]
            with contextlib.redirect_stdout(io.StringIO()):
                if i < warm:
                    code = cli.main(argv)
                    continue
                before = sys.gettrace()
                sys.settrace(call)
                try:
                    code = cli.main(argv)
                finally:
                    sys.settrace(before)
            if code != 0:
                raise RuntimeError(f"tscls run failed: {argv}")
    return count, ran / count, within / count


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
    for workload in argv or ["lac", "mass", "cells", "quiet", "induced"]:
        if workload in ("quiet", "induced"):
            count, each, setup = per_trajectory(workload)
            print(f"lac {workload}: {count} trajectories, {each:,.0f}"
                  f" bytecodes per trajectory, {setup:,.0f} inside"
                  f" parse_model and Enumerator.__init__")
            continue
        events, each = per_event(workload)
        print(f"{workload}: {events} events, {each:,.0f} bytecodes per event")


if __name__ == "__main__":
    main(sys.argv[1:])
