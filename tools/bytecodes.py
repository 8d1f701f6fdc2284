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

A first parse (``first``) counts one ``parse_model`` of each of lac,
``mass_model(0, 120)`` and ``cells_model(0, 25)``, with every table
tscls keeps per process emptied first: what a single ``tscls check`` or
``tscls run`` parses. This count repeats exactly from one process to
the next.

Run from the repository root::

    python3 tools/bytecodes.py [lac] [mass] [cells] [quiet] [induced] [first]

It prints one line per workload: its name, events, and bytecodes per
event; for a stratum, its trajectories, bytecodes per trajectory and
those inside ``parse_model`` and ``Enumerator.__init__``; for ``first``,
the bytecodes of each model's first parse.
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
from tscls.terms import Table  # noqa: E402

LAC = os.path.join(ROOT, "models", "lac_operon.tscls")

# perfbench/gen.py, loaded by path: perfbench is not a package
_spec = importlib.util.spec_from_file_location(
    "perfbench_gen", os.path.join(ROOT, "perfbench", "gen.py"))
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


def bytecodes(call, *args) -> tuple[object, int]:
    """What ``call(*args)`` returns and the bytecodes it ran."""
    ran = 0

    def opcode(frame, event, arg):
        nonlocal ran
        if event == "opcode":
            ran += 1
        return opcode

    def start(frame, event, arg):
        frame.f_trace_opcodes = True
        return opcode

    before = sys.gettrace()
    sys.settrace(start)
    try:
        return call(*args), ran
    finally:
        sys.settrace(before)


def first_parse(text: str) -> int:
    """The bytecodes of one ``parse_model`` of ``text``, with every table
    tscls keeps per process emptied first."""
    for name, module in list(sys.modules.items()):
        if name.startswith("tscls."):
            for value in vars(module).values():
                if isinstance(value, Table):
                    value.clear()
    return bytecodes(parse_model, text)[1]


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


def model_text(workload: str, g: int = 0) -> str:
    """The workload's model text: lac's, or its generated model ``g``."""
    if workload == "lac":
        with open(LAC, encoding="utf-8") as fh:
            return fh.read()
    make, steps = {"mass": (gen.mass_model, 120),
                   "cells": (gen.cells_model, 25)}[workload]
    return make(g, steps)


def runs(workload: str, count: int = 12):
    """``(model, config)`` of each run of the workload, its first
    ``count`` models."""
    if workload == "lac":
        text = model_text(workload)
        for seed in range(count):
            model = parse_model(text)
            yield model, model.sim_config(seed=seed, max_steps=150)
        return
    for g in range(count):
        model = parse_model(model_text(workload, g))
        for seed in (0, 1):
            yield model, model.sim_config(seed=seed)


def per_event(workload: str, count: int = 12) -> tuple[int, float]:
    """The workload's events and bytecodes per event."""
    events = ran = 0
    for model, cfg in runs(workload, count):
        trace, n = bytecodes(simulate, model, cfg)
        events += trace.steps
        ran += n
    return events, ran / events


def main(argv: list[str]) -> None:
    for workload in argv or ["lac", "mass", "cells", "quiet", "induced",
                             "first"]:
        if workload == "first":
            print("first parse: " + ", ".join(
                f"{name} {first_parse(model_text(name)):,}"
                for name in ("lac", "mass", "cells")) + " bytecodes")
            continue
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
