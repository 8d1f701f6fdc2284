import importlib.util
import os

from conftest import ROOT


def test_bytecode_counter_counts_a_small_run():
    # tools/bytecodes.py on one lac run and one cells model's two runs
    path = os.path.join(ROOT, "tools", "bytecodes.py")
    spec = importlib.util.spec_from_file_location("tools_bytecodes", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for workload in ("lac", "cells"):
        events, each = tool.per_event(workload, 1)
        assert events > 0 and each > 0, workload
    # one perfbench lac trajectory of each stratum, after one not counted
    for stratum in ("quiet", "induced"):
        count, each, setup = tool.per_trajectory(stratum, 1, 1)
        assert count == 1 and each > setup > 0, stratum
