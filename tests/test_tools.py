import importlib.util
import os

from conftest import ROOT


def load_tool(name):
    path = os.path.join(ROOT, "tools", name + ".py")
    spec = importlib.util.spec_from_file_location("tools_" + name, path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_bytecode_counter_counts_a_small_run():
    # tools/bytecodes.py on one lac run and one cells model's two runs
    tool = load_tool("bytecodes")
    for workload in ("lac", "cells"):
        events, each = tool.per_event(workload, 1)
        assert events > 0 and each > 0, workload
    # one perfbench lac trajectory of each stratum, after one not counted
    for stratum in ("quiet", "induced"):
        count, each, setup = tool.per_trajectory(stratum, 1, 1)
        assert count == 1 and each > setup > 0, stratum
    # a first parse, twice: with the tables emptied, the count repeats
    for workload in ("lac", "mass", "cells"):
        text = tool.model_text(workload)
        assert tool.first_parse(text) == tool.first_parse(text) > 0, workload


def test_cold_costs_time_a_few_processes(capsys):
    # tools/cold.py, this checkout against itself: one pair of two cases
    # with and without a bytecode cache
    tool = load_tool("cold")
    summary = tool.report(tool.measure(ROOT, 1, ("check-lac", "run-mass")))
    assert set(summary) == {f"{case} {cache}"
                            for case in ("check-lac", "run-mass")
                            for cache in ("no-cache", "cache")}
    for row in summary.values():
        assert row["parent_ms"] > 0 and row["change_ms"] > 0
        assert row["pairs_won"] in ("0/1", "1/1")
    assert capsys.readouterr().out.count("\n") == 4
