"""Cold costs of tscls: what a fresh process pays, parent against change.

Each case runs in a new Python process, timed from its start to its
exit, with the ``src/`` of a parent and of this checkout, the change, in
turn: one pair at a time, the side that goes first alternating from pair
to pair, so both sides see the same host. Cases:

* ``import``: ``python -c "import tscls.cli"``;
* ``check-lac`` and ``run-lac``: ``tscls check`` and ``tscls run --seed 3
  --max-steps 150`` of ``models/lac_operon.tscls``;
* ``check-mass`` and ``run-mass``: the same of ``perfbench/gen.py``'s
  ``mass_model(0, 120)``.

Each case is timed without a bytecode cache, tscls's sources compiled in
every process as on a host that sets ``PYTHONDONTWRITEBYTECODE`` (the
standard library keeps its installed cache), and with one: then
``PYTHONPYCACHEPREFIX`` names a temporary directory, which one untimed
process fills first. Both sides read this checkout's model files, and
each side's ``src/`` is copied into a temporary directory first, so
no cache in a checkout is read or written.

Run from the repository root, with the parent as a checkout directory
or a git revision of this repository::

    python3 tools/cold.py PARENT

It runs 30 pairs of every case, and prints one line per case and cache:
the median and interquartile range of each side in ms, the change
against the parent, and the pairs the change was faster in; the last
line is the same as one JSON object.
"""

from __future__ import annotations

import importlib.util
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CASES = ("import", "check-lac", "run-lac", "check-mass", "run-mass")
PAIRS = 30
CLI = "import sys; from tscls.cli import main; sys.exit(main(sys.argv[1:]))"


def source(where: str, into: str) -> str:
    """Copy the ``src/`` of the checkout directory or git revision
    ``where`` into the directory ``into``; returns the copy's path."""
    if os.path.isdir(where):
        shutil.copytree(os.path.join(where, "src"), os.path.join(into, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
    else:
        archive = subprocess.run(["git", "-C", ROOT, "archive", where, "src"],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(into)
    return os.path.join(into, "src")


def commands(case: str, work: str) -> list[str]:
    """The command line of ``case``; its files are written under ``work``."""
    if case == "import":
        return [sys.executable, "-c", "import tscls.cli"]
    verb, model = case.split("-")
    path = os.path.join(work, f"{model}.tscls")
    if not os.path.exists(path):
        if model == "lac":
            shutil.copy(os.path.join(ROOT, "models", "lac_operon.tscls"), path)
        else:
            spec = importlib.util.spec_from_file_location(
                "perfbench_gen", os.path.join(ROOT, "perfbench", "gen.py"))
            gen = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(gen)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(gen.mass_model(0, 120))
    argv = [sys.executable, "-c", CLI, verb, path]
    if verb == "run":
        argv += ["--seed", "3", "--max-steps", "150",
                 "--out", os.path.join(work, "trace.csv")]
    return argv


def environment(src: str, cache) -> dict:
    """The environment of a process that imports tscls from ``src``, with
    no bytecode cache, or with the one at the path ``cache``."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONPYCACHEPREFIX",
                        "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = src
    if cache is None:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env["PYTHONPYCACHEPREFIX"] = cache
    return env


def timed(argv: list[str], env: dict) -> float:
    """The wall time of one process, in seconds."""
    start = perf_counter()
    subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                   stderr=subprocess.PIPE, check=True)
    return perf_counter() - start


def spread(values: list[float]) -> tuple[float, float]:
    """The median and the interquartile range."""
    if len(values) < 2:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q3 - q1


def measure(parent: str, pairs: int, cases) -> dict:
    """Per case and cache, each side's times over ``pairs`` pairs."""
    out = {}
    with tempfile.TemporaryDirectory() as work:
        sides = {side: source(where, os.path.join(work, side))
                 for side, where in (("parent", parent), ("change", ROOT))}
        for case in cases:
            argv = commands(case, work)
            for cached in (False, True):
                envs = {}
                for side, src in sides.items():
                    cache = (os.path.join(work, side, f"pycache-{case}")
                             if cached else None)
                    envs[side] = environment(src, cache)
                    if cached:
                        timed(argv, envs[side])  # fills the cache
                times = {"parent": [], "change": []}
                for i in range(pairs):
                    order = ("parent", "change") if i % 2 == 0 \
                        else ("change", "parent")
                    for side in order:
                        times[side].append(timed(argv, envs[side]))
                out[f"{case} {'cache' if cached else 'no-cache'}"] = times
    return out


def report(results: dict) -> dict:
    """Print a line per case and cache; returns the figures in ms."""
    summary = {}
    for name, times in results.items():
        (p_med, p_iqr), (c_med, c_iqr) = (spread(times["parent"]),
                                          spread(times["change"]))
        won = sum(c < p for p, c in zip(times["parent"], times["change"]))
        summary[name] = {
            "parent_ms": round(p_med * 1e3, 2),
            "parent_iqr_ms": round(p_iqr * 1e3, 2),
            "change_ms": round(c_med * 1e3, 2),
            "change_iqr_ms": round(c_iqr * 1e3, 2),
            "change_vs_parent": round(c_med / p_med - 1, 4),
            "pairs_won": f"{won}/{len(times['change'])}"}
        print(f"{name:22s} parent {p_med * 1e3:7.1f} ms (IQR"
              f" {p_iqr * 1e3:5.1f})  change {c_med * 1e3:7.1f} ms (IQR"
              f" {c_iqr * 1e3:5.1f})  {c_med / p_med - 1:+.1%}, change"
              f" faster in {won}/{len(times['change'])}")
    return summary


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    print(json.dumps(report(measure(sys.argv[1], PAIRS, CASES))))
