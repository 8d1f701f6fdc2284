"""Print every end-to-end metric of every workload, one table.

    python3 perfbench/report.py [--seed 1]

Runs ``run.py`` once per workload for the ``run_seconds`` of
``BENCHMARK.json``, each in its own process so that ``peak_rss_mb`` is the
high-water memory of a process that runs only that workload, and prints
each metric by name and unit, plus ``fail_ratio`` (failed trajectories
over attempted ones).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
    seconds = bench["run_seconds"]
    status = 0
    for name in run.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(run.__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(seconds),
             "--trace", "0"],
            capture_output=True, text=True, timeout=seconds + 170)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        done = res["attempted"] - res["failed"]
        rows = [(k, m["value"], m["unit"],
                 f"median of {done} trajectories" if k == "traj_s_p50" else "")
                for k, m in res["metrics"].items()]
        rows.append(("fail_ratio", res["failed"] / res["attempted"], "ratio",
                     f"{res['failed']} of {res['attempted']} trajectories"))
        for metric, value, unit, note in rows:
            print(f"{name:6s} {metric:36s} {value:12.6g} {unit:8s} {note}")
        if not res["correct"]:
            print(f"{name}: outputs are not correct")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
