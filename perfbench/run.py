"""End-to-end benchmark of tscls: SSA events per second on three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lac --seed 1 --seconds 30 --trace 0

Every trajectory runs in this process as
``tscls.cli.main(["run", MODEL, "--seed", S, "--out", FILE, ...])``, the
path CLI and library users take (parse, ``simulate``, trace writer), in a
closed loop: the next trajectory starts when the previous one returns, and
trajectories are started until ``--seconds`` have passed. Each written
trace is checked against the SHA-256 digest, step count and halt reason
recorded in ``expected.json``; a mismatch, an exception or a non-zero exit
counts as a failed trajectory.

Workloads (the reasons and the layer map are in ``workloads.json``):

* ``lac``  -- the shipped ``models/lac_operon.tscls``. Blocks of one
  induced trajectory (lactose enters the cell; capped at 150 events) and
  three quiet ones, drawn from the recorded seeds 0..199.
* ``mass`` -- a generated well-mixed compartment of about 1,000
  components (``gen.mass_model``), 120 events per trajectory.
* ``cells`` -- a generated tissue of about 20 cells with osmosis rules
  (``gen.cells_model``), 25 events per trajectory.

``--seed`` orders the recorded pool: it shuffles each stratum, and the
stream cycles through it, so the same seed gives the same inputs.

``--trace 0`` prints the end-to-end metrics: ``events_per_s`` (events over
the summed trajectory wall time), ``traj_s_p50`` (median trajectory wall
time), ``setup_s`` (median wall time of ``tscls check``, timed once before
every trajectory) and ``peak_rss_mb``. The times are rescaled to a
reference host on which ``host_kernel()`` takes ``KERNEL_REF_S``: the
kernel is timed right after every trajectory, and each trajectory and its
check are multiplied by ``KERNEL_REF_S`` over that kernel time. The
unscaled values are printed on a ``# unscaled:`` line.

``--trace 1`` runs the stream's blocks alternately untraced and traced
(see ``tracer.py``), so no trajectory runs twice and the traced ones see
the same process state as in a timed run, and prints the per-layer
metrics, normalised per traced SSA event. Traced trajectories are checked
against the same records as untraced ones. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Iterator, Optional

import gen
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
LAC_MODEL = ROOT / "models" / "lac_operon.tscls"
LAC_SEEDS = range(200)
LAC_MAX_STEPS = 150
QUIET_PER_INDUCED = 3
GEN_SEEDS = range(16)
SIM_SEEDS = range(2)
MASS_STEPS = 120
CELLS_STEPS = 25
# reference host: one on which host_kernel() takes this long
KERNEL_REF_S = 0.005


def import_cli():
    """Import ``tscls.cli`` from this checkout's ``src``, never elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from tscls import cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import tscls from {src}: {exc}")
    if Path(cli.__file__).resolve().parents[1] != src:
        raise SystemExit(f"perfbench: tscls imported from {cli.__file__}, "
                         f"not from {src}")
    return cli


@dataclass(frozen=True)
class Traj:
    key: str       # key into expected.json
    model: Path
    seed: int
    extra: tuple[str, ...] = ()

    def argv(self, out: Path) -> list[str]:
        return ["run", str(self.model), "--seed", str(self.seed),
                "--out", str(out), *self.extra]


@dataclass
class Workload:
    name: str
    models: dict[str, str]                # model key -> model text
    strata: list[tuple[list[Traj], int]]  # (pool, trajectories per block)

    def stream(self, seed: int) -> Iterator[Traj]:
        """Blocks of ``per_block`` trajectories from every stratum; each
        stratum is a seeded permutation of its pool, cycled."""
        rng = random.Random(seed)
        orders = []
        for pool, _ in self.strata:
            order = list(pool)
            rng.shuffle(order)
            orders.append(order)
        i = 0
        while True:
            for (_, per_block), order in zip(self.strata, orders):
                for j in range(per_block):
                    yield order[(i * per_block + j) % len(order)]
            i += 1


def build_workload(name: str, work: Path,
                   records: Optional[dict]) -> Workload:
    """Write the workload's model files into ``work``. ``records`` are the
    workload's recorded trajectories, or None when recording."""
    if name == "lac":
        trajs = [Traj(f"s{s}", LAC_MODEL, s,
                      ("--max-steps", str(LAC_MAX_STEPS)))
                 for s in LAC_SEEDS]
        models = {"lac": LAC_MODEL.read_text(encoding="utf-8")}
        if records is None:
            return Workload(name, models, [(trajs, 1)])
        induced = [t for t in trajs if records[t.key]["halt"] == "max_steps"]
        quiet = [t for t in trajs if records[t.key]["halt"] != "max_steps"]
        return Workload(name, models,
                        [(induced, 1), (quiet, QUIET_PER_INDUCED)])
    make, steps = {"mass": (gen.mass_model, MASS_STEPS),
                   "cells": (gen.cells_model, CELLS_STEPS)}[name]
    models, trajs = {}, []
    for g in GEN_SEEDS:
        key = f"g{g}"
        models[key] = make(g, steps)
        path = work / f"{name}_{key}.tscls"
        path.write_text(models[key], encoding="utf-8")
        trajs += [Traj(f"{key}/s{s}", path, s) for s in SIM_SEEDS]
    return Workload(name, models, [(trajs, 1)])


WORKLOADS = ("lac", "mass", "cells")


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class Outcome:
    wall: float
    ok: bool
    steps: int = 0
    halt: str = ""
    digest: str = ""
    size: int = 0
    error: str = ""


def run_traj(cli, traj: Traj, out: Path, tracer=None) -> Outcome:
    """One trajectory through the CLI; its stdout summary is captured."""
    buf = io.StringIO()
    if out.exists():
        out.unlink()
    argv = traj.argv(out)
    try:
        with contextlib.redirect_stdout(buf):
            t0 = perf_counter()
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call(cli.main, argv)
            wall = perf_counter() - t0
    except (Exception, SystemExit) as exc:
        return Outcome(0.0, False, error=f"{type(exc).__name__}: {exc}")
    if code != 0:
        return Outcome(wall, False, error=f"exit code {code}")
    fields = dict(part.split("=", 1) for part in buf.getvalue().split()
                  if "=" in part)
    try:
        steps = int(fields["steps"])
        halt = fields["halt"]
    except (KeyError, ValueError):
        return Outcome(wall, False, error=f"bad summary {buf.getvalue()!r}")
    return Outcome(wall, True, steps, halt, file_digest(out),
                   out.stat().st_size)


def verify(outcome: Outcome, record: dict) -> Outcome:
    if outcome.ok and (outcome.digest != record["sha256"]
                       or outcome.steps != record["steps"]
                       or outcome.halt != record["halt"]):
        outcome.ok = False
        outcome.error = (f"trace differs from record: steps {outcome.steps} "
                         f"halt {outcome.halt} sha256 {outcome.digest[:12]}")
    return outcome


def time_check(cli, model: Path) -> float:
    """Wall time of ``tscls check`` on one model: parse and validation."""
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        code = cli.main(["check", str(model)])
        wall = perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"tscls check failed on {model}")
    return wall


def host_kernel() -> float:
    """Wall time of a fixed pure-Python arithmetic loop that does not
    touch tscls: a probe of how fast this host runs the interpreter at the
    moment."""
    t0 = perf_counter()
    acc = 0
    for i in range(60000):
        acc += i * i % 7
    return perf_counter() - t0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(tracer, events: list[int],
                  walls: tuple[list[float], list[float]]) -> dict:
    """Per-layer metrics of a traced run; counts and self times are per
    traced SSA event, so they do not depend on the run's length.
    ``events`` and ``walls`` are indexed 0 for the untraced trajectories
    and 1 for the traced ones."""
    calls, self_s, st = tracer.calls, tracer.self_s, tracer.stats
    ev = max(events[1], 1)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {}
    for layer in ("semantics.transitions", "matching.match_whole",
                  "semantics.count_types", "semantics.eval_rate",
                  "matching.substitute", "matching.splice",
                  "terms.canonicalize"):
        out[f"{layer}.calls"] = metric(calls[layer] / ev, "1/event")
    for layer in ("semantics.transitions", "matching.compartments",
                  "matching.match_whole", "semantics.count_types",
                  "semantics.eval_rate", "matching.substitute",
                  "matching.splice", "terms.canonicalize", "engine", "cli",
                  "syntax.parse_model"):
        out[f"{layer}.self_s"] = metric(self_s[layer] / ev, "s/event")
    out["semantics.transitions.out_mean"] = metric(
        ratio(st["semantics.transitions.out"], calls["semantics.transitions"]),
        "count")
    out["semantics.kept_ratio"] = metric(
        ratio(st["semantics.transitions.out"], calls["semantics.eval_rate"]),
        "ratio")
    sites = st["matching.compartments.sites"]
    out["matching.compartments.per_call"] = metric(
        ratio(sites, calls["matching.compartments"]), "count")
    out["matching.compartments.size_mean"] = metric(
        ratio(st["matching.compartments.components"], sites), "count")
    hits = st["matching.match_whole.hits"]
    out["matching.match_whole.insts"] = metric(
        st["matching.match_whole.insts"] / ev, "1/event")
    out["matching.match_whole.hit_ratio"] = metric(
        ratio(hits, calls["matching.match_whole"]), "ratio")
    out["matching.match_whole.multi_ratio"] = metric(
        ratio(st["matching.match_whole.multi"], hits), "ratio")
    out["matching.counter_hit_ratio"] = metric(
        ratio(st["matching.counter_hits"], calls["matching.match_whole"]),
        "ratio")
    out["semantics.count_types.components"] = metric(
        st["semantics.count_types.components"] / ev, "1/event")
    out["terms.canonicalize.hit_ratio"] = metric(
        ratio(st["terms.canonicalize.hits"], calls["terms.canonicalize"]),
        "ratio")
    out["engine.useful_target_ratio"] = metric(
        ratio(events[1], st["matching.substitute.top"]), "ratio")
    out["cli.bytes"] = metric(st["cli.bytes"] / ev, "B/event")
    wall_u, wall_t = sum(walls[0]), sum(walls[1])
    # wall per event, traced over untraced: the two halves run different
    # trajectories, so their lengths differ
    out["trace_overhead_ratio"] = metric(
        ratio(ratio(wall_t, events[1]), ratio(wall_u, events[0])), "ratio")
    # share of traced wall time inside the named layers, i.e. outside the
    # remainder cli.self_s (trace writing and argument handling)
    out["trace.layer_share"] = metric(
        ratio(wall_t - self_s["cli"], wall_t), "ratio")
    return out


def measure(cli, wl: Workload, records: dict, seed: int, seconds: float,
            trace: bool, work: Path) -> tuple[int, int, bool, dict]:
    """Run trajectories from the workload's stream for ``seconds``.

    Returns (attempted, failed, restored, metrics). With ``trace`` the
    stream's blocks run alternately untraced and traced, and the metrics
    are the per-layer ones; ``restored`` tells whether every traced name
    was put back after each traced trajectory. The seed's shuffle decides
    which trajectories of a pool fall in the traced blocks.
    """
    out = work / "trace.csv"
    stream = wl.stream(seed)
    block = sum(per_block for _, per_block in wl.strata)
    attempted = failed = 0
    restored = True
    tracer = Tracer()
    # index 0: untraced trajectories, 1: traced ones
    tried = [0, 0]
    events = [0, 0]
    walls: tuple[list[float], list[float]] = ([], [])
    checks: list[float] = []
    scales: list[float] = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not tried[trace]:
        traj = next(stream)
        traced = trace and (attempted // block) % 2 == 1
        attempted += 1
        tried[traced] += 1
        if traced:
            tracer.install()
            try:
                res = run_traj(cli, traj, out, tracer)
            finally:
                restored &= tracer.uninstall()
            tracer.fold()
        else:
            check_s = 0.0 if trace else time_check(cli, traj.model)
            res = run_traj(cli, traj, out)
        res = verify(res, records[traj.key])
        if not res.ok:
            failed += 1
            print(f"perfbench: {wl.name} {traj.key} failed: {res.error}",
                  file=sys.stderr)
            continue
        walls[traced].append(res.wall)
        events[traced] += res.steps
        if traced:
            tracer.stats["cli.bytes"] += res.size
        elif not trace:
            checks.append(check_s)
            scales.append(KERNEL_REF_S / host_kernel())
    if trace:
        return attempted, failed, restored, layer_metrics(
            tracer, events, walls)
    timed, steps = walls[0], events[0]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def median(values: list[float]) -> float:
        return statistics.median(values) if values else 0.0

    # Each trajectory and its check are rescaled to a reference host speed
    # by the kernel timed right after them: a shared host's speed drifts by
    # tens of percent with the load of other tenants, which would
    # otherwise read as a change of the program.
    scaled = [w * k for w, k in zip(timed, scales)]
    host_s = KERNEL_REF_S / median(scales) if scales else 0.0
    print(f"# unscaled: host_kernel_s {host_s:.6g} "
          f"events_per_s {steps / sum(timed) if timed else 0.0:.6g} "
          f"traj_s_p50 {median(timed):.6g} setup_s {median(checks):.6g}")
    return attempted, failed, restored, {
        "events_per_s": metric(steps / sum(scaled) if timed else 0.0, "1/s"),
        "traj_s_p50": metric(median(scaled), "s"),
        "setup_s": metric(median([c * k for c, k in zip(checks, scales)]),
                          "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


@contextlib.contextmanager
def work_dir() -> Iterator[Path]:
    """A fresh directory under ``perfbench/.work``, removed afterwards."""
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[args.workload]
    with work_dir() as work:
        wl = build_workload(args.workload, work, expected["trajectories"])
        inputs_ok = all(text_digest(text) == expected["models"][key]
                        for key, text in wl.models.items())
        if not inputs_ok:
            print("perfbench: generated models differ from the recorded "
                  "ones", file=sys.stderr)
        attempted, failed, restored, metrics = measure(
            cli, wl, expected["trajectories"], args.seed, args.seconds,
            bool(args.trace), work)
    if not restored:
        print("perfbench: a traced function was not restored",
              file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} "
          f"trajectories={attempted} failed={failed}")
    for name, m in metrics.items():
        print(f"# {name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and inputs_ok and restored,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
