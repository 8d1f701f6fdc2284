"""Command-line front end: validate models, list transitions, run traces.

Exit codes are a stable contract: 0 success, 1 validation or semantics
error, 2 I/O and usage errors. Set TSCLS_COLOR=0|1 to force diagnostic
coloring off or on (default: on when stderr is a terminal).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import stat
import sys
from typing import Optional, Sequence, TextIO

from .engine import Trace, TraceEvent, simulate
from .errors import ModelError, TsclsError
from .matching import path_text
from .model import ModelFile, SimConfig
from .rates import format_number
from .semantics import transitions
from .syntax import parse_model, parse_term, print_term

CSV_FIXED_COLUMNS = ("time", "step", "rule", "path", "rate")


def _color_enabled() -> bool:
    flag = os.environ.get("TSCLS_COLOR")
    if flag == "0":
        return False
    if flag == "1":
        return True
    return sys.stderr.isatty()


def _error(message: str) -> None:
    prefix = "error:"
    if _color_enabled():
        prefix = "\x1b[31merror:\x1b[0m"
    print(f"{prefix} {message}", file=sys.stderr)


def _load_model(path: str) -> ModelFile:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_model(text)


# ---------------------------------------------------------------------------
# check


def cmd_check(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    name = model.name or "model"
    print(f"{name}: {len(model.rules)} rules, {len(model.elements())} elements")
    return 0


# ---------------------------------------------------------------------------
# transitions


def cmd_transitions(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    state = model.init
    if args.state is not None:
        state = parse_term(args.state)
    trs = transitions(state, model.rules, model.type_env(),
                      model.constants, model.typing)
    for tr in trs:
        print(f"{tr.rule_id}  {path_text(tr.path)}  "
              f"{format_number(tr.rate)}  {print_term(tr.target)}")
    return 0


# ---------------------------------------------------------------------------
# run


def _records(trace: Trace) -> list:
    """Events and samples merged into one stream, ordered by time, then
    step, then events before samples: each list is in that order, so
    one linear merge does it."""
    samples, merged, j = trace.samples, [], 0
    for ev in trace.events:
        key = (ev.time, ev.step)
        while j < len(samples) and (samples[j].time, samples[j].step) < key:
            merged.append(samples[j])
            j += 1
        merged.append(ev)
    merged += samples[j:]
    return merged


def _write_csv(trace: Trace, out: TextIO) -> None:
    """The trace as CSV, written at once, each line ended by CRLF. No
    field needs quoting: the fields are numbers, identifiers and paths."""
    lines = [",".join(CSV_FIXED_COLUMNS + trace.observable_names)]
    counts = tail = None
    for rec in _records(trace):
        # the samples after an event share its observables
        if rec.observables is not counts:
            counts = rec.observables
            tail = "".join([f",{n}" for n in counts])
        if isinstance(rec, TraceEvent):
            lines.append(f"{format_number(rec.time)},{rec.step},{rec.rule_id},"
                         f"{path_text(rec.path)},{format_number(rec.rate)}"
                         f"{tail}")
        else:
            lines.append(f"{format_number(rec.time)},{rec.step},,,{tail}")
    lines.append("")
    out.write("\r\n".join(lines))


def _write_json(trace: Trace, out: TextIO) -> None:
    names = trace.observable_names
    for rec in _records(trace):
        obj = {
            "kind": "event" if isinstance(rec, TraceEvent) else "sample",
            "time": rec.time,
            "step": rec.step,
            "rule": rec.rule_id if isinstance(rec, TraceEvent) else None,
            "path": (path_text(rec.path)
                     if isinstance(rec, TraceEvent) else None),
            "rate": rec.rate if isinstance(rec, TraceEvent) else None,
            "observables": dict(zip(names, rec.observables)),
        }
        out.write(json.dumps(obj, allow_nan=False) + "\n")


def _write_trace(trace: Trace, fmt: str, out: TextIO) -> None:
    if fmt == "csv":
        _write_csv(trace, out)
    else:
        _write_json(trace, out)


def _seed_path(path: str, seed: int) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}.seed{seed}{ext}"


def _summary(trace: Trace, seed: int) -> str:
    return (f"seed={seed} steps={trace.steps} "
            f"time={format_number(trace.final_time)} "
            f"halt={trace.halt_reason}")


def _run_to(path: str, model: ModelFile, cfg: SimConfig,
            fmt: str) -> Trace:
    """Simulate and write the trace to the file ``path``.

    The file is opened before the run, so an unwritable path fails
    before any work, but emptied and written only after it, so a failed
    run leaves a file that was there as it was. A file this run created
    is removed if the run or the writing fails."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        created = True
    except FileExistsError:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT)
        created = False
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            trace = simulate(model, cfg)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, 0)
            _write_trace(trace, fmt, fh)
    except BaseException:
        if created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
    return trace


def cmd_run(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    cfg = model.sim_config(seed=args.seed, tmax=args.tmax,
                           max_steps=args.max_steps, samples=args.samples)
    bad = cfg.violations()
    if bad:
        for msg in bad:
            _error(msg)
        return 1
    if args.replicas < 1:
        _error("--replicas must be at least 1")
        return 2
    last = dataclasses.replace(cfg, seed=cfg.seed + args.replicas - 1)
    if last.violations():
        _error(f"--replicas {args.replicas} runs seeds past 2^64 - 1")
        return 1
    if args.replicas > 1:
        if not args.out:
            _error("--replicas needs --out (one file per seed)")
            return 2
        for seed in range(cfg.seed, cfg.seed + args.replicas):
            path = _seed_path(args.out, seed)
            trace = _run_to(path, model, dataclasses.replace(cfg, seed=seed),
                            args.format)
            print(f"{_summary(trace, seed)} out={path}")
        return 0

    if args.out:
        trace = _run_to(args.out, model, cfg, args.format)
        print(f"{_summary(trace, cfg.seed)} out={args.out}")
    else:
        trace = simulate(model, cfg)
        _write_trace(trace, args.format, sys.stdout)
        print(_summary(trace, cfg.seed), file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="tscls",
        description="Typed stochastic calculus of looping sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse and validate a model file")
    p_check.add_argument("model")
    p_check.set_defaults(func=cmd_check)

    p_tr = sub.add_parser("transitions",
                          help="list every enabled transition of a state")
    p_tr.add_argument("model")
    p_tr.add_argument("--state", help="term overriding the model's init")
    p_tr.set_defaults(func=cmd_transitions)

    p_run = sub.add_parser("run", help="simulate and write a trace")
    p_run.add_argument("model")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--tmax", type=float)
    p_run.add_argument("--max-steps", type=int)
    p_run.add_argument("--samples", type=int)
    p_run.add_argument("--out", help="output file (default: stdout)")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.add_argument("--replicas", type=int, default=1,
                       help="run this many consecutive seeds, one after"
                            " another")
    p_run.set_defaults(func=cmd_run)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ModelError as exc:
        for msg in exc.diagnostics:
            _error(msg)
        return 1
    except TsclsError as exc:
        _error(str(exc))
        return 1
    except OSError as exc:
        _error(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
