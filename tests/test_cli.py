"""Command-line interface: exit codes, output formats, replicas."""

import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import tscls
from tscls import cli, parse_model, parse_rate, print_model, print_rate
from tscls.cli import main
from tscls.engine import Sample, Trace, TraceEvent
from tscls.terms import Term

from conftest import CELLS

LAC = os.path.join(os.path.dirname(__file__), os.pardir, "models",
                   "lac_operon.tscls")

TINY = """\
model tiny
const k = 1.0

rule change {
  lhs: a | $X
  rhs: b | $X
  count $X { t_a -> n }
  rate: (n + 1) * k
}

init: a | a
observe a, b
run { seed: 7, tmax: 1000.0, max_steps: 100, samples: 4 }
"""


# a rate that overflows to inf - inf = NaN
NAN_RATE = TINY.replace("const k = 1.0", "const k = 1e308") \
    .replace("rate: (n + 1) * k", "rate: k * k - k * k")

# two finite rates whose sum, the total exit rate, overflows to inf
INF_TOTAL = """\
rule A {
  lhs: a | $X
  rhs: b | $X
  rate: 1e308
}

rule B {
  lhs: c | $X
  rhs: d | $X
  rate: 1e308
}

init: a | c
observe a, b, c, d
"""


# one rule whose rate is placeholder; its count is n
RATE_MODEL = """\
rule r {
  lhs: a | $X
  rhs: b | $X
  count $X { t_a -> n }
  rate: %s
}
init: 3 * a
"""

# constants and a count named by Python keywords and builtins:
# 2.5 * (3 + 3) at 4 * a
WORDS = """\
const lambda = 2.5
const None = 3

rule r {
  lhs: a | $X
  rhs: b | $X
  count $X { t_a -> def }
  rate: lambda * (def + None)
}
init: 4 * a
"""

# a product of integer counts too large for a float; the rule is
# compiled with ``a`` on its lhs and takes the general path with ``?x``
OVERFLOW = RATE_MODEL.replace("init: 3 * a", "init: 1000000000000000000 * a")


@pytest.fixture
def tiny(tmp_path):
    path = tmp_path / "tiny.tscls"
    path.write_text(TINY, encoding="utf-8")
    return str(path)


class TestCheck:
    def test_valid_model(self, capsys):
        assert main(["check", LAC]) == 0
        assert capsys.readouterr().out \
            == "lac_operon: 15 rules, 20 elements\n"

    def test_invalid_model(self, tiny, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TSCLS_COLOR", "0")
        bad = tmp_path / "bad.tscls"
        bad.write_text(TINY.replace("rhs: b | $X", "rhs: b | $Z"),
                       encoding="utf-8")
        assert main(["check", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "$Z" in err

    def test_guard_on_a_constant(self, tmp_path, capsys, monkeypatch):
        # the run would fail at its first rate: check reports it first
        monkeypatch.setenv("TSCLS_COLOR", "0")
        bad = tmp_path / "bad.tscls"
        bad.write_text(TINY.replace("const k = 1.0", "const k = 2").replace(
            "rate: (n + 1) * k", "rate: if k == 0 then 1 else 2"),
            encoding="utf-8")
        for command in ("check", "run"):
            assert main([command, str(bad)]) == 1
            assert capsys.readouterr().err == (
                "error: rule change: guard names constant 'k',"
                " not a count variable\n")

    def test_syntax_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TSCLS_COLOR", "0")
        bad = tmp_path / "bad.tscls"
        bad.write_text("model broken\ninit: a |\n", encoding="utf-8")
        assert main(["check", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("const k = \u00b2\n", "1:11: unexpected character '\u00b2'"),
        ("run { seed: 1e400 }\n", "1:7: run field 'seed' must be an integer"),
        (TINY.replace("seed: 7", "seed: 18446744073709551616"),
         "seed must be an integer in [0, 2^64)"),
        ("init: " + "<m>[ " * 400 + "a" + " ]" * 400 + "\n",
         "1:1007: nesting deeper than 200 levels"),
        (RATE_MODEL % " + ".join(["1"] * 1000),
         "5:811: nesting deeper than 200 levels"),
        (TINY.replace("const k = 1.0", "const k = 1e400"),
         "2:11: number out of range"),
        (RATE_MODEL % "1e400 * 0", "5:9: number out of range"),
    ], ids=["digit", "overflow", "seed", "nesting", "chain", "inf-const",
            "inf-rate"])
    def test_bad_text_is_a_parse_error(self, text, message, tmp_path, capsys,
                                       monkeypatch):
        monkeypatch.setenv("TSCLS_COLOR", "0")
        bad = tmp_path / "bad.tscls"
        bad.write_text(text, encoding="utf-8")
        assert main(["check", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("rate", [
        " + ".join(["1"] * 200), " - ".join(["n"] * 100 + ["1"] * 100),
        " * ".join(["(n + 1)"] * 100), "(" * 199 + "n" + ")" * 199,
        "(" * 150 + " + ".join(["1"] * 200) + ")" * 150,
        "((n" + " + 1" * 99 + ")" + " + 1" * 100 + ")",
        "if n == 0 then 1 else " * 200 + "2"])
    def test_long_rates_run(self, rate, tmp_path, capsys):
        path = tmp_path / "long.tscls"
        path.write_text(RATE_MODEL % rate, encoding="utf-8")
        assert main(["check", str(path)]) == 0
        assert main(["run", str(path), "--max-steps", "2"]) == 0
        model = parse_model(print_model(parse_model(RATE_MODEL % rate)))
        assert print_rate(model.rules[0].rate) \
            == print_rate(parse_rate(rate))

    def test_python_words_are_names(self, tmp_path, capsys):
        path = tmp_path / "words.tscls"
        path.write_text(WORDS, encoding="utf-8")
        assert main(["check", str(path)]) == 0
        capsys.readouterr()
        assert main(["transitions", str(path)]) == 0
        assert capsys.readouterr().out == "r  /  15.0  3 * a | b\n"

    def test_missing_file(self, capsys, monkeypatch):
        monkeypatch.setenv("TSCLS_COLOR", "0")
        assert main(["check", "/nonexistent/model.tscls"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestColor:
    def test_forced_on(self, capsys, monkeypatch):
        monkeypatch.setenv("TSCLS_COLOR", "1")
        main(["check", "/nonexistent/model.tscls"])
        assert "\x1b[31merror:\x1b[0m" in capsys.readouterr().err

    def test_forced_off(self, capsys, monkeypatch):
        monkeypatch.setenv("TSCLS_COLOR", "0")
        main(["check", "/nonexistent/model.tscls"])
        err = capsys.readouterr().err
        assert "\x1b[" not in err and err.startswith("error:")


class TestTransitions:
    def test_initial_state_of_model(self, capsys):
        assert main(["transitions", LAC]) == 0
        lines = capsys.readouterr().out.splitlines()
        heads = [tuple(line.split("  ")[:3]) for line in lines]
        assert heads == [("R1", "/0", "0.02"), ("R3", "/0", "3.0"),
                         ("R7", "/0", "100.0")]

    def test_state_override(self, tiny, capsys):
        assert main(["transitions", tiny, "--state", "a | a | c"]) == 0
        assert capsys.readouterr().out == "change  /  2.0  a | b | c\n"

    def test_rule_file_order(self, capsys):
        assert main(["transitions", LAC, "--state",
                     "<m>[ Irna | lacI.PP.RO.lacZ.lacY.lacA ]"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("  ")[0] for line in lines] == ["R2", "R10"]

    def test_non_finite_rate(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TSCLS_COLOR", "0")
        model = tmp_path / "nan.tscls"
        model.write_text(NAN_RATE, encoding="utf-8")
        assert main(["transitions", str(model)]) == 1
        got = capsys.readouterr()
        assert got.out == ""
        assert "rule change" in got.err and "not finite" in got.err
        assert "compartment /" in got.err

    def test_no_transitions(self, tiny, capsys):
        assert main(["transitions", tiny, "--state", "eps"]) == 0
        assert capsys.readouterr().out == ""

    def test_bad_state_term(self, tiny, capsys, monkeypatch):
        monkeypatch.setenv("TSCLS_COLOR", "0")
        assert main(["transitions", tiny, "--state", "a |"]) == 1
        assert "error:" in capsys.readouterr().err


class TestRun:
    def test_csv_to_file(self, tiny, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert main(["run", tiny, "--out", str(out)]) == 0
        summary = capsys.readouterr().out
        assert summary.startswith("seed=7 steps=2 time=")
        assert summary.rstrip("\n").endswith(f"halt=exhausted out={out}")
        text = out.read_bytes().decode("utf-8")
        assert all(line.endswith("\r") for line in text.split("\n") if line)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["time", "step", "rule", "path", "rate", "a", "b"]
        assert rows[1] == ["0.0", "0", "", "", "", "2", "0"]
        events = [r for r in rows[1:] if r[2]]
        assert [(r[2], r[3], r[4]) for r in events] \
            == [("change", "/", "2.0"), ("change", "/", "1.0")]
        assert [tuple(r[5:]) for r in events] == [("1", "1"), ("0", "2")]
        for row in rows[1:]:
            float(row[0])  # times round-trip through the shortest repr

    def test_csv_to_stdout(self, tiny, capsys):
        assert main(["run", tiny]) == 0
        got = capsys.readouterr()
        assert got.out.startswith("time,step,rule,path,rate,a,b\r\n")
        assert got.err.startswith("seed=7 steps=2 ")
        assert "halt=exhausted" in got.err

    def test_sample_grid(self, tiny, tmp_path):
        out = tmp_path / "trace.csv"
        main(["run", tiny, "--out", str(out)])
        rows = list(csv.reader(io.StringIO(
            out.read_bytes().decode("utf-8"))))
        samples = [r for r in rows[1:] if not r[2]]
        assert [r[0] for r in samples] == ["0.0", "250.0", "500.0", "750.0",
                                           "1000.0"]
        assert samples[-1][5:] == ["0", "2"]

    def test_json_stream(self, tiny, tmp_path):
        out = tmp_path / "trace.ndjson"
        assert main(["run", tiny, "--format", "json", "--out", str(out)]) == 0
        records = [json.loads(line)
                   for line in out.read_text().splitlines()]
        assert {r["kind"] for r in records} == {"event", "sample"}
        assert all(set(r) == {"kind", "time", "step", "rule", "path", "rate",
                              "observables"} for r in records)
        events = [r for r in records if r["kind"] == "event"]
        assert [e["rate"] for e in events] == [2.0, 1.0]
        assert all(r["rule"] is None for r in records
                   if r["kind"] == "sample")
        assert records[0] == {"kind": "sample", "time": 0.0, "step": 0,
                              "rule": None, "path": None, "rate": None,
                              "observables": {"a": 2, "b": 0}}

    def test_stream_ordered_by_time(self, tiny, tmp_path):
        out = tmp_path / "trace.ndjson"
        main(["run", tiny, "--format", "json", "--out", str(out)])
        records = [json.loads(line) for line in out.read_text().splitlines()]
        times = [r["time"] for r in records]
        assert times == sorted(times)

    def test_tmax_zero_single_sample(self, tiny, capsys):
        assert main(["run", tiny, "--tmax", "0", "--format", "json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "sample"

    @pytest.mark.parametrize("init, args, want", [
        ("a | a", [], "0.0,0,,,,2,0\r\n"
         "0.11515274616565048,1,change,/,2.0,1,1\r\n"
         "0.1346166782028954,2,change,/,1.0,0,2\r\n250.0,2,,,,0,2\r\n"
         "500.0,2,,,,0,2\r\n750.0,2,,,,0,2\r\n1000.0,2,,,,0,2\r\n"),
        ("a | a", ["--tmax", "0"], "0.0,0,,,,2,0\r\n"),
        ("b", [], "0.0,0,,,,0,1\r\n250.0,0,,,,0,1\r\n500.0,0,,,,0,1\r\n"
         "750.0,0,,,,0,1\r\n1000.0,0,,,,0,1\r\n")],
        ids=["exhausted", "tmax-0", "no-event"])
    def test_csv_bytes(self, init, args, want, tmp_path, capsys):
        # the bytes the csv module wrote: CRLF line ends, no quoting
        path = tmp_path / "model.tscls"
        path.write_text(TINY.replace("init: a | a", f"init: {init}"),
                        encoding="utf-8")
        assert main(["run", str(path), *args]) == 0
        assert capsys.readouterr().out \
            == "time,step,rule,path,rate,a,b\r\n" + want

    def test_csv_event_at_a_grid_time(self):
        # an event goes before the sample at its time, which counts it
        trace = Trace(("a", "b"), [
            TraceEvent(0.5, 1, "change", (), 2.0, 2.0, (1, 1)),
            TraceEvent(1.0, 2, "change", (0,), 1.0, 1.0, (0, 2))], [
            Sample(0.0, 0, (2, 0)), Sample(0.5, 1, (1, 1)),
            Sample(1.0, 2, (0, 2)), Sample(1.5, 2, (0, 2))],
            Term(), 1.5, "tmax")
        out = io.StringIO()
        cli._write_csv(trace, out)
        assert out.getvalue() == (
            "time,step,rule,path,rate,a,b\r\n0.0,0,,,,2,0\r\n"
            "0.5,1,change,/,2.0,1,1\r\n0.5,1,,,,1,1\r\n"
            "1.0,2,change,/0,1.0,0,2\r\n1.0,2,,,,0,2\r\n1.5,2,,,,0,2\r\n")

    def test_deterministic_output(self, tiny, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", tiny, "--seed", "42", "--out", str(a)])
        main(["run", tiny, "--seed", "42", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_config(self, tiny, capsys, monkeypatch):
        monkeypatch.setenv("TSCLS_COLOR", "0")
        assert main(["run", tiny, "--samples", "0"]) == 1
        assert "samples" in capsys.readouterr().err

    @pytest.mark.parametrize("tmax", ["nan", "inf", "-inf"])
    def test_non_finite_tmax(self, tiny, tmp_path, capsys, monkeypatch,
                             tmax):
        monkeypatch.setenv("TSCLS_COLOR", "0")
        out = tmp_path / "trace.csv"
        assert main(["run", tiny, f"--tmax={tmax}", "--out", str(out)]) == 1
        assert "tmax must be a finite number >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fmt, source, names", [
        pytest.param(fmt, source, names, id=fmt + suffix)
        for source, names, suffix in ((NAN_RATE, "rule change", ""),
                                      (INF_TOTAL, "total exit rate",
                                       "-total"))
        for fmt in ("csv", "json")])
    def test_non_finite_rate(self, tmp_path, capsys, monkeypatch, fmt,
                             source, names):
        monkeypatch.setenv("TSCLS_COLOR", "0")
        model = tmp_path / "nan.tscls"
        model.write_text(source, encoding="utf-8")
        assert main(["run", str(model), "--format", fmt]) == 1
        got = capsys.readouterr()
        assert got.out == ""
        assert names in got.err and "not finite" in got.err

    @pytest.mark.parametrize("lhs", ["a | $X", "?x | $X"])
    @pytest.mark.parametrize("rate, message", [
        (" * ".join(["n"] * 19), "int too large to convert to float"),
        (" * ".join(["n"] * 19) + " / 3",
         "integer division result too large for a float")])
    def test_integer_rate_too_large_for_a_float(self, tmp_path, capsys,
                                                monkeypatch, lhs, rate,
                                                message):
        monkeypatch.setenv("TSCLS_COLOR", "0")
        model = tmp_path / "big.tscls"
        model.write_text((OVERFLOW % rate).replace("a | $X", lhs, 1),
                         encoding="utf-8")
        assert main(["check", str(model)]) == 0
        capsys.readouterr()
        assert main(["run", str(model)]) == 1
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err == (f"error: rule r: rate overflows a float"
                           f" ({message}) (compartment /)\n")

    @pytest.mark.parametrize("replicas", ["1", "2"])
    def test_unwritable_out_fails_before_the_run(self, replicas, tiny,
                                                 tmp_path, capsys,
                                                 monkeypatch):
        # the trace file is opened before the run, so a path that cannot
        # be written fails at once instead of after a long run
        monkeypatch.setenv("TSCLS_COLOR", "0")

        def no_run(*args):
            raise AssertionError("simulate was called")
        monkeypatch.setattr(cli, "simulate", no_run)
        out = tmp_path / "missing" / "trace.csv"
        assert main(["run", tiny, "--replicas", replicas,
                     "--out", str(out)]) == 2
        assert "No such file or directory" in capsys.readouterr().err

    @pytest.mark.parametrize("replicas", ["1", "2"])
    def test_failed_run_leaves_no_file(self, replicas, tmp_path, capsys,
                                       monkeypatch):
        monkeypatch.setenv("TSCLS_COLOR", "0")
        model = tmp_path / "nan.tscls"
        model.write_text(NAN_RATE, encoding="utf-8")
        assert main(["run", str(model), "--replicas", replicas,
                     "--out", str(tmp_path / "trace.csv")]) == 1
        assert "not finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [model]

    @pytest.mark.parametrize("replicas", ["1", "2"])
    def test_failed_run_keeps_an_existing_file(self, replicas, tmp_path,
                                               capsys, monkeypatch):
        monkeypatch.setenv("TSCLS_COLOR", "0")
        model = tmp_path / "nan.tscls"
        model.write_text(NAN_RATE, encoding="utf-8")
        out = tmp_path / "trace.csv"
        # the file the first seed's run would write
        kept = out if replicas == "1" else tmp_path / "trace.seed0.csv"
        kept.write_text("an earlier trace\n", encoding="utf-8")
        assert main(["run", str(model), "--seed", "0", "--replicas",
                     replicas, "--out", str(out)]) == 1
        assert "not finite" in capsys.readouterr().err
        assert kept.read_text(encoding="utf-8") == "an earlier trace\n"
        assert sorted(tmp_path.iterdir()) == sorted([model, kept])

    def test_run_replaces_an_existing_file(self, tiny, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        out.write_text("x" * 100_000, encoding="utf-8")
        assert main(["run", tiny, "--seed", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["run", tiny, "--seed", "1"]) == 0
        assert out.read_bytes().decode() == capsys.readouterr().out

    def test_replicas(self, tiny, tmp_path, capsys):
        out = tmp_path / "rep.csv"
        assert main(["run", tiny, "--seed", "5", "--replicas", "3",
                     "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        for seed, line in zip((5, 6, 7), lines):
            path = tmp_path / f"rep.seed{seed}.csv"
            assert path.exists()
            assert line.startswith(f"seed={seed} ")
            assert line.endswith(f"out={path}")
        single = tmp_path / "single.csv"
        main(["run", tiny, "--seed", "6", "--out", str(single)])
        assert single.read_bytes() == (tmp_path / "rep.seed6.csv").read_bytes()

    @pytest.mark.parametrize("model", ["lac", "cells"])
    def test_replicas_are_single_runs(self, model, tmp_path, capsys):
        # replicas share the parsed rules and what they keep across runs
        if model == "cells":
            path = tmp_path / "cells.tscls"
            path.write_text(CELLS, encoding="utf-8")
            model = str(path)
        else:
            model = LAC
        out = tmp_path / "rep.csv"
        cap = ["--max-steps", "200"]
        assert main(["run", model, "--seed", "5", "--replicas", "3",
                     "--out", str(out), *cap]) == 0
        for seed in (5, 6, 7):
            single = tmp_path / f"single{seed}.csv"
            assert main(["run", model, "--seed", str(seed),
                         "--out", str(single), *cap]) == 0
            assert single.read_bytes() \
                == (tmp_path / f"rep.seed{seed}.csv").read_bytes()
        assert "steps=200" in capsys.readouterr().out

    @pytest.mark.parametrize("seed, replicas, message", [
        (2 ** 64, 1, "seed must be an integer in [0, 2^64)"),
        (-1, 1, "seed must be an integer in [0, 2^64)"),
        (2 ** 64 - 2, 3, "--replicas 3 runs seeds past 2^64 - 1")])
    def test_seeds_outside_64_bits(self, seed, replicas, message, tiny,
                                   tmp_path, capsys, monkeypatch):
        # the generator reads 64 bits of the seed: 2^64 would run seed 0's
        # trajectory and -1 that of 2^64 - 1
        monkeypatch.setenv("TSCLS_COLOR", "0")
        out = tmp_path / "trace.csv"
        assert main(["run", tiny, "--seed", str(seed), "--replicas",
                     str(replicas), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [p for p in tmp_path.iterdir() if p.suffix == ".csv"] == []
        assert main(["run", tiny, "--seed", str(2 ** 64 - 1),
                     "--out", str(out)]) == 0

    def test_replicas_need_out(self, tiny, capsys, monkeypatch):
        monkeypatch.setenv("TSCLS_COLOR", "0")
        assert main(["run", tiny, "--replicas", "2"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_replicas_positive(self, tiny, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TSCLS_COLOR", "0")
        assert main(["run", tiny, "--replicas", "0",
                     "--out", str(tmp_path / "x.csv")]) == 2


def other_interpreters():
    """The Python 3.10+ interpreters on PATH other than this one, one per
    executable, as (version, command). A command that does not start, such
    as a version manager's shim for a version it has not selected, is left
    out."""
    found = {}
    here = os.path.realpath(sys.executable)
    for minor in range(10, 30):
        command = shutil.which(f"python3.{minor}")
        if command is None:
            continue
        try:
            probe = subprocess.run(
                [command, "-c", "import sys, platform; print(sys.executable);"
                 " print(platform.python_version())"],
                capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        lines = probe.stdout.split()
        if probe.returncode != 0 or len(lines) != 2:
            continue
        executable = os.path.realpath(lines[0])
        if executable != here:
            found.setdefault(executable, (lines[1], command))
    return sorted(found.values())


def test_traces_are_the_same_on_other_interpreters(tmp_path):
    # lac seed 3 is a trace that the float sum of the total exit rate once
    # made differ between Python 3.11 and 3.12; the package needs nothing
    # but the standard library, so it runs from its source on any of them
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other Python 3.10+ interpreter found on PATH")
    run = ["run", LAC, "--seed", "3"]
    here = tmp_path / "here.csv"
    assert main(run + ["--out", str(here)]) == 0
    want = hashlib.sha256(here.read_bytes()).hexdigest()
    src = os.path.dirname(os.path.dirname(os.path.abspath(tscls.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for version, command in interpreters:
        out = tmp_path / f"{version}.csv"
        done = subprocess.run(
            [command, "-c", "import sys; from tscls.cli import main;"
             " sys.exit(main(sys.argv[1:]))", *run, "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=600)
        assert done.returncode == 0, (version, done.stderr)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want, version


# a rule on the general path over a compartment of 10^11 copies, and a
# rule that consumes 2^62 copies: neither may ever list them
HUGE_STATE = """\
rule r {
  lhs: ?x.b | $X
  rhs: ?x | $X
  rate: 1
}

init: 100000000000 * a | c.b
observe a, c
"""

HUGE_RULE = """\
rule r {
  lhs: 4611686018427387904 * a | $X
  rhs: $X
  rate: 1
}

init: c
observe a, c
"""

# the address space the child may take, as ``ulimit -v 400000`` gives it
ADDRESS_SPACE = 400_000 * 1024


def capped(code, *args):
    """The Python ``code`` run with ``args`` in a child that caps its own
    address space."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tscls.__file__)))
    child = ("import resource, sys;"
             f" resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE},"
             f" {ADDRESS_SPACE})); {code}")
    return subprocess.run(
        [sys.executable, "-c", child, *args],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src, TSCLS_COLOR="0"))


def run_capped(tmp_path, args, text):
    """``tscls`` run with ``args`` on the model ``text`` in a child that
    caps its own address space."""
    model = tmp_path / "huge.tscls"
    model.write_text(text)
    return capped("from tscls.cli import main; sys.exit(main(sys.argv[1:]))",
                  *args, str(model))


def test_a_general_rule_over_a_huge_compartment_runs(tmp_path):
    done = run_capped(tmp_path, ["run", "--samples", "1"], HUGE_STATE)
    assert done.returncode == 0, done.stderr
    rows = list(csv.reader(io.StringIO(done.stdout)))
    assert rows[0] == ["time", "step", "rule", "path", "rate", "a", "c"]
    assert rows[2][1:] == ["1", "r", "/", "1.0", "100000000000", "1"]
    assert "steps=1 " in done.stderr


def test_a_huge_multiplicity_in_a_rule_checks(tmp_path):
    done = run_capped(tmp_path, ["check"], HUGE_RULE)
    assert done.returncode == 0, done.stderr


def test_typing_a_huge_compartment_lists_no_copy():
    # type_of types each distinct component once, times its multiplicity
    done = capped("from tscls import TypeEnv, parse_term, type_of;"
                  " print(dict(type_of(parse_term('100000000000 * a | c.b'),"
                  " TypeEnv())))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == ("{TypeName(base='t_a', is_seq=False): 100000000000,"
                           " TypeName(base='t_c', is_seq=True): 1,"
                           " TypeName(base='t_b', is_seq=True): 1}\n")
