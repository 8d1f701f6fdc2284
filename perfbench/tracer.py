"""In-memory spans around the layer functions of tscls, for the traced run.

``Tracer.install`` replaces each traced function by a recording wrapper in
every loaded ``tscls`` module that holds it (``canonicalize``, for one, is
imported by name into ``terms``, ``matching``, ``semantics``, ``engine``
and more), so intra-module recursion is traced as well. ``uninstall`` puts
the originals back and reports whether every patched name is restored.

A span is (name, start, end, parent). ``fold`` turns the spans of one
trajectory into per-layer call counts and self times (a span's duration
minus the durations of its children) and clears them. Probes record the
per-call counts a layer's ratios need at the same boundary.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable, Optional

CLI = "cli"

# (defining module, function, layer name)
TARGETS = (
    ("tscls.syntax", "parse_model", "syntax.parse_model"),
    ("tscls.engine", "simulate", "engine"),
    ("tscls.semantics", "transitions", "semantics.transitions"),
    ("tscls.matching", "compartments", "matching.compartments"),
    ("tscls.matching", "match_whole", "matching.match_whole"),
    ("tscls.semantics", "count_types", "semantics.count_types"),
    ("tscls.semantics", "eval_rate", "semantics.eval_rate"),
    ("tscls.matching", "substitute", "matching.substitute"),
    ("tscls.matching", "splice", "matching.splice"),
    ("tscls.terms", "canonicalize", "terms.canonicalize"),
)
NAMES = (CLI,) + tuple(layer for _, _, layer in TARGETS)


# Probes: ``before(args)`` reads state the call may change; ``after``
# adds to the trace's counters.

def _canonicalize_before(args):
    return args[0]._canonical


def _canonicalize_after(stats, args, result, pre, parent):
    stats["terms.canonicalize.hits"] += pre


def _match_before(args):
    return args[1]._counter is not None


def _match_after(stats, args, result, pre, parent):
    n = len(result)
    stats["matching.counter_hits"] += pre
    stats["matching.match_whole.insts"] += n
    stats["matching.match_whole.hits"] += n >= 1
    stats["matching.match_whole.multi"] += n > 1


def _transitions_after(stats, args, result, pre, parent):
    stats["semantics.transitions.out"] += len(result)


def _compartments_after(stats, args, result, pre, parent):
    stats["matching.compartments.sites"] += len(result)
    stats["matching.compartments.components"] += sum(
        len(site.content.components) for site in result)


def _count_types_before(args):
    inst, counts = args[0], args[1]
    n = 0
    for decl in counts:
        binding = inst[decl.var]
        n += len(getattr(binding, "components", ()))
    return n


def _count_types_after(stats, args, result, pre, parent):
    stats["semantics.count_types.components"] += pre


_SUBSTITUTE = NAMES.index("matching.substitute")


def _substitute_after(stats, args, result, pre, parent):
    stats["matching.substitute.top"] += parent != _SUBSTITUTE


PROBES: dict[str, tuple[Optional[Callable], Optional[Callable]]] = {
    "terms.canonicalize": (_canonicalize_before, _canonicalize_after),
    "matching.match_whole": (_match_before, _match_after),
    "semantics.transitions": (None, _transitions_after),
    "matching.compartments": (None, _compartments_after),
    "semantics.count_types": (_count_types_before, _count_types_after),
    "matching.substitute": (None, _substitute_after),
}


def _tscls_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if name == "tscls" or name.startswith("tscls.")]


class Tracer:
    def __init__(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.stats: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: list[Callable] = []

    def _wrap(self, nid: int, fn: Callable) -> Callable:
        names, parents = self.span_name, self.span_parent
        starts, ends, stack, stats = (self.span_start, self.span_end,
                                      self._stack, self.stats)
        before, after = PROBES.get(NAMES[nid], (None, None))

        def traced(*args, **kwargs):
            idx = len(names)
            parent = stack[-1] if stack else -1
            names.append(nid)
            parents.append(parent)
            starts.append(0.0)
            ends.append(0.0)
            pre = before(args) if before is not None else None
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(stats, args, result, pre,
                      names[parent] if parent >= 0 else -1)
            return result

        return traced

    def call(self, fn: Callable, *args):
        """Run ``fn`` as the root span ``cli``."""
        return self._wrap(0, fn)(*args)

    def install(self) -> None:
        wrappers = {}
        for module_name, attr, layer in TARGETS:
            fn = getattr(sys.modules[module_name], attr)
            wrappers[id(fn)] = (fn, self._wrap(NAMES.index(layer), fn))
        self._wrappers = [wrapper for _, wrapper in wrappers.values()]
        for module in _tscls_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> bool:
        """Restore every patched name. True when no loaded ``tscls``
        module still holds one of this install's wrappers, including
        modules that imported a name while it was patched."""
        for module, attr, original in self._patched:
            setattr(module, attr, original)
        self._patched.clear()
        live = {id(w) for w in self._wrappers}
        self._wrappers = []
        return not any(id(value) in live for module in _tscls_modules()
                       for value in vars(module).values())

    def fold(self) -> None:
        """Add the recorded spans to the per-layer totals and clear them."""
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child = [0.0] * len(names)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        for i, nid in enumerate(names):
            self.self_s[NAMES[nid]] += ends[i] - starts[i] - child[i]
            self.calls[NAMES[nid]] += 1
        for buf in (names, parents, starts, ends):
            del buf[:]
