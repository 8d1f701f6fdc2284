"""Stochastic simulation: exact SSA over the transition relation.

Each step lists the rates of the current state's enabled transitions,
draws the waiting time by inverse CDF (dt = -ln(1-u)/R with R the total
exit rate), then selects a transition by cumulative-rate inversion with a
second uniform draw, and builds only that transition. A run keeps one
:class:`~tscls.semantics.Enumerator`, so a compartment that an event left
alone keeps its compiled outcomes from the step before. The draw order
(time first, selection second) and the generator below are fixed, so a
(model, seed) pair yields a bit-identical trace everywhere.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import add
from typing import Mapping, Optional, Sequence

from .errors import ModelError, RateEvalError
from .matching import Path
from .model import ModelFile, ObservableSpec, SimConfig, name_clashes
from .semantics import Enumerator, RewriteRule, Transition
from .terms import Seq, Term, TypeEnv, canonicalize, component_counts

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


class Pcg64:
    """pcg64: the permuted congruential generator, setseq xsl-rr 128/64.

    128-bit LCG state (multiplier 0x2360ed051fc65da44385df649fccf645),
    64-bit output by xor-folding the halves and rotating by the top six
    state bits. Seeding follows the reference srandom sequence: state 0,
    odd increment from the stream id, step, add seed, step. Distinct
    stream ids give independent sequences for the same seed.
    """

    MULT = 0x2360ed051fc65da44385df649fccf645

    def __init__(self, seed: int, stream: int = 0):
        self._inc = (((stream & _MASK64) << 1) | 1) & _MASK128
        self._state = 0
        self._advance()
        self._state = (self._state + (seed & _MASK64)) & _MASK128
        self._advance()

    def _advance(self) -> None:
        self._state = (self._state * self.MULT + self._inc) & _MASK128

    def next_u64(self) -> int:
        self._advance()
        state = self._state
        xored = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((xored >> rot) | (xored << (64 - rot))) & _MASK64 if rot \
            else xored

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53


def step(state: Term, rules: Sequence[RewriteRule], env: TypeEnv,
         consts: Mapping[str, float], rng: Pcg64,
         mode: str = "positional") -> Optional[tuple[float, Transition]]:
    """One SSA step; None when no transition is enabled."""
    outcomes = Enumerator(rules, env, consts, mode).outcomes(state)
    if not outcomes.rates:
        return None
    dt, i, _ = _draw(outcomes.rates, rng)
    return dt, outcomes.transition(i)


def _draw(rates: list[float], rng: Pcg64) -> tuple[float, int, float]:
    """The waiting time, the index of the chosen rate and the total.

    The total and the selection use one left-to-right running sum: the
    first rate whose running sum exceeds the pick is chosen. ``sum()``
    would not do for the total, since from Python 3.12 on it adds floats
    with compensation and gives another total than that running sum."""
    running = list(accumulate(rates))
    total = running[-1]
    if not math.isfinite(total):
        # every rate is finite, but their sum can overflow; the clock and
        # the selection below would be wrong
        raise RateEvalError(f"total exit rate is not finite ({total!r})")
    u_time = rng.random()
    dt = -math.log(1.0 - u_time) / total
    u_pick = rng.random() * total
    return dt, min(bisect_right(running, u_pick), len(rates) - 1), total


# ---------------------------------------------------------------------------
# observation


def observe(state: Term, spec: ObservableSpec) -> int:
    """Bare parallel occurrences of the element, summed over all
    compartments."""
    return _count_all(state, (spec.element,))[0]


def _count_all(term: Term, names: Sequence[str]) -> tuple[int, ...]:
    counts = dict.fromkeys(names, 0)
    # one visit per distinct component; a loop's content is counted once
    # and weighed by how many copies of the loop enclose it
    stack = [(term, 1)]
    while stack:
        t, mult = stack.pop()
        for comp, n in component_counts(t).items():
            if isinstance(comp, Seq):
                if len(comp.elems) == 1 and comp.elems[0] in counts:
                    counts[comp.elems[0]] += n * mult
            else:
                stack.append((comp.content, n * mult))
    return tuple(counts[n] for n in names)


# ---------------------------------------------------------------------------
# traces


@dataclass(frozen=True)
class TraceEvent:
    """One applied transition; observables are counts after the event."""
    time: float
    step: int
    rule_id: str
    path: Path
    rate: float
    total_exit_rate: float
    observables: tuple[int, ...]


@dataclass(frozen=True)
class Sample:
    """Piecewise-constant observable counts at a grid time: the state in
    force is the last one at or before the sample time."""
    time: float
    step: int
    observables: tuple[int, ...]


@dataclass
class Trace:
    observable_names: tuple[str, ...]
    events: list[TraceEvent]
    samples: list[Sample]
    final_state: Term
    final_time: float
    halt_reason: str  # exhausted | tmax | max_steps

    @property
    def steps(self) -> int:
        return len(self.events)


HALT_EXHAUSTED = "exhausted"
HALT_TMAX = "tmax"
HALT_MAX_STEPS = "max_steps"


def simulate(model: ModelFile, cfg: SimConfig) -> Trace:
    """Run the SSA from the model's initial state under ``cfg``.

    Sampling uses the inclusive grid i*tmax/samples for i = 0..samples
    (collapsed when tmax is 0), recording the state in force at each grid
    time. Identical (model, cfg) inputs give identical traces.
    A model that names a rule id or an observable twice raises
    :class:`ModelError`: its trace could not tell them apart.
    """
    bad = cfg.violations()
    if bad:
        raise ValueError("; ".join(bad))
    clashes = name_clashes(model)
    if clashes:
        raise ModelError(clashes)
    enumerator = Enumerator(model.rules, model.type_env(), model.constants,
                            model.typing)
    names = tuple(o.element for o in model.observables)
    rng = Pcg64(cfg.seed)
    state = canonicalize(model.init)
    clock = 0.0
    events: list[TraceEvent] = []
    samples: list[Sample] = []
    grid = _sample_grid(cfg.tmax, cfg.samples)
    gi = 0
    reason = HALT_MAX_STEPS
    # per rule with a plan, what its outcomes add to the observables;
    # () if nothing. Other rules' events are observed by a walk
    nets = []
    for rule in model.rules:
        net = None
        if rule.plan is not None:
            net = tuple(rule.plan.net.get(name, 0) for name in names)
            net = net if any(net) else ()
        nets.append(net)
    counts = _count_all(state, names)
    while True:
        if len(events) >= cfg.max_steps:
            reason = HALT_MAX_STEPS
            break
        outcomes = enumerator.outcomes(state)
        if not outcomes.rates:
            reason = HALT_EXHAUSTED
            break
        dt, i, total = _draw(outcomes.rates, rng)
        if clock + dt > cfg.tmax:
            reason = HALT_TMAX
            break
        next_clock = clock + dt
        while gi < len(grid) and grid[gi] < next_clock:
            samples.append(Sample(grid[gi], len(events), counts))
            gi += 1
        chosen = outcomes.transition(i)
        state = chosen.target
        clock = next_clock
        net = nets[outcomes.rule_index(i)]
        if net is None:
            counts = _count_all(state, names)
        elif net:
            counts = tuple(map(add, counts, net))
        events.append(TraceEvent(clock, len(events) + 1, chosen.rule_id,
                                 chosen.path, chosen.rate, total, counts))
    # a state no step enumerated keeps the hints of the build that made it
    enumerator.drop_hints()
    while gi < len(grid):
        samples.append(Sample(grid[gi], len(events), counts))
        gi += 1
    final_time = cfg.tmax if reason == HALT_TMAX else clock
    return Trace(names, events, samples, state, final_time, reason)


def _sample_grid(tmax: float, samples: int) -> list[float]:
    grid: list[float] = []
    for i in range(samples + 1):
        t = i * tmax / samples
        if not grid or t > grid[-1]:
            grid.append(t)
    return grid
