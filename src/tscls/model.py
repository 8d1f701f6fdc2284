"""Model container: rules, constants, typing, initial state, run settings."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .semantics import (LITERAL, POSITIONAL, RewriteRule, rule_facts,
                        rule_violations)
from .terms import Table, Term, TypeEnv, term_elements


@dataclass(frozen=True)
class ObservableSpec:
    """What to report: bare parallel occurrences of one element, summed
    over all compartments."""
    element: str


SEED_LIMIT = 1 << 64


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings. ``tmax`` may be 0 to record the initial state
    only; ``samples`` is the number of evenly spaced sampling intervals."""
    seed: int = 1
    tmax: float = 100.0
    max_steps: int = 1_000_000
    samples: int = 100

    def violations(self) -> list[str]:
        out = []
        if not 0 <= self.seed < SEED_LIMIT:
            # the generator reads 64 bits of the seed; a seed outside
            # them would run as another seed's trajectory
            out.append("seed must be an integer in [0, 2^64)")
        if not math.isfinite(self.tmax) or self.tmax < 0:
            out.append("tmax must be a finite number >= 0")
        if self.max_steps <= 0:
            out.append("max_steps must be positive")
        if self.samples <= 0:
            out.append("samples must be positive")
        return out


# per type-declaration content, its one environment: what an environment
# keeps (see TypeEnv) serves every model that declares the same
_ENVS = Table()


@dataclass
class ModelFile:
    """Everything a model file declares, ready for simulation."""
    name: str = ""
    constants: dict[str, float] = field(default_factory=dict)
    type_decls: dict[str, str] = field(default_factory=dict)
    rules: list[RewriteRule] = field(default_factory=list)
    init: Term = field(default_factory=Term)
    observables: list[ObservableSpec] = field(default_factory=list)
    run_defaults: dict = field(default_factory=dict)
    typing: str = POSITIONAL

    def type_env(self) -> TypeEnv:
        """The environment of the type declarations: one per process for
        each content they can have."""
        key = frozenset(self.type_decls.items())
        env = _ENVS.get(key)
        if env is None:
            env = _ENVS[key] = TypeEnv(self.type_decls)
        return env

    def elements(self) -> set[str]:
        """Every element occurring in rules, the initial term or type
        declarations."""
        out = set(term_elements(self.init))
        out.update(self.type_decls)
        for rule in self.rules:
            out.update(rule_facts(rule).elements)
        return out

    def sim_config(self, **overrides) -> SimConfig:
        """Defaults, overlaid with the model's run block, overlaid with
        any non-None overrides."""
        return SimConfig(**{**self.run_defaults, **{
            k: v for k, v in overrides.items() if v is not None}})


def name_clashes(mf: ModelFile) -> list[str]:
    """A diagnostic per rule id or observable named a second time: traces
    name rules and observables, so each must be one. Linear in the rules
    and observables, so cheap enough to check before every run."""
    out: list[str] = []
    for what, names in (("rule id", [rule.id for rule in mf.rules]),
                        ("observable", [o.element for o in mf.observables])):
        seen: set[str] = set()
        for name in names:
            if name in seen:
                out.append(f"duplicate {what} '{name}'")
            seen.add(name)
    return out


def validate_model(mf: ModelFile) -> list[str]:
    """All diagnostics for a parsed or constructed model."""
    out: list[str] = []
    if mf.typing not in (POSITIONAL, LITERAL):
        out.append(f"unknown typing mode '{mf.typing}'")
    out.extend(name_clashes(mf))
    for rule in mf.rules:
        out.extend(rule_violations(rule, mf.constants))
    known = mf.elements()
    for element in dict.fromkeys(o.element for o in mf.observables):
        if element not in known:
            out.append(f"observable '{element}' is not an element of the model")
    cfg = mf.sim_config()
    out.extend(cfg.violations())
    return out
