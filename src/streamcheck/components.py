"""Deterministic stream-processing components and their simulator.

Atomic components are finite automata evaluated element-wise: one transition
fires per tick (the first enabled one in declaration order), unassigned
outputs latch their last value, and strict components emit with a one-tick
delay (tick 1 emits the declared initial outputs). Composite components are
wiring networks over subcomponents; they are flattened before simulation so
scheduling only ever deals with atomic instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Union

from .errors import CapsExceededError, SimulationError, StreamcheckError, TypeMismatchError
from .exprs import TRUE, Expr, free_names
from .streams import (Channel, ChannelHistory, DataType, TimedStream, enum_labels,
                      validate_history)

STRICT = "strict"
WEAK = "weak"


@dataclass(frozen=True)
class SyntacticInterface:
    """The typed input and output channel sets of a component."""

    inputs: tuple[Channel, ...]
    outputs: tuple[Channel, ...]

    def __post_init__(self):
        names = [c.name for c in self.inputs] + [c.name for c in self.outputs]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise TypeMismatchError(f"duplicate channel names: {sorted(dupes)}")

    def input(self, name: str) -> Channel:
        return next(c for c in self.inputs if c.name == name)

    def output(self, name: str) -> Channel:
        return next(c for c in self.outputs if c.name == name)

    def input_names(self) -> list[str]:
        return [c.name for c in self.inputs]

    def output_names(self) -> list[str]:
        return [c.name for c in self.outputs]


@dataclass(frozen=True)
class VariableDecl:
    name: str
    dtype: DataType
    init: Any


@dataclass(frozen=True)
class Transition:
    source: str
    target: str
    guard: Expr = TRUE
    outputs: tuple[tuple[str, Expr], ...] = ()
    updates: tuple[tuple[str, Expr], ...] = ()
    label: str | None = None


@dataclass(frozen=True)
class AutomatonSpec:
    name: str
    interface: SyntacticInterface
    states: tuple[str, ...]
    initial: str
    transitions: tuple[Transition, ...] = ()
    variables: tuple[VariableDecl, ...] = ()
    output_init: Mapping[str, Any] = field(default_factory=dict)
    causality: str = STRICT
    total: bool = False


@dataclass(frozen=True)
class Endpoint:
    """A wiring end: (component, channel); component None means the boundary."""

    component: str | None
    channel: str

    def __str__(self) -> str:
        return self.channel if self.component is None else f"{self.component}.{self.channel}"


@dataclass(frozen=True)
class Connector:
    producer: Endpoint
    consumer: Endpoint


@dataclass(frozen=True)
class CompositeSpec:
    name: str
    interface: SyntacticInterface
    subcomponents: tuple[tuple[str, "ComponentSpec"], ...]
    wiring: tuple[Connector, ...]


ComponentSpec = Union[AutomatonSpec, CompositeSpec]


def enum_label_env(spec: AutomatonSpec) -> dict[str, str]:
    """Enumeration labels visible to this automaton's expressions."""
    return enum_labels([c.ctype for c in spec.interface.inputs + spec.interface.outputs]
                       + [v.dtype for v in spec.variables])


def validate_automaton(spec: AutomatonSpec) -> list[str]:
    """Static well-formedness check; returns a list of problem descriptions."""
    problems: list[str] = []
    if spec.causality not in (STRICT, WEAK):
        problems.append(f"unknown causality mode {spec.causality!r}")
    if spec.initial not in spec.states:
        problems.append(f"initial state {spec.initial!r} not declared")
    if len(set(spec.states)) != len(spec.states):
        problems.append("duplicate state names")
    in_names = set(spec.interface.input_names())
    out_names = set(spec.interface.output_names())
    var_names = {v.name for v in spec.variables}
    labels = set(enum_label_env(spec))
    clash = labels & (in_names | out_names | var_names)
    if clash:
        problems.append(f"enumeration labels shadow channels/variables: {sorted(clash)}")
    for v in spec.variables:
        if v.name in in_names | out_names:
            kind = "input" if v.name in in_names else "output"
            problems.append(f"variable {v.name!r} has the same name as an {kind} channel")
        if not v.dtype.contains(v.init):
            problems.append(f"variable {v.name!r} initial value {v.init!r} outside its type")
    if spec.causality == STRICT:
        for c in spec.interface.outputs:
            if c.name not in spec.output_init:
                problems.append(f"strict component lacks init value for output {c.name!r}")
    for name, value in spec.output_init.items():
        if name not in out_names:
            problems.append(f"output_init names unknown output {name!r}")
        elif not spec.interface.output(name).ctype.contains(value):
            problems.append(f"init value {value!r} outside type of output {name!r}")
    guard_scope = in_names | var_names | labels
    assign_scope = guard_scope | out_names
    for t in spec.transitions:
        where = f"transition {t.label or t.source + '->' + t.target}"
        if t.source not in spec.states:
            problems.append(f"{where}: unknown source state {t.source!r}")
        if t.target not in spec.states:
            problems.append(f"{where}: unknown target state {t.target!r}")
        for n in sorted(free_names(t.guard) - guard_scope):
            problems.append(f"{where}: unresolved channel {n!r} in guard")
        for o, e in t.outputs:
            if o not in out_names:
                problems.append(f"{where}: assignment to unknown output {o!r}")
            for n in sorted(free_names(e) - assign_scope):
                problems.append(f"{where}: unresolved channel {n!r} in assignment")
        for v, e in t.updates:
            if v not in var_names:
                problems.append(f"{where}: update of unknown variable {v!r}")
            for n in sorted(free_names(e) - assign_scope):
                problems.append(f"{where}: unresolved channel {n!r} in assignment")
    return problems


# ---------------------------------------------------------------------------
# Runtime state


@dataclass(frozen=True)
class AutomatonState:
    state: str
    variables: tuple[tuple[str, Any], ...]
    pending: tuple[tuple[str, Any], ...]  # outputs computed at the previous tick


@dataclass(frozen=True)
class CompositeState:
    substates: tuple[tuple[str, AutomatonState], ...]


ComponentState = Union[AutomatonState, CompositeState]


_BOUNDARY = None


class _FlatModel:
    """A composite flattened to atomic instances plus resolved wiring."""

    def __init__(self, spec: CompositeSpec):
        self.atoms: dict[str, AutomatonSpec] = {}
        self._alias: dict[tuple[str | None, str], tuple[str | None, str]] = {}
        self._flatten(spec, None, {c.name: (_BOUNDARY, c.name) for c in spec.interface.inputs})
        # resolve every consumer to its terminal producer up front
        self.src: dict[tuple[str, str], tuple[str | None, str]] = {}
        for path, atom in self.atoms.items():
            for c in atom.interface.inputs:
                self.src[(path, c.name)] = self._resolve((path, c.name))
        self.out_src = {c.name: self._resolve((_BOUNDARY, c.name))
                        for c in spec.interface.outputs}

    def _flatten(self, spec: ComponentSpec, path: str | None,
                 input_src: dict[str, tuple[str | None, str]]) -> dict[str, tuple[str | None, str]]:
        """Inline a component at `path`; returns producer endpoints for its outputs.

        Producers that are sibling-subcomponent outputs are not known until
        that sibling has been flattened, so they are first recorded under a
        provisional key and rewritten to their terminal endpoint afterwards.
        """
        if isinstance(spec, AutomatonSpec):
            assert path is not None
            self.atoms[path] = spec
            for chan, src in input_src.items():
                self._alias[(path, chan)] = src
            return {c.name: (path, c.name) for c in spec.interface.outputs}
        prefix = "" if path is None else path + "/"

        def producer_key(ep: Endpoint) -> tuple[str | None, str]:
            if ep.component is None:
                src = input_src.get(ep.channel)
                if src is None:
                    raise SimulationError(f"{spec.name}: {ep} is not a composite input")
                return src
            return (f"{prefix}{ep.component}?", ep.channel)  # provisional

        sub_in: dict[str, dict[str, tuple[str | None, str]]] = {}
        boundary_out: dict[str, tuple[str | None, str]] = {}
        for conn in spec.wiring:
            ep = conn.consumer
            if ep.component is None:
                boundary_out[ep.channel] = producer_key(conn.producer)
            else:
                sub_in.setdefault(ep.component, {})[ep.channel] = producer_key(conn.producer)
        provisional: dict[tuple[str | None, str], tuple[str | None, str]] = {}
        for name, sub in spec.subcomponents:
            outs = self._flatten(sub, prefix + name, sub_in.get(name, {}))
            for chan, terminal in outs.items():
                provisional[(f"{prefix}{name}?", chan)] = terminal

        def fix(src: tuple[str | None, str]) -> tuple[str | None, str]:
            while src in provisional:
                src = provisional[src]
            return src

        for key, src in list(self._alias.items()):
            self._alias[key] = fix(src)
        boundary_out = {chan: fix(src) for chan, src in boundary_out.items()}
        if path is None:
            for chan, src in boundary_out.items():
                self._alias[(_BOUNDARY, chan)] = src
        return boundary_out

    def _resolve(self, key: tuple[str | None, str]) -> tuple[str | None, str]:
        seen = set()
        while key in self._alias:
            if key in seen:
                raise SimulationError(f"wiring alias cycle at {key}")
            seen.add(key)
            key = self._alias[key]
        return key


def _simulator(spec: ComponentSpec, check_determinism: bool = False):
    """The spec's `simulator.Simulator`, compiled on first use and kept on the spec.

    The simulator refers to no spec, so a spec and its simulator form no
    reference cycle and go away together.
    """
    check_determinism = bool(check_determinism)
    cache = spec.__dict__.setdefault("_simulators", {})
    sim = cache.get(check_determinism)
    if sim is None:
        from .simulator import Simulator
        sim = cache[check_determinism] = Simulator(spec, check_determinism)
    return sim


def initial_state(spec: ComponentSpec) -> ComponentState:
    """The configuration before the first tick.

    Like every state `step` returns, it lists variables and latched outputs
    in declaration order and a composite's atoms in flattening order.
    """
    return _simulator(spec).initial()


def step(spec: ComponentSpec, st: ComponentState, inputs: Mapping[str, Any],
         check_determinism: bool = False) -> tuple[ComponentState, dict[str, Any]]:
    """Advance one tick: consume one message per input, emit one per output."""
    return _simulator(spec, check_determinism).step(st, inputs)


def run(spec: ComponentSpec, input_history: ChannelHistory, n: int | None = None,
        check_determinism: bool = False) -> ChannelHistory:
    """Run `n` ticks (default: the input horizon) from the initial state.

    Any error during a tick, a StreamcheckError or not, is raised as a
    SimulationError that carries the tick.
    """
    if n is None:
        n = input_history.horizon
    violations = validate_history(input_history, list(spec.interface.inputs))
    if violations:
        raise SimulationError("invalid input history: " + "; ".join(map(str, violations)))
    if input_history.horizon < n:
        raise SimulationError(f"input horizon {input_history.horizon} < requested ticks {n}")
    return _simulator(spec, check_determinism).run(input_history, n)


# ---------------------------------------------------------------------------
# Structural checks


def compose_check(spec: CompositeSpec) -> list[str]:
    """Validate a composite network; returns [] when everything is wired sanely."""
    problems: list[str] = []
    subs = dict(spec.subcomponents)
    if len(subs) != len(spec.subcomponents):
        problems.append("duplicate subcomponent names")

    def chan_of(ep: Endpoint, producing: bool) -> Channel | None:
        if ep.component is None:
            pool = spec.interface.inputs if producing else spec.interface.outputs
        else:
            sub = subs.get(ep.component)
            if sub is None:
                problems.append(f"unknown subcomponent in endpoint {ep}")
                return None
            pool = sub.interface.outputs if producing else sub.interface.inputs
        for c in pool:
            if c.name == ep.channel:
                return c
        side = "producer" if producing else "consumer"
        problems.append(f"endpoint {ep} is not a valid {side} channel")
        return None

    producers: dict[Endpoint, list[Endpoint]] = {}
    for conn in spec.wiring:
        p = chan_of(conn.producer, producing=True)
        c = chan_of(conn.consumer, producing=False)
        if p is not None and c is not None and p.ctype != c.ctype:
            problems.append(f"type mismatch on {conn.producer} -> {conn.consumer}: "
                            f"{p.ctype.to_text()} vs {c.ctype.to_text()}")
        producers.setdefault(conn.consumer, []).append(conn.producer)
    for consumer, plist in producers.items():
        if len(plist) > 1:
            problems.append(f"consumer {consumer} has {len(plist)} producers")
    for name, sub in spec.subcomponents:
        for c in sub.interface.inputs:
            if Endpoint(name, c.name) not in producers:
                problems.append(f"unconnected consumer {name}.{c.name}")
    for c in spec.interface.outputs:
        if Endpoint(None, c.name) not in producers:
            problems.append(f"unconnected composite output {c.name}")
    if problems:
        return problems
    problems.extend(_zero_delay_cycles(spec))
    return problems


def _zero_delay_cycles(spec: CompositeSpec) -> list[str]:
    try:
        flat = _FlatModel(spec)
    except StreamcheckError as e:
        return [f"cannot flatten composite: {e}"]
    weak = {p for p, atom in flat.atoms.items() if atom.causality != STRICT}
    edges: dict[str, dict[str, str]] = {p: {} for p in weak}
    for (consumer, chan), src in flat.src.items():
        if consumer in weak and src[0] in weak:
            edges[src[0]][consumer] = f"{src[0]}.{src[1]} -> {consumer}.{chan}"
    color: dict[str, int] = {}
    for p in sorted(weak):
        if color.get(p, 0) == 0:
            cycle = _find_cycle(p, edges, color, [])
            if cycle:
                return ["zero-delay cycle: " + " ; ".join(cycle)]
    return []


def _find_cycle(u: str, edges: Mapping[str, Mapping[str, str]], color: dict[str, int],
                path: list[str]) -> list[str] | None:
    """Depth-first search from u; the edge labels of the first cycle found.

    A module-level function rather than a closure over the search state,
    which would be a reference cycle left for the garbage collector.
    """
    color[u] = 1
    for v, label in edges[u].items():
        if color.get(v) == 1:
            return path + [label]
        if color.get(v, 0) == 0:
            cycle = _find_cycle(v, edges, color, path + [label])
            if cycle:
                return cycle
    color[u] = 2
    return None


# ---------------------------------------------------------------------------
# Causality checking


@dataclass(frozen=True)
class CausalityCounterexample:
    tick: int
    input_a: ChannelHistory
    input_b: ChannelHistory
    output_a: ChannelHistory
    output_b: ChannelHistory

    def __str__(self) -> str:
        return (f"inputs agree through tick {self.tick} but outputs diverge "
                f"within the checked prefix")


def representative_values(dtype: DataType, limit: int = 2) -> list[Any]:
    """A small value abstraction of a data type, for causality search."""
    if dtype.kind == "bool":
        return [False, True]
    if dtype.kind == "int":
        vals = dtype.values()
        return vals if len(vals) <= limit else [dtype.lo, dtype.hi][:limit]
    if dtype.kind == "enum":
        return list(dtype.labels[:max(limit, 1)])
    return [0.0, 1.0][:limit]


def check_causality(spec: ComponentSpec, budget: int = 4096, horizon: int = 3,
                    mode: str | None = None, seed: int = 0,
                    values_per_channel: int = 2,
                    stats: dict | None = None) -> Optional[CausalityCounterexample]:
    """Decide the declared (or given) causality mode over the per-channel
    value abstraction; returns None when it holds within `horizon` ticks.

    A component is a deterministic Mealy machine: its output at tick t+1
    depends only on its configuration after t ticks and on input t+1. Strict
    causality fails within the horizon exactly when some configuration
    reachable in t <= horizon-1 ticks of grid inputs emits different outputs
    for two grid input rows; the counterexample's `tick` is the smallest such
    t. The search is breadth-first over distinct configurations, so it costs
    (reachable configurations x grid rows) steps, not every grid history;
    one call of the compiled successor function steps a configuration on
    every grid row.
    Weak mode lets outputs depend on inputs of the same tick, which a
    deterministic step function always satisfies, so it returns None at once.

    `budget` caps the number of distinct configurations explored; exceeding
    it raises CapsExceededError. An error in a step raises SimulationError
    with the tick of that step. `seed` is deprecated and ignored: the search
    is exhaustive and draws no random trials. When `stats` is given,
    stats["configurations"] is set to the distinct configurations reached
    (the start included) and stats["steps"] to the steps taken.
    """
    if mode is None:
        mode = spec.causality if isinstance(spec, AutomatonSpec) else STRICT
    stats = {} if stats is None else stats
    stats.update(configurations=0, steps=0)
    if mode != STRICT:
        return None
    channels = spec.interface.inputs
    rows = list(itertools.product(*(
        [c.ctype.check(v) for v in representative_values(c.ctype, values_per_channel)]
        for c in channels)))
    sim = _simulator(spec)
    start = sim.initial_slots
    # configuration -> (parent configuration, input row); None for the start
    parents: dict[tuple, Optional[tuple[tuple, tuple]]] = {start: None}
    stats["configurations"] = 1
    level = [start]
    for t in range(horizon):
        following = []
        expand = t + 1 < horizon
        for config in level:
            # the rows are judged in order, so a failing step counts only
            # when no earlier row gives a counterexample or overflows the budget
            results, error = sim.successors(config, rows)
            first = results[0][0] if results else None
            for k, (out, nxt) in enumerate(results):
                if out != first:
                    stats["steps"] += k + 1
                    return _counterexample(spec, parents, config, rows[0], rows[k], rows[0],
                                           t, horizon)
                if expand and nxt not in parents:
                    if len(parents) >= budget:
                        stats["steps"] += k + 1
                        raise CapsExceededError(
                            f"causality search of {spec.name!r} reaches more than "
                            f"{budget} configurations", len(parents) + 1, budget)
                    parents[nxt] = (config, rows[k])
                    stats["configurations"] = len(parents)
                    following.append(nxt)
            stats["steps"] += len(results)
            if error is not None:
                from .simulator import at_tick
                raise at_tick(error, t + 1)
        level = following
    return None


def _counterexample(spec: ComponentSpec, parents: Mapping[tuple, Optional[tuple[tuple, tuple]]],
                    config: tuple, row_a: tuple, row_b: tuple, pad: tuple, tick: int,
                    horizon: int) -> CausalityCounterexample:
    """Two grid histories that reach `config` by the same prefix, then read
    row_a and row_b, then `pad` until the horizon."""
    prefix = []
    while parents[config] is not None:
        config, row = parents[config]
        prefix.append(row)
    prefix.reverse()
    suffix = [pad] * (horizon - tick - 1)
    channels = spec.interface.inputs

    def history(rows: list[tuple]) -> ChannelHistory:
        return ChannelHistory({c.name: TimedStream.of(c.ctype, [row[k] for row in rows])
                               for k, c in enumerate(channels)}, horizon)

    input_a = history(prefix + [row_a] + suffix)
    input_b = history(prefix + [row_b] + suffix)
    return CausalityCounterexample(tick, input_a, input_b, run(spec, input_a, horizon),
                                   run(spec, input_b, horizon))
