"""Deterministic stream-processing components: their specs and structural checks.

Atomic components are finite automata evaluated element-wise: one transition
fires per tick (the first enabled one in declaration order), unassigned
outputs latch their last value, and strict components emit with a one-tick
delay (tick 1 emits the declared initial outputs). Composite components are
wiring networks over subcomponents. The structural check of a composite
reads its own wires and a summary of each subcomponent, found once: the
producer behind each output, the inputs each output reads within a tick,
and whether a zero-delay cycle lies inside. Its network of atomic
instances, with the wiring resolved and the weak atoms scheduled, is built
in one walk down the tree, on first use, for a component that runs or
whose fault must be worded; the simulator and the causality check read it.

This module holds what a model load runs. Running a component and checking
its causality (`run`, `step`, `check_causality` and the rest) are in
`simulator`, which a load does not import.
"""

from __future__ import annotations

from typing import Any, Container, Mapping, Union

from .errors import SimulationError, TypeMismatchError
from .exprs import TRUE, Expr, free_names
from .records import FRESH, Record, store
from .streams import Channel, DataType, enum_labels

STRICT = "strict"
WEAK = "weak"


class SyntacticInterface(Record, frozen=True):
    """The typed input and output channel sets of a component."""

    _fields = ("inputs", "outputs")

    def __init__(self, inputs: tuple[Channel, ...], outputs: tuple[Channel, ...]):
        store(self, "inputs", inputs)
        store(self, "outputs", outputs)
        seen: set[str] = set()
        dupes: set[str] = set()
        for c in inputs + outputs:
            (dupes if c.name in seen else seen).add(c.name)
        if dupes:
            raise TypeMismatchError(f"duplicate channel names: {sorted(dupes)}")

    def output(self, name: str) -> Channel:
        return next(c for c in self.outputs if c.name == name)

    def input_names(self) -> list[str]:
        return [c.name for c in self.inputs]

    def output_names(self) -> list[str]:
        return [c.name for c in self.outputs]


class VariableDecl(Record, frozen=True):
    """A variable of an automaton, with its type and initial value."""

    _fields = ("name", "dtype", "init")

    def __init__(self, name: str, dtype: DataType, init: Any):
        store(self, "name", name)
        store(self, "dtype", dtype)
        store(self, "init", init)


class Transition(Record, frozen=True):
    """A guarded step between control states, with its output
    assignments and variable updates."""

    _fields = ("source", "target", "guard", "outputs", "updates", "label")

    def __init__(self, source: str, target: str, guard: Expr = TRUE,
                 outputs: tuple[tuple[str, Expr], ...] = (),
                 updates: tuple[tuple[str, Expr], ...] = (), label: str | None = None):
        store(self, "source", source)
        store(self, "target", target)
        store(self, "guard", guard)
        store(self, "outputs", outputs)
        store(self, "updates", updates)
        store(self, "label", label)


class AutomatonSpec(Record, frozen=True):
    """An atomic component: a state machine over its interface."""

    _fields = ("name", "interface", "states", "initial", "transitions", "variables",
               "output_init", "causality", "total")

    def __init__(self, name: str, interface: SyntacticInterface, states: tuple[str, ...],
                 initial: str, transitions: tuple[Transition, ...] = (),
                 variables: tuple[VariableDecl, ...] = (), output_init: Mapping[str, Any] = FRESH,
                 causality: str = STRICT, total: bool = False):
        store(self, "name", name)
        store(self, "interface", interface)
        store(self, "states", states)
        store(self, "initial", initial)
        store(self, "transitions", transitions)
        store(self, "variables", variables)
        store(self, "output_init", {} if output_init is FRESH else output_init)
        store(self, "causality", causality)
        store(self, "total", total)


class Endpoint(Record, frozen=True):
    """A wiring end: (component, channel); component None means the boundary."""

    _fields = ("component", "channel")

    def __init__(self, component: str | None, channel: str):
        store(self, "component", component)
        store(self, "channel", channel)

    def __str__(self) -> str:
        return self.channel if self.component is None else f"{self.component}.{self.channel}"


class Connector(Record, frozen=True):
    """A wire from a producer endpoint to a consumer endpoint."""

    _fields = ("producer", "consumer")

    def __init__(self, producer: Endpoint, consumer: Endpoint):
        store(self, "producer", producer)
        store(self, "consumer", consumer)


class CompositeSpec(Record, frozen=True):
    """A component made of named subcomponents and the wiring between them."""

    _fields = ("name", "interface", "subcomponents", "wiring")

    def __init__(self, name: str, interface: SyntacticInterface,
                 subcomponents: tuple[tuple[str, ComponentSpec], ...],
                 wiring: tuple[Connector, ...]):
        store(self, "name", name)
        store(self, "interface", interface)
        store(self, "subcomponents", subcomponents)
        store(self, "wiring", wiring)


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
    if len(var_names) != len(spec.variables):
        problems.append("duplicate variable names")
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
# Summaries


class _Summary:
    """What a composite that holds a component reads of it, found once and
    kept on the component (see `_summarize`).

    `error` is the message of a fault in its wiring, or in a subcomponent's,
    that leaves it without a network; the other fields are then unset.
    `sources` maps each wired consumer (subcomponent or None, channel) to
    the producer behind it, as `networks.Network` gives one, so an output
    (None, channel) to what the component emits there. `reads` maps each
    wired consumer to the inputs it reads within a tick, through weak atoms
    only; it is None when a zero-delay cycle lies inside.
    """

    __slots__ = ("error", "sources", "reads")

    def __init__(self, error: str | None, sources: dict | None = None,
                 reads: dict | None = None):
        self.error, self.sources, self.reads = error, sources, reads


def _summary(spec: ComponentSpec) -> _Summary:
    found = spec.__dict__.get("_summary")
    if found is None:
        if isinstance(spec, AutomatonSpec):
            reads = {c.name for c in spec.interface.inputs} if spec.causality != STRICT else set()
            found = _Summary(None, {(None, c.name): ("", c.name) for c in spec.interface.outputs},
                             {(None, c.name): reads for c in spec.interface.outputs})
        else:
            try:
                found = _summarize(spec)
            except SimulationError as e:
                found = _Summary(str(e))
        spec.__dict__["_summary"] = found
    return found


def _summarize(spec: CompositeSpec) -> _Summary:
    """A composite's summary, from its wiring and its subcomponents'
    summaries. Each wire is followed through pass-through outputs (those a
    subcomponent wires from one of its inputs) to the producer behind.

    Raises SimulationError, in the order a top-down flattening meets them,
    for a wire from a boundary channel that is not an input or, in a
    subcomponent, that is not wired here, for a subcomponent's fault, and
    for a loop of wires through pass-through outputs.
    """
    _check_fed(spec, {(None, c.name) for c in spec.interface.inputs})
    wires = {(conn.consumer.component, conn.consumer.channel): conn.producer
             for conn in spec.wiring}
    subs: dict[str, _Summary] = {}
    for name, sub in spec.subcomponents:
        if isinstance(sub, CompositeSpec):
            _check_fed(sub, wires, name)
        subs[name] = found = _summary(sub)
        if found.error is not None:
            raise SimulationError(found.error)
    sources: dict = {}
    for consumer in wires:  # every wire, so that a loop no atom reads is found too
        passed: dict[Endpoint, int] = {}  # pass-through outputs followed so far
        chans: list[str] = []  # each one and the input it passes on
        followed = []
        while consumer not in sources:
            followed.append(consumer)
            ep = wires.get(consumer)
            if ep is None or ep.component is None:
                producer = ep and (None, ep.channel)
                break
            sub = subs.get(ep.component)
            producer = sub and sub.sources.get((None, ep.channel))
            if producer is None or producer[0] is not None:
                producer = producer and (_join(ep.component, producer[0]), producer[1])
                break
            if ep in passed:
                loop = chans[2 * passed[ep]:][::-1]
                raise SimulationError(f"wiring loop in {spec.name!r} through pass-through "
                                      f"composites: {' -> '.join(loop + loop[:1])}")
            passed[ep] = len(passed)
            consumer = (ep.component, producer[1])
            chans += [str(ep), f"{ep.component}.{producer[1]}"]
        else:
            producer = sources[consumer]
        for key in followed:
            sources[key] = producer
    if any(sub.reads is None for sub in subs.values()):
        return _Summary(None, sources)
    return _Summary(None, sources, _reads(wires, subs))


def _reads(wires: Mapping, subs: Mapping[str, _Summary]) -> dict | None:
    """The inputs that each consumer of `wires` reads within a tick, found
    by following the wires back through the subcomponents' `reads`, or None
    when they close a cycle. Each such cycle holds a weak atom, since
    `_summarize` refuses a loop through pass-through outputs alone."""
    def behind(consumer):
        """The consumers whose reads the wire into `consumer` passes on."""
        ep = wires.get(consumer)
        sub = ep and subs.get(ep.component)
        return [(ep.component, i) for i in sub.reads.get((None, ep.channel), ())] if sub else []

    # None while the reads behind a consumer are being found
    reads: dict = {consumer: {ep.channel} for consumer, ep in wires.items() if ep.component is None}
    for start in wires:
        if start in reads:
            continue
        reads[start] = None
        stack = [(start, behind(start), 0)]
        while stack:
            consumer, before, k = stack.pop()
            while k < len(before) and before[k] in reads:
                if reads[before[k]] is None:
                    return None
                k += 1
            if k < len(before):
                reads[before[k]] = None
                stack += [(consumer, before, k + 1), (before[k], behind(before[k]), 0)]
            else:
                reads[consumer] = set().union(*map(reads.__getitem__, before))
    return reads


def _check_fed(spec: CompositeSpec, fed: Container[tuple[str | None, str]],
               name: str | None = None) -> None:
    """Raise SimulationError at the first wire of `spec` from a boundary
    channel that is not fed: (`name`, channel) is not in `fed`."""
    for conn in spec.wiring:
        if conn.producer.component is None and (name, conn.producer.channel) not in fed:
            raise SimulationError(f"{spec.name}: {conn.producer} is not a composite input")


def _join(path: str, rest: str) -> str:
    """The path `rest` under `path`; either may be "", the path of a top."""
    return f"{path}/{rest}" if path and rest else path or rest


# ---------------------------------------------------------------------------
# Structural checks


def compose_check(spec: CompositeSpec) -> list[str]:
    """Validate a composite network; returns [] when everything is wired sanely.

    Past its own wires, it reads only its subcomponents' summaries (see
    `_summarize`); only a zero-delay cycle is worded from its network.
    """
    problems: list[str] = []
    subs = dict(spec.subcomponents)
    if len(subs) != len(spec.subcomponents):
        problems.append("duplicate subcomponent names")
    # the channels that may produce, and those that may consume, by endpoint
    produce = {(None, c.name): c for c in spec.interface.inputs}
    produce.update(((name, c.name), c) for name, sub in subs.items() for c in sub.interface.outputs)
    consume = {(None, c.name): c for c in spec.interface.outputs}
    consume.update(((name, c.name), c) for name, sub in subs.items() for c in sub.interface.inputs)

    def bad(ep: Endpoint, side: str) -> str:
        if ep.component is None or ep.component in subs:
            return f"endpoint {ep} is not a valid {side} channel"
        return f"unknown subcomponent in endpoint {ep}"

    wired: dict[tuple[str | None, str], int] = {}  # consumer -> its number of producers
    for conn in spec.wiring:
        producer, consumer = conn.producer, conn.consumer
        p = produce.get((producer.component, producer.channel))
        if p is None:
            problems.append(bad(producer, "producer"))
        key = (consumer.component, consumer.channel)
        c = consume.get(key)
        if c is None:
            problems.append(bad(consumer, "consumer"))
        elif p is not None and p.ctype != c.ctype:
            problems.append(f"type mismatch on {producer} -> {consumer}: "
                            f"{p.ctype.to_text()} vs {c.ctype.to_text()}")
        wired[key] = wired.get(key, 0) + 1
    problems += [f"consumer {Endpoint(*key)} has {n} producers" for key, n in wired.items() if n > 1]
    problems += [f"unconnected consumer {name}.{c.name}" for name, sub in spec.subcomponents
                 for c in sub.interface.inputs if (name, c.name) not in wired]
    problems += [f"unconnected composite output {c.name}" for c in spec.interface.outputs
                 if (None, c.name) not in wired]
    if problems:
        return problems
    summary = _summary(spec)
    if summary.error is not None:
        return [summary.error]
    if summary.reads is None:
        from .networks import flatten, zero_delay_cycle
        return ["zero-delay cycle: " + " ; ".join(zero_delay_cycle(flatten(spec)))]
    return []


def spec_problems(spec: ComponentSpec) -> tuple[str, ...]:
    """The spec's own problems: `validate_automaton` of an atom,
    `compose_check` of a composite (its subcomponents are checked on their
    own). Found once and kept on the spec, as the loader found them."""
    found = spec.__dict__.get("_problems")
    if found is None:
        found = spec.__dict__["_problems"] = tuple(
            validate_automaton(spec) if isinstance(spec, AutomatonSpec) else compose_check(spec))
    return found


def __getattr__(name: str):
    """`run` and `check_causality` as the very objects of `simulator`,
    imported on the first read of either name, not by a model load. The
    benchmark's tracer (`bench/spans.py`) still looks both up here."""
    if name in ("run", "check_causality"):
        from . import simulator
        return getattr(simulator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
