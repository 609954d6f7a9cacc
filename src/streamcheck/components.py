"""Deterministic stream-processing components: their specs and structural checks.

Atomic components are finite automata evaluated element-wise: one transition
fires per tick (the first enabled one in declaration order), unassigned
outputs latch their last value, and strict components emit with a one-tick
delay (tick 1 emits the declared initial outputs). Composite components are
wiring networks over subcomponents. Each composite's network of atomic
instances, with its wiring resolved and its weak atoms scheduled, is built
once from its subcomponents' networks; the structural check, the simulator
and the causality check all read it.

This module holds what a model load runs. Running a component and checking
its causality (`run`, `step`, `check_causality` and the rest) are in
`simulator`, which a load does not import.
"""

from __future__ import annotations

from typing import Any, Container, Mapping, Optional, Union

from .errors import SimulationError, StreamcheckError, TypeMismatchError
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
        names = [c.name for c in inputs] + [c.name for c in outputs]
        dupes = {n for n in names if names.count(n) > 1}
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
# Networks


class Network:
    """A component as a network of atomic instances with its wiring resolved.

    `atoms` lists them by path, depth first in declaration order (a lone
    atom's path is ""). `src` maps each atom input (path, channel), and
    `out_src` each output, to its producer: (None, channel) for a boundary
    input, (path, channel) for an atom output, None when no wire feeds it.
    `weak` lists the weak atoms in firing order and `stuck` those that never
    fire.
    """

    def __init__(self, atoms: list[tuple[str, AutomatonSpec]], src: dict, out_src: dict,
                 inputs: tuple[Channel, ...]):
        self.atoms, self.src, self.out_src = atoms, src, out_src
        # strict atoms emit what they latched, so their initialised outputs
        # have values before anything steps
        available = {(None, c.name) for c in inputs}
        available.update((p, c.name) for p, a in atoms if a.causality == STRICT
                         for c in a.interface.outputs if c.name in a.output_init)
        pending = {p for p, a in atoms if a.causality != STRICT}
        self.weak = _fire(dict(atoms), pending, src, available)
        self.stuck = sorted(pending)


def _fire(atoms: Mapping[str, AutomatonSpec], pending: set[str], src: Mapping, avail: set
          ) -> list[str]:
    """The readiness scan: scanning `pending` by path, as often as needed,
    fire each atom whose inputs' producers are all in `avail` and add its
    outputs there. Returns the atoms fired, in order, and leaves the others
    in `pending`."""
    fired = []
    progress = True
    while pending and progress:
        progress = False
        for path in sorted(pending):
            if all(src.get((path, c.name)) in avail for c in atoms[path].interface.inputs):
                fired.append(path)
                avail.update((path, c.name) for c in atoms[path].interface.outputs)
                pending.discard(path)
                progress = True
    return fired


def _network(spec: ComponentSpec) -> Network:
    """The spec's network. A composite's is spliced once from its
    subcomponents' networks and kept on the spec; an atom's refers to the
    atom, so it is built afresh rather than kept in a reference cycle."""
    if isinstance(spec, AutomatonSpec):
        return Network([("", spec)], {("", c.name): (None, c.name) for c in spec.interface.inputs},
                       {c.name: ("", c.name) for c in spec.interface.outputs},
                       spec.interface.inputs)
    net = spec.__dict__.get("_network")
    if net is None:
        net = spec.__dict__["_network"] = _splice(spec)
    return net


def _splice(spec: CompositeSpec) -> Network:
    """A composite's network: its subcomponents' networks under their
    instance names, each wire followed through pass-through outputs (those
    a subcomponent wires from one of its inputs) to the producer behind.

    Raises SimulationError, in the order a top-down flattening meets them,
    for a wire from a boundary channel that is not an input or, in a
    subcomponent, that is not wired here, and for a loop of wires through
    pass-through outputs.
    """
    _check_fed(spec, spec.interface.input_names())
    wires = {(conn.consumer.component, conn.consumer.channel): conn.producer
             for conn in spec.wiring}
    nets = {}
    for name, sub in spec.subcomponents:
        if isinstance(sub, CompositeSpec):
            _check_fed(sub, {chan for to, chan in wires if to == name})
        nets[name] = _network(sub)

    def source(sub: str | None, chan: str) -> Optional[tuple[str | None, str]]:
        """The producer behind the wire into `sub`.`chan`."""
        passed: list[Endpoint] = []  # pass-through outputs followed so far
        chans: list[str] = []  # each one and the input it passes on
        while (ep := wires.get((sub, chan))) is not None:
            if ep.component is None:
                return None, ep.channel
            net = nets.get(ep.component)
            producer = net.out_src.get(ep.channel) if net else None
            if producer is None or producer[0] is not None:
                return producer and (_join(ep.component, producer[0]), producer[1])
            if ep in passed:
                loop = chans[2 * passed.index(ep):][::-1]
                raise SimulationError(f"wiring loop in {spec.name!r} through pass-through "
                                      f"composites: {' -> '.join(loop + loop[:1])}")
            passed.append(ep)
            sub, chan = ep.component, producer[1]
            chans += [str(ep), f"{sub}.{chan}"]
        return None

    for consumer in wires:  # so that a loop no atom reads is found too
        source(*consumer)
    atoms, src = [], {}
    for name, net in nets.items():
        atoms += [(_join(name, p), atom) for p, atom in net.atoms]
        for (p, chan), producer in net.src.items():
            if producer is not None:
                producer = (source(name, producer[1]) if producer[0] is None
                            else (_join(name, producer[0]), producer[1]))
            src[(_join(name, p), chan)] = producer
    out_src = {c.name: source(None, c.name) for c in spec.interface.outputs}
    return Network(atoms, src, out_src, spec.interface.inputs)


def _check_fed(spec: CompositeSpec, fed: Container[str]) -> None:
    """Raise SimulationError at the first wire of `spec` from a boundary
    channel outside `fed`."""
    for conn in spec.wiring:
        if conn.producer.component is None and conn.producer.channel not in fed:
            raise SimulationError(f"{spec.name}: {conn.producer} is not a composite input")


def _join(name: str, path: str) -> str:
    return f"{name}/{path}" if path else name


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
    try:
        net = _network(spec)
    except StreamcheckError as e:
        return [str(e)]
    cycle = _zero_delay_cycle(net)
    return ["zero-delay cycle: " + " ; ".join(cycle)] if cycle else []


def spec_problems(spec: ComponentSpec) -> tuple[str, ...]:
    """The spec's own problems: `validate_automaton` of an atom,
    `compose_check` of a composite (its subcomponents are checked on their
    own). Found once and kept on the spec, as the loader found them."""
    found = spec.__dict__.get("_problems")
    if found is None:
        found = spec.__dict__["_problems"] = tuple(
            validate_automaton(spec) if isinstance(spec, AutomatonSpec) else compose_check(spec))
    return found


def _zero_delay_cycle(net: Network) -> list[str]:
    """The wires of a zero-delay cycle among the weak atoms, or [].

    Every weak atom on such a cycle is stuck, and so is every one behind it
    or behind an unconnected input. Scanning the stuck atoms again, with
    every producer outside them taken as having a value, leaves those on or
    behind a cycle; each of them reads another, so following such inputs
    back from any of them closes a cycle.
    """
    atoms, src, pending = dict(net.atoms), net.src, set(net.stuck)
    avail = {src.get((p, c.name)) for p in pending for c in atoms[p].interface.inputs}
    _fire(atoms, pending, src, {s for s in avail if s is None or s[0] not in pending})
    if not pending:
        return []
    wires: dict[str, str] = {}  # atom -> a wire into it from another left pending
    at = min(pending)
    while at not in wires:
        chan, (producer, out) = next((c.name, s) for c in atoms[at].interface.inputs
                                     if (s := src.get((at, c.name))) and s[0] in pending)
        wires[at] = f"{producer}.{out} -> {at}.{chan}"
        at = producer
    back = list(wires.values())[list(wires).index(at):]
    return back[::-1]


def __getattr__(name: str):
    """`run` and `check_causality` as the very objects of `simulator`,
    imported on the first read of either name, not by a model load. The
    benchmark's tracer (`bench/spans.py`) still looks both up here."""
    if name in ("run", "check_causality"):
        from . import simulator
        return getattr(simulator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
