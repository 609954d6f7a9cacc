"""The network builder and structural check that streamcheck shipped before
it checked each composite against its subcomponents' summaries, kept as the
reference for differential tests of `components`.

Each composite's network is spliced from its subcomponents' networks, level
by level, and its weak atoms are scheduled by the readiness scan `_fire`,
which scans every waiting atom again on each pass. `compose_check` checks a
composite's own wiring, then splices its network and searches it for a
zero-delay cycle. Nothing is kept on the specs.
"""

from __future__ import annotations

from typing import Container, Mapping, Optional

from streamcheck.components import (STRICT, AutomatonSpec, ComponentSpec, CompositeSpec,
                                    Endpoint)
from streamcheck.errors import SimulationError, StreamcheckError
from streamcheck.streams import Channel


class Network:
    """A component as a network of atomic instances with its wiring resolved,
    as `networks.Network` lays it out."""

    def __init__(self, atoms, src: dict, out_src: dict, inputs: tuple[Channel, ...]):
        self.atoms, self.src, self.out_src = atoms, src, out_src
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


def network(spec: ComponentSpec) -> Network:
    """The spec's network, spliced afresh from its subcomponents' networks."""
    if isinstance(spec, AutomatonSpec):
        return Network([("", spec)], {("", c.name): (None, c.name) for c in spec.interface.inputs},
                       {c.name: ("", c.name) for c in spec.interface.outputs},
                       spec.interface.inputs)
    return _splice(spec)


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
        nets[name] = network(sub)

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
        net = network(spec)
    except StreamcheckError as e:
        return [str(e)]
    cycle = _zero_delay_cycle(net)
    return ["zero-delay cycle: " + " ; ".join(cycle)] if cycle else []


def _zero_delay_cycle(net: Network) -> list[str]:
    """The wires of a zero-delay cycle among the weak atoms, or [] (see
    `networks.zero_delay_cycle`)."""
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
