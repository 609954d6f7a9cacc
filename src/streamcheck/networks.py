"""The flat network of a component: its atomic instances with the wiring
resolved through every level, and the order in which its weak atoms fire.

A network is built in one walk down the component's tree, from the wires
that the load's summaries (`components._summarize`) have already followed,
and only for a component that runs, whose causality is checked, or whose
zero-delay cycle a load error names. No composite nested in it gets one.
A load does not import this module.
"""

from __future__ import annotations

from typing import Mapping

from .components import STRICT, AutomatonSpec, ComponentSpec, CompositeSpec, _join, _summary
from .errors import SimulationError
from .streams import Channel


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


def network(spec: ComponentSpec) -> Network:
    """The spec's network. A composite's is built on first use and kept on
    the spec; an atom's refers to the atom, so it is built afresh rather
    than kept in a reference cycle. Raises SimulationError for a composite
    whose wiring leaves it without one."""
    if isinstance(spec, AutomatonSpec):
        return Network([("", spec)], {("", c.name): (None, c.name) for c in spec.interface.inputs},
                       {c.name: ("", c.name) for c in spec.interface.outputs},
                       spec.interface.inputs)
    net = spec.__dict__.get("_network")
    if net is None:
        error = _summary(spec).error
        if error is not None:
            raise SimulationError(error)
        net = spec.__dict__["_network"] = flatten(spec)
    return net


def flatten(spec: CompositeSpec) -> Network:
    """A composite's network, in one walk down its tree that resolves each
    atom input through the wires that its summaries resolved. The spec's
    summary must have no error."""
    atoms: list[tuple[str, AutomatonSpec]] = []
    src: dict = {}

    def place(spec: CompositeSpec, prefix: str, outer) -> None:
        """Add the atoms under `spec`, at `prefix`; `outer` gives the
        producer behind each of its inputs."""
        sources = _summary(spec).sources

        def producer(name: str, chan: str):
            found = sources.get((name, chan))
            if found is None:
                return None
            return outer(found[1]) if found[0] is None else (_join(prefix, found[0]), found[1])

        for name, sub in dict(spec.subcomponents).items():
            path = _join(prefix, name)
            if isinstance(sub, AutomatonSpec):
                atoms.append((path, sub))
                for c in sub.interface.inputs:
                    src[(path, c.name)] = producer(name, c.name)
            else:
                place(sub, path, lambda chan, name=name: producer(name, chan))

    place(spec, "", lambda chan: (None, chan))
    sources = _summary(spec).sources
    return Network(atoms, src, {c.name: sources.get((None, c.name)) for c in spec.interface.outputs},
                   spec.interface.inputs)


def zero_delay_cycle(net: Network) -> list[str]:
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
