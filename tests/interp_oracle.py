"""The interpreting simulator that streamcheck shipped before it compiled
models, kept as the reference for differential tests of `components.run`.

Every tick it re-evaluates each guard and assignment with `exprs.evaluate`,
rebuilds the composite schedule by a fixpoint scan over the pending weak
atoms in path order, and checks every value that crosses a wire.
"""

from __future__ import annotations

from typing import Any, Mapping

from streamcheck.components import (AutomatonSpec, ComponentSpec, CompositeSpec, Endpoint, STRICT,
                                    enum_label_env)
from streamcheck.simulator import AutomatonState, CompositeState
from streamcheck.errors import (EvaluationError, NondeterminismError, SimulationError,
                                StreamcheckError, StuckStateError)
from streamcheck.exprs import evaluate
from streamcheck.histories import ChannelHistory, TimedStream, validate_history


class _AutomatonRt:
    def __init__(self, spec: AutomatonSpec, check_determinism: bool = False):
        self.spec = spec
        self.check_determinism = check_determinism
        self.labels = enum_label_env(spec)
        self.out_types = {c.name: c.ctype for c in spec.interface.outputs}
        self.var_types = {v.name: v.dtype for v in spec.variables}

    @property
    def strict(self) -> bool:
        return self.spec.causality == STRICT

    def initial(self) -> AutomatonState:
        spec = self.spec
        # initial values as DataType.check returns them: a real is a float
        pending = tuple((c.name, c.ctype.check(spec.output_init[c.name]))
                        for c in spec.interface.outputs if c.name in spec.output_init)
        return AutomatonState(spec.initial,
                              tuple((v.name, v.dtype.check(v.init)) for v in spec.variables),
                              pending)

    def peek(self, st: AutomatonState) -> dict[str, Any]:
        return dict(st.pending)

    def step(self, st: AutomatonState, inputs: Mapping[str, Any]) -> tuple[AutomatonState, dict[str, Any]]:
        spec = self.spec
        checked = dict(inputs)  # each input as its type's check returns it
        for c in spec.interface.inputs:
            if c.name not in inputs:
                raise SimulationError(f"{spec.name}: input {c.name!r} not provided")
            checked[c.name] = c.ctype.check(inputs[c.name])
        latched = dict(st.pending)
        env = {**self.labels, **latched, **dict(st.variables), **checked}
        fired = None
        for t in spec.transitions:
            if t.source != st.state:
                continue
            try:
                enabled = evaluate(t.guard, env)
            except EvaluationError as e:
                raise EvaluationError(
                    f"{spec.name}: guard of {t.label or t.source + '->' + t.target}: {e}") from e
            if not isinstance(enabled, bool):
                raise EvaluationError(
                    f"{spec.name}: guard of {t.label or t.source + '->' + t.target} is not boolean")
            if enabled:
                if fired is None:
                    fired = t
                    if not self.check_determinism:
                        break
                else:
                    raise NondeterminismError(
                        f"{spec.name}: transitions {fired.label or fired.target!r} and "
                        f"{t.label or t.target!r} both enabled in state {st.state!r}")
        computed = dict(latched)
        variables = dict(st.variables)
        if fired is None:
            if spec.total:
                raise StuckStateError(spec.name, st.state)
            new_state = st.state
        else:
            new_state = fired.target
            for o, e in fired.outputs:
                computed[o] = self.out_types[o].check(evaluate(e, env))
            for v, e in fired.updates:
                variables[v] = self.var_types[v].check(evaluate(e, env))
        if self.strict:
            emitted = latched
        else:
            emitted = computed
        missing = [c.name for c in spec.interface.outputs if c.name not in emitted]
        if missing:
            raise SimulationError(f"{spec.name}: outputs never assigned: {missing}")
        new_st = AutomatonState(new_state, tuple(sorted(variables.items())),
                                tuple(sorted(computed.items())))
        return new_st, dict(emitted)


_BOUNDARY = None


class _FlatModel:
    """A composite flattened to atomic instances plus resolved wiring."""

    def __init__(self, spec: CompositeSpec, check_determinism: bool = False):
        self.spec = spec
        self.atoms: dict[str, _AutomatonRt] = {}
        self._alias: dict[tuple[str | None, str], tuple[str | None, str]] = {}
        self._flatten(spec, None, {c.name: (_BOUNDARY, c.name) for c in spec.interface.inputs})
        self.check_determinism = check_determinism
        for rt in self.atoms.values():
            rt.check_determinism = check_determinism
        # resolve every consumer to its terminal producer up front
        self.src: dict[tuple[str, str], tuple[str | None, str]] = {}
        for path, rt in self.atoms.items():
            for c in rt.spec.interface.inputs:
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
            self.atoms[path] = _AutomatonRt(spec)
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

    def initial(self) -> CompositeState:
        return CompositeState(tuple((p, rt.initial()) for p, rt in sorted(self.atoms.items())))

    def step(self, st: CompositeState, inputs: Mapping[str, Any]) -> tuple[CompositeState, dict[str, Any]]:
        for c in self.spec.interface.inputs:
            if c.name not in inputs:
                raise SimulationError(f"{self.spec.name}: input {c.name!r} not provided")
        states = dict(st.substates)
        values: dict[tuple[str | None, str], Any] = {
            (_BOUNDARY, c.name): c.ctype.check(inputs[c.name]) for c in self.spec.interface.inputs}
        strict_atoms = [p for p, rt in self.atoms.items() if rt.strict]
        weak_atoms = [p for p, rt in self.atoms.items() if not rt.strict]
        for p in strict_atoms:
            for chan, v in self.atoms[p].peek(states[p]).items():
                values[(p, chan)] = v
        pending = set(weak_atoms)
        new_states: dict[str, AutomatonState] = {}

        def gather(path: str) -> dict[str, Any] | None:
            ins = {}
            for c in self.atoms[path].spec.interface.inputs:
                src = self.src.get((path, c.name))
                if src is None or src not in values:
                    return None
                ins[c.name] = values[src]
            return ins

        progress = True
        while pending and progress:
            progress = False
            for p in sorted(pending):
                ins = gather(p)
                if ins is None:
                    continue
                new_states[p], outs = self.atoms[p].step(states[p], ins)
                for chan, v in outs.items():
                    values[(p, chan)] = v
                pending.discard(p)
                progress = True
        if pending:
            raise SimulationError(
                f"{self.spec.name}: zero-delay dependency cycle or unconnected input "
                f"involving {sorted(pending)}")
        for p in strict_atoms:
            ins = gather(p)
            if ins is None:
                missing = [c.name for c in self.atoms[p].spec.interface.inputs
                           if self.src.get((p, c.name)) not in values]
                raise SimulationError(f"{self.spec.name}: unconnected inputs {missing} of {p!r}")
            new_states[p], _ = self.atoms[p].step(states[p], ins)
        outputs = {}
        for c in self.spec.interface.outputs:
            src = self.out_src.get(c.name)
            if src is None or src not in values:
                raise SimulationError(f"{self.spec.name}: output {c.name!r} has no producer")
            outputs[c.name] = c.ctype.check(values[src])
        return CompositeState(tuple(sorted(new_states.items()))), outputs


def _runtime(spec, check_determinism=False):
    if isinstance(spec, AutomatonSpec):
        return _AutomatonRt(spec, check_determinism)
    return _FlatModel(spec, check_determinism)


def run_interpreted(spec: ComponentSpec, input_history: ChannelHistory, n: int | None = None,
        check_determinism: bool = False) -> ChannelHistory:
    """Iterate `step` from the initial state; returns the output history."""
    if n is None:
        n = input_history.horizon
    violations = validate_history(input_history, list(spec.interface.inputs))
    if violations:
        raise SimulationError("invalid input history: " + "; ".join(map(str, violations)))
    if input_history.horizon < n:
        raise SimulationError(f"input horizon {input_history.horizon} < requested ticks {n}")
    rt = _runtime(spec, check_determinism)
    st = rt.initial()
    columns: dict[str, list[Any]] = {c.name: [] for c in spec.interface.outputs}
    for t in range(1, n + 1):
        try:
            st, outs = rt.step(st, input_history.tick(t))
        except StreamcheckError as e:
            raise SimulationError(str(e), tick=t) from e
        for name, col in columns.items():
            col.append(outs[name])
    return ChannelHistory({c.name: TimedStream.of(c.ctype, columns[c.name])
                           for c in spec.interface.outputs}, n)
