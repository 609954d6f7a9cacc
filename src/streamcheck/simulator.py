"""Components compiled into tick loops: the simulator, and what runs on it.

`initial_state`, `step` and `run` run a component, `run_tables` a suite's
tables, and `check_causality` decides strict causality from the wiring or
by a search over the compiled successor function. Imported on the first
run of a component or with the suite judges (`testcases`, `abstraction`),
not when models are loaded.
Only well-formed specs compile (`_require_well_formed`), so the
code generated here assumes what the structural checks establish: every
name resolves, every input is wired, no weak atoms form a zero-delay
cycle, wires join channels of one type and initial values lie in their
types.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence, Union

from .codegen import NUMERIC, Code, CodeGen, NameResolver, slot, unpack
from .components import (AutomatonSpec, ComponentSpec, CompositeSpec, Network, STRICT,
                         SyntacticInterface, Transition, _network, enum_label_env, spec_problems)
from .errors import (CapsExceededError, NondeterminismError, SimulationError, StreamcheckError,
                     StuckStateError)
from .exprs import Lit, free_names
from .histories import Block, ChannelHistory, Table, TimedStream, validate_history
from .records import Record
from .streams import BOOL_KIND, DataType, ENUM_KIND, INT_KIND, REAL_KIND


# ---------------------------------------------------------------------------
# Runtime state


class AutomatonState(Record):
    """An atom's configuration: its control state, its variables and the
    outputs it computed at the previous tick."""

    _fields = ("state", "variables", "pending")

    def __init__(self, state: str, variables: tuple[tuple[str, Any], ...],
                 pending: tuple[tuple[str, Any], ...]):
        self.state, self.variables, self.pending = state, variables, pending


class CompositeState(Record):
    """A composite's configuration: the state of each atom, by path."""

    _fields = ("substates",)

    def __init__(self, substates: tuple[tuple[str, AutomatonState], ...]):
        self.substates = substates


ComponentState = Union[AutomatonState, CompositeState]


# ---------------------------------------------------------------------------
# Compiled components

# A component compiles, on its first run, into one Python function that
# runs any number of ticks. Every atom's control state, variables and
# latched outputs live in local variables ("slots"); expressions read them
# directly. A composite's atoms are inlined in the schedule its network
# (`components.Network`) fixed when it was loaded: weak atoms in the order
# in which each first has all its inputs, then strict atoms in declaration
# order. That is the order in which an interpreter that re-scans every tick
# fires them, so the first error of a tick is the same. The simulator is
# cached on the spec and holds no reference back to it.

_UNSET = object()  # a latched output that was never assigned


def _stuck(component: str, state: str) -> None:
    raise StuckStateError(component, state)


def _missing(component: str, latched: tuple[tuple[str, Any], ...]) -> None:
    missing = [name for name, value in latched if value is _UNSET]
    if missing:
        raise SimulationError(f"{component}: outputs never assigned: {missing}")


def _nondet(component: str, first: str, second: str, state: str) -> None:
    raise NondeterminismError(f"{component}: transitions {first!r} and {second!r} "
                              f"both enabled in state {state!r}")


def _conform_column(dtype: DataType, values: tuple) -> tuple[Any, int]:
    """The values as DataType.check returns them, up to the first invalid one,
    and that one's index (len(values) when all are valid)."""
    checked = []
    for v in values:
        if not dtype.contains(v):
            break
        checked.append(dtype.check(v))
    return checked, len(checked)


class _AtomSlots:
    """Local-variable names of one atom's state in the generated code."""

    def __init__(self, i: int, path: str, spec: AutomatonSpec):
        self.path = path
        self.spec = spec
        self.state = f"s{i}"
        self.vars = {v.name: f"v{i}_{k}" for k, v in enumerate(spec.variables)}
        self.outs = {c.name: f"p{i}_{k}" for k, c in enumerate(spec.interface.outputs)}

    def names(self) -> list[str]:
        return [self.state, *self.vars.values(), *self.outs.values()]

    def initial(self) -> list[Any]:
        """Initial values as DataType.check returns them: a real is a float."""
        spec, init = self.spec, self.spec.output_init
        return [spec.initial, *(v.dtype.check(v.init) for v in spec.variables),
                *(c.ctype.check(init[c.name]) if c.name in init else _UNSET
                  for c in spec.interface.outputs)]


class _Compiler:
    """Generates the source of one network's tick loop."""

    def __init__(self, interface: SyntacticInterface, net: Network, check_determinism: bool):
        self.gen = CodeGen()
        self.gen.ns.update(_U=_UNSET, _stuck=_stuck, _missing=_missing, _nondet=_nondet,
                           at_tick=at_tick)
        self.check_determinism = check_determinism
        self.src = net.src
        self.atoms = [_AtomSlots(i, path, spec) for i, (path, spec) in enumerate(net.atoms)]
        # producer endpoint -> the local that holds its value
        self.values: dict[tuple[str | None, str], str] = {
            (None, c.name): f"x{k}" for k, c in enumerate(interface.inputs)}
        for a in self.atoms:
            for c in a.spec.interface.outputs:
                self.values[(a.path, c.name)] = a.outs[c.name]
        self.lines = self._tick(interface, net)

    def _tick(self, interface: SyntacticInterface, net: Network) -> list[str]:
        by_path = {a.path: a for a in self.atoms}
        lines = [line for path in net.weak for line in self._atom(by_path[path], {})]
        # strict atoms emit what they latched, so outputs are read before they step
        lines += [f"o{k} = {self.values[net.out_src[c.name]]}"
                  for k, c in enumerate(interface.outputs)]
        strict = [a for a in self.atoms if a.spec.causality == STRICT]
        snapshots: dict[tuple[str, str], str] = {}
        for j, a in enumerate(strict):
            for c in a.spec.interface.inputs:
                producer = self.src[(a.path, c.name)]
                if any(producer[0] == b.path for b in strict[:j]):
                    snapshots[producer] = "l_" + self.values[producer]
        lines += [f"{snap} = {self.values[producer]}" for producer, snap in snapshots.items()]
        for a in strict:
            lines += self._atom(a, snapshots)
        return lines

    def _atom(self, a: _AtomSlots, snapshots: Mapping[tuple[str, str], str]) -> list[str]:
        """One atom's step: transition choice, actions, check of unset outputs."""
        spec = a.spec
        lines: list[str] = []
        reads: set[str] = set()
        labels = enum_label_env(spec)
        unset = [c.name for c in spec.interface.outputs if c.name not in spec.output_init]
        names = {c.name: slot(a.outs[c.name], c.ctype, True) for c in spec.interface.outputs}
        names.update((v.name, slot(a.vars[v.name], v.dtype, True)) for v in spec.variables)
        for c in spec.interface.inputs:
            producer = self.src[(a.path, c.name)]
            names[c.name] = slot(snapshots.get(producer, self.values[producer]), c.ctype, True)

        def name(ident: str, ctx: str) -> Code:
            if ident in labels:
                return Code(repr(ident), "str")
            code = names[ident]
            reads.add(code.src)
            if ident in unset:  # no init: an assignment reads it before any set it
                return code._replace(src=f"({code.src} if {code.src} is not _U "
                                         f"else _unknown({ident!r}))", depth=2)
            return code

        by_source: dict[str, list[Transition]] = {}
        for t in spec.transitions:
            by_source.setdefault(t.source, []).append(t)
        idle = [f"_stuck({spec.name!r}, {a.state})"] if spec.total else ["pass"]
        for j, (source, ts) in enumerate(by_source.items()):
            lines.append(f"{'el' if j else ''}if {a.state} == {source!r}:")
            lines += _indent(self._choose(a, ts, name, reads, idle))
        if spec.total:
            lines += ["else:", *_indent(idle)] if by_source else idle
        if unset:
            latched = ", ".join(f"({o!r}, {a.outs[o]})" for o in unset)
            lines += [f"if {' or '.join(f'{a.outs[o]} is _U' for o in unset)}:",
                      f"    _missing({spec.name!r}, ({latched},))"]
        return lines

    def _choose(self, a: _AtomSlots, ts: list[Transition], name: NameResolver,
                reads: set[str], idle: list[str]) -> list[str]:
        """Fire the first enabled transition of `ts`, or stay idle."""
        spec = a.spec
        guards = []
        for t in ts:
            label = t.label or t.source + "->" + t.target
            code = self.gen.expr(t.guard, name, f"{spec.name}: guard of {label}: ")
            if code.kind == "bool":
                guards.append(code.src)
            else:
                guards.append(f"_guard({code.src}, {f'{spec.name}: guard of {label} is not boolean'!r})")
        actions = [self._actions(a, t, name, reads) for t in ts]
        lines: list[str] = []
        if not self.check_determinism:
            for j, (guard, act) in enumerate(zip(guards, actions)):
                if guard == "True":  # always enabled: later transitions never fire
                    act = act or ["pass"]
                    return lines + (["else:", *_indent(act)] if j else act)
                lines += [f"{'el' if j else ''}if {guard}:", *_indent(act or ["pass"])]
            return lines + (["else:", *_indent(idle)] if idle != ["pass"] else [])
        fired = self.gen.const(tuple(t.label or t.target for t in ts))
        lines.append("_f = -1")
        for j, (guard, t) in enumerate(zip(guards, ts)):
            lines += [f"if {guard}:",
                      f"    if _f >= 0: _nondet({spec.name!r}, {fired}[_f], "
                      f"{t.label or t.target!r}, {a.state})",
                      f"    _f = {j}"]
        for j, act in enumerate(actions):
            lines += [f"{'el' if j else ''}if _f == {j}:", *_indent(act or ["pass"])]
        return lines + ["else:", *_indent(idle)]

    def _actions(self, a: _AtomSlots, t: Transition, name: NameResolver,
                 reads: set[str]) -> list[str]:
        """Evaluate every assignment in the pre-step state, then commit them."""
        spec = a.spec
        out_types = {c.name: c.ctype for c in spec.interface.outputs}
        var_types = {v.name: v.dtype for v in spec.variables}
        assigns = []  # (slot, code, slots read)
        for target, e, slots, types in ([(o, e, a.outs, out_types) for o, e in t.outputs]
                                        + [(v, e, a.vars, var_types) for v, e in t.updates]):
            reads.clear()
            dtype = types[target]
            if isinstance(e, Lit) and dtype.contains(e.value):
                code = self.gen.const(dtype.check(e.value))
            else:
                code = self._conform(self.gen.expr(e, name), dtype)
            assigns.append((slots[target], code, set(reads)))
        lines, commits = [], []
        for j, (slot, code, _) in enumerate(assigns):
            if any(slot in later_reads for _, _, later_reads in assigns[j + 1:]):
                tmp = f"_n{j}"
                lines.append(f"{tmp} = {code}")
                commits.append(f"{slot} = {tmp}")
            else:
                lines.append(f"{slot} = {code}")
        lines += commits
        if t.target != t.source:
            lines.append(f"{a.state} = {t.target!r}")
        return lines

    def _conform(self, code: Code, dtype: DataType) -> str:
        """`code`'s value as dtype.check returns it; raises TypeMismatchError otherwise."""
        src, kind = code.src, code.kind
        if dtype.kind == BOOL_KIND and kind == "bool":
            return src
        if dtype.kind == REAL_KIND and kind in NUMERIC:
            return src if kind == "real" else f"float({src})"
        if dtype.kind == INT_KIND and kind == "int" and dtype.lo <= code.bounds[0] \
                and code.bounds[1] <= dtype.hi:
            return src
        if dtype.kind == ENUM_KIND and kind == "str" and src in map(repr, dtype.labels):
            return src  # a label of this type, resolved statically
        t = self.gen.temp()
        check = self.gen.const(dtype.check)
        if dtype.kind == INT_KIND and kind == "int":
            return f"{t} if {dtype.lo} <= ({t} := {src}) <= {dtype.hi} else {check}({t})"
        if dtype.kind == ENUM_KIND and kind == "str":
            labels = self.gen.const(frozenset(dtype.labels))
            return f"{t} if ({t} := {src}) in {labels} else {check}({t})"
        return f"{check}({src})"

    def _slots(self) -> list[str]:
        return [n for a in self.atoms for n in a.names()]

    def run_loop(self, inputs: int, outputs: int) -> list[str]:
        """The body of fn(S, cases, cols): run each case, an iterable of rows
        of input values, from the configuration `S`, one tick per row,
        appending outputs to cols. It returns a list of (index of the
        case, SimulationError at its tick) for each case whose run raises;
        such a case appends no outputs, and its remaining rows are consumed,
        so that cases cut from one iterator of rows keep their rows. The
        final state of the last case is left in S."""
        slots = self._slots()
        restore = [f"{', '.join(slots)}, = S"] if slots else []
        body = restore + [f"a{k} = cols[{k}].append" for k in range(outputs)]
        body += ["failed = []", "for c, rows in enumerate(cases):", *_indent(restore + [
            "t = 0", "try:", f"    for t, {unpack('x', inputs)} in enumerate(rows, 1):",
            *_indent(_indent(self.lines + [f"a{k}(o{k})" for k in range(outputs)] or ["pass"])),
            "except Exception as e:", "    failed.append((c, at_tick(e, t)))",
            "    for col in cols:", "        del col[len(col) - t + 1:]",
            "    for _ in rows:", "        pass"])]
        if slots:
            body.append(f"S[:] = ({', '.join(slots)},)")
        return body + ["return failed"]

    def successors(self, inputs: int, outputs: int) -> list[str]:
        """The body of succ(slots, rows, app): one tick from the configuration
        `slots` on each row of input values, in order, calling app((outputs,
        next slots)) for each; it returns the exception of the first row whose
        tick fails, or None."""
        slots = self._slots()
        restore = [f"{', '.join(slots)}, = S"] if slots else []
        outs, nxt = "".join(f"o{k}, " for k in range(outputs)), "".join(f"{n}, " for n in slots)
        tick = restore + self.lines + [f"app((({outs}), ({nxt})))"]
        return ["try:", f"    for {unpack('x', inputs)} in rows:", *_indent(_indent(tick)),
                "except Exception as e:", "    return e", "return None"]


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


class Simulator:
    """A component compiled into a tick loop, plus its initial state."""

    def __init__(self, spec: ComponentSpec, check_determinism: bool):
        self.name = spec.name
        self.composite = isinstance(spec, CompositeSpec)
        self.inputs = spec.interface.inputs
        self.input_names = tuple(c.name for c in self.inputs)
        self.outputs = spec.interface.outputs
        compiler = _Compiler(spec.interface, _network(spec), check_determinism)
        # per atom: path, control states, variable and output types in
        # declaration order, and the outputs latched from the start
        self.layout = [(a.path, a.spec.states, {v.name: v.dtype for v in a.spec.variables},
                        {c.name: c.ctype for c in a.spec.interface.outputs},
                        [o for o in a.outs if o in a.spec.output_init])
                       for a in compiler.atoms]
        self.initial_slots = tuple(v for a in compiler.atoms for v in a.initial())
        # each function is compiled on first use: runs need only the run
        # loop, the causality search and `step` only the successor function
        self._gen = compiler.gen
        self._run_body = compiler.run_loop(len(self.inputs), len(self.outputs))
        self._successor_body = compiler.successors(len(self.inputs), len(self.outputs))

    @cached_property
    def fn(self) -> Callable:
        """fn(slots, cases, columns): the run loop (see `_Compiler.run_loop`)."""
        return self._gen.function("S, cases, cols", self._run_body)

    @cached_property
    def _successors(self) -> Callable:
        return self._gen.function("S, rows, app", self._successor_body)

    def run(self, history: ChannelHistory, n: int) -> ChannelHistory:
        cols, ticks = [], max(n, 0)
        for c in self.inputs:
            # the stream's type is the channel's, which the caller has checked
            stream = history.streams[c.name]
            col = stream.values[:ticks]
            if not stream.conforms():
                col, valid = _conform_column(c.ctype, col)
                ticks = min(ticks, valid)
            cols.append(col)
        out: list[list[Any]] = [[] for _ in self.outputs]
        rows = zip(*cols) if cols else itertools.repeat((), ticks)
        failed = self.fn(list(self.initial_slots), (rows,), out)
        if failed:
            raise failed[0][1]
        if ticks < max(n, 0):
            # the first tick with an invalid input value fails at its input check
            for c in self.inputs:
                try:
                    c.ctype.check(history.streams[c.name].values[ticks])
                except StreamcheckError as e:
                    raise SimulationError(str(e), tick=ticks + 1) from e
        return ChannelHistory({c.name: TimedStream.conforming(c.ctype, tuple(col))
                               for c, col in zip(self.outputs, out)}, n)

    def initial(self) -> ComponentState:
        return self._state(self.initial_slots)

    def step(self, st: ComponentState, inputs: Mapping[str, Any]) -> tuple[ComponentState, dict[str, Any]]:
        if not isinstance(inputs, Mapping):
            raise SimulationError(f"{self.name}: inputs must map channel names to values")
        for c in self.inputs:
            if c.name not in inputs:
                raise SimulationError(f"{self.name}: input {c.name!r} not provided")
        row = tuple(c.ctype.check(inputs[c.name]) for c in self.inputs)
        results, error = self.successors(self._slots(st), (row,))
        if error is not None:
            raise error
        out, nxt = results[0]
        return self._state(nxt), {c.name: v for c, v in zip(self.outputs, out)}

    def successors(self, slots: Sequence[Any], rows: Sequence[tuple]
                   ) -> tuple[list[tuple[tuple, tuple]], Exception | None]:
        """One tick from the configuration `slots` on each row of input values
        that conform to their types: (outputs, next configuration) per row, in
        row order, up to the first row whose tick fails, and that failure's
        exception (None when no row fails)."""
        results: list[tuple[tuple, tuple]] = []
        return results, self._successors(slots, rows, results.append)

    def _slots(self, st: ComponentState) -> list[Any]:
        """The slots of a configuration, which the compiled code can trust:
        each atom is in one of its control states, and each variable and
        latched output holds a value of its type, as DataType.check returns it."""
        expected = CompositeState if self.composite else AutomatonState
        if not isinstance(st, expected):
            raise SimulationError(f"{self.name}: expected {expected.__name__}, "
                                  f"got {type(st).__name__}")
        if self.composite:
            atoms = _pairs(st.substates, f"{self.name}: substates")
        else:
            atoms = {self.layout[0][0]: st}
        paths = {entry[0] for entry in self.layout}
        unknown = [path for path in atoms if path not in paths]
        if unknown:
            raise SimulationError(f"{self.name}: no atoms at paths {unknown}")
        slots: list[Any] = []
        for path, states, var_types, out_types, latched in self.layout:
            where = f"{self.name}: atom {path!r}" if self.composite else self.name
            atom = atoms.get(path)
            if not isinstance(atom, AutomatonState):
                raise SimulationError(f"{where}: expected AutomatonState, "
                                      f"got {type(atom).__name__}")
            if atom.state not in states:
                raise SimulationError(f"{where}: {atom.state!r} is not a control state")
            variables = _checked(_pairs(atom.variables, f"{where}: variables"), var_types,
                                 f"{where}: variable")
            pending = _checked(_pairs(atom.pending, f"{where}: pending outputs"), out_types,
                               f"{where}: output")
            for what, names, given in (("variables", var_types, variables),
                                       ("latched outputs", latched, pending)):
                missing = [n for n in names if n not in given]
                if missing:
                    raise SimulationError(f"{self.name}: state of {path!r} lacks {what} {missing}")
            slots.append(atom.state)
            slots += [variables[v] for v in var_types]
            slots += [pending.get(o, _UNSET) for o in out_types]
        return slots

    def _state(self, slots: Sequence[Any]) -> ComponentState:
        """Slots as states; variables and outputs in declaration order."""
        states, i = [], 0
        for path, _, var_names, out_names, _ in self.layout:
            nv, no = len(var_names), len(out_names)
            variables = tuple(zip(var_names, slots[i + 1:i + 1 + nv]))
            pending = tuple((o, v) for o, v in zip(out_names, slots[i + 1 + nv:i + 1 + nv + no])
                            if v is not _UNSET)
            states.append((path, AutomatonState(slots[i], variables, pending)))
            i += 1 + nv + no
        return CompositeState(tuple(states)) if self.composite else states[0][1]


def _pairs(entries: Any, what: str) -> dict:
    try:
        return dict(entries)
    except (TypeError, ValueError):
        raise SimulationError(f"{what} are not (name, value) pairs") from None


def _checked(values: dict, types: Mapping[str, DataType], what: str) -> dict[str, Any]:
    """The values as DataType.check returns them, each of a declared name."""
    checked = {}
    for name, value in values.items():
        dtype = types.get(name)
        if dtype is None:
            raise SimulationError(f"{what} {name!r} is not declared")
        try:
            checked[name] = dtype.check(value)
        except StreamcheckError as e:
            raise SimulationError(f"{what} {name!r}: {e}") from e
    return checked


def table_runs(tables: Sequence[Table]) -> list[tuple[Block, int, int, int]]:
    """The tables in maximal runs of tables that follow one another in a
    block: (block, first row, end row, number of tables) of each run."""
    found: list[tuple[Block, int, int, int]] = []
    block, start, stop, count = None, 0, 0, 0
    for table in tables:
        if table.block is block and table.start == stop:
            stop = table.stop
            count += 1
        else:
            if count:
                found.append((block, start, stop, count))
            block, start, stop, count = table.block, table.start, table.stop, 1
    if count:
        found.append((block, start, stop, count))
    return found


def run_tables(spec: ComponentSpec, tables: Sequence[Table], out: Sequence[list],
               check_determinism: bool = False) -> list[tuple[int, StreamcheckError]]:
    """Run each table's rows from the initial state, one table after
    another, appending each output to its list in `out`, in interface
    order. Returns (index, error) of each table whose run raises, in order;
    such a table appends nothing.

    A table that the vector reader built is well formed by construction: it
    holds one column per input, of the input's type, whose values conform.
    Such tables run with no check, in one call of the compiled loop: a run
    of tables that follow one another in a block is one zip over its rows,
    cut per table with islice. A table made from a history built in Python
    is validated and run as `run` does it. A spec that does not compile
    fails every table with its error.
    """
    failed: list[tuple[int, StreamcheckError]] = []
    k = 0
    while k < len(tables):
        history = tables[k].block.history
        if history is not None:
            try:
                result = run(spec, history, check_determinism=check_determinism)
            except StreamcheckError as e:
                failed.append((k, e))
            else:
                for col, c in zip(out, spec.interface.outputs):
                    col.extend(result.streams[c.name].values)
            k += 1
            continue
        j = k + 1
        while j < len(tables) and tables[j].block.history is None:
            j += 1
        try:
            sim = _simulator(spec, check_determinism)
            fn = sim.fn
        except StreamcheckError as e:
            failed += [(i, e) for i in range(k, j)]
        else:
            cases = _rows(tables[k:j], sim.input_names)
            failed += [(k + c, e) for c, e in fn(list(sim.initial_slots), cases, out)]
        k = j
    return failed


def _rows(tables: Sequence[Table], names: tuple[str, ...]) -> list[Iterator[tuple]]:
    """The rows of each table, as tuples of the named channels' values."""
    cases: list[Iterator[tuple]] = []
    for block, start, stop, count in table_runs(tables):
        columns = block.order(names)
        if not columns:
            rows: Iterator[tuple] = itertools.repeat((), stop - start)
        elif start or stop < len(columns[0]):
            rows = zip(*[col[start:stop] for col in columns])
        else:
            rows = zip(*columns)
        cases += [itertools.islice(rows, t.stop - t.start)
                  for t in tables[len(cases):len(cases) + count]]
    return cases


def at_tick(e: Exception, tick: int) -> SimulationError:
    """An exception of a tick's step, as the SimulationError that reports it."""
    message = str(e) if isinstance(e, StreamcheckError) else f"{type(e).__name__}: {e}"
    error = SimulationError(message, tick=tick)
    error.__cause__ = e
    return error


# ---------------------------------------------------------------------------
# Running a component


def _simulator(spec: ComponentSpec, check_determinism: bool = False):
    """The spec's `Simulator`, compiled on first use and kept on the spec.

    Only a well-formed spec compiles (see `_require_well_formed`). The
    simulator refers to no spec, so a spec and its simulator form no
    reference cycle and go away together.
    """
    check_determinism = bool(check_determinism)
    cache = spec.__dict__.setdefault("_simulators", {})
    sim = cache.get(check_determinism)
    if sim is None:
        _require_well_formed(spec)
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


def _require_well_formed(spec: ComponentSpec, sub: bool = False) -> None:
    """Raise SimulationError, with no tick, unless the spec and every
    subcomponent in its tree have no problems. The first ill-formed one,
    subcomponents before the composite that holds them, is reported with
    its problems, a subcomponent under its name."""
    if isinstance(spec, CompositeSpec):
        for _, child in spec.subcomponents:
            _require_well_formed(child, True)
    found = spec_problems(spec)
    if found:
        raise SimulationError((f"component {spec.name!r}: " if sub else "") + "; ".join(found))


# ---------------------------------------------------------------------------
# Causality checking


def same_tick_dependence(spec: ComponentSpec) -> list[tuple[str, str]]:
    """The (input, output) pairs of the spec's boundary channels, sorted,
    where the output at a tick may read the input of that same tick.

    A strict atom emits what it latched, so it cuts every path. An output
    of a weak atom reads the inputs that any guard reads, since the guards
    choose the transition and an unassigned output latches, and those that
    its own assignments read. Every assignment is evaluated in the pre-step
    state, so a variable or an output named in one holds last tick's value
    and adds nothing. The weak atoms are composed in firing order along the
    network's wires. An empty result proves strict causality for every
    input and every horizon. The spec must be well-formed.
    """
    net = _network(spec)
    atoms = dict(net.atoms)
    # producer -> the boundary inputs it passes on in the same tick; a strict
    # atom's output has none and is left out
    behind: dict[tuple[str | None, str], set[str]] = {
        (None, c.name): {c.name} for c in spec.interface.inputs}
    for path in net.weak:
        atom = atoms[path]
        reads = {c.name: behind.get(net.src.get((path, c.name)), set())
                 for c in atom.interface.inputs}
        guarded = set().union(*(free_names(t.guard) for t in atom.transitions))
        assigned: dict[str, set[str]] = {c.name: set(guarded) for c in atom.interface.outputs}
        for t in atom.transitions:
            for o, e in t.outputs:
                assigned[o] |= free_names(e)
        for o, names in assigned.items():
            behind[(path, o)] = set().union(*(reads[n] for n in names if n in reads))
    return sorted((i, o) for o, producer in net.out_src.items() for i in behind.get(producer, ()))


class CausalityCounterexample(Record):
    """Two input histories that agree through `tick` and lead to
    different outputs within the checked prefix."""

    _fields = ("tick", "input_a", "input_b", "output_a", "output_b")

    def __init__(self, tick: int, input_a: ChannelHistory, input_b: ChannelHistory,
                 output_a: ChannelHistory, output_b: ChannelHistory):
        self.tick, self.input_a, self.input_b = tick, input_a, input_b
        self.output_a, self.output_b = output_a, output_b

    def __str__(self) -> str:
        return (f"inputs agree through tick {self.tick} but outputs diverge "
                f"within the checked prefix")


def representative_values(dtype: DataType) -> list[Any]:
    """Two values of a data type (one when it has one), for causality search."""
    if dtype.kind == "bool":
        return [False, True]
    if dtype.kind == "int":
        return [dtype.lo] if dtype.lo == dtype.hi else [dtype.lo, dtype.hi]
    if dtype.kind == "enum":
        return list(dtype.labels[:2])
    return [0.0, 1.0]


DEFAULT_CAUSALITY_BUDGET = 4096
DEFAULT_CAUSALITY_HORIZON = 3


def check_causality(spec: ComponentSpec, budget: int = DEFAULT_CAUSALITY_BUDGET,
                    horizon: int = DEFAULT_CAUSALITY_HORIZON, mode: str | None = None, *,
                    stats: dict | None = None) -> Optional[CausalityCounterexample]:
    """Decide the declared (or given) causality mode; returns None when it
    holds, for every input when proved and otherwise within `horizon` ticks
    of the per-channel value grid.

    A component is a deterministic Mealy machine: its output at tick t+1
    depends only on its configuration after t ticks and on input t+1.
    Weak mode lets outputs depend on inputs of the same tick, which a
    deterministic step function always satisfies, so it returns None at once.
    Strict mode is first decided from the wiring: when no output may read a
    same-tick input (`same_tick_dependence` is empty), strict causality
    holds for every input and every horizon, and nothing is compiled or
    stepped. Otherwise strict causality fails within the horizon exactly
    when some configuration reachable in t <= horizon-1 ticks of grid inputs
    emits different outputs for two grid input rows; the counterexample's
    `tick` is the smallest such t. The search is breadth-first over distinct
    configurations, so it costs (reachable configurations x grid rows)
    steps, not every grid history; one call of the compiled successor
    function steps a configuration on every grid row.

    Only the search has a `budget`, which caps the number of distinct
    configurations explored (exceeding it raises CapsExceededError), and
    only the search steps the component, so only it raises SimulationError,
    with the tick of the failing step. When `stats` is given,
    stats["configurations"] is set to the distinct configurations reached
    (the start included) and stats["steps"] to the steps taken. A strict
    verdict of None also sets stats["proved"]: True for a proof, False when
    the search found no witness, and then stats["dependent"] lists the
    dependent (input, output) pairs.
    """
    if mode is None:
        mode = spec.causality if isinstance(spec, AutomatonSpec) else STRICT
    stats = {} if stats is None else stats
    stats.update(configurations=0, steps=0)
    _require_well_formed(spec)
    if mode != STRICT:
        return None
    dependent = same_tick_dependence(spec)
    if not dependent:
        stats["proved"] = True
        return None
    channels = spec.interface.inputs
    rows = list(itertools.product(*(
        [c.ctype.check(v) for v in representative_values(c.ctype)]
        for c in channels)))
    sim = _simulator(spec)
    start = sim.initial_slots
    # configuration -> (parent configuration, input row); None for the start
    parents: dict[tuple, Optional[tuple[tuple, tuple]]] = {start: None}
    stats["configurations"] = 1
    level = [start]
    for t in range(horizon):
        if not level:  # no configuration is left to step
            break
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
                raise at_tick(error, t + 1)
        level = following
    stats.update(proved=False, dependent=dependent)
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
