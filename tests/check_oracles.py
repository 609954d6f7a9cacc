"""The checks that the exact and compiled ones replaced, kept as test oracles.

`verify_galois_by_masks` loops over every subset of the abstract universe;
`causality_by_histories` runs every grid history of the horizon and compares
outputs of histories that share an input prefix. Both are the former library
implementations, minus their caps. `causality_by_brute_force` steps every
history over every value of small input types, beyond the grid. `causality_by_search` is the former
breadth-first search, which stepped each configuration one grid row at a
time through the simulator's run loop. `eval_relation`, `abstract_output`,
`g_membership` and `verify_galois` are the former versions that evaluated
expressions in a dict environment built tick by tick. `zero_delay_cycles`
is the former depth-first search of `compose_check` for a cycle among the
weak atoms of a flattened composite. `refusal` is the message with which
the simulator refuses an ill-formed spec, from the structural checks
themselves.
"""

import itertools
from typing import Any, Callable, Iterable, Mapping, Optional

from streamcheck.abstraction import (GaloisCounterexample, _infer_type, fold_stream,
                                     universe_elements)
from streamcheck.components import (AutomatonSpec, ComponentSpec, STRICT, compose_check,
                                    validate_automaton)
from streamcheck.declarations import GaloisSpec, RelationSpec
from streamcheck.errors import (CapsExceededError, EvaluationError, SimulationError,
                                TypeMismatchError)
from streamcheck.codegen import Code, CodeGen
from streamcheck.exprs import Expr
from streamcheck.simulator import (CausalityCounterexample, _counterexample, _simulator, at_tick,
                                   representative_values, run)
from streamcheck.streams import BOOL, DataType, ENUM_KIND
from streamcheck.histories import ChannelHistory, TimedStream


def verify_galois_by_masks(gal):
    abs_elems, conc_elems = universe_elements(gal)
    abs_index = {_key(h): i for i, h in enumerate(abs_elems)}
    f_bit = [abs_index.get(_key(abstract_output(gal, x))) for x in conc_elems]
    member = [[g_membership(gal, a, x) for x in conc_elems] for a in abs_elems]
    n_a, n_c = len(abs_elems), len(conc_elems)
    for ta_mask in range(2 ** n_a):
        g_mask = 0
        for i in range(n_a):
            if ta_mask >> i & 1:
                for j in range(n_c):
                    if member[i][j]:
                        g_mask |= 1 << j
        lhs_mask = 0
        for j in range(n_c):
            if f_bit[j] is not None and (ta_mask >> f_bit[j]) & 1:
                lhs_mask |= 1 << j
        if lhs_mask != g_mask:
            j = min(i for i in range(n_c) if (lhs_mask ^ g_mask) >> i & 1)
            tc = (conc_elems[j],)
            ta = tuple(abs_elems[i] for i in range(n_a) if ta_mask >> i & 1)
            return GaloisCounterexample(tc, ta, lhs=bool(lhs_mask >> j & 1),
                                        rhs=bool(g_mask >> j & 1))
    return None


def _history_from_grid(channels, combo, horizon):
    streams = {}
    for i, c in enumerate(channels):
        streams[c.name] = TimedStream.of(c.ctype, combo[i * horizon:(i + 1) * horizon])
    return ChannelHistory(streams, horizon)


def prefix_equal(a, b, t):
    return all(a.streams[c].values[:t] == b.streams[c].values[:t] for c in a.streams)


def causality_by_histories(spec, horizon=3, mode=None):
    if mode is None:
        mode = spec.causality if isinstance(spec, AutomatonSpec) else STRICT
    if mode != STRICT and horizon < 2:
        return None
    channels = list(spec.interface.inputs)
    axes = []
    for c in channels:
        axes.extend([representative_values(c.ctype)] * horizon)
    runs = []
    for combo in itertools.product(*axes):
        hist = _history_from_grid(channels, combo, horizon)
        runs.append((hist, run(spec, hist, horizon)))
    ts = range(0, horizon) if mode == STRICT else range(1, horizon)
    for t in ts:
        out_t = t + 1 if mode == STRICT else t
        buckets = {}
        for hist, out in runs:
            key = tuple(hist.streams[c.name].values[:t] for c in channels)
            if key not in buckets:
                buckets[key] = (hist, out)
            else:
                h0, o0 = buckets[key]
                if not prefix_equal(o0, out, out_t):
                    return CausalityCounterexample(t, h0, hist, o0, out)
    return None


def _advance(sim, slots: tuple, row: tuple, tick: int) -> tuple[tuple, tuple]:
    """One tick from the configuration `slots` through the run loop: the next
    configuration and the outputs. An error raises as SimulationError at `tick`.
    """
    state = list(slots)
    out: list[list[Any]] = [[] for _ in sim.outputs]
    failed = sim.fn(state, ((row,),), out)
    if failed:  # the run loop reports it at tick 1
        raise at_tick(failed[0][1].__cause__, tick)
    return tuple(state), tuple(col[0] for col in out)


def causality_by_search(spec: ComponentSpec, budget: int = 4096, horizon: int = 3,
                        mode: str | None = None,
                        stats: dict | None = None) -> Optional[CausalityCounterexample]:
    if mode is None:
        mode = spec.causality if isinstance(spec, AutomatonSpec) else STRICT
    stats = {} if stats is None else stats
    stats.update(configurations=0, steps=0)
    if mode != STRICT:
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
        following = []
        for config in level:
            first = None
            for row in rows:
                nxt, out = _advance(sim, config, row, t + 1)
                stats["steps"] += 1
                if first is None:
                    first = (row, out)
                elif out != first[1]:
                    return _counterexample(spec, parents, config, first[0], row, rows[0],
                                           t, horizon)
                if t + 1 < horizon and nxt not in parents:
                    if len(parents) >= budget:
                        raise CapsExceededError(
                            f"causality search of {spec.name!r} reaches more than "
                            f"{budget} configurations", len(parents) + 1, budget)
                    parents[nxt] = (config, row)
                    stats["configurations"] = len(parents)
                    following.append(nxt)
        level = following
    return None


def every_value(dtype: DataType, limit: int = 4) -> list[Any]:
    """Every value of a bool, enum or integer type of at most `limit`
    values; `limit` evenly spread values of a wider integer type, both
    bounds among them; and a few reals around the grid's 0.0 and 1.0."""
    if dtype.kind == "bool":
        return [False, True]
    if dtype.kind == "enum":
        return list(dtype.labels)
    if dtype.kind == "int":
        if dtype.hi - dtype.lo < limit:
            return list(range(dtype.lo, dtype.hi + 1))
        return sorted({dtype.lo + (dtype.hi - dtype.lo) * k // (limit - 1) for k in range(limit)})
    return [-1.0, 0.0, 0.5, 1.0]


def causality_by_brute_force(spec: ComponentSpec, horizon: int = 2, limit: int = 4
                             ) -> Optional[tuple[int, list[tuple], list[tuple]]]:
    """Strict causality by brute force over every input history of up to
    `horizon` rows of `every_value` per channel, with no configuration
    merged: after every prefix of t rows, every next row must give the same
    outputs at tick t+1. Returns the shallowest witness, as the tick t and
    the two histories of t+1 rows, or None. A step that fails ends its
    history and is no witness."""
    channels = spec.interface.inputs
    rows = list(itertools.product(*([c.ctype.check(v) for v in every_value(c.ctype, limit)]
                                    for c in channels)))
    sim = _simulator(spec)
    level = [(sim.initial_slots, [])]  # (configuration, the prefix that reached it)
    for t in range(horizon):
        following = []
        for config, prefix in level:
            first = None
            for row in rows:
                try:
                    nxt, out = _advance(sim, config, row, t + 1)
                except SimulationError:
                    continue
                if first is None:
                    first = (row, out)
                elif out != first[1]:
                    return t, prefix + [first[0]], prefix + [row]
                following.append((nxt, prefix + [row]))
        level = following
    return None


def compile_expr(expr: Expr) -> Callable[[Mapping[str, Any]], Any]:
    """Compile an expression into a function of a name environment.

    The function returns what `evaluate` returns and raises the same
    EvaluationErrors. It is built once and cached on the expression node.
    """
    fn = expr.__dict__.get("_compiled")
    if fn is None:
        gen = CodeGen()
        code = gen.expr(expr, lambda ident, ctx: Code(f"_env[{ident!r}]", None))
        fn = gen.function("_env", [
            "try:",
            f"    return {code.src}",
            "except KeyError as e:",
            "    raise EvaluationError(f'unknown name {e.args[0]!r}') from None"])
        expr.__dict__["_compiled"] = fn
    return fn


def _labels_of(histories: Iterable[ChannelHistory]) -> dict[str, str]:
    env = {}
    for h in histories:
        for s in h.streams.values():
            if s.elem_type.kind == ENUM_KIND:
                for label in s.elem_type.labels:
                    env[label] = label
    return env


def _enum_labels_from_types(types: Mapping[str, DataType]) -> dict[str, str]:
    env = {}
    for t in types.values():
        if t.kind == ENUM_KIND:
            for label in t.labels:
                env[label] = label
    return env


def eval_relation(rel: RelationSpec, a: ChannelHistory, c: ChannelHistory) -> tuple[bool, list[bool]]:
    """Evaluate a relation tick-wise over an abstract/concrete history pair."""
    overlap = set(a.streams) & set(c.streams)
    if overlap:
        raise TypeMismatchError(f"paired histories share channel names {sorted(overlap)}")
    if a.horizon != c.horizon:
        raise TypeMismatchError(f"horizon mismatch: {a.horizon} vs {c.horizon}")
    if rel.checker is not None:
        combined = a.merged(c)
        out = run(rel.checker, combined, combined.horizon)
        out_names = rel.checker.interface.output_names()
        if len(out_names) != 1 or rel.checker.interface.outputs[0].ctype != BOOL:
            raise TypeMismatchError(f"checker {rel.checker.name!r} must have one boolean output")
        ticks = list(out.streams[out_names[0]].values)
        return fold_stream(ticks), ticks
    holds = compile_expr(rel.expr)
    # labels first, then abstract, then concrete channels: a channel shadows a label
    env = _labels_of((a, c))
    names = [*a.streams, *c.streams]
    columns = [s.values for s in a.streams.values()] + [s.values for s in c.streams.values()]
    rows = zip(*columns) if columns else itertools.repeat((), a.horizon)
    ticks = []
    for t, row in enumerate(rows, start=1):
        env.update(zip(names, row))
        v = holds(env)
        if not isinstance(v, bool):
            raise EvaluationError(f"relation {rel.name!r} is not boolean at tick {t}")
        ticks.append(v)
    return fold_stream(ticks), ticks


def abstract_output(gal: GaloisSpec, c_out: ChannelHistory) -> ChannelHistory:
    """Apply the abstraction map element-wise to a concrete history."""
    available = set(c_out.streams)
    entries = gal.f_entries_for(available)
    if not entries:
        raise EvaluationError(f"galois {gal.name!r}: no abstraction map entry is "
                              f"applicable to channels {sorted(available)}")
    labels = _labels_of((c_out,))
    labels.update(_enum_labels_from_types(gal.channel_types))
    columns: dict[str, list[Any]] = {chan: [] for chan, _ in entries}
    maps = [(columns[chan], compile_expr(e)) for chan, e in entries]
    for t in range(1, c_out.horizon + 1):
        env = {**labels, **c_out.tick(t)}
        for column, f in maps:
            column.append(f(env))
    streams = {}
    for chan, col in columns.items():
        dtype = gal.channel_types.get(chan)
        if dtype is None:
            dtype = _infer_type(col)
        streams[chan] = TimedStream.of(dtype, col)
    return ChannelHistory(streams, c_out.horizon)


def g_membership(gal: GaloisSpec, abstract: ChannelHistory, concrete: ChannelHistory) -> bool:
    """Does the concrete history belong to g({abstract})?"""
    if abstract.horizon != concrete.horizon:
        raise TypeMismatchError("horizon mismatch in membership check")
    labels = _labels_of((abstract, concrete))
    labels.update(_enum_labels_from_types(gal.channel_types))
    if gal.member is not None:
        member = compile_expr(gal.member)
        for t in range(1, abstract.horizon + 1):
            env = {**labels, **abstract.tick(t), **concrete.tick(t)}
            if not member(env):
                return False
        return True
    # adjoint default: f(concrete) must equal the abstract values, tick-wise
    entries = [(chan, e) for chan, e in gal.f_entries_for(set(concrete.streams))
               if chan in abstract.streams]
    if not entries:
        raise EvaluationError(f"galois {gal.name!r}: no applicable membership entries")
    maps = [(chan, compile_expr(e)) for chan, e in entries]
    for t in range(1, abstract.horizon + 1):
        env = {**labels, **concrete.tick(t)}
        for chan, f in maps:
            if f(env) != abstract.at(chan, t):
                return False
    return True


def _key(h: ChannelHistory):
    return tuple((c, h.streams[c].values) for c in sorted(h.streams))


def verify_galois(gal: GaloisSpec) -> Optional[GaloisCounterexample]:
    """The pointwise decision of the law, with one g_membership call per
    element pair, minus the caps."""
    abs_elems, conc_elems = universe_elements(gal)
    abs_index = {_key(h): i for i, h in enumerate(abs_elems)}
    f_bit = [abs_index.get(_key(abstract_output(gal, x))) for x in conc_elems]
    member = [[g_membership(gal, a, x) for x in conc_elems] for a in abs_elems]
    for i, a in enumerate(abs_elems):
        for j, x in enumerate(conc_elems):
            lhs = f_bit[j] == i
            if member[i][j] != lhs:
                return GaloisCounterexample((x,), (a,), lhs=lhs, rhs=member[i][j])
    return None


def zero_delay_cycles(atoms: Mapping[str, AutomatonSpec],
                      sources: Mapping[tuple[str, str], tuple[Any, str]]) -> list[str]:
    """The labels of the wires of the first zero-delay cycle found among the
    atoms of a flattened composite, by path, whose inputs read `sources`,
    or []. The labels lead from the search's start to the cycle."""
    weak = {p for p, atom in atoms.items() if atom.causality != STRICT}
    edges: dict[str, dict[str, str]] = {p: {} for p in weak}
    for (consumer, chan), src in sources.items():
        if consumer in weak and src[0] in weak:
            edges[src[0]][consumer] = f"{src[0]}.{src[1]} -> {consumer}.{chan}"
    color: dict[str, int] = {}
    for p in sorted(weak):
        if color.get(p, 0) == 0:
            cycle = _find_cycle(p, edges, color, [])
            if cycle:
                return cycle
    return []


def _find_cycle(u, edges, color, path):
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


def refusal(spec: ComponentSpec, sub: bool = False) -> Optional[str]:
    """The message of the SimulationError that refuses `spec`, or None when
    neither it nor any subcomponent has a problem: the problems of the first
    ill-formed component, subcomponents before the composite that holds
    them, a subcomponent's under its name."""
    if not isinstance(spec, AutomatonSpec):
        for _, child in spec.subcomponents:
            message = refusal(child, True)
            if message is not None:
                return message
    found = validate_automaton(spec) if isinstance(spec, AutomatonSpec) else compose_check(spec)
    if not found:
        return None
    return (f"component {spec.name!r}: " if sub else "") + "; ".join(found)
