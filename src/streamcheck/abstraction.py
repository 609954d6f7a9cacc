"""Abstract/concrete correspondence checking.

Covers the RI/RO relation evaluation, end-to-end correspondence of a test
pair (RI on inputs implies RO on outputs), abstraction/concretization maps
with verification of the connection law on one tick of a bounded universe,
and parameterized concretizers.

Suites are checked and concretized from their tables (`correspond`,
`concretize_cases`): RI and RO are evaluated once over the columns of all
pairs or cases, one after another, and all cases of a side run in one call
of the compiled simulator (`simulator.run_tables`).
A suite in which some check raises is walked again one pair or case at a
time, so the first to fail in order is reported with the message the
per-pair functions (`check_correspondence`, `concretize`), which run the
same code on one pair, give for it.
"""

from __future__ import annotations

import itertools
import math
import warnings
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Optional, Sequence

from .components import ComponentSpec
from .errors import (CapsExceededError, EvaluationError, SimulationError, StreamcheckError,
                     TypeMismatchError, UnboundParameterError)
from .histories import Block, ChannelHistory, Table, TimedStream, validate_history
from .records import Record
from .simulator import run, run_tables, table_runs
from .streams import BOOL, REAL, DataType, bounded_int

if TYPE_CHECKING:
    from .declarations import ConcretizerSpec, GaloisSpec, RelationSpec, Universe
    from .testcases import VectorCase

RI = "RI"
RO = "RO"

DEFAULT_UNIVERSE_CAP = 12


def fold_stream(ticks: Iterable[bool]) -> bool:
    """Overall verdict of a bool stream: a single false fails the comparison."""
    return all(ticks)


def _relation(rel: RelationSpec, a: Block, c: Block,
              horizons: Sequence[tuple[int, int]]) -> list[bool]:
    """A relation's value at every tick of history pairs whose columns follow
    one another in a and c; `horizons` holds each pair's two horizons."""
    overlap = a.channels & c.channels
    if overlap:
        raise TypeMismatchError(f"paired histories share channel names {sorted(overlap)}")
    for ha, hc in horizons:
        if ha != hc:
            raise TypeMismatchError(f"horizon mismatch: {ha} vs {hc}")
    if rel.checker is not None:
        # a checker starts afresh on every pair
        ticks: list[bool] = []
        start = 0
        for h, _ in horizons:
            pair = Table(a, start, start + h).history(), Table(c, start, start + h).history()
            combined = pair[0].merged(pair[1])
            out = run(rel.checker, combined, combined.horizon)
            out_names = rel.checker.interface.output_names()
            if len(out_names) != 1 or rel.checker.interface.outputs[0].ctype != BOOL:
                raise TypeMismatchError(
                    f"checker {rel.checker.name!r} must have one boolean output")
            ticks += out.streams[out_names[0]].values
            start += h
        return ticks
    # a channel shadows an enumeration label of the same name
    from .codegen import relation_ticks
    return relation_ticks(rel, a.signature() + c.signature(), [*a.columns, *c.columns],
                          sum(h for h, _ in horizons))


def eval_relation(rel: RelationSpec, a: ChannelHistory, c: ChannelHistory) -> tuple[bool, list[bool]]:
    """Evaluate a relation tick-wise over an abstract/concrete history pair."""
    ticks = _relation(rel, Block.of(a), Block.of(c), [(a.horizon, c.horizon)])
    return fold_stream(ticks), ticks


def _column(tables: Sequence[Table], name: str) -> Sequence[Any]:
    """The named column of the tables, one table after another: one slice
    per run of tables that follow one another in a block."""
    parts = [block.order((name,))[0][start:stop] for block, start, stop, _ in table_runs(tables)]
    return parts[0] if len(parts) == 1 else list(itertools.chain.from_iterable(parts))


def _joined(tables: Sequence[Table]) -> Block:
    """The tables' columns as one block, one table after another; a history
    built in Python stays its own block, to be validated when it runs."""
    first = tables[0].block
    if len(tables) == 1 and first.history is not None:
        return first
    return Block(first.names, first.types, [_column(tables, n) for n in first.names])


def _outputs(spec: ComponentSpec, tables: Sequence[Table]) -> Block:
    """The spec's outputs on each table, run from its initial state, one
    table after another; the error of the first table whose run fails
    raises."""
    outputs = spec.interface.outputs
    out: list[list] = [[] for _ in outputs]
    failed = run_tables(spec, tables, out)
    if failed:
        raise failed[0][1]
    return Block([c.name for c in outputs], [c.ctype for c in outputs], out)


class CorrespondenceResult(Record, repr=False):
    """Whether RI held on a pair's inputs and RO on its outputs, tick by
    tick, and whether the pair corresponds (RI implies RO); `status` is ok
    or error."""

    _fields = ("ri_holds", "ro_holds", "corresponding", "ri_stream", "ro_stream", "status",
               "diagnostics", "abstract_output", "concrete_output")

    def __init__(self, ri_holds: bool, ro_holds: bool, corresponding: bool,
                 ri_stream: tuple[bool, ...] = (), ro_stream: tuple[bool, ...] = (),
                 status: str = "ok", diagnostics: tuple[str, ...] = (),
                 abstract_output: ChannelHistory | None = None,
                 concrete_output: ChannelHistory | None = None):
        self.ri_holds, self.ro_holds, self.corresponding = ri_holds, ro_holds, corresponding
        self.ri_stream, self.ro_stream, self.status = ri_stream, ro_stream, status
        self.diagnostics, self.abstract_output = diagnostics, abstract_output
        self.concrete_output = concrete_output


def _correspondence(spec_a: ComponentSpec, spec_c: ComponentSpec, ri: RelationSpec,
                    ro: RelationSpec, pairs: Sequence[tuple[Table, Table]]
                    ) -> tuple[list[bool], list[bool], Block, Block]:
    """RI over all pairs' inputs, both runs of every pair, and RO over all
    their outputs: the RI and RO ticks and the outputs, pair after pair."""
    abstract, concrete = [a for a, _ in pairs], [c for _, c in pairs]
    horizons = [(a.horizon, c.horizon) for a, c in pairs]
    ri_ticks = _relation(ri, _joined(abstract), _joined(concrete), horizons)
    out_a, out_c = _outputs(spec_a, abstract), _outputs(spec_c, concrete)
    return ri_ticks, _relation(ro, out_a, out_c, horizons), out_a, out_c


def _result(ri_stream: Sequence[bool], ro_stream: Sequence[bool],
                 out_a: ChannelHistory | None = None,
                 out_c: ChannelHistory | None = None) -> CorrespondenceResult:
    ri_holds, ro_holds = fold_stream(ri_stream), fold_stream(ro_stream)
    diagnostics = () if ri_holds else ("RI does not hold on the inputs; correspondence is vacuous",)
    return CorrespondenceResult(ri_holds, ro_holds, not ri_holds or ro_holds,
                                tuple(ri_stream), tuple(ro_stream), diagnostics=diagnostics,
                                abstract_output=out_a, concrete_output=out_c)


def check_correspondence(spec_a: ComponentSpec, spec_c: ComponentSpec,
                         ri: RelationSpec, ro: RelationSpec,
                         ta: ChannelHistory, tc: ChannelHistory) -> CorrespondenceResult:
    """RI(ta, tc) -> RO(run(spec_a, ta), run(spec_c, tc))."""
    try:
        ri_ticks, ro_ticks, out_a, out_c = _correspondence(
            spec_a, spec_c, ri, ro, [(Table.of(ta), Table.of(tc))])
    except StreamcheckError as e:
        return CorrespondenceResult(False, False, False, status="error", diagnostics=(str(e),))
    return _result(ri_ticks, ro_ticks, Table(out_a, 0, ta.horizon).history(),
                   Table(out_c, 0, tc.horizon).history())


Failure = Optional[tuple[int, StreamcheckError]]  # the index of an item and its error


def _in_order(batch: Callable[[Sequence[Any]], list], items: Sequence[Any]) -> tuple[list, Failure]:
    """batch(items), a list with an entry per item; when it raises, batch of
    one item at a time, in order, up to the first that raises. Returns the
    entries of the items before it, and its index and error."""
    if not items:
        return [], None
    try:
        return batch(items), None
    except StreamcheckError:
        entries: list = []
        for k, item in enumerate(items):
            try:
                entries += batch([item])
            except StreamcheckError as e:
                return entries, (k, e)
        return entries, None


def correspond(spec_a: ComponentSpec, spec_c: ComponentSpec, ri: RelationSpec,
               ro: RelationSpec, pairs: Sequence[tuple[Table, Table]]
               ) -> tuple[list[CorrespondenceResult], Failure]:
    """`check_correspondence` of each pair of input tables, in order, with no
    outputs kept, up to the first pair whose check raises, and that pair's
    index and error (None when no pair raises)."""
    def batch(chunk: Sequence[tuple[Table, Table]]) -> list[CorrespondenceResult]:
        ri_ticks, ro_ticks, _, _ = _correspondence(spec_a, spec_c, ri, ro, chunk)
        results, start = [], 0
        for a, _ in chunk:
            stop = start + a.horizon
            results.append(_result(ri_ticks[start:stop], ro_ticks[start:stop]))
            start = stop
        return results

    return _in_order(batch, pairs)


# ---------------------------------------------------------------------------
# Galois connections


def abstract_output(gal: GaloisSpec, c_out: ChannelHistory) -> ChannelHistory:
    """Apply the abstraction map element-wise to a concrete history."""
    available = set(c_out.streams)
    entries = gal.f_entries_for(available)
    if not entries:
        raise EvaluationError(f"galois {gal.name!r}: no abstraction map entry is "
                              f"applicable to channels {sorted(available)}")
    from .codegen import map_columns
    columns = map_columns(gal, entries, c_out)
    streams = {}
    for chan, col in columns.items():
        dtype = gal.channel_types.get(chan)
        if dtype is None:
            dtype = _infer_type(col)
        streams[chan] = TimedStream.of(dtype, col)
    return ChannelHistory(streams, c_out.horizon)


def _infer_type(values: list[Any]) -> DataType:
    if all(isinstance(v, bool) for v in values):
        return BOOL
    if all(isinstance(v, int) and not isinstance(v, bool) for v in values):
        lo, hi = min(values), max(values)
        return bounded_int(lo, hi)
    return REAL


def g_membership(gal: GaloisSpec, abstract: ChannelHistory, concrete: ChannelHistory) -> bool:
    """Does the concrete history belong to g({abstract})?

    With `member`, it does when `member` holds at every tick, read with the
    concrete channels over the abstract ones over the enumeration labels.
    By default, when f maps it to exactly the abstract values, tick-wise.
    """
    if abstract.horizon != concrete.horizon:
        raise TypeMismatchError("horizon mismatch in membership check")
    from .codegen import membership_matrix
    return membership_matrix(gal, (abstract,), (concrete,))[0][0]


# ---------------------------------------------------------------------------
# Bounded-universe verification


def _side_elements(side: tuple[tuple[str, tuple[Any, ...]], ...], horizon: int,
                   types: Mapping[str, DataType]) -> list[ChannelHistory]:
    """All channel histories over the declared per-channel value sets."""
    axes = [values for _, values in side for _ in range(horizon)]
    elements = []
    for combo in itertools.product(*axes):
        streams = {}
        for i, (chan, _) in enumerate(side):
            vals = combo[i * horizon:(i + 1) * horizon]
            streams[chan] = TimedStream.of(types.get(chan) or _infer_type(list(vals)), vals)
        elements.append(ChannelHistory(streams, horizon))
    return elements


class GaloisCounterexample(Record):
    """Concrete and abstract sets of histories on which the law fails:
    `lhs` tells whether f(T_c) is a subset of T_a, `rhs` whether T_c is a
    subset of g(T_a), and each value of the one-tick sets is held for the
    universe's `horizon`."""

    _fields = ("concrete_set", "abstract_set", "lhs", "rhs", "horizon")

    def __init__(self, concrete_set: tuple[ChannelHistory, ...],
                 abstract_set: tuple[ChannelHistory, ...], lhs: bool, rhs: bool,
                 horizon: int = 1):
        self.concrete_set, self.abstract_set = concrete_set, abstract_set
        self.lhs, self.rhs, self.horizon = lhs, rhs, horizon

    def __str__(self) -> str:
        def fmt(hs):
            return "{" + ", ".join(
                "(" + ", ".join(f"{c}={list(h.streams[c].values)}" for c in sorted(h.streams)) + ")"
                for h in hs) + "}"
        held = f", each value held for {self.horizon} ticks" if self.horizon > 1 else ""
        return (f"f(T_c) subset-of T_a is {self.lhs} but T_c subset-of g(T_a) is {self.rhs} "
                f"for T_c={fmt(self.concrete_set)}, T_a={fmt(self.abstract_set)}{held}")


def _universe(gal: GaloisSpec) -> Universe:
    if gal.universe is None:
        raise EvaluationError(f"galois {gal.name!r} declares no bounded universe")
    return gal.universe


def universe_elements(gal: GaloisSpec) -> tuple[list[ChannelHistory], list[ChannelHistory]]:
    u = _universe(gal)
    return (_side_elements(u.abstract, u.horizon, gal.channel_types),
            _side_elements(u.concrete, u.horizon, gal.channel_types))


def verify_galois(gal: GaloisSpec, element_cap: int = DEFAULT_UNIVERSE_CAP, *,
                  stats: dict | None = None) -> Optional[GaloisCounterexample]:
    """Decide the connection law f(T_c) subset of T_a  iff  T_c subset of g(T_a)
    for every subset pair of the bounded universe.

    Both sides distribute over unions of T_c and of T_a, so the law holds
    exactly when it holds for every pair of singletons {x}, {a}: x is a
    member of g(a) iff f(x) = a (an image outside the universe equals no a).
    That takes |A|*|C| comparisons, not 2^|A| subsets. The maps and `member`
    are per-tick, so at a horizon H >= 1 the law holds exactly when it holds
    on the one-tick histories, and only those are built (at H = 0, the one
    empty history a side); a side of more than `element_cap` raises
    CapsExceededError first. The counterexample is the first failing pair in
    the order of T_a bitmasks: smallest abstract index, then concrete index.
    stats["pairs"], when `stats` is given, counts the pairs decided.
    """
    u = _universe(gal)
    ticks = min(u.horizon, 1)
    for name, side in (("abstract", u.abstract), ("concrete", u.concrete)):
        size = math.prod(len(values) ** ticks for _, values in side)
        if size > element_cap:
            raise CapsExceededError(
                f"{name} universe has {size} value tuples a tick, cap is {element_cap}",
                size, element_cap)
    abs_elems = _side_elements(u.abstract, ticks, gal.channel_types)
    conc_elems = _side_elements(u.concrete, ticks, gal.channel_types)

    def key(h: ChannelHistory):
        return tuple((c, h.streams[c].values) for c in sorted(h.streams))

    abs_index = {key(h): i for i, h in enumerate(abs_elems)}
    # lifted f: image index (or None when the image escapes the universe)
    f_bit = [abs_index.get(key(abstract_output(gal, x))) for x in conc_elems]
    from .codegen import membership_matrix
    member = membership_matrix(gal, abs_elems, conc_elems)
    if stats is not None:
        stats["pairs"] = len(abs_elems) * len(conc_elems)
    for i, a in enumerate(abs_elems):
        for j, x in enumerate(conc_elems):
            lhs = f_bit[j] == i
            if member[i][j] != lhs:
                return GaloisCounterexample((x,), (a,), lhs, member[i][j], u.horizon)
    return None


# ---------------------------------------------------------------------------
# Parameterized concretizers


class ConcretizationWarning(UserWarning):
    pass


def ri_violated(conc: ConcretizerSpec) -> str:
    """The warning that the concretizer produced an input on which RI fails."""
    return f"concretizer {conc.name!r} produced an input violating RI"


def _concretized(conc: ConcretizerSpec, inputs: Sequence[Table], abstract: Sequence[Table],
                 ri: RelationSpec | None) -> tuple[Block, list[bool] | None]:
    """The concretizer's outputs on each table of inputs, one after another,
    and RI's ticks over each abstract table paired with its outputs."""
    out = _outputs(conc.component, inputs)
    if ri is None:
        return out, None
    horizons = [(a.horizon, t.horizon) for a, t in zip(abstract, inputs)]
    return out, _relation(ri, _joined(abstract), out, horizons)


def concretize(conc: ConcretizerSpec, p: Mapping[str, Any], ta: ChannelHistory,
               ri: RelationSpec | None = None) -> ChannelHistory:
    """Instantiate the parameter family member and run it on the abstract input.

    Scalar parameter values are broadcast to constant streams. When an RI
    relation is supplied the produced pair is checked against it and a
    ConcretizationWarning is emitted on failure.
    """
    streams = dict(ta.streams)
    horizon = ta.horizon
    for decl in conc.params:
        if decl.name not in p:
            raise UnboundParameterError(f"parameter {decl.name!r} is unbound")
        value = p[decl.name]
        if isinstance(value, TimedStream):
            streams[decl.name] = value
        else:
            streams[decl.name] = TimedStream.of(decl.dtype, [value] * horizon)
    extra = set(p) - {d.name for d in conc.params}
    if extra:
        raise UnboundParameterError(f"unknown parameters {sorted(extra)}")
    inputs = ChannelHistory(streams, horizon)
    out, ri_ticks = _concretized(conc, [Table.of(inputs)], [Table.of(ta)], ri)
    if ri_ticks is not None and not fold_stream(ri_ticks):
        warnings.warn(ri_violated(conc), ConcretizationWarning)
    return Table(out, 0, horizon).history()


def concretize_cases(conc: ConcretizerSpec, cases: Sequence[VectorCase],
                     fixed: Mapping[str, Any], ri: RelationSpec | None
                     ) -> tuple[list[tuple[Table, bool]], Failure]:
    """`concretize` of read cases whose parameters are all bound, by `fixed`
    values, each a value of its parameter's type, or else by the case's
    `#params` table. Returns each case's concrete inputs and whether RI
    holds on them (True without RI), up to the first case whose
    concretization raises, and that case's index and error (None when no
    case raises)."""
    channels = conc.component.interface.inputs
    names = [c.name for c in channels]
    params = [d.name for d in conc.params]
    problems: dict[tuple[str, ...], str] = {}  # by the header of the abstract table

    def problem(header: tuple[str, ...], types: Sequence[DataType]) -> str:
        """What `validate_history` finds in the inputs `concretize` binds from
        an abstract table of this header: a parameter replaces an input of
        its name."""
        found = problems.get(header)
        if found is None:
            shape = dict(zip(header, types))
            shape.update((d.name, d.dtype) for d in conc.params)
            history = ChannelHistory({n: TimedStream(t, ()) for n, t in shape.items()}, 0)
            found = problems[header] = "; ".join(map(str, validate_history(history, channels)))
        return found

    def inputs(chunk: Sequence[VectorCase]) -> list[Table]:
        """The concretizer's inputs of each case: tables of one block."""
        for case in chunk:
            block = case.inputs.block
            found = problem(block.names, block.types)
            if found:
                raise SimulationError("invalid input history: " + found)
        abstract = [case.inputs for case in chunk]
        horizons = [case.horizon for case in chunk]
        columns = []
        for name in names:
            if name not in params:
                columns.append(_column(abstract, name))
            elif name in fixed:
                columns.append((fixed[name],) * sum(horizons))
            elif all(case.params.horizon == h for case, h in zip(chunk, horizons)):
                columns.append(_column([case.params for case in chunk], name))
            else:  # a one-row table is repeated to its case's horizon
                columns.append(list(itertools.chain.from_iterable(
                    col if len(col) == h else col * h
                    for col, h in zip((case.params.columns((name,))[0] for case in chunk),
                                      horizons))))
        block = Block(names, [c.ctype for c in channels], columns)
        tables, start = [], 0
        for h in horizons:
            tables.append(Table(block, start, start + h))
            start += h
        return tables

    def batch(chunk: Sequence[VectorCase]) -> list[tuple[Table, bool]]:
        out, ri_ticks = _concretized(conc, inputs(chunk), [case.inputs for case in chunk], ri)
        entries, start = [], 0
        for case in chunk:
            stop = start + case.horizon
            entries.append((Table(out, start, stop),
                            ri_ticks is None or fold_stream(ri_ticks[start:stop])))
            start = stop
        return entries

    return _in_order(batch, cases)


class FinvViolation(Record, repr=False):
    """A sampled parameter binding and abstract input whose concretized
    input lies outside g of that abstract input."""

    _fields = ("params", "abstract_input", "concrete_input")

    def __init__(self, params: Mapping[str, Any], abstract_input: ChannelHistory,
                 concrete_input: ChannelHistory):
        self.params = params
        self.abstract_input, self.concrete_input = abstract_input, concrete_input


def check_finv_in_g(gal: GaloisSpec, conc: ConcretizerSpec,
                    samples: Iterable[tuple[Mapping[str, Any], ChannelHistory]]
                    ) -> Optional[FinvViolation]:
    """For each sampled (p, ta): concretize and require g-membership."""
    for p, ta in samples:
        tc = concretize(conc, p, ta)
        if not g_membership(gal, ta, tc):
            return FinvViolation(dict(p), ta, tc)
    return None
