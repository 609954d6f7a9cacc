"""Abstract/concrete correspondence checking.

Covers the RI/RO relation evaluation, end-to-end correspondence of a test
pair (RI on inputs implies RO on outputs), abstraction/concretization maps
with verification of the connection law on one tick of a bounded universe,
and parameterized concretizers.

Suites are checked and concretized from their tables (`correspond`,
`concretize_cases`): RI and RO are evaluated once over the columns of all
pairs or cases, one after another, and all cases of a side run in one call
of the compiled simulator (`simulator.run_tables`). An expression relation
is a map of one entry (`codegen.map_rows`, which also runs the abstraction
map f): it runs over the rows of every pair in one loop, and its first
failing row is mapped back to its pair and tick. Each step reports the
first pair or case at which it fails and takes only the pairs or cases
before the earliest failure found so far, in the order of the per-pair
functions (`check_correspondence`, `concretize`), which run the same code
on one pair; so a suite is checked once, and the failure reported is the
first that a pair-by-pair check meets. Pairs built in Python are tables
too (`Table.of`). The pairs whose tables keep one shape a side are joined
into one block a side; a column joined from several tables conforms only
where it conforms in each, so it is read as each pair reads it.
"""

from __future__ import annotations

import bisect
import itertools
import math
import warnings
from typing import TYPE_CHECKING, Any, Callable, Container, Iterable, Mapping, Optional, Sequence

from .components import ComponentSpec
from .errors import (CapsExceededError, EvaluationError, SimulationError, StreamcheckError,
                     TypeMismatchError, UnboundParameterError)
from .histories import Block, ChannelHistory, Table, TimedStream, invalid_input
from .records import Record
from .simulator import run_tables, table_runs
from .streams import BOOL, REAL, DataType, bounded_int

if TYPE_CHECKING:
    from .codegen import Signature
    from .declarations import ConcretizerSpec, GaloisSpec, RelationSpec, Universe
    from .exprs import Expr
    from .testcases import VectorCase

RI = "RI"
RO = "RO"

DEFAULT_UNIVERSE_CAP = 12


def fold_stream(ticks: Iterable[bool]) -> bool:
    """Overall verdict of a bool stream: a single false fails the comparison."""
    return all(ticks)


Failure = Optional[tuple[int, StreamcheckError]]  # the index of an item and its error


def _upto(items: Sequence[Any], failure: Failure) -> Sequence[Any]:
    """The items before the one that failed."""
    return items if failure is None else items[:failure[0]]


def _relation(rel: RelationSpec, a: Sequence[Table], c: Sequence[Table],
              failure: Failure = None) -> tuple[list[bool], Failure]:
    """A relation's value at every tick of the history pairs (a[k], c[k]),
    pair after pair, up to the pair of `failure`: the ticks up to the first
    pair at which it fails, and that pair's index and error, else `failure`.
    Each maximal run of pairs whose tables have one shape a side (the same
    channels of the same types, in any order) is judged in one go."""
    pairs = _upto(list(zip(a, c)), failure)
    shape = {b: frozenset(zip(b.names, b.types)) for b in {t.block for pair in pairs for t in pair}}
    ticks: list[bool] = []
    start = 0
    for _, run in itertools.groupby(pairs, lambda p: (shape[p[0].block], shape[p[1].block])):
        run = list(run)
        got, failed = _judged(rel, run)
        ticks += got
        if failed is not None:
            return ticks, (start + failed[0], failed[1])
        start += len(run)
    return ticks, failure


def _judged(rel: RelationSpec, pairs: Sequence[tuple[Table, Table]]) -> tuple[list[bool], Failure]:
    """`_relation` of pairs whose tables have one shape a side."""
    a, c = _joined([x for x, _ in pairs]), _joined([y for _, y in pairs])
    overlap = sorted(a.channels & c.channels)
    if overlap:
        return [], (0, TypeMismatchError(f"paired histories share channel names {overlap}"))
    horizons = [(x.horizon, y.horizon) for x, y in pairs]
    failure = next(((k, TypeMismatchError(f"horizon mismatch: {ha} vs {hc}"))
                    for k, (ha, hc) in enumerate(horizons) if ha != hc), None)
    horizons = [h for h, _ in _upto(horizons, failure)]
    checker = rel.checker
    if checker is not None:
        # a checker starts afresh on every pair, a table of both sides' columns
        both = Block(a.names + c.names, a.types + c.types, [*a.columns, *c.columns],
                     a.conforms + c.conforms)
        ends = list(itertools.accumulate(horizons, initial=0))
        outputs = checker.interface.outputs
        out: list[list] = [[] for _ in outputs]
        failed = run_tables(checker, [Table(both, s, e) for s, e in zip(ends, ends[1:])], out)
        k = failed[0][0] if failed else len(horizons)  # the pairs before the first that fails
        # the outputs are judged after the first pair's run
        if k and (len(outputs) != 1 or outputs[0].ctype != BOOL):
            return [], (0, TypeMismatchError(f"checker {checker.name!r} must have one boolean output"))
        return (out[0][:ends[k]] if k else []), (failed[0] if failed else failure)
    # a channel shadows an enumeration label of the same name
    ticks, failed = _ticks(rel, a.signature() + c.signature(), [*a.columns, *c.columns], horizons)
    return ticks, failed or failure


def _ticks(rel: RelationSpec, sig: Signature, columns: Sequence[Sequence[Any]],
           horizons: Sequence[int]) -> tuple[list[bool], Failure]:
    """The value of `rel.expr`, a map of one entry, at each tick of pairs
    whose rows follow one another in columns described by `sig`, of
    `horizons` ticks each, in one loop over all rows, up to the first row
    that raises or gives a value that is not boolean: the index of its pair,
    found through the pairs' ends, and its error, else None. A relation
    that does not compile fails at the first pair."""
    from .codegen import map_rows
    try:
        fn, (kind,) = map_rows(rel, [(rel.name, rel.expr)], sig)
    except EvaluationError as e:
        return [], ((0, e) if horizons else None)
    ends = list(itertools.accumulate(horizons, initial=0))
    ticks: list[Any] = []
    error = None
    try:
        fn(itertools.islice(zip(*columns) if columns else itertools.repeat(()), ends[-1]), [ticks])
    except StreamcheckError as e:
        error = e
    row = len(ticks) if kind == "bool" else next(
        (t for t, v in enumerate(ticks) if v is not True and v is not False), len(ticks))
    if row == len(ticks) and error is None:
        return ticks, None
    k = bisect.bisect_right(ends, row) - 1
    if row < len(ticks):
        error = EvaluationError(f"relation {rel.name!r} is not boolean at tick {row - ends[k] + 1}")
    return ticks[:row], (k, error)


def eval_relation(rel: RelationSpec, a: ChannelHistory, c: ChannelHistory) -> tuple[bool, list[bool]]:
    """Evaluate a relation tick-wise over an abstract/concrete history pair."""
    ticks, failure = _relation(rel, [Table.of(a)], [Table.of(c)])
    if failure is not None:
        raise failure[1]
    return fold_stream(ticks), ticks


def _column(tables: Sequence[Table], name: str) -> Sequence[Any]:
    """The named column of the tables, one table after another: one slice
    per run of tables that follow one another in a block."""
    parts = [block.order((name,))[0][start:stop] for block, start, stop, _ in table_runs(tables)]
    return parts[0] if len(parts) == 1 else list(itertools.chain.from_iterable(parts))


def _joined(tables: Sequence[Table]) -> Block:
    """The columns of tables of one shape as one block, one table after
    another, in the order of the first table's; a column conforms where it
    conforms in every block of the tables."""
    first = tables[0].block
    flags = [dict(zip(b.names, b.conforms)) for b in {t.block for t in tables}]
    return Block(first.names, first.types, [_column(tables, n) for n in first.names],
                 [all(f[n] for f in flags) for n in first.names])


def _outputs(spec: ComponentSpec, tables: Sequence[Table],
             failure: Failure = None) -> tuple[list[Table], Failure]:
    """The spec's outputs on each table up to the table of `failure`, run
    from its initial state, one table after another: a table of one block
    for each table before the first whose run fails, and that table's index
    and error, else `failure`."""
    outputs = spec.interface.outputs
    out: list[list] = [[] for _ in outputs]
    failed = run_tables(spec, _upto(tables, failure), out)
    failure = failed[0] if failed else failure
    block = Block([c.name for c in outputs], [c.ctype for c in outputs], out)
    ends = list(itertools.accumulate((t.horizon for t in _upto(tables, failure)), initial=0))
    return [Table(block, s, e) for s, e in zip(ends, ends[1:])], failure


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
                    ) -> tuple[list[bool], list[bool], list[Table], list[Table], Failure]:
    """RI over the pairs' inputs, both runs of each pair, and RO over their
    outputs, pair after pair, up to the first pair at which one of them
    fails, in that order: the RI and RO ticks and the outputs of the pairs
    before it, and that pair's index and error (None when none fails)."""
    abstract, concrete = [a for a, _ in pairs], [c for _, c in pairs]
    ri_ticks, failure = _relation(ri, abstract, concrete)
    out_a, failure = _outputs(spec_a, abstract, failure)
    out_c, failure = _outputs(spec_c, concrete, failure)
    ro_ticks, failure = _relation(ro, out_a, out_c, failure)
    return ri_ticks, ro_ticks, out_a, out_c, failure


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
    ri_ticks, ro_ticks, out_a, out_c, failure = _correspondence(
        spec_a, spec_c, ri, ro, [(Table.of(ta), Table.of(tc))])
    if failure is not None:
        return CorrespondenceResult(False, False, False, status="error",
                                    diagnostics=(str(failure[1]),))
    return _result(ri_ticks, ro_ticks, out_a[0].history(), out_c[0].history())


def correspond(spec_a: ComponentSpec, spec_c: ComponentSpec, ri: RelationSpec,
               ro: RelationSpec, pairs: Sequence[tuple[Table, Table]]
               ) -> tuple[list[CorrespondenceResult], Failure]:
    """`check_correspondence` of each pair of input tables, in order, with no
    outputs kept, up to the first pair whose check fails, and that pair's
    index and error (None when no pair fails)."""
    ri_ticks, ro_ticks, out_a, _, failure = _correspondence(spec_a, spec_c, ri, ro, pairs)
    # the ticks of a pair lie in the rows of its abstract outputs
    return [_result(ri_ticks[t.start:t.stop], ro_ticks[t.start:t.stop])
            for t in _upto(out_a, failure)], failure


# ---------------------------------------------------------------------------
# Galois connections


def _f(gal: GaloisSpec, sig: Signature, rows: Iterable[tuple]
       ) -> tuple[list[str], list[list[Any]], StreamcheckError | None]:
    """The abstract channels that f maps rows of the signature to, each
    one's values at the rows mapped before any that raises, and its error,
    else None."""
    available = {chan for chan, _, _ in sig}
    entries = gal.f_entries_for(available)
    if not entries:
        raise EvaluationError(f"galois {gal.name!r}: no abstraction map entry is "
                              f"applicable to channels {sorted(available)}")
    return [chan for chan, _ in entries], *_mapped(gal, entries, sig, rows)


def _mapped(gal: GaloisSpec, entries: Sequence[tuple[str, Expr]], sig: Signature,
            rows: Iterable[tuple]) -> tuple[list[list[Any]], StreamcheckError | None]:
    """Each map entry's values at the rows of the signature, row by row and
    entry by entry up to the first evaluation that raises, and its error,
    else None."""
    from .codegen import map_rows
    fn, _ = map_rows(gal, entries, sig, gal.channel_types.values())
    cols: list[list[Any]] = [[] for _ in entries]
    try:
        fn(rows, cols)
    except StreamcheckError as e:
        return cols, e
    return cols, None


def abstract_output(gal: GaloisSpec, c_out: ChannelHistory) -> ChannelHistory:
    """Apply the abstraction map element-wise to a concrete history."""
    from .codegen import _rows
    chans, cols, error = _f(gal, c_out.signature(), _rows(c_out))
    if error is not None:
        raise error
    return ChannelHistory({chan: TimedStream.of(gal.channel_types.get(chan) or _infer_type(col), col)
                           for chan, col in zip(chans, cols)}, c_out.horizon)


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
    By default, when f maps it to exactly the abstract values, tick-wise:
    the map entries of abstract channels run over the concrete rows, and
    their values are compared in order of tick, then entry, so that a
    mismatch before an evaluation error answers False.
    """
    if abstract.horizon != concrete.horizon:
        raise TypeMismatchError("horizon mismatch in membership check")
    from .codegen import _rows, membership_rows
    if gal.member is not None:
        return membership_rows(gal, abstract.signature(), concrete.signature(),
                               [_rows(abstract)], [_rows(concrete)])[0][0]
    entries = _adjoint_entries(gal, concrete.streams, abstract.streams)
    cols, error = _mapped(gal, entries, concrete.signature(), _rows(concrete))
    expected = [abstract.streams[chan].values for chan, _ in entries]
    for t in range(len(cols[0])):  # the first entry's values reach furthest
        if any(t < len(col) and col[t] != values[t] for col, values in zip(cols, expected)):
            return False
    if error is not None:
        raise error
    return True


def _adjoint_entries(gal: GaloisSpec, concrete: Iterable[str],
                     abstract: Container[str]) -> list[tuple[str, Expr]]:
    """The map entries that decide membership in f's adjoint: those that
    apply to the concrete channels and map an abstract one."""
    entries = [(chan, e) for chan, e in gal.f_entries_for(set(concrete)) if chan in abstract]
    if not entries:
        raise EvaluationError(f"galois {gal.name!r}: no applicable membership entries")
    return entries


# ---------------------------------------------------------------------------
# Bounded-universe verification


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


def _check(types: Mapping[str, DataType], chan: str) -> Callable[[Any], Any]:
    """How a one-tick history checks a value of the channel: against the
    channel's declared type, or else against the type of that value alone."""
    dtype = types.get(chan)
    if dtype is not None:
        return dtype.check
    return lambda value: _infer_type([value]).check(value)


def _checked_axes(side: tuple[tuple[str, tuple[Any, ...]], ...],
                  types: Mapping[str, DataType]) -> list[list[Any]]:
    """Each channel's values, checked once each. The error raised is the one
    that building the one-tick histories in product order meets first: that
    of the first history holding a value that fails, at the first channel
    holding one. With each channel's first failing value at index b_i, that
    is the history of index 0 on every channel when some b_i is 0, and
    otherwise the one of index b_i on the last channel that has one. An
    empty value set leaves no history, and so no error."""
    axes: list[list[Any]] = []
    failed: list[tuple[int, StreamcheckError]] = []  # (index of the value, its error)
    for chan, values in side:
        check = _check(types, chan)
        checked: list[Any] = []
        try:
            for v in values:
                checked.append(check(v))
        except StreamcheckError as e:
            failed.append((len(checked), e))
        axes.append(checked)
    if failed and all(values for _, values in side):
        first = [e for b, e in failed if b == 0]
        raise first[0] if first else failed[-1][1]
    return axes


def _side_rows(side: tuple[tuple[str, tuple[Any, ...]], ...], ticks: int,
               types: Mapping[str, DataType]) -> tuple[Signature, list[list[tuple]]]:
    """A universe side's histories of `ticks` ticks (0 or 1) as rows: the
    signature that they share, and each one's rows of values, one row a
    tick, in the order of the product of the channels' value sets (at 0
    ticks, one empty history). A channel without a declared type reads as
    an untyped column. A channel named twice keeps its first place and
    takes its last values."""
    columns = {chan: k for k, (chan, _) in enumerate(side)}
    axes = _checked_axes(side, types) if ticks else [[] for _ in side]
    sig = tuple((chan, REAL, False) if types.get(chan) is None
                else (chan, types[chan], TimedStream(types[chan], tuple(axes[k])).conforms())
                for chan, k in columns.items())
    if not ticks:
        return sig, [[]]
    keep = list(columns.values())
    combos = itertools.product(*axes)
    if keep != list(range(len(side))):
        combos = (tuple(combo[k] for k in keep) for combo in combos)
    return sig, [[row] for row in combos]


def _element(sig: Signature, rows: list[tuple], types: Mapping[str, DataType]) -> ChannelHistory:
    """The history of a universe element from its rows."""
    columns = list(zip(*rows)) if rows else [()] * len(sig)
    return ChannelHistory({chan: TimedStream.of(types.get(chan) or _infer_type(list(col)), col)
                           for (chan, _, _), col in zip(sig, columns)}, len(rows))


def _images(gal: GaloisSpec, sig: Signature,
            rows: Sequence[tuple]) -> tuple[list[str], list[tuple], list[list[Any]]]:
    """The abstract channels that f maps concrete rows of the signature to,
    the image of each row, one value a channel, checked as `abstract_output`
    checks it, and f's values as it gave them, one column a channel. The
    first error of a row, in order, is raised: the map's, then its image's."""
    chans, cols, error = _f(gal, sig, rows)
    checks = [_check(gal.channel_types, chan) for chan in chans]
    # the images of the rows mapped before any that failed
    images = [tuple(check(col[t]) for check, col in zip(checks, cols))
              for t in range(len(cols[-1]))]
    if error is not None:
        raise error
    return chans, images, cols


def verify_galois(gal: GaloisSpec, element_cap: int = DEFAULT_UNIVERSE_CAP, *,
                  stats: dict | None = None) -> Optional[GaloisCounterexample]:
    """Decide the connection law f(T_c) subset of T_a  iff  T_c subset of g(T_a)
    for every subset pair of the bounded universe.

    Both sides distribute over unions of T_c and of T_a, so the law holds
    exactly when it holds for every pair of singletons {x}, {a}: x is a
    member of g(a) iff f(x) = a (an image outside the universe equals no a).
    The maps and `member` are per-tick, so at a horizon H >= 1 the law
    holds exactly when it holds on the one-tick histories (at H = 0, on the
    one empty history a side); a side of more than `element_cap` raises
    CapsExceededError before any is enumerated. The histories are decided
    as rows of values: f runs over every concrete row in one call. A
    declared `member` then runs over all |A|*|C| pairs in another. The
    adjoint of f is decided from f's images in |A|+|C| steps: x is in g(a)
    when the values f gives it equal a, value by value and before their
    type's check, on the abstract channels that f maps (as `g_membership`
    has it), so the concrete elements are grouped by those values, and
    each abstract element's group must be the set of elements that f maps
    to it. Only a counterexample's histories are built. It is
    the first failing pair in the order of T_a bitmasks: smallest abstract
    index, then concrete index. stats["pairs"], when `stats` is given,
    counts the pairs decided.
    """
    u = _universe(gal)
    ticks = min(u.horizon, 1)
    for name, side in (("abstract", u.abstract), ("concrete", u.concrete)):
        size = math.prod(len(values) ** ticks for _, values in side)
        if size > element_cap:
            raise CapsExceededError(
                f"{name} universe has {size} value tuples a tick, cap is {element_cap}",
                size, element_cap)
    types = gal.channel_types
    sig_a, abstract = _side_rows(u.abstract, ticks, types)
    sig_c, concrete = _side_rows(u.concrete, ticks, types)
    names = [chan for chan, _, _ in sig_a]
    chans: list[str] = []
    cols: list[list[Any]] = []
    # lifted f: image index (or None when the image escapes the universe)
    f_bit: list[Optional[int]] = [None] * len(concrete)
    if concrete:
        chans, images, cols = _images(gal, sig_c, [row for rows in concrete for row in rows])
        if sorted(chans) == sorted(names):  # else no image is an abstract element
            index = {tuple(rows): i for i, rows in enumerate(abstract)}
            pos = [chans.index(n) for n in names]
            keys = [tuple(image[p] for p in pos) for image in images]
            f_bit = [index.get(tuple(keys[j * ticks:(j + 1) * ticks]))
                     for j in range(len(concrete))]
    if gal.member is None:
        failed = _adjoint_failure(gal, sig_c, names, abstract, chans, cols, f_bit, ticks)
    else:
        from .codegen import membership_rows
        member = membership_rows(gal, sig_a, sig_c, abstract, concrete)
        failed = next(((i, j) for i, row in enumerate(member) for j, holds in enumerate(row)
                       if holds != (f_bit[j] == i)), None)
    if stats is not None:
        stats["pairs"] = len(abstract) * len(concrete)
    if failed is None:
        return None
    i, j = failed
    lhs = f_bit[j] == i
    return GaloisCounterexample((_element(sig_c, concrete[j], types),),
                                (_element(sig_a, abstract[i], types),), lhs, not lhs, u.horizon)


def _adjoint_failure(gal: GaloisSpec, sig_c: Signature, names: Sequence[str],
                     abstract: Sequence[list[tuple]], chans: Sequence[str],
                     cols: Sequence[list[Any]], f_bit: Sequence[Optional[int]],
                     ticks: int) -> Optional[tuple[int, int]]:
    """The first pair (i, j) of an abstract element, of channels `names`,
    and a concrete one, of signature `sig_c`, to whose rows (`ticks` an
    element) f gave the columns `cols` of channels `chans`, on which
    membership in the adjoint of f differs from f_bit[j] == i: the smallest
    i whose member set differs from the set of j that f maps to it, then the
    smallest j in which they differ. x_j is in g(a_i) when f's values equal
    a_i, by `==` value by value, on the channels of `_adjoint_entries`, as
    `g_membership` compares them."""
    if not abstract or not f_bit:
        return None
    shared = [chan for chan, _ in _adjoint_entries(gal, (n for n, _, _ in sig_c), names)]
    pos_a = [names.index(chan) for chan in shared]
    rows = list(zip(*(cols[chans.index(chan)] for chan in shared)))
    members: dict[tuple, list[int]] = {}  # by f's values on the shared channels
    for j in range(len(f_bit)):
        members.setdefault(tuple(rows[j * ticks:(j + 1) * ticks]), []).append(j)
    mapped: dict[int, list[int]] = {}
    for j, i in enumerate(f_bit):
        if i is not None:
            mapped.setdefault(i, []).append(j)
    for i, element in enumerate(abstract):
        key = tuple(tuple(row[p] for p in pos_a) for row in element)
        # a dict finds a key by identity before `==`: a value unequal to
        # itself (nan) equals nothing, so it makes a member of nothing
        held = members.get(key, []) if all(v == v for row in key for v in row) else []
        lhs = mapped.get(i, [])
        if held != lhs:
            return i, min(set(held).symmetric_difference(lhs))
    return None


# ---------------------------------------------------------------------------
# Parameterized concretizers


class ConcretizationWarning(UserWarning):
    pass


def ri_violated(conc: ConcretizerSpec) -> str:
    """The warning that the concretizer produced an input on which RI fails."""
    return f"concretizer {conc.name!r} produced an input violating RI"


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
    # the run goes before RI
    out, failure = _outputs(conc.component, [Table.of(inputs)])
    ri_ticks, failure = (None, failure) if ri is None else _relation(ri, [Table.of(ta)], out, failure)
    if failure is not None:
        raise failure[1]
    if ri_ticks is not None and not fold_stream(ri_ticks):
        warnings.warn(ri_violated(conc), ConcretizationWarning)
    return out[0].history()


def concretize_cases(conc: ConcretizerSpec, cases: Sequence[VectorCase],
                     fixed: Mapping[str, Any], ri: RelationSpec | None
                     ) -> tuple[list[tuple[Table, bool]], Failure]:
    """`concretize` of read cases whose parameters are all bound, by `fixed`
    values, each a value of its parameter's type, or else by the case's
    `#params` table. Returns each case's concrete inputs and whether RI
    holds on them (True without RI), up to the first case whose
    concretization fails, and that case's index and error (None when no
    case fails)."""
    channels = conc.component.interface.inputs
    names = [c.name for c in channels]
    params = [d.name for d in conc.params]
    problems: dict[tuple[str, ...], str] = {}  # by the header of the abstract table

    def problem(block: Block) -> str:
        """What a run finds wrong with the inputs `concretize` binds from an
        abstract table of the block's header: a parameter replaces an input
        of its name."""
        found = problems.get(block.names)
        if found is None:
            shape = dict(zip(block.names, block.types))
            shape.update((d.name, d.dtype) for d in conc.params)
            found = problems[block.names] = invalid_input(shape, channels)
        return found

    failure: Failure = next(((k, SimulationError(found)) for k, case in enumerate(cases)
                             if (found := problem(case.inputs.block))), None)
    # the concretizer's inputs of each case before it: tables of one block
    chunk = _upto(cases, failure)
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
    ends = list(itertools.accumulate(horizons, initial=0))
    tables = [Table(block, start, stop) for start, stop in zip(ends, ends[1:])]
    # the runs go before RI, whose ticks lie in the rows of the outputs
    out, failure = _outputs(conc.component, tables, failure)
    ri_ticks, failure = (None, failure) if ri is None else _relation(ri, abstract, out, failure)
    return [(t, ri_ticks is None or fold_stream(ri_ticks[t.start:t.stop]))
            for t in _upto(out, failure)], failure


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
