"""Abstract/concrete correspondence checking.

Covers the RI/RO relation evaluation, end-to-end correspondence of a test
pair (RI on inputs implies RO on outputs), abstraction/concretization maps
with bounded-universe verification of the connection law, and parameterized
concretizers.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional

from .components import ComponentSpec, run
from .errors import (CapsExceededError, EvaluationError, StreamcheckError,
                     TypeMismatchError, UnboundParameterError)
from .exprs import Expr, free_names
from .streams import BOOL, ChannelHistory, DataType, TimedStream, enum_labels

RI = "RI"
RO = "RO"

DEFAULT_UNIVERSE_CAP = 12


@dataclass(frozen=True)
class RelationSpec:
    """A per-tick predicate (or checker component) over paired histories."""

    name: str
    side: str  # RI | RO
    expr: Expr | None = None
    checker: ComponentSpec | None = None

    def __post_init__(self):
        if (self.expr is None) == (self.checker is None):
            raise TypeMismatchError("relation needs exactly one of expr / checker")


def fold_stream(ticks: Iterable[bool]) -> bool:
    """Overall verdict of a bool stream: a single false fails the comparison."""
    return all(ticks)


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
    # a channel shadows an enumeration label of the same name
    from .codegen import relation_ticks
    ticks = relation_ticks(rel, a, c)
    return fold_stream(ticks), ticks


@dataclass(frozen=True)
class CorrespondenceResult:
    ri_holds: bool
    ro_holds: bool
    corresponding: bool
    ri_stream: tuple[bool, ...] = ()
    ro_stream: tuple[bool, ...] = ()
    status: str = "ok"  # ok | error
    diagnostics: tuple[str, ...] = ()
    abstract_output: ChannelHistory | None = None
    concrete_output: ChannelHistory | None = None


def check_correspondence(spec_a: ComponentSpec, spec_c: ComponentSpec,
                         ri: RelationSpec, ro: RelationSpec,
                         ta: ChannelHistory, tc: ChannelHistory) -> CorrespondenceResult:
    """RI(ta, tc) -> RO(run(spec_a, ta), run(spec_c, tc))."""
    diagnostics: list[str] = []
    try:
        ri_holds, ri_stream = eval_relation(ri, ta, tc)
        out_a = run(spec_a, ta)
        out_c = run(spec_c, tc)
        ro_holds, ro_stream = eval_relation(ro, out_a, out_c)
    except StreamcheckError as e:
        return CorrespondenceResult(False, False, False, status="error",
                                    diagnostics=(str(e),))
    if not ri_holds:
        diagnostics.append("RI does not hold on the inputs; correspondence is vacuous")
    corresponding = (not ri_holds) or ro_holds
    return CorrespondenceResult(ri_holds, ro_holds, corresponding,
                                tuple(ri_stream), tuple(ro_stream),
                                diagnostics=tuple(diagnostics),
                                abstract_output=out_a, concrete_output=out_c)


# ---------------------------------------------------------------------------
# Galois connections


@dataclass(frozen=True)
class Universe:
    """Bounded enumeration domain for exhaustive Galois checks."""

    abstract: tuple[tuple[str, tuple[Any, ...]], ...]
    concrete: tuple[tuple[str, tuple[Any, ...]], ...]
    horizon: int = 1


@dataclass(frozen=True)
class GaloisSpec:
    """Element-wise abstraction map plus a concretization membership predicate.

    `f_map` gives, per abstract channel, an expression over concrete channel
    values. When `member` is omitted, membership defaults to the adjoint of
    f: a concrete history belongs to g(abstract) iff f maps it to exactly the
    abstract values, tick by tick.
    """

    name: str
    f_map: tuple[tuple[str, Expr], ...]
    member: Expr | None = None
    universe: Universe | None = None
    abstract_component: str | None = None
    concrete_component: str | None = None
    channel_types: Mapping[str, DataType] = field(default_factory=dict)

    def f_entries_for(self, available: set[str]) -> list[tuple[str, Expr]]:
        enums = enum_labels(self.channel_types.values()).keys()
        return [(chan, e) for chan, e in self.f_map
                if free_names(e) <= (available | enums)]


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
    from .streams import REAL, bounded_int
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
    axes = []
    chans = [chan for chan, _ in side]
    for chan, values in side:
        axes.extend([list(values)] * horizon)
    elements = []
    for combo in itertools.product(*axes):
        streams = {}
        for i, chan in enumerate(chans):
            vals = combo[i * horizon:(i + 1) * horizon]
            dtype = types.get(chan) or _infer_type(list(vals))
            streams[chan] = TimedStream.of(dtype, vals)
        elements.append(ChannelHistory(streams, horizon))
    return elements


@dataclass(frozen=True)
class GaloisCounterexample:
    concrete_set: tuple[ChannelHistory, ...]
    abstract_set: tuple[ChannelHistory, ...]
    lhs: bool  # f(T_c) subset of T_a
    rhs: bool  # T_c subset of g(T_a)

    def __str__(self) -> str:
        def fmt(hs):
            return "{" + ", ".join(
                "(" + ", ".join(f"{c}={list(h.streams[c].values)}" for c in sorted(h.streams)) + ")"
                for h in hs) + "}"
        return (f"f(T_c) subset-of T_a is {self.lhs} but T_c subset-of g(T_a) is "
                f"{self.rhs} for T_c={fmt(self.concrete_set)}, T_a={fmt(self.abstract_set)}")


def universe_elements(gal: GaloisSpec) -> tuple[list[ChannelHistory], list[ChannelHistory]]:
    if gal.universe is None:
        raise EvaluationError(f"galois {gal.name!r} declares no bounded universe")
    u = gal.universe
    return (_side_elements(u.abstract, u.horizon, gal.channel_types),
            _side_elements(u.concrete, u.horizon, gal.channel_types))


def verify_galois(gal: GaloisSpec, element_cap: int = DEFAULT_UNIVERSE_CAP, *,
                  stats: dict | None = None) -> Optional[GaloisCounterexample]:
    """Decide the connection law f(T_c) subset of T_a  iff  T_c subset of g(T_a)
    for every subset pair of the bounded universe.

    Both sides distribute over unions of T_c and of T_a, so the law holds
    exactly when it holds for every pair of singletons {x}, {a}: x is a
    member of g(a) iff f(x) = a (an image outside the universe equals no a).
    That takes |A|*|C| comparisons, not 2^|A| subsets. The counterexample is
    the pair of singletons with the smallest abstract index, then the
    smallest concrete index, which is the first failing pair in the order of
    T_a bitmasks. When `stats` is given, stats["pairs"] is set to the number
    of element pairs decided.

    A side has prod |values|^horizon elements. More than `element_cap` raise
    CapsExceededError before any is built, and so does a horizon above it: a
    side whose channels hold one value each has one element however long.
    """
    u = gal.universe
    if u is not None:
        # from the cap's bit length on, a channel of two values or more
        # exceeds the cap alone: a larger exponent only builds a larger number
        h = min(u.horizon, element_cap.bit_length())
        for name, side in (("abstract", u.abstract), ("concrete", u.concrete)):
            size = math.prod(len(values) ** h for _, values in side)
            if size > element_cap:
                count = size if h == u.horizon else f"more than {element_cap}"
                raise CapsExceededError(
                    f"{name} universe has {count} elements, cap is {element_cap}",
                    size, element_cap)
        if u.horizon > element_cap:
            raise CapsExceededError(f"universe horizon {u.horizon} exceeds cap {element_cap}",
                                    u.horizon, element_cap)
    abs_elems, conc_elems = universe_elements(gal)

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
                return GaloisCounterexample((x,), (a,), lhs=lhs, rhs=member[i][j])
    return None


# ---------------------------------------------------------------------------
# Parameterized concretizers


@dataclass(frozen=True)
class ParamDecl:
    name: str
    dtype: DataType


@dataclass(frozen=True)
class ConcretizerSpec:
    """A component (I_a + params -> I_c) realizing one concretization family member."""

    name: str
    component: ComponentSpec
    params: tuple[ParamDecl, ...] = ()


class ConcretizationWarning(UserWarning):
    pass


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
    result = run(conc.component, inputs, horizon)
    if ri is not None:
        holds, _ = eval_relation(ri, ta, result)
        if not holds:
            warnings.warn(f"concretizer {conc.name!r} produced an input violating RI",
                          ConcretizationWarning)
    return result


@dataclass(frozen=True)
class FinvViolation:
    params: Mapping[str, Any]
    abstract_input: ChannelHistory
    concrete_input: ChannelHistory


def check_finv_in_g(gal: GaloisSpec, conc: ConcretizerSpec,
                    samples: Iterable[tuple[Mapping[str, Any], ChannelHistory]]
                    ) -> Optional[FinvViolation]:
    """For each sampled (p, ta): concretize and require g-membership."""
    for p, ta in samples:
        tc = concretize(conc, p, ta)
        if not g_membership(gal, ta, tc):
            return FinvViolation(dict(p), ta, tc)
    return None
