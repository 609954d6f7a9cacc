"""Finite-horizon timed streams, typed messages and channel histories.

Streams carry exactly one message per tick; ticks are 1-based. Infinite
streams are represented by finite prefixes up to an explicit horizon, which
is all the downstream semantics ever inspect.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from .errors import TickRangeError, TypeMismatchError
from .records import Record, store

BOOL_KIND = "bool"
INT_KIND = "int"
REAL_KIND = "real"
ENUM_KIND = "enum"


class DataType(Record, frozen=True):
    """One of: boolean, bounded integer, 64-bit real, enumeration."""

    _fields = ("kind", "lo", "hi", "labels")

    def __init__(self, kind: str, lo: int | None = None, hi: int | None = None,
                 labels: tuple[str, ...] = ()):
        store(self, "kind", kind)
        store(self, "lo", lo)
        store(self, "hi", hi)
        store(self, "labels", labels)
        if kind not in (BOOL_KIND, INT_KIND, REAL_KIND, ENUM_KIND):
            raise TypeMismatchError(f"unknown type kind {kind!r}")
        if kind == INT_KIND:
            if lo is None or hi is None or lo > hi:
                raise TypeMismatchError(f"bad integer bounds [{lo}..{hi}]")
        if kind == ENUM_KIND:
            if not labels:
                raise TypeMismatchError("enumeration needs at least one label")
            if len(set(labels)) != len(labels):
                raise TypeMismatchError("enumeration labels must be distinct")

    def contains(self, value: Any) -> bool:
        if self.kind == BOOL_KIND:
            return isinstance(value, bool)
        if self.kind == INT_KIND:
            return isinstance(value, int) and not isinstance(value, bool) and self.lo <= value <= self.hi
        if self.kind == REAL_KIND:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        return isinstance(value, str) and value in self.labels

    def check(self, value: Any) -> Any:
        """Validate and normalize a message value; raises TypeMismatchError."""
        if not self.contains(value):
            raise TypeMismatchError(f"value {value!r} is not a valid {self.to_text()}")
        if self.kind == REAL_KIND:
            return float(value)
        return value

    def to_text(self) -> str:
        if self.kind == BOOL_KIND:
            return "bool"
        if self.kind == REAL_KIND:
            return "real"
        if self.kind == INT_KIND:
            return f"int[{self.lo}..{self.hi}]"
        return "enum { " + ", ".join(self.labels) + " }"


BOOL = DataType(BOOL_KIND)
REAL = DataType(REAL_KIND)


def bounded_int(lo: int, hi: int) -> DataType:
    return DataType(INT_KIND, lo=lo, hi=hi)


def enumeration(*labels: str) -> DataType:
    return DataType(ENUM_KIND, labels=tuple(labels))


def literal_text(value: Any) -> str:
    """A message value as model and vector files write it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def enum_labels(types: Iterable[DataType]) -> dict[str, str]:
    """Every enumeration label of the types, bound to itself: how an
    expression reads a name that is a label."""
    return {label: label for t in types if t.kind == ENUM_KIND for label in t.labels}


class TimedStream(Record, frozen=True):
    """A finite prefix of a timed stream: one typed message per tick."""

    _fields = ("elem_type", "values")

    # Whether the values conform (see `conforms`), once known. Kept on the
    # instance, not as a field, so it takes no part in equality.
    _conforms = None

    def __init__(self, elem_type: DataType, values: tuple[Any, ...]):
        store(self, "elem_type", elem_type)
        store(self, "values", values)

    @classmethod
    def of(cls, elem_type: DataType, values: Iterable[Any]) -> "TimedStream":
        checked = tuple(elem_type.check(v) for v in values)
        return cls(elem_type, checked)

    @classmethod
    def conforming(cls, elem_type: DataType, values: tuple[Any, ...]) -> "TimedStream":
        """A stream of values that its maker knows to conform, recorded as such."""
        stream = cls(elem_type, values)
        store(stream, "_conforms", True)
        return stream

    def conforms(self) -> bool:
        """Whether every value is one that elem_type.check accepts and returns
        unchanged. The values never change, so it is decided once per stream."""
        known = self._conforms
        if known is None:
            known = _all_conform(self.elem_type, self.values)
            store(self, "_conforms", known)
        return known

    @property
    def horizon(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def at(self, t: int) -> Any:
        """Message communicated at tick t (1-based)."""
        if not 1 <= t <= len(self.values):
            raise TickRangeError(t, len(self.values))
        return self.values[t - 1]

    def prefix(self, t: int) -> "TimedStream":
        """The first t messages, as a stream of the same element type."""
        if not 0 <= t <= len(self.values):
            raise TickRangeError(t, len(self.values))
        return TimedStream(self.elem_type, self.values[:t])


def _all_conform(dtype: DataType, values: Sequence[Any]) -> bool:
    types = set(map(type, values))
    if dtype.kind == BOOL_KIND:
        return types <= {bool}
    if dtype.kind == INT_KIND:
        return types <= {int} and (not values or dtype.lo <= min(values) and max(values) <= dtype.hi)
    if dtype.kind == REAL_KIND:
        return types <= {float}
    return types <= {str} and set(values).issubset(dtype.labels)


class Channel(Record, frozen=True):
    """A typed, directed channel; `direction` is "input" or "output"."""

    _fields = ("name", "ctype", "direction")

    def __init__(self, name: str, ctype: DataType, direction: str = "input"):
        store(self, "name", name)
        store(self, "ctype", ctype)
        store(self, "direction", direction)


class Violation(Record, repr=False):
    """A channel whose stream does not conform, and why."""

    _fields = ("channel", "cause")

    def __init__(self, channel: str, cause: str):
        self.channel, self.cause = channel, cause

    def __str__(self) -> str:
        return f"{self.channel}: {self.cause}"


class ChannelHistory(Record):
    """An assignment of equally long timed streams to channel names."""

    _fields = ("streams", "horizon")

    def __init__(self, streams: Mapping[str, TimedStream], horizon: int = -1):
        self.streams, self.horizon = streams, horizon
        horizons = {s.horizon for s in streams.values()}
        if len(horizons) > 1:
            raise TypeMismatchError(f"streams disagree on horizon: {sorted(horizons)}")
        n = horizons.pop() if horizons else 0
        if horizon == -1:
            self.horizon = n
        elif streams and horizon != n:
            raise TypeMismatchError(f"declared horizon {horizon} != stream horizon {n}")

    def at(self, channel: str, t: int) -> Any:
        return self.streams[channel].at(t)

    def tick(self, t: int) -> dict[str, Any]:
        """All channel values at tick t."""
        return {c: s.at(t) for c, s in self.streams.items()}

    def prefix(self, t: int) -> "ChannelHistory":
        return ChannelHistory({c: s.prefix(t) for c, s in self.streams.items()}, t)

    def signature(self) -> tuple[tuple[str, DataType, bool], ...]:
        """(name, type, whether the values conform) of each stream."""
        return tuple((n, s.elem_type, s.conforms()) for n, s in self.streams.items())

    def merged(self, other: "ChannelHistory") -> "ChannelHistory":
        overlap = set(self.streams) & set(other.streams)
        if overlap:
            raise TypeMismatchError(f"histories overlap on channels {sorted(overlap)}")
        return ChannelHistory({**self.streams, **other.streams})


class Block:
    """Equally long columns, one per channel, in the order of `names`.

    A block that the vector reader converts holds values that conform to
    their channels' types, read in from tables that share a header. A block
    made from a history built in Python (`Block.of`) keeps that history, so
    that a run validates it first, and its columns conform only where its
    streams do.
    """

    __slots__ = ("names", "types", "columns", "history", "channels", "_orders")

    def __init__(self, names: Iterable[str], types: Iterable[DataType],
                 columns: Sequence[Sequence[Any]], history: ChannelHistory | None = None):
        self.names, self.types, self.columns = tuple(names), tuple(types), columns
        self.history = history
        self.channels = frozenset(self.names)
        self._orders: dict[tuple[str, ...], list[Sequence[Any]]] = {}

    @classmethod
    def of(cls, h: ChannelHistory) -> "Block":
        streams = h.streams.values()
        return cls(h.streams, [s.elem_type for s in streams], [s.values for s in streams], h)

    def signature(self) -> tuple[tuple[str, DataType, bool], ...]:
        """(name, type, whether the values conform) of each column."""
        if self.history is None:
            return tuple((n, t, True) for n, t in zip(self.names, self.types))
        return self.history.signature()

    def order(self, names: tuple[str, ...]) -> list[Sequence[Any]]:
        """The columns of the named channels, in that order."""
        columns = self._orders.get(names)
        if columns is None:
            index = {n: k for k, n in enumerate(self.names)}
            columns = self._orders[names] = [self.columns[index[n]] for n in names]
        return columns


class Table:
    """Rows start..stop of a block: one table of a vector file, kept as a
    reference into the columns its batch was converted into."""

    __slots__ = ("block", "start", "stop")

    def __init__(self, block: Block, start: int, stop: int):
        self.block, self.start, self.stop = block, start, stop

    @classmethod
    def of(cls, h: ChannelHistory) -> "Table":
        return cls(Block.of(h), 0, h.horizon)

    @property
    def horizon(self) -> int:
        return self.stop - self.start

    def columns(self, names: tuple[str, ...] | None = None) -> list[Sequence[Any]]:
        """The table's columns, of the named channels (default: all)."""
        start, stop = self.start, self.stop
        block = self.block
        return [col[start:stop] for col in (block.columns if names is None else block.order(names))]

    def history(self) -> ChannelHistory:
        block = self.block
        if block.history is not None:  # a table made from a history spans it
            return block.history
        return ChannelHistory({n: TimedStream.conforming(t, tuple(col)) for n, t, col
                               in zip(block.names, block.types, self.columns())}, self.horizon)


def validate_history(h: ChannelHistory, channels: Sequence[Channel]) -> list[Violation]:
    """Check a history against a channel set; returns [] when well formed."""
    violations = []
    declared = {c.name: c for c in channels}
    for c in channels:
        s = h.streams.get(c.name)
        if s is None:
            violations.append(Violation(c.name, "unbound channel"))
        elif s.elem_type is not c.ctype and s.elem_type != c.ctype:
            violations.append(Violation(
                c.name, f"type mismatch: stream of {s.elem_type.to_text()} bound to {c.ctype.to_text()} channel"))
    for name, s in h.streams.items():
        if name not in declared:
            violations.append(Violation(name, "not a declared channel"))
        elif s.horizon != h.horizon:
            violations.append(Violation(name, f"horizon {s.horizon} != {h.horizon}"))
    return violations
