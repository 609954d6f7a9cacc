"""Finite-horizon timed streams and channel histories.

Streams carry exactly one message per tick; ticks are 1-based. Infinite
streams are represented by finite prefixes up to an explicit horizon, which
is all the downstream semantics ever inspect. A table, read from a vector
file or made from a history built in Python, is a row range of typed
columns that are flagged as conforming or not (`Block`, `Table`).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from .errors import TickRangeError, TypeMismatchError
from .records import Record, store
from .streams import BOOL_KIND, INT_KIND, REAL_KIND, Channel, DataType


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
    """Equally long columns, one per channel, in the order of `names`, and
    whether the values of each column conform to its type (`conforms`).

    The vector reader converts tables that share a header into a block
    whose columns all conform. A block made from a history built in Python
    (`Block.of`) takes each stream's `TimedStream.conforms`, so that a run
    checks only the columns that do not conform.
    """

    __slots__ = ("names", "types", "columns", "conforms", "channels", "_orders")

    def __init__(self, names: Iterable[str], types: Iterable[DataType],
                 columns: Sequence[Sequence[Any]], conforms: Iterable[bool] | None = None):
        self.names, self.types, self.columns = tuple(names), tuple(types), columns
        self.conforms = (True,) * len(self.names) if conforms is None else tuple(conforms)
        self.channels = frozenset(self.names)
        self._orders: dict[tuple[str, ...], list[Sequence[Any]]] = {}

    @classmethod
    def of(cls, h: ChannelHistory) -> "Block":
        streams = h.streams.values()
        return cls(h.streams, [s.elem_type for s in streams], [s.values for s in streams],
                   [s.conforms() for s in streams])

    def signature(self) -> tuple[tuple[str, DataType, bool], ...]:
        """(name, type, whether the values conform) of each column."""
        return tuple(zip(self.names, self.types, self.conforms))

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
        return ChannelHistory({n: (TimedStream.conforming if ok else TimedStream)(t, tuple(col))
                               for (n, t, ok), col in zip(self.block.signature(), self.columns())},
                              self.horizon)


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


def invalid_input(shape: Mapping[str, DataType], channels: Sequence[Channel]) -> str:
    """What `validate_history` finds in inputs of the shape's channels and
    types bound to `channels`, as the message of the run it fails, else ""."""
    history = ChannelHistory({n: TimedStream(t, ()) for n, t in shape.items()}, 0)
    violations = validate_history(history, channels)
    return "invalid input history: " + "; ".join(map(str, violations)) if violations else ""
