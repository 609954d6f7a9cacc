"""Message types and typed channels: what a model file declares.

The streams and histories that carry messages over time are in `histories`,
which a model load does not import.
"""

from __future__ import annotations

from typing import Any, Iterable

from .errors import TypeMismatchError
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


def enum_labels(types: Iterable[DataType]) -> dict[str, str]:
    """Every enumeration label of the types, bound to itself: how an
    expression reads a name that is a label."""
    return {label: label for t in types if t.kind == ENUM_KIND for label in t.labels}


class Channel(Record, frozen=True):
    """A typed, directed channel; `direction` is "input" or "output"."""

    _fields = ("name", "ctype", "direction")

    def __init__(self, name: str, ctype: DataType, direction: str = "input"):
        store(self, "name", name)
        store(self, "ctype", ctype)
        store(self, "direction", direction)
