"""The shared base of the toolkit's record classes.

A record class names its fields, in order, in `_fields`, and writes its
own `__init__`, which stores and checks them. The base compares two
records of one class by the tuples of their field values, so that a value
held by both compares equal even when it is nan. The class flags give the
rest, all from functions defined once here:

- `frozen=True`: assigning or deleting an attribute raises AttributeError,
  and the record hashes as the tuple of its field values. Other records
  are not hashable. A frozen record's `__init__` sets its fields with
  `store`.
- `repr=False`: the record keeps `object`'s repr instead of
  `Name(field=value, ...)`.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any

# The default of a field that holds a new empty dict in each record built
# without it.
FRESH: Any = object()

# Sets an attribute of a frozen record, past its `__setattr__`. Writing to
# the record's `__dict__` instead takes half the time once, but on CPython
# 3.11 every later attribute read of that record is then slower.
store = object.__setattr__


def _assign(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _hash(self) -> int:
    return hash(self._values(self))


def _repr(self) -> str:
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
    return f"{self.__class__.__qualname__}({shown})"


class Record:
    """A record of the fields that its class names in `_fields`."""

    _fields: tuple[str, ...]

    def __init_subclass__(cls, frozen: bool = False, repr: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        # the field values as a tuple, also of a record of one field
        cls._values = get if len(cls._fields) > 1 else staticmethod(lambda record: (get(record),))
        if frozen:
            cls.__setattr__, cls.__delattr__, cls.__hash__ = _assign, _delete, _hash
        if repr:
            cls.__repr__ = _repr

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented
