"""The declarations that relate an abstract and a concrete component: RI/RO
relations, Galois connections with their bounded universes, and
parameterized concretizers. They are what loading a model builds;
`abstraction` checks them.
"""

from __future__ import annotations

from typing import Any, Mapping

from .components import ComponentSpec
from .errors import EvaluationError, TypeMismatchError
from .exprs import Expr, free_names
from .records import FRESH, Record, store
from .streams import DataType, enum_labels


class RelationSpec(Record, frozen=True):
    """A per-tick predicate (or checker component) over paired histories,
    on the RI or the RO `side`."""

    _fields = ("name", "side", "expr", "checker")

    def __init__(self, name: str, side: str, expr: Expr | None = None,
                 checker: ComponentSpec | None = None):
        store(self, "name", name)
        store(self, "side", side)
        store(self, "expr", expr)
        store(self, "checker", checker)
        if (expr is None) == (checker is None):
            raise TypeMismatchError("relation needs exactly one of expr / checker")


class Universe(Record):
    """The values of each channel at a tick, and the horizon of histories."""

    _fields = ("abstract", "concrete", "horizon")

    def __init__(self, abstract: tuple[tuple[str, tuple[Any, ...]], ...],
                 concrete: tuple[tuple[str, tuple[Any, ...]], ...], horizon: int = 1):
        self.abstract, self.concrete, self.horizon = abstract, concrete, horizon


class GaloisSpec(Record, frozen=True):
    """Element-wise abstraction map plus a concretization membership predicate.

    `f_map` gives, per abstract channel, an expression over concrete channel
    values. When `member` is omitted, membership defaults to the adjoint of
    f: a concrete history belongs to g(abstract) iff f maps it to exactly the
    abstract values, tick by tick.
    """

    _fields = ("name", "f_map", "member", "universe", "abstract_component",
               "concrete_component", "channel_types")

    def __init__(self, name: str, f_map: tuple[tuple[str, Expr], ...], member: Expr | None = None,
                 universe: Universe | None = None, abstract_component: str | None = None,
                 concrete_component: str | None = None,
                 channel_types: Mapping[str, DataType] = FRESH):
        store(self, "name", name)
        store(self, "f_map", f_map)
        store(self, "member", member)
        store(self, "universe", universe)
        store(self, "abstract_component", abstract_component)
        store(self, "concrete_component", concrete_component)
        store(self, "channel_types", {} if channel_types is FRESH else channel_types)

    def f_entries_for(self, available: set[str]) -> list[tuple[str, Expr]]:
        """The map entries that read only the available channels and labels."""
        enums = enum_labels(self.channel_types.values()).keys()
        entries = [(chan, e) for chan, e in self.f_map if free_names(e) <= (available | enums)]
        chans = [chan for chan, _ in entries]
        for chan in chans:
            if chans.count(chan) > 1:
                raise EvaluationError(f"galois {self.name!r}: two abstraction map entries "
                                      f"apply to channel {chan!r}")
        return entries


class ParamDecl(Record):
    """A typed concretizer parameter."""

    _fields = ("name", "dtype")

    def __init__(self, name: str, dtype: DataType):
        self.name, self.dtype = name, dtype


class ConcretizerSpec(Record):
    """A component (I_a + params -> I_c) realizing one concretization family member."""

    _fields = ("name", "component", "params")

    def __init__(self, name: str, component: ComponentSpec, params: tuple[ParamDecl, ...] = ()):
        self.name, self.component, self.params = name, component, params
