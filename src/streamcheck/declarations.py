"""The declarations that relate an abstract and a concrete component: RI/RO
relations, Galois connections with their bounded universes, and
parameterized concretizers. They are what loading a model builds;
`abstraction` checks them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from .components import ComponentSpec
from .errors import EvaluationError, TypeMismatchError
from .exprs import Expr, free_names
from .streams import DataType, enum_labels


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


@dataclass
class Universe:
    """The values of each channel at a tick, and the horizon of histories."""

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
        """The map entries that read only the available channels and labels."""
        enums = enum_labels(self.channel_types.values()).keys()
        entries = [(chan, e) for chan, e in self.f_map if free_names(e) <= (available | enums)]
        chans = [chan for chan, _ in entries]
        for chan in chans:
            if chans.count(chan) > 1:
                raise EvaluationError(f"galois {self.name!r}: two abstraction map entries "
                                      f"apply to channel {chan!r}")
        return entries


@dataclass
class ParamDecl:
    """A typed concretizer parameter."""

    name: str
    dtype: DataType


@dataclass
class ConcretizerSpec:
    """A component (I_a + params -> I_c) realizing one concretization family member."""

    name: str
    component: ComponentSpec
    params: tuple[ParamDecl, ...] = ()
