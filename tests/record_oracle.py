"""The record classes as `dataclasses` defined them: the reference that
`test_records.py` compares the package's record classes against.

Each class is copied verbatim from the last definition as a dataclass,
down to its fields and `__post_init__`. The methods written by hand, which
the record classes keep as they were, are left out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from streamcheck.components import STRICT
from streamcheck.errors import TypeMismatchError
from streamcheck.exprs import TRUE
from streamcheck.streams import BOOL_KIND, ENUM_KIND, INT_KIND, REAL_KIND


# streams.py


@dataclass(frozen=True)
class DataType:
    """One of: boolean, bounded integer, 64-bit real, enumeration."""

    kind: str
    lo: int | None = None
    hi: int | None = None
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (BOOL_KIND, INT_KIND, REAL_KIND, ENUM_KIND):
            raise TypeMismatchError(f"unknown type kind {self.kind!r}")
        if self.kind == INT_KIND:
            if self.lo is None or self.hi is None or self.lo > self.hi:
                raise TypeMismatchError(f"bad integer bounds [{self.lo}..{self.hi}]")
        if self.kind == ENUM_KIND:
            if not self.labels:
                raise TypeMismatchError("enumeration needs at least one label")
            if len(set(self.labels)) != len(self.labels):
                raise TypeMismatchError("enumeration labels must be distinct")


@dataclass(frozen=True)
class TimedStream:
    """A finite prefix of a timed stream: one typed message per tick."""

    elem_type: DataType
    values: tuple[Any, ...]

    # Whether the values conform (see `conforms`), once known. Kept on the
    # instance, not as a field, so it takes no part in equality.
    _conforms = None


@dataclass(frozen=True)
class Channel:
    """A typed, directed channel."""

    name: str
    ctype: DataType
    direction: str = "input"  # "input" | "output"


@dataclass(repr=False)
class Violation:
    """A channel whose stream does not conform, and why."""

    channel: str
    cause: str


@dataclass
class ChannelHistory:
    """An assignment of equally long timed streams to channel names."""

    streams: Mapping[str, TimedStream]
    horizon: int = field(default=-1)

    def __post_init__(self):
        horizons = {s.horizon for s in self.streams.values()}
        if len(horizons) > 1:
            raise TypeMismatchError(f"streams disagree on horizon: {sorted(horizons)}")
        n = horizons.pop() if horizons else 0
        if self.horizon == -1:
            object.__setattr__(self, "horizon", n)
        elif self.streams and self.horizon != n:
            raise TypeMismatchError(f"declared horizon {self.horizon} != stream horizon {n}")


# errors.py


@dataclass
class Diagnostic:
    """A located parse/validation message."""

    line: int
    column: int
    message: str


# exprs.py


@dataclass(frozen=True)
class Lit:
    """A literal value."""

    value: Any


@dataclass(frozen=True)
class Name:
    """A channel, variable or enumeration label, read by name."""

    ident: str


@dataclass(frozen=True)
class Unary:
    """`-operand` or `not operand`."""

    op: str  # "-" | "not"
    operand: Expr


@dataclass(frozen=True)
class Binary:
    """`left op right`."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call:
    """A call of one of FUNCTIONS."""

    func: str
    args: tuple[Expr, ...]


# components.py


@dataclass(frozen=True)
class SyntacticInterface:
    """The typed input and output channel sets of a component."""

    inputs: tuple[Channel, ...]
    outputs: tuple[Channel, ...]

    def __post_init__(self):
        names = [c.name for c in self.inputs] + [c.name for c in self.outputs]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise TypeMismatchError(f"duplicate channel names: {sorted(dupes)}")


@dataclass(frozen=True)
class VariableDecl:
    """A variable of an automaton, with its type and initial value."""

    name: str
    dtype: DataType
    init: Any


@dataclass(frozen=True)
class Transition:
    """A guarded step between control states, with its output
    assignments and variable updates."""

    source: str
    target: str
    guard: Expr = TRUE
    outputs: tuple[tuple[str, Expr], ...] = ()
    updates: tuple[tuple[str, Expr], ...] = ()
    label: str | None = None


@dataclass(frozen=True)
class AutomatonSpec:
    """An atomic component: a state machine over its interface."""

    name: str
    interface: SyntacticInterface
    states: tuple[str, ...]
    initial: str
    transitions: tuple[Transition, ...] = ()
    variables: tuple[VariableDecl, ...] = ()
    output_init: Mapping[str, Any] = field(default_factory=dict)
    causality: str = STRICT
    total: bool = False


@dataclass(frozen=True)
class Endpoint:
    """A wiring end: (component, channel); component None means the boundary."""

    component: str | None
    channel: str


@dataclass(frozen=True)
class Connector:
    """A wire from a producer endpoint to a consumer endpoint."""

    producer: Endpoint
    consumer: Endpoint


@dataclass(frozen=True)
class CompositeSpec:
    """A component made of named subcomponents and the wiring between them."""

    name: str
    interface: SyntacticInterface
    subcomponents: tuple[tuple[str, "ComponentSpec"], ...]
    wiring: tuple[Connector, ...]


@dataclass
class AutomatonState:
    """An atom's configuration: its control state, its variables and the
    outputs it computed at the previous tick."""

    state: str
    variables: tuple[tuple[str, Any], ...]
    pending: tuple[tuple[str, Any], ...]


@dataclass
class CompositeState:
    """A composite's configuration: the state of each atom, by path."""

    substates: tuple[tuple[str, AutomatonState], ...]


@dataclass
class CausalityCounterexample:
    """Two input histories that agree through `tick` and lead to
    different outputs within the checked prefix."""

    tick: int
    input_a: ChannelHistory
    input_b: ChannelHistory
    output_a: ChannelHistory
    output_b: ChannelHistory


# declarations.py


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


# dsl.py


@dataclass
class RefinementSpec:
    """Named binding of an abstract/concrete pair with its relating artifacts."""

    name: str
    abstract: str | None = None
    concrete: str | None = None
    ri: str | None = None
    ro: str | None = None
    galois: str | None = None
    concretizer: str | None = None


@dataclass
class ModelDocument:
    """The named types, components, relations, Galois connections,
    concretizers and refinements of one or more model files."""

    types: dict[str, DataType] = field(default_factory=dict)
    components: dict[str, ComponentSpec] = field(default_factory=dict)
    relations: dict[str, RelationSpec] = field(default_factory=dict)
    galois: dict[str, GaloisSpec] = field(default_factory=dict)
    concretizers: dict[str, ConcretizerSpec] = field(default_factory=dict)
    refinements: dict[str, RefinementSpec] = field(default_factory=dict)


@dataclass(repr=False)
class ParseResult:
    """A parsed document and its diagnostics; it loaded when there are none."""

    document: ModelDocument
    diagnostics: list[Diagnostic]


# testcases.py


@dataclass
class ExpectedResult:
    """One or more complete output histories; matching any group passes."""

    groups: tuple[ChannelHistory, ...]


@dataclass
class TestCase:
    """A test case as histories: its input, its expected output groups
    and its parameter streams."""

    __test__ = False  # keep pytest from collecting this as a test class

    name: str
    input: TestInput
    expected: ExpectedResult
    params: Mapping[str, TimedStream] = field(default_factory=dict)


@dataclass
class Divergence:
    """The first tick and channel at which an output differs from the
    expected one."""

    tick: int
    channel: str
    expected: Any
    actual: Any


@dataclass(frozen=True, repr=False)
class Verdict:
    """A case's status. A failure carries its first divergence and an error,
    in `log`, what went wrong; a pass for want of expected groups says so."""

    status: str  # pass | fail | error
    first_divergence: Optional[Divergence] = None
    log: tuple[str, ...] = ()


@dataclass(repr=False)
class SuiteEntry:
    """One case's verdict in a suite report."""

    case: str
    verdict: Verdict


@dataclass(repr=False)
class SuiteReport:
    """The verdicts of a suite's cases, in order."""

    entries: tuple[SuiteEntry, ...]


# abstraction.py


@dataclass(repr=False)
class CorrespondenceResult:
    """Whether RI held on a pair's inputs and RO on its outputs, tick by
    tick, and whether the pair corresponds (RI implies RO)."""

    ri_holds: bool
    ro_holds: bool
    corresponding: bool
    ri_stream: tuple[bool, ...] = ()
    ro_stream: tuple[bool, ...] = ()
    status: str = "ok"  # ok | error
    diagnostics: tuple[str, ...] = ()
    abstract_output: ChannelHistory | None = None
    concrete_output: ChannelHistory | None = None


@dataclass
class GaloisCounterexample:
    """Concrete and abstract sets of histories on which the law fails."""

    concrete_set: tuple[ChannelHistory, ...]
    abstract_set: tuple[ChannelHistory, ...]
    lhs: bool  # f(T_c) subset of T_a
    rhs: bool  # T_c subset of g(T_a)
    horizon: int = 1  # of the universe: each value of the one-tick sets held that long


@dataclass(repr=False)
class FinvViolation:
    """A sampled parameter binding and abstract input whose concretized
    input lies outside g of that abstract input."""

    params: Mapping[str, Any]
    abstract_input: ChannelHistory
    concrete_input: ChannelHistory
