"""Test-cases, execution against components, and verdicts.

A suite is judged from the columns its vector file was converted into: all
its cases run in one call of the compiled simulator, over the rows of their
input tables (`simulator.run_tables`), and each case's outputs are compared
with each expected table's columns as tuples. `VectorCase` is a case as the
reader leaves it, one `histories.Table` per table. `TestCase` and the
per-case functions (`execute_test`, `compare_histories`, `suite_run`) take
histories built in Python and go through the same code, after the checks
that `run` makes.
"""

from __future__ import annotations

from operator import attrgetter, eq
from typing import Any, Mapping, NamedTuple, Optional, Sequence

from .components import ComponentSpec
from .errors import StreamcheckError
from .records import FRESH, Record, store
from .simulator import run_tables
from .histories import ChannelHistory, Table, TimedStream
from .streams import REAL_KIND

PASS = "pass"
FAIL = "fail"
ERROR = "error"

# A test-input is just a channel history over the component's input channels.
TestInput = ChannelHistory


class ExpectedResult(Record):
    """One or more complete output histories; matching any group passes."""

    _fields = ("groups",)

    def __init__(self, groups: tuple[ChannelHistory, ...]):
        self.groups = groups


class TestCase(Record):
    """A test case as histories: its input, its expected output groups
    and its parameter streams."""

    __test__ = False  # keep pytest from collecting this as a test class

    _fields = ("name", "input", "expected", "params")

    def __init__(self, name: str, input: TestInput, expected: ExpectedResult,
                 params: Mapping[str, TimedStream] = FRESH):
        self.name, self.input, self.expected = name, input, expected
        self.params = {} if params is FRESH else params

    @property
    def horizon(self) -> int:
        return self.input.horizon


class VectorCase(NamedTuple):
    """A test-case as tables: its `#params` table (one row, or one per tick)
    or None, its `#inputs` table and its `#expected` tables."""

    name: str
    params: Optional[Table]
    inputs: Table
    expected: tuple[Table, ...]

    @property
    def horizon(self) -> int:
        return self.inputs.horizon

    def test_case(self) -> TestCase:
        """The case as histories; a one-row params table is repeated to the horizon."""
        params: dict[str, TimedStream] = {}
        horizon = self.horizon
        if self.params is not None:
            params = dict(self.params.history().streams)
            if self.params.horizon == 1 and horizon != 1:
                params = {p: TimedStream.conforming(s.elem_type, s.values * horizon)
                          for p, s in params.items()}
        return TestCase(self.name, self.inputs.history(),
                        ExpectedResult(tuple(g.history() for g in self.expected)), params)


class Divergence(Record):
    """The first tick and channel at which an output differs from the
    expected one."""

    _fields = ("tick", "channel", "expected", "actual")

    def __init__(self, tick: int, channel: str, expected: Any, actual: Any):
        self.tick, self.channel, self.expected, self.actual = tick, channel, expected, actual

    def __str__(self) -> str:
        return (f"tick {self.tick}, channel {self.channel}: "
                f"expected {self.expected!r}, got {self.actual!r}")


class Verdict(Record, frozen=True, repr=False):
    """A case's status: pass, fail or error. A failure carries its first
    divergence and an error, in `log`, what went wrong; a pass for want of
    expected groups says so."""

    _fields = ("status", "first_divergence", "log")

    def __init__(self, status: str, first_divergence: Optional[Divergence] = None,
                 log: tuple[str, ...] = ()):
        store(self, "status", status)
        store(self, "first_divergence", first_divergence)
        store(self, "log", log)


_PASSED = Verdict(PASS)


def _mismatch(expected: Sequence, actual: Sequence, kind: str, eps: float) -> int:
    """The tick of the first pair of values that differ, 0 when none does.
    Reals are equal when `expected == actual` or they lie within eps, so
    equal infinities are equal and nan equals nothing."""
    if kind != REAL_KIND:
        if expected == actual:
            return 0
        for t, (e, a) in enumerate(zip(expected, actual), start=1):
            if not e == a:
                return t
        return 0
    if all(map(eq, expected, actual)):  # unlike tuple equality, nan != nan
        return 0
    for t, (e, a) in enumerate(zip(expected, actual), start=1):
        if not (e == a or abs(e - a) <= eps):
            return t
    return 0


def _verdict(names: tuple[str, ...], kinds: Sequence[str], actual: Sequence[Sequence],
             horizon: int, groups: Sequence[Table], eps: float) -> Verdict:
    """Pass iff the actual columns of the channels `names`, in sorted order,
    equal some expected group's. A failure reports the group whose first
    divergence comes latest, the first such group on a tie; within a group,
    the earliest tick, and of the channels diverging there the first."""
    best: Divergence | None = None
    channels = frozenset(names)
    for group in groups:
        if group.block.channels != channels:
            return Verdict(ERROR, log=(
                f"expected group channels {sorted(group.block.names)} != "
                f"actual channels {list(names)}",))
        if group.horizon != horizon:
            return Verdict(ERROR, log=(
                f"expected horizon {group.horizon} != actual horizon {horizon}",))
        first = None
        for c, kind, exp, act in zip(names, kinds, group.columns(names), actual):
            t = _mismatch(exp, act, kind, eps)
            if t and (first is None or t < first.tick):
                first = Divergence(t, c, exp[t - 1], act[t - 1])
        if first is None:
            return _PASSED
        if best is None or first.tick > best.tick:
            best = first
    if best is None:
        return Verdict(PASS, log=("no expected groups",))
    return Verdict(FAIL, first_divergence=best)


def compare_histories(actual: ChannelHistory, expected: ExpectedResult,
                      eps: float = 0.0) -> Verdict:
    """Pass iff the actual history equals some expected group (see `_verdict`)."""
    names = tuple(sorted(actual.streams))
    streams = [actual.streams[n] for n in names]
    return _verdict(names, [s.elem_type.kind for s in streams], [s.values for s in streams],
                    actual.horizon, [Table.of(g) for g in expected.groups], eps)


def _judged(spec: ComponentSpec, cases: Sequence[VectorCase], eps: float, check_determinism: bool
            ) -> tuple[list[tuple], dict[int, StreamcheckError], list[Verdict]]:
    """Run the cases and judge their outputs: the output columns of every
    run that does not fail, one case after another, in interface order, the
    error of each case whose run fails, by index, and each case's verdict."""
    outputs = spec.interface.outputs
    out: list[list] = [[] for _ in outputs]
    failed = dict(run_tables(spec, [case.inputs for case in cases], out, check_determinism))
    columns = list(map(tuple, out))
    order = sorted(range(len(outputs)), key=lambda k: outputs[k].name)
    names = tuple(outputs[k].name for k in order)
    kinds = [outputs[k].ctype.kind for k in order]
    ordered = [columns[k] for k in order]
    verdicts = []
    start = 0
    for k, case in enumerate(cases):
        error = failed.get(k)
        if error is not None:
            verdicts.append(Verdict(ERROR, log=(f"simulation error: {error}",)))
            continue
        stop = start + case.horizon
        verdicts.append(_verdict(names, kinds, [col[start:stop] for col in ordered],
                                 case.horizon, case.expected, eps))
        start = stop
    return columns, failed, verdicts


def _tables(tc: TestCase) -> VectorCase:
    """A test-case built in Python, to be judged: its parameters play no part."""
    return VectorCase(tc.name, None, Table.of(tc.input), tuple(map(Table.of, tc.expected.groups)))


def execute_test(spec: ComponentSpec, tc: TestCase, eps: float = 0.0,
                 check_determinism: bool = False) -> tuple[Optional[ChannelHistory], Verdict]:
    """Run the component on the test-input and compare against the expectation."""
    columns, failed, (verdict,) = _judged(spec, [_tables(tc)], eps, check_determinism)
    if failed:
        return None, verdict
    return ChannelHistory({c.name: TimedStream.conforming(c.ctype, col)
                           for c, col in zip(spec.interface.outputs, columns)}, tc.horizon), verdict


class SuiteEntry(Record, repr=False):
    """One case's verdict in a suite report."""

    _fields = ("case", "verdict")

    def __init__(self, case: str, verdict: Verdict):
        self.case, self.verdict = case, verdict


class SuiteReport(Record, repr=False):
    """The verdicts of a suite's cases, in order."""

    _fields = ("entries",)

    def __init__(self, entries: tuple[SuiteEntry, ...]):
        self.entries = entries

    @property
    def passed(self) -> int:
        return sum(1 for e in self.entries if e.verdict.status == PASS)

    @property
    def failed(self) -> int:
        return sum(1 for e in self.entries if e.verdict.status == FAIL)

    @property
    def errors(self) -> int:
        return sum(1 for e in self.entries if e.verdict.status == ERROR)

    @property
    def ok(self) -> bool:
        return self.failed == 0 and self.errors == 0


def judge_suite(spec: ComponentSpec, cases: Sequence[VectorCase], eps: float = 0.0,
                check_determinism: bool = False) -> SuiteReport:
    """Run and judge every case; entries are ordered by case name (cases of
    one name in the given order)."""
    *_, verdicts = _judged(spec, cases, eps, check_determinism)
    entries = list(map(SuiteEntry, [case.name for case in cases], verdicts))
    entries.sort(key=attrgetter("case"))
    return SuiteReport(tuple(entries))


def suite_run(spec: ComponentSpec, suite: list[TestCase], eps: float = 0.0,
              check_determinism: bool = False) -> SuiteReport:
    """Execute every case; entries are ordered by case name for determinism."""
    return judge_suite(spec, [_tables(tc) for tc in suite], eps, check_determinism)
