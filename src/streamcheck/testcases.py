"""Test-cases, execution against components, and verdicts."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from .components import ComponentSpec, run
from .errors import StreamcheckError
from .streams import ChannelHistory, REAL_KIND, TimedStream

PASS = "pass"
FAIL = "fail"
ERROR = "error"

# A test-input is just a channel history over the component's input channels.
TestInput = ChannelHistory


@dataclass(frozen=True)
class ExpectedResult:
    """One or more complete output histories; matching any group passes."""

    groups: tuple[ChannelHistory, ...]


@dataclass(frozen=True)
class TestCase:
    __test__ = False  # keep pytest from collecting this as a test class

    name: str
    input: TestInput
    expected: ExpectedResult
    params: Mapping[str, TimedStream] = field(default_factory=dict)

    @property
    def horizon(self) -> int:
        return self.input.horizon


@dataclass(frozen=True)
class Divergence:
    tick: int
    channel: str
    expected: Any
    actual: Any

    def __str__(self) -> str:
        return (f"tick {self.tick}, channel {self.channel}: "
                f"expected {self.expected!r}, got {self.actual!r}")


@dataclass(frozen=True)
class Verdict:
    """A case's status. A failure carries its first divergence and an error,
    in `log`, what went wrong; a pass for want of expected groups says so."""

    status: str  # pass | fail | error
    first_divergence: Optional[Divergence] = None
    log: tuple[str, ...] = ()


def _values_equal(expected: Any, actual: Any, kind: str, eps: float) -> bool:
    if kind == REAL_KIND:
        return abs(float(expected) - float(actual)) <= eps
    return expected == actual


def _first_divergence(actual: ChannelHistory, group: ChannelHistory,
                      eps: float) -> Optional[Divergence]:
    """The earliest tick at which actual leaves one expected group; of the
    channels diverging at that tick, the first in sorted order."""
    first = None
    for c in sorted(group.streams):
        expected, got = group.streams[c].values, actual.streams[c].values
        kind = actual.streams[c].elem_type.kind
        if kind != REAL_KIND and expected == got:
            continue
        for t, (exp, act) in enumerate(zip(expected, got), start=1):
            if not _values_equal(exp, act, kind, eps):
                if first is None or t < first.tick:
                    first = Divergence(t, c, exp, act)
                break
    return first


def compare_histories(actual: ChannelHistory, expected: ExpectedResult,
                      eps: float = 0.0) -> Verdict:
    """Pass iff the actual history equals some expected group (reals within eps).

    A failure reports the group whose first divergence comes latest, the
    first such group on a tie."""
    best: Divergence | None = None
    for group in expected.groups:
        if set(group.streams) != set(actual.streams):
            return Verdict(ERROR, log=(
                f"expected group channels {sorted(group.streams)} != "
                f"actual channels {sorted(actual.streams)}",))
        if group.horizon != actual.horizon:
            return Verdict(ERROR, log=(
                f"expected horizon {group.horizon} != actual horizon {actual.horizon}",))
        first = _first_divergence(actual, group, eps)
        if first is None:
            return Verdict(PASS)
        if best is None or first.tick > best.tick:
            best = first
    if best is None:
        return Verdict(PASS, log=("no expected groups",))
    return Verdict(FAIL, first_divergence=best)


def execute_test(spec: ComponentSpec, tc: TestCase, eps: float = 0.0,
                 check_determinism: bool = False) -> tuple[Optional[ChannelHistory], Verdict]:
    """Run the component on the test-input and compare against the expectation."""
    try:
        actual = run(spec, tc.input, tc.horizon, check_determinism=check_determinism)
    except StreamcheckError as e:
        return None, Verdict(ERROR, log=(f"simulation error: {e}",))
    return actual, compare_histories(actual, tc.expected, eps)


@dataclass(frozen=True)
class SuiteEntry:
    case: str
    verdict: Verdict


@dataclass(frozen=True)
class SuiteReport:
    entries: tuple[SuiteEntry, ...]

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


def suite_run(spec: ComponentSpec, suite: list[TestCase], eps: float = 0.0,
              check_determinism: bool = False) -> SuiteReport:
    """Execute every case; entries are ordered by case name for determinism."""
    entries = []
    for tc in sorted(suite, key=lambda c: c.name):
        _, verdict = execute_test(spec, tc, eps, check_determinism)
        entries.append(SuiteEntry(tc.name, verdict))
    return SuiteReport(tuple(entries))
