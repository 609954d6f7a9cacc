import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import suite_oracle
import vector_oracle
from streamcheck.components import (AutomatonSpec, Channel, SyntacticInterface,
                                    Transition)
from streamcheck.exprs import parse_expression
from streamcheck.streams import BOOL, REAL, bounded_int, enumeration
from streamcheck.histories import ChannelHistory, TimedStream
from streamcheck.testcases import (ERROR, Divergence, ExpectedResult, FAIL, PASS, TestCase,
                                   compare_histories, execute_test, suite_run)

INT = bounded_int(-100, 100)


def _ih(vals):
    return ChannelHistory({"x": TimedStream.of(INT, vals)})


def _oh(vals):
    return ChannelHistory({"y": TimedStream.of(INT, vals)})


def _spec():
    return AutomatonSpec(
        name="Neg",
        interface=SyntacticInterface((Channel("x", INT, "input"),),
                                     (Channel("y", INT, "output"),)),
        states=("Run",), initial="Run",
        transitions=(Transition("Run", "Run", outputs=(("y", parse_expression("-x")),)),),
        causality="weak")


def test_pass_verdict():
    tc = TestCase("t", _ih([1, 2]), ExpectedResult((_oh([-1, -2]),)))
    _, verdict = execute_test(_spec(), tc)
    assert verdict.status == PASS
    assert verdict.first_divergence is None


def test_fail_verdict_reports_first_divergence():
    tc = TestCase("t", _ih([1, 2, 3]), ExpectedResult((_oh([-1, 5, 9]),)))
    _, verdict = execute_test(_spec(), tc)
    assert verdict.status == FAIL
    assert verdict.first_divergence.tick == 2
    assert verdict.first_divergence.channel == "y"


def test_any_expected_group_suffices():
    groups = ExpectedResult((_oh([9, 9]), _oh([-1, -2])))
    _, verdict = execute_test(_spec(), TestCase("t", _ih([1, 2]), groups))
    assert verdict.status == PASS


def test_real_comparison_uses_eps():
    actual = ChannelHistory({"y": TimedStream.of(REAL, [1.00004])})
    close = ExpectedResult((ChannelHistory({"y": TimedStream.of(REAL, [1.0])}),))
    assert compare_histories(actual, close, eps=1e-3).status == PASS
    assert compare_histories(actual, close, eps=1e-6).status == FAIL


def test_error_verdict_on_bad_input():
    bad = TestCase("t", ChannelHistory({}), ExpectedResult(()))
    out, verdict = execute_test(_spec(), bad)
    assert out is None
    assert verdict.status == ERROR


@pytest.mark.parametrize("group, log", [
    (ChannelHistory({"z": TimedStream.of(INT, [-1, -2])}),
     "expected group channels ['z'] != actual channels ['y']"),
    (_oh([-1]), "expected horizon 1 != actual horizon 2"),
])
def test_an_expected_group_of_other_channels_or_horizon_is_an_error(group, log):
    tc = TestCase("t", _ih([1, 2]), ExpectedResult((group,)))
    out, verdict = execute_test(_spec(), tc)
    assert (verdict.status, verdict.log) == (ERROR, (log,))
    assert (out, verdict) == suite_oracle.execute_test(_spec(), tc)


def test_suite_report_counts_and_order():
    cases = [
        TestCase("b_fail", _ih([1]), ExpectedResult((_oh([7]),))),
        TestCase("a_pass", _ih([1]), ExpectedResult((_oh([-1]),))),
    ]
    report = suite_run(_spec(), cases)
    assert [e.case for e in report.entries] == ["a_pass", "b_fail"]
    assert report.passed == 1 and report.failed == 1 and report.errors == 0
    assert not report.ok


def test_verdict_folding_is_conjunction():
    # a single diverging tick anywhere fails the whole case
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 8)
        xs = [rng.randint(-100, 100) for _ in range(n)]
        expected = [-x for x in xs]
        flip = rng.random() < 0.5
        if flip:
            i = rng.randrange(n)
            expected[i] += 1 if expected[i] < 100 else -1
        tc = TestCase("t", _ih(xs), ExpectedResult((_oh(expected),)))
        _, verdict = execute_test(_spec(), tc)
        assert verdict.status == (FAIL if flip else PASS)


def test_a_failure_carries_its_first_divergence_and_no_log():
    actual = ChannelHistory({"y": TimedStream.of(INT, [1, 2, 3, 4, 5, 6, 7])})
    verdict = compare_histories(actual, ExpectedResult((_oh([1, 2, 3, 4, 0, 6, 0]),)))
    assert verdict.status == FAIL
    assert verdict.first_divergence == Divergence(5, "y", 0, 5)
    assert verdict.log == ()
    assert compare_histories(actual, ExpectedResult((actual,))).log == ()


# Differential test against the eager comparison kept in vector_oracle.py.

_VERDICT_TYPES = {"a": bounded_int(0, 2), "b": BOOL, "e": enumeration("Lo", "Hi"), "r": REAL}
_VALUES = {"a": st.integers(0, 2), "b": st.booleans(), "e": st.sampled_from(["Lo", "Hi"]),
           "r": st.sampled_from([0.0, 1.0, 1.25, -0.5, 1e-9, float("inf"), float("-inf"),
                                 float("nan")])}


@st.composite
def _histories(draw):
    names = draw(st.lists(st.sampled_from(sorted(_VERDICT_TYPES)), min_size=1, unique=True))
    horizon = draw(st.integers(0, 6))

    def history():
        return ChannelHistory({n: TimedStream.of(_VERDICT_TYPES[n],
                                                 draw(st.lists(_VALUES[n], min_size=horizon,
                                                               max_size=horizon)))
                               for n in names}, horizon)

    actual = history()
    groups = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            groups.append(history())
            continue
        # a copy of actual with a few cells changed, so groups often match late or fully
        streams = {n: list(actual.streams[n].values) for n in names}
        for _ in range(draw(st.integers(0, 2)) if horizon else 0):
            n = draw(st.sampled_from(names))
            streams[n][draw(st.integers(0, horizon - 1))] = draw(_VALUES[n])
        groups.append(ChannelHistory({n: TimedStream.of(_VERDICT_TYPES[n], v)
                                      for n, v in streams.items()}, horizon))
    return actual, ExpectedResult(tuple(groups)), draw(st.sampled_from([0.0, 1e-9, 0.3, 2.0]))


@settings(max_examples=500, deadline=None)
@given(_histories())
def test_first_divergence_agrees_with_the_eager_comparison(case):
    actual, expected, eps = case
    verdict = compare_histories(actual, expected, eps)
    oracle = vector_oracle.compare_histories(actual, expected, eps)
    assert verdict.status == oracle.status
    assert repr(verdict.first_divergence) == repr(oracle.first_divergence)
