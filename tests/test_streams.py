import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamcheck.errors import TickRangeError, TypeMismatchError
from streamcheck.streams import (BOOL, REAL, Channel, ChannelHistory, TimedStream,
                                 bounded_int, enumeration, validate_history)


def test_bounded_int_contains():
    t = bounded_int(-3, 5)
    assert t.contains(-3) and t.contains(5) and t.contains(0)
    assert not t.contains(-4) and not t.contains(6)
    assert not t.contains(True)  # bools are not ints here


def test_enumeration_membership():
    t = enumeration("Standby", "Active")
    assert t.contains("Active")
    assert not t.contains("active")


def test_real_accepts_ints_and_floats():
    assert REAL.contains(1.5) and REAL.contains(2)
    assert not REAL.contains(True)


def test_stream_construction_validates():
    with pytest.raises(TypeMismatchError):
        TimedStream.of(BOOL, [True, 1])
    s = TimedStream.of(bounded_int(0, 10), [1, 2, 3])
    assert s.horizon == 3


def test_stream_ticks_are_one_based():
    s = TimedStream.of(BOOL, [True, False])
    assert s.at(1) is True and s.at(2) is False
    with pytest.raises(TickRangeError):
        s.at(0)
    with pytest.raises(TickRangeError):
        s.at(3)


def test_stream_prefix():
    s = TimedStream.of(bounded_int(0, 9), [1, 2, 3, 4])
    assert s.prefix(2).values == (1, 2)
    assert s.prefix(0).values == ()


def test_history_rejects_ragged_streams():
    a = TimedStream.of(BOOL, [True])
    b = TimedStream.of(BOOL, [True, False])
    with pytest.raises(TypeMismatchError):
        ChannelHistory({"a": a, "b": b})


def test_history_tick_and_prefix():
    h = ChannelHistory({"x": TimedStream.of(BOOL, [True, False]),
                        "y": TimedStream.of(bounded_int(0, 5), [3, 4])})
    assert h.horizon == 2
    assert h.tick(2) == {"x": False, "y": 4}
    assert h.prefix(1).horizon == 1


def test_validate_history_reports_gaps():
    chans = [Channel("x", BOOL, "in"), Channel("y", BOOL, "in")]
    h = ChannelHistory({"x": TimedStream.of(BOOL, [True])})
    problems = validate_history(h, chans)
    assert any("y" in str(p) for p in problems)


@given(st.lists(st.booleans(), min_size=1, max_size=20))
def test_prefix_of_prefix_is_prefix(values):
    s = TimedStream.of(BOOL, values)
    n = len(values)
    for t in range(n + 1):
        assert s.prefix(t).values == tuple(values[:t])
