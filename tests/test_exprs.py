import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamcheck.errors import EvaluationError
from streamcheck.exprs import (Binary, Call, Lit, Name, Unary, evaluate, free_names,
                               parse_expression)
from streamcheck.serialize import to_text


def ev(text, **env):
    return evaluate(parse_expression(text), env)


def test_arithmetic():
    assert ev("1 + 2 * 3") == 7
    assert ev("(1 + 2) * 3") == 9
    assert ev("-x + 1", x=4) == -3
    assert ev("7 / 2") == 3  # integer division floors
    assert ev("-7 / 2") == -4
    assert ev("7.0 / 2") == 3.5


def test_comparisons_and_logic():
    assert ev("1 < 2 and 2 <= 2") is True
    assert ev("not (1 == 2) or false") is True
    assert ev("x != y", x=1, y=1) is False
    assert ev("true and not false") is True


def test_builtins():
    assert ev("min(3, -2)") == -2
    assert ev("max(3, -2)") == 3
    assert ev("abs(-5)") == 5
    assert ev("floor(2.5)") == 2
    assert ev("floor(-3.6)") == -4
    assert ev("floor(0.3)") == 0


def test_enum_labels_evaluate_via_env():
    assert ev("state == Active", state="Active", Active="Active") is True


def test_unbound_name_raises():
    with pytest.raises(EvaluationError):
        ev("x + 1")


def test_type_errors_raise():
    with pytest.raises(EvaluationError):
        ev("1 + true")
    with pytest.raises(EvaluationError):
        ev("true < false")
    with pytest.raises(EvaluationError):
        ev("1 and 2")


def test_division_by_zero_raises():
    with pytest.raises(EvaluationError):
        ev("1 / 0")


def test_free_names():
    e = parse_expression("min(a, b) + c > 0 and d")
    assert free_names(e) == {"a", "b", "c", "d"}


def test_comparison_is_not_chaining():
    # (a == b) == c is only legal with explicit parentheses
    with pytest.raises(EvaluationError):
        parse_expression("1 == 2 == 3")


names = st.sampled_from(["a", "b", "c"])


def _exprs(depth):
    if depth == 0:
        return st.one_of(
            st.integers(-20, 20).map(Lit),
            st.booleans().map(Lit),
            names.map(Name))
    sub = _exprs(depth - 1)
    return st.one_of(
        sub,
        st.tuples(st.sampled_from(["+", "-", "*"]), sub, sub).map(
            lambda t: Binary(t[0], t[1], t[2])),
        st.tuples(st.sampled_from(["==", "<", ">="]), sub, sub).map(
            lambda t: Binary(t[0], t[1], t[2])),
        st.tuples(st.sampled_from(["and", "or"]), sub, sub).map(
            lambda t: Binary(t[0], t[1], t[2])),
        sub.map(lambda e: Unary("not", e)),
        st.tuples(sub, sub).map(lambda t: Call("min", (t[0], t[1]))))


@given(_exprs(3))
def test_to_text_round_trip(e):
    assert parse_expression(to_text(e)) == e
