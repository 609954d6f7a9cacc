import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vector_oracle
from streamcheck.components import Channel, SyntacticInterface
from streamcheck.streams import BOOL, REAL, bounded_int, enumeration
from streamcheck.vectors import (MAX_CELL, VectorFormatError, parse_testcases,
                                 serialize_testcases)

from conftest import fixture_text

IFACE = SyntacticInterface(
    (Channel("DriverBrake", bounded_int(0, 100), "input"),
     Channel("AccBrake", bounded_int(0, 100), "input"),
     Channel("AccSwitch", BOOL, "input")),
    (Channel("AccState", enumeration("Standby", "Active"), "output"),))


def test_parse_fixture_vectors():
    cases = parse_testcases(fixture_text("brake_override.tv.csv"), IFACE)
    assert [c.name for c in cases] == ["brake_override_iso", "brake_override_switch_off"]
    first = cases[0]
    assert first.input.streams["DriverBrake"].values == (21, 51, 78, 100, 91)
    assert first.expected.groups[0].streams["AccState"].values == (
        "Active", "Active", "Active", "Active", "Standby")


def test_round_trip():
    cases = parse_testcases(fixture_text("brake_override.tv.csv"), IFACE)
    again = parse_testcases(serialize_testcases(cases), IFACE)
    assert again == cases


def test_enum_typo_gets_suggestion():
    text = ("#case t\n#inputs\nDriverBrake,AccBrake,AccSwitch\n1,2,true\n"
            "#expected\nAccState\nActiv\n")
    with pytest.raises(VectorFormatError) as err:
        parse_testcases(text, IFACE)
    assert "did you mean 'Active'" in str(err.value)


def test_unknown_channel_gets_suggestion():
    text = "#case t\n#inputs\nDriverBrak,AccBrake,AccSwitch\n1,2,true\n"
    with pytest.raises(VectorFormatError) as err:
        parse_testcases(text, IFACE)
    assert "did you mean 'DriverBrake'" in str(err.value)


def test_missing_input_channel_is_an_error():
    text = "#case t\n#inputs\nDriverBrake\n1\n"
    with pytest.raises(VectorFormatError, match="missing input channels"):
        parse_testcases(text, IFACE)


def test_expected_horizon_must_match():
    text = ("#case t\n#inputs\nDriverBrake,AccBrake,AccSwitch\n1,2,true\n1,2,true\n"
            "#expected\nAccState\nActive\n")
    with pytest.raises(VectorFormatError, match="ticks"):
        parse_testcases(text, IFACE)


def test_out_of_range_int_is_an_error():
    text = "#case t\n#inputs\nDriverBrake,AccBrake,AccSwitch\n101,2,true\n"
    with pytest.raises(VectorFormatError, match="outside"):
        parse_testcases(text, IFACE)


def test_params_broadcast_to_horizon():
    iface = SyntacticInterface((Channel("i_a", BOOL, "input"),), ())
    text = "#case t\n#params\nmag\n2.5\n#inputs\ni_a\ntrue\nfalse\ntrue\n"
    cases = parse_testcases(text, iface, {"mag": REAL})
    assert cases[0].params["mag"].values == (2.5, 2.5, 2.5)


def test_unnamed_cases_get_sequential_names():
    iface = SyntacticInterface((Channel("x", BOOL, "input"),), ())
    text = "#inputs\nx\ntrue\n#inputs\nx\nfalse\n"
    cases = parse_testcases(text, iface)
    assert [c.name for c in cases] == ["case1", "case2"]


def test_a_cell_over_the_limit_is_an_error_at_its_line():
    header = "#case t\n#inputs\nDriverBrake,AccBrake,AccSwitch\n"
    for row in ("x" * (MAX_CELL + 1) + ",1,true", '"' + "x" * (MAX_CELL + 1) + '",1,true',
                "1,2," + " " * MAX_CELL + "true"):
        with pytest.raises(VectorFormatError) as err:
            parse_testcases(header + "1,2,true\n" + row + "\n", IFACE)
        assert [(d.line, d.column, d.message) for d in err.value.diagnostics] == [
            (5, 1, f"cell longer than {MAX_CELL} characters")]
    # a cell of exactly the limit is read, as are lines longer than it
    wide = "1,2," + " " * (MAX_CELL - 4) + "true"
    for row in (wide, '"1",2,' + '"' + " " * (MAX_CELL - 4) + 'true"'):
        case, = parse_testcases(header + row + "\n", IFACE)
        assert case.input.streams["AccSwitch"].values == (True,)


@pytest.mark.parametrize("rows", ["1,2,true,4\n", "1,2,true,4\n5,6,false,7\n", "1,2\n"])
def test_rows_of_one_wrong_width_are_ragged(rows):
    text = "#case t\n#inputs\nDriverBrake,AccBrake,AccSwitch\n" + rows
    with pytest.raises(VectorFormatError, match="^4:1: ragged row"):
        parse_testcases(text, IFACE)


def test_first_error_of_a_table_is_reported_in_row_major_order():
    text = ("#case t\n#inputs\nDriverBrake,AccBrake,AccSwitch\n1,2,true\n"
            '1,x,maybe\n1,2\n"' + "y" * (MAX_CELL + 1) + '",1,true\n')
    with pytest.raises(VectorFormatError) as err:
        parse_testcases(text, IFACE)
    assert str(err.value) == "5:2: expected an integer, found 'x'"


# Differential test against the row-wise reader kept in vector_oracle.py.

LEVEL = enumeration("Lo", "Hi")
DIFF_IFACE = SyntacticInterface(
    (Channel("n", bounded_int(-5, 5), "input"), Channel("b", BOOL, "input"),
     Channel("m", LEVEL, "input"), Channel("r", REAL, "input")),
    (Channel("o", LEVEL, "output"), Channel("x", bounded_int(0, 3), "output")))
DIFF_PARAMS = {"p": REAL, "q": bounded_int(0, 9)}
DIFF_TYPES = {**{c.name: c.ctype for c in DIFF_IFACE.inputs + DIFF_IFACE.outputs},
              **DIFF_PARAMS}

_TEXT = {
    "bool": st.sampled_from(["true", "false"]),
    "real": (st.floats(allow_nan=False).map(repr)
             | st.sampled_from(["nan", "-inf", "Infinity", "1e3", "2", ".5", "1_0.5"])),
    "enum": st.sampled_from(["Lo", "Hi"]),
}
_JUNK = st.sampled_from(["", "x", "lo", "Hii", "1.5", "true", "Hi", "99", "-1", "-", '"',
                         "a,b"])
_PAD = st.sampled_from(["", "", "", " ", "\t", "\x1f", "\u3000"])


@st.composite
def _cell(draw, dtype):
    if draw(st.integers(0, 39)) == 0:
        text = draw(_JUNK)
    elif dtype.kind == "int":
        text = draw(st.integers(dtype.lo, dtype.hi).map(str)
                    | st.sampled_from(["+3", "03", "0_1", "\u0663"]))
    else:
        text = draw(_TEXT[dtype.kind])
    text = draw(_PAD) + text + draw(_PAD)
    if "," in text or draw(st.integers(0, 7)) == 0:
        text = '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def _table(draw, marker, channels, ticks):
    names = draw(st.permutations(channels))
    if draw(st.integers(0, 19)) == 0:
        names = names[1:] if draw(st.booleans()) else names + [
            draw(st.sampled_from(channels + ["nn", "zz"]))]
    lines = [marker, ",".join(names)]
    if draw(st.integers(0, 9)) == 0:
        ticks = draw(st.integers(0, 4))
    for _ in range(ticks):
        cells = [draw(_cell(DIFF_TYPES[n])) if n in DIFF_TYPES else "1" for n in names]
        if draw(st.integers(0, 39)) == 0:
            cells = cells[:-1] if draw(st.booleans()) else cells + ["1"]
        lines.append(",".join(cells))
    return lines


@st.composite
def _document(draw):
    lines = []
    for i in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            lines.append(f"#case c{i}" if draw(st.integers(0, 9)) else "#case")
        ticks = draw(st.integers(0, 4))
        if draw(st.integers(0, 3)) == 0:
            lines += draw(_table("#params", ["p", "q"], draw(st.sampled_from([1, ticks]))))
        lines += draw(_table("#inputs", ["n", "b", "m", "r"], ticks))
        for _ in range(draw(st.integers(0, 2))):
            lines += draw(_table("#expected", ["o", "x"], ticks))
    for _ in range(draw(st.integers(0, 2))):
        extra = draw(st.sampled_from(["", "", "   ", "\t", "# note", "#inputs", "1,2", '"']))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


def _outcome(parse, text):
    try:
        cases = parse(text, DIFF_IFACE, DIFF_PARAMS)
    except VectorFormatError as e:
        return "error", [(d.line, d.column, d.message) for d in e.diagnostics]

    def history(streams):
        return sorted((n, s.elem_type, repr(s.values)) for n, s in streams.items())

    return "cases", [(c.name, c.input.horizon, history(c.input.streams),
                      [(g.horizon, history(g.streams)) for g in c.expected.groups],
                      history(c.params)) for c in cases]


@settings(max_examples=250, deadline=None)
@given(_document())
def test_column_reader_agrees_with_the_row_reader(text):
    assert _outcome(parse_testcases, text) == _outcome(vector_oracle.parse_testcases, text)
