from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vector_oracle
from streamcheck.components import Channel, SyntacticInterface
from streamcheck import vectors
from streamcheck.streams import BOOL, REAL, bounded_int, enumeration
from streamcheck.histories import ChannelHistory, TimedStream
from streamcheck.serialize import literal_text
from streamcheck.testcases import ExpectedResult, TestCase
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


def test_a_params_horizon_mismatch_is_reported_at_its_params_marker():
    iface = SyntacticInterface((Channel("i_a", BOOL, "input"),), ())
    text = ("#case a\n#params\nmag\n2.5\n#inputs\ni_a\ntrue\nfalse\n"
            "#case b\n#params\nmag\n1.0\n2.0\n3.0\n#inputs\ni_a\ntrue\nfalse\n")
    message = "parameter 'mag' has 3 ticks, inputs have 2"
    for parse in (parse_testcases, vector_oracle.parse_testcases):
        with pytest.raises(VectorFormatError) as info:
            parse(text, iface, {"mag": REAL})
        assert [(d.line, d.column, d.message) for d in info.value.diagnostics] == [(10, 1, message)]


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
# "9" * 4301: an integer longer than Python 3.11 and later convert (ValueError);
# "y" * (MAX_CELL + 1): a cell longer than the reader reads
_JUNK = st.sampled_from(["", "x", "lo", "Hii", "1.5", "true", "Hi", "99", "-1", "-", '"',
                         "a,b", "9" * 4301, "y" * (MAX_CELL + 1)])
_PAD = st.sampled_from(["", "", "", " ", "\t", "\x1f", "\u3000"])


def _plain_texts(dtype):
    """A few ways to write each of some values of the type, in one list."""
    if dtype.kind == "int":
        return [str(v) for v in range(dtype.lo, dtype.hi + 1)] + [f" {dtype.lo}", f'"{dtype.hi}"']
    return {"bool": ["true", "false", " true", '"false"'],
            "real": ["1.5", "-0.0", "nan", "2", " 3e2", '"1_0.5"'],
            "enum": ["Lo", "Hi", " Hi ", '"Lo"']}[dtype.kind]


@st.composite
def _cell(draw, dtype):
    if draw(st.integers(0, 39)) == 0:
        text = draw(_JUNK)
    elif dtype.kind == "int" and draw(st.integers(0, 29)) == 0:  # just out of range
        text = str(draw(st.sampled_from([dtype.lo - 1, dtype.hi + 1])))
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
def _table(draw, marker, channels, ticks, header=None, faults=True):
    """A table of `ticks` rows under a header that orders `channels` (or
    under `header`); with `faults`, now and then a wrong header, row count,
    row width or cell."""
    names = draw(st.permutations(channels)) if header is None else header
    if faults and draw(st.integers(0, 19)) == 0:
        names = names[1:] if draw(st.booleans()) else names + [
            draw(st.sampled_from(channels + ["nn", "zz"]))]
    lines = [marker, ",".join(names)]
    if not faults:  # one draw for the whole body: long documents generate quickly
        rnd = draw(st.randoms(use_true_random=False))
        return lines + [",".join(rnd.choice(_plain_texts(DIFF_TYPES[n])) for n in names)
                        for _ in range(ticks)]
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


def _outcome(parse, text, param_types=DIFF_PARAMS):
    try:
        cases = parse(text, DIFF_IFACE, param_types)
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
    expected = _outcome(vector_oracle.parse_testcases, text)
    assert _outcome(parse_testcases, text) == expected
    # without parameter types, a #params table's header and row count are
    # checked, and its cells are not read
    assert _outcome(parse_testcases, text, None) == _outcome(vector_oracle.parse_testcases,
                                                             text, None)


# The reader converts the bodies of tables that share a header together, in
# batches of vectors.BATCH_ROWS rows. Documents of many cases over a few
# header lines, read with small batches, put batch boundaries inside the
# document and inside runs of faults.

_CHANNELS = {"#params": ["p", "q"], "#inputs": ["n", "b", "m", "r"], "#expected": ["o", "x"]}


@st.composite
def _shared_document(draw):
    """Up to 12 cases whose tables take one of two header lines per marker;
    faults, in cells, tables and structure, only from a drawn case on, and
    there in about one table in three."""
    headers = {marker: draw(st.lists(st.permutations(chans), min_size=1, max_size=2))
               for marker, chans in _CHANNELS.items()}
    cases = draw(st.integers(1, 12))
    first_fault = draw(st.integers(0, cases))
    lines, fault_line = [], 0
    for i in range(cases):
        faults = i >= first_fault
        if i == first_fault:
            fault_line = len(lines)
        if draw(st.booleans()):
            lines.append(f"#case c{i}")
        ticks = draw(st.integers(0, 4))

        def table(marker, ticks):
            header = draw(st.sampled_from(headers[marker]))
            faulty = faults and draw(st.integers(0, 2)) == 0
            return draw(_table(marker, _CHANNELS[marker], ticks, header, faulty))

        if draw(st.integers(0, 3)) == 0:
            lines += table("#params", draw(st.sampled_from([1, ticks])))
        if not faults or draw(st.integers(0, 19)):
            lines += table("#inputs", ticks)
        for _ in range(draw(st.integers(0, 2))):
            lines += table("#expected", ticks)
    if first_fault < cases:
        for _ in range(draw(st.integers(0, 2))):
            extra = draw(st.sampled_from(["", "   ", "# note", "#inputs", "1,2", '"', "#case"]))
            lines.insert(draw(st.integers(fault_line, len(lines))), extra)
    return "\n".join(lines)


@settings(max_examples=100, deadline=None)
@given(_shared_document(), st.integers(1, 6) | st.just(vectors.BATCH_ROWS))
def test_batched_reader_agrees_with_the_row_reader(text, batch_rows):
    with mock.patch.object(vectors, "BATCH_ROWS", batch_rows):
        outcome = _outcome(parse_testcases, text)
    assert outcome == _outcome(vector_oracle.parse_testcases, text)


def test_a_later_batch_error_is_reported_after_an_earlier_one(monkeypatch):
    # the failing batch (inputs, flushed first) holds the later error; the
    # expected table of the first case, still queued, holds the earlier one
    monkeypatch.setattr(vectors, "BATCH_ROWS", 2)
    text = ("#case a\n#inputs\nDriverBrake,AccBrake,AccSwitch\n1,2,true\n"
            "#expected\nAccState\nActiv\n"
            "#case b\n#inputs\nDriverBrake,AccBrake,AccSwitch\n1,200,true\n"
            "#expected\nAccState\nActive\n")
    with pytest.raises(VectorFormatError) as err:
        parse_testcases(text, IFACE)
    assert str(err.value).startswith("7:1: unknown enumeration label 'Activ'")


def test_read_streams_are_known_to_conform_and_compare_as_before():
    cases = parse_testcases(fixture_text("brake_override.tv.csv"), IFACE)
    stream = cases[0].input.streams["DriverBrake"]
    assert stream._conforms is True
    plain = TimedStream(stream.elem_type, stream.values)
    assert plain._conforms is None and plain == stream and hash(plain) == hash(stream)


def _cellwise_serialize(cases):
    """The writer as it was before it wrote a table a column at a time."""
    out = []

    def table(marker, hist):
        names = sorted(hist.streams)
        out.append(marker)
        out.append(",".join(names))
        for t in range(1, hist.horizon + 1):
            out.append(",".join(literal_text(hist.at(n, t)) for n in names))

    for tc in cases:
        out.append(f"#case {tc.name}")
        if tc.params:
            table("#params", ChannelHistory(dict(tc.params)))
        table("#inputs", tc.input)
        for group in tc.expected.groups:
            table("#expected", group)
    return "\n".join(out) + ("\n" if out else "")


def test_the_writer_matches_the_cellwise_writer_on_the_fixtures(doc):
    encoder = doc.refinements["Encoder"]
    abstract, concrete = (doc.components[encoder.abstract].interface,
                          doc.components[encoder.concrete].interface)
    params = {p.name: p.dtype for p in doc.concretizers[encoder.concretizer].params}
    for name, iface, param_types in [("brake_override.tv.csv", IFACE, None),
                                     ("encoder_abstract.tv.csv", abstract, None),
                                     ("encoder_concrete.tv.csv", concrete, None),
                                     ("encoder_concretize.tv.csv", abstract, params)]:
        cases = parse_testcases(fixture_text(name), iface, param_types)
        assert serialize_testcases(cases) == _cellwise_serialize(cases)
    # values a stream's type would convert, and a history without channels
    odd = ChannelHistory({"r": TimedStream(REAL, (1, 2.5, True))})
    cases = [TestCase("odd", odd, ExpectedResult((ChannelHistory({}, 3),)))]
    assert serialize_testcases(cases) == _cellwise_serialize(cases)


@settings(max_examples=40, deadline=None)
@given(_document() | _shared_document())
def test_the_writer_matches_the_cellwise_writer(text):
    try:
        cases = parse_testcases(text, DIFF_IFACE, DIFF_PARAMS)
    except VectorFormatError:
        return
    assert serialize_testcases(cases) == _cellwise_serialize(cases)


# The whole-text pass (vectors._sections) gives the reader a file only when
# it finds the sections and lines that the line walk (vectors._scan) finds;
# the line walk finds the sections of every other file, and with its line
# numbers the reader reports every error.

def _walked(text, iface, param_types):
    """The cases of the sections the line walk finds, as histories."""
    cases = vectors._cases(vectors._Reader(*vectors._scan(text)),
                           {c.name: c.ctype for c in iface.inputs},
                           {c.name: c.ctype for c in iface.outputs}, param_types)
    return [case.test_case() for case in cases]


def _bare_texts(dtype):
    """Ways to write each of some values of the type, without quotes."""
    return [t for t in _plain_texts(dtype) if '"' not in t]


@st.composite
def _fast_document(draw):
    """Up to 12 cases without errors, whose tables take one of two header
    lines per marker: LF line ends, no quotes, now and then a blank before
    or after a cell, and empty lines between sections and at the end."""
    headers = {marker: draw(st.lists(st.permutations(chans), min_size=1, max_size=2))
               for marker, chans in _CHANNELS.items()}
    rnd = draw(st.randoms(use_true_random=False))
    lines = []

    def table(marker, ticks):
        names = rnd.choice(headers[marker])
        lines.extend([marker, ",".join(names)])
        pad = rnd.choice(["", "", " "])
        lines.extend(",".join(pad + rnd.choice(_bare_texts(DIFF_TYPES[n])) for n in names)
                     for _ in range(ticks))

    for i in range(draw(st.integers(0, 12))):
        if draw(st.booleans()):
            lines.append(f"#case c{i}")
        ticks = draw(st.integers(0, 4))
        if draw(st.integers(0, 3)) == 0:
            table("#params", draw(st.sampled_from([1, ticks])))
        table("#inputs", ticks)
        for _ in range(draw(st.integers(0, 2))):
            table("#expected", ticks)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.sampled_from([k for k, line in enumerate(lines) if line[:1] == "#"]
                                  + [len(lines)]))
        lines.insert(at, "")
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@settings(max_examples=100, deadline=None)
@given(_fast_document(), st.integers(1, 6) | st.just(vectors.BATCH_ROWS), st.booleans())
def test_the_whole_text_pass_reads_what_the_line_walk_reads(text, batch_rows, typed):
    param_types = DIFF_PARAMS if typed else None
    with mock.patch.object(vectors, "BATCH_ROWS", batch_rows):
        with mock.patch.object(vectors, "_scan", wraps=vectors._scan) as walk:
            outcome = _outcome(parse_testcases, text, param_types)
        assert not walk.called and outcome[0] == "cases"
        assert outcome == _outcome(_walked, text, param_types)
    assert outcome == _outcome(vector_oracle.parse_testcases, text, param_types)


@settings(max_examples=100, deadline=None)
@given(_fast_document(), st.booleans(), st.booleans())
def test_the_two_finders_find_the_same_sections(text, spaced, padded):
    if spaced:  # an empty line before every marker but the first
        text = text.replace("\n#", "\n\n#")
    if padded:  # a blank after every marker
        text = "\n".join(line + " " if line[:1] == "#" else line for line in text.split("\n"))
    whole = vectors._sections(text)
    scanned, linenos = vectors._scan(text)
    assert [s[:3] for s in scanned] == [s[:3] for s in whole]
    # the whole-text pass counts no lines; its sections start at the lines
    # that start with '#', one section each
    marked = [n for n, line in enumerate(text.split("\n"), start=1) if line[:1] == "#"]
    assert [linenos[s[3]] for s in scanned] == marked


_BLANK = st.sampled_from(["", " ", "\t", "\x1f", "  \t"])


@settings(max_examples=100, deadline=None)
@given(_fast_document(), st.lists(st.tuples(st.integers(0, 10 ** 6), _BLANK), max_size=3),
       st.integers(1, 6) | st.just(vectors.BATCH_ROWS), st.booleans())
def test_blank_lines_read_as_the_line_walk_reads_them(text, blanks, batch_rows, typed):
    # a blank line anywhere: the whole-text pass drops an empty one that ends
    # a section and leaves the file to the line walk where it would read one
    lines = text.split("\n")
    for at, blank in blanks:
        lines.insert(at % (len(lines) + 1), blank)
    text = "\n".join(lines)
    param_types = DIFF_PARAMS if typed else None
    with mock.patch.object(vectors, "BATCH_ROWS", batch_rows):
        outcome = _outcome(parse_testcases, text, param_types)
    assert outcome == _outcome(vector_oracle.parse_testcases, text, param_types)


@pytest.mark.parametrize("iface, text, param_types", [
    # a blank row would convert: "" is a label
    (SyntacticInterface((Channel("e", enumeration("", "x"), "input"),), ()),
     "#inputs\ne\nx\n\nx\n#inputs\ne\n\nx\n", None),
    # the rows of a #params table read without types are counted, not converted
    (SyntacticInterface((Channel("i_a", BOOL, "input"),), ()),
     "#params\np\n1\n\n2\n3\n#inputs\ni_a\ntrue\nfalse\ntrue\nfalse\n", None),
    (SyntacticInterface((Channel("i_a", BOOL, "input"),), ()),
     "#params\n \np\n1\n2\n3\n#inputs\ni_a\ntrue\nfalse\ntrue\nfalse\n", None),
])
def test_a_blank_line_the_whole_text_pass_would_read_is_left_to_the_line_walk(
        iface, text, param_types):
    with mock.patch.object(vectors, "_scan", wraps=vectors._scan) as walk:
        try:
            got = ("cases", [c.input for c in parse_testcases(text, iface, param_types)])
        except VectorFormatError as e:
            got = ("error", str(e))
    assert walk.called
    try:
        expected = ("cases", [c.input for c in vector_oracle.parse_testcases(text, iface,
                                                                              param_types)])
    except VectorFormatError as e:
        expected = ("error", str(e))
    assert got == expected


def test_the_fixture_vectors_are_read_by_the_whole_text_pass(doc):
    encoder = doc.refinements["Encoder"]
    abstract, concrete = (doc.components[encoder.abstract].interface,
                          doc.components[encoder.concrete].interface)
    params = {p.name: p.dtype for p in doc.concretizers[encoder.concretizer].params}
    for name, iface, param_types in [("brake_override.tv.csv", IFACE, None),
                                     ("encoder_abstract.tv.csv", abstract, None),
                                     ("encoder_concrete.tv.csv", concrete, None),
                                     ("encoder_concretize.tv.csv", abstract, params)]:
        text = fixture_text(name)
        with mock.patch.object(vectors, "_scan", wraps=vectors._scan) as walk:
            cases = parse_testcases(text, iface, param_types)
        assert not walk.called, name
        assert cases == _walked(text, iface, param_types)
