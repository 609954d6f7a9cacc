"""Reader/writer for `.tv.csv` test-vector files.

Layout per case: an optional `#case <name>` marker, an optional `#params`
table, one `#inputs` table, and one or more `#expected` tables (alternative
output groups). Each table is a CSV header of channel names followed by one
row per tick. Booleans are `true`/`false`, enumeration cells are bare labels,
reals use decimal-point notation.

A table is read when its case is, by column: its lines are split into
cells, and each column is converted at once by its channel's type. Only a
table that fails is read again cell by cell, with `_parse_cell`, to report
its first error in row-major order (see docs/grammar.md).
"""

from __future__ import annotations

import csv
import difflib
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Sequence

from .components import SyntacticInterface
from .errors import Diagnostic, ModelFormatError
from .streams import (BOOL_KIND, ChannelHistory, DataType, INT_KIND, REAL_KIND, TimedStream,
                      literal_text)
from .testcases import ExpectedResult, TestCase


# The longest cell, in characters, counted after quotes are removed: the csv
# module's default field limit, applied to lines with and without quotes.
MAX_CELL = 131072

_BOOLS = {"true": True, "false": False}


class VectorFormatError(ModelFormatError):
    pass


def _fail(line: int, column: int, message: str):
    raise VectorFormatError([Diagnostic(line, column, message)])


def _parse_cell(cell: str, dtype: DataType, line: int, column: int) -> Any:
    text = cell.strip()
    if dtype.kind == BOOL_KIND:
        if text == "true":
            return True
        if text == "false":
            return False
        _fail(line, column, f"expected true/false, found {text!r}")
    if dtype.kind == INT_KIND:
        try:
            value = int(text)
        except ValueError:
            _fail(line, column, f"expected an integer, found {text!r}")
        if not dtype.lo <= value <= dtype.hi:
            _fail(line, column, f"{value} outside [{dtype.lo}..{dtype.hi}]")
        return value
    if dtype.kind == REAL_KIND:
        try:
            return float(text)
        except ValueError:
            _fail(line, column, f"expected a real number, found {text!r}")
    if text in dtype.labels:
        return text
    hint = difflib.get_close_matches(text, dtype.labels, n=1)
    suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
    _fail(line, column, f"unknown enumeration label {text!r}{suggestion}")


@dataclass
class _Section:
    kind: str  # case | params | inputs | expected
    arg: str
    line: int
    rows: list[str]  # the data lines as written, blank ones left out
    linenos: Sequence[int]  # the line number of each


def _split_sections(text: str) -> list[_Section]:
    """Find the section markers; each section keeps its data lines unsplit."""
    lines = text.splitlines()
    stripped = list(map(str.strip, lines))
    marker = list(map(str.startswith, stripped, repeat("#")))
    n = len(lines)
    at = marker.index(True) if True in marker else n
    for k in range(at):
        if stripped[k]:
            _fail(k + 1, 1, "data before any section marker")
    sections: list[_Section] = []
    while at < n:
        line = stripped[at]
        parts = line[1:].split(None, 1)
        kind = parts[0] if parts else ""
        if kind not in ("case", "params", "inputs", "expected"):
            _fail(at + 1, 1, f"unknown section marker {line!r}")
        try:
            end = marker.index(True, at + 1)
        except ValueError:
            end = n
        if "" in stripped[at + 1:end]:
            keep = [k for k in range(at + 1, end) if stripped[k]]
            rows, linenos = [lines[k] for k in keep], [k + 1 for k in keep]
        else:
            rows, linenos = lines[at + 1:end], range(at + 2, end + 1)
        sections.append(_Section(kind, parts[1].strip() if len(parts) > 1 else "",
                                 at + 1, rows, linenos))
        at = end
    return sections


def _split(raw: str) -> list[str]:
    """The cells of a data line as the default csv dialect reads them, which
    for a line without quotes is `raw.split(",")`; [] when csv cannot read
    the line or a cell is longer than MAX_CELL."""
    if '"' in raw:
        try:
            cells = next(csv.reader((raw,)))
        except csv.Error:  # a cell over csv's field limit, or a NUL before Python 3.11
            return []
    else:
        cells = raw.split(",")
    return cells if len(raw) <= MAX_CELL or max(map(len, cells)) <= MAX_CELL else []


def _unreadable(line: int, raw: str):
    if len(raw) > MAX_CELL:
        _fail(line, 1, f"cell longer than {MAX_CELL} characters")
    _fail(line, 1, "unreadable row")


def _column(dtype: DataType, cells: Sequence[str]) -> tuple[Any, ...]:
    """One column's values; raises ValueError or KeyError exactly where
    `_parse_cell` fails on one of the cells."""
    kind = dtype.kind
    if kind == INT_KIND:
        values = tuple(map(int, map(str.strip, cells)))
        if values and (min(values) < dtype.lo or max(values) > dtype.hi):
            raise ValueError("out of range")
        return values
    if kind == REAL_KIND:
        return tuple(map(float, map(str.strip, cells)))
    lookup = _BOOLS if kind == BOOL_KIND else dict(zip(dtype.labels, dtype.labels))
    return tuple(map(lookup.__getitem__, map(str.strip, cells)))


def _first_error(types: list[DataType], linenos: Sequence[int], body: list[str]) -> None:
    """Raise the first error of a table in row-major order."""
    for lineno, raw in zip(linenos, body):
        cells = _split(raw)
        if not cells:
            _unreadable(lineno, raw)
        if len(cells) != len(types):
            _fail(lineno, 1, f"ragged row: {len(cells)} cells for {len(types)} columns")
        for col, (dtype, cell) in enumerate(zip(types, cells), start=1):
            _parse_cell(cell, dtype, lineno, col)


def _columns(body: list[str], n: int) -> Sequence[Sequence[str]] | None:
    """The cells of a table body by column; None when a row is ragged or
    unreadable. Without quotes or long lines, the whole body is split at once."""
    joined = ",".join(body)
    if '"' in joined or (len(joined) > MAX_CELL and max(map(len, body)) > MAX_CELL):
        rows = list(map(_split, body))
        return list(zip(*rows)) if set(map(len, rows)) == {n} else None
    if not set(map(str.count, body, repeat(","))) <= {n - 1}:
        return None
    flat = joined.split(",") if body else []
    return [flat[j::n] for j in range(n)]


def _read_table(section: _Section, known: dict[str, DataType],
                what: str) -> tuple[list[str], ChannelHistory]:
    """Check a table's header, then convert its body column by column."""
    if not section.rows:
        _fail(section.line, 1, f"empty #{section.kind} table")
    header_line, header_raw = section.linenos[0], section.rows[0]
    header = _split(header_raw)
    if not header:
        _unreadable(header_line, header_raw)
    names = [h.strip() for h in header]
    for col, name in enumerate(names, start=1):
        if name not in known:
            hint = difflib.get_close_matches(name, list(known), n=1)
            suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
            _fail(header_line, col, f"unknown {what} {name!r}{suggestion}")
    if len(set(names)) != len(names):
        _fail(header_line, 1, f"duplicate columns in #{section.kind} header")
    types = [known[name] for name in names]
    body = section.rows[1:]
    columns = _columns(body, len(names))
    if columns is not None:
        try:
            values = [_column(t, col) for t, col in zip(types, columns)]
        except (ValueError, KeyError):
            pass
        else:
            return names, ChannelHistory(
                {n: TimedStream(t, v) for n, t, v in zip(names, types, values)}, len(body))
    _first_error(types, section.linenos[1:], body)
    raise AssertionError("a column failed to convert, but no cell did")


def parse_testcases(text: str, iface: SyntacticInterface,
                    param_types: dict[str, DataType] | None = None) -> list[TestCase]:
    """Parse all test-cases in a vector file, typed against an interface."""
    in_types = {c.name: c.ctype for c in iface.inputs}
    out_types = {c.name: c.ctype for c in iface.outputs}
    param_types = param_types or {}
    sections = _split_sections(text)
    cases: list[TestCase] = []
    i = 0
    counter = 0
    while i < len(sections):
        name = None
        if sections[i].kind == "case":
            name = sections[i].arg or None
            if sections[i].rows:
                _fail(sections[i].linenos[0], 1, "data rows directly under #case")
            i += 1
        counter += 1
        name = name or f"case{counter}"
        params: dict[str, TimedStream] = {}
        if i < len(sections) and sections[i].kind == "params":
            params = dict(_read_table(sections[i], param_types, "parameter")[1].streams)
            i += 1
        if i >= len(sections) or sections[i].kind != "inputs":
            line = sections[i].line if i < len(sections) else sections[i - 1].line
            _fail(line, 1, f"expected #inputs for case {name!r}")
        names, inputs = _read_table(sections[i], in_types, "channel")
        missing = sorted(set(in_types) - set(names))
        if missing:
            _fail(sections[i].line, 1, f"missing input channels: {missing}")
        i += 1
        groups = []
        while i < len(sections) and sections[i].kind == "expected":
            enames, group = _read_table(sections[i], out_types, "channel")
            emissing = sorted(set(out_types) - set(enames))
            if emissing:
                _fail(sections[i].line, 1, f"missing output channels: {emissing}")
            if group.horizon != inputs.horizon:
                _fail(sections[i].line, 1,
                      f"expected table has {group.horizon} ticks, inputs have {inputs.horizon}")
            groups.append(group)
            i += 1
        # params, when per-tick streams, must match the horizon
        for pname, stream in params.items():
            if stream.horizon not in (1, inputs.horizon):
                _fail(sections[0].line, 1,
                      f"parameter {pname!r} has {stream.horizon} ticks, inputs have {inputs.horizon}")
            if stream.horizon == 1 and inputs.horizon != 1:
                params[pname] = TimedStream(stream.elem_type, stream.values * inputs.horizon)
        cases.append(TestCase(name, inputs, ExpectedResult(tuple(groups)), params))
    return cases


def _write_table(out: list[str], marker: str, hist: ChannelHistory) -> None:
    names = sorted(hist.streams)
    out.append(marker)
    out.append(",".join(names))
    for t in range(1, hist.horizon + 1):
        out.append(",".join(literal_text(hist.at(n, t)) for n in names))


def serialize_testcases(cases: list[TestCase]) -> str:
    """Render cases so that parsing the output reproduces them."""
    out: list[str] = []
    for tc in cases:
        out.append(f"#case {tc.name}")
        if tc.params:
            _write_table(out, "#params", ChannelHistory(dict(tc.params)))
        _write_table(out, "#inputs", tc.input)
        for group in tc.expected.groups:
            _write_table(out, "#expected", group)
    return "\n".join(out) + ("\n" if out else "")
