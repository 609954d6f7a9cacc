"""Reader/writer for `.tv.csv` test-vector files.

Layout per case: an optional `#case <name>` marker, an optional `#params`
table, one `#inputs` table, and one or more `#expected` tables (alternative
output groups). Each table is a CSV header of channel names followed by one
row per tick. Booleans are `true`/`false`, enumeration cells are bare labels,
reals use decimal-point notation.

One reader (`_Reader`) reads a file's sections, each as its kind, its
argument and its lines: the marker line, then the header line and the body
text, if any. Two finders give it the sections. The whole-text pass
(`_sections`) splits the text at every "\\n#" and each section into its
marker line, header line and body text; the reader counts a body's rows
with `str.count`. The pass takes a file only when cheap whole-text tests
show that its sections are the ones the line walk finds. The line walk
(`_scan`) splits the text into lines, drops the blank ones, joins each
table's lines into its body, and gives the index of each marker line and
the line number of each line. With those numbers, the reader reports every
error at its line; without them, any error leaves the file to the line
walk, and the reader reads the sections that the line walk finds.

The reader follows the grammar of a case (`_cases`) and checks each
table's structure when it reaches it: the marker, the header (each distinct
header line once per file and role), the channels it covers and its number
of rows. It queues the table's body behind those of earlier tables with the
same header, and converts such a batch column by column, each column at
once by its channel's type, when the batch holds BATCH_ROWS rows or the file
ends. The cells of int, bool and enum columns are converted once per
distinct spelling and file (`_Ints`, `_Labels`), those of real columns one
by one. The converted columns form a `streams.Block`, and each table
becomes a `streams.Table`: a reference to its rows of the block, with
nothing copied (`read_vectors`). Their values conform to their types, so
nothing checks them again. `parse_testcases` builds histories from the
tables, whose streams are recorded as conforming (`TimedStream.conforming`).

Errors are reported as if each table were converted as soon as its header
was read: before the reader reports a structural error, it converts every
table queued so far. Only a batch that fails is read again, table by table,
and only the first table that fails, in file order, cell by cell with
`_parse_cell`, to report its first error in row-major order (see
docs/grammar.md).
"""

from __future__ import annotations

import csv
import re
from itertools import compress, repeat
from operator import itemgetter
from typing import Any, Iterable, Sequence

from .components import SyntacticInterface
from .errors import Diagnostic, ModelFormatError
from .streams import (BOOL_KIND, Block, ChannelHistory, DataType, INT_KIND, REAL_KIND, Table,
                      literal_text)
from .testcases import TestCase, VectorCase


# The longest cell, in characters, counted after quotes are removed: the csv
# module's default field limit, applied to lines with and without quotes.
MAX_CELL = 131072

# The rows of a batch: the bodies of tables that share a header are converted
# together once they hold this many rows. Much larger batches are slower and
# hold more of a file's cells in memory at once.
BATCH_ROWS = 2000

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
    _fail(line, column, f"unknown enumeration label {text!r}{_suggestion(text, dtype.labels)}")


def _suggestion(word: str, choices: Sequence[str]) -> str:
    """'; did you mean ...?' naming the closest of the choices, or ''."""
    import difflib  # only these error messages need it
    hint = difflib.get_close_matches(word, choices, n=1)
    return f"; did you mean {hint[0]!r}?" if hint else ""


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


# The value of each distinct cell of one type in a file, converted at its
# first lookup: `_Ints` strips it, reads it as an integer and range-tests
# it; `_Labels` strips it and looks it up among the type's labels. A lookup
# raises ValueError or KeyError exactly where `_parse_cell` fails on the cell.

class _Ints(dict):
    __slots__ = ("lo", "hi")

    def __init__(self, dtype: DataType):
        self.lo, self.hi = dtype.lo, dtype.hi

    def __missing__(self, cell: str) -> int:
        value = int(cell.strip())
        if not self.lo <= value <= self.hi:
            raise ValueError("out of range")
        self[cell] = value
        return value


class _Labels(dict):
    __slots__ = ("labels",)

    def __init__(self, dtype: DataType):
        self.labels = _BOOLS if dtype.kind == BOOL_KIND else dict(zip(dtype.labels, dtype.labels))

    def __missing__(self, cell: str) -> Any:
        value = self[cell] = self.labels[cell.strip()]
        return value


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


def _columns(body: str, rows: int, n: int) -> Sequence[Sequence[str]] | None:
    """The cells of a table body, whose rows are joined by newlines, by
    column; None when a row is ragged or unreadable. Without quotes or long
    lines, the whole body is split at once, with a cell of one newline
    (which no line holds) between rows: the rows are all n cells wide when
    every (n+1)-th cell is such a separator."""
    if '"' in body or (len(body) > MAX_CELL and max(map(len, body.split("\n"))) > MAX_CELL):
        cells = list(map(_split, body.split("\n")))
        return list(zip(*cells)) if set(map(len, cells)) == {n} else None
    if not rows:
        return [()] * n
    flat = body.replace("\n", ",\n,").split(",")
    if len(flat) != rows * (n + 1) - 1 or flat[n::n + 1].count("\n") != rows - 1:
        return None
    return [flat[j::n + 1] for j in range(n)]


_KINDS = ("case", "params", "inputs", "expected")


def _marker(line: str) -> tuple[str, str]:
    """The kind and argument of a marker line, read after its '#'."""
    parts = line.split(None, 1)
    return parts[0] if parts else "", parts[1].strip() if len(parts) > 1 else ""


# A section: its kind, its argument, its lines (the marker line after its
# '#', then the header line and the body text, if any) and the index of its
# marker line among the file's non-blank lines, or None from the whole-text
# pass, which counts no lines.
_Section = tuple[str, str, list[str], int | None]


def _scan(text: str) -> tuple[list[_Section], Sequence[int]]:
    """The file's sections, found line by line, as `_sections` finds them,
    where a table's body joins its non-blank lines; and the line number of
    each non-blank line. Every marker is checked."""
    lines = text.splitlines()
    stripped = list(map(str.strip, lines))
    linenos: Sequence[int] = range(1, len(lines) + 1)
    if "" in stripped:
        keep = list(compress(range(len(lines)), stripped))
        lines, stripped = list(map(lines.__getitem__, keep)), list(filter(None, stripped))
        linenos = [k + 1 for k in keep]
    # the first character of every line, so that markers are found in one search
    firsts = "".join(map(itemgetter(0), stripped))
    marks = [m.start() for m in re.finditer("#", firsts)]
    if lines and (not marks or marks[0]):
        _fail(linenos[0], 1, "data before any section marker")
    sections = []
    for at, end in zip(marks, marks[1:] + [len(lines)]):
        head = lines[at].lstrip()[1:]
        kind, arg = _MARKERS.get(head) or _marker(head)
        if kind not in _KINDS:
            _fail(linenos[at], 1, f"unknown section marker {stripped[at]!r}")
        if end > at + 2:  # a header and rows
            part = [head, lines[at + 1], "\n".join(lines[at + 2:end])]
        else:
            part = [head, *lines[at + 1:end]]
        sections.append((kind, arg, part, at))
    return sections, linenos


# What makes a file one for the line walk: a quote, which the csv module
# reads, and the line breaks other than "\n" at which `str.splitlines` splits.
_WALKED = ('"', "\r", "\v", "\f", "\x1c", "\x1d", "\x1e")
# The markers without an argument.
_MARKERS = {kind: (kind, "") for kind in _KINDS}


def _sections(text: str) -> list[_Section] | None:
    """The file's sections, found by splitting the whole text at "\\n#";
    None unless cheap whole-text tests show that the line walk (`_scan`)
    finds the same markers: the text is ASCII with none of _WALKED, so lines
    end at "\\n" only, every '#' starts a line, nothing but empty lines
    comes before the first marker, and every marker is known. Empty lines
    that end a section are dropped; the reader leaves the file to the line
    walk when any other blank line would be read."""
    if not text.isascii() or any(c in text for c in _WALKED):
        return None
    parts = text.split("\n#")
    if parts[0].startswith("#"):
        parts[0] = parts[0][1:]
    elif parts[0].strip("\n"):
        return None
    else:
        del parts[0]
    if text.count("#") != len(parts):
        return None
    for k, part in enumerate(parts):  # replaced one by one: the file is held once more, not twice
        lines = part.rstrip("\n").split("\n", 2)
        marker = _MARKERS.get(lines[0])
        if marker is None:
            marker = _marker(lines[0])
        else:  # one string for every bare marker line of a kind, not a copy each
            lines[0] = marker[0]
        if marker[0] not in _KINDS:
            return None
        parts[k] = (*marker, lines, None)
    return parts


def _header(raw: str, line: int, kind: str, known: dict[str, DataType] | None,
            what: str) -> list[str]:
    """The channel names of a table's header line, checked against `known`
    unless it is None."""
    header = _split(raw)
    if not header:
        _unreadable(line, raw)
    names = [h.strip() for h in header]
    for col, name in enumerate(names, start=1):
        if known is not None and name not in known:
            _fail(line, col, f"unknown {what} {name!r}{_suggestion(name, list(known))}")
    if len(set(names)) != len(names):
        _fail(line, 1, f"duplicate columns in #{kind} header")
    return names


def _convert(cells: list[dict[str, Any] | None], body: str, rows: int
             ) -> list[tuple[Any, ...]] | None:
    """A table body's columns, each converted through the distinct cells of
    its type, or by `float` cell by cell for a real column (`cells` None);
    None when a row is ragged or unreadable or a cell does not convert."""
    columns = _columns(body, rows, len(cells))
    if columns is None:
        return None
    try:
        return [tuple(map(float, map(str.strip, col))) if c is None
                else tuple(map(c.__getitem__, col)) for c, col in zip(cells, columns)]
    except (ValueError, KeyError):
        return None


class _Batch:
    """The queued bodies of tables that share a header line; `types` is None
    for a `#params` header read without parameter types."""

    def __init__(self, names: list[str], types: list[DataType] | None, missing: list[str],
                 cells: list[dict[str, Any] | None]):
        self.names, self.types = names, types
        self.missing = missing  # the channels the header lacks
        self.cells = cells  # the distinct cells of each column's type; None for a real
        self.parts: list[str] = []  # the queued bodies, joined by newlines when converted
        self.rows = 0
        self.queue: list[tuple[int, int, int]] = []  # (serial, rows, section index)


class _Unread(Exception):
    """The whole-text pass leaves the file to the line walk."""


class _Reader:
    """The tables of a file's sections, from `_sections` or `_scan`, queued
    by header and converted in batches of about BATCH_ROWS rows. A table is
    known by its serial number, in file order; it is in `tables` once its
    batch is converted.

    With line numbers (from `_scan`), every error is reported at its line
    as if each table were converted as soon as its header was read. Without
    them (from `_sections`), any error leaves the file to the line walk
    (`_Unread`). The line walk skips blank lines, which the whole-text pass
    reads as lines, so that pass also leaves the file to it wherever it
    would read one: as a header, as a row of a `#params` table whose cells
    it does not convert, or as a row whose cells would convert. A cell of a
    blank row strips to "", which converts only as a label "" of an
    enumeration; in a row of more than one cell it is a ragged row."""

    def __init__(self, sections: list[_Section], linenos: Sequence[int] | None = None):
        self.sections, self.linenos = sections, linenos
        self.batches: dict[tuple[str, str], _Batch] = {}
        self.tables: list[Table | None] = []
        self.cells: dict[DataType, dict[str, Any]] = {}

    def line(self, i: int, below: int = 0) -> int:
        """The number of the line `below` lines after section i's marker; 0
        without line numbers."""
        return 0 if self.linenos is None else self.linenos[self.sections[i][3] + below]

    def fail(self, i: int, message: str, below: int = 0) -> None:
        """Report a structural error at a line of section i."""
        self.failed(VectorFormatError([Diagnostic(self.line(i, below), 1, message)]))

    def failed(self, error: VectorFormatError) -> None:
        """Report an error, after any error of a table queued before it."""
        if self.linenos is None:
            raise _Unread
        self.flush()
        raise error

    def under(self, i: int) -> bool:
        """Whether lines follow section i's marker line."""
        return len(self.sections[i][2]) > 1

    def table(self, kind: str, i: int, known: dict[str, DataType] | None,
              what: str) -> tuple[_Batch, int | None, int]:
        """Queue the table of section i: its batch, its serial number and its
        number of rows. With `known` None, only the header is checked, and
        the table is skipped (serial number None)."""
        lines = self.sections[i][2]
        if len(lines) < 2:
            self.fail(i, f"empty #{kind} table")
        header, body = lines[1], lines[2] if len(lines) > 2 else ""
        rows = body.count("\n") + 1 if body else 0
        walked = self.linenos is not None
        batch = self.batches.get((kind, header))
        if batch is None:
            batch = self.batch(kind, header, self.line(i, 1), known, what)
            if not walked and (not header.strip()
                               or any("" in t.labels for t in batch.types or ())):
                raise _Unread
        if batch.types is None:
            if not walked and body and not all(map(str.strip, body.split("\n"))):
                raise _Unread
            return batch, None, rows
        if body:
            batch.parts.append(body)
        return batch, self.queue(batch, rows, i), rows

    def batch(self, kind: str, header: str, line: int, known: dict[str, DataType] | None,
              what: str) -> _Batch:
        """The batch of a header line, whose names are checked against `known`."""
        try:
            names = _header(header, line, kind, known, what)
        except VectorFormatError as e:
            self.failed(e)
        types = None if known is None else [known[n] for n in names]
        missing = [] if kind == "params" else sorted(set(known) - set(names))
        cells = [self._cells(t) for t in types or ()]
        batch = self.batches[kind, header] = _Batch(names, types, missing, cells)
        return batch

    def queue(self, batch: _Batch, rows: int, i: int) -> int:
        """Queue section i's table, whose body is in the batch's parts; its
        serial number."""
        serial = len(self.tables)
        self.tables.append(None)
        batch.queue.append((serial, rows, i))
        batch.rows += rows
        if batch.rows >= BATCH_ROWS:
            self._convert_batch(batch)
        return serial

    def _cells(self, dtype: DataType) -> dict[str, Any] | None:
        """The distinct cells of a type in this file; None for a real type."""
        if dtype.kind == REAL_KIND:
            return None
        cells = self.cells.get(dtype)
        if cells is None:
            cells = self.cells[dtype] = (_Ints if dtype.kind == INT_KIND else _Labels)(dtype)
        return cells

    def flush(self) -> None:
        """Convert every queued table."""
        for batch in self.batches.values():
            if batch.queue:
                self._convert_batch(batch)

    def _convert_batch(self, batch: _Batch) -> None:
        values = _convert(batch.cells, "\n".join(batch.parts), batch.rows)
        if values is None:
            self.unconverted()
        block = Block(batch.names, batch.types, values)
        start = 0
        for serial, rows, _ in batch.queue:
            self.tables[serial] = Table(block, start, start + rows)
            start += rows
        batch.parts, batch.rows, batch.queue = [], 0, []

    def unconverted(self) -> None:
        """Raise the first error of the queued tables in file order."""
        if self.linenos is None:
            raise _Unread
        queued = sorted(((entry, batch) for batch in self.batches.values()
                         for entry in batch.queue), key=lambda q: q[0][0])
        for (_, rows, i), batch in queued:
            if rows and _convert(batch.cells, self.sections[i][2][2], rows) is None:
                first = self.sections[i][3] + 2
                _first_error(batch.types, self.linenos[first:first + rows],
                             self.sections[i][2][2].split("\n"))
        raise AssertionError("a batch failed to convert, but none of its tables did")


def _cases(reader: _Reader, in_types: dict[str, DataType], out_types: dict[str, DataType],
           param_types: dict[str, DataType] | None) -> list[VectorCase]:
    """The cases of the reader's sections: the grammar of a case."""
    sections = reader.sections
    # (name, params table or None, inputs table, expected tables), tables by serial number
    plans = []
    n = len(sections)
    i = counter = 0
    while i < n:
        kind, arg, _, _ = sections[i]
        name = None
        if kind == "case":
            if reader.under(i):
                reader.fail(i, "data rows directly under #case", 1)
            name = arg
            i += 1
        counter += 1
        name = name or f"case{counter}"
        params = params_at = None
        if i < n and sections[i][0] == "params":
            params_at = i
            params = reader.table("params", i, param_types, "parameter")
            i += 1
        if i >= n or sections[i][0] != "inputs":
            reader.fail(min(i, n - 1), f"expected #inputs for case {name!r}")
        batch, inputs, horizon = reader.table("inputs", i, in_types, "channel")
        if batch.missing:
            reader.fail(i, f"missing input channels: {batch.missing}")
        i += 1
        groups = []
        while i < n and sections[i][0] == "expected":
            batch, group, ticks = reader.table("expected", i, out_types, "channel")
            if batch.missing:
                reader.fail(i, f"missing output channels: {batch.missing}")
            if ticks != horizon:
                reader.fail(i, f"expected table has {ticks} ticks, inputs have {horizon}")
            groups.append(group)
            i += 1
        # params, when per-tick streams, must match the horizon
        if params is not None and params[2] not in (1, horizon):
            reader.fail(params_at, f"parameter {params[0].names[0]!r} has "
                        f"{params[2]} ticks, inputs have {horizon}")
        plans.append((name, params[1] if params else None, inputs, groups))
    reader.flush()
    tables = reader.tables
    return [VectorCase(name, None if params is None else tables[params], tables[inputs],
                       tuple(map(tables.__getitem__, groups)))
            for name, params, inputs, groups in plans]


def read_vectors(text: str, iface: SyntacticInterface,
                 param_types: dict[str, DataType] | None = None) -> list[VectorCase]:
    """Read all test-cases in a vector file, typed against an interface, as
    tables. Without `param_types`, each `#params` table is checked for its
    header and its number of rows only, and left out of its case."""
    in_types = {c.name: c.ctype for c in iface.inputs}
    out_types = {c.name: c.ctype for c in iface.outputs}
    sections = _sections(text)
    if sections is not None:
        try:
            return _cases(_Reader(sections), in_types, out_types, param_types)
        except _Unread:
            sections = None  # dropped before the line walk finds its own
    return _cases(_Reader(*_scan(text)), in_types, out_types, param_types)


def parse_testcases(text: str, iface: SyntacticInterface,
                    param_types: dict[str, DataType] | None = None) -> list[TestCase]:
    """Parse all test-cases in a vector file, typed against an interface.
    Without `param_types` (None), each `#params` table is checked for its
    header and its number of rows only, and the cases come without
    parameters; with `param_types`, even `{}`, the tables are typed by it,
    and a parameter it does not name is an error."""
    return [case.test_case() for case in read_vectors(text, iface, param_types)]


# How a column of values that conform to their type is written (see
# `literal_text`); an enumeration's labels are written as they are.
_FORMATS = {BOOL_KIND: {True: "true", False: "false"}.__getitem__, INT_KIND: repr,
            REAL_KIND: repr}


def _write_table(out: list[str], marker: str, table: Table) -> None:
    names = tuple(sorted(table.block.names))
    out.append(marker)
    out.append(",".join(names))
    formats = {n: _FORMATS.get(t.kind) if ok else literal_text
               for n, t, ok in table.block.signature()}
    columns = [col if formats[n] is None else map(formats[n], col)
               for n, col in zip(names, table.columns(names))]
    out.extend(map(",".join, zip(*columns)) if columns else repeat("", table.horizon))


def write_vectors(cases: Iterable[VectorCase]) -> str:
    """Render cases so that reading the output reproduces them."""
    out: list[str] = []
    for case in cases:
        out.append(f"#case {case.name}")
        if case.params is not None:
            _write_table(out, "#params", case.params)
        _write_table(out, "#inputs", case.inputs)
        for group in case.expected:
            _write_table(out, "#expected", group)
    return "\n".join(out) + ("\n" if out else "")


def serialize_testcases(cases: list[TestCase]) -> str:
    """Render cases so that parsing the output reproduces them."""
    return write_vectors(
        VectorCase(tc.name, Table.of(ChannelHistory(dict(tc.params))) if tc.params else None,
                   Table.of(tc.input), tuple(map(Table.of, tc.expected.groups)))
        for tc in cases)
