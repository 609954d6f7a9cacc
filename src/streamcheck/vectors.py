"""Reader/writer for `.tv.csv` test-vector files.

Layout per case: an optional `#case <name>` marker, an optional `#params`
table, one `#inputs` table, and one or more `#expected` tables (alternative
output groups). Each table is a CSV header of channel names followed by one
row per tick. Booleans are `true`/`false`, enumeration cells are bare labels,
reals use decimal-point notation.

One reader (`_Reader`) reads a file's sections, each as its kind, its
argument and its lines: the marker line, then the header line and the body
text, if any. One finder (`_sections`) gives it the sections of every file,
once each line break of `str.splitlines` is written as "\\n" (`_lines`): it
splits the text at every "\\n#" and each section into its marker line,
header line and body text; the reader counts a body's rows with
`str.count`. Blank lines are dropped: one whole-text search tells whether
any line is empty or starts with whitespace, and only then is a copy of the
text without blank lines, and without the blanks before indented markers,
split instead. No line is numbered until an error is reported: then the
offset of its section's '#' gives the number of its marker line, and its
lines below give the rest.

The reader follows the grammar of a case (`_cases`) and checks each
table's structure when it reaches it: the marker, the header (each distinct
header line once per file and role), the channels it covers and its number
of rows. It queues the table's body behind those of earlier tables with the
same header, and converts such a batch column by column, each column at
once by its channel's type, when the batch holds BATCH_ROWS rows or the file
ends. The cells of int, bool and enum columns are converted once per
distinct spelling and file by `_parse_cell` (`_Cells`), those of real
columns one by one. The converted columns form a `histories.Block`, and
each table becomes a `histories.Table`: a reference to its rows of the
block, with nothing copied (`read_vectors`). Their values conform to their types, so
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
from itertools import repeat
from typing import Any, Iterable, Sequence

from .components import SyntacticInterface
from .errors import Diagnostic, ModelFormatError
from .histories import Block, ChannelHistory, Table
from .serialize import literal_text
from .streams import BOOL_KIND, DataType, INT_KIND, REAL_KIND
from .testcases import TestCase, VectorCase


# The longest cell, in characters, counted after quotes are removed: the csv
# module's default field limit, applied to lines with and without quotes.
MAX_CELL = 131072

# The rows of a batch: the bodies of tables that share a header are converted
# together once they hold this many rows. Much larger batches are slower and
# hold more of a file's cells in memory at once.
BATCH_ROWS = 2000

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


def _unreadable(raw: str) -> str:
    """The message for a line that `_split` cannot read."""
    return f"cell longer than {MAX_CELL} characters" if len(raw) > MAX_CELL else "unreadable row"


class _Cells(dict):
    """The value of each distinct cell of one type in a file, converted by
    `_parse_cell` at its first lookup, which raises where it fails."""

    __slots__ = ("dtype",)

    def __init__(self, dtype: DataType):
        self.dtype = dtype

    def __missing__(self, cell: str) -> Any:
        value = self[cell] = _parse_cell(cell, self.dtype, 0, 0)
        return value


def _first_error(types: list[DataType], linenos: Sequence[int], body: list[str]) -> None:
    """Raise the first error of a table in row-major order."""
    for lineno, raw in zip(linenos, body):
        cells = _split(raw)
        if not cells:
            _fail(lineno, 1, _unreadable(raw))
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


# A section: its kind, its argument and its lines: the marker line after its
# '#', then the header line and the body text, if any, without blank lines.
_Section = tuple[str, str, list[str]]

# The line breaks of `str.splitlines` other than "\n".
_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_BREAK = re.compile(f"[{_BREAKS}]")
# A line after the first that is empty or starts with whitespace.
_SPACED = re.compile(r"\n\s")
# Blank lines, each with the line break before it, and the blanks before a
# marker's '#': a text without them has the same sections.
_BLANKS = re.compile(r"\n\s+(?=#|\Z)|\n\s*\n")
# A marker line, from the line break before it to its '#'.
_MARK = re.compile(r"\n[^\S\n]*#")
# The markers without an argument.
_MARKERS = {kind: (kind, "") for kind in _KINDS}


def _lines(text: str) -> str:
    """The text with every line break of `str.splitlines` written as "\\n",
    so that its lines are numbered as `splitlines` numbers them."""
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if any(c in text for c in _BREAKS):
        text = _BREAK.sub("\n", text)
    return text


def _sections(text: str) -> list[_Section]:
    """The sections of a text from `_lines`, found by splitting it at every
    "\\n#". Every marker is checked. When a line is empty or starts with
    whitespace, a copy of the text without _BLANKS is split instead."""
    found = text
    if text[:1].isspace() or _SPACED.search(text):
        found = _BLANKS.sub("\n", text).lstrip()
    parts = found.split("\n#")
    if parts[0].startswith("#"):
        parts[0] = parts[0][1:]
    elif parts[0]:
        _fail(text.count("\n", 0, len(text) - len(text.lstrip())) + 1, 1,
              "data before any section marker")
    else:
        del parts[0]
    if parts:  # the line break that ends the text
        parts[-1] = parts[-1].rstrip("\n")
    for k, part in enumerate(parts):  # replaced one by one: the file is held once more, not twice
        lines = part.split("\n", 2)
        marker = _MARKERS.get(lines[0])
        if marker is None:
            marker = _marker(lines[0])
            if marker[0] not in _KINDS:
                _fail(text.count("\n", 0, _markers(text)[k]) + 1, 1,
                      f"unknown section marker {('#' + lines[0]).rstrip()!r}")
        else:  # one string for every bare marker line of a kind, not a copy each
            lines[0] = marker[0]
        parts[k] = marker + (lines,)
    return parts


def _markers(text: str) -> list[int]:
    """The offset of each marker's '#' in a text from `_lines`, found only
    to locate an error."""
    return [m.end() - 2 for m in _MARK.finditer("\n" + text)]


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
    except (ValueError, VectorFormatError):
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


class _Reader:
    """The tables of a file's sections (from `_sections`), queued by header
    and converted in batches of about BATCH_ROWS rows. A table is known by
    its serial number, in file order; it is in `tables` once its batch is
    converted. Every error is reported at its line as if each table were
    converted as soon as its header was read. Lines are counted only for an
    error, in the text from `_lines`: up to the '#' of the section's
    marker, then below it, blank lines skipped."""

    def __init__(self, text: str, sections: list[_Section]):
        self.text, self.sections = text, sections
        self.batches: dict[tuple[str, str], _Batch] = {}
        self.tables: list[Table | None] = []
        self.cells: dict[DataType, dict[str, Any]] = {}

    def linenos(self, i: int) -> list[int]:
        """The numbers of the lines of section i: its marker line, then each
        line below it that is not blank."""
        text = self.text
        marks = _markers(text) + [len(text)]
        first = text.count("\n", 0, marks[i]) + 1
        return [first + k for k, line in enumerate(text[marks[i]:marks[i + 1]].split("\n"))
                if not k or line.strip()]

    def fail(self, i: int, message: str, below: int = 0, column: int = 1) -> None:
        """Report an error at a line of section i, `below` lines after its
        marker line, after any error of a table queued before it."""
        self.flush()
        raise VectorFormatError([Diagnostic(self.linenos(i)[below], column, message)])

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
        batch = self.batches.get((kind, header))
        if batch is None:
            batch = self.batch(kind, i, known, what)
        if batch.types is None:
            return batch, None, rows
        serial = len(self.tables)
        self.tables.append(None)
        if body:
            batch.parts.append(body)
        batch.queue.append((serial, rows, i))
        batch.rows += rows
        if batch.rows >= BATCH_ROWS:
            self._convert_batch(batch)
        return batch, serial, rows

    def batch(self, kind: str, i: int, known: dict[str, DataType] | None, what: str) -> _Batch:
        """The batch of section i's header line, whose names are checked
        against `known` unless it is None."""
        header = self.sections[i][2][1]
        cells = _split(header)
        if not cells:
            self.fail(i, _unreadable(header), 1)
        names = [h.strip() for h in cells]
        for col, name in enumerate(names, start=1):
            if known is not None and name not in known:
                self.fail(i, f"unknown {what} {name!r}{_suggestion(name, list(known))}", 1, col)
        if len(set(names)) != len(names):
            self.fail(i, f"duplicate columns in #{kind} header", 1)
        types = None if known is None else [known[n] for n in names]
        missing = [] if kind == "params" else sorted(set(known) - set(names))
        batch = self.batches[kind, header] = _Batch(names, types, missing,
                                                    [self._cells(t) for t in types or ()])
        return batch

    def _cells(self, dtype: DataType) -> dict[str, Any] | None:
        """The distinct cells of a type in this file; None for a real type."""
        if dtype.kind == REAL_KIND:
            return None
        cells = self.cells.get(dtype)
        if cells is None:
            cells = self.cells[dtype] = _Cells(dtype)
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
        queued = sorted(((entry, batch) for batch in self.batches.values()
                         for entry in batch.queue), key=lambda q: q[0][0])
        for (_, rows, i), batch in queued:
            if rows and _convert(batch.cells, self.sections[i][2][2], rows) is None:
                _first_error(batch.types, self.linenos(i)[2:], self.sections[i][2][2].split("\n"))
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
        kind, arg, _ = sections[i]
        name = None
        if kind == "case":
            if len(sections[i][2]) > 1:  # lines below the marker line
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
    text = _lines(text)
    return _cases(_Reader(text, _sections(text)), in_types, out_types, param_types)


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
