"""The row-wise vector reader and the eager verdict comparison that
streamcheck shipped before it read tables by column, kept as the reference
for differential tests of `vectors.parse_testcases` and
`testcases.compare_histories`.

The reader runs `csv` over every data line of a file before it reads any
table, converts and range-checks one cell at a time with `_parse_cell`, and
checks every value again in `TimedStream.of`. A line with a cell over csv's
field limit is an error where its table's header or row is read. The comparison formats a log
line for every tick and channel of every expected group it tries.
"""

from __future__ import annotations

import csv
import difflib
import io
from dataclasses import dataclass
from typing import Any, Optional

from streamcheck.components import SyntacticInterface
from streamcheck.streams import DataType, REAL_KIND
from streamcheck.histories import ChannelHistory, TimedStream
from streamcheck.testcases import (ERROR, FAIL, PASS, Divergence, ExpectedResult, TestCase,
                                   Verdict)
from streamcheck.vectors import _fail, _parse_cell


@dataclass
class _Section:
    kind: str  # case | params | inputs | expected
    arg: str
    line: int
    rows: list[tuple[int, list[str] | None]]  # None: a cell over csv's field limit


def _split_sections(text: str) -> list[_Section]:
    sections: list[_Section] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split(None, 1)
            kind = parts[0] if parts else ""
            if kind not in ("case", "params", "inputs", "expected"):
                _fail(lineno, 1, f"unknown section marker {line!r}")
            sections.append(_Section(kind, parts[1].strip() if len(parts) > 1 else "",
                                     lineno, []))
            continue
        if not sections:
            _fail(lineno, 1, "data before any section marker")
        try:
            cells = next(csv.reader(io.StringIO(raw)))
        except csv.Error:
            cells = None
        sections[-1].rows.append((lineno, cells))
    return sections


def _too_long(lineno: int) -> None:
    _fail(lineno, 1, f"cell longer than {csv.field_size_limit()} characters")


def _read_table(section: _Section, known: dict[str, DataType] | None,
                what: str) -> tuple[list[str], list[tuple[int, list[Any]]]]:
    """The names of a table's header and its rows; with `known` None, the
    header's names are not looked up and the rows' cells are left as text."""
    if not section.rows:
        _fail(section.line, 1, f"empty #{section.kind} table")
    header_line, header = section.rows[0]
    if header is None:
        _too_long(header_line)
    names = [h.strip() for h in header]
    for col, name in enumerate(names, start=1):
        if known is not None and name not in known:
            hint = difflib.get_close_matches(name, list(known), n=1)
            suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
            _fail(header_line, col, f"unknown {what} {name!r}{suggestion}")
    if len(set(names)) != len(names):
        _fail(header_line, 1, f"duplicate columns in #{section.kind} header")
    if known is None:
        return names, section.rows[1:]
    rows: list[tuple[int, list[Any]]] = []
    for lineno, cells in section.rows[1:]:
        if cells is None:
            _too_long(lineno)
        if len(cells) != len(names):
            _fail(lineno, 1, f"ragged row: {len(cells)} cells for {len(names)} columns")
        rows.append((lineno, [_parse_cell(cell, known[name], lineno, col)
                              for col, (name, cell) in enumerate(zip(names, cells), start=1)]))
    return names, rows


def _table_history(names: list[str], rows: list[tuple[int, list[Any]]],
                   types: dict[str, DataType]) -> ChannelHistory:
    columns: dict[str, list[Any]] = {n: [] for n in names}
    for _, cells in rows:
        for n, v in zip(names, cells):
            columns[n].append(v)
    return ChannelHistory({n: TimedStream.of(types[n], columns[n]) for n in names},
                          len(rows))


def parse_testcases(text: str, iface: SyntacticInterface,
                    param_types: dict[str, DataType] | None = None) -> list[TestCase]:
    """Parse all test-cases in a vector file, typed against an interface.
    Without `param_types`, a `#params` table's header and number of rows are
    checked, and the table is left out of its case."""
    in_types = {c.name: c.ctype for c in iface.inputs}
    out_types = {c.name: c.ctype for c in iface.outputs}
    sections = _split_sections(text)
    cases: list[TestCase] = []
    i = 0
    counter = 0
    while i < len(sections):
        name = None
        if sections[i].kind == "case":
            name = sections[i].arg or None
            if sections[i].rows:
                _fail(sections[i].rows[0][0], 1, "data rows directly under #case")
            i += 1
        counter += 1
        name = name or f"case{counter}"
        params: dict[str, TimedStream] = {}
        skipped = None  # (first name, rows) of an untyped #params table
        if i < len(sections) and sections[i].kind == "params":
            params_line = sections[i].line
            pnames, prows = _read_table(sections[i], param_types, "parameter")
            if param_types is None:
                skipped = (pnames[0], len(prows))
            else:
                params = dict(_table_history(pnames, prows, param_types).streams)
            i += 1
        if i >= len(sections) or sections[i].kind != "inputs":
            line = sections[i].line if i < len(sections) else sections[i - 1].line
            _fail(line, 1, f"expected #inputs for case {name!r}")
        names, rows = _read_table(sections[i], in_types, "channel")
        missing = sorted(set(in_types) - set(names))
        if missing:
            _fail(sections[i].line, 1, f"missing input channels: {missing}")
        inputs = _table_history(names, rows, in_types)
        i += 1
        groups = []
        while i < len(sections) and sections[i].kind == "expected":
            enames, erows = _read_table(sections[i], out_types, "channel")
            emissing = sorted(set(out_types) - set(enames))
            if emissing:
                _fail(sections[i].line, 1, f"missing output channels: {emissing}")
            if len(erows) != inputs.horizon:
                _fail(sections[i].line, 1,
                      f"expected table has {len(erows)} ticks, inputs have {inputs.horizon}")
            groups.append(_table_history(enames, erows, out_types))
            i += 1
        # params, when per-tick streams, must match the horizon
        if skipped is not None and skipped[1] not in (1, inputs.horizon):
            _fail(params_line, 1,
                  f"parameter {skipped[0]!r} has {skipped[1]} ticks, inputs have {inputs.horizon}")
        for pname, stream in params.items():
            if stream.horizon not in (1, inputs.horizon):
                _fail(params_line, 1,
                      f"parameter {pname!r} has {stream.horizon} ticks, inputs have {inputs.horizon}")
            if stream.horizon == 1 and inputs.horizon != 1:
                params[pname] = TimedStream.of(stream.elem_type,
                                               list(stream.values) * inputs.horizon)
        cases.append(TestCase(name, inputs, ExpectedResult(tuple(groups)), params))
    return cases


def _values_equal(expected: Any, actual: Any, kind: str, eps: float) -> bool:
    """Reals are equal when == says so (equal infinities) or within eps."""
    if kind == REAL_KIND:
        expected, actual = float(expected), float(actual)
        return expected == actual or abs(expected - actual) <= eps
    return expected == actual


def _match_group(actual: ChannelHistory, group: ChannelHistory,
                 eps: float) -> tuple[Optional[Divergence], list[str]]:
    """First divergence of actual against one expected group, plus a trace."""
    log = []
    first = None
    for t in range(1, actual.horizon + 1):
        for c in sorted(group.streams):
            exp = group.at(c, t)
            act = actual.at(c, t)
            ok = _values_equal(exp, act, actual.streams[c].elem_type.kind, eps)
            log.append(f"t={t} {c}: expected {exp!r}, actual {act!r} "
                       f"{'ok' if ok else 'MISMATCH'}")
            if not ok and first is None:
                first = Divergence(t, c, exp, act)
    return first, log


def compare_histories(actual: ChannelHistory, expected: ExpectedResult,
                      eps: float = 0.0) -> Verdict:
    """Pass iff the actual history equals some expected group (reals within eps)."""
    best: tuple[Optional[Divergence], list[str]] | None = None
    for group in expected.groups:
        if set(group.streams) != set(actual.streams):
            return Verdict(ERROR, log=(
                f"expected group channels {sorted(group.streams)} != "
                f"actual channels {sorted(actual.streams)}",))
        if group.horizon != actual.horizon:
            return Verdict(ERROR, log=(
                f"expected horizon {group.horizon} != actual horizon {actual.horizon}",))
        first, log = _match_group(actual, group, eps)
        if first is None:
            return Verdict(PASS, log=tuple(log))
        # keep the closest-matching group for the report
        if best is None or first.tick > best[0].tick:
            best = (first, log)
    if best is None:
        return Verdict(PASS, log=("no expected groups",))
    return Verdict(FAIL, first_divergence=best[0], log=tuple(best[1]))
