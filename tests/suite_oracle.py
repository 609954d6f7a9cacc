"""The per-case judging that streamcheck shipped before it judged suites
from their column batches, kept as the reference for differential tests.

`compare_histories`, `execute_test`, `suite_run`, `eval_relation`,
`check_correspondence` and `concretize` build and check one history per
table and judge one case or pair at a time; `main` runs `test`, `check` and
`concretize` as the command line did with them, over the row-wise reader of
`vector_oracle`, and every other command through `streamcheck.cli.main`.
Two fixes apply here too: equal infinities are equal reals, and a `check`
pair whose horizons differ is a usage error found before any pair runs.
"""

from __future__ import annotations

import sys
import warnings
from typing import Any, Mapping, Optional

import vector_oracle
from vector_oracle import _values_equal
from streamcheck import cli
from streamcheck.abstraction import ConcretizationWarning, CorrespondenceResult, fold_stream
from streamcheck.codegen import relation_ticks
from streamcheck.components import ComponentSpec
from streamcheck.simulator import run
from streamcheck.declarations import ConcretizerSpec, RelationSpec
from streamcheck.errors import (SimulationError, StreamcheckError, TypeMismatchError,
                                UnboundParameterError)
from streamcheck.streams import BOOL, REAL_KIND
from streamcheck.histories import ChannelHistory, TimedStream
from streamcheck.testcases import (ERROR, FAIL, PASS, Divergence, ExpectedResult, SuiteEntry,
                                   SuiteReport, TestCase, Verdict)
from streamcheck.vectors import VectorFormatError, _parse_cell, serialize_testcases


def _first_divergence(actual: ChannelHistory, group: ChannelHistory,
                      eps: float) -> Optional[Divergence]:
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
    try:
        actual = run(spec, tc.input, tc.horizon, check_determinism=check_determinism)
    except StreamcheckError as e:
        return None, Verdict(ERROR, log=(f"simulation error: {e}",))
    return actual, compare_histories(actual, tc.expected, eps)


def suite_run(spec: ComponentSpec, suite: list[TestCase], eps: float = 0.0,
              check_determinism: bool = False) -> SuiteReport:
    entries = []
    for tc in sorted(suite, key=lambda c: c.name):
        _, verdict = execute_test(spec, tc, eps, check_determinism)
        entries.append(SuiteEntry(tc.name, verdict))
    return SuiteReport(tuple(entries))


def eval_relation(rel: RelationSpec, a: ChannelHistory, c: ChannelHistory) -> tuple[bool, list[bool]]:
    overlap = set(a.streams) & set(c.streams)
    if overlap:
        raise TypeMismatchError(f"paired histories share channel names {sorted(overlap)}")
    if a.horizon != c.horizon:
        raise TypeMismatchError(f"horizon mismatch: {a.horizon} vs {c.horizon}")
    if rel.checker is not None:
        combined = a.merged(c)
        out = run(rel.checker, combined, combined.horizon)
        out_names = rel.checker.interface.output_names()
        if len(out_names) != 1 or rel.checker.interface.outputs[0].ctype != BOOL:
            raise TypeMismatchError(f"checker {rel.checker.name!r} must have one boolean output")
        ticks = list(out.streams[out_names[0]].values)
        return fold_stream(ticks), ticks
    columns = [s.values for s in a.streams.values()] + [s.values for s in c.streams.values()]
    ticks = relation_ticks(rel, a.signature() + c.signature(), columns, a.horizon)
    return fold_stream(ticks), ticks


def check_correspondence(spec_a: ComponentSpec, spec_c: ComponentSpec,
                         ri: RelationSpec, ro: RelationSpec,
                         ta: ChannelHistory, tc: ChannelHistory) -> CorrespondenceResult:
    diagnostics: list[str] = []
    try:
        ri_holds, ri_stream = eval_relation(ri, ta, tc)
        out_a = run(spec_a, ta)
        out_c = run(spec_c, tc)
        ro_holds, ro_stream = eval_relation(ro, out_a, out_c)
    except StreamcheckError as e:
        return CorrespondenceResult(False, False, False, status="error",
                                    diagnostics=(str(e),))
    if not ri_holds:
        diagnostics.append("RI does not hold on the inputs; correspondence is vacuous")
    corresponding = (not ri_holds) or ro_holds
    return CorrespondenceResult(ri_holds, ro_holds, corresponding,
                                tuple(ri_stream), tuple(ro_stream),
                                diagnostics=tuple(diagnostics),
                                abstract_output=out_a, concrete_output=out_c)


def concretize(conc: ConcretizerSpec, p: Mapping[str, Any], ta: ChannelHistory,
               ri: RelationSpec | None = None) -> ChannelHistory:
    streams = dict(ta.streams)
    horizon = ta.horizon
    for decl in conc.params:
        if decl.name not in p:
            raise UnboundParameterError(f"parameter {decl.name!r} is unbound")
        value = p[decl.name]
        if isinstance(value, TimedStream):
            streams[decl.name] = value
        else:
            streams[decl.name] = TimedStream.of(decl.dtype, [value] * horizon)
    extra = set(p) - {d.name for d in conc.params}
    if extra:
        raise UnboundParameterError(f"unknown parameters {sorted(extra)}")
    inputs = ChannelHistory(streams, horizon)
    result = run(conc.component, inputs, horizon)
    if ri is not None:
        holds, _ = eval_relation(ri, ta, result)
        if not holds:
            warnings.warn(f"concretizer {conc.name!r} produced an input violating RI",
                          ConcretizationWarning)
    return result


# ---------------------------------------------------------------------------
# The command line, one case or pair at a time


def _read_vectors(path: str, iface, param_types=None) -> list[TestCase]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return vector_oracle.parse_testcases(fh.read(), iface, param_types)
    except (OSError, UnicodeDecodeError) as e:
        raise cli._read_error("vector file", path, e)
    except VectorFormatError as e:
        raise cli.CliError(f"{path}: " + "; ".join(map(str, e.diagnostics)))


def cmd_test(args) -> int:
    doc = cli._load_documents(args.model)
    spec = cli._get(doc.components, args.component, "component")
    cases = []
    for path in args.vectors:
        cases.extend(_read_vectors(path, spec.interface))
    suite = suite_run(spec, cases, eps=args.eps, check_determinism=args.check_determinism)

    def report(paint) -> list[str]:
        lines = []
        for entry in suite.entries:
            v = entry.verdict
            mark = paint.green("PASS") if v.status == PASS else paint.red(v.status.upper())
            detail = f" ({v.first_divergence})" if v.first_divergence else ""
            if v.status == "error":
                detail = f" ({'; '.join(v.log)})"
            lines.append(f"{mark}  {entry.case}{detail}")
        lines.append(f"{suite.passed} passed, {suite.failed} failed, {suite.errors} errors")
        return lines

    payload = [{"case": entry.case, "status": entry.verdict.status,
                "first_divergence": (str(entry.verdict.first_divergence)
                                     if entry.verdict.first_divergence else None)}
               for entry in suite.entries]
    cli._emit(args, {"command": "test", "component": spec.name, "cases": payload,
                     "passed": suite.passed, "failed": suite.failed, "errors": suite.errors},
              report)
    if suite.errors:
        return cli.EXIT_RUNTIME
    return cli.EXIT_OK if suite.ok else cli.EXIT_FAILURE


def cmd_concretize(args) -> int:
    doc = cli._load_documents(args.model)
    ref, parts = cli._refinement_parts(doc, args.refinement)
    conc = parts["concretizer"]
    if conc is None:
        raise cli.CliError(f"refinement {ref.name!r} names no concretizer")
    abstract = parts["abstract"]
    if abstract is None:
        raise cli.CliError(f"refinement {ref.name!r} names no abstract component")
    if not args.vectors:
        raise cli.CliError("concretize needs --vectors with abstract cases")
    param_types = {p.name: p.dtype for p in conc.params}
    cases = _read_vectors(args.vectors[0], abstract.interface, param_types)
    cli_params = {}
    for item in args.param or []:
        if "=" not in item:
            raise cli.CliError(f"--param must be name=value, got {item!r}")
        pname, _, raw = item.partition("=")
        dtype = param_types.get(pname)
        if dtype is None:
            raise cli.CliError(f"unknown parameter {pname!r} (declared: {sorted(param_types)})")
        try:
            cli_params[pname] = _parse_cell(raw, dtype, 0, 0)
        except VectorFormatError as e:
            raise cli.CliError(f"--param {pname}: {e.diagnostics[0].message}")
    out_cases = []
    warned = []
    for tc in cases:
        bindings: dict[str, Any] = dict(tc.params)
        bindings.update(cli_params)
        missing = sorted(set(param_types) - set(bindings))
        if missing:
            raise cli.CliError(f"case {tc.name!r}: unbound parameters {missing}")
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ConcretizationWarning)
                concrete_input = concretize(conc, bindings, tc.input, ri=parts["ri"])
            for w in caught:
                warned.append(f"case {tc.name!r}: {w.message}")
        except StreamcheckError as e:
            raise cli.CliError(f"case {tc.name!r}: {e}", cli.EXIT_RUNTIME)
        out_cases.append(TestCase(tc.name, concrete_input, ExpectedResult(())))
    text = serialize_testcases(out_cases)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise cli.CliError(f"cannot write {args.out}: {e.strerror or e}")

    def report(paint) -> list[str]:
        head = f"wrote {len(out_cases)} concrete case(s) to {args.out}" if args.out else text
        return [head] + [paint.red("warning: " + w) for w in warned]

    cli._emit(args, {"command": "concretize", "refinement": ref.name,
                     "cases": [tc.name for tc in out_cases], "warnings": warned,
                     "output": args.out or text}, report)
    return cli.EXIT_OK


def cmd_check(args) -> int:
    doc = cli._load_documents(args.model)
    ref, parts = cli._refinement_parts(doc, args.refinement)
    for key in ("abstract", "concrete", "ri", "ro"):
        if parts[key] is None:
            raise cli.CliError(f"refinement {ref.name!r} names no {key}")
    if len(args.vectors) != 2:
        raise cli.CliError("check needs --vectors <abstract.tv.csv> --vectors <concrete.tv.csv>")
    abs_cases = _read_vectors(args.vectors[0], parts["abstract"].interface)
    conc_cases = _read_vectors(args.vectors[1], parts["concrete"].interface)
    if len(abs_cases) != len(conc_cases):
        raise cli.CliError(f"case count mismatch: {len(abs_cases)} abstract vs "
                           f"{len(conc_cases)} concrete")
    for ta, tc in zip(abs_cases, conc_cases):
        if ta.horizon != tc.horizon:
            raise cli.CliError(f"pair ({ta.name}, {tc.name}): horizon mismatch: "
                               f"{ta.horizon} vs {tc.horizon}")
    results = []
    for ta, tc in zip(abs_cases, conc_cases):
        result = check_correspondence(parts["abstract"], parts["concrete"],
                                      parts["ri"], parts["ro"], ta.input, tc.input)
        if result.status == "error":
            raise cli.CliError(f"pair ({ta.name}, {tc.name}): " + "; ".join(result.diagnostics),
                               cli.EXIT_RUNTIME)
        results.append((ta.name, tc.name, result))
    all_ok = all(result.corresponding for _, _, result in results)

    def report(paint) -> list[str]:
        lines = []
        for a_name, c_name, result in results:
            ok = result.corresponding
            mark = paint.green("CORRESPONDING") if ok else paint.red("NOT CORRESPONDING")
            lines.append(f"{mark}  ({a_name}, {c_name})  RI={result.ri_holds} RO={result.ro_holds}")
            if not result.ri_holds:
                lines.append(f"  warning: vacuous pass, RI fails at ticks "
                             f"{[i + 1 for i, b in enumerate(result.ri_stream) if not b]}")
            if not ok:
                lines.append(f"  RO false at ticks "
                             f"{[i + 1 for i, b in enumerate(result.ro_stream) if not b]}")
        return lines

    payload = [{"abstract_case": a_name, "concrete_case": c_name,
                "ri_holds": result.ri_holds, "ro_holds": result.ro_holds,
                "corresponding": result.corresponding,
                "ri_stream": list(result.ri_stream),
                "ro_stream": list(result.ro_stream)} for a_name, c_name, result in results]
    cli._emit(args, {"command": "check", "refinement": ref.name, "pairs": payload,
                     "all_corresponding": all_ok}, report)
    return cli.EXIT_OK if all_ok else cli.EXIT_FAILURE


COMMANDS = {"test": cmd_test, "check": cmd_check, "concretize": cmd_concretize}


def main(argv: list[str]) -> int:
    """`streamcheck.cli.main`, with `test`, `check` and `concretize` as above."""
    try:
        args = cli._parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    command = COMMANDS.get(args.command)
    if command is None:
        return cli.main(argv)
    try:
        return command(args)
    except cli.CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except SimulationError as e:
        print(f"simulation error: {e}", file=sys.stderr)
        return cli.EXIT_RUNTIME
    except StreamcheckError as e:
        print(f"error: {e}", file=sys.stderr)
        return cli.EXIT_USAGE
