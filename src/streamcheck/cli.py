"""Command-line driver.

Exit codes: 0 success / all-pass, 1 semantic failure (test fail,
non-correspondence, Galois counterexample, causality counterexample),
2 usage or parse error, 3 runtime simulation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Any, Callable

from . import __version__
from .abstraction import (DEFAULT_UNIVERSE_CAP, concretize_cases, correspond, ri_violated,
                          verify_galois)
from .dsl import ModelDocument, load_model
from .errors import CapsExceededError, ModelFormatError, SimulationError, StreamcheckError
from .simulator import (DEFAULT_CAUSALITY_BUDGET, DEFAULT_CAUSALITY_HORIZON, check_causality,
                        run)
from .testcases import PASS, VectorCase, judge_suite
from .vectors import VectorFormatError, _parse_cell, read_vectors, write_vectors

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


class _Paint:
    """The colours of the human-readable report, decided once per command."""

    def __init__(self) -> None:
        value = os.environ.get("STREAMCHECK_COLOR")
        self.on = sys.stdout.isatty() if value is None else value not in ("0", "false", "no", "")

    def _paint(self, text: str, code: str) -> str:
        return f"\x1b[{code}m{text}\x1b[0m" if self.on else text

    def green(self, text: str) -> str:
        return self._paint(text, "32")

    def red(self, text: str) -> str:
        return self._paint(text, "31")


Report = Callable[[_Paint], list[str]]  # builds the human-readable lines


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _read_error(what: str, path: str, e: OSError | UnicodeDecodeError) -> CliError:
    if isinstance(e, FileNotFoundError):
        return CliError(f"{what} not found: {path}")
    if isinstance(e, UnicodeDecodeError):
        return CliError(f"cannot read {what} {path}: not UTF-8 ({e.reason} at byte {e.start})")
    return CliError(f"cannot read {what} {path}: {e.strerror or e}")


def _load_documents(paths: list[str]) -> ModelDocument:
    doc = ModelDocument()
    for path in paths:
        try:
            doc.merge(load_model(path, base=doc))
        except (OSError, UnicodeDecodeError) as e:
            raise _read_error("model file", path, e)
        except ModelFormatError as e:
            msgs = "\n".join(f"{path}:{d}" for d in e.diagnostics)
            raise CliError(f"model errors:\n{msgs}")
    return doc


def _get(doc_dict: dict, name: str | None, what: str):
    if name is None:
        raise CliError(f"missing --{what} name")
    value = doc_dict.get(name)
    if value is None:
        raise CliError(f"unknown {what} {name!r} (known: {sorted(doc_dict)})")
    return value


def _read_vectors(path: str, iface, param_types=None) -> list[VectorCase]:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return read_vectors(fh.read(), iface, param_types)
    except (OSError, UnicodeDecodeError) as e:
        raise _read_error("vector file", path, e)
    except ModelFormatError as e:
        raise CliError(f"{path}: " + "; ".join(map(str, e.diagnostics)))


def _read_all_vectors(paths: list[str], iface, param_types=None) -> list[VectorCase]:
    """The cases of every vector file, in order."""
    return [case for path in paths for case in _read_vectors(path, iface, param_types)]


def _emit(args, payload: dict[str, Any], report: Report) -> None:
    """Print the payload as JSON, or the report, which is built only then."""
    if args.format == "json":
        print(json.dumps(payload, default=str))
    else:
        for line in report(_Paint()):
            print(line)


def _render_table(headers: list[str], rows: list[list[Any]]) -> list[str]:
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return lines


# ---------------------------------------------------------------------------
# Subcommands


def cmd_simulate(args) -> int:
    doc = _load_documents(args.model)
    spec = _get(doc.components, args.component, "component")
    if not args.vectors:
        raise CliError("simulate needs --vectors")
    cases = [case.test_case() for case in _read_all_vectors(args.vectors, spec.interface)]
    if not cases:
        raise CliError("vector file holds no test-cases")
    for tc in cases:
        if args.ticks is not None and args.ticks > tc.horizon:
            raise CliError(f"case {tc.name!r}: input horizon {tc.horizon} < "
                           f"requested ticks {args.ticks}")
    runs = []
    for tc in cases:
        n = args.ticks if args.ticks is not None else tc.horizon
        try:
            runs.append((tc, n, run(spec, tc.input, n, check_determinism=args.check_determinism)))
        except StreamcheckError as e:
            raise CliError(f"simulation failed in case {tc.name!r}: {e}", EXIT_RUNTIME)

    def report(paint: _Paint) -> list[str]:
        lines = []
        for tc, n, out in runs:
            in_names, out_names = sorted(tc.input.streams), sorted(out.streams)
            rows = [[t] + [tc.input.at(c, t) for c in in_names] + [out.at(c, t) for c in out_names]
                    for t in range(1, n + 1)]
            lines.append(f"case {tc.name} ({spec.name}, {n} ticks)")
            lines.extend(_render_table(["tick"] + in_names + out_names, rows))
            lines.append("")
        return lines

    payload_cases = [{"case": tc.name, "ticks": n,
                      "inputs": {c: list(tc.input.streams[c].values[:n])
                                 for c in sorted(tc.input.streams)},
                      "outputs": {c: list(out.streams[c].values) for c in sorted(out.streams)}}
                     for tc, n, out in runs]
    _emit(args, {"command": "simulate", "component": spec.name, "cases": payload_cases}, report)
    return EXIT_OK


def cmd_test(args) -> int:
    doc = _load_documents(args.model)
    spec = _get(doc.components, args.component, "component")
    cases = _read_all_vectors(args.vectors, spec.interface)
    suite = judge_suite(spec, cases, eps=args.eps, check_determinism=args.check_determinism)

    def report(paint: _Paint) -> list[str]:
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
    _emit(args, {"command": "test", "component": spec.name, "cases": payload,
                 "passed": suite.passed, "failed": suite.failed, "errors": suite.errors},
          report)
    if suite.errors:
        return EXIT_RUNTIME
    return EXIT_OK if suite.ok else EXIT_FAILURE


def _refinement_parts(doc: ModelDocument, name: str):
    ref = _get(doc.refinements, name, "refinement")
    parts = {}
    parts["abstract"] = doc.components.get(ref.abstract) if ref.abstract else None
    parts["concrete"] = doc.components.get(ref.concrete) if ref.concrete else None
    parts["ri"] = doc.relations.get(ref.ri) if ref.ri else None
    parts["ro"] = doc.relations.get(ref.ro) if ref.ro else None
    parts["galois"] = doc.galois.get(ref.galois) if ref.galois else None
    parts["concretizer"] = doc.concretizers.get(ref.concretizer) if ref.concretizer else None
    return ref, parts


def cmd_concretize(args) -> int:
    doc = _load_documents(args.model)
    ref, parts = _refinement_parts(doc, args.refinement)
    conc = parts["concretizer"]
    if conc is None:
        raise CliError(f"refinement {ref.name!r} names no concretizer")
    abstract = parts["abstract"]
    if abstract is None:
        raise CliError(f"refinement {ref.name!r} names no abstract component")
    if not args.vectors:
        raise CliError("concretize needs --vectors with abstract cases")
    param_types = {p.name: p.dtype for p in conc.params}
    cases = _read_all_vectors(args.vectors, abstract.interface, param_types)
    cli_params = {}
    for item in args.param or []:
        if "=" not in item:
            raise CliError(f"--param must be name=value, got {item!r}")
        pname, _, raw = item.partition("=")
        dtype = param_types.get(pname)
        if dtype is None:
            raise CliError(f"unknown parameter {pname!r} (declared: {sorted(param_types)})")
        try:
            cli_params[pname] = _parse_cell(raw, dtype, 0, 0)
        except VectorFormatError as e:
            raise CliError(f"--param {pname}: {e.diagnostics[0].message}")
    # the cases are concretized in file order up to the first with an unbound parameter
    unbound = set(param_types) - set(cli_params)
    missing = [sorted(unbound - (tc.params.block.channels if tc.params else set()))
               for tc in cases]
    bound = next((k for k, names in enumerate(missing) if names), len(cases))
    concrete, failure = concretize_cases(conc, cases[:bound], cli_params, parts["ri"])
    if failure is not None:
        raise CliError(f"case {cases[failure[0]].name!r}: {failure[1]}", EXIT_RUNTIME)
    if bound < len(cases):
        raise CliError(f"case {cases[bound].name!r}: unbound parameters {missing[bound]}")
    out_cases = [VectorCase(tc.name, None, table, ()) for tc, (table, _) in zip(cases, concrete)]
    warned = [f"case {tc.name!r}: {ri_violated(conc)}"
              for tc, (_, holds) in zip(cases, concrete) if not holds]
    text = write_vectors(out_cases)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise CliError(f"cannot write {args.out}: {e.strerror or e}")

    def report(paint: _Paint) -> list[str]:
        head = f"wrote {len(out_cases)} concrete case(s) to {args.out}" if args.out else text
        return [head] + [paint.red("warning: " + w) for w in warned]

    _emit(args, {"command": "concretize", "refinement": ref.name,
                 "cases": [tc.name for tc in out_cases], "warnings": warned,
                 "output": args.out or text}, report)
    return EXIT_OK


def cmd_check(args) -> int:
    doc = _load_documents(args.model)
    ref, parts = _refinement_parts(doc, args.refinement)
    for key in ("abstract", "concrete", "ri", "ro"):
        if parts[key] is None:
            raise CliError(f"refinement {ref.name!r} names no {key}")
    if len(args.vectors) != 2:
        raise CliError("check needs --vectors <abstract.tv.csv> --vectors <concrete.tv.csv>")
    abs_cases = _read_vectors(args.vectors[0], parts["abstract"].interface)
    conc_cases = _read_vectors(args.vectors[1], parts["concrete"].interface)
    if len(abs_cases) != len(conc_cases):
        raise CliError(f"case count mismatch: {len(abs_cases)} abstract vs {len(conc_cases)} concrete")
    for ta, tc in zip(abs_cases, conc_cases):
        if ta.horizon != tc.horizon:
            raise CliError(f"pair ({ta.name}, {tc.name}): horizon mismatch: "
                           f"{ta.horizon} vs {tc.horizon}")
    checked, failure = correspond(parts["abstract"], parts["concrete"], parts["ri"], parts["ro"],
                                  [(ta.inputs, tc.inputs) for ta, tc in zip(abs_cases, conc_cases)])
    if failure is not None:
        k, e = failure
        raise CliError(f"pair ({abs_cases[k].name}, {conc_cases[k].name}): {e}", EXIT_RUNTIME)
    results = [(ta.name, tc.name, result)
               for ta, tc, result in zip(abs_cases, conc_cases, checked)]
    all_ok = all(result.corresponding for _, _, result in results)

    def report(paint: _Paint) -> list[str]:
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
    _emit(args, {"command": "check", "refinement": ref.name, "pairs": payload,
                 "all_corresponding": all_ok}, report)
    return EXIT_OK if all_ok else EXIT_FAILURE


def cmd_verify_galois(args) -> int:
    doc = _load_documents(args.model)
    if args.galois:
        gal = _get(doc.galois, args.galois, "galois")
    else:
        ref, parts = _refinement_parts(doc, args.refinement)
        gal = parts["galois"]
        if gal is None:
            raise CliError(f"refinement {ref.name!r} names no galois connection")
    stats: dict[str, int] = {}
    try:
        cex = verify_galois(gal, element_cap=args.caps, stats=stats)
    except CapsExceededError as e:
        raise CliError(f"refusing enumeration: {e}")
    if cex is None:
        _emit(args, {"command": "verify-galois", "galois": gal.name, "ok": True, **stats},
              lambda paint: [paint.green("OK") + f"  {gal.name}: connection law holds on "
                                                 "the bounded universe"])
        return EXIT_OK
    _emit(args, {"command": "verify-galois", "galois": gal.name, "ok": False, **stats,
                 "counterexample": str(cex)},
          lambda paint: [paint.red("COUNTEREXAMPLE") + f"  {gal.name}: {cex}"])
    return EXIT_FAILURE


def cmd_causality(args) -> int:
    doc = _load_documents(args.model)
    spec = _get(doc.components, args.component, "component")
    if args.seed is not None:
        print("warning: --seed is deprecated and ignored; the causality search is exhaustive",
              file=sys.stderr)
    stats: dict[str, Any] = {}
    try:
        cex = check_causality(spec, budget=args.budget, horizon=args.ticks, mode=args.mode,
                              stats=stats)
    except CapsExceededError as e:
        raise CliError(f"refusing search: {e}")
    if cex is None:
        if stats.get("proved"):
            why = "no causality violation: proved, no output reads an input of the same tick"
        elif "proved" in stats:
            pairs = ", ".join(f"{o} reads {i}" for i, o in stats["dependent"])
            why = (f"no causality violation found in {args.ticks} ticks of the value grid "
                   f"(not proved: {pairs} in the same tick)")
        else:
            why = "no causality violation: weak causality holds for every deterministic component"
        _emit(args, {"command": "causality", "component": spec.name, "ok": True, **stats},
              lambda paint: [paint.green("OK") + f"  {spec.name}: {why}"])
        return EXIT_OK
    _emit(args, {"command": "causality", "component": spec.name, "ok": False, **stats,
                 "tick": cex.tick},
          lambda paint: [paint.red("COUNTEREXAMPLE") + f"  {spec.name}: {cex}"])
    return EXIT_FAILURE


# ---------------------------------------------------------------------------


def _int_at_least(minimum: int):
    """An argparse type: an integer no smaller than `minimum`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return parse


def _tolerance(text: str) -> float:
    """An argparse type: a real number that is at least 0 (inf included)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if math.isnan(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be a number at least 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: a prefix would turn an option that a
    # subcommand lacks into one it has (`--mode` into `--model`)
    parser = argparse.ArgumentParser(
        prog="streamcheck", allow_abbrev=False,
        description="Simulate timed-stream component models, run test-cases, "
                    "concretize abstract cases, and check refinements.")
    parser.add_argument("--version", action="version", version=f"streamcheck {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help, allow_abbrev=False)

    def common(p, vectors=False, simulates=False):
        p.add_argument("--model", action="append", required=True,
                       help="model file (.scm.txt); repeatable")
        if vectors:
            p.add_argument("--vectors", action="append", default=[],
                           help="test-vector file (.tv.csv); repeatable")
        p.add_argument("--format", choices=("human", "json"), default="human")
        if simulates:
            p.add_argument("--check-determinism", action="store_true",
                           help="error when two transitions are enabled at once")

    p = command("simulate", help="run a component on input vectors")
    common(p, vectors=True, simulates=True)
    p.add_argument("--component", required=True)
    p.add_argument("--ticks", type=_int_at_least(0), default=None)
    p.set_defaults(func=cmd_simulate)

    p = command("test", help="execute test-cases and report verdicts")
    common(p, vectors=True, simulates=True)
    p.add_argument("--component", required=True)
    p.add_argument("--eps", type=_tolerance, default=0.0,
                   help="absolute tolerance for real64 comparisons, at least 0")
    p.set_defaults(func=cmd_test)

    p = command("concretize", help="turn abstract test-cases into concrete ones")
    common(p, vectors=True)
    p.add_argument("--refinement", required=True)
    p.add_argument("--param", action="append", help="parameter binding name=value; repeatable")
    p.add_argument("--out", help="output .tv.csv path (default: stdout)")
    p.set_defaults(func=cmd_concretize)

    p = command("check", help="check abstract/concrete correspondence (RI implies RO)")
    common(p, vectors=True)
    p.add_argument("--refinement", required=True)
    p.set_defaults(func=cmd_check)

    p = command("verify-galois", help="decide the Galois connection law on the bounded universe")
    common(p)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--refinement")
    which.add_argument("--galois")
    p.add_argument("--caps", type=_int_at_least(1), default=DEFAULT_UNIVERSE_CAP,
                   help="max value tuples of a tick per universe side")
    p.set_defaults(func=cmd_verify_galois)

    p = command("causality", help="prove causality from the wiring, or search the "
                                  "reachable configurations for violations")
    common(p)
    p.add_argument("--component", required=True)
    p.add_argument("--ticks", type=_int_at_least(1), default=DEFAULT_CAUSALITY_HORIZON)
    p.add_argument("--budget", type=_int_at_least(1), default=DEFAULT_CAUSALITY_BUDGET,
                   help="max distinct configurations to explore")
    p.add_argument("--seed", type=int, default=None,
                   help="deprecated and ignored: the search is exhaustive")
    p.add_argument("--mode", choices=("strict", "weak"), default=None)
    p.set_defaults(func=cmd_causality)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once: parsing leaves it unchanged, and each parser
    built is a web of reference cycles left to the cycle collector."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors already; normalize other exits
        return int(e.code) if e.code else 0
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except SimulationError as e:
        print(f"simulation error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except StreamcheckError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
