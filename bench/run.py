"""End-to-end and per-layer benchmark of the streamcheck CLI.

    python3 bench/run.py --workload sim_long --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --smoke

One process, no threads, does the measuring. Child processes generate the
workload's inputs from the seed (gen.py) beforehand and time the set-up
(setup_time.py) between passes. Every subcommand runs in-process through
`streamcheck.cli.main([..., "--format", "json"])`, in a closed loop: each
call starts when the previous one has returned. Passes over the workload's
operations repeat until `--seconds` is used up. Every call's time is scaled
by the machine's speed at that moment, measured by the kernel of speed.py
right before and after it; a pass's time is the sum of each operation's
median scaled time over passes. Every call is checked against the reference
answer; the last line of standard output is one JSON object, and the exit
code is 1 when any call answered wrongly.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates untraced
passes, for the per-subcommand totals and as the base of the tracing
overhead, with traced passes, for the per-layer numbers.
Spans are written to .bench_build/streamcheck/<workload>/spans.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

import gen
import speed
from spans import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
WORK = ROOT / ".bench_build" / "streamcheck"

SETUP_REPEATS = 5  # per pass
MIN_PASSES = 5
SUBCOMMANDS = ("simulate", "test", "check", "concretize", "causality", "verify-galois")
COUNT_METRICS = ("components.run.calls", "components.run.ticks",
                 "components.check_causality.runs", "vectors.cases", "vectors.rows",
                 "testcases.compare_histories.ticks", "abstraction.eval_relation.calls",
                 "abstraction.g_membership.calls", "abstraction.abstract_output.calls",
                 "dsl.model_bytes")


class BenchError(Exception):
    """The benchmark cannot run here (for example, no streamcheck sources)."""


# ---------------------------------------------------------------------------
# Set-up


def child(script: str, *args: str) -> str:
    """Run a script of this directory in a child process; returns its output."""
    proc = subprocess.run([sys.executable, str(HERE / script), *args],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"{script} failed: {proc.stderr.strip()[-500:]}")
    return proc.stdout


def measure_setup(model_sets: list[list[str]]) -> list[float]:
    """Scaled times to import streamcheck afresh and load every model set
    once, SETUP_REPEATS of them from one fresh process (see setup_time.py)."""
    return json.loads(child("setup_time.py", str(SETUP_REPEATS), json.dumps(model_sets)))


# ---------------------------------------------------------------------------
# Correctness gate


def _read_concrete(path: Path) -> dict[str, list[float]]:
    """Parse the i_c column of a concretized vector file."""
    cases: dict[str, list[float]] = {}
    name = None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#case "):
            name = line[6:].strip()
            cases[name] = []
        elif line and not line.startswith("#") and line != "i_c":
            cases[name].append(float(line))
    return cases


def check_op(op: gen.Op, code: int, payload: dict | None) -> list[str]:
    """Mismatches between one call's answer and the reference answer."""
    exp = op.expect
    errors = [] if code == exp["code"] else [f"exit code {code}, expected {exp['code']}"]
    if payload is None:
        return errors + ["no JSON output"]
    if op.command == "test":
        for key in ("passed", "failed", "errors"):
            if payload.get(key) != exp[key]:
                errors.append(f"{key} {payload.get(key)}, expected {exp[key]}")
        got = {c["case"]: c["status"] for c in payload.get("cases", ())}
        wrong = sorted(n for n in exp["statuses"] if got.get(n) != exp["statuses"][n])
        if wrong or len(got) != len(exp["statuses"]):
            errors.append(f"{len(wrong)} case verdicts differ, e.g. {wrong[:3]}")
    elif op.command == "simulate":
        cases = payload.get("cases", ())
        if len(cases) != 1 or cases[0].get("case") != exp["case"]:
            errors.append("simulated case list differs")
        elif cases[0].get("outputs") != exp["outputs"]:
            errors.append("simulated outputs differ")
    elif op.command == "concretize":
        if payload.get("warnings"):
            errors.append(f"unexpected warnings {payload['warnings'][:2]}")
        if payload.get("cases") != sorted(exp["values"]):
            errors.append("concretized case list differs")
        elif _read_concrete(op.out) != exp["values"]:
            errors.append("concretized values differ from i_c = +-mag")
    elif op.command == "check":
        if payload.get("all_corresponding") != exp["all_corresponding"]:
            errors.append("all_corresponding differs")
        got = [(p["abstract_case"], p["concrete_case"], p["ri_holds"], p["ro_holds"],
                p["corresponding"], p["ri_stream"], p["ro_stream"])
               for p in payload.get("pairs", ())]
        if got != [tuple(p[:5]) + (list(p[5]), list(p[6])) for p in exp["pairs"]]:
            errors.append("correspondence flags differ")
    else:  # causality, verify-galois
        for key in ("ok", "tick"):
            if key in exp and payload.get(key) != exp[key]:
                errors.append(f"{key} {payload.get(key)!r}, expected {exp[key]!r}")
    return errors


# ---------------------------------------------------------------------------
# Passes


class Gate:
    """Counts calls made and calls that answered wrongly."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, op: gen.Op, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages += [f"{' '.join(op.argv[:5])}: {p}" for p in problems]


def run_pass(cli, ops: list[gen.Op], gate: Gate, clock: speed.Clock, tracer: Tracer | None,
             label: str) -> list[float]:
    """Run every operation once and check it; returns per-operation scaled
    seconds."""
    times = []
    main = cli.main if tracer is None else tracer.span("cli.main", cli.main)
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = f"{label}:{i}"
        out, err = io.StringIO(), io.StringIO()
        clock.ready()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*op.argv, "--format", "json"])
        except Exception as e:  # a traceback is a wrong answer, not a crash of the benchmark
            times.append(clock.scale(time.perf_counter() - start))
            gate.record(op, [f"raised {type(e).__name__}: {e}"])
            continue
        times.append(clock.scale(time.perf_counter() - start))
        try:
            payload = json.loads(out.getvalue())
        except ValueError:
            payload = None
        try:
            problems = check_op(op, code, payload)
        except (KeyError, TypeError, AttributeError, OSError, ValueError) as e:
            problems = [f"answer has an unexpected shape: {type(e).__name__}: {e}"]
        if problems and err.getvalue():
            problems.append("stderr: " + err.getvalue()[:300])
        gate.record(op, problems)
    return times


def run_rounds(cli, ops: list[gen.Op], gate: Gate, clock: speed.Clock, seconds: float,
               min_rounds: int, tracer: Tracer | None = None,
               between: Callable[[], None] | None = None) -> tuple[list, list, list[dict]]:
    """Repeat rounds, at least `min_rounds`, until the next would end after
    `seconds`. A round is an untraced pass, then a traced one when there is a
    tracer: alternating them spreads any drift of the machine's speed evenly,
    and an untimed first pass keeps the cost of warming up out of both.
    `between` runs, untimed, before each round. Returns the untraced and
    traced per-operation scaled times and the per-layer metrics of each
    traced pass, its times scaled by the pass's median kernel time."""
    deadline = time.perf_counter() + seconds
    if tracer is not None:
        run_pass(cli, ops, gate, clock, None, "")
    plain: list[list[float]] = []
    traced: list[list[float]] = []
    layers: list[dict] = []
    rounds: list[float] = []
    while True:
        start = time.perf_counter()
        if between is not None:
            between()
            clock.break_off()
        plain.append(run_pass(cli, ops, gate, clock, None, ""))
        if tracer is not None:
            first, kernels = len(tracer.spans), len(clock.kernel)
            tracer.install()
            try:
                traced.append(run_pass(cli, ops, gate, clock, tracer, str(len(traced))))
            finally:
                tracer.restore()
            f = speed.REF_SECONDS / statistics.median(clock.kernel[kernels:])
            layers.append({k: v * f if unit_of(k) in ("s", "us") else v
                           for k, v in layer_metrics(tracer.spans[first:]).items()})
        rounds.append(time.perf_counter() - start)
        if len(plain) >= min_rounds and time.perf_counter() + statistics.median(rounds) > deadline:
            return plain, traced, layers


def typical(passes: list[list[float]]) -> list[float]:
    """Each operation's median scaled time over passes."""
    return [statistics.median(op_times) for op_times in zip(*passes)]


def pass_time(passes: list[list[float]]) -> float:
    """Time of a pass: the sum of each operation's median scaled time."""
    return sum(typical(passes))


def subcommand_totals(ops: list[gen.Op], passes: list[list[float]]) -> dict[str, float]:
    """Each subcommand's share of a pass, and the simulation throughputs."""
    typical_times = typical(passes)
    m = {f"{c.replace('verify-', '')}_s": 0.0 for c in SUBCOMMANDS}
    for op, t in zip(ops, typical_times):
        m[f"{op.command.replace('verify-', '')}_s"] += t
    sim_time = sum(t for op, t in zip(ops, typical_times) if op.ticks)
    m["ticks_per_s"] = sum(op.ticks for op in ops) / sim_time if sim_time else 0.0
    m["cases_per_s"] = sum(op.cases for op in ops) / m["test_s"] if m["test_s"] else 0.0
    return m


# ---------------------------------------------------------------------------
# Expression evaluation, timed outside the simulator


def expression_cases(doc) -> list[tuple]:
    """(expr, env) for every guard and assignment of the loaded atoms, with
    inputs, outputs and variables bound to in-range values."""
    from streamcheck.components import AutomatonSpec, enum_label_env

    def sample(dtype):
        if dtype.kind == "bool":
            return True
        if dtype.kind == "int":
            return (dtype.lo + dtype.hi) // 2
        if dtype.kind == "real":
            return 0.75
        return dtype.labels[0]

    cases = []
    for spec in doc.components.values():
        if not isinstance(spec, AutomatonSpec):
            continue
        env = dict(enum_label_env(spec))
        for c in spec.interface.inputs + spec.interface.outputs:
            env[c.name] = spec.output_init.get(c.name, sample(c.ctype))
        for v in spec.variables:
            env[v.name] = v.init
        for t in spec.transitions:
            for e in (t.guard, *(e for _, e in t.outputs), *(e for _, e in t.updates)):
                cases.append((e, env))
    return cases


def time_evaluate(model_sets: list[list[str]], rounds: int = 9, min_seconds: float = 0.05) -> float:
    """Median scaled microseconds per exprs.evaluate call over the
    workload's models."""
    from streamcheck import load_models
    from streamcheck.exprs import evaluate
    cases = [c for paths in model_sets for c in expression_cases(load_models(paths))]
    clock = speed.Clock()
    results = []
    for _ in range(rounds):
        clock.ready()
        calls, start = 0, time.perf_counter()
        while time.perf_counter() - start < min_seconds:
            for expr, env in cases:
                evaluate(expr, env)
            calls += len(cases)
        results.append(1e6 * clock.scale(time.perf_counter() - start) / calls)
    return statistics.median(results)


# ---------------------------------------------------------------------------
# Runs


def unit_of(name: str) -> str:
    if name.endswith((".calls", ".runs", ".ticks", ".cases", ".rows")):
        return "count"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(".us") or ".us_per_" in name:
        return "us"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_frac"):
        return "frac"
    return "s"


def make_inputs(workload: str, seed: int, work: Path, size: str) -> gen.Workload:
    """Generate the workload's inputs and answers. At full size a child
    process does it and hands the answers over in a file, so that the
    generator's memory does not count towards peak_rss_mb."""
    if size != "full":
        return gen.generate(workload, seed, work, FIXTURES, size)
    child("gen.py", "--workload", workload, "--seed", str(seed), "--out", str(work))
    return gen.load(work / gen.OPS_FILE)


def bench(workload: str, seed: int, seconds: float, trace: bool,
          size: str = "full") -> tuple[dict, Gate]:
    """One benchmark run; returns the result object and the correctness gate."""
    for needed in (SRC / "streamcheck" / "cli.py", FIXTURES / "acc.scm.txt"):
        if not needed.is_file():
            raise BenchError(f"missing {needed}: run from a streamcheck checkout")
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    wl = make_inputs(workload, seed, work, size)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from streamcheck import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"streamcheck imported from {cli.__file__}, not from {SRC}")
    gate = Gate()
    clock = speed.Clock()
    if not trace:
        # Set-up is sampled before every pass, so that its median draws on
        # the whole run and not on one spell of the machine.
        setup: list[float] = []
        passes, _, _ = run_rounds(cli, wl.ops, gate, clock, seconds, MIN_PASSES,
                                  between=lambda: setup.extend(measure_setup(wl.model_sets)))
        print(f"scaled seconds per operation in each pass: {json.dumps(passes)}", file=sys.stderr)
        print(f"scaled set-up seconds: {json.dumps(setup)}", file=sys.stderr)
        print(f"unscaled seconds of all calls: {sum(clock.raw):.3f} in {len(passes)} passes; "
              f"kernel seconds: median {statistics.median(clock.kernel):.5f}, "
              f"min {min(clock.kernel):.5f}, max {max(clock.kernel):.5f}", file=sys.stderr)
        metrics = {"setup_s": statistics.median(setup),
                   "wall_s": pass_time(passes),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    else:
        tracer = Tracer()
        plain, traced, layers = run_rounds(cli, wl.ops, gate, clock, seconds, 2, tracer)
        tracer.write(work / "spans.jsonl")
        for k in COUNT_METRICS:
            if any(p[k] != layers[0][k] for p in layers):
                gate.failed += 1
                gate.messages.append(f"{k} differs between traced passes")
        metrics = {k: layers[0][k] if k in COUNT_METRICS else statistics.median(p[k] for p in layers)
                   for k in layers[0]}
        metrics.update(subcommand_totals(wl.ops, plain))
        metrics["exprs.evaluate.us"] = time_evaluate(wl.model_sets)
        metrics["trace.overhead_frac"] = pass_time(traced) / pass_time(plain) - 1.0
        units = {k: unit_of(k) for k in metrics}
    result = {"correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return result, gate


def smoke(workloads=gen.WORKLOADS) -> int:
    """Each workload at smoke size, untraced once and traced twice with one
    seed: the gate must pass, the per-layer counts must repeat exactly, and
    the metrics reported must be those BENCHMARK.json lists, with its units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = [{m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")]
    ok = True
    for workload in workloads:
        runs = [bench(workload, 7, 0.0, trace, "smoke") for trace in (False, True, True)]
        counts = [{k: r["metrics"][k]["value"] for k in COUNT_METRICS} for r, _ in runs[1:]]
        gate_ok = all(r["correct"] for r, _ in runs)
        repeat_ok = counts[0] == counts[1]
        names_ok = all({k: m["unit"] for k, m in r["metrics"].items()} == listed[min(i, 1)]
                       for i, (r, _) in enumerate(runs))
        ok = ok and gate_ok and repeat_ok and names_ok
        print(f"{workload}: gate {'ok' if gate_ok else 'FAILED'}, "
              f"counts {'repeat' if repeat_ok else 'DIFFER'}, "
              f"metrics {'as listed' if names_ok else 'DIFFER from BENCHMARK.json'}")
        for _, gate in runs:
            for message in gate.messages[:10]:
                print("  " + message)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a small size and check the gate")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result, gate = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for message in gate.messages[:20]:
        print("mismatch: " + message, file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
