"""Differential tests of suite judging.

`test`, `check` and `concretize` judge a suite from the columns its vector
files were converted into. On DocGen models and generated vector files, with
several header orders and blank lines in one file and small or default
batches, their exit code, standard output and standard error, as JSON and
as human reports with and without colour, must equal those of the per-case
implementations kept in `suite_oracle.py`, and so must any file they write.
"""

import contextlib
import io
import os
import random
from unittest import mock

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import suite_oracle
from docgen import DocGen
from interp_oracle import run_interpreted
from streamcheck import abstraction, vectors
from streamcheck.abstraction import check_correspondence, correspond
from streamcheck.declarations import ConcretizerSpec, ParamDecl, RelationSpec
from streamcheck.cli import main
from streamcheck.components import AutomatonSpec, SyntacticInterface, Transition, spec_problems
from streamcheck.simulator import _simulator, run
from streamcheck.dsl import ModelDocument, RefinementSpec, parse_model
from streamcheck.serialize import literal_text, serialize_model
from streamcheck.errors import StreamcheckError
from streamcheck.exprs import Call, Lit, Name, Unary, parse_expression
from streamcheck.streams import BOOL, REAL, Channel, bounded_int
from streamcheck.histories import Block, ChannelHistory, Table, TimedStream
from streamcheck.testcases import (ExpectedResult, TestCase, VectorCase, execute_test,
                                   judge_suite, suite_run)
from streamcheck.vectors import read_vectors

# a run of Divider fails at a tick where x is 0; Doubler's outputs are reals
FIXED = """component Divider weak {
  input x : int[-3..3]
  input r : real
  output q : int[-12..12]
  output y : real
  states Run init
  transition Run -> Run { q := 12 / x; y := r * 3.0 }
}

component Doubler weak {
  input r : real
  output y : real
  output s : bool
  states Run init
  transition Run -> Run when r < 1.0 { y := r * 2.0; s := r > 0.0 }
  transition Run -> Run { y := r - 1.0 }
}
"""

_SPECIAL = [0.0, -0.0, float("inf"), float("-inf"), float("nan"), 1e308, -1e308, 0.1 + 0.2]
_FORMATS = (("human", "0"), ("human", "1"), ("json", "0"))


def _value(rng: random.Random, gen: DocGen, dtype):
    if dtype.kind == "real" and rng.random() < 0.2:
        return rng.choice(_SPECIAL)
    return gen.literal_of(dtype)


def _changed(rng: random.Random, gen: DocGen, dtype, value):
    """Another value of the type, or for a real one near it now and then."""
    if dtype.kind == "real" and rng.random() < 0.6:
        return value + rng.choice([1e-12, 0.25, 1.0]) if value == value else 0.0
    return _value(rng, gen, dtype)


class _Writer:
    """Vector text whose tables take one of two header orders per table kind,
    with blank lines here and there."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.orders: dict[tuple, list[list[str]]] = {}
        self.lines: list[str] = []

    def blank(self):
        if self.rng.random() < 0.1:
            self.lines.append(self.rng.choice(["", "  ", "\t"]))

    def table(self, marker: str, columns: dict[str, list]) -> None:
        key = (marker, tuple(sorted(columns)))
        orders = self.orders.setdefault(key, [self.rng.sample(sorted(columns), len(columns))
                                              for _ in range(2)])
        names = self.rng.choice(orders)
        self.lines += [marker, ",".join(names)]
        self.blank()
        rows = zip(*(columns[n] for n in names))
        self.lines += [",".join(map(literal_text, row)) for row in rows]
        self.blank()

    def case(self, name: str | None) -> None:
        if name is not None:
            self.lines.append(f"#case {name}")
        self.blank()

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _inputs(rng, gen, channels, horizon) -> dict[str, list]:
    return {c.name: [_value(rng, gen, c.ctype) for _ in range(horizon)] for c in channels}


def _history(channels, columns) -> ChannelHistory:
    return ChannelHistory({c.name: TimedStream.of(c.ctype, columns[c.name]) for c in channels})


def _name(rng: random.Random, k: int) -> str | None:
    return None if rng.random() < 0.15 else f"k{rng.randrange(8)}_{k}"


def _outcomes(argv: list[str], out: str | None = None) -> list:
    """(exit code, stdout, stderr, file written) of the command in every
    report format, by the CLI and then by the oracle."""
    results = []
    color = os.environ.get("STREAMCHECK_COLOR")
    try:
        for entry in (main, suite_oracle.main):
            got = []
            for fmt, paint in _FORMATS:
                os.environ["STREAMCHECK_COLOR"] = paint
                if out is not None and os.path.exists(out):
                    os.remove(out)
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = entry(argv + ["--format", fmt])
                written = None
                if out is not None and os.path.exists(out):
                    with open(out, encoding="utf-8") as fh:
                        written = fh.read()
                got.append((code, stdout.getvalue(), stderr.getvalue(), written))
            results.append(got)
    finally:
        if color is None:
            os.environ.pop("STREAMCHECK_COLOR", None)
        else:
            os.environ["STREAMCHECK_COLOR"] = color
    return results


def _agree(argv: list[str], batch_rows: int, out: str | None = None) -> list:
    with mock.patch.object(vectors, "BATCH_ROWS", batch_rows):
        ours, oracle = _outcomes(argv, out)
    assert ours == oracle, argv
    assert "Traceback" not in ours[0][2]
    return ours


def _text(doc: ModelDocument) -> str:
    """The model text; an operator that no model file can write rejects the example."""
    try:
        return serialize_model(doc)
    except KeyError:
        reject()


def _rich(gen: DocGen) -> AutomatonSpec:
    """A DocGen rich automaton that the loader accepts, or else a plain one."""
    for _ in range(20):
        spec = gen.rich_automaton()
        if not spec_problems(spec):
            return spec
    return gen.automaton()


def _component(gen: DocGen, rng: random.Random):
    """A DocGen automaton, or one of the FIXED components, and its model text."""
    if rng.random() < 0.4:
        doc = ModelDocument()
        spec = _rich(gen) if rng.random() < 0.7 else gen.automaton()
        doc.components[spec.name] = spec
        return spec, _text(doc)
    doc = parse_model(FIXED).document
    return doc.components[rng.choice(["Divider", "Doubler"])], FIXED


_BATCHES = st.sampled_from([1, 2, 5, vectors.BATCH_ROWS])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), _BATCHES)
def test_test_reports_equal_the_per_case_oracle(tmp_path_factory, seed, batch_rows):
    rng = random.Random(seed)
    gen = DocGen(rng, max_width=6)
    spec, text = _component(gen, rng)
    outputs = spec.interface.outputs
    writer = _Writer(rng)
    for k in range(rng.randint(0, 8)):
        horizon = rng.randint(1, 5)
        columns = _inputs(rng, gen, spec.interface.inputs, horizon)
        try:
            actual = run(spec, _history(spec.interface.inputs, columns)).streams
        except StreamcheckError:
            actual = None
        writer.case(_name(rng, k))
        writer.table("#inputs", columns)
        for _ in range(rng.choice([0, 1, 1, 1, 2, 3])):
            if actual is not None and rng.random() < 0.8:
                group = {c.name: list(actual[c.name].values) for c in outputs}
            else:
                group = _inputs(rng, gen, outputs, horizon)
            if rng.random() < 0.5:
                c = rng.choice(outputs)
                t = rng.randrange(horizon)
                group[c.name][t] = _changed(rng, gen, c.ctype, group[c.name][t])
            writer.table("#expected", group)
    work = tmp_path_factory.mktemp("test")
    (work / "m.scm.txt").write_text(text, encoding="utf-8")
    (work / "v.tv.csv").write_text(writer.text(), encoding="utf-8")
    eps = rng.choice([[], ["--eps=0"], ["--eps=1e-9"], ["--eps=0.3"], ["--eps=inf"]])
    _agree(["test", "--model", str(work / "m.scm.txt"), "--component", spec.name,
            "--vectors", str(work / "v.tv.csv"), *eps], batch_rows)


def _checker(gen: DocGen, channels) -> AutomatonSpec:
    """A weak component whose one boolean output judges the channels."""
    inputs = tuple(Channel(c.name, c.ctype, "input") for c in channels)
    ok = gen.name("ok")
    rule = gen.typed_expression("bool", _names(inputs), 2)
    return AutomatonSpec(gen.name("Checker"),
                         SyntacticInterface(inputs, (Channel(ok, BOOL, "output"),)),
                         ("Run",), "Run", (Transition("Run", "Run", Lit(True), ((ok, rule),), ()),),
                         (), {}, "weak", False)


def _names(channels) -> dict[str, list[str]]:
    names: dict[str, list[str]] = {"bool": [], "int": [], "real": [], "str": []}
    for c in channels:
        names["str" if c.ctype.kind == "enum" else c.ctype.kind].append(c.name)
    return names


def _relation(gen: DocGen, side: str, channels) -> RelationSpec:
    return RelationSpec(gen.name("Rel"), side, gen.typed_expression("bool", _names(channels), 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), _BATCHES)
def test_check_reports_equal_the_per_case_oracle(tmp_path_factory, seed, batch_rows):
    rng = random.Random(seed)
    gen = DocGen(rng, max_width=6)
    abstract, concrete = _rich(gen), _rich(gen)
    doc = ModelDocument()
    doc.components[abstract.name] = abstract
    doc.components[concrete.name] = concrete
    ri = _relation(gen, "RI", abstract.interface.inputs + concrete.interface.inputs)
    outputs = abstract.interface.outputs + concrete.interface.outputs
    if rng.random() < 0.3:
        checker = _checker(gen, outputs)
        doc.components[checker.name] = checker
        ro = RelationSpec(gen.name("Rel"), "RO", checker=checker)
    else:
        ro = _relation(gen, "RO", outputs)
    doc.relations.update({ri.name: ri, ro.name: ro})
    ref = RefinementSpec(gen.name("Ref"), abstract=abstract.name, concrete=concrete.name,
                         ri=ri.name, ro=ro.name)
    doc.refinements[ref.name] = ref
    sides = (_Writer(rng), _Writer(rng))
    pairs = rng.randint(0, 6)
    for k in range(pairs):
        horizon = rng.randint(1, 5)
        for writer, spec in zip(sides, (abstract, concrete)):
            if rng.random() < 0.03:
                horizon = rng.randint(1, 5)
            writer.case(_name(rng, k))
            writer.table("#inputs", _inputs(rng, gen, spec.interface.inputs, horizon))
    if rng.random() < 0.05:
        sides[1].case("extra")
        sides[1].table("#inputs", _inputs(rng, gen, concrete.interface.inputs, 1))
    work = tmp_path_factory.mktemp("check")
    (work / "m.scm.txt").write_text(_text(doc), encoding="utf-8")
    (work / "a.tv.csv").write_text(sides[0].text(), encoding="utf-8")
    (work / "c.tv.csv").write_text(sides[1].text(), encoding="utf-8")
    _agree(["check", "--model", str(work / "m.scm.txt"), "--refinement", ref.name,
            "--vectors", str(work / "a.tv.csv"), "--vectors", str(work / "c.tv.csv")],
           batch_rows)


def _concretizer(gen: DocGen, rng: random.Random, inputs, params) -> AutomatonSpec:
    """A weak component from the abstract inputs and the parameters to new
    channels, each assigned an expression of its kind."""
    channels = tuple(Channel(c.name, c.ctype, "input") for c in inputs) + tuple(
        Channel(p.name, p.dtype, "input") for p in params)
    names = _names(channels)
    outputs = tuple(Channel(gen.name("ic"), gen.dtype(), "output")
                    for _ in range(rng.randint(1, 2)))

    def rhs(dtype):
        if dtype.kind == "enum":
            return Name(rng.choice(dtype.labels))
        if dtype.kind == "bool":
            return gen.typed_expression("bool", names, 2)
        if dtype.kind == "real":
            return gen.typed_expression("num", names, 2)
        e = gen.typed_expression("int", names, 2)
        return Call("min", (Call("max", (e, Lit(dtype.lo))), Lit(dtype.hi)))

    transitions = tuple(Transition("Run", "Run", gen.typed_expression("bool", names, 1)
                                   if rng.random() < 0.5 else Lit(True),
                                   tuple((c.name, rhs(c.ctype)) for c in outputs), ())
                        for _ in range(rng.randint(1, 2)))
    return AutomatonSpec(gen.name("Cz"), SyntacticInterface(channels, outputs), ("Run",), "Run",
                         transitions, (), {c.name: gen.literal_of(c.ctype) for c in outputs},
                         "weak", False)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), _BATCHES)
def test_concretize_reports_equal_the_per_case_oracle(tmp_path_factory, seed, batch_rows):
    rng = random.Random(seed)
    gen = DocGen(rng, max_width=6)
    abstract = gen.automaton()
    params = tuple(ParamDecl(gen.name("p"), gen.dtype()) for _ in range(rng.randint(0, 2)))
    component = _concretizer(gen, rng, abstract.interface.inputs, params)
    conc = ConcretizerSpec(gen.name("Conc"), component, params)
    doc = ModelDocument()
    doc.components.update({abstract.name: abstract, component.name: component})
    doc.concretizers[conc.name] = conc
    ri = None
    if rng.random() < 0.8:
        ri = _relation(gen, "RI", abstract.interface.inputs + component.interface.outputs)
        doc.relations[ri.name] = ri
    ref = RefinementSpec(gen.name("Ref"), abstract=abstract.name,
                         ri=ri.name if ri else None, concretizer=conc.name)
    doc.refinements[ref.name] = ref
    fixed = [p for p in params if rng.random() < 0.3]
    writer = _Writer(rng)
    for k in range(rng.randint(0, 6)):
        horizon = rng.randint(1, 5)
        writer.case(_name(rng, k))
        given_params = [p for p in params if rng.random() < 0.9]
        if given_params and rng.random() < 0.9:
            rows = rng.choice([1, horizon])
            writer.table("#params", {p.name: [_value(rng, gen, p.dtype) for _ in range(rows)]
                                     for p in given_params})
        writer.table("#inputs", _inputs(rng, gen, abstract.interface.inputs, horizon))
    work = tmp_path_factory.mktemp("concretize")
    (work / "m.scm.txt").write_text(_text(doc), encoding="utf-8")
    (work / "a.tv.csv").write_text(writer.text(), encoding="utf-8")
    argv = ["concretize", "--model", str(work / "m.scm.txt"), "--refinement", ref.name,
            "--vectors", str(work / "a.tv.csv")]
    for p in fixed:
        argv.append(f"--param={p.name}={literal_text(_value(rng, gen, p.dtype))}")
    out = None
    if rng.random() < 0.5:
        out = str(work / "c.tv.csv")
        argv += ["--out", out]
    _agree(argv, batch_rows, out)


# All cases of a suite run in one call of the compiled loop
# (simulator.run_tables), which goes on after a case whose run raises.

RUNS = FIXED + """
component Picky weak {
  input x : int[0..9]
  output y : int[0..9]
  states Run init
  transition Low: Run -> Run when x > 5 { y := x }
  transition High: Run -> Run when x > 7 { y := 9 }
  transition Rest: Run -> Run when x <= 5 { y := 0 }
}

component Ticker strict {
  output n : int[-9..9] init 0
  var k : int[0..9] = 0
  states Run init
  transition Run -> Run when k < 9 { n := 6 / (2 - k); k := k + 1 }
}

component Halver weak {
  input a : int[-3..3]
  output h : int[-12..12]
  states Run init
  transition Run -> Run { h := 12 / a }
}

component Copier weak {
  input c : int[-3..3]
  output d : int[-3..3]
  states Run init
  transition Run -> Run { d := c }
}

relation HalfRI RI when a == c
relation HalfRO RO when h >= d or h < d

component Scaler weak {
  input a : int[-3..3]
  input m : int[1..3]
  output c : int[-12..12]
  states Run init
  transition Run -> Run { c := 12 / a }
}

concretizer Scaled {
  component Scaler
  param m : int[1..3]
}

refinement Halves {
  abstract Halver
  concrete Copier
  ri HalfRI
  ro HalfRO
  concretizer Scaled
}
"""

# Divider cases under two header orders, so that consecutive cases' tables
# lie in different blocks; case b raises at tick 3, case c at tick 1 and
# case d, whose table follows c's in their block, at tick 2
DIVIDED = """#case a
#inputs
x,r
1,0.5
2,1.5
#expected
q,y
12,1.5
6,4.5
#case b
#inputs
r,x
1.0,3
2.0,1
3.0,0
4.0,2
#expected
q,y
4,3.0
12,6.0
0,9.0
6,12.0
#case c
#inputs
x,r
0,0.0
3,-1.0
#expected
y,q
0.0,-12
-3.0,4
#case d
#inputs
x,r
2,1.0
0,1.0
#expected
y,q
3.0,6
3.0,0
#case e
#inputs
r,x
0.5,-3
#expected
q,y
-4,1.5
"""


def _report(report) -> list:
    return [(e.case, e.verdict.status, str(e.verdict.first_divergence), e.verdict.log)
            for e in report.entries]


def _counted(spec, check_determinism=False) -> list:
    """The calls of the spec's compiled loop, counted from now on."""
    sim = _simulator(spec, check_determinism)
    calls, fn = [], sim.fn
    sim.fn = lambda *args: calls.append(len(args[1])) or fn(*args)
    return calls


@pytest.mark.parametrize("batch_rows", [1, 2, 3, vectors.BATCH_ROWS])
def test_one_call_judges_a_suite_as_the_oracle_does(batch_rows):
    spec = parse_model(RUNS).document.components["Divider"]
    with mock.patch.object(vectors, "BATCH_ROWS", batch_rows):
        cases = read_vectors(DIVIDED, spec.interface)
    calls = _counted(spec)
    ours = _report(judge_suite(spec, cases))
    assert calls == [len(cases)]
    assert ours == _report(suite_oracle.suite_run(spec, [c.test_case() for c in cases]))
    assert [status for _, status, _, _ in ours] == ["pass", "error", "error", "error", "pass"]
    assert ours[1][3] == ("simulation error: tick 3: division by zero",)
    for case in cases:
        tc = case.test_case()
        assert execute_test(spec, tc) == suite_oracle.execute_test(spec, tc)


@pytest.mark.parametrize("check_determinism", [False, True])
def test_one_call_checks_determinism_as_the_oracle_does(check_determinism):
    spec = parse_model(RUNS).document.components["Picky"]
    text = ("#case a\n#inputs\nx\n6\n7\n#expected\ny\n6\n7\n"
            "#case b\n#inputs\nx\n1\n8\n9\n#expected\ny\n0\n8\n9\n"
            "#case c\n#inputs\nx\n9\n#expected\ny\n9\n")
    cases = read_vectors(text, spec.interface)
    calls = _counted(spec, check_determinism)
    ours = _report(judge_suite(spec, cases, check_determinism=check_determinism))
    assert calls == [3]
    assert ours == _report(suite_oracle.suite_run(spec, [c.test_case() for c in cases],
                                                  check_determinism=check_determinism))
    statuses = ["pass", "error", "error"] if check_determinism else ["pass", "pass", "pass"]
    assert [status for _, status, _, _ in ours] == statuses


def test_one_call_runs_a_component_without_inputs_as_the_oracle_does():
    # tables of two blocks without columns; a run fails at tick 3
    spec = parse_model(RUNS).document.components["Ticker"]
    outputs = spec.interface.outputs
    first, second = Block((), (), []), Block((), (), [])
    tables = [Table(first, 0, 2), Table(first, 2, 6), Table(second, 0, 1), Table(first, 6, 9),
              Table(second, 1, 3)]
    expected = Block([c.name for c in outputs], [c.ctype for c in outputs], [(0, 3, 6, 5)])
    cases = [VectorCase(f"t{k}", None, table, (Table(expected, 0, min(table.horizon, 4)),))
             for k, table in enumerate(tables)]
    calls = _counted(spec)
    ours = _report(judge_suite(spec, cases))
    assert calls == [5]
    assert ours == _report(suite_oracle.suite_run(spec, [c.test_case() for c in cases]))
    assert [status for _, status, _, _ in ours] == ["pass", "error", "pass", "error", "pass"]


# RI and RO that fail at a chosen pair and tick of the suite below, and the
# message of the failure: a divisor of 0, a value that is not boolean, and an
# `or` with an int operand; in `concretize`, c is the concretizer's output
_FAILING_RELATIONS = [
    ("RI", "12 / (a + 1) > -20", "division by zero"),  # where a = -1
    ("RI", "a", "relation 'HalfRI' is not boolean at tick 1"),
    ("RI", "a == c or a", "'or' needs a boolean operand, got 1"),  # where a != c
    ("RO", "12 / (d + 1) > -20", "division by zero"),  # where c = -1
    ("RO", "h", "relation 'HalfRO' is not boolean at tick 1"),
    ("RO", "h > d or d", "'or' needs a boolean operand, got 1"),  # where a = -3
]


def _stop_suite(side: str, expr: str, run_at: int | None) -> tuple[list, list]:
    """The a and c values of four pairs of three ticks: the relation fails at
    the second tick of the third pair (a != c and a = -1, a = -3 or c = -1),
    and where `run_at` is a pair, its runs fail at the third tick (a = c = 0)."""
    a, c = [[1, 1, 1] for _ in range(4)], [[1, 1, 1] for _ in range(4)]
    if "/" in expr:
        a[2][1] = c[2][1] = -1
    elif side == "RI":
        c[2][1] = 2
    else:
        a[2][1] = -3
    if run_at is not None:
        a[run_at][2] = c[run_at][2] = 0
    return a, c


def test_check_and_concretize_stop_at_the_first_failing_pair_or_case(tmp_path):
    """The pair or case reported is the first that fails, and of its steps
    the first in the order RI, the abstract run, the concrete run, RO for a
    pair, and the parameters, the run, RI for a case, as the oracle, which
    checks one at a time, finds it, at every batch size."""
    def write(ri: str, ro: str, a: list, c: list) -> None:
        model = RUNS.replace("RI when a == c", f"RI when {ri}").replace(
            "RO when h >= d or h < d", f"RO when {ro}")
        (tmp_path / "m.scm.txt").write_text(model, encoding="utf-8")
        (tmp_path / "a.tv.csv").write_text("".join(
            f"#case p{k}\n#params\nm\n1\n#inputs\na\n" + "".join(f"{v}\n" for v in r)
            for k, r in enumerate(a)), encoding="utf-8")
        (tmp_path / "c.tv.csv").write_text("".join(
            f"#case q{k}\n#inputs\nc\n" + "".join(f"{v}\n" for v in r)
            for k, r in enumerate(c)), encoding="utf-8")

    model = ["--model", str(tmp_path / "m.scm.txt"), "--refinement", "Halves"]
    check = ["check", *model, "--vectors", str(tmp_path / "a.tv.csv"),
             "--vectors", str(tmp_path / "c.tv.csv")]
    concretize = ["concretize", *model, "--vectors", str(tmp_path / "a.tv.csv")]

    def agree(argv: list[str], failure: tuple[int, str]) -> None:
        k, message = failure
        where = f"pair (p{k}, q{k})" if argv[0] == "check" else f"case 'p{k}'"
        for batch_rows in (1, 3, vectors.BATCH_ROWS):
            code, _, stderr, _ = _agree(argv, batch_rows)[0]
            assert (code, stderr) == (3, f"error: {where}: {message}\n"), argv

    # the second pair and case raise at tick 3, the fourth at tick 1
    rows = [[1, 2], [3, 1, 0, 2], [-1, 1], [0]]
    write("a == c", "h >= d or h < d", rows, rows)
    agree(check, (1, "tick 3: division by zero"))
    agree(concretize, (1, "tick 3: division by zero"))
    for side, expr, message in _FAILING_RELATIONS:
        at = 0 if expr in ("a", "h") else 2  # a value that is not boolean fails at once
        for run_at in (None, 0, 1, 2, 3):
            write(expr if side == "RI" else "a == c", expr if side == "RO" else "h >= d or h < d",
                  *_stop_suite(side, expr, run_at))
            run = (run_at, "tick 3: division by zero")
            # of one pair, RI goes before the runs and RO after them
            rank = 0 if side == "RI" else 2
            agree(check, run if run_at is not None and (run_at, 1) < (at, rank)
                  else (at, message))
            if side == "RI":
                # of one case, RI goes after the run; the concretizer's output
                # 12 / a differs from a = 1, so the `or` fails at the first case
                at_case = 0 if " or " in expr else at
                agree(concretize, run if run_at is not None and run_at <= at_case
                      else (at_case, message))


def _built(gen: DocGen, rng: random.Random, channels, horizon: int) -> ChannelHistory:
    """Inputs built in Python: now and then with a value outside its type,
    and now and then with ints in place of some floats of a real stream."""
    history = gen.history(channels, horizon, invalid=rng.random() < 0.08)
    if rng.random() < 0.5:
        return history
    return ChannelHistory({n: TimedStream(s.elem_type, tuple(
        int(v) if s.elem_type == REAL and type(v) is float and rng.random() < 0.5 else v
        for v in s.values)) for n, s in history.streams.items()}, horizon)


def _judged(result) -> tuple:
    return (result.ri_holds, result.ro_holds, result.corresponding, result.ri_stream,
            result.ro_stream, result.status, result.diagnostics)


def _same_as_pair_by_pair(abstract, concrete, ri, ro, pairs) -> None:
    """`correspond` of the pairs gives what `check_correspondence` of each
    pair gives, up to the first pair whose check fails, and that pair's
    index and message."""
    results, failure = correspond(abstract, concrete, ri, ro,
                                  [(Table.of(a), Table.of(c)) for a, c in pairs])
    checked = [check_correspondence(abstract, concrete, ri, ro, a, c) for a, c in pairs]
    first = next((k for k, r in enumerate(checked) if r.status == "error"), None)
    assert list(map(_judged, results)) == list(map(_judged, checked[:first]))
    assert (None if failure is None else (failure[0], str(failure[1]))) == (
        None if first is None else (first, checked[first].diagnostics[0]))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_correspond_judges_pairs_built_in_python_pair_by_pair(seed):
    rng = random.Random(seed)
    gen = DocGen(rng, max_width=6)
    abstract, concrete = _rich(gen), _rich(gen)
    relations = []
    for side, channels in (
            ("RI", abstract.interface.inputs + concrete.interface.inputs),
            ("RO", abstract.interface.outputs + concrete.interface.outputs)):
        if rng.random() < 0.3:
            relations.append(RelationSpec(gen.name("Rel"), side, checker=_checker(gen, channels)))
        else:
            relations.append(_relation(gen, side, channels))
    pairs = []
    for _ in range(rng.randint(1, 5)):
        horizon = rng.randint(0, 4)
        other = horizon if rng.random() < 0.95 else rng.randint(0, 4)
        pairs.append((_built(gen, rng, abstract.interface.inputs, horizon),
                      _built(gen, rng, concrete.interface.inputs, other)))
    _same_as_pair_by_pair(abstract, concrete, *relations, pairs)


# Weak copies of real inputs; RI Half halves x, which reads an int as an
# int, and RI Concrete reads u only
COPIES = """component Copy weak {
  input x : real
  output y : real
  output z : real
  states Run init
  transition Run -> Run { y := x; z := x / 2 }
}

component Same weak {
  input u : real
  output v : real
  states Run init
  transition Run -> Run { v := u }
}

relation Half RI when x / 2 == 1
relation Equal RO when y == v
relation Concrete RI when u == u
"""


def test_correspond_reads_a_column_as_each_pair_reads_it():
    doc = parse_model(COPIES).document
    copy, same = doc.components["Copy"], doc.components["Same"]
    ri, ro = doc.relations["Half"], doc.relations["Equal"]
    pair = (ChannelHistory({"x": TimedStream(REAL, (3,))}),
            ChannelHistory({"u": TimedStream(REAL, (3.0,))}))
    assert check_correspondence(copy, same, ri, ro, *pair).ri_stream == (True,)
    results, failure = correspond(copy, same, ri, ro, [(Table.of(pair[0]), Table.of(pair[1]))] * 2)
    assert ([r.ri_stream for r in results], failure) == ([(True,), (True,)], None)
    _same_as_pair_by_pair(copy, same, ri, ro, [pair, pair])


@pytest.mark.parametrize("second, message", [
    ({"b": [1]}, "unknown name 'a'"),  # Halver has no input b
    ({"a": [True]}, "cannot compare True with 1"),
])
def test_correspond_judges_pairs_of_another_shape_on_their_own(second, message):
    """A pair whose abstract inputs are other channels, or of other types,
    than those of the pair before it is judged on its own columns."""
    doc = parse_model(RUNS).document
    halver, copier = doc.components["Halver"], doc.components["Copier"]
    ri, ro = doc.relations["HalfRI"], doc.relations["HalfRO"]

    def history(columns):
        return ChannelHistory({n: TimedStream.of(BOOL if type(v[0]) is bool else bounded_int(-3, 3), v)
                               for n, v in columns.items()})

    pairs = [(history({"a": [1]}), history({"c": [1]})), (history(second), history({"c": [1]}))]
    assert check_correspondence(halver, copier, ri, ro, *pairs[1]).diagnostics == (message,)
    _same_as_pair_by_pair(halver, copier, ri, ro, pairs)


def test_ints_in_a_real_stream_run_as_the_floats_they_stand_for():
    doc = parse_model(COPIES).document
    copy, same = doc.components["Copy"], doc.components["Same"]
    ints = ChannelHistory({"x": TimedStream(REAL, (3, 2))})
    expected = run(copy, ints)
    assert repr(expected.streams["y"].values) == "(3.0, 2.0)"
    assert repr(expected.streams["z"].values) == "(1.5, 1.0)"
    interpreted = run_interpreted(copy, ints)
    for name in ("y", "z"):
        assert repr(expected.streams[name]) == repr(interpreted.streams[name])
    # a value outside the type after such values fails at its tick
    bad = ChannelHistory({"x": TimedStream(REAL, (3, 2.5, "x", 1))})
    message = "tick 3: value 'x' is not a valid real"
    for run_fn in (run, run_interpreted):
        with pytest.raises(StreamcheckError, match=message):
            run_fn(copy, bad)
    out, verdict = execute_test(copy, TestCase("ints", ints, ExpectedResult((expected,))))
    assert (repr(out), verdict.status) == (repr(expected), "pass")
    report = suite_run(copy, [TestCase("bad", bad, ExpectedResult(())),
                              TestCase("ints", ints, ExpectedResult((expected,)))])
    assert [(e.case, e.verdict.status, e.verdict.log) for e in report.entries] == [
        ("bad", "error", (f"simulation error: {message}",)), ("ints", "pass", ())]
    same_ints = ChannelHistory({"u": TimedStream(REAL, (3, 2))})
    result = check_correspondence(copy, same, doc.relations["Half"], doc.relations["Equal"],
                                  ints, same_ints)
    assert (result.ri_stream, result.ro_stream, result.status) == ((True, True), (True, True), "ok")
    assert repr(result.abstract_output) == repr(expected)
    assert repr(result.concrete_output.streams["v"].values) == "(3.0, 2.0)"
    result = check_correspondence(copy, same, doc.relations["Concrete"], doc.relations["Equal"],
                                  bad, ChannelHistory({"u": TimedStream(REAL, (3, 2, 1, 0))}))
    assert (result.status, result.diagnostics) == ("error", (message,))


# -- one pass over the rows of every pair against the pair-by-pair loop -----

# Columns q (int), b (bool) and p (a real stream that holds values of any
# kind, so untyped): relations that divide by q, read p as a boolean or as a
# number, or give values that are not boolean
_ROW_RELATIONS = ["12 / q > 0", "b and 12 / q > 0", "b or p > 0", "p == b", "p", "q",
                  "min(p, 12 / q)", "unknown == 1", "not b"]
_INT = bounded_int(-3, 3)


def _deep(depth: int):
    """`not -not -... p`: from some depth on, its code nests more brackets
    than Python's parser allows, and it does not compile."""
    e = Name("p")
    for _ in range(depth):
        e = Unary("not", Unary("-", e))
    return e


def _pass_and_loop(expr, sig, columns, horizons) -> tuple:
    """What one pass and the pair-by-pair loop give: the ticks, and the
    failing pair with its error's type and message."""
    found = []
    for fn in (abstraction._ticks, suite_oracle.relation_ticks):
        ticks, failure = fn(RelationSpec("R", "RI", expr), sig, columns, horizons)
        found.append((ticks, failure and (failure[0], type(failure[1]), str(failure[1]))))
    return tuple(found)


@pytest.mark.parametrize("text, horizons, q, failure", [
    # the first tick of a pair after an empty one, the last tick of a pair
    ("12 / q > 0", [2, 0, 3], [1, 1, 0, 1, 1], (2, "division by zero")),
    ("12 / q > 0", [2, 0, 3], [1, 1, 1, 1, 0], (2, "division by zero")),
    ("12 / q > 0", [2, 0, 3], [1, 0, 1, 1, 1], (0, "division by zero")),
    ("12 / q > 0", [0, 0, 1], [0], (2, "division by zero")),
    # a value that is not boolean before an error of its pair or of a later one
    ("min(p, 12 / q)", [0, 2, 2], [1, 0, 1, 1], (1, "relation 'R' is not boolean at tick 1")),
    ("min(p, 12 / q)", [0, 2, 2], [1, 1, 0, 1], (1, "relation 'R' is not boolean at tick 1")),
    ("min(p, 12 / q)", [0, 2, 2], [0, 1, 1, 1], (1, "division by zero")),
    ("unknown == 1", [0, 1], [1], (1, "unknown name 'unknown'")),
    ("12 / q > 0", [0, 0], [], None),
    (_deep(80), [0, 1], [1],
     (0, "cannot compile the model's expressions: too many nested parentheses")),
])
def test_one_pass_finds_the_pair_and_tick_that_the_loop_finds(text, horizons, q, failure):
    sig = (("q", _INT, True), ("b", BOOL, True), ("p", REAL, False))
    columns = [q, [True] * len(q), [2] * len(q)]
    expr = parse_expression(text) if isinstance(text, str) else text
    ours, oracle = _pass_and_loop(expr, sig, columns, horizons)
    assert ours == oracle
    assert (ours[1] and (ours[1][0], ours[1][2])) == failure


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_one_pass_over_every_pair_agrees_with_the_pair_by_pair_loop(seed):
    """Pairs of zero to three ticks, some of none, over typed and untyped
    columns, and a relation that does not compile."""
    rng = random.Random(seed)
    horizons = [rng.choice([0, 1, 1, 2, 3]) for _ in range(rng.randint(0, 5))]
    n = sum(horizons)
    sig = (("q", _INT, rng.random() < 0.7), ("b", BOOL, rng.random() < 0.7), ("p", REAL, False))
    columns = [[rng.choice([0, 1, 1, 2, -3]) for _ in range(n)],
               [rng.random() < 0.7 for _ in range(n)],
               [rng.choice([True, False, True, 1, 2.5, "x"]) for _ in range(n)]]
    for expr in [*map(parse_expression, _ROW_RELATIONS), _deep(80)]:
        ours, oracle = _pass_and_loop(expr, sig, columns, horizons)
        assert ours == oracle, expr
