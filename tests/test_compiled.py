"""Differential tests of the compiled simulator against the interpreter.

`exprs.evaluate` is the reference for compiled expressions and
`interp_oracle.run_interpreted` the reference for compiled runs of
well-formed specs: values, error kinds, error messages and failing ticks
must all agree. An ill-formed spec is refused before its first tick, with
the message `check_oracles.refusal` gives, and `step` refuses a
configuration whose control state or slot values lie outside the spec.
"""

import gc
import itertools
import math
import random
import re
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from check_oracles import compile_expr, refusal
from docgen import DocGen
import interp_oracle
from interp_oracle import run_interpreted
from streamcheck import load_models
from streamcheck.components import (AutomatonSpec, Channel, SyntacticInterface, Transition,
                                    VariableDecl)
from streamcheck.networks import network
from streamcheck.simulator import (AutomatonState, CompositeState, _simulator, check_causality,
                                   initial_state, run, run_tables, step)
from streamcheck.abstraction import eval_relation
from streamcheck.codegen import UNBOUNDED, Code, CodeGen, kind_of_value
from streamcheck.declarations import RelationSpec
from streamcheck.dsl import parse_model
from streamcheck.errors import EvaluationError, SimulationError, StreamcheckError
from streamcheck.exprs import Binary, Call, Lit, Name, evaluate, parse_expression
from streamcheck.streams import BOOL, REAL, bounded_int, enumeration
from streamcheck.histories import ChannelHistory, Table, TimedStream

from conftest import HALVES, fixture_path

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
from gen import deep_net_model  # noqa: E402  (bench/gen.py: the benchmark's deep network)


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except Exception as e:  # the error itself is what is compared
        return ("error", type(e).__name__, str(e))
    return ("value", repr(value), type(value).__name__)


def _typed(expr, env):
    """The expression compiled as the simulator compiles it: the kind of
    every name is known, here from its value in `env`."""
    def name(ident, ctx):
        if ident not in env:
            return Code(f"_unknown({ident!r})", None)
        kind = kind_of_value(env[ident])
        bounds = (env[ident], env[ident]) if kind == "int" else UNBOUNDED
        return Code(f"_env[{ident!r}]", kind, bounds=bounds)

    gen = CodeGen()
    return gen.function("_env", [f"return {gen.expr(expr, name).src}"])


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_compiled_expressions_match_evaluate(seed):
    gen = DocGen(random.Random(seed))
    env = gen.environment()
    expr = gen.expression(sorted(env) + ["missing"])
    expected = _outcome(evaluate, expr, env)
    assert _outcome(compile_expr(expr), env) == expected
    assert _outcome(_typed(expr, env), env) == expected


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_typed_expressions_match_evaluate(seed):
    gen = DocGen(random.Random(seed))
    env = gen.environment(6)
    names = {"bool": [], "int": [], "real": [], "str": []}
    for name, value in env.items():
        names[kind_of_value(value)].append(name)
    expr = gen.typed_expression(gen.rng.choice(["bool", "int", "num"]), names)
    expected = _outcome(evaluate, expr, env)
    assert _outcome(compile_expr(expr), env) == expected
    assert _outcome(_typed(expr, env), env) == expected


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_integer_bounds_hold(seed):
    # the simulator drops a range check when the bounds fit the target type
    gen = DocGen(random.Random(seed))
    ranges = {f"n{i}": sorted(gen.rng.randint(-20, 20) for _ in range(2)) for i in range(3)}
    env = {n: gen.rng.randint(lo, hi) for n, (lo, hi) in ranges.items()}
    expr = gen.typed_expression("int", {"int": sorted(env)})
    code = CodeGen().expr(expr, lambda ident, ctx: Code(ident, "int", bounds=tuple(ranges[ident])))
    assert code.kind == "int"
    try:
        value = evaluate(expr, env)
    except EvaluationError:
        return
    assert code.bounds[0] <= value <= code.bounds[1]


def _run_outcome(run_fn, spec, history, check_determinism):
    try:
        out = run_fn(spec, history, check_determinism=check_determinism)
    except StreamcheckError as e:
        return ("error", type(e).__name__, getattr(e, "tick", None), str(e))
    return ("value", {c: repr(s.values) for c, s in out.streams.items()})


def _same_runs(spec, histories, check_determinism=False):
    for history in histories:
        expected = _run_outcome(run_interpreted, spec, history, check_determinism)
        assert _run_outcome(run, spec, history, check_determinism) == expected


def _assert_refused(spec, history, message):
    """run, step, initial_state and check_causality refuse the spec with
    `message` and no tick."""
    calls = [lambda: run(spec, history), lambda: run(spec, history, check_determinism=True),
             lambda: initial_state(spec), lambda: step(spec, AutomatonState("S", (), ()), {}),
             lambda: check_causality(spec), lambda: check_causality(spec, mode="weak")]
    for call in calls:
        with pytest.raises(SimulationError) as info:
            call()
        assert (info.value.tick, str(info.value)) == (None, message)


def _refused_or_same_runs(spec, histories, check_determinism):
    message = refusal(spec)
    event("refused" if message else "compiled")
    if message:
        _assert_refused(spec, histories[0], message)
        return
    _same_runs(spec, histories)
    if check_determinism:
        _same_runs(spec, histories, check_determinism=True)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_compiled_automata_match_interpreter(seed):
    gen = DocGen(random.Random(seed))
    spec = gen.rich_automaton() if gen.rng.random() < 0.6 else gen.automaton()
    histories = [gen.history(spec.interface.inputs, gen.rng.randint(0, 6), invalid=i == 3)
                 for i in range(4)]
    _refused_or_same_runs(spec, histories, check_determinism=True)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_compiled_chains_match_interpreter(seed):
    gen = DocGen(random.Random(seed))
    spec = gen.chain(gen.rng.randint(1, 7))
    histories = [gen.history(spec.interface.inputs, gen.rng.randint(0, 8), invalid=i == 3)
                 for i in range(4)]
    _refused_or_same_runs(spec, histories, check_determinism=False)


def test_fixture_components_match_interpreter(doc):
    gen = DocGen(random.Random(7))
    for spec in doc.components.values():
        histories = [gen.history(spec.interface.inputs, h) for h in (0, 1, 5, 40)]
        _same_runs(spec, histories)
        _same_runs(spec, histories, check_determinism=True)


def test_an_unset_output_named_like_a_label_is_refused():
    level = enumeration("Lo", "Hi")
    spec = AutomatonSpec(
        name="Shadow",
        interface=SyntacticInterface((Channel("x", level, "input"),),
                                     (Channel("Hi", BOOL, "output"),)),
        states=("Run",), initial="Run",
        transitions=(Transition("Run", "Run", outputs=(("Hi", parse_expression("x == Hi")),)),),
        causality="weak")
    history = ChannelHistory({"x": TimedStream.of(level, ["Hi", "Hi"])})
    _assert_refused(spec, history, "enumeration labels shadow channels/variables: ['Hi']")


def test_integer_literal_initial_values_of_real_slots_are_floats():
    spec = parse_model(HALVES).document.components["Halves"]
    history = ChannelHistory({"x": TimedStream.of(BOOL, [True, True, False])})
    expected = {"y": "(0.0, 1.0, 1.0)", "z": "(0.0, 0.5, 0.5)"}
    assert _run_outcome(run, spec, history, False) == ("value", expected)
    assert _run_outcome(run_interpreted, spec, history, False) == ("value", expected)
    assert initial_state(spec).variables == (("v", 1.0),)
    assert [type(v) for _, v in initial_state(spec).pending] == [float, float]


def test_step_and_run_agree(doc):
    gen = DocGen(random.Random(3))
    for spec in doc.components.values():
        history = gen.history(spec.interface.inputs, 6)
        st_, outs = initial_state(spec), []
        for t in range(1, 7):
            st_, out = step(spec, st_, history.tick(t))
            outs.append(out)
        expected = run(spec, history)
        assert outs == [expected.tick(t) for t in range(1, 7)]


def _idle_atom():
    return AutomatonSpec(
        name="Idle",
        interface=SyntacticInterface((Channel("i", BOOL, "input"),),
                                     (Channel("z", BOOL, "output"), Channel("a", BOOL, "output"))),
        states=("Run",), initial="Run",
        transitions=(Transition("Run", "Run"),),
        variables=(VariableDecl("zz", BOOL, False), VariableDecl("b", BOOL, True)),
        output_init={"z": False, "a": True})


def test_idle_step_keeps_the_configuration():
    spec = _idle_atom()
    s0 = initial_state(spec)
    s1, _ = step(spec, s0, {"i": True})
    assert s1 == s0
    assert [name for name, _ in s1.variables] == ["zz", "b"]
    assert [name for name, _ in s1.pending] == ["z", "a"]


def test_floor_of_non_finite_input_is_a_simulation_error():
    spec = AutomatonSpec(
        name="Floor",
        interface=SyntacticInterface((Channel("r", REAL, "input"),),
                                     (Channel("o", bounded_int(-9, 9), "output"),)),
        states=("Run",), initial="Run",
        transitions=(Transition("Run", "Run", outputs=(("o", parse_expression("floor(r)")),)),),
        output_init={"o": 0}, causality="weak")
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(SimulationError, match="finite") as info:
            run(spec, ChannelHistory({"r": TimedStream.of(REAL, [1.5, bad])}))
        assert info.value.tick == 2


def test_foreign_exceptions_become_simulation_errors():
    # int to float conversion overflows inside compiled arithmetic
    spec = AutomatonSpec(
        name="Big",
        interface=SyntacticInterface((Channel("x", bounded_int(0, 10 ** 400), "input"),),
                                     (Channel("o", bounded_int(0, 1), "output"),)),
        states=("Run",), initial="Run",
        transitions=(Transition("Run", "Run", guard=parse_expression("x * 0.5 > 1"),
                                outputs=(("o", parse_expression("1")),)),),
        output_init={"o": 0}, causality="weak")
    ctype = spec.interface.inputs[0].ctype
    with pytest.raises(SimulationError, match="OverflowError") as info:
        run(spec, ChannelHistory({"x": TimedStream.of(ctype, [0, 10 ** 399])}))
    assert info.value.tick == 2


def _gate(guard: str, target: str = "Run") -> AutomatonSpec:
    """A weak atom that copies n to o when `guard` holds and goes to `target`."""
    small = bounded_int(0, 3)
    return AutomatonSpec(
        name="Gate",
        interface=SyntacticInterface((Channel("n", small, "input"),),
                                     (Channel("o", small, "output"),)),
        states=("Run",), initial="Run",
        transitions=(Transition("Run", target, guard=parse_expression(guard),
                                outputs=(("o", Name("n")),)),),
        output_init={"o": 0}, causality="weak")


_SMALL = bounded_int(0, 3)
_TYPE_MISMATCH = ("invalid input history: n: type mismatch: "
                  "stream of bool bound to int[0..3] channel")


@pytest.mark.parametrize("guard, target, history, n, tick, message", [
    ("n > 0", "Run", {"n": TimedStream.of(_SMALL, [1])}, 2, None,
     "input horizon 1 < requested ticks 2"),
    ("n > 0", "Run", {"n": TimedStream.of(BOOL, [True])}, None, None, _TYPE_MISMATCH),
    # the history is checked before the ticks are counted
    ("n > 0", "Run", {"n": TimedStream.of(BOOL, [True])}, 2, None, _TYPE_MISMATCH),
    ("n > 0", "Run", {"n": TimedStream.of(_SMALL, [1]), "m": TimedStream.of(BOOL, [True])},
     None, None, "invalid input history: m: not a declared channel"),
    ("n", "Run", {"n": TimedStream.of(_SMALL, [1, 2])}, None, 1,
     "tick 1: Gate: guard of Run->Run is not boolean"),
    # and the ticks before the spec is compiled
    ("n > 0", "Gone", {"n": TimedStream.of(_SMALL, [1, 2])}, 5, None,
     "input horizon 2 < requested ticks 5"),
])
def test_a_run_fails_as_the_interpreter_fails(guard, target, history, n, tick, message):
    spec = _gate(guard, target)
    for run_fn in (run, run_interpreted):
        with pytest.raises(SimulationError) as info:
            run_fn(spec, ChannelHistory(history), n)
        assert (info.value.tick, str(info.value)) == (tick, message)


def test_a_spec_that_does_not_compile_fails_every_valid_table():
    spec = _gate("n > 0", "Gone")
    histories = [{"n": TimedStream.of(_SMALL, [1, 2])}, {"n": TimedStream.of(BOOL, [True])},
                 {"n": TimedStream.of(_SMALL, [3])}]
    out: list[list] = [[]]
    failed = run_tables(spec, [Table.of(ChannelHistory(h)) for h in histories], out)
    refused = "transition Run->Gone: unknown target state 'Gone'"
    assert [(k, str(e)) for k, e in failed] == [(0, refused), (1, _TYPE_MISMATCH), (2, refused)]
    assert out == [[]]


def test_weak_causality_search_below_two_ticks_finds_nothing():
    spec = AutomatonSpec(
        name="W",
        interface=SyntacticInterface((Channel("x", bounded_int(0, 99), "input"),),
                                     (Channel("y", bounded_int(0, 99), "output"),)),
        states=("Run",), initial="Run",
        transitions=(Transition("Run", "Run", outputs=(("y", parse_expression("x")),)),),
        output_init={"y": 0}, causality="weak")
    assert check_causality(spec, budget=1, horizon=1, mode="weak") is None


def test_a_run_spec_is_freed_without_the_cycle_collector():
    spec = load_models([fixture_path("acc.scm.txt")]).components["ACC"]
    history = DocGen(random.Random(6)).history(spec.interface.inputs, 3)
    gc.disable()
    try:
        run(spec, history)
        ref = weakref.ref(spec)
        del spec
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# min, max and floor of numeric operands, which compile to inline code

_REALS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, -2.5]
_INTS = [0, 1, -1, 10 ** 30]
_VALUES = {"int": _INTS, "real": _REALS}


def _by_kind(text, kinds, local):
    """fn(env): `text` compiled over the names a, b, ... of the given kinds,
    read from local variables (`local`) or from the dict env."""
    def name(ident, ctx):
        return Code(ident if local else f"_env[{ident!r}]", kinds[ident])

    gen = CodeGen()
    code = gen.expr(parse_expression(text), name)
    assert code.kind in ("int", "real", "num"), text
    reads = [f"{n} = _env[{n!r}]" for n in kinds] if local else []
    return gen.function("_env", reads + [f"return {code.src}"])


def _assert_same(text, kinds):
    """`text` compiled both ways agrees with exprs.evaluate on every
    assignment of special values to its names."""
    names = list(kinds)
    fns = [_by_kind(text, kinds, local) for local in (False, True)]
    expr = parse_expression(text)
    for values in itertools.product(*(_VALUES[kinds[n]] for n in names)):
        env = dict(zip(names, values))
        expected = _outcome(evaluate, expr, env)
        assert [_outcome(fn, env) for fn in fns] == [expected, expected], (text, env)


@pytest.mark.parametrize("func", ["min", "max"])
@pytest.mark.parametrize("arity", [2, 3])
def test_min_and_max_match_evaluate_on_special_values(func, arity):
    names = "abc"[:arity]
    for kinds in itertools.product(["int", "real"], repeat=arity):
        _assert_same(f"{func}({', '.join(names)})", dict(zip(names, kinds)))


@pytest.mark.parametrize("text", [
    "min(1, 1.0)", "min(1.0, 1)", "max(1, 1.0)", "max(1.0, 1)",
    "min(0.0, -0.0)", "min(-0.0, 0.0)", "max(0.0, -0.0)", "max(-0.0, 0.0)",
    "min(a, 1)", "min(1, a)", "max(a, -0.0, 0.0)", "max(0.0, a, -0.0)", "min(a, -1, a)",
    "min(a, b) * 2", "-max(a, b)", "min(max(a, -1), 1)", "max(min(a, b), min(b, a), a)",
])
def test_min_and_max_with_literals_and_operators_match_evaluate(text):
    _assert_same(text, {"a": "real", "b": "real"})
    _assert_same(text, {"a": "int", "b": "real"})


@pytest.mark.parametrize("text", [
    "min(i / z, floor(r))", "min(floor(r), i / z)", "max(i, floor(r), i / z)",
    "max(i, i / z, floor(r))", "min(max(floor(r), i), i / z)", "floor(min(r, i) + i / z)",
])
def test_the_first_failing_argument_is_the_one_reported(text):
    # i / 0 fails with "division by zero", floor of nan or inf with its own message
    _assert_same(text, {"i": "int", "z": "int", "r": "real"})


@pytest.mark.parametrize("text, kinds", [
    ("floor(r)", {"r": "real"}),
    ("floor(i)", {"i": "int"}),
    ("floor(-r)", {"r": "real"}),
    ("floor(min(i, r))", {"i": "int", "r": "real"}),  # of kind num
    ("floor(i + r * 0.5) - floor(r)", {"i": "int", "r": "real"}),
    ("floor(floor(r) / 2)", {"r": "real"}),
    ("floor(2.5)", {}),
    ("floor(-0.0)", {}),
])
def test_floor_matches_evaluate_on_special_values(text, kinds):
    _assert_same(text, kinds)


@pytest.mark.parametrize("text", [
    "min(r, s) < 0", "max(r, s, i) >= 1", "min(r, i) == i", "max(s, -0.0) == 0",
    "floor(r) == i", "floor(min(r, i)) > 0", "floor(max(r, s) + i) != 0",
])
def test_inline_calls_in_relations_match_evaluate(text):
    rel = RelationSpec("R", "RI", parse_expression(text))
    rows = list(itertools.product(_REALS, _REALS, _INTS))
    for start in range(len(rows)):  # each row at tick 1, so every error shows
        tail = rows[start:start + 4]
        a = ChannelHistory({"r": TimedStream.of(REAL, [r for r, _, _ in tail]),
                            "s": TimedStream.of(REAL, [s for _, s, _ in tail])})
        c = ChannelHistory({"i": TimedStream.of(bounded_int(-1, 10 ** 30),
                                                [i for _, _, i in tail])})
        expected: list = []
        for r, s, i in tail:
            value = _outcome(evaluate, rel.expr, {"r": r, "s": s, "i": i})
            if value[0] == "error":
                expected = value
                break
            expected.append(value[1] == "True")
        try:
            actual = eval_relation(rel, a, c)[1]
        except StreamcheckError as e:
            actual = ("error", type(e).__name__, str(e))
        assert actual == expected, (text, tail)


@pytest.mark.parametrize("file, component", [
    ("acc.scm.txt", "ACC"), ("acc.scm.txt", "AccelerationControl"),
    ("brake_override.scm.txt", "BrakeOverride")])
def test_min_and_max_of_typed_operands_call_no_builtin(file, component):
    spec = load_models([fixture_path(file)]).components[component]
    for check_determinism in (False, True):
        sim = _simulator(spec, check_determinism)
        assert not {"min", "max"} & set(sim.fn.__code__.co_names)


def test_state_tests_are_compiled_only_where_they_decide(doc):
    """An atom whose every control state is a source tests all but its last
    state, so a one-state atom tests none."""
    deep = parse_model(deep_net_model(random.Random(1), 4, 3, 4)[0]).document
    for spec, tests in ((deep.components["DeepNet"], 12), (doc.components["ACC"], 1)):
        for check_determinism in (False, True):
            src = "\n".join(_simulator(spec, check_determinism)._run_body)
            assert len(re.findall(r"\bs\d+ == '", src)) == tests


def test_only_a_state_with_two_transitions_checks_determinism(doc):
    """No second transition can be enabled in a state that has one, so the
    determinism-checking loop keeps track of the fired transition only in
    states with two or more; an atom with one transition a state compiles
    as the plain loop does."""
    deep = parse_model(deep_net_model(random.Random(1), 4, 3, 4)[0]).document
    for spec in (deep.components["DeepNet"], doc.components["ACC"]):
        leaving = Counter((path, t.source) for path, atom in network(spec).atoms
                          for t in atom.transitions)
        src = "\n".join(_simulator(spec, True)._run_body)
        assert src.count("_f = -1") == sum(n > 1 for n in leaving.values()) < len(leaving)
    x, y = Channel("x", bounded_int(0, 9), "input"), Channel("y", bounded_int(0, 9), "output")
    echo = AutomatonSpec(
        name="Echo", interface=SyntacticInterface((x,), (y,)), states=("Run",), initial="Run",
        transitions=(Transition("Run", "Run", parse_expression("x > 2"),
                                (("y", parse_expression("x")),)),),
        output_init={"y": 0}, causality="weak")
    assert _simulator(echo, True)._run_body == _simulator(echo, False)._run_body


def test_of_the_encoder_components_only_the_concretizer_checks_for_unset_outputs(doc):
    """Each encoder's one transition is always enabled and assigns its
    output, so no step leaves it unset; EncConcretizer's two guards are not
    always true, so its check stays."""
    for name, checked in (("AbstractEncoder", False), ("ConcreteEncoder", False),
                          ("EncConcretizer", True)):
        for check_determinism in (False, True):
            sim = _simulator(doc.components[name], check_determinism)
            assert ("_missing" in "\n".join(sim._run_body)) == checked, name


GUARDED = """component Guarded weak {
  input x : int[0..9]
  output y : int[0..9]
  states Run init
  transition Run -> Run when x > 0 { y := x }
}"""


@pytest.mark.parametrize("states, transitions, checked", [
    ("Run init", "Run -> Run when x > 0 { y := x }", True),
    ("Run init", "Run -> Run { y := x }", False),
    ("Run init", "Run -> Run when true { y := x } transition Run -> Run when x > 0 { }", False),
    ("Run init", "Run -> Run when x > 0 { y := x } transition Run -> Run when true { }", True),
    ("Run init", "Run -> Run when x > 0 { y := x } transition Run -> Run { y := 0 }", False),
    ("Run init, Off", "Run -> Off { y := x }", True),  # Off is the source of none
    ("Run init, Off", "Run -> Off { y := x } transition Off -> Run { y := 1 }", False)])
def test_unset_outputs_are_checked_where_a_step_can_leave_one_unset(states, transitions, checked):
    text = GUARDED.replace("Run init", states).replace("Run -> Run when x > 0 { y := x }",
                                                       transitions)
    spec = parse_model(text).document.components["Guarded"]
    for check_determinism in (False, True):
        sim = _simulator(spec, check_determinism)
        assert ("_missing" in "\n".join(sim._run_body)) == checked
    values = [[], [0], [3], [3, 0, 5], [0, 0, 4], [4, 0, 0]]
    _same_runs(spec, [ChannelHistory({"x": TimedStream.of(bounded_int(0, 9), v)})
                      for v in values])


def test_a_guarded_output_never_assigned_fails_as_the_interpreter_does():
    spec = parse_model(GUARDED).document.components["Guarded"]
    for values, tick in (([0, 3], 1), ([0], 1), ([3, 0], None)):
        history = ChannelHistory({"x": TimedStream.of(bounded_int(0, 9), values)})
        for check_determinism in (False, True):
            expected = _run_outcome(run_interpreted, spec, history, check_determinism)
            assert _run_outcome(run, spec, history, check_determinism) == expected
            if tick is None:
                assert expected[0] == "value"
            else:
                assert expected == ("error", "SimulationError", tick,
                                    f"tick {tick}: Guarded: outputs never assigned: ['y']")


@pytest.mark.parametrize("lo, hi, tested", [
    (1, 9, False), (-9, -1, False), (0, 9, True), (-9, 0, True), (-9, 9, True), (0, 0, True)])
def test_a_divisor_is_tested_only_where_its_bounds_hold_0(lo, hi, tested):
    expr = parse_expression("x / y")
    gen = CodeGen()
    code = gen.expr(expr, lambda ident, ctx: Code(ident, "int", bounds=(lo, hi)))
    assert ("_divisor" in code.src) == tested
    fn = gen.function("x, y", [f"return {code.src}"])
    for x, y in itertools.product(range(-7, 8), range(lo, hi + 1)):
        assert _outcome(fn, x, y) == _outcome(evaluate, expr, {"x": x, "y": y})


def _rebuilt(record, **changes):
    return type(record)(**{f: changes.get(f, getattr(record, f)) for f in record._fields})


def _one_state(rng, spec):
    """The atom with its control states merged into its initial one."""
    ts = tuple(_rebuilt(t, source=spec.initial, target=spec.initial) for t in spec.transitions)
    return _rebuilt(spec, states=(spec.initial,), transitions=ts)


def _every_state_a_source(rng, spec):
    """The atom with a copy of some transition leaving each state that no
    transition leaves, in a random place."""
    ts = list(spec.transitions)
    sources = {t.source for t in ts}
    for state in spec.states:
        if state not in sources:
            ts.insert(rng.randint(0, len(ts)), _rebuilt(rng.choice(ts), source=state, label=None))
    return _rebuilt(spec, transitions=tuple(ts))


def _clamp(rng, names, depth=2):
    """An int expression of nested min and max over int `names` (name ->
    (lo, hi)) and literals at or next to their bounds, so that the bounds
    of one operand often decide that another never becomes the result."""
    if depth == 0 or rng.random() < 0.3:
        if names and rng.random() < 0.6:
            return Name(rng.choice(sorted(names)))
        lo, hi = names[rng.choice(sorted(names))] if names else (0, 9)
        return Lit(rng.choice([lo - 1, lo, lo + 1, hi - 1, hi, hi + 1, rng.randint(lo, hi)]))
    operands = tuple(_clamp(rng, names, depth - 1) for _ in range(rng.choice([2, 2, 3])))
    if rng.random() < 0.15:  # an operand that can fail
        operands += (Binary("/", Lit(6), rng.choice(operands)),)
    return Call(rng.choice(["min", "max"]), operands)


def _clamped(rng, spec):
    """The atom with clamps as its int assignments; a weak atom's int
    outputs now and then lose their initial value, so that a clamp may
    read an output that was never assigned."""
    types = {c.name: c.ctype for c in spec.interface.inputs + spec.interface.outputs}
    types.update((v.name, v.dtype) for v in spec.variables)
    names = {n: (t.lo, t.hi) for n, t in types.items() if t.kind == "int"}
    output_init = dict(spec.output_init)
    if spec.causality == "weak":
        for n in list(output_init):
            if n in names and rng.random() < 0.5:
                del output_init[n]

    def assigned(pairs):
        return tuple((n, Call("min", (Call("max", (_clamp(rng, names), Lit(types[n].lo))),
                                      Lit(types[n].hi))) if n in names and rng.random() < 0.3
                      else _clamp(rng, names) if n in names else e)
                     for n, e in pairs)

    ts = tuple(_rebuilt(t, outputs=assigned(t.outputs), updates=assigned(t.updates))
               for t in spec.transitions)
    return _rebuilt(spec, transitions=ts, output_init=output_init)


_SHAPES = {"one state": [_one_state], "every state a source": [_every_state_a_source],
           "clamps": [_clamped], "one state, clamps": [_one_state, _clamped],
           "every state a source, clamps": [_every_state_a_source, _clamped]}


def _shaped(rng, spec, shape):
    """The spec with each of its atoms reshaped."""
    if isinstance(spec, AutomatonSpec):
        for reshape in _SHAPES[shape]:
            spec = reshape(rng, spec)
        return spec
    return _rebuilt(spec, subcomponents=tuple((n, _shaped(rng, s, shape))
                                              for n, s in spec.subcomponents))


def _normal(state):
    """A configuration with its variables, outputs and atoms in name order,
    as the interpreter orders them."""
    if isinstance(state, CompositeState):
        return sorted((path, _normal(atom)) for path, atom in state.substates)
    return state.state, sorted(state.variables), sorted(state.pending)


def _step_outcomes(step_fn, initial, history):
    """(outputs, configuration) of each tick, up to the first error."""
    outcomes, state = [], initial
    for t in range(1, history.horizon + 1):
        try:
            state, out = step_fn(state, history.tick(t))
        except StreamcheckError as e:
            return outcomes + [("error", type(e).__name__, str(e))]
        outcomes.append((out, _normal(state)))
    return outcomes


def _same_steps(spec, histories, check_determinism):
    rt = interp_oracle._runtime(spec, check_determinism)
    for history in histories:
        compiled = _step_outcomes(lambda s, i: step(spec, s, i, check_determinism),
                                  initial_state(spec), history)
        assert compiled == _step_outcomes(rt.step, rt.initial(), history)


def _shaped_runs_and_steps(gen, spec, ticks):
    shape = gen.rng.choice(sorted(_SHAPES))
    event(shape)
    spec = _shaped(gen.rng, spec, shape)
    histories = [gen.history(spec.interface.inputs, gen.rng.randint(0, ticks), invalid=i == 3)
                 for i in range(4)]
    _refused_or_same_runs(spec, histories, check_determinism=True)
    if refusal(spec) is None:
        for check_determinism in (False, True):
            _same_steps(spec, histories[:3], check_determinism)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_shaped_automata_match_interpreter(seed):
    """Atoms with one control state, with every state a source, and with
    clamps that the bounds decide: run and step, with and without the
    determinism check, as the interpreter runs and steps them."""
    gen = DocGen(random.Random(seed))
    spec = gen.rich_automaton() if gen.rng.random() < 0.6 else gen.automaton()
    _shaped_runs_and_steps(gen, spec, 6)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_shaped_chains_match_interpreter(seed):
    gen = DocGen(random.Random(seed))
    _shaped_runs_and_steps(gen, gen.chain(gen.rng.randint(1, 5)), 8)


# ---------------------------------------------------------------------------
# step refuses a configuration it cannot trust

_JUNK = [None, "abc", "Nowhere", True, 1.5, -1, 10 ** 40, math.nan, ("x",), ["Run"]]


def _junk(rng, dtype):
    """A value outside `dtype`."""
    return rng.choice([v for v in _JUNK if not dtype.contains(v)])


def _malformed_atom(rng, spec, atom):
    """The AutomatonState `atom` of `spec`, made invalid in one random way."""
    variables, pending = list(atom.variables), list(atom.pending)
    var_types = {v.name: v.dtype for v in spec.variables}
    out_types = {c.name: c.ctype for c in spec.interface.outputs}
    ways = ["state", "unknown variable", "unknown output", "variables", "pending", "class"]
    ways += ["variable value", "missing variable"] if variables else []
    ways += ["output value"] if pending else []
    ways += ["missing output"] if spec.output_init else []
    way = rng.choice(ways)
    event(way)
    if way == "state":
        return AutomatonState(rng.choice([v for v in _JUNK if v not in spec.states]),
                              atom.variables, atom.pending)
    if way == "class":
        return rng.choice([None, (atom.state, atom.variables, atom.pending), CompositeState(())])
    if way in ("variables", "pending"):
        bad = rng.choice([5, None, "abc", [(1,)], [("a", 1, 2)]])
        return (AutomatonState(atom.state, bad, atom.pending) if way == "variables"
                else AutomatonState(atom.state, atom.variables, bad))
    if way == "missing variable":
        del variables[rng.randrange(len(variables))]
    elif way == "missing output":
        drop = rng.choice(sorted(spec.output_init))
        pending = [(o, v) for o, v in pending if o != drop]
    elif way == "unknown variable":
        variables.insert(rng.randrange(len(variables) + 1), ("undeclared", 0))
    elif way == "unknown output":
        pending.insert(rng.randrange(len(pending) + 1), ("undeclared", 0))
    elif way == "variable value":
        k = rng.randrange(len(variables))
        variables[k] = (variables[k][0], _junk(rng, var_types[variables[k][0]]))
    else:
        k = rng.randrange(len(pending))
        pending[k] = (pending[k][0], _junk(rng, out_types[pending[k][0]]))
    return AutomatonState(atom.state, tuple(variables), tuple(pending))


def _malformed(rng, spec, state):
    """A configuration of `spec` that `state` becomes by one random change."""
    if not isinstance(state, CompositeState):
        return _malformed_atom(rng, spec, state)
    atoms = dict(network(spec).atoms)
    substates = list(state.substates)
    way = rng.choice(["atom", "atom", "missing atom", "unknown atom", "substates", "class"])
    event("composite: " + way)
    if way == "class":
        return rng.choice([None, substates[0][1], tuple(substates)])
    if way == "substates":
        return CompositeState(rng.choice([5, None, "abc", [(1,)]]))
    if way == "missing atom":
        del substates[rng.randrange(len(substates))]
    elif way == "unknown atom":
        substates.append(("nowhere", substates[0][1]))
    else:
        k = rng.randrange(len(substates))
        path, atom = substates[k]
        substates[k] = (path, _malformed_atom(rng, atoms[path], atom))
    return CompositeState(tuple(substates))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_step_refuses_malformed_configurations(doc, seed):
    rng = random.Random(seed)
    spec = doc.components[rng.choice(sorted(doc.components))]
    history = DocGen(rng).history(spec.interface.inputs, 3)
    state = initial_state(spec)
    for t in range(1, rng.randint(1, 3)):
        state, _ = step(spec, state, history.tick(t))
    bad = _malformed(rng, spec, state)
    with pytest.raises(SimulationError) as info:
        step(spec, bad, history.tick(3))
    assert info.value.tick is None
    assert str(info.value).startswith(spec.name + ": ")


def test_step_checks_the_configuration_it_is_given():
    counter = parse_model(
        "component Counter {\n  input x : int[0..9]\n  output y : int[0..9] init 0\n"
        "  var v : int[0..9] = 0\n  var w : real = 0.0\n  states Run init\n"
        "  transition Run -> Run { y := v; v := min(v + x, 9) }\n}\n"
    ).document.components["Counter"]
    cases = [
        (AutomatonState("Run", (("v", "abc"), ("w", 0.0)), (("y", 0),)),
         "Counter: variable 'v': value 'abc' is not a valid int[0..9]"),
        (AutomatonState("Nowhere", (("v", 5), ("w", 0.0)), (("y", 1),)),
         "Counter: 'Nowhere' is not a control state"),
        (AutomatonState("Run", (("v", 5), ("w", 0.0)), (("y", "zz"),)),
         "Counter: output 'y': value 'zz' is not a valid int[0..9]"),
        (AutomatonState("Run", (("v", 5),), ()), "Counter: state of '' lacks variables ['w']"),
        (AutomatonState("Run", (("v", 5), ("w", 0.0)), ()),
         "Counter: state of '' lacks latched outputs ['y']"),
        (CompositeState(()), "Counter: expected AutomatonState, got CompositeState"),
    ]
    for state, message in cases:
        with pytest.raises(SimulationError) as info:
            step(counter, state, {"x": 1})
        assert str(info.value) == message
    with pytest.raises(SimulationError, match="inputs must map"):
        step(counter, initial_state(counter), [1])
    # values are normalised as DataType.check normalises them
    st_, out = step(counter, AutomatonState("Run", (("v", 4), ("w", 2)), (("y", 4),)), {"x": 3})
    assert (st_.variables, st_.pending, out) == ((("v", 7), ("w", 2.0)), (("y", 4),), {"y": 4})
