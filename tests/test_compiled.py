"""Differential tests of the compiled simulator against the interpreter.

`exprs.evaluate` is the reference for compiled expressions and
`interp_oracle.run_interpreted` the reference for compiled runs of
well-formed specs: values, error kinds, error messages and failing ticks
must all agree. An ill-formed spec is refused before its first tick, with
the message `check_oracles.refusal` gives.
"""

import gc
import math
import random
import weakref

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from check_oracles import compile_expr, refusal
from docgen import DocGen
from interp_oracle import run_interpreted
from streamcheck import load_models
from streamcheck.components import (AutomatonSpec, AutomatonState, Channel, SyntacticInterface,
                                    Transition, VariableDecl, check_causality, initial_state,
                                    run, step)
from streamcheck.codegen import UNBOUNDED, Code, CodeGen, kind_of_value
from streamcheck.dsl import parse_model
from streamcheck.errors import EvaluationError, SimulationError, StreamcheckError
from streamcheck.exprs import evaluate, parse_expression
from streamcheck.streams import (BOOL, REAL, ChannelHistory, TimedStream, bounded_int,
                                 enumeration)

from conftest import HALVES, fixture_path


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
