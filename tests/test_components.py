import pytest

from streamcheck.components import (AutomatonSpec, Channel, CompositeSpec, Connector, Endpoint,
                                    SyntacticInterface, Transition, VariableDecl, compose_check,
                                    validate_automaton)
from streamcheck.simulator import (CausalityCounterexample, check_causality, run,
                                   same_tick_dependence)
from streamcheck.errors import CapsExceededError, SimulationError
from streamcheck.exprs import parse_expression
from streamcheck.streams import BOOL, bounded_int
from streamcheck.histories import ChannelHistory, TimedStream

INT8 = bounded_int(-128, 127)


def _hist(**cols):
    streams = {}
    for name, vals in cols.items():
        if all(isinstance(v, bool) for v in vals):
            streams[name] = TimedStream.of(BOOL, vals)
        else:
            streams[name] = TimedStream.of(INT8, vals)
    return ChannelHistory(streams)


def identity(name="Id", causality="strict"):
    return AutomatonSpec(
        name=name,
        interface=SyntacticInterface((Channel("x", INT8, "input"),),
                                     (Channel("y", INT8, "output"),)),
        states=("Run",), initial="Run",
        transitions=(Transition("Run", "Run", outputs=(("y", parse_expression("x")),)),),
        output_init={"y": 0}, causality=causality)


def test_strict_delay_and_init():
    out = run(identity(), _hist(x=[5, 7, 9]))
    assert out.streams["y"].values == (0, 5, 7)


def test_weak_zero_delay():
    out = run(identity(causality="weak"), _hist(x=[5, 7, 9]))
    assert out.streams["y"].values == (5, 7, 9)


def test_latch_holds_last_output():
    spec = AutomatonSpec(
        name="Latch",
        interface=SyntacticInterface((Channel("x", INT8, "input"),),
                                     (Channel("y", INT8, "output"),)),
        states=("Run",), initial="Run",
        transitions=(
            Transition("Run", "Run", guard=parse_expression("x > 0"),
                       outputs=(("y", parse_expression("x")),)),
            Transition("Run", "Run"),  # no assignment: y latches
        ),
        output_init={"y": 0}, causality="strict")
    out = run(spec, _hist(x=[3, -1, -1, 8]))
    assert out.streams["y"].values == (0, 3, 3, 3)


def test_stuck_state_self_loops_by_default():
    spec = AutomatonSpec(
        name="Stuck",
        interface=SyntacticInterface((Channel("x", INT8, "input"),),
                                     (Channel("y", INT8, "output"),)),
        states=("Run",), initial="Run",
        transitions=(Transition("Run", "Run", guard=parse_expression("x > 0"),
                                outputs=(("y", parse_expression("x")),)),),
        output_init={"y": 0}, causality="strict")
    out = run(spec, _hist(x=[-5, -5]))
    assert out.streams["y"].values == (0, 0)


def test_total_automaton_errors_when_stuck():
    spec = AutomatonSpec(
        name="Total",
        interface=SyntacticInterface((Channel("x", INT8, "input"),),
                                     (Channel("y", INT8, "output"),)),
        states=("Run",), initial="Run",
        transitions=(Transition("Run", "Run", guard=parse_expression("x > 0"),
                                outputs=(("y", parse_expression("x")),)),),
        output_init={"y": 0}, causality="strict", total=True)
    with pytest.raises(SimulationError, match="stuck"):
        run(spec, _hist(x=[-5]))


def test_first_enabled_transition_wins():
    spec = AutomatonSpec(
        name="Order",
        interface=SyntacticInterface((Channel("x", INT8, "input"),),
                                     (Channel("y", INT8, "output"),)),
        states=("Run",), initial="Run",
        transitions=(
            Transition("Run", "Run", guard=parse_expression("x >= 0"),
                       outputs=(("y", parse_expression("1")),)),
            Transition("Run", "Run", guard=parse_expression("x >= 0"),
                       outputs=(("y", parse_expression("2")),)),
        ),
        output_init={"y": 0}, causality="weak")
    out = run(spec, _hist(x=[0]))
    assert out.streams["y"].values == (1,)


def test_determinism_check_flags_overlap():
    spec = AutomatonSpec(
        name="Overlap",
        interface=SyntacticInterface((Channel("x", INT8, "input"),),
                                     (Channel("y", INT8, "output"),)),
        states=("Run",), initial="Run",
        transitions=(
            Transition("Run", "Run", guard=parse_expression("x >= 0"),
                       outputs=(("y", parse_expression("1")),)),
            Transition("Run", "Run", guard=parse_expression("x <= 0"),
                       outputs=(("y", parse_expression("2")),)),
        ),
        output_init={"y": 0}, causality="weak")
    # enabled overlap only at x == 0
    assert run(spec, _hist(x=[5]), check_determinism=True).streams["y"].values == (1,)
    with pytest.raises(SimulationError, match="both enabled"):
        run(spec, _hist(x=[0]), check_determinism=True)


def test_run_validates_inputs():
    with pytest.raises(SimulationError):
        run(identity(), ChannelHistory({}))  # unbound input channel


def test_a_stream_built_without_checks_fails_at_its_bad_tick():
    # TimedStream() checks nothing and records nothing, so the run checks
    # the column and fails at the first value outside int[-128..127]
    stream = TimedStream(INT8, (1, 2, 300, 4))
    assert stream._conforms is None
    with pytest.raises(SimulationError) as err:
        run(identity(), ChannelHistory({"x": stream}))
    assert err.value.tick == 3 and "300" in str(err.value)
    assert stream.conforms() is False
    good = TimedStream(INT8, (1, 2))
    assert run(identity(), ChannelHistory({"x": good})).streams["y"].values == (0, 1)
    assert good.conforms() is True


def test_validate_automaton_catches_unresolved_names():
    spec = AutomatonSpec(
        name="Bad",
        interface=SyntacticInterface((Channel("x", INT8, "input"),),
                                     (Channel("y", INT8, "output"),)),
        states=("Run",), initial="Nope",
        transitions=(Transition("Run", "Run", guard=parse_expression("z > 0")),),
        causality="weak")
    problems = validate_automaton(spec)
    assert any("initial state" in p for p in problems)
    assert any("unresolved channel 'z'" in p for p in problems)


def _pipeline(first_causality="strict"):
    inc = AutomatonSpec(
        name="Inc",
        interface=SyntacticInterface((Channel("a", INT8, "input"),),
                                     (Channel("b", INT8, "output"),)),
        states=("Run",), initial="Run",
        transitions=(Transition("Run", "Run",
                                outputs=(("b", parse_expression("min(a + 1, 127)")),)),),
        output_init={"b": 0}, causality=first_causality)
    dbl = AutomatonSpec(
        name="Dbl",
        interface=SyntacticInterface((Channel("b", INT8, "input"),),
                                     (Channel("c", INT8, "output"),)),
        states=("Run",), initial="Run",
        transitions=(Transition("Run", "Run",
                                outputs=(("c", parse_expression("min(b * 2, 127)")),)),),
        output_init={"c": 0}, causality="weak")
    return CompositeSpec(
        name="Pipe",
        interface=SyntacticInterface((Channel("a", INT8, "input"),),
                                     (Channel("c", INT8, "output"),)),
        subcomponents=(("inc", inc), ("dbl", dbl)),
        wiring=(Connector(Endpoint(None, "a"), Endpoint("inc", "a")),
                Connector(Endpoint("inc", "b"), Endpoint("dbl", "b")),
                Connector(Endpoint("dbl", "c"), Endpoint(None, "c"))))


def test_same_tick_dependence_follows_the_wires_and_stops_at_a_strict_atom():
    assert same_tick_dependence(_pipeline()) == []
    assert same_tick_dependence(_pipeline("weak")) == [("a", "c")]
    passed = CompositeSpec(
        name="Pass", interface=SyntacticInterface((Channel("a", INT8, "input"),),
                                                  (Channel("c", INT8, "output"),)),
        subcomponents=(), wiring=(Connector(Endpoint(None, "a"), Endpoint(None, "c")),))
    assert same_tick_dependence(passed) == [("a", "c")]


def test_composite_pipeline():
    out = run(_pipeline(), _hist(a=[1, 2, 3]))
    # inc is strict (one-tick delay), dbl is weak (zero delay)
    assert out.streams["c"].values == (0, 4, 6)


def test_compose_check_accepts_good_wiring():
    assert compose_check(_pipeline()) == []


def test_compose_check_rejects_zero_delay_cycle():
    fwd = AutomatonSpec(
        name="F",
        interface=SyntacticInterface((Channel("p", INT8, "input"),),
                                     (Channel("q", INT8, "output"),)),
        states=("Run",), initial="Run",
        transitions=(Transition("Run", "Run", outputs=(("q", parse_expression("p")),)),),
        causality="weak")
    bwd = AutomatonSpec(
        name="B",
        interface=SyntacticInterface((Channel("q", INT8, "input"),),
                                     (Channel("p", INT8, "output"),)),
        states=("Run",), initial="Run",
        transitions=(Transition("Run", "Run", outputs=(("p", parse_expression("q")),)),),
        causality="weak")
    cyc = CompositeSpec(
        name="Cycle",
        interface=SyntacticInterface((), (Channel("q", INT8, "output"),)),
        subcomponents=(("f", fwd), ("b", bwd)),
        wiring=(Connector(Endpoint("f", "q"), Endpoint("b", "q")),
                Connector(Endpoint("b", "p"), Endpoint("f", "p")),
                Connector(Endpoint("f", "q"), Endpoint(None, "q"))))
    problems = compose_check(cyc)
    assert any("cycle" in p for p in problems)


def test_compose_check_rejects_double_producer():
    spec = _pipeline()
    extra = Connector(Endpoint(None, "a"), Endpoint("dbl", "b"))
    bad = CompositeSpec(spec.name, spec.interface, spec.subcomponents,
                        spec.wiring + (extra,))
    assert any("produce" in p for p in compose_check(bad))


def test_causality_strict_component_passes():
    assert check_causality(identity(), horizon=3) is None


def test_causality_detects_weak_component_in_strict_mode():
    cex = check_causality(identity(causality="weak"), horizon=3, mode="strict")
    assert isinstance(cex, CausalityCounterexample)


def recorder():
    """A weak atom that keeps its input in a variable and always emits 0.
    Its guard reads the input, so no proof applies and the search runs."""
    return AutomatonSpec(
        name="Recorder",
        interface=SyntacticInterface((Channel("x", INT8, "input"),),
                                     (Channel("y", INT8, "output"),)),
        states=("Run",), initial="Run", variables=(VariableDecl("v", INT8, 0),),
        transitions=(Transition("Run", "Run", parse_expression("x >= 0"),
                                (("y", parse_expression("0")),), (("v", parse_expression("x")),)),
                     Transition("Run", "Run", outputs=(("y", parse_expression("0")),),
                                updates=(("v", parse_expression("x")),))),
        output_init={"y": 0}, causality="weak")


def test_causality_budget_caps_configurations():
    # the recorder over int8 reaches three configurations: the initial
    # v = 0 and the recorded grid values -128 and 127
    stats = {}
    assert check_causality(recorder(), budget=3, horizon=3, mode="strict", stats=stats) is None
    assert stats == {"configurations": 3, "steps": 6, "proved": False, "dependent": [("x", "y")]}
    with pytest.raises(CapsExceededError) as info:
        check_causality(recorder(), budget=2, horizon=3, mode="strict")
    assert (info.value.required, info.value.cap) == (3, 2)


def test_a_strict_component_is_proved_without_a_search():
    stats = {}
    assert check_causality(identity(), budget=1, horizon=3, stats=stats) is None
    assert stats == {"configurations": 0, "steps": 0, "proved": True}
