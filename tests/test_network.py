"""Composite networks: each one built once from its subcomponents' networks,
compared with the flattening of `interp_oracle` and the former depth-first
search for zero-delay cycles, and loops of wires through pass-through
composites, which once made loading hang."""

import contextlib
import random
import signal
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcheck import components
from streamcheck.cli import main
from streamcheck.components import (CompositeSpec, Connector, Endpoint, SyntacticInterface,
                                    _network, _zero_delay_cycle, check_causality, compose_check,
                                    initial_state, run, same_tick_dependence, step)
from streamcheck.dsl import parse_model
from streamcheck.errors import SimulationError
from streamcheck.streams import BOOL, Channel, ChannelHistory, TimedStream

from check_oracles import zero_delay_cycles
from docgen import DocGen
from interp_oracle import _FlatModel

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
import gen  # noqa: E402  (bench/gen.py: the benchmark's deep network)


@contextlib.contextmanager
def deadline(seconds: float):
    """Fail with TimeoutError when the body runs longer than `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _deep_net_doc():
    text, _ = gen.deep_net_model(random.Random(1), 4, 3, 4)
    result = parse_model(text)
    assert result.ok, result.diagnostics
    return text, result.document


def _composites(doc):
    return [s for s in doc.components.values() if isinstance(s, CompositeSpec)]


# ---------------------------------------------------------------------------
# The network against the flattening oracle


def _producer(flat: _FlatModel, spec: CompositeSpec, src):
    """An oracle source as the network gives it: None unless it is a
    boundary input or an atom output."""
    if src[0] is None:
        return src if src[1] in spec.interface.input_names() else None
    rt = flat.atoms.get(src[0])
    return src if rt is not None and src[1] in rt.spec.interface.output_names() else None


def _same_network(spec: CompositeSpec):
    with deadline(10):
        try:
            flat = _FlatModel(spec)
        except SimulationError as e:  # an unfed input of a nested composite
            with pytest.raises(SimulationError) as info:
                _network(spec)
            assert str(info.value) == str(e)
            return
        net = _network(spec)
    assert net.atoms == [(p, rt.spec) for p, rt in flat.atoms.items()]
    assert net.src == {key: _producer(flat, spec, src) for key, src in flat.src.items()}
    assert net.out_src == {c: _producer(flat, spec, src) for c, src in flat.out_src.items()}


def _same_cycle_verdict(spec: CompositeSpec):
    with deadline(10):
        try:
            flat = _FlatModel(spec)
        except SimulationError:
            return
        # The flattening leaves an unconnected input resolved to itself,
        # which the search would take for a wire from its atom to itself.
        sources = {key: src for key, src in flat.src.items() if _producer(flat, spec, src)}
        expected = zero_delay_cycles({p: rt.spec for p, rt in flat.atoms.items()}, sources)
        net = _network(spec)
        cycle = _zero_delay_cycle(net)
    assert bool(cycle) == bool(expected)
    # the wires named are wires of the network, and they close a cycle
    wires = []
    for label in cycle:
        producer, consumer = (side.rsplit(".", 1) for side in label.split(" -> "))
        assert net.src[tuple(consumer)] == tuple(producer)
        wires.append((producer[0], consumer[0]))
    assert all(wires[k][1] == wires[(k + 1) % len(wires)][0] for k in range(len(wires)))
    assert len({consumer for _, consumer in wires}) == len(wires)
    problems = compose_check(spec)
    if not [p for p in problems if not p.startswith(("zero-delay", "cannot flatten"))]:
        assert any(p.startswith("zero-delay cycle") for p in problems) == bool(cycle)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_networks_of_chains_match_the_oracle(seed):
    gen_ = DocGen(random.Random(seed))
    spec = gen_.chain(gen_.rng.randint(1, 7))
    _same_network(spec)
    _same_cycle_verdict(spec)


def test_networks_of_fixtures_and_the_deep_net_match_the_oracle(doc):
    _, deep = _deep_net_doc()
    specs = _composites(doc) + _composites(deep)
    assert len(specs) == 1 + 17
    for spec in specs:
        _same_network(spec)
        _same_cycle_verdict(spec)
        assert compose_check(spec) == []


def test_loading_checks_each_component_once_and_its_first_run_checks_none(monkeypatch):
    checked = []
    for check in ("validate_automaton", "compose_check"):
        def counted(spec, check=getattr(components, check)):
            checked.append(spec.name)
            return check(spec)
        monkeypatch.setattr(components, check, counted)
    _, deep = _deep_net_doc()
    assert sorted(checked) == sorted(deep.components) and len(checked) == 48 + 12 + 4 + 1
    checked.clear()
    spec = deep.components["DeepNet"]
    history = DocGen(random.Random(2)).history(spec.interface.inputs, 3)
    run(spec, history)
    step(spec, initial_state(spec), history.tick(1))
    assert check_causality(spec, mode="weak") is None
    assert checked == []


# the fixture components whose strict causality the wiring proves; the
# others (the encoders and the concretizers) each emit an input of the same
# tick, and the search finds that at tick 0
PROVED = {"BrakeOverride", "MinAcceleration", "SpeedPlausibilisation",
          "DistancePlausibilisation", "SpeedControl", "DistanceControl",
          "AccelerationControl", "ACC"}


def test_fixture_verdicts_and_what_they_rest_on(doc):
    assert PROVED < set(doc.components)
    for name, spec in doc.components.items():
        stats = {}
        cex = check_causality(spec, mode="strict", stats=stats)
        assert (not same_tick_dependence(spec)) == (name in PROVED), name
        if name in PROVED:
            assert cex is None and stats == {"configurations": 0, "steps": 0, "proved": True}
        else:
            assert cex is not None and cex.tick == 0 and "proved" not in stats, name
        stats = {}
        assert check_causality(spec, mode="weak", stats=stats) is None
        assert stats == {"configurations": 0, "steps": 0}


def test_the_deep_net_is_proved_through_its_strict_atoms():
    _, deep = _deep_net_doc()
    proved = {name for name, spec in deep.components.items() if not same_tick_dependence(spec)}
    strict = {name for name, spec in deep.components.items()
              if getattr(spec, "causality", None) == "strict"}
    assert len(strict) == 8
    assert proved == strict | {"B0", "B1", "B2", "B3", "DeepNet", "U02", "U05", "U08", "U11"}
    stats = {}
    assert check_causality(deep.components["DeepNet"], stats=stats) is None
    assert stats["proved"] is True and "_simulators" not in deep.components["DeepNet"].__dict__


def test_chains_close_zero_delay_cycles_now_and_then():
    # so the differential tests above meet cycles as well as unfed inputs
    cycles = faults = 0
    for seed in range(200):
        try:
            cycles += _zero_delay_cycle(_network(DocGen(random.Random(seed)).chain(5))) != []
        except SimulationError:
            faults += 1
    assert 5 < cycles < 150 and 0 < faults < 50


def test_each_composite_is_built_once_per_load(monkeypatch):
    builds = []
    splice = components._splice
    monkeypatch.setattr(components, "_splice", lambda spec: builds.append(spec) or splice(spec))
    _, doc = _deep_net_doc()
    assert len(builds) == 17
    assert {s.name for s in builds} == {s.name for s in _composites(doc)}
    net = doc.components["DeepNet"]
    run(net, DocGen(random.Random(0)).history(net.interface.inputs, 3))
    assert len(builds) == 17


def test_a_lone_atom_network_is_not_kept(doc):
    atom = doc.components["BrakeOverride"]
    assert _network(atom) is not _network(atom)
    assert "_network" not in atom.__dict__


# ---------------------------------------------------------------------------
# Loops of wires through pass-through composites

PASS = "component P { input p : bool  output q : bool  connect p -> q }\n"
LOOPS = {
    "one_sub": (PASS + "component X { output o : bool  sub a : P\n"
                "  connect a.q -> a.p  connect a.q -> o }\n", "a.p -> a.q -> a.p"),
    "two_subs": (PASS + "component X { output o : bool  sub a : P  sub b : P\n"
                 "  connect a.q -> b.p  connect b.q -> a.p  connect a.q -> o }\n",
                 "b.p -> b.q -> a.p -> a.q -> b.p"),
    "nested": (PASS + "component Q { input p : bool  output q : bool  sub i : P\n"
               "  connect p -> i.p  connect i.q -> q }\n"
               "component X { output o : bool  sub a : Q  sub b : P\n"
               "  connect a.q -> b.p  connect b.q -> a.p  connect b.q -> o }\n",
               "b.p -> b.q -> a.p -> a.q -> b.p"),
}


def _python_loops():
    """The three loops, built in Python."""
    p, q = Channel("p", BOOL, "input"), Channel("q", BOOL, "output")
    o = Channel("o", BOOL, "output")

    def wire(producer, consumer):
        return Connector(Endpoint(*producer), Endpoint(*consumer))

    pas = CompositeSpec("P", SyntacticInterface((p,), (q,)), (), (wire((None, "p"), (None, "q")),))
    nested = CompositeSpec("Q", SyntacticInterface((p,), (q,)), (("i", pas),),
                           (wire((None, "p"), ("i", "p")), wire(("i", "q"), (None, "q"))))

    def x(subs, *wires):
        return CompositeSpec("X", SyntacticInterface((), (o,)), subs, tuple(wires))

    return {
        "one_sub": x((("a", pas),), wire(("a", "q"), ("a", "p")), wire(("a", "q"), (None, "o"))),
        "two_subs": x((("a", pas), ("b", pas)), wire(("a", "q"), ("b", "p")),
                      wire(("b", "q"), ("a", "p")), wire(("a", "q"), (None, "o"))),
        "nested": x((("a", nested), ("b", pas)), wire(("a", "q"), ("b", "p")),
                    wire(("b", "q"), ("a", "p")), wire(("b", "q"), (None, "o"))),
    }


@pytest.mark.parametrize("name", sorted(LOOPS))
def test_a_pass_through_loop_is_a_located_load_error(name):
    text, channels = LOOPS[name]
    with deadline(1):
        result = parse_model(text)
    line = text.count("\n", 0, text.index("component X")) + 1
    assert [(d.line, d.column) for d in result.diagnostics] == [(line, 1)]
    message = result.diagnostics[0].message
    assert message == (f"component 'X': wiring loop in 'X' through pass-through composites: "
                       f"{channels}")


@pytest.mark.parametrize("name", sorted(LOOPS))
def test_a_pass_through_loop_built_in_python_is_refused(name):
    spec = _python_loops()[name]
    with deadline(1):
        problems = compose_check(spec)
        with pytest.raises(SimulationError, match="wiring loop in 'X'") as info:
            run(spec, ChannelHistory({}, 2))
    assert problems == [str(info.value)]
    assert LOOPS[name][1] in problems[0]


@pytest.mark.parametrize("name", sorted(LOOPS))
def test_causality_on_a_pass_through_loop_exits_2(name, tmp_path, capsys):
    model = tmp_path / "loop.scm.txt"
    model.write_text(LOOPS[name][0], encoding="utf-8")
    with deadline(1):
        code = main(["causality", "--model", str(model), "--component", "X"])
    assert code == 2
    assert "wiring loop in 'X' through pass-through composites" in capsys.readouterr().err


def test_a_loop_no_atom_reads_is_found_too():
    with deadline(1):
        result = parse_model(PASS + "component X { sub a : P  connect a.q -> a.p }")
    assert [d.message for d in result.diagnostics] == [
        "component 'X': wiring loop in 'X' through pass-through composites: a.p -> a.q -> a.p"]


def test_pass_through_chains_resolve_to_the_input_behind_them():
    text = (PASS + "component Q { input p : bool  output q : bool  sub i : P  sub j : P\n"
            "  connect p -> i.p  connect i.q -> j.p  connect j.q -> q }\n"
            "component X { input x : bool  output o : bool  sub a : Q  sub b : Q\n"
            "  connect x -> a.p  connect a.q -> b.p  connect b.q -> o }\n")
    result = parse_model(text)
    assert result.ok, result.diagnostics
    spec = result.document.components["X"]
    assert _network(spec).out_src == {"o": (None, "x")}
    history = ChannelHistory({"x": TimedStream.of(BOOL, [True, False, True])}, 3)
    assert run(spec, history).streams["o"].values == (True, False, True)
