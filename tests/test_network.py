"""Composite networks: each composite checked from its subcomponents'
summaries and flattened, on first use, in one walk. Compared with the
flattening of `interp_oracle`, the former depth-first search for zero-delay
cycles and the former per-level splice and readiness scan of
`network_oracle`; loops of wires through pass-through composites, which once
made loading hang; and the work a long chain takes."""

import contextlib
import random
import signal
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcheck import components, networks
from streamcheck.cli import main
from streamcheck.components import (CompositeSpec, Connector, Endpoint, SyntacticInterface,
                                    compose_check)
from streamcheck.networks import network, zero_delay_cycle
from streamcheck.simulator import check_causality, initial_state, run, same_tick_dependence, step
from streamcheck.dsl import parse_model
from streamcheck.errors import SimulationError
from streamcheck.streams import BOOL, Channel
from streamcheck.histories import ChannelHistory, TimedStream

import network_oracle
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
                network(spec)
            assert str(info.value) == str(e)
            return
        net = network(spec)
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
        net = network(spec)
        cycle = zero_delay_cycle(net)
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
    _same_as_the_former_splice(spec)


def test_networks_of_fixtures_and_the_deep_net_match_the_oracle(doc):
    _, deep = _deep_net_doc()
    specs = _composites(doc) + _composites(deep)
    assert len(specs) == 1 + 17
    for spec in specs:
        _same_network(spec)
        _same_cycle_verdict(spec)
        _same_as_the_former_splice(spec)
        assert compose_check(spec) == []


# ---------------------------------------------------------------------------
# The summaries and the one-walk network against the former splice


def _composites_under(spec):
    """The spec and every composite under it, each spec once."""
    found, todo = {}, [spec]
    while todo:
        at = todo.pop()
        if isinstance(at, CompositeSpec) and id(at) not in found:
            found[id(at)] = at
            todo += [sub for _, sub in at.subcomponents]
    return list(found.values())


def _same_as_the_former_splice(spec: CompositeSpec):
    """Each composite under the spec has the network that `network_oracle`
    splices, or the same error, and the same `compose_check` problems."""
    for composite in _composites_under(spec):
        with deadline(10):
            try:
                old = network_oracle.network(composite)
            except SimulationError as e:
                with pytest.raises(SimulationError) as info:
                    network(composite)
                assert str(info.value) == str(e)
            else:
                net = network(composite)
                assert net.atoms == old.atoms
                assert list(net.src.items()) == list(old.src.items())
                assert list(net.out_src.items()) == list(old.out_src.items())
                assert (net.weak, net.stuck) == (old.weak, old.stuck)
            problems = compose_check(composite)
            assert problems == network_oracle.compose_check(composite), composite.name


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_random_graphs_are_checked_and_flattened_as_the_former_splice_did(seed):
    _same_as_the_former_splice(DocGen(random.Random(seed)).graph())


def test_random_graphs_meet_every_verdict_now_and_then():
    # so the property above meets cycles and faults as well as sound wiring
    verdicts = Counter()
    for seed in range(300):
        problems = compose_check(DocGen(random.Random(seed)).graph())
        verdicts.update(kind for kind in ("zero-delay cycle", "wiring loop",
                                          "is not a composite input", "unconnected")
                        if any(kind in p for p in problems))
        verdicts["sound"] += not problems
    assert min(verdicts.values()) > 5 and len(verdicts) == 5, verdicts


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
            cycles += zero_delay_cycle(network(DocGen(random.Random(seed)).chain(5))) != []
        except SimulationError:
            faults += 1
    assert 5 < cycles < 150 and 0 < faults < 50


def test_a_load_builds_no_network_and_the_first_run_builds_one(monkeypatch):
    builds = []
    flatten = networks.flatten
    monkeypatch.setattr(networks, "flatten", lambda spec: builds.append(spec.name) or flatten(spec))
    _, doc = _deep_net_doc()
    assert builds == []
    net = doc.components["DeepNet"]
    history = DocGen(random.Random(0)).history(net.interface.inputs, 3)
    run(net, history)
    assert builds == ["DeepNet"]
    run(net, history)
    assert check_causality(net) is None
    assert builds == ["DeepNet"]


def _chain_against_the_dataflow(n: int) -> str:
    """A model of a chain of n weak atoms whose instance names count down
    along the dataflow, so that a scan by path fires one atom a pass."""
    lines = ["component W weak { input x : int[0..9]  output y : int[0..9]",
             "  states Run init  transition Run -> Run { y := x } }",
             "component Chain { input x : int[0..9]  output y : int[0..9]"]
    lines += [f"  sub a{k:05d} : W" for k in range(n)]
    lines += [f"  connect a{k + 1:05d}.y -> a{k:05d}.x" for k in range(n - 1)]
    lines += [f"  connect x -> a{n - 1:05d}.x  connect a00000.y -> y }}"]
    return "\n".join(lines) + "\n"


def _lines_to_load(n: int) -> int:
    """The lines of streamcheck executed to load the chain of n atoms."""
    package = str(Path(components.__file__).parent)
    count = 0

    def line(frame, event, arg):
        nonlocal count
        count += event == "line"
        return line

    text, previous = _chain_against_the_dataflow(n), sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 line if frame.f_code.co_filename.startswith(package) else None)
    try:
        doc = parse_model(text).document
    finally:
        sys.settrace(previous)
    assert doc.components["Chain"].__dict__.get("_network") is None
    return count


def test_a_chain_against_the_dataflow_loads_in_linear_work():
    with deadline(30):
        _lines_to_load(100)  # what a first load sets up once
        lines = {n: _lines_to_load(n) for n in (500, 1000, 2000)}
    # each atom adds as many lines as the one before; when a load spliced
    # and scanned the network, the lines an atom added grew with the chain
    # (0.50, 1.75 and 6.50 million lines in all, against 0.10, 0.20 and
    # 0.40 million now)
    first, second = (lines[1000] - lines[500]) / 500, (lines[2000] - lines[1000]) / 1000
    assert second <= 1.02 * first, lines


def test_a_lone_atom_network_is_not_kept(doc):
    atom = doc.components["BrakeOverride"]
    assert network(atom) is not network(atom)
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
    assert network(spec).out_src == {"o": (None, "x")}
    history = ChannelHistory({"x": TimedStream.of(BOOL, [True, False, True])}, 3)
    assert run(spec, history).streams["o"].values == (True, False, True)
