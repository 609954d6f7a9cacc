"""Differential tests of the exact checks against the enumerating ones.

`check_oracles` keeps the subset loop that decided the Galois law, the
search that ran every grid history for causality and the search that
stepped each configuration one grid row at a time; the checks must give the
same answers, and the successor search the same counts and errors too. An
ill-formed spec is refused before the search starts, in every mode. A spec
in which no output reads an input of the same tick is proved without a
search, and then neither the grid histories nor brute force over every
value of small input types may find a witness.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from check_oracles import (causality_by_brute_force, causality_by_histories, causality_by_search,
                           prefix_equal, refusal, verify_galois_by_masks)
from docgen import DocGen
from streamcheck.abstraction import verify_galois
from streamcheck.components import AutomatonSpec, Channel, SyntacticInterface, Transition
from streamcheck.simulator import check_causality, run, same_tick_dependence
from streamcheck.declarations import GaloisSpec, Universe
from streamcheck.errors import SimulationError, StreamcheckError
from streamcheck.exprs import parse_expression
from streamcheck.streams import BOOL, bounded_int
from streamcheck.histories import ChannelHistory, TimedStream


def _galois(rng, a_values, c_values, horizon):
    k, m = rng.randint(-3, 3), rng.choice(c_values)
    f = rng.choice([f"min(max(c + {k}, 0), 3)", f"abs(c) / {rng.randint(1, 2)}",
                    "min(abs(c), 3)"])
    member = rng.choice([None, f"a == {f}", f"a {rng.choice(['!=', '<=', '>='])} {f}",
                         f"a == {f} or c == {m}", f"a == {f} and c != {m}",
                         f"a == {rng.choice(a_values)}"])
    return GaloisSpec(
        "G", (("a", parse_expression(f)),),
        None if member is None else parse_expression(member),
        Universe((("a", tuple(a_values)),), (("c", tuple(c_values)),), horizon),
        channel_types={"a": bounded_int(0, 3), "c": bounded_int(-3, 3)})


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True),
       st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True),
       st.integers(0, 2), st.integers(0, 2 ** 32 - 1))
def test_pointwise_galois_matches_the_subset_loop(a_values, c_values, horizon, seed):
    """The law is decided on one tick, with the verdict of the subset loop
    over the histories of the declared horizon and the counterexample of
    the subset loop over the one-tick histories."""
    gal = _galois(random.Random(seed), a_values, c_values, horizon)
    stats = {}
    got = verify_galois(gal, element_cap=64, stats=stats)
    assert stats["pairs"] == (len(a_values) * len(c_values) if horizon else 1)
    assert (got is None) == (verify_galois_by_masks(gal) is None)
    if got is not None:
        u = gal.universe
        one_tick = GaloisSpec(gal.name, gal.f_map, gal.member,
                              Universe(u.abstract, u.concrete, min(horizon, 1)),
                              gal.abstract_component, gal.concrete_component, gal.channel_types)
        expected = verify_galois_by_masks(one_tick)
        assert (got.concrete_set, got.abstract_set, got.lhs, got.rhs, got.horizon) == \
            (expected.concrete_set, expected.abstract_set, expected.lhs, expected.rhs, horizon)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs), None
    except StreamcheckError as e:
        return None, e


def _refused(spec, horizon, mode, budget=10 ** 6):
    """When the spec is ill-formed, the search refuses it before any step,
    with no tick, and the result is True; otherwise the result is False."""
    message = refusal(spec)
    if message is None:
        return False
    stats = {}
    with pytest.raises(SimulationError) as info:
        check_causality(spec, budget=budget, horizon=horizon, mode=mode, stats=stats)
    assert (info.value.tick, str(info.value)) == (None, message)
    assert stats == {"configurations": 0, "steps": 0}
    return True


def _same_verdict(spec, horizon, mode):
    if _refused(spec, horizon, mode):
        return
    expected, oracle_error = _outcome(causality_by_histories, spec, horizon, mode)
    got, error = _outcome(check_causality, spec, budget=10 ** 6, horizon=horizon, mode=mode)
    if error is not None:
        assert isinstance(error, SimulationError) and oracle_error is not None, error
    if oracle_error is not None:
        return
    assert (got is None) == (expected is None)
    if got is not None:
        assert got.tick == expected.tick
        # a genuine witness: equal inputs through the tick, different outputs after it
        assert prefix_equal(got.input_a, got.input_b, got.tick)
        assert not prefix_equal(got.output_a, got.output_b, got.tick + 1)
        assert got.output_a == run(spec, got.input_a, horizon)
        assert got.output_b == run(spec, got.input_b, horizon)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.sampled_from([None, "strict"]))
def test_causality_search_matches_history_enumeration_on_automata(seed, horizon, mode):
    spec = DocGen(random.Random(seed)).rich_automaton()
    _same_verdict(spec, horizon, mode)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.sampled_from(["strict", "weak"]))
def test_causality_search_matches_history_enumeration_on_chains(seed, horizon, mode):
    gen = DocGen(random.Random(seed))
    spec = gen.chain(gen.rng.randint(1, 5))
    _same_verdict(spec, horizon, mode)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
def test_causality_search_matches_history_enumeration_at_depth(seed, horizon):
    spec = DocGen(random.Random(seed)).leaky()
    _same_verdict(spec, horizon, "strict")


def test_causality_error_names_the_tick_of_the_failing_step():
    # the guard reads x, so only the search can decide strict causality;
    # both rows emit 0 at tick 1, then the atom is stuck
    x, y = Channel("x", bounded_int(0, 9), "input"), Channel("y", bounded_int(0, 9), "output")
    spec = AutomatonSpec(
        name="StuckLater", interface=SyntacticInterface((x,), (y,)),
        states=("Go", "Halt"), initial="Go",
        transitions=(Transition("Go", "Halt", parse_expression("x >= 0"),
                                (("y", parse_expression("0")),)),
                     Transition("Halt", "Halt", parse_expression("false"))),
        output_init={"y": 0}, causality="weak", total=True)
    assert same_tick_dependence(spec) == [("x", "y")]
    with pytest.raises(SimulationError, match="stuck") as info:
        check_causality(spec, horizon=3, mode="strict")
    assert info.value.tick == 2



def _search(fn, spec, **kwargs):
    """What a causality search returns or raises, and the counts it leaves."""
    stats = {}
    try:
        return ("returned", fn(spec, stats=stats, **kwargs), stats)
    except StreamcheckError as e:
        return ("raised", type(e), str(e), getattr(e, "tick", None), stats)


def _same_search(spec, horizon, mode, budget):
    """The search and the row-by-row search agree, counts included, on a
    spec with a same-tick dependence; one without is proved before any
    search (see test_an_empty_dependence_admits_no_witness)."""
    if _refused(spec, horizon, mode, budget):
        return
    dependent = same_tick_dependence(spec)
    strict = (mode or getattr(spec, "causality", "strict")) == "strict"
    assume(dependent or not strict)
    kwargs = dict(budget=budget, horizon=horizon, mode=mode)
    got = _search(check_causality, spec, **kwargs)
    if strict and got[:2] == ("returned", None):
        # what the verdict rests on; the former search did not report it
        assert (got[2].pop("proved"), got[2].pop("dependent")) == (False, dependent)
    assert got == _search(causality_by_search, spec, **kwargs)


_BUDGETS = st.sampled_from([1, 2, 3, 5, 10 ** 6])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.sampled_from([None, "strict"]), _BUDGETS)
def test_successor_search_matches_row_by_row_search_on_automata(seed, horizon, mode, budget):
    _same_search(DocGen(random.Random(seed)).rich_automaton(), horizon, mode, budget)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), _BUDGETS)
def test_successor_search_matches_row_by_row_search_on_chains(seed, horizon, budget):
    gen = DocGen(random.Random(seed))
    _same_search(gen.chain(gen.rng.randint(1, 5)), horizon, "strict", budget)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), _BUDGETS)
def test_successor_search_matches_row_by_row_search_on_failing_rows(seed, horizon, budget):
    _same_search(DocGen(random.Random(seed)).leaky(failing=True), horizon, "strict", budget)


def _generated(kind, seed):
    gen = DocGen(random.Random(seed), max_width=3)
    if kind == "rich":
        return gen.rich_automaton()
    if kind == "chain":
        return gen.chain(gen.rng.randint(1, 5))
    return gen.leaky(failing=seed % 2 == 0)


def _proved(kind, seed):
    """The first well-formed spec without a same-tick dependence that the
    seeds from `seed` on generate, or None."""
    for s in range(seed, seed + 300):
        spec = _generated(kind, s)
        if refusal(spec) is None and not same_tick_dependence(spec):
            return spec
    return None


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["rich", "chain", "leaky"]), st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_an_empty_dependence_admits_no_witness(kind, seed, horizon):
    spec = _proved(kind, seed)
    assume(spec is not None)
    stats = {}
    assert check_causality(spec, horizon=horizon, mode="strict", stats=stats) is None
    assert stats == {"configurations": 0, "steps": 0, "proved": True}
    assert causality_by_brute_force(spec, horizon=2) is None
    expected, _ = _outcome(causality_by_histories, spec, horizon, "strict")
    assert expected is None


def _equals_five():
    x, y = Channel("x", bounded_int(0, 9), "input"), Channel("y", BOOL, "output")
    return AutomatonSpec(
        name="Five", interface=SyntacticInterface((x,), (y,)), states=("Run",), initial="Run",
        transitions=(Transition("Run", "Run", outputs=(("y", parse_expression("x == 5")),)),),
        causality="weak")


def test_brute_force_finds_the_dependence_the_grid_misses():
    # the grid holds 0 and 9 only, so the search finds no witness, and says
    # that its verdict is no proof
    spec, stats = _equals_five(), {}
    assert check_causality(spec, mode="strict", stats=stats) is None
    assert (stats["proved"], stats["dependent"]) == (False, [("x", "y")])
    assert causality_by_histories(spec, 3, "strict") is None
    tick, rows_a, rows_b = causality_by_brute_force(spec, horizon=2, limit=10)
    assert tick == 0 and {rows_a[0], rows_b[0]} == {(0,), (5,)}


def test_the_search_leaves_the_run_loop_uncompiled():
    # the search steps configurations with the successor function only; the
    # first run compiles the run loop
    spec = _equals_five()
    assert check_causality(spec, mode="strict") is None
    sim = spec.__dict__["_simulators"][False]
    assert "_successors" in sim.__dict__ and "fn" not in sim.__dict__
    out = run(spec, ChannelHistory({"x": TimedStream.of(bounded_int(0, 9), [5, 4])}))
    assert out.streams["y"].values == (True, False) and "fn" in sim.__dict__


def _divergent_then_failing(en_output):
    """Weak over (x, en): with en off it emits 3 / (3 - x), with en on it
    emits `en_output`. The grid rows are (0, F), (0, T), (3, F), (3, T), so
    row 2 divides by zero and row 1 may diverge from row 0 first."""
    x, en = Channel("x", bounded_int(0, 3), "input"), Channel("en", BOOL, "input")
    y = Channel("y", bounded_int(0, 3), "output")
    return AutomatonSpec(
        name="Divergent", interface=SyntacticInterface((x, en), (y,)), states=("Run",),
        initial="Run", causality="weak",
        transitions=(Transition("Run", "Run", parse_expression("en"),
                                (("y", parse_expression(en_output)),)),
                     Transition("Run", "Run", outputs=(("y", parse_expression("3 / (3 - x)")),))))


def test_a_divergence_wins_over_a_later_failing_row():
    stats = {}
    cex = check_causality(_divergent_then_failing("0"), horizon=2, mode="strict", stats=stats)
    assert cex is not None and cex.tick == 0
    assert stats == {"configurations": 2, "steps": 2}


def test_a_failing_row_without_an_earlier_divergence_raises_at_its_tick():
    stats = {}
    with pytest.raises(SimulationError, match="division by zero") as info:
        check_causality(_divergent_then_failing("1"), horizon=2, mode="strict", stats=stats)
    assert info.value.tick == 1
    assert stats == {"configurations": 2, "steps": 2}


def test_an_initial_output_outside_its_type_is_refused_before_the_first_tick():
    # `bad` starts outside its type and is never assigned; `y` leaks the
    # input, so the rows would diverge, but the search never starts
    x, y = Channel("x", BOOL, "input"), Channel("y", BOOL, "output")
    spec = AutomatonSpec(
        name="BadInit", interface=SyntacticInterface((x,), (y, Channel("bad", BOOL, "output"))),
        states=("Run",), initial="Run", causality="weak",
        transitions=(Transition("Run", "Run", outputs=(("y", parse_expression("x")),)),),
        output_init={"bad": 1})
    for mode in ("strict", "weak"):
        stats = {}
        with pytest.raises(SimulationError) as info:
            check_causality(spec, horizon=2, mode=mode, stats=stats)
        assert str(info.value) == "init value 1 outside type of output 'bad'"
        assert info.value.tick is None
        assert stats == {"configurations": 0, "steps": 0}
