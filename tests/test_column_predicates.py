"""Differential tests of the compiled relation, map and membership
predicates against the dict-environment versions in `check_oracles`.

Histories get typed columns that now and then hold values outside their
type (so they compile untyped), `nan` and infinities in real columns,
channels named like enumeration labels (which shadow them), and
expressions that are often ill-typed or name unknown channels in branches
that may never be evaluated. Results are compared by `repr`, which tells
1 from 1.0 and True and prints every nan alike.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import check_oracles as oracle
from docgen import DocGen
from streamcheck.abstraction import (GaloisCounterexample, abstract_output, eval_relation,
                                     g_membership, verify_galois)
from streamcheck.codegen import _rows, membership_rows
from streamcheck.declarations import GaloisSpec, RelationSpec, Universe
from streamcheck.errors import EvaluationError, StreamcheckError, TypeMismatchError
from streamcheck.exprs import Binary, Lit, Name, parse_expression
from streamcheck.streams import BOOL, REAL, bounded_int, enumeration
from streamcheck.histories import ChannelHistory, TimedStream

_TYPES = [BOOL, bounded_int(-6, 6), REAL, enumeration("L1", "L2"), enumeration("L2", "L3")]
_LABELS = ["L1", "L2", "L3"]


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except StreamcheckError as e:
        return (type(e), str(e))


def _column(gen, dtype, horizon):
    r = gen.rng
    pick = r.random()
    values = [gen.literal_of(dtype) for _ in range(horizon)]
    if pick < 0.2 and dtype == REAL and values:
        values[r.randrange(horizon)] = r.choice([float("nan"), float("inf"), float("-inf")])
    elif pick < 0.35 and values:  # a value outside the type; an int is one for a real
        values[r.randrange(horizon)] = r.randint(-6, 6) if dtype == REAL else gen.value()
    return TimedStream(dtype, tuple(values))


def _history(gen, names, horizon, types):
    return ChannelHistory({n: _column(gen, types[n], horizon) for n in names}, horizon)


def _kinds(types):
    kinds = {"bool": [], "int": [], "real": [], "str": []}
    for name, t in types.items():
        kinds["str" if t.kind == "enum" else t.kind].append(name)
    return kinds


def _expression(gen, types, kind="bool"):
    r = gen.rng
    if r.random() < 0.5:
        e = gen.typed_expression(kind, _kinds(types), 3)
    else:
        e = gen.expression(sorted(types) + _LABELS + ["zz"], 3)
    if r.random() < 0.2:  # an unknown name that may never be read
        e = Binary(r.choice(["or", "and"]), e, Name("zz"))
    return e


def _split(gen):
    """Channel names and types of an abstract and a concrete side, now and
    then sharing a name (a concrete channel shadows an abstract one in
    membership; a relation rejects the pair); "L1" and "L3" are also
    enumeration labels, which a channel shadows."""
    r = gen.rng
    names = r.sample(["a0", "a1", "c0", "c1", "c2", "L1", "L3"], r.randint(0, 5))
    types = {n: r.choice(_TYPES) for n in names}
    cut = r.randint(0, len(names))
    a_names, c_names = names[:cut], names[cut:]
    if a_names and r.random() < 0.2:
        c_names.append(r.choice(a_names))
    return a_names, c_names, types


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 4))
def test_relation_matches_dict_environment(seed, horizon):
    gen = DocGen(random.Random(seed))
    a_names, c_names, types = _split(gen)
    rel = RelationSpec("R", "RI", expr=_expression(gen, types))
    # a second pair of histories of the same channels reuses or adds a compiled loop
    for _ in range(2):
        a, c = _history(gen, a_names, horizon, types), _history(gen, c_names, horizon, types)
        assert _outcome(eval_relation, rel, a, c) == _outcome(oracle.eval_relation, rel, a, c)


def _galois(gen, a_names, c_names, types, universe=None, adjoint=True):
    """A Galois connection whose map entries read the concrete channels;
    with `adjoint`, it often declares no `member`."""
    r = gen.rng
    f_map = tuple((r.choice(a_names) if a_names and r.random() < 0.9 else "a9",
                   _expression(gen, {n: types[n] for n in c_names}, r.choice(["bool", "int", "num"])))
                  for _ in range(r.randint(1, 3)))
    member = None if adjoint and r.random() < 0.4 else _expression(gen, types)
    channel_types = {n: t for n, t in types.items() if r.random() < 0.8}
    if r.random() < 0.3:
        channel_types["e9"] = enumeration("L1", "L3")
    return GaloisSpec("G", f_map, member, universe, channel_types=channel_types)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 3))
def test_abstraction_map_and_membership_match_dict_environment(seed, horizon):
    gen = DocGen(random.Random(seed))
    a_names, c_names, types = _split(gen)
    gal = _galois(gen, a_names, c_names, types)
    for _ in range(2):
        a, c = _history(gen, a_names, horizon, types), _history(gen, c_names, horizon, types)
        assert _outcome(abstract_output, gal, c) == _outcome(oracle.abstract_output, gal, c)
        assert _outcome(g_membership, gal, a, c) == _outcome(oracle.g_membership, gal, a, c)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2))
def test_membership_matrix_matches_pairwise_membership(seed, horizon):
    """`membership_rows` decides all pairs of row lists of a declared
    `member` in one call, with one signature a side, in which a column
    conforms only when it conforms in every history of that side."""
    gen = DocGen(random.Random(seed))
    a_names, c_names, types = _split(gen)
    gal = _galois(gen, a_names, c_names, types, adjoint=False)
    r = gen.rng
    abstract = [_history(gen, a_names, horizon, types) for _ in range(r.randint(0, 3))]
    concrete = [_history(gen, c_names, horizon, types) for _ in range(r.randint(0, 4))]

    def signature(names, histories):
        return tuple((n, types[n], all(h.streams[n].conforms() for h in histories))
                     for n in names)

    def matrix():
        return membership_rows(gal, signature(a_names, abstract), signature(c_names, concrete),
                               [_rows(a) for a in abstract], [_rows(x) for x in concrete])

    def pairwise():
        return [[oracle.g_membership(gal, a, x) for x in concrete] for a in abstract]
    assert _outcome(matrix) == _outcome(pairwise)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0, 1, 1, 1, 2, 2, 2, 2, 2, 3]))
def test_verify_galois_matches_pairwise_decision(seed, horizon):
    """The verdict and the error of the oracle over every history of the
    horizon, and the counterexample of the oracle over the one-tick
    histories; H = 3 is drawn rarely, since the oracle enumerates 9^3
    histories a side there."""
    gen = DocGen(random.Random(seed))
    r = gen.rng
    a_names, c_names, types = _split(gen)
    a_names, c_names = a_names or ["a0"], c_names or ["c0"]
    for n in a_names + c_names:
        types.setdefault(n, r.choice(_TYPES))

    def values(dtype):
        pool = [gen.literal_of(dtype) for _ in range(3)]
        if dtype == REAL and r.random() < 0.3:
            pool.append(float("nan"))
        return tuple(dict.fromkeys(pool))

    a_names, c_names = a_names[:2], c_names[:2]
    universe = Universe(tuple((n, values(types[n])) for n in a_names),
                        tuple((n, values(types[n])) for n in c_names), horizon)
    c_types = {n: types[n] for n in c_names}

    def f(dtype):
        """Mostly a map into the abstract channel's type, so that the law is decided."""
        same = [n for n in c_names if types[n] == dtype]
        if same and r.random() < 0.5:
            return Name(r.choice(same))
        if dtype == BOOL and r.random() < 0.7:
            return gen.typed_expression("bool", _kinds(c_types), 2)
        return Lit(gen.literal_of(dtype)) if r.random() < 0.8 else _expression(gen, c_types, "int")

    f_map = tuple((n, f(types[n])) for n in a_names)
    pick = r.random()
    if pick < 0.4:
        member = None
    elif pick < 0.8:  # the adjoint, now and then loosened or tightened
        member = Binary("and", *(Binary("==", Name(n), e) for n, e in f_map)) \
            if len(f_map) == 2 else Binary("==", Name(f_map[0][0]), f_map[0][1])
        if r.random() < 0.5:
            member = Binary(r.choice(["and", "or"]), member, _expression(gen, types))
    else:
        member = _expression(gen, types)
    channel_types = {n: t for n, t in types.items() if r.random() < 0.8}
    gal = GaloisSpec("G", f_map, member, universe, channel_types=channel_types)
    got, expected = _outcome(verify_galois, gal, 10 ** 6), _outcome(oracle.verify_galois, gal)

    def verdict(outcome):  # whether the law holds, or the error (type and message)
        return outcome if isinstance(outcome, tuple) else outcome == "None"
    assert verdict(got) == verdict(expected)
    if verdict(got) is False:
        one_tick = GaloisSpec("G", f_map, member,
                              Universe(universe.abstract, universe.concrete, min(horizon, 1)),
                              channel_types=channel_types)

        def held(ce):  # the one-tick counterexample, each value held for the horizon
            return GaloisCounterexample(ce.concrete_set, ce.abstract_set, ce.lhs, ce.rhs, horizon)
        assert got == _outcome(lambda: held(oracle.verify_galois(one_tick)))


def test_a_channel_shadows_a_label_of_the_same_name():
    rel = RelationSpec("R", "RI", expr=Binary("==", Name("L1"), Lit("L1")))
    labels = ChannelHistory({"e": TimedStream(enumeration("L1", "L2"), ("L2", "L1"))})
    shadow = ChannelHistory({"L1": TimedStream(enumeration("L1", "L2"), ("L2", "L1"))})
    assert eval_relation(rel, labels, ChannelHistory({}, 2)) == (True, [True, True])
    assert eval_relation(rel, ChannelHistory({}, 2), shadow) == (False, [False, True])


def test_a_column_with_a_value_outside_its_type_is_read_untyped():
    # evaluate divides two ints as ints, even in a real column
    rel = RelationSpec("R", "RI", expr=Binary("==", Binary("/", Name("x"), Lit(2)), Lit(1)))
    x = ChannelHistory({"x": TimedStream(REAL, (3, 3.0))})
    assert eval_relation(rel, x, ChannelHistory({}, 2)) == (False, [True, False])
    assert eval_relation(rel, ChannelHistory({"x": TimedStream(REAL, (3.0, 2.0))}),
                         ChannelHistory({}, 2)) == (False, [False, True])


_UNIVERSE_VALUES = st.lists(st.sampled_from([0, 1, 2.5, True, "L1"]), max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.lists(_UNIVERSE_VALUES, min_size=1, max_size=3), st.lists(_UNIVERSE_VALUES, max_size=3),
       st.integers(0, 1), st.booleans())
def test_a_universe_value_outside_its_type_fails_as_the_enumeration_meets_it(
        abstract, concrete, horizon, named_twice):
    """`verify_galois` checks each universe value once; the error is the
    one that building the histories one by one meets first. Channel a0 is
    typed int[0..1], so 2.5, True and "L1" fail there; in the untyped
    others a value has its own type, and only the label fails."""
    def side(prefix, columns):
        names = [f"{prefix}{i}" for i in range(len(columns))]
        if named_twice and len(names) > 1:
            names[-1] = names[0]
        return tuple(zip(names, map(tuple, columns)))

    universe = Universe(side("a", abstract), side("c", concrete), horizon)
    gal = GaloisSpec("G", (("a0", Lit(0)),), None, universe,
                     channel_types={"a0": bounded_int(0, 1)})
    expected = [_outcome(oracle._side_elements, s, horizon, gal.channel_types)
                for s in (universe.abstract, universe.concrete)]
    errors = [e for e in expected if isinstance(e, tuple)]
    got = _outcome(verify_galois, gal, 10 ** 6)
    if errors:
        assert got == errors[0]
    else:
        assert not isinstance(got, tuple) or "is not a valid" not in got[1]


def test_a_label_in_an_untyped_universe_channel_is_not_a_real():
    universe = Universe((("a", (0, 1)),), (("c", (0, "L1")),), 1)
    gal = GaloisSpec("G", (("a", Name("c")),), None, universe)
    assert _outcome(verify_galois, gal) == (TypeMismatchError, "value 'L1' is not a valid real")


def test_an_image_outside_its_type_fails_before_a_later_row_of_the_map():
    """f runs over every concrete row in one call; the error reported is
    still that of the first row in order, be it f's or its image's."""
    def gal(c_values):
        universe = Universe((("a", (0, 1)),), (("c", c_values),), 1)
        return GaloisSpec("G", (("a", parse_expression("6 / c")),), None, universe,
                          channel_types={"a": bounded_int(0, 3), "c": bounded_int(0, 9)})

    for c_values, expected in (((1, 0), (TypeMismatchError, "value 6 is not a valid int[0..3]")),
                               ((0, 1), (EvaluationError, "division by zero"))):
        assert _outcome(verify_galois, gal(c_values)) == expected
        assert _outcome(oracle.verify_galois, gal(c_values)) == expected


@pytest.mark.parametrize("f_map, a, b, c, holds", [
    # a mismatch at tick 1 comes before the division by zero at tick 2
    ((("a", "6 / c"),), (1, 3), None, (2, 0), False),
    # the division by zero at tick 1 comes before the mismatch at tick 2
    ((("a", "6 / c"),), (6, 1), None, (0, 2), EvaluationError),
    # within a tick, entries go in map order: a's mismatch, then b's error
    ((("a", "c"), ("b", "6 / c")), (5,), (1,), (0,), False),
    ((("b", "6 / c"), ("a", "c")), (5,), (1,), (0,), EvaluationError),
    # the entry of a channel the abstract side lacks is not run
    ((("a", "c"), ("z", "6 / c")), (0, 1), None, (0, 1), True),
])
def test_an_adjoint_answers_false_at_a_mismatch_before_an_evaluation_error(f_map, a, b, c, holds):
    gal = GaloisSpec("G", tuple((chan, parse_expression(e)) for chan, e in f_map))
    streams = {"a": TimedStream(bounded_int(0, 6), a)}
    if b is not None:
        streams["b"] = TimedStream(bounded_int(0, 6), b)
    abstract = ChannelHistory(streams)
    concrete = ChannelHistory({"c": TimedStream(bounded_int(0, 6), c)})
    got = _outcome(g_membership, gal, abstract, concrete)
    assert got == _outcome(oracle.g_membership, gal, abstract, concrete)
    if isinstance(holds, bool):
        assert got == repr(holds)
    else:
        assert got[0] is holds


def test_an_adjoint_runs_its_own_entries_after_the_whole_map_ran():
    """The map and the membership entries of one signature are compiled
    apart: a map of a and z over c, then the adjoint of a alone."""
    gal = GaloisSpec("G", (("z", parse_expression("c * 2")), ("a", parse_expression("c + 1"))))
    concrete = ChannelHistory({"c": TimedStream(bounded_int(0, 6), (1, 2))})
    assert abstract_output(gal, concrete).streams["z"].values == (2, 4)
    abstract = ChannelHistory({"a": TimedStream(bounded_int(0, 6), (2, 3))})
    assert g_membership(gal, abstract, concrete) is True
    assert abstract_output(gal, concrete).streams["a"].values == (2, 3)


def test_a_value_unequal_to_itself_is_a_member_of_nothing():
    """As with `!=` value by value: an image nan is no abstract nan, even
    when the universe holds the very same object on both sides, where f's
    image still finds its abstract element."""
    nan = float("nan")
    gal = GaloisSpec("G", (("a", Name("c")),), None, Universe((("a", (nan, 0.0)),),
                                                              (("c", (nan, 0.0)),), 1),
                     channel_types={"a": REAL, "c": REAL})
    got = verify_galois(gal)
    assert (got.lhs, got.rhs) == (True, False)
    assert repr(got) == repr(oracle.verify_galois(gal))


def test_an_adjoint_with_an_empty_side_decides_no_pair():
    """A side with an empty value set has no element, so no pair is decided
    and a map that names no abstract channel is no error there."""
    f_map = (("z", parse_expression("c")),)
    for abstract, concrete in (((("a", ()),), (("c", (0, 1)),)), ((("a", (0,)),), (("c", ()),))):
        gal = GaloisSpec("G", f_map, None, Universe(abstract, concrete, 1))
        stats = {}
        assert verify_galois(gal, stats=stats) is None and stats["pairs"] == 0
        assert oracle.verify_galois(gal) is None
    universe = Universe((("a", (0,)),), (("c", (0, 1)),), 1)
    assert _outcome(verify_galois, GaloisSpec("G", f_map, None, universe)) == \
        (EvaluationError, "galois 'G': no applicable membership entries")
