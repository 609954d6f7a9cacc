"""The record classes behave as the dataclasses they replaced.

`record_oracle` keeps those dataclasses. For every record class, hypothesis
builds a record and its dataclass twin from the same field values, passed
by position, by keyword or left to their defaults, and both must agree on
construction errors, repr, `==` and `!=`, hashing and assignment.

Python 3.13's dataclasses compare field by field, not as tuples, so that a
record holding nan differs from another holding the same nan on 3.13 and
equals it on 3.12. The records compare as tuples on every version (see
`test_records_compare_field_values_as_tuples`), so the generated values
hold no nan as a field value, only inside a container.
"""

import dataclasses
import importlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import record_oracle as oracle
from streamcheck.errors import Diagnostic
from streamcheck.exprs import Lit
from streamcheck.records import Record
from streamcheck.streams import BOOL, Channel, TimedStream

for module in ("abstraction", "dsl", "testcases"):  # the modules a model load leaves out
    importlib.import_module(f"streamcheck.{module}")
RECORDS = {cls.__name__: cls for cls in Record.__subclasses__()}
ORACLES = {name: cls for name, cls in vars(oracle).items()
           if isinstance(cls, type) and dataclasses.is_dataclass(cls)}

NAN_IN_A_TUPLE = (float("nan"),)

_leaf = st.one_of(st.none(), st.booleans(), st.integers(-2, 2), st.sampled_from(["", "a", "b"]),
                  st.sampled_from([0.0, -0.0, 1.5, math.inf]))
_value = st.one_of(_leaf, st.tuples(_leaf, _leaf), st.lists(_leaf, max_size=2),
                   st.dictionaries(st.sampled_from("ab"), _leaf, max_size=2),
                   st.just(NAN_IN_A_TUPLE), st.builds(Lit, _leaf))
_channels = st.lists(st.builds(Channel, st.sampled_from("xyz"), st.just(BOOL)),
                     max_size=3).map(tuple)
_streams = st.builds(lambda n: TimedStream(BOOL, (True,) * n), st.integers(0, 3))

# field values for the classes whose construction checks them, so that
# both valid and invalid values are drawn
_CHECKED = {
    "DataType": st.tuples(st.sampled_from(["bool", "int", "real", "enum", "set"]),
                          st.one_of(st.none(), st.integers(-2, 2)),
                          st.one_of(st.none(), st.integers(-2, 2)),
                          st.lists(st.sampled_from("ab"), max_size=3).map(tuple)),
    "ChannelHistory": st.tuples(st.dictionaries(st.sampled_from("xyz"), _streams, max_size=3),
                                st.integers(-1, 3)),
    "RelationSpec": st.tuples(_value, _value, st.one_of(st.none(), _value),
                              st.one_of(st.none(), _value)),
    "SyntacticInterface": st.tuples(_channels, _channels),
}

# records of other classes, and values that are not records
_OTHERS = [(Lit(1), oracle.Lit(1)), (Diagnostic(1, 2, "m"), oracle.Diagnostic(1, 2, "m")),
           (None, None), (1, 1), ("a", "a"), ((1, 2), (1, 2))]


def _outcome(fn, *args, **kwargs):
    """("ok", the result) or ("raised", the exception)."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as e:
        return "raised", e


def _same_error(got, want, kind=None):
    """Both raised, with one message: `got` an exception of `kind` (by
    default, of the type `want` has), `want` one of `kind` or a subclass."""
    assert got[0] == want[0] == "raised"
    kind = kind or type(want[1])
    assert type(got[1]) is kind and isinstance(want[1], kind) and str(got[1]) == str(want[1])


def _call(data, name):
    """Draw field values, and pass them by position, by keyword or not at
    all (to a field with a default): (args, kwargs, fields left out)."""
    fields = dataclasses.fields(ORACLES[name])
    values = data.draw(_CHECKED.get(name, st.tuples(*[_value] * len(fields))))
    args, kwargs, omitted = [], {}, []
    for f, v in zip(fields, values):
        has_default = f.default is not dataclasses.MISSING \
            or f.default_factory is not dataclasses.MISSING
        if has_default and data.draw(st.booleans()):
            omitted.append(f)
        elif not kwargs and not omitted and data.draw(st.booleans()):
            args.append(v)
        else:
            kwargs[f.name] = v
    return args, kwargs, omitted


def test_every_record_class_has_its_dataclass():
    assert len(RECORDS) == 38 and sorted(RECORDS) == sorted(ORACLES)


@pytest.mark.parametrize("name", sorted(ORACLES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_records_behave_as_their_dataclasses(name, data):
    cls, ocls = RECORDS[name], ORACLES[name]
    args, kwargs, omitted = _call(data, name)
    built, obuilt = _outcome(cls, *args, **kwargs), _outcome(ocls, *args, **kwargs)
    if obuilt[0] == "raised":
        _same_error(built, obuilt)
        return
    assert built[0] == "ok"
    a, oa = built[1], obuilt[1]
    assert list(vars(a).items()) == list(vars(oa).items())

    # an equal twin, with a new dict for each field left to a dict default
    b, ob = cls(*args, **kwargs), ocls(*args, **kwargs)
    for f in omitted:
        if f.default_factory is not dataclasses.MISSING:
            assert getattr(a, f.name) == {} and getattr(a, f.name) is not getattr(b, f.name)

    # a record from other values, when they build one
    args_c, kwargs_c, _ = _call(data, name)
    c, oc = _outcome(cls, *args_c, **kwargs_c), _outcome(ocls, *args_c, **kwargs_c)
    assert c[0] == oc[0]
    others = [(a, oa), (b, ob), *_OTHERS] + ([(c[1], oc[1])] if c[0] == "ok" else [])
    for x, ox in others:
        assert (a == x, a != x, x == a, x != a) == (oa == ox, oa != ox, ox == oa, ox != oa)

    if "__repr__" in vars(ocls):
        assert repr(a) == repr(oa)
    else:
        assert type(a).__repr__ is object.__repr__

    assert (cls.__hash__ is None) == (ocls.__hash__ is None)
    if ocls.__hash__ is not None:
        hashed, ohashed = _outcome(hash, a), _outcome(hash, oa)
        if ohashed[0] == "raised":
            _same_error(hashed, ohashed)
        else:
            assert hashed == ohashed and hash(b) == hash(a)

    field = dataclasses.fields(ocls)[0].name
    if ocls.__dataclass_params__.frozen:
        for attr in (field, "other"):
            _same_error(_outcome(setattr, a, attr, 1), _outcome(setattr, oa, attr, 1),
                        AttributeError)
            _same_error(_outcome(delattr, a, attr), _outcome(delattr, oa, attr), AttributeError)
    else:
        setattr(a, field, 1)
        setattr(oa, field, 1)
        assert getattr(a, field) == 1 and (a == b) == (oa == ob)
        delattr(a, field)
        delattr(oa, field)
        assert field not in vars(a)


def test_records_compare_field_values_as_tuples():
    # a value held by both records is equal to itself, as in a tuple, even
    # when it is nan; frozen records hash alike then too
    nan = float("nan")
    assert Lit(nan) == Lit(nan) and hash(Lit(nan)) == hash(Lit(nan))
    assert Lit(nan) != Lit(float("nan"))
    assert Diagnostic(1, 2, nan) == Diagnostic(1, 2, nan)
    assert Lit(True) == Lit(1) and hash(Lit(True)) == hash(Lit(1))
