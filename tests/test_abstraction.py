import itertools
import math
import random

import pytest

from streamcheck.abstraction import (ConcretizationWarning, abstract_output, check_correspondence,
                                     check_finv_in_g, concretize, eval_relation, fold_stream,
                                     g_membership, universe_elements, verify_galois)
from streamcheck.declarations import GaloisSpec, RelationSpec, Universe
from streamcheck.errors import CapsExceededError, UnboundParameterError
from streamcheck.exprs import parse_expression
from streamcheck.streams import BOOL, REAL
from streamcheck.histories import ChannelHistory, TimedStream


def _bh(name, vals):
    return ChannelHistory({name: TimedStream.of(BOOL, vals)})


def _rh(name, vals):
    return ChannelHistory({name: TimedStream.of(REAL, vals)})


def test_fold_stream_is_conjunction():
    assert fold_stream([]) is True
    assert fold_stream([True, True]) is True
    assert fold_stream([True, False, True]) is False


def test_eval_relation_expression(doc):
    ri = doc.relations["EncRI"]
    holds, ticks = eval_relation(ri, _bh("i_a", [True, False]), _rh("i_c", [2.0, -1.0]))
    assert holds and ticks == [True, True]
    holds, ticks = eval_relation(ri, _bh("i_a", [True, False]), _rh("i_c", [-2.0, -1.0]))
    assert not holds and ticks == [False, True]


def test_check_correspondence_encoder(doc):
    result = check_correspondence(
        doc.components["AbstractEncoder"], doc.components["ConcreteEncoder"],
        doc.relations["EncRI"], doc.relations["EncRO"],
        _bh("i_a", [True, False, True]), _rh("i_c", [2.5, -3.6, 0.3]))
    assert result.ri_holds and result.ro_holds and result.corresponding
    assert result.concrete_output.streams["o_c"].values == (2, -4, 0)


def test_correspondence_vacuous_when_ri_fails(doc):
    result = check_correspondence(
        doc.components["AbstractEncoder"], doc.components["ConcreteEncoder"],
        doc.relations["EncRI"], doc.relations["EncRO"],
        _bh("i_a", [True]), _rh("i_c", [-5.0]))
    assert not result.ri_holds
    assert result.corresponding  # implication holds vacuously
    assert any("vacuous" in d for d in result.diagnostics)


def test_abstract_output_is_element_wise(doc):
    gal = doc.galois["EncGalois"]
    out = abstract_output(gal, _rh("o_c", [2.0, -4.0, 0.0]))
    assert out.streams["o_a"].values == (True, False, True)


def test_g_membership_default_is_adjoint_of_f(doc):
    gal = doc.galois["EncGalois"]
    assert g_membership(gal, _bh("i_a", [True]), _rh("i_c", [0.0]))
    assert g_membership(gal, _bh("i_a", [False]), _rh("i_c", [-1.0]))
    assert not g_membership(gal, _bh("i_a", [False]), _rh("i_c", [0.0]))


def _naive_verify(gal):
    """Independent oracle: test f(T_c) subset T_a iff T_c subset g(T_a) by double loop."""
    abs_elems, conc_elems = universe_elements(gal)

    def key(h):
        return tuple((c, h.streams[c].values) for c in sorted(h.streams))

    for abs_bits in range(2 ** len(abs_elems)):
        ta = [a for i, a in enumerate(abs_elems) if abs_bits >> i & 1]
        ta_keys = {key(a) for a in ta}
        for conc_bits in range(2 ** len(conc_elems)):
            tc = [x for i, x in enumerate(conc_elems) if conc_bits >> i & 1]
            lhs = all(key(abstract_output(gal, x)) in ta_keys for x in tc)
            rhs = all(any(g_membership(gal, a, x) for a in ta) for x in tc)
            if lhs != rhs:
                return tc, ta, lhs, rhs
    return None


def test_verify_galois_agrees_with_oracle(doc):
    gal = doc.galois["EncGalois"]
    assert verify_galois(gal) is None
    assert _naive_verify(gal) is None


def test_mutated_membership_breaks_the_connection(doc):
    gal = doc.galois["EncGalois"]
    # exclude 0 from the true side of the membership predicate
    mutated = GaloisSpec(gal.name, gal.f_map,
                         member=parse_expression("(i_a and i_c > 0) or (not i_a and i_c <= 0)"),
                         universe=gal.universe,
                         abstract_component=gal.abstract_component,
                         concrete_component=gal.concrete_component,
                         channel_types=gal.channel_types)
    cex = verify_galois(mutated)
    assert cex is not None
    assert _naive_verify(mutated) is not None
    assert cex.lhs != cex.rhs


def test_verify_galois_respects_caps(doc):
    gal = doc.galois["EncGalois"]
    with pytest.raises(CapsExceededError):
        verify_galois(gal, element_cap=2)
    big = GaloisSpec(gal.name, gal.f_map, universe=Universe(
        gal.universe.abstract, gal.universe.concrete, horizon=9),
        channel_types=gal.channel_types)
    # decided on one tick: the 3^9 concrete histories of nine ticks are never built
    assert verify_galois(big) is None


def test_concretize_encoder(doc):
    conc = doc.concretizers["EncInput"]
    ta = _bh("i_a", [True, False, True])
    mags = TimedStream.of(REAL, [2.5, 3.6, 0.3])
    tc = concretize(conc, {"mag": mags}, ta)
    assert tc.streams["i_c"].values == (2.5, -3.6, 0.3)


def test_concretize_broadcasts_scalar_params(doc):
    conc = doc.concretizers["EncInput"]
    tc = concretize(conc, {"mag": 1.5}, _bh("i_a", [True, False]))
    assert tc.streams["i_c"].values == (1.5, -1.5)


def test_concretize_requires_all_params(doc):
    conc = doc.concretizers["EncInput"]
    with pytest.raises(UnboundParameterError):
        concretize(conc, {}, _bh("i_a", [True]))
    with pytest.raises(UnboundParameterError):
        concretize(conc, {"mag": 1.0, "bogus": 2}, _bh("i_a", [True]))


def test_concretize_warns_when_ri_violated(doc):
    conc = doc.concretizers["EncInput"]
    ri = doc.relations["EncRI"]
    with pytest.warns(ConcretizationWarning):
        # negative magnitude flips the sign the RI expects
        concretize(conc, {"mag": -2.0}, _bh("i_a", [True]), ri=ri)


def test_finv_in_g_sampled_law(doc):
    gal = doc.galois["EncGalois"]
    conc = doc.concretizers["EncInput"]
    rng = random.Random(11)
    samples = []
    for _ in range(150):
        n = rng.randint(1, 4)
        ta = _bh("i_a", [rng.random() < 0.5 for _ in range(n)])
        mag = TimedStream.of(REAL, [rng.uniform(0.1, 99.9) for _ in range(n)])
        samples.append(({"mag": mag}, ta))
    assert check_finv_in_g(gal, conc, samples) is None


def test_finv_violation_is_reported(doc):
    gal = doc.galois["EncGalois"]
    conc = doc.concretizers["EncInput"]
    # magnitude 0 makes the concrete value 0, which abstracts to true, not false
    bad = [({"mag": 0.0}, _bh("i_a", [False]))]
    violation = check_finv_in_g(gal, conc, bad)
    assert violation is not None
    assert violation.concrete_input.streams["i_c"].values == (0.0,)
