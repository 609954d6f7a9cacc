"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they print;
without -s they appear in pytest's captured output.
"""

import random
import time

from docgen import DocGen
from streamcheck.abstraction import (abstract_output, check_correspondence, check_finv_in_g,
                                     eval_relation, g_membership, universe_elements, verify_galois)
from streamcheck.components import (AutomatonSpec, Channel, CompositeSpec, SyntacticInterface,
                                    Transition)
from streamcheck.simulator import check_causality, run
from streamcheck.declarations import GaloisSpec, RelationSpec
from streamcheck.dsl import ModelDocument, parse_model
from streamcheck.serialize import serialize_model
from streamcheck.exprs import Name, parse_expression
from streamcheck.streams import BOOL, REAL, bounded_int
from streamcheck.histories import ChannelHistory, TimedStream

from conftest import MODEL_FILES, fixture_text

EPS_REAL = 1e-9  # tolerance for real64 stream comparisons


def _report(number: int, title: str, ok: bool) -> None:
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {title}")
    assert ok, f"criterion {number} failed: {title}"


def _bools(name, vals):
    return ChannelHistory({name: TimedStream.of(BOOL, vals)})


def _reals(name, vals):
    return ChannelHistory({name: TimedStream.of(REAL, vals)})


def test_criterion_01_brake_override_reproduction(doc):
    spec = doc.components["BrakeOverride"]
    pedal = bounded_int(0, 100)
    inputs = ChannelHistory({
        "DriverBrake": TimedStream.of(pedal, [21, 51, 78, 100, 91]),
        "AccBrake": TimedStream.of(pedal, [79, 100, 100, 91, 51]),
        "AccSwitch": TimedStream.of(BOOL, [True] * 5),
    })
    started = time.perf_counter()
    out = run(spec, inputs)
    elapsed = time.perf_counter() - started
    ok = (out.streams["AccState"].values ==
          ("Active", "Active", "Active", "Active", "Standby")) and elapsed < 1.0
    _report(1, "brake-override reproduction with one-tick delay, < 1 s", ok)


def test_criterion_02_encoder_abstract_run(doc):
    out = run(doc.components["AbstractEncoder"], _bools("i_a", [True, False, True]))
    _report(2, "encoder abstract run [true,false,true] -> [true,false,true]",
            out.streams["o_a"].values == (True, False, True))


def test_criterion_03_encoder_correspondence(doc):
    result = check_correspondence(
        doc.components["AbstractEncoder"], doc.components["ConcreteEncoder"],
        doc.relations["EncRI"], doc.relations["EncRO"],
        _bools("i_a", [True, False, True]), _reals("i_c", [2.5, -3.6, 0.3]))
    ok = (result.ri_holds and result.ro_holds and result.corresponding
          and result.concrete_output.streams["o_c"].values == (2, -4, 0))
    _report(3, "encoder correspondence: RI, RO and implication all hold", ok)


def test_criterion_04_element_wise_abstraction(doc):
    gal = doc.galois["EncGalois"]
    conc = ChannelHistory({
        "i_c": TimedStream.of(REAL, [2.5, -3.6, 0.3]),
        "o_c": TimedStream.of(bounded_int(-128, 127), [2, -4, 0]),
    })
    out = abstract_output(gal, conc)
    ok = (out.streams["i_a"].values == (True, False, True)
          and out.streams["o_a"].values == (True, False, True))
    # the boundary rule: zero abstracts to true on both channels
    zeros = abstract_output(gal, ChannelHistory({
        "i_c": TimedStream.of(REAL, [0.0]),
        "o_c": TimedStream.of(bounded_int(-128, 127), [0]),
    }))
    ok = ok and zeros.streams["i_a"].values == (True,) \
        and zeros.streams["o_a"].values == (True,)
    _report(4, "element-wise abstraction, including 0 -> true", ok)


def test_criterion_05_min_requirement(doc):
    spec = doc.components["MinAcceleration"]
    accel = bounded_int(-100, 100)
    ok = True
    for d in range(-100, 101, 10):
        for s in range(-100, 101, 10):
            hist = ChannelHistory({
                "in_distance": TimedStream.of(accel, [d, d]),
                "in_speed": TimedStream.of(accel, [s, s]),
            })
            out = run(spec, hist)
            ok = ok and out.at("out", 2) == min(d, s) and out.at("out", 1) == 0
    rng = random.Random(5)
    for _ in range(1000):
        n = rng.randint(2, 6)
        ds = [rng.randint(-100, 100) for _ in range(n)]
        ss = [rng.randint(-100, 100) for _ in range(n)]
        hist = ChannelHistory({
            "in_distance": TimedStream.of(accel, ds),
            "in_speed": TimedStream.of(accel, ss),
        })
        out = run(spec, hist)
        for t in range(1, n):
            ok = ok and out.at("out", t + 1) == min(ds[t - 1], ss[t - 1])
    _report(5, "min requirement: 21x21 grid plus 1000 random trials, zero violations", ok)


def test_criterion_06_strict_causality_suite(doc):
    strict_atoms = [s for s in doc.components.values()
                    if isinstance(s, AutomatonSpec) and s.causality == "strict"]
    assert strict_atoms, "fixtures declare no strict automata"
    ok = True
    for spec in strict_atoms:
        # exhaustive over the 2-values-per-channel abstraction, horizon 3
        cex = check_causality(spec, budget=40000, horizon=3, mode="strict")
        ok = ok and cex is None
    for spec in doc.components.values():
        if isinstance(spec, CompositeSpec):
            # the same exhaustive search, within a smaller budget
            cex = check_causality(spec, budget=400, horizon=3, mode="strict")
            ok = ok and cex is None
    broken = AutomatonSpec(
        name="BrokenZeroDelay",
        interface=SyntacticInterface((Channel("x", BOOL, "input"),),
                                     (Channel("y", BOOL, "output"),)),
        states=("Run",), initial="Run",
        transitions=(Transition("Run", "Run", outputs=(("y", Name("x")),)),),
        output_init={"y": False}, causality="weak")
    detected = check_causality(broken, horizon=3, mode="strict") is not None
    _report(6, "strict-causality suite passes and a zero-delay component is detected",
            ok and detected)


def _naive_galois(gal):
    """Independent double-loop oracle over all (T_a, T_c) subset pairs."""
    abs_elems, conc_elems = universe_elements(gal)

    def key(h):
        return tuple((c, h.streams[c].values) for c in sorted(h.streams))

    checked = 0
    for abs_bits in range(2 ** len(abs_elems)):
        ta = [a for i, a in enumerate(abs_elems) if abs_bits >> i & 1]
        ta_keys = {key(a) for a in ta}
        for conc_bits in range(2 ** len(conc_elems)):
            tc = [x for i, x in enumerate(conc_elems) if conc_bits >> i & 1]
            lhs = all(key(abstract_output(gal, x)) in ta_keys for x in tc)
            rhs = all(any(g_membership(gal, a, x) for a in ta) for x in tc)
            checked += 1
            if lhs != rhs:
                return (tc, ta), checked
    return None, checked


def test_criterion_07_galois_verification(doc):
    gal = doc.galois["EncGalois"]
    started = time.perf_counter()
    good = verify_galois(gal)
    oracle_good, pairs = _naive_galois(gal)
    mutated = GaloisSpec(
        gal.name, gal.f_map,
        member=parse_expression("(i_a and i_c > 0) or (not i_a and i_c <= 0)"),
        universe=gal.universe, abstract_component=gal.abstract_component,
        concrete_component=gal.concrete_component, channel_types=gal.channel_types)
    bad = verify_galois(mutated)
    oracle_bad, _ = _naive_galois(mutated)
    elapsed = time.perf_counter() - started
    ok = (good is None and oracle_good is None and pairs == 2 ** 3 * 2 ** 2
          and bad is not None and oracle_bad is not None and elapsed < 5.0)
    _report(7, "Galois law over all 2^3 x 2^2 subset pairs, oracle agreement, "
               "mutated-g counterexample, < 5 s", ok)


def test_criterion_08_finv_in_g_sampled(doc):
    gal = doc.galois["EncGalois"]
    conc = doc.concretizers["EncInput"]
    rng = random.Random(8)
    samples = []
    for _ in range(120):
        n = rng.randint(1, 4)
        ta = _bools("i_a", [rng.random() < 0.5 for _ in range(n)])
        mag = TimedStream.of(REAL, [rng.uniform(1e-6, 100.0) for _ in range(n)])
        samples.append(({"mag": mag}, ta))
    violation = check_finv_in_g(gal, conc, samples)
    _report(8, "f-inverse within g on 120 sampled (p, ta) pairs", violation is None)


def test_criterion_09_verdict_folding():
    rel = RelationSpec("fold", "RO", expr=parse_expression("v"))
    rng = random.Random(9)
    ok = True
    for _ in range(10000):
        n = rng.randint(1, 12)
        vals = [rng.random() < 0.8 for _ in range(n)]
        holds, ticks = eval_relation(rel, _bools("v", vals), ChannelHistory({}, n))
        ok = ok and ticks == vals and holds == all(vals)
        if not ok:
            break
    _report(9, "verdict folding: overall false iff some tick is false (10000 cases)", ok)


def test_criterion_10_format_round_trip():
    ok = True
    base = ModelDocument()
    for name in MODEL_FILES:
        result = parse_model(fixture_text(name), base=base)
        ok = ok and result.ok
        again = parse_model(serialize_model(result.document), base=base)
        ok = ok and again.ok and again.document == result.document
        base.merge(result.document)
    rng = random.Random(10)
    for _ in range(1000):
        doc = DocGen(rng).document()
        result = parse_model(serialize_model(doc))
        ok = ok and result.ok and result.document == doc
        if not ok:
            break
    crashes = 0
    for _ in range(10000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 80)))
        try:
            parse_model(blob.decode("latin-1"))
        except Exception:
            crashes += 1
    _report(10, "round-trip on fixtures and 1000 random documents; "
                "no crash on 10000 random byte strings", ok and crashes == 0)
