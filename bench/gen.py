"""Seeded workload generator for the streamcheck benchmark.

Writes the `.scm.txt` models and `.tv.csv` vectors a workload needs into a
directory and returns the workload's operations: the CLI arguments of each
subcommand call together with its known answer. The answers come from the
reference models in `reference.py`, never from streamcheck itself.

    python3 bench/gen.py --workload suite_many --seed 1 --out .bench_build/sm

writes the inputs of one workload and its operations with their answers
(ops.json), and prints the command lines it would run.
Reals are drawn as finite values from the ranges the models expect; `nan`,
`inf` and other robustness inputs are left to the repository's own tests.
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import reference as ref

WORKLOADS = ("sim_long", "suite_many", "check_exhaustive")
OPS_FILE = "ops.json"  # the operations and their answers, written by main()

# Sizes of one pass. A pass takes a few seconds, so that a run holds enough
# passes for each operation to meet a quiet spell of a shared machine.
# The smoke sizes exercise the same code paths quickly.
SIZES = {
    "full": {
        "net_blocks": 4, "net_units": 3, "net_atoms": 4, "net_ticks": 1000, "acc_ticks": 1000,
        "ac_cases": 1200, "bo_cases": 800, "conc_cases": 800, "pairs": 600,
        "ac_causality_ticks": 2, "bo_causality_ticks": 4, "galois_abstract": 15,
    },
    "smoke": {
        "net_blocks": 2, "net_units": 2, "net_atoms": 2, "net_ticks": 60, "acc_ticks": 60,
        "ac_cases": 30, "bo_cases": 20, "conc_cases": 20, "pairs": 20,
        "ac_causality_ticks": 2, "bo_causality_ticks": 2, "galois_abstract": 4,
    },
}


@dataclass
class Op:
    """One subcommand call and what it must answer."""

    command: str
    argv: list[str]
    expect: dict[str, Any]
    ticks: int = 0   # ticks the subcommand simulates from its vector files
    cases: int = 0   # test-cases it judges
    out: Path | None = None


@dataclass
class Workload:
    ops: list[Op]
    model_sets: list[list[str]]  # the --model lists the operations use


# ---------------------------------------------------------------------------
# Vector files


def _cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _table(out: list[str], marker: str, names: list[str], rows: list[tuple]) -> None:
    out.append(marker)
    out.append(",".join(names))
    out.extend(",".join(_cell(v) for v in row) for row in rows)


def write_vectors(path: Path, cases: list[dict]) -> None:
    """Cases are dicts with name, inputs (names, rows), optional params and
    a list of expected (names, rows) groups."""
    out: list[str] = []
    for case in cases:
        out.append(f"#case {case['name']}")
        if case.get("params"):
            _table(out, "#params", *case["params"])
        _table(out, "#inputs", *case["inputs"])
        for group in case.get("expected", ()):
            _table(out, "#expected", *group)
    path.write_text("\n".join(out) + "\n", encoding="utf-8")


def _real(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 3)


def _spread(n: int, shares: list[tuple[Any, float]], rng: random.Random) -> list[Any]:
    """Exactly proportioned labels in seeded order, so work per pass does not
    depend on the seed."""
    labels: list[Any] = []
    for label, share in shares[1:]:
        labels += [label] * round(n * share)
    labels = [shares[0][0]] * (n - len(labels)) + labels
    rng.shuffle(labels)
    return labels


def _horizons(n: int, rng: random.Random, lo: int = 5, hi: int = 30) -> list[int]:
    hs = [lo + i % (hi - lo + 1) for i in range(n)]
    rng.shuffle(hs)
    return hs


def _perturb(rng: random.Random, rows: list[tuple], labels: dict[int, tuple]) -> list[tuple]:
    """Change one value of one tick; `labels` maps a column to its enum labels."""
    rows = list(rows)
    t = rng.randrange(len(rows))
    col = rng.randrange(len(rows[t]))
    row = list(rows[t])
    v = row[col]
    if col in labels:
        row[col] = next(lab for lab in labels[col] if lab != v)
    else:
        row[col] = v - 1 if v > 0 else v + 1
    rows[t] = tuple(row)
    return rows


def _expected_groups(rng: random.Random, good: list[tuple], verdict: str, n_groups: int,
                     labels: dict[int, tuple]) -> list[list[tuple]]:
    groups = [_perturb(rng, good, labels) for _ in range(n_groups)]
    if verdict == "pass":
        groups[rng.randrange(n_groups)] = good
    return groups


def _pedal(rng: random.Random) -> int:
    return 0 if rng.random() < 0.8 else rng.randint(1, 100)


# ---------------------------------------------------------------------------
# Generated models


SIG_LO, SIG_HI = -1000, 1000
KIND_PATTERN = ("lin", "mode", "filt", "lin", "gain", "filt", "lin", "mode", "lin", "filt",
                "mode", "gain")
STRICT_EVERY = 6


def _plus(k: int) -> str:
    return f"+ {k}" if k >= 0 else f"- {-k}"


def deep_net_model(rng: random.Random, blocks: int, units: int, atoms: int):
    """A chain of blocks of units of atoms, with mixed weak and strict atoms.

    Instance names count down along the dataflow (b3, b2, ... and a3, a2,
    ...), so the sorted order of the flattened atom paths runs against the
    dataflow. The kinds of atom and the strict ones follow a fixed pattern,
    because the cost of scheduling depends on the length of the weak runs
    between strict atoms; the seed draws only the constants. Returns the
    model text and the stage list for reference.deep_net.
    """
    n = blocks * units * atoms
    kinds = [KIND_PATTERN[i % len(KIND_PATTERN)] for i in range(n)]
    strict = [i % STRICT_EVERY == STRICT_EVERY - 1 for i in range(n)]
    stages = []
    lines = [f"// Generated deep network: {n} atoms in {blocks} blocks of {units} units.",
             f"type Sig = int[{SIG_LO}..{SIG_HI}]", ""]
    for i, (kind, is_strict) in enumerate(zip(kinds, strict)):
        mod = "" if is_strict else " weak"
        lines.append(f"component A{i:02d}{mod} {{")
        lines.append("  input x : Sig")
        if kind == "lin":
            p = {"a": rng.randint(1, 3), "c": rng.randint(-20, 20)}
            lines += ["  input u : Sig", "  output y : Sig init 0", "  states Run init",
                      f"  transition Run -> Run {{ y := min(max((x * {p['a']}) / 4 + u "
                      f"{_plus(-p['c'])}, {SIG_LO}), {SIG_HI}) }}"]
        elif kind == "mode":
            p = {"t": rng.randint(10, 200), "c": rng.randint(0, 30)}
            hold = f"{{ y := min(x + {p['c']}, {SIG_HI}) }}"
            lines += ["  input en : bool", "  output y : Sig init 0", "  states Off init, On",
                      f"  transition Arm: Off -> On when en and x > {p['t']} {hold}",
                      "  transition Idle: Off -> Off { y := x / 2 }",
                      f"  transition Drop: On -> Off when not en or x < -{p['t']} {{ y := x / 2 }}",
                      f"  transition Hold: On -> On {hold}"]
        elif kind == "filt":
            p = {"k": rng.randint(1, 3)}
            lines += ["  output y : Sig init 0", "  states Run init",
                      f"  transition Run -> Run {{ y := (y * {p['k']} + x * {4 - p['k']}) / 4 }}"]
        else:
            p = {}
            lines += ["  input g : real", "  output y : Sig init 0", "  states Run init",
                      f"  transition Run -> Run {{ y := min(max(floor(x * g), {SIG_LO}), {SIG_HI}) }}"]
        lines += ["}", ""]
        stages.append((kind, is_strict, p))
    side = {"lin": ["u"], "mode": ["en"], "filt": [], "gain": ["g"]}

    def composite(name, children, header, outputs, first_in, link):
        """children: (instance, type, side inputs) in dataflow order."""
        body = [f"component {name} {{"] + header + outputs
        body += [f"  sub {inst} : {typ}" for inst, typ, _ in children]
        prev = first_in
        for inst, _, sides in children:
            body.append(f"  connect {prev} -> {inst}.x")
            body += [f"  connect {s} -> {inst}.{s}" for s in sides]
            prev = f"{inst}.{link}"
        return body, prev

    header = ["  input x : Sig", "  input u : Sig", "  input en : bool", "  input g : real"]
    stage = 0
    for b in range(blocks):
        for u in range(units):
            children = []
            for a in range(atoms):
                children.append((f"a{atoms - 1 - a}", f"A{stage:02d}", side[kinds[stage]]))
                stage += 1
            body, last = composite(f"U{b * units + u:02d}", children, header,
                                   ["  output y : Sig"], "x", "y")
            lines += body + [f"  connect {last} -> y", "}", ""]
        children = [(f"u{units - 1 - u}", f"U{b * units + u:02d}", ["u", "en", "g"])
                    for u in range(units)]
        body, last = composite(f"B{b}", children, header, ["  output y : Sig"], "x", "y")
        lines += body + [f"  connect {last} -> y", "}", ""]
    children = [(f"b{blocks - 1 - b}", f"B{b}", ["u", "en", "g"]) for b in range(blocks)]
    outs = [f"  output y{blocks - 1 - b} : Sig" for b in range(blocks)]
    net_header = ["  input u0 : Sig", "  input u : Sig", "  input en : bool", "  input g : real"]
    body, _ = composite("DeepNet", children, net_header, outs, "u0", "y")
    body += [f"  connect b{blocks - 1 - b}.y -> y{blocks - 1 - b}" for b in range(blocks)]
    lines += body + ["}", ""]
    return "\n".join(lines), stages


def violator_model(rng: random.Random, atoms: int = 6) -> str:
    """A composite of weak atoms whose output follows input p in the same
    tick: no strict atom delays the path, so strict causality fails at tick
    0 whatever the constants are (with q = r = 0 the output is p plus at most
    30, below the clamp)."""
    lines = ["// Generated zero-delay chain: strict causality must fail.",
             "type V = int[0..200]", ""]
    for i in range(atoms):
        lines += [f"component Z{i} weak {{", "  input x : V", "  input s : V",
                  "  output y : V", "  states Run init",
                  f"  transition Run -> Run {{ y := min(x + s + {rng.randint(0, 5)}, 200) }}",
                  "}", ""]
    lines += ["component Violator {", "  input p : V", "  input q : V", "  input r : V",
              "  output y : V"]
    lines += [f"  sub z{atoms - 1 - i} : Z{i}" for i in range(atoms)]
    prev = "p"
    for i in range(atoms):
        inst = f"z{atoms - 1 - i}"
        lines += [f"  connect {prev} -> {inst}.x", f"  connect {'qr'[i % 2]} -> {inst}.s"]
        prev = f"{inst}.y"
    lines += [f"  connect {prev} -> y", "}", ""]
    return "\n".join(lines)


def galois_model(rng: random.Random, n_abs: int):
    """Two Galois blocks over n_abs abstract and 4*n_abs concrete values.

    f maps c to (c - off) / 4. GalOk uses the adjoint membership, so the law
    holds; GalBad drops one concrete value from g({n_abs - 1}), so the law
    fails, first on an abstract set that holds the last abstract element.
    Returns the text and, per block, the membership predicate as Python.
    """
    off = rng.randint(-50, 50)
    hi = off + 4 * n_abs - 1
    dropped = off + 4 * (n_abs - 1) + rng.randrange(4)
    conc = list(range(off, hi + 1))
    rng.shuffle(conc)
    universe = (f"  universe {{\n    a in {{ {', '.join(map(str, range(n_abs)))} }}\n"
                f"    c in {{ {', '.join(map(str, conc))} }}\n    horizon 1\n  }}")
    fmap = f"(c {_plus(-off)}) / 4"
    text = "\n".join([
        "// Generated Galois connections with widened universes.",
        "component GalAbs weak {", f"  input a : int[0..{n_abs - 1}]",
        f"  output oa : int[0..{n_abs - 1}]", "  states Run init",
        "  transition Run -> Run { oa := a }", "}", "",
        "component GalConc weak {", f"  input c : int[{off}..{hi}]", f"  output oc : int[{off}..{hi}]",
        "  states Run init", "  transition Run -> Run { oc := c }", "}", "",
        "galois GalOk {", "  abstract GalAbs", "  concrete GalConc", f"  map a := {fmap}",
        universe, "}", "",
        "galois GalBad {", "  abstract GalAbs", "  concrete GalConc", f"  map a := {fmap}",
        f"  member {fmap} == a and c != {dropped}", universe, "}", ""])

    def f(c):
        return (c - off) // 4

    members = {"GalOk": lambda a, c: f(c) == a,
               "GalBad": lambda a, c: f(c) == a and c != dropped}
    # The law holds exactly when membership is the adjoint of f pointwise.
    holds = {name: all(m(a, c) == (f(c) == a) for a in range(n_abs) for c in conc)
             for name, m in members.items()}
    return text, holds


BIASED_MODEL = """// Generated concrete encoder that rounds towards minus infinity after a bias,
// so small positive inputs are encoded as negative: RI holds, RO fails.
component BiasedEncoder weak {{
  input i_c : real
  output o_c : int[-128..127]
  states Run init
  transition Run -> Run {{ o_c := floor(i_c - {bias}) }}
}}

refinement BiasedEncoding {{
  abstract AbstractEncoder
  concrete BiasedEncoder
  ri EncRI
  ro EncRO
}}
"""


# ---------------------------------------------------------------------------
# Workloads


def _test_expect(statuses: dict[str, str]) -> dict[str, Any]:
    failed = sum(1 for s in statuses.values() if s == "fail")
    return {"code": 1 if failed else 0, "statuses": statuses,
            "passed": len(statuses) - failed, "failed": failed, "errors": 0}


def _acc_rows(rng: random.Random, n: int) -> list[tuple]:
    rows = []
    speed, dist, mode = 100, 200, True
    for _ in range(n):
        speed = ref.clamp(speed + rng.randint(-8, 8), 0, 300)
        dist = ref.clamp(dist + rng.randint(-10, 10), 0, 500)
        if rng.random() < 0.03:
            mode = not mode
        rows.append((speed, dist, mode, rng.choice((80, 100, 120)),
                     rng.choice((50, 150, 250)), _pedal(rng), _pedal(rng)))
    return rows


def _net_rows(rng: random.Random, n: int) -> list[tuple]:
    rows = []
    u0, u1, en = 0, 0, True
    for _ in range(n):
        u0 = ref.clamp(u0 + rng.randint(-40, 40), -400, 400)
        u1 = ref.clamp(u1 + rng.randint(-10, 10), -100, 100)
        if rng.random() < 0.02:
            en = not en
        rows.append((u0, u1, en, _real(rng, 0.5, 1.5)))
    return rows


def sim_long(d: Path, fixtures: Path, rng: random.Random, size: dict) -> Workload:
    acc_in = ["SensSpeed", "SensDist", "AccMode", "SetSpeed", "SetDist", "BrakeCmd", "GasCmd"]
    acc_cases = []
    for name, verdict in (("acc_pass", "pass"), ("acc_fail", "fail")):
        rows = _acc_rows(rng, size["acc_ticks"])
        good = ref.acc(rows)
        groups = _expected_groups(rng, good, verdict, 1, {0: ("Standby", "Active")})
        acc_cases.append({"name": name, "inputs": (acc_in, rows),
                          "expected": [(["AccModeOutput", "CmdAcc"], g) for g in groups]})
    write_vectors(d / "acc_long.tv.csv", acc_cases)

    text, stages = deep_net_model(rng, size["net_blocks"], size["net_units"], size["net_atoms"])
    (d / "deep_net.scm.txt").write_text(text, encoding="utf-8")
    block_len = size["net_units"] * size["net_atoms"]
    outs = [f"y{size['net_blocks'] - 1 - b}" for b in range(size["net_blocks"])]
    net_in = ["u0", "u", "en", "g"]
    net_cases = []
    sim_rows = sim_out = None
    for name, verdict in (("net_pass", "pass"), ("net_fail", "fail")):
        rows = _net_rows(rng, size["net_ticks"])
        good = ref.deep_net(stages, block_len, rows)
        if sim_rows is None:
            sim_rows, sim_out = rows, good
        groups = _expected_groups(rng, good, verdict, 1, {})
        net_cases.append({"name": name, "inputs": (net_in, rows),
                          "expected": [(outs, g) for g in groups]})
    write_vectors(d / "deep_net.tv.csv", net_cases)
    write_vectors(d / "deep_net_sim.tv.csv", [{"name": "net_sim", "inputs": (net_in, sim_rows)}])

    acc_model = [str(fixtures / "acc.scm.txt")]
    net_model = [str(d / "deep_net.scm.txt")]
    ticks = size["net_ticks"]
    sim_expect = {c: [row[i] for row in sim_out] for i, c in enumerate(outs)}
    ops = [
        Op("test", ["test", "--model", *acc_model, "--component", "ACC",
                    "--vectors", str(d / "acc_long.tv.csv")],
           _test_expect({"acc_pass": "pass", "acc_fail": "fail"}), 2 * size["acc_ticks"], 2),
        Op("test", ["test", "--model", *net_model, "--component", "DeepNet",
                    "--vectors", str(d / "deep_net.tv.csv")],
           _test_expect({"net_pass": "pass", "net_fail": "fail"}), 2 * ticks, 2),
        Op("simulate", ["simulate", "--model", *net_model, "--component", "DeepNet",
                        "--vectors", str(d / "deep_net_sim.tv.csv")],
           {"code": 0, "case": "net_sim", "outputs": sim_expect}, ticks),
    ]
    return Workload(ops, [acc_model, net_model])


def suite_many(d: Path, fixtures: Path, rng: random.Random, size: dict) -> Workload:
    shares = [("pass", 0.7), ("fail", 0.3)]
    group_shares = [(1, 0.7), (2, 0.2), (3, 0.1)]

    def suite(prefix, n, columns, outputs, labels, make_row, model):
        verdicts = _spread(n, shares, rng)
        n_groups = _spread(n, group_shares, rng)
        cases, statuses, ticks = [], {}, 0
        for i, h in enumerate(_horizons(n, rng)):
            rows = [make_row() for _ in range(h)]
            good = [o if isinstance(o, tuple) else (o,) for o in model(rows)]
            groups = _expected_groups(rng, good, verdicts[i], n_groups[i], labels)
            name = f"{prefix}_{i:05d}"
            cases.append({"name": name, "inputs": (columns, rows),
                          "expected": [(outputs, g) for g in groups]})
            statuses[name] = verdicts[i]
            ticks += h
        return cases, statuses, ticks

    def ac_row():
        return (rng.randint(-100, 100), rng.randint(-100, 100), rng.random() < 0.85,
                _pedal(rng), _pedal(rng))

    def bo_row():
        return (rng.randint(0, 100), rng.randint(0, 100), rng.random() < 0.85)

    ac_cases, ac_status, ac_ticks = suite(
        "ac", size["ac_cases"], ["ReqSpeedAcc", "ReqDistAcc", "AccMode", "BrakeCmd", "GasCmd"],
        ["AccModeOutput", "CmdAcc"], {0: ("Standby", "Active")}, ac_row, ref.acceleration_control)
    write_vectors(d / "ac_suite.tv.csv", ac_cases)
    bo_cases, bo_status, bo_ticks = suite(
        "bo", size["bo_cases"], ["DriverBrake", "AccBrake", "AccSwitch"], ["AccState"],
        {0: ("Standby", "Active")}, bo_row, ref.brake_override)
    write_vectors(d / "bo_suite.tv.csv", bo_cases)

    # Abstract encoder cases with per-tick magnitudes, for concretize.
    conc_cases, conc_expect, conc_ticks = [], {}, 0
    for i, h in enumerate(_horizons(size["conc_cases"], rng)):
        i_a = [rng.random() < 0.5 for _ in range(h)]
        mag = [_real(rng, 0.001, 100.0) for _ in range(h)]
        name = f"enc_{i:05d}"
        conc_cases.append({"name": name, "params": (["mag"], [(m,) for m in mag]),
                           "inputs": (["i_a"], [(a,) for a in i_a])})
        conc_expect[name] = ref.enc_concretize(i_a, mag)
        conc_ticks += h
    write_vectors(d / "enc_concretize.tv.csv", conc_cases)

    # Abstract/concrete pairs: most respect RI, some break RI (vacuous), and
    # some feed a small positive value that the biased encoder gets wrong.
    bias = rng.choice((0.25, 0.5, 0.75))
    (d / "biased.scm.txt").write_text(BIASED_MODEL.format(bias=bias), encoding="utf-8")
    kinds = _spread(size["pairs"], [("plain", 0.7), ("wrong_sign", 0.1), ("small", 0.2)], rng)
    abs_cases, conc_pairs, pair_data, pair_ticks = [], [], [], 0
    for i, h in enumerate(_horizons(size["pairs"], rng)):
        i_a = [rng.random() < 0.5 for _ in range(h)]
        i_c = [_real(rng, 0.5, 100.0) if a else _real(rng, -100.0, -0.001) for a in i_a]
        if kinds[i] != "plain":
            t = rng.randrange(h)
            i_a[t] = True
            i_c[t] = (_real(rng, -100.0, -0.5) if kinds[i] == "wrong_sign"
                      else _real(rng, 0.0, bias - 0.001))
        abs_cases.append({"name": f"pa_{i:05d}", "inputs": (["i_a"], [(a,) for a in i_a])})
        conc_pairs.append({"name": f"pc_{i:05d}", "inputs": (["i_c"], [(c,) for c in i_c])})
        pair_data.append((f"pa_{i:05d}", f"pc_{i:05d}", i_a, i_c))
        pair_ticks += h
    write_vectors(d / "pairs_abstract.tv.csv", abs_cases)
    write_vectors(d / "pairs_concrete.tv.csv", conc_pairs)

    def check_expect(b):
        pairs = []
        for a_name, c_name, i_a, i_c in pair_data:
            ri, ro = ref.encoder_correspondence(i_a, i_c, b)
            pairs.append((a_name, c_name, all(ri), all(ro), not all(ri) or all(ro), ri, ro))
        ok = all(p[4] for p in pairs)
        return {"code": 0 if ok else 1, "all_corresponding": ok, "pairs": pairs}

    enc = str(fixtures / "encoder.scm.txt")
    pair_files = ["--vectors", str(d / "pairs_abstract.tv.csv"),
                  "--vectors", str(d / "pairs_concrete.tv.csv")]
    out = d / "enc_concrete.tv.csv"
    ops = [
        Op("test", ["test", "--model", str(fixtures / "acc.scm.txt"),
                    "--component", "AccelerationControl", "--vectors", str(d / "ac_suite.tv.csv")],
           _test_expect(ac_status), ac_ticks, len(ac_status)),
        Op("test", ["test", "--model", str(fixtures / "brake_override.scm.txt"),
                    "--component", "BrakeOverride", "--vectors", str(d / "bo_suite.tv.csv")],
           _test_expect(bo_status), bo_ticks, len(bo_status)),
        Op("concretize", ["concretize", "--model", enc, "--refinement", "Encoder",
                          "--vectors", str(d / "enc_concretize.tv.csv"), "--out", str(out)],
           {"code": 0, "values": conc_expect}, conc_ticks, out=out),
        Op("check", ["check", "--model", enc, "--refinement", "Encoder", *pair_files],
           check_expect(0), 2 * pair_ticks),
        Op("check", ["check", "--model", enc, "--model", str(d / "biased.scm.txt"),
                     "--refinement", "BiasedEncoding", *pair_files],
           check_expect(bias), 2 * pair_ticks),
    ]
    model_sets = [[str(fixtures / "acc.scm.txt")], [str(fixtures / "brake_override.scm.txt")],
                  [enc], [enc, str(d / "biased.scm.txt")]]
    return Workload(ops, model_sets)


def check_exhaustive(d: Path, fixtures: Path, rng: random.Random, size: dict) -> Workload:
    (d / "violator.scm.txt").write_text(violator_model(rng), encoding="utf-8")
    gal_text, gal_holds = galois_model(rng, size["galois_abstract"])
    (d / "galois.scm.txt").write_text(gal_text, encoding="utf-8")
    acc = str(fixtures / "acc.scm.txt")
    bo = str(fixtures / "brake_override.scm.txt")
    caps = str(4 * size["galois_abstract"])

    def causality(model, component, *extra, ok=True):
        expect = {"code": 0 if ok else 1, "ok": ok}
        if not ok:
            expect["tick"] = 0
        return Op("causality", ["causality", "--model", model, "--component", component, *extra],
                  expect)

    def galois(name):
        ok = gal_holds[name]
        return Op("verify-galois", ["verify-galois", "--model", str(d / "galois.scm.txt"),
                                    "--galois", name, "--caps", caps],
                  {"code": 0 if ok else 1, "ok": ok})

    # Every atom of AccelerationControl, BrakeOverride and ACC is strict, so
    # no output can depend on an input of the same tick: each must pass.
    ops = [
        causality(acc, "AccelerationControl", "--budget", "40000",
                  "--ticks", str(size["ac_causality_ticks"])),
        causality(bo, "BrakeOverride", "--budget", "40000",
                  "--ticks", str(size["bo_causality_ticks"])),
        causality(acc, "ACC", "--budget", "400", "--seed", str(rng.randrange(1 << 16))),
        causality(str(d / "violator.scm.txt"), "Violator", ok=False),
        galois("GalOk"),
        galois("GalBad"),
    ]
    return Workload(ops,
                    [[acc], [bo], [str(d / "violator.scm.txt")], [str(d / "galois.scm.txt")]])


BUILDERS = {"sim_long": sim_long, "suite_many": suite_many, "check_exhaustive": check_exhaustive}


def generate(workload: str, seed: int, out_dir: Path, fixtures: Path, size: str = "full") -> Workload:
    """Write the workload's inputs under out_dir and return its operations."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](out_dir, fixtures, rng, SIZES[size])


def save(wl: Workload, path: Path) -> None:
    """Write the operations and their answers as JSON, for load()."""
    ops = [{**vars(op), "out": None if op.out is None else str(op.out)} for op in wl.ops]
    path.write_text(json.dumps({"ops": ops, "model_sets": wl.model_sets}), encoding="utf-8")


def load(path: Path) -> Workload:
    data = json.loads(path.read_text(encoding="utf-8"))
    ops = [Op(**{**op, "out": None if op["out"] is None else Path(op["out"])})
           for op in data["ops"]]
    return Workload(ops, data["model_sets"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    wl = generate(args.workload, args.seed, args.out, fixtures)
    save(wl, args.out / OPS_FILE)
    for op in wl.ops:
        print("streamcheck " + " ".join(op.argv))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
