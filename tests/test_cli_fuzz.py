"""Fuzz tests of the CLI.

A fixture `.tv.csv` gets byte flips, inserted quotes and commas, deleted
bytes, blank and `#` lines and huge cells, and `streamcheck test` runs on
it. Random DocGen model documents run under random subcommands, flags and
counts, with random vector files for their components. Whatever the result,
the CLI must end in one of the documented exit codes (0-3) with a message,
never with a traceback or an exception out of `main`.
"""

import contextlib
import io
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from streamcheck.cli import main
from streamcheck.declarations import RelationSpec
from streamcheck.dsl import RefinementSpec, serialize_model
from streamcheck.exprs import Binary, Lit, Name
from streamcheck.streams import Channel
from streamcheck.testcases import ExpectedResult, TestCase
from streamcheck.vectors import serialize_testcases

from conftest import fixture_path
from docgen import DocGen

BRAKE = str(fixture_path("brake_override.scm.txt"))
SOURCE = fixture_path("brake_override.tv.csv").read_bytes()

_INSERTS = [b'"', b",", b"\n", b"\r", b"\n\n", b"\n#\n", b"\n# note\n", b"\n#inputs\n",
            b"\x00", b"\xff", b"\xc3", b"x" * 140000, b'"' + b"y" * 140000 + b'"']


@st.composite
def _mutated(draw):
    data = bytearray(SOURCE)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        how = draw(st.sampled_from(["flip", "insert", "delete"]))
        if how == "flip" and at < len(data):
            data[at] = draw(st.integers(0, 255))
        elif how == "delete":
            del data[at:at + draw(st.integers(1, 8))]
        else:
            data[at:at] = draw(st.sampled_from(_INSERTS))
    return bytes(data)


def _ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(_mutated())
def test_mutated_vectors_end_in_a_documented_exit_code(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "mutated.tv.csv"
    path.write_bytes(data)
    code, err = _ends_in_a_documented_exit_code(
        ["test", "--model", BRAKE, "--component", "BrakeOverride", "--vectors", str(path)])
    if code == 2:
        assert err.startswith("error: ")


def _refine(gen, doc):
    """Bind each Galois pair's components in a refinement with RI and RO
    relations, so that `check` and `concretize` get past their arguments."""
    if not doc.galois:
        gal, abstract, concrete = gen.galois_pair()
        doc.galois[gal.name] = gal
        doc.components.update({abstract.name: abstract, concrete.name: concrete})
    for gal in list(doc.galois.values()):
        a, c = doc.components[gal.abstract_component], doc.components[gal.concrete_component]
        names = []
        for side, pair in (("RI", (a.interface.inputs, c.interface.inputs)),
                           ("RO", (a.interface.outputs, c.interface.outputs))):
            x, y = (chans[0].name for chans in pair)
            rel = RelationSpec(gen.name("Rel"), side, expr=Binary(
                "==", Name(x), Binary(">=", Name(y), Lit(gen.rng.randint(-1, 1)))))
            doc.relations[rel.name] = rel
            names.append(rel.name)
        ref = RefinementSpec(gen.name("Ref"), a.name, c.name, *names, gal.name,
                             next(iter(doc.concretizers), None))
        doc.refinements[ref.name] = ref


def _vectors(gen, spec, params, n):
    """A vector file of n random cases for `spec`, now and then with a value
    outside its channel's type, and with `#params` tables."""
    r = gen.rng
    cases = []
    for k in range(n):
        horizon = r.randint(0, 4)
        groups = tuple(gen.history(spec.interface.outputs, horizon) for _ in range(r.randint(0, 2)))
        bound = {p.name: Channel(p.name, p.dtype) for p in params if r.random() < 0.8}
        cases.append(TestCase(f"c{k}", gen.history(spec.interface.inputs, horizon,
                                                   invalid=r.random() < 0.1),
                              ExpectedResult(groups),
                              gen.history(bound.values(), horizon).streams if horizon else {}))
    return serialize_testcases(cases)


_FLAGS = {"simulate": ["--ticks", "--check-determinism", "--format"],
          "test": ["--eps", "--check-determinism", "--format"],
          "concretize": ["--param", "--out", "--format"],
          "check": ["--format"],
          "verify-galois": ["--caps", "--format"],
          "causality": ["--ticks", "--budget", "--seed", "--mode", "--format"]}


def _argv(r, doc, model, vectors, out):
    """A random command line, which names what its subcommand needs, with
    vectors for the components it runs, more often than not."""
    cmd = r.choice(sorted(_FLAGS))

    def pick(names):
        return r.choice(sorted(names)) if names and r.random() < 0.9 else r.choice(["Nope", ""])

    def vector_file(component=None):
        return vectors.get(component) if component in vectors and r.random() < 0.8 \
            else r.choice(sorted(vectors.values()))

    def count():
        return r.choice(["1", "2", "3", "3", "7", "0", "-1", "x"])

    argv = [cmd] + (["--model", model] if r.random() < 0.95 else [])
    component = ref = None
    if cmd in ("simulate", "test", "causality") and r.random() < 0.95:
        component = pick(doc.components)
        argv += ["--component", component]
    if cmd in ("concretize", "check") or (cmd == "verify-galois" and r.random() < 0.3):
        argv += ["--refinement", pick(doc.refinements)]
        ref = doc.refinements.get(argv[-1])
    if cmd == "verify-galois" and r.random() < 0.7:
        argv += ["--galois", pick(doc.galois)]
    if cmd in ("simulate", "test"):
        argv += ["--vectors", vector_file(component)]
    elif cmd in ("concretize", "check"):
        for side in (["abstract"] if cmd == "concretize" else ["abstract", "concrete"]):
            argv += ["--vectors", vector_file(getattr(ref, side, None))]
    values = {"--ticks": count, "--budget": count, "--caps": count, "--seed": count,
              "--mode": lambda: r.choice(["strict", "weak", "both"]),
              "--format": lambda: r.choice(["json", "human", "human", "human", "xml"]),
              "--eps": lambda: r.choice(["0", "0.5", "-1", "nan", "x"]),
              "--param": lambda: r.choice(["p1", "p2", "p3", "mag", ""])
              + r.choice(["=0", "=1", "=1.5", "=true", "=x", "=L1", ""]),
              "--out": lambda: out, "--check-determinism": None, "--vectors": vector_file}
    flags = _FLAGS[cmd] + [f for f in values if r.random() < 0.1]  # now and then a foreign one
    for flag in r.sample(flags, r.randint(0, min(3, len(flags)))):
        argv += [flag] if values[flag] is None else [flag, values[flag]()]
    return argv


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_random_models_and_command_lines_end_in_a_documented_exit_code(tmp_path_factory, seed):
    gen = DocGen(random.Random(seed))
    doc = gen.document()
    _refine(gen, doc)
    d = tmp_path_factory.mktemp("cli")
    model = d / "model.scm.txt"
    model.write_text(serialize_model(doc), encoding="utf-8")
    params = [p for conc in doc.concretizers.values() for p in conc.params]
    vectors = {"": str(d / "missing.tv.csv"), "empty": str(d / "empty.tv.csv")}
    (d / "empty.tv.csv").write_text("", encoding="utf-8")
    n = gen.rng.randint(0, 3)
    for name, spec in doc.components.items():
        vectors[name] = str(d / f"{name}.tv.csv")
        (d / f"{name}.tv.csv").write_text(_vectors(gen, spec, params, n), encoding="utf-8")
    for _ in range(3):
        _ends_in_a_documented_exit_code(_argv(gen.rng, doc, str(model), vectors,
                                              str(d / "out.tv.csv")))
