import random

import pytest

from docgen import DocGen
from streamcheck.simulator import run
from streamcheck.dsl import ModelDocument, load_model, parse_model
from streamcheck.serialize import serialize_model
from streamcheck.errors import ModelFormatError, SimulationError
from streamcheck.exprs import MAX_HEIGHT, MAX_NESTING, evaluate, parse_expression
from streamcheck.streams import BOOL, bounded_int
from streamcheck.histories import ChannelHistory, TimedStream

from conftest import MODEL_FILES, fixture_text


def test_fixture_files_parse_clean():
    base = ModelDocument()
    for name in MODEL_FILES:
        result = parse_model(fixture_text(name), base=base)
        assert result.ok, f"{name}: {[str(d) for d in result.diagnostics]}"
        base.merge(result.document)


def test_fixture_round_trip():
    base = ModelDocument()
    for name in MODEL_FILES:
        result = parse_model(fixture_text(name), base=base)
        assert result.ok
        again = parse_model(serialize_model(result.document), base=base)
        assert again.ok, f"{name}: {[str(d) for d in again.diagnostics]}"
        assert again.document == result.document, name
        base.merge(result.document)


def test_parse_reports_located_diagnostics():
    result = parse_model("component Broken {\n  input x bool\n}\n")
    assert not result.ok
    d = result.diagnostics[0]
    assert d.line == 2 and "':'" in d.message


def test_parser_recovers_at_next_top_level_item():
    text = """
component Bad { input x : }

component Good weak {
  input x : bool
  output y : bool
  states Run init
  transition Run -> Run { y := x }
}
"""
    result = parse_model(text)
    assert not result.ok
    assert "Good" in result.document.components


def test_unresolved_references_are_diagnosed():
    result = parse_model("refinement R { abstract Nowhere }")
    assert any("Nowhere" in d.message for d in result.diagnostics)


def test_duplicate_names_are_diagnosed():
    text = "type T = bool\ntype T = real\n"
    result = parse_model(text)
    assert any("duplicate" in d.message.lower() or "already" in d.message.lower()
               for d in result.diagnostics)


def test_semantic_validation_surfaces_as_diagnostics():
    text = """
component Bad {
  input x : bool
  output y : bool init false
  states Run init
  transition Run -> Run { y := z }
}
"""
    result = parse_model(text)
    assert any("'z'" in d.message for d in result.diagnostics)


def test_load_model_raises_on_diagnostics(tmp_path):
    p = tmp_path / "bad.scm.txt"
    p.write_text("component {", encoding="utf-8")
    with pytest.raises(ModelFormatError):
        load_model(p)


def test_base_document_resolves_cross_file_names():
    first = parse_model("""
component A weak {
  input x : bool
  output y : bool
  states Run init
  transition Run -> Run { y := x }
}
""")
    assert first.ok
    second = parse_model("relation R RI when x\nrefinement Z { abstract A }",
                         base=first.document)
    assert second.ok
    assert second.document.refinements["Z"].abstract == "A"


def test_random_documents_round_trip_small():
    rng = random.Random(2024)
    for _ in range(50):
        doc = DocGen(rng).document()
        text = serialize_model(doc)
        result = parse_model(text)
        assert result.ok, [str(d) for d in result.diagnostics] + [text]
        assert result.document == doc, text


def test_parser_total_on_random_bytes_small():
    rng = random.Random(99)
    for _ in range(500):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 120)))
        result = parse_model(blob.decode("latin-1"))
        assert isinstance(result.document, ModelDocument)


def test_parser_total_on_keyword_soup():
    rng = random.Random(7)
    words = ["component", "type", "states", "transition", "{", "}", "->", ":=",
             "when", "init", "input", "output", "bool", "int", "[", "]", "..",
             "1", "x", ",", ";", "galois", "universe", "in", "relation"]
    for _ in range(300):
        text = " ".join(rng.choice(words) for _ in range(rng.randrange(0, 40)))
        result = parse_model(text)
        assert isinstance(result.document, ModelDocument)


@pytest.mark.parametrize("kind, channel", [("input", "x : int[0..9]"),
                                           ("output", "x : int[0..9] init 0")])
def test_var_named_like_a_channel_is_diagnosed(kind, channel):
    text = f"""
component Clash {{
  input i : int[0..9]
  output o : int[0..9] init 0
  {kind} {channel}
  var x : int[0..9] = 3
  states Run init
  transition Run -> Run {{ o := x; x := 5 }}
}}
"""
    result = parse_model(text)
    assert not result.ok
    [d] = result.diagnostics
    assert (d.line, d.column) == (2, 1)
    assert f"variable 'x' has the same name as an {kind} channel" in d.message


def test_a_duplicate_variable_is_diagnosed_and_refused():
    # two variables of one name would misalign the compiled run's slots
    text = """
component Twice {
  input x : bool
  output y : bool init false
  var v : bool = false
  var v : bool = true
  states Run init
  transition Run -> Run { y := v }
}
"""
    result = parse_model(text)
    assert [(d.line, d.column, d.message) for d in result.diagnostics] == [
        (2, 1, "component 'Twice': duplicate variable names")]
    spec = result.document.components["Twice"]
    with pytest.raises(SimulationError, match="^duplicate variable names$"):
        run(spec, ChannelHistory({"x": TimedStream.of(BOOL, [True])}))


def test_a_boolean_horizon_is_diagnosed():
    result = parse_model("galois G { universe { horizon true } }")
    # at the literal, not at the token after it
    assert [(d.line, d.column, d.message) for d in result.diagnostics] == [
        (1, 31, "horizon must be a non-negative integer")]
    assert parse_model("galois G { universe { horizon 2 } }").ok


_NESTED = {
    "parentheses": lambda n: "(" * n + "x" + ")" * n,
    "not": lambda n: "not " * n + "x",
    "minus": lambda n: "- " * n + "x",
}


@pytest.mark.parametrize("kind", sorted(_NESTED))
def test_expressions_nest_up_to_the_limit(kind):
    prefix = "relation R RI when "
    assert parse_model(prefix + _NESTED[kind](MAX_NESTING)).ok
    result = parse_model(prefix + _NESTED[kind](MAX_NESTING + 1))
    # the diagnostic sits at the token that opens level MAX_NESTING + 1
    width = {"parentheses": 1, "not": 4, "minus": 2}[kind]
    assert [(d.line, d.column, d.message) for d in result.diagnostics] == [
        (1, len(prefix) + 1 + width * MAX_NESTING,
         f"expression nested more than {MAX_NESTING} levels deep")]


@pytest.mark.parametrize("kind", sorted(_NESTED))
def test_a_guard_at_the_nesting_limit_compiles_and_runs(kind):
    # an even number of `not` or `-` cancels out
    guard = _NESTED[kind](MAX_NESTING) + (" == 0" if kind == "minus" else " == 1")
    text = ("component C weak { input x : int[0..1]  output y : bool  states S\n"
            f"  transition S -> S when {guard} {{ y := true }}\n"
            "  transition S -> S { y := false } }")
    result = parse_model(text)
    assert result.ok, result.diagnostics
    history = ChannelHistory({"x": TimedStream.of(bounded_int(0, 1), [0, 1])}, 2)
    expected = (True, False) if kind == "minus" else (False, True)
    assert run(result.document.components["C"], history).streams["y"].values == expected


def _nested_calls(n: int, *templates: str) -> str:
    """n calls nested around x, made from the templates in turn."""
    expr = "x"
    for k in range(n):
        expr = templates[k % len(templates)].format(expr)
    return expr


_NESTED_CALLS = {
    "min": ("min({}, 3)",),
    "max": ("max({}, 3)",),
    "floor": ("floor({})",),
    "mixed": ("min({}, 3)", "floor({})", "max({}, 1)"),
    # an operator around a call puts its inline code in parentheses
    "scaled": ("min({} * 2, 3)",),
}


@pytest.mark.parametrize("kind", sorted(_NESTED_CALLS))
@pytest.mark.parametrize("ctype, values", [
    ("int[-9..9]", (0, 1, 2, 9)), ("real", (0.5, -2.25, 7.0, -0.0))])
def test_calls_at_the_nesting_limit_compile_and_run(kind, ctype, values):
    expr = _nested_calls(MAX_NESTING, *_NESTED_CALLS[kind]) + " * 1"
    text = (f"component C weak {{ input x : {ctype}  output y : {ctype}  states S\n"
            f"  transition S -> S {{ y := {expr} }} }}")
    result = parse_model(text)
    assert result.ok, result.diagnostics
    dtype = result.document.components["C"].interface.inputs[0].ctype
    history = ChannelHistory({"x": TimedStream.of(dtype, values)}, len(values))
    expected = tuple(dtype.check(evaluate(parse_expression(expr), {"x": v})) for v in values)
    assert run(result.document.components["C"], history).streams["y"].values == expected


def _chain(terms: int) -> str:
    return " + ".join(["x"] * terms)


# an expression MAX_HEIGHT nodes tall, one MAX_HEIGHT + 1 tall, and the
# offset in the latter of the token that makes it too tall
_TALL = {
    "chain": (_chain(MAX_HEIGHT), _chain(MAX_HEIGHT + 1), len(_chain(MAX_HEIGHT)) + 1),
    "call": (f"abs({_chain(MAX_HEIGHT - 1)})", f"abs({_chain(MAX_HEIGHT)})", 0),
    "not": (f"not ({_chain(MAX_HEIGHT - 1)})", f"not ({_chain(MAX_HEIGHT)})", 0),
    "minus": (f"-({_chain(MAX_HEIGHT - 1)})", f"-({_chain(MAX_HEIGHT)})", 0),
}


@pytest.mark.parametrize("kind", sorted(_TALL))
def test_expression_trees_are_at_most_max_height_tall(kind):
    prefix = "relation R RI when "
    at_bound, over, offset = _TALL[kind]
    assert parse_model(prefix + at_bound).ok
    result = parse_model(prefix + over)
    assert [(d.line, d.column, d.message) for d in result.diagnostics] == [
        (1, len(prefix) + 1 + offset, f"expression tree more than {MAX_HEIGHT} nodes tall")]


def _assigning(expr: str) -> str:
    return ("component C {\n  input x : real\n  output o : real init 0.0\n  states S init\n"
            f"  transition S -> S {{ o := {expr} }}\n}}\n")


@pytest.mark.parametrize("expr, column, message", [
    (_chain(450), len("  transition S -> S { o := ") + len(_chain(MAX_HEIGHT)) + 2,
     f"expression tree more than {MAX_HEIGHT} nodes tall"),
    ("(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
     len("  transition S -> S { o := ") + MAX_NESTING + 1,
     f"expression nested more than {MAX_NESTING} levels deep"),
], ids=["chain", "parentheses"])
def test_a_broken_expression_gives_one_diagnostic(expr, column, message):
    # the parser goes on after the end of the assignment, not inside it
    result = parse_model(_assigning(expr))
    assert [(d.line, d.column, d.message) for d in result.diagnostics] == [(5, column, message)]
