"""The model front end against its former implementation (tests/lex_oracle.py):
the one-regex tokenizer and the precedence-climbing expression parser, and
the located diagnostics for input that the former one did not read."""

import random
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lex_oracle
from conftest import MODEL_FILES, fixture_text
from docgen import DocGen
from streamcheck import dsl, exprs
from streamcheck.dsl import ModelDocument, parse_model
from streamcheck.serialize import serialize_model
from streamcheck.errors import Diagnostic
from streamcheck.exprs import ExprSyntaxError, parse_expression
from streamcheck.lexing import Cursor, Token, tokenize

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
import gen  # noqa: E402  (bench/gen.py: the benchmark's deep network)

# The grammar's alphabet, with the characters next to which a token ends or
# a number turns into a range or a real, and blanks that are not blanks.
_PIECES = (list("0123456789.eE/->:=\r\t\n\x0b ")
           + ["x", "when", "_a1", "Zq9", "{", "}", "(", ")", "[", "]", ",", ";", "<", "!",
              "+", "*", "#", "@", '"', "\\", "//", "..", "1.5e-3", "2.5E+", "\x0c"])
_ascii_text = st.one_of(st.lists(st.sampled_from(_PIECES), max_size=60).map("".join),
                        st.text(st.characters(max_codepoint=127), max_size=60))


@settings(max_examples=400, deadline=None)
@given(_ascii_text)
def test_tokens_and_diagnostics_match_the_character_loop(text):
    tokens, diagnostics = tokenize(text)
    old_tokens, old_diagnostics = lex_oracle.tokenize(text)
    assert [tuple(t) for t in tokens] == [tuple(t) for t in old_tokens]
    assert diagnostics == old_diagnostics


def test_token_repr_and_the_end_of_input():
    tokens, diagnostics = tokenize("a 1.5\n  x..2 // note ²")
    assert not diagnostics
    assert repr(tokens[0]) == "Token(IDENT, 'a', 1:1)"
    assert [tuple(t) for t in tokens[1:]] == [
        ("REAL", "1.5", 1, 3), ("IDENT", "x", 2, 3), ("PUNCT", "..", 2, 4),
        ("INT", "2", 2, 6), ("EOF", "", 2, 8)]  # a last-line comment holds the end
    assert tokenize("a \t")[0][-1] == Token("EOF", "", 1, 4)


def _parse_alike(text: str, base: ModelDocument | None = None):
    result = parse_model(text, base)
    with mock.patch.object(dsl, "tokenize", lex_oracle.tokenize):
        old = parse_model(text, base)
    assert result.document == old.document
    assert result.diagnostics == old.diagnostics
    return result


def _mutated(text: str, rng: random.Random) -> str:
    words = text.split(" ")
    for _ in range(rng.randrange(4)):
        i = rng.randrange(len(words))
        piece = rng.choice(_PIECES + ["component", "galois", "universe", "horizon", "in",
                                      "transition", "when", "refinement", "ri", "init"])
        op = rng.random()
        if op < 0.4:
            del words[i]
        elif op < 0.7:
            words.insert(i, piece)
        else:
            words[i] = piece
    return " ".join(words)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_documents_parse_alike_with_either_tokenizer(rng, mutate):
    text = serialize_model(DocGen(rng).document())
    _parse_alike(_mutated(text, rng) if mutate else text)


def test_fixtures_and_the_deep_network_parse_clean_with_either_tokenizer():
    base = ModelDocument()
    for name in MODEL_FILES:
        result = _parse_alike(fixture_text(name), base)
        assert result.ok, name
        base.merge(result.document)
    text, _ = gen.deep_net_model(random.Random(1), 4, 3, 4)
    result = _parse_alike(text)
    assert result.ok
    assert sum(name.startswith("A") for name in result.document.components) == 48


_EXPR_PIECES = ["a", "b", "not", "and", "or", "==", "!=", "<", "<=", ">", ">=", "+", "-",
                "*", "/", "(", ")", ",", "min", "1", "2.5", "true", "false", ";", "{"]


def _parse_expr(parse, tokens):
    cursor = Cursor(tokens)
    try:
        return parse(cursor), cursor.pos
    except ExprSyntaxError as e:
        return str(e), cursor.pos


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_EXPR_PIECES), min_size=1, max_size=16))
@example("a < b < a".split())  # comparisons do not chain
@example("b or a < b < a".split())
@example("not a < b < a".split())
@example("a == not b and a".split())  # `not` is a name after a comparison
def test_expressions_parse_as_by_recursive_descent(words):
    tokens, _ = tokenize(" ".join(words))
    # the same tree or error, and the cursor left where the DSL parser goes on
    assert _parse_expr(exprs.parse_expr, tokens) == _parse_expr(lex_oracle.parse_expr, tokens)


def _code_positions(text: str) -> list[tuple[int, int, int]]:
    """(offset, line, column) of every place outside a comment."""
    places, offset = [], 0
    for line, src in enumerate(text.split("\n"), 1):
        end = src.find("//")
        for col in range(1, (len(src) if end < 0 else end) + 2):
            places.append((offset + col - 1, line, col))
        offset += len(src) + 1
    return places


@settings(max_examples=100, deadline=None)
@given(st.characters(min_codepoint=128, categories=("Lu", "Ll", "Lo", "Nd", "No", "Zs")),
       st.sampled_from(MODEL_FILES), st.randoms(use_true_random=False))
def test_a_non_ascii_character_outside_a_comment_is_located(ch, name, rng):
    text = fixture_text(name)
    offset, line, col = rng.choice(_code_positions(text))
    result = parse_model(text[:offset] + ch + text[offset:])
    assert result.diagnostics[0] == Diagnostic(line, col, f"unexpected character {ch!r}")


@pytest.mark.parametrize("text, line, col, ch", [
    ("type T = int[0..²]\n", 1, 17, "²"),  # the former lexer took it for an INT
    ("type T = int[0..9]\ncomponent Café weak {}\n", 2, 14, "é"),
    ("type T = int[0..٣]\n", 1, 17, "٣"),
])
def test_non_ascii_letters_and_digits_are_unexpected_characters(text, line, col, ch):
    result = parse_model(text)
    assert result.diagnostics[0] == Diagnostic(line, col, f"unexpected character {ch!r}")
    assert not any("internal parse failure" in d.message for d in result.diagnostics)


def test_non_ascii_text_in_a_comment_is_ignored():
    assert parse_model("// Café: ² ٣ — ok\ntype T = bool // ²\n").ok


def test_an_over_long_integer_literal_is_a_located_diagnostic():
    digits = "9" * 5000
    result = parse_model(f"type T = int[0..{digits}]\n")
    d = result.diagnostics[0]
    assert (d.line, d.column) == (1, 17)
    assert d.message == "integer literal too long (5000 digits)"
    guard = ("component C weak {\n  input x : int[0..9]\n  output y : bool\n"
             f"  states Run init\n  transition Run -> Run when x < {digits} {{ y := true }}\n}}\n")
    d = parse_model(guard).diagnostics[0]
    assert (d.line, d.column, d.message) == (5, 34, "integer literal too long (5000 digits)")
    with pytest.raises(ExprSyntaxError, match="^1:5: integer literal too long"):
        parse_expression("1 + " + digits)
