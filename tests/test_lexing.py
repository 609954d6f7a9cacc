"""The model front end against its former implementations (tests/lex_oracle.py):
the tokenizer of token strings, the positions it finds for diagnostics, and
the precedence-climbing expression parser, whichever tokenizer made the
tokens; and the located diagnostics for input that the former ones did not
read."""

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
from streamcheck import dsl, exprs, lexing
from streamcheck.dsl import ModelDocument, parse_model
from streamcheck.serialize import serialize_model
from streamcheck.errors import Diagnostic
from streamcheck.exprs import ExprSyntaxError, parse_expression
from streamcheck.lexing import Cursor, positions, tokenize

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
import gen  # noqa: E402  (bench/gen.py: the benchmark's deep network)

# The grammar's alphabet, with the characters next to which a token ends or
# a number turns into a range or a real, and blanks that are not blanks.
_PIECES = (list("0123456789.eE/->:=\r\t\n\x0b ")
           + ["x", "when", "_a1", "Zq9", "{", "}", "(", ")", "[", "]", ",", ";", "<", "!",
              "+", "*", "#", "@", '"', "\\", "//", "..", "1.5e-3", "2.5E+", "\x0c"])
_ascii_text = st.one_of(st.lists(st.sampled_from(_PIECES), max_size=60).map("".join),
                        st.text(st.characters(max_codepoint=127), max_size=60))
# the same, with letters, digits, blanks and symbols from beyond ASCII
_NON_ASCII = ["é", "Café", "²", "٣", "\u00a0", "\u2028", "—", "€", "\ufeff", "𝔵"]
_text = st.one_of(_ascii_text,
                  st.lists(st.sampled_from(_PIECES + _NON_ASCII), max_size=60).map("".join),
                  st.text(max_size=60))


def _strings(old_tokens) -> list[str]:
    """The former tokenizers' tokens as the token strings that the parser reads."""
    return [t.value for t in old_tokens]


@settings(max_examples=400, deadline=None)
@given(_text)
@example("")
@example("a\n")
@example("a 1.5\n  x..2 // note ²")  # a last-line comment holds the end of input
@example("x := 1\r\ny := 2\r\n")
@example("\t\tx\n\t y")
@example("9" * 5000)
def test_tokens_and_diagnostics_match_the_character_loop(text):
    """The token strings, every token's position, the end of input and the
    diagnostics are those of the one-regex tokenizer, and on ASCII text of
    the character loop."""
    tokens, diagnostics, located = tokenize(text)
    oracles = [lex_oracle.regex_tokenize] + [lex_oracle.tokenize] * text.isascii()
    for oracle in oracles:
        old_tokens, old_diagnostics = oracle(text)
        assert tokens == _strings(old_tokens)
        assert positions(text) == [(t.line, t.column) for t in old_tokens]
        assert diagnostics == old_diagnostics
    assert located == (positions(text) if diagnostics else None)


def test_token_strings_and_positions_at_the_end_of_input():
    text = "a 1.5\n  x..2 // note ²"
    tokens, diagnostics, located = tokenize(text)
    assert not diagnostics and located is None
    assert tokens == ["a", "1.5", "x", "..", "2", ""]
    # a last-line comment holds the end
    assert positions(text) == [(1, 1), (1, 3), (2, 3), (2, 4), (2, 6), (2, 8)]
    assert positions("a \t")[-1] == (1, 4)
    assert Cursor(tokenize("a\n b")[0], "a\n b").where(1) == (2, 2)


def _oracle_tokenize(text: str) -> tuple[list[str], list[Diagnostic], None]:
    """The character loop's tokens, as token strings, with no positions, so
    the parser finds them through `positions`."""
    old_tokens, diagnostics = lex_oracle.tokenize(text)
    return _strings(old_tokens), diagnostics, None


def _parse_alike(text: str, base: ModelDocument | None = None):
    result = parse_model(text, base)
    with mock.patch.object(dsl, "tokenize", _oracle_tokenize):
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


def _parse_expr(parse, cursor):
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
    text = " ".join(words)
    old_tokens, _ = lex_oracle.tokenize(text)
    old = _parse_expr(lex_oracle.parse_expr, lex_oracle.Cursor(old_tokens))
    # the same tree or error, and the cursor left where the DSL parser goes
    # on, whichever tokenizer made the tokens
    for tokens in (tokenize(text)[0], _strings(old_tokens)):
        assert _parse_expr(exprs.parse_expr, Cursor(tokens, text)) == old


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


_ATOM = ("component A weak {\n  input x : bool\n  output y : bool\n  states S init\n"
         "  transition S -> S { y := x }\n}\n")


@pytest.mark.parametrize("text, expected", [
    ("type T = bool\ntype T = bool\n", ["2:1: duplicate type name 'T'"]),
    ("type T = int[3..1]\n", ["1:10: bad integer bounds [3..1]"]),
    ("type T =\n  U\n", ["2:3: unknown type 'U'"]),
    ("type T = enum { a, b, a }\n", ["1:10: enumeration labels must be distinct and non-empty"]),
    ("component C weak {\n  input x : bool\n", ["1:1: unterminated component block"]),
    (_ATOM + "component C {\n  sub s : Missing\n}\n",
     ["8:11: unresolved component 'Missing'", "7:1: component 'C' declares no states"]),
    (_ATOM + "relation R RX when true\n", ["7:12: relation side must be RI or RO, found 'RX'"]),
    (_ATOM + "relation R RI checker Missing\n", ["7:23: unresolved component 'Missing'"]),
    (_ATOM + "galois G {\n  abstract A\n  universe {\n    horizon x\n  }\n}\n",
     ["10:13: horizon must be a non-negative integer"]),
    (_ATOM + "galois G {\n  abstract Missing\n}\n", ["8:12: unresolved component 'Missing'"]),
    (_ATOM + "refinement F {\n  abstract A\n  ri Missing\n}\n",
     ["9:6: unresolved ri reference 'Missing'"]),
    # a broken expression is skipped up to its ';', and the next one is read
    ("component C weak {\n  input x : int[0..9]\n  output y : int[0..9]\n  output z : int[0..9]\n"
     "  states S init\n  transition S -> S { y := ) ; z := ) }\n}\n",
     ["6:28: expected expression, found ')'", "6:37: expected expression, found ')'"]),
])
def test_a_diagnostic_is_placed_at_the_token_it_names(text, expected):
    """Each diagnostic that names a token taken before it, such as a
    declaration's keyword or a reference, is placed at that token, as the
    parser that read `Token` tuples placed it."""
    assert [str(d) for d in parse_model(text).diagnostics] == expected


@pytest.mark.parametrize("text", [
    "type T = int[0..1]\n" * 3 + "#",
    "type T = bool\n#\ntype T = bool\ncomponent C weak {\n  input x : bool\n",
    "type T = int[0..@]\ntype U = V\n",
])
def test_a_failing_load_locates_its_tokens_once(text):
    """A character that starts no token makes `tokenize` locate every token;
    the parser's diagnostics then place their tokens with those positions."""
    with mock.patch.object(lexing, "_located", wraps=lexing._located) as located:
        result = parse_model(text)
    assert located.call_count == 1
    assert len(result.diagnostics) >= 2
    with mock.patch.object(dsl, "tokenize", _oracle_tokenize):
        assert parse_model(text).diagnostics == result.diagnostics
