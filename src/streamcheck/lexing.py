"""Tokenizer shared by the expression grammar and the model DSL.

A token is its text; the end of input is "". Punctuation, identifiers and
numbers never share a spelling, so the parser compares strings. Only a
diagnostic reads a position, which `positions` finds again from the text.
"""

from __future__ import annotations

import re
from bisect import bisect_left

from .errors import Diagnostic

# Blanks and comments, which separate tokens. A comment runs from '//' to
# the end of its line.
_GAP = r"[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*"

# A token and the gap after it, so that each match starts where the last
# one ended: an identifier, a number, an operator, or any other character,
# which is a one-character operator or else (`_BAD`) starts no token. Only
# ASCII letters and digits make identifiers and numbers, and a '..' range
# operator is never eaten as a decimal point.
_TOKEN = re.compile(r"([A-Za-z_][A-Za-z0-9_]*|[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?)?"
                    r"|->|:=|\.\.|[=!<>]=|[^ \t\r\n])" + _GAP)
_LEADING_GAP = re.compile(_GAP)

_BAD = re.compile(r"[^A-Za-z0-9_{}()\[\],:;.<>+\-*/=!]")


def tokenize(text: str) -> tuple[list[str], list[Diagnostic], list[tuple[int, int]] | None]:
    """Lex arbitrary text into its token strings, ending in the end of input
    "". A character that starts no token is left out, with a diagnostic.
    Only then are the tokens located, and their `positions` come third;
    otherwise the third value is None."""
    tokens = _TOKEN.findall(text, _LEADING_GAP.match(text).end())
    tokens.append("")
    if not _BAD.search("".join(tokens)):
        return tokens, [], None
    located = _located(text)
    return ([tok for tok, _, _ in located if not _BAD.match(tok)],
            [Diagnostic(line, column, f"unexpected character {tok!r}")
             for tok, line, column in located if _BAD.match(tok)],
            _token_positions(located))


def positions(text: str) -> list[tuple[int, int]]:
    """The line and column of each token of `text`, by its index in the
    tokens that `tokenize` returns. The end of input is where a comment on
    the last line starts, or else the end of the text. A column counts
    characters, so a tab is one column."""
    return _token_positions(_located(text))


def _token_positions(located: list[tuple[str, int, int]]) -> list[tuple[int, int]]:
    return [(line, column) for tok, line, column in located if not _BAD.match(tok)]


def _located(text: str) -> list[tuple[str, int, int]]:
    """Every token of `text`, with the characters that start no token, then
    the end of input, each with its line and column."""
    starts = [(m[1], m.start()) for m in _TOKEN.finditer(text, _LEADING_GAP.match(text).end())]
    comment = text.find("//", text.rfind("\n") + 1)  # the first '//' of a line starts a comment
    starts.append(("", comment if comment >= 0 else len(text)))
    line_ends = [-1] + [m.start() for m in re.finditer("\n", text)]  # a line starts after each
    located = []
    for tok, at in starts:
        line = bisect_left(line_ends, at)
        located.append((tok, line, at - line_ends[line - 1]))
    return located


class Cursor:
    """A peek/advance view over the token strings of `text`, which end in
    the end of input "". `positions` are theirs, if `tokenize` found them."""

    def __init__(self, tokens: list[str], text: str,
                 positions: list[tuple[int, int]] | None = None):
        self.tokens = tokens
        self.text = text
        self.pos = 0
        self._positions = positions

    def peek(self) -> str:
        return self.tokens[self.pos]

    def advance(self) -> str:
        tok = self.tokens[self.pos]
        if tok:
            self.pos += 1
        return tok

    def take(self, value: str) -> bool:
        """Whether the next token is `value`, which is taken."""
        if self.tokens[self.pos] == value:
            self.pos += 1
            return True
        return False

    def take_ident(self) -> str | None:
        """The next token if it is an identifier, which is taken."""
        t = self.tokens[self.pos]
        if t.isidentifier():
            self.pos += 1
            return t
        return None

    def where(self, index: int) -> tuple[int, int]:
        """The line and column of token `index`; the first call locates them
        all, unless `tokenize` has."""
        if self._positions is None:
            self._positions = positions(self.text)
        return self._positions[index]
