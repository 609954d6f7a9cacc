"""Tokenizer shared by the expression grammar and the model DSL."""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import Diagnostic

IDENT = "IDENT"
INT = "INT"
REAL = "REAL"
PUNCT = "PUNCT"
EOF = "EOF"

# One match per item of a line: the blanks before it, then a token named by
# its kind, a comment, or a character that starts no token (never a blank:
# trailing blanks match nothing). Only ASCII letters and digits make
# identifiers and numbers, and a '..' range operator is never eaten as a
# decimal point. The commonest kinds come first.
_ITEM = re.compile(r"""[ \t\r]*(?:
    (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<COMMENT>//.*)
  | (?P<PUNCT>->|:=|\.\.|[=!<>]=|[{}()\[\],:;.<>+\-*/=!])
  | (?P<REAL>[0-9]+\.[0-9]+(?:[eE][+-]?[0-9]+)?)
  | (?P<INT>[0-9]+)
  | (?P<BAD>[^ \t\r]))""", re.VERBOSE)


class Token(NamedTuple):
    kind: str
    value: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.column})"


def tokenize(text: str) -> tuple[list[Token], list[Diagnostic]]:
    """Lex arbitrary text; unknown characters become diagnostics, never exceptions."""
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    append, new = tokens.append, tuple.__new__  # skips Token's Python-level __new__
    lines = text.split("\n")
    eof_col = len(lines[-1]) + 1
    for line, src in enumerate(lines, 1):
        for m in _ITEM.finditer(src):
            kind = m.lastgroup
            if kind == "COMMENT":
                if line == len(lines):  # the end of input is where the comment starts
                    eof_col = m.start(kind) + 1
            elif kind == "BAD":
                diagnostics.append(Diagnostic(line, m.start(kind) + 1,
                                              f"unexpected character {m[kind]!r}"))
            else:
                append(new(Token, (kind, m[kind], line, m.start(kind) + 1)))
    append(Token(EOF, "", len(lines), eof_col))
    return tokens, diagnostics


class Cursor:
    """A peek/advance view over a token list that ends in its EOF token."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != EOF:
            self.pos += 1
        return tok

    def at_punct(self, value: str) -> bool:
        t = self.tokens[self.pos]
        return t.value == value and t.kind == PUNCT

    def take_punct(self, value: str) -> bool:
        t = self.tokens[self.pos]
        if t.value == value and t.kind == PUNCT:
            self.pos += 1
            return True
        return False

    def take_word(self, value: str) -> bool:
        t = self.tokens[self.pos]
        if t.value == value and t.kind == IDENT:
            self.pos += 1
            return True
        return False

    def take_ident(self) -> str | None:
        """The value of the next token if it is an identifier, which is taken."""
        t = self.tokens[self.pos]
        if t.kind == IDENT:
            self.pos += 1
            return t.value
        return None
