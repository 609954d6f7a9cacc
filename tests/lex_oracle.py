"""The front ends that `streamcheck.lexing` and the precedence-climbing
expression parser of `streamcheck.exprs` replaced, kept as the oracles of
the front end's differential tests:

- the character-loop tokenizer (`tokenize`);
- the one-regex tokenizer (`regex_tokenize`) that followed it, with the
  `Token` tuples that both build and the `Cursor` over them; the package's
  tokenizer returns token strings alone, and finds a token's line and
  column only for a diagnostic. Unlike the character loop, it reads only
  ASCII letters and digits, as the package does;
- the recursive-descent expression parser with one function per level.

All are unchanged, but for `Cursor.at_word` followed by `advance`, which the
cursor spells `take_word`, and the cursor's `take_ident`, which only the
package's parser read."""

from __future__ import annotations

import re
from typing import NamedTuple

from streamcheck.errors import Diagnostic
from streamcheck.exprs import _CMP_OPS, Binary, Call, Expr, ExprSyntaxError, Lit, Name, Unary

IDENT = "IDENT"
INT = "INT"
REAL = "REAL"
PUNCT = "PUNCT"
EOF = "EOF"


class Token(NamedTuple):
    kind: str
    value: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.column})"


_TWO_CHAR = ("->", ":=", "..", "==", "!=", "<=", ">=", "//")
_ONE_CHAR = "{}()[],:;.<>+-*/=!"


def tokenize(text: str) -> tuple[list[Token], list[Diagnostic]]:
    """Lex arbitrary text; unknown bytes become diagnostics, never exceptions."""
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token(IDENT, text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            # a '..' range operator must not be eaten as a decimal point
            if j < n and text[j] == "." and not text.startswith("..", j) and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
                if j < n and text[j] in "eE":
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k].isdigit():
                        j = k
                        while j < n and text[j].isdigit():
                            j += 1
                tokens.append(Token(REAL, text[i:j], line, col))
            else:
                tokens.append(Token(INT, text[i:j], line, col))
            col += j - i
            i = j
            continue
        two = text[i:i + 2]
        if two in _TWO_CHAR and two != "//":
            tokens.append(Token(PUNCT, two, line, col))
            i += 2
            col += 2
            continue
        if ch in _ONE_CHAR:
            tokens.append(Token(PUNCT, ch, line, col))
            i += 1
            col += 1
            continue
        diagnostics.append(Diagnostic(line, col, f"unexpected character {ch!r}"))
        i += 1
        col += 1
    tokens.append(Token(EOF, "", line, col))
    return tokens, diagnostics


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


def regex_tokenize(text: str) -> tuple[list[Token], list[Diagnostic]]:
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


def parse_expr(cursor: Cursor) -> Expr:
    """Parse an expression off a token cursor (stops at the first non-operator)."""
    return _parse_or(cursor)


def parse_expression(text: str) -> Expr:
    tokens, diags = tokenize(text)
    if diags:
        d = diags[0]
        raise ExprSyntaxError(d.message, d.line, d.column)
    cursor = Cursor(tokens)
    expr = _parse_or(cursor)
    tok = cursor.peek()
    if tok.kind != EOF:
        raise ExprSyntaxError(f"unexpected trailing {tok.value!r}", tok.line, tok.column)
    return expr


def _parse_or(c: Cursor) -> Expr:
    node = _parse_and(c)
    while c.take_word("or"):
        node = Binary("or", node, _parse_and(c))
    return node


def _parse_and(c: Cursor) -> Expr:
    node = _parse_not(c)
    while c.take_word("and"):
        node = Binary("and", node, _parse_not(c))
    return node


def _parse_not(c: Cursor) -> Expr:
    if c.take_word("not"):
        return Unary("not", _parse_not(c))
    return _parse_cmp(c)


def _parse_cmp(c: Cursor) -> Expr:
    node = _parse_add(c)
    t = c.peek()
    if t.kind == PUNCT and t.value in _CMP_OPS:
        c.advance()
        node = Binary(t.value, node, _parse_add(c))
    return node


def _parse_add(c: Cursor) -> Expr:
    node = _parse_mul(c)
    while True:
        t = c.peek()
        if t.kind == PUNCT and t.value in ("+", "-"):
            c.advance()
            node = Binary(t.value, node, _parse_mul(c))
        else:
            return node


def _parse_mul(c: Cursor) -> Expr:
    node = _parse_unary(c)
    while True:
        t = c.peek()
        if t.kind == PUNCT and t.value in ("*", "/"):
            c.advance()
            node = Binary(t.value, node, _parse_unary(c))
        else:
            return node


def _parse_unary(c: Cursor) -> Expr:
    if c.at_punct("-"):
        tok = c.advance()
        operand = _parse_unary(c)
        if isinstance(operand, Lit) and not isinstance(operand.value, bool):
            return Lit(-operand.value)
        return Unary("-", operand)
    return _parse_primary(c)


def _parse_primary(c: Cursor) -> Expr:
    tok = c.peek()
    if tok.kind == INT:
        c.advance()
        return Lit(int(tok.value))
    if tok.kind == REAL:
        c.advance()
        return Lit(float(tok.value))
    if tok.kind == IDENT:
        c.advance()
        if tok.value == "true":
            return Lit(True)
        if tok.value == "false":
            return Lit(False)
        if c.at_punct("("):
            c.advance()
            args = []
            if not c.at_punct(")"):
                args.append(_parse_or(c))
                while c.take_punct(","):
                    args.append(_parse_or(c))
            if not c.take_punct(")"):
                t = c.peek()
                raise ExprSyntaxError("expected ')'", t.line, t.column)
            return Call(tok.value, tuple(args))
        return Name(tok.value)
    if c.take_punct("("):
        node = _parse_or(c)
        if not c.take_punct(")"):
            t = c.peek()
            raise ExprSyntaxError("expected ')'", t.line, t.column)
        return node
    raise ExprSyntaxError(f"expected expression, found {tok.value or 'end of input'!r}",
                          tok.line, tok.column)
