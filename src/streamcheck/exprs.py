"""Guard/assignment expression language.

Boolean connectives, comparisons, arithmetic (+, -, *, integer division on
integers), and the builtins min, max, abs, floor — enough for every formula
the fixtures need.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Sequence, Union

from .errors import EvaluationError
from .lexing import Cursor, tokenize
from .records import Record, store

Expr = Union["Lit", "Name", "Unary", "Binary", "Call"]


class Lit(Record, frozen=True):
    """A literal value."""

    _fields = ("value",)

    def __init__(self, value: Any):
        store(self, "value", value)


class Name(Record, frozen=True):
    """A channel, variable or enumeration label, read by name."""

    _fields = ("ident",)

    def __init__(self, ident: str):
        store(self, "ident", ident)


class Unary(Record, frozen=True):
    """`-operand` or `not operand`."""

    _fields = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        store(self, "op", op)
        store(self, "operand", operand)


class Binary(Record, frozen=True):
    """`left op right`."""

    _fields = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        store(self, "op", op)
        store(self, "left", left)
        store(self, "right", right)


class Call(Record, frozen=True):
    """A call of one of FUNCTIONS."""

    _fields = ("func", "args")

    def __init__(self, func: str, args: tuple[Expr, ...]):
        store(self, "func", func)
        store(self, "args", args)


TRUE = Lit(True)

FUNCTIONS = ("min", "max", "abs", "floor")

_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


def free_names(expr: Expr) -> set[str]:
    if isinstance(expr, Lit):
        return set()
    if isinstance(expr, Name):
        return {expr.ident}
    if isinstance(expr, Unary):
        return free_names(expr.operand)
    if isinstance(expr, Binary):
        return free_names(expr.left) | free_names(expr.right)
    return set().union(*(free_names(a) for a in expr.args)) if expr.args else set()


def _num(value: Any, what: str, ctx: str = "") -> Any:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise EvaluationError(f"{ctx}{what} needs a numeric operand, got {value!r}")
    return value


def _bool(value: Any, what: str, ctx: str = "") -> bool:
    if not isinstance(value, bool):
        raise EvaluationError(f"{ctx}{what} needs a boolean operand, got {value!r}")
    return value


def evaluate(expr: Expr, env: Mapping[str, Any]) -> Any:
    """Evaluate an expression in a name environment; raises EvaluationError.

    This tree walk is the reference semantics; the simulator runs the code
    that `codegen.CodeGen` generates, which calls the same helpers.
    """
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Name):
        try:
            return env[expr.ident]
        except KeyError:
            raise EvaluationError(f"unknown name {expr.ident!r}") from None
    if isinstance(expr, Unary):
        if expr.op == "not":
            return not _bool(evaluate(expr.operand, env), "'not'")
        return -_num(evaluate(expr.operand, env), "unary '-'")
    if isinstance(expr, Binary):
        op = expr.op
        if op == "or":
            return _bool(evaluate(expr.left, env), "'or'") or _bool(evaluate(expr.right, env), "'or'")
        if op == "and":
            return _bool(evaluate(expr.left, env), "'and'") and _bool(evaluate(expr.right, env), "'and'")
        return _binop(op, evaluate(expr.left, env), evaluate(expr.right, env))
    return _apply(expr.func, [evaluate(a, env) for a in expr.args])


def _binop(op: str, lhs: Any, rhs: Any, ctx: str = "") -> Any:
    """A non-boolean binary operator applied to evaluated operands."""
    if op in ("==", "!="):
        if _comparable(lhs, rhs):
            return (lhs == rhs) if op == "==" else (lhs != rhs)
        raise EvaluationError(f"{ctx}cannot compare {lhs!r} with {rhs!r}")
    lhs, rhs = _num(lhs, op, ctx), _num(rhs, op, ctx)
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    if op == ">":
        return lhs > rhs
    if op == ">=":
        return lhs >= rhs
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    if op == "/":
        if rhs == 0:
            raise EvaluationError(f"{ctx}division by zero")
        if isinstance(lhs, int) and isinstance(rhs, int):
            return lhs // rhs
        return lhs / rhs
    raise EvaluationError(f"{ctx}unknown operator {op!r}")


def _comparable(lhs: Any, rhs: Any) -> bool:
    if isinstance(lhs, bool) or isinstance(rhs, bool):
        return isinstance(lhs, bool) and isinstance(rhs, bool)
    if isinstance(lhs, str) or isinstance(rhs, str):
        return isinstance(lhs, str) and isinstance(rhs, str)
    return isinstance(lhs, (int, float)) and isinstance(rhs, (int, float))


def _apply(func: str, args: Sequence[Any], ctx: str = "") -> Any:
    """A builtin function applied to evaluated arguments."""
    if func in ("min", "max"):
        if len(args) < 2:
            raise EvaluationError(f"{ctx}{func}() needs at least two arguments")
        vals = [_num(a, func, ctx) for a in args]
        return min(vals) if func == "min" else max(vals)
    if func == "abs":
        if len(args) != 1:
            raise EvaluationError(f"{ctx}abs() takes one argument")
        return abs(_num(args[0], "abs", ctx))
    if func == "floor":
        if len(args) != 1:
            raise EvaluationError(f"{ctx}floor() takes one argument")
        return _floor(args[0], ctx)
    raise EvaluationError(f"{ctx}unknown function {func!r}")


def _floor(value: Any, ctx: str = "") -> int:
    value = _num(value, "floor", ctx)
    if isinstance(value, float) and not math.isfinite(value):
        raise EvaluationError(f"{ctx}floor needs a finite operand, got {value!r}")
    return math.floor(value)


class ExprSyntaxError(EvaluationError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


def _error(c: Cursor, message: str, index: int) -> ExprSyntaxError:
    """A syntax error at token `index` of the cursor."""
    return ExprSyntaxError(message, *c.where(index))


def int_literal(c: Cursor, index: int) -> int:
    """The value of token `index`, an integer literal; one with more digits
    than Python converts to an int is a syntax error at the token."""
    try:
        return int(c.tokens[index])
    except ValueError:
        raise _error(c, f"integer literal too long ({len(c.tokens[index])} digits)",
                     index) from None


def parse_expr(cursor: Cursor) -> Expr:
    """Parse an expression off a token cursor (stops at the first non-operator)."""
    return _parse_binary(cursor, 1, 0)[0]


def parse_expression(text: str) -> Expr:
    tokens, diags, _ = tokenize(text)  # positions come only with diagnostics
    if diags:
        d = diags[0]
        raise ExprSyntaxError(d.message, d.line, d.column)
    cursor = Cursor(tokens, text)
    expr = _parse_binary(cursor, 1, 0)[0]
    if cursor.peek():
        raise _error(cursor, f"unexpected trailing {cursor.peek()!r}", cursor.pos)
    return expr


# Binary operators by precedence; `not` sits at 3 and unary '-' above 6.
# Keywords and punctuation never share a spelling, so a token alone tells
# whether it is an operator.
_PRECEDENCE = {"or": 1, "and": 2, "==": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
               "+": 5, "-": 5, "*": 6, "/": 6}

# The deepest nesting of parentheses, calls, `not` and unary '-' that an
# expression may have. The parser recurses several times per level; this
# keeps it well inside Python's default recursion limit.
MAX_NESTING = 100

# The most nodes on a path from an expression tree's root to a leaf (`x` is
# one node tall, `x + x` two). A chain like `x + x + ... + x` parses in a
# loop, but the functions over trees recurse once or twice per level.
MAX_HEIGHT = 300


def _deeper(c: Cursor, depth: int) -> int:
    """The nesting depth inside the token just taken, which opens a level."""
    if depth >= MAX_NESTING:
        raise _error(c, f"expression nested more than {MAX_NESTING} levels deep", c.pos - 1)
    return depth + 1


def _height(height: int, c: Cursor, index: int) -> int:
    """The height of a node that token `index` makes, unless it is too tall."""
    if height > MAX_HEIGHT:
        raise _error(c, f"expression tree more than {MAX_HEIGHT} nodes tall", index)
    return height


def _parse_binary(c: Cursor, min_prec: int, depth: int) -> tuple[Expr, int]:
    """Precedence climbing over the operators of at least `min_prec`, at
    nesting `depth`; returns the tree and its height. Comparisons do not
    chain: once a comparison or a looser operator (or a `not`) has been
    applied at this level, no comparison follows."""
    last = 7  # precedence of the last operator applied here
    if min_prec <= 3 and c.take("not"):
        at = c.pos - 1
        operand, height = _parse_binary(c, 3, _deeper(c, depth))
        node: Expr = Unary("not", operand)
        height = _height(height + 1, c, at)
        last = 3
    else:
        node, height = _parse_unary(c, depth)
    while True:
        t = c.tokens[c.pos]
        prec = _PRECEDENCE.get(t)
        if prec is None or prec < min_prec or (prec == 4 and last <= 4):
            return node, height
        at = c.pos
        c.pos = at + 1
        rhs, h = _parse_binary(c, prec + 1, depth) if prec < 6 else _parse_unary(c, depth)
        node = Binary(t, node, rhs)
        height = _height(max(height, h) + 1, c, at)
        last = prec


def _parse_unary(c: Cursor, depth: int) -> tuple[Expr, int]:
    if c.take("-"):
        at = c.pos - 1
        operand, height = _parse_unary(c, _deeper(c, depth))
        if isinstance(operand, Lit) and not isinstance(operand.value, bool):
            return Lit(-operand.value), 1
        return Unary("-", operand), _height(height + 1, c, at)
    return _parse_primary(c, depth)


def _parse_primary(c: Cursor, depth: int) -> tuple[Expr, int]:
    at = c.pos
    tok = c.tokens[at]
    if tok.isidentifier():
        c.pos = at + 1
        if tok == "true":
            return Lit(True), 1
        if tok == "false":
            return Lit(False), 1
        if c.take("("):
            depth = _deeper(c, depth)
            args = []
            if c.tokens[c.pos] != ")":
                args.append(_parse_binary(c, 1, depth))
                while c.take(","):
                    args.append(_parse_binary(c, 1, depth))
            if not c.take(")"):
                raise _error(c, "expected ')'", c.pos)
            return (Call(tok, tuple(a for a, _ in args)),
                    _height(max((h for _, h in args), default=0) + 1, c, at))
        return Name(tok), 1
    if tok.isdigit():
        value = int_literal(c, at)
        c.pos = at + 1
        return Lit(value), 1
    if tok[:1].isdigit():
        c.pos = at + 1
        return Lit(float(tok)), 1
    if c.take("("):
        result = _parse_binary(c, 1, _deeper(c, depth))
        if not c.take(")"):
            raise _error(c, "expected ')'", c.pos)
        return result
    raise _error(c, f"expected expression, found {tok or 'end of input'!r}", at)
