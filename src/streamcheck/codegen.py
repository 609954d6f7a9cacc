"""Expressions compiled to Python source.

An expression compiles to one Python expression, which runs in the
namespace of a `CodeGen`. What is known of a value at compile time is its
kind: "bool", "int", "real", "num" (int or real), "str" (an enumeration
label) or None (unknown), and for an int the bounds it lies within.
Operators on operands of known kinds become plain Python operators, and
`min`, `max` and `floor` of numeric operands become conditional
expressions, with no call per evaluation. Operands of unknown kind go
through the helpers of `exprs`, which check them the way `exprs.evaluate`
does. Kinds are sound only for names whose values are guaranteed to
conform: the simulator vouches for its state slots, and a history's column
is vouched for by its stream (`TimedStream.conforms`).

Python's parser allows 200 nested brackets. Each code records how deeply
its source nests them; an inline form that would nest deeper than
`INLINE_DEPTH` gives way to the call it replaces, which nests less when
its value is an operand of an operator.

Relation, abstraction-map and membership expressions compile here, too.
A relation is a map of one entry: relations and maps compile into one
loop over the value tuples of channel histories (`map_rows`), and a
declared `member` predicate into one over all |A|*|C| pairs of an
abstract and a concrete row list (`membership_rows`). The default
membership, f's adjoint, compiles nothing of its own: it is decided from
f's values (`abstraction.g_membership`, `abstraction.verify_galois`).
Such a function is compiled once per expression owner, column signature
(the names, types and conformance of the columns) and map entries, and
cached on the owner.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from .errors import EvaluationError
from .exprs import (Binary, Expr, FUNCTIONS, Lit, Name, Unary, _CMP_OPS, _apply, _binop,
                    _bool, _floor, _num)
from .histories import ChannelHistory
from .streams import BOOL_KIND, DataType, INT_KIND, REAL_KIND, enum_labels

NUMERIC = ("int", "real", "num")
UNBOUNDED = (-math.inf, math.inf)
INLINE_DEPTH = 100  # nested brackets

# precedence of generated code, as in Python: a child binds at least as
# tightly as its parent needs, or gets parentheses
ATOM, _UNARY, _MUL, _ADD, _CMP, _NOT, _AND, _OR, _IF = 9, 7, 6, 5, 4, 3, 2, 1, 0
_OP_PREC = {"*": _MUL, "/": _MUL, "+": _ADD, "-": _ADD, "and": _AND, "or": _OR}
_NOT_WHAT, _NEG_WHAT = repr("'not'"), repr("unary '-'")


class Code(NamedTuple):
    src: str
    kind: str | None
    prec: int = ATOM
    bounds: tuple = UNBOUNDED  # of a value of kind "int"
    depth: int = 0  # of the brackets nested in src


NameResolver = Callable[[str, str], Code]


def kind_of_value(value: Any) -> str | None:
    return {bool: "bool", int: "int", float: "real", str: "str"}.get(type(value))


def _paren(code: Code, prec: int) -> str:
    return code.src if code.prec >= prec else f"({code.src})"


def _depth(code: Code, prec: int = _IF) -> int:
    """The bracket depth of `_paren(code, prec)`."""
    return code.depth + (code.prec < prec)


def _simple(code: Code, e: Expr) -> bool:
    """Whether `code` reads a literal or a variable: evaluating it twice
    costs next to nothing and cannot fail."""
    return isinstance(e, Lit) or code.src.isidentifier()


def _arith(op: str, lhs: Code, rhs: Code) -> tuple[str, tuple]:
    """Kind and int bounds of an arithmetic result."""
    if lhs.kind != "int" or rhs.kind != "int":
        return ("real" if "real" in (lhs.kind, rhs.kind) else "num"), UNBOUNDED
    (a, b), (c, d) = lhs.bounds, rhs.bounds
    if op == "+":
        return "int", (a + c, b + d)
    if op == "-":
        return "int", (a - d, b - c)
    if not all(map(math.isfinite, (a, b, c, d))) or (op == "/" and c <= 0 <= d):
        return "int", UNBOUNDED
    corners = [a * c, a * d, b * c, b * d] if op == "*" else [a // c, a // d, b // c, b // d]
    return "int", (min(corners), max(corners))


def _call_bounds(func: str, args: list[Code]) -> tuple:
    if func == "min":
        return min(a.bounds[0] for a in args), min(a.bounds[1] for a in args)
    if func == "max":
        return max(a.bounds[0] for a in args), max(a.bounds[1] for a in args)
    lo, hi = args[0].bounds  # abs
    return (lo, hi) if lo >= 0 else (-hi, -lo) if hi <= 0 else (0, max(-lo, hi))


def _unknown(ident: str, ctx: str = "") -> Any:
    raise EvaluationError(f"{ctx}unknown name {ident!r}")


def _divisor(value: Any, ctx: str = "") -> Any:
    """A numeric divisor, unless it is zero."""
    if value:
        return value
    raise EvaluationError(f"{ctx}division by zero")


def _guard(value: Any, message: str) -> bool:
    if value is True or value is False:
        return value
    raise EvaluationError(message)


# The names of generated variables, kept for the life of the process. A
# compile interns them; were they freed with the code, every recompile of a
# model would intern them afresh, and that churn keeps enlarging the
# interpreter's table of interned strings (by 0.4 MB over a dozen compiles
# of a 48-atom network). The same few names recur in every compile.
_NAMES: set[str] = set()


class CodeGen:
    """Python source for compiled expressions and the namespace it runs in."""

    def __init__(self) -> None:
        self.ns: dict[str, Any] = {
            "EvaluationError": EvaluationError, "_num": _num, "_bool": _bool,
            "_binop": _binop, "_apply": _apply, "_floor": _floor,
            "_unknown": _unknown, "_guard": _guard, "_divisor": _divisor, "_fl": math.floor}
        self._temps = 0
        self._consts: dict[tuple, str] = {}

    def temp(self) -> str:
        self._temps += 1
        return f"_t{self._temps}"

    def const(self, value: Any) -> str:
        """Source text that evaluates to `value`."""
        kind = kind_of_value(value)
        if kind in ("bool", "int", "str") or (kind == "real" and math.isfinite(value)):
            text = repr(value)
            return f"({text})" if text.startswith("-") else text
        try:
            return self._consts[(type(value), value)]
        except TypeError:  # unhashable: not shared
            key = None
        except KeyError:
            key = (type(value), value)
        name = f"_k{len(self._consts)}" if key else f"_k{len(self.ns)}_"
        self.ns[name] = value
        if key:
            self._consts[key] = name
        return name

    def expr(self, e: Expr, name: NameResolver, ctx: str = "") -> Code:
        """Compile `e`; `name` gives the code of a name, `ctx` prefixes error messages.

        Temporaries are reused from one call to the next, so the code of an
        earlier call must have been evaluated before this one's runs.
        """
        self._temps = 0
        return self._expr(e, name, ctx)

    def _expr(self, e: Expr, name: NameResolver, ctx: str) -> Code:
        c = f", {ctx!r}" if ctx else ""
        if isinstance(e, Lit):
            kind = kind_of_value(e.value)
            src = self.const(e.value)
            return Code(src, kind, ATOM, (e.value, e.value) if kind == "int" else UNBOUNDED,
                        int(src.startswith("(")))
        if isinstance(e, Name):
            return name(e.ident, ctx)
        if isinstance(e, Unary):
            x = self._expr(e.operand, name, ctx)
            if e.op == "not":
                operand = self._bool_operand(x, _NOT_WHAT, c, _NOT)
                return Code(f"not {operand.src}", "bool", _NOT, depth=operand.depth)
            if x.kind in NUMERIC:
                return Code(f"-{_paren(x, _UNARY)}", x.kind, _UNARY, (-x.bounds[1], -x.bounds[0]),
                            _depth(x, _UNARY))
            return Code(f"-_num({x.src}, {_NEG_WHAT}{c})", "num", _UNARY, depth=x.depth + 1)
        if isinstance(e, Binary):
            return self._binary(e, name, ctx, c)
        args = [self._expr(a, name, ctx) for a in e.args]
        kinds = {a.kind for a in args}
        codes = ", ".join(a.src for a in args)
        depth = max((a.depth for a in args), default=0) + 1  # of a call
        arity_ok = len(args) >= 2 if e.func in ("min", "max") else len(args) == 1
        if e.func in ("min", "max", "abs") and arity_ok and kinds <= set(NUMERIC):
            kind = kinds.pop() if len(kinds) == 1 else "num"
            bounds = _call_bounds(e.func, args) if kind == "int" else UNBOUNDED
            if e.func != "abs":
                inline = self._min_max(e.func, args, e.args)
                if inline.depth <= INLINE_DEPTH:
                    return inline._replace(kind=kind, bounds=bounds)
            return Code(f"{e.func}({codes})", kind, ATOM, bounds, depth)
        if e.func == "floor" and len(args) == 1:
            if args[0].kind == "int":
                return args[0]
            if args[0].kind in NUMERIC:
                inline = self._floor(args[0], e.args[0], c)
                if inline.depth <= INLINE_DEPTH:
                    return inline
            return Code(f"_floor({codes}{c})", "int", ATOM, UNBOUNDED, depth)
        kind = "num" if e.func in FUNCTIONS else None
        return Code(f"_apply({e.func!r}, ({codes}{',' if codes else ''}){c})", kind,
                    depth=depth + 1)

    def _min_max(self, func: str, args: list[Code], exprs: Sequence[Expr]) -> Code:
        """min or max of numeric operands as a left fold that evaluates them
        in order. As with the builtins, an operand replaces the running result
        only when it is strictly less (greater): of equal operands, and where
        nan makes the comparison false, the earlier one stays."""
        op = ">" if func == "min" else "<"
        acc, simple = args[0], _simple(args[0], exprs[0])
        r = b = ""  # temporaries of the running result and of the next operand
        for x, e in zip(args[1:], exprs[1:]):
            if simple:
                lhs = ref = acc.src
                depth = acc.depth
            else:
                r = r or self.temp()
                lhs, ref, depth = f"({r} := {acc.src})", r, acc.depth + 1
            if _simple(x, e):
                rhs = nxt = x.src
                depth = max(depth, x.depth)
            else:
                b = b or self.temp()
                rhs, nxt, depth = f"({b} := {x.src})", b, max(depth, x.depth + 1)
            acc = Code(f"{nxt} if {lhs} {op} {rhs} else {ref}", None, _IF, depth=depth)
            simple = False
        return acc

    def _floor(self, x: Code, e: Expr, c: str) -> Code:
        """floor of a numeric operand: `t - t == 0` fails exactly for nan and
        the infinities, whose error `exprs._floor` reports."""
        if _simple(x, e):
            t = bound = x.src
        else:
            t = self.temp()
            bound = f"({t} := {x.src})"
        return Code(f"_fl({t}) if {bound} - {t} == 0 else _floor({t}{c})", "int", _IF,
                    depth=x.depth + 1)

    def _bool_operand(self, x: Code, what: str, c: str, prec: int) -> Code:
        """`x` as an operand that must be boolean, bound at least as tightly as `prec`."""
        if x.kind == "bool":
            return Code(_paren(x, prec), "bool", depth=_depth(x, prec))
        t = self.temp()
        return Code(f"({t} if type({t} := {x.src}) is bool else _bool({t}, {what}{c}))", "bool",
                    depth=x.depth + 2)

    def _binary(self, e: Binary, name: NameResolver, ctx: str, c: str) -> Code:
        op = e.op
        lhs, rhs = self._expr(e.left, name, ctx), self._expr(e.right, name, ctx)
        if op in ("and", "or"):
            what, prec = repr(f"'{op}'"), _OP_PREC[op]
            left = self._bool_operand(lhs, what, c, prec)
            right = self._bool_operand(rhs, what, c, prec + 1)
            return Code(f"{left.src} {op} {right.src}", "bool", prec,
                        depth=max(left.depth, right.depth))
        numeric = lhs.kind in NUMERIC and rhs.kind in NUMERIC
        fallback = Code(f"_binop({op!r}, {lhs.src}, {rhs.src}{c})", None,
                        depth=max(lhs.depth, rhs.depth) + 1)
        if op in _CMP_OPS:
            if numeric or (op in ("==", "!=") and lhs.kind == rhs.kind in ("bool", "str")):
                return Code(f"{_paren(lhs, _ADD)} {op} {_paren(rhs, _ADD)}", "bool", _CMP,
                            depth=max(_depth(lhs, _ADD), _depth(rhs, _ADD)))
            return fallback._replace(kind="bool")
        if op in ("+", "-", "*") and numeric:
            prec = _OP_PREC[op]
            kind, bounds = _arith(op, lhs, rhs)
            return Code(f"{_paren(lhs, prec)} {op} {_paren(rhs, prec + 1)}", kind, prec, bounds,
                        max(_depth(lhs, prec), _depth(rhs, prec + 1)))
        if op == "/" and numeric and (lhs.kind == rhs.kind == "int" or "real" in (lhs.kind, rhs.kind)):
            pyop = "//" if lhs.kind == rhs.kind == "int" else "/"
            kind, bounds = _arith(op, lhs, rhs)
            divisor, depth = _paren(rhs, _UNARY), _depth(rhs, _UNARY)
            lo, hi = rhs.bounds
            nonzero = (isinstance(e.right, Lit) and e.right.value != 0
                       or rhs.kind == "int" and (lo > 0 or hi < 0))
            if not nonzero:
                # both operands evaluate, left first, before the divisor is
                # tested; the left one nests no deeper, so chains stay flat
                divisor, depth = f"_divisor({rhs.src}{c})", rhs.depth + 1
            return Code(f"{_paren(lhs, _MUL)} {pyop} {divisor}", kind, _MUL, bounds,
                        max(_depth(lhs, _MUL), depth))
        return fallback._replace(kind="num" if op in ("+", "-", "*", "/") else None)

    def function(self, params: str, body: list[str]) -> Callable:
        """Define a function from source lines in this namespace."""
        src = f"def _generated({params}):\n" + "".join(f"    {line}\n" for line in body)
        try:
            code = compile(src, "<streamcheck>", "exec")
        except (SyntaxError, RecursionError) as e:
            # in practice: expressions nested deeper than Python's parser allows;
            # a SyntaxError's text would cite a line of the generated source
            detail = e.msg if isinstance(e, SyntaxError) else e
            raise EvaluationError(f"cannot compile the model's expressions: {detail}") from None
        exec(code, self.ns)
        # drop the name so that function and namespace form no reference cycle
        fn = self.ns.pop("_generated")
        _NAMES.update(fn.__code__.co_varnames, fn.__code__.co_names)
        return fn


# ---------------------------------------------------------------------------
# Expressions over the columns of channel histories


def slot(local: str, dtype: DataType, conforms: bool) -> Code:
    """The code of a local variable whose values conform to dtype, if `conforms`."""
    if not conforms:
        return Code(local, None)
    if dtype.kind == INT_KIND:
        return Code(local, "int", ATOM, (dtype.lo, dtype.hi))
    return Code(local, {BOOL_KIND: "bool", REAL_KIND: "real"}.get(dtype.kind, "str"))


Signature = tuple  # ((name, DataType, conforms), ...), one entry per column


def _rows(h: ChannelHistory) -> list[tuple]:
    """The history's values tick by tick."""
    columns = [s.values for s in h.streams.values()]
    return list(zip(*columns)) if columns else [()] * h.horizon


def unpack(prefix: str, n: int) -> str:
    """An assignment target that unpacks a row of n values."""
    return f"({', '.join(f'{prefix}{k}' for k in range(n))},)" if n else "_"


def _scope(labels: Iterable[str], *sides: tuple[str, Signature]) -> NameResolver:
    """Resolve a name to the local of its column, `prefix` + index on its
    side (a column of a later side shadows one of an earlier side), else to
    an enumeration label, else to an error when it is evaluated."""
    names = {n: slot(f"{prefix}{k}", t, ok) for prefix, sig in sides
             for k, (n, t, ok) in enumerate(sig)}
    labels = set(labels)

    def resolve(ident: str, ctx: str) -> Code:
        code = names.get(ident)
        if code is not None:
            return code
        if ident in labels:
            return Code(repr(ident), "str")
        return Code(f"_unknown({ident!r}{', ' + repr(ctx) if ctx else ''})", None, depth=1)
    return resolve


def _types(sig: Signature) -> Iterable[DataType]:
    return (t for _, t, _ in sig)


def _cached(owner: Any, key: tuple, build: Callable[[], Any]) -> Any:
    cache = owner.__dict__.setdefault("_column_functions", {})
    fn = cache.get(key)
    if fn is None:
        fn = cache[key] = build()
    return fn


def map_rows(owner: Any, entries: Sequence[tuple[str, Expr]], sig: Signature,
             types: Iterable[DataType] = ()) -> tuple[Callable, list[str | None]]:
    """fn(rows, cols), which appends each entry's value at each row of
    values, described by `sig`, to the entry's list in `cols`, row by row
    and entry by entry: when an evaluation raises, the lists hold the
    values computed before it. Names resolve to the columns, then to the
    labels of their enumerations and of `types`. Returns fn and the kind of
    each entry's values; an entry that does not compile raises here."""

    def build() -> tuple[Callable, list[str | None]]:
        gen = CodeGen()
        scope = _scope(enum_labels(itertools.chain(_types(sig), types)), ("x", sig))
        codes = [gen.expr(e, scope) for _, e in entries]
        body = [f"a{j} = cols[{j}].append" for j in range(len(entries))]
        body.append(f"for {unpack('x', len(sig))} in rows:")
        body += [f"    a{j}({code.src})" for j, code in enumerate(codes)]
        return gen.function("rows, cols", body), [code.kind for code in codes]

    # an owner has one entry a channel applicable to a signature, so the
    # channels name the entries without hashing their expressions
    return _cached(owner, ("map", sig, tuple(chan for chan, _ in entries)), build)


def membership_rows(gal: Any, sa: Signature, sc: Signature, abstract: Sequence[list[tuple]],
                    concrete: Sequence[list[tuple]]) -> list[list[bool]]:
    """[[g_membership(gal, a, x) for x in concrete] for a in abstract] of a
    Galois connection that declares `member`, for histories of one horizon
    given as row lists, one row of values a tick, of the signatures sa and
    sc; the first error in that order is raised. One compiled call decides
    every pair."""
    if not abstract or not concrete:
        return [[] for _ in abstract]

    def build() -> Callable:
        gen = CodeGen()
        labels = enum_labels(itertools.chain(_types(sa), _types(sc), gal.channel_types.values()))
        # a concrete channel shadows an abstract one
        member = gen.expr(gal.member, _scope(labels, ("x", sa), ("y", sc)))
        return gen.function("A, C", [
            "M = []",
            "for ra in A:",
            "    R = []",
            "    app = R.append",
            "    for rc in C:",
            f"        for {unpack('x', len(sa))}, {unpack('y', len(sc))} in zip(ra, rc):",
            f"            if not ({member.src}):",
            "                app(False)",
            "                break",
            "        else:",
            "            app(True)",
            "    M.append(R)",
            "return M"])

    return _cached(gal, ("member", sa, sc), build)(abstract, concrete)
