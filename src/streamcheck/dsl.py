"""Parser for the `.scm.txt` stream-component model DSL.

The grammar is documented in docs/grammar.md. The parser is total: any byte
input yields a (possibly partial) document plus located diagnostics, never an
exception. The writer is `serialize.serialize_model`.
"""

from __future__ import annotations

from typing import Any, Callable

from . import exprs
from .components import (AutomatonSpec, CompositeSpec, ComponentSpec, Connector,
                         Endpoint, SyntacticInterface, Transition, VariableDecl,
                         spec_problems)
from .declarations import ConcretizerSpec, GaloisSpec, ParamDecl, RelationSpec, Universe
from .errors import Diagnostic, ModelFormatError, TypeMismatchError
from .exprs import TRUE, Expr
from .lexing import EOF, IDENT, INT, PUNCT, REAL, Cursor, Token, tokenize
from .records import FRESH, Record
from .streams import BOOL, Channel, DataType, REAL as REAL_TYPE, bounded_int, enumeration

_TOP_KEYWORDS = ("type", "component", "relation", "galois", "concretizer", "refinement")


class RefinementSpec(Record):
    """Named binding of an abstract/concrete pair with its relating artifacts."""

    _fields = ("name", "abstract", "concrete", "ri", "ro", "galois", "concretizer")

    def __init__(self, name: str, abstract: str | None = None, concrete: str | None = None,
                 ri: str | None = None, ro: str | None = None, galois: str | None = None,
                 concretizer: str | None = None):
        self.name, self.abstract, self.concrete = name, abstract, concrete
        self.ri, self.ro, self.galois, self.concretizer = ri, ro, galois, concretizer


class ModelDocument(Record):
    """The named types, components, relations, Galois connections,
    concretizers and refinements of one or more model files."""

    _fields = ("types", "components", "relations", "galois", "concretizers", "refinements")

    def __init__(self, types: dict[str, DataType] = FRESH,
                 components: dict[str, ComponentSpec] = FRESH,
                 relations: dict[str, RelationSpec] = FRESH, galois: dict[str, GaloisSpec] = FRESH,
                 concretizers: dict[str, ConcretizerSpec] = FRESH,
                 refinements: dict[str, RefinementSpec] = FRESH):
        self.types = {} if types is FRESH else types
        self.components = {} if components is FRESH else components
        self.relations = {} if relations is FRESH else relations
        self.galois = {} if galois is FRESH else galois
        self.concretizers = {} if concretizers is FRESH else concretizers
        self.refinements = {} if refinements is FRESH else refinements

    def merge(self, other: "ModelDocument") -> None:
        for attr in ("types", "components", "relations", "galois",
                     "concretizers", "refinements"):
            mine, theirs = getattr(self, attr), getattr(other, attr)
            dupes = set(mine) & set(theirs)
            if dupes:
                raise ModelFormatError([Diagnostic(0, 0, f"duplicate {attr} names: {sorted(dupes)}")])
            mine.update(theirs)


class ParseResult(Record, repr=False):
    """A parsed document and its diagnostics; it loaded when there are none."""

    _fields = ("document", "diagnostics")

    def __init__(self, document: ModelDocument, diagnostics: list[Diagnostic]):
        self.document, self.diagnostics = document, diagnostics

    @property
    def ok(self) -> bool:
        return not self.diagnostics


def parse_model(text: str, base: ModelDocument | None = None) -> ParseResult:
    """Parse one document; `base` supplies resolvable names from earlier files."""
    try:
        tokens, diagnostics = tokenize(text)
        parser = _Parser(tokens, diagnostics, base)
        doc = parser.document()
        return ParseResult(doc, parser.diagnostics)
    except Exception as e:  # the parser must be total over arbitrary bytes
        return ParseResult(ModelDocument(), [Diagnostic(0, 0, f"internal parse failure: {e}")])


def load_model(path, base: ModelDocument | None = None) -> ModelDocument:
    with open(path, "r", encoding="utf-8-sig") as fh:
        result = parse_model(fh.read(), base)
    if not result.ok:
        raise ModelFormatError(result.diagnostics)
    return result.document


def load_models(paths) -> ModelDocument:
    """Load several files in order; later files may reference earlier names."""
    doc = ModelDocument()
    for path in paths:
        doc.merge(load_model(path, base=doc))
    return doc


class _Parser:
    def __init__(self, tokens: list[Token], diagnostics: list[Diagnostic],
                 base: ModelDocument | None = None):
        self.c = Cursor(tokens)
        self.diagnostics = diagnostics
        self.doc = ModelDocument()
        self.base = base or ModelDocument()

    def lookup(self, attr: str, name: str):
        value = getattr(self.doc, attr).get(name)
        if value is None:
            value = getattr(self.base, attr).get(name)
        return value

    # -- helpers -----------------------------------------------------------

    def error(self, message: str, tok: Token | None = None) -> None:
        tok = tok or self.c.peek()
        self.diagnostics.append(Diagnostic(tok.line, tok.column, message))

    def expect_punct(self, value: str) -> bool:
        if self.c.take_punct(value):
            return True
        self.error(f"expected {value!r}, found {self.c.peek().value!r}")
        return False

    def expect_ident(self, what: str) -> str | None:
        value = self.c.take_ident()
        if value is None:
            self.error(f"expected {what}, found {self.c.peek().value!r}")
        return value

    def sync_top(self) -> None:
        depth = 0
        while True:
            tok = self.c.peek()
            if tok.kind == EOF:
                return
            if tok.kind == PUNCT and tok.value == "{":
                depth += 1
            elif tok.kind == PUNCT and tok.value == "}":
                depth = max(0, depth - 1)
            elif tok.kind == IDENT and depth == 0 and tok.value in _TOP_KEYWORDS:
                return
            self.c.advance()

    def block(self, what: str, tok: Token, body: dict[str, Any]) -> bool:
        """Parse the items of a `{ ... }` block through its closing brace. Each
        item dispatches on its keyword through `_ITEMS[what]` and stores what
        it parses in `body`; False when the declaration is to be dropped."""
        items, c = _ITEMS[what], self.c
        while not c.take_punct("}"):
            kw = c.peek()
            if kw.kind == EOF:
                self.error(f"unterminated {what} block", tok)
                return False
            item = items.get(kw.value) if kw.kind == IDENT else None
            if item is None:
                where = "body" if what == "component" else "block"
                self.error(f"unexpected {kw.value!r} in {what} {where}")
                c.advance()
                continue
            c.advance()
            if item(self, body, kw.value) is False:
                return False
        return True

    def parse_expr(self) -> Expr:
        try:
            return exprs.parse_expr(self.c)
        except exprs.ExprSyntaxError as e:
            self.diagnostics.append(Diagnostic(e.line, e.column, e.message))
            self.skip_expr()
            return TRUE

    def skip_expr(self) -> None:
        """Skip the rest of a broken expression: up to the `;`, `{` or `}`
        that ends its statement or block, or up to a top-level keyword."""
        c = self.c
        while True:
            tok = c.peek()
            if tok.kind == EOF or (tok.kind == PUNCT and tok.value in ";{}") \
                    or (tok.kind == IDENT and tok.value in _TOP_KEYWORDS):
                return
            c.advance()

    def parse_literal(self) -> Any:
        tok = self.c.peek()
        if tok.kind == INT:
            self.c.advance()
            try:
                return exprs.int_literal(tok)
            except exprs.ExprSyntaxError as e:
                self.error(e.message, tok)
                return 0
        if tok.kind == REAL:
            self.c.advance()
            return float(tok.value)
        if tok.kind == PUNCT and tok.value == "-":
            self.c.advance()
            inner = self.parse_literal()
            if isinstance(inner, (int, float)) and not isinstance(inner, bool):
                return -inner
            self.error("expected a numeric literal after '-'")
            return 0
        if tok.kind == IDENT:
            self.c.advance()
            if tok.value == "true":
                return True
            if tok.value == "false":
                return False
            return tok.value  # enumeration label
        self.error(f"expected a literal, found {tok.value!r}")
        self.c.advance()
        return 0

    def parse_type(self) -> DataType | None:
        tok = self.c.peek()
        if tok.kind != IDENT:
            self.error(f"expected a type, found {tok.value!r}")
            return None
        self.c.advance()
        if tok.value == "bool":
            return BOOL
        if tok.value == "real":
            return REAL_TYPE
        if tok.value == "int":
            if not self.expect_punct("["):
                return None
            lo = self.parse_literal()
            if not self.expect_punct(".."):
                return None
            hi = self.parse_literal()
            if not self.expect_punct("]"):
                return None
            if not isinstance(lo, int) or not isinstance(hi, int) or lo > hi:
                self.error(f"bad integer bounds [{lo}..{hi}]", tok)
                return None
            return bounded_int(lo, hi)
        if tok.value == "enum":
            if not self.expect_punct("{"):
                return None
            labels = []
            name = self.expect_ident("enumeration label")
            if name:
                labels.append(name)
            while self.c.take_punct(","):
                name = self.expect_ident("enumeration label")
                if name:
                    labels.append(name)
            self.expect_punct("}")
            if len(set(labels)) != len(labels) or not labels:
                self.error("enumeration labels must be distinct and non-empty", tok)
                return None
            return enumeration(*labels)
        dtype = self.lookup("types", tok.value)
        if dtype is None:
            self.error(f"unknown type {tok.value!r}", tok)
        return dtype

    def register(self, registry: dict, name: str | None, value, what: str, tok: Token) -> None:
        if name is None:
            return
        if name in registry:
            self.error(f"duplicate {what} name {name!r}", tok)
        else:
            registry[name] = value

    # -- top level ----------------------------------------------------------

    def document(self) -> ModelDocument:
        while True:
            tok = self.c.peek()
            if tok.kind == EOF:
                return self.doc
            if tok.kind != IDENT or tok.value not in _TOP_KEYWORDS:
                self.error(f"expected a declaration, found {tok.value!r}")
                self.c.advance()
                self.sync_top()
                continue
            before = len(self.diagnostics)
            getattr(self, "item_" + tok.value)()
            if len(self.diagnostics) > before:
                self.sync_top()

    def item_type(self) -> None:
        tok = self.c.advance()
        name = self.expect_ident("type name")
        self.expect_punct("=")
        dtype = self.parse_type()
        if dtype is not None:
            self.register(self.doc.types, name, dtype, "type", tok)

    # -- components ----------------------------------------------------------

    def item_component(self) -> None:
        tok = self.c.advance()
        name = self.expect_ident("component name") or "_anonymous"
        causality = "strict"
        total = False
        while True:
            if self.c.take_word("weak"):
                causality = "weak"
            elif self.c.take_word("strict"):
                causality = "strict"
            elif self.c.take_word("total"):
                total = True
            else:
                break
        if not self.expect_punct("{"):
            return
        body: dict[str, Any] = {"input": [], "output": [], "var": [], "states": ([], None),
                                "transition": [], "sub": [], "connect": []}
        if not self.block("component", tok, body):
            return
        inputs, variables, transitions = body["input"], body["var"], body["transition"]
        outputs = [ch for ch, _ in body["output"]]
        output_init = {ch.name: init for ch, init in body["output"] if init is not None}
        states, initial = body["states"]
        subs, wiring = body["sub"], body["connect"]
        if subs or wiring:
            if states or transitions or variables:
                self.error(f"component {name!r} mixes automaton and composite items", tok)
                return
            try:
                iface = SyntacticInterface(tuple(inputs), tuple(outputs))
                spec: ComponentSpec = CompositeSpec(name, iface, tuple(subs), tuple(wiring))
            except TypeMismatchError as e:
                self.error(str(e), tok)
                return
        else:
            if not states:
                self.error(f"component {name!r} declares no states", tok)
                return
            var_names = {v.name for v in variables}
            split = []
            for t in transitions:
                outs = tuple((n, e) for n, e in t.outputs if n not in var_names)
                ups = tuple((n, e) for n, e in t.outputs if n in var_names)
                split.append(Transition(t.source, t.target, t.guard, outs, ups, t.label))
            try:
                iface = SyntacticInterface(tuple(inputs), tuple(outputs))
                spec = AutomatonSpec(name, iface, tuple(states), initial or states[0],
                                     tuple(split), tuple(variables), output_init,
                                     causality, total)
            except TypeMismatchError as e:
                self.error(str(e), tok)
                return
        # kept on the spec, so that compiling it checks nothing again
        for problem in spec_problems(spec):
            self.error(f"component {name!r}: {problem}", tok)
        self.register(self.doc.components, name, spec, "component", tok)

    def channel_decl(self, direction: str) -> Channel | None:
        name = self.expect_ident("channel name")
        self.expect_punct(":")
        dtype = self.parse_type()
        if name is None or dtype is None:
            return None
        return Channel(name, dtype, direction)

    def output_decl(self) -> tuple[Channel, Any] | None:
        ch = self.channel_decl("output")
        if ch is None:
            return None
        init = None
        if self.c.take_word("init"):
            init = self.parse_literal()
        return ch, init

    def var_decl(self) -> VariableDecl | None:
        name = self.expect_ident("variable name")
        self.expect_punct(":")
        dtype = self.parse_type()
        self.expect_punct("=")
        init = self.parse_literal()
        if name is None or dtype is None:
            return None
        return VariableDecl(name, dtype, init)

    def states_decl(self) -> tuple[list[str], str | None]:
        states: list[str] = []
        initial: str | None = None
        while True:
            name = self.expect_ident("state name")
            if name is None:
                break
            states.append(name)
            if self.c.take_word("init"):
                if initial is not None:
                    self.error("more than one initial state")
                initial = name
            if not self.c.take_punct(","):
                break
        return states, initial

    def transition_decl(self) -> Transition | None:
        label = None
        first = self.expect_ident("state name")
        if self.c.take_punct(":"):
            label = first
            first = self.expect_ident("state name")
        if not self.expect_punct("->"):
            return None
        target = self.expect_ident("state name")
        guard: Expr = TRUE
        if self.c.take_word("when"):
            guard = self.parse_expr()
        outputs: list[tuple[str, Expr]] = []
        if self.c.take_punct("{"):
            while not self.c.take_punct("}"):
                if self.c.peek().kind == EOF:
                    self.error("unterminated assignment block")
                    return None
                name = self.expect_ident("assignment target")
                if not self.expect_punct(":="):
                    return None
                expr = self.parse_expr()
                if name is not None:
                    # split into outputs vs variable updates once declarations are known
                    outputs.append((name, expr))
                self.c.take_punct(";")
        if first is None or target is None:
            return None
        return Transition(first, target, guard, tuple(outputs), (), label)

    def sub_decl(self) -> tuple[str, ComponentSpec] | None:
        name = self.expect_ident("subcomponent name")
        self.expect_punct(":")
        ref_tok = self.c.peek()
        ref = self.expect_ident("component reference")
        if name is None or ref is None:
            return None
        spec = self.lookup("components", ref)
        if spec is None:
            self.error(f"unresolved component {ref!r}", ref_tok)
            return None
        return name, spec

    def endpoint(self) -> Endpoint | None:
        first = self.expect_ident("endpoint")
        if first is None:
            return None
        if self.c.take_punct("."):
            chan = self.expect_ident("channel name")
            if chan is None:
                return None
            return Endpoint(first, chan)
        return Endpoint(None, first)

    def connect_decl(self) -> Connector | None:
        producer = self.endpoint()
        if not self.expect_punct("->"):
            return None
        consumer = self.endpoint()
        if producer is None or consumer is None:
            return None
        return Connector(producer, consumer)

    # -- relations, galois, concretizers, refinements -------------------------

    def item_relation(self) -> None:
        tok = self.c.advance()
        name = self.expect_ident("relation name")
        side_tok = self.c.peek()
        side = self.expect_ident("relation side (RI or RO)")
        if side not in ("RI", "RO"):
            self.error(f"relation side must be RI or RO, found {side!r}", side_tok)
            return
        if self.c.take_word("when"):
            expr = self.parse_expr()
            rel = RelationSpec(name or "_", side, expr=expr)
        elif self.c.take_word("checker"):
            ref_tok = self.c.peek()
            ref = self.expect_ident("checker component")
            spec = self.lookup("components", ref) if ref else None
            if spec is None:
                self.error(f"unresolved component {ref!r}", ref_tok)
                return
            rel = RelationSpec(name or "_", side, checker=spec)
        else:
            self.error("expected 'when <expr>' or 'checker <component>'")
            return
        self.register(self.doc.relations, name, rel, "relation", tok)

    def item_galois(self) -> None:
        tok = self.c.advance()
        name = self.expect_ident("galois name") or "_"
        if not self.expect_punct("{"):
            return
        body: dict[str, Any] = {"abstract": None, "concrete": None, "map": [], "member": None,
                                "universe": None, "horizon": 1, "tok": tok}
        if not self.block("galois", tok, body):
            return
        abstract, concrete = body["abstract"], body["concrete"]
        channel_types: dict[str, DataType] = {}
        abs_chans: set[str] = set()
        conc_chans: set[str] = set()
        for comp_name, chans in ((abstract, abs_chans), (concrete, conc_chans)):
            spec = self.lookup("components", comp_name) if comp_name else None
            if spec is not None:
                for c in spec.interface.inputs + spec.interface.outputs:
                    channel_types[c.name] = c.ctype
                    chans.add(c.name)
        universe = None
        if body["universe"] is not None:
            abs_side, conc_side = [], []
            for chan, values in body["universe"]:
                dtype = channel_types.get(chan)
                if dtype is not None:
                    try:
                        values = tuple(dtype.check(v) for v in values)
                    except TypeMismatchError as e:
                        self.error(f"universe values for {chan!r}: {e}", tok)
                        continue
                if chan in abs_chans:
                    abs_side.append((chan, values))
                elif chan in conc_chans:
                    conc_side.append((chan, values))
                else:
                    self.error(f"universe channel {chan!r} not found in the bound components", tok)
            universe = Universe(tuple(abs_side), tuple(conc_side), body["horizon"])
        gal = GaloisSpec(name, tuple(body["map"]), body["member"], universe,
                         abstract, concrete, channel_types)
        self.register(self.doc.galois, name, gal, "galois", tok)

    def map_decl(self) -> tuple[str, Expr] | None:
        chan = self.expect_ident("abstract channel")
        if self.expect_punct(":=") and chan:
            return chan, self.parse_expr()
        return None

    def universe_decl(self, body: dict[str, Any], kw: str) -> bool:
        """A galois block's `universe { ... }`; its channels add to those of
        earlier universe blocks. False drops the galois declaration."""
        if body["universe"] is None:
            body["universe"] = []
        if not self.expect_punct("{"):
            return False
        while not self.c.take_punct("}"):
            if self.c.peek().kind == EOF:
                self.error("unterminated universe block", body["tok"])
                return False
            if self.c.take_word("horizon"):
                tok = self.c.peek()
                h = self.parse_literal()
                if isinstance(h, int) and not isinstance(h, bool) and h >= 0:
                    body["horizon"] = h
                else:
                    self.error("horizon must be a non-negative integer", tok)
            else:
                chan = self.expect_ident("channel name")
                if not self.c.take_word("in") or not self.expect_punct("{"):
                    self.error("expected 'in { v, ... }'")
                    return False
                values = [self.parse_literal()]
                while self.c.take_punct(","):
                    values.append(self.parse_literal())
                self.expect_punct("}")
                if chan:
                    body["universe"].append((chan, tuple(values)))
        return True

    def component_ref(self) -> str | None:
        tok = self.c.peek()
        ref = self.expect_ident("component reference")
        if ref is not None and self.lookup("components", ref) is None:
            self.error(f"unresolved component {ref!r}", tok)
            return None
        return ref

    def item_concretizer(self) -> None:
        tok = self.c.advance()
        name = self.expect_ident("concretizer name") or "_"
        if not self.expect_punct("{"):
            return
        body: dict[str, list] = {"component": [], "param": []}
        if not self.block("concretizer", tok, body):
            return
        if not body["component"]:
            self.error(f"concretizer {name!r} names no component", tok)
            return
        component = self.lookup("components", body["component"][-1])
        self.register(self.doc.concretizers, name,
                      ConcretizerSpec(name, component, tuple(body["param"])), "concretizer", tok)

    def param_decl(self) -> ParamDecl | None:
        pname = self.expect_ident("parameter name")
        self.expect_punct(":")
        dtype = self.parse_type()
        if pname and dtype:
            return ParamDecl(pname, dtype)
        return None

    def item_refinement(self) -> None:
        tok = self.c.advance()
        name = self.expect_ident("refinement name") or "_"
        if not self.expect_punct("{"):
            return
        body: dict[str, str | None] = dict.fromkeys(_REFERENCES)
        if not self.block("refinement", tok, body):
            return
        self.register(self.doc.refinements, name, RefinementSpec(name, **body),
                      "refinement", tok)

    def reference_decl(self, body: dict[str, Any], kw: str) -> None:
        """A refinement's `<kw> IDENT`; an unresolved name keeps the earlier one."""
        ref_tok = self.c.peek()
        ref = self.expect_ident("reference")
        if ref is not None and self.lookup(_REFERENCES[kw], ref) is None:
            self.error(f"unresolved {kw} reference {ref!r}", ref_tok)
        else:
            body[kw] = ref


# The registry a refinement's reference of each keyword names.
_REFERENCES = {"abstract": "components", "concrete": "components",
               "ri": "relations", "ro": "relations",
               "galois": "galois", "concretizer": "concretizers"}


def _collect(parse):
    """A block item whose results, None excepted, are kept in order under its keyword."""
    def item(parser: _Parser, body: dict[str, Any], kw: str) -> None:
        value = parse(parser)
        if value is not None:
            body[kw].append(value)
    return item


def _last(parse):
    """A block item whose last result is kept under its keyword."""
    def item(parser: _Parser, body: dict[str, Any], kw: str) -> None:
        body[kw] = parse(parser)
    return item


# Block kind -> item keyword -> item(parser, body, keyword), called after the
# keyword is taken; an item returning False drops the declaration.
_ITEMS: dict[str, dict[str, Callable]] = {
    "component": {
        "input": _collect(lambda p: p.channel_decl("input")),
        "output": _collect(_Parser.output_decl),
        "var": _collect(_Parser.var_decl),
        "states": _last(_Parser.states_decl),
        "transition": _collect(_Parser.transition_decl),
        "sub": _collect(_Parser.sub_decl),
        "connect": _collect(_Parser.connect_decl),
    },
    "galois": {
        "abstract": _last(_Parser.component_ref),
        "concrete": _last(_Parser.component_ref),
        "map": _collect(_Parser.map_decl),
        "member": _last(_Parser.parse_expr),
        "universe": _Parser.universe_decl,
    },
    "concretizer": {
        "component": _collect(_Parser.component_ref),
        "param": _collect(_Parser.param_decl),
    },
    "refinement": dict.fromkeys(_REFERENCES, _Parser.reference_decl),
}
