"""Random model documents, for round-trip testing, and random expressions,
automata and composites, for differential testing of the simulator."""

import random

from streamcheck.declarations import (ConcretizerSpec, GaloisSpec, ParamDecl,
                                      RelationSpec, Universe)
from streamcheck.components import (AutomatonSpec, CompositeSpec, Connector, Endpoint,
                                    SyntacticInterface, Transition, VariableDecl)
from streamcheck.dsl import ModelDocument, RefinementSpec
from streamcheck.exprs import Binary, Call, Lit, Name, Unary, parse_expression
from streamcheck.streams import BOOL, Channel, REAL, bounded_int, enumeration
from streamcheck.histories import ChannelHistory, TimedStream

_CMP = ["==", "!=", "<", "<=", ">", ">="]
_BINARY = _CMP + ["and", "or", "+", "-", "*", "/"]
_FUNCS = ["min", "max", "abs", "floor"]


class DocGen:
    def __init__(self, rng: random.Random, max_width: int = 100):
        self.rng = rng
        self.counter = 0
        self.max_width = max_width  # an int type spans at most max_width + 1 values

    def name(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def dtype(self, enumerable_only: bool = False):
        r = self.rng
        kinds = ["bool", "int", "enum"] + ([] if enumerable_only else ["real"])
        kind = r.choice(kinds)
        if kind == "bool":
            return BOOL
        if kind == "int":
            lo = r.randint(-50, 0)
            return bounded_int(lo, lo + r.randint(1, self.max_width))
        if kind == "enum":
            labels = [self.name("L") for _ in range(r.randint(1, 3))]
            return enumeration(*labels)
        return REAL

    def literal_of(self, dtype):
        r = self.rng
        if dtype.kind == "bool":
            return r.random() < 0.5
        if dtype.kind == "int":
            return r.randint(dtype.lo, dtype.hi)
        if dtype.kind == "enum":
            return r.choice(dtype.labels)
        return round(r.uniform(-10, 10), 3)

    def guard(self, inputs):
        r = self.rng
        usable = [c for c in inputs if c.ctype.kind in ("bool", "int")]
        if not usable:
            return Lit(True)

        def atom():
            c = r.choice(usable)
            if c.ctype.kind == "bool":
                e = Name(c.name)
                return Unary("not", e) if r.random() < 0.3 else e
            return Binary(r.choice(_CMP), Name(c.name),
                          Lit(r.randint(c.ctype.lo, c.ctype.hi)))

        e = atom()
        for _ in range(r.randint(0, 2)):
            e = Binary(r.choice(["and", "or"]), e, atom())
        return e

    def assignment_expr(self, dtype, inputs):
        r = self.rng
        same = [c for c in inputs if c.ctype == dtype]
        if same and r.random() < 0.5:
            return Name(r.choice(same).name)
        if dtype.kind == "enum":
            return Name(r.choice(dtype.labels))
        if dtype.kind == "bool" and r.random() < 0.5:
            return self.guard(inputs)
        return Lit(self.literal_of(dtype))

    def automaton(self):
        r = self.rng
        inputs = tuple(Channel(self.name("in"), self.dtype(), "input")
                       for _ in range(r.randint(1, 3)))
        outputs = tuple(Channel(self.name("out"), self.dtype(), "output")
                        for _ in range(r.randint(1, 2)))
        causality = r.choice(["strict", "weak"])
        output_init = {}
        if causality == "strict" or r.random() < 0.5:
            output_init = {c.name: self.literal_of(c.ctype) for c in outputs}
        states = tuple(self.name("S") for _ in range(r.randint(1, 3)))
        initial = r.choice(states)
        transitions = []
        for _ in range(r.randint(1, 4)):
            assigns = tuple((c.name, self.assignment_expr(c.ctype, inputs))
                            for c in outputs if r.random() < 0.8)
            guard = self.guard(inputs) if r.random() < 0.7 else Lit(True)
            label = self.name("T") if r.random() < 0.5 else None
            transitions.append(Transition(r.choice(states), r.choice(states),
                                          guard, assigns, (), label))
        return AutomatonSpec(self.name("Comp"),
                             SyntacticInterface(inputs, outputs),
                             states, initial, tuple(transitions), (),
                             output_init, causality, r.random() < 0.2)

    def pipeline(self):
        """A two-stage composite with a strict first stage."""
        t = bounded_int(0, 9)
        a = self.name("a")
        b = self.name("b")
        c = self.name("c")
        first = AutomatonSpec(
            self.name("Stage"),
            SyntacticInterface((Channel(a, t, "input"),), (Channel(b, t, "output"),)),
            ("Run",), "Run",
            (Transition("Run", "Run", Lit(True), ((b, Name(a)),), ()),),
            (), {b: 0}, "strict", False)
        second = AutomatonSpec(
            self.name("Stage"),
            SyntacticInterface((Channel(b, t, "input"),), (Channel(c, t, "output"),)),
            ("Run",), "Run",
            (Transition("Run", "Run", Lit(True), ((c, Name(b)),), ()),),
            (), {c: 0}, self.rng.choice(["strict", "weak"]), False)
        return CompositeSpec(
            self.name("Net"),
            SyntacticInterface((Channel(a, t, "input"),), (Channel(c, t, "output"),)),
            (("first", first), ("second", second)),
            (Connector(Endpoint(None, a), Endpoint("first", a)),
             Connector(Endpoint("first", b), Endpoint("second", b)),
             Connector(Endpoint("second", c), Endpoint(None, c)))), first, second

    def galois_pair(self):
        """Two single-channel automata with disjoint names, plus a connection."""
        r = self.rng
        ca = Channel(self.name("ga"), BOOL, "input")
        oa = Channel(self.name("ga"), BOOL, "output")
        cc = Channel(self.name("gc"), bounded_int(-3, 3), "input")
        oc = Channel(self.name("gc"), bounded_int(-3, 3), "output")

        def simple(name, cin, cout, init):
            return AutomatonSpec(
                name, SyntacticInterface((cin,), (cout,)), ("Run",), "Run",
                (Transition("Run", "Run", Lit(True), ((cout.name, Name(cin.name)),), ()),),
                (), {cout.name: init}, "weak", False)

        abstract = simple(self.name("Abs"), ca, oa, False)
        concrete = simple(self.name("Conc"), cc, oc, 0)
        channel_types = {}
        for spec in (abstract, concrete):
            for ch in spec.interface.inputs + spec.interface.outputs:
                channel_types[ch.name] = ch.ctype
        f_map = ((ca.name, Binary(">=", Name(cc.name), Lit(0))),
                 (oa.name, Binary(">=", Name(oc.name), Lit(0))))
        universe = Universe(
            ((ca.name, (True, False)),),
            ((cc.name, tuple(sorted(r.sample(range(-3, 4), r.randint(1, 3))))),),
            horizon=r.randint(0, 2))
        member = None
        if r.random() < 0.5:
            member = Binary("==", Binary(">=", Name(cc.name), Lit(0)), Name(ca.name))
        gal = GaloisSpec(self.name("Gal"), f_map, member, universe,
                         abstract.name, concrete.name, channel_types)
        return gal, abstract, concrete

    def document(self) -> ModelDocument:
        r = self.rng
        doc = ModelDocument()
        for _ in range(r.randint(0, 2)):
            doc.types[self.name("Ty")] = self.dtype()
        autos = [self.automaton() for _ in range(r.randint(1, 3))]
        for spec in autos:
            doc.components[spec.name] = spec
        if r.random() < 0.4:
            net, first, second = self.pipeline()
            doc.components[first.name] = first
            doc.components[second.name] = second
            doc.components[net.name] = net
        for _ in range(r.randint(0, 2)):
            side = r.choice(["RI", "RO"])
            rel = RelationSpec(self.name("Rel"), side,
                               expr=self.guard(autos[0].interface.inputs))
            doc.relations[rel.name] = rel
        gal = None
        if r.random() < 0.6:
            gal, abstract, concrete = self.galois_pair()
            doc.components[abstract.name] = abstract
            doc.components[concrete.name] = concrete
            doc.galois[gal.name] = gal
        conc = None
        if r.random() < 0.5:
            target = r.choice(autos)
            params = tuple(ParamDecl(self.name("p"), self.dtype())
                           for _ in range(r.randint(0, 2)))
            conc = ConcretizerSpec(self.name("Cz"), target, params)
            doc.concretizers[conc.name] = conc
        if r.random() < 0.5 and len(autos) >= 2:
            rels = list(doc.relations.values())
            ref = RefinementSpec(
                self.name("Ref"),
                abstract=autos[0].name, concrete=autos[1].name,
                ri=rels[0].name if rels and rels[0].side == "RI" else None,
                ro=None,
                galois=gal.name if gal else None,
                concretizer=conc.name if conc else None)
            doc.refinements[ref.name] = ref
        return doc

    # -- expressions and environments, typed or not ---------------------------

    def value(self):
        """A value of any expression kind; reals are now and then not finite."""
        r = self.rng
        kind = r.choice(["bool", "int", "real", "label"])
        if kind == "bool":
            return r.random() < 0.5
        if kind == "int":
            return r.randint(-6, 6)
        if kind == "real":
            if r.random() < 0.15:
                return r.choice([float("nan"), float("inf"), float("-inf"), -0.0])
            return round(r.uniform(-6, 6), r.randint(0, 2))
        return r.choice(["L1", "L2"])

    def environment(self, size: int = 4) -> dict:
        return {f"n{i}": self.value() for i in range(size)}

    def expression(self, names, depth: int = 3):
        """Any operator over any operands, so ill-typed more often than not."""
        r = self.rng
        if depth <= 0 or r.random() < 0.2:
            return Name(r.choice(names)) if names and r.random() < 0.6 else Lit(self.value())
        pick = r.random()
        if pick < 0.15:
            return Unary(r.choice(["not", "-"]), self.expression(names, depth - 1))
        if pick < 0.8:
            op = r.choice(_BINARY) if r.random() < 0.97 else "%"
            return Binary(op, self.expression(names, depth - 1), self.expression(names, depth - 1))
        func = r.choice(_FUNCS) if r.random() < 0.95 else "sqrt"
        arity = (1 if func in ("abs", "floor") else 2) if r.random() < 0.85 else r.randint(0, 3)
        return Call(func, tuple(self.expression(names, depth - 1) for _ in range(arity)))

    def typed_expression(self, kind: str, names: dict, depth: int = 3):
        """An expression of kind "bool", "int" or "num" (int or real) whose
        operands have the kinds the operators want; `names` maps "bool",
        "int", "real" and "str" to names of values of that kind. It may still
        divide by zero, meet nan in floor, or leave a type's range."""
        r = self.rng
        if depth <= 0 or r.random() < 0.25:
            pool = names.get(kind, []) if kind != "num" else names.get("int", []) + names.get("real", [])
            if pool and r.random() < 0.7:
                return Name(r.choice(pool))
            if kind == "bool":
                return Lit(r.random() < 0.5)
            if kind == "int" or r.random() < 0.6:
                return Lit(r.choice([0, r.randint(-9, 9), r.randint(1, 4)]))
            return Lit(round(r.uniform(-9, 9), 1))
        if kind == "bool":
            pick = r.random()
            if pick < 0.2:
                return Unary("not", self.typed_expression("bool", names, depth - 1))
            if pick < 0.5:
                return Binary(r.choice(["and", "or"]), self.typed_expression("bool", names, depth - 1),
                              self.typed_expression("bool", names, depth - 1))
            if pick < 0.6 and names.get("str"):
                return Binary(r.choice(["==", "!="]), Name(r.choice(names["str"])),
                              Name(r.choice(names["str"])))
            sub = r.choice(["int", "num"])
            return Binary(r.choice(_CMP), self.typed_expression(sub, names, depth - 1),
                          self.typed_expression(sub, names, depth - 1))
        sub = kind if kind == "int" or r.random() < 0.7 else "int"
        pick = r.random()
        if pick < 0.1:
            return Unary("-", self.typed_expression(sub, names, depth - 1))
        if pick < 0.7:
            return Binary(r.choice(["+", "-", "*", "/"]), self.typed_expression(sub, names, depth - 1),
                          self.typed_expression(sub, names, depth - 1))
        func = r.choice(_FUNCS)
        arity = 1 if func in ("abs", "floor") else r.randint(2, 3)
        arg = "num" if func == "floor" and r.random() < 0.5 else sub
        return Call(func, tuple(self.typed_expression(arg, names, depth - 1) for _ in range(arity)))

    # -- automata and composites to simulate -----------------------------------

    def rich_automaton(self):
        """An automaton with variables and arithmetic in guards and assignments.

        Assignments are mostly of the right kind but may leave the target's
        range, and now and then one is ill-typed, so runs fail at some tick.
        """
        r = self.rng
        inputs = tuple(Channel(self.name("in"), t, "input")
                       for t in (self.dtype() for _ in range(r.randint(1, 3))))
        outputs = tuple(Channel(self.name("out"), self.dtype(), "output")
                        for _ in range(r.randint(1, 2)))
        variables = tuple(VariableDecl(self.name("v"), t, self.literal_of(t)
                                       if r.random() < 0.9 else self.bad_value(t))
                          for t in (self.dtype() for _ in range(r.randint(0, 2))))
        names = {"bool": [], "int": [], "real": [], "str": []}
        for name, t in ([(c.name, c.ctype) for c in inputs + outputs]
                        + [(v.name, v.dtype) for v in variables]):
            names["str" if t.kind == "enum" else t.kind].append(name)
        causality = r.choice(["strict", "weak"])
        output_init = {c.name: self.literal_of(c.ctype) if r.random() < 0.9 else self.bad_value(c.ctype)
                       for c in outputs if causality == "strict" or r.random() < 0.6}

        def rhs(dtype):
            if r.random() < 0.05:
                return self.expression(sorted(n for ns in names.values() for n in ns), 2)
            if dtype.kind == "enum":
                return Name(r.choice(dtype.labels))
            if dtype.kind == "bool":
                return self.typed_expression("bool", names, 2)
            if dtype.kind == "real":
                return self.typed_expression("num", names, 2)
            e = self.typed_expression(r.choice(["int", "int", "num"]), names, 2)
            if r.random() < 0.5:
                e = Call("min", (Call("max", (Call("floor", (e,)), Lit(dtype.lo))), Lit(dtype.hi)))
            return e

        states = tuple(self.name("S") for _ in range(r.randint(1, 3)))
        transitions = []
        for _ in range(r.randint(1, 5)):
            guard = self.typed_expression("bool", names, 2) if r.random() < 0.8 else Lit(True)
            assigns = tuple((c.name, rhs(c.ctype)) for c in outputs if r.random() < 0.7)
            updates = tuple((v.name, rhs(v.dtype)) for v in variables if r.random() < 0.6)
            transitions.append(Transition(r.choice(states), r.choice(states), guard, assigns,
                                          updates, self.name("T") if r.random() < 0.5 else None))
        return AutomatonSpec(self.name("Rich"), SyntacticInterface(inputs, outputs), states,
                             r.choice(states), tuple(transitions), variables, output_init,
                             causality, r.random() < 0.15)

    def bad_value(self, dtype):
        """A value outside the type."""
        return {"bool": 1, "int": (dtype.hi or 0) + 1, "real": "x", "enum": "Bogus"}[dtype.kind]

    def history(self, channels, horizon: int, invalid: bool = False):
        """Random input streams; with `invalid`, one value is outside its
        channel's type, in a stream built without the usual check."""
        columns = {c.name: [self.literal_of(c.ctype) for _ in range(horizon)] for c in channels}
        if invalid and columns and horizon:
            c = self.rng.choice(list(channels))
            columns[c.name][self.rng.randrange(horizon)] = self.bad_value(c.ctype)
        return ChannelHistory({c.name: TimedStream(c.ctype, tuple(columns[c.name]))
                               for c in channels}, horizon)

    def leaky(self, failing: bool = False):
        """A weak automaton over int[0..3] and bool whose transitions now and
        then emit the input of the same tick, in states and with a counter
        variable reached only after some ticks, so that strict causality
        fails at varying depths or not at all. With `failing`, some
        transitions divide by zero on some inputs or counter values, so a
        step fails before or after a divergence."""
        r = self.rng
        sig = bounded_int(0, 3)
        x, en, y = Channel("x", sig, "input"), Channel("en", BOOL, "input"), Channel("y", sig, "output")
        states = tuple(self.name("S") for _ in range(r.randint(1, 4)))
        guards = ["en", "not en", "x == 3", "x == 0 and en", "k == 2", "true"]
        transitions = []
        for i, source in enumerate(states):
            for _ in range(r.randint(1, 2)):
                out = "x" if r.random() < 0.2 else str(r.randint(0, 3))
                if failing and r.random() < 0.4:
                    out = r.choice(["3 / (3 - x)", "3 / (x - k)", "abs(2 / (k - 1))", "x / k"])
                target = states[min(i + 1, len(states) - 1)] if r.random() < 0.7 else r.choice(states)
                update = r.choice(["min(k + 1, 2)", "0", "k"])
                transitions.append(Transition(source, target, parse_expression(r.choice(guards)),
                                              (("y", parse_expression(out)),),
                                              (("k", parse_expression(update)),)))
        return AutomatonSpec(self.name("Leaky"), SyntacticInterface((x, en), (y,)), states,
                             states[0], tuple(transitions),
                             (VariableDecl("k", bounded_int(0, 2), 0),), {"y": 0}, "weak")

    def chain(self, length: int):
        """A chain of weak and strict stages over int[0..9], some of them
        grouped in a nested composite, with instance names in random order.
        Now and then a stage is wrapped together with a pass-through
        composite, which passes its input on unchanged and may itself hold
        one, before or after it; a bare pass-through joins the chain; a
        stage reads a later stage's output, which closes a loop, a
        zero-delay cycle when all the stages on it are weak; and a wire is
        left out. A zero-delay cycle, a missing wire and a stage input
        narrower than the wire into it make the chain ill-formed, so that
        the simulator refuses it."""
        r = self.rng
        sig = bounded_int(0, 9)
        x, en = Channel("x", sig, "input"), Channel("en", BOOL, "input")
        y = Channel("y", sig, "output")

        def passthrough(depth):
            """x passed to y through `depth` nested pass-through composites."""
            if depth == 0:
                return CompositeSpec(self.name("Pass"), SyntacticInterface((x,), (y,)), (),
                                     (Connector(Endpoint(None, "x"), Endpoint(None, "y")),))
            return CompositeSpec(self.name("Pass"), SyntacticInterface((x,), (y,)),
                                 (("p", passthrough(depth - 1)),),
                                 (Connector(Endpoint(None, "x"), Endpoint("p", "x")),
                                  Connector(Endpoint("p", "y"), Endpoint(None, "y"))))

        def wrapped(stage):
            """The stage with a pass-through before or after it."""
            wiring = ([Connector(Endpoint(None, "en"), Endpoint("s", "en"))]
                      if "en" in stage.interface.input_names() else [])
            if r.random() < 0.5:
                wiring += [Connector(Endpoint(None, "x"), Endpoint("p", "x")),
                           Connector(Endpoint("p", "y"), Endpoint("s", "x")),
                           Connector(Endpoint("s", "y"), Endpoint(None, "y"))]
            else:
                wiring += [Connector(Endpoint(None, "x"), Endpoint("s", "x")),
                           Connector(Endpoint("s", "y"), Endpoint("p", "x")),
                           Connector(Endpoint("p", "y"), Endpoint(None, "y"))]
            return CompositeSpec(self.name("Wrap"), SyntacticInterface(stage.interface.inputs, (y,)),
                                 (("p", passthrough(r.randint(0, 2))), ("s", stage)),
                                 tuple(wiring))

        stages, bare = [], set()
        for _ in range(length):
            kind = r.choice(["lin", "mode", "acc", "div", "gate"])
            k = r.randint(-3, 3)
            step = Binary("+", Name("x"), Lit(k))
            if r.random() < 0.7:  # otherwise it may leave int[0..9]
                step = Call("min", (Call("max", (step, Lit(0))), Lit(9)))
            # now and then the stage's input is narrower than the wire into it
            inputs = (x if r.random() < 0.9 else Channel("x", bounded_int(0, 5), "input"),)
            variables, states = (), ("Run",)
            if kind == "lin":
                ts = (Transition("Run", "Run", outputs=(("y", step),)),)
            elif kind == "gate":  # total: stuck once x reaches k + 6
                ts = (Transition("Run", "Run", Binary("<", Name("x"), Lit(k + 6)), (("y", Name("x")),)),)
            elif kind == "div":  # divides by zero when x == k + 4
                quotient = Binary("/", Lit(18), Binary("-", Name("x"), Lit(k + 4)))
                ts = (Transition("Run", "Run", outputs=(
                    ("y", Call("abs", (Call("max", (quotient, Lit(-9))),))),)),)
            elif kind == "mode":
                inputs, states = inputs + (en,), ("Off", "On")
                ts = (Transition("Off", "On", Binary("and", Name("en"), Binary(">", Name("x"), Lit(4))),
                                 (("y", step),), (), "Arm"),
                      Transition("Off", "Off", outputs=(("y", Binary("/", Name("x"), Lit(2))),)),
                      Transition("On", "Off", Unary("not", Name("en")), (("y", Lit(0)),)),
                      Transition("On", "On", outputs=(("y", step),)))
            else:
                acc = Call("min", (Binary("/", Binary("+", Name("acc"), Name("x")), Lit(2)), Lit(9)))
                variables = (VariableDecl("acc", sig, r.randint(0, 9)),)
                ts = (Transition("Run", "Run", outputs=(("y", Name("acc")),), updates=(("acc", acc),)),)
            causality = r.choice(["strict", "weak"])
            spec = AutomatonSpec(self.name("Stage"), SyntacticInterface(inputs, (y,)), states,
                                 states[0], ts, variables,
                                 {"y": r.randint(0, 9)} if causality == "strict" or r.random() < 0.5 else {},
                                 causality, kind == "gate")
            if r.random() < 0.25:
                spec = wrapped(spec)
            stages.append((self.name(r.choice("abcxyz")), spec))
            if r.random() < 0.15:
                stages.append((self.name(r.choice("abcxyz")), passthrough(r.randint(0, 2))))
                bare.add(stages[-1][0])

        def network(name, members, inputs):
            # a loop closed here runs through a stage, never through pass-throughs alone
            back = {}
            if r.random() < 0.2:
                i = r.randrange(len(members))
                later = [inst for inst, _ in members[i:] if inst not in bare]
                if later:
                    back[members[i][0]] = Endpoint(r.choice(later), "y")
            wiring, prev = [], Endpoint(None, "x")
            for inst, spec in members:
                source = prev if r.random() < 0.7 else Endpoint(None, "x")
                wiring.append(Connector(back.get(inst, source), Endpoint(inst, "x")))
                if "en" in spec.interface.input_names():
                    wiring.append(Connector(Endpoint(None, "en"), Endpoint(inst, "en")))
                prev = Endpoint(inst, "y")
            wiring.append(Connector(prev, Endpoint(None, "y")))
            if len(wiring) > 2 and r.random() < 0.1:
                del wiring[r.randrange(len(wiring) - 1)]
            out = y if r.random() < 0.9 else Channel("y", bounded_int(0, 5), "output")
            return CompositeSpec(name, SyntacticInterface(inputs, (out,)), tuple(members), tuple(wiring))

        if len(stages) >= 3 and r.random() < 0.5:
            i = r.randrange(len(stages) - 1)
            inner = network(self.name("Inner"), stages[i:i + 2], (x, en))
            inst = self.name(r.choice("abcxyz"))
            if any(member in bare for member, _ in stages[i:i + 2]):
                bare.add(inst)  # its output may be its input, passed on
            stages[i:i + 2] = [(inst, inner)]
        return network(self.name("Chain"), stages, (x, en))
