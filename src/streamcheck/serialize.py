"""The model and value text writer: message values, expressions and whole
documents as model and vector files write them.

Writing is not on the load path, so a model load does not import this
module. `parse_model(serialize_model(doc))` is structurally `doc`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .components import AutomatonSpec, CompositeSpec, ComponentSpec
from .exprs import TRUE, Call, Expr, Lit, Name, Unary, _CMP_OPS, _PRECEDENCE

if TYPE_CHECKING:
    from .dsl import ModelDocument


def literal_text(value: Any) -> str:
    """A message value as model and vector files write it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def to_text(expr: Expr, parent_prec: int = 0) -> str:
    """Render an expression; parse(to_text(e)) is structurally e."""
    if isinstance(expr, Lit):
        v = expr.value
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            text = repr(v)
            return f"({text})" if v < 0 and parent_prec >= 5 else text
        if isinstance(v, int):
            return f"({v})" if v < 0 and parent_prec >= 5 else str(v)
        return str(v)
    if isinstance(expr, Name):
        return expr.ident
    if isinstance(expr, Unary):
        inner = to_text(expr.operand, 7)
        text = f"not {inner}" if expr.op == "not" else f"-{inner}"
        return f"({text})" if parent_prec >= 4 else text
    if isinstance(expr, Call):
        return f"{expr.func}(" + ", ".join(to_text(a) for a in expr.args) + ")"
    prec = _PRECEDENCE[expr.op]
    # comparisons do not chain: parenthesize both sides at equal precedence
    lhs = to_text(expr.left, prec if expr.op in _CMP_OPS else prec - 1)
    rhs = to_text(expr.right, prec)
    text = f"{lhs} {expr.op} {rhs}"
    return f"({text})" if prec <= parent_prec else text


def _serialize_automaton(spec: AutomatonSpec, out: list[str]) -> None:
    mods = ""
    if spec.causality == "weak":
        mods += " weak"
    if spec.total:
        mods += " total"
    out.append(f"component {spec.name}{mods} {{")
    for ch in spec.interface.inputs:
        out.append(f"  input {ch.name} : {ch.ctype.to_text()}")
    for ch in spec.interface.outputs:
        init = spec.output_init.get(ch.name)
        suffix = f" init {literal_text(init)}" if ch.name in spec.output_init else ""
        out.append(f"  output {ch.name} : {ch.ctype.to_text()}{suffix}")
    for v in spec.variables:
        out.append(f"  var {v.name} : {v.dtype.to_text()} = {literal_text(v.init)}")
    out.append("  states " + ", ".join(
        s + (" init" if s == spec.initial else "") for s in spec.states))
    for t in spec.transitions:
        head = f"  transition {t.label + ': ' if t.label else ''}{t.source} -> {t.target}"
        if t.guard != TRUE:
            head += f" when {to_text(t.guard)}"
        assigns = [f"{n} := {to_text(e)}" for n, e in tuple(t.outputs) + tuple(t.updates)]
        if assigns:
            head += " { " + "; ".join(assigns) + " }"
        out.append(head)
    out.append("}")


def _serialize_composite(spec: CompositeSpec, out: list[str]) -> None:
    out.append(f"component {spec.name} {{")
    for ch in spec.interface.inputs:
        out.append(f"  input {ch.name} : {ch.ctype.to_text()}")
    for ch in spec.interface.outputs:
        out.append(f"  output {ch.name} : {ch.ctype.to_text()}")
    for name, sub in spec.subcomponents:
        out.append(f"  sub {name} : {sub.name}")
    for conn in spec.wiring:
        out.append(f"  connect {conn.producer} -> {conn.consumer}")
    out.append("}")


def serialize_model(doc: ModelDocument) -> str:
    """Render a document so that parse(serialize(doc)) is structurally doc."""
    out: list[str] = []
    for name, dtype in doc.types.items():
        out.append(f"type {name} = {dtype.to_text()}")
    emitted: set[int] = set()

    def emit_component(spec: ComponentSpec) -> None:
        if id(spec) in emitted:
            return
        if isinstance(spec, CompositeSpec):
            for _, sub in spec.subcomponents:
                emit_component(sub)
        emitted.add(id(spec))
        if out:
            out.append("")
        if isinstance(spec, AutomatonSpec):
            _serialize_automaton(spec, out)
        else:
            _serialize_composite(spec, out)

    for spec in doc.components.values():
        emit_component(spec)
    for rel in doc.relations.values():
        out.append("")
        if rel.expr is not None:
            out.append(f"relation {rel.name} {rel.side} when {to_text(rel.expr)}")
        else:
            out.append(f"relation {rel.name} {rel.side} checker {rel.checker.name}")
    for gal in doc.galois.values():
        out.append("")
        out.append(f"galois {gal.name} {{")
        if gal.abstract_component:
            out.append(f"  abstract {gal.abstract_component}")
        if gal.concrete_component:
            out.append(f"  concrete {gal.concrete_component}")
        for chan, e in gal.f_map:
            out.append(f"  map {chan} := {to_text(e)}")
        if gal.member is not None:
            out.append(f"  member {to_text(gal.member)}")
        if gal.universe is not None:
            out.append("  universe {")
            for chan, values in gal.universe.abstract + gal.universe.concrete:
                out.append(f"    {chan} in {{ " + ", ".join(literal_text(v) for v in values) + " }")
            out.append(f"    horizon {gal.universe.horizon}")
            out.append("  }")
        out.append("}")
    for conc in doc.concretizers.values():
        out.append("")
        out.append(f"concretizer {conc.name} {{")
        out.append(f"  component {conc.component.name}")
        for p in conc.params:
            out.append(f"  param {p.name} : {p.dtype.to_text()}")
        out.append("}")
    for ref in doc.refinements.values():
        out.append("")
        out.append(f"refinement {ref.name} {{")
        for attr in ("abstract", "concrete", "ri", "ro", "galois", "concretizer"):
            value = getattr(ref, attr)
            if value is not None:
                out.append(f"  {attr} {value}")
        out.append("}")
    return "\n".join(out) + ("\n" if out else "")
