"""Reference renderers: the number formats through decimal arithmetic,
the XML model with each element's attributes gathered in a dict and
sorted, and the JSON sheet through `json.dumps(records, indent=2)`. The
renderers in `classmetrics.report` must give the same text and bytes;
tests/test_report.py checks that."""

import json
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

from classmetrics.model import ProjectModel
from classmetrics.report import SHEET_COLUMNS


def format_rational(value) -> str:
    """At most 14 significant digits, no trailing zeros, no exponent."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    with localcontext() as ctx:
        ctx.prec = 14
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
    return format(quotient.normalize(), "f")


def format_fixed2(value) -> str:
    """Two decimals, rounded half-to-even."""
    value = Fraction(value)
    with localcontext() as ctx:
        ctx.prec = 50
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
        return str(quotient.quantize(Decimal("0.01"), rounding=ROUND_HALF_EVEN))


def sheet_json(cells: list[list[str | int]]) -> str:
    records = [dict(zip(SHEET_COLUMNS, row_cells)) for row_cells in cells]
    return json.dumps(records, indent=2) + "\n"


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;")
            .replace("\r", "&#13;").replace("\n", "&#10;")
            .replace("\t", "&#09;"))


def _tag(name: str, attrs: dict[str, str], end: str = " />") -> str:
    """`<name`, its attributes sorted by name, then `end`."""
    return f"<{name}" + "".join(f' {key}="{_escape(value)}"'
                                for key, value in sorted(attrs.items())) + end


def emit_model_xml(model: ProjectModel) -> bytes:
    lines = []
    for decl in model.ordered_decls():
        attrs = {
            "kind": decl.kind,
            "name": model.display_name_of(decl),
            "file": decl.unit_path,
        }
        if decl.visibility:
            attrs["visibility"] = decl.visibility
        if decl.is_abstract and decl.kind == "class":
            attrs["abstract"] = "true"
        if decl.superclass_name:
            attrs["super"] = decl.superclass_name
        if decl.extended_interface_names:
            attrs["extends"] = ",".join(decl.extended_interface_names)
        if decl.implemented_interface_names:
            attrs["interfaces"] = ",".join(decl.implemented_interface_names)
        members = []
        for f in decl.fields:
            f_attrs = {
                "name": f.name,
                "type": f.declared_type_name + "[]" * f.array_rank,
                "static": "true" if f.is_static else "false",
            }
            if f.visibility:
                f_attrs["visibility"] = f.visibility
            members.append("    " + _tag("field", f_attrs))
        for m in decl.methods:
            m_attrs = {
                "name": m.name,
                "params": ",".join(m.parameter_type_names),
            }
            if m.is_constructor:
                m_attrs["constructor"] = "true"
            elif m.return_type_name:
                m_attrs["returns"] = m.return_type_name
            if m.is_abstract:
                m_attrs["abstract"] = "true"
            if m.body is not None:
                body = m.body
                m_attrs.update({
                    "decisions": str(body.decision_point_count),
                    "short-circuit-ops": str(body.short_circuit_count),
                    "value-returns": str(body.value_return_count),
                    "bare-returns": str(body.bare_return_count),
                    "external-calls": str(body.external_call_count),
                    "internal-calls": str(body.internal_call_count),
                    "statements": str(body.statement_count),
                })
                if body.new_expression_type_names:
                    m_attrs["new-types"] = ",".join(
                        body.new_expression_type_names)
            members.append("    " + _tag("method", m_attrs))
        lines.append("  " + _tag("class", attrs, ">" if members else " />"))
        if members:
            lines += [*members, "  </class>"]
    root = ["<model>", *lines, "</model>"] if lines else ["<model />"]
    return "\n".join(["<?xml version='1.0' encoding='utf-8'?>", *root, ""]
                     ).encode("utf-8", "xmlcharrefreplace")
