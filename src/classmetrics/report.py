"""Report emission: metric sheet (CSV/JSON), XML class model, Pearson
correlations and a grouped-bar SVG chart.

Every emitter is byte-deterministic for identical inputs: rationals are
rendered through decimal arithmetic, XML attributes are sorted, and the
SVG is assembled by hand with fixed-precision coordinates.
"""

import csv
import io
import json
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from math import fsum, sqrt
from typing import NamedTuple

from .metrics import DEFAULT_CONFIG, ClassMetricsRow, MetricConfig
from .model import ProjectModel

SHEET_COLUMNS = ["CT", "CL", "NM", "AVCC", "MOA", "IV", "EMC", "NS",
                 "NSB", "NPI", "NQ", "NCD", "WMC", "CMC", "CC", "CCC"]


def format_rational(value: Fraction, significant_digits: int = 14) -> str:
    """Plain decimal rendering with at most `significant_digits` digits
    and no trailing zeros ("1", "1.4", "1.2121212121212")."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    with localcontext() as ctx:
        ctx.prec = significant_digits
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
    return format(quotient.normalize(), "f")


def format_fixed2(value) -> str:
    """Exact two-decimal rendering (banker's rounding), e.g. "26.40"."""
    value = Fraction(value)
    with localcontext() as ctx:
        ctx.prec = 50
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
        return str(quotient.quantize(Decimal("0.01"), rounding=ROUND_HALF_EVEN))


def sheet_cells(row: ClassMetricsRow,
                cfg: MetricConfig = DEFAULT_CONFIG) -> list[str | int]:
    """One row of the sheet: counts as ints, the rest as text."""
    return [
        "C" if row.class_kind == "class" else "I",
        row.class_name,
        row.nomt,
        format_rational(row.avcc),
        row.moa,
        row.iv,
        row.ext,
        row.nsup,
        row.nsub,
        row.pack,
        row.nqu,
        row.ncd,
        format_fixed2(row.wmc(cfg.wmc_mode)),
        format_fixed2(row.cmc),
        format_fixed2(row.cc),
        format_fixed2(row.ccc),
    ]


def emit_sheet(rows: list[ClassMetricsRow], format: str = "csv",
               cfg: MetricConfig = DEFAULT_CONFIG,
               cells: list[list[str | int]] | None = None) -> str:
    """The metric sheet in `format`. `cells` holds each row's sheet_cells
    when the caller has them already; otherwise they are computed here."""
    if cells is None:
        cells = [sheet_cells(row, cfg) for row in rows]
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(SHEET_COLUMNS)
        writer.writerows(cells)
        return out.getvalue()
    if format == "json":
        records = [dict(zip(SHEET_COLUMNS, row_cells)) for row_cells in cells]
        return json.dumps(records, indent=2) + "\n"
    raise ValueError(f"unknown sheet format: {format!r}")


def pearson(xs, ys) -> float | None:
    """Sample Pearson coefficient; None when either input is constant
    or a variance is zero in floating point."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError("need at least two points")
    # Tested on the exact values: the float mean of a constant such as
    # 1/17 is inexact, which would leave a tiny variance.
    if len(set(xs)) == 1 or len(set(ys)) == 1:
        return None
    # The standard library's correlation formula of Python 3.11, step for
    # step, so the floats do not depend on the interpreter's version.
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    n = len(xs)
    x_mean = fsum(xs) / n
    y_mean = fsum(ys) / n
    sxy = fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    sxx = fsum((d := x - x_mean) * d for x in xs)
    syy = fsum((d := y - y_mean) * d for y in ys)
    try:
        return sxy / sqrt(sxx * syy)
    except ZeroDivisionError:
        return None


def correlations(
        rows: list[ClassMetricsRow],
        cfg: MetricConfig = DEFAULT_CONFIG) -> dict[str, float | None]:
    if len(rows) < 2:
        return {"WMC": None, "CMC": None, "CC": None}
    ccc = [row.ccc for row in rows]
    return {
        "WMC": pearson(ccc, [row.wmc(cfg.wmc_mode) for row in rows]),
        "CMC": pearson(ccc, [row.cmc for row in rows]),
        "CC": pearson(ccc, [row.cc for row in rows]),
    }


# ---------------------------------------------------------------------------
# XML model dump


def _escape(text: str) -> str:
    """Escape `&<>"`, carriage return, line feed and tab as ElementTree
    does in an attribute value; also safe for character data."""
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;")
            .replace("\r", "&#13;").replace("\n", "&#10;")
            .replace("\t", "&#09;"))


def _tag(name: str, attrs: dict[str, str], end: str = " />") -> str:
    """`<name`, its attributes sorted by name, then `end`."""
    return f"<{name}" + "".join(f' {key}="{_escape(value)}"'
                                for key, value in sorted(attrs.items())) + end


def emit_model_xml(model: ProjectModel) -> bytes:
    """Declarations as `class` elements holding `field` and `method`."""
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


# ---------------------------------------------------------------------------
# SVG chart


_SERIES = [("WMC", "#4878a8"), ("CMC", "#e49444"),
           ("CC", "#5ba053"), ("CCC", "#d1605e")]


def emit_chart(rows: list[ClassMetricsRow],
               cfg: MetricConfig = DEFAULT_CONFIG) -> str:
    """Grouped bars (WMC, CMC, CC, CCC) per class, deterministic layout."""
    margin_left, margin_right = 70, 150
    margin_top, margin_bottom = 40, 120
    group_width = 72
    bar_width = 14
    plot_height = 260

    n = len(rows)
    plot_width = max(1, n) * group_width
    width = margin_left + plot_width + margin_right
    height = margin_top + plot_height + margin_bottom

    def values_of(row):
        return [float(row.wmc(cfg.wmc_mode)), float(row.cmc),
                float(row.cc), float(row.ccc)]

    peak = max((v for row in rows for v in values_of(row)), default=0.0)
    scale_max = peak if peak > 0 else 1.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{margin_left}" y="24" font-family="sans-serif" '
        f'font-size="16">Metric comparison</text>',
    ]

    # horizontal gridlines with tick labels
    for i in range(6):
        value = scale_max * i / 5
        y = margin_top + plot_height - plot_height * i / 5
        parts.append(
            f'<line x1="{margin_left}" y1="{y:.2f}" '
            f'x2="{margin_left + plot_width}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(
            f'<text x="{margin_left - 8}" y="{y + 4:.2f}" '
            f'font-family="sans-serif" font-size="11" '
            f'text-anchor="end">{value:.2f}</text>')

    for gi, row in enumerate(rows):
        group_x = margin_left + gi * group_width
        parts.append(
            f'<g class="group" data-class="{_escape(row.class_name)}">')
        for bi, ((series, color), value) in enumerate(
                zip(_SERIES, values_of(row))):
            bar_height = plot_height * value / scale_max
            x = group_x + 6 + bi * (bar_width + 2)
            y = margin_top + plot_height - bar_height
            parts.append(
                f'<rect class="bar bar-{series.lower()}" x="{x:.2f}" '
                f'y="{y:.2f}" width="{bar_width}" '
                f'height="{bar_height:.2f}" fill="{color}"/>')
        label_x = group_x + group_width / 2
        label_y = margin_top + plot_height + 14
        parts.append(
            f'<text x="{label_x:.2f}" y="{label_y:.2f}" '
            f'font-family="sans-serif" font-size="11" text-anchor="end" '
            f'transform="rotate(-40 {label_x:.2f} {label_y:.2f})">'
            f'{_escape(row.class_name)}</text>')
        parts.append('</g>')

    # axes
    parts.append(
        f'<line x1="{margin_left}" y1="{margin_top}" x2="{margin_left}" '
        f'y2="{margin_top + plot_height}" stroke="black" stroke-width="1"/>')
    parts.append(
        f'<line x1="{margin_left}" y1="{margin_top + plot_height}" '
        f'x2="{margin_left + plot_width}" y2="{margin_top + plot_height}" '
        f'stroke="black" stroke-width="1"/>')

    # legend
    legend_x = margin_left + plot_width + 20
    for i, (series, color) in enumerate(_SERIES):
        y = margin_top + 10 + i * 22
        parts.append(
            f'<rect class="legend-swatch" x="{legend_x}" y="{y}" '
            f'width="14" height="14" fill="{color}"/>')
        parts.append(
            f'<text x="{legend_x + 20}" y="{y + 12}" '
            f'font-family="sans-serif" font-size="12">{series}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Bundle


class ReportBundle(NamedTuple):
    files: dict[str, bytes]  # file name -> the exact bytes to write
    correlations: dict[str, float | None]


def build_bundle(model: ProjectModel, rows: list[ClassMetricsRow],
                 cfg: MetricConfig = DEFAULT_CONFIG,
                 formats: tuple[str, ...] = ("csv", "json"),
                 cells: list[list[str | int]] | None = None) -> ReportBundle:
    """Render model.xml, metrics.<fmt> for each of `formats` and
    chart.svg. `cells` is passed on to emit_sheet."""
    files = {"model.xml": emit_model_xml(model)}
    for fmt in formats:
        files[f"metrics.{fmt}"] = emit_sheet(rows, fmt, cfg, cells).encode()
    files["chart.svg"] = emit_chart(rows, cfg).encode()
    return ReportBundle(files, correlations(rows, cfg))
