"""Report emission: metric sheet (CSV/JSON), XML class model, Pearson
correlations and a grouped-bar SVG chart.

Every emitter is byte-deterministic for identical inputs: rationals are
rendered through decimal arithmetic, XML attributes are sorted, and the
SVG is assembled by hand with fixed-precision coordinates.
"""

import csv
import io
import json
import statistics
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

from .metrics import ClassMetricsRow, MetricConfig
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
    text = format(quotient.normalize(), "f")
    return text


def format_fixed2(value) -> str:
    """Exact two-decimal rendering (banker's rounding), e.g. "26.40"."""
    value = Fraction(value)
    with localcontext() as ctx:
        ctx.prec = 50
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
        return str(quotient.quantize(Decimal("0.01"), rounding=ROUND_HALF_EVEN))


def sheet_cells(row: ClassMetricsRow,
                cfg: MetricConfig | None = None) -> list[str | int]:
    """One row of the sheet: counts as ints, the rest as text."""
    cfg = cfg or MetricConfig()
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
               cfg: MetricConfig | None = None,
               cells: list[list[str | int]] | None = None) -> str:
    """The metric sheet in `format`. `cells` holds each row's sheet_cells
    when the caller has them already; otherwise they are computed here."""
    if cells is None:
        cfg = cfg or MetricConfig()
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
    """Sample Pearson coefficient; None when a variance is zero."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError("need at least two points")
    try:
        return statistics.correlation([float(x) for x in xs],
                                      [float(y) for y in ys])
    except statistics.StatisticsError:
        return None


def correlations(rows: list[ClassMetricsRow],
                 cfg: MetricConfig | None = None) -> dict[str, float | None]:
    cfg = cfg or MetricConfig()
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


def emit_model_xml(model: ProjectModel) -> bytes:
    root = ET.Element("model")
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
        cls_el = ET.SubElement(root, "class", dict(sorted(attrs.items())))
        for f in decl.fields:
            f_attrs = {
                "name": f.name,
                "type": f.declared_type_name + "[]" * f.array_rank,
                "static": "true" if f.is_static else "false",
            }
            if f.visibility:
                f_attrs["visibility"] = f.visibility
            ET.SubElement(cls_el, "field", dict(sorted(f_attrs.items())))
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
            ET.SubElement(cls_el, "method", dict(sorted(m_attrs.items())))
    tree = ET.ElementTree(root)
    ET.indent(tree, space="  ")
    return ET.tostring(root, encoding="utf-8", xml_declaration=True) + b"\n"


# ---------------------------------------------------------------------------
# SVG chart


def _escape(text: str) -> str:
    """Escape &, < and > for XML character data."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


_SERIES = [("WMC", "#4878a8"), ("CMC", "#e49444"),
           ("CC", "#5ba053"), ("CCC", "#d1605e")]


def emit_chart(rows: list[ClassMetricsRow],
               cfg: MetricConfig | None = None) -> str:
    """Grouped bars (WMC, CMC, CC, CCC) per class, deterministic layout."""
    cfg = cfg or MetricConfig()
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


@dataclass
class ReportBundle:
    files: dict[str, bytes]  # file name -> the exact bytes to write
    correlations: dict[str, float | None]


def build_bundle(model: ProjectModel, rows: list[ClassMetricsRow],
                 cfg: MetricConfig | None = None,
                 formats: tuple[str, ...] = ("csv", "json"),
                 cells: list[list[str | int]] | None = None) -> ReportBundle:
    """Render model.xml, metrics.<fmt> for each of `formats` and
    chart.svg. `cells` is passed on to emit_sheet."""
    cfg = cfg or MetricConfig()
    files = {"model.xml": emit_model_xml(model)}
    for fmt in formats:
        files[f"metrics.{fmt}"] = emit_sheet(rows, fmt, cfg, cells).encode()
    files["chart.svg"] = emit_chart(rows, cfg).encode()
    return ReportBundle(files, correlations(rows, cfg))
