"""Report emission: metric sheet (CSV/JSON), XML class model, Pearson
correlations and a grouped-bar SVG chart.

Every emitter is byte-deterministic for identical inputs: rationals are
rounded exactly (integer arithmetic for two decimals, one fixed decimal
context for significant digits), XML attributes are written in name
order, and the SVG is assembled by hand with fixed-precision coordinates.
"""

import csv
import io
import json
from decimal import ROUND_HALF_EVEN, Context
from fractions import Fraction
from math import fsum, sqrt
from typing import NamedTuple

from .metrics import DEFAULT_CONFIG, ClassMetricsRow, MetricConfig
from .model import ProjectModel

SHEET_COLUMNS = ["CT", "CL", "NM", "AVCC", "MOA", "IV", "EMC", "NS",
                 "NSB", "NPI", "NQ", "NCD", "WMC", "CMC", "CC", "CCC"]

SIGNIFICANT_DIGITS = 14  # of AVCC
# Each division sets this context's Inexact and Rounded flags, which
# nothing reads; no trap is enabled for either.
_SIGNIFICANT = Context(prec=SIGNIFICANT_DIGITS, rounding=ROUND_HALF_EVEN)


def format_rational(value: int | Fraction) -> str:
    """An int or Fraction in plain decimal with at most SIGNIFICANT_DIGITS
    digits and no trailing zeros ("1", "1.4", "1.2121212121212")."""
    if value.denominator == 1:
        return str(value.numerator)
    quotient = _SIGNIFICANT.divide(value.numerator, value.denominator)
    return format(_SIGNIFICANT.normalize(quotient), "f")


def format_fixed2(value: int | Fraction) -> str:
    """An int or Fraction to exactly two decimals, rounded half-to-even,
    e.g. "26.40"; a negative value keeps its sign ("-0.00")."""
    numerator, denominator = value.numerator, value.denominator
    if denominator == 1:
        return f"{numerator}.00"
    hundredths, rest = divmod(abs(numerator) * 100, denominator)
    if 2 * rest > denominator or (2 * rest == denominator and hundredths & 1):
        hundredths += 1
    whole, cents = divmod(hundredths, 100)
    return f"{'-' if numerator < 0 else ''}{whole}.{cents:02d}"


def sheet_cells(row: ClassMetricsRow,
                cfg: MetricConfig = DEFAULT_CONFIG) -> list[str | int]:
    """One row of the sheet: counts as ints, the rest as text."""
    return ["C" if row.class_kind == "class" else "I", row.class_name,
            row.nomt, format_rational(row.avcc), row.moa, row.iv, row.ext,
            row.nsup, row.nsub, row.pack, row.nqu, row.ncd,
            format_fixed2(row.wmc(cfg.wmc_mode)), format_fixed2(row.cmc),
            format_fixed2(row.cc), format_fixed2(row.ccc)]


# One sheet row as `json.dumps(record, indent=2)` lays it out inside the
# list, with a `%s` for each cell's JSON text.
_JSON_RECORD = "  {\n" + ",\n".join(
    f"    {json.dumps(column)}: %s" for column in SHEET_COLUMNS) + "\n  }"


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
        records = ",\n".join(
            _JSON_RECORD % tuple(json.dumps(cell) if isinstance(cell, str)
                                 else repr(cell) for cell in row_cells)
            for row_cells in cells)
        return f"[\n{records}\n]\n" if cells else "[]\n"
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


def _optional(key: str, value: str | list[str] | None) -> str:
    """` key="value"`, a list joined by commas; nothing if `value` is empty."""
    if not value:
        return ""
    if not isinstance(value, str):
        value = ",".join(value)
    return f' {key}="{_escape(value)}"'


def emit_model_xml(model: ProjectModel) -> bytes:
    """Declarations as `class` elements holding `field` and `method`.
    Each element's attributes are written in name order; every text
    value is escaped, counts and `true`/`false` flags need no escaping."""
    lines = []
    for decl in model.ordered_decls():
        members = []
        for f in decl.fields:
            members.append(
                f'    <field name="{_escape(f.name)}"'
                f' static="{"true" if f.is_static else "false"}"'
                f' type="{_escape(f.declared_type_name)}{"[]" * f.array_rank}"'
                f'{_optional("visibility", f.visibility)} />')
        for m in decl.methods:
            body = m.body
            abstract = ' abstract="true"' if m.is_abstract else ""
            constructor = ' constructor="true"' if m.is_constructor else ""
            new_types = ("" if body is None else
                         _optional("new-types", body.new_expression_type_names))
            returns = ("" if m.is_constructor
                       else _optional("returns", m.return_type_name))
            named = (f' name="{_escape(m.name)}"{new_types}'
                     f' params="{_escape(",".join(m.parameter_type_names))}"'
                     f'{returns}')
            if body is None:
                members.append(
                    f"    <method{abstract}{constructor}{named} />")
            else:
                members.append(
                    f'    <method{abstract}'
                    f' bare-returns="{body.bare_return_count}"{constructor}'
                    f' decisions="{body.decision_point_count}"'
                    f' external-calls="{body.external_call_count}"'
                    f' internal-calls="{body.internal_call_count}"{named}'
                    f' short-circuit-ops="{body.short_circuit_count}"'
                    f' statements="{body.statement_count}"'
                    f' value-returns="{body.value_return_count}" />')
        abstract = (' abstract="true"'
                    if decl.is_abstract and decl.kind == "class" else "")
        lines.append(
            f'  <class{abstract}'
            f'{_optional("extends", decl.extended_interface_names)}'
            f' file="{_escape(decl.unit_path)}"'
            f'{_optional("interfaces", decl.implemented_interface_names)}'
            f' kind="{_escape(decl.kind)}"'
            f' name="{_escape(model.display_name_of(decl))}"'
            f'{_optional("super", decl.superclass_name)}'
            f'{_optional("visibility", decl.visibility)}'
            + (">" if members else " />"))
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

    values = [(float(row.wmc(cfg.wmc_mode)), float(row.cmc),
               float(row.cc), float(row.ccc)) for row in rows]
    peak = max((v for row_values in values for v in row_values), default=0.0)
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

    for gi, (row, row_values) in enumerate(zip(rows, values)):
        group_x = margin_left + gi * group_width
        parts.append(
            f'<g class="group" data-class="{_escape(row.class_name)}">')
        for bi, ((series, color), value) in enumerate(
                zip(_SERIES, row_values)):
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
