import csv
import io
import json
import math
import random
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from classmetrics import build_model
from classmetrics.metrics import MetricConfig, compute_rows
from classmetrics.report import (build_bundle, correlations, emit_chart,
                                 emit_model_xml, emit_sheet, format_fixed2,
                                 format_rational, pearson)

from conftest import model_from_sources, parse_source

ANY_CLASS = MetricConfig(moa_policy="any-class")


def oracle_pearson(xs, ys):
    """Independent route: exact rational sums, one final sqrt."""
    xs = [Fraction(x) for x in xs]
    ys = [Fraction(y) for y in ys]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        return None
    return float(cov) / math.sqrt(float(var_x) * float(var_y))


# ---------------------------------------------------------------------------
# rendering helpers


@pytest.mark.parametrize("value, expected", [
    (Fraction(1), "1"),
    (Fraction(0), "0"),
    (Fraction(7, 5), "1.4"),
    (Fraction(4, 3), "1.3333333333333"),
    (Fraction(40, 33), "1.2121212121212"),
    (Fraction(72, 23), "3.1304347826087"),
])
def test_format_rational(value, expected):
    assert format_rational(value) == expected


@pytest.mark.parametrize("value, expected", [
    (Fraction(0), "0.00"),
    (Fraction(6), "6.00"),
    (Fraction(132, 5), "26.40"),
    (Fraction(34, 3), "11.33"),
])
def test_format_fixed2(value, expected):
    assert format_fixed2(value) == expected


# ---------------------------------------------------------------------------
# sheet


def test_csv_header_exact():
    sheet = emit_sheet([], "csv")
    assert sheet == "CT,CL,NM,AVCC,MOA,IV,EMC,NS,NSB,NPI,NQ,NCD,WMC,CMC,CC,CCC\n"


def test_empty_class_csv_row():
    model = model_from_sources("class A {}")
    rows = compute_rows(model)
    sheet = emit_sheet(rows, "csv")
    assert sheet.splitlines()[1] == "C,A,0,0,0,0,0,0,0,0,0,0,0.00,0.00,0.00,0.00"


def test_namedb_csv_row(dlib_model):
    rows = [row for row in compute_rows(dlib_model, ANY_CLASS)
            if row.class_name == "NameDB"]
    sheet = emit_sheet(rows, "csv", ANY_CLASS)
    assert sheet.splitlines()[1] == \
        "C,NameDB,6,1,1,1,8,2,0,1,3,3,6.00,6.00,7.00,22.00"


def test_json_rows_keyed_by_columns(dlib_model):
    rows = compute_rows(dlib_model, ANY_CLASS)
    records = json.loads(emit_sheet(rows, "json", ANY_CLASS))
    assert len(records) == 18
    namedb = next(r for r in records if r["CL"] == "NameDB")
    assert namedb["CT"] == "C"
    assert namedb["NM"] == 6
    assert namedb["AVCC"] == "1"
    assert namedb["NPI"] == 1
    assert namedb["CCC"] == "22.00"


def test_csv_round_trip_recomputes_ccc(dlib_model):
    # The pinned column set (like the original sheet layout) carries no
    # INTR column, so the CSV sum comes up short by exactly INTR.
    rows = {row.class_name: row for row in compute_rows(dlib_model, ANY_CLASS)}
    sheet = emit_sheet(list(rows.values()), "csv", ANY_CLASS)
    for record in csv.DictReader(io.StringIO(sheet)):
        total = (Fraction(record["NM"]) + Fraction(record["AVCC"])
                 + Fraction(record["MOA"]) + Fraction(record["EMC"])
                 + Fraction(record["NS"]) + Fraction(record["NSB"])
                 + Fraction(record["NPI"]) + Fraction(record["NQ"]))
        intr = rows[record["CL"]].intr
        assert format_fixed2(total + intr) == record["CCC"]
        if intr == 0:
            assert format_fixed2(total) == record["CCC"]


def test_sheet_rows_follow_file_then_declaration_order():
    model = model_from_sources(
        "class Z {} class A {}",  # src0.java: declaration order kept
        "class M {}",             # src1.java
    )
    names = [row.class_name for row in compute_rows(model)]
    assert names == ["Z", "A", "M"]


# ---------------------------------------------------------------------------
# pearson


def test_pearson_perfect_self_correlation():
    assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)


def test_pearson_perfect_anticorrelation():
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_against_independent_oracle():
    xs, ys = [1, 2, 3, 4], [1, 3, 2, 5]
    expected = oracle_pearson(xs, ys)
    assert expected == pytest.approx(0.8315218406202999, abs=1e-15)
    assert pearson(xs, ys) == pytest.approx(expected, abs=1e-12)


def test_pearson_matches_oracle_on_random_data():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(2, 12)
        xs = [rng.randint(-50, 50) for _ in range(n)]
        ys = [rng.randint(-50, 50) for _ in range(n)]
        expected = oracle_pearson(xs, ys)
        actual = pearson(xs, ys)
        if expected is None:
            assert actual is None
        else:
            assert actual == pytest.approx(expected, abs=1e-12)


def test_pearson_linearity():
    rng = random.Random(8)
    xs = [rng.random() * 10 for _ in range(20)]
    assert pearson(xs, [3 * x + 2 for x in xs]) == pytest.approx(1.0, abs=1e-12)
    assert pearson(xs, [-0.5 * x + 1 for x in xs]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_zero_variance_is_undefined():
    assert pearson([1, 1, 1], [1, 2, 3]) is None


def test_pearson_argument_errors():
    with pytest.raises(ValueError):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        pearson([1], [1])


def test_correlations_on_dlib(dlib_model):
    rows = compute_rows(dlib_model, ANY_CLASS)
    corr = correlations(rows, ANY_CLASS)
    assert set(corr) == {"WMC", "CMC", "CC"}
    for value in corr.values():
        assert value is not None and -1.0 <= value <= 1.0
    assert corr["CMC"] > 0


# ---------------------------------------------------------------------------
# XML


def test_xml_empty_model():
    root = ET.fromstring(emit_model_xml(build_model([])))
    assert root.tag == "model"
    assert len(root) == 0


def test_xml_single_empty_class():
    model = model_from_sources("class A {}")
    root = ET.fromstring(emit_model_xml(model))
    [cls] = list(root)
    assert cls.tag == "class"
    assert cls.get("name") == "A" and cls.get("kind") == "class"
    assert len(cls) == 0


def test_xml_dlib_has_18_class_elements(dlib_model):
    root = ET.fromstring(emit_model_xml(dlib_model))
    classes = root.findall("class")
    assert len(classes) == 18
    kinds = [c.get("kind") for c in classes]
    assert kinds.count("interface") == 2
    namedb = next(c for c in classes if c.get("name") == "NameDB")
    assert namedb.get("super") == "NamedObject"
    methods = namedb.findall("method")
    assert len(methods) == 6
    assert methods[0].get("constructor") == "true"
    assert methods[0].get("external-calls") == "1"


def test_xml_attributes_sorted(dlib_model):
    text = emit_model_xml(dlib_model).decode("utf-8")
    for line in text.splitlines():
        if "<class " in line or "<method " in line or "<field " in line:
            names = [chunk.split("=")[0]
                     for chunk in line.strip().lstrip("<").rstrip("/>").split()[1:]]
            assert names == sorted(names), line


def test_xml_escapes_hostile_file_path():
    # The exact bytes ElementTree writes today; a hand-written model.xml
    # writer has to reproduce them.
    path = 'd/a&b"<c>\t\n\r\udcff\u00e9.java'
    model = build_model([parse_source("class A { int x; }", path)])
    assert emit_model_xml(model) == (
        b"<?xml version='1.0' encoding='utf-8'?>\n<model>\n"
        b'  <class file="d/a&amp;b&quot;&lt;c&gt;&#09;&#10;&#13;&#56575;'
        b'\xc3\xa9.java" kind="class" name="A">\n'
        b'    <field name="x" static="false" type="int" />\n'
        b"  </class>\n</model>\n")


# ---------------------------------------------------------------------------
# chart


def test_chart_empty_rows_still_valid_svg():
    svg = emit_chart([])
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    ET.fromstring(svg)  # well-formed
    assert svg.count('class="group"') == 0


def test_chart_one_class_four_bars():
    model = model_from_sources("class A { void f() { g(); } }")
    svg = emit_chart(compute_rows(model))
    assert svg.count('class="group"') == 1
    assert svg.count('class="bar ') == 4
    for series in ("WMC", "CMC", "CC", "CCC"):
        assert f">{series}</text>" in svg


def test_chart_dlib_has_18_groups(dlib_model):
    svg = emit_chart(compute_rows(dlib_model, ANY_CLASS), ANY_CLASS)
    assert svg.count('class="group"') == 18
    assert svg.count('class="bar ') == 72
    ET.fromstring(svg)


def test_chart_ccc_bar_tallest_where_ext_dominates(dlib_model):
    rows = compute_rows(dlib_model, ANY_CLASS)
    console = next(r for r in rows if r.class_name == "ConsoleWindow")
    values = [console.wmc("unity"), console.cmc, console.cc, console.ccc]
    assert max(values) == console.ccc
    svg = emit_chart(rows, ANY_CLASS)
    console_group = next(
        chunk for chunk in svg.split('<g class="group"')
        if 'data-class="ConsoleWindow"' in chunk)
    heights = [float(part.split('"')[0])
               for part in console_group.split('height="')[1:5]]
    assert heights[3] == max(heights)


def test_chart_escapes_class_names():
    model = model_from_sources("class A { }")
    rows = compute_rows(model)
    rows[0].class_name = "A<T>&B"
    svg = emit_chart(rows)
    assert 'data-class="A&lt;T&gt;&amp;B"' in svg
    assert ">A&lt;T&gt;&amp;B</text>" in svg
    assert ET.fromstring(svg).find(".//{*}g").get("data-class") == "A<T>&B"


# ---------------------------------------------------------------------------
# determinism


def test_all_emitters_byte_deterministic(dlib_model):
    rows = compute_rows(dlib_model, ANY_CLASS)
    first = build_bundle(dlib_model, rows, ANY_CLASS)
    second = build_bundle(dlib_model, rows, ANY_CLASS)
    assert sorted(first.files) == ["chart.svg", "metrics.csv",
                                   "metrics.json", "model.xml"]
    for name, data in first.files.items():
        assert data == second.files[name], name


def test_bundle_renders_only_requested_formats(dlib_model):
    rows = compute_rows(dlib_model, ANY_CLASS)
    full = build_bundle(dlib_model, rows, ANY_CLASS)
    for fmt in ("csv", "json"):
        assert full.files[f"metrics.{fmt}"] == emit_sheet(
            rows, fmt, ANY_CLASS).encode()
    csv_only = build_bundle(dlib_model, rows, ANY_CLASS, formats=("csv",))
    assert csv_only.files["metrics.csv"] == full.files["metrics.csv"]
    assert "metrics.json" not in csv_only.files
    json_only = build_bundle(dlib_model, rows, ANY_CLASS, formats=("json",))
    assert json_only.files["metrics.json"] == full.files["metrics.json"]
    assert "metrics.csv" not in json_only.files
