import csv
import io
import json
import math
import random
import statistics
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from classmetrics import build_model
from classmetrics.metrics import MetricConfig, compute_rows
from classmetrics.report import (build_bundle, correlations, emit_chart,
                                 emit_model_xml, emit_sheet, format_fixed2,
                                 format_rational, pearson, sheet_cells)

import report_oracle as oracle
from conftest import FIXTURES, model_from_sources, parse_file, parse_source

ANY_CLASS = MetricConfig(moa_policy="any-class")

# Sets every optional attribute of model.xml: an abstract class with
# super, interfaces and visibility; an interface with extends; a field
# with visibility and array rank; methods that are abstract, bodyless,
# constructors, or have returns and new-types.
EVERY_ATTRIBUTE_SOURCE = """
public abstract class Shape extends Base implements Drawable, Named {
    protected static int[][] grid;
    private String label;
    public abstract double area();
    native void sync();
    Shape(int size) { super(); }
    Object copy(int depth, String[] names) {
        if (depth > 0 && names != null) { return new Box(depth); }
        return new Base();
    }
}
interface Drawable extends Named, Comparable { void draw(); }
"""

# Every character ElementTree escapes in an attribute, a lone surrogate
# (a character reference in XML, a `\udcff` escape in JSON) and a
# non-ASCII letter.
HOSTILE = 'a&b"<c>\t\n\r\udcff\u00e9'


def hostile_model():
    """EVERY_ATTRIBUTE_SOURCE with HOSTILE appended to every text value
    of model.xml and to the file path."""
    unit = parse_source(EVERY_ATTRIBUTE_SOURCE, f"d/{HOSTILE}.java")
    for decl in unit.type_decls:
        decl.name += HOSTILE
        decl.visibility += HOSTILE
        if decl.superclass_name:
            decl.superclass_name += HOSTILE
        decl.extended_interface_names.append(HOSTILE)
        decl.implemented_interface_names.append(HOSTILE)
        for f in decl.fields:
            f.name += HOSTILE
            f.declared_type_name += HOSTILE
            f.visibility += HOSTILE
        for m in decl.methods:
            m.name += HOSTILE
            m.parameter_type_names.append(HOSTILE)
            if m.return_type_name:
                m.return_type_name += HOSTILE
            if m.body is not None:
                m.body = m.body._replace(new_expression_type_names=[
                    *m.body.new_expression_type_names, HOSTILE])
    return build_model([unit])


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
    (-3, "-3"),
    (Fraction(-1, 200), "-0.005"),
    (Fraction(9, 2**19), "0.000017166137695312"),  # a tie at digit 15
])
def test_format_rational(value, expected):
    assert format_rational(value) == expected


@pytest.mark.parametrize("value, expected", [
    (Fraction(0), "0.00"),
    (Fraction(6), "6.00"),
    (Fraction(132, 5), "26.40"),
    (Fraction(34, 3), "11.33"),
    (7, "7.00"),
    (-3, "-3.00"),
    (Fraction(1, 200), "0.00"),
    (Fraction(3, 200), "0.02"),
    (Fraction(-5, 8), "-0.62"),
    (Fraction(-1, 200), "-0.00"),
])
def test_format_fixed2(value, expected):
    assert format_fixed2(value) == expected


# Ints, and Fractions with numerators up to 10**12 in magnitude and
# denominators up to 10**6; exact ties in the second decimal (k/8, k/200)
# and in the 15th significant digit (odd k/2**19 from k = 7 on), and
# negatives in [-1/200, 0), which round to "-0.00".
_RATIONALS = st.one_of(
    st.integers(-10**12, 10**12),
    st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**6)),
    st.builds(Fraction, st.integers(-10**12, 10**12),
              st.sampled_from([8, 200, 2**19])),
    st.integers(200, 10**6).flatmap(lambda d: st.integers(
        -(d // 200), -1).map(lambda n: Fraction(n, d))))


@settings(max_examples=200, deadline=None)
@given(_RATIONALS)
@example(Fraction(-1, 200))
@example(Fraction(1, 200))
@example(Fraction(3, 200))
@example(Fraction(-5, 8))
@example(Fraction(9, 2**19))
@example(-3)
def test_formats_match_the_decimal_oracle(value):
    assert format_fixed2(value) == oracle.format_fixed2(value)
    assert format_rational(value) == oracle.format_rational(value)


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


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.text(), st.integers()), max_size=40))
def test_json_sheet_of_any_cells_is_the_oracle_bytes(values):
    # Rows of 16 cells from the drawn values, the last one padded with 0.
    padded = values + [0] * (-len(values) % 16)
    cells = [padded[i:i + 16] for i in range(0, len(padded), 16)]
    assert emit_sheet([], "json", cells=cells) == oracle.sheet_json(cells)


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


# Fractions of magnitude at most 10**4 with denominators at most 1000,
# built from integers: st.fractions draws the same values far slower.
_NUMBERS = st.one_of(
    st.integers(-10**6, 10**6),
    st.integers(1, 1000).flatmap(lambda d: st.integers(
        -10**4 * d, 10**4 * d).map(lambda n: Fraction(n, d))))


def library_correlation(xs, ys):
    """statistics.correlation on the floats pearson sees; None for a
    constant input."""
    try:
        return statistics.correlation([float(x) for x in xs],
                                      [float(y) for y in ys])
    except statistics.StatisticsError:
        return None


def _bits(value):
    return None if value is None else value.hex()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_NUMBERS, _NUMBERS), min_size=2, max_size=40))
def test_pearson_is_the_library_correlation_bit_for_bit(pairs):
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    # An exactly constant input has no correlation, whatever its floats
    # give the library formula (see the 1/17 test below).
    constant = len(set(xs)) == 1 or len(set(ys)) == 1
    expected = None if constant else library_correlation(xs, ys)
    assert _bits(pearson(xs, ys)) == _bits(expected)


# An integer constant: its float mean is exact, so the library formula
# sees a zero variance too.
@settings(max_examples=50, deadline=None)
@given(st.integers(-10**6, 10**6), st.lists(_NUMBERS, min_size=2, max_size=20))
def test_pearson_of_a_constant_input_is_none(constant, values):
    same = [constant] * len(values)
    assert pearson(same, values) is None
    assert pearson(values, same) is None
    assert library_correlation(same, values) is None


def test_pearson_of_an_inexact_constant_is_none():
    # The float mean of 1/17 is inexact: the library formula gives a
    # tiny non-zero coefficient for this pair of lists.
    constant, values = [Fraction(1, 17)] * 11, [0] * 10 + [1]
    assert library_correlation(constant, values) not in (None, 0.0)
    assert pearson(constant, values) is None
    assert pearson(values, constant) is None


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
    data = emit_model_xml(build_model([]))
    root = ET.fromstring(data)
    assert root.tag == "model"
    assert len(root) == 0
    assert data == b"<?xml version='1.0' encoding='utf-8'?>\n<model />\n"


def test_xml_layout_is_elementtree_layout(fixture_paths):
    # Reading model.xml back and writing it with ElementTree (two-space
    # indent, `<x />` for empty elements) gives the same bytes.
    models = [build_model([parse_file(p) for p in fixture_paths]),
              model_from_sources("class A {}", "interface I { void f(); }",
                                 'class B { String s = "\\t"; int[] a; }'),
              model_from_sources(EVERY_ATTRIBUTE_SOURCE)]
    for model in models:
        data = emit_model_xml(model)
        root = ET.fromstring(data)
        ET.indent(root, space="  ")
        assert ET.tostring(root, encoding="utf-8",
                           xml_declaration=True) + b"\n" == data


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
    for model in (dlib_model, model_from_sources(EVERY_ATTRIBUTE_SOURCE)):
        text = emit_model_xml(model).decode("utf-8")
        for line in text.splitlines():
            if "<class " in line or "<method " in line or "<field " in line:
                names = [chunk.split("=")[0] for chunk in
                         line.strip().lstrip("<").rstrip("/>").split()[1:]]
                assert names == sorted(names), line


def test_every_attribute_source_sets_every_optional_attribute():
    root = ET.fromstring(
        emit_model_xml(model_from_sources(EVERY_ATTRIBUTE_SOURCE)))
    seen: dict[str, set[str]] = {}
    for element in root.iter():
        seen.setdefault(element.tag, set()).update(element.keys())
    assert seen["class"] == {"abstract", "extends", "file", "interfaces",
                             "kind", "name", "super", "visibility"}
    assert seen["field"] == {"name", "static", "type", "visibility"}
    assert seen["method"] == {
        "abstract", "bare-returns", "constructor", "decisions",
        "external-calls", "internal-calls", "name", "new-types", "params",
        "returns", "short-circuit-ops", "statements", "value-returns"}
    assert "int[][]" in [f.get("type") for f in root.iter("field")]
    bodyless = [m.get("name") for m in root.iter("method")
                if m.get("abstract") is None and m.get("decisions") is None]
    assert bodyless == ["sync"]


def test_xml_and_json_sheet_are_the_oracle_bytes(dlib_model):
    tolerant = build_model([parse_file(p) for p in
                            sorted((FIXTURES / "tolerant").glob("*.java"))])
    for model in (dlib_model, tolerant, hostile_model(),
                  model_from_sources(EVERY_ATTRIBUTE_SOURCE), build_model([])):
        assert emit_model_xml(model) == oracle.emit_model_xml(model)
        for cfg in (MetricConfig(), ANY_CLASS):
            rows = compute_rows(model, cfg)
            cells = [sheet_cells(row, cfg) for row in rows]
            assert emit_sheet(rows, "json", cfg) == oracle.sheet_json(cells)


def test_xml_escapes_hostile_file_path():
    # The exact bytes ElementTree writes for this path: entity and
    # character references for `&"<>`, tab, newline and carriage return,
    # and a character reference for the lone surrogate.
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
    rows[0] = rows[0]._replace(class_name="A<T>&B")
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
