import random
from fractions import Fraction

import pytest

from classmetrics.metrics import (MetricConfig, ccc_value, compute_row,
                                  compute_rows, method_cyclomatic)
from classmetrics.model import build_model
from classmetrics.parser import (BodyFacts, ClassDecl, CompilationUnit,
                                 FieldDecl, MethodDecl)
from classmetrics.report import format_fixed2

from conftest import model_from_sources
from synth import random_project

ANY_CLASS = MetricConfig(moa_policy="any-class")


def method_with(decisions=0, short_circuits=0):
    return MethodDecl(name="m", return_type_name="void",
                      body=BodyFacts(decision_point_count=decisions,
                                     short_circuit_count=short_circuits))


def row_for(model, name, cfg=MetricConfig()):
    decl = next(d for d in model.ordered_decls()
                if model.display_name_of(d) == name)
    return compute_row(decl, model, cfg)


def lone_row(decl, cfg=MetricConfig()):
    """The row of `decl` as the only class of a one-file model."""
    model = build_model([CompilationUnit(decl.unit_path, type_decls=[decl])])
    return compute_row(decl, model, cfg)


# ---------------------------------------------------------------------------
# method_cyclomatic


def test_straight_line_method_is_one():
    assert method_cyclomatic(method_with(decisions=0)) == 1


def test_if_plus_while_is_three():
    assert method_cyclomatic(method_with(decisions=2)) == 3


def test_bodyless_method_is_one_path():
    abstract = MethodDecl(name="m", return_type_name="int", is_abstract=True)
    assert method_cyclomatic(abstract) == 1


def test_short_circuit_flag_adds_operands():
    method = method_with(decisions=1, short_circuits=2)
    assert method_cyclomatic(method) == 2
    assert method_cyclomatic(
        method, MetricConfig(count_short_circuit=True)) == 4


# ---------------------------------------------------------------------------
# NameDB row (the worked example) and friends


def test_namedb_full_row_any_class(dlib_model):
    row = row_for(dlib_model, "NameDB", ANY_CLASS)
    assert row.nomt == 6
    assert row.avcc == 1
    assert row.moa == 1
    assert row.iv == 1
    assert row.ext == 8
    assert row.nsup == 2
    assert row.nsub == 0
    assert row.intr == 0
    assert row.pack == 1
    assert row.nqu == 3
    assert row.ncd == 3
    weighted = row_for(dlib_model, "NameDB",
                       ANY_CLASS._replace(wmc_mode="weighted"))
    assert row.wmc == 6 and weighted.wmc == 6
    assert row.cmc == 6
    assert row.cc == 7
    assert row.ccc == 22


def test_namedb_project_policy_drops_library_moa(dlib_model):
    row = row_for(dlib_model, "NameDB", MetricConfig(moa_policy="project"))
    assert row.moa == 0
    assert row.ccc == 21


def test_unknown_moa_policy_fails_before_any_field_is_read():
    # No field of A has a class type, so the policy is never consulted
    # per field; compute_row still refuses it up front.
    model = model_from_sources("class A { int x; void f() { } }")
    with pytest.raises(ValueError, match="unknown MOA policy: 'bogus'"):
        compute_rows(model, MetricConfig(moa_policy="bogus"))


def test_empty_class_row_is_all_zero():
    model = model_from_sources("class A {}")
    row = row_for(model, "A")
    assert (row.nomt, row.moa, row.iv, row.ext, row.nsup, row.nsub,
            row.intr, row.pack, row.nqu, row.ncd) == (0,) * 10
    assert row.avcc == 0 and row.ccc == 0
    assert row.wmc == 0 and row.cmc == 0 and row.cc == 0


def test_interface_row_counts_bodyless_methods(dlib_model):
    row = row_for(dlib_model, "CompareFunction")
    assert row.class_kind == "interface"
    assert row.nomt == 1 and row.avcc == 1
    assert row.intr == 0
    assert row.ccc == 2


def test_constructor_exclusion_flag(dlib_model):
    no_ctor = MetricConfig(moa_policy="any-class", count_constructors=False)
    row = row_for(dlib_model, "NameDB", no_ctor)
    assert row.nomt == 5
    assert row.ext == 7  # super(name) no longer aggregated
    assert row.ncd == 2


# ---------------------------------------------------------------------------
# ccc / wmc / cmc / cc operations: each is a field of the row


def test_ccc_zero():
    assert ccc_value(0, 0, 0) == 0
    assert lone_row(ClassDecl(name="E", kind="class")).ccc == 0


def test_ccc_namedb_arithmetic(dlib_model):
    # NOMT 6, MOA 1, EXT 8, NSUP 2, NSUB 0, INTR 0, PACK 1, NQU 3; AVCC 6/6
    assert ccc_value(6 + 1 + 8 + 2 + 0 + 0 + 1 + 3, 6, 6) == 22
    assert row_for(dlib_model, "NameDB", ANY_CLASS).ccc == 22


def test_ccc_rational_arithmetic_and_rendering():
    # NOMT 10, AVCC 7/5, MOA 0, EXT 4, NSUP 1, NSUB 0, INTR 0, PACK 3, NQU 7
    value = ccc_value(10 + 0 + 4 + 1 + 0 + 0 + 3 + 7, 14, 10)
    assert value == Fraction(132, 5)
    assert format_fixed2(value) == "26.40"


def test_wmc_modes(dlib_model):
    for mode in ("unity", "weighted"):
        row = row_for(dlib_model, "NameDB", MetricConfig(wmc_mode=mode))
        assert row.wmc == 6
    empty = lone_row(ClassDecl(name="E", kind="class"))
    assert empty.wmc == 0


def test_cmc_sums_all_visibilities():
    decl = ClassDecl(name="A", kind="class", methods=[
        method_with(decisions=0), method_with(decisions=2),
        method_with(decisions=4)])
    assert lone_row(decl).cmc == 9
    assert lone_row(ClassDecl(name="E", kind="class")).cmc == 0


def test_cc_is_iv_plus_cmc(dlib_model):
    assert row_for(dlib_model, "NameDB").cc == 7
    decl = ClassDecl(name="A", kind="class",
                     fields=[FieldDecl(f"f{i}", "int") for i in range(3)],
                     methods=[method_with(decisions=1),
                              method_with(decisions=1)])
    assert lone_row(decl).cc == 7


# ---------------------------------------------------------------------------
# Properties over synthetic projects


def test_formula_identity_over_500_synthetic_classes():
    rng = random.Random(20240817)
    checked = 0
    for batch in range(10):
        model = random_project(rng, 50)
        cfg = MetricConfig(
            moa_policy=rng.choice(["project", "any-class"]),
            count_short_circuit=rng.random() < 0.5)
        weighted = compute_rows(model, cfg._replace(wmc_mode="weighted"))
        for decl, row, heavy in zip(model.ordered_decls(),
                                    compute_rows(model, cfg), weighted):
            recomputed = (Fraction(row.nomt) + row.avcc + row.moa + row.ext
                          + row.nsup + row.nsub + row.intr + row.pack
                          + row.nqu)
            assert row.ccc == recomputed
            # CMC and IV, recomputed from the declaration.
            cmc = sum(method_cyclomatic(m, cfg) for m in decl.methods)
            iv = sum(1 for f in decl.fields if not f.is_static)
            assert row.cmc == cmc and row.iv == iv
            assert heavy.wmc == cmc
            assert row.cc == row.iv + row.cmc
            assert row.wmc == row.nomt
            checked += 1
    assert checked >= 500


def test_ccc_at_least_nomt_even_for_bodyless_classes():
    rng = random.Random(99)
    model = random_project(rng, 80)
    for row in compute_rows(model):
        if row.nomt >= 1:
            assert row.ccc >= row.nomt
    bodyless = model_from_sources("interface I { int a(); void b(); }")
    row = row_for(bodyless, "I")
    assert row.avcc == 1 and row.ccc >= row.nomt


def test_adding_cheap_user_typed_field_bumps_ccc_by_one():
    rng = random.Random(5)
    for _ in range(25):
        model = random_project(rng, 6)
        decl = model.ordered_decls()[0]
        before = compute_row(decl, model, ANY_CLASS).ccc
        decl.fields.append(FieldDecl("extra", "Widget"))
        after = compute_row(decl, model, ANY_CLASS).ccc
        assert after == before + 1
        decl.fields.pop()


def test_adding_method_at_least_avcc_never_decreases_ccc():
    rng = random.Random(6)
    for _ in range(25):
        model = random_project(rng, 6)
        decl = model.ordered_decls()[0]
        row = compute_row(decl, model)
        ceiling = int(row.avcc) + 1
        decl.methods.append(MethodDecl(
            name="zz_added", return_type_name="void",
            body=BodyFacts(decision_point_count=ceiling)))
        bumped = compute_row(decl, model)
        assert bumped.ccc >= row.ccc
        decl.methods.pop()


def test_metric_functions_are_pure(dlib_model):
    cfg = ANY_CLASS
    rows_a = compute_rows(dlib_model, cfg)
    rows_b = compute_rows(dlib_model, cfg)
    assert rows_a == rows_b


def test_nqu_ncd_partition_on_namedb(dlib_model):
    row = row_for(dlib_model, "NameDB")
    assert row.nqu == 3 and row.ncd == 3 and row.nomt == 6
