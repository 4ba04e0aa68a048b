"""The record classes: constructor signatures, fresh default lists,
field-by-field equality, no hashing, a pickle round trip, and the exact
repr of a parse."""

import hashlib
import inspect
import pickle

import pytest

from classmetrics import (BodyFacts, ClassDecl, ClassMetricsRow,
                          CompilationUnit, FieldDecl, MethodDecl,
                          ProjectModel, PropertyReport, parse, tokenize)
from classmetrics.parser import Record

# sha256 over the repr of every bundled dlib file's CompilationUnit, in
# file-name order, each followed by a newline. It was computed when the
# records were generated classes; a record's repr is part of what it
# promises, so this digest must not change.
DLIB_REPR_SHA256 = (
    "02fc5bcca9c1f002d4f801357af493d7941131e902bc380550259f155732faca")

SIGNATURES = {
    BodyFacts: ["decision_point_count", "short_circuit_count",
                "value_return_count", "bare_return_count",
                "external_call_count", "internal_call_count",
                "statement_count", "new_expression_type_names"],
    FieldDecl: ["name", "declared_type_name", "array_rank", "is_static",
                "visibility"],
    MethodDecl: ["name", "is_constructor", "return_type_name",
                 "parameter_type_names", "is_abstract", "body"],
    ClassDecl: ["name", "kind", "visibility", "is_abstract",
                "superclass_name", "extended_interface_names",
                "implemented_interface_names", "fields", "methods",
                "nested", "unit_path"],
    CompilationUnit: ["file_path", "package_name", "imports", "type_decls",
                      "warnings"],
    ClassMetricsRow: ["class_name", "class_kind", "file_path", "nomt",
                      "avcc", "moa", "iv", "ext", "nsup", "nsub", "intr",
                      "pack", "nqu", "ncd", "cmc", "cc", "ccc", "wmc"],
    ProjectModel: ["classes", "ancestors", "immediate_subclasses",
                   "user_defined_types", "_entries"],
    PropertyReport: ["property_number", "metric_name", "verdict", "witness",
                     "trials", "trial_budget", "seed", "note"],
}

# How many leading parameters each constructor requires.
REQUIRED = {BodyFacts: 0, FieldDecl: 2, MethodDecl: 1, ClassDecl: 2,
            CompilationUnit: 1, ClassMetricsRow: 18, ProjectModel: 0,
            PropertyReport: 7}


def test_dlib_parse_repr_is_unchanged(dlib_dir):
    digest = hashlib.sha256()
    for path in sorted(dlib_dir.glob("*.java")):
        unit = parse(tokenize(path.read_text(encoding="utf-8")), path.name)
        digest.update(repr(unit).encode() + b"\n")
    assert digest.hexdigest() == DLIB_REPR_SHA256


@pytest.mark.parametrize("record", list(SIGNATURES), ids=lambda r: r.__name__)
def test_constructor_signature_is_unchanged(record):
    params = list(inspect.signature(record).parameters.values())
    assert [p.name for p in params] == SIGNATURES[record]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    required = [p.default is p.empty for p in params]
    assert required == [i < REQUIRED[record] for i in range(len(params))]


def test_default_lists_are_fresh():
    first, second = ClassDecl("A", "class"), ClassDecl("B", "class")
    for name in ("extended_interface_names", "implemented_interface_names",
                 "fields", "methods", "nested"):
        assert getattr(first, name) == []
        assert getattr(first, name) is not getattr(second, name), name
    assert MethodDecl("f").parameter_type_names is not (
        MethodDecl("g").parameter_type_names)
    units = CompilationUnit("a.java"), CompilationUnit("b.java")
    for name in ("imports", "type_decls", "warnings"):
        assert getattr(units[0], name) is not getattr(units[1], name), name
    models = ProjectModel(), ProjectModel()
    for name in SIGNATURES[ProjectModel]:
        assert getattr(models[0], name) is not getattr(models[1], name), name


def test_records_compare_field_by_field_and_are_unhashable():
    def method(**changes):
        return MethodDecl(**{"name": "f", "parameter_type_names": ["int"],
                             "body": BodyFacts(statement_count=2),
                             **changes})

    assert method() == method()
    assert method() != method(is_abstract=True)
    assert method() != method(body=BodyFacts(statement_count=3))
    assert (ClassDecl("A", "class", methods=[method()])
            == ClassDecl("A", "class", methods=[method()]))
    assert ClassDecl("A", "class") != ClassDecl("A", "interface")
    # Another class never compares equal, even with the same fields.
    assert FieldDecl("x", "int").__eq__(("x", "int", 0, False, "")) \
        is NotImplemented
    assert FieldDecl("x", "int") != MethodDecl("x")
    records = [BodyFacts(), FieldDecl("x", "int"), method(),
               ClassDecl("A", "class"), CompilationUnit("a.java"),
               ProjectModel(), PropertyReport(1, "CCC", "witnessed", None,
                                              1, 1, 0)]
    for record in records:
        with pytest.raises(TypeError):
            hash(record)



def _record_classes(base=Record):
    for cls in base.__subclasses__():
        yield cls
        yield from _record_classes(cls)


def test_every_record_round_trips_through_pickle(fixture_paths):
    # A forked run sends its units back pickled; a record comes back
    # equal, with the same repr, through its positional __reduce__.
    made = {
        FieldDecl: FieldDecl("x", "int", 2, True, "private"),
        MethodDecl: MethodDecl("f", False, "int", ["int", "String"], True,
                               BodyFacts(1, 2, 3, 4, 5, 6, 7, ["T"])),
        ClassDecl: ClassDecl("A", "interface", "public", True, "B", ["I"],
                             ["J"], [FieldDecl("x", "int")],
                             [MethodDecl("f")], [ClassDecl("N", "class")],
                             "a.java"),
        CompilationUnit: CompilationUnit("a.java", "p", ["q.R"], [],
                                         ["a warning"]),
        ProjectModel: ProjectModel(),
        PropertyReport: PropertyReport(1, "CCC", "witnessed", ["w"], 3, 5,
                                       42, "note"),
    }
    assert set(made) == set(_record_classes())
    units = [parse(tokenize(path.read_text(encoding="utf-8")),
                   path.as_posix()) for path in fixture_paths]
    assert any(unit.warnings for unit in units)
    for record in [*made.values(), *units]:
        copy = pickle.loads(pickle.dumps(record, pickle.HIGHEST_PROTOCOL))
        assert type(copy) is type(record)
        assert copy == record
        assert repr(copy) == repr(record)
    assert pickle.loads(pickle.dumps(units)) == units
