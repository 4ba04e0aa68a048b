import random

import pytest

from classmetrics import build_model
from classmetrics.model import ModelError, is_user_defined

from conftest import model_from_sources, parse_source


def test_isolated_class():
    model = model_from_sources("class A {}")
    [decl] = model.ordered_decls()
    assert model.ancestors_of(decl) == []
    assert model.subclasses_of(decl) == set()


def test_dlib_chain_gives_two_ancestors(dlib_model):
    namedb = next(d for d in dlib_model.ordered_decls()
                  if d.name == "NameDB")
    assert dlib_model.ancestors_of(namedb) == ["NamedObject", "BaseObject"]
    assert dlib_model.subclasses_of(namedb) == set()


def test_external_superclass_counts_one_hop():
    model = model_from_sources("package p; class B extends X {}")
    [b] = model.ordered_decls()
    assert model.ancestors_of(b) == ["X"]
    assert model.unresolved_supers[model.qualified_name_of(b)] == "X"


def test_subclass_map_is_inverse_of_super_relation(dlib_model):
    base = next(d for d in dlib_model.ordered_decls()
                if d.name == "BaseObject")
    assert dlib_model.subclasses_of(base) == {
        "ConsoleWindow", "KeyboardBuffer", "LList", "NamedObject",
        "Queue", "Readable_Printer", "SmallSet",
    }
    internal_supers = sum(
        1 for d in dlib_model.ordered_decls()
        if d.kind == "class" and d.superclass_name
        and dlib_model.unresolved_supers[dlib_model.qualified_name_of(d)] is None)
    assert internal_supers == sum(
        len(s) for s in dlib_model.immediate_subclasses.values())


def test_ancestors_consistent_with_direct_relation(dlib_model):
    for decl in dlib_model.ordered_decls():
        if decl.kind != "class" or not decl.superclass_name:
            continue
        chain = dlib_model.ancestors_of(decl)
        super_simple = decl.superclass_name.split(".")[-1]
        assert chain[0] == super_simple
        parent = dlib_model.classes.get(
            next((q for q, d in dlib_model.classes.items()
                  if d.name == super_simple), ""))
        if parent is not None:
            assert chain[1:] == dlib_model.ancestors_of(parent)


def test_interface_extends_feeds_ancestors_not_implements():
    model = model_from_sources(
        "interface I {}",
        "interface J extends I {}",
        "class C implements J {}",
    )
    decls = {d.name: d for d in model.ordered_decls()}
    assert model.ancestors_of(decls["J"]) == ["I"]
    assert model.ancestors_of(decls["C"]) == []
    assert model.implemented_of(decls["C"]) == {"J"}
    assert model.subclasses_of(decls["I"]) == {"J"}
    assert model.subclasses_of(decls["J"]) == set()  # implements is not extends


def test_diamond_interface_ancestors_dedup():
    model = model_from_sources(
        "interface Root {}",
        "interface A extends Root {}",
        "interface B extends Root {}",
        "interface Leaf extends A, B {}",
    )
    leaf = next(d for d in model.ordered_decls() if d.name == "Leaf")
    assert model.ancestors_of(leaf) == ["A", "B", "Root"]


def test_inheritance_cycle_is_model_error():
    with pytest.raises(ModelError) as err:
        model_from_sources("class A extends B {}", "class B extends A {}")
    assert "cycle" in str(err.value)


def test_deep_extends_chain_is_checked_without_recursion():
    # Deeper than the interpreter's default recursion limit of 1000.
    depth = 1500
    names = [f"C{i:04d}" for i in range(depth)]
    chain = [f"class {child} extends {parent} {{}}"
             for child, parent in zip(names, names[1:])]
    model = model_from_sources(*chain, f"class {names[-1]} {{}}")
    leaf = next(d for d in model.ordered_decls() if d.name == names[0])
    assert model.ancestors_of(leaf) == names[1:]
    with pytest.raises(ModelError) as err:
        model_from_sources(*chain,
                           f"class {names[-1]} extends {names[0]} {{}}")
    assert str(err.value) == (
        "inheritance cycle: " + " -> ".join(names + names[:1]))


def test_duplicate_qualified_name_is_model_error():
    with pytest.raises(ModelError) as err:
        model_from_sources("package p; class A {}", "package p; class A {}")
    assert "duplicate" in str(err.value)


def test_same_simple_name_in_two_packages_is_fine():
    model = model_from_sources("package p; class A {}",
                               "package q; class A {}")
    assert len(model.classes) == 2


def test_build_model_is_order_independent(dlib_units):
    reference = build_model(list(dlib_units))
    rng = random.Random(7)
    for _ in range(6):
        shuffled = list(dlib_units)
        rng.shuffle(shuffled)
        assert build_model(shuffled) == reference


def test_is_user_defined_policies(dlib_model):
    assert not is_user_defined("int", dlib_model)
    assert not is_user_defined("int", dlib_model, "any-class")
    assert is_user_defined("NamedObject", dlib_model)
    assert not is_user_defined("Hashtable", dlib_model, "project")
    assert is_user_defined("Hashtable", dlib_model, "any-class")
    assert is_user_defined("NamedObject[][]", dlib_model)
    assert not is_user_defined("void", dlib_model, "any-class")
    with pytest.raises(ValueError):
        is_user_defined("X", dlib_model, "bogus")


def test_nested_classes_get_qualified_rows():
    unit = parse_source("package p; class Outer { class Inner {} }", "o.java")
    model = build_model([unit])
    names = [model.display_name_of(d) for d in model.ordered_decls()]
    assert names == ["Outer", "Outer.Inner"]
