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


def reference_ancestors(units):
    """Breadth-first ancestor names of every class, one fresh walk per
    class; written apart from the model's memoised version."""
    entries = []  # (display, decl, package)

    def flatten(decl, package, prefix):
        entries.append((prefix + decl.name, decl, package))
        for nested in decl.nested:
            flatten(nested, package, f"{prefix}{decl.name}.")

    for unit in sorted(units, key=lambda u: u.file_path):
        for decl in unit.type_decls:
            flatten(decl, unit.package_name, "")
    by_simple = {}
    for entry in entries:
        by_simple.setdefault(entry[1].name, []).append(entry)

    def resolve(written, package):
        candidates = by_simple.get(written.split(".")[-1], [])
        if len(candidates) == 1:
            return candidates[0]
        return next((c for c in candidates if c[2] == package),
                    candidates[0] if candidates else None)

    def supers(entry):
        decl = entry[1]
        if decl.kind == "interface":
            return decl.extended_interface_names
        return [decl.superclass_name] if decl.superclass_name else []

    result = {}
    for entry in entries:
        seen, out = set(), []
        frontier = [(entry, written) for written in supers(entry)]
        while frontier:
            next_frontier = []
            for origin, written in frontier:
                target = resolve(written, origin[2])
                name = written.split(".")[-1] if target is None else target[0]
                if name in seen:
                    continue
                seen.add(name)
                out.append(name)
                if target is not None:
                    next_frontier.extend((target, up) for up in supers(target))
            frontier = next_frontier
        display, _, package = entry
        result[f"{package}.{display}" if package else display] = out
    return result


def random_hierarchy(rng):
    """Sources of a small random hierarchy: classes and interfaces in
    three packages sharing a few simple names, multi-extends interfaces,
    nested classes and supers outside the set."""
    names = [f"T{i}" for i in range(rng.randint(2, 8))]

    def written_super():
        if rng.random() < 0.15:
            return rng.choice(["Ext", "lib.Ext", "Other"])
        name = rng.choice(names)
        return f"{rng.choice('pq')}.{name}" if rng.random() < 0.2 else name

    def header(name):
        if rng.random() < 0.4:
            supers = [written_super() for _ in range(rng.randint(0, 3))]
            extends = f" extends {', '.join(supers)}" if supers else ""
            return f"interface {name}{extends}"
        extends = f" extends {written_super()}" if rng.random() < 0.8 else ""
        return f"class {name}{extends}"

    declared = set()
    sources = []
    for _ in range(rng.randint(2, 12)):
        package, name = rng.choice(["", "p", "q"]), rng.choice(names)
        if (package, name) in declared:
            continue
        declared.add((package, name))
        nested = (f" {header(rng.choice(names))} {{}} "
                  if rng.random() < 0.2 else "")
        prefix = f"package {package}; " if package else ""
        sources.append(f"{prefix}{header(name)} {{{nested}}}")
    return sources


def test_ancestors_match_a_fresh_walk_per_class():
    built = 0
    for seed in range(800):
        sources = random_hierarchy(random.Random(seed))
        units = [parse_source(src, f"src{i}.java")
                 for i, src in enumerate(sources)]
        try:
            model = build_model(units)
        except ModelError:
            continue  # an inheritance cycle
        built += 1
        assert model.ancestors == reference_ancestors(units), sources
    assert built >= 200


def test_ancestors_when_a_same_named_class_sits_above():
    # b.Foo -> c.Bar -> a.Foo (Bar's "Foo" resolves to the first Foo in
    # file order): below b.Foo the name Foo is already seen, so a.Foo's
    # own super is never reached.
    model = model_from_sources(
        "package a; class Foo extends Base {}",
        "package b; class Foo extends Bar {}",
        "package c; class Bar extends Foo {}",
        "package b; class X extends Foo {}",
        "package a; class Base {}",
    )
    assert model.ancestors["b.X"] == ["Foo", "Bar"]
    assert model.ancestors["b.Foo"] == ["Bar", "Foo", "Base"]
    assert model.ancestors["c.Bar"] == ["Foo", "Base"]


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
