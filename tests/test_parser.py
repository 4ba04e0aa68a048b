import pytest

from classmetrics.lexer import tokenize
from classmetrics.parser import (ParseError, classify_calls,
                                 count_decision_points, count_returns, parse)

from conftest import parse_source

from cfg_oracle import Switch, While, cyclomatic_from_cfg


def body_tokens(body_source):
    """Token slice of `body_source` as it would be captured from a body."""
    return tokenize(body_source)


def test_trivial_unit():
    unit = parse_source("package p; public class A {}")
    assert unit.package_name == "p"
    assert unit.imports == []
    [decl] = unit.type_decls
    assert (decl.name, decl.kind) == ("A", "class")
    assert decl.fields == [] and decl.methods == []


def test_imports_preserve_stars_and_order():
    unit = parse_source(
        "import java.util.*;\nimport java.io.File;\nclass A {}")
    assert unit.imports == ["java.util.*", "java.io.File"]


def test_namedb_declaration_model(namedb_source):
    unit = parse_source(namedb_source, "NameDB.java")
    [decl] = unit.type_decls
    assert decl.name == "NameDB"
    assert decl.superclass_name == "NamedObject"
    [field] = decl.fields
    assert (field.name, field.declared_type_name) == ("Names", "Hashtable")
    assert not field.is_static
    assert len(decl.methods) == 6
    constructor = decl.methods[0]
    assert constructor.is_constructor and constructor.name == "NameDB"
    assert constructor.return_type_name is None
    signatures = [m.signature for m in decl.methods]
    assert signatures == [
        "NameDB(String)",
        "FindName(int)",
        "FindName(Integer)",
        "FindNumber(String)",
        "AddName(String,int)",
        "AddName(String,Object)",
    ]
    assert len(set(signatures)) == 6


def test_namedb_query_returns(namedb_source):
    unit = parse_source(namedb_source)
    [decl] = unit.type_decls
    assert sum(m.body.value_return_count for m in decl.methods) == 3


def test_interface_methods_have_no_body():
    unit = parse_source("interface I { int f(); }")
    [decl] = unit.type_decls
    assert decl.kind == "interface"
    [method] = decl.methods
    assert method.is_abstract and method.body is None


def test_interface_extends_list():
    unit = parse_source("interface I extends A, B {}")
    [decl] = unit.type_decls
    assert decl.extended_interface_names == ["A", "B"]
    assert decl.superclass_name is None


def test_multi_declarator_fields_and_arrays():
    unit = parse_source("class A { int a, b; String[] s; int grid[][]; }")
    [decl] = unit.type_decls
    by_name = {f.name: f for f in decl.fields}
    assert set(by_name) == {"a", "b", "s", "grid"}
    assert by_name["a"].declared_type_name == "int"
    assert by_name["s"].array_rank == 1
    assert by_name["grid"].array_rank == 2


def test_field_initializer_with_braces():
    unit = parse_source(
        'class A { static final String[] WORDS = { "x", "y" }; int n = 3; }')
    [decl] = unit.type_decls
    assert [f.name for f in decl.fields] == ["WORDS", "n"]
    assert decl.fields[0].is_static


def test_nested_class_members_stay_separate():
    unit = parse_source("""
        class Outer {
            int a;
            class Inner { void poke() { tick(); } }
            void run() { }
        }
    """)
    [outer] = unit.type_decls
    assert [m.name for m in outer.methods] == ["run"]
    [inner] = outer.nested
    assert inner.name == "Inner"
    assert [m.name for m in inner.methods] == ["poke"]


def test_parse_is_deterministic(namedb_source):
    tokens = tokenize(namedb_source)
    assert parse(tokens, "a.java") == parse(tokens, "a.java")


def test_unbalanced_braces_raise():
    with pytest.raises(ParseError) as err:
        parse(tokenize("class A {\n  void f() { }\n} }"), "a.java")
    assert str(err.value) == "unmatched '}' in a.java at line 3, column 3"
    assert (err.value.line, err.value.column) == (3, 3)
    # Reported at the innermost brace still open at the end of the file.
    with pytest.raises(ParseError) as err:
        parse(tokenize("class A {\n  void f() {\n    if (x) { }\n"),
              "a.java")
    assert str(err.value) == "unclosed '{' in a.java at line 2, column 12"
    assert (err.value.line, err.value.column) == (2, 12)


def test_members_after_skipped_brace_blocks_still_parse():
    unit = parse_source("""
        class A {
            enum Color { RED, GREEN; void paint() { if (x) f(); } }
            int afterEnum;
            static { if (ready) { setup(); } }
            void afterInitializer() { go(); }
            Runnable r = new Runnable() { public void run() { g(); } }, s;
            int afterAnonymous;
            Object o = new Object() { void broken( }, t;
            int afterBroken;
        }
    """)
    [decl] = unit.type_decls
    assert [f.name for f in decl.fields] == [
        "afterEnum", "r", "s", "afterAnonymous", "o", "t", "afterBroken"]
    [method] = decl.methods
    assert method.name == "afterInitializer"
    assert method.body.external_call_count == 1
    assert unit.warnings == [
        "<test>.java: enum declaration skipped at line 3",
        "<test>.java: initializer block skipped at line 5",
    ]


def test_class_nesting_is_capped(monkeypatch):
    import classmetrics.parser as parser_module
    monkeypatch.setattr(parser_module, "MAX_CLASS_NESTING", 2)
    unit = parse_source(
        "class A {\n class B {\n  class C { class D { } }\n  int b;\n }\n"
        " interface E { }\n}\nclass F { }")
    [a, f] = unit.type_decls
    [b, e] = a.nested
    assert (b.name, e.name, f.name) == ("B", "E", "F")
    assert b.nested == [] and [x.name for x in b.fields] == ["b"]
    assert unit.warnings == [
        "<test>.java: class nested deeper than 2 levels skipped at line 3"]


def test_malformed_member_is_skipped_with_warning():
    unit = parse_source("class A { ); void ok() { } }")
    [decl] = unit.type_decls
    assert [m.name for m in decl.methods] == ["ok"]
    assert unit.warnings


def test_annotation_and_generic_method_are_tolerated():
    unit = parse_source("""
        class Fancy {
            @Deprecated
            public void stash(Object item) { held = item; }
            public <T> T pick(T first, T second) { return first; }
            public int size() { return 0; }
        }
    """)
    [decl] = unit.type_decls
    assert [m.name for m in decl.methods] == ["stash", "size"]
    assert any("annotation" in w for w in unit.warnings)
    assert any("generic method" in w for w in unit.warnings)


def test_enum_and_initializer_blocks_skip():
    unit = parse_source("""
        class A {
            static { setup(); }
            enum Color { RED, GREEN }
            void f() { }
        }
        enum Top { ONE }
    """)
    [decl] = unit.type_decls
    assert [m.name for m in decl.methods] == ["f"]
    assert sum("enum" in w for w in unit.warnings) == 2
    assert any("initializer" in w for w in unit.warnings)


# ---------------------------------------------------------------------------
# Decision points


def test_straight_line_has_no_decisions():
    assert count_decision_points(body_tokens("return x;")) == 0


def test_single_if_with_else_is_one():
    assert count_decision_points(body_tokens("if (a) f(); else g();")) == 1


def test_switch_cases_and_while_spec_example():
    body = "switch(x){ case 1: case 2: break; default: break; } while(y) {}"
    assert count_decision_points(body_tokens(body)) == 3
    # Cross-check with the explicit CFG: E - N + 2P == 1 + decisions.
    ast = [Switch(groups=[([], False), ([], True)], default_body=[]),
           While([])]
    assert cyclomatic_from_cfg(ast) == 1 + 3


def test_do_while_counts_once():
    assert count_decision_points(body_tokens("do { f(); } while (a);")) == 1
    assert count_decision_points(
        body_tokens("do f(); while (a); while (b) { }")) == 2


def test_ternary_counts_and_generic_wildcards_do_not():
    assert count_decision_points(body_tokens("x = a ? b : c;")) == 1
    assert count_decision_points(body_tokens("List<?> l = q; Map<String,?> m;")) == 0
    assert count_decision_points(
        body_tokens("List<? extends Number> l = q;")) == 0


def test_short_circuit_flag():
    body = body_tokens("if (a && b || c) f();")
    assert count_decision_points(body) == 1
    assert count_decision_points(body, count_short_circuit=True) == 3


def test_catch_counts_finally_does_not():
    body = "try { f(); } catch (A e) { } catch (B e) { } finally { g(); }"
    assert count_decision_points(body_tokens(body)) == 2


# ---------------------------------------------------------------------------
# Call classification


def test_self_call_is_internal():
    assert classify_calls(body_tokens("helper();"), {"helper"}) == (0, 1)


def test_super_call_is_external():
    assert classify_calls(body_tokens("super(name);"), {"NameDB"}) == (1, 0)


def test_addname_body_counts_two_external(namedb_source):
    unit = parse_source(namedb_source)
    [decl] = unit.type_decls
    add_name = next(m for m in decl.methods
                    if m.signature == "AddName(String,int)")
    assert add_name.body.external_call_count == 2
    assert add_name.body.internal_call_count == 0
    assert add_name.body.new_expression_type_names == ["Integer"]


def test_this_receiver_is_internal_chain_is_external():
    own = {"helper"}
    assert classify_calls(body_tokens("this.helper();"), own) == (0, 1)
    assert classify_calls(body_tokens("obj.helper();"), own) == (1, 0)
    assert classify_calls(body_tokens("a.b.helper();"), own) == (1, 0)
    assert classify_calls(body_tokens("super.helper();"), own) == (1, 0)


def test_expression_receiver_is_external():
    own = {"helper", "make"}
    assert classify_calls(body_tokens("make().helper();"), own) == (1, 1)


def test_unknown_bare_name_is_external():
    assert classify_calls(body_tokens("println(x);"), {"f"}) == (1, 0)


def test_new_expressions_are_not_calls():
    ext, internal = classify_calls(
        body_tokens("x = new Integer(n); y = new a.b.Foo(m);"), set())
    assert (ext, internal) == (0, 0)


def test_nested_calls_each_count():
    assert classify_calls(body_tokens("f(g(x));"), {"f", "g"}) == (0, 2)
    assert classify_calls(body_tokens("f(g(x));"), set()) == (2, 0)


def test_constructor_delegation_is_internal():
    assert classify_calls(body_tokens("this(0);"), {"A"}) == (0, 1)


# ---------------------------------------------------------------------------
# Returns


def test_return_value_versus_bare():
    assert count_returns(body_tokens("return;")) == (0, 1)
    assert count_returns(body_tokens("return x;")) == (1, 0)
    assert count_returns(
        body_tokens("if (a) return; return (x);")) == (1, 1)


def test_body_fact_invariants_on_fixture_corpus(dlib_dir):
    from conftest import parse_file
    for path in sorted(dlib_dir.glob("*.java")):
        for decl in parse_file(path).type_decls:
            for method in decl.methods:
                body = method.body
                if body is None:
                    continue
                assert body.decision_point_count >= 0
                assert body.external_call_count >= 0
                assert (body.value_return_count + body.bare_return_count
                        <= body.statement_count + 1), method.name


def test_text_block_adds_no_decisions_or_calls():
    unit = parse_source('class Doc {\n  String render() {\n    return """\n'
                        '      if (x) { f(); }\n      """;\n  }\n}\n')
    [render] = unit.type_decls[0].methods
    body = render.body
    assert body.decision_point_count == 0
    assert (body.external_call_count, body.internal_call_count) == (0, 0)
    assert (body.value_return_count, body.statement_count) == (1, 1)


# ---------------------------------------------------------------------------
# Token positions are looked up only for a warning or a brace error.


def test_warning_free_parse_builds_no_positions(dlib_dir, monkeypatch):
    from classmetrics import lexer

    def no_positions(source):
        raise AssertionError("positioned pass ran")

    monkeypatch.setattr(lexer, "_positioned", no_positions)
    for path in sorted(dlib_dir.glob("*.java")):
        unit = parse(tokenize(path.read_text(encoding="utf-8")), path.name)
        assert unit.warnings == [] and unit.type_decls, path.name
        if path.name == "NameDB.java":
            assert len(unit.type_decls[0].methods) == 6


def test_tolerant_fixture_warnings_keep_their_lines(monkeypatch):
    from classmetrics import lexer
    from conftest import FIXTURES
    source = (FIXTURES / "tolerant" / "Fancy.java").read_text(encoding="utf-8")
    positioned_pass = lexer._positioned
    passes = []

    def counted_pass(source):
        passes.append(source)
        return positioned_pass(source)

    monkeypatch.setattr(lexer, "_positioned", counted_pass)
    expected = ["Fancy.java: annotation skipped at line 7",
                "Fancy.java: generic method skipped at line 13"]
    assert parse(tokenize(source), "Fancy.java").warnings == expected
    assert passes == [source]


def test_top_level_annotation_type_gives_one_warning():
    unit = parse_source(
        "public @interface Ann { int v(); }\n@interface Bare { }\nclass B { }")
    [decl] = unit.type_decls
    assert (decl.name, decl.visibility) == ("B", "")
    assert unit.warnings == [
        "<test>.java: annotation type declaration 'Ann' skipped at line 1",
        "<test>.java: annotation type declaration 'Bare' skipped at line 2",
    ]


def test_member_annotation_type_gives_one_warning():
    unit = parse_source(
        "class C {\n  @interface Inner { int v() default 1; }\n"
        "  void f() { }\n}")
    [decl] = unit.type_decls
    assert decl.nested == [] and [m.name for m in decl.methods] == ["f"]
    assert unit.warnings == [
        "<test>.java: annotation type declaration 'Inner' skipped at line 2"]
