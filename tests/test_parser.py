import random
import re
import signal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from classmetrics import parser as parser_module
from classmetrics.lexer import tokenize
from classmetrics.parser import (ParseError, classify_calls,
                                 count_decision_points, count_returns, parse,
                                 scan_body)

from conftest import parse_source

import body_oracle
from cfg_oracle import (Switch, While, cyclomatic_from_cfg, random_body,
                        to_java)


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


@pytest.mark.parametrize("source, package, imports", [
    ("package a.b", "a.b", []),
    ("import a.", "", ["a."]),
    ("package a; import b.c", "a", ["b.c"]),
])
def test_header_without_semicolon_reads_to_the_end(source, package, imports):
    unit = parse_source(source)
    assert (unit.package_name, unit.imports, unit.warnings) == (
        package, imports, [])


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



_DEEP = "".join(f"class C{i} {{\n" for i in range(101)) + "}" * 101

# Every warning the parser gives, at top level and as a member: a source
# and its exact `unit.warnings`, line numbers included.
WARNING_CASES = [
    ("enum E { A }", ["enum declaration skipped at line 1"]),
    ("class A {\n enum E { X }\n}", ["enum declaration skipped at line 2"]),
    ("@interface Ann { }",
     ["annotation type declaration 'Ann' skipped at line 1"]),
    ("class A {\n @interface Inner { }\n}",
     ["annotation type declaration 'Inner' skipped at line 2"]),
    ("int x;", ["unsupported top-level construct 'int' skipped at line 1"]),
    ("@Deprecated class A { }", ["annotation skipped at line 1"]),
    ("class A {\n @Override void f() { }\n}",
     ["annotation skipped at line 2"]),
    ("class A {\n void f(@Nullable String s) { }\n}",
     ["annotation skipped at line 2"]),
    ("class { }", ["malformed class header skipped at line 1"]),
    ("interface ;", ["malformed interface header skipped at line 1"]),
    ("class A {\n class { }\n}", ["malformed class header skipped at line 2"]),
    ("class A<T> { }", ["type parameters on A ignored at line 1"]),
    ("class A<T { }", ["type parameters on A ignored at line 1"]),
    ("class A {\n interface I<T> { }\n}",
     ["type parameters on I ignored at line 2"]),
    ("class A extends B ;",
     ["malformed class body for A; declaration skipped at line 1"]),
    ("class A {\n interface B extends C ;\n int x;\n}",
     ["malformed interface body for B; declaration skipped at line 2"]),
    (_DEEP, ["class nested deeper than 100 levels skipped at line 101"]),
    ("class A {\n static { }\n { }\n}",
     ["initializer block skipped at line 2",
      "initializer block skipped at line 3"]),
    ("class A {\n <T> void f() { }\n}", ["generic method skipped at line 2"]),
    ("class A {\n );\n}", ["malformed member in A skipped at line 2"]),
    ("class A {\n int 3;\n}", ["malformed member in A skipped at line 2"]),
    ("class A {\n f() { }\n}", ["method 'f' without return type at line 2"]),
    ("class A {\n void f() = 3;\n}", ["malformed method f in A at line 2"]),
    ("class A {\n int a, 3;\n}",
     ["malformed field declarator in A at line 2"]),
    ("class A {\n int a b;\n}",
     ["unterminated field declaration in A at line 2"]),
    ("class A {\n List<String> xs;\n void f(Map<K, V> m) { }\n}",
     ["generic type arguments on List ignored at line 2",
      "generic type arguments on Map ignored at line 3"]),
    ("class A {\n List<String xs;\n}",
     ["generic type arguments on List ignored at line 2",
      "malformed member in A skipped at line 2"]),
    ("class A {\n int x;\n long y,\n x;\n}",
     ["repeated field 'x' in A skipped at line 4"]),
    ("class A {\n void f(int a) { }\n int f;\n void f(int b)\n { }\n}",
     ["repeated method 'f(int)' in A skipped at line 5"]),
    # A method may share its constructor's name and parameters.
    ("class A {\n A() { }\n void A() { }\n A()\n ;\n}",
     ["repeated method 'A()' in A skipped at line 5"]),
    # Generic arguments warn wherever a type name is read.
    ("class A extends B<T> implements I<X>, J { }",
     ["generic type arguments on B ignored at line 1",
      "generic type arguments on I ignored at line 1"]),
    ("interface I extends J<T>, K { }",
     ["generic type arguments on J ignored at line 1"]),
    ("sealed interface S permits A<T>, B { }",
     ["generic type arguments on A ignored at line 1"]),
    ("class A {\n void f() throws E<T> { }\n}",
     ["generic type arguments on E ignored at line 2"]),
    # A `[` without its `]` is no array dimension.
    ("class A {\n int x[;\n}",
     ["unterminated field declaration in A at line 2"]),
    # Two names with no comma between them end a name list.
    ("class A {\n void f() throws E F { }\n}",
     ["malformed method f in A at line 2"]),
    ("class A extends B C { }",
     ["malformed class body for A; declaration skipped at line 1"]),
    # A parameter that is not a type is skipped, one warning each.
    ("class A {\n void f(int a,\n 3, int b) { }\n}",
     ["malformed parameter of f in A skipped at line 3"]),
    ("class A {\n void f(int a[) { }\n}",
     ["malformed parameter of f in A skipped at line 2"]),
    ("class A {\n A(1, int b, = 2) { }\n}",
     ["malformed parameter of A in A skipped at line 2",
      "malformed parameter of A in A skipped at line 2"]),
    # A parameter ends at a `,` or the `)`, and each empty slot warns.
    ("class A {\n void f(int a b) { }\n}",
     ["malformed parameter of f in A skipped at line 2"]),
    ("class A {\n void f(int a\n int b) { }\n}",
     ["malformed parameter of f in A skipped at line 3"]),
    ("class A {\n void f(,\n) { }\n}",
     ["malformed parameter of f in A skipped at line 2",
      "malformed parameter of f in A skipped at line 3"]),
    ("class A {\n void f(int a,) { }\n}",
     ["malformed parameter of f in A skipped at line 2"]),
    # At the end of the input a warning gives the last token's line.
    ("class C extends",
     ["malformed class body for C; declaration skipped at line 1"]),
    ("class C permits",
     ["malformed class body for C; declaration skipped at line 1"]),
    ("interface I extends",
     ["malformed interface body for I; declaration skipped at line 1"]),
    ("class C\n extends\n B",
     ["malformed class body for C; declaration skipped at line 3"]),
    ("class A {\n void f(int a\n }",
     ["malformed parameter of f in A skipped at line 3",
      "malformed method f in A at line 3"]),
    # A recovery that meets the body's `}` stops there and warns once
    # more, wherever the `}` stands.
    ("class A {\n void f(int a\n }\nclass B { }",
     ["malformed parameter of f in A skipped at line 3",
      "malformed method f in A at line 3"]),
    ("class A {\n int x = { 1 } + (\n}\nclass B { }",
     ["unterminated field declaration in A at line 3"]),
    ("class A {\n @interface ;\n}",
     ["annotation type declaration skipped at line 2"]),
    # A keyword or comma of a name list with no name after it leaves the
    # declaration malformed.
    ("class A extends { }",
     ["malformed class body for A; declaration skipped at line 1"]),
    ("class A implements { }",
     ["malformed class body for A; declaration skipped at line 1"]),
    ("sealed class A permits { }",
     ["malformed class body for A; declaration skipped at line 1"]),
    ("interface I extends { }",
     ["malformed interface body for I; declaration skipped at line 1"]),
    ("class A {\n void f() throws { }\n}",
     ["malformed method f in A at line 2"]),
    ("class A implements I,\n { }",
     ["malformed class body for A; declaration skipped at line 1"]),
    ("class A {\n void f() throws E,\n { }\n}",
     ["malformed method f in A at line 2"]),
]


@pytest.mark.parametrize("source, expected", WARNING_CASES)
def test_every_warning_text_and_line(source, expected):
    assert parse_source(source, "W.java").warnings == [
        f"W.java: {text}" for text in expected]


def _members(unit):
    """Each declaration's name, supertypes, fields and method signatures."""
    return [(d.name, ([d.superclass_name] if d.superclass_name else [])
             + d.extended_interface_names + d.implemented_interface_names,
             [f"{f.declared_type_name}{'[]' * f.array_rank} {f.name}"
              for f in d.fields], [m.signature for m in d.methods])
            for d in unit.type_decls]


# The declaration walk's constructs: a source, its declarations as
# `_members` gives them, and its warnings.
DECLARATION_CASES = [
    ("class A {\n void f() throws E, a.b.F { }\n void g() throws E;\n}",
     [("A", [], [], ["f()", "g()"])], []),
    ("class A { void f(String... xs) { } void g(int[]... ys) { } }",
     [("A", [], [], ["f(String[])", "g(int[][])"])], []),
    ("class A {\n void f(@Nullable final String s, final int n) { }\n}",
     [("A", [], [], ["f(String,int)"])], ["annotation skipped at line 2"]),
    # A parameter reads modifiers as a member does, valid there or not.
    ("class A { void f(static int k) { } }",
     [("A", [], [], ["f(int)"])], []),
    ("class A {\n Map<K, List<V>> m;\n A<B<C<D>>> x;\n}",
     [("A", [], ["Map m", "A x"], [])],
     ["generic type arguments on Map ignored at line 2",
      "generic type arguments on A ignored at line 3"]),
    ("@a.b.C(v = {1, 2})\nclass A {\n @D(f(x)) void f() { }\n}",
     [("A", [], [], ["f()"])],
     ["annotation skipped at line 1", "annotation skipped at line 3"]),
    ("; class A { ; int x; ; } ; class B { }",
     [("A", [], ["int x"], []), ("B", [], [], [])], []),
    ("class A { void f(int a, 3, int b) { } }",
     [("A", [], [], ["f(int,int)"])],
     ["malformed parameter of f in A skipped at line 1"]),
    ("class A {\n int 3 }\nclass B { }",
     [("A", [], [], []), ("B", [], [], [])],
     ["malformed member in A skipped at line 2"]),
    ("class A {\n int x = a), y;\n int z;\n}",
     [("A", [], ["int x", "int z"], [])],
     ["unterminated field declaration in A at line 2",
      "malformed member in A skipped at line 2"]),
    # Dimensions after a name in a name list are read and dropped.
    ("class A extends B[] { void f() throws E[] { } }",
     [("A", ["B"], [], ["f()"])], []),
    # A parameter not followed by `,` or `)` keeps its type; the rest of
    # it, and each empty slot, is skipped with a warning.
    ("class A { void f(int a b) { } void g(int a int b) { }\n"
     " void h(,) { } void k(int a,) { } }",
     [("A", [], [], ["f(int)", "g(int)", "h()", "k(int)"])],
     ["malformed parameter of f in A skipped at line 1",
      "malformed parameter of g in A skipped at line 1",
      "malformed parameter of h in A skipped at line 2",
      "malformed parameter of h in A skipped at line 2",
      "malformed parameter of k in A skipped at line 2"]),
    ("class A { void f(int... a[]) { } void g(java.util.List x) { } }",
     [("A", [], [], ["f(int[][])", "g(java.util.List)"])], []),
    ("class A {\n void f(final @A int x) { }\n}",
     [("A", [], [], ["f(int)"])], ["annotation skipped at line 2"]),
    # `non-sealed` is a modifier wherever modifiers stand, `sealed` in a
    # parameter too; elsewhere `non`, `record` and `sealed` are names.
    ("class A {\n non-sealed class B extends A { }\n"
     " public non-sealed void f() { }\n non x;\n}",
     [("A", [], ["non x"], ["f()"])], []),
    ("class A {\n record r;\n void g(record x) { }\n sealed y;\n"
     " void f(sealed x) { }\n}",
     [("A", [], ["record r"], ["g(record)", "f(x)"])],
     ["malformed member in A skipped at line 4"]),
    # Each look-ahead at the end of the input.
    ("@", [], ["annotation skipped at line 1"]),
    ("@A.", [], ["annotation skipped at line 1",
                 "unsupported top-level construct '.' skipped at line 1"]),
    ("@A(", [], ["annotation skipped at line 1"]),
    # `@interface` names its declaration only by an identifier.
    ("@interface", [], ["annotation type declaration skipped at line 1"]),
    ("class A {\n @interface\n}", [("A", [], [], [])],
     ["annotation type declaration skipped at line 2"]),
    ("class C<T", [], ["type parameters on C ignored at line 1"]),
    ("record R", [],
     ["unsupported top-level construct 'record' skipped at line 1"]),
    ("enum", [], ["enum declaration skipped at line 1"]),
    ("public", [], []),
    # A recovery stops at the `}` that closes the body it is in, so the
    # declarations after it still parse; a brace block on its way is one
    # jump.
    ("class A { void f(int a } class B { void g() { } }",
     [("A", [], [], ["f(int)"]), ("B", [], [], ["g()"])],
     ["malformed parameter of f in A skipped at line 1",
      "malformed method f in A at line 1"]),
    ("class A { void f(@A( } class B { }",
     [("A", [], [], ["f()"]), ("B", [], [], [])],
     ["annotation skipped at line 1",
      "malformed parameter of f in A skipped at line 1",
      "malformed method f in A at line 1"]),
    ("class A { int x = ( } class B { }",
     [("A", [], ["int x"], []), ("B", [], [], [])],
     ["unterminated field declaration in A at line 1"]),
    ("class A {\n void f(int a { } int b) { }\n void g() { }\n}",
     [("A", [], [], ["f(int)", "g()"])],
     ["malformed parameter of f in A skipped at line 2"]),
    ("class A {\n void f(@B(x = { }, y = { 1, ( }) int a) { }\n}\nclass C { }",
     [("A", [], [], ["f(int)"]), ("C", [], [], [])],
     ["annotation skipped at line 2"]),
    ("class A {\n int x = (a { }, y;\n}\nclass B { }",
     [("A", [], ["int x"], []), ("B", [], [], [])],
     ["unterminated field declaration in A at line 2"]),
    # A skip ends at the `,` or `)` of its own parenthesis, and a closer
    # closes up to its own opener.
    ("class A { void f(int a = g(1), int b) { } void h() { } }",
     [("A", [], [], ["f(int,int)", "h()"])],
     ["malformed parameter of f in A skipped at line 1"]),
    ("class A { void f(int a], int b) { } int x = a[), y; }",
     [("A", [], ["int x"], ["f(int,int)"])],
     ["malformed parameter of f in A skipped at line 1",
      "unterminated field declaration in A at line 1",
      "malformed member in A skipped at line 1"]),
    # A `;` cuts a skip at any depth, and a stray `)` or `]` where a member
    # starts is a malformed member of its own.
    ("class A {\n void f(int a = (b; int c) { }\n int d;\n}",
     [("A", [], ["int c", "int d"], ["f(int)"])],
     ["malformed parameter of f in A skipped at line 2",
      "unterminated field declaration in A at line 2",
      "initializer block skipped at line 2"]),
    ("class A {\n )\n int x;\n ] void f() { }\n}",
     [("A", [], ["int x"], ["f()"])],
     ["malformed member in A skipped at line 2",
      "malformed member in A skipped at line 4"]),
    # The skip of a malformed parameter steps over the brace block after
    # it, here the method's body, and ends at the next `;`.
    ("class A { void f(@A( ) { } void g() { } int y; int z; }",
     [("A", [], ["int z"], ["f()"])],
     ["annotation skipped at line 1",
      "malformed parameter of f in A skipped at line 1"]),
    # Type arguments after `new` and a name are one jump; other `<` and
    # `>` are operators.
    ("class A { Map<K, V> m = new HashMap<K, V>(); int z; }",
     [("A", [], ["Map m", "int z"], [])],
     ["generic type arguments on Map ignored at line 1"]),
    ("class A { int x = a < b, c = d > e; }",
     [("A", [], ["int x", "int c"], [])], []),
    # A `<` at or before where an unbalanced list stopped fails at once.
    ("class A { void f(A<B x, C<D> y) { } }",
     [("A", [], [], ["f()"])],
     ["generic type arguments on A ignored at line 1",
      "malformed parameter of f in A skipped at line 1",
      "generic type arguments on C ignored at line 1",
      "malformed parameter of f in A skipped at line 1"]),
    # A declaration ends at its first brace block, even inside an open
    # parenthesis, so a later class survives.
    ("static String h(( ) { }\nclass T { int t; }",
     [("T", [], ["int t"], [])],
     ["unsupported top-level construct 'String' skipped at line 1"]),
    # A `}` ends type arguments too, so no skip passes the end of a body.
    ("class A {\n int x = new B<\n}\nclass C extends D> { }",
     [("A", [], ["int x"], [])],
     ["unterminated field declaration in A at line 3",
      "malformed class body for C; declaration skipped at line 4"]),
]


@pytest.mark.parametrize("source, members, warnings", DECLARATION_CASES)
def test_declaration_walk_constructs(source, members, warnings):
    unit = parse_source(source, "W.java")
    assert _members(unit) == members
    assert unit.warnings == [f"W.java: {text}" for text in warnings]


_DECLARATION_SOUP = st.sampled_from(
    "class interface enum record @ extends implements permits throws sealed "
    "non - public static final void int String List < > >> >>> , . ... ( ) "
    "{ } [ ] ; = a b A 1".split())


# Member-shaped soup: declarations whose parameter lists, throws lists
# and initializers hold stray `;`, `[`, `]`, `)`, literals and braces,
# the tokens that the recovery loops must step over.
_STRAY = ["3", "'c'", '"s"', ";", "[", "]", ")", "(", "}", "{ }", "="]
_PARAMETER = st.sampled_from(["int a", "String[] b", "final C c", "@N D d",
                              "int... e", "x[", "int f[", *_STRAY])
_PARAMETERS = st.lists(st.tuples(_PARAMETER, st.sampled_from([", ", " "])),
                       max_size=4).map(
    lambda items: "".join(p + sep for p, sep in items))
_THROWS = st.sampled_from(["", " throws E", " throws E, F", " throws E<T>",
                           " throws", " throws E F", " throws ,"])
_INITIALIZER = st.lists(st.sampled_from(
    ["1", "a", "(", ")", "[", "]", ",", "new int[] { 1 }", "b(c, d)",
     "new A() { void r() { } }", "{ 2 }"]), max_size=5).map(" ".join)
_MEMBER = st.one_of(
    st.builds("{}({}){}{}".format,
              st.sampled_from(["void f", "int g", "Z", "static String h"]),
              _PARAMETERS, _THROWS,
              st.sampled_from([" { }", ";", " = 3;", "", " {"])),
    st.builds("{} {} = {}{}".format,
              st.sampled_from(["int", "String[]", "List<T>", "static int"]),
              st.sampled_from(["x", "y[]", "z, w"]), _INITIALIZER,
              st.sampled_from([";", "", " }"])))
_MEMBER_SOUP = st.lists(_MEMBER, max_size=6).map(" ".join)


def _parse_took_too_long(signum, frame):
    raise TimeoutError("parse did not finish within 2 s")


def _parse_within_2_s(source):
    """Parse `source`, or fail if that takes more than 2 s: a reader that
    stops advancing would loop forever."""
    previous = signal.signal(signal.SIGALRM, _parse_took_too_long)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        parse(tokenize(source))
    except ParseError:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(_DECLARATION_SOUP, max_size=40).map(" ".join),
                 _MEMBER_SOUP),
       st.booleans())
# Token soup rarely stops a parameter list at `;`, `]` or `}`, where a
# recovery that skips like a field initializer would not advance; the
# member soup often does, and these two examples always do.
@example("void a ( int a ; int b )", True)
@example("A ( ] )", True)
def test_parse_finishes_on_declaration_soup(soup, in_class):
    _parse_within_2_s(f"class Z {{ {soup} }}" if in_class else soup)


def test_unbalanced_type_arguments_after_new_scan_once():
    # Each `new A <` would rescan the rest of the initializer: on a 2-core
    # Xeon VM, about 6 s for these 4,000 when every scan starts over and
    # 20 ms when none does.
    _parse_within_2_s("class A { int x = " + "new A < " * 4000 + "; }")


def test_unbalanced_type_arguments_in_parameters_scan_once():
    # Each `A<` would rescan the rest of the list: on a 2-core Xeon VM,
    # about 22 s for these 8,000 when every scan starts over and 50 ms
    # when none does.
    _parse_within_2_s(
        "class A { void f(" + "A<, " * 8000 + "int z) { } void g() { } }")


@pytest.mark.parametrize("source, members, warnings, bodies", [
    ("class A extends B<C { }\nclass D { }", [("D", [], [], [])],
     ["generic type arguments on B ignored at line 1",
      "malformed class body for A; declaration skipped at line 1"], []),
    ("class A {\n void f() throws E<X { }\n void g() { }\n}",
     [("A", [], [], ["f()", "g()"])],
     ["generic type arguments on E ignored at line 2",
      "malformed method f in A at line 2"], [False, True]),
])
def test_unbalanced_type_arguments_end_a_name_list(source, members, warnings,
                                                   bodies):
    # The list ends at that name, so the declaration is malformed there:
    # the class is skipped, and the method keeps no body.
    unit = parse_source(source, "W.java")
    assert _members(unit) == members
    assert unit.warnings == [f"W.java: {text}" for text in warnings]
    assert [m.body is not None for d in unit.type_decls
            for m in d.methods] == bodies


# Malformed members whose braces balance. Their names start with `zz` or
# `Zz`, which no bundled file gives a member or calls.
_MALFORMED_MEMBERS = [
    "void zz(int a b) { }", "void zz(int a int b) { }", "void zz(int a[) { }",
    "void zz(int a[ { } ) { }", "void zz(int a { } int b) { }",
    "void zz(int a = g(1), int b) { }",
    "void zz(int a = new X() { void r() { if (x) y(); } }) { }",
    "void zz(3) { }", "void zz(,) { }", "void zz(@A( ) { }",
    "void zz(@A(x = { 1, ( }) int a) { }", "void zz(int a ; int zzb) { }",
    "void zz(int a = (b;) { }", "void zz(int a]) { }", "void zz(int a)) { }",
    "zz(1, int b, = 2) { }", "int zz = a), zzy;", "int zz = (a { }, zzy;",
    "int zz = ( ;", "int zz = [ ;", "int zz = a] ;", "int zz = 1 ] , zzy ;",
    "int zz[;", "int zz = new int[] { 1 } ) ;", "int zz, 3;", "int zz zzb;",
    "int 3;", "List<String zz;", "zz;", "Map<K, V> zz = new HashMap<K, V>();",
    "void zz() = 3;", "void zz() throws { }", "void zz() throws E F { }",
    "void zz() throws E, { }", "class Zz extends { }",
    "class Zz implements I, { }", "interface Zz extends { }",
    "<T> void zz() { }", "static { }", "enum Zz { A }", "@interface Zz { }",
    "record Zz(int a) { }", ");", ")", "]", "] ;", "@A( int zz;",
    "void zz() { } )", "zz ( ;", "Object zz = f(;", "int zz = a ? (b : c;",
]
# The one member that loses the members after it, up to the next `;`
# (see DECLARATION_CASES).
_SKIPS_TO_SEMICOLON = "void zz(@A( ) { }"


def _member_offsets(source, monkeypatch):
    """The offset in `source` of each member its parse reads."""
    starts = []
    parse_member = parser_module._Parser._parse_member

    def record(self, *args):
        starts.append(self.pos)
        return parse_member(self, *args)

    tokens = tokenize(source)
    with monkeypatch.context() as patch:
        patch.setattr(parser_module._Parser, "_parse_member", record)
        parse(tokens)
    line_starts = [0] + [m.end() for m in re.finditer("\n", source)]
    return [line_starts[line - 1] + column - 1
            for line, column in map(tokens.position, starts)]


def _view(decls):
    """Each class, with its fields and methods but those named `zz...`."""
    return [(d.name, d.kind, d.visibility, d.is_abstract, d.superclass_name,
             d.extended_interface_names, d.implemented_interface_names,
             [f for f in d.fields if not f.name.startswith("zz")],
             [m for m in d.methods if not m.name.startswith("zz")],
             _view(d.nested)) for d in decls]


def test_malformed_member_loses_only_itself(dlib_dir, monkeypatch):
    # Inserted at a member boundary of a bundled file, a malformed member
    # warns and leaves every other class, field and method (body facts
    # included) as it was.
    points = [(source, offset) for path in sorted(dlib_dir.glob("*.java"))
              for source in [path.read_text(encoding="utf-8")]
              for offset in _member_offsets(source, monkeypatch)]
    failures = []
    for source, offset in random.Random(2026).sample(points, 24):
        unit = parse_source(source)
        for fragment in _MALFORMED_MEMBERS:
            probe = parse_source(
                f"{source[:offset]}{fragment} {source[offset:]}")
            if len(probe.warnings) <= len(unit.warnings):
                failures.append(("silent", fragment))
            if (fragment != _SKIPS_TO_SEMICOLON
                    and _view(probe.type_decls) != _view(unit.type_decls)):
                failures.append(("changes others", fragment))
    assert sorted(set(failures)) == []


def test_repeated_members_keep_the_first_declaration():
    unit = parse_source(
        "class A {\n int x; String x;\n void f() { }\n"
        " void f() { if (a) g(); }\n}")
    [decl] = unit.type_decls
    assert [(f.name, f.declared_type_name) for f in decl.fields] == [
        ("x", "int")]
    [method] = decl.methods
    body = method.body
    assert (body.decision_point_count, body.external_call_count) == (0, 0)
    assert unit.warnings == [
        "<test>.java: repeated field 'x' in A skipped at line 2",
        "<test>.java: repeated method 'f()' in A skipped at line 4",
    ]


def test_record_declarations_are_skipped_with_one_warning():
    unit = parse_source(
        "class A {\n"
        "  record R(int x) { int f() { if (a) return 1; return 0; } }\n"
        "  static record G<T>(T x) {}\n"
        "  void f() {}\n"
        "}\n"
        "public record Top(int y) implements I { }\n"
        "class B { public void record (Object item) {} int record; record r; }")
    a, b = unit.type_decls
    assert [m.signature for m in a.methods] == ["f()"]
    assert a.methods[0].body.decision_point_count == 0
    assert a.fields == [] and a.nested == []
    # Where no record header follows, `record` stays a name.
    assert [(m.name, m.return_type_name) for m in b.methods] == [
        ("record", "void")]
    assert [(f.name, f.declared_type_name) for f in b.fields] == [
        ("record", "int"), ("r", "record")]
    assert unit.warnings == [
        "<test>.java: record declaration skipped at line 2",
        "<test>.java: record declaration skipped at line 3",
        "<test>.java: record declaration skipped at line 6",
    ]

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

    def no_offsets(source):
        raise AssertionError("token offsets computed")

    monkeypatch.setattr(lexer, "_offsets", no_offsets)
    for path in sorted(dlib_dir.glob("*.java")):
        unit = parse(tokenize(path.read_text(encoding="utf-8")), path.name)
        assert unit.warnings == [] and unit.type_decls, path.name
        if path.name == "NameDB.java":
            assert len(unit.type_decls[0].methods) == 6


def test_tolerant_fixture_warnings_keep_their_lines(monkeypatch):
    from classmetrics import lexer
    from conftest import FIXTURES
    source = (FIXTURES / "tolerant" / "Fancy.java").read_text(encoding="utf-8")
    offsets = lexer._offsets
    computed = []

    def counted_offsets(source):
        computed.append(source)
        return offsets(source)

    monkeypatch.setattr(lexer, "_offsets", counted_offsets)
    expected = ["Fancy.java: annotation skipped at line 7",
                "Fancy.java: generic method skipped at line 13"]
    assert parse(tokenize(source), "Fancy.java").warnings == expected
    assert computed == [source]


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


def test_sealed_types_are_declarations():
    unit = parse_source(
        "sealed interface S permits A, B {}\n"
        "public final class A implements S { }\n"
        "public non-sealed class B extends A { int x; }\n"
        "public abstract sealed class C extends D implements S, T\n"
        "    permits E { class F { } }")
    s, a, b, c = unit.type_decls
    assert (s.name, s.kind, s.is_abstract) == ("S", "interface", True)
    assert s.extended_interface_names == []
    assert (a.visibility, a.implemented_interface_names) == ("public", ["S"])
    assert (b.visibility, b.superclass_name) == ("public", "A")
    assert [f.name for f in b.fields] == ["x"]
    assert (c.superclass_name, c.implemented_interface_names) == (
        "D", ["S", "T"])
    assert c.is_abstract and [n.name for n in c.nested] == ["F"]
    assert unit.warnings == []


def test_sealed_words_stay_names_where_they_are_not_modifiers():
    unit = parse_source(
        "class G { boolean sealed; non x; int permits, non; sealed y; }")
    [decl] = unit.type_decls
    assert [(f.name, f.declared_type_name) for f in decl.fields] == [
        ("sealed", "boolean"), ("x", "non"), ("permits", "int"),
        ("non", "int")]
    # Since Java 17 `sealed` names no type; it is read as a modifier.
    assert unit.warnings == ["<test>.java: malformed member in G skipped"
                             " at line 1"]


# ---------------------------------------------------------------------------
# scan_body against the token-walk reference in body_oracle.py. Each body
# is also scanned as a range inside a longer code string, between tokens
# that would change its facts if the scan looked past its ends.

_OWN_NAMES = ["f", "g", "helper", "run", "make", "Foo", "x", "A"]
_PREFIXES = ["", "a .", "this .", "new", "do {", "Map < String ,", "return"]
_SUFFIXES = ["", ";", "( )", "extends T", "while ( a ) ;", ". f ( )"]


def assert_scan_matches_oracle(source, own, prefix, suffix):
    body = tokenize(source)
    assert scan_body(body.codes, body.texts, 0, len(body), own) == (
        body_oracle.scan_body(body.kinds, body.texts, own))
    start, after = len(tokenize(prefix)), len(tokenize(suffix))
    whole = tokenize(f"{prefix} {source} {suffix}")
    assert whole.texts[start:len(whole) - after] == body.texts
    assert scan_body(whole.codes, whole.texts, start, len(whole) - after,
                     own) == body_oracle.scan_body(body.kinds, body.texts, own)


# Bodies whose facts depend on their first or last token.
_EDGE_BODIES = ["? x ,", "x ?", "? - x", "a + ?", ", ? x", "x ? super",
                "? extends", ", ? >", "f ( ) a .", "a . f ( )",
                "this . f ( )", "super . f ( )", "new super . f ( )",
                "return", "x return", "return ;", "new Foo ( )", "new a .",
                "do ; while ( a ) ;", "} while ( a ) ;", "case 1 :",
                "catch ( e )"]


@pytest.mark.parametrize("prefix", _PREFIXES)
def test_scan_body_matches_token_walk_at_range_edges(prefix):
    for source in _EDGE_BODIES:
        for suffix in _SUFFIXES:
            for own in (set(), {"f"}):
                assert_scan_matches_oracle(source, own, prefix, suffix)


_STATEMENTS = st.sampled_from([
    "f(x);", "helper(a, b);", "this.helper();", "this.f(g(x));",
    "obj.run();", "a.b.c.d();", "super.f();", "super(x);", "this(1);",
    "make().helper();", "return;", "return x;", "return a ? b : c;",
    "x = new Foo();", "x = new a.b.Foo(1);", "int[] v = new int[3];",
    "List<?> l = q;", "Map<String,?> m = null;", "Box<? extends T> b = z;",
    "Box<? super T> c = z;", "y = new java.util.ArrayList<String>();",
    "Object o = new Object() { void f() { g(); } };",
    "y = a && b || c ? d : e;", "do f(); while (a);", "x = new a.;",
])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.lists(_STATEMENTS, max_size=8),
       st.sets(st.sampled_from(_OWN_NAMES)), st.sampled_from(_PREFIXES),
       st.sampled_from(_SUFFIXES))
def test_scan_body_matches_token_walk_on_structured_bodies(
        seed, inserted, own, prefix, suffix):
    lines = to_java(random_body(random.Random(seed))).splitlines()
    rng = random.Random(seed)
    for statement in inserted:
        lines.insert(rng.randint(0, len(lines)), statement)
    assert_scan_matches_oracle("\n".join(lines), own, prefix, suffix)


_SOUP = st.sampled_from(
    "if for while do switch try catch case default else ? < > >> , . ( ) "
    "{ } ; && || a b f helper x this super new return int extends "
    "String 1".split())


@settings(max_examples=100, deadline=None)
@given(st.lists(_SOUP, max_size=40).map(" ".join),
       st.sets(st.sampled_from(_OWN_NAMES)), st.sampled_from(_PREFIXES),
       st.sampled_from(_SUFFIXES))
def test_scan_body_matches_token_walk_on_token_soup(source, own, prefix,
                                                    suffix):
    assert_scan_matches_oracle(source, own, prefix, suffix)
