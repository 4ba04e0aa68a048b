import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classmetrics.lexer import LexError, Trivia, reconstruct, scan, tokenize


def kinds_and_texts(source):
    return [(t.kind, t.text) for t in tokenize(source)]


def test_empty_input():
    assert tokenize("") == []


def test_minimal_class():
    assert kinds_and_texts("public class A {}") == [
        ("keyword", "public"),
        ("keyword", "class"),
        ("identifier", "A"),
        ("punctuation", "{"),
        ("punctuation", "}"),
    ]


def test_namedb_identifiers(namedb_source):
    identifiers = {t.text for t in tokenize(namedb_source)
                   if t.kind == "identifier"}
    assert {"NameDB", "NamedObject", "Hashtable", "FindName",
            "FindNumber", "AddName"} <= identifiers


def test_comments_and_whitespace_are_trivia():
    tokens, trivia = scan("int a; // note\n/* block */ int b;")
    assert [t.text for t in tokens] == ["int", "a", ";", "int", "b", ";"]
    trivia_texts = [t.text for t in trivia]
    assert "// note" in trivia_texts
    assert "/* block */" in trivia_texts


def test_string_and_char_literals():
    source = 'String s = "a\\"b"; char c = \'\\n\';'
    tokens = tokenize(source)
    strings = [t for t in tokens if t.kind == "string-literal"]
    chars = [t for t in tokens if t.kind == "char-literal"]
    assert strings[0].text == '"a\\"b"'
    assert chars[0].text == "'\\n'"


def test_numeric_literals():
    tokens = tokenize("int a = 0x1F; long b = 12L; double d = 1.5e3; float f = .5f;")
    kinds = {t.text: t.kind for t in tokens if t.kind.endswith("literal")}
    assert kinds["0x1F"] == "integer-literal"
    assert kinds["12L"] == "integer-literal"
    assert kinds["1.5e3"] == "float-literal"
    assert kinds[".5f"] == "float-literal"


def test_operators_longest_match():
    texts = [t.text for t in tokenize("a >>>= b >>> c >> d && e")]
    assert ">>>=" in texts and ">>>" in texts and ">>" in texts and "&&" in texts


def test_positions_one_based_and_monotonic():
    tokens = tokenize("int a;\n  int b;")
    assert (tokens[0].line, tokens[0].column) == (1, 1)
    b_decl = tokens[3]
    assert (b_decl.line, b_decl.column) == (2, 3)
    positions = [(t.line, t.column) for t in tokens]
    assert positions == sorted(positions)


@pytest.mark.parametrize("source, message", [
    ('String s = "oops;', "unterminated string"),
    ("char c = 'x", "unterminated char"),
    ("int a; /* never closed", "unterminated block comment"),
])
def test_unterminated_constructs_raise(source, message):
    with pytest.raises(LexError) as err:
        tokenize(source)
    assert message in str(err.value)
    assert err.value.line == 1


def test_unterminated_string_at_newline():
    with pytest.raises(LexError):
        tokenize('String s = "line\nbreak";')


def test_text_block_is_one_string_literal():
    source = 'String s = """\n  if (x) { f(); }\n  \\"""\n  """;\nint y;'
    tokens = tokenize(source)
    [block] = [t for t in tokens if t.kind == "string-literal"]
    assert block.text == source[source.index('"""'):source.rindex('"""') + 3]
    assert (block.line, block.column) == (1, 12)
    assert [(t.text, t.line, t.column) for t in tokens[-4:]] == [
        (";", 4, 6), ("int", 5, 1), ("y", 5, 5), (";", 5, 6)]


def test_three_quotes_without_line_break_are_ordinary_strings():
    assert [t.text for t in tokenize('s = """ a""";')] == [
        "s", "=", '""', '" a"', '""', ";"]


def test_unterminated_text_block_raises_at_its_opening():
    with pytest.raises(LexError) as err:
        tokenize('class A {\n  String s = """  \n  never closed";\n}')
    assert "unterminated text block" in str(err.value)
    assert (err.value.line, err.value.column) == (2, 14)


def test_digit_outside_decimal_digits_is_punctuation():
    # str.isdigit() holds for these, but \d (Unicode Nd) does not match.
    found = []
    worker = threading.Thread(
        target=lambda: found.append(kinds_and_texts("x\u00b2 + .\u00b9;")),
        daemon=True)
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive(), "tokenize did not return"
    assert found == [[
        ("identifier", "x"), ("punctuation", "\u00b2"), ("operator", "+"),
        ("punctuation", "."), ("punctuation", "\u00b9"),
        ("punctuation", ";")]]


def assert_positions_match_lines(source):
    # Independent of the lexer's own bookkeeping: each token's text must
    # start at its (line, column) in the source split at "\n", the only
    # line break the lexer counts (str.splitlines would also split at
    # "\r", "\f" and others). A token that spans lines must run to the
    # end of its first line.
    lines = source.split("\n")
    for tok in tokenize(source):
        first, *rest = tok.text.split("\n")
        tail = lines[tok.line - 1][tok.column - 1:]
        assert tail == first if rest else tail.startswith(first), tok


def test_positions_match_source_lines(dlib_dir):
    sources = [p.read_text(encoding="utf-8")
               for p in sorted(dlib_dir.glob("*.java"))]
    sources.append('class T {\n\tString s = """\n\t  a "" b\n\t""";'
                   ' int y = 0x1F; }\n')
    for source in sources:
        assert_positions_match_lines(source)


def test_scan_trivia_is_exact():
    source = " \t int a ;\t\f// note \r\n\tb\r= 1 /* x\n y */  ; \f\n  "
    tokens, trivia = scan(source)
    assert [(t.text, t.line, t.column) for t in tokens] == [
        ("int", 1, 4), ("a", 1, 8), (";", 1, 10), ("b", 2, 2),
        ("=", 2, 4), ("1", 2, 6), (";", 3, 8)]
    assert trivia == [
        Trivia(" \t ", 1, 1), Trivia(" ", 1, 7), Trivia(" ", 1, 9),
        Trivia("\t\f", 1, 11), Trivia("// note \r", 1, 13),
        Trivia("\n\t", 1, 22), Trivia("\r", 2, 3), Trivia(" ", 2, 5),
        Trivia(" ", 2, 7), Trivia("/* x\n y */", 2, 8), Trivia("  ", 3, 6),
        Trivia(" \f\n  ", 3, 9)]
    assert reconstruct(tokens, trivia) == source


def test_round_trip_on_fixture_corpus(dlib_dir):
    for path in sorted(dlib_dir.glob("*.java")):
        source = path.read_text(encoding="utf-8")
        tokens, trivia = scan(source)
        assert reconstruct(tokens, trivia) == source, path.name


def test_idempotence_on_fixture_corpus(dlib_dir):
    for path in sorted(dlib_dir.glob("*.java")):
        source = path.read_text(encoding="utf-8")
        rebuilt = reconstruct(*scan(source))
        assert tokenize(rebuilt) == tokenize(source), path.name


# Printable ASCII plus the pieces that open text blocks and escapes, a
# non-ASCII letter, a digit that \d rejects (superscript two) and one it
# accepts (Arabic-Indic three).
_SOURCE_PIECES = st.one_of(
    st.characters(min_codepoint=9, max_codepoint=126),
    st.sampled_from(['"""', '"""\n', "\\", "\u00e9", "\u00b2", "\u0663"]))


@settings(max_examples=200, deadline=None)
@given(st.lists(_SOURCE_PIECES, max_size=120).map("".join))
def test_round_trip_property(source):
    try:
        tokens, trivia = scan(source)
    except LexError:
        return  # unterminated literal/comment; nothing to round-trip
    assert reconstruct(tokens, trivia) == source
    assert tokenize(reconstruct(tokens, trivia)) == tokens


@settings(max_examples=200, deadline=None)
@given(st.lists(_SOURCE_PIECES, max_size=120).map("".join))
def test_positions_match_source_lines_property(source):
    try:
        assert_positions_match_lines(source)
    except LexError:
        pass  # unterminated literal/comment; no positions to check


# The flat path (one findall call plus a kind per distinct text) against
# the positioned pass that scan() runs: same kinds, texts, positions and
# LexErrors.

def assert_flat_path_matches_positioned(source):
    try:
        expected = scan(source)[0]
    except LexError as err:
        with pytest.raises(LexError) as got:
            tokenize(source)
        assert (str(got.value), got.value.line, got.value.column) == (
            str(err), err.line, err.column)
        return
    tokens = tokenize(source)
    assert tokens.kinds == [t.kind for t in expected]
    assert tokens.texts == [t.text for t in expected]
    assert list(tokens) == expected


def test_flat_path_matches_positioned_on_fixtures(fixture_paths):
    for path in fixture_paths:
        assert_flat_path_matches_positioned(path.read_text(encoding="utf-8"))


# Fragments that open and close comments, literals and text blocks.
_JAVA_PIECES = st.sampled_from([
    "/*", "*/", "//", "/", "*", '"', "'", '"""', '"""\n', "\\", "\n", "\r",
    " ", "\t", ".", "1", "0x", "e", "L", "f", "x", "class", "if", "{", "}",
    "(", ")", ";", "?", "&&", ">>", "²", "é"])


@settings(max_examples=200, deadline=None)
@given(st.lists(_SOURCE_PIECES, max_size=120).map("".join))
def test_flat_path_matches_positioned_property(source):
    assert_flat_path_matches_positioned(source)


@settings(max_examples=300, deadline=None)
@given(st.lists(_JAVA_PIECES, max_size=60).map("".join))
def test_flat_path_matches_positioned_on_java_fragments(source):
    assert_flat_path_matches_positioned(source)


def test_error_text_raises_whatever_the_kind_cache_holds():
    for source in ("int a; /* never closed", "int b;\n  /* never closed"):
        with pytest.raises(LexError) as err:
            tokenize(source)
        assert str(err.value).startswith("unterminated block comment")
    assert err.value.line == 2 and err.value.column == 3


def test_kind_cache_stays_bounded(monkeypatch):
    from classmetrics import lexer
    monkeypatch.setattr(lexer, "_KIND_CACHE_SIZE", 8)
    source = " ".join(f'x{i} "s{i}" {i}' for i in range(50))
    assert_flat_path_matches_positioned(source)
    assert len(lexer._KIND_OF) <= 8


def test_tokens_sequence_view():
    tokens = tokenize("class A {\n  int f() { return 1; }\n}")
    assert not tokens.has_positions
    assert len(tokens) == 13 and tokens.texts[3] == "int"
    body = tokens[9:11]
    assert (body.kinds, body.texts) == (["integer-literal", "punctuation"],
                                        ["1", ";"])
    assert not tokens.has_positions
    assert body[-1] == ("punctuation", ";", 2, 21)
    assert tokens.has_positions and body.has_positions
    assert tokens[::4] == [tokens[0], tokens[4], tokens[8], tokens[12]]
    assert list(tokens) == scan("class A {\n  int f() { return 1; }\n}")[0]
    with pytest.raises(IndexError):
        tokens[13]
