import itertools
import random
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfg_oracle import random_body, wrap_method
from classmetrics.lexer import LexError, tokenize
from conftest import DLIB_DIR
from lexer_oracle import (KIND_OF_CODE, OPERATORS, Token, Trivia, positioned,
                          reconstruct, scan, spans)


def code_kinds(tokens):
    """The kind of each token, read from its code."""
    return [KIND_OF_CODE[code] for code in tokens.codes]


def kinds_and_texts(source):
    tokens = tokenize(source)
    return list(zip(code_kinds(tokens), tokens.texts))


def with_positions(tokens):
    """The tokens as the oracle's `Token`s, each at the line and column
    `Tokens.position` gives."""
    return [Token(kind, text, *tokens.position(i))
            for i, (kind, text) in enumerate(zip(code_kinds(tokens),
                                                 tokens.texts))]


def test_empty_input():
    tokens = tokenize("")
    assert (len(tokens), code_kinds(tokens), tokens.texts) == (0, [], [])
    assert with_positions(tokens) == []


def test_minimal_class():
    assert kinds_and_texts("public class A {}") == [
        ("keyword", "public"),
        ("keyword", "class"),
        ("identifier", "A"),
        ("punctuation", "{"),
        ("punctuation", "}"),
    ]


def test_namedb_identifiers(namedb_source):
    identifiers = {text for kind, text in kinds_and_texts(namedb_source)
                   if kind == "identifier"}
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
    tokens = with_positions(tokenize(source))
    strings = [t for t in tokens if t.kind == "string-literal"]
    chars = [t for t in tokens if t.kind == "char-literal"]
    assert strings[0].text == '"a\\"b"'
    assert chars[0].text == "'\\n'"


def test_numeric_literals():
    tokens = with_positions(tokenize(
        "int a = 0x1F; long b = 12L; double d = 1.5e3; float f = .5f;"))
    kinds = {t.text: t.kind for t in tokens if t.kind.endswith("literal")}
    assert kinds["0x1F"] == "integer-literal"
    assert kinds["12L"] == "integer-literal"
    assert kinds["1.5e3"] == "float-literal"
    assert kinds[".5f"] == "float-literal"


def test_operators_longest_match():
    texts = tokenize("a >>>= b >>> c >> d && e").texts
    assert ">>>=" in texts and ">>>" in texts and ">>" in texts and "&&" in texts


def test_positions_one_based_and_monotonic():
    tokens = with_positions(tokenize("int a;\n  int b;"))
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
    tokens = with_positions(tokenize(source))
    [block] = [t for t in tokens if t.kind == "string-literal"]
    assert block.text == source[source.index('"""'):source.rindex('"""') + 3]
    assert (block.line, block.column) == (1, 12)
    assert [(t.text, t.line, t.column) for t in tokens[-4:]] == [
        (";", 4, 6), ("int", 5, 1), ("y", 5, 5), (";", 5, 6)]


def test_three_quotes_without_line_break_are_ordinary_strings():
    assert tokenize('s = """ a""";').texts == [
        "s", "=", '""', '" a"', '""', ";"]


def test_unterminated_text_block_raises_at_its_opening():
    with pytest.raises(LexError) as err:
        tokenize('class A {\n  String s = """  \n  never closed";\n}')
    assert "unterminated text block" in str(err.value)
    assert (err.value.line, err.value.column) == (2, 14)


# Sources whose last line closes a token or comment that spans lines,
# with the positioned tokens of each followed by ` t = 1;` on that line.
# Positions after it count the line breaks inside it.
_SPANNING_SOURCES = {
    "text block": ('s = """\n  a\n  """;', [
        ("identifier", "s", 1, 1), ("operator", "=", 1, 3),
        ("string-literal", '"""\n  a\n  """', 1, 5),
        ("punctuation", ";", 3, 6), ("identifier", "t", 3, 8),
        ("operator", "=", 3, 10), ("integer-literal", "1", 3, 12),
        ("punctuation", ";", 3, 13)]),
    "block comment": ("int s; /* one\n   two */ int u;", [
        ("keyword", "int", 1, 1), ("identifier", "s", 1, 5),
        ("punctuation", ";", 1, 6), ("keyword", "int", 2, 11),
        ("identifier", "u", 2, 15), ("punctuation", ";", 2, 16),
        ("identifier", "t", 2, 18), ("operator", "=", 2, 20),
        ("integer-literal", "1", 2, 22), ("punctuation", ";", 2, 23)]),
    "escaped line break": ('s = "a\\\n  b";', [
        ("identifier", "s", 1, 1), ("operator", "=", 1, 3),
        ("string-literal", '"a\\\n  b"', 1, 5), ("punctuation", ";", 2, 5),
        ("identifier", "t", 2, 7), ("operator", "=", 2, 9),
        ("integer-literal", "1", 2, 11), ("punctuation", ";", 2, 12)]),
}


@pytest.mark.parametrize("name", sorted(_SPANNING_SOURCES))
def test_positions_after_a_token_that_spans_lines(name):
    source, expected = _SPANNING_SOURCES[name]
    source += " t = 1;"
    assert with_positions(tokenize(source)) == expected
    assert_flat_path_matches_positioned(source)


@pytest.mark.parametrize("name", sorted(_SPANNING_SOURCES))
@pytest.mark.parametrize("opener, message", [
    ("/*", "unterminated block comment"),
    ('"', "unterminated string literal"),
    ("'", "unterminated char literal"),
])
def test_lex_error_after_a_token_that_spans_lines(name, opener, message):
    # The opener stands where ` t = 1;` has its `1`.
    source, expected = _SPANNING_SOURCES[name]
    source += f" t = {opener}x"
    with pytest.raises(LexError) as err:
        tokenize(source)
    line, column = expected[-2][2:]
    assert str(err.value) == f"{message} at line {line}, column {column}"
    assert (err.value.line, err.value.column) == (line, column)
    assert_flat_path_matches_positioned(source)


@pytest.mark.parametrize("source, message", [
    ("a /*" * 20_000, "unterminated block comment at line 1, column 3"),
    ('"""\n\\' * 4_000, "unterminated text block at line 1, column 1"),
    ('"\\' * 8_000, "unterminated string literal at line 1, column 1"),
    ("'\\" * 8_000, "unterminated char literal at line 1, column 1"),
], ids=["bad_comment", "bad_text_block", "bad_string", "bad_char"])
def test_many_unclosed_comments_cost_one_scan(source, message):
    # No opener here has a closer, so the first one takes the rest of
    # the source: one scan, where each opener once rescanned the rest.
    started = time.perf_counter()
    with pytest.raises(LexError) as err:
        tokenize(source)
    assert time.perf_counter() - started < 2
    assert str(err.value) == message


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
    for tok in with_positions(tokenize(source)):
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
        assert (with_positions(tokenize(rebuilt))
                == with_positions(tokenize(source))), path.name


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
    assert with_positions(tokenize(reconstruct(tokens, trivia))) == tokens


@settings(max_examples=200, deadline=None)
@given(st.lists(_SOURCE_PIECES, max_size=120).map("".join))
def test_positions_match_source_lines_property(source):
    try:
        assert_positions_match_lines(source)
    except LexError:
        pass  # unterminated literal/comment; no positions to check


# The lexer (one findall call plus a code per distinct text, and the
# positioned pass over the same matches) against the reference lexer in
# lexer_oracle.py: same kinds, texts, positions and LexErrors.

def assert_flat_path_matches_positioned(source):
    try:
        expected = positioned(source)
    except LexError as err:
        with pytest.raises(LexError) as got:
            tokenize(source)
        assert (str(got.value), got.value.line, got.value.column) == (
            str(err), err.line, err.column)
        return
    tokens = tokenize(source)
    assert code_kinds(tokens) == [t.kind for t in expected]
    assert tokens.texts == [t.text for t in expected]
    assert len(tokens) == len(expected)
    assert [tokens.position(i) for i in range(len(tokens))] == [
        (t.line, t.column) for t in expected]


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


def test_every_operator_pair_splits_as_the_oracle_splits_it():
    assert len(OPERATORS) == len(set(OPERATORS)) == 39
    for op in OPERATORS:
        assert kinds_and_texts(op) == [("operator", op)]
    for first, second in itertools.product(OPERATORS, repeat=2):
        assert_flat_path_matches_positioned(first + second)


_OPERATOR_CHARACTERS = st.sampled_from(list("<>=+-&|*/%^!~?:.") + [" "])


@settings(max_examples=300, deadline=None)
@given(st.lists(_OPERATOR_CHARACTERS, max_size=30).map("".join))
def test_operator_character_soup_splits_as_the_oracle_splits_it(source):
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
    assert len(lexer._CODE_OF) <= 8


def test_every_code_names_one_kind(fixture_paths):
    from classmetrics.lexer import KEYWORD_CODES, KEYWORDS
    assert sorted(KEYWORD_CODES) == sorted(KEYWORDS)
    assert len(set(KEYWORD_CODES.values())) == len(KEYWORDS)
    assert all(KIND_OF_CODE[code] == "keyword" and 0x7F < ord(code) < 0x100
               for code in KEYWORD_CODES.values())
    kinds_of = {}
    sources = [path.read_text(encoding="utf-8") for path in fixture_paths]
    for source in sources + ["x = 1.5f + 'c' + \"s\" + a ? b : c || d²;"]:
        tokens = tokenize(source)
        for code, token in zip(tokens.codes, positioned(source)):
            kinds_of.setdefault(code, set()).add(token.kind)
    assert all(len(kinds) == 1 for kinds in kinds_of.values()), kinds_of
    assert {code: kinds.pop() for code, kinds in kinds_of.items()} == {
        code: KIND_OF_CODE[code] for code in kinds_of}


def test_keyword_code_in_the_source_is_punctuation():
    # The code of `if` in the source, outside a literal, is a character
    # of the `other` group and adds no decision.
    from classmetrics.lexer import KEYWORD_CODES
    from classmetrics.parser import count_decision_points
    code_of_if = KEYWORD_CODES["if"]
    tokens = tokenize(f"x = {code_of_if} (a) ? b : c; {code_of_if}")
    assert code_kinds(tokens)[2] == code_kinds(tokens)[-1] == "punctuation"
    assert code_of_if not in tokens.codes
    assert count_decision_points(tokens) == 1  # the ternary alone


def test_tokens_are_two_lists_and_the_source():
    source = "class A {\n  int f() { return 1; }\n}"
    tokens = tokenize(source)
    assert len(tokens) == 13 and tokens.source == source
    assert (code_kinds(tokens)[9:11], tokens.texts[9:11]) == (
        ["integer-literal", "punctuation"], ["1", ";"])
    assert tokens.codes[9:11] == "n;" and len(tokens.codes) == 13
    assert with_positions(tokens)[10] == ("punctuation", ";", 2, 21)
    assert with_positions(tokens) == scan(source)[0]


def _dlib_source(name):
    return (DLIB_DIR / name).read_text(encoding="utf-8")


_NAMEDB, _QUEUE = _dlib_source("NameDB.java"), _dlib_source("Queue.java")


# A source, the index of one of its tokens (-1 for the last) and that
# token's line and column. Where the source does not lex, the position
# is its LexError's; where the token is a brace, it is also the position
# of the ParseError that brace raises.
@pytest.mark.parametrize("source, i, where", [
    ("class A {}", 0, (1, 1)),  # the first token, at offset 0
    ("int\tx;", 1, (1, 5)),  # a tab is one column
    ("int a;\r\n b;\rc", 3, (2, 2)),  # "\r" stays on the line before
    ("int a;\r\n b;\rc", 5, (2, 5)),  # a lone "\r" breaks no line
    ("int a;\nint b", -1, (2, 5)),  # no line break at the end
    ("int a;\n  b = 'x", -1, (2, 7)),  # a LexError at the end of the file
    # Unmatched '}': NameDB without the class header and its '{'.
    (_NAMEDB[_NAMEDB.index("{") + 1:], -1, (39, 1)),
    # Unclosed '{': Queue cut after the '{' of its last method body.
    (_QUEUE[:_QUEUE.rindex("{") + 1], -1, (36, 5)),
])
def test_position_edge_cases(source, i, where):
    from classmetrics.parser import ParseError, parse
    try:
        expected = positioned(source)
    except LexError as err:
        with pytest.raises(LexError) as got:
            tokenize(source)
        assert (got.value.line, got.value.column) == (
            err.line, err.column) == where
        return
    i %= len(expected)
    tokens = tokenize(source)
    assert tokens.position(i) == (
        expected[i].line, expected[i].column) == where
    if expected[i].text in ("{", "}"):
        with pytest.raises(ParseError) as err:
            parse(tokens)
        assert (err.value.line, err.value.column) == where


# Trivia that may stand between any two tokens. Each comment is padded,
# so it cannot join the token before it (`/` and then `/* c */`).
_TRIVIA_PIECES = [" /* c */ ", " // c\n", " /** d */\n", "  ", " \t\f ",
                  "\n\t", "\n\t\n\t"]


def _with_trivia(source, rng):
    """The source with a seeded trivia piece at offset 0, before its
    first token, after a seeded third of its tokens and at its end. The
    token boundaries come from the reference lexer."""
    bounds = spans(source)
    cuts = [0, bounds[0][0], *(end for _, end in bounds
                               if rng.random() < 0.3), len(source)]
    pieces = []
    for begin, cut in zip([0] + cuts, cuts):
        pieces += [source[begin:cut], rng.choice(_TRIVIA_PIECES)]
    return "".join(pieces)


def test_trivia_at_token_boundaries_changes_no_token(dlib_dir):
    rng = random.Random(3111)
    sources = [p.read_text(encoding="utf-8")
               for p in sorted(dlib_dir.glob("*.java"))]
    sources += [wrap_method(random_body(rng)) for _ in range(60)]
    for source in sources * 3:
        before = tokenize(source)
        padded = _with_trivia(source, rng)
        after = tokenize(padded)
        assert (after.codes, after.texts) == (before.codes, before.texts)
        assert_positions_match_lines(padded)
