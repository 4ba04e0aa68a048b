"""Tokenizer for Java source text.

One master regular expression with a named group per lexical class is
run over the source with `finditer`, as in the "Writing a Tokenizer"
recipe of the `re` documentation. Every position matches some group, so
the matches tile the source. `scan` also returns the skipped trivia
(whitespace and comments) so that the original file can be rebuilt
byte for byte. Generic angle brackets are emitted as plain operators;
disambiguation is the parser's job.
"""

import re
from typing import NamedTuple

# Reserved words (JLS set plus assert/enum); true/false/null are reserved
# literals and are classified as keywords here for simplicity.
KEYWORDS = frozenset(
    """
    abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package
    private protected public return short static strictfp super switch
    synchronized this throw throws transient try void volatile while
    true false null
    """.split()
)

PRIMITIVE_TYPES = frozenset(
    ["boolean", "byte", "char", "short", "int", "long", "float", "double"]
)

# Longest match first.
_OPERATORS = sorted(
    [
        ">>>=", "<<=", ">>=", ">>>", "<<", ">>", "==", "!=", "<=", ">=",
        "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "&=", "|=", "^=",
        "%=", "->", "::", "+", "-", "*", "/", "%", "=", "<", ">", "!", "~",
        "&", "|", "^", "?", ":",
    ],
    key=len,
    reverse=True,
)

# Alternatives are tried in order at each position: the most frequent
# come first, and where two can match at one position the one listed
# first wins. Each error group matches only the opening of a construct
# whose well-formed group failed. A text block (JLS 3.10.6) opens with
# three quotes, optional blanks and a line break, and ends at the first
# unescaped three quotes. Only "\n" breaks lines, here and in the
# position bookkeeping.
_MASTER = re.compile(
    r"(?P<space>[ \t\r\n\f]+)"
    r"|(?P<word>[A-Za-z_$][A-Za-z0-9_$]*)"
    r"|(?P<punctuation>[{}()\[\];,@]|\.(?!\d))"
    r"|(?P<comment>//[^\n]*|/\*[\s\S]*?\*/)"
    r"|(?P<text_block>\"\"\"[ \t\f]*\r?\n(?:[^\"\\]|\\[\s\S]|\"(?!\"\"))*\"\"\")"
    r"|(?P<bad_text_block>\"\"\"[ \t\f]*\r?\n)"
    r"|(?P<string>\"[^\"\\\n]*(?:\\[\s\S][^\"\\\n]*)*\")"
    r"|(?P<char>'[^'\\\n]*(?:\\[\s\S][^'\\\n]*)*')"
    r"|(?P<bad_comment>/\*)"
    r"|(?P<bad_string>\")"
    r"|(?P<bad_char>')"
    r"|(?P<float>(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?[fFdD]?"
    r"|\d+[eE][+-]?\d+[fFdD]?|\d+[fFdD])"
    r"|(?P<integer>0[xX][0-9a-fA-F]+[lL]?|0[bB][01]+[lL]?|\d+[lL]?)"
    r"|(?P<operator>" + "|".join(map(re.escape, _OPERATORS)) + ")"
    # Outside the Java lexical grammar; tolerated as punctuation so the
    # byte round-trip still holds.
    r"|(?P<other>[\s\S])"
)

# Token kind of each group whose match never spans a line break.
_FLAT_KINDS = {
    "punctuation": "punctuation", "operator": "operator",
    "float": "float-literal", "integer": "integer-literal",
    "other": "punctuation",
}
# Token kind of each group whose match may span line breaks.
_SPANNING_KINDS = {
    "string": "string-literal", "char": "char-literal",
    "text_block": "string-literal",
}
_ERRORS = {
    "bad_comment": "unterminated block comment",
    "bad_text_block": "unterminated text block",
    "bad_string": "unterminated string literal",
    "bad_char": "unterminated char literal",
}


class Token(NamedTuple):
    kind: str  # keyword | identifier | punctuation | operator | *-literal
    text: str
    line: int
    column: int


class Trivia(NamedTuple):
    """Whitespace or comment run, kept only for position bookkeeping."""

    text: str
    line: int
    column: int


class LexError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


def tokenize(source: str) -> list[Token]:
    """Tokenize Java source, dropping whitespace and comments."""
    return _lex(source, None)


def scan(source: str) -> tuple[list[Token], list[Trivia]]:
    """Tokenize and also return the trivia runs in source order."""
    trivia: list[Trivia] = []
    return _lex(source, trivia), trivia


def reconstruct(tokens: list[Token], trivia: list[Trivia]) -> str:
    """Rebuild the exact source text from a scan() result."""
    pieces = sorted(tokens + trivia, key=lambda t: (t.line, t.column))
    return "".join(p.text for p in pieces)


def _lex(source: str, trivia: list[Trivia] | None) -> list[Token]:
    """Tokens of `source`; trivia runs are appended to `trivia` unless it
    is None. Columns count from the offset of the current line start."""
    tokens: list[Token] = []
    emit = tokens.append
    new = tuple.__new__
    line = 1
    line_start = 0
    for m in _MASTER.finditer(source):
        group = m.lastgroup
        text = m.group()
        start = m.start()
        if group == "word":
            kind = "keyword" if text in KEYWORDS else "identifier"
            emit(new(Token, (kind, text, line, start - line_start + 1)))
            continue
        kind = _FLAT_KINDS.get(group)
        if kind is not None:
            emit(new(Token, (kind, text, line, start - line_start + 1)))
            continue
        if group in _ERRORS:
            raise LexError(_ERRORS[group], line, start - line_start + 1)
        kind = _SPANNING_KINDS.get(group)
        if kind is not None:
            emit(new(Token, (kind, text, line, start - line_start + 1)))
        elif trivia is not None:
            trivia.append(new(Trivia, (text, line, start - line_start + 1)))
        breaks = text.count("\n")
        if breaks:
            line += breaks
            line_start = start + text.rindex("\n") + 1
    return tokens
