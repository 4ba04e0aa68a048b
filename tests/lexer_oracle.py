"""Reference lexer: one named group per alternative of the lexer's
grammar, run with `finditer` as in the "Writing a Tokenizer" recipe of
the `re` documentation. Each group's kind is decided here by its name,
not by the lexer's code table, so the kinds of `tokenize(s)` (its codes
through `KIND_OF_CODE`), the positions `Tokens.position` gives, and the
LexErrors can be compared with `positioned(s)`. The operator
alternative is built here from the JLS 3.12 list, and the alternatives
are tried in an order of the oracle's own, so a wrong operator pattern
or a wrong order of the lexer's alternatives shows as a difference.

`scan` also returns the skipped trivia (whitespace and comment runs),
rebuilt from the gaps between tokens, and `reconstruct` rebuilds the
original file byte for byte from both. `spans` gives each token's start
and end offsets, for tests that edit a source at token boundaries."""

import re
from bisect import bisect_right
from typing import NamedTuple

from classmetrics.lexer import (_ERRORS, _GRAMMAR, _TRIVIA, IDENTIFIER,
                                KEYWORD_CODES, KEYWORDS, OPERATOR, LexError)

# The operators of JLS 3.12, longest first so that the alternation takes
# the longest match.
OPERATORS = sorted(
    [
        ">>>=", "<<=", ">>=", ">>>", "<<", ">>", "==", "!=", "<=", ">=",
        "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "&=", "|=", "^=",
        "%=", "->", "::", "+", "-", "*", "/", "%", "=", "<", ">", "!", "~",
        "&", "|", "^", "?", ":",
    ],
    key=len,
    reverse=True,
)
# The lexer's alternatives by name, the operator built from OPERATORS,
# in an order of the oracle's own: every literal and error group before
# the operator, and `other` last.
_PATTERNS = dict(_GRAMMAR, operator="|".join(map(re.escape, OPERATORS)))
_ORDER = """space comment word punctuation text_block bad_text_block string
    char bad_comment bad_string bad_char float integer operator other""".split()

# The blanks that follow any match are consumed with it, outside the
# alternatives, so they never form a match alone. The positioned pass
# leaves line breaks out, because it counts lines in the trivia matches.
_BLANKS = r"[ \t\f\r]*"

# One named group per alternative, for the positioned pass.
_MASTER = re.compile(
    "(?:" + "|".join(f"(?P<{name}>{_PATTERNS[name]})" for name in _ORDER)
    + ")" + _BLANKS)
_TRIVIA_RUN = re.compile(_TRIVIA)
_LINE_BREAK = re.compile(r"\n")

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

# The kind each code of `Tokens.codes` names.
KIND_OF_CODE = {
    **dict.fromkeys("{}()[];,.@x", "punctuation"),
    **dict.fromkeys("?&" + OPERATOR, "operator"),
    **dict.fromkeys(KEYWORD_CODES.values(), "keyword"),
    IDENTIFIER: "identifier", "f": "float-literal", "n": "integer-literal",
    "s": "string-literal", "c": "char-literal",
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


def positioned(source: str) -> list[Token]:
    """Positioned tokens of the source. Columns count from the offset of
    the current line start."""
    tokens: list[Token] = []
    emit = tokens.append
    new = tuple.__new__
    line = 1
    line_start = 0
    for m in _MASTER.finditer(source):
        group = m.lastgroup
        if group == "word":
            text = m[group]
            kind = "keyword" if text in KEYWORDS else "identifier"
            emit(new(Token, (kind, text, line, m.start() - line_start + 1)))
            continue
        kind = _FLAT_KINDS.get(group)
        if kind is not None:
            emit(new(Token,
                     (kind, m[group], line, m.start() - line_start + 1)))
            continue
        start = m.start()
        if group in _ERRORS:
            raise LexError(_ERRORS[group], line, start - line_start + 1)
        text = m[group]
        kind = _SPANNING_KINDS.get(group)
        if kind is not None:
            emit(new(Token, (kind, text, line, start - line_start + 1)))
        breaks = text.count("\n")
        if breaks:
            line += breaks
            line_start = start + text.rindex("\n") + 1
    return tokens


def spans(source: str) -> list[tuple[int, int]]:
    """The start and end offset of each token of the source."""
    line_starts = [0] + [m.end() for m in _LINE_BREAK.finditer(source)]
    bounds = []
    for t in positioned(source):
        start = line_starts[t.line - 1] + t.column - 1
        bounds.append((start, start + len(t.text)))
    return bounds


def scan(source: str) -> tuple[list[Token], list[Trivia]]:
    """Tokenize and also return the trivia runs in source order, rebuilt
    from the gaps between the tokens."""
    tokens = positioned(source)
    line_starts = [0] + [m.end() for m in _LINE_BREAK.finditer(source)]
    trivia: list[Trivia] = []
    starts = [line_starts[t.line - 1] + t.column - 1 for t in tokens]
    gap_starts = [0] + [s + len(t.text) for s, t in zip(starts, tokens)]
    for gap_start, gap_end in zip(gap_starts, starts + [len(source)]):
        for m in _TRIVIA_RUN.finditer(source, gap_start, gap_end):
            line = bisect_right(line_starts, m.start())
            trivia.append(Trivia(m.group(), line,
                                 m.start() - line_starts[line - 1] + 1))
    return tokens, trivia


def reconstruct(tokens: list[Token], trivia: list[Trivia]) -> str:
    """Rebuild the exact source text from a scan() result."""
    pieces = sorted(tokens + trivia, key=lambda t: (t.line, t.column))
    return "".join(p.text for p in pieces)
