"""Tokenizer for Java source text.

One grammar, `_GRAMMAR`: an ordered list of alternatives, one per
lexical class. Every position matches some alternative, so the matches
tile the source. The blanks after a token (space, tab, form feed,
carriage return) ride in that token's match; only runs holding a line
break, comments and blanks at the start of the file take a match of
their own. Two patterns are built from it:

- `_TEXTS` captures every non-trivia alternative in one group, so a
  single `findall` call yields the token texts with no Python code per
  match. `tokenize` maps each text to its kind through a cache that
  holds each distinct text once, and returns a `Tokens`: two flat lists,
  `kinds` and `texts`.
- `_MASTER` names each alternative and is run with `finditer`, as in
  the "Writing a Tokenizer" recipe of the `re` documentation, to give
  every token its line and column. That positioned pass runs only when
  something asks for a position (a diagnostic, indexing a `Tokens`,
  `scan`) and when the source holds an error group, whose `LexError` it
  raises at the right place.

`scan` rebuilds the skipped trivia (whitespace and comment runs) from
the gaps between tokens so that the original file can be rebuilt byte
for byte. Generic angle brackets are emitted as plain operators;
disambiguation is the parser's job.
"""

import re
from bisect import bisect_right
from collections.abc import Sequence
from functools import cache, partial
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

# The grammar: one alternative per lexical class, tried in order at each
# position. Where two can match at one position the one listed first
# wins; the two trivia alternatives come first because no other
# alternative shares their first characters. Each error group matches
# only the opening of a construct whose well-formed group failed. A
# text block (JLS 3.10.6) opens with three quotes, optional blanks and a
# line break, and ends at the first unescaped three quotes. Only "\n"
# breaks lines, here and in the position bookkeeping.
_GRAMMAR = (
    ("space", r"[ \t\r\n\f]+"),
    ("comment", r"//[^\n]*|/\*[\s\S]*?\*/"),
    ("word", r"[A-Za-z_$][A-Za-z0-9_$]*"),
    ("punctuation", r"[{}()\[\];,@]|\.(?!\d)"),
    ("text_block",
     r"\"\"\"[ \t\f]*\r?\n(?:[^\"\\]|\\[\s\S]|\"(?!\"\"))*\"\"\""),
    ("bad_text_block", r"\"\"\"[ \t\f]*\r?\n"),
    ("string", r"\"[^\"\\\n]*(?:\\[\s\S][^\"\\\n]*)*\""),
    ("char", r"'[^'\\\n]*(?:\\[\s\S][^'\\\n]*)*'"),
    ("bad_comment", r"/\*"),
    ("bad_string", r"\""),
    ("bad_char", r"'"),
    ("float", r"(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?[fFdD]?"
              r"|\d+[eE][+-]?\d+[fFdD]?|\d+[fFdD]"),
    ("integer", r"0[xX][0-9a-fA-F]+[lL]?|0[bB][01]+[lL]?|\d+[lL]?"),
    ("operator", "|".join(map(re.escape, _OPERATORS))),
    # Outside the Java lexical grammar; tolerated as punctuation so the
    # byte round-trip still holds.
    ("other", r"[\s\S]"),
)
_TRIVIA_GROUPS = ("space", "comment")
# The blanks that follow any match are consumed with it, outside the
# alternatives, so they never form a match alone.
_BLANKS = r"[ \t\f\r]*"

# One whitespace or comment run; the gaps between tokens hold only these.
_TRIVIA = re.compile("|".join(rx for name, rx in _GRAMMAR
                              if name in _TRIVIA_GROUPS))
# One named group per alternative, for the positioned pass.
_MASTER = re.compile(
    "(?:" + "|".join(f"(?P<{name}>{rx})" for name, rx in _GRAMMAR) + ")"
    + _BLANKS)
# The same alternatives in the same order, with one capture group round
# every non-trivia alternative: findall returns each token's text and an
# empty string for each trivia match.
_TEXTS = re.compile(
    "(?:" + _TRIVIA.pattern + "|(" + "|".join(
        rx for name, rx in _GRAMMAR if name not in _TRIVIA_GROUPS) + "))"
    + _BLANKS)
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


# Distinct texts the kind cache holds at most; it starts over when full,
# so a tree with many distinct literals cannot grow it without bound.
_KIND_CACHE_SIZE = 1 << 16


class _KindOf(dict):
    """Token text -> kind, filled on first sight of each text. A text of
    an error group is never stored, so every occurrence of one raises
    KeyError."""

    def __missing__(self, text: str) -> str:
        group = _MASTER.match(text).lastgroup
        if group == "word":
            kind = "keyword" if text in KEYWORDS else "identifier"
        else:
            kind = _FLAT_KINDS.get(group) or _SPANNING_KINDS.get(group)
            if kind is None:
                raise KeyError(text)
        if len(self) >= _KIND_CACHE_SIZE:
            self.clear()
        self[text] = kind
        return kind


_KIND_OF = _KindOf()


class Tokens(Sequence):
    """The tokens of one source as two flat lists, `kinds` and `texts`.

    Indexing and iteration give positioned `Token`s. Their lines and
    columns come from the positioned pass over the whole source, which
    runs on the first such access and is then kept, shared with every
    slice. A slice is a `Tokens` over the same source."""

    __slots__ = ("kinds", "texts", "_whole", "_start")

    def __init__(self, kinds: list[str], texts: list[str], whole,
                 start: int = 0):
        self.kinds = kinds
        self.texts = texts
        self._whole = whole  # memoised () -> list[Token] of the source
        self._start = start  # index of kinds[0] in that list

    @classmethod
    def of(cls, tokens) -> "Tokens":
        """`tokens` itself if it is a Tokens, else a Tokens over a
        sequence of positioned `Token`s."""
        if isinstance(tokens, Tokens):
            return tokens
        tokens = list(tokens)
        return cls([t.kind for t in tokens], [t.text for t in tokens],
                   cache(lambda: tokens))

    @property
    def has_positions(self) -> bool:
        """Whether the positioned pass has run for this source."""
        return self._whole.cache_info().currsize > 0

    def __len__(self) -> int:
        return len(self.texts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, _, step = index.indices(len(self.texts))
            if step != 1:
                return Tokens.of(list(self)[index])
            return Tokens(self.kinds[index], self.texts[index], self._whole,
                          self._start + start)
        if index < 0:
            index += len(self.texts)
        if not 0 <= index < len(self.texts):
            raise IndexError("token index out of range")
        return self._whole()[self._start + index]

    def __iter__(self):
        start = self._start
        return iter(self._whole()[start:start + len(self.texts)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


def tokenize(source: str) -> Tokens:
    """Tokenize Java source, dropping whitespace and comments.

    One findall call yields the texts; each distinct text's kind is
    looked up once per process. A source holding an error group's text
    takes the positioned pass instead, which raises its LexError."""
    texts = list(filter(None, _TEXTS.findall(source)))
    try:
        kinds = list(map(_KIND_OF.__getitem__, texts))
    except KeyError:
        _positioned(source)
        raise AssertionError("positioned pass found no lexical error")
    return Tokens(kinds, texts, cache(partial(_positioned, source)))


def _positioned(source: str) -> list[Token]:
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


def scan(source: str) -> tuple[list[Token], list[Trivia]]:
    """Tokenize and also return the trivia runs in source order, rebuilt
    from the gaps between the tokens."""
    tokens = _positioned(source)
    line_starts = [0] + [m.end() for m in _LINE_BREAK.finditer(source)]
    trivia: list[Trivia] = []
    starts = [line_starts[t.line - 1] + t.column - 1 for t in tokens]
    gap_starts = [0] + [s + len(t.text) for s, t in zip(starts, tokens)]
    for gap_start, gap_end in zip(gap_starts, starts + [len(source)]):
        for m in _TRIVIA.finditer(source, gap_start, gap_end):
            line = bisect_right(line_starts, m.start())
            trivia.append(Trivia(m.group(), line,
                                 m.start() - line_starts[line - 1] + 1))
    return tokens, trivia


def reconstruct(tokens: list[Token], trivia: list[Trivia]) -> str:
    """Rebuild the exact source text from a scan() result."""
    pieces = sorted(tokens + trivia, key=lambda t: (t.line, t.column))
    return "".join(p.text for p in pieces)
