"""Tokenizer for Java source text.

One grammar, `_GRAMMAR`: an ordered list of alternatives, one per
lexical class, with those that start the most tokens first; where two
share a first character, the one that must win comes first. Every
position matches some alternative, so the matches tile the source. The
operator alternative branches on the first character, so an operator
costs one branch, not a trial of each operator. `_TEXTS` captures every
non-trivia alternative in one group, so a single `findall` call yields
the token texts with no Python code per match. The blanks and line
breaks after a token ride in that token's match; only comments and
blanks at the start of the file take a match of their own. `tokenize`
maps each text to its code, one character naming its kind (see
`KIND_OF_CODE`), through a cache that holds each distinct text once, and
returns a `Tokens`: the codes as one string, the texts as a list, and
the source.

Positions follow one rule, `Tokens.position`: a token's line and column
come from its start offset, which `finditer` over the same pattern
gives, and from the offsets of the line starts. Both are computed only
when a position is first asked for: to report a warning, a brace error
or a `LexError`. Generic angle brackets are emitted as plain operators;
disambiguation is the parser's job.
"""

import re
from bisect import bisect_right

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

# The grammar: one alternative per lexical class, tried in order at each
# position. Where two can match at one position the one listed first
# wins. The trivia come first, then words, punctuation and operators,
# which start most tokens, then literals. Alternatives that share a
# first character keep their order: at `/` a comment, then
# `bad_comment`, then the operator; at `.` punctuation's `\.(?!\d)`,
# then the float. Each operator branch takes the longest match, and the
# branches accept exactly the 39 operators of JLS 3.12. Each error
# group matches only the opening of a construct whose well-formed group
# failed. A text block (JLS 3.10.6) opens with three quotes, optional
# blanks and a line break, and ends at the first unescaped three quotes.
# Only "\n" breaks lines, here and in the position bookkeeping.
_GRAMMAR = (
    ("space", r"[ \t\r\n\f]+"),
    ("comment", r"//[^\n]*|/\*[\s\S]*?\*/"),
    ("word", r"[A-Za-z_$][A-Za-z0-9_$]*"),
    ("punctuation", r"[{}()\[\];,@]|\.(?!\d)"),
    ("bad_comment", r"/\*"),
    ("operator", r">(?:>>?)?=?|<<?=?|\+[+=]?|-[-=>]?|&[&=]?|\|[|=]?"
                 r"|[*/%^!=]=?|::?|[~?]"),
    ("float", r"(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?[fFdD]?"
              r"|\d+[eE][+-]?\d+[fFdD]?|\d+[fFdD]"),
    ("integer", r"0[xX][0-9a-fA-F]+[lL]?|0[bB][01]+[lL]?|\d+[lL]?"),
    ("text_block",
     r"\"\"\"[ \t\f]*\r?\n(?:[^\"\\]|\\[\s\S]|\"(?!\"\"))*\"\"\""),
    ("bad_text_block", r"\"\"\"[ \t\f]*\r?\n"),
    ("string", r"\"[^\"\\\n]*(?:\\[\s\S][^\"\\\n]*)*\""),
    ("bad_string", r"\""),
    ("char", r"'[^'\\\n]*(?:\\[\s\S][^'\\\n]*)*'"),
    ("bad_char", r"'"),
    # Outside the Java lexical grammar; tolerated as punctuation so the
    # byte round-trip still holds.
    ("other", r"[\s\S]"),
)
_TRIVIA_GROUPS = ("space", "comment")

# One whitespace or comment run.
_TRIVIA = "|".join(rx for name, rx in _GRAMMAR if name in _TRIVIA_GROUPS)
# The alternatives in order, with one capture group round every
# non-trivia alternative: findall returns each token's text and an empty
# string for each trivia match. The blanks and line breaks that follow
# a match are consumed with it, so they never form a match alone.
_TEXTS = re.compile(
    "(?:" + _TRIVIA + "|(" + "|".join(
        rx for name, rx in _GRAMMAR if name not in _TRIVIA_GROUPS) + "))"
    + r"[ \t\f\r\n]*")
# One named group per alternative: the group that matches a token's text
# alone names the token's lexical class.
_MASTER = re.compile("|".join(f"(?P<{name}>{rx})" for name, rx in _GRAMMAR))

_ERRORS = {
    "bad_comment": "unterminated block comment",
    "bad_text_block": "unterminated text block",
    "bad_string": "unterminated string literal",
    "bad_char": "unterminated char literal",
}


class LexError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


# Token codes: one character per token, naming its kind. The parser
# tests kinds and counts tokens on these characters, so the texts it
# looks for have codes of their own: `{ } ( ) [ ] ; , . @` and `?` stand
# for themselves, `&&` and `||` share "&", and each keyword has its own
# letter from U+00C0 on. Every other text takes the code of its group;
# an error group has none. A code is never read from the source: a
# letter such as U+00C0 outside a literal is punctuation of the `other`
# group. All codes are below U+0100, so a code string takes one byte per
# token, and a character class of codes compiles to a small table.
IDENTIFIER, OPERATOR = "i", "o"
KEYWORD_CODES = {word: chr(0xC0 + i)
                 for i, word in enumerate(sorted(KEYWORDS))}
_TEXT_CODES = {**KEYWORD_CODES, **{c: c for c in "{}()[];,.@?"},
               "&&": "&", "||": "&"}
_GROUP_CODES = {"word": IDENTIFIER, "operator": OPERATOR, "other": "x",
                "float": "f", "integer": "n", "string": "s",
                "text_block": "s", "char": "c"}
KIND_OF_CODE = {
    **dict.fromkeys("{}()[];,.@x", "punctuation"),
    **dict.fromkeys("?&" + OPERATOR, "operator"),
    **dict.fromkeys(KEYWORD_CODES.values(), "keyword"),
    IDENTIFIER: "identifier", "f": "float-literal", "n": "integer-literal",
    "s": "string-literal", "c": "char-literal",
}

# Distinct texts the code cache holds at most; it starts over when full,
# so a tree with many distinct literals cannot grow it without bound.
_KIND_CACHE_SIZE = 1 << 16


class _CodeOf(dict):
    """Token text -> code, filled on first sight of each text. A text of
    an error group is never stored, so every occurrence of one raises
    KeyError."""

    def __missing__(self, text: str) -> str:
        code = (_TEXT_CODES.get(text)
                or _GROUP_CODES[_MASTER.match(text).lastgroup])
        if len(self) >= _KIND_CACHE_SIZE:
            self.clear()
        self[text] = code
        return code


_CODE_OF = _CodeOf()


class Tokens:
    """The tokens of one source: `codes`, a string with one character
    per token naming its kind, the list of their `texts`, and the source
    they came from."""

    __slots__ = ("codes", "texts", "source", "_offset_lists")

    def __init__(self, codes: str, texts: list[str], source: str):
        self.codes = codes
        self.texts = texts
        self.source = source
        self._offset_lists: tuple[list[int], list[int]] | None = None

    def __len__(self) -> int:
        return len(self.texts)

    @property
    def kinds(self) -> list[str]:
        """The kind of each token, built from `codes` on every call."""
        return [KIND_OF_CODE[code] for code in self.codes]

    def position(self, i: int) -> tuple[int, int]:
        """Line and column of token `i`, both counted from 1. The first
        call finds the offsets of every token and every line."""
        if self._offset_lists is None:
            self._offset_lists = _offsets(self.source)
        starts, line_starts = self._offset_lists
        line = bisect_right(line_starts, starts[i])
        return line, starts[i] - line_starts[line - 1] + 1


def _offsets(source: str) -> tuple[list[int], list[int]]:
    """The start offset of each token of the source, from the matches
    `tokenize` takes its texts from, and of each line."""
    return ([m.start() for m in _TEXTS.finditer(source) if m[1]],
            [0] + [m.end() for m in re.finditer("\n", source)])


def tokenize(source: str) -> Tokens:
    """Tokenize Java source, dropping whitespace and comments.

    One findall call yields the texts; each distinct text's code is
    looked up once per process. A text of an error group has no code;
    the first one raises its LexError."""
    texts = list(filter(None, _TEXTS.findall(source)))
    try:
        codes = "".join(map(_CODE_OF.__getitem__, texts))
    except KeyError:
        groups = [_MASTER.match(text).lastgroup for text in texts]
        i = next(i for i, group in enumerate(groups) if group in _ERRORS)
        where = Tokens("", texts, source).position(i)
        raise LexError(_ERRORS[groups[i]], *where) from None
    return Tokens(codes, texts, source)
