"""Tokenizer for Java source text.

One grammar, `_GRAMMAR`: an ordered list of alternatives, one per
lexical class, with those that start the most tokens first; where two
share a first character, the one that must win comes first. Every
position matches some alternative, so the matches tile the source. The
operator alternative branches on the first character, so an operator
costs one branch, not a trial of each operator. `_TEXTS` captures every
non-trivia alternative in one group, and the blanks, line breaks and
comments after a token ride in that token's match, so each match is one
token and a single `findall` call yields the token texts with no Python
code per match; `_LEADING` skips the trivia before the first token.
`tokenize` maps each text to its code, one character naming its kind,
through a cache that holds each distinct text once, and returns a
`Tokens`: the codes as one string, the texts as a list, and the source.
An error group takes the rest of the source, so the first lex error is
always the last text, and only that text is classified to raise it.

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
# `bad_comment`, then the operator (`_TEXTS` takes each closed comment
# after a token, so a `/*` left to start a token has no closer); at `.`
# punctuation's `\.(?!\d)`, then the float. Each operator branch takes
# the longest match, and the branches accept exactly the 39 operators of
# JLS 3.12. Each error group matches the opening of a construct whose
# well-formed group failed and the rest of the source: the first error
# wins, so nothing after it need be lexed. A text block (JLS 3.10.6)
# opens with three quotes, optional blanks and a line break, and ends at
# the first unescaped three quotes. Only "\n" breaks lines, here and in
# the position bookkeeping.
_GRAMMAR = (
    ("space", r"[ \t\r\n\f]+"),
    ("comment", r"//[^\n]*|/\*[\s\S]*?\*/"),
    ("word", r"[A-Za-z_$][A-Za-z0-9_$]*"),
    ("punctuation", r"[{}()\[\];,@]|\.(?!\d)"),
    ("bad_comment", r"/\*[\s\S]*"),
    ("operator", r">(?:>>?)?=?|<<?=?|\+[+=]?|-[-=>]?|&[&=]?|\|[|=]?"
                 r"|[*/%^!=]=?|::?|[~?]"),
    ("float", r"(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?[fFdD]?"
              r"|\d+[eE][+-]?\d+[fFdD]?|\d+[fFdD]"),
    ("integer", r"0[xX][0-9a-fA-F]+[lL]?|0[bB][01]+[lL]?|\d+[lL]?"),
    ("text_block",
     r"\"\"\"[ \t\f]*\r?\n(?:[^\"\\]|\\[\s\S]|\"(?!\"\"))*\"\"\""),
    ("bad_text_block", r"\"\"\"[ \t\f]*\r?\n[\s\S]*"),
    ("string", r"\"[^\"\\\n]*(?:\\[\s\S][^\"\\\n]*)*\""),
    ("bad_string", r"\"[\s\S]*"),
    ("char", r"'[^'\\\n]*(?:\\[\s\S][^'\\\n]*)*'"),
    ("bad_char", r"'[\s\S]*"),
    # Outside the Java lexical grammar; tolerated as punctuation so the
    # byte round-trip still holds.
    ("other", r"[\s\S]"),
)
_TRIVIA_GROUPS = ("space", "comment")

# One whitespace or comment run.
_TRIVIA = "|".join(rx for name, rx in _GRAMMAR if name in _TRIVIA_GROUPS)
# One token per match: the non-trivia alternatives in one capture group,
# then the blanks and comments up to the next token. Nothing follows the
# trivia repeats, so they are possessive and keep no backtracking state.
_BLANKS = r"[ \t\f\r\n]*+"
_TEXTS = re.compile(
    "(" + "|".join(rx for name, rx in _GRAMMAR if name not in _TRIVIA_GROUPS)
    + f"){_BLANKS}(?:(?:{dict(_GRAMMAR)['comment']}){_BLANKS})*+")
# The trivia before the first token, where matching `_TEXTS` starts.
_LEADING = re.compile(f"(?:{_TRIVIA})*+")
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
    return ([m.start() for m in _TEXTS.finditer(
                source, _LEADING.match(source).end())],
            [0] + [m.end() for m in re.finditer("\n", source)])


def tokenize(source: str) -> Tokens:
    """Tokenize Java source, dropping whitespace and comments.

    One findall call after the leading trivia yields the texts; each
    distinct text's code is looked up once per process. Only the last
    text can be of an error group; it has no code and raises LexError."""
    texts = _TEXTS.findall(source, _LEADING.match(source).end())
    try:
        codes = "".join(map(_CODE_OF.__getitem__, texts))
    except KeyError:
        where = Tokens("", texts, source).position(len(texts) - 1)
        raise LexError(_ERRORS[_MASTER.match(texts[-1]).lastgroup],
                       *where) from None
    return Tokens(codes, texts, source)
