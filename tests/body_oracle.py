"""Reference body scan: one Python pass over a body's token kinds and
texts, token by token. `scan_body` in the parser must give the same
`BodyFacts` on every body; tests/test_parser.py checks that on generated
bodies."""

from classmetrics.lexer import PRIMITIVE_TYPES
from classmetrics.parser import BodyFacts

_DECISION_KEYWORDS = frozenset(["if", "for", "catch", "case"])
_STATEMENT_KEYWORDS = frozenset(["if", "for", "while", "do", "switch", "try"])


def scan_body(kinds: list[str], texts: list[str],
              own_method_names: set[str]) -> BodyFacts:
    """Every BodyFacts field of the body whose token kinds and texts are
    given (the tokens between the outer braces, braces excluded)."""
    new_types: list[str] = []
    decisions = short_circuits = statements = 0
    value_returns = bare_returns = external = internal = 0
    depth = 0
    do_stack: list[int] = []  # brace depth of each pending `do`
    n = len(texts)
    for i, kind in enumerate(kinds):
        text = texts[i]
        if kind == "punctuation":
            if text == ";":
                statements += 1
            elif text == "{":
                depth += 1
            elif text == "}":
                depth -= 1
            continue
        if kind == "operator":
            if text == "?":
                decisions += _is_ternary(texts, i)
            elif text == "&&" or text == "||":
                short_circuits += 1
            continue
        next_text = texts[i + 1] if i + 1 < n else ""
        if kind == "identifier":
            if next_text == "(":
                is_internal = _call_is_internal(kinds, texts, i,
                                                own_method_names)
                if is_internal:
                    internal += 1
                elif is_internal is not None:
                    external += 1
            continue
        if kind != "keyword":
            continue
        if text in _STATEMENT_KEYWORDS:
            statements += 1
        if text in _DECISION_KEYWORDS:
            decisions += 1
        elif text == "do":
            do_stack.append(depth)
            decisions += 1
        elif text == "while":
            prev = texts[i - 1] if i else ""
            if do_stack and do_stack[-1] == depth and prev in ("}", ";"):
                do_stack.pop()  # tail of a do-while, already counted
            else:
                decisions += 1
        elif text == "return":
            if i + 1 < n and next_text != ";":
                value_returns += 1
            else:
                bare_returns += 1
        elif text == "new":
            name = _new_type_name(kinds, texts, i + 1)
            if name:
                new_types.append(name)
        elif next_text == "(":
            if text == "super":
                external += 1
            elif text == "this":
                internal += 1  # constructor delegation
    return BodyFacts(
        decision_point_count=decisions,
        short_circuit_count=short_circuits,
        value_return_count=value_returns,
        bare_return_count=bare_returns,
        external_call_count=external,
        internal_call_count=internal,
        statement_count=statements,
        new_expression_type_names=new_types,
    )


def _call_is_internal(kinds: list[str], texts: list[str], i: int,
                      own_method_names: set[str]) -> bool | None:
    """Whether the call of the identifier at i is internal; None for an
    object creation."""
    chain_head = _chain_head(kinds, texts, i)
    before = texts[chain_head - 1] if chain_head else ""
    if before == "new":
        return None
    if chain_head == i and before != ".":
        return texts[i] in own_method_names
    # `this.f()` is internal; any other receiver (named chain or
    # expression result) is external.
    return chain_head == i - 2 and texts[chain_head] == "this"


def _new_type_name(kinds: list[str], texts: list[str], j: int) -> str:
    """Dotted type name of the `new` expression whose type starts at j."""
    parts = []
    n = len(texts)
    while j < n and (kinds[j] == "identifier"
                     or texts[j] in PRIMITIVE_TYPES):
        parts.append(texts[j])
        if j + 1 < n and texts[j + 1] == ".":
            parts.append(".")
            j += 2
        else:
            break
    return "".join(parts)


def _is_ternary(texts: list[str], i: int) -> bool:
    # Filter out generic wildcards: <?>, <? extends X>, Map<String,?>.
    prev = texts[i - 1] if i else ""
    nxt = texts[i + 1] if i + 1 < len(texts) else ""
    if prev in ("<", ","):
        return False
    if nxt in ("extends", "super", ">", ">>", ","):
        return False
    return True


def _chain_head(kinds: list[str], texts: list[str], i: int) -> int:
    """Index of the first token of the dotted name chain ending at i."""
    j = i
    while j >= 2 and texts[j - 1] == ".":
        kind, text = kinds[j - 2], texts[j - 2]
        if kind == "identifier" or (kind == "keyword"
                                    and text in ("this", "super")):
            j -= 2
        else:
            break
    return j
