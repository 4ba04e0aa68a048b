"""Token-stream parser extracting per-file class declaration models.

Handles the classic Java subset: package/import declarations, class and
interface declarations with extends/implements, fields, methods and
constructors. Method bodies are captured as balanced token ranges and
scanned for structural facts (decision points, returns, call sites).
Generics, annotations, enums, records, lambdas and initializer blocks
are tokenized but reduced to skip-with-warning so mixed codebases still
parse.

The parser reads the `codes` string and the `texts` list of a lexer
`Tokens`. It tests a token's kind by its code. It finds the braces and
counts each body's facts with `str` and `re` methods on the codes, and
runs Python code only at the few tokens whose meaning depends on their
neighbours. It asks for a token's position (`Tokens.position`) only to
report a warning or a brace error, so a file that parses cleanly never
computes token offsets.
"""

import re
from typing import NamedTuple

from .lexer import (IDENTIFIER, KEYWORD_CODES, OPERATOR, PRIMITIVE_TYPES,
                    Tokens)

MODIFIERS = frozenset(
    ["public", "private", "protected", "static", "final", "abstract",
     "native", "synchronized", "transient", "volatile", "strictfp", "default",
     "sealed"]
)

# Codes that scan_body counts or searches for (see lexer.KEYWORD_CODES).
_IF, _FOR, _WHILE, _DO, _SWITCH, _TRY = (
    KEYWORD_CODES[word] for word in "if for while do switch try".split())
_CATCH, _CASE, _RETURN, _NEW, _THIS, _SUPER = (
    KEYWORD_CODES[word] for word in "catch case return new this super".split())
_EXTENDS = KEYWORD_CODES["extends"]
_BARE_RETURN = _RETURN + ";"
_SUPER_CALL, _THIS_CALL = _SUPER + "(", _THIS + "("
# Codes of the name chain before a call: `a.b.f(`, `this.f(`.
_RECEIVER_CODES = IDENTIFIER + _THIS + _SUPER
_TYPE_CODES = IDENTIFIER + "".join(KEYWORD_CODES[word]
                                   for word in sorted(PRIMITIVE_TYPES))

_BRACE = re.compile("[{}]")
_CONTROL = re.compile(
    f"[{_IF}{_FOR}{_WHILE}{_DO}{_SWITCH}{_TRY}{_CATCH}{_CASE}]")
_CALL = re.compile(IDENTIFIER + r"\(")
_DO_WHILE = re.compile(f"[{_DO}{_WHILE}]")
# `new` and its type name (group 1): identifiers and primitive types
# joined by dots, and the dot after the last one if one follows.
_NEW_TYPE = re.compile(f"{_NEW}([{_TYPE_CODES}](?:\\.[{_TYPE_CODES}])*\\.?)")
# A `?` next to these codes may be a generic wildcard (<?>, <? extends
# X>, Map<String,?>), and its neighbours' texts decide; any other `?` is
# a ternary.
_MAYBE_WILDCARD = re.compile(
    f"\\?(?:(?<=[{OPERATOR},]\\?)|(?=[{OPERATOR},{_EXTENDS}{_SUPER}]))")
_WILDCARD_NEXT = ("extends", "super", ">", ">>", ",")

# Class and interface declarations nested deeper than this are skipped
# with a warning; the parser recurses once per level.
MAX_CLASS_NESTING = 100


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class BodyFacts(NamedTuple):
    decision_point_count: int = 0
    short_circuit_count: int = 0
    value_return_count: int = 0
    bare_return_count: int = 0
    external_call_count: int = 0
    internal_call_count: int = 0
    statement_count: int = 0
    # BodyFacts() shares this empty list; scan_body passes its own.
    new_expression_type_names: list[str] = []


class Record:
    """Base of the records that are filled in step by step. A subclass
    lists its fields in `__slots__`; two records of one class are equal
    when their fields are, in that order, `repr` is `Name(field=value,
    ...)` in that order, and no record is hashable."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__) + ")"


class FieldDecl(Record):
    __slots__ = ("name", "declared_type_name", "array_rank", "is_static",
                 "visibility")

    def __init__(self, name: str, declared_type_name: str,
                 array_rank: int = 0, is_static: bool = False,
                 visibility: str = ""):
        self.name = name
        self.declared_type_name = declared_type_name  # array suffix stripped
        self.array_rank = array_rank
        self.is_static = is_static
        self.visibility = visibility


class MethodDecl(Record):
    __slots__ = ("name", "is_constructor", "return_type_name",
                 "parameter_type_names", "is_abstract", "body")

    def __init__(self, name: str, is_constructor: bool = False,
                 return_type_name: str | None = None,
                 parameter_type_names: list[str] | None = None,
                 is_abstract: bool = False, body: BodyFacts | None = None):
        self.name = name
        self.is_constructor = is_constructor
        self.return_type_name = return_type_name
        self.parameter_type_names = (
            [] if parameter_type_names is None else parameter_type_names)
        self.is_abstract = is_abstract
        self.body = body

    @property
    def signature(self) -> str:
        return f"{self.name}({','.join(self.parameter_type_names)})"


class ClassDecl(Record):
    __slots__ = ("name", "kind", "visibility", "is_abstract",
                 "superclass_name", "extended_interface_names",
                 "implemented_interface_names", "fields", "methods",
                 "nested", "unit_path")

    def __init__(self, name: str, kind: str, visibility: str = "",
                 is_abstract: bool = False,
                 superclass_name: str | None = None,
                 extended_interface_names: list[str] | None = None,
                 implemented_interface_names: list[str] | None = None,
                 fields: list[FieldDecl] | None = None,
                 methods: list[MethodDecl] | None = None,
                 nested: list["ClassDecl"] | None = None,
                 unit_path: str = ""):
        self.name = name
        self.kind = kind  # 'class' | 'interface'
        self.visibility = visibility
        self.is_abstract = is_abstract
        self.superclass_name = superclass_name
        self.extended_interface_names = (
            [] if extended_interface_names is None
            else extended_interface_names)
        self.implemented_interface_names = (
            [] if implemented_interface_names is None
            else implemented_interface_names)
        self.fields = [] if fields is None else fields
        self.methods = [] if methods is None else methods
        self.nested = [] if nested is None else nested
        self.unit_path = unit_path


class CompilationUnit(Record):
    __slots__ = ("file_path", "package_name", "imports", "type_decls",
                 "warnings")

    def __init__(self, file_path: str, package_name: str = "",
                 imports: list[str] | None = None,
                 type_decls: list[ClassDecl] | None = None,
                 warnings: list[str] | None = None):
        self.file_path = file_path
        self.package_name = package_name
        self.imports = [] if imports is None else imports
        self.type_decls = [] if type_decls is None else type_decls
        self.warnings = [] if warnings is None else warnings


def parse(tokens: Tokens, file_path: str = "<memory>") -> CompilationUnit:
    """Parse one file's tokens into a CompilationUnit (tolerant mode)."""
    closers = _match_braces(tokens, file_path)
    return _Parser(tokens, file_path, closers).parse_unit()


# ---------------------------------------------------------------------------
# Body facts. scan_body reads one method body, the tokens start..end of a
# file (the tokens between the outer braces, braces excluded); the other
# functions here are views of its result for the body of a Tokens.

def scan_body(codes: str, texts: list[str], start: int, end: int,
              own_method_names: set[str]) -> BodyFacts:
    """Collect every BodyFacts field of the body codes[start:end].

    Decision points: if/for/while/do, case labels (not default), catch
    clauses and ternaries; `&&`/`||` are counted apart. A `while` that
    closes a `do` at the same brace depth is part of that `do`.

    Calls: external when they have an explicit receiver other than
    `this` (x.f(), super.f(), super(...)) or are a bare name not declared
    in the enclosing class; `new` expressions are object creations.

    Statements: semicolons plus statement keywords.
    """
    # Counting on a copy of the range is cheaper than passing the range
    # to each of the dozen counts below. Most short bodies hold no control
    # keyword and no return, and one search costs less than the counts it
    # saves.
    body = codes[start:end]
    count = body.count
    statements = count(";")
    decisions = bare_returns = 0
    if _CONTROL.search(body):
        branches = count(_IF) + count(_FOR)
        dos = count(_DO)
        whiles = count(_WHILE)
        statements += branches + dos + whiles + count(_SWITCH) + count(_TRY)
        if dos:
            whiles -= _do_while_tails(body)
        # `default:` labels deliberately add nothing.
        decisions = branches + dos + whiles + count(_CATCH) + count(_CASE)
    if "?" in body:
        decisions += count("?")
        for m in _MAYBE_WILDCARD.finditer(body):
            k = start + m.start()
            if ((m.start() and texts[k - 1] in ("<", ",")) or (
                    m.end() < len(body) and texts[k + 1] in _WILDCARD_NEXT)):
                decisions -= 1  # a generic wildcard, not a ternary
    returns = count(_RETURN)
    if returns:
        bare_returns = count(_BARE_RETURN) + body.endswith(_RETURN)
    external = count(_SUPER_CALL)
    internal = count(_THIS_CALL)  # constructor delegation
    for m in _CALL.finditer(body):
        i = head = m.start()
        while (head >= 2 and body[head - 1] == "."
               and body[head - 2] in _RECEIVER_CODES):
            head -= 2
        before = body[head - 1] if head else ""
        if before == _NEW:
            continue  # object creation
        if head == i and before != ".":
            if texts[start + i] in own_method_names:
                internal += 1
            else:
                external += 1
        # `this.f()` is internal; any other receiver (named chain or
        # expression result) is external.
        elif head == i - 2 and body[head] == _THIS:
            internal += 1
        else:
            external += 1
    new_types = []
    if _NEW in body:
        new_types = ["".join(texts[start + m.start(1):start + m.end(1)])
                     for m in _NEW_TYPE.finditer(body)]
    # Positional, in field order: keywords would cost a dict per body.
    return BodyFacts(decisions, count("&"), returns - bare_returns,
                     bare_returns, external, internal, statements, new_types)


def _do_while_tails(body: str) -> int:
    """The `while`s in the body codes that close a `do` at the same brace
    depth."""
    tails = depth = counted = 0
    pending: list[int] = []  # brace depth of each open `do`
    for m in _DO_WHILE.finditer(body):
        k = m.start()
        depth += body.count("{", counted, k) - body.count("}", counted, k)
        counted = k
        if m[0] == _DO:
            pending.append(depth)
        elif pending and pending[-1] == depth and body[k - 1] in "};":
            pending.pop()
            tails += 1
    return tails


def count_decision_points(body: Tokens,
                          count_short_circuit: bool = False) -> int:
    """Decision points of one body; `&&`/`||` only when asked."""
    facts = scan_body(body.codes, body.texts, 0, len(body), set())
    return facts.decision_point_count + (
        facts.short_circuit_count if count_short_circuit else 0)


def classify_calls(body: Tokens,
                   own_method_names: set[str]) -> tuple[int, int]:
    """Classify every call site as (external, internal)."""
    facts = scan_body(body.codes, body.texts, 0, len(body), own_method_names)
    return facts.external_call_count, facts.internal_call_count


def count_returns(body: Tokens) -> tuple[int, int]:
    """Return (value_returns, bare_returns) for one body."""
    facts = scan_body(body.codes, body.texts, 0, len(body), set())
    return facts.value_return_count, facts.bare_return_count


# The two views below have no caller in the package; they stay because
# bench/tracing.py wraps every body view by name.
def count_short_circuit_ops(body: Tokens) -> int:
    return scan_body(body.codes, body.texts, 0, len(body),
                     set()).short_circuit_count


def collect_new_types(body: Tokens) -> list[str]:
    return scan_body(body.codes, body.texts, 0, len(body),
                     set()).new_expression_type_names


def _match_braces(tokens: Tokens, file_path: str) -> dict[int, int]:
    """Index of the matching '}' for the index of each '{'."""
    closers = {}
    stack = []
    for m in _BRACE.finditer(tokens.codes):
        i = m.start()
        if m[0] == "{":
            stack.append(i)
        elif not stack:
            raise ParseError(f"unmatched '}}' in {file_path}",
                             *tokens.position(i))
        else:
            closers[stack.pop()] = i
    if stack:
        raise ParseError(f"unclosed '{{' in {file_path}",
                         *tokens.position(stack[-1]))
    return closers


# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: Tokens, file_path: str,
                 closers: dict[int, int]):
        self.tokens = tokens
        self.codes = tokens.codes
        self.texts = tokens.texts
        self.n = len(tokens.texts)
        self.closers = closers  # '{' index -> matching '}' index
        self.pos = 0
        self.depth = 0  # class bodies entered and not yet left
        self.unit = CompilationUnit(file_path=file_path)

    # -- token helpers ------------------------------------------------

    def cur(self) -> str | None:
        """Text of the current token; None at the end."""
        return self.texts[self.pos] if self.pos < self.n else None

    def at_identifier(self, off: int = 0) -> bool:
        """Whether the token `off` places ahead is an identifier."""
        return self.codes.startswith(IDENTIFIER, self.pos + off)

    def peek(self, off: int) -> str | None:
        """Text of the token `off` places ahead; None past the end."""
        p = self.pos + off
        return self.texts[p] if p < self.n else None

    def advance(self) -> str | None:
        text = self.cur()
        if text is not None:
            self.pos += 1
        return text

    def at(self, text: str) -> bool:
        return self.pos < self.n and self.texts[self.pos] == text

    def warn(self, message: str) -> None:
        where = ""
        if self.pos < self.n:
            where = f" at line {self.tokens.position(self.pos)[0]}"
        self.unit.warnings.append(f"{self.unit.file_path}: {message}{where}")

    def _skip(self, message: str) -> None:
        """Warn, then skip the declaration at the current token."""
        self.warn(message)
        self._skip_declaration()

    # -- top level ----------------------------------------------------

    def parse_unit(self) -> CompilationUnit:
        while (text := self.cur()) is not None:
            if text == "package":
                self.advance()
                self.unit.package_name = self._read_until_semi()
            elif text == "import":
                self.advance()
                self.unit.imports.append(self._read_until_semi())
            elif text == "@" and self.peek(1) != "interface":
                self._skip_annotation()
            elif text == ";":
                self.advance()
            else:
                before = self.pos
                mods = self._collect_modifiers()
                text = self.cur()
                if text is not None and not self._parse_type_member(
                        mods, text, self.unit.type_decls):
                    self._skip(f"unsupported top-level construct '{text}'"
                               " skipped")
                if self.pos == before:
                    self.advance()  # never stall on unexpected tokens
        return self.unit

    def _read_until_semi(self) -> str:
        parts = []
        while self.cur() is not None and not self.at(";"):
            parts.append(self.advance())
        if self.at(";"):
            self.advance()
        out = []
        for p in parts:
            if out and _wordlike(out[-1][-1]) and _wordlike(p[0]):
                out.append(" ")
            out.append(p)
        return "".join(out)

    def _collect_modifiers(self) -> list[str]:
        mods = []
        while self.cur() is not None:
            if self.at("@") and self.peek(1) != "interface":
                self._skip_annotation()
                continue
            if self.cur() in MODIFIERS:
                mods.append(self.advance())
                continue
            if (self.at("non") and self.peek(1) == "-"
                    and self.peek(2) == "sealed"):
                self.pos += 3
                mods.append("non-sealed")
                continue
            break
        return mods

    def _skip_annotation(self) -> None:
        self.warn("annotation skipped")
        self.advance()  # '@'
        if self.at_identifier() or self.cur() in KEYWORD_CODES:
            self.advance()
            while self.at(".") and self.peek(1) is not None:
                self.advance()
                self.advance()
        if self.at("("):
            self._skip_parenthesized()

    def _skip_declaration(self) -> None:
        """Skip to the end of a declaration: past a balanced brace block or
        the next top-level semicolon, whichever comes first."""
        while (text := self.cur()) is not None:
            if text == ";":
                self.advance()
                return
            if text == "{":
                self._skip_braces()
                return
            if text == "}":
                return  # let the enclosing body loop consume it
            self.advance()

    def _skip_braces(self) -> None:
        """Jump past the '}' matching the current '{'."""
        self.pos = self.closers[self.pos] + 1

    def _skip_parenthesized(self) -> None:
        """Skip the balanced parentheses starting at the current '('."""
        depth = 0
        while self.cur() is not None:
            text = self.advance()
            if text == "(":
                depth += 1
            elif text == ")":
                depth -= 1
                if depth == 0:
                    return

    # -- declarations ---------------------------------------------------

    def _parse_type_member(self, mods: list[str], text: str,
                           into: list[ClassDecl]) -> bool:
        """Parse the class or interface at `text` into `into`, or skip an
        enum, an annotation type (`@interface`, JLS 9.6; _collect_modifiers
        stops before its `@`) or a record (JLS 8.10), each with one
        warning. False if `text` starts none of them."""
        if text in ("class", "interface"):
            if self.depth >= MAX_CLASS_NESTING:
                self._skip(f"class nested deeper than {MAX_CLASS_NESTING}"
                           " levels skipped")
            elif (decl := self._parse_type_decl(mods)) is not None:
                into.append(decl)
        elif text == "enum":
            self._skip("enum declaration skipped")
        elif text == "@":
            self._skip(f"annotation type declaration '{self.peek(2) or ''}'"
                       " skipped")
        elif (text == "record" and self.at_identifier(1)
              and self.peek(2) in ("(", "<")):
            self._skip("record declaration skipped")
        else:
            return False
        return True

    def _parse_type_decl(self, mods: list[str]) -> ClassDecl | None:
        kind = self.advance()  # 'class' | 'interface'
        if not self.at_identifier():
            self._skip(f"malformed {kind} header skipped")
            return None
        decl = ClassDecl(
            name=self.cur(),
            kind=kind,
            visibility=_visibility(mods),
            is_abstract="abstract" in mods or kind == "interface",
            unit_path=self.unit.file_path,
        )
        self.advance()
        if self.at("<"):
            self.warn(f"type parameters on {decl.name} ignored")
            if not self._try_skip_angles():
                self._skip_declaration()
                return None

        if self.at("extends"):
            self.advance()
            names = self._read_name_list()
            if kind == "interface":
                decl.extended_interface_names = names
            elif names:
                decl.superclass_name = names[0]
        if self.at("implements"):
            self.advance()
            decl.implemented_interface_names = self._read_name_list()
        if self.at("permits"):
            self.advance()
            self._read_name_list()

        if not self.at("{"):
            self._skip(f"malformed {kind} body for {decl.name};"
                       " declaration skipped")
            return None
        self.advance()
        self.depth += 1
        self._parse_class_body(decl)
        self.depth -= 1
        return decl

    def _read_name_list(self) -> list[str]:
        """Read type names separated by commas, each as `_read_type` reads
        a type. The list ends where no comma follows a name."""
        names = []
        while self.at_identifier() and (type_info := self._read_type()):
            names.append(type_info[0])
            if not self.at(","):
                break
            self.advance()
        return names

    def _parse_class_body(self, decl: ClassDecl) -> None:
        pending_bodies: list[tuple[MethodDecl, int, int]] = []
        # The field names and the (is_constructor, signature) pairs of the
        # methods declared so far; a repeat of either is skipped.
        seen: set[str | tuple[bool, str]] = set()
        while self.cur() is not None and not self.at("}"):
            self._parse_member(decl, pending_bodies, seen)
        if self.at("}"):
            self.advance()
        # Bodies are scanned once the full method name set is known, so
        # calls to later-declared methods classify as internal.
        own_names = {m.name for m in decl.methods}
        for method, start, end in pending_bodies:
            method.body = scan_body(self.codes, self.texts, start, end,
                                    own_names)

    def _parse_member(self, decl: ClassDecl,
                      pending: list[tuple[MethodDecl, int, int]],
                      seen: set) -> None:
        if self.at(";"):
            self.advance()
            return
        mods = self._collect_modifiers()
        text = self.cur()
        if (text is None or text == "}"
                or self._parse_type_member(mods, text, decl.nested)):
            return
        if text == "{":
            self._skip("initializer block skipped")
            return
        if text == "<":
            self._skip("generic method skipped")
            return

        type_info = self._read_type()
        if type_info is None or not (self.at("(") or self.at_identifier()):
            self._skip(f"malformed member in {decl.name} skipped")
            return
        type_name, type_rank = type_info

        if self.at("("):
            # No separate return type: constructor (or tolerated oddity).
            if type_name != decl.name:
                self.warn(f"method '{type_name}' without return type")
            method = MethodDecl(name=type_name,
                                is_constructor=type_name == decl.name)
            self._finish_method(decl, method, mods, pending, seen)
            return
        name = self.advance()

        if self.at("("):
            method = MethodDecl(name=name, return_type_name=type_name)
            self._finish_method(decl, method, mods, pending, seen)
        else:
            self._finish_fields(decl, mods, type_name, type_rank, name, seen)

    def _finish_method(self, decl: ClassDecl, method: MethodDecl,
                       mods: list[str],
                       pending: list[tuple[MethodDecl, int, int]],
                       seen: set) -> None:
        method.parameter_type_names = self._read_parameters()
        if self.at("throws"):
            self.advance()
            self._read_name_list()
        key = (method.is_constructor, method.signature)
        if key in seen:
            self._skip(f"repeated method '{method.signature}' in {decl.name}"
                       " skipped")
            return
        seen.add(key)
        method.is_abstract = ("abstract" in mods
                              or (decl.kind == "interface" and "default" not in mods))
        if self.at("{"):
            start = self.pos + 1
            self._skip_braces()
            method.is_abstract = False
            pending.append((method, start, self.pos - 1))
        elif self.at(";"):
            self.advance()
        else:
            self._skip(f"malformed method {method.name} in {decl.name}")
        decl.methods.append(method)

    def _read_parameters(self) -> list[str]:
        self.advance()  # '('
        types = []
        while self.cur() is not None and not self.at(")"):
            if self.at(","):
                self.advance()
                continue
            self._collect_modifiers()
            type_info = self._read_type()
            if type_info is None:
                # Recover at the next comma or the closing paren.
                while self.cur() is not None and not self.at(",") and not self.at(")"):
                    self.advance()
                continue
            type_name, rank = type_info
            if self.at(".") and self.peek(1) == "." and self.peek(2) == ".":
                rank += 1  # varargs behave like one array dimension
                self.pos += 3
            if self.at_identifier():
                self.advance()  # parameter name
            rank += self._read_dims()
            types.append(type_name + "[]" * rank)
        if self.at(")"):
            self.advance()
        return types

    def _finish_fields(self, decl: ClassDecl, mods: list[str],
                       type_name: str, type_rank: int, first_name: str,
                       seen: set) -> None:
        # Interface fields are implicitly static constants.
        is_static = "static" in mods or decl.kind == "interface"
        name = first_name
        while True:
            rank = type_rank + self._read_dims()
            if name in seen:
                self.warn(f"repeated field '{name}' in {decl.name} skipped")
            else:
                seen.add(name)
                decl.fields.append(FieldDecl(
                    name=name,
                    declared_type_name=type_name,
                    array_rank=rank,
                    is_static=is_static,
                    visibility=_visibility(mods),
                ))
            if self.at("="):
                self.advance()
                self._skip_initializer()
            if self.at(","):
                self.advance()
                if not self.at_identifier():
                    self._skip(f"malformed field declarator in {decl.name}")
                    return
                name = self.advance()
                continue
            if self.at(";"):
                self.advance()
            else:
                self._skip(f"unterminated field declaration in {decl.name}")
            return

    def _read_dims(self) -> int:
        """Consume the `[ ]` pairs at the current token, after a type or a
        declarator name, and return their number. A `[` without its `]`
        is no dimension and stays unread."""
        rank = 0
        while self.at("[") and self.peek(1) == "]":
            self.pos += 2
            rank += 1
        return rank

    def _skip_initializer(self) -> None:
        """Skip an initializer expression up to a top-level ',' or ';'.
        A brace block (array initializer, anonymous class body) is one
        jump."""
        depth = 0
        while (text := self.cur()) is not None:
            if text == "{":
                self._skip_braces()
                continue
            if text in "([":
                depth += 1
            elif text in ")]}":
                if depth == 0:
                    return
                depth -= 1
            elif depth == 0 and text in (",", ";"):
                return
            self.advance()

    def _read_type(self) -> tuple[str, int] | None:
        """Read a type: primitive or dotted name, optional generic args
        (dropped), optional [] pairs. Returns (base_name, array_rank)."""
        if self.at_identifier():
            parts = [self.advance()]
            while self.at(".") and self.at_identifier(1):
                self.advance()
                parts.append(self.advance())
            name = ".".join(parts)
        elif self.cur() in PRIMITIVE_TYPES or self.at("void"):
            name = self.advance()
        else:
            return None
        if self.at("<"):
            self.warn(f"generic type arguments on {name} ignored")
            if not self._try_skip_angles():
                return None
        return name, self._read_dims()

    def _try_skip_angles(self) -> bool:
        """Consume a balanced <...> type-argument list; False if the
        brackets do not balance before a structural token."""
        save = self.pos
        depth = 0
        while (text := self.cur()) is not None:
            if text == "<":
                depth += 1
            elif text == ">":
                depth -= 1
            elif text == ">>":
                depth -= 2
            elif text == ">>>":
                depth -= 3
            elif text in (";", "{", "(", ")", "="):
                break
            self.advance()
            if depth <= 0:
                return depth == 0
        self.pos = save
        return False


def _visibility(mods: list[str]) -> str:
    """The access modifier among mods, or "" for package access."""
    return next((m for m in mods
                 if m in ("public", "private", "protected")), "")


def _wordlike(ch: str) -> bool:
    return ch.isalnum() or ch in "_$*"
