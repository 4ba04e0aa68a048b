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
computes token offsets. The declaration walk reads copies of the codes
and texts that end in two end tokens, so it looks up to two tokens ahead
with no bounds check and stops at the first end token; a warning there
gives the line of the last real token.
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
_EXTENDS, _THROWS = KEYWORD_CODES["extends"], KEYWORD_CODES["throws"]
_BARE_RETURN = _RETURN + ";"
_SUPER_CALL, _THIS_CALL = _SUPER + "(", _THIS + "("
# Codes of the name chain before a call: `a.b.f(`, `this.f(`.
_RECEIVER_CODES = IDENTIFIER + _THIS + _SUPER
_PRIMITIVE_CODES = [KEYWORD_CODES[word] for word in sorted(PRIMITIVE_TYPES)]
_TYPE_CODES = IDENTIFIER + "".join(_PRIMITIVE_CODES)
_DOT_NAME, _AT_INTERFACE = "." + IDENTIFIER, "@" + KEYWORD_CODES["interface"]
_VOID_OR_PRIMITIVE = (KEYWORD_CODES["void"], *_PRIMITIVE_CODES)
_NON_SEALED = ["non", "-", "sealed"]

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
    lists its fields in `__slots__`, and the defaults of its last fields
    in its class statement: `class R(Record, b=0, c=list)`. Its `__init__`
    takes the fields in slot order; a default of `list`, `set` or `dict`,
    and an argument of None there, stands for a fresh empty one. Two
    records of one class are equal when their fields are, in that order,
    `repr` is `Name(field=value, ...)` in that order, and no record is
    hashable."""

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls, **defaults):
        super().__init_subclass__()
        names = cls.__slots__
        if list(defaults) != list(names[len(names) - len(defaults):]):
            raise TypeError(f"{cls.__name__}: defaults must name the last"
                            " slots, in order")
        lines = [f"def __init__(self, {', '.join(names)}):"]
        for name in names:
            value = name
            if isinstance(defaults.get(name), type):
                value = f"{defaults[name]()!r} if {name} is None else {name}"
            lines.append(f"    self.{name} = {value}")
        namespace = {}
        exec("\n".join(lines), namespace)
        init = cls.__init__ = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__defaults__ = tuple(None if isinstance(value, type) else value
                                  for value in defaults.values())

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__) + ")"


class FieldDecl(Record, array_rank=0, is_static=False, visibility=""):
    # declared_type_name has the array suffix stripped.
    __slots__ = ("name", "declared_type_name", "array_rank", "is_static",
                 "visibility")


class MethodDecl(Record, is_constructor=False, return_type_name=None,
                 parameter_type_names=list, is_abstract=False, body=None):
    __slots__ = ("name", "is_constructor", "return_type_name",
                 "parameter_type_names", "is_abstract", "body")

    @property
    def signature(self) -> str:
        return f"{self.name}({','.join(self.parameter_type_names)})"


class ClassDecl(Record, visibility="", is_abstract=False,
                superclass_name=None, extended_interface_names=list,
                implemented_interface_names=list, fields=list,
                methods=list, nested=list, unit_path=""):
    # kind is 'class' or 'interface'.
    __slots__ = ("name", "kind", "visibility", "is_abstract",
                 "superclass_name", "extended_interface_names",
                 "implemented_interface_names", "fields", "methods",
                 "nested", "unit_path")


class CompilationUnit(Record, package_name="", imports=list,
                      type_decls=list, warnings=list):
    __slots__ = ("file_path", "package_name", "imports", "type_decls",
                 "warnings")


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
        # The end tokens: no real token has code "\0" (a NUL in the source
        # is an `other` token, code "x") or an empty text. `pos` never
        # moves past the first of them.
        self.codes = tokens.codes + "\0\0"
        self.texts = tokens.texts + ["", ""]
        self.closers = closers  # '{' index -> matching '}' index
        self.pos = 0
        self.depth = 0  # class bodies entered and not yet left
        self.unbalanced_at = -1  # where the last unbalanced <...> scan stopped
        self.unit = CompilationUnit(file_path=file_path)

    def warn(self, message: str) -> None:
        # At the end of the input, the line of the last token.
        line = self.tokens.position(min(self.pos, len(self.tokens) - 1))[0]
        self.unit.warnings.append(
            f"{self.unit.file_path}: {message} at line {line}")

    def _skip(self, message: str) -> None:
        """Warn, then skip the declaration at the current token."""
        self.warn(message)
        self._skip_declaration()

    # -- top level ----------------------------------------------------

    def parse_unit(self) -> CompilationUnit:
        while text := self.texts[self.pos]:
            if text == "package":
                self.pos += 1
                self.unit.package_name = self._read_until_semi()
            elif text == "import":
                self.pos += 1
                self.unit.imports.append(self._read_until_semi())
            elif text == "@" and self.texts[self.pos + 1] != "interface":
                self._skip_annotation()
            elif text == ";":
                self.pos += 1
            else:
                before = self.pos
                mods = self._collect_modifiers()
                text = self.texts[self.pos]
                if text and not self._parse_type_member(
                        mods, text, self.unit.type_decls):
                    self._skip(f"unsupported top-level construct '{text}'"
                               " skipped")
                if self.pos == before:
                    self.pos += 1  # never stall on unexpected tokens
        return self.unit

    def _read_until_semi(self) -> str:
        start = self.pos
        end = self.codes.find(";", start)
        if end < 0:  # no ';': the rest of the input
            end = self.pos = len(self.tokens)
        else:
            self.pos = end + 1
        out = []
        for p in self.texts[start:end]:
            if out and _wordlike(out[-1][-1]) and _wordlike(p[0]):
                out.append(" ")
            out.append(p)
        return "".join(out)

    def _collect_modifiers(self) -> list[str]:
        mods = []
        while text := self.texts[self.pos]:
            if text in MODIFIERS:
                mods.append(text)
                self.pos += 1
            elif (text == "@"
                  and not self.codes.startswith(_AT_INTERFACE, self.pos)):
                self._skip_annotation()
            elif self.texts[self.pos:self.pos + 3] == _NON_SEALED:
                mods.append("non-sealed")
                self.pos += 3
            else:
                break
        return mods

    def _skip_annotation(self) -> None:
        self.warn("annotation skipped")
        self.pos += 1  # '@'
        if (self.codes[self.pos] == IDENTIFIER
                or self.texts[self.pos] in KEYWORD_CODES):
            self.pos += 1
            # A '.' with no token after it stays unread.
            while self.texts[self.pos] == "." and self.texts[self.pos + 1]:
                self.pos += 2
        if self.texts[self.pos] == "(":
            self.pos += 1
            if self._skip_to(")"):
                self.pos += 1

    def _skip_declaration(self) -> None:
        """Skip the rest of a declaration: past the `;`, brace block or stray
        `)` or `]` that `_skip_to` stops at, or up to a `}`."""
        self._skip_to(";{)]")
        code = self.codes[self.pos]
        if code == "{":
            self.pos = self.closers[self.pos] + 1
        elif code in ";)]":
            self.pos += 1

    def _skip_to(self, stops: str) -> bool:
        """Skip to the first token with a code in `stops` outside every `(`
        and `[` the skip opened, or to a `{` in `stops` at any depth; True
        there. Any other brace block is one jump, and so are type arguments
        after `new` and a name that `_try_skip_angles` reads. A `)` or `]`
        closes up to its own opener, or all if that is not open, so the `[`
        in `f(int a[)` does not hide the `)`. A `}` (the end of the
        enclosing body), a `;` at any depth (outside a body, valid Java has
        none in parentheses) and the end of the input cut the skip: False
        there, unless at a `;` in `stops` with nothing open. The stop token
        stays unread."""
        codes = self.codes
        opened = []  # the '(' and '[' not yet closed, innermost last
        while (code := codes[self.pos]) not in "};\0":
            if code in stops and (not opened or code == "{"):
                return True
            if code == "{":
                self.pos = self.closers[self.pos]
            elif code in "([":
                opened.append(code)
            elif code in ")]":
                opener = "(" if code == ")" else "["
                if code in stops and opener not in reversed(opened):
                    return True
                while opened and opened.pop() != opener:
                    pass
            elif (code == _NEW and (m := _NEW_TYPE.match(codes, self.pos))
                  and self.texts[m.end()] == "<"):
                self.pos = m.end()
                self._try_skip_angles()
                continue
            self.pos += 1
        return not opened and code in stops

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
            elif (decl := self._parse_type_decl(mods, text)) is not None:
                into.append(decl)
        elif text == "enum":
            self._skip("enum declaration skipped")
        elif text == "@":  # '@interface', then the name if there is one
            name = (f" '{self.texts[self.pos + 2]}'"
                    if self.codes[self.pos + 2] == IDENTIFIER else "")
            self._skip(f"annotation type declaration{name} skipped")
        elif (text == "record" and self.codes[self.pos + 1] == IDENTIFIER
              and self.texts[self.pos + 2] in ("(", "<")):
            self._skip("record declaration skipped")
        else:
            return False
        return True

    def _parse_type_decl(self, mods: list[str], kind: str) -> ClassDecl | None:
        self.pos += 1  # 'class' | 'interface'
        if self.codes[self.pos] != IDENTIFIER:
            self._skip(f"malformed {kind} header skipped")
            return None
        decl = ClassDecl(
            name=self.texts[self.pos],
            kind=kind,
            visibility=_visibility(mods),
            is_abstract="abstract" in mods or kind == "interface",
            unit_path=self.unit.file_path,
        )
        self.pos += 1
        if self.texts[self.pos] == "<":
            self.warn(f"type parameters on {decl.name} ignored")
            if not self._try_skip_angles():
                self._skip_declaration()
                return None

        if self.texts[self.pos] == "extends":
            names = self._read_name_list()
            if kind == "interface":
                decl.extended_interface_names = names
            elif names:
                decl.superclass_name = names[0]
        if self.texts[self.pos] == "implements":
            decl.implemented_interface_names = self._read_name_list()
        if self.texts[self.pos] == "permits":
            self._read_name_list()

        if self.texts[self.pos] != "{":
            self._skip(f"malformed {kind} body for {decl.name};"
                       " declaration skipped")
            return None
        self.pos += 1
        self.depth += 1
        self._parse_class_body(decl)
        self.depth -= 1
        return decl

    def _read_name_list(self) -> list[str]:
        """Read the keyword at the current token (`extends`, `implements`,
        `permits` or `throws`) and the names after it, separated by commas,
        each as `_read_type` reads a type. The list ends where no comma
        follows a name. A keyword or comma with no name after it stays
        unread, so the caller finds no `{` or `;` there."""
        names = []
        while True:  # at the keyword, then at each comma
            self.pos += 1
            if self.codes[self.pos] != IDENTIFIER:
                self.pos -= 1
                return names
            if (type_info := self._read_type()) is None:
                return names
            names.append(type_info[0])
            if self.texts[self.pos] != ",":
                return names

    def _parse_class_body(self, decl: ClassDecl) -> None:
        pending_bodies: list[tuple[MethodDecl, int, int]] = []
        # The field names and the (is_constructor, signature) pairs of the
        # methods declared so far; a repeat of either is skipped.
        seen: set[str | tuple[bool, str]] = set()
        while self.codes[self.pos] not in "}\0":
            self._parse_member(decl, pending_bodies, seen)
        if self.codes[self.pos] == "}":
            self.pos += 1
        # Bodies are scanned once the full method name set is known, so
        # calls to later-declared methods classify as internal.
        own_names = {m.name for m in decl.methods}
        for method, start, end in pending_bodies:
            method.body = scan_body(self.codes, self.texts, start, end,
                                    own_names)

    def _parse_member(self, decl: ClassDecl,
                      pending: list[tuple[MethodDecl, int, int]],
                      seen: set) -> None:
        codes = self.codes
        if codes[self.pos] == ";":
            self.pos += 1
            return
        mods = self._collect_modifiers()
        text = self.texts[self.pos]
        if (text in ("", "}")
                or self._parse_type_member(mods, text, decl.nested)):
            return
        if text == "{":
            self._skip("initializer block skipped")
            return
        if text == "<":
            self._skip("generic method skipped")
            return

        type_info = self._read_type()
        pos = self.pos
        if type_info is None or not codes.startswith(("(", IDENTIFIER), pos):
            self._skip(f"malformed member in {decl.name} skipped")
            return
        type_name, type_rank = type_info

        if codes[pos] == "(":
            # No separate return type: constructor (or tolerated oddity).
            if type_name != decl.name:
                self.warn(f"method '{type_name}' without return type")
            method = MethodDecl(name=type_name,
                                is_constructor=type_name == decl.name)
            self._finish_method(decl, method, mods, pending, seen)
            return
        name = self.texts[pos]
        self.pos = pos + 1
        if codes[self.pos] == "(":
            method = MethodDecl(name=name, return_type_name=type_name)
            self._finish_method(decl, method, mods, pending, seen)
        else:
            self._finish_fields(decl, mods, type_name, type_rank, name, seen)

    def _finish_method(self, decl: ClassDecl, method: MethodDecl,
                       mods: list[str],
                       pending: list[tuple[MethodDecl, int, int]],
                       seen: set) -> None:
        method.parameter_type_names = self._read_parameters(
            f"{method.name} in {decl.name}")
        if self.codes[self.pos] == _THROWS:
            self._read_name_list()
        key = (method.is_constructor, method.signature)
        if key in seen:
            self._skip(f"repeated method '{method.signature}' in {decl.name}"
                       " skipped")
            return
        seen.add(key)
        method.is_abstract = ("abstract" in mods
                              or (decl.kind == "interface" and "default" not in mods))
        start = self.pos + 1
        if self.codes[self.pos] == "{":
            self.pos = self.closers[self.pos] + 1
            method.is_abstract = False
            pending.append((method, start, self.pos - 1))
        elif self.codes[self.pos] == ";":
            self.pos += 1
        else:
            self._skip(f"malformed method {method.name} in {decl.name}")
        decl.methods.append(method)

    def _read_parameters(self, owner: str) -> list[str]:
        """The parameter types of `owner` ("f in A"). A parameter that is
        not a type, or not followed by `,` or `)`, is skipped with a
        warning up to the next of them outside its own parentheses (see
        `_skip_to`); a type read before that is kept."""
        codes = self.codes
        types = []
        if codes.startswith("()", self.pos):
            self.pos += 2
            return types
        # At the '(', then at each ',' that ends a parameter.
        while codes[self.pos] in "(,":
            self.pos += 1
            self._collect_modifiers()
            type_info = self._read_type()
            if type_info is not None:
                type_name, rank = type_info
                if codes.startswith("...", self.pos):
                    rank += 1  # varargs behave like one array dimension
                    self.pos += 3
                if codes[self.pos] == IDENTIFIER:
                    self.pos += 1  # parameter name
                rank += self._read_dims()
                types.append(type_name + "[]" * rank)
            if type_info is None or codes[self.pos] not in ",)":
                self.warn(f"malformed parameter of {owner} skipped")
                self._skip_to(",)")
        if codes[self.pos] == ")":
            self.pos += 1
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
            # An initializer ends at a `,` or `;`; a cut one is unterminated.
            if self.texts[self.pos] == "=":
                self.pos += 1
                if not self._skip_to(",;)]"):
                    break
            if self.texts[self.pos] == ",":
                self.pos += 1
                if self.codes[self.pos] != IDENTIFIER:
                    self._skip(f"malformed field declarator in {decl.name}")
                    return
                name = self.texts[self.pos]
                self.pos += 1
                continue
            if self.texts[self.pos] == ";":
                self.pos += 1
                return
            break
        self._skip(f"unterminated field declaration in {decl.name}")

    def _read_dims(self) -> int:
        """Consume the `[ ]` pairs at the current token, after a type or a
        declarator name, and return their number. A `[` without its `]`
        is no dimension and stays unread."""
        start = pos = self.pos
        while self.codes.startswith("[]", pos):
            pos += 2
        self.pos = pos
        return (pos - start) // 2

    def _read_type(self) -> tuple[str, int] | None:
        """Read a type: primitive or dotted name, optional generic args
        (dropped), optional [] pairs. Returns (base_name, array_rank)."""
        codes = self.codes
        start = end = self.pos
        if codes.startswith(IDENTIFIER, start):
            end += 1
            while codes.startswith(_DOT_NAME, end):
                end += 2
        elif codes.startswith(_VOID_OR_PRIMITIVE, start):
            end += 1
        else:
            return None
        name = "".join(self.texts[start:end])  # the dots are tokens too
        self.pos = end
        if self.texts[end] == "<":
            self.warn(f"generic type arguments on {name} ignored")
            if not self._try_skip_angles():
                return None
        return name, self._read_dims()

    def _try_skip_angles(self) -> bool:
        """Consume a balanced <...> type-argument list; False if the
        brackets do not balance before a structural token, which
        `unbalanced_at` then holds. A `<` at or before that token of an
        earlier scan fails at once, so no token is scanned twice by lists
        that fail and a run of them stays linear."""
        if self.pos <= self.unbalanced_at:
            return False
        save = self.pos
        depth = 0
        while text := self.texts[self.pos]:
            if text == "<":
                depth += 1
            elif text == ">":
                depth -= 1
            elif text == ">>":
                depth -= 2
            elif text == ">>>":
                depth -= 3
            elif text in (";", "{", "}", "(", ")", "="):
                break
            self.pos += 1
            if depth <= 0:
                return depth == 0
        self.unbalanced_at = self.pos
        self.pos = save
        return False


def _visibility(mods: list[str]) -> str:
    """The access modifier among mods, or "" for package access."""
    return next((m for m in mods
                 if m in ("public", "private", "protected")), "")


def _wordlike(ch: str) -> bool:
    return ch.isalnum() or ch in "_$*"
