"""Token-stream parser extracting per-file class declaration models.

Handles the classic Java subset: package/import declarations, class and
interface declarations with extends/implements, fields, methods and
constructors. Method bodies are captured as balanced token slices and
scanned for structural facts (decision points, returns, call sites).
Generics, annotations, enums, lambdas and initializer blocks are
tokenized but reduced to skip-with-warning so mixed codebases still parse.

The parser reads the `kinds` and `texts` lists of a lexer `Tokens`.
It runs the positioned pass (`Tokens.positioned()`) at most once per
file, and only to report a warning or a brace error, so a file that
parses cleanly never builds token positions.
"""

from dataclasses import dataclass, field

from .lexer import PRIMITIVE_TYPES, Tokens

MODIFIERS = frozenset(
    ["public", "private", "protected", "static", "final", "abstract",
     "native", "synchronized", "transient", "volatile", "strictfp", "default"]
)

# Keywords opening a decision construct; `default:` labels deliberately
# add nothing, `while` needs do-while pairing (see scan_body).
_DECISION_KEYWORDS = frozenset(["if", "for", "catch", "case"])

_STATEMENT_KEYWORDS = frozenset(["if", "for", "while", "do", "switch", "try"])

# Class and interface declarations nested deeper than this are skipped
# with a warning; the parser recurses once per level.
MAX_CLASS_NESTING = 100


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


@dataclass
class BodyFacts:
    decision_point_count: int = 0
    short_circuit_count: int = 0
    value_return_count: int = 0
    bare_return_count: int = 0
    external_call_count: int = 0
    internal_call_count: int = 0
    statement_count: int = 0
    new_expression_type_names: list[str] = field(default_factory=list)


@dataclass
class FieldDecl:
    name: str
    declared_type_name: str  # raw text, array suffix stripped
    array_rank: int = 0
    is_static: bool = False
    visibility: str = ""


@dataclass
class MethodDecl:
    name: str
    is_constructor: bool = False
    return_type_name: str | None = None
    parameter_type_names: list[str] = field(default_factory=list)
    is_abstract: bool = False
    body: BodyFacts | None = None

    @property
    def signature(self) -> str:
        return f"{self.name}({','.join(self.parameter_type_names)})"


@dataclass
class ClassDecl:
    name: str
    kind: str  # 'class' | 'interface'
    visibility: str = ""
    is_abstract: bool = False
    superclass_name: str | None = None
    extended_interface_names: list[str] = field(default_factory=list)
    implemented_interface_names: list[str] = field(default_factory=list)
    fields: list[FieldDecl] = field(default_factory=list)
    methods: list[MethodDecl] = field(default_factory=list)
    nested: list["ClassDecl"] = field(default_factory=list)
    unit_path: str = ""


@dataclass
class CompilationUnit:
    file_path: str
    package_name: str = ""
    imports: list[str] = field(default_factory=list)
    type_decls: list[ClassDecl] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def parse(tokens: Tokens, file_path: str = "<memory>") -> CompilationUnit:
    """Parse one file's tokens into a CompilationUnit (tolerant mode)."""
    closers = _match_braces(tokens, file_path)
    return _Parser(tokens, file_path, closers).parse_unit()


# ---------------------------------------------------------------------------
# Body facts. scan_body walks the kinds and texts of one method body
# (the tokens between the outer braces, braces excluded) once; the other
# functions here are views of its result for the body of a Tokens.

def scan_body(kinds: list[str], texts: list[str],
              own_method_names: set[str]) -> BodyFacts:
    """Collect every BodyFacts field in one pass over the body.

    Decision points: if/for/while/do, case labels (not default), catch
    clauses and ternaries; `&&`/`||` are counted apart. A `while` that
    closes a `do` at the same brace depth is part of that `do`.

    Calls: external when they have an explicit receiver other than
    `this` (x.f(), super.f(), super(...)) or are a bare name not declared
    in the enclosing class; `new` expressions are object creations.

    Statements: semicolons plus statement keywords.
    """
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


def count_decision_points(body: Tokens,
                          count_short_circuit: bool = False) -> int:
    """Decision points of one body; `&&`/`||` only when asked."""
    facts = scan_body(body.kinds, body.texts, set())
    return facts.decision_point_count + (
        facts.short_circuit_count if count_short_circuit else 0)


def classify_calls(body: Tokens,
                   own_method_names: set[str]) -> tuple[int, int]:
    """Classify every call site as (external, internal)."""
    facts = scan_body(body.kinds, body.texts, own_method_names)
    return facts.external_call_count, facts.internal_call_count


def count_returns(body: Tokens) -> tuple[int, int]:
    """Return (value_returns, bare_returns) for one body."""
    facts = scan_body(body.kinds, body.texts, set())
    return facts.value_return_count, facts.bare_return_count


# The two views below have no caller in the package; they stay because
# bench/tracing.py wraps every body view by name.
def count_short_circuit_ops(body: Tokens) -> int:
    return scan_body(body.kinds, body.texts, set()).short_circuit_count


def collect_new_types(body: Tokens) -> list[str]:
    return scan_body(body.kinds, body.texts, set()).new_expression_type_names


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


def _match_braces(tokens: Tokens, file_path: str) -> dict[int, int]:
    """Index of the matching '}' for the index of each '{'."""
    closers = {}
    stack = []
    for i, text in enumerate(tokens.texts):
        if text == "{":
            stack.append(i)
        elif text == "}":
            if not stack:
                tok = tokens.positioned()[i]
                raise ParseError(f"unmatched '}}' in {file_path}",
                                 tok.line, tok.column)
            closers[stack.pop()] = i
    if stack:
        tok = tokens.positioned()[stack[-1]]
        raise ParseError(f"unclosed '{{' in {file_path}", tok.line, tok.column)
    return closers


# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: Tokens, file_path: str,
                 closers: dict[int, int]):
        self.tokens = tokens
        self.kinds = tokens.kinds
        self.texts = tokens.texts
        self.n = len(tokens.texts)
        self.closers = closers  # '{' index -> matching '}' index
        self.pos = 0
        self.depth = 0  # class bodies entered and not yet left
        self.unit = CompilationUnit(file_path=file_path)
        self.lines: list[int] | None = None  # of each token, on first warn

    # -- token helpers ------------------------------------------------

    def cur(self) -> str | None:
        """Text of the current token; None at the end."""
        return self.texts[self.pos] if self.pos < self.n else None

    def kind(self, off: int = 0) -> str | None:
        """Kind of the token `off` places ahead; None past the end."""
        p = self.pos + off
        return self.kinds[p] if p < self.n else None

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
            if self.lines is None:
                self.lines = [t.line for t in self.tokens.positioned()]
            where = f" at line {self.lines[self.pos]}"
        self.unit.warnings.append(f"{self.unit.file_path}: {message}{where}")

    # -- top level ----------------------------------------------------

    def parse_unit(self) -> CompilationUnit:
        while (text := self.cur()) is not None:
            if text == "package":
                self.advance()
                self.unit.package_name = self._read_until_semi()
            elif text == "import":
                self.advance()
                self.unit.imports.append(self._read_until_semi())
            elif text == "@":
                self._skip_annotation()
            elif text == ";":
                self.advance()
            else:
                before = self.pos
                decl = self._parse_type_decl_or_skip()
                if decl is not None:
                    self.unit.type_decls.append(decl)
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

    def _parse_type_decl_or_skip(self) -> ClassDecl | None:
        mods = self._collect_modifiers()
        text = self.cur()
        if text is None:
            return None
        if text in ("class", "interface"):
            return self._parse_type_decl(mods)
        if text == "enum":
            self.warn("enum declaration skipped")
            self._skip_declaration()
            return None
        self.warn(f"unsupported top-level construct '{text}' skipped")
        self._skip_declaration()
        return None

    def _collect_modifiers(self) -> list[str]:
        mods = []
        while self.cur() is not None:
            if self.at("@"):
                self._skip_annotation()
                continue
            if self.cur() in MODIFIERS:
                mods.append(self.advance())
                continue
            break
        return mods

    def _skip_annotation(self) -> None:
        self.warn("annotation skipped")
        self.advance()  # '@'
        if self.kind() in ("identifier", "keyword"):
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

    def _parse_type_decl(self, mods: list[str]) -> ClassDecl | None:
        kind = self.advance()  # 'class' | 'interface'
        if self.kind() != "identifier":
            self.warn(f"malformed {kind} header skipped")
            self._skip_declaration()
            return None
        decl = ClassDecl(
            name=self.cur(),
            kind=kind,
            visibility=next((m for m in mods
                             if m in ("public", "private", "protected")), ""),
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
            names = self._read_name_list(stop={"implements", "{"})
            if kind == "interface":
                decl.extended_interface_names = names
            elif names:
                decl.superclass_name = names[0]
        if self.at("implements"):
            self.advance()
            decl.implemented_interface_names = self._read_name_list(stop={"{"})

        if not self.at("{"):
            self.warn(f"malformed {kind} body for {decl.name}; declaration skipped")
            self._skip_declaration()
            return None
        self.advance()
        self.depth += 1
        self._parse_class_body(decl)
        self.depth -= 1
        return decl

    def _read_name_list(self, stop: set[str]) -> list[str]:
        names = []
        while self.cur() is not None and self.cur() not in stop:
            if self.kind() == "identifier":
                name = self._read_dotted_name()
                if self.at("<"):
                    self._try_skip_angles()
                names.append(name)
            elif self.at(","):
                self.advance()
            else:
                break
        return names

    def _read_dotted_name(self) -> str:
        parts = [self.advance()]
        while self.at(".") and self.kind(1) == "identifier":
            self.advance()
            parts.append(self.advance())
        return ".".join(parts)

    def _parse_class_body(self, decl: ClassDecl) -> None:
        pending_bodies: list[tuple[MethodDecl, int, int]] = []
        while self.cur() is not None and not self.at("}"):
            self._parse_member(decl, pending_bodies)
        if self.at("}"):
            self.advance()
        # Bodies are scanned once the full method name set is known, so
        # calls to later-declared methods classify as internal.
        own_names = {m.name for m in decl.methods}
        for method, start, end in pending_bodies:
            method.body = scan_body(self.kinds[start:end],
                                    self.texts[start:end], own_names)

    def _parse_member(self, decl: ClassDecl,
                      pending: list[tuple[MethodDecl, int, int]]) -> None:
        if self.at(";"):
            self.advance()
            return
        mods = self._collect_modifiers()
        text = self.cur()
        if text is None:
            return

        if text in ("class", "interface"):
            if self.depth >= MAX_CLASS_NESTING:
                self.warn(f"class nested deeper than {MAX_CLASS_NESTING}"
                          " levels skipped")
                self._skip_declaration()
                return
            nested = self._parse_type_decl(mods)
            if nested is not None:
                decl.nested.append(nested)
            return
        if text == "enum":
            self.warn("enum declaration skipped")
            self._skip_declaration()
            return
        if text == "{":
            self.warn("initializer block skipped")
            self._skip_braces()
            return
        if text == "<":
            self.warn("generic method skipped")
            self._skip_declaration()
            return
        if text == "}":
            return

        type_info = self._read_type()
        if type_info is None:
            self.warn(f"malformed member in {decl.name} skipped")
            self._skip_declaration()
            return
        type_name, type_rank = type_info

        if self.at("("):
            # No separate return type: constructor (or tolerated oddity).
            if type_name != decl.name:
                self.warn(f"method '{type_name}' without return type")
            method = MethodDecl(name=type_name,
                                is_constructor=type_name == decl.name)
            self._finish_method(decl, method, mods, pending)
            return

        if self.kind() != "identifier":
            self.warn(f"malformed member in {decl.name} skipped")
            self._skip_declaration()
            return
        name = self.advance()

        if self.at("("):
            method = MethodDecl(name=name, return_type_name=type_name)
            self._finish_method(decl, method, mods, pending)
        else:
            self._finish_fields(decl, mods, type_name, type_rank, name)

    def _finish_method(self, decl: ClassDecl, method: MethodDecl,
                       mods: list[str],
                       pending: list[tuple[MethodDecl, int, int]]) -> None:
        method.parameter_type_names = self._read_parameters()
        if self.at("throws"):
            self.advance()
            self._read_name_list(stop={"{", ";"})
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
            self.warn(f"malformed method {method.name} in {decl.name}")
            self._skip_declaration()
        decl.methods.append(method)

    def _read_parameters(self) -> list[str]:
        self.advance()  # '('
        types = []
        while self.cur() is not None and not self.at(")"):
            if self.at(","):
                self.advance()
                continue
            if self.at("@"):
                self._skip_annotation()
                continue
            if self.at("final"):
                self.advance()
                continue
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
            if self.kind() == "identifier":
                self.advance()  # parameter name
            rank += self._read_dims()
            types.append(type_name + "[]" * rank)
        if self.at(")"):
            self.advance()
        return types

    def _finish_fields(self, decl: ClassDecl, mods: list[str],
                       type_name: str, type_rank: int, first_name: str) -> None:
        visibility = next((m for m in mods
                           if m in ("public", "private", "protected")), "")
        # Interface fields are implicitly static constants.
        is_static = "static" in mods or decl.kind == "interface"
        name = first_name
        while True:
            rank = type_rank + self._read_dims()
            decl.fields.append(FieldDecl(
                name=name,
                declared_type_name=type_name,
                array_rank=rank,
                is_static=is_static,
                visibility=visibility,
            ))
            if self.at("="):
                self.advance()
                self._skip_initializer()
            if self.at(","):
                self.advance()
                if self.kind() != "identifier":
                    self.warn(f"malformed field declarator in {decl.name}")
                    self._skip_declaration()
                    return
                name = self.advance()
                continue
            if self.at(";"):
                self.advance()
            else:
                self.warn(f"unterminated field declaration in {decl.name}")
                self._skip_declaration()
            return

    def _read_dims(self) -> int:
        """Consume the `[]` pairs after a declarator name and return
        their number; a `[` without its `]` still counts."""
        rank = 0
        while self.at("["):
            self.advance()
            if self.at("]"):
                self.advance()
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
        kind = self.kind()
        if kind == "keyword":
            if self.cur() in PRIMITIVE_TYPES or self.cur() == "void":
                name = self.advance()
            else:
                return None
        elif kind == "identifier":
            name = self._read_dotted_name()
        else:
            return None
        if self.at("<"):
            self.warn(f"generic type arguments on {name} ignored")
            if not self._try_skip_angles():
                return None
        rank = 0
        while self.at("[") and self.peek(1) == "]":
            self.pos += 2
            rank += 1
        return name, rank

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


def _wordlike(ch: str) -> bool:
    return ch.isalnum() or ch in "_$*"
