"""Token-stream parser extracting per-file class declaration models.

Handles the classic Java subset: package/import declarations, class and
interface declarations with extends/implements, fields, methods and
constructors. Method bodies are captured as balanced token slices and
scanned for structural facts (decision points, returns, call sites).
Generics, annotations, enums, lambdas and initializer blocks are
tokenized but reduced to skip-with-warning so mixed codebases still parse.
"""

from dataclasses import dataclass, field

from .lexer import PRIMITIVE_TYPES, Token

MODIFIERS = frozenset(
    ["public", "private", "protected", "static", "final", "abstract",
     "native", "synchronized", "transient", "volatile", "strictfp", "default"]
)

# Keywords opening a decision construct; `default:` labels deliberately
# add nothing, `while` needs do-while pairing (see scan_body).
_DECISION_KEYWORDS = frozenset(["if", "for", "catch", "case"])

_STATEMENT_KEYWORDS = frozenset(["if", "for", "while", "do", "switch", "try"])


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


def parse(tokens: list[Token], file_path: str = "<memory>") -> CompilationUnit:
    """Parse a token stream into a CompilationUnit (tolerant mode)."""
    _check_brace_balance(tokens, file_path)
    return _Parser(tokens, file_path).parse_unit()


# ---------------------------------------------------------------------------
# Body facts. scan_body walks the balanced token slice of one method body
# (the text between the outer braces, braces excluded) once; the other
# functions here are views of its result.

def scan_body(body_tokens: list[Token], own_method_names: set[str]) -> BodyFacts:
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
    n = len(body_tokens)
    for i, (kind, text, _, _) in enumerate(body_tokens):
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
                decisions += _is_ternary(body_tokens, i)
            elif text == "&&" or text == "||":
                short_circuits += 1
            continue
        next_text = body_tokens[i + 1].text if i + 1 < n else ""
        if kind == "identifier":
            if next_text == "(":
                is_internal = _call_is_internal(body_tokens, i,
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
            prev = body_tokens[i - 1].text if i else ""
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
            name = _new_type_name(body_tokens, i + 1)
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


def count_decision_points(body_tokens: list[Token],
                          count_short_circuit: bool = False) -> int:
    """Decision points of one body; `&&`/`||` only when asked."""
    facts = scan_body(body_tokens, set())
    return facts.decision_point_count + (
        facts.short_circuit_count if count_short_circuit else 0)


def classify_calls(body_tokens: list[Token],
                   own_method_names: set[str]) -> tuple[int, int]:
    """Classify every call site as (external, internal)."""
    facts = scan_body(body_tokens, own_method_names)
    return facts.external_call_count, facts.internal_call_count


def count_returns(body_tokens: list[Token]) -> tuple[int, int]:
    """Return (value_returns, bare_returns) for one body slice."""
    facts = scan_body(body_tokens, set())
    return facts.value_return_count, facts.bare_return_count


# The two views below have no caller in the package; they stay because
# bench/tracing.py wraps every body view by name.
def count_short_circuit_ops(body_tokens: list[Token]) -> int:
    return scan_body(body_tokens, set()).short_circuit_count


def collect_new_types(body_tokens: list[Token]) -> list[str]:
    return scan_body(body_tokens, set()).new_expression_type_names


def _call_is_internal(tokens: list[Token], i: int,
                      own_method_names: set[str]) -> bool | None:
    """Whether the call of the identifier at i is internal; None for an
    object creation."""
    chain_head = _chain_head(tokens, i)
    before = tokens[chain_head - 1].text if chain_head else ""
    if before == "new":
        return None
    if chain_head == i and before != ".":
        return tokens[i].text in own_method_names
    # `this.f()` is internal; any other receiver (named chain or
    # expression result) is external.
    return chain_head == i - 2 and tokens[chain_head].text == "this"


def _new_type_name(tokens: list[Token], j: int) -> str:
    """Dotted type name of the `new` expression whose type starts at j."""
    parts = []
    n = len(tokens)
    while j < n and (tokens[j].kind == "identifier"
                     or tokens[j].text in PRIMITIVE_TYPES):
        parts.append(tokens[j].text)
        if j + 1 < n and tokens[j + 1].text == ".":
            parts.append(".")
            j += 2
        else:
            break
    return "".join(parts)


def _is_ternary(tokens: list[Token], i: int) -> bool:
    # Filter out generic wildcards: <?>, <? extends X>, Map<String,?>.
    prev = tokens[i - 1].text if i else ""
    nxt = tokens[i + 1].text if i + 1 < len(tokens) else ""
    if prev in ("<", ","):
        return False
    if nxt in ("extends", "super", ">", ">>", ","):
        return False
    return True


def _chain_head(tokens: list[Token], i: int) -> int:
    """Index of the first token of the dotted name chain ending at i."""
    j = i
    while j >= 2 and tokens[j - 1].text == ".":
        prev = tokens[j - 2]
        if prev.kind == "identifier" or (prev.kind == "keyword"
                                         and prev.text in ("this", "super")):
            j -= 2
        else:
            break
    return j


def _check_brace_balance(tokens: list[Token], file_path: str) -> None:
    stack = []
    for tok in tokens:
        if tok.text == "{":
            stack.append(tok)
        elif tok.text == "}":
            if not stack:
                raise ParseError(f"unmatched '}}' in {file_path}",
                                 tok.line, tok.column)
            stack.pop()
    if stack:
        tok = stack[-1]
        raise ParseError(f"unclosed '{{' in {file_path}", tok.line, tok.column)


# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token], file_path: str):
        self.tokens = tokens
        self.pos = 0
        self.unit = CompilationUnit(file_path=file_path)

    # -- token helpers ------------------------------------------------

    def cur(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def peek(self, off: int = 0) -> Token | None:
        p = self.pos + off
        return self.tokens[p] if 0 <= p < len(self.tokens) else None

    def advance(self) -> Token | None:
        tok = self.cur()
        if tok is not None:
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        tok = self.cur()
        return tok is not None and tok.text == text

    def warn(self, message: str) -> None:
        tok = self.cur()
        where = f" at line {tok.line}" if tok else ""
        self.unit.warnings.append(f"{self.unit.file_path}: {message}{where}")

    # -- top level ----------------------------------------------------

    def parse_unit(self) -> CompilationUnit:
        while self.cur() is not None:
            tok = self.cur()
            if tok.text == "package":
                self.advance()
                self.unit.package_name = self._read_until_semi()
            elif tok.text == "import":
                self.advance()
                self.unit.imports.append(self._read_until_semi())
            elif tok.text == "@":
                self._skip_annotation()
            elif tok.text == ";":
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
            parts.append(self.advance().text)
        if self.at(";"):
            self.advance()
        out = []
        for k, p in enumerate(parts):
            if out and _wordlike(out[-1][-1]) and _wordlike(p[0]):
                out.append(" ")
            out.append(p)
        return "".join(out)

    def _parse_type_decl_or_skip(self) -> ClassDecl | None:
        mods = self._collect_modifiers()
        tok = self.cur()
        if tok is None:
            return None
        if tok.text in ("class", "interface"):
            return self._parse_type_decl(mods)
        if tok.text == "enum":
            self.warn("enum declaration skipped")
            self._skip_declaration()
            return None
        self.warn(f"unsupported top-level construct '{tok.text}' skipped")
        self._skip_declaration()
        return None

    def _collect_modifiers(self) -> list[str]:
        mods = []
        while self.cur() is not None:
            if self.at("@"):
                self._skip_annotation()
                continue
            if self.cur().text in MODIFIERS:
                mods.append(self.advance().text)
                continue
            break
        return mods

    def _skip_annotation(self) -> None:
        self.warn("annotation skipped")
        self.advance()  # '@'
        if self.cur() is not None and self.cur().kind in ("identifier", "keyword"):
            self.advance()
            while self.at(".") and self.peek(1) is not None:
                self.advance()
                self.advance()
        if self.at("("):
            self._skip_balanced("(", ")")

    def _skip_declaration(self) -> None:
        """Skip to the end of a declaration: past a balanced brace block or
        the next top-level semicolon, whichever comes first."""
        while self.cur() is not None:
            tok = self.cur()
            if tok.text == ";":
                self.advance()
                return
            if tok.text == "{":
                self._skip_balanced("{", "}")
                return
            if tok.text == "}":
                return  # let the enclosing body loop consume it
            self.advance()

    def _skip_balanced(self, opener: str, closer: str) -> int:
        """Skip a balanced region starting at the current opener. Returns
        the index just past the closer."""
        depth = 0
        while self.cur() is not None:
            text = self.advance().text
            if text == opener:
                depth += 1
            elif text == closer:
                depth -= 1
                if depth == 0:
                    break
        return self.pos

    # -- declarations ---------------------------------------------------

    def _parse_type_decl(self, mods: list[str]) -> ClassDecl | None:
        kind = self.advance().text  # 'class' | 'interface'
        name_tok = self.cur()
        if name_tok is None or name_tok.kind != "identifier":
            self.warn(f"malformed {kind} header skipped")
            self._skip_declaration()
            return None
        decl = ClassDecl(
            name=name_tok.text,
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
        self._parse_class_body(decl)
        return decl

    def _read_name_list(self, stop: set[str]) -> list[str]:
        names = []
        while self.cur() is not None and self.cur().text not in stop:
            if self.cur().kind == "identifier":
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
        parts = [self.advance().text]
        while self.at(".") and self.peek(1) is not None \
                and self.peek(1).kind == "identifier":
            self.advance()
            parts.append(self.advance().text)
        return ".".join(parts)

    def _parse_class_body(self, decl: ClassDecl) -> None:
        pending_bodies: list[tuple[MethodDecl, list[Token]]] = []
        while self.cur() is not None and not self.at("}"):
            self._parse_member(decl, pending_bodies)
        if self.at("}"):
            self.advance()
        # Bodies are scanned once the full method name set is known, so
        # calls to later-declared methods classify as internal.
        own_names = {m.name for m in decl.methods}
        for method, body in pending_bodies:
            method.body = scan_body(body, own_names)

    def _parse_member(self, decl: ClassDecl,
                      pending: list[tuple[MethodDecl, list[Token]]]) -> None:
        if self.at(";"):
            self.advance()
            return
        mods = self._collect_modifiers()
        tok = self.cur()
        if tok is None:
            return

        if tok.text in ("class", "interface"):
            nested = self._parse_type_decl(mods)
            if nested is not None:
                decl.nested.append(nested)
            return
        if tok.text == "enum":
            self.warn("enum declaration skipped")
            self._skip_declaration()
            return
        if tok.text == "{":
            self.warn("initializer block skipped")
            self._skip_balanced("{", "}")
            return
        if tok.text == "<":
            self.warn("generic method skipped")
            self._skip_declaration()
            return
        if tok.text == "}":
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

        name_tok = self.cur()
        if name_tok is None or name_tok.kind != "identifier":
            self.warn(f"malformed member in {decl.name} skipped")
            self._skip_declaration()
            return
        name = name_tok.text
        self.advance()

        if self.at("("):
            method = MethodDecl(name=name, return_type_name=type_name)
            self._finish_method(decl, method, mods, pending)
        else:
            self._finish_fields(decl, mods, type_name, type_rank, name)

    def _finish_method(self, decl: ClassDecl, method: MethodDecl,
                       mods: list[str],
                       pending: list[tuple[MethodDecl, list[Token]]]) -> None:
        method.parameter_type_names = self._read_parameters()
        if self.at("throws"):
            self.advance()
            self._read_name_list(stop={"{", ";"})
        method.is_abstract = ("abstract" in mods
                              or (decl.kind == "interface" and "default" not in mods))
        if self.at("{"):
            body = self._capture_body()
            method.is_abstract = False
            pending.append((method, body))
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
            if (self.at(".") and self.peek(1) is not None
                    and self.peek(1).text == "."
                    and self.peek(2) is not None
                    and self.peek(2).text == "."):
                rank += 1  # varargs behave like one array dimension
                self.advance()
                self.advance()
                self.advance()
            if self.cur() is not None and self.cur().kind == "identifier":
                self.advance()  # parameter name
            while self.at("["):
                self.advance()
                if self.at("]"):
                    self.advance()
                rank += 1
            types.append(type_name + "[]" * rank)
        if self.at(")"):
            self.advance()
        return types

    def _capture_body(self) -> list[Token]:
        """Capture the tokens between the braces of a method body."""
        start = self.pos + 1
        self._skip_balanced("{", "}")
        return self.tokens[start:self.pos - 1]

    def _finish_fields(self, decl: ClassDecl, mods: list[str],
                       type_name: str, type_rank: int, first_name: str) -> None:
        visibility = next((m for m in mods
                           if m in ("public", "private", "protected")), "")
        # Interface fields are implicitly static constants.
        is_static = "static" in mods or decl.kind == "interface"
        name = first_name
        while True:
            rank = type_rank
            while self.at("["):
                self.advance()
                if self.at("]"):
                    self.advance()
                rank += 1
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
                tok = self.cur()
                if tok is None or tok.kind != "identifier":
                    self.warn(f"malformed field declarator in {decl.name}")
                    self._skip_declaration()
                    return
                name = tok.text
                self.advance()
                continue
            if self.at(";"):
                self.advance()
            else:
                self.warn(f"unterminated field declaration in {decl.name}")
                self._skip_declaration()
            return

    def _skip_initializer(self) -> None:
        """Skip an initializer expression up to a top-level ',' or ';'."""
        depth = 0
        while self.cur() is not None:
            text = self.cur().text
            if text in "([{":
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
        tok = self.cur()
        if tok is None:
            return None
        if tok.kind == "keyword":
            if tok.text in PRIMITIVE_TYPES or tok.text == "void":
                name = self.advance().text
            else:
                return None
        elif tok.kind == "identifier":
            name = self._read_dotted_name()
        else:
            return None
        if self.at("<"):
            self.warn(f"generic type arguments on {name} ignored")
            if not self._try_skip_angles():
                return None
        rank = 0
        while self.at("[") and self.peek(1) is not None and self.peek(1).text == "]":
            self.advance()
            self.advance()
            rank += 1
        return name, rank

    def _try_skip_angles(self) -> bool:
        """Consume a balanced <...> type-argument list; False if the
        brackets do not balance before a structural token."""
        save = self.pos
        depth = 0
        while self.cur() is not None:
            text = self.cur().text
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
