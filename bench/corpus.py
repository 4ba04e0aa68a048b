"""Seeded, deterministic corpus generators for the benchmark workloads.

Each generator writes Java files under a directory and returns a Corpus:
the files the CLI is given, plus what the output checks expect. The
expectations come from the generator and from independent oracles
(bodies.cyclomatic, regexes over the source), never from classmetrics.
"""

import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import bodies

# Java comments, skipping string and char literals so that "//" inside
# a literal is not taken for a comment.
_COMMENT_OR_LITERAL = re.compile(
    r'"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'|//[^\n]*|/\*.*?\*/', re.S)
_TOKEN = re.compile(
    r'"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'|[A-Za-z_$][\w$]*'
    r'|\d[\w.]*|>>>=|<<=|>>=|>>>|[-+*/%&|^!=<>]=|&&|\|\||\+\+|--|->|::'
    r'|<<|>>|\S')
_TYPE_DECL = re.compile(
    r"\b(class|interface)\s+(\w+)([^{]*)\{")
_IMPLEMENTS = re.compile(r"\bimplements\s+([\w.,\s]+)")
_MEMBER_START = re.compile(r"(public|private|protected|static|abstract)\b")

_WORDS = ("buffer state index window stream value cache entry token field "
          "offset count table reader writer queue name object list node "
          "returns the a of for when if is not null empty next first").split()


def strip_comments(text: str) -> tuple[str, int]:
    """(text without comments, number of comment characters)."""
    removed = 0
    parts = []
    last = 0
    for m in _COMMENT_OR_LITERAL.finditer(text):
        if m.group().startswith("/"):
            parts.append(text[last:m.start()])
            parts.append(" ")
            removed += m.end() - m.start()
            last = m.end()
    parts.append(text[last:])
    return "".join(parts), removed


def declared_types(text: str) -> dict[str, int]:
    """Top-level and nested type names declared in one source file,
    mapped to the number of interfaces each class implements."""
    code, _ = strip_comments(text)
    found = {}
    for m in _TYPE_DECL.finditer(code):
        kind, name, header = m.groups()
        implemented = _IMPLEMENTS.search(header)
        found[name] = (0 if kind == "interface" or not implemented
                       else len(implemented.group(1).split(",")))
    return found


@dataclass
class Corpus:
    root: Path                  # directory handed to the CLI
    files: int = 0
    bytes: int = 0
    tokens: int = 0
    comment_bytes: int = 0
    classes: int = 0
    methods: int = 0            # fixture copies: NM total as reported
    copies: int = 0             # dlib-wide: copies of the fixture set
    # class name -> implemented-interface count (dlib fixtures)
    fixture_types: dict = field(default_factory=dict)
    # class name -> (methods, oracle complexity sum, imports) (decision-deep)
    oracle: dict = field(default_factory=dict)

    def add(self, path: Path, text: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        data = text.encode("utf-8")
        path.write_bytes(data)
        code, comment_chars = strip_comments(text)
        self.files += 1
        self.bytes += len(data)
        self.comment_bytes += comment_chars
        self.tokens += len(_TOKEN.findall(code))

    def describe(self) -> dict:
        return {
            "files": self.files,
            "bytes": self.bytes,
            "tokens": self.tokens,
            "classes": self.classes,
            "methods": self.methods,
            "comment_share": round(self.comment_bytes / self.bytes, 4),
        }


def fixture_sources(fixture_dir: Path) -> list[tuple[str, str]]:
    return [(p.name, p.read_text(encoding="utf-8"))
            for p in sorted(fixture_dir.glob("*.java"))]


def copy_fixtures(fixture_dir: Path, root: Path) -> Corpus:
    """The bundled sample corpus, unchanged."""
    corpus = Corpus(root, copies=1)
    for name, text in fixture_sources(fixture_dir):
        corpus.add(root / name, text)
        corpus.fixture_types.update(declared_types(text))
    corpus.classes = len(corpus.fixture_types)
    return corpus


def dlib_wide(fixture_dir: Path, root: Path, seed: int,
              copies: int) -> Corpus:
    """`copies` copies of the fixtures, one package each; every second
    copy carries Javadoc and // comments at member and statement
    boundaries."""
    rng = random.Random(seed)
    sources = fixture_sources(fixture_dir)
    corpus = Corpus(root, copies=copies)
    for _, text in sources:
        corpus.fixture_types.update(declared_types(text))
    for c in range(copies):
        package = f"p{c:03d}x{rng.randrange(16 ** 4):04x}"
        for name, text in sources:
            if not text.startswith("package dlib;"):
                raise ValueError(f"{name}: expected 'package dlib;' first")
            text = text.replace("package dlib;", f"package dlib.{package};", 1)
            if c % 2:
                text = decorate(text, rng)
            corpus.add(root / package / name, text)
    corpus.classes = copies * len(corpus.fixture_types)
    return corpus


def decorate(text: str, rng: random.Random) -> str:
    """Insert whole comment lines before half of the lines that follow a
    statement or member boundary (a line ending in ';', '{' or '}'). A
    whole line between two lines never splits a token, so the class is
    unchanged."""
    out = []
    previous = ""
    in_block = False
    for line in text.split("\n"):
        stripped = line.strip()
        if (not in_block and stripped and previous.endswith((";", "{", "}"))
                and not stripped.startswith(("/", "*"))
                and rng.random() < 0.5):
            pad = line[:len(line) - len(line.lstrip())]
            if _MEMBER_START.match(stripped):
                out.append(f"{pad}/**")
                for _ in range(rng.randint(1, 2)):
                    out.append(f"{pad} * {_phrase(rng, 4, 9)}")
                out.append(f"{pad} */")
            else:
                out.append(f"{pad}// {_phrase(rng, 3, 8)}")
        out.append(line)
        if "/*" in line:
            in_block = "*/" not in line[line.index("/*"):]
        elif in_block and "*/" in line:
            in_block = False
        if stripped:
            previous = stripped
    return "\n".join(out)


def _phrase(rng: random.Random, low: int, high: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(low, high)))


_IMPORTS = ["java.util.*", "java.io.*", "java.net.*", "java.text.*"]


def decision_deep(root: Path, seed: int, target_bytes: int) -> Corpus:
    """Classes of 3-8 void methods with seeded structured bodies, written
    until the corpus reaches `target_bytes`, so every seed gives about the
    same amount of work."""
    rng = random.Random(seed)
    corpus = Corpus(root)
    while corpus.bytes < target_bytes:
        name = f"Deep{corpus.classes:04d}"
        imports = sorted(rng.sample(_IMPORTS, rng.randint(0, 3)))
        lines = ["package deep;"]
        lines += [f"import {module};" for module in imports]
        lines += [f"public class {name} {{", "  int x;"]
        complexity = 0
        methods = rng.randint(3, 8)
        for m in range(methods):
            body = bodies.random_body(rng)
            complexity += bodies.cyclomatic(body)
            lines.append(f"  public void step{m}(int a, int b, int n, int k) {{")
            lines += bodies.render(body, 4)
            lines.append("  }")
        lines.append("}")
        corpus.add(root / f"{name}.java", "\n".join(lines) + "\n")
        corpus.oracle[name] = (methods, complexity, len(imports))
        corpus.classes += 1
        corpus.methods += methods
    return corpus
