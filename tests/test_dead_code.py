"""Dead-code guard for the package: every import in a module is used
there, and every top-level function, class or assigned name is named
somewhere in the package, the tests or the benchmark other than by its
own definition, and so is every method of a class in the package. One
that only the tests name belongs in the tests, unless it is public."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "classmetrics"


def _mentions(node: ast.AST, strings: bool = True):
    """Each mention of an identifier in `node`: a name it reads, an
    attribute, an imported name, and, when `strings` is set, an
    identifier inside a string constant (the benchmark's tracer names
    what it wraps as strings)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]
        elif (strings and isinstance(sub, ast.Constant)
              and isinstance(sub.value, str)):
            yield from re.findall(r"[A-Za-z_]\w*", sub.value)


def _names_in(node: ast.AST, strings: bool = True) -> set[str]:
    """Identifiers that `node` mentions (see `_mentions`)."""
    return set(_mentions(node, strings))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:  # __all__ re-exports count as uses
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                used |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in used:
                    unused.append(f"{path.name}: {alias.name}")
    assert unused == []


def _references(path: Path, strings: bool = True) -> set[str]:
    """What the top-level statements of `path` name (see `_names_in`)."""
    found = set()
    for node in _parse(path).body:
        names = _names_in(node, strings)
        # A definition's mention of itself (recursion) does not count.
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.discard(node.name)
        found |= names
    return found


def _defined(node: ast.stmt) -> list[str]:
    """What a top-level statement defines: a function, a class, or the
    names an assignment binds, `__all__` aside."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        return [sub.id for target in targets for sub in ast.walk(target)
                if isinstance(sub, ast.Name) and sub.id != "__all__"]
    return []


def _unnamed(referenced: set[str]) -> list[str]:
    """The package's top-level definitions not in `referenced`; a dunder
    function (a module's __getattr__) is called by Python itself."""
    return [f"{path.name}: {name}"
            for path in sorted(PACKAGE.glob("*.py"))
            for node in _parse(path).body
            for name in _defined(node) if name not in referenced
            and not (isinstance(node, ast.FunctionDef)
                     and name.startswith("__") and name.endswith("__"))]


def test_every_top_level_definition_is_named():
    referenced = set()
    for folder in ("src", "tests", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            referenced |= _references(path)
    assert _unnamed(referenced) == []


def test_every_top_level_definition_serves_the_program():
    # Code in the package names it (not a docstring, and not __init__,
    # which only re-exports), or the benchmark does (string constants
    # count there), or it is public.
    import classmetrics
    referenced = set(classmetrics.__all__)
    for path in sorted((ROOT / "bench").rglob("*.py")):
        referenced |= _references(path)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            referenced |= _references(path, strings=False)
    assert _unnamed(referenced) == []


def test_every_method_is_named():
    # A method is named when the package, the tests and the benchmark
    # mention it more often than its own definition does; dunder methods
    # are called by Python itself.
    mentions = Counter()
    for folder in ("src", "tests", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            mentions.update(_mentions(_parse(path)))
    unnamed = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                name = method.name
                own = Counter(_mentions(method))[name]
                if (not (name.startswith("__") and name.endswith("__"))
                        and mentions[name] <= own):
                    unnamed.append(f"{path.name}: {node.name}.{name}")
    assert unnamed == []
