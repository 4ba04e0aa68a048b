"""Dead-code guard for the package: every import in a module is used
there, and every top-level function or class is named somewhere in the
package, the tests or the benchmark other than by its own definition."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "classmetrics"


def _names_in(node: ast.AST) -> set[str]:
    """Identifiers that `node` refers to: names, attributes, imported
    names, and identifiers inside string constants (the benchmark's
    tracer names what it wraps as strings)."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.update(re.findall(r"[A-Za-z_]\w*", sub.value))
    return found


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


def test_every_top_level_definition_is_named():
    referenced = set()
    for folder in ("src", "tests", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in _parse(path).body:
                names = _names_in(node)
                # A definition's mention of itself (recursion) does not
                # count.
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names.discard(node.name)
                referenced |= names
    unnamed = [f"{path.name}: {node.name}"
               for path in sorted(PACKAGE.glob("*.py"))
               for node in _parse(path).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name not in referenced]
    assert unnamed == []
