"""Whole-program model: hierarchy, subclass and interface maps.

Merges parsed compilation units into one ProjectModel. Name resolution is
by simple name within the analyzed set; package-qualified names are used
only to disambiguate duplicates. A superclass that cannot be resolved
inside the set still counts as exactly one ancestor and ends the chain.
"""

from typing import NamedTuple

from .lexer import PRIMITIVE_TYPES
from .parser import ClassDecl, CompilationUnit, Record


class ModelError(Exception):
    pass


class _Entry(NamedTuple):
    qualified: str   # package.Outer.Inner
    display: str     # Outer.Inner
    decl: ClassDecl
    unit: CompilationUnit


class ProjectModel(Record):
    __slots__ = ("classes", "ancestors", "immediate_subclasses",
                 "interfaces_implemented", "user_defined_types",
                 "unresolved_supers", "units", "_order",
                 "_qualified_by_id", "_display")

    def __init__(self, classes: dict[str, ClassDecl] | None = None,
                 ancestors: dict[str, list[str]] | None = None,
                 immediate_subclasses: dict[str, set[str]] | None = None,
                 interfaces_implemented: dict[str, set[str]] | None = None,
                 user_defined_types: set[str] | None = None,
                 unresolved_supers: dict[str, str | None] | None = None,
                 units: dict[str, CompilationUnit] | None = None,
                 _order: list[str] | None = None,
                 _qualified_by_id: dict[int, str] | None = None,
                 _display: dict[str, str] | None = None):
        self.classes = {} if classes is None else classes
        self.ancestors = {} if ancestors is None else ancestors
        self.immediate_subclasses = (
            {} if immediate_subclasses is None else immediate_subclasses)
        self.interfaces_implemented = (
            {} if interfaces_implemented is None else interfaces_implemented)
        self.user_defined_types = (
            set() if user_defined_types is None else user_defined_types)
        self.unresolved_supers = (
            {} if unresolved_supers is None else unresolved_supers)
        self.units = {} if units is None else units
        self._order = [] if _order is None else _order
        self._qualified_by_id = (
            {} if _qualified_by_id is None else _qualified_by_id)
        self._display = {} if _display is None else _display

    def qualified_name_of(self, decl: ClassDecl) -> str:
        return self._qualified_by_id[id(decl)]

    def display_name_of(self, decl: ClassDecl) -> str:
        return self._display[self.qualified_name_of(decl)]

    def ancestors_of(self, decl: ClassDecl) -> list[str]:
        return self.ancestors[self.qualified_name_of(decl)]

    def subclasses_of(self, decl: ClassDecl) -> set[str]:
        return self.immediate_subclasses[self.qualified_name_of(decl)]

    def implemented_of(self, decl: ClassDecl) -> set[str]:
        return self.interfaces_implemented[self.qualified_name_of(decl)]

    def unit_of(self, decl: ClassDecl) -> CompilationUnit:
        return self.units[decl.unit_path]

    def ordered_decls(self) -> list[ClassDecl]:
        """Declarations in (file path, source declaration) order."""
        return [self.classes[q] for q in self._order]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjectModel):
            return NotImplemented
        return (
            self._order == other._order
            and self.ancestors == other.ancestors
            and self.immediate_subclasses == other.immediate_subclasses
            and self.interfaces_implemented == other.interfaces_implemented
            and self.user_defined_types == other.user_defined_types
            and self.unresolved_supers == other.unresolved_supers
            and self.classes == other.classes
        )


def build_model(units: list[CompilationUnit]) -> ProjectModel:
    """Merge units into a ProjectModel. Input order never matters."""
    ordered_units = sorted(units, key=lambda u: u.file_path)
    entries: list[_Entry] = []
    for unit in ordered_units:
        for decl in unit.type_decls:
            _flatten(decl, unit, "", entries)

    model = ProjectModel()
    by_qualified: dict[str, _Entry] = {}
    for entry in entries:
        prior = by_qualified.get(entry.qualified)
        if prior is not None:
            raise ModelError(
                f"duplicate class name {entry.qualified!r} declared in both "
                f"{prior.unit.file_path} and {entry.unit.file_path}"
            )
        by_qualified[entry.qualified] = entry
        model.classes[entry.qualified] = entry.decl
        model._order.append(entry.qualified)
        model._qualified_by_id[id(entry.decl)] = entry.qualified
        model._display[entry.qualified] = entry.display
        model.units.setdefault(entry.unit.file_path, entry.unit)

    by_simple: dict[str, list[_Entry]] = {}
    for entry in entries:
        by_simple.setdefault(entry.decl.name, []).append(entry)
    model.user_defined_types = set(by_simple)

    def resolve(name: str | None, from_package: str) -> _Entry | None:
        if not name:
            return None
        simple = name.split(".")[-1]
        candidates = by_simple.get(simple, [])
        if len(candidates) == 1:
            return candidates[0]
        for cand in candidates:
            if cand.unit.package_name == from_package:
                return cand
        return candidates[0] if candidates else None

    def direct_supers(entry: _Entry) -> list[str]:
        if entry.decl.kind == "interface":
            return list(entry.decl.extended_interface_names)
        return [entry.decl.superclass_name] if entry.decl.superclass_name else []

    _check_acyclic(entries, resolve, direct_supers)

    for entry in entries:
        model.immediate_subclasses.setdefault(entry.qualified, set())
    model.ancestors = _all_ancestors(entries, resolve, direct_supers)
    for entry in entries:
        model.interfaces_implemented[entry.qualified] = {
            n.split(".")[-1] for n in entry.decl.implemented_interface_names
        }
        model.unresolved_supers[entry.qualified] = None
        for written in direct_supers(entry):
            target = resolve(written, entry.unit.package_name)
            if target is not None:
                model.immediate_subclasses[target.qualified].add(entry.display)
            elif entry.decl.kind == "class":
                model.unresolved_supers[entry.qualified] = written.split(".")[-1]
    return model


def is_user_defined(type_name: str, model: ProjectModel,
                    policy: str = "project") -> bool:
    """Decide whether a declared field type counts for MOA.

    policy 'project': the simple name is declared in the analyzed set.
    policy 'any-class': any non-primitive, non-void type.
    """
    base = type_name.strip()
    while base.endswith("[]"):
        base = base[:-2].strip()
    if "<" in base:
        base = base.split("<", 1)[0].strip()
    simple = base.split(".")[-1]
    if not simple or simple in PRIMITIVE_TYPES or simple == "void":
        return False
    if policy == "any-class":
        return True
    if policy == "project":
        return simple in model.user_defined_types
    raise ValueError(f"unknown MOA policy: {policy!r}")


def _flatten(decl: ClassDecl, unit: CompilationUnit, prefix: str,
             out: list[_Entry]) -> None:
    display = f"{prefix}{decl.name}"
    package = unit.package_name
    qualified = f"{package}.{display}" if package else display
    out.append(_Entry(qualified, display, decl, unit))
    for nested in decl.nested:
        _flatten(nested, unit, f"{display}.", out)


def _all_ancestors(entries: list[_Entry], resolve,
                   direct_supers) -> dict[str, list[str]]:
    """Ancestor names of every entry, as _collect_ancestors gives them.

    An entry with exactly one resolved direct super t extends t's list,
    which is computed first: its breadth-first walk is t's walk with
    t.display seen from the start. That start changes nothing unless
    t's own list holds t.display (a same-named class of another
    package), and then the full walk runs instead."""
    out: dict[str, list[str]] = {}
    for entry in entries:
        chain = []  # (entry, its one resolved super), child first
        while entry.qualified not in out:
            supers = direct_supers(entry)
            target = (resolve(supers[0], entry.unit.package_name)
                      if len(supers) == 1 else None)
            if target is None:
                out[entry.qualified] = _collect_ancestors(
                    entry, resolve, direct_supers)
                break
            chain.append((entry, target))
            entry = target
        for entry, target in reversed(chain):
            above = out[target.qualified]
            out[entry.qualified] = (
                [target.display] + above if target.display not in above
                else _collect_ancestors(entry, resolve, direct_supers))
    return out


def _collect_ancestors(entry: _Entry, resolve, direct_supers) -> list[str]:
    """Breadth-first ancestor names; an external name counts once and ends
    its branch."""
    seen: set[str] = set()
    out: list[str] = []
    frontier = [(entry, written) for written in direct_supers(entry)]
    while frontier:
        next_frontier = []
        for origin, written in frontier:
            target = resolve(written, origin.unit.package_name)
            if target is None:
                simple = written.split(".")[-1]
                if simple not in seen:
                    seen.add(simple)
                    out.append(simple)
                continue
            if target.display in seen:
                continue
            seen.add(target.display)
            out.append(target.display)
            next_frontier.extend(
                (target, up) for up in direct_supers(target))
        frontier = next_frontier
    return out


def _check_acyclic(entries: list[_Entry], resolve, direct_supers) -> None:
    """Depth-first search for a cycle in the resolved super relation. The
    stack is explicit, so a deep hierarchy cannot exhaust the recursion
    limit."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {e.qualified: WHITE for e in entries}

    for root in entries:
        if color[root.qualified] != WHITE:
            continue
        color[root.qualified] = GRAY
        path = [root.display]
        stack = [(root, iter(direct_supers(root)))]
        while stack:
            entry, supers = stack[-1]
            for written in supers:
                target = resolve(written, entry.unit.package_name)
                if target is None:
                    continue
                state = color[target.qualified]
                if state == GRAY:
                    cycle = path[path.index(target.display):]
                    raise ModelError("inheritance cycle: " + " -> ".join(
                        cycle + [target.display]))
                if state == WHITE:
                    color[target.qualified] = GRAY
                    path.append(target.display)
                    stack.append((target, iter(direct_supers(target))))
                    break
            else:
                stack.pop()
                path.pop()
                color[entry.qualified] = BLACK
