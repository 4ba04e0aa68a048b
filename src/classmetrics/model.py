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


# qualified name -> [(written super name, the entry it resolves to), ...]
_Supers = dict[str, list[tuple[str, _Entry | None]]]


class ProjectModel(Record, classes=dict, ancestors=dict,
                   immediate_subclasses=dict, interfaces_implemented=dict,
                   user_defined_types=set, units=dict, _qualified_by_id=dict,
                   _display=dict):
    __slots__ = ("classes", "ancestors", "immediate_subclasses",
                 "interfaces_implemented", "user_defined_types", "units",
                 "_qualified_by_id", "_display")

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
        return list(self.classes.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjectModel):
            return NotImplemented
        return (
            list(self.classes) == list(other.classes)
            and self.ancestors == other.ancestors
            and self.immediate_subclasses == other.immediate_subclasses
            and self.interfaces_implemented == other.interfaces_implemented
            and self.user_defined_types == other.user_defined_types
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
    for entry in entries:
        prior = model.classes.get(entry.qualified)
        if prior is not None:
            raise ModelError(
                f"duplicate class name {entry.qualified!r} declared in both "
                f"{prior.unit_path} and {entry.unit.file_path}"
            )
        model.classes[entry.qualified] = entry.decl
        model._qualified_by_id[id(entry.decl)] = entry.qualified
        model._display[entry.qualified] = entry.display
        model.immediate_subclasses[entry.qualified] = set()
        model.units.setdefault(entry.unit.file_path, entry.unit)

    by_simple: dict[str, list[_Entry]] = {}
    for entry in entries:
        by_simple.setdefault(entry.decl.name, []).append(entry)
    model.user_defined_types = set(by_simple)

    # Each entry's written direct supers, each with the entry it names: the
    # first of that simple name in the writer's package, else the first of
    # that name; None for a name outside the analyzed set.
    supers: _Supers = {}
    for entry in entries:
        decl, package = entry.decl, entry.unit.package_name
        written = (decl.extended_interface_names if decl.kind == "interface"
                   else [decl.superclass_name] if decl.superclass_name else [])
        resolved = supers[entry.qualified] = []
        for name in written:
            candidates = by_simple.get(name.split(".")[-1], [])
            resolved.append((name, next(
                (c for c in candidates if c.unit.package_name == package),
                candidates[0] if candidates else None)))

    model.ancestors = _walk_hierarchy(entries, supers)
    for entry in entries:
        model.interfaces_implemented[entry.qualified] = {
            n.split(".")[-1] for n in entry.decl.implemented_interface_names
        }
        for _, target in supers[entry.qualified]:
            if target is not None:
                model.immediate_subclasses[target.qualified].add(entry.display)
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


def _collect_ancestors(entry: _Entry, supers: _Supers) -> list[str]:
    """Breadth-first ancestor names; an external name counts once and ends
    its branch."""
    seen: set[str] = set()
    out: list[str] = []
    frontier = supers[entry.qualified]
    while frontier:
        next_frontier = []
        for written, target in frontier:
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
            next_frontier.extend(supers[target.qualified])
        frontier = next_frontier
    return out


def _walk_hierarchy(entries: list[_Entry],
                    supers: _Supers) -> dict[str, list[str]]:
    """Ancestor names of every entry, as _collect_ancestors gives them,
    found by one depth-first search of the resolved super relation; a
    cycle there is a ModelError. The stack is explicit, so a deep
    hierarchy cannot exhaust the recursion limit.

    An entry finishes after all of its supers. One with exactly one
    resolved direct super t extends t's list: its breadth-first walk is
    t's walk with t.display seen from the start. That start changes
    nothing unless t's own list holds t.display (a same-named class of
    another package), and then the full walk runs instead."""
    out: dict[str, list[str]] = {}  # the finished entries
    on_path: set[str] = set()
    for root in entries:
        if root.qualified in out:
            continue
        on_path.add(root.qualified)
        path = [root.display]
        stack = [(root, iter(supers[root.qualified]))]
        while stack:
            entry, ups = stack[-1]
            for _, target in ups:
                if target is None or target.qualified in out:
                    continue
                if target.qualified in on_path:
                    cycle = path[path.index(target.display):]
                    raise ModelError("inheritance cycle: " + " -> ".join(
                        cycle + [target.display]))
                on_path.add(target.qualified)
                path.append(target.display)
                stack.append((target, iter(supers[target.qualified])))
                break
            else:
                stack.pop()
                path.pop()
                on_path.discard(entry.qualified)
                ups = supers[entry.qualified]
                target = ups[0][1] if len(ups) == 1 else None
                above = [] if target is None else out[target.qualified]
                out[entry.qualified] = (
                    [target.display] + above
                    if target is not None and target.display not in above
                    else _collect_ancestors(entry, supers))
    return out
