"""Every public module-level function or class of the package has a use.

A public definition in ``src/intercept/*.py`` must be read by another
statement of the package, be exported in ``intercept.__all__``, or be a
layer that ``perfbench/tracing.py`` times by name. Code that only tests
call fails here.

Definitions and uses are keyed by (module, name): a name read in module N
counts for the definition in module M only if N is M or N binds it with
``from .M import name``, or reads it as ``M.name`` after ``from . import M``.
An ``__all__`` entry exempts the definition that ``__init__.py`` imports
under that name, and a ``LAYERS`` entry the one in its module column. A
local variable of N that shadows an imported name still counts as a use.

The same holds for each public method and property of a public class: its
name must be read as an attribute (``obj.name``) somewhere in the package
outside its own body, or be a ``Class.method`` layer of ``LAYERS``. The
receiver's type is not known statically, so an attribute read counts for
every member of that name; ``__all__`` does not exempt members.
"""

from __future__ import annotations

import ast
import pathlib

import intercept

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "intercept").glob("*.py"))


def _bindings(tree: ast.Module) -> tuple[dict[str, tuple[str, str]], dict[str, str]]:
    """The names a module imports from the package, and the modules it imports.

    Returns ``{local name: (module, name)}`` for ``from .M import name`` and
    ``{local name: module}`` for ``from . import M``, wherever they appear.
    """
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    names[local] = (node.module, alias.name)
    return names, modules


def _traced_attributes() -> set[tuple[str, str]]:
    """(module, attribute) of each entry of ``perfbench/tracing.LAYERS``."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYERS" for target in node.targets
        ):
            layers = ast.literal_eval(node.value)
            return {(module.rpartition(".")[2], attribute) for _, module, attribute in layers}
    raise AssertionError("perfbench/tracing.py defines no LAYERS")


def unused_public_names() -> list[str]:
    """``module.name`` of each public definition that nothing in the package uses."""
    definitions = {}  # (module, name) -> defining statement
    used = set()  # (module, name) read by a statement other than its definition
    exempt = {(module, attribute.split(".")[0]) for module, attribute in _traced_attributes()}
    for path in SOURCES:
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, modules = _bindings(tree)
        if module == "__init__":
            exempt |= {imported[name] for name in intercept.__all__ if name in imported}
        own = {
            node.name: node
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        definitions.update(
            ((module, name), node) for name, node in own.items() if not name.startswith("_")
        )
        for statement in tree.body:
            for sub in ast.walk(statement):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    if sub.id in imported:
                        used.add(imported[sub.id])
                    elif sub.id in own and own[sub.id] is not statement:
                        used.add((module, sub.id))
                elif (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id in modules
                ):
                    used.add((modules[sub.value.id], sub.attr))
    return sorted(
        f"{module}.{name}" for module, name in definitions if (module, name) not in used | exempt
    )


def unused_public_members() -> list[str]:
    """``module.Class.member`` of each public method or property of a public class
    whose name the package never reads as an attribute outside its own body."""
    members = {}  # (module, "Class.member") -> the member's definition
    reads = []  # (attribute name, the node that reads it)
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                members.update(
                    ((path.stem, f"{cls.name}.{node.name}"), node)
                    for node in cls.body
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                )
        reads += [
            (sub.attr, sub)
            for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
        ]
    unused, traced = [], _traced_attributes()
    for (module, qualified), node in members.items():
        inside = {id(sub) for sub in ast.walk(node)}
        read = any(name == node.name and id(sub) not in inside for name, sub in reads)
        if not read and (module, qualified) not in traced:
            unused.append(f"{module}.{qualified}")
    return sorted(unused)


def test_every_public_definition_has_a_production_use():
    assert unused_public_names() == []


def test_every_public_member_has_a_production_use():
    assert unused_public_members() == []
